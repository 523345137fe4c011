#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), and tests.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== hermeticity: path packages only, no environment probes =="
# A fresh clone must build with no registry, no network and no patch
# config: every package cargo resolves is a path package of this
# repository (`"source":null`), and no test or script asks the
# environment whether persistence works before exercising it.
meta=$(cargo metadata --offline --format-version 1)
if grep -o '"source":"[^"]*"' <<<"$meta" | sort -u | grep .; then
    echo "check: FAIL — the packages above do not come from this repository" >&2
    exit 1
fi
# (Bracketed so the pattern does not match this line.)
if grep -rn 'to_string(&()[)]\|serde_runtime_work[s]\|serde_json_work[s]' \
    crates src tests examples scripts; then
    echo "check: FAIL — environment probe found (lines above)" >&2
    exit 1
fi

echo "== one way to run a point: deleted names stay deleted =="
# The second worker program, the file-based worker→supervisor channel
# and the three geometry handshakes must not creep back; nor the
# second scheduler crate, the one-implementation trait between the two
# and the hub's own copy of the campaign options.
# (Bracketed so the patterns do not match these lines. `musa-pool-`
# survives as a prefix of the e2e suites' scratch directories.)
if grep -rn 'pool-worke[r]\|sweep-ke[y]\|MUSA_SEARCH_GEO[M]\|campaign_sweep_si[g]\|hb-[l]\|open_worke[r]\|RemoteHu[b]\|DistHubOption[s]\|musa_poo[l]\|musa-poo[l]\([^-]\|$\)' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted execution path is named above" >&2
    exit 1
fi

# One way to split a campaign (the fill's threads) and one metrics file
# format (`--metrics` JSON): the key-modulo split, its store entry
# points and the Prometheus file flag must not come back. (`\b` keeps
# `musa-obs`'s `LocalShard` out of the match.)
if grep -rn 'open_sharde[d]\|open_with_write_fil[e]\|in_shar[d]\|metrics_pro[m]\|--metrics-pro[m]\|--shar[d]\|\bShar[d]\b' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted way to split a campaign or dump metrics is named above" >&2
    exit 1
fi

# One metrics format (`--metrics` JSON): the artifact-cache verbs the
# doctor once absorbed, gc's size budget and the Prometheus rendering
# must not come back.
if grep -rn 'prometheus_tex[t]\|ok_prometheu[s]\|PROMETHEUS_CONTENT_TYP[E]\|VerifyVerdic[t]\|VerifyRepor[t]\|CacheCm[d]\|--max-byte[s]\|max_byte[s]\|cache stat[s]\|cache verif[y]' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted cache verb, gc budget or metrics format is named above" >&2
    exit 1
fi

# One recipe for `results/` (`dse report`): the twelve figure binaries,
# their argv scan and the two environment knobs that served them must
# not come back.
if grep -rn 'full_in_arg[v]\|fn gen_param[s]\|fn store_dir[(]\|MUSA_FUL[L]\|MUSA_STORE_DI[R]\|--bin fi[g]\|--bin table[1]' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted figure binary or its argv/env plumbing is named above" >&2
    exit 1
fi
if [[ "$(ls crates/bench/src/bin)" != "dse.rs" ]]; then
    echo "check: FAIL — crates/bench/src/bin/ holds more than dse.rs:" $(ls crates/bench/src/bin) >&2
    exit 1
fi

# The replay adds precomputed durations: the span record nobody but
# Fig. 4 reads and the per-slot copy of the clocks must not come back.
if grep -rn 'pub timeline[s]:' crates/net/src ||
    grep -n 'clock\.clon[e]()' crates/net/src/replay.rs; then
    echo "check: FAIL — the replay records spans or clones its clocks again (lines above)" >&2
    exit 1
fi

# One line-log rule (`musa_fault::integrity::scan`) and one quarantine
# appender (`musa_store::set_aside`): the hand-rolled torn-tail loops
# and the two appenders they replaced must not come back.
if grep -rn 'ends_with_newlin[e]\|ends_n[l]\|quarantine_evidenc[e]\|append_quarantin[e]' \
    crates/store/src crates/prof/src crates/doctor/src; then
    echo "check: FAIL — a deleted line-log loop or quarantine appender is named above" >&2
    exit 1
fi

# The doctor states each family once, in one table of check-and-fix:
# the per-family audit/repair function pairs and the hand-rolled JSON
# string-array writer must not come back.
if grep -rn 'fn audit_[a-z]\|fn repair_[a-z]\|json_str_arra[y]' crates/doctor/src; then
    echo "check: FAIL — a per-family doctor function or json_str_array is named above" >&2
    exit 1
fi

# The file-level cuts below keep each file up to its first line that
# *begins* with `#[cfg(test)]`: a module doc may mention the attribute.

# One walk per window, of real memory only: the profiler asks the OoO
# window once per kernel, the perfect-memory profile and the lane
# generics are gone, and the window keeps its fixed rings (the reference
# loop under `#[cfg(test)]` is the only `VecDeque` left in the file).
if grep -n 'cycles_per_fused_ite[r]' crates/tasksim/src/profile.rs ||
    grep -rn 'cycles_per_iter_nome[m]\|cycles_mem_per_ite[r]\|window_cycles::<[2]>' \
        Cargo.toml crates src tests examples scripts ||
    sed '/^#\[cfg(test)\]/,$d' crates/tasksim/src/pipeline.rs | grep -n 'VecDequ[e]\|const [N]: usize'; then
    echo "check: FAIL — a second window walk per kernel, a deleted perfect-memory name, lane generics or a VecDeque window is back (lines above)" >&2
    exit 1
fi

# The window picks its unit without searching: the functional-unit pools
# are sorted fixed-width arrays, and the scan they replaced lives only in
# the reference loop under `#[cfg(test)]`.
if sed '/^#\[cfg(test)\]/,$d' crates/tasksim/src/pipeline.rs | grep -n 'min_slo[t]\|Vec<f64>; [N]\]'; then
    echo "check: FAIL — a scanned or heap-allocated FU pool is back in pipeline.rs (lines above)" >&2
    exit 1
fi

# One profile table per trace: `NodeSim` profiles only through a
# `ProfileTable`, and keeps no per-simulator profile map beside it.
if sed '/^#\[cfg(test)\]/,$d' crates/tasksim/src/node.rs | grep -n 'profile_kerne[l](' ||
    grep -n 'HashMap<KernelI[d]' crates/tasksim/src/node.rs; then
    echo "check: FAIL — a second profiling path or a per-simulator profile map is back in node.rs (lines above)" >&2
    exit 1
fi

# One burst table per trace, built in one walk for every core count: the
# makespan-only ring the sorted window replaced and the memo's map of one
# table per core count must not come back.
if grep -rn 'FreeRin[g]' Cargo.toml crates src tests examples scripts ||
    grep -rn 'tables: Mute[x]\|HashMap<u32, Arc<BurstTime[s]>>' crates/core/src; then
    echo "check: FAIL — the ring pool or a per-core-count burst table map is back (lines above)" >&2
    exit 1
fi

# One way to compute a point: every trace, detailed window and burst
# baseline is computed in the process that needs it. The disk artifact
# cache, its crate, its opt-out flag and environment switch, its schema
# constant, its session ledger and its gc verb must not come back.
# (Bracketed so the patterns do not match these lines.)
if grep -rn 'musa_cach[e]\|musa-cach[e]\|ArtifactCach[e]\|--no-cach[e]\|MUSA_CACH[E]\|CACHE_SCHEMA_VERSIO[N]\|sessions\.json[l]\|cache g[c]' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted artifact-cache name is named above" >&2
    exit 1
fi
if [[ -e crates/cache ]]; then
    echo "check: FAIL — crates/cache is back" >&2
    exit 1
fi

# One way to read a campaign: `dse report` (the Pareto fronts among the
# figures), `dse doctor` (store health), `--metrics` and `--resume --csv`. The HTTP query
# service, its crate, its span and the doctor's verdict file that only
# the service read must not come back.
# (Bracketed so the patterns do not match these lines.)
if grep -rn 'musa_serv[e]\|musa-serv[e]\|dse serv[e]\|/health[z]\|HTTP_REQUES[T]\|doctor-status\.jso[n]\|DOCTOR_STATUS_FIL[E]' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted query-service name is named above" >&2
    exit 1
fi
if [[ -e crates/serve ]]; then
    echo "check: FAIL — crates/serve is back" >&2
    exit 1
fi

# The metric API no program read: the row-set aggregate, the metric
# name parser and the store's consuming row accessor must not come back.
# (Bracketed so the patterns do not match these lines.)
if grep -rn 'MetricAg[g]\|fn aggregat[e]\|RowMetric::pars[e]\|into_row[s]' \
    crates src tests examples; then
    echo "check: FAIL — a deleted metric or row API is named above" >&2
    exit 1
fi

# One parallel path: the fill runs its points on scoped threads in one
# process. The multi-process fill's crate, its lease journal, its worker
# subcommand, its status beacon and its five options must not come back.
# (Bracketed so the patterns do not match these lines.)
if grep -rn 'musa_dis[t]\|LeaseJourna[l]\|dist-worke[r]\|--worker[s]\|DIST_STATUS_FIL[E]\|point_timeou[t]\|lease_batc[h]\|poison_ca[p]' \
    Cargo.toml crates src tests examples scripts; then
    echo "check: FAIL — a deleted multi-process fill name is named above" >&2
    exit 1
fi
if [[ -e crates/dist ]]; then
    echo "check: FAIL — crates/dist is back" >&2
    exit 1
fi

# The line counts below and the guards that read only the non-test part
# of a file cut it at its first line beginning `#[cfg(test)]`. Such a
# line must open the file's `mod tests`, or the cut would hide the rest
# of the file (a file-level test-only item) from both.
cut_leaks=$(for f in $(find crates -path '*/src/*.rs' | sort); do
    awk -v f="$f" 'prev ~ /^#\[cfg\(test\)\]/ && $0 !~ /^(pub\(crate\) )?mod tests \{$/ {
        print f ":" FNR ": " $0
    } { prev = $0 }' "$f"
done)
if [[ -n "$cut_leaks" ]]; then
    echo "$cut_leaks"
    echo "check: FAIL — a file-level #[cfg(test)] item is not the file's mod tests (lines above)" >&2
    exit 1
fi

echo "== every ignored test says why, and a leg below runs it =="
# An `#[ignore]` under crates/ carries a reason string, and one of this
# script's `--ignored` legs reaches it: a leg naming its package and
# target (`--lib` for a `src` file, `--test <file>` for a test file)
# with no name filter or a filter its name contains.
legs=$(sed -n 's/.*cargo test .*-p \([^ ]*\) \(--lib\|--test [^ ]*\) -- --ignored *\([^ ]*\).*/\1 \2|\3/p' "$0")
unreached=$(grep -rn '^ *#\[ignore' crates --include='*.rs' | while IFS=: read -r file line attr; do
    if [[ "$attr" != *'#[ignore = "'* ]]; then
        echo "$file:$line: #[ignore] without a reason"
        continue
    fi
    name=$(tail -n +"$line" "$file" | grep -m1 -o 'fn [a-z0-9_]*' | cut -c4-)
    crate=${file#crates/}
    pkg=$(sed -n 's/^name = "\(.*\)"/\1/p' "crates/${crate%%/*}/Cargo.toml")
    case $file in
    */src/*) target=--lib ;;
    *) target=${file##*/} target="--test ${target%.rs}" ;;
    esac
    reached=0
    while IFS='|' read -r leg filter; do
        [[ "$leg" == "$pkg $target" && "$name" == *"$filter"* ]] && reached=1
    done <<<"$legs"
    ((reached)) || echo "$file:$line: no --ignored leg of scripts/check.sh runs $name"
done)
if [[ -n "$unreached" ]]; then
    echo "$unreached"
    echo "check: FAIL — an ignored test without a reason or without a leg (lines above)" >&2
    exit 1
fi

echo "== non-test line counts (each src file up to its first line beginning #[cfg(test)]) =="
# Printed, not gated, so that every change quotes the same numbers.
noncode() { awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"; }
crate_lines() { noncode $(for c in "$@"; do find "crates/$c/src" -name '*.rs'; done | sort); }
echo "simulator (apps arch core mem net power tasksim trace): $(crate_lines apps arch core mem net power tasksim trace)"
echo "platform (bench doctor fault obs prof search store): $(crate_lines bench doctor fault obs prof search store)"
echo "cli.rs + dse.rs: $(noncode crates/bench/src/cli.rs) + $(noncode crates/bench/src/bin/dse.rs)"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

echo "== build with observability disabled =="
# The whole instrumentation layer must compile out cleanly.
cargo build --workspace --no-default-features

echo "== build with fault injection disabled (obs kept) =="
# Failpoints must compile out independently of observability.
cargo build -p musa-store --no-default-features --features obs
cargo build -p musa-bench --no-default-features --features obs

echo "== fault harness without the runtime =="
# Parsing and decisions stay testable with the injectors compiled out,
# and the file-integrity primitives hold with the failpoints compiled
# out (atomic_write degrades to plain tmp+rename).
cargo test -q -p musa-fault --no-default-features

echo "== doctor without obs and without faults =="
# The audit/repair layer must work with everything compiled out — it
# reads other processes' damage, not its own instrumentation.
cargo build -p musa-doctor --no-default-features
cargo test -q -p musa-doctor --no-default-features

echo "== build with profiling compiled out (obs + fault kept) =="
# The flight recorder must fold away independently of the rest of the
# instrumentation; `dse profile` (reading, aggregation, trace export)
# stays available either way.
cargo build -p musa-bench --no-default-features --features obs,fault

echo "== search without the store backend =="
# The strategy/journal/driver layer must stand alone (MemEvaluator
# path): no store, no obs.
cargo build -p musa-search --no-default-features
cargo test -q -p musa-search --no-default-features

echo "== search e2e (CLI strictness, determinism, resume) =="
# `dse search` through the real binary: strict flags, byte-identical
# journals/reports across runs and thread counts, resume semantics.
cargo test -q -p musa-bench --test search_e2e

echo "== profiling e2e (report, trace export, row identity) =="
# `dse profile` and `--trace-export` through the real binary, plus
# byte-identity of rows with the recorder on/off.
cargo test -q -p musa-bench --test prof_e2e

echo "== profiling smoke (real binary, trace JSON validated) =="
bash scripts/prof_smoke.sh

echo "== doctor e2e (audit/repair contract through the real binary) =="
# Corrupt three durable families at once; `dse doctor --repair` must
# restore exit 0 idempotently with every removed line in quarantine. A
# store with a legacy artifacts/ directory resumes and audits clean
# without a byte of it touched.
cargo test -q -p musa-bench --test doctor_e2e

echo "== doctor smoke (multi-family corruption, real binary) =="
bash scripts/doctor_smoke.sh

# The two golden-digest legs run twice: as is, where the fill runs on
# every thread the machine gives it, and pinned to one CPU, where it runs
# on one (`taskset -c 0`: the affinity reaches the `dse` each test
# spawns, and `available_parallelism` honours it).
for pin in "" "taskset -c 0"; do
    echo "== full-grid golden digest (864 x 5 tiny${pin:+, $pin}) =="
    # Every point of the design space against the pinned rows digest
    # (last moved by the window's stop rule, a declared model change);
    # 4,320 points, so against the release binary.
    $pin cargo test -q --release -p musa-bench --test pool_e2e -- --ignored full_grid

    echo "== paper-slice golden digest (79 configs x 5 at --full${pin:+, $pin}) =="
    # The 256-rank burst tables and the 64-core paths, which the tiny
    # grids never reach, against the pinned digest (last moved by the
    # stop rule).
    $pin cargo test -q --release -p musa-bench --test pool_e2e -- --ignored paper_slice
done

echo "== OoO window oracle (2,160 paper-scale windows, real and perfect memory) =="
# Every window the paper-scale design space times: the walk with real
# memory and the walk with perfect memory, each stopped by the stop rule,
# against walks of the loop they replaced cut at the same iteration, and
# the fixed-length walk against that loop's full length, bit for bit.
cargo test -q --release -p musa-tasksim --lib -- --ignored every_paper_scale_window

echo "== OoO window stop rule (every paper- and expanded-slice lane against the full walk) =="
# The declared cut: every lane the MUSA_CONFIG_SLICE=79 paper slice and the
# expanded digest's slice walk, stopped by the rule, against the fixed
# 216-iteration walk, within the p99 and max bounds the test states (the
# expanded slice's wider, its lanes over 1 % all 64-bit).
cargo test -q --release -p musa-tasksim --lib -- --ignored the_cut_stays_within_its_bound

echo "== profile-table walk count (864 x 5 paper grid, one table per app) =="
# One walk per distinct window: 588 walks, one lane each, each key
# counted from the configurations alone.
cargo test -q --release -p musa-tasksim --lib -- --ignored paper_grid_walks

echo "== region scheduler oracle (every paper-scale region at 1, 32 and 64 cores) =="
# Every region a paper-scale burst table schedules: the one-pass build at
# the three core counts against the scheduler that names cores, bit for
# bit.
cargo test -q --release -p musa-tasksim --lib -- --ignored every_paper_scale_region

echo "== expanded-space golden digest (every 97th config x 5 tiny, shared and fresh) =="
# The slice meets HBM, 1-64 channels and all six widths, which the
# DDR4-only paper grid never does: one evaluator for every point and one
# per point must both give the pinned digest.
cargo test -q --release -p musa-search --test expanded_digest -- --ignored

echo "== results/ regenerated byte for byte (dse report, release) =="
# The committed tables, figures and campaign CSV are the reference: a
# fresh directory with no MUSA_* knob set must reproduce every one of
# them. A sliced sweep must refuse to write any.
cargo build -q --release -p musa-bench --bin dse
dse=$PWD/target/release/dse
report_dir=$(mktemp -d)
trap 'rm -rf "$report_dir"' EXIT
(
    cd "$report_dir"
    mkdir fresh sliced
    for v in $(env | grep -o '^MUSA_[A-Z_]*'); do unset "$v"; done
    (cd fresh && "$dse" report >/dev/null)
    if (cd sliced && MUSA_TINY=1 MUSA_CONFIG_SLICE=6 "$dse" report >/dev/null 2>&1); then
        echo "check: FAIL — dse report accepted a sliced sweep" >&2
        exit 1
    fi
    if [[ -e sliced/results ]]; then
        echo "check: FAIL — a refused dse report left results/ behind" >&2
        exit 1
    fi
)
if ! diff -r --exclude='BENCH_*' results "$report_dir/fresh/results"; then
    echo "check: FAIL — dse report no longer reproduces results/ (diff above)" >&2
    exit 1
fi

echo "== search smoke (tiny-budget adaptive search, resume) =="
# A budgeted `dse search` through the real binary: sealed journal,
# parseable report, same-seed byte-identity, pure-replay --resume.
# With CHAOS=1 adds a kill -9 + --resume leg.
bash scripts/search_smoke.sh

echo "== benchmark selftest (test scale, exact values must repeat) =="
# The hermetic benchmark builds from its own workspace and must agree
# with itself on every digest, allocation count and call count.
bash benchmark/selftest.sh

if [[ "${CHAOS:-0}" == "1" ]]; then
    echo "== chaos: kill -9 mid-flush (CHAOS=1) =="
    # Spawns a child fill, kills it mid-write, and checks that resume
    # reconstructs the campaign byte-for-byte.
    CHAOS=1 cargo test -q -p musa-store --test chaos

    echo "== chaos: kill -9 mid-search, then --resume (CHAOS=1) =="
    # Murders a budgeted search between generations; --resume must
    # finish it with a journal byte-identical to a never-killed run.
    CHAOS=1 cargo test -q -p musa-bench --test search_e2e

    echo "== chaos: kill -9 with the flight recorder running (CHAOS=1) =="
    # A murdered fill's profile records are on file, its re-simulated
    # points' duplicates fold away on --resume, and the trace export
    # must stay valid.
    CHAOS=1 cargo test -q -p musa-bench --test prof_e2e
fi

if [[ "${TORTURE:-0}" == "1" ]]; then
    echo "== torture: seeded multi-fault storm (TORTURE=1) =="
    # `dse torture` end to end: real campaigns under composed
    # failpoints and kill -9, resumed to convergence; rows must be
    # byte-identical to a never-faulted reference and `dse doctor`
    # must repair to exit 0 without touching row bytes.
    TORTURE=1 cargo test -q -p musa-bench --test doctor_e2e
fi

echo "All checks passed."
