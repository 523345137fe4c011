#!/usr/bin/env bash
# Smoke test for `dse --workers`: run a tiny sweep sequentially and
# with a 2-worker supervised pool, and check the two stores are
# byte-identical (sorted data lines — row files differ by layout, a
# sequential run writes one file, the pool one shard per lease).
set -euo pipefail

cd "$(dirname "$0")/.."

DSE_BIN="${DSE_BIN:-target/release/dse}"
if [[ ! -x "$DSE_BIN" ]]; then
    echo "pool_smoke: building $DSE_BIN"
    cargo build --release -p musa-bench --bin dse
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Tiny scale, 6-config slice: the same sweep geometry the pool e2e
# tests use.
export MUSA_TINY=1 MUSA_CONFIG_SLICE=6
unset MUSA_FULL MUSA_STORE_DIR MUSA_FAULTS MUSA_FAULT_SEED 2>/dev/null || true

store_lines() {
    # All data lines, sorted; quarantine records are repair metadata
    # and profiles carry wall-clock timings — neither is campaign data.
    find "$1" -maxdepth 1 -name '*.jsonl' ! -name 'quarantine*' \
        ! -name 'profiles.jsonl' -exec cat {} + | sort
}

echo "pool_smoke: sequential reference run"
"$DSE_BIN" --store-dir "$WORK/seq" >/dev/null
store_lines "$WORK/seq" >"$WORK/seq.lines"
[[ -s "$WORK/seq.lines" ]]

echo "pool_smoke: supervised run (--workers 2)"
"$DSE_BIN" --store-dir "$WORK/pool" --workers 2 --lease-batch 4 >/dev/null
store_lines "$WORK/pool" >"$WORK/pool.lines"

if ! cmp -s "$WORK/seq.lines" "$WORK/pool.lines"; then
    echo "pool_smoke: FAIL — pool store differs from sequential" >&2
    diff "$WORK/seq.lines" "$WORK/pool.lines" | head -20 >&2
    exit 1
fi

# The lease journal must exist and terminate in a `complete` event.
JOURNAL="$WORK/pool/leases.journal"
[[ -f "$JOURNAL" ]]
tail -n1 "$JOURNAL" | grep -q '"ev":"complete"'

echo "pool_smoke: byte-identical stores, journal complete"
