#!/usr/bin/env bash
# Smoke test for distributed campaigns: run a tiny sweep sequentially,
# then with `dse --workers 1 --listen 127.0.0.1:0` plus two loopback
# `dse dist-worker` processes, and check the two stores are
# byte-identical (sorted data lines — leases land in their own
# dist-l*.jsonl shards). A second leg repeats the run with single-bit
# garble faults on the workers' frame sends: the CRC seal must catch
# every corruption and the run must still converge to the same bytes.
# With CHAOS=1, a third leg SIGKILLs a dist-worker mid-lease and the
# supervisor must re-issue the lease and still converge.
set -euo pipefail

cd "$(dirname "$0")/.."

DSE_BIN="${DSE_BIN:-target/release/dse}"
if [[ ! -x "$DSE_BIN" ]]; then
    echo "dist_smoke: building $DSE_BIN"
    cargo build --release -p musa-bench --bin dse
fi

WORK="$(mktemp -d)"
WORKER_PIDS=()
cleanup() {
    for pid in "${WORKER_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Tiny scale, 6-config slice: the same sweep geometry the e2e drills
# use. Only the supervisor reads it; the dist-workers below run
# without it and learn what to simulate from their leases. (`env`
# execs, so `$!` is the worker's own pid — its journal tag.)
export MUSA_TINY=1 MUSA_CONFIG_SLICE=6
WORKER=(env -u MUSA_TINY -u MUSA_CONFIG_SLICE "$DSE_BIN" dist-worker)
unset MUSA_FULL MUSA_STORE_DIR MUSA_FAULTS MUSA_FAULT_SEED 2>/dev/null || true

store_lines() {
    # All data lines, sorted; quarantine records are repair metadata
    # and profiles carry wall-clock timings — neither is campaign data.
    find "$1" -maxdepth 1 -name '*.jsonl' ! -name 'quarantine.jsonl' \
        ! -name 'profiles.jsonl' -exec cat {} + | sort
}

# Poll the supervisor's dist-status.json beacon for the resolved
# listen address (written when the hub binds port 0).
beacon_addr() {
    local dir="$1" addr=""
    for _ in $(seq 1 600); do
        addr="$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$dir/dist-status.json" 2>/dev/null || true)"
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        sleep 0.05
    done
    echo "dist_smoke: FAIL — no dist-status.json beacon" >&2
    return 1
}

echo "dist_smoke: sequential reference run"
"$DSE_BIN" --store-dir "$WORK/seq" >/dev/null
store_lines "$WORK/seq" >"$WORK/seq.lines"
[[ -s "$WORK/seq.lines" ]]

# One distributed leg: supervisor (slowed by delay faults, which never
# perturb result bytes, so remote workers actually win leases) plus
# two loopback dist-workers carrying $1-supplied extra flags.
dist_leg() {
    local name="$1"; shift
    local dir="$WORK/$name"
    "$DSE_BIN" --store-dir "$dir" --workers 1 --lease-batch 2 --poison-cap 50 \
        --listen 127.0.0.1:0 --faults 'sim.point=delay:100ms@1.0' \
        >/dev/null 2>"$WORK/$name.sup.log" &
    local sup=$!
    local addr
    addr="$(beacon_addr "$dir")"
    WORKER_PIDS=()
    for i in 1 2; do
        "${WORKER[@]}" --connect "$addr" --reconnect-for 60s "$@" \
            >/dev/null 2>"$WORK/$name.w$i.log" &
        WORKER_PIDS+=($!)
    done
    local joined=("${WORKER_PIDS[@]}")
    if ! wait "$sup"; then
        echo "dist_smoke: FAIL — $name supervisor failed" >&2
        tail -5 "$WORK/$name.sup.log" >&2
        exit 1
    fi
    # Workers drain (0) on the supervisor's shutdown; one caught
    # mid-backoff may give up (1) — it must terminate either way.
    for pid in "${WORKER_PIDS[@]}"; do
        wait "$pid" || true
    done
    WORKER_PIDS=()
    store_lines "$dir" >"$WORK/$name.lines"
    if ! cmp -s "$WORK/seq.lines" "$WORK/$name.lines"; then
        echo "dist_smoke: FAIL — $name store differs from sequential" >&2
        diff "$WORK/seq.lines" "$WORK/$name.lines" | head -20 >&2
        exit 1
    fi
    # External participation must be real: at least one lease
    # journalled to a worker we started (not a child of the
    # supervisor), and a journal that terminates in a complete event.
    grep -q "\"peer\":\"w\(${joined[0]}\|${joined[1]}\)@" "$dir/leases.journal" || {
        echo "dist_smoke: FAIL — $name: no external worker ever took a lease" >&2
        exit 1
    }
    tail -n1 "$dir/leases.journal" | grep -q '"ev":"complete"'
}

echo "dist_smoke: distributed run (--listen + 2 dist-workers)"
dist_leg dist

echo "dist_smoke: garbled frames (dist.frame.send=garble@0.15 on workers)"
dist_leg garble --faults 'seed=7,dist.frame.send=garble@0.15'

if [[ "${CHAOS:-0}" == "1" ]]; then
    echo "dist_smoke: chaos — kill -9 a dist-worker mid-lease (CHAOS=1)"
    DIR="$WORK/chaos"
    "$DSE_BIN" --store-dir "$DIR" --workers 1 --lease-batch 2 \
        --listen 127.0.0.1:0 --faults 'sim.point=delay:150ms@1.0' \
        >/dev/null 2>"$WORK/chaos.sup.log" &
    SUP=$!
    ADDR="$(beacon_addr "$DIR")"
    "${WORKER[@]}" --connect "$ADDR" --reconnect-for 60s \
        --faults 'sim.point=delay:150ms@1.0' \
        >/dev/null 2>"$WORK/chaos.w.log" &
    VICTIM=$!
    WORKER_PIDS=("$VICTIM")
    # A lease journalled to the victim means it is inside the first of
    # its two 150 ms points: murder it there.
    for _ in $(seq 1 600); do
        grep -q "\"peer\":\"w$VICTIM@" "$DIR/leases.journal" 2>/dev/null && break
        sleep 0.05
    done
    kill -9 "$VICTIM" 2>/dev/null || true
    wait "$VICTIM" 2>/dev/null || true
    WORKER_PIDS=()
    if ! wait "$SUP"; then
        echo "dist_smoke: FAIL — supervisor did not absorb the murdered worker" >&2
        tail -5 "$WORK/chaos.sup.log" >&2
        exit 1
    fi
    store_lines "$DIR" >"$WORK/chaos.lines"
    if ! cmp -s "$WORK/seq.lines" "$WORK/chaos.lines"; then
        echo "dist_smoke: FAIL — post-kill store differs from sequential" >&2
        diff "$WORK/seq.lines" "$WORK/chaos.lines" | head -20 >&2
        exit 1
    fi
    grep -q '"ev":"requeue"' "$DIR/leases.journal"
    tail -n1 "$DIR/leases.journal" | grep -q '"ev":"complete"'
fi

echo "dist_smoke: byte-identical stores, journal complete"
