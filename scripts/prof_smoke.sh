#!/usr/bin/env bash
# Smoke test for the profiling flight recorder through the shipped
# binary: run a tiny sweep (profiling is on by default), then check
# that `dse profile` renders a summary from the store directory alone
# and that `--trace-export` emits a Chrome Trace Event document that
# survives a strict JSON parse (jq, when available).
set -euo pipefail

cd "$(dirname "$0")/.."

DSE_BIN="${DSE_BIN:-target/release/dse}"
if [[ ! -x "$DSE_BIN" ]]; then
    echo "prof_smoke: building $DSE_BIN"
    cargo build --release -p musa-bench --bin dse
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

export MUSA_TINY=1 MUSA_CONFIG_SLICE=6
unset MUSA_FULL MUSA_STORE_DIR MUSA_FAULTS MUSA_FAULT_SEED MUSA_PROF 2>/dev/null || true

# An empty store is a clear error, not an empty report — always
# checkable, no sweep required.
mkdir -p "$WORK/empty"
if "$DSE_BIN" profile --store-dir "$WORK/empty" >/dev/null 2>"$WORK/err"; then
    echo "prof_smoke: FAIL — profile of an empty store must exit non-zero" >&2
    exit 1
fi
grep -q 'no profile records' "$WORK/err"

echo "prof_smoke: profiled sweep"
"$DSE_BIN" --store-dir "$WORK/store" >/dev/null
[[ -s "$WORK/store/profiles.jsonl" ]]

echo "prof_smoke: dse profile summary"
"$DSE_BIN" profile --store-dir "$WORK/store" >"$WORK/summary"
grep -q '== profile:' "$WORK/summary"
grep -q 'detailed-sim' "$WORK/summary"

echo "prof_smoke: trace export"
"$DSE_BIN" profile --store-dir "$WORK/store" \
    --trace-export "$WORK/trace.json" >/dev/null
[[ -s "$WORK/trace.json" ]]
if command -v jq >/dev/null 2>&1; then
    # Strict parse + shape: a non-empty traceEvents array, ms display.
    jq -e '.traceEvents | length > 0' "$WORK/trace.json" >/dev/null
    jq -e '.displayTimeUnit == "ms"' "$WORK/trace.json" >/dev/null
else
    grep -q '"traceEvents"' "$WORK/trace.json"
fi

echo "prof_smoke: summary + valid trace from profiles.jsonl alone"
