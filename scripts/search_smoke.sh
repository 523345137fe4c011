#!/usr/bin/env bash
# Smoke test for `dse search`: a tiny-budget adaptive search through
# the real binary, checking the journal seals, the report parses, a
# same-seed rerun is byte-identical, `--resume` is a pure replay, and
# pinning the search to one CPU (`taskset -c 0`, a one-thread fill)
# changes not a byte. With CHAOS=1 it additionally SIGKILLs a search mid-run
# and checks `--resume` regenerates the never-killed journal
# byte-for-byte.
set -euo pipefail

cd "$(dirname "$0")/.."

DSE_BIN="${DSE_BIN:-target/release/dse}"
if [[ ! -x "$DSE_BIN" ]]; then
    echo "search_smoke: building $DSE_BIN"
    cargo build --release -p musa-bench --bin dse
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

export MUSA_TINY=1
unset MUSA_CONFIG_SLICE MUSA_FAULTS MUSA_FAULT_SEED 2>/dev/null || true

"$DSE_BIN" search --list-strategies | grep -q anneal
"$DSE_BIN" search --help | grep -q -- --search-report
if "$DSE_BIN" search --frobnicate >/dev/null 2>&1; then
    echo "search_smoke: FAIL — unknown flag must exit non-zero" >&2
    exit 1
fi

FLAGS=(--strategy anneal --seed 7 --budget 20 --batch 8 --apps hydro)

echo "search_smoke: tiny-budget search"
"$DSE_BIN" search --store-dir "$WORK/a" "${FLAGS[@]}" \
    --search-report "$WORK/a-report.json" >/dev/null
JOURNAL_A="$WORK/a/search/search.journal"
[[ -f "$JOURNAL_A" ]]
head -n1 "$JOURNAL_A" | grep -q '"kind":"header"'
tail -n1 "$JOURNAL_A" | grep -q '"kind":"done"'
grep -q '"schema":1' "$WORK/a-report.json"
grep -q '"front":\[' "$WORK/a-report.json"

echo "search_smoke: same-seed rerun is byte-identical"
"$DSE_BIN" search --store-dir "$WORK/b" "${FLAGS[@]}" \
    --search-report "$WORK/b-report.json" >/dev/null
cmp -s "$JOURNAL_A" "$WORK/b/search/search.journal"
cmp -s "$WORK/a-report.json" "$WORK/b-report.json"

echo "search_smoke: --resume is a pure replay"
cp "$JOURNAL_A" "$WORK/a-journal.before"
"$DSE_BIN" search --store-dir "$WORK/a" "${FLAGS[@]}" --resume >/dev/null
cmp -s "$JOURNAL_A" "$WORK/a-journal.before"

echo "search_smoke: one CPU is byte-identical to every thread"
taskset -c 0 "$DSE_BIN" search --store-dir "$WORK/one" "${FLAGS[@]}" \
    --search-report "$WORK/one-report.json" >/dev/null
cmp -s "$JOURNAL_A" "$WORK/one/search/search.journal"
cmp -s "$WORK/a-report.json" "$WORK/one-report.json"
cmp -s "$WORK/a/rows.jsonl" "$WORK/one/rows.jsonl"

if [[ "${CHAOS:-0}" == "1" ]]; then
    echo "search_smoke: chaos — kill -9 mid-search, then --resume"
    LONG=(--strategy anneal --seed 11 --budget 120 --batch 8 --apps hydro)
    "$DSE_BIN" search --store-dir "$WORK/ref" "${LONG[@]}" >/dev/null
    "$DSE_BIN" search --store-dir "$WORK/victim" "${LONG[@]}" >/dev/null 2>&1 &
    VICTIM=$!
    sleep 0.4
    kill -9 "$VICTIM" 2>/dev/null || true
    wait "$VICTIM" 2>/dev/null || true
    "$DSE_BIN" search --store-dir "$WORK/victim" "${LONG[@]}" --resume >/dev/null
    cmp -s "$WORK/ref/search/search.journal" "$WORK/victim/search/search.journal"
fi

echo "search_smoke: OK"
