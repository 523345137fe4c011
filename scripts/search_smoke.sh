#!/usr/bin/env bash
# Smoke test for `dse search`: a tiny-budget adaptive search through
# the real binary, checking the journal seals, the report parses, a
# same-seed rerun is byte-identical, `--resume` is a pure replay, and
# `--workers 2 --listen` (joined by one external dist-worker) changes
# not a byte. With CHAOS=1 it additionally SIGKILLs a search mid-run
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

echo "search_smoke: --workers 2 --listen + one external dist-worker"
"$DSE_BIN" search --store-dir "$WORK/w" "${FLAGS[@]}" --workers 2 \
    --listen 127.0.0.1:0 --search-report "$WORK/w-report.json" >/dev/null &
SEARCH=$!
ADDR=""
for _ in $(seq 1 600); do
    ADDR="$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$WORK/w/dist-status.json" 2>/dev/null || true)"
    [[ -n "$ADDR" ]] && break
    sleep 0.02
done
[[ -n "$ADDR" ]]
# The worker is told nothing but the address; the search may be over
# before it connects, so it may drain (0) or give up (1).
env -u MUSA_TINY "$DSE_BIN" dist-worker --connect "$ADDR" --max-reconnects 2 \
    >/dev/null 2>&1 || true
wait "$SEARCH"
cmp -s "$JOURNAL_A" "$WORK/w/search/search.journal"
cmp -s "$WORK/a-report.json" "$WORK/w-report.json"
[[ "$(grep -o '"peer":"w[0-9]*' "$WORK/w/leases.journal" | sort -u | wc -l)" -le 3 ]]

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
