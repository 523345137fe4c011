#!/usr/bin/env bash
# Smoke test for `dse doctor`: corrupt three durable families of a
# store at once (rows, search journal, profiles), and check
# the documented contract through the shipped binary: audit grades the
# store corrupt (exit 2), one `--repair` restores exit 0, a second
# repair changes nothing, and every removed complete line survives in
# quarantine.jsonl.
#
# The full seeded storm (`dse torture`) drives real kill -9 campaigns
# and stays out of the default gate; run it with:
#
#   TORTURE=1 cargo test -q -p musa-bench --test doctor_e2e
set -euo pipefail

cd "$(dirname "$0")/.."

DSE_BIN="${DSE_BIN:-target/release/dse}"
if [[ ! -x "$DSE_BIN" ]]; then
    echo "doctor_smoke: building $DSE_BIN"
    cargo build --release -p musa-bench --bin dse
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

unset MUSA_FAULTS MUSA_FAULT_SEED 2>/dev/null || true
STORE="$WORK/store"
mkdir -p "$STORE/search"

# A healthy (empty) store audits clean.
"$DSE_BIN" doctor --store-dir "$STORE" >/dev/null

# Corrupt three families.
printf 'row garbage one\nrow garbage two\ntorn-fra' \
    >"$STORE/rows.jsonl"
printf '{"v":1,"kind":"header","seed":9,"budget":24}\nsearch garbage\n' \
    >"$STORE/search/search.journal"
printf 'profile garbage\n' >"$STORE/profiles.jsonl"

echo "doctor_smoke: audit must grade the store corrupt (exit 2)"
rc=0
"$DSE_BIN" doctor --store-dir "$STORE" >"$WORK/audit.txt" || rc=$?
[[ "$rc" -eq 2 ]] || {
    echo "doctor_smoke: FAIL — expected exit 2, got $rc" >&2
    cat "$WORK/audit.txt" >&2
    exit 1
}

echo "doctor_smoke: one --repair must restore exit 0"
"$DSE_BIN" doctor --repair --store-dir "$STORE" >"$WORK/repair.txt"

# Every removed complete line is evidence with provenance.
grep -q '"raw":"row garbage one"' "$STORE/quarantine.jsonl"
grep -q '"raw":"profile garbage"' "$STORE/quarantine.jsonl"
grep -q '"file":' "$STORE/quarantine.jsonl"

echo "doctor_smoke: a second --repair must be a byte-identical no-op"
snap() { (cd "$STORE" && find . -type f | sort | xargs md5sum); }
snap >"$WORK/snap1"
# In a later second, so that a time stamp written by a repair would show.
sleep 1.1
"$DSE_BIN" doctor --repair --store-dir "$STORE" >/dev/null
snap >"$WORK/snap2"
if ! cmp -s "$WORK/snap1" "$WORK/snap2"; then
    echo "doctor_smoke: FAIL — second repair changed the store" >&2
    diff "$WORK/snap1" "$WORK/snap2" >&2
    exit 1
fi

# JSON mode emits one parseable object with the same verdict.
"$DSE_BIN" doctor --json --store-dir "$STORE" >"$WORK/doctor.json"
grep -q '"severity":"ok"' "$WORK/doctor.json"

echo "doctor_smoke: corrupt -> repaired -> idempotent, evidence preserved"
