#!/usr/bin/env bash
# Smoke test for `dse doctor`: corrupt four durable families of a
# store at once (lease journal, search journal, profiles, artifact tmp
# litter), and check the documented contract through the shipped
# binary: audit grades the store corrupt (exit 2), one `--repair`
# restores exit 0, a second repair changes nothing, and every removed
# complete line survives in quarantine.jsonl.
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
mkdir -p "$STORE/search" "$STORE/artifacts"

# A healthy (empty) store audits clean.
"$DSE_BIN" doctor --store-dir "$STORE" >/dev/null

# Corrupt four families.
printf 'lease garbage one\nlease garbage two\ntorn-fra' \
    >"$STORE/leases.journal"
printf '{"v":1,"kind":"header","seed":9,"budget":24}\nsearch garbage\n' \
    >"$STORE/search/search.journal"
printf 'profile garbage\n' >"$STORE/profiles.jsonl"
printf 'half-written' >"$STORE/artifacts/.half.123.0.tmp"

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
grep -q '"raw":"lease garbage one"' "$STORE/quarantine.jsonl"
grep -q '"raw":"profile garbage"' "$STORE/quarantine.jsonl"
grep -q '"file":' "$STORE/quarantine.jsonl"
# The tmp litter moved to the artifact quarantine.
[[ -d "$STORE/artifacts/quarantine" ]]
# The repair pass leaves the status beacon the query server surfaces.
grep -q '"severity":"ok"' "$STORE/doctor-status.json"

echo "doctor_smoke: a second --repair must be a byte-identical no-op"
snap() { (cd "$STORE" && find . -type f | sort | xargs md5sum); }
snap >"$WORK/snap1"
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
