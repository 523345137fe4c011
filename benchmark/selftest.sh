#!/usr/bin/env bash
# Run the benchmark twice at test scale and require everything that must
# repeat exactly to do so: result digests, allocation counts, and the
# burst, replay and pipeline call counts (the `exact` lines).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/out"
for run in 1 2; do
    "$here/run.sh" --quick "$@" >"$here/out/selftest-$run.txt"
    grep '^exact ' "$here/out/selftest-$run.txt" >"$here/out/selftest-$run.exact"
done
if ! diff "$here/out/selftest-1.exact" "$here/out/selftest-2.exact"; then
    echo "selftest: FAILED, the two runs disagree on the lines above" >&2
    exit 1
fi
echo "selftest: ok, $(wc -l <"$here/out/selftest-1.exact") exact values repeat"
