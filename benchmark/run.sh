#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   ./run.sh                      every workload, untraced then traced
#   ./run.sh --quick              the same at test scale, in seconds
#   ./run.sh --seed N             every input regenerated from N
#   ./run.sh --workload W --seed N --seconds S --trace 0|1     one run
#
# The last line of each run's output is its result as one JSON object.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from: pin it to where the caller stood before moving.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
# Cargo reads .cargo/config.toml (the shim patches) from the working
# directory, so the build must start here.
cd "$here"

# Two builds: the default one, and one with the platform hooks (obs,
# fault, prof) compiled out of the simulator crates, against which the
# traced region_sweep measures platform.hooks_share.
cargo build --release --offline --quiet
cargo build --release --offline --quiet --no-default-features --target-dir "$target/nohooks"
bench=$target/release/musa-bench
nohooks=$target/nohooks/release/musa-bench

case " $* " in
*" --workload "*)
    exec "$bench" --nohooks-bin "$nohooks" "$@"
    ;;
esac

status=0
for workload in campaign_paper region_sweep search_anneal dram_stream; do
    for trace in 0 1; do
        "$bench" --nohooks-bin "$nohooks" --workload "$workload" --trace "$trace" "$@" || status=$?
        echo
    done
done
exit "$status"
