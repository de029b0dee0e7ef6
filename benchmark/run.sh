#!/usr/bin/env bash
# Builds the pipeline benchmark (offline, release, own workspace) and runs it.
#
#   benchmark/run.sh                       every workload, 3 runs each, summary
#   benchmark/run.sh --trace               ... plus one traced run per workload
#   benchmark/run.sh --quick               smoke sizes, one run each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the
#                                          BENCHMARK.json result object
#
# Honours CARGO_TARGET_DIR; otherwise builds into benchmark/target. Nothing is
# printed to stdout unless the build succeeded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" 1>&2

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
UMON_BENCH_GIT_COMMIT="$commit" exec "$target/release/umon-pipeline-bench" \
    --out "$here/out" "$@"
