#!/usr/bin/env bash
# Repeatability check: two full sets of runs of the same code (3 runs per
# workload each unless --runs says otherwise, workload order reversed in the
# second set), printed side by side. Fails when the medians of any end-to-end
# metric differ by more than that metric's bound, when a value that must
# repeat exactly for a seed does not, or when any run reports a failure.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat "$@"
