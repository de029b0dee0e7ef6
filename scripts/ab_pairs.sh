#!/usr/bin/env bash
# Alternating parent/change pairs of the pipeline benchmark.
#
#   scripts/ab_pairs.sh PARENT_REV WORKLOAD PAIRS [SECONDS]
#
# Exports PARENT_REV with `git archive` into a temp dir and builds its
# benchmark/ and the working tree's, each into a fresh target dir (never a
# copied target/: a copy has linked stale rlibs and run old crates). Then
# runs PAIRS pairs of WORKLOAD (a name, or several joined by commas), each
# run SECONDS long (default 10), untraced, seed = pair number for both sides;
# odd pairs run the parent first, even pairs the change. Each run writes
# --out to a temp dir. Prints every run's end-to-end metrics, then per
# workload and metric both sides' median, quartiles and range, the
# change/parent ratio of the medians and how many pairs the change was ahead
# in (by the metric's `better` in BENCHMARK.json). Writes nothing inside the
# repository; TMPDIR picks where the temp dir goes.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD[,WORKLOAD...] PAIRS [SECONDS]" >&2
    exit 2
fi
parent_rev="$1" workloads="$2" pairs="$3" seconds="${4:-10}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_sha="$(git -C "$repo" rev-parse --short "$parent_rev")"
change_sha="$(git -C "$repo" rev-parse --short HEAD)+worktree"

work="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/out"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"

build() { # build SRC_ROOT TARGET_DIR
    echo "# building $1/benchmark into $2" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" 1>&2
}
build "$work/parent" "$work/target-parent"
build "$repo" "$work/target-change"

results="$work/results.tsv"
: >"$results"
run() { # run SIDE WORKLOAD PAIR
    local bin="$work/target-$1/release/umon-pipeline-bench" sha line
    sha="$parent_sha"
    [ "$1" = change ] && sha="$change_sha"
    line="$(UMON_BENCH_GIT_COMMIT="$sha" "$bin" --out "$work/out" --workload "$2" \
        --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)"
    printf '%s\t%s\t%s\t%s\n' "$2" "$3" "$1" "$line" >>"$results"
    printf '%-13s pair %2d %-6s %s\n' "$2" "$3" "$1" \
        "$(jq -c '{failed} + (.metrics | map_values(.value))' <<<"$line")"
}
for w in ${workloads//,/ }; do
    for p in $(seq 1 "$pairs"); do
        if [ $((p % 2)) -eq 1 ]; then
            run parent "$w" "$p"
            run change "$w" "$p"
        else
            run change "$w" "$p"
            run parent "$w" "$p"
        fi
    done
done

python3 - "$results" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys

rows = [line.rstrip("\n").split("\t", 3) for line in open(sys.argv[1])]
better = {m["name"]: m["better"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
runs = {}
for w, pair, side, line in rows:
    runs.setdefault(w, {}).setdefault(int(pair), {})[side] = json.loads(line)
for w, by_pair in runs.items():
    print(f"\n{w}: {len(by_pair)} pairs; per side: median (quartiles) [range]")
    print(f"  {'metric':<12} {'parent':>40} {'change':>40} {'ratio':>7} {'ahead':>6}")
    for m in better:
        par = [by_pair[p]["parent"]["metrics"][m]["value"] for p in sorted(by_pair)]
        chg = [by_pair[p]["change"]["metrics"][m]["value"] for p in sorted(by_pair)]
        ahead = sum((c < q) if better[m] == "lower" else (c > q) for q, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        ratio = mc / mp if mp else float("nan")
        def fmt(v, xs):
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (v, v, v)
            return f"{v:.4g} ({q1:.4g}/{q3:.4g}) [{min(xs):.4g}-{max(xs):.4g}]"
        print(f"  {m:<12} {fmt(mp, par):>40} {fmt(mc, chg):>40} {ratio:>7.3f}"
              f" {ahead:>3}/{len(par)}")
    failed = [by_pair[p][s]["failed"] for p in by_pair for s in ("parent", "change")]
    print(f"  failed operations over all runs: {sum(failed)}")
EOF
