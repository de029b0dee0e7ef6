#!/usr/bin/env bash
# Repo CI gate: formatting, lints, then the tier-1 verify from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: a dead intra-doc link (an item renamed, moved or made
# private under a doc that still names it) fails here. The vendored crates
# are not ours to fix and are left out.
echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
  --exclude criterion --exclude proptest --exclude rand --exclude rand_chacha \
  --exclude serde --exclude serde_derive --exclude serde_json

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# Tier-1 tests the root package only. The crates' own unit and property
# tests — among them the inverse-Haar kernel against its dense oracle
# (`crates/core/tests/properties.rs`, DESIGN.md §11) and the analyzer's
# hostile-shape quarantine — run here, in the profile that ships.
echo "==> workspace tests: cargo test --workspace --release"
cargo test --workspace --release --offline -q

# Fixed-seed differential fuzz smoke: every WaveSketch variant against the
# exact oracle (see DESIGN.md §8). Deterministic, so a failure here is a real
# regression; the timeout is a budget guard, not an expected path.
echo "==> diff_fuzz smoke: 32 seeds x 3 workloads"
timeout 300 cargo run --release -q -p umon-testkit --bin diff_fuzz -- --seeds 32

# Same 32-seed oracle sweep with the Basic/Full/HW variants ingesting through
# update_batch (burst 257: not a multiple of the staging CHUNK, so remainder
# handling is covered). On a CPU with AVX-512 that is the staged pipeline; on
# any other it is a loop over the per-record update the pass above already
# swept — the banner's `kernel` says which. Batch-vs-per-record bit-identity
# is the batch path's contract (DESIGN.md §15); this makes the exact oracle
# enforce it on every CI run.
echo "==> diff_fuzz smoke: update_batch ingest path"
UMON_DIFF_BATCH=257 timeout 300 \
  cargo run --release -q -p umon-testkit --bin diff_fuzz -- --seeds 32

# The adversarial kinds through the same oracle and both ingest paths:
# incast, allreduce and the paced shape (every flow one equal-sized packet
# per fixed gap, k = 7), whose stores are full and hold equal-energy
# coefficients in nearly every epoch — the oracle's `ideal selector error ==
# optimal k-term error` check is the independent judge of the selector's
# tie-break (`rank_cmp`, DESIGN.md §10) and the three kinds above rarely
# show it a tie.
echo "==> diff_fuzz smoke: adversarial kinds, both ingest paths"
timeout 300 cargo run --release -q -p umon-testkit --bin diff_fuzz -- --seeds 32 --adversarial
UMON_DIFF_BATCH=257 timeout 300 \
  cargo run --release -q -p umon-testkit --bin diff_fuzz -- --seeds 32 --adversarial

# Fixed-seed parallel-vs-sequential netsim equivalence smoke: each seed's
# workload runs sequentially and at 1/2/4 partitions on the k=4 fat-tree;
# the full trace must be byte-identical and the drained host reports
# bit-identical (DESIGN.md §16). Deterministic, like diff_fuzz above.
echo "==> sim_equivalence smoke: 4 seeds x {1,2,4} partitions"
timeout 300 cargo run --release -q -p umon-testkit --bin sim_equivalence -- --seeds 4

# Fixed-seed collection-plane fault-injection smoke: period reports replayed
# over lossless, lossy and retransmission-healed transports against the
# collector's degradation contract (DESIGN.md §9). Deterministic, like
# diff_fuzz above.
echo "==> collector_smoke: 16 seeds x 3 workloads"
timeout 300 cargo run --release -q -p umon-testkit --bin collector_smoke -- --seeds 16

# Fixed-seed retention and crash-recovery smoke: the bounded-memory analyzer
# differential contract (compaction bit-invisible, eviction-to-archive
# queryable bit-identically through the cold tier, archive recovery
# reconvergent, torn tails contained and healed by backfill over the
# collection plane) plus a bounded-budget soak and an archive-backed cold
# soak whose checkpoints query the full history (DESIGN.md §12, §14).
# Deterministic, like the smokes above. Eviction bit-identity runs on every
# seed x workload; kill/recover + backfill reconvergence is scenario 5 of the
# same differential.
echo "==> retention_soak: 4 seeds x 3 workloads + soak + cold soak"
timeout 600 cargo run --release -q -p umon-testkit --bin retention_soak -- --seeds 4 --periods 1000

# Golden fixture gate: fixed-seed drain reports and analyzer query curves
# replayed against the bit-exact fixtures committed under tests/golden/
# (DESIGN.md §8, §11). A single reordered f64 addition fails this.
echo "==> golden fixtures: golden_gen --check"
timeout 300 cargo run --release -q -p umon-testkit --bin golden_gen -- --check

# Perf-record gate (DESIGN.md §10, §16): umon_bench keeps only the
# wall-clock records the pipeline benchmark below does not take. The smoke
# fails if BENCH_core.json (`wide` and `paced`) or BENCH_netsim.json
# (`scaling`) is missing a point, has another schema, or holds a reading
# that is not positive and finite; then it takes one fresh `paced` reading
# and prints its delta against the committed one. No timing is held to a
# threshold — shared CI boxes are too noisy for that — so this catches
# bitrot (bench no longer builds or runs, records gone stale or corrupt),
# not slow regressions; refresh the records with `umon_bench --record` on
# a quiet machine.
echo "==> perf gate: umon_bench --smoke"
timeout 300 cargo run --release -q -p umon-bench --bin umon_bench -- --smoke

# Results reproduction gate (DESIGN.md §4, §13): every committed
# results/*.json must be exactly what HEAD writes. The record run writes the
# frontier (validating every scenario x budget x scheme point — finite, in
# range, full scheme set — before writing, and failing on an invalid one),
# then every figure and table of `umon_bench::figures` (~2.5 min in all;
# a figure whose shape assertion breaks aborts the run). Reruns are
# byte-identical, so any diff is a change in what the code computes that
# nobody re-recorded. There are no accuracy thresholds: the numbers are
# deterministic, any drift is a diff for review.
echo "==> results reproduction: umon_bench --record --only results"
timeout 600 cargo run --release -q -p umon-bench --bin umon_bench -- --record --only results
git diff --exit-code -- results/

# Pipeline benchmark gate (BENCHMARK.json, benchmark/README.md): the
# stand-alone `benchmark/` package path-depends on the workspace crates but
# is not a workspace member, so nothing above compiles it. Its tests run all
# six workloads at smoke size with every output check, and `--quick` drives
# them once more through the driver's entry point — a public-API change
# that breaks the benchmark's build fails here, not after the merge.
echo "==> pipeline benchmark: cargo test + run.sh --quick"
timeout 900 cargo test --release --offline --manifest-path benchmark/Cargo.toml -q
timeout 600 bash benchmark/run.sh --quick

echo "CI green."
