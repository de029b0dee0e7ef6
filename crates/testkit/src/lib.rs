//! Differential-testing harness for the WaveSketch family.
//!
//! The crate provides three layers, each usable on its own:
//!
//! * [`Oracle`] — an exact ground truth. It replays the same packet stream a
//!   sketch sees into dense per-flow and per-bucket window counters using the
//!   bucket's own epoch rules, then derives the exact unnormalized Haar
//!   coefficients ([`wavesketch::haar`]) and the unique optimal k-term
//!   squared reconstruction error (Appendix A/B). Any drained report can be
//!   checked against it field by field.
//! * [`gen_stream`] — a seeded, deterministic packet-stream generator with
//!   three workload shapes ([`StreamKind`]): uniform background traffic,
//!   a skewed elephants-and-mice mix, and bursty incast with idle gaps.
//! * [`diff_run`] — the differential fuzzer step. One call drives the Basic,
//!   Full, HW-selector and Streaming (per-flow bucket) variants over the
//!   same generated stream and asserts the cross-variant and
//!   vs-oracle invariants listed in DESIGN.md §8. Every failure carries the
//!   seed, so `cargo run -p umon-testkit --bin diff_fuzz -- --seeds 1
//!   --start <seed>` reproduces it exactly.
//!
//! [`collection_diff_run`] extends the differential idea to the collection
//! plane: one seed → one workload measured by a real host agent → the same
//! period reports replayed over lossless, lossy and retransmission-healed
//! transports, asserting the `umon::collector` degradation contract against
//! a fault log that records exactly what the network did.
//!
//! [`retention_diff_run`], [`retention_soak_run`] and [`cold_soak_run`]
//! cover the analyzer's bounded-memory retention tiers, the crash-safe
//! period archive and the queryable cold tier on top of it: compaction,
//! crash/recovery and eviction-to-archive must all be bit-invisible to
//! queries (evicted periods are read back from disk), backfill over the
//! collection plane must heal torn segment tails, and a long bounded run
//! must hold resident state under the budget (DESIGN.md §12, §14).
//!
//! [`sim_equivalence_run`] turns the parallel simulator's determinism
//! promise into a differential: one seed's workload run sequentially and at
//! several partition counts must serialize to byte-identical full traces
//! and drain bit-identical host reports (DESIGN.md §16).
//!
//! [`replay_host_records`] closes the loop with the simulator: it feeds
//! `netsim` TX records (e.g. parsed back from a trace CSV) through a real
//! [`umon::HostAgent`] and validates every uploaded period report against a
//! per-period oracle.

pub mod diff;
pub mod faults;
pub mod golden;
pub mod golden_query;
pub mod oracle;
pub mod replay;
pub mod retention;
pub mod sim_equivalence;
pub mod stream;

pub use diff::{batch_burst_from_env, diff_run, DiffConfig, DiffError, DiffStats};
pub use faults::{collection_diff_run, flow_id_of, CollectionDiffConfig, CollectionDiffStats};
pub use oracle::{CheckParams, EpochTruth, Oracle};
pub use replay::{replay_host_records, ReplayStats};
pub use retention::{
    cold_soak_run, retention_diff_run, retention_soak_run, RetentionDiffConfig, RetentionDiffStats,
    RetentionSoakStats,
};
pub use sim_equivalence::{sim_equivalence_run, SimEquivalenceConfig, SimEquivalenceStats};
pub use stream::{
    gen_stream, scale_values, shuffle_within_windows, StreamConfig, StreamKind, Update,
};
