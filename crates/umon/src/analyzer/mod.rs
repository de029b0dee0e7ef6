//! The μMon analyzer (§6): network-wide synchronized analysis.
//!
//! Collects period reports from every host agent and mirrored packets from
//! every switch agent, then offers:
//!
//! * **flow-rate queries** — reconstructing a flow's microsecond-level curve
//!   from the heavy part directly or from the light part with heavy-flow
//!   subtraction (§4.2 full-version query),
//! * **event clustering** — grouping mirrored packets per (switch, VLAN)
//!   into detected congestion events split on idle gaps,
//! * **recall/coverage evaluation** against the simulator's ground-truth
//!   queue episodes (Figure 14), and
//! * **event replay** — the Figure 10c join of detected events with the
//!   rate curves of the involved flows.
//!
//! One [`Analyzer`], split by responsibility: this file holds the types, the
//! constructors and the stats and coverage accessors; `ingest` accepts
//! reports (dedup, quarantine, archive, retention); `query` reconstructs
//! curves through one walk over a host's periods; `mirrors` ingests mirrored
//! packets and derives events from them.

mod ingest;
mod mirrors;
mod query;

pub(crate) use query::Selected;

use crate::archive::{PeriodArchive, TornTail};
use crate::cold::ColdStore;
use crate::collector::BackfillRequest;
use crate::host_agent::PeriodReport;
use crate::query_index::{QueryIndex, StoredPeriod};
use crate::retention::{ResidencySnapshot, RetentionPolicy, RetentionStats, TierFloors};
use crate::seqwin::SeqWindow;
use crate::switch_agent::MirroredPacket;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use wavesketch::basic::WindowSeries;
use wavesketch::SketchConfig;

/// Accounting for one [`Analyzer::add_reports`] batch (and, cumulatively,
/// for an analyzer's lifetime via [`Analyzer::ingest_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Reports accepted into the store.
    pub accepted: u64,
    /// Reports dropped because their `(host, period)` slot was already
    /// filled — redelivered or double-counted uploads.
    pub duplicates: u64,
    /// Reports quarantined because they do not fit the analyzer's sketch
    /// configuration: a different config fingerprint, or — under a matching
    /// one — a shape no drain of that configuration produces (see
    /// [`Analyzer::add_reports`]).
    pub mismatched: u64,
}

impl IngestStats {
    /// Total reports the batch carried.
    pub fn total(&self) -> u64 {
        self.accepted + self.duplicates + self.mismatched
    }

    fn absorb(&mut self, other: IngestStats) {
        self.accepted += other.accepted;
        self.duplicates += other.duplicates;
        self.mismatched += other.mismatched;
    }
}

/// Which upload periods of a host the analyzer actually holds — the
/// difference between "the flow sent nothing" and "the report never made it"
/// when reading a reconstructed curve.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeriodCoverage {
    /// Periods with an accepted report.
    pub periods: BTreeSet<u64>,
    /// Periods no longer resident but queryable from the cold tier (the
    /// archive): queries read them back from disk transparently. Empty
    /// without an archive.
    pub archived: BTreeSet<u64>,
    /// Uploads the collection plane knows were lost (sequence gaps reported
    /// by `umon::collector`); 0 when no collector feeds this analyzer.
    pub known_lost: u64,
}

impl PeriodCoverage {
    /// True if `period` has an accepted *resident* report.
    pub fn covers(&self, period: u64) -> bool {
        self.periods.contains(&period)
    }

    /// True if a query can see `period` — resident or readable from the
    /// cold tier.
    pub fn queryable(&self, period: u64) -> bool {
        self.periods.contains(&period) || self.archived.contains(&period)
    }

    /// True if no upload is known to be missing. A period absent from
    /// `periods` is not by itself a loss — hosts skip periods with no
    /// traffic — so only the collector's sequence-gap count decides. A curve
    /// read under incomplete coverage is evidence from the surviving periods
    /// only, not a statement about the holes.
    pub fn is_complete(&self) -> bool {
        self.known_lost == 0
    }
}

/// A reconstructed curve plus the period coverage it was built under.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedCurve {
    /// The reconstructed rate curve.
    pub series: WindowSeries,
    /// Coverage of the measuring host's upload periods.
    pub coverage: PeriodCoverage,
}

/// Detected event time spans `(start_ns, end_ns)` per link `(switch, VLAN)`,
/// sorted by event count descending.
pub type CongestionMap = Vec<((usize, u16), Vec<(u64, u64)>)>;

/// A congestion event reconstructed from mirrored packets.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedEvent {
    /// Switch the event was mirrored from.
    pub switch: usize,
    /// VLAN tag (port + 1).
    pub vlan: u16,
    /// First mirrored-packet timestamp (switch-local), ns.
    pub start_ns: u64,
    /// Last mirrored-packet timestamp, ns.
    pub end_ns: u64,
    /// Distinct flows among the mirrored packets.
    pub flows: BTreeSet<u64>,
    /// Mirrored packets in the event.
    pub packets: usize,
}

impl DetectedEvent {
    /// Event duration in ns (0 for a single-packet event).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Recall/coverage statistics against ground truth (one Figure 14 cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMatchStats {
    /// Ground-truth episodes considered.
    pub episodes: usize,
    /// Episodes with at least one mirrored packet inside (± tolerance).
    pub detected: usize,
    /// Mean distinct flows captured per detected episode.
    pub mean_flows_captured: f64,
}

impl EventMatchStats {
    /// Recall = detected / episodes (1.0 for an empty set).
    pub fn recall(&self) -> f64 {
        if self.episodes == 0 {
            1.0
        } else {
            self.detected as f64 / self.episodes as f64
        }
    }
}

/// The analyzer: a store of host reports and mirrored packets plus the
/// sketch configuration needed to reconstruct curves.
///
/// ```
/// use umon::{Analyzer, HostAgent, HostAgentConfig};
///
/// let config = HostAgentConfig::default();
/// let mut agent = HostAgent::new(0, config.clone());
/// agent.observe(5, 10 << 13, 1000); // flow 5, window 10, 1 kB
/// agent.observe(5, 12 << 13, 2000);
///
/// let mut analyzer = Analyzer::new(config.sketch.clone());
/// analyzer.add_reports(agent.finish());
/// let curve = analyzer.flow_curve(0, 5).expect("flow was measured");
/// assert_eq!(curve.at(10), 1000.0);
/// assert_eq!(curve.at(11), 0.0);
/// assert_eq!(curve.at(12), 2000.0);
/// ```
pub struct Analyzer {
    sketch_config: SketchConfig,
    /// Host reports keyed by host, then by period — the map deduplicates
    /// redelivered periods and keeps reconstruction inputs period-ordered no
    /// matter how the collection plane reordered arrivals. Under a bounded
    /// [`RetentionPolicy`] this is the resident set only (hot + compacted);
    /// evicted periods live in the archive, if any. Each report carries its
    /// row-0 series once a host-rate query has built it.
    reports: BTreeMap<usize, BTreeMap<u64, StoredPeriod>>,
    /// Ingest-time query index over `reports`; updated exactly when a report
    /// is accepted, so it stays coherent under dedup, quarantine and
    /// out-of-order delivery. Only hot-tier periods are indexed; compacted
    /// periods are deindexed and queries fall back to a linear period scan.
    index: QueryIndex,
    /// The memory budget driving compaction and eviction.
    retention: RetentionPolicy,
    /// Per-host tier floors (monotone; see [`TierFloors`]).
    floors: BTreeMap<usize, TierFloors>,
    /// Cumulative retention accounting.
    retention_stats: RetentionStats,
    /// Crash-safe on-disk period archive. Every accepted report is appended
    /// here *before* it becomes queryable (write-ahead), so eviction is a
    /// pure in-memory drop and a crash can lose at most one segment tail.
    archive: Option<PeriodArchive>,
    /// The queryable cold tier over the archive: a byte-location index of
    /// every archived record plus a bounded segment cache. Present exactly
    /// when `archive` is. Queries fall through hot → compacted → cold, so
    /// with an archive eviction is a latency budget, not a data-loss
    /// budget.
    cold: Option<ColdStore>,
    /// Suppresses archive appends while replaying the archive itself
    /// ([`Self::recover_from_archive`]), so recovery never duplicates
    /// records.
    recovering: bool,
    /// All mirrored packets. Intentionally retained unbounded: positions in
    /// this list are referenced by [`Self::mirror_index`], so eviction would
    /// invalidate the index, and mirror volume is bounded by the switch
    /// agents' sampling rate rather than by time alone. Long-running
    /// deployments restart the mirror plane per epoch.
    mirrors: Vec<MirroredPacket>,
    /// Per-`(switch, vlan)` positions into [`Self::mirrors`], each list
    /// sorted by timestamp (ties in arrival order — what a stable sort of
    /// the flat list produced before this index existed). Maintained on
    /// ingest so event queries stop re-bucketing and re-sorting every
    /// mirror. Retained alongside `mirrors` (same lifetime, same bound).
    mirror_index: BTreeMap<(usize, u16), Vec<usize>>,
    /// Mirror batch numbers already accepted, per switch: a contiguous-ack
    /// watermark plus a bounded out-of-order tail, not an ever-growing set.
    mirror_batches_seen: BTreeMap<usize, SeqWindow>,
    /// Redelivered mirror batches dropped.
    mirror_duplicates: u64,
    /// Cumulative report-ingestion accounting.
    stats: IngestStats,
    /// The most recent mismatched reports, kept for postmortems: a ring of
    /// the last [`ingest::QUARANTINE_CAP`] arrivals, oldest evicted first.
    quarantine: VecDeque<PeriodReport>,
    /// Collector-reported lost uploads per host. Bounded by the number of
    /// hosts, not by time.
    known_lost: BTreeMap<usize, u64>,
}

/// What [`Analyzer::recover_from_archive`] found and replayed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Archived reports re-accepted into the store.
    pub recovered: u64,
    /// Archived records skipped: already resident, or below the eviction
    /// floor the replay itself advanced (their periods aged out again).
    pub skipped: u64,
    /// Archived records that no longer fit the sketch configuration
    /// (fingerprint or shape; quarantined, as on live ingest).
    pub mismatched: u64,
    /// Hosts whose segment had a damaged (truncated or corrupt) tail; the
    /// intact prefix was still recovered.
    pub damaged_tails: Vec<usize>,
    /// Per-segment damage detail (host, records and bytes each torn tail
    /// lost), parallel in host order to `damaged_tails`. Recovery prints
    /// nothing; a caller that wants the operator to see a tear prints these
    /// (`TornTail` implements `Display`). Feed this to
    /// [`Analyzer::backfill_requests`] to ask the affected hosts to
    /// re-upload what the tear lost.
    pub torn_tails: Vec<TornTail>,
    /// Hosts whose segment is of another format version: none of its
    /// records were read, the file is left byte-identical, and appends for
    /// the host fail (counted in `archive_errors`; the reports stay
    /// resident).
    pub refused_segments: Vec<usize>,
}

impl Analyzer {
    /// Creates an analyzer that reconstructs against `sketch_config` (must
    /// match the host agents' configuration). Retention is unbounded — the
    /// pre-retention behavior; long-running deployments should use
    /// [`Self::with_retention`] or [`Self::with_archive`].
    pub fn new(sketch_config: SketchConfig) -> Self {
        Self::with_retention(sketch_config, RetentionPolicy::UNBOUNDED)
    }

    /// An analyzer with an explicit memory budget; see [`RetentionPolicy`].
    pub fn with_retention(sketch_config: SketchConfig, retention: RetentionPolicy) -> Self {
        Self {
            sketch_config,
            reports: BTreeMap::new(),
            index: QueryIndex::default(),
            retention,
            floors: BTreeMap::new(),
            retention_stats: RetentionStats::default(),
            archive: None,
            cold: None,
            recovering: false,
            mirrors: Vec::new(),
            mirror_index: BTreeMap::new(),
            mirror_batches_seen: BTreeMap::new(),
            mirror_duplicates: 0,
            stats: IngestStats::default(),
            quarantine: VecDeque::new(),
            known_lost: BTreeMap::new(),
        }
    }

    /// An analyzer with a memory budget *and* a crash-safe on-disk archive
    /// rooted at `dir`. Every accepted report is archived before it becomes
    /// queryable, so evicted periods survive on disk and a restarted
    /// analyzer recovers them with [`Self::recover_from_archive`].
    pub fn with_archive(
        sketch_config: SketchConfig,
        retention: RetentionPolicy,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<Self> {
        let mut a = Self::with_retention(sketch_config, retention);
        a.archive = Some(PeriodArchive::open(&dir)?);
        a.cold = Some(ColdStore::new(
            dir.as_ref().to_path_buf(),
            retention.cold_cache_bytes,
            a.sketch_config.clone(),
        ));
        Ok(a)
    }

    /// Cumulative ingestion accounting since construction.
    pub fn ingest_stats(&self) -> IngestStats {
        self.stats
    }

    /// The retention policy this analyzer runs under.
    pub fn retention_policy(&self) -> &RetentionPolicy {
        &self.retention
    }

    /// Cumulative retention accounting since construction, including the
    /// cold tier's read counters (the latency side of the cold-read
    /// contract: archive records are immutable, so cold answers are never
    /// stale — they just cost `cold_read_ns` of disk time).
    pub fn retention_stats(&self) -> RetentionStats {
        let mut s = self.retention_stats;
        if let Some(cold) = &self.cold {
            let c = cold.stats();
            s.cold_hits = c.hits;
            s.cold_misses = c.misses;
            s.cold_bytes_read = c.bytes_read;
            s.cold_read_ns = c.read_ns;
            s.cold_read_errors = c.errors;
        }
        s.curve_epochs_indexed = self.index.epochs_indexed();
        s.curve_epochs_built = self.index.epochs_built().get();
        s.row0_series_built = self.index.row0_series_built().get();
        s
    }

    /// A point-in-time snapshot of resident state — what the retention soak
    /// asserts stays bounded. Walks the resident set (`O(resident)`), so
    /// call it at checkpoints, not per query.
    pub fn residency(&self) -> ResidencySnapshot {
        let resident = || self.reports.values().flat_map(|m| m.values());
        ResidencySnapshot {
            resident_periods: self.reports.values().map(|m| m.len()).sum(),
            hot_periods: self.index.indexed_periods(),
            cached_bytes: self.index.cached_bytes(),
            resident_report_bytes: resident().map(|sp| sp.report.report.wire_bytes()).sum(),
            row0_series_bytes: resident().map(StoredPeriod::row0_bytes).sum(),
        }
    }

    /// The most recently quarantined (fingerprint- or shape-mismatched)
    /// reports, oldest first.
    pub fn quarantined(&self) -> &VecDeque<PeriodReport> {
        &self.quarantine
    }

    /// Records how many of `host`'s uploads the collection plane knows were
    /// lost (sequence gaps). Surfaced through [`PeriodCoverage::known_lost`]
    /// on every curve reconstructed for that host.
    pub fn set_known_lost(&mut self, host: usize, lost: u64) {
        if lost == 0 {
            self.known_lost.remove(&host);
        } else {
            self.known_lost.insert(host, lost);
        }
    }

    /// Which of `host`'s upload periods this analyzer holds.
    pub fn host_coverage(&self, host: usize) -> PeriodCoverage {
        let evict_floor = self.floors.get(&host).map_or(0, |f| f.evict_floor);
        PeriodCoverage {
            periods: self
                .reports
                .get(&host)
                .map(|m| m.keys().copied().collect())
                .unwrap_or_default(),
            archived: self
                .cold
                .as_ref()
                .map(|c| c.archived_below(host, evict_floor))
                .unwrap_or_default(),
            known_lost: self.known_lost.get(&host).copied().unwrap_or(0),
        }
    }

    /// After a crash recovery: which hosts should re-upload, and from which
    /// period on. A host needs backfill if its archive segment lost records
    /// to a torn tail (`recovery.damaged_tails`) or the collection plane
    /// knows uploads were lost (`known_lost`). `after_period` is the newest
    /// period the analyzer still holds for the host (resident or archived)
    /// — everything newer is gone and should be replayed; `None` means the
    /// analyzer holds nothing for the host. Deliver the requests over the
    /// collection plane's control channel and answer them with
    /// [`HostUplink::backfill`](crate::collector::HostUplink::backfill);
    /// the re-uploads dedup through the normal collector path.
    pub fn backfill_requests(&self, recovery: &RecoveryStats) -> Vec<BackfillRequest> {
        let mut hosts: BTreeSet<usize> = recovery.damaged_tails.iter().copied().collect();
        hosts.extend(self.known_lost.keys().copied());
        hosts
            .into_iter()
            .map(|host| {
                let resident = self
                    .reports
                    .get(&host)
                    .and_then(|m| m.last_key_value())
                    .map(|(&p, _)| p);
                let archived = self.cold.as_ref().and_then(|c| c.newest_archived(host));
                BackfillRequest {
                    host,
                    after_period: resident.max(archived),
                }
            })
            .collect()
    }
}

/// Fixtures the per-file test modules share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::host_agent::{HostAgent, HostAgentConfig};

    pub(super) fn agent_config() -> HostAgentConfig {
        HostAgentConfig {
            sketch: SketchConfig::builder()
                .rows(2)
                .width(32)
                .levels(4)
                .topk(64)
                .max_windows(4096)
                .heavy_rows(16)
                .build(),
            period_ns: 100_000_000,
            window_shift: 13,
        }
    }

    /// A deterministic multi-period, heavy-contested workload for the
    /// equivalence tests (xorshift, no rng crate needed in-tree here).
    pub(crate) fn contested_reports(
        hosts: usize,
        windows: u64,
    ) -> (HostAgentConfig, Vec<PeriodReport>) {
        contested_reports_rows(3, hosts, windows)
    }

    /// [`contested_reports`] over a sketch of `rows` light rows.
    pub(crate) fn contested_reports_rows(
        rows: usize,
        hosts: usize,
        windows: u64,
    ) -> (HostAgentConfig, Vec<PeriodReport>) {
        let cfg = HostAgentConfig {
            sketch: SketchConfig::builder()
                .rows(rows)
                .width(16)
                .levels(4)
                .topk(12)
                .max_windows(64)
                .heavy_rows(4)
                .build(),
            period_ns: 48 << 13,
            window_shift: 13,
        };
        let mut out = Vec::new();
        for host in 0..hosts {
            let mut agent = HostAgent::new(host, cfg.clone());
            let mut x = 0x9E37_79B9u64 ^ (host as u64) << 17;
            for w in 0..windows {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let n = x % 4;
                for p in 0..n {
                    let flow = if (x >> (8 + p)) & 3 != 0 {
                        (x >> 11) % 3
                    } else {
                        (x >> 11) % 24
                    };
                    agent.observe(flow, w << 13, 64 + ((x >> 20) % 4000) as u32);
                }
            }
            out.extend(agent.finish());
        }
        (cfg, out)
    }

    /// No answer depends on per-process random state. Two analyzers built
    /// in one process get different std `HashMap` keys, so any map whose
    /// iteration order fed an output would show here: fed the same reports
    /// (reversed, in two batches, queried between them), they must answer
    /// bit-identical flow and host-rate curves and equal `retention_stats()`
    /// and `residency()`. Three setups: all hot; bounded by a cached-bytes
    /// budget (which picks its victims across hosts); and archive-backed,
    /// reading cold periods (its `cold_read_ns` is wall-clock time and is
    /// left out).
    #[test]
    fn two_analyzers_in_one_process_answer_identically() {
        use crate::query_index::QueryScratch;

        let (cfg, reports) = contested_reports(3, 250);
        let mut reversed: Vec<PeriodReport> = reports.iter().rev().cloned().collect();
        let late = reversed.split_off(reversed.len() / 2);
        let mut probe = Analyzer::new(cfg.sketch.clone());
        probe.add_reports(reports.clone());
        let budget = probe.residency().cached_bytes / 3;
        let dirs: Vec<_> = (0..2)
            .map(|i| std::env::temp_dir().join(format!("umon_twins_{i}_{}", std::process::id())))
            .collect();
        let setups: [(&str, &dyn Fn(usize) -> Analyzer); 3] = [
            ("hot", &|_| Analyzer::new(cfg.sketch.clone())),
            ("budget", &|_| {
                let policy = RetentionPolicy::bounded(3, u64::MAX).with_cached_bytes(budget);
                Analyzer::with_retention(cfg.sketch.clone(), policy)
            }),
            ("archive", &|i| {
                let _ = std::fs::remove_dir_all(&dirs[i]);
                let policy = RetentionPolicy::bounded(1, 2);
                Analyzer::with_archive(cfg.sketch.clone(), policy, &dirs[i]).expect("archive")
            }),
        ];
        // A curve as its start window and the bits of its values.
        type Bits = (u64, Vec<u64>);
        let bits = |s: Option<&WindowSeries>| -> Option<Bits> {
            s.map(|s| {
                (
                    s.start_window,
                    s.values.iter().map(|v| v.to_bits()).collect(),
                )
            })
        };
        for (what, make) in setups {
            let mut twins = [make(0), make(1)];
            let mut answers: [Vec<Option<Bits>>; 2] = Default::default();
            for (a, out) in twins.iter_mut().zip(&mut answers) {
                let mut scratch = QueryScratch::new();
                for batch in [&reversed, &late] {
                    a.add_reports(batch.clone());
                    for host in 0..3 {
                        for flow in 0..24u64 {
                            out.push(bits(a.flow_curve_with(host, flow, &mut scratch)));
                        }
                        out.push(bits(a.host_rate_curve_with(host, &mut scratch)));
                    }
                }
            }
            assert!(answers[0].iter().any(Option::is_some), "{what}");
            assert_eq!(answers[0], answers[1], "{what}: curves");
            let [s0, s1] = [0, 1].map(|i| RetentionStats {
                cold_read_ns: 0,
                ..twins[i].retention_stats()
            });
            assert_eq!(s0, s1, "{what}: retention stats");
            assert_eq!(
                twins[0].residency(),
                twins[1].residency(),
                "{what}: residency"
            );
            match what {
                "budget" => assert!(s0.compacted_periods > 0, "the budget compacts"),
                "archive" => assert!(s0.cold_hits + s0.cold_misses > 0, "cold reads"),
                _ => {}
            }
        }
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn coverage_distinguishes_no_traffic_from_no_data() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13;
        let mut agent = HostAgent::new(3, cfg.clone());
        agent.observe(1, 2 << 13, 100); // period 0
        agent.observe(1, 40 << 13, 100); // period 2 (period 1: no traffic)
        let mut reports = agent.finish();
        assert_eq!(reports.len(), 2);
        // Drop period 2's report: "no data" for it.
        let lost = reports.pop().unwrap();
        assert_eq!(lost.period, 2);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(reports);
        analyzer.set_known_lost(3, 1);
        let cov = analyzer.host_coverage(3);
        assert!(cov.covers(0));
        assert!(!cov.covers(2), "lost period must not read as covered");
        assert_eq!(cov.known_lost, 1);
        assert!(!cov.is_complete());
        analyzer.set_known_lost(3, 0);
        assert!(analyzer.host_coverage(3).is_complete());
    }
}
