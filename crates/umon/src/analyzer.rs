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

use crate::archive::{PeriodArchive, TornTail};
use crate::cold::ColdStore;
use crate::collector::BackfillRequest;
use crate::host_agent::PeriodReport;
use crate::query_index::{
    series_from_epochs, unpack_key, visit_refs, Epoch, HostIndex, QueryIndex, QueryScratch,
};
use crate::retention::{ResidencySnapshot, RetentionPolicy, RetentionStats, TierFloors};
use crate::seqwin::SeqWindow;
use crate::switch_agent::{MirrorBatch, MirroredPacket};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::Path;
use std::rc::Rc;
use umon_netsim::QueueEpisode;
use wavesketch::basic::WindowSeries;
use wavesketch::reconstruct::ReconstructScratch;
use wavesketch::{BucketReport, FlowKey, SketchConfig, SketchReport};

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
    /// evicted periods live in the archive, if any.
    reports: HashMap<usize, BTreeMap<u64, PeriodReport>>,
    /// Ingest-time query index over `reports`; updated exactly when a report
    /// is accepted, so it stays coherent under dedup, quarantine and
    /// out-of-order delivery. Only hot-tier periods are indexed; compacted
    /// periods are deindexed and queries fall back to a linear period scan.
    index: QueryIndex,
    /// The memory budget driving compaction and eviction.
    retention: RetentionPolicy,
    /// Per-host tier floors (monotone; see [`TierFloors`]).
    floors: HashMap<usize, TierFloors>,
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
    mirror_batches_seen: HashMap<usize, SeqWindow>,
    /// Redelivered mirror batches dropped.
    mirror_duplicates: u64,
    /// Cumulative report-ingestion accounting.
    stats: IngestStats,
    /// The most recent mismatched reports, kept for postmortems: a ring of
    /// the last [`QUARANTINE_CAP`] arrivals, oldest evicted first.
    quarantine: VecDeque<PeriodReport>,
    /// Collector-reported lost uploads per host. Bounded by the number of
    /// hosts, not by time.
    known_lost: HashMap<usize, u64>,
}

/// Mismatched reports retained for inspection before old ones are evicted.
const QUARANTINE_CAP: usize = 64;

/// True if `r` can be stored, indexed and reconstructed under `cfg`: sealed
/// under the same configuration, and of the shape every drain of it has.
/// The fingerprint is only the sender's word; the shape is what the index
/// and the inverse transform index and allocate by — unchecked, a 3-byte
/// heavy key or a `w0` next to `u64::MAX` aborts the (`panic = "abort"`)
/// process and a `padded_len` of 2^24 sizes a 134 MB curve. An epoch of a
/// drain is `next_power_of_two` of at most `max_windows` windows (itself a
/// power of two), whatever the selector; `padded_len == 0` (a degenerate
/// heavy record) is legal.
fn fits_config(r: &PeriodReport, cfg: &SketchConfig) -> bool {
    let epochs_fit = |brs: &[BucketReport]| {
        brs.iter().all(|b| {
            b.padded_len <= cfg.max_windows && b.w0.checked_add(b.padded_len as u64).is_some()
        })
    };
    r.config_fingerprint == cfg.fingerprint()
        && (r.report.heavy.iter()).all(|(key, brs)| key.len() == 13 && epochs_fit(brs))
        && (r.report.light.iter()).all(|(row, col, brs)| {
            (*row as usize) < cfg.rows && (*col as usize) < cfg.width && epochs_fit(brs)
        })
}

/// Out-of-order tolerance for mirror batch sequence numbers, per switch.
/// Batches more than this many sequence numbers behind the newest seen are
/// treated as duplicates (the dedup window has moved past them).
const MIRROR_BATCH_HORIZON: usize = 1024;

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
            reports: HashMap::new(),
            index: QueryIndex::default(),
            retention,
            floors: HashMap::new(),
            retention_stats: RetentionStats::default(),
            archive: None,
            cold: None,
            recovering: false,
            mirrors: Vec::new(),
            mirror_index: BTreeMap::new(),
            mirror_batches_seen: HashMap::new(),
            mirror_duplicates: 0,
            stats: IngestStats::default(),
            quarantine: VecDeque::new(),
            known_lost: HashMap::new(),
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
        ));
        Ok(a)
    }

    /// Replays the archive this analyzer writes to, re-accepting every
    /// intact record (the crash-recovery path: construct with
    /// [`Self::with_archive`] over the surviving directory, then call this).
    /// Records replay sorted by `(host, period)`, so retention enforcement
    /// re-evicts periods past the policy's horizon as the replay advances —
    /// the recovered analyzer converges to the same resident set, and
    /// bit-identical curves, as one that never crashed. Appends are
    /// suppressed during the replay, so recovery never duplicates archive
    /// records. No-op without an archive.
    pub fn recover_from_archive(&mut self) -> std::io::Result<RecoveryStats> {
        let Some(dir) = self.archive.as_ref().map(|a| a.dir().to_path_buf()) else {
            return Ok(RecoveryStats::default());
        };
        let scan = PeriodArchive::scan(&dir)?;
        // Truncate torn tails back to the intact prefix so post-recovery
        // appends — including the backfilled re-uploads of what the tear
        // lost — extend a clean segment instead of hiding behind
        // unreachable bytes.
        if let Some(archive) = self.archive.as_mut() {
            archive.truncate_damage(&scan)?;
        }
        for t in &scan.torn_tails {
            self.retention_stats.torn_tail_records += t.lost_records;
        }
        // Index every intact record's location for the cold tier before the
        // replay: records the replay re-evicts (or skips as stale) stay
        // queryable from disk.
        if let Some(cold) = self.cold.as_mut() {
            for (r, loc) in scan.reports.iter().zip(&scan.locs) {
                if fits_config(r, &self.sketch_config) {
                    cold.record(r.host, r.period, *loc);
                }
            }
        }
        self.recovering = true;
        let stats = self.add_reports(scan.reports);
        self.recovering = false;
        Ok(RecoveryStats {
            recovered: stats.accepted,
            skipped: stats.duplicates,
            mismatched: stats.mismatched,
            damaged_tails: scan.damaged_tails,
            torn_tails: scan.torn_tails,
        })
    }

    /// Ingests period reports, one host or many mixed.
    ///
    /// Reports built under a different sketch configuration are quarantined
    /// (counted in [`IngestStats::mismatched`], the most recent kept for
    /// inspection) instead of poisoning the batch, and so are reports that
    /// carry the right fingerprint but not the shape it promises — a heavy
    /// key that is not 13 bytes, a light tag outside the `rows × width`
    /// array, an epoch longer than `max_windows` or running past the end of
    /// the window space; redelivered periods are dropped as duplicates.
    /// Never panics — the collection plane, an archive and `umon replay`
    /// deliver whatever the network, the disk or the user did to it.
    pub fn add_reports(&mut self, reports: Vec<PeriodReport>) -> IngestStats {
        let mut batch = IngestStats::default();
        for r in reports {
            if !fits_config(&r, &self.sketch_config) {
                batch.mismatched += 1;
                if self.quarantine.len() >= QUARANTINE_CAP {
                    self.quarantine.pop_front();
                }
                self.quarantine.push_back(r);
                continue;
            }
            let floors = self.floors.get(&r.host).copied().unwrap_or_default();
            if r.period < floors.evict_floor {
                // Below the eviction floor the report can never become
                // resident, but with an archive the cold index *can* tell a
                // stale first delivery from a redelivery of an evicted
                // period: first deliveries are archived (immediately
                // queryable from the cold tier), redeliveries are dropped.
                // Without an archive the two are indistinguishable, so
                // everything is dropped as before.
                let mut archived_first = false;
                if !self.recovering {
                    if let (Some(archive), Some(cold)) = (self.archive.as_mut(), self.cold.as_mut())
                    {
                        if !cold.contains(r.host, r.period) {
                            match archive.append(&r) {
                                Ok(loc) => {
                                    cold.record(r.host, r.period, loc);
                                    archived_first = true;
                                }
                                Err(_) => self.retention_stats.archive_errors += 1,
                            }
                        }
                    }
                }
                if archived_first {
                    self.retention_stats.stale_archived += 1;
                    batch.accepted += 1;
                } else {
                    batch.duplicates += 1;
                    self.retention_stats.stale_dropped += 1;
                }
                continue;
            }
            let host = r.host;
            let mut accepted = false;
            match self.reports.entry(host).or_default().entry(r.period) {
                std::collections::btree_map::Entry::Occupied(_) => batch.duplicates += 1,
                std::collections::btree_map::Entry::Vacant(v) => {
                    // Write-ahead: archive before the report becomes
                    // queryable, so eviction never races a missing record.
                    // The archive record keeps full fidelity even when the
                    // lossy floor trims the resident copy below.
                    if !self.recovering {
                        if let Some(archive) = self.archive.as_mut() {
                            match archive.append(&r) {
                                Ok(loc) => {
                                    if let Some(cold) = self.cold.as_mut() {
                                        cold.record(host, r.period, loc);
                                    }
                                }
                                Err(_) => self.retention_stats.archive_errors += 1,
                            }
                        }
                    }
                    if r.period >= floors.hot_floor {
                        self.index.index_report(host, &r, &self.sketch_config);
                        v.insert(r);
                    } else {
                        // Arrived already past the hot horizon: store it
                        // compacted (resident, never indexed).
                        self.index.ensure_host(host);
                        self.retention_stats.compacted_on_arrival += 1;
                        let mut r = r;
                        if let Some(keep) = self.retention.lossy_floor {
                            self.retention_stats.lossy_trimmed_details +=
                                trim_details(&mut r.report, keep);
                        }
                        v.insert(r);
                    }
                    batch.accepted += 1;
                    accepted = true;
                }
            }
            if accepted {
                self.enforce_retention(host);
            }
        }
        self.enforce_cached_budget();
        self.stats.absorb(batch);
        batch
    }

    /// Raises `host`'s tier floors to track its newest stored period, then
    /// compacts/evicts the periods the raise uncovered. No-ops entirely
    /// under the default unbounded policy (the floors stay at 0).
    fn enforce_retention(&mut self, host: usize) {
        let Some(store) = self.reports.get(&host) else {
            return;
        };
        let Some((&newest, _)) = store.last_key_value() else {
            return;
        };
        let floors = self.floors.entry(host).or_default();
        let prev = floors.raise(newest, &self.retention);
        let (hot_floor, evict_floor) = (floors.hot_floor, floors.evict_floor);
        if evict_floor > prev.evict_floor {
            let store = self.reports.get_mut(&host).expect("checked above");
            let doomed: Vec<u64> = store
                .range(prev.evict_floor..evict_floor)
                .map(|(&p, _)| p)
                .collect();
            for p in doomed {
                let r = store.remove(&p).expect("just enumerated");
                // The period may still be hot (small resident horizons);
                // deindexing is a no-op if it was already compacted.
                self.index.deindex_period(host, &r, &self.sketch_config);
                self.retention_stats.evicted_periods += 1;
            }
        }
        let compact_from = prev.hot_floor.max(evict_floor);
        if hot_floor > compact_from {
            let store = self.reports.get_mut(&host).expect("checked above");
            let doomed: Vec<u64> = store
                .range(compact_from..hot_floor)
                .map(|(&p, _)| p)
                .collect();
            let mut compacted = 0u64;
            for p in doomed {
                let r = store.get_mut(&p).expect("just enumerated");
                // Deindex against the untrimmed report (the index entries
                // were built from it), then trim the resident copy if the
                // lossy floor is on — the archive already holds the full
                // record, so this trades resident memory for compacted-tier
                // accuracy, never data.
                if self.index.deindex_period(host, r, &self.sketch_config) {
                    compacted += 1;
                }
                if let Some(keep) = self.retention.lossy_floor {
                    self.retention_stats.lossy_trimmed_details += trim_details(&mut r.report, keep);
                }
            }
            self.retention_stats.compacted_periods += compacted;
        }
    }

    /// Compacts the globally oldest hot periods until the cached-bytes
    /// budget is respected, raising the victims' hot floors so re-ingest
    /// of the same periods cannot thrash.
    fn enforce_cached_budget(&mut self) {
        let Some(budget) = self.retention.max_cached_bytes else {
            return;
        };
        while self.index.cached_bytes() > budget {
            let Some((p, h)) = self.index.oldest_indexed() else {
                break;
            };
            let r = self
                .reports
                .get(&h)
                .and_then(|m| m.get(&p))
                .expect("indexed periods are resident");
            self.index.deindex_period(h, r, &self.sketch_config);
            let floors = self.floors.entry(h).or_default();
            floors.hot_floor = floors.hot_floor.max(p + 1);
            self.retention_stats.compacted_periods += 1;
        }
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
        s
    }

    /// A point-in-time snapshot of resident state — what the retention soak
    /// asserts stays bounded. Walks the resident set (`O(resident)`), so
    /// call it at checkpoints, not per query.
    pub fn residency(&self) -> ResidencySnapshot {
        ResidencySnapshot {
            resident_periods: self.reports.values().map(|m| m.len()).sum(),
            hot_periods: self.index.indexed_periods(),
            cached_bytes: self.index.cached_bytes(),
            resident_report_bytes: self
                .reports
                .values()
                .flat_map(|m| m.values())
                .map(|r| r.report.wire_bytes())
                .sum(),
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

    /// Ingests mirrored packets from a switch agent.
    pub fn add_mirrors(&mut self, mirrors: Vec<MirroredPacket>) {
        for m in mirrors {
            self.index_mirror(m);
        }
    }

    /// Ingests a sequence-numbered mirror batch, dropping redelivered batch
    /// numbers. Returns `true` if the batch was new. Dedup state is a
    /// per-switch [`SeqWindow`], so it stays bounded no matter how long the
    /// analyzer runs; a batch delivered more than [`MIRROR_BATCH_HORIZON`]
    /// sequence numbers late is dropped as a duplicate.
    pub fn add_mirror_batch(&mut self, batch: MirrorBatch) -> bool {
        let seen = self
            .mirror_batches_seen
            .entry(batch.switch)
            .or_insert_with(|| SeqWindow::new(MIRROR_BATCH_HORIZON));
        if !seen.insert(batch.seq) {
            self.mirror_duplicates += 1;
            return false;
        }
        for m in batch.packets {
            self.index_mirror(m);
        }
        true
    }

    /// Appends one mirror and files its position in the per-port index at
    /// its timestamp-sorted slot. Inserting after all equal timestamps keeps
    /// ties in arrival order — the same order the stable per-query sort this
    /// index replaced would have produced.
    fn index_mirror(&mut self, m: MirroredPacket) {
        let list = self.mirror_index.entry((m.switch, m.vlan)).or_default();
        let pos = list.partition_point(|&j| self.mirrors[j].ts_ns <= m.ts_ns);
        list.insert(pos, self.mirrors.len());
        self.mirrors.push(m);
    }

    /// Redelivered mirror batches dropped so far.
    pub fn mirror_duplicates(&self) -> u64 {
        self.mirror_duplicates
    }

    /// All mirrored packets seen so far.
    pub fn mirrors(&self) -> &[MirroredPacket] {
        &self.mirrors
    }

    /// Reconstructs the rate curve of `flow_id` as measured at `host`.
    ///
    /// Heavy-part records are collision-free and used directly; otherwise
    /// the light part is reconstructed with heavy-flow subtraction, taking
    /// the minimum-total row (the Count-Min query lifted to curves).
    ///
    /// Allocating convenience wrapper over [`Self::flow_curve_with`] — query
    /// loops should hold a [`QueryScratch`] and call that instead.
    pub fn flow_curve(&self, host: usize, flow_id: u64) -> Option<WindowSeries> {
        let mut scratch = QueryScratch::new();
        self.flow_curve_with(host, flow_id, &mut scratch).cloned()
    }

    /// [`Self::flow_curve`] through a reusable [`QueryScratch`]: all lookups
    /// go through the ingest-time index and all curve arithmetic runs in the
    /// scratch's buffers, so a warm scratch makes repeated queries
    /// allocation-free. The returned series borrows the scratch and is valid
    /// until its next use.
    pub fn flow_curve_with<'a>(
        &self,
        host: usize,
        flow_id: u64,
        scratch: &'a mut QueryScratch,
    ) -> Option<&'a WindowSeries> {
        let floors = self.floors.get(&host).copied().unwrap_or_default();
        let hot_floor = floors.hot_floor;
        // Cold tier first: fetch every archived-only period once, before
        // the two-pass epoch walks below, so both passes see identical
        // epochs (and the fetch's `&mut` borrow ends before the closures
        // capture the scratch).
        match &self.cold {
            Some(c) => c.fetch_below(host, floors.evict_floor, &mut scratch.cold),
            None => scratch.cold.clear(),
        }
        let empty_store = BTreeMap::new();
        let empty_hidx = HostIndex::default();
        if !self.reports.contains_key(&host)
            && self.index.host(host).is_none()
            && scratch.cold.is_empty()
        {
            return None;
        }
        let store = self.reports.get(&host).unwrap_or(&empty_store);
        let hidx = self.index.host(host).unwrap_or(&empty_hidx);
        let key = FlowKey::from_id(flow_id);
        let packed: [u8; 13] = key.pack();

        // Split borrows: every buffer the query touches, carved out of the
        // scratch once so tier visitors can borrow them independently.
        let QueryScratch {
            light_best,
            light_cand,
            heavy_sub,
            heavy,
            starts,
            light_at,
            recon,
            cold,
            ..
        } = scratch;
        let cold: &[Rc<PeriodReport>] = cold;

        // Heavy path: concatenate heavy records across periods. Cold
        // periods (read back from the archive, all strictly older than the
        // eviction floor) come first, then compacted periods (older than
        // the hot floor) scanned from the store in period order, then hot
        // refs — epochs concatenate chronologically even when uploads
        // arrived shuffled, and the float-addition order matches the
        // all-hot (and pre-index, and unbounded) path exactly. The heavy
        // bucket is exact within its epochs but misses any history from
        // before the flow's election, so it is overlaid onto the light-part
        // estimate rather than used alone.
        let heavy_refs = hidx.heavy.get(&packed).map_or(&[][..], Vec::as_slice);
        let has_heavy = series_from_epochs(
            |f| {
                for pr in older_periods(cold, store, hot_floor) {
                    for (k, brs) in &pr.report.heavy {
                        if k.as_slice() == packed.as_slice() {
                            for r in brs {
                                f(Epoch::Raw(r));
                            }
                        }
                    }
                }
                visit_refs(
                    heavy_refs,
                    |p, i| {
                        hidx.heavy_entry(store, p, i)
                            .map(|(_, brs, memos)| (brs, memos))
                    },
                    f,
                );
            },
            heavy,
            recon,
            self.index.epochs_built(),
        );
        if has_heavy {
            // Each heavy epoch's opening window may be partial (the flow's
            // packets in that window before it took the slot were counted
            // light-only): keep the larger source there. Both upper-bound
            // the truth. Collected in the same tier order as the epochs.
            starts.clear();
            for pr in older_periods(cold, store, hot_floor) {
                for (k, brs) in &pr.report.heavy {
                    if k.as_slice() == packed.as_slice() {
                        starts.extend(brs.iter().map(|r| r.w0));
                    }
                }
            }
            for &(p, i) in heavy_refs {
                if let Some((_, brs, _)) = hidx.heavy_entry(store, p, i) {
                    starts.extend(brs.iter().map(|r| r.w0));
                }
            }
            if !self.light_with_subtraction_into(
                cold, store, hot_floor, hidx, &key, &packed, light_best, light_cand, heavy_sub,
                recon,
            ) {
                return Some(heavy);
            }
            light_at.clear();
            for &w in starts.iter() {
                light_at.push(light_best.at(w));
            }
            light_best.overlay(heavy);
            for (&w, &lv) in starts.iter().zip(light_at.iter()) {
                // A heavy epoch can start before the light series when the
                // covering light period was lost in collection — extend the
                // series instead of underflowing the index.
                light_best.extend_to_cover(w);
                let idx = (w - light_best.start_window) as usize;
                light_best.values[idx] = light_best.values[idx].max(lv);
            }
            return Some(light_best);
        }

        self.light_with_subtraction_into(
            cold, store, hot_floor, hidx, &key, &packed, light_best, light_cand, heavy_sub, recon,
        )
        .then_some(light_best)
    }

    /// [`Self::flow_curve`] plus the period coverage the curve was built
    /// under, so downstream analyses (event clustering, gap detection) can
    /// distinguish "the flow sent nothing" from "the reports never arrived".
    pub fn flow_curve_with_coverage(&self, host: usize, flow_id: u64) -> Option<AnnotatedCurve> {
        let series = self.flow_curve(host, flow_id)?;
        Some(AnnotatedCurve {
            series,
            coverage: self.host_coverage(host),
        })
    }

    /// Light-part reconstruction with heavy-flow subtraction, min-total over
    /// rows (the Count-Min query lifted to curves). On `true` the winning
    /// row's series is in `light_best`. Each row visits the cold tier
    /// (archive read-back), then the compacted tier (raw store scan,
    /// on-demand reconstruction), then the hot refs; all three use bit-identical
    /// accumulation, so neither compaction nor eviction-to-archive ever
    /// moves a row's total or the min-row choice.
    #[allow(clippy::too_many_arguments)] // split borrows of one scratch
    fn light_with_subtraction_into(
        &self,
        cold: &[Rc<PeriodReport>],
        store: &BTreeMap<u64, PeriodReport>,
        hot_floor: u64,
        hidx: &HostIndex,
        key: &FlowKey,
        packed: &[u8; 13],
        light_best: &mut WindowSeries,
        light_cand: &mut WindowSeries,
        heavy_sub: &mut WindowSeries,
        recon: &mut ReconstructScratch,
    ) -> bool {
        let cfg = &self.sketch_config;
        let mut has_best = false;
        for row in 0..cfg.rows {
            let col = cfg.light_col(key, row) as u32;
            let light_refs = hidx
                .light
                .get(&(row as u32, col))
                .map_or(&[][..], Vec::as_slice);
            if !series_from_epochs(
                |f| {
                    for pr in older_periods(cold, store, hot_floor) {
                        for (r0, c0, brs) in &pr.report.light {
                            if *r0 == row as u32 && *c0 == col {
                                for r in brs {
                                    f(Epoch::Raw(r));
                                }
                            }
                        }
                    }
                    visit_refs(light_refs, |p, i| hidx.light_curves(store, p, i), f);
                },
                light_cand,
                recon,
                self.index.epochs_built(),
            ) {
                continue;
            }
            // Heavy flows that share this light bucket inflated it; the
            // index pre-resolved hot-tier columns, so the only per-query
            // work there is skipping the queried flow's own records. In the
            // compacted tier the columns are re-derived from the stored key
            // (stack-only work — the fallback trades speed, not memory).
            let heavy_refs = hidx
                .heavy_by_col
                .get(&(row as u32, col))
                .map_or(&[][..], Vec::as_slice);
            let colliding = series_from_epochs(
                |f| {
                    for pr in older_periods(cold, store, hot_floor) {
                        for (k, brs) in &pr.report.heavy {
                            if k.as_slice() == packed.as_slice() {
                                continue;
                            }
                            if cfg.light_col(&unpack_key(k), row) as u32 == col {
                                for r in brs {
                                    f(Epoch::Raw(r));
                                }
                            }
                        }
                    }
                    visit_refs(
                        heavy_refs,
                        |p, i| {
                            let (k, brs, memos) = hidx.heavy_entry(store, p, i)?;
                            (k != packed.as_slice()).then_some((brs, memos))
                        },
                        f,
                    );
                },
                heavy_sub,
                recon,
                self.index.epochs_built(),
            );
            if colliding {
                light_cand.subtract_clamped(heavy_sub);
            }
            if !has_best || light_cand.total() < light_best.total() {
                std::mem::swap(light_best, light_cand);
                has_best = true;
            }
        }
        has_best
    }

    /// Clusters mirrored packets into detected events: per (switch, VLAN),
    /// packets closer than `gap_ns` belong to the same event.
    pub fn cluster_events(&self, gap_ns: u64) -> Vec<DetectedEvent> {
        let mut events = Vec::new();
        for (&(switch, vlan), positions) in &self.mirror_index {
            let mut cur: Option<DetectedEvent> = None;
            for &j in positions {
                let m = &self.mirrors[j];
                match cur.as_mut() {
                    Some(ev) if m.ts_ns.saturating_sub(ev.end_ns) <= gap_ns => {
                        ev.end_ns = m.ts_ns;
                        ev.flows.insert(m.flow);
                        ev.packets += 1;
                    }
                    _ => {
                        if let Some(done) = cur.take() {
                            events.push(done);
                        }
                        cur = Some(DetectedEvent {
                            switch,
                            vlan,
                            start_ns: m.ts_ns,
                            end_ns: m.ts_ns,
                            flows: BTreeSet::from([m.flow]),
                            packets: 1,
                        });
                    }
                }
            }
            if let Some(done) = cur.take() {
                events.push(done);
            }
        }
        events
    }

    /// Evaluates detection against ground-truth episodes whose max queue
    /// length falls in `[qlen_min, qlen_max)` bytes. An episode counts as
    /// detected if any mirrored packet from the same switch/port lands
    /// within its span extended by `tolerance_ns` on both sides (absorbing
    /// clock offsets and the marking-to-egress delay).
    pub fn match_episodes(
        &self,
        episodes: &[QueueEpisode],
        qlen_min: u32,
        qlen_max: u32,
        tolerance_ns: u64,
    ) -> EventMatchStats {
        let mut considered = 0usize;
        let mut detected = 0usize;
        let mut flows_sum = 0usize;
        for ep in episodes {
            if ep.max_qlen < qlen_min || ep.max_qlen >= qlen_max {
                continue;
            }
            considered += 1;
            let vlan = ep.port as u16 + 1;
            let lo = ep.start_ns.saturating_sub(tolerance_ns);
            let hi = ep.end_ns.saturating_add(tolerance_ns);
            if let Some(positions) = self.mirror_index.get(&(ep.switch, vlan)) {
                // The per-port index is timestamp-sorted: binary-search the
                // episode's span instead of filtering every mirror.
                let from = positions.partition_point(|&j| self.mirrors[j].ts_ns < lo);
                let to = positions.partition_point(|&j| self.mirrors[j].ts_ns <= hi);
                let inside: BTreeSet<u64> = positions[from..to]
                    .iter()
                    .map(|&j| self.mirrors[j].flow)
                    .collect();
                if !inside.is_empty() {
                    detected += 1;
                    flows_sum += inside.len();
                }
            }
        }
        EventMatchStats {
            episodes: considered,
            detected,
            mean_flows_captured: if detected == 0 {
                0.0
            } else {
                flows_sum as f64 / detected as f64
            },
        }
    }

    /// The host's total egress rate curve, reconstructed from its reports
    /// alone: every packet lands in exactly one bucket per light row, so the
    /// sum of one row's bucket reconstructions is the host's aggregate
    /// traffic (heavy flows are counted in the light part too — §4.2's
    /// simultaneous update — so no heavy-part term is needed).
    pub fn host_rate_curve(&self, host: usize) -> Option<WindowSeries> {
        let mut scratch = QueryScratch::new();
        self.host_rate_curve_with(host, &mut scratch).cloned()
    }

    /// [`Self::host_rate_curve`] through a reusable [`QueryScratch`]; see
    /// [`Self::flow_curve_with`] for the borrowing rules.
    pub fn host_rate_curve_with<'a>(
        &self,
        host: usize,
        scratch: &'a mut QueryScratch,
    ) -> Option<&'a WindowSeries> {
        let floors = self.floors.get(&host).copied().unwrap_or_default();
        let hot_floor = floors.hot_floor;
        match &self.cold {
            Some(c) => c.fetch_below(host, floors.evict_floor, &mut scratch.cold),
            None => scratch.cold.clear(),
        }
        let empty_store = BTreeMap::new();
        let empty_hidx = HostIndex::default();
        if !self.reports.contains_key(&host)
            && self.index.host(host).is_none()
            && scratch.cold.is_empty()
        {
            return None;
        }
        let store = self.reports.get(&host).unwrap_or(&empty_store);
        let hidx = self.index.host(host).unwrap_or(&empty_hidx);
        let QueryScratch {
            rate, recon, cold, ..
        } = scratch;
        let cold: &[Rc<PeriodReport>] = cold;
        // Accumulation sums overlapping epochs — exactly what aggregating
        // different buckets over the same timeline needs. Cold periods
        // first (archive read-back, row-0 entries in period order), then
        // compacted periods, then the hot refs.
        series_from_epochs(
            |f| {
                for pr in older_periods(cold, store, hot_floor) {
                    for (row, _, brs) in &pr.report.light {
                        if *row == 0 {
                            for r in brs {
                                f(Epoch::Raw(r));
                            }
                        }
                    }
                }
                visit_refs(&hidx.row0, |p, i| hidx.light_curves(store, p, i), f);
            },
            rate,
            recon,
            self.index.epochs_built(),
        )
        .then_some(rate)
    }

    /// The Figure 10a congestion map: per link (switch, VLAN), the list of
    /// detected event time spans, sorted by event count descending — the
    /// operator's "which links hurt" view.
    pub fn congestion_map(&self, gap_ns: u64) -> CongestionMap {
        let mut per_link: BTreeMap<(usize, u16), Vec<(u64, u64)>> = BTreeMap::new();
        for e in self.cluster_events(gap_ns) {
            per_link
                .entry((e.switch, e.vlan))
                .or_default()
                .push((e.start_ns, e.end_ns));
        }
        let mut out: Vec<_> = per_link.into_iter().collect();
        out.sort_by_key(|(_, spans)| std::cmp::Reverse(spans.len()));
        out
    }

    /// The Figure 10b duration distribution: sorted event durations in ns
    /// with their empirical CDF.
    pub fn duration_cdf(&self, gap_ns: u64) -> Vec<(u64, f64)> {
        let mut durations: Vec<u64> = self
            .cluster_events(gap_ns)
            .iter()
            .map(DetectedEvent::duration_ns)
            .collect();
        durations.sort_unstable();
        let n = durations.len() as f64;
        durations
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, (i + 1) as f64 / n))
            .collect()
    }

    /// Event replay (Figure 10c): the rate curves of the event's flows over
    /// `[event.start − margin, event.end + margin]`, sampled per window.
    /// `host_of_flow` maps a flow to the host that measured it (its source).
    ///
    /// Returns `(window_ids, per-flow curves)` where each curve is
    /// `(flow_id, bytes-per-window values)`.
    pub fn replay_event(
        &self,
        event: &DetectedEvent,
        margin_ns: u64,
        window_shift: u32,
        host_of_flow: impl Fn(u64) -> Option<usize>,
    ) -> (Vec<u64>, Vec<(u64, Vec<f64>)>) {
        let from = event.start_ns.saturating_sub(margin_ns) >> window_shift;
        // Trace-derived timestamps: saturate rather than wrap (release) or
        // panic (debug) when the event sits at the top of the clock range.
        let to = (event.end_ns.saturating_add(margin_ns) >> window_shift).saturating_add(1);
        let windows: Vec<u64> = (from..to).collect();
        let mut curves = Vec::new();
        for &flow in &event.flows {
            let Some(host) = host_of_flow(flow) else {
                continue;
            };
            let Some(series) = self.flow_curve(host, flow) else {
                continue;
            };
            let values: Vec<f64> = windows.iter().map(|&w| series.at(w)).collect();
            curves.push((flow, values));
        }
        (windows, curves)
    }
}

/// The raw (non-indexed) periods of one host in period-ascending order:
/// cold read-backs (all below the eviction floor), then compacted periods
/// below `hot_floor`. Queries visit these before the hot refs, which keeps
/// the float-addition order identical to an all-hot analyzer.
fn older_periods<'a>(
    cold: &'a [Rc<PeriodReport>],
    store: &'a BTreeMap<u64, PeriodReport>,
    hot_floor: u64,
) -> impl Iterator<Item = &'a PeriodReport> {
    cold.iter()
        .map(|rc| &**rc)
        .chain(store.range(..hot_floor).map(|(_, pr)| pr))
}

/// Drops all but the `keep` largest-magnitude detail coefficients from every
/// bucket epoch of `report` (the lossy compaction floor,
/// [`RetentionPolicy::lossy_floor`]). Survivors keep their original order;
/// ties break toward the earlier record, so the trim is deterministic.
/// Returns how many details were dropped. Haar approx coefficients are
/// untouched, so block sums — and the curve's total — survive the trim;
/// what degrades is sub-block detail.
fn trim_details(report: &mut SketchReport, keep: usize) -> u64 {
    fn trim_bucket(br: &mut BucketReport, keep: usize) -> u64 {
        let n = br.details.len();
        if n <= keep {
            return 0;
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(br.details[i].val.unsigned_abs()), i));
        idx.truncate(keep);
        idx.sort_unstable();
        br.details = idx.iter().map(|&i| br.details[i]).collect();
        (n - keep) as u64
    }
    let mut dropped = 0u64;
    for (_, brs) in report.heavy.iter_mut() {
        for br in brs {
            dropped += trim_bucket(br, keep);
        }
    }
    for (_, _, brs) in report.light.iter_mut() {
        for br in brs {
            dropped += trim_bucket(br, keep);
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_agent::{HostAgent, HostAgentConfig};
    use wavesketch::BucketReport;

    fn agent_config() -> HostAgentConfig {
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

    fn mirror(switch: usize, vlan: u16, ts: u64, flow: u64) -> MirroredPacket {
        MirroredPacket {
            switch,
            vlan,
            ts_ns: ts,
            flow,
            psn: 0,
            wire_bytes: 1064,
            orig_bytes: 1000,
        }
    }

    #[test]
    fn flow_curve_roundtrips_through_agent_and_analyzer() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        // Flow 5 sends 1 kB in windows 10, 11 and 20 (ts = window << 13).
        for w in [10u64, 11, 20] {
            agent.observe(5, w << 13, 1000);
        }
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(agent.finish());
        let curve = analyzer.flow_curve(0, 5).expect("flow recorded");
        assert!((curve.at(10) - 1000.0).abs() < 1e-6);
        assert!((curve.at(11) - 1000.0).abs() < 1e-6);
        assert!((curve.at(20) - 1000.0).abs() < 1e-6);
        assert_eq!(curve.at(15), 0.0);
    }

    #[test]
    fn unknown_flow_or_host_is_none() {
        let cfg = agent_config();
        let analyzer = Analyzer::new(cfg.sketch);
        assert!(analyzer.flow_curve(0, 1).is_none());
    }

    #[test]
    fn clustering_splits_on_gaps_and_ports() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![
            mirror(20, 1, 1000, 1),
            mirror(20, 1, 2000, 2),
            mirror(20, 1, 100_000, 1), // > gap → new event
            mirror(20, 2, 1500, 3),    // other port → own event
        ]);
        let events = analyzer.cluster_events(50_000);
        assert_eq!(events.len(), 3);
        let first = events
            .iter()
            .find(|e| e.vlan == 1 && e.start_ns == 1000)
            .unwrap();
        assert_eq!(first.packets, 2);
        assert_eq!(first.flows.len(), 2);
    }

    #[test]
    fn host_rate_curve_sums_all_flows() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        // Three flows in overlapping windows (time-ordered observations).
        agent.observe(1, 10 << 13, 1000);
        agent.observe(2, 10 << 13, 500);
        agent.observe(3, 11 << 13, 700);
        agent.observe(1, 12 << 13, 250);
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(agent.finish());
        let curve = analyzer.host_rate_curve(0).expect("host measured");
        assert!(
            (curve.at(10) - 1500.0).abs() < 1e-6,
            "window 10: {}",
            curve.at(10)
        );
        assert!((curve.at(11) - 700.0).abs() < 1e-6);
        assert!((curve.at(12) - 250.0).abs() < 1e-6);
        assert!((curve.total() - 2450.0).abs() < 1e-6);
        assert!(analyzer.host_rate_curve(5).is_none());
    }

    #[test]
    fn congestion_map_ranks_links_by_event_count() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        // Link (20, 1): two events; link (21, 3): one.
        analyzer.add_mirrors(vec![
            mirror(20, 1, 1_000, 1),
            mirror(20, 1, 200_000, 1),
            mirror(21, 3, 5_000, 2),
        ]);
        let map = analyzer.congestion_map(50_000);
        assert_eq!(map.len(), 2);
        assert_eq!(map[0].0, (20, 1));
        assert_eq!(map[0].1.len(), 2);
        assert_eq!(map[1].0, (21, 3));
    }

    #[test]
    fn duration_cdf_is_monotone_and_complete() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![
            mirror(20, 1, 0, 1),
            mirror(20, 1, 30_000, 1), // 30 μs event
            mirror(20, 2, 0, 2),      // 0-duration event
        ]);
        let cdf = analyzer.duration_cdf(50_000);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].0, 0);
        assert_eq!(cdf[1].0, 30_000);
        assert!((cdf[1].1 - 1.0).abs() < 1e-12);
        assert!(cdf[0].1 <= cdf[1].1);
    }

    #[test]
    fn match_episodes_computes_recall_by_qlen_bin() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![mirror(20, 1, 5_000, 1)]);
        let episodes = vec![
            QueueEpisode {
                switch: 20,
                port: 0,
                start_ns: 4_000,
                end_ns: 6_000,
                max_qlen: 100_000,
            },
            QueueEpisode {
                switch: 20,
                port: 0,
                start_ns: 50_000,
                end_ns: 60_000,
                max_qlen: 120_000,
            },
        ];
        let stats = analyzer.match_episodes(&episodes, 0, u32::MAX, 1_000);
        assert_eq!(stats.episodes, 2);
        assert_eq!(stats.detected, 1);
        assert!((stats.recall() - 0.5).abs() < 1e-12);
        // Binning filters by max queue length.
        let only_big = analyzer.match_episodes(&episodes, 110_000, u32::MAX, 1_000);
        assert_eq!(only_big.episodes, 1);
        assert_eq!(only_big.detected, 0);
    }

    #[test]
    fn tolerance_absorbs_clock_offset() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        // Mirror timestamped 300 ns after the episode end (clock skew).
        analyzer.add_mirrors(vec![mirror(20, 1, 6_300, 1)]);
        let ep = QueueEpisode {
            switch: 20,
            port: 0,
            start_ns: 4_000,
            end_ns: 6_000,
            max_qlen: 50_000,
        };
        let strict = analyzer.match_episodes(&[ep], 0, u32::MAX, 100);
        assert_eq!(strict.detected, 0);
        let tolerant = analyzer.match_episodes(&[ep], 0, u32::MAX, 500);
        assert_eq!(tolerant.detected, 1);
    }

    /// `end_ns + tolerance_ns` must saturate: a wrapped upper bound makes
    /// the mirror range inverted, and slicing it aborts a release build.
    #[test]
    fn unbounded_tolerance_matches_every_episode_on_a_mirrored_port() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![mirror(20, 1, 5_000, 1)]);
        let episode = |port, start_ns| QueueEpisode {
            switch: 20,
            port,
            start_ns,
            end_ns: start_ns + 1_000,
            max_qlen: 50_000,
        };
        let episodes = [episode(0, 1_000_000), episode(0, 9_000_000), episode(3, 0)];
        let stats = analyzer.match_episodes(&episodes, 0, u32::MAX, u64::MAX);
        assert_eq!(stats.episodes, 3);
        assert_eq!(stats.detected, 2, "port 3 has no mirrors");
    }

    #[test]
    fn replay_joins_mirrors_with_rate_curves() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in 0..50u64 {
            agent.observe(5, w << 13, 2000);
        }
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(agent.finish());
        let event = DetectedEvent {
            switch: 20,
            vlan: 1,
            start_ns: 20 << 13,
            end_ns: 25 << 13,
            flows: BTreeSet::from([5u64]),
            packets: 3,
        };
        let (windows, curves) = analyzer.replay_event(&event, 2 << 13, 13, |_| Some(0));
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].0, 5);
        assert_eq!(windows.len(), curves[0].1.len());
        // Every replayed window inside the flow's life shows its rate.
        assert!(curves[0].1.iter().all(|&v| (v - 2000.0).abs() < 1e-6));
        assert_eq!(windows[0], 18);
    }

    /// Evidence from several upload periods of one host merges into a
    /// single continuous curve.
    #[test]
    fn flow_curve_merges_reports_across_periods() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13; // 16 windows per upload period
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(7, 2 << 13, 800); // period 0
        agent.observe(7, 20 << 13, 900); // period 1
        agent.observe(7, 37 << 13, 650); // period 2
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(agent.finish());
        let curve = analyzer.flow_curve(0, 7).expect("flow recorded");
        assert!((curve.at(2) - 800.0).abs() < 1e-6);
        assert!((curve.at(20) - 900.0).abs() < 1e-6);
        assert!((curve.at(37) - 650.0).abs() < 1e-6);
        assert_eq!(curve.at(10), 0.0);
    }

    /// Host evidence (rate curves from two different hosts) joins with
    /// switch evidence (a detected event naming both flows).
    #[test]
    fn replay_event_merges_evidence_from_multiple_hosts() {
        let cfg = agent_config();
        let mut a0 = HostAgent::new(0, cfg.clone());
        let mut a1 = HostAgent::new(1, cfg.clone());
        for w in 10..30u64 {
            a0.observe(5, w << 13, 1000);
            a1.observe(6, w << 13, 3000);
        }
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(a0.finish());
        analyzer.add_reports(a1.finish());
        let event = DetectedEvent {
            switch: 20,
            vlan: 1,
            start_ns: 15 << 13,
            end_ns: 18 << 13,
            flows: BTreeSet::from([5u64, 6]),
            packets: 4,
        };
        let host_of = |f: u64| Some(if f == 5 { 0 } else { 1 });
        let (windows, curves) = analyzer.replay_event(&event, 0, 13, host_of);
        assert_eq!(curves.len(), 2);
        let c5 = curves.iter().find(|(f, _)| *f == 5).unwrap();
        let c6 = curves.iter().find(|(f, _)| *f == 6).unwrap();
        assert!(c5.1.iter().all(|&v| (v - 1000.0).abs() < 1e-6));
        assert!(c6.1.iter().all(|&v| (v - 3000.0).abs() < 1e-6));
        assert_eq!(windows.first().copied(), Some(15));
        // A flow whose measuring host is unknown is skipped, not fabricated.
        let (_, partial) = analyzer.replay_event(&event, 0, 13, |f| (f == 5).then_some(0));
        assert_eq!(partial.len(), 1);
    }

    /// Regression: `end_ns + margin_ns` was unchecked, so an event at the top
    /// of the clock range wrapped to an empty window list in release builds
    /// and panicked in debug ones. The margin saturates instead.
    #[test]
    fn replay_event_near_the_end_of_the_clock_range_keeps_its_windows() {
        let analyzer = Analyzer::new(agent_config().sketch);
        let end_ns = u64::MAX - 5;
        let event = DetectedEvent {
            switch: 20,
            vlan: 1,
            start_ns: end_ns - (3 << 13),
            end_ns,
            flows: BTreeSet::from([5u64]),
            packets: 2,
        };
        let (windows, curves) = analyzer.replay_event(&event, 1 << 13, 13, |_| None);
        assert!(curves.is_empty());
        let first = (event.start_ns >> 13) - 1;
        let last = u64::MAX >> 13;
        assert_eq!(windows, (first..=last).collect::<Vec<u64>>());
        assert!(windows.contains(&(event.start_ns >> 13)) && windows.contains(&(end_ns >> 13)));
    }

    /// Several mirrors inside one ground-truth episode count it as detected
    /// exactly once, with distinct flows (not packets) as the capture count.
    #[test]
    fn overlapping_mirrors_count_an_episode_once_with_distinct_flows() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![
            mirror(20, 1, 4_500, 1),
            mirror(20, 1, 5_000, 1),
            mirror(20, 1, 5_500, 2),
        ]);
        let ep = QueueEpisode {
            switch: 20,
            port: 0,
            start_ns: 4_000,
            end_ns: 6_000,
            max_qlen: 90_000,
        };
        let stats = analyzer.match_episodes(&[ep], 0, u32::MAX, 0);
        assert_eq!(stats.episodes, 1);
        assert_eq!(stats.detected, 1);
        assert!((stats.mean_flows_captured - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_sketch_configs_are_quarantined_not_panicked() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(1, 0, 100);
        let reports = agent.finish();
        // An analyzer built with a different width must refuse the report —
        // but by quarantining it, not by tearing down the whole batch.
        let other = SketchConfig::builder()
            .rows(2)
            .width(64) // differs from the agent's 32
            .levels(4)
            .topk(64)
            .max_windows(4096)
            .heavy_rows(16)
            .build();
        let mut analyzer = Analyzer::new(other);
        let stats = analyzer.add_reports(reports);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.mismatched, 1);
        assert_eq!(analyzer.quarantined().len(), 1);
        assert!(
            analyzer.flow_curve(0, 1).is_none(),
            "nothing reconstructable"
        );
    }

    /// Satellite regression: one corrupt report must not poison the rest of
    /// its batch.
    #[test]
    fn one_corrupt_report_does_not_poison_a_batch() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(5, 10 << 13, 1000);
        let mut reports = agent.finish();
        // Inject a report from a foreign config into the same batch.
        let mut corrupt = reports[0].clone();
        corrupt.config_fingerprint ^= 0xDEAD_BEEF;
        corrupt.period += 1;
        reports.push(corrupt);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(reports);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.mismatched, 1);
        assert_eq!(analyzer.ingest_stats(), stats);
        // The healthy report still reconstructs.
        let curve = analyzer.flow_curve(0, 5).expect("good report survives");
        assert!((curve.at(10) - 1000.0).abs() < 1e-6);
    }

    /// The fingerprint `HostAgentConfig::default()` stamped while placement
    /// hashed every flow to a lane first (8 of them by default; the
    /// fingerprint covered the lane count), computed at that code. Every `reports.json` and archive
    /// written then carries it.
    const LANE_ERA_DEFAULT_FINGERPRINT: u64 = 0xe956_0ca5_9774_5497;

    /// A lane-era report puts flows in other buckets than the Count-Min
    /// layout does; reconstructed under it, it would hand one flow another's
    /// traffic. Live ingest and archive recovery both quarantine it.
    #[test]
    fn lane_era_reports_are_refused_live_and_from_the_archive() {
        let cfg = HostAgentConfig::default();
        assert_ne!(cfg.sketch.fingerprint(), LANE_ERA_DEFAULT_FINGERPRINT);
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(5, 10 << 13, 1000);
        let mut old = agent.finish().remove(0);
        old.config_fingerprint = LANE_ERA_DEFAULT_FINGERPRINT;

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(vec![old.clone()]);
        assert_eq!((stats.accepted, stats.mismatched), (0, 1));
        assert_eq!(analyzer.quarantined().len(), 1);
        assert!(analyzer.flow_curve(0, 5).is_none());
        assert!(analyzer.host_rate_curve(0).is_none());

        let dir = std::env::temp_dir().join(format!("umon_lane_era_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (PeriodArchive::open(&dir).and_then(|mut a| a.append(&old))).expect("archive old report");
        let mut revived = Analyzer::with_archive(cfg.sketch, RetentionPolicy::default(), &dir)
            .expect("open archive");
        let rec = revived.recover_from_archive().expect("scan archive");
        assert_eq!((rec.recovered, rec.mismatched), (0, 1));
        assert!(revived.flow_curve(0, 5).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A healthy report for period 0 and a copy for period 1 that `damage`
    /// reshapes under its valid fingerprint; the copy must be quarantined
    /// before the store, the index or the inverse transform see it, and the
    /// healthy one must stay queryable. Unchecked, each of these shapes ends
    /// in an abort (release is `panic = "abort"`) or a curve sized by the
    /// report's own word.
    fn assert_hostile_shape_is_quarantined(damage: impl Fn(&mut SketchReport)) {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in [10u64, 11, 14] {
            agent.observe(5, w << 13, 1000);
        }
        let healthy = agent.finish().remove(0);
        assert!(!healthy.report.light.is_empty());
        let mut hostile = healthy.clone();
        hostile.period += 1;
        damage(&mut hostile.report);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(vec![hostile, healthy]);
        assert_eq!((stats.accepted, stats.mismatched), (1, 1));
        assert_eq!(analyzer.quarantined().back().map(|r| r.period), Some(1));
        assert!(analyzer.residency().cached_bytes < 1 << 20);
        assert_eq!(analyzer.host_coverage(0).periods, BTreeSet::from([0]));
        let curve = analyzer.flow_curve(0, 5).expect("healthy report survives");
        assert!((curve.at(14) - 1000.0).abs() < 1e-6);
        assert!(analyzer.host_rate_curve(0).is_some());
    }

    #[test]
    fn short_heavy_key_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.heavy.push((vec![1, 2, 3], vec![])));
    }

    #[test]
    fn oversized_epoch_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.light[0].2[0].padded_len = 1 << 24);
    }

    #[test]
    fn epoch_past_the_window_space_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.light[0].2[0].w0 = u64::MAX - 3);
    }

    #[test]
    fn light_tag_outside_the_array_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.light[0].0 = 2); // rows = 2
        assert_hostile_shape_is_quarantined(|r| r.light[0].1 = 32); // width = 32
    }

    /// The shape check must not reject what drains legitimately produce at
    /// its edges: an epoch of exactly `max_windows`, an empty one, an epoch
    /// ending on the last window.
    #[test]
    fn edge_shapes_a_drain_can_produce_are_accepted() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(5, 10 << 13, 1000);
        let mut r = agent.finish().remove(0);
        let epoch = r.report.light[0].2[0].clone();
        r.report.light[0].2 = vec![
            BucketReport {
                padded_len: cfg.sketch.max_windows,
                ..epoch.clone()
            },
            BucketReport {
                w0: 1 << 40,
                padded_len: 0,
                approx: vec![],
                details: vec![],
                ..epoch.clone()
            },
            BucketReport {
                w0: u64::MAX - epoch.padded_len as u64,
                ..epoch
            },
        ];
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(vec![r]);
        assert_eq!((stats.accepted, stats.mismatched), (1, 0));
    }

    /// Satellite regression: duplicated and reordered period reports must
    /// not double-count or mis-merge. The analyzer output over a shuffled,
    /// duplicated report vector must be bit-identical to the clean run.
    #[test]
    fn duplicated_and_shuffled_reports_do_not_double_count() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13; // 16 windows per upload period
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in [2u64, 20, 37, 52, 70] {
            agent.observe(7, w << 13, 500 + w as u32);
        }
        let reports = agent.finish();
        assert!(reports.len() >= 4, "want several periods");

        let mut clean = Analyzer::new(cfg.sketch.clone());
        clean.add_reports(reports.clone());
        let want = clean.flow_curve(0, 7).expect("measured");
        let want_host = clean.host_rate_curve(0).expect("measured");

        // Reverse order + duplicate every report, split across two batches.
        let mut mangled: Vec<PeriodReport> = reports.iter().rev().cloned().collect();
        mangled.extend(reports.iter().cloned());
        let mut dirty = Analyzer::new(cfg.sketch.clone());
        let n = mangled.len() / 2;
        let tail = mangled.split_off(n);
        let s1 = dirty.add_reports(mangled);
        let s2 = dirty.add_reports(tail);
        assert_eq!(s1.accepted + s2.accepted, reports.len() as u64);
        assert_eq!(
            s1.duplicates + s2.duplicates,
            reports.len() as u64,
            "every redelivery must be dropped"
        );
        assert_eq!(dirty.flow_curve(0, 7).unwrap(), want);
        assert_eq!(dirty.host_rate_curve(0).unwrap(), want_host);
    }

    /// Satellite regression: a heavy epoch anchored before the light series
    /// start (its covering light period was lost in collection) must extend
    /// the curve instead of underflowing `w - start_window`.
    #[test]
    fn heavy_epoch_before_light_series_start_does_not_underflow() {
        let cfg = agent_config();
        let key = FlowKey::from_id(9);
        let fp = cfg.sketch.fingerprint();

        // Period 1 light evidence only (period 0's upload "was lost")…
        let mut light_bucket =
            wavesketch::BucketArena::new(2, 8, 64, wavesketch::SelectorKind::Ideal, 1);
        light_bucket.update(0, 100, 640);
        let light_reports = light_bucket.drain_bucket(0);
        let row0_col = cfg.sketch.light_col(&key, 0) as u32;
        let row1_col = cfg.sketch.light_col(&key, 1) as u32;
        let light = PeriodReport {
            period: 1,
            host: 0,
            config_fingerprint: fp,
            report: wavesketch::SketchReport {
                heavy: vec![],
                light: vec![
                    (0, row0_col, light_reports.clone()),
                    (1, row1_col, light_reports),
                ],
            },
        };
        // …while a degenerate heavy record from the lost period anchors at
        // w0 = 50, before the light series start.
        let heavy = PeriodReport {
            period: 0,
            host: 0,
            config_fingerprint: fp,
            report: wavesketch::SketchReport {
                heavy: vec![(
                    key.pack().to_vec(),
                    vec![BucketReport {
                        w0: 50,
                        levels: 0,
                        padded_len: 0,
                        approx: vec![],
                        details: vec![],
                    }],
                )],
                light: vec![],
            },
        };

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(vec![light, heavy]);
        let curve = analyzer.flow_curve(0, 9).expect("light evidence exists");
        assert!((curve.at(100) - 640.0).abs() < 1e-6);
        assert_eq!(curve.at(50), 0.0, "lost-period window reads as no data");
        // Coverage tells the caller period 0's report is absent.
        let annotated = analyzer.flow_curve_with_coverage(0, 9).unwrap();
        assert!(annotated.coverage.covers(0));
        assert!(annotated.coverage.covers(1));
    }

    /// Reference implementation of the pre-index query paths: linear rescans
    /// of every stored period, exactly as `flow_curve` worked before the
    /// ingest-time [`QueryIndex`]. The indexed paths must stay bit-identical
    /// to this under any ingest order.
    mod rescan_reference {
        use super::*;
        use crate::query_index::unpack_key;
        use wavesketch::BucketReport;

        pub fn flow_curve(a: &Analyzer, host: usize, flow_id: u64) -> Option<WindowSeries> {
            let reports = a.reports.get(&host)?;
            let key = FlowKey::from_id(flow_id);
            let packed = key.pack().to_vec();
            let mut heavy_reports: Vec<BucketReport> = Vec::new();
            for pr in reports.values() {
                for (k, brs) in &pr.report.heavy {
                    if *k == packed {
                        heavy_reports.extend(brs.iter().cloned());
                    }
                }
            }
            if !heavy_reports.is_empty() {
                let heavy = WindowSeries::from_reports(&heavy_reports);
                let light = light_with_subtraction(a, reports, &key, &packed);
                return match (light, heavy) {
                    (Some(mut l), Some(h)) => {
                        let starts: Vec<u64> = heavy_reports.iter().map(|r| r.w0).collect();
                        let light_at: Vec<f64> = starts.iter().map(|&w| l.at(w)).collect();
                        l.overlay(&h);
                        for (&w, &lv) in starts.iter().zip(&light_at) {
                            l.extend_to_cover(w);
                            let idx = (w - l.start_window) as usize;
                            l.values[idx] = l.values[idx].max(lv);
                        }
                        Some(l)
                    }
                    (l, h) => h.or(l),
                };
            }
            light_with_subtraction(a, reports, &key, &packed)
        }

        fn light_with_subtraction(
            a: &Analyzer,
            reports: &BTreeMap<u64, PeriodReport>,
            key: &FlowKey,
            packed: &[u8],
        ) -> Option<WindowSeries> {
            let cfg = &a.sketch_config;
            let mut best: Option<WindowSeries> = None;
            for row in 0..cfg.rows {
                let col = cfg.light_col(key, row) as u32;
                let mut bucket_reports: Vec<BucketReport> = Vec::new();
                let mut heavy_in_bucket: Vec<BucketReport> = Vec::new();
                for pr in reports.values() {
                    for (r, c, brs) in &pr.report.light {
                        if *r == row as u32 && *c == col {
                            bucket_reports.extend(brs.iter().cloned());
                        }
                    }
                    for (k, brs) in &pr.report.heavy {
                        if *k == packed {
                            continue;
                        }
                        let ocol = cfg.light_col(&unpack_key(k), row) as u32;
                        if ocol == col {
                            heavy_in_bucket.extend(brs.iter().cloned());
                        }
                    }
                }
                let Some(mut series) = WindowSeries::from_reports(&bucket_reports) else {
                    continue;
                };
                if let Some(hseries) = WindowSeries::from_reports(&heavy_in_bucket) {
                    series.subtract_clamped(&hseries);
                }
                let replace = match &best {
                    None => true,
                    Some(b) => series.total() < b.total(),
                };
                if replace {
                    best = Some(series);
                }
            }
            best
        }

        pub fn host_rate_curve(a: &Analyzer, host: usize) -> Option<WindowSeries> {
            let reports = a.reports.get(&host)?;
            let mut all: Vec<BucketReport> = Vec::new();
            for pr in reports.values() {
                for (row, _, brs) in &pr.report.light {
                    if *row == 0 {
                        all.extend(brs.iter().cloned());
                    }
                }
            }
            WindowSeries::from_reports(&all)
        }

        pub fn cluster_events(a: &Analyzer, gap_ns: u64) -> Vec<DetectedEvent> {
            let mut by_port: BTreeMap<(usize, u16), Vec<&MirroredPacket>> = BTreeMap::new();
            for m in &a.mirrors {
                by_port.entry((m.switch, m.vlan)).or_default().push(m);
            }
            let mut events = Vec::new();
            for ((switch, vlan), mut packets) in by_port {
                packets.sort_by_key(|m| m.ts_ns);
                let mut cur: Option<DetectedEvent> = None;
                for m in packets {
                    match cur.as_mut() {
                        Some(ev) if m.ts_ns.saturating_sub(ev.end_ns) <= gap_ns => {
                            ev.end_ns = m.ts_ns;
                            ev.flows.insert(m.flow);
                            ev.packets += 1;
                        }
                        _ => {
                            if let Some(done) = cur.take() {
                                events.push(done);
                            }
                            cur = Some(DetectedEvent {
                                switch,
                                vlan,
                                start_ns: m.ts_ns,
                                end_ns: m.ts_ns,
                                flows: BTreeSet::from([m.flow]),
                                packets: 1,
                            });
                        }
                    }
                }
                if let Some(done) = cur.take() {
                    events.push(done);
                }
            }
            events
        }
    }

    /// A deterministic multi-period, heavy-contested workload for the
    /// equivalence tests (xorshift, no rng crate needed in-tree here).
    fn contested_reports(hosts: usize, windows: u64) -> (HostAgentConfig, Vec<PeriodReport>) {
        let cfg = HostAgentConfig {
            sketch: SketchConfig::builder()
                .rows(3)
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

    /// Tentpole equivalence: the indexed query engine is bit-identical to a
    /// linear rescan of the stores, including under out-of-order delivery,
    /// redelivered duplicates and interleaved ingest/query (the index must
    /// be coherent after every batch, not just at the end).
    #[test]
    fn indexed_queries_match_rescan_reference_under_hostile_ingest() {
        let (cfg, reports) = contested_reports(3, 150);
        assert!(
            reports.iter().any(|r| !r.report.heavy.is_empty()),
            "workload must contest the heavy part"
        );
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let mut scratch = QueryScratch::new();
        // Deliver reversed, in two batches, then redeliver everything; query
        // and compare after every step.
        let reversed: Vec<PeriodReport> = reports.iter().rev().cloned().collect();
        let mid = reversed.len() / 2;
        let batches = [
            reversed[..mid].to_vec(),
            reversed[mid..].to_vec(),
            reports.clone(),
        ];
        for batch in batches {
            analyzer.add_reports(batch);
            for host in 0..3 {
                for flow in 0..24u64 {
                    let want = rescan_reference::flow_curve(&analyzer, host, flow);
                    let got = analyzer.flow_curve_with(host, flow, &mut scratch).cloned();
                    assert_eq!(got, want, "host {host} flow {flow}");
                }
                assert_eq!(
                    analyzer.host_rate_curve_with(host, &mut scratch).cloned(),
                    rescan_reference::host_rate_curve(&analyzer, host),
                    "host {host} rate"
                );
            }
        }
        assert_eq!(analyzer.ingest_stats().duplicates, reports.len() as u64);
    }

    /// Filled memo cells per indexed `(host, period)`.
    fn memoised(a: &Analyzer, hosts: usize) -> BTreeMap<(usize, u64), usize> {
        let mut out = BTreeMap::new();
        for h in 0..hosts {
            for (&p, c) in a.index.host(h).map(|x| &x.curves).into_iter().flatten() {
                let filled = (c.light.iter().chain(&c.heavy))
                    .flat_map(|memos| memos.iter())
                    .filter(|m| m.get().is_some())
                    .count();
                out.insert((h, p), filled);
            }
        }
        out
    }

    fn assert_bits_eq(got: Option<&WindowSeries>, want: Option<&WindowSeries>, what: &str) {
        let bits = |s: Option<&WindowSeries>| {
            s.map(|s| {
                let v: Vec<u64> = s.values.iter().map(|x| x.to_bits()).collect();
                (s.start_window, v)
            })
        };
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// Ingest indexes epochs without reconstructing any; a query fills the
    /// memos of exactly the epochs it reads, once, and answers bit-equal
    /// to the rescan reference.
    #[test]
    fn ingest_builds_no_curve_until_a_query_reads_it() {
        let (cfg, reports) = contested_reports(2, 150);
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(reports.clone());
        let all_epochs: usize = (reports.iter())
            .map(|r| {
                let light = r.report.light.iter().map(|(_, _, brs)| brs.len());
                light
                    .chain(r.report.heavy.iter().map(|(_, brs)| brs.len()))
                    .sum::<usize>()
            })
            .sum();
        let s = analyzer.retention_stats();
        assert_eq!(s.curve_epochs_indexed, all_epochs as u64);
        assert_eq!(s.curve_epochs_built, 0, "ingest must not reconstruct");

        // The epochs one flow query reads: its own heavy records, and per
        // row the light bucket plus every other heavy key colliding there.
        let (host, flow) = (0, 1u64);
        let key = FlowKey::from_id(flow);
        let packed = key.pack().to_vec();
        let cols: Vec<u32> = (0..cfg.sketch.rows)
            .map(|row| cfg.sketch.light_col(&key, row) as u32)
            .collect();
        let mut visited = 0usize;
        for r in reports.iter().filter(|r| r.host == host) {
            for (row, col, brs) in &r.report.light {
                if cols[*row as usize] == *col {
                    visited += brs.len();
                }
            }
            for (k, brs) in &r.report.heavy {
                let kc = unpack_key(k);
                let collides = (0..cfg.sketch.rows)
                    .any(|row| cfg.sketch.light_col(&kc, row) as u32 == cols[row]);
                if *k == packed || collides {
                    visited += brs.len();
                }
            }
        }

        let mut scratch = QueryScratch::new();
        let got = analyzer.flow_curve_with(host, flow, &mut scratch).cloned();
        let built = analyzer.retention_stats().curve_epochs_built;
        assert!(built > 0, "the query must read hot epochs");
        assert!(
            built as usize <= visited,
            "built {built} > visited {visited}"
        );
        let again = analyzer.flow_curve_with(host, flow, &mut scratch).cloned();
        assert_eq!(analyzer.retention_stats().curve_epochs_built, built);
        let want = rescan_reference::flow_curve(&analyzer, host, flow);
        assert_bits_eq(got.as_ref(), want.as_ref(), "first read");
        assert_bits_eq(again.as_ref(), want.as_ref(), "memoised read");
    }

    /// Compaction and eviction drop a period's filled memos with it, leave
    /// every other period's alone, and a compacted period whose curves were
    /// memoised still answers bit-equal to an unbounded analyzer.
    #[test]
    fn compaction_and_eviction_release_memoised_curves() {
        let (cfg, reports) = contested_reports(2, 200);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());
        let mut by_period: BTreeMap<u64, Vec<PeriodReport>> = BTreeMap::new();
        for r in &reports {
            by_period.entry(r.period).or_default().push(r.clone());
        }
        assert!(by_period.len() >= 4, "workload must outlast the horizons");
        for policy in [
            RetentionPolicy::bounded(2, u64::MAX),
            RetentionPolicy::bounded(1, 2),
        ] {
            let mut a = Analyzer::with_retention(cfg.sketch.clone(), policy);
            let mut scratch = QueryScratch::new();
            let mut before = BTreeMap::new();
            for batch in by_period.values() {
                a.add_reports(batch.clone());
                // Periods that left the index took their memos along; the
                // survivors kept theirs, and the new period has none filled.
                let after = memoised(&a, 2);
                for (k, &filled) in &after {
                    assert_eq!(filled, before.get(k).copied().unwrap_or(0), "{k:?}");
                }
                for host in 0..2 {
                    for flow in 0..24u64 {
                        a.flow_curve_with(host, flow, &mut scratch);
                    }
                    a.host_rate_curve_with(host, &mut scratch);
                }
                before = memoised(&a, 2);
                assert!(before.values().sum::<usize>() > 0);
            }
            let s = a.retention_stats();
            assert!(s.compacted_periods > 0);
            if policy.resident_periods != u64::MAX {
                assert!(s.evicted_periods > 0);
                continue;
            }
            // Every period but the newest two was memoised while hot and is
            // now read through the compacted tier.
            for host in 0..2 {
                for flow in 0..24u64 {
                    let got = a.flow_curve_with(host, flow, &mut scratch).cloned();
                    let want = unbounded.flow_curve(host, flow);
                    assert_bits_eq(got.as_ref(), want.as_ref(), "compacted flow");
                }
                let got = a.host_rate_curve_with(host, &mut scratch).cloned();
                let want = unbounded.host_rate_curve(host);
                assert_bits_eq(got.as_ref(), want.as_ref(), "compacted rate");
            }
        }
    }

    /// Quarantined (config-mismatched) reports must leave the index — not
    /// just the store — untouched.
    #[test]
    fn quarantined_reports_do_not_enter_the_index() {
        let (cfg, reports) = contested_reports(1, 100);
        let mut clean = Analyzer::new(cfg.sketch.clone());
        clean.add_reports(reports.clone());

        let mut poisoned = Analyzer::new(cfg.sketch.clone());
        let mut mangled = reports.clone();
        for (i, r) in reports.iter().enumerate() {
            let mut bad = r.clone();
            bad.config_fingerprint ^= 0xBAD;
            bad.period += 1000 + i as u64; // would land in fresh periods
            mangled.push(bad);
        }
        let stats = poisoned.add_reports(mangled);
        assert_eq!(stats.mismatched, reports.len() as u64);
        for flow in 0..24u64 {
            assert_eq!(
                poisoned.flow_curve(0, flow),
                clean.flow_curve(0, flow),
                "flow {flow}"
            );
        }
        assert_eq!(poisoned.host_rate_curve(0), clean.host_rate_curve(0));
    }

    /// Satellite equivalence: the sorted per-port mirror index reproduces
    /// the rebuild-every-time clustering exactly, including with interleaved
    /// add/query sequences, shuffled timestamps and redelivered batches.
    #[test]
    fn mirror_index_matches_rebuild_reference_interleaved() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        let mut x = 0xDEAD_BEEFu64;
        for step in 0..6 {
            // A mixed, unsorted slab of mirrors over a few ports.
            let mut slab = Vec::new();
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                slab.push(mirror(
                    20 + (x % 2) as usize,
                    1 + (x >> 3) as u16 % 3,
                    (x >> 8) % 500_000,
                    (x >> 5) % 6,
                ));
            }
            if step % 2 == 0 {
                analyzer.add_mirrors(slab);
            } else {
                let batch = MirrorBatch {
                    switch: 20,
                    seq: step as u64,
                    packets: slab.clone(),
                };
                assert!(analyzer.add_mirror_batch(batch.clone()));
                assert!(!analyzer.add_mirror_batch(batch), "redelivery must drop");
            }
            // Query between every ingest step: the index must be coherent
            // mid-stream, not only after the last add.
            for gap in [1_000u64, 50_000, u64::MAX] {
                assert_eq!(
                    analyzer.cluster_events(gap),
                    rescan_reference::cluster_events(&analyzer, gap),
                    "step {step} gap {gap}"
                );
            }
        }
        // The derived views ride on the same index.
        let map = analyzer.congestion_map(10_000);
        let events = analyzer.cluster_events(10_000);
        let total_spans: usize = map.iter().map(|(_, spans)| spans.len()).sum();
        assert_eq!(total_spans, events.len());
        let cdf = analyzer.duration_cdf(10_000);
        assert_eq!(cdf.len(), events.len());
    }

    /// Satellite regression: the quarantine is a bounded ring that keeps the
    /// most recent [`QUARANTINE_CAP`] mismatched reports in arrival order —
    /// no `Vec::remove(0)` shifting, no unbounded growth.
    #[test]
    fn quarantine_is_a_bounded_ring_in_arrival_order() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(1, 0, 100);
        let template = agent.finish().remove(0);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let n = QUARANTINE_CAP + 16;
        for i in 0..n {
            let mut bad = template.clone();
            bad.config_fingerprint ^= 0xBAD;
            bad.period = i as u64;
            analyzer.add_reports(vec![bad]);
        }
        assert_eq!(analyzer.quarantined().len(), QUARANTINE_CAP);
        let periods: Vec<u64> = analyzer.quarantined().iter().map(|r| r.period).collect();
        let want: Vec<u64> = ((n - QUARANTINE_CAP) as u64..n as u64).collect();
        assert_eq!(periods, want, "ring keeps the newest, oldest first");
        assert_eq!(analyzer.ingest_stats().mismatched, n as u64);
    }

    /// Satellite regression: mirror-batch dedup state is a per-switch
    /// watermark window, bounded no matter how many batches arrive, and
    /// redeliveries — including ancient ones below the watermark — drop.
    #[test]
    fn mirror_batch_dedup_is_bounded_with_a_watermark() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        let n = (MIRROR_BATCH_HORIZON as u64) * 3;
        for seq in 0..n {
            let fresh = analyzer.add_mirror_batch(MirrorBatch {
                switch: 20,
                seq,
                packets: vec![mirror(20, 1, seq * 10, seq % 5)],
            });
            assert!(fresh, "first delivery of seq {seq} must be accepted");
        }
        // Redelivery inside the window and far below the watermark both drop.
        for seq in [n - 1, n - 7, 0, 1] {
            let fresh = analyzer.add_mirror_batch(MirrorBatch {
                switch: 20,
                seq,
                packets: vec![mirror(20, 1, 1, 1)],
            });
            assert!(!fresh, "redelivered seq {seq} must drop");
        }
        assert_eq!(analyzer.mirror_duplicates(), 4);
        assert_eq!(analyzer.mirrors().len(), n as usize);
        let seen = &analyzer.mirror_batches_seen[&20];
        assert!(seen.tail_len() <= MIRROR_BATCH_HORIZON);
    }

    /// A bounded policy keeps curves exactly equal to an unbounded reference
    /// fed only the periods the bounded analyzer retained, while compaction
    /// alone (no eviction) changes nothing at all.
    #[test]
    fn bounded_retention_tracks_the_resident_set_bit_identically() {
        let (cfg, reports) = contested_reports(2, 200);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());

        // Compaction only: identical to unbounded everywhere.
        let mut compacting =
            Analyzer::with_retention(cfg.sketch.clone(), RetentionPolicy::bounded(2, u64::MAX));
        compacting.add_reports(reports.clone());
        assert!(compacting.retention_stats().compacted_periods > 0);
        assert_eq!(compacting.retention_stats().evicted_periods, 0);
        for host in 0..2 {
            for flow in 0..24u64 {
                assert_eq!(
                    compacting.flow_curve(host, flow),
                    unbounded.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
            assert_eq!(
                compacting.host_rate_curve(host),
                unbounded.host_rate_curve(host)
            );
        }

        // Eviction: equals a reference fed exactly the survivors.
        let mut bounded =
            Analyzer::with_retention(cfg.sketch.clone(), RetentionPolicy::bounded(1, 3));
        bounded.add_reports(reports.clone());
        assert!(bounded.retention_stats().evicted_periods > 0);
        let survivors: Vec<PeriodReport> = reports
            .iter()
            .filter(|r| bounded.host_coverage(r.host).covers(r.period))
            .cloned()
            .collect();
        let mut reference = Analyzer::new(cfg.sketch.clone());
        reference.add_reports(survivors);
        for host in 0..2 {
            assert!(bounded.host_coverage(host).periods.len() <= 3);
            for flow in 0..24u64 {
                assert_eq!(
                    bounded.flow_curve(host, flow),
                    reference.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
            assert_eq!(
                bounded.host_rate_curve(host),
                reference.host_rate_curve(host)
            );
        }
    }

    /// A report arriving below the eviction floor is dropped as stale (it is
    /// indistinguishable from a redelivery of an evicted period), while one
    /// landing between the floors is stored compacted on arrival.
    #[test]
    fn late_arrivals_land_in_the_tier_their_age_dictates() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13;
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in 0..(16 * 12u64) {
            agent.observe(3, w << 13, 100);
        }
        let reports = agent.finish();
        assert!(reports.len() >= 12);

        let mut analyzer =
            Analyzer::with_retention(cfg.sketch.clone(), RetentionPolicy::bounded(2, 6));
        // Deliver only the newest report first: floors jump immediately.
        let newest = reports.last().unwrap().clone();
        analyzer.add_reports(vec![newest.clone()]);
        let newest_period = newest.period;

        // Below the eviction floor → stale-dropped, not stored.
        let stale = reports
            .iter()
            .find(|r| r.period + 6 <= newest_period)
            .unwrap()
            .clone();
        let s = analyzer.add_reports(vec![stale.clone()]);
        assert_eq!(s.accepted, 0);
        assert_eq!(s.duplicates, 1);
        assert_eq!(analyzer.retention_stats().stale_dropped, 1);
        assert!(!analyzer.host_coverage(0).covers(stale.period));

        // Between the floors → accepted straight into the compacted tier.
        let compactable = reports
            .iter()
            .find(|r| r.period + 6 > newest_period && r.period + 2 <= newest_period)
            .unwrap()
            .clone();
        let before_hot = analyzer.residency().hot_periods;
        let s = analyzer.add_reports(vec![compactable.clone()]);
        assert_eq!(s.accepted, 1);
        assert_eq!(analyzer.retention_stats().compacted_on_arrival, 1);
        assert!(analyzer.host_coverage(0).covers(compactable.period));
        assert_eq!(
            analyzer.residency().hot_periods,
            before_hot,
            "compacted-on-arrival must not be indexed"
        );
        // And it is queryable through the compacted fallback.
        assert!(analyzer.flow_curve(0, 3).is_some());
    }

    /// Restarting from the archive reconverges to the no-crash state.
    #[test]
    fn archive_recovery_reconverges_after_restart() {
        let (cfg, reports) = contested_reports(2, 150);
        let dir =
            std::env::temp_dir().join(format!("umon_analyzer_recovery_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = RetentionPolicy::bounded(2, 4);

        let half = reports.len() / 2;
        {
            let mut doomed =
                Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
            doomed.add_reports(reports[..half].to_vec());
            // Crash: dropped without a shutdown path.
        }
        let mut revived =
            Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("reopen archive");
        let rec = revived.recover_from_archive().expect("scan archive");
        assert!(rec.recovered > 0);
        assert!(rec.damaged_tails.is_empty());
        revived.add_reports(reports[half..].to_vec());

        let mut steady = Analyzer::with_retention(cfg.sketch.clone(), policy);
        steady.add_reports(reports.clone());
        assert_eq!(revived.residency(), steady.residency());
        for host in 0..2 {
            assert_eq!(
                revived.host_coverage(host).periods,
                steady.host_coverage(host).periods
            );
            for flow in 0..24u64 {
                assert_eq!(
                    revived.flow_curve(host, flow),
                    steady.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tentpole: with an archive the eviction horizon stops being a data
    /// horizon. Every curve over evicted periods is read back from disk and
    /// is bit-identical to an analyzer that never evicted anything.
    #[test]
    fn evicted_periods_stay_queryable_bit_identical_to_unbounded() {
        let (cfg, reports) = contested_reports(2, 250);
        let dir = std::env::temp_dir().join(format!("umon_cold_query_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());

        let mut archived =
            Analyzer::with_archive(cfg.sketch.clone(), RetentionPolicy::bounded(1, 3), &dir)
                .expect("open archive");
        archived.add_reports(reports.clone());
        assert!(archived.retention_stats().evicted_periods > 0);

        for host in 0..2 {
            for flow in 0..24u64 {
                assert_eq!(
                    archived.flow_curve(host, flow),
                    unbounded.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
            assert_eq!(
                archived.host_rate_curve(host),
                unbounded.host_rate_curve(host)
            );
            // Coverage: evicted periods are not resident but stay queryable.
            let cov = archived.host_coverage(host);
            assert!(!cov.archived.is_empty(), "host {host} has cold periods");
            for &p in &cov.archived {
                assert!(!cov.covers(p));
                assert!(cov.queryable(p));
            }
        }
        let s = archived.retention_stats();
        assert!(s.cold_misses > 0, "cold reads actually hit the disk");
        assert_eq!(s.cold_read_errors, 0);
        assert!(s.cold_bytes_read > 0);

        // A second sweep is served from the warm segment cache.
        for host in 0..2 {
            archived.host_rate_curve(host);
        }
        assert!(archived.retention_stats().cold_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache too small for even one record still answers correctly — it
    /// just pays a disk read per cold period, visibly, every time.
    #[test]
    fn one_byte_cold_cache_thrashes_but_stays_correct() {
        let (cfg, reports) = contested_reports(1, 250);
        let dir = std::env::temp_dir().join(format!("umon_cold_thrash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());
        let policy = RetentionPolicy::bounded(1, 2).with_cold_cache_bytes(1);
        let mut thrashing =
            Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
        thrashing.add_reports(reports.clone());
        assert!(thrashing.retention_stats().evicted_periods > 0);

        for _ in 0..3 {
            for flow in 0..24u64 {
                assert_eq!(thrashing.flow_curve(0, flow), unbounded.flow_curve(0, flow));
            }
        }
        let s = thrashing.retention_stats();
        assert_eq!(s.cold_hits, 0, "nothing fits, nothing can hit");
        assert!(s.cold_misses > 0);
        assert_eq!(s.cold_read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite 1: a report arriving below the eviction floor used to be
    /// dropped as stale even when it was the *first* delivery — losing data
    /// forever. With an archive, the cold index tells first deliveries
    /// (archived, queryable) from redeliveries (dropped).
    #[test]
    fn stale_first_delivery_is_archived_not_lost() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13;
        let dir = std::env::temp_dir().join(format!("umon_stale_arch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in 0..(16 * 12u64) {
            agent.observe(3, w << 13, 100);
        }
        let reports = agent.finish();

        let policy = RetentionPolicy::bounded(2, 6);
        let mut analyzer =
            Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
        // Newest first: the floors jump, everything older is now "stale".
        let newest = reports.last().unwrap().clone();
        analyzer.add_reports(vec![newest.clone()]);
        let stale = reports
            .iter()
            .find(|r| r.period + 6 <= newest.period)
            .unwrap()
            .clone();

        // First delivery below the floor: archived and accepted.
        let s = analyzer.add_reports(vec![stale.clone()]);
        assert_eq!(s.accepted, 1, "first delivery is not lost");
        assert_eq!(analyzer.retention_stats().stale_archived, 1);
        assert_eq!(analyzer.retention_stats().stale_dropped, 0);
        let cov = analyzer.host_coverage(0);
        assert!(!cov.covers(stale.period), "not resident");
        assert!(cov.queryable(stale.period), "but queryable from cold");
        let curve = analyzer.flow_curve(0, 3).expect("flow present");
        assert!(curve.at(stale.period * 16) > 0.0, "cold epoch contributes");

        // Redelivery of the same period: now it really is a duplicate.
        let s = analyzer.add_reports(vec![stale]);
        assert_eq!(s.accepted, 0);
        assert_eq!(s.duplicates, 1);
        assert_eq!(analyzer.retention_stats().stale_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery from a torn archive names the lost records, and
    /// `backfill_requests` asks exactly the affected hosts for exactly the
    /// missing span.
    #[test]
    fn torn_tail_is_reported_and_backfill_targets_it() {
        let (cfg, reports) = contested_reports(2, 250);
        let dir = std::env::temp_dir().join(format!("umon_torn_backfill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = RetentionPolicy::bounded(1, 3);
        {
            let mut doomed =
                Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
            doomed.add_reports(reports.clone());
        }
        // Chop host 0's segment mid-record: the newest record is torn.
        let seg = dir.join("host_0.seg");
        let len = std::fs::metadata(&seg).expect("segment exists").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open segment")
            .set_len(len - 5)
            .expect("truncate");

        let mut revived = Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("reopen");
        let rec = revived.recover_from_archive().expect("scan");
        assert_eq!(rec.damaged_tails, vec![0]);
        assert_eq!(rec.torn_tails.len(), 1);
        // The stats carry everything a caller needs to report the tear
        // (the library itself prints nothing).
        let torn = rec.torn_tails[0];
        assert_eq!((torn.host, torn.lost_records), (0, 1));
        assert!(torn.lost_bytes > 0);
        assert_eq!(torn.intact_bytes + torn.lost_bytes, len - 5);
        assert_eq!(
            torn.to_string(),
            format!(
                "archive segment for host 0 lost 1 record(s) ({} bytes) to a torn tail; \
                 backfill needed",
                torn.lost_bytes
            )
        );
        assert_eq!(revived.retention_stats().torn_tail_records, 1);

        let asks = revived.backfill_requests(&rec);
        assert_eq!(asks.len(), 1, "only the torn host is asked");
        assert_eq!(asks[0].host, 0);
        // The ask starts after the newest period the analyzer still holds.
        let newest_held = revived
            .host_coverage(0)
            .periods
            .iter()
            .chain(revived.host_coverage(0).archived.iter())
            .copied()
            .max();
        assert_eq!(asks[0].after_period, newest_held);

        // Re-uploading the lost span through normal ingest heals the gap:
        // the analyzer reconverges to the never-crashed twin bit-identically.
        let after = asks[0].after_period;
        let missing: Vec<PeriodReport> = reports
            .iter()
            .filter(|r| r.host == 0 && after.is_none_or(|p| r.period > p))
            .cloned()
            .collect();
        assert!(!missing.is_empty(), "the tear lost something");
        revived.add_reports(missing);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());
        for flow in 0..24u64 {
            assert_eq!(revived.flow_curve(0, flow), unbounded.flow_curve(0, flow));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The optional lossy floor trims detail coefficients from compacted
    /// resident copies (shrinking memory) while the archive keeps full
    /// fidelity — so cold reads of evicted periods stay exact.
    #[test]
    fn lossy_floor_trims_resident_but_cold_reads_stay_exact() {
        let (cfg, reports) = contested_reports(1, 250);
        let dir = std::env::temp_dir().join(format!("umon_lossy_floor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());

        let exact_policy = RetentionPolicy::bounded(1, 3);
        let lossy_policy = RetentionPolicy::bounded(1, 3).with_lossy_floor(1);
        let exact_dir = dir.join("exact");
        let lossy_dir = dir.join("lossy");
        let mut exact =
            Analyzer::with_archive(cfg.sketch.clone(), exact_policy, &exact_dir).expect("open");
        exact.add_reports(reports.clone());
        let mut lossy =
            Analyzer::with_archive(cfg.sketch.clone(), lossy_policy, &lossy_dir).expect("open");
        lossy.add_reports(reports.clone());

        let stats = lossy.retention_stats();
        assert!(stats.lossy_trimmed_details > 0, "the floor actually trims");
        assert!(
            lossy.residency().resident_report_bytes < exact.residency().resident_report_bytes,
            "trimming shrinks the resident footprint"
        );
        // Evicted periods are served from the (full-fidelity) archive, so
        // curves restricted to the cold span match the unbounded analyzer
        // exactly: totals over every cold period's windows are identical.
        let floor = lossy.host_coverage(0);
        assert!(!floor.archived.is_empty());
        let lossy_curve = lossy.flow_curve(0, 0).expect("flow present");
        let full_curve = unbounded.flow_curve(0, 0).expect("flow present");
        let windows_per_period = 48u64;
        for &p in &floor.archived {
            for w in p * windows_per_period..(p + 1) * windows_per_period {
                assert_eq!(lossy_curve.at(w), full_curve.at(w), "period {p} window {w}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
