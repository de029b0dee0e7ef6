//! Bounded-memory retention for the long-running analyzer.
//!
//! The μMon analyzer is meant to run always-on; without a retention policy
//! it keeps every accepted [`PeriodReport`](crate::PeriodReport), every
//! cached reconstruction and every index ref forever and eventually OOMs.
//! [`RetentionPolicy`] makes the memory budget explicit and drives the
//! analyzer's time-tiered storage:
//!
//! * **hot** — the newest [`RetentionPolicy::hot_periods`] periods per host
//!   keep full query-index refs *and* window curves memoised on first
//!   read: after one query per epoch, queries are pure memoised-`f64`
//!   accumulation.
//! * **compacted** — periods aging past the hot horizon stay resident (the
//!   raw [`PeriodReport`](crate::PeriodReport) is kept) but are deindexed:
//!   their memoised curves and per-column collision refs are dropped. Each
//!   query selects the entries it reads from these periods (and from cold
//!   ones) in one pass of its own, and reconstructs them on demand. The two
//!   paths are bit-identical (`WindowSeries::accumulate_report` vs
//!   `accumulate_curve`), so compaction never changes a curve — it trades
//!   query throughput for memory.
//! * **evicted** — periods aging past [`RetentionPolicy::resident_periods`]
//!   leave memory entirely. When the analyzer has an archive
//!   ([`crate::archive::PeriodArchive`]) the data survives on disk — every
//!   accepted report is archived at ingest (write-ahead), so eviction is
//!   just a drop — and a restarted analyzer recovers it. Without an archive
//!   eviction is an explicit data-loss budget, visible in
//!   [`RetentionStats::evicted_periods`].
//!
//! Tier floors only move forward: a host's hot/eviction floors are raised as
//! newer periods arrive and never lowered, so a late-arriving report lands
//! directly in the tier its age dictates. Without an archive, an arrival
//! below the eviction floor is dropped as stale — the store can no longer
//! tell a stale first delivery from a redelivery of an evicted period. With
//! an archive the store *can* tell (the cold index records every archived
//! `(host, period)`), so a first delivery below the floor is archived and
//! immediately queryable from the cold tier, while a true redelivery is
//! still dropped.
//!
//! Since PR 8, evicted periods with an archive are not gone, merely *cold*:
//! queries transparently read evicted segments back from disk through a
//! bounded segment cache ([`RetentionPolicy::cold_cache_bytes`]), so
//! eviction is a latency budget instead of a data-loss budget. The cold
//! read path's cost is surfaced in the `cold_*` fields of
//! [`RetentionStats`].
//!
//! A host-rate query memoises one row-0 series per period it reads, in
//! every tier, beside the period's report: a resident period keeps its
//! series through compaction and loses it on eviction (or when the lossy
//! floor trims the report it was summed from); a cold period's series lives
//! in its cache entry and is charged to [`RetentionPolicy::cold_cache_bytes`]
//! with it. Resident series are counted in
//! [`ResidencySnapshot::row0_series_bytes`], a figure of their own outside
//! [`ResidencySnapshot::cached_bytes`]: [`RetentionPolicy::max_cached_bytes`]
//! compacts hot periods, and compaction keeps a period's series, so
//! charging series there would compact without freeing them.

/// The analyzer's explicit memory budget. The default is fully unbounded —
/// identical behavior to the pre-retention analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Newest periods per host kept fully indexed, their curves memoised on
    /// first read.
    pub hot_periods: u64,
    /// Newest periods per host kept resident at all (hot + compacted);
    /// older periods are evicted from memory.
    pub resident_periods: u64,
    /// Optional global (all hosts) budget for the bytes reserved for hot
    /// curves: every indexed epoch is charged its full curve at ingest, so
    /// this bounds what the memos actually hold from above. When exceeded,
    /// the globally oldest hot period is compacted early, even inside the
    /// hot horizon.
    pub max_cached_bytes: Option<usize>,
    /// Byte budget for the cold tier's in-memory segment cache (archive
    /// records retained across queries as their verified bytes plus an
    /// entry table, each charged exactly what it holds: payload, table and
    /// its row-0 series once a host-rate query builds it). Only consulted
    /// when the analyzer has an archive. A budget smaller than one record
    /// still yields correct answers — every cold query simply re-reads from
    /// disk.
    pub cold_cache_bytes: usize,
    /// Optional first lossy compaction level, off by default. When
    /// `Some(k)`, a period leaving the hot tier keeps only the `k`
    /// largest-magnitude detail coefficients per bucket epoch; smaller
    /// details are dropped from the *resident* copy to shrink the compacted
    /// tier. The write-ahead archive record keeps full fidelity, so the
    /// trade is resident-memory-vs-accuracy, never data loss — but resident
    /// compacted curves are no longer bit-identical to the unbounded
    /// analyzer, so this must stay `None` under the differential contract.
    pub lossy_floor: Option<usize>,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

impl RetentionPolicy {
    /// Default cold segment-cache budget: enough for a handful of period
    /// records without rivaling the resident tiers.
    pub const DEFAULT_COLD_CACHE_BYTES: usize = 4 << 20;

    /// Keep everything forever (the pre-retention behavior).
    pub const UNBOUNDED: RetentionPolicy = RetentionPolicy {
        hot_periods: u64::MAX,
        resident_periods: u64::MAX,
        max_cached_bytes: None,
        cold_cache_bytes: Self::DEFAULT_COLD_CACHE_BYTES,
        lossy_floor: None,
    };

    /// A bounded policy: `hot` fully-indexed periods inside `resident`
    /// in-memory periods per host.
    pub fn bounded(hot: u64, resident: u64) -> Self {
        assert!(hot >= 1, "at least one hot period is required");
        assert!(
            resident >= hot,
            "resident horizon must contain the hot horizon"
        );
        Self {
            hot_periods: hot,
            resident_periods: resident,
            max_cached_bytes: None,
            cold_cache_bytes: Self::DEFAULT_COLD_CACHE_BYTES,
            lossy_floor: None,
        }
    }

    /// Adds a cached-bytes budget to this policy.
    pub fn with_cached_bytes(mut self, bytes: usize) -> Self {
        self.max_cached_bytes = Some(bytes);
        self
    }

    /// Sets the cold segment-cache byte budget.
    pub fn with_cold_cache_bytes(mut self, bytes: usize) -> Self {
        self.cold_cache_bytes = bytes;
        self
    }

    /// Enables the lossy compaction floor: resident compacted periods keep
    /// only the `keep` largest-magnitude detail coefficients per epoch.
    pub fn with_lossy_floor(mut self, keep: usize) -> Self {
        self.lossy_floor = Some(keep);
        self
    }
}

/// One host's tier floors. Monotone: both only ever increase.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TierFloors {
    /// Periods `>= hot_floor` are (or will be, on arrival) fully indexed.
    pub(crate) hot_floor: u64,
    /// Periods `< evict_floor` are no longer resident; arrivals below it
    /// are dropped as stale.
    pub(crate) evict_floor: u64,
}

impl TierFloors {
    /// Raises the floors for a host whose newest stored period is `newest`.
    /// Returns the previous floors (the caller compacts/evicts the periods
    /// between old and new).
    pub(crate) fn raise(&mut self, newest: u64, policy: &RetentionPolicy) -> TierFloors {
        let prev = *self;
        let hot_target = (newest + 1).saturating_sub(policy.hot_periods);
        let evict_target = (newest + 1).saturating_sub(policy.resident_periods);
        self.hot_floor = self.hot_floor.max(hot_target);
        self.evict_floor = self.evict_floor.max(evict_target);
        // The hot floor can never trail the eviction floor (a non-resident
        // period cannot be hot).
        self.hot_floor = self.hot_floor.max(self.evict_floor);
        prev
    }
}

/// Retention accounting, cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionStats {
    /// Periods demoted from hot to compacted (memoised curves dropped).
    pub compacted_periods: u64,
    /// Periods evicted from memory.
    pub evicted_periods: u64,
    /// Accepted reports that arrived already past the hot horizon and were
    /// stored without indexing.
    pub compacted_on_arrival: u64,
    /// Reports dropped because they arrived below the eviction floor and
    /// were either already archived (true redeliveries) or, without an
    /// archive, indistinguishable from redeliveries; also counted as
    /// duplicates in [`crate::analyzer::IngestStats`].
    pub stale_dropped: u64,
    /// First deliveries that arrived below the eviction floor and went
    /// straight to the archive (cold tier) without becoming resident.
    pub stale_archived: u64,
    /// Archive append failures (the report stayed resident; the archive
    /// record is missing).
    pub archive_errors: u64,
    /// Cold-tier reads served from the segment cache.
    pub cold_hits: u64,
    /// Cold-tier reads that went to disk.
    pub cold_misses: u64,
    /// Bytes read back from archive segments by cold queries.
    pub cold_bytes_read: u64,
    /// Wall-clock nanoseconds spent in cold-tier disk reads (the latency
    /// side of the staleness/latency contract).
    pub cold_read_ns: u64,
    /// Cold-tier reads that failed (I/O error or a record that no longer
    /// verifies); the period is omitted from that query's answer.
    pub cold_read_errors: u64,
    /// Archive records lost to torn segment tails, as reported by recovery.
    pub torn_tail_records: u64,
    /// Detail coefficients dropped from resident compacted periods by the
    /// lossy floor ([`RetentionPolicy::lossy_floor`]).
    pub lossy_trimmed_details: u64,
    /// Hot epochs indexed at ingest, each with an empty curve memo.
    pub curve_epochs_indexed: u64,
    /// Hot epoch curves reconstructed by a query (memos filled). Divided
    /// by [`Self::curve_epochs_indexed`] it is the hot tier's read rate.
    /// Host-rate queries fill none; they build [`Self::row0_series_built`].
    pub curve_epochs_built: u64,
    /// Per-period row-0 series built by host-rate queries, in any tier: one
    /// per period the first time a query reads it, and again after the
    /// period is re-read from the archive.
    pub row0_series_built: u64,
}

/// A point-in-time snapshot of what the analyzer holds resident — the
/// quantities the retention soak asserts stay bounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencySnapshot {
    /// Resident periods across all hosts (hot + compacted).
    pub resident_periods: usize,
    /// Resident periods that are fully indexed (hot tier).
    pub hot_periods: usize,
    /// Bytes reserved for hot epoch curves: charged at ingest for every
    /// indexed epoch, an upper bound on what the memos actually hold.
    pub cached_bytes: usize,
    /// Nominal wire bytes of all resident reports (the compacted tier's
    /// dominant cost).
    pub resident_report_bytes: usize,
    /// Heap bytes of the row-0 series host-rate queries have built for
    /// resident (hot and compacted) periods. Not part of `cached_bytes`, so
    /// the cached-bytes budget does not compact against it; it shrinks only
    /// as periods are evicted. Depends on the queries run, so two analyzers
    /// fed the same reports compare equal only after the same queries.
    pub row0_series_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_unbounded() {
        let p = RetentionPolicy::default();
        assert_eq!(p, RetentionPolicy::UNBOUNDED);
        let mut floors = TierFloors::default();
        floors.raise(1_000_000, &p);
        assert_eq!(floors.hot_floor, 0);
        assert_eq!(floors.evict_floor, 0);
    }

    #[test]
    fn floors_follow_the_newest_period_and_never_regress() {
        let p = RetentionPolicy::bounded(2, 5);
        let mut floors = TierFloors::default();
        floors.raise(10, &p);
        assert_eq!(floors.hot_floor, 9);
        assert_eq!(floors.evict_floor, 6);
        // An older "newest" (late report didn't change the max) is a no-op.
        floors.raise(7, &p);
        assert_eq!(floors.hot_floor, 9);
        assert_eq!(floors.evict_floor, 6);
    }

    #[test]
    fn hot_floor_never_trails_evict_floor() {
        let p = RetentionPolicy {
            hot_periods: 10,
            resident_periods: 10,
            ..RetentionPolicy::UNBOUNDED
        };
        let mut floors = TierFloors::default();
        floors.raise(20, &p);
        assert!(floors.hot_floor >= floors.evict_floor);
    }

    #[test]
    #[should_panic(expected = "resident horizon")]
    fn bounded_rejects_inverted_horizons() {
        let _ = RetentionPolicy::bounded(8, 4);
    }
}
