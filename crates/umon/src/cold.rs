//! The analyzer's cold tier: evicted periods read back from the archive.
//!
//! Eviction under a [`RetentionPolicy`](crate::RetentionPolicy) drops a
//! period from memory, but with an archive the bytes are still on disk —
//! so a query touching an evicted period should *read it back*, not
//! silently omit it. The [`ColdStore`] keeps a byte-location index of every
//! archived `(host, period)` record (fed by live appends and by the
//! recovery scan) and serves decoded records through a bounded-bytes cache:
//!
//! * **Correctness is unconditional.** A cache smaller than one record
//!   still answers every query correctly — it just re-reads from disk each
//!   time. Decode is exact, and the analyzer accumulates cold epochs in the
//!   same period-ascending order the resident tiers use, so cold answers
//!   are bit-identical to an unbounded analyzer's.
//! * **The contract is latency, not staleness of data.** Archive records
//!   are immutable once written, so a cold read never returns stale
//!   *values*; what the cold tier costs is disk time, surfaced as
//!   `cold_hits` / `cold_misses` / `cold_bytes_read` / `cold_read_ns` in
//!   [`RetentionStats`](crate::RetentionStats). A read that fails (I/O
//!   error, or a record damaged after indexing) is counted in
//!   `cold_read_errors` and that period is omitted from the answer — the
//!   same visible degradation as an eviction without an archive, but now
//!   counted instead of silent.
//! * **A cached record carries its row-0 series.** A host-rate query builds
//!   a cold period's series beside the cached record and charges its bytes
//!   to the same budget; evicting the entry drops both, and the next read of
//!   that period builds the series again.

use crate::archive::{PeriodArchive, SegLoc};
use crate::query_index::StoredPeriod;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// Cold-tier read accounting, merged into
/// [`RetentionStats`](crate::RetentionStats) by the analyzer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColdReadStats {
    /// Reads served from the segment cache.
    pub(crate) hits: u64,
    /// Reads that went to disk.
    pub(crate) misses: u64,
    /// Bytes read from archive segments.
    pub(crate) bytes_read: u64,
    /// Wall-clock nanoseconds spent in disk reads.
    pub(crate) read_ns: u64,
    /// Failed reads (the period was omitted from that query's answer).
    pub(crate) errors: u64,
}

/// One cached decoded record. `Rc` so an in-progress query keeps its
/// epochs alive even if the budget evicts the entry mid-fetch.
struct CacheEntry {
    report: Rc<StoredPeriod>,
    /// Charged bytes: the on-disk record span (stable and already known,
    /// unlike the decoded heap size), plus the row-0 series once a query
    /// builds it.
    bytes: usize,
    last_used: u64,
}

/// The mutable half of the store, behind a `RefCell` because queries run
/// under `&Analyzer`.
#[derive(Default)]
struct ColdCache {
    entries: HashMap<(usize, u64), CacheEntry>,
    bytes: usize,
    clock: u64,
    stats: ColdReadStats,
}

impl ColdCache {
    /// Evicts least-recently-used entries until the budget is respected.
    /// May evict everything (budget below one record): queries stay
    /// correct, every fetch just goes to disk.
    fn enforce(&mut self, budget: usize) {
        while self.bytes > budget && !self.entries.is_empty() {
            let (&key, _) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .expect("non-empty");
            let gone = self.entries.remove(&key).expect("just found");
            self.bytes -= gone.bytes;
        }
    }
}

/// The queryable cold tier over one archive directory.
pub(crate) struct ColdStore {
    dir: PathBuf,
    budget: usize,
    /// Byte location of every archived record: host → period → location.
    index: HashMap<usize, BTreeMap<u64, SegLoc>>,
    cache: RefCell<ColdCache>,
}

impl ColdStore {
    pub(crate) fn new(dir: PathBuf, budget: usize) -> Self {
        Self {
            dir,
            budget,
            index: HashMap::new(),
            cache: RefCell::new(ColdCache::default()),
        }
    }

    /// Records one archived record's location (live append or recovery
    /// scan).
    pub(crate) fn record(&mut self, host: usize, period: u64, loc: SegLoc) {
        self.index.entry(host).or_default().insert(period, loc);
    }

    /// True if `(host, period)` is archived — the test that tells a stale
    /// first delivery from a redelivery of an evicted period.
    pub(crate) fn contains(&self, host: usize, period: u64) -> bool {
        self.index
            .get(&host)
            .is_some_and(|m| m.contains_key(&period))
    }

    /// The newest archived period for `host`, if any.
    pub(crate) fn newest_archived(&self, host: usize) -> Option<u64> {
        self.index
            .get(&host)
            .and_then(|m| m.last_key_value())
            .map(|(&p, _)| p)
    }

    /// Archived periods strictly below `floor` (the non-resident,
    /// cold-only ones) for coverage reporting.
    pub(crate) fn archived_below(&self, host: usize, floor: u64) -> BTreeSet<u64> {
        self.index
            .get(&host)
            .map(|m| m.range(..floor).map(|(&p, _)| p).collect())
            .unwrap_or_default()
    }

    /// A copy of the cumulative read stats.
    pub(crate) fn stats(&self) -> ColdReadStats {
        self.cache.borrow().stats
    }

    /// Fetches every archived period of `host` strictly below `floor` into
    /// `out`, period-ascending — the epochs a query must visit *before*
    /// the resident tiers. Called once per query, before the two-pass
    /// epoch walk, so both passes see identical epochs. Unreadable records
    /// are counted and skipped.
    pub(crate) fn fetch_below(&self, host: usize, floor: u64, out: &mut Vec<Rc<StoredPeriod>>) {
        out.clear();
        let Some(periods) = self.index.get(&host) else {
            return;
        };
        let mut cache = self.cache.borrow_mut();
        for (&period, &loc) in periods.range(..floor) {
            cache.clock += 1;
            let clock = cache.clock;
            if let Some(e) = cache.entries.get_mut(&(host, period)) {
                e.last_used = clock;
                let report = Rc::clone(&e.report);
                cache.stats.hits += 1;
                out.push(report);
                continue;
            }
            let t0 = Instant::now();
            let read = PeriodArchive::read_record_at(&self.dir, host, loc);
            cache.stats.read_ns += t0.elapsed().as_nanos() as u64;
            cache.stats.misses += 1;
            match read {
                Ok(Some(report)) => {
                    cache.stats.bytes_read += u64::from(loc.len);
                    let report = Rc::new(StoredPeriod::new(report));
                    out.push(Rc::clone(&report));
                    cache.entries.insert(
                        (host, period),
                        CacheEntry {
                            report,
                            bytes: loc.len as usize,
                            last_used: clock,
                        },
                    );
                    cache.bytes += loc.len as usize;
                    cache.enforce(self.budget);
                }
                Ok(None) | Err(_) => cache.stats.errors += 1,
            }
        }
    }

    /// Charges the row-0 series a query just built for `sp`, one of
    /// `host`'s fetched periods, to the cache budget, then enforces it.
    /// Nothing is charged when the entry has already left the cache (the
    /// budget evicted it mid-fetch): the series then lives only as long as
    /// the query's own `Rc`.
    pub(crate) fn charge_row0(&self, host: usize, sp: &Rc<StoredPeriod>) {
        let mut cache = self.cache.borrow_mut();
        let bytes = sp.row0_bytes();
        match cache.entries.get_mut(&(host, sp.report.period)) {
            Some(e) if Rc::ptr_eq(&e.report, sp) => e.bytes += bytes,
            _ => return,
        }
        cache.bytes += bytes;
        cache.enforce(self.budget);
    }

    /// Bytes the cache charges against its budget.
    #[cfg(test)]
    pub(crate) fn cached_bytes(&self) -> usize {
        self.cache.borrow().bytes
    }
}
