//! The analyzer's cold tier: evicted periods read back from the archive.
//!
//! Eviction under a [`RetentionPolicy`](crate::RetentionPolicy) drops a
//! period from memory, but with an archive the bytes are still on disk —
//! so a query touching an evicted period should *read it back*, not
//! silently omit it. The [`ColdStore`] keeps a byte-location index of every
//! archived `(host, period)` record (fed by live appends and by the
//! recovery scan) and serves records through a bounded-bytes cache. A cached
//! record is a [`ColdPeriod`]: the verified payload bytes as the archive
//! holds them (the collector's verified encoding), plus an entry table one
//! pass over them built. Nothing is decoded at the miss; a query parses
//! only the epochs its selection picks, straight into the reconstruction
//! kernel.
//!
//! * **Correctness is unconditional.** A cache smaller than one record
//!   still answers every query correctly — it just re-reads from disk each
//!   time. The table accepts exactly the records `PeriodReport::decode`
//!   accepts (and the columns refuse a heavy key the analyzer never admits,
//!   one not 13 bytes long), an epoch parsed from the bytes hands the kernel
//!   the decoded report's operands, and the analyzer accumulates cold epochs
//!   in the same period-ascending order the resident tiers use, so cold
//!   answers are bit-identical to an unbounded analyzer's.
//! * **The contract is latency, not staleness of data.** Archive records
//!   are immutable once written, so a cold read never returns stale
//!   *values*; what the cold tier costs is disk time, surfaced as
//!   `cold_hits` / `cold_misses` / `cold_bytes_read` / `cold_read_ns` in
//!   [`RetentionStats`](crate::RetentionStats) (`cold_read_ns` times the
//!   whole miss: read, digest, table and columns). A read that fails (I/O
//!   error, or a record damaged after indexing) is counted in
//!   `cold_read_errors` and that period is omitted from the answer — the
//!   same visible degradation as an eviction without an archive, but now
//!   counted instead of silent.
//! * **The cache charges what it holds.** An entry costs its payload, its
//!   table, its heavy keys' light columns (placed once at the miss, so a
//!   flow query over a cached record compares columns and hashes nothing)
//!   and, once a host-rate query builds it beside the record, its row-0
//!   series; evicting the entry drops all four, and the next read of that
//!   period places the keys and builds the series again.

use crate::archive::{PeriodArchive, SegLoc};
use crate::host_agent::PeriodReport;
use crate::query_index::{HeavyCols, Row0};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;
use wavesketch::basic::WindowSeries;
use wavesketch::reconstruct::ReconstructScratch;
use wavesketch::report::{EncodedEpoch, ReportTable};
use wavesketch::SketchConfig;

/// One cold period as the cache holds it: the record's verified payload
/// ([`PeriodReport::encode`]'s bytes), the entry table over its sketch part,
/// its heavy keys' light columns and, once built, its row-0 series.
#[derive(Debug)]
pub(crate) struct ColdPeriod {
    pub(crate) period: u64,
    payload: Box<[u8]>,
    table: ReportTable,
    pub(crate) cols: HeavyCols,
    row0: Row0,
}

impl ColdPeriod {
    /// Builds the entry table over `payload` and places its heavy keys under
    /// `cfg`: `None` exactly when `PeriodReport::decode` refuses the bytes or
    /// a heavy key is not 13 bytes (a shape the analyzer never admits).
    pub(crate) fn new(payload: Box<[u8]>, cfg: &SketchConfig) -> Option<Self> {
        let head = payload.get(..PeriodReport::ENCODED_HEADER)?;
        let period = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
        let sketch = &payload[PeriodReport::ENCODED_HEADER..];
        let table = ReportTable::build(sketch)?;
        let keys = (0..table.heavy_len()).map(|i| table.heavy_key(sketch, i));
        let cols = HeavyCols::place(keys, cfg)?;
        Some(Self {
            period,
            payload,
            table,
            cols,
            row0: Row0::default(),
        })
    }

    /// The `SketchReport` encoding the table indexes.
    fn sketch(&self) -> &[u8] {
        &self.payload[PeriodReport::ENCODED_HEADER..]
    }

    /// Heavy entries in the record.
    #[cfg(test)]
    pub(crate) fn heavy_len(&self) -> usize {
        self.table.heavy_len()
    }

    /// Heavy entry `i`'s flow key bytes.
    pub(crate) fn heavy_key(&self, i: usize) -> &[u8] {
        self.table.heavy_key(self.sketch(), i)
    }

    /// Light entries in the record.
    pub(crate) fn light_len(&self) -> usize {
        self.table.light_len()
    }

    /// Light entry `i`'s `(row, col)`.
    pub(crate) fn light_tag(&self, i: usize) -> (u32, u32) {
        self.table.light_tag(i)
    }

    /// Heavy entry `i`'s epochs, in record order.
    pub(crate) fn heavy_epochs(&self, i: usize) -> impl Iterator<Item = EncodedEpoch<'_>> + Clone {
        self.table.heavy_epochs(self.sketch(), i)
    }

    /// Light entry `i`'s epochs, in record order.
    pub(crate) fn light_epochs(&self, i: usize) -> impl Iterator<Item = EncodedEpoch<'_>> + Clone {
        self.table.light_epochs(self.sketch(), i)
    }

    /// The row-0 series, building it from the record's row-0 light epochs
    /// in list order on first read, and whether this call built it.
    pub(crate) fn row0(&self, recon: &mut ReconstructScratch) -> (Option<&WindowSeries>, bool) {
        let epochs = (0..self.light_len())
            .filter(|&i| self.light_tag(i).0 == 0)
            .flat_map(|i| self.light_epochs(i));
        self.row0.get_or_build(epochs, recon)
    }

    /// The row-0 series if a query has built it.
    pub(crate) fn row0_built(&self) -> Option<&WindowSeries> {
        self.row0.built()
    }

    /// Heap bytes held: payload, table, heavy-key columns and row-0 series.
    pub(crate) fn held_bytes(&self) -> usize {
        self.payload.len() + self.table.heap_bytes() + self.cols.bytes() + self.row0.bytes()
    }

    /// The record decoded, for tests that compare against decoded reports.
    #[cfg(test)]
    pub(crate) fn decode(&self) -> PeriodReport {
        PeriodReport::decode(&self.payload).expect("the table accepted it")
    }
}

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

/// One cached record. `Rc` so an in-progress query keeps its epochs alive
/// even if the budget evicts the entry mid-fetch.
struct CacheEntry {
    period: Rc<ColdPeriod>,
    /// Charged bytes: what the period holds ([`ColdPeriod::held_bytes`]),
    /// recharged when a query builds its row-0 series.
    bytes: usize,
    last_used: u64,
}

/// The mutable half of the store, behind a `RefCell` because queries run
/// under `&Analyzer`.
#[derive(Default)]
struct ColdCache {
    entries: BTreeMap<(usize, u64), CacheEntry>,
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
    /// The analyzer's sketch config, which places a missed record's keys.
    cfg: SketchConfig,
    /// Byte location of every archived record: host → period → location.
    index: BTreeMap<usize, BTreeMap<u64, SegLoc>>,
    cache: RefCell<ColdCache>,
}

impl ColdStore {
    pub(crate) fn new(dir: PathBuf, budget: usize, cfg: SketchConfig) -> Self {
        Self {
            dir,
            budget,
            cfg,
            index: BTreeMap::new(),
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
    /// `out`, period-ascending — the periods a query must visit *before*
    /// the resident tiers. Called once per query, before the two-pass
    /// epoch walk, so both passes see identical epochs. A miss reads and
    /// verifies the record, builds its entry table and places its heavy
    /// keys; unreadable records are counted and skipped.
    pub(crate) fn fetch_below(&self, host: usize, floor: u64, out: &mut Vec<Rc<ColdPeriod>>) {
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
                let cold = Rc::clone(&e.period);
                cache.stats.hits += 1;
                out.push(cold);
                continue;
            }
            let t0 = Instant::now();
            let read = PeriodArchive::read_payload_at(&self.dir, host, loc);
            let cold = read.map(|payload| payload.and_then(|b| ColdPeriod::new(b, &self.cfg)));
            cache.stats.read_ns += t0.elapsed().as_nanos() as u64;
            cache.stats.misses += 1;
            match cold {
                Ok(Some(cold)) => {
                    cache.stats.bytes_read += u64::from(loc.len);
                    let cold = Rc::new(cold);
                    out.push(Rc::clone(&cold));
                    let bytes = cold.held_bytes();
                    cache.entries.insert(
                        (host, period),
                        CacheEntry {
                            period: cold,
                            bytes,
                            last_used: clock,
                        },
                    );
                    cache.bytes += bytes;
                    cache.enforce(self.budget);
                }
                Ok(None) | Err(_) => cache.stats.errors += 1,
            }
        }
    }

    /// Charges the row-0 series a query just built for `cold`, one of
    /// `host`'s fetched periods, to the cache budget, then enforces it.
    /// Nothing is charged when the entry has already left the cache (the
    /// budget evicted it mid-fetch): the series then lives only as long as
    /// the query's own `Rc`.
    pub(crate) fn charge_row0(&self, host: usize, cold: &Rc<ColdPeriod>) {
        let mut cache = self.cache.borrow_mut();
        let added = match cache.entries.get_mut(&(host, cold.period)) {
            Some(e) if Rc::ptr_eq(&e.period, cold) => {
                let grown = cold.held_bytes() - e.bytes;
                e.bytes += grown;
                grown
            }
            _ => return,
        };
        cache.bytes += added;
        cache.enforce(self.budget);
    }

    /// Bytes the cache charges against its budget.
    #[cfg(test)]
    pub(crate) fn cached_bytes(&self) -> usize {
        self.cache.borrow().bytes
    }

    /// Bytes the cached periods hold, recounted from their parts (payload,
    /// table, one `u32` column per heavy key and row, built row-0 series),
    /// how many periods there are, and the columns' share of the bytes.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> (usize, usize, usize) {
        let cache = self.cache.borrow();
        let (mut held, mut cols) = (0, 0);
        for c in cache.entries.values().map(|e| &e.period) {
            let c_cols = c.heavy_len() * self.cfg.rows * std::mem::size_of::<u32>();
            held += c.payload.len() + c.table.heap_bytes() + c_cols + c.row0.bytes();
            cols += c_cols;
        }
        (held, cache.entries.len(), cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::contested_reports;
    use crate::query_index::unpack_key;
    use crate::{Analyzer, RetentionPolicy};

    /// The verified payloads of real archived records (an archive-backed
    /// analyzer's segments, read back record by record) and their config.
    fn archived_payloads(tag: &str) -> (SketchConfig, Vec<Box<[u8]>>) {
        let (cfg, reports) = contested_reports(2, 250);
        let dir = std::env::temp_dir().join(format!("umon_cold_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = Analyzer::with_archive(cfg.sketch.clone(), RetentionPolicy::default(), &dir)
            .expect("open archive");
        a.add_reports(reports);
        let scan = PeriodArchive::scan(&dir).expect("scan");
        let payloads = (scan.reports.iter().zip(&scan.locs))
            .map(|(r, &loc)| {
                let read = PeriodArchive::read_payload_at(&dir, r.host, loc);
                read.expect("readable").expect("verifies")
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (cfg.sketch, payloads)
    }

    /// Hostile bytes for the table builder: every truncation of every real
    /// archived record plus seeded single-bit flips. A cold period accepts
    /// exactly what `PeriodReport::decode` accepts with 13-byte heavy keys,
    /// never panics, holds at most a small multiple of the payload, and an
    /// accepted table reads back every key, tag and epoch of the decoded
    /// report.
    #[test]
    fn table_accepts_exactly_what_decode_accepts_on_damaged_records() {
        let (cfg, payloads) = archived_payloads("hostile");
        assert!(payloads.len() >= 8, "{} records", payloads.len());
        let mut x = 0x5EED_u64;
        let (mut cases, mut accepted) = (0, 0);
        for payload in &payloads {
            let mut damaged: Vec<Vec<u8>> = (0..=payload.len())
                .map(|cut| payload[..cut].to_vec())
                .collect();
            for _ in 0..256 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bit = (x % (8 * payload.len() as u64)) as usize;
                let mut b = payload.to_vec();
                b[bit / 8] ^= 1 << (bit % 8);
                damaged.push(b);
            }
            for b in damaged {
                cases += 1;
                let decoded = PeriodReport::decode(&b)
                    .filter(|d| d.report.heavy.iter().all(|(k, _)| k.len() == 13));
                let len = b.len();
                let cold = ColdPeriod::new(b.into_boxed_slice(), &cfg);
                assert_eq!(cold.is_some(), decoded.is_some(), "case {cases}");
                let (Some(cold), Some(want)) = (cold, decoded) else {
                    continue;
                };
                accepted += 1;
                assert!(cold.held_bytes() <= 16 * len, "case {cases}");
                assert_eq!(cold.period, want.period);
                let report = &want.report;
                assert_eq!(cold.heavy_len(), report.heavy.len());
                assert_eq!(cold.light_len(), report.light.len());
                for (i, (key, epochs)) in report.heavy.iter().enumerate() {
                    assert_eq!(cold.heavy_key(i), &key[..]);
                    let cols = (0..cfg.rows).map(|row| cfg.light_col(&unpack_key(key), row));
                    let cols = cols.map(|c| c as u32);
                    assert!(cold.cols.of(i).eq(cols), "case {cases}");
                    let got: Vec<_> = cold.heavy_epochs(i).map(|e| e.decode()).collect();
                    assert_eq!(got, epochs.iter().cloned().map(Some).collect::<Vec<_>>());
                }
                for (i, (row, col, epochs)) in report.light.iter().enumerate() {
                    assert_eq!(cold.light_tag(i), (*row, *col));
                    let got: Vec<_> = cold.light_epochs(i).map(|e| e.decode()).collect();
                    assert_eq!(got, epochs.iter().cloned().map(Some).collect::<Vec<_>>());
                }
            }
        }
        // Every intact record, and some flipped ones (a flip in a
        // coefficient still decodes; only the digest would refuse it).
        assert!(accepted > 2 * payloads.len(), "{accepted} of {cases}");
    }
}
