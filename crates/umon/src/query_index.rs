//! The analyzer's ingest-time query index and reusable query scratch.
//! `analyzer/ingest.rs` maintains the index; the query walk in
//! `analyzer/query.rs` is its one reader.
//!
//! Before this index existed, every `Analyzer::flow_curve` call linearly
//! rescanned every stored period's entire `light` and `heavy` lists once per
//! Count-Min row, and unpacked + rehashed every heavy key it passed. The
//! index moves all of that to ingest: [`QueryIndex::index_report`] runs once
//! per *accepted* report (after dedup and quarantine, so rejected reports
//! never pollute it) and records, per host,
//!
//! * `(row, col) → ordered light report refs` — the light buckets a query
//!   row reads,
//! * `packed heavy key → ordered heavy report refs` — the direct heavy-part
//!   hit, and
//! * `(row, col) → ordered heavy report refs` — the heavy flows whose light
//!   column collides with a bucket, i.e. exactly the subtraction set of the
//!   §4.2 full-version query.
//!
//! The last map needs each heavy key's light column per row. A key never
//! changes once stored, so every stored period places its heavy keys once,
//! when it enters a tier ([`HeavyCols`]: at ingest for a resident period, at
//! the cache miss for a cold one), and the index and the query's selection
//! over the unindexed tiers both read those columns.
//!
//! Indexing alone only removes the scan; the remaining query time was
//! dominated by re-running the inverse wavelet transform on the same stored
//! epochs for every query. So every indexed epoch also gets a memo cell
//! ([`Memo`]), positionally parallel to the stored report's `light` and
//! `heavy` lists: the first query that reads the epoch reconstructs it
//! (through the query's own [`ReconstructScratch`]) and fills the cell, and
//! every later query accumulates the memoised `f64` slice. Ingest builds
//! only the ref maps and the empty cells — most epochs of a long run are
//! compacted away without ever being read, and no longer pay for a curve.
//! The memoised values are byte-for-byte what
//! `BucketReport::reconstruct_with` returns and are summed in the same
//! order, so curves stay bit-identical. The bytes a memo would hold are
//! charged to [`QueryIndex::cached_bytes`] at index time, so that figure
//! (and the budget compaction it drives) is an upper bound on what the
//! memos actually hold.
//!
//! A "ref" is `(period, position)` into the analyzer's period-keyed report
//! store, kept sorted by binary-search insertion: reports may arrive out of
//! order, and the walk's visit-order contract (`analyzer/query.rs`) needs
//! hot refs periods ascending, drain order within a period.
//!
//! The host rate needs no ref map: it reads every row-0 bucket of every
//! period, so its memo is one series per period ([`Row0`]), kept beside the
//! report in whichever tier holds it.

use crate::host_agent::PeriodReport;
use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, HashMap};
use wavesketch::basic::WindowSeries;
use wavesketch::reconstruct::ReconstructScratch;
use wavesketch::{BucketReport, EpochSource, SketchConfig};

/// A reference to one entry of a stored period report: `(period, position)`
/// in either the period's `light` or `heavy` list (which one is fixed by the
/// index map the ref lives in).
pub(crate) type EntryRef = (u64, u32);

/// One hot epoch's window curve, empty until a query first reads the epoch
/// and then exactly what `BucketReport::reconstruct_with` returns for it.
pub(crate) type Memo = OnceCell<Box<[f64]>>;

/// One indexed period's memo cells, positionally parallel to the stored
/// report's `light` and `heavy` lists and, within an entry, to its epochs
/// (so an [`EntryRef`] addresses both the report store and these cells).
#[derive(Debug, Default)]
pub(crate) struct CachedCurves {
    pub(crate) light: Vec<Box<[Memo]>>,
    pub(crate) heavy: Vec<Box<[Memo]>>,
    /// What this period adds to [`QueryIndex::cached_bytes`].
    bytes: usize,
}

/// A period's row-0 series: its row-0 light epochs summed in list order,
/// built by the first host-rate query that reads the period (`None` inside
/// when the period has no row-0 epoch). It lives exactly as long as the
/// period's report in whichever tier holds it: compaction keeps it,
/// eviction (or a cold-cache eviction) drops it, and the next host-rate
/// query that reads the period builds it again.
#[derive(Debug, Default)]
pub(crate) struct Row0(OnceCell<Option<WindowSeries>>);

impl Row0 {
    /// The series, building it from `epochs` through `recon` on first read,
    /// and whether this call built it: `WindowSeries::assign_from_reports`
    /// over the period's row-0 epochs in list order, decoded or encoded.
    pub(crate) fn get_or_build<I>(
        &self,
        epochs: I,
        recon: &mut ReconstructScratch,
    ) -> (Option<&WindowSeries>, bool)
    where
        I: IntoIterator,
        I::Item: EpochSource,
        I::IntoIter: Clone,
    {
        let mut built = false;
        let series = self.0.get_or_init(|| {
            built = true;
            let mut s = WindowSeries::new();
            s.assign_from_reports(epochs, recon).then_some(s)
        });
        (series.as_ref(), built)
    }

    /// The series if a query has built it.
    pub(crate) fn built(&self) -> Option<&WindowSeries> {
        self.0.get().and_then(Option::as_ref)
    }

    /// Heap bytes the built series holds (0 until built).
    pub(crate) fn bytes(&self) -> usize {
        (self.built()).map_or(0, |s| s.values.len() * std::mem::size_of::<f64>())
    }
}

/// The light column, per row, of every heavy key of one stored period:
/// `rows × heavy_len` columns, row-major (row 0's column of every key in
/// list order, then row 1's, ...), so a query scans one row of a period as
/// one contiguous slice. Placed once when the period enters a tier. Derived
/// from the keys and the sketch config alone, so it holds for as long as the
/// period's keys do — through compaction and a lossy trim (which drop
/// coefficients, never keys) — and is never encoded.
#[derive(Debug)]
pub(crate) struct HeavyCols {
    cols: Box<[u32]>,
    keys: usize,
    rows: usize,
}

impl HeavyCols {
    /// Places each of `keys` (one batch of hash chains per key) and keeps
    /// its column per row, in one exact-size allocation. `None` when a key
    /// is not the 13-byte packed form, which no query can place.
    pub(crate) fn place<'k, I>(keys: I, cfg: &SketchConfig) -> Option<Self>
    where
        I: ExactSizeIterator<Item = &'k [u8]>,
    {
        let n = keys.len();
        let mut cols = vec![0u32; n * cfg.rows].into_boxed_slice();
        for (i, key) in keys.enumerate() {
            let at = cfg.place_packed(key.try_into().ok()?);
            for row in 0..cfg.rows {
                cols[row * n + i] = cfg.light_col_placed(&at, row) as u32;
            }
        }
        Some(Self {
            cols,
            keys: n,
            rows: cfg.rows,
        })
    }

    /// Heavy keys placed.
    pub(crate) fn keys(&self) -> usize {
        self.keys
    }

    /// Row `row`'s column of every heavy key, in list order.
    pub(crate) fn row(&self, row: usize) -> &[u32] {
        &self.cols[row * self.keys..(row + 1) * self.keys]
    }

    /// Heavy entry `i`'s light column per row.
    pub(crate) fn of(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        (0..self.rows).map(move |row| self.cols[row * self.keys + i])
    }

    /// Heap bytes held.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.cols)
    }
}

/// One period report held decoded in the analyzer's resident store (hot or
/// compacted), with its heavy keys' columns and its row-0 series.
#[derive(Debug)]
pub(crate) struct StoredPeriod {
    pub(crate) report: PeriodReport,
    pub(crate) cols: HeavyCols,
    row0: Row0,
}

impl StoredPeriod {
    /// Stores `report`, placing its heavy keys under `cfg`. The report must
    /// fit `cfg` (the analyzer's `fits_config`: every heavy key 13 bytes).
    pub(crate) fn new(report: PeriodReport, cfg: &SketchConfig) -> Self {
        let keys = report.report.heavy.iter().map(|(k, _)| k.as_slice());
        let cols = HeavyCols::place(keys, cfg).expect("stored heavy keys are 13 bytes");
        Self {
            report,
            cols,
            row0: Row0::default(),
        }
    }

    /// The row-0 series, building it through `recon` on first read, and
    /// whether this call built it.
    pub(crate) fn row0(&self, recon: &mut ReconstructScratch) -> (Option<&WindowSeries>, bool) {
        let epochs = (self.report.report.light.iter())
            .filter(|(row, _, _)| *row == 0)
            .flat_map(|(_, _, brs)| brs);
        self.row0.get_or_build(epochs, recon)
    }

    /// The row-0 series if a query has built it.
    pub(crate) fn row0_built(&self) -> Option<&WindowSeries> {
        self.row0.built()
    }

    /// Heap bytes the built row-0 series holds (0 until built).
    pub(crate) fn row0_bytes(&self) -> usize {
        self.row0.bytes()
    }

    /// Drops the row-0 series: the report's epochs changed (a lossy trim),
    /// so the next read rebuilds it from what the report now holds.
    pub(crate) fn forget_row0(&mut self) {
        self.row0 = Row0::default();
    }
}

/// Per-host query index; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct HostIndex {
    /// `(row, col)` → refs into `report.light`, ordered.
    pub(crate) light: HashMap<(u32, u32), Vec<EntryRef>>,
    /// Packed heavy key → refs into `report.heavy`, ordered.
    pub(crate) heavy: HashMap<[u8; 13], Vec<EntryRef>>,
    /// `(row, col)` → refs into `report.heavy` for heavy keys whose light
    /// column at `row` is `col`, ordered. The subtraction set.
    pub(crate) heavy_by_col: HashMap<(u32, u32), Vec<EntryRef>>,
    /// Period → that period's memo cells.
    pub(crate) curves: BTreeMap<u64, CachedCurves>,
}

/// The analyzer-wide query index: one [`HostIndex`] per host.
#[derive(Debug, Default)]
pub(crate) struct QueryIndex {
    hosts: BTreeMap<usize, HostIndex>,
    /// Bytes reserved for hot epoch curves across all hosts: charged for
    /// every indexed epoch whether or not its memo is filled, so an upper
    /// bound on what the memos hold (maintained by [`Self::index_report`]
    /// and [`Self::deindex_period`]).
    cached_bytes: usize,
    /// Memo cells created at ingest, cumulative.
    epochs_indexed: u64,
    /// Memo cells filled by a query, cumulative. A `Cell` because queries
    /// take `&self`.
    epochs_built: Cell<u64>,
    /// Row-0 series built by host-rate queries, in any tier, cumulative.
    row0_series_built: Cell<u64>,
}

/// Bytes charged for one indexed epoch: its full curve plus a window id
/// and the curve's fat pointer. Charged at ingest whether or not a query
/// ever fills the memo, so byte budgets hold before any query runs.
fn epoch_bytes(r: &BucketReport) -> usize {
    std::mem::size_of::<(u64, Box<[f64]>)>() + r.padded_len * std::mem::size_of::<f64>()
}

impl CachedCurves {
    /// One empty memo cell per epoch of a stored bucket, each charged
    /// [`epoch_bytes`] to this period.
    fn empty_memos(&mut self, brs: &[BucketReport]) -> Box<[Memo]> {
        self.bytes += brs.iter().map(epoch_bytes).sum::<usize>();
        brs.iter().map(|_| Memo::new()).collect()
    }
}

/// Inserts `entry` into an ordered ref list at its sorted position.
/// Duplicates cannot arise: the analyzer deduplicates `(host, period)`
/// before indexing, and one period contributes each position once.
fn insert_ordered(refs: &mut Vec<EntryRef>, entry: EntryRef) {
    let pos = refs.partition_point(|&e| e < entry);
    refs.insert(pos, entry);
}

/// Removes every ref of `period` from an ordered ref list (they are
/// contiguous — the list is sorted by `(period, position)`).
fn remove_period(refs: &mut Vec<EntryRef>, period: u64) {
    let lo = refs.partition_point(|&(p, _)| p < period);
    let hi = refs.partition_point(|&(p, _)| p <= period);
    refs.drain(lo..hi);
}

impl QueryIndex {
    /// The index of `host`, if any report of that host was accepted.
    pub(crate) fn host(&self, host: usize) -> Option<&HostIndex> {
        self.hosts.get(&host)
    }

    /// Marks `host` as present (empty index) — called for reports accepted
    /// straight into the compacted tier, so queries find the host even when
    /// none of its periods is indexed.
    pub(crate) fn ensure_host(&mut self, host: usize) {
        self.hosts.entry(host).or_default();
    }

    /// Bytes reserved for hot epoch curves across all hosts.
    pub(crate) fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// Memo cells created at ingest, cumulative.
    pub(crate) fn epochs_indexed(&self) -> u64 {
        self.epochs_indexed
    }

    /// The count of memo cells filled by queries, cumulative; the query
    /// walk's `series` bumps it.
    pub(crate) fn epochs_built(&self) -> &Cell<u64> {
        &self.epochs_built
    }

    /// The count of row-0 series built by host-rate queries, cumulative.
    pub(crate) fn row0_series_built(&self) -> &Cell<u64> {
        &self.row0_series_built
    }

    /// The oldest `(period, host)` still indexed, if any —
    /// the next victim of a cached-bytes budget.
    pub(crate) fn oldest_indexed(&self) -> Option<(u64, usize)> {
        (self.hosts.iter())
            .filter_map(|(&h, hidx)| hidx.curves.first_key_value().map(|(&p, _)| (p, h)))
            .min()
    }

    /// Indexed (hot) periods across all hosts.
    pub(crate) fn indexed_periods(&self) -> usize {
        self.hosts.values().map(|h| h.curves.len()).sum()
    }

    /// Removes one period of one host from the index entirely: every ref in
    /// every map and the period's memo cells, filled or not. The stored
    /// period (still resident in the analyzer's compacted tier, or about to
    /// be evicted) tells us exactly which map entries to touch, so this is
    /// `O(period entries · log)` — no full-index sweep.
    pub(crate) fn deindex_period(&mut self, host: usize, sp: &StoredPeriod) -> bool {
        let QueryIndex {
            hosts,
            cached_bytes,
            ..
        } = self;
        let r = &sp.report;
        let period = r.period;
        let Some(hidx) = hosts.get_mut(&host) else {
            return false;
        };
        let Some(cached) = hidx.curves.remove(&period) else {
            return false;
        };
        *cached_bytes -= cached.bytes;
        for (row, col, _) in &r.report.light {
            if let Some(refs) = hidx.light.get_mut(&(*row, *col)) {
                remove_period(refs, period);
                if refs.is_empty() {
                    hidx.light.remove(&(*row, *col));
                }
            }
        }
        for (i, (k, _)) in r.report.heavy.iter().enumerate() {
            let packed: [u8; 13] = k.as_slice().try_into().expect("packed keys are 13 bytes");
            if let Some(refs) = hidx.heavy.get_mut(&packed) {
                remove_period(refs, period);
                if refs.is_empty() {
                    hidx.heavy.remove(&packed);
                }
            }
            for (row, col) in sp.cols.of(i).enumerate() {
                if let Some(refs) = hidx.heavy_by_col.get_mut(&(row as u32, col)) {
                    remove_period(refs, period);
                    if refs.is_empty() {
                        hidx.heavy_by_col.remove(&(row as u32, col));
                    }
                }
            }
        }
        true
    }

    /// Indexes one accepted period: refs and one empty memo cell per epoch,
    /// no reconstruction. Must be called exactly once per period that enters
    /// the store hot (and never for duplicates or quarantined reports), with
    /// the same `(host, period)` the store files it under.
    pub(crate) fn index_report(&mut self, host: usize, sp: &StoredPeriod) {
        let QueryIndex {
            hosts,
            cached_bytes,
            epochs_indexed,
            ..
        } = self;
        let r = &sp.report;
        let period = r.period;
        // Filing the cells also marks the host as present even for a report
        // with no light and no heavy entries (matching the report store).
        let hidx = hosts.entry(host).or_default();
        let mut cached = CachedCurves::default();
        for (i, (row, col, brs)) in r.report.light.iter().enumerate() {
            let entry = (period, i as u32);
            let memos = cached.empty_memos(brs);
            cached.light.push(memos);
            insert_ordered(hidx.light.entry((*row, *col)).or_default(), entry);
        }
        for (i, (k, brs)) in r.report.heavy.iter().enumerate() {
            let packed: [u8; 13] = k.as_slice().try_into().expect("packed keys are 13 bytes");
            let entry = (period, i as u32);
            let memos = cached.empty_memos(brs);
            cached.heavy.push(memos);
            insert_ordered(hidx.heavy.entry(packed).or_default(), entry);
            for (row, col) in sp.cols.of(i).enumerate() {
                insert_ordered(
                    hidx.heavy_by_col.entry((row as u32, col)).or_default(),
                    entry,
                );
            }
        }
        *epochs_indexed += (cached.light.iter().chain(&cached.heavy))
            .map(|memos| memos.len() as u64)
            .sum::<u64>();
        *cached_bytes += cached.bytes;
        hidx.curves.insert(period, cached);
    }
}

/// Unpacks a 13-byte packed key back into a `FlowKey`: the tests' way
/// to re-derive a heavy key's columns independently of `place_packed`.
#[cfg(test)]
pub(crate) fn unpack_key(bytes: &[u8]) -> wavesketch::FlowKey {
    assert_eq!(bytes.len(), 13, "packed flow keys are 13 bytes");
    wavesketch::FlowKey {
        src_ip: [bytes[0], bytes[1], bytes[2], bytes[3]],
        dst_ip: [bytes[4], bytes[5], bytes[6], bytes[7]],
        src_port: u16::from_be_bytes([bytes[8], bytes[9]]),
        dst_port: u16::from_be_bytes([bytes[10], bytes[11]]),
        proto: bytes[12],
    }
}

/// Reusable buffers for the analyzer's query paths. Create one, keep it, and
/// pass it to `Analyzer::flow_curve_with` / `Analyzer::host_rate_curve_with`:
/// after one warm-up query per curve shape, subsequent queries perform zero
/// heap allocations (enforced by `tests/alloc_gate.rs`, for an all-hot
/// analyzer and for one with compacted and cold periods). The promise is
/// for a warm scratch plus cold-cache *hits*: a cold *miss* still allocates
/// the record's payload buffer and its entry table.
///
/// The returned `&WindowSeries` borrows the scratch and is valid until the
/// next query through it; clone it (or copy what you need) to keep a curve.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// The winning (min-total) light-part candidate; also the final curve
    /// when the heavy part overlays onto it.
    pub(crate) light_best: WindowSeries,
    /// The light-part candidate of the row currently being evaluated.
    pub(crate) light_cand: WindowSeries,
    /// Sum of colliding heavy flows to subtract from a light candidate.
    pub(crate) heavy_sub: WindowSeries,
    /// The flow's own concatenated heavy-part curve.
    pub(crate) heavy: WindowSeries,
    /// The host-rate aggregation buffer.
    pub(crate) rate: WindowSeries,
    /// Heavy epoch opening windows (`w0` per heavy report, in order), each
    /// with the light estimate there, captured before the overlay.
    pub(crate) starts: Vec<(u64, f64)>,
    /// Reconstruction scratch: fills a hot epoch's memo or a period's row-0
    /// series on its first read, and reconstructs compacted and cold epochs
    /// on every read (a cold epoch parsed straight from its record bytes).
    pub(crate) recon: ReconstructScratch,
    /// Cold-tier periods fetched for the current query (evicted periods
    /// read back from the archive), period-ascending. Filled once per query
    /// *before* any epoch walk so every walk of the query sees identical
    /// epochs; the `Rc`s keep the records alive for the whole query even if
    /// the cold cache's byte budget evicts them mid-fetch.
    pub(crate) cold: Vec<std::rc::Rc<crate::cold::ColdPeriod>>,
    /// The unindexed (cold and compacted) entries the current flow query
    /// reads, recorded by one selection pass after the cold fetch; every
    /// walk of the query filters this instead of rescanning the periods.
    pub(crate) selected: Vec<crate::analyzer::Selected>,
    /// The queried flow's light column per row, placed once per query.
    pub(crate) cols: Vec<u32>,
    /// Per heavy key of the period being selected: whether it shares the
    /// flow's column at some row.
    pub(crate) hits: Vec<u8>,
}

impl QueryScratch {
    /// A fresh scratch; buffers grow to the workload on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesketch::FlowKey;

    #[test]
    fn insert_ordered_keeps_period_then_position_order() {
        let mut refs = Vec::new();
        for e in [(5u64, 0u32), (1, 1), (5, 2), (1, 0), (3, 0)] {
            insert_ordered(&mut refs, e);
        }
        assert_eq!(refs, vec![(1, 0), (1, 1), (3, 0), (5, 0), (5, 2)]);
    }

    #[test]
    fn unpack_key_inverts_pack() {
        let k = FlowKey::from_v4([1, 2, 3, 4], [9, 8, 7, 6], 0xABCD, 4791, 17);
        assert_eq!(unpack_key(&k.pack()), k);
    }
}
