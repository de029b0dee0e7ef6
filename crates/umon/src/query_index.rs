//! The analyzer's ingest-time query index and reusable query scratch.
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
//!   §4.2 full-version query,
//!
//! plus one config-wide `packed key → light columns per row` table so each
//! distinct heavy key is unpacked and hashed exactly once ever.
//!
//! Indexing alone only removes the scan; the remaining query time was
//! dominated by re-running the inverse wavelet transform on the same stored
//! epochs for every query. So ingest also reconstructs each accepted
//! report's epochs exactly once (through the index's own
//! [`ReconstructScratch`]) and caches the resulting window curves
//! ([`CachedEpoch`]); queries then reduce to accumulating cached `f64`
//! slices. The cached values are byte-for-byte what
//! `BucketReport::reconstruct_with` returns and are summed in the same
//! order, so curves stay bit-identical.
//!
//! A "ref" is `(period, position)` into the analyzer's period-keyed report
//! store, kept sorted by binary-search insertion — reports may arrive out of
//! order, but query-time iteration must walk periods ascending and, within a
//! period, entries in drain order, because that is the order the pre-index
//! code summed `f64` reconstructions in and float addition is
//! order-sensitive. Keeping the order identical keeps every curve
//! bit-identical (the golden query fixtures check this).

use crate::host_agent::PeriodReport;
use std::collections::HashMap;
use wavesketch::basic::WindowSeries;
use wavesketch::reconstruct::ReconstructScratch;
use wavesketch::{BucketReport, FlowKey, SketchConfig};

/// A reference to one entry of a stored period report: `(period, position)`
/// in either the period's `light` or `heavy` list (which one is fixed by the
/// index map the ref lives in).
pub(crate) type EntryRef = (u64, u32);

/// One stored epoch's reconstruction, cached at ingest: the epoch's opening
/// window and its `padded_len` clamped window values, bit-identical to what
/// `BucketReport::reconstruct_with` returns for the same report.
#[derive(Debug)]
pub(crate) struct CachedEpoch {
    pub(crate) w0: u64,
    pub(crate) curve: Box<[f64]>,
}

/// One period's cached reconstructions, positionally parallel to the stored
/// report's `light` and `heavy` lists (so an [`EntryRef`] addresses both the
/// report store and this cache). Heavy entries keep their packed key so the
/// subtraction path can skip the queried flow without touching the store.
#[derive(Debug, Default)]
pub(crate) struct CachedCurves {
    pub(crate) light: Vec<Vec<CachedEpoch>>,
    pub(crate) heavy: Vec<([u8; 13], Vec<CachedEpoch>)>,
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
    /// Row-0 light refs (every packet lands in row 0 exactly once — the
    /// host-rate aggregation set), ordered.
    pub(crate) row0: Vec<EntryRef>,
    /// Period → that period's cached reconstructions.
    pub(crate) curves: HashMap<u64, CachedCurves>,
}

impl HostIndex {
    /// The cached light epochs behind one light ref.
    pub(crate) fn light_curves(&self, period: u64, i: u32) -> Option<&[CachedEpoch]> {
        self.curves
            .get(&period)
            .map(|c| c.light[i as usize].as_slice())
    }

    /// The packed key and cached epochs behind one heavy ref.
    pub(crate) fn heavy_entry(&self, period: u64, i: u32) -> Option<&([u8; 13], Vec<CachedEpoch>)> {
        self.curves.get(&period).map(|c| &c.heavy[i as usize])
    }
}

/// The analyzer-wide query index: one [`HostIndex`] per host plus the
/// config-global key-unpacking cache.
#[derive(Debug, Default)]
pub(crate) struct QueryIndex {
    hosts: HashMap<usize, HostIndex>,
    /// Packed heavy key → its light column per row. Columns depend only on
    /// the key and the sketch config, so the cache is shared across hosts
    /// and each key is unpacked + row-hashed exactly once at first sight.
    /// Bounded at [`KEY_COLS_CAP`]: it is a pure cache, so overflowing it
    /// (a very long run meeting ever-fresh flows) just clears and refills.
    key_cols: HashMap<[u8; 13], Vec<u32>>,
    /// The ingest-time reconstruction scratch feeding the curve cache.
    recon: ReconstructScratch,
    /// Bytes held by cached epoch curves across all hosts (the dominant
    /// index cost; maintained by [`Self::index_report`] and
    /// [`Self::deindex_period`]).
    cached_bytes: usize,
}

/// Cap on distinct heavy keys in the column-resolution cache (~4 MB at 3
/// rows). Without it the cache would be the analyzer's last unbounded map.
const KEY_COLS_CAP: usize = 1 << 17;

/// Bytes attributed to one cached epoch: its boxed curve plus the struct.
fn epoch_bytes(e: &CachedEpoch) -> usize {
    std::mem::size_of::<CachedEpoch>() + e.curve.len() * std::mem::size_of::<f64>()
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

    /// The cached light columns of a packed heavy key.
    fn cols_of(&mut self, packed: [u8; 13], cfg: &SketchConfig) -> &[u32] {
        if self.key_cols.len() >= KEY_COLS_CAP && !self.key_cols.contains_key(&packed) {
            self.key_cols.clear();
        }
        self.key_cols.entry(packed).or_insert_with(|| {
            let key = unpack_key(&packed);
            (0..cfg.rows)
                .map(|row| cfg.light_col(&key, row) as u32)
                .collect()
        })
    }

    /// Marks `host` as present (empty index) — called for reports accepted
    /// straight into the compacted tier, so queries find the host even when
    /// none of its periods is indexed.
    pub(crate) fn ensure_host(&mut self, host: usize) {
        self.hosts.entry(host).or_default();
    }

    /// Bytes held by cached epoch curves across all hosts.
    pub(crate) fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// The oldest `(period, host)` still carrying cached curves, if any —
    /// the next victim of a cached-bytes budget.
    pub(crate) fn oldest_indexed(&self) -> Option<(u64, usize)> {
        self.hosts
            .iter()
            .flat_map(|(&h, hidx)| hidx.curves.keys().map(move |&p| (p, h)))
            .min()
    }

    /// Indexed (hot) periods across all hosts.
    pub(crate) fn indexed_periods(&self) -> usize {
        self.hosts.values().map(|h| h.curves.len()).sum()
    }

    /// Removes one period of one host from the index entirely: every ref in
    /// every map and the period's cached curves. The stored report (still
    /// resident in the analyzer's compacted tier, or about to be evicted)
    /// tells us exactly which map entries to touch, so this is
    /// `O(period entries · log)` — no full-index sweep.
    pub(crate) fn deindex_period(
        &mut self,
        host: usize,
        r: &PeriodReport,
        cfg: &SketchConfig,
    ) -> bool {
        let period = r.period;
        let Some(hidx) = self.hosts.get_mut(&host) else {
            return false;
        };
        let Some(cached) = hidx.curves.remove(&period) else {
            return false;
        };
        let freed: usize = cached
            .light
            .iter()
            .flatten()
            .chain(cached.heavy.iter().flat_map(|(_, ces)| ces))
            .map(epoch_bytes)
            .sum();
        self.cached_bytes -= freed;
        for (row, col, _) in &r.report.light {
            if let Some(refs) = hidx.light.get_mut(&(*row, *col)) {
                remove_period(refs, period);
                if refs.is_empty() {
                    hidx.light.remove(&(*row, *col));
                }
            }
            if *row == 0 {
                remove_period(&mut hidx.row0, period);
            }
        }
        // Resolve heavy columns before mutating the host maps (split
        // borrows, same shape as `index_report`).
        let packed_cols: Vec<([u8; 13], Vec<u32>)> = r
            .report
            .heavy
            .iter()
            .map(|(k, _)| {
                let packed: [u8; 13] = k.as_slice().try_into().expect("packed keys are 13 bytes");
                (packed, self.cols_of(packed, cfg).to_vec())
            })
            .collect();
        let hidx = self.hosts.get_mut(&host).expect("host exists");
        for (packed, cols) in packed_cols {
            if let Some(refs) = hidx.heavy.get_mut(&packed) {
                remove_period(refs, period);
                if refs.is_empty() {
                    hidx.heavy.remove(&packed);
                }
            }
            for (row, col) in cols.into_iter().enumerate() {
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

    /// Indexes one accepted report. Must be called exactly once per report
    /// that enters the store (and never for duplicates or quarantined
    /// reports), with the same `(host, period)` the store files it under.
    pub(crate) fn index_report(&mut self, host: usize, r: &PeriodReport, cfg: &SketchConfig) {
        let period = r.period;
        let mut cached = CachedCurves::default();
        for (i, (row, col, brs)) in r.report.light.iter().enumerate() {
            let entry = (period, i as u32);
            cached.light.push(cache_epochs(brs, &mut self.recon));
            let hidx = self.hosts.entry(host).or_default();
            insert_ordered(hidx.light.entry((*row, *col)).or_default(), entry);
            if *row == 0 {
                insert_ordered(&mut hidx.row0, entry);
            }
        }
        for (i, (k, brs)) in r.report.heavy.iter().enumerate() {
            let packed: [u8; 13] = k.as_slice().try_into().expect("packed keys are 13 bytes");
            let entry = (period, i as u32);
            cached
                .heavy
                .push((packed, cache_epochs(brs, &mut self.recon)));
            // Split borrows: resolve the key's columns first, then touch the
            // host maps.
            let cols: Vec<u32> = self.cols_of(packed, cfg).to_vec();
            let hidx = self.hosts.entry(host).or_default();
            insert_ordered(hidx.heavy.entry(packed).or_default(), entry);
            for (row, &col) in cols.iter().enumerate() {
                insert_ordered(
                    hidx.heavy_by_col.entry((row as u32, col)).or_default(),
                    entry,
                );
            }
        }
        self.cached_bytes += cached
            .light
            .iter()
            .flatten()
            .chain(cached.heavy.iter().flat_map(|(_, ces)| ces))
            .map(epoch_bytes)
            .sum::<usize>();
        // Filing the cache also marks the host as present even for a report
        // with no light and no heavy entries (matching the report store).
        self.hosts
            .entry(host)
            .or_default()
            .curves
            .insert(period, cached);
    }
}

/// Reconstructs every epoch of one stored bucket once, for the ingest-time
/// curve cache.
fn cache_epochs(brs: &[BucketReport], recon: &mut ReconstructScratch) -> Vec<CachedEpoch> {
    brs.iter()
        .map(|r| CachedEpoch {
            w0: r.w0,
            curve: r.reconstruct_with(recon).into(),
        })
        .collect()
}

/// Unpacks a 13-byte packed key back into a [`FlowKey`].
pub(crate) fn unpack_key(bytes: &[u8]) -> FlowKey {
    assert_eq!(bytes.len(), 13, "packed flow keys are 13 bytes");
    FlowKey {
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
/// heap allocations (enforced by `tests/alloc_gate.rs`).
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
    /// Heavy epoch opening windows (`w0` per heavy report, in order).
    pub(crate) starts: Vec<u64>,
    /// The light estimate at each opening window, captured pre-overlay.
    pub(crate) light_at: Vec<f64>,
    /// Reconstruction scratch for epochs whose cached curve was
    /// compacted away; idle (and allocation-free) on the hot path.
    pub(crate) recon: ReconstructScratch,
    /// Cold-tier reports fetched for the current query (evicted periods
    /// read back from the archive), period-ascending. Filled once per query
    /// *before* the two-pass epoch walk so both passes see identical
    /// epochs; the `Rc`s keep the reports alive for the whole query even if
    /// the cold cache's byte budget evicts them mid-fetch.
    pub(crate) cold: Vec<std::rc::Rc<crate::host_agent::PeriodReport>>,
}

impl QueryScratch {
    /// A fresh scratch; buffers grow to the workload on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One epoch contribution to a series, from either storage tier: a cached
/// reconstruction (hot) or a raw wire report whose curve is reconstructed
/// on demand (compacted). `WindowSeries::accumulate_curve` and
/// `accumulate_report` are bit-identical for the same epoch, so a series
/// built from any mix of tiers equals the all-hot (and the pre-index
/// rescan) result exactly.
pub(crate) enum Epoch<'a> {
    /// A hot-tier epoch: accumulate its cached curve.
    Cached(&'a CachedEpoch),
    /// A compacted-tier epoch: reconstruct from the wire report.
    Raw(&'a BucketReport),
}

impl Epoch<'_> {
    fn span(&self) -> (u64, usize) {
        match self {
            Epoch::Cached(e) => (e.w0, e.curve.len()),
            Epoch::Raw(r) => (r.w0, r.padded_len),
        }
    }
}

/// Streams epochs into `out` in visit order: pass 1 finds the union span,
/// pass 2 resets `out` to it and accumulates each epoch — the exact
/// addition order (periods ascending, drain order within a period) the
/// pre-index `WindowSeries::from_reports` code used. Callers must visit
/// epochs in that order, compacted (older) periods before hot refs.
/// Returns `false` (with `out` reset to empty) when nothing is visited,
/// matching `from_reports(&[]) == None`; an epoch with an empty curve still
/// counts as visited (degenerate heavy records anchor coverage).
///
/// `for_each` is called twice and must yield the same epochs both times.
pub(crate) fn series_from_epochs(
    mut for_each: impl FnMut(&mut dyn FnMut(Epoch<'_>)),
    out: &mut WindowSeries,
    recon: &mut ReconstructScratch,
) -> bool {
    let mut start = u64::MAX;
    let mut end = 0u64;
    let mut any = false;
    for_each(&mut |e| {
        let (w0, len) = e.span();
        any = true;
        start = start.min(w0);
        end = end.max(w0 + len as u64);
    });
    if !any {
        out.reset(0, 0);
        return false;
    }
    out.reset(start, (end - start) as usize);
    for_each(&mut |e| match e {
        Epoch::Cached(c) => out.accumulate_curve(c.w0, &c.curve),
        Epoch::Raw(r) => out.accumulate_report(r, recon),
    });
    true
}

/// Visits the cached epochs behind `refs` in ref order — the hot-tier half
/// of a [`series_from_epochs`] visitation. `lookup` resolves one ref and
/// may return `None` to skip it (the subtraction path skips the queried
/// flow's own key).
pub(crate) fn visit_refs<'r>(
    refs: &[EntryRef],
    lookup: impl Fn(u64, u32) -> Option<&'r [CachedEpoch]>,
    f: &mut dyn FnMut(Epoch<'r>),
) {
    for &(period, i) in refs {
        if let Some(ces) = lookup(period, i) {
            for e in ces {
                f(Epoch::Cached(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
