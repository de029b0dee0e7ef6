//! Curve queries: §4.2's full-version flow query and §6's host rate.
//!
//! A host's periods sit in three tiers: cold (evicted, read back from the
//! archive), compacted (resident, not indexed) and hot (indexed, curves
//! memoised on first read). Both queries visit them in one order: periods
//! ascending — so cold before compacted before hot, every tier being
//! strictly older than the next — and drain order within a period. That is
//! the order the pre-index rescan summed `f64` reconstructions in.
//!
//! A flow curve is a sum of the stored epochs one [`Pick`] selects, and
//! [`HostView::walk`] is the one place that visits them. The index resolved
//! every pick to ordered refs into the hot tier at ingest. The cold and
//! compacted tiers have no index, so each flow query makes its own, once:
//! [`HostView::select`] scans every unindexed period a single time and
//! records each entry one of the query's picks reads ([`Selected`]); the
//! query's walks filter that record. Every stored period carries its heavy
//! keys' light columns, placed when it entered its tier, so the selection
//! compares columns and hashes only the queried flow.
//!
//! A cold period is its archive record's bytes plus an entry table and
//! those columns ([`ColdPeriod`]): the selection reads keys, tags and
//! columns, and the walk parses only the epochs it yields, straight into
//! the kernel.
//!
//! The host rate sums every row-0 bucket of every period, so its memo is
//! one series per period: the period's row-0 epochs summed in list order,
//! built on the first host-rate read and kept beside the report for as long
//! as the report stays in memory (in the resident store, or beside the
//! record in the cold tier's cache entry). [`Analyzer::host_rate_curve_with`]
//! sizes the union span and adds one series per period. This regroups the
//! additions — per period first, then across periods — and still changes no
//! bit: reconstructions of integer byte counts are dyadic rationals, and
//! summing them is exact in any order, even where a padded epoch spills into
//! the next period's windows. The rescan reference, which sums every row-0
//! epoch into one series, pins that.

use super::{Analyzer, AnnotatedCurve};
use crate::cold::ColdPeriod;
use crate::query_index::{HeavyCols, HostIndex, Memo, QueryScratch, StoredPeriod};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use wavesketch::basic::WindowSeries;
use wavesketch::reconstruct::ReconstructScratch;
use wavesketch::report::{EncodedEpoch, EpochSource};
use wavesketch::{BucketReport, FlowKey};

/// Which stored entries a flow curve sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pick {
    /// A flow's own heavy-part records, by packed key.
    Heavy([u8; 13]),
    /// Light bucket `(row, col)`.
    Light(u32, u32),
    /// The heavy records of every key other than the given one whose light
    /// column at `row` is `col`: what inflated light bucket `(row, col)`
    /// besides the queried flow, the §4.2 subtraction set.
    Colliding(u32, u32, [u8; 13]),
}

/// One cold or compacted entry a flow query reads: the period's ordinal in
/// the walk's unindexed order (cold, then compacted, each ascending), the
/// entry's index in that period's `heavy` list (for `Heavy` and
/// `Colliding`) or `light` list, and the pick that reads it. A query's
/// selection lists them in walk order, so each pick's entries come out
/// periods ascending and in list order within a period.
pub(crate) type Selected = (u32, u32, Pick);

/// One epoch the walk yields: a hot epoch, whose curve is memoised on first
/// read, a compacted period's decoded report, or a cold record's encoded
/// epoch; the last two are reconstructed on every read.
/// `WindowSeries::accumulate_curve` over a reconstruction and
/// `accumulate_report` over either form are bit-identical for the same
/// epoch, so a series built from any mix of tiers equals the all-hot (and
/// the pre-index rescan) result exactly.
enum Epoch<'a> {
    /// A hot-tier epoch: accumulate its memo, filling it first if empty.
    Hot {
        report: &'a BucketReport,
        memo: &'a Memo,
    },
    /// A compacted-tier epoch: reconstruct from the decoded report.
    Raw(&'a BucketReport),
    /// A cold-tier epoch: parse and reconstruct from the record bytes.
    Encoded(EncodedEpoch<'a>),
}

impl Epoch<'_> {
    /// The epoch as a decoded report, for tests that compare walks.
    #[cfg(test)]
    fn decode(&self) -> BucketReport {
        match self {
            Epoch::Hot { report, .. } | Epoch::Raw(report) => (*report).clone(),
            Epoch::Encoded(e) => e.decode().expect("the table accepted the record"),
        }
    }

    /// `(w0, padded_len)`, whichever tier the epoch came from.
    fn span(&self) -> (u64, usize) {
        match self {
            Epoch::Hot { report, .. } | Epoch::Raw(report) => report.span(),
            Epoch::Encoded(e) => e.span(),
        }
    }
}

/// One unindexed period as a selection reads it: a cold record, or a
/// compacted period's decoded report.
#[derive(Clone, Copy)]
enum Unindexed<'a> {
    Cold(&'a ColdPeriod),
    Compacted(&'a StoredPeriod),
}

impl<'a> Unindexed<'a> {
    #[cfg(test)]
    fn heavy_len(self) -> usize {
        match self {
            Unindexed::Cold(c) => c.heavy_len(),
            Unindexed::Compacted(sp) => sp.report.report.heavy.len(),
        }
    }

    fn heavy_key(self, i: usize) -> &'a [u8] {
        match self {
            Unindexed::Cold(c) => c.heavy_key(i),
            Unindexed::Compacted(sp) => &sp.report.report.heavy[i].0,
        }
    }

    /// The light columns of the period's heavy keys.
    fn heavy_cols(self) -> &'a HeavyCols {
        match self {
            Unindexed::Cold(c) => &c.cols,
            Unindexed::Compacted(sp) => &sp.cols,
        }
    }

    fn light_len(self) -> usize {
        match self {
            Unindexed::Cold(c) => c.light_len(),
            Unindexed::Compacted(sp) => sp.report.report.light.len(),
        }
    }

    fn light_tag(self, i: usize) -> (u32, u32) {
        match self {
            Unindexed::Cold(c) => c.light_tag(i),
            Unindexed::Compacted(sp) => {
                let (row, col, _) = sp.report.report.light[i];
                (row, col)
            }
        }
    }

    /// The epochs of entry `i` that `pick` reads: a light bucket's for
    /// `Light`, a heavy key's for `Heavy` and `Colliding`.
    fn epochs(self, pick: Pick, i: usize, f: &mut dyn FnMut(Epoch<'a>)) {
        let light = matches!(pick, Pick::Light(..));
        match self {
            Unindexed::Cold(c) if light => c.light_epochs(i).for_each(|e| f(Epoch::Encoded(e))),
            Unindexed::Cold(c) => c.heavy_epochs(i).for_each(|e| f(Epoch::Encoded(e))),
            Unindexed::Compacted(sp) => entry(sp, pick, i).iter().for_each(|b| f(Epoch::Raw(b))),
        }
    }
}

/// The epochs of entry `i` of `sp` that `pick` reads: a light bucket's for
/// `Light`, a heavy key's for `Heavy` and `Colliding`.
fn entry(sp: &StoredPeriod, pick: Pick, i: usize) -> &[BucketReport] {
    match pick {
        Pick::Light(..) => &sp.report.report.light[i].2,
        Pick::Heavy(_) | Pick::Colliding(..) => &sp.report.report.heavy[i].1,
    }
}

/// One host's stored periods as one query sees them: the cold records
/// fetched for it, the resident store (compacted below `hot_floor`, hot
/// from it on), the index over the hot part and a flow query's selection
/// over the rest.
struct HostView<'a> {
    cold: &'a [Rc<ColdPeriod>],
    store: Option<&'a BTreeMap<u64, StoredPeriod>>,
    hot_floor: u64,
    hidx: Option<&'a HostIndex>,
    /// What [`Self::select`] recorded for the query.
    selected: &'a [Selected],
    /// The index's count of memos filled by queries.
    built: &'a Cell<u64>,
}

impl<'a> HostView<'a> {
    /// The unindexed periods in visit order: cold, then compacted.
    fn unindexed(&self) -> impl Iterator<Item = Unindexed<'a>> + 'a {
        let hot_floor = self.hot_floor;
        let compacted =
            (self.store.into_iter()).flat_map(move |s| s.range(..hot_floor).map(|(_, sp)| sp));
        let cold = self.cold.iter().map(|rc| Unindexed::Cold(rc));
        cold.chain(compacted.map(Unindexed::Compacted))
    }

    /// The selection pass for the flow `packed`, whose light column at row
    /// `r` is `cols[r]`: records into `out`, in walk order, every unindexed
    /// entry one of its picks reads, and makes that record the one
    /// [`Self::walk`] filters. Each period's heavy list is scanned once —
    /// the flow's own key is `Heavy`, any other key is `Colliding` at every
    /// row where its stored column equals the flow's — and so is its light
    /// list, where the flow's column of each row is `Light`. Nothing is
    /// hashed: the period placed its keys when it entered its tier, and one
    /// pass per row over that row's stored columns marks in `hits` the keys
    /// that share the flow's column somewhere. A key that shares none can be
    /// neither the flow's own key nor collide with it, so only the marked
    /// few are compared, in place in the record bytes for a cold period.
    fn select(
        &mut self,
        packed: &[u8; 13],
        cols: &[u32],
        hits: &mut Vec<u8>,
        out: &'a mut Vec<Selected>,
    ) {
        out.clear();
        for (period, p) in (0u32..).zip(self.unindexed()) {
            let heavy = p.heavy_cols();
            hits.clear();
            hits.resize(heavy.keys(), 0);
            for (row, &own) in cols.iter().enumerate() {
                for (hit, &col) in hits.iter_mut().zip(heavy.row(row)) {
                    *hit |= u8::from(col == own);
                }
            }
            for (i, _) in (0u32..).zip(hits.iter()).filter(|&(_, &hit)| hit != 0) {
                if p.heavy_key(i as usize) == packed {
                    out.push((period, i, Pick::Heavy(*packed)));
                    continue;
                }
                for (row, (col, &own)) in (0u32..).zip(heavy.of(i as usize).zip(cols)) {
                    if col == own {
                        out.push((period, i, Pick::Colliding(row, col, *packed)));
                    }
                }
            }
            for i in 0..p.light_len() {
                let (row, col) = p.light_tag(i);
                if cols[row as usize] == col {
                    out.push((period, i as u32, Pick::Light(row, col)));
                }
            }
        }
        self.selected = out;
    }

    /// Yields every stored epoch `pick` selects, in the module's visit
    /// order: the selection's cold and compacted entries, then hot refs.
    /// `pick` must be one of the picks of the flow the selection was made
    /// for; any other finds nothing in the unindexed tiers.
    fn walk(&self, pick: Pick, f: &mut dyn FnMut(Epoch<'a>)) {
        let mut selected = self.selected;
        for (period, p) in (0u32..).zip(self.unindexed()) {
            if selected.is_empty() {
                break;
            }
            let here = selected.partition_point(|s| s.0 <= period);
            for &(_, i, _) in selected[..here].iter().filter(|s| s.2 == pick) {
                p.epochs(pick, i as usize, f);
            }
            selected = &selected[here..];
        }
        let (Some(store), Some(hidx)) = (self.store, self.hidx) else {
            return;
        };
        // Hot periods: the index resolved the pick to ordered refs at ingest.
        let refs = match pick {
            Pick::Heavy(key) => hidx.heavy.get(&key),
            Pick::Light(row, col) => hidx.light.get(&(row, col)),
            Pick::Colliding(row, col, _) => hidx.heavy_by_col.get(&(row, col)),
        };
        for &(period, i) in refs.map_or(&[][..], Vec::as_slice) {
            let (Some(sp), Some(curves)) = (store.get(&period), hidx.curves.get(&period)) else {
                continue;
            };
            let i = i as usize;
            let memos = match pick {
                Pick::Light(..) => &curves.light[i],
                // The subtraction refs still hold the queried flow's own key.
                Pick::Colliding(.., except) if sp.report.report.heavy[i].0 == except => continue,
                Pick::Heavy(_) | Pick::Colliding(..) => &curves.heavy[i],
            };
            for (report, memo) in entry(sp, pick, i).iter().zip(memos.iter()) {
                f(Epoch::Hot { report, memo });
            }
        }
    }

    /// The curve `pick` sums, into `out`, in two walks: the first finds the
    /// union span, the second resets `out` to it and accumulates each epoch
    /// in visit order. `false` (and `out` empty) when the pick selects
    /// nothing, matching `WindowSeries::from_reports(&[]) == None`; an epoch
    /// with an empty curve still counts (degenerate heavy records anchor
    /// coverage). Each hot memo this fills adds one to `built`.
    fn series(&self, pick: Pick, out: &mut WindowSeries, recon: &mut ReconstructScratch) -> bool {
        let (mut start, mut end, mut any) = (u64::MAX, 0u64, false);
        self.walk(pick, &mut |e| {
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
        self.walk(pick, &mut |e| match e {
            Epoch::Hot { report, memo } => {
                let curve = memo.get_or_init(|| {
                    self.built.set(self.built.get() + 1);
                    report.reconstruct_with(recon).into()
                });
                out.accumulate_curve(report.w0, curve);
            }
            Epoch::Raw(r) => out.accumulate_report(r, recon),
            Epoch::Encoded(e) => out.accumulate_report(e, recon),
        });
        true
    }
}

impl Analyzer {
    /// `host`'s periods for one query, or `None` if the analyzer holds
    /// nothing for the host. Fetches the host's cold records into `cold`
    /// once, so every walk of the query sees identical epochs. A flow query
    /// then makes its selection ([`HostView::select`]).
    fn host_view<'a>(
        &'a self,
        host: usize,
        cold: &'a mut Vec<Rc<ColdPeriod>>,
    ) -> Option<HostView<'a>> {
        let floors = self.floors.get(&host).copied().unwrap_or_default();
        match &self.cold {
            Some(c) => c.fetch_below(host, floors.evict_floor, cold),
            None => cold.clear(),
        }
        let store = self.reports.get(&host);
        let hidx = self.index.host(host);
        if store.is_none() && hidx.is_none() && cold.is_empty() {
            return None;
        }
        Some(HostView {
            cold,
            store,
            hot_floor: floors.hot_floor,
            hidx,
            selected: &[],
            built: self.index.epochs_built(),
        })
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
        let QueryScratch {
            light_best,
            light_cand,
            heavy_sub,
            heavy,
            starts,
            recon,
            cold,
            selected,
            cols,
            hits,
            ..
        } = scratch;
        let cfg = &self.sketch_config;
        let at = cfg.place(&FlowKey::from_id(flow_id));
        let packed = *at.packed();
        cols.clear();
        cols.extend((0..cfg.rows).map(|row| cfg.light_col_placed(&at, row) as u32));
        let mut view = self.host_view(host, cold)?;
        view.select(&packed, cols, hits, selected);
        // The heavy part is exact within its epochs but misses any history
        // from before the flow's election, so it is overlaid onto the
        // light-part estimate rather than used alone.
        let has_heavy = view.series(Pick::Heavy(packed), heavy, recon);
        // The light part: per row, the flow's bucket minus the heavy flows
        // that share it, keeping the minimum-total row.
        let mut has_light = false;
        for (row, &col) in (0u32..).zip(cols.iter()) {
            if !view.series(Pick::Light(row, col), light_cand, recon) {
                continue;
            }
            if view.series(Pick::Colliding(row, col, packed), heavy_sub, recon) {
                light_cand.subtract_clamped(heavy_sub);
            }
            if !has_light || light_cand.total() < light_best.total() {
                std::mem::swap(light_best, light_cand);
                has_light = true;
            }
        }
        if !has_heavy {
            return has_light.then_some(light_best);
        }
        if !has_light {
            return Some(heavy);
        }
        // Each heavy epoch's opening window may be partial (the flow's
        // packets in that window before it took the slot were counted
        // light-only): keep the larger source there. Both upper-bound the
        // truth. The openings come from the same walk, reconstructing
        // nothing.
        starts.clear();
        view.walk(Pick::Heavy(packed), &mut |e| {
            let w = e.span().0;
            starts.push((w, light_best.at(w)));
        });
        light_best.overlay(heavy);
        for &(w, lv) in starts.iter() {
            // A heavy epoch can start before the light series when the
            // covering light period was lost in collection — extend the
            // series instead of underflowing the index.
            light_best.extend_to_cover(w);
            let idx = (w - light_best.start_window) as usize;
            light_best.values[idx] = light_best.values[idx].max(lv);
        }
        Some(light_best)
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
    /// [`Self::flow_curve_with`] for the borrowing rules. Sums one row-0
    /// series per stored period (see the module docs), building each on the
    /// period's first host-rate read.
    pub fn host_rate_curve_with<'a>(
        &self,
        host: usize,
        scratch: &'a mut QueryScratch,
    ) -> Option<&'a WindowSeries> {
        let QueryScratch {
            rate, recon, cold, ..
        } = scratch;
        let view = self.host_view(host, cold)?;
        // First pass: every period's series, built if this is its first
        // read, and their union span. A cold period's new series is charged
        // to the cold cache that holds its record.
        let (mut start, mut end, mut any) = (u64::MAX, 0u64, false);
        let mut read = |(series, built): (Option<&WindowSeries>, bool)| {
            if let Some(s) = series {
                any = true;
                start = start.min(s.start_window);
                end = end.max(s.end_window());
            }
            if built {
                let n = self.index.row0_series_built();
                n.set(n.get() + 1);
            }
            built
        };
        let cold_store = self.cold.as_ref();
        for rc in view.cold {
            if read(rc.row0(recon)) {
                cold_store
                    .expect("cold periods come from the cold store")
                    .charge_row0(host, rc);
            }
        }
        let resident = || view.store.into_iter().flat_map(BTreeMap::values);
        for sp in resident() {
            read(sp.row0(recon));
        }
        if !any {
            rate.reset(0, 0);
            return None;
        }
        // Second pass: accumulate the series in visit order. Accumulation
        // sums overlapping series — exactly what aggregating different
        // buckets over the same timeline needs.
        rate.reset(start, (end - start) as usize);
        let cold = view.cold.iter().filter_map(|rc| rc.row0_built());
        for s in cold.chain(resident().filter_map(StoredPeriod::row0_built)) {
            rate.accumulate_curve(s.start_window, &s.values);
        }
        Some(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{agent_config, contested_reports, contested_reports_rows};
    use super::*;
    use crate::host_agent::{HostAgent, PeriodReport};
    use crate::query_index::unpack_key;
    use crate::retention::RetentionPolicy;
    use wavesketch::{Placement, SketchConfig};

    /// The selection as it was before stored periods carried their heavy
    /// keys' columns: every other heavy key is placed afresh
    /// (`place_packed`) on every query. [`HostView::select`] must record
    /// exactly this list.
    fn select_by_placing(view: &HostView, cfg: &SketchConfig, at: &Placement) -> Vec<Selected> {
        let mut out = Vec::new();
        let packed = *at.packed();
        for (period, p) in (0u32..).zip(view.unindexed()) {
            for i in 0..p.heavy_len() {
                let key: &[u8; 13] =
                    (p.heavy_key(i).try_into()).expect("ingest admits 13-byte keys");
                let i = i as u32;
                if *key == packed {
                    out.push((period, i, Pick::Heavy(packed)));
                    continue;
                }
                let other = cfg.place_packed(key);
                for row in 0..cfg.rows {
                    let col = cfg.light_col_placed(at, row);
                    if cfg.light_col_placed(&other, row) == col {
                        out.push((period, i, Pick::Colliding(row as u32, col as u32, packed)));
                    }
                }
            }
            for i in 0..p.light_len() {
                let (row, col) = p.light_tag(i);
                if cfg.light_col_placed(at, row as usize) as u32 == col {
                    out.push((period, i as u32, Pick::Light(row, col)));
                }
            }
        }
        out
    }

    /// Runs `view`'s selection for `flow` and checks it against
    /// [`select_by_placing`].
    fn select_checked<'a>(
        view: &mut HostView<'a>,
        cfg: &SketchConfig,
        flow: u64,
        selected: &'a mut Vec<Selected>,
    ) -> Placement {
        let at = cfg.place(&FlowKey::from_id(flow));
        let cols: Vec<u32> = (0..cfg.rows)
            .map(|row| cfg.light_col_placed(&at, row) as u32)
            .collect();
        view.select(at.packed(), &cols, &mut Vec::new(), selected);
        let want = select_by_placing(view, cfg, &at);
        assert_eq!(view.selected, &want[..], "flow {flow}");
        at
    }

    /// Reference implementation of the pre-index query paths: linear rescans
    /// of every stored period, exactly as `flow_curve` worked before the
    /// ingest-time index. The indexed paths must stay bit-identical to this
    /// under any ingest order.
    mod rescan_reference {
        use super::*;

        /// Every epoch `pick` selects from `host`'s stored reports, periods
        /// ascending and drain order within a period.
        pub fn select(a: &Analyzer, host: usize, pick: Pick) -> Vec<BucketReport> {
            let cfg = &a.sketch_config;
            let mut out = Vec::new();
            for sp in a.reports.get(&host).into_iter().flat_map(BTreeMap::values) {
                let report = &sp.report.report;
                let (light, heavy) = (report.light.iter(), report.heavy.iter());
                let picked: Vec<&Vec<BucketReport>> = match pick {
                    Pick::Heavy(key) => heavy.filter(|(k, _)| *k == key).map(|e| &e.1).collect(),
                    Pick::Colliding(row, col, except) => (heavy.filter(|(k, _)| *k != except))
                        .filter(|(k, _)| cfg.light_col(&unpack_key(k), row as usize) as u32 == col)
                        .map(|e| &e.1)
                        .collect(),
                    Pick::Light(row, col) => (light.filter(|(r, c, _)| *r == row && *c == col))
                        .map(|e| &e.2)
                        .collect(),
                };
                out.extend(picked.into_iter().flatten().cloned());
            }
            out
        }

        pub fn flow_curve(a: &Analyzer, host: usize, flow_id: u64) -> Option<WindowSeries> {
            a.reports.get(&host)?;
            let key = FlowKey::from_id(flow_id);
            let heavy_reports = select(a, host, Pick::Heavy(key.pack()));
            if !heavy_reports.is_empty() {
                let heavy = WindowSeries::from_reports(&heavy_reports);
                let light = light_with_subtraction(a, host, &key);
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
            light_with_subtraction(a, host, &key)
        }

        fn light_with_subtraction(
            a: &Analyzer,
            host: usize,
            key: &FlowKey,
        ) -> Option<WindowSeries> {
            let cfg = &a.sketch_config;
            let mut best: Option<WindowSeries> = None;
            for row in 0..cfg.rows {
                let col = cfg.light_col(key, row) as u32;
                let row = row as u32;
                let light = select(a, host, Pick::Light(row, col));
                let Some(mut series) = WindowSeries::from_reports(&light) else {
                    continue;
                };
                let colliding = select(a, host, Pick::Colliding(row, col, key.pack()));
                if let Some(hseries) = WindowSeries::from_reports(&colliding) {
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

        /// Every row-0 light epoch of `report`, in list order.
        pub fn row0(report: &PeriodReport) -> Vec<BucketReport> {
            let light = report.report.light.iter();
            (light.filter(|(r, _, _)| *r == 0))
                .flat_map(|e| e.2.iter().cloned())
                .collect()
        }

        /// The host rate as one series over every row-0 epoch of every
        /// stored period, periods ascending.
        pub fn host_rate_curve(a: &Analyzer, host: usize) -> Option<WindowSeries> {
            let store = a.reports.get(&host)?;
            let epochs: Vec<BucketReport> =
                (store.values()).flat_map(|sp| row0(&sp.report)).collect();
            WindowSeries::from_reports(&epochs)
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

    /// Tentpole equivalence: the indexed query engine is bit-identical to a
    /// linear rescan of the stores, including under out-of-order delivery,
    /// redelivered duplicates and interleaved ingest/query (the index must
    /// be coherent after every batch, not just at the end). Two schedules,
    /// each on a fresh all-hot analyzer and a fresh archive-backed
    /// `bounded(1, 2)` twin whose host rates are checked too:
    ///
    /// * the first delivers every report reversed, in two batches, then
    ///   redelivers everything. Reports are listed host by host, so the
    ///   first batch gives host 1 its periods 3 and 2 only, and its periods
    ///   1 and 0 arrive after those were queried: an older period reaching
    ///   an index whose newer periods were already read and memoised (on
    ///   the twin, below the eviction floor, so straight into the cold
    ///   tier, whose next read must see them);
    /// * the second delivers three waves of periods ({1, 0}, {2}, {3}), each
    ///   reversed, then redelivers everything. Between waves the twin's
    ///   floors advance, so a row-0 series built while its period was hot is
    ///   read next while the period is compacted, then from the cold tier,
    ///   which reads the record afresh and must rebuild its series, never
    ///   reuse the one eviction dropped.
    #[test]
    fn indexed_queries_match_rescan_reference_under_hostile_ingest() {
        let (cfg, reports) = contested_reports(3, 150);
        assert!(
            reports.iter().any(|r| !r.report.heavy.is_empty()),
            "workload must contest the heavy part"
        );
        assert_eq!(reports.iter().map(|r| r.period).max(), Some(3));
        let reversed: Vec<PeriodReport> = reports.iter().rev().cloned().collect();
        let mid = reversed.len() / 2;
        let wave = |periods: std::ops::Range<u64>| -> Vec<PeriodReport> {
            let mut w = reversed.clone();
            w.retain(|r| periods.contains(&r.period));
            w
        };
        // Each schedule's batches, and the row-0 series the twin's queries
        // build after each batch (over all three hosts). Split: the first
        // batch builds host 2's four and host 1's periods 3 and 2; the
        // second host 1's late periods 1 and 0 and host 0's four; the
        // redelivery none. Waves, per host: wave {1, 0} builds hot 1 and
        // compacted 0; wave {2} builds 2 and rebuilds 0 from the cold tier,
        // reusing compacted 1's; wave {3} builds 3 and rebuilds 1, reusing
        // 0's (cached) and 2's; the redelivery builds none.
        let schedules = [
            (
                "split",
                vec![
                    reversed[..mid].to_vec(),
                    reversed[mid..].to_vec(),
                    reports.clone(),
                ],
                vec![6, 6, 0],
            ),
            (
                "waves",
                vec![wave(0..2), wave(2..3), wave(3..4), reports.clone()],
                vec![6, 6, 6, 0],
            ),
        ];
        let mut scratch = QueryScratch::new();
        for (name, batches, builds) in schedules {
            let mut analyzer = Analyzer::new(cfg.sketch.clone());
            let dir = std::env::temp_dir()
                .join(format!("umon_hostile_twin_{name}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut tiered =
                Analyzer::with_archive(cfg.sketch.clone(), RetentionPolicy::bounded(1, 2), &dir)
                    .expect("open archive");
            for (b, batch) in batches.into_iter().enumerate() {
                analyzer.add_reports(batch.clone());
                tiered.add_reports(batch);
                let built = tiered.retention_stats().row0_series_built;
                for host in 0..3 {
                    for flow in 0..24u64 {
                        let want = rescan_reference::flow_curve(&analyzer, host, flow);
                        let got = analyzer.flow_curve_with(host, flow, &mut scratch).cloned();
                        assert_eq!(got, want, "{name} batch {b} host {host} flow {flow}");
                    }
                    let want = rescan_reference::host_rate_curve(&analyzer, host);
                    let what = format!("{name} batch {b} host {host} rate");
                    let got = analyzer.host_rate_curve_with(host, &mut scratch).cloned();
                    assert_bits_eq(got.as_ref(), want.as_ref(), &what);
                    let got = tiered.host_rate_curve_with(host, &mut scratch).cloned();
                    assert_bits_eq(got.as_ref(), want.as_ref(), &format!("twin: {what}"));
                }
                let s = tiered.retention_stats();
                assert_eq!(s.row0_series_built - built, builds[b], "{name} batch {b}");
                assert_eq!(s.cold_read_errors, 0);
            }
            assert_eq!(analyzer.ingest_stats().duplicates, reports.len() as u64);
            assert_eq!(tiered.ingest_stats().duplicates, reports.len() as u64);
            let s = tiered.retention_stats();
            assert!(s.compacted_periods + s.compacted_on_arrival > 0, "{name}");
            assert!(s.evicted_periods + s.stale_archived > 0, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Every stored period carries each heavy key's light column per row,
    /// equal to the column placed afresh from the unpacked key, in every
    /// tier: hot, compacted, lossy-trimmed (a trim drops coefficients, not
    /// keys) and cold (placed at the cache miss). `rows` runs to 5, past the
    /// four rows a placement pre-hashes, so the fallback that hashes a row on
    /// demand is covered too. At each row count the selection also matches
    /// the one that places every key afresh, and the tiered curves match an
    /// unbounded analyzer's.
    #[test]
    fn stored_heavy_columns_match_a_fresh_placement_in_every_tier() {
        fn check(cfg: &SketchConfig, r: &PeriodReport, cols: &HeavyCols, what: &str) {
            for (i, (k, _)) in r.report.heavy.iter().enumerate() {
                let want = (0..cfg.rows).map(|row| cfg.light_col(&unpack_key(k), row) as u32);
                assert!(cols.of(i).eq(want), "{what} period {} key {i}", r.period);
            }
        }
        let mut selected = Vec::new();
        for rows in 1..=5 {
            let (cfg, reports) = contested_reports_rows(rows, 2, 250);
            let cfg = cfg.sketch;
            assert!(reports.iter().any(|r| !r.report.heavy.is_empty()));
            let mut hot = Analyzer::new(cfg.clone());
            hot.add_reports(reports.clone());
            let policy = RetentionPolicy::bounded(1, u64::MAX).with_lossy_floor(1);
            let mut trimmed = Analyzer::with_retention(cfg.clone(), policy);
            trimmed.add_reports(reports.clone());
            assert!(trimmed.retention_stats().lossy_trimmed_details > 0);
            let dir =
                std::env::temp_dir().join(format!("umon_heavy_cols_{rows}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut tiered =
                Analyzer::with_archive(cfg.clone(), RetentionPolicy::bounded(1, 3), &dir)
                    .expect("open archive");
            tiered.add_reports(reports.clone());
            for (what, a) in [("hot", &hot), ("trimmed", &trimmed), ("tiered", &tiered)] {
                for sp in a.reports.values().flat_map(BTreeMap::values) {
                    check(&cfg, &sp.report, &sp.cols, &format!("rows {rows} {what}"));
                }
            }
            let mut cold = Vec::new();
            for host in 0..2 {
                let view = tiered.host_view(host, &mut cold).expect("host measured");
                assert!(
                    !view.cold.is_empty(),
                    "rows {rows} host {host} has cold periods"
                );
                for c in view.cold {
                    check(&cfg, &c.decode(), &c.cols, &format!("rows {rows} cold"));
                }
                for flow in 0..24u64 {
                    let mut view = tiered.host_view(host, &mut cold).expect("host measured");
                    select_checked(&mut view, &cfg, flow, &mut selected);
                    let got = tiered.flow_curve(host, flow);
                    assert_eq!(got, hot.flow_curve(host, flow), "rows {rows} flow {flow}");
                }
            }
            assert_eq!(tiered.retention_stats().cold_read_errors, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The visit order, across all three tiers. Comparing curves by `f64`
    /// bits cannot see an ordering bug: reconstructions of integer byte
    /// counts are dyadic rationals, and summing them is exact in any order.
    /// So for each flow pick this compares the epoch sequence its walk
    /// yields, through the selection each real flow query builds, with the
    /// rescan reference's selection over an unbounded twin; and for the host
    /// rate it compares every cold, compacted and hot period's row-0 series
    /// with one built from that period's row-0 entries in list order. Each
    /// selection is also checked against the one that placed every heavy
    /// key afresh ([`select_by_placing`]). Every
    /// period of host 0 also holds two shapes `fits_config` admits but no
    /// drain produces: a row-0 light bucket listed twice and a heavy key
    /// listed twice.
    #[test]
    fn walk_visits_cold_then_compacted_then_hot_for_every_pick() {
        let (cfg, mut reports) = contested_reports(2, 250);
        for r in reports.iter_mut().filter(|r| r.host == 0) {
            let (light, heavy) = (&mut r.report.light, &mut r.report.heavy);
            assert!(
                !light.is_empty() && !heavy.is_empty(),
                "period {}",
                r.period
            );
            assert_eq!(light[0].0, 0, "the doubled light bucket is in row 0");
            light.push(light[0].clone());
            heavy.push(heavy[0].clone());
        }
        let dir = std::env::temp_dir().join(format!("umon_walk_order_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());
        let mut tiered =
            Analyzer::with_archive(cfg.sketch.clone(), RetentionPolicy::bounded(1, 3), &dir)
                .expect("open archive");
        tiered.add_reports(reports);
        assert_eq!(tiered.ingest_stats().mismatched, 0);

        // Whether entry `i` of a light or heavy list repeats its list's
        // first tag (only a doubled entry does: a drain lists each bucket
        // and key once).
        let repeats_first = |p: Unindexed, light: bool, i: usize| {
            i > 0
                && if light {
                    p.light_tag(i) == p.light_tag(0)
                } else {
                    p.heavy_key(i) == p.heavy_key(0)
                }
        };
        // Each pick's walk against the reference; returns how many of the
        // unindexed entries it read repeat their list's first tag.
        let check = |view: &HostView, host: usize, pick: Pick| -> usize {
            let mut got = Vec::new();
            view.walk(pick, &mut |e| got.push(e.decode()));
            assert_eq!(
                got,
                rescan_reference::select(&unbounded, host, pick),
                "host {host} {pick:?}"
            );
            let periods: Vec<Unindexed> = view.unindexed().collect();
            (view.selected.iter().filter(|s| s.2 == pick))
                .filter(|&&(p, i, _)| {
                    let light = matches!(pick, Pick::Light(..));
                    repeats_first(periods[p as usize], light, i as usize)
                })
                .count()
        };
        let (mut cold, mut selected) = (Vec::new(), Vec::new());
        let mut recon = ReconstructScratch::new();
        for host in 0..2 {
            let view = tiered.host_view(host, &mut cold).expect("host measured");
            let store = view.store.expect("resident periods");
            assert!(!view.cold.is_empty(), "host {host} has cold periods");
            assert!(
                store.range(..view.hot_floor).next().is_some(),
                "and compacted"
            );
            assert!(store.range(view.hot_floor..).next().is_some(), "and hot");
            let mut doubled = 0;
            let cold_series = view
                .cold
                .iter()
                .map(|c| (c.decode(), c.row0(&mut recon).0.cloned()));
            let cold_series: Vec<_> = cold_series.collect();
            let resident = store
                .values()
                .map(|sp| (sp.report.clone(), sp.row0(&mut recon).0.cloned()));
            let resident: Vec<_> = resident.collect();
            for (r, got) in cold_series.iter().chain(&resident) {
                let want = WindowSeries::from_reports(&rescan_reference::row0(r));
                let what = format!("host {host} period {} row-0 series", r.period);
                assert_bits_eq(got.as_ref(), want.as_ref(), &what);
                let light = &r.report.light;
                doubled += (1..light.len())
                    .filter(|&i| {
                        light[i].0 == 0 && (light[i].0, light[i].1) == (light[0].0, light[0].1)
                    })
                    .count();
            }
            for flow in 0..24u64 {
                let mut view = tiered.host_view(host, &mut cold).expect("host measured");
                let at = select_checked(&mut view, &cfg.sketch, flow, &mut selected);
                let packed = *at.packed();
                doubled += check(&view, host, Pick::Heavy(packed));
                for row in 0..cfg.sketch.rows {
                    let col = cfg.sketch.light_col_placed(&at, row) as u32;
                    doubled += check(&view, host, Pick::Light(row as u32, col));
                    doubled += check(&view, host, Pick::Colliding(row as u32, col, packed));
                }
            }
            assert_eq!(
                doubled > 0,
                host == 0,
                "host {host} read {doubled} doubled entries"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
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

        // Every host-rate call reads each cold record afresh, so it builds
        // each cold period's series again; resident periods keep theirs.
        let (cold, resident) = {
            let cov = thrashing.host_coverage(0);
            (cov.archived.len() as u64, cov.periods.len() as u64)
        };
        assert!(cold > 0);
        let want = unbounded.host_rate_curve(0);
        let mut scratch = QueryScratch::new();
        for call in 0..3 {
            for flow in 0..24u64 {
                assert_eq!(thrashing.flow_curve(0, flow), unbounded.flow_curve(0, flow));
            }
            let built = thrashing.retention_stats().row0_series_built;
            let got = thrashing.host_rate_curve_with(0, &mut scratch);
            assert_bits_eq(got, want.as_ref(), &format!("call {call}"));
            let rebuilt = thrashing.retention_stats().row0_series_built - built;
            assert_eq!(rebuilt, cold + if call == 0 { resident } else { 0 });
        }
        let s = thrashing.retention_stats();
        assert_eq!(s.cold_hits, 0, "nothing fits, nothing can hit");
        assert!(s.cold_misses > 0);
        assert_eq!(s.cold_read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cold cache charges exactly what it holds — each cached record's
    /// payload, entry table, heavy-key columns (one `u32` per key and row)
    /// and built row-0 series — through misses, hits, series builds and
    /// evictions, under a budget of a few records.
    #[test]
    fn cold_cache_charges_the_bytes_it_holds() {
        let (cfg, reports) = contested_reports(2, 400);
        let dir = std::env::temp_dir().join(format!("umon_cold_charge_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Room for host 0's cold records (its periods but the newest two)
        // and half as much again: each host's sweep hits, the other host's
        // evicts.
        let newest = reports.iter().map(|r| r.period).max().expect("reports");
        let host0_cold = (reports.iter()).filter(|r| r.host == 0 && r.period + 2 <= newest);
        let held = host0_cold.map(|r| ColdPeriod::new(r.encode().into(), &cfg.sketch).unwrap());
        let budget = 3 * held.map(|c| c.held_bytes()).sum::<usize>() / 2;
        let policy = RetentionPolicy::bounded(1, 2).with_cold_cache_bytes(budget);
        let mut tiered = Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("archive");
        tiered.add_reports(reports.clone());
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports);
        let cold_periods: usize = (0..2).map(|h| tiered.host_coverage(h).archived.len()).sum();
        assert!(cold_periods > 6, "more cold periods than the cache holds");
        let mut scratch = QueryScratch::new();
        for sweep in 0..2 {
            for host in 0..2 {
                for flow in 0..24u64 {
                    let got = tiered.flow_curve_with(host, flow, &mut scratch).cloned();
                    assert_eq!(
                        got,
                        unbounded.flow_curve(host, flow),
                        "{sweep} {host} {flow}"
                    );
                }
                let got = tiered.host_rate_curve_with(host, &mut scratch).cloned();
                let want = unbounded.host_rate_curve(host);
                assert_bits_eq(got.as_ref(), want.as_ref(), &format!("{sweep} {host} rate"));
                let cold = tiered.cold.as_ref().expect("archive-backed");
                let (held, entries, cols) = cold.held_bytes();
                assert!(entries > 0, "the cache keeps what fits");
                assert!(cols > 0, "the cached records' heavy keys are placed");
                assert_eq!(cold.cached_bytes(), held, "sweep {sweep} host {host}");
                assert!(held <= budget, "{held} over budget");
            }
        }
        let s = tiered.retention_stats();
        assert!(s.cold_misses > cold_periods as u64, "entries were evicted");
        assert!(s.cold_hits > 0);
        assert_eq!(s.cold_read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Heap bytes of the row-0 series of `r`, from the reference.
    fn row0_bytes(r: &PeriodReport) -> usize {
        let series = WindowSeries::from_reports(&rescan_reference::row0(r));
        series.map_or(0, |s| s.values.len() * std::mem::size_of::<f64>())
    }

    /// A host-rate query builds one row-0 series per stored period and
    /// fills no per-bucket memo. A series lives exactly as long as its
    /// period's report in memory: compaction keeps it, eviction drops it,
    /// the cold tier rebuilds it from the record bytes it caches and charges
    /// it to the cache budget, and resident series are counted in their own
    /// residency figure.
    #[test]
    fn host_rate_builds_one_series_per_period_that_lives_with_its_report() {
        let (cfg, reports) = contested_reports(2, 250);
        let mut scratch = QueryScratch::new();

        // All hot: one series per period, no memo, nothing on a repeat.
        let mut hot = Analyzer::new(cfg.sketch.clone());
        hot.add_reports(reports.clone());
        let reserved = hot.residency().cached_bytes;
        for host in 0..2 {
            let periods = reports.iter().filter(|r| r.host == host).count() as u64;
            let before = hot.retention_stats();
            let first = hot.host_rate_curve_with(host, &mut scratch).cloned();
            let after = hot.retention_stats();
            assert_eq!(after.row0_series_built - before.row0_series_built, periods);
            assert_eq!(after.curve_epochs_built, before.curve_epochs_built);
            let again = hot.host_rate_curve_with(host, &mut scratch).cloned();
            assert_eq!(hot.retention_stats(), after, "a repeat builds nothing");
            let want = rescan_reference::host_rate_curve(&hot, host);
            assert_bits_eq(first.as_ref(), want.as_ref(), "first read");
            assert_bits_eq(again.as_ref(), want.as_ref(), "memoised read");
        }
        assert_eq!(memoised(&hot, 2).values().sum::<usize>(), 0);
        let r = hot.residency();
        assert_eq!(r.cached_bytes, reserved, "series are not index bytes");
        assert_eq!(r.row0_series_bytes, reports.iter().map(row0_bytes).sum());

        // Tiered, one period at a time, against an all-hot twin fed alike.
        let dir = std::env::temp_dir().join(format!("umon_row0_life_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tiered =
            Analyzer::with_archive(cfg.sketch.clone(), RetentionPolicy::bounded(1, 2), &dir)
                .expect("open archive");
        let mut twin = Analyzer::new(cfg.sketch.clone());
        let mut by_period: BTreeMap<u64, Vec<PeriodReport>> = BTreeMap::new();
        for r in &reports {
            by_period.entry(r.period).or_default().push(r.clone());
        }
        assert!(by_period.len() >= 4, "workload must outlast the horizons");
        for (&p, batch) in &by_period {
            tiered.add_reports(batch.clone());
            twin.add_reports(batch.clone());
            for host in 0..2 {
                let store = &tiered.reports[&host];
                // Compaction kept the series of the period the last query
                // read while hot; eviction took the older one's along.
                let built: Vec<(u64, bool)> = (store.iter())
                    .map(|(&q, sp)| (q, sp.row0_built().is_some()))
                    .collect();
                let want: Vec<(u64, bool)> = match p {
                    0 => vec![(0, false)],
                    p => vec![(p - 1, true), (p, false)],
                };
                assert_eq!(built, want, "host {host} after period {p}");

                // A flow query reads the newly cold period without building
                // its series; the host rate builds it and charges it to the
                // cache that holds the record.
                tiered.flow_curve_with(host, 0, &mut scratch);
                let cold = tiered.cold.as_ref().expect("archive-backed");
                let (bytes, count) = (cold.cached_bytes(), tiered.retention_stats());
                let got = tiered.host_rate_curve_with(host, &mut scratch).cloned();
                let want = twin.host_rate_curve(host);
                assert_bits_eq(got.as_ref(), want.as_ref(), &format!("host {host} {p}"));
                let newly_cold = (p >= 2).then(|| {
                    let r = reports.iter().find(|r| (r.host, r.period) == (host, p - 2));
                    r.expect("every host reports every period")
                });
                let builds = tiered.retention_stats().row0_series_built - count.row0_series_built;
                assert_eq!(builds, 1 + u64::from(newly_cold.is_some()));
                assert_eq!(
                    cold.cached_bytes() - bytes,
                    newly_cold.map_or(0, row0_bytes)
                );
            }
            let resident = reports.iter().filter(|r| r.period + 2 > p && r.period <= p);
            let r = tiered.residency();
            assert_eq!(r.row0_series_bytes, resident.map(row0_bytes).sum::<usize>());
        }
        assert_eq!(tiered.retention_stats().cold_read_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The lossy floor trims a period's epochs as it leaves the hot tier;
    /// the row-0 series summed from the untrimmed epochs goes with them, so
    /// the compacted period answers from what it now holds, exactly like a
    /// twin that never read it while hot.
    #[test]
    fn lossy_trim_drops_the_series_it_invalidates() {
        let (cfg, reports) = contested_reports(1, 250);
        let policy = RetentionPolicy::bounded(1, u64::MAX).with_lossy_floor(1);
        let mut read_while_hot = Analyzer::with_retention(cfg.sketch.clone(), policy);
        let mut scratch = QueryScratch::new();
        for r in &reports {
            read_while_hot.add_reports(vec![r.clone()]);
            read_while_hot.host_rate_curve_with(0, &mut scratch);
        }
        assert!(read_while_hot.retention_stats().lossy_trimmed_details > 0);
        let mut never_read = Analyzer::with_retention(cfg.sketch.clone(), policy);
        for r in &reports {
            never_read.add_reports(vec![r.clone()]);
        }
        let got = read_while_hot
            .host_rate_curve_with(0, &mut scratch)
            .cloned();
        let want = never_read.host_rate_curve(0);
        assert_bits_eq(got.as_ref(), want.as_ref(), "trimmed periods");
        let mut exact = Analyzer::new(cfg.sketch);
        exact.add_reports(reports);
        assert_ne!(want, exact.host_rate_curve(0), "the trim moves the rate");
    }
}
