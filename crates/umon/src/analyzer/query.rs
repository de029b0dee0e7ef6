//! Curve queries: §4.2's full-version flow query and §6's host rate, each a
//! sum of the stored epochs one [`Pick`] selects.
//!
//! A host's periods sit in three tiers: cold (evicted, read back from the
//! archive), compacted (resident, not indexed) and hot (indexed, curves
//! memoised on first read). [`HostView::walk`] is the one place that visits
//! them, and it visits in one order: periods ascending — so cold before
//! compacted before hot, every tier being strictly older than the next —
//! and drain order within a period. That is the order the pre-index rescan
//! summed `f64` reconstructions in; float addition is order-sensitive, so
//! keeping it keeps every curve bit-identical whatever the tier placement.

use super::{Analyzer, AnnotatedCurve};
use crate::host_agent::PeriodReport;
use crate::query_index::{unpack_key, HostIndex, Memo, QueryScratch};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use wavesketch::basic::WindowSeries;
use wavesketch::reconstruct::ReconstructScratch;
use wavesketch::{BucketReport, FlowKey, SketchConfig};

/// Which stored entries a curve sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    /// A flow's own heavy-part records, by packed key.
    Heavy([u8; 13]),
    /// Light bucket `(row, col)`.
    Light(u32, u32),
    /// The heavy records of every key other than the given one whose light
    /// column at `row` is `col`: what inflated light bucket `(row, col)`
    /// besides the queried flow, the §4.2 subtraction set.
    Colliding(u32, u32, [u8; 13]),
    /// Every row-0 light bucket. Each packet lands in row 0 exactly once,
    /// and heavy flows are counted in the light part too, so their sum is
    /// the host's traffic.
    Row0,
}

/// One epoch the walk yields, from either storage tier: a hot epoch, whose
/// curve is memoised on first read, or a raw wire report whose curve is
/// reconstructed on every read (compacted and cold).
/// `WindowSeries::accumulate_curve` over a reconstruction and
/// `accumulate_report` are bit-identical for the same epoch, so a series
/// built from any mix of tiers equals the all-hot (and the pre-index rescan)
/// result exactly.
enum Epoch<'a> {
    /// A hot-tier epoch: accumulate its memo, filling it first if empty.
    Hot {
        report: &'a BucketReport,
        memo: &'a Memo,
    },
    /// A compacted- or cold-tier epoch: reconstruct from the wire report.
    Raw(&'a BucketReport),
}

impl<'a> Epoch<'a> {
    /// The stored epoch, whichever tier it came from.
    fn report(&self) -> &'a BucketReport {
        match *self {
            Epoch::Hot { report, .. } | Epoch::Raw(report) => report,
        }
    }
}

/// One host's stored periods as one query sees them: the cold reports
/// fetched for it, the resident store (compacted below `hot_floor`, hot
/// from it on) and the index over the hot part.
struct HostView<'a> {
    cfg: &'a SketchConfig,
    cold: &'a [Rc<PeriodReport>],
    store: Option<&'a BTreeMap<u64, PeriodReport>>,
    hot_floor: u64,
    hidx: Option<&'a HostIndex>,
    /// The index's count of memos filled by queries.
    built: &'a Cell<u64>,
}

impl<'a> HostView<'a> {
    /// Yields every stored epoch `pick` selects, in the module's visit
    /// order: cold periods, then compacted ones, then hot refs.
    fn walk(&self, pick: Pick, f: &mut dyn FnMut(Epoch<'a>)) {
        let cfg = self.cfg;
        let hot_floor = self.hot_floor;
        let compacted =
            (self.store.into_iter()).flat_map(|s| s.range(..hot_floor).map(|(_, pr)| pr));
        for pr in self.cold.iter().map(|rc| &**rc).chain(compacted) {
            // Unindexed: test each stored entry, a collision re-derived from
            // its key (stack-only work — the fallback trades speed, not
            // memory). Plain loops per pick: this scan runs over every light
            // entry of every unindexed period, and iterator adaptors or one
            // fused test per entry measured 4–7 % slower compacted-tier flow
            // queries (DESIGN.md §11).
            let mut raw = |brs: &'a Vec<_>| brs.iter().for_each(|b| f(Epoch::Raw(b)));
            match pick {
                Pick::Heavy(key) => {
                    for (k, brs) in &pr.report.heavy {
                        if k.as_slice() == key.as_slice() {
                            raw(brs);
                        }
                    }
                }
                Pick::Light(row, col) => {
                    for (r, c, brs) in &pr.report.light {
                        if *r == row && *c == col {
                            raw(brs);
                        }
                    }
                }
                Pick::Colliding(row, col, except) => {
                    for (k, brs) in &pr.report.heavy {
                        if k.as_slice() == except.as_slice() {
                            continue;
                        }
                        if cfg.light_col(&unpack_key(k), row as usize) as u32 == col {
                            raw(brs);
                        }
                    }
                }
                Pick::Row0 => {
                    for (r, _, brs) in &pr.report.light {
                        if *r == 0 {
                            raw(brs);
                        }
                    }
                }
            }
        }
        let (Some(store), Some(hidx)) = (self.store, self.hidx) else {
            return;
        };
        // Hot periods: the index resolved the pick to ordered refs at ingest.
        let refs = match pick {
            Pick::Heavy(key) => hidx.heavy.get(&key),
            Pick::Light(row, col) => hidx.light.get(&(row, col)),
            Pick::Colliding(row, col, _) => hidx.heavy_by_col.get(&(row, col)),
            Pick::Row0 => Some(&hidx.row0),
        };
        for &(period, i) in refs.map_or(&[][..], Vec::as_slice) {
            let (Some(pr), Some(curves)) = (store.get(&period), hidx.curves.get(&period)) else {
                continue;
            };
            let i = i as usize;
            let (brs, memos) = match pick {
                Pick::Light(..) | Pick::Row0 => (&pr.report.light[i].2, &curves.light[i]),
                // The subtraction refs still hold the queried flow's own key.
                Pick::Colliding(.., except) if pr.report.heavy[i].0 == except => continue,
                Pick::Heavy(_) | Pick::Colliding(..) => (&pr.report.heavy[i].1, &curves.heavy[i]),
            };
            for (report, memo) in brs.iter().zip(memos.iter()) {
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
            let r = e.report();
            any = true;
            start = start.min(r.w0);
            end = end.max(r.w0 + r.padded_len as u64);
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
        });
        true
    }
}

impl Analyzer {
    /// `host`'s periods for one query, or `None` if the analyzer holds
    /// nothing for the host. Fetches the host's cold reports into `cold`
    /// once, so every walk of the query sees identical epochs.
    fn host_view<'a>(
        &'a self,
        host: usize,
        cold: &'a mut Vec<Rc<PeriodReport>>,
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
            cfg: &self.sketch_config,
            cold,
            store,
            hot_floor: floors.hot_floor,
            hidx,
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
            ..
        } = scratch;
        let view = self.host_view(host, cold)?;
        let key = FlowKey::from_id(flow_id);
        let packed = key.pack();
        // The heavy part is exact within its epochs but misses any history
        // from before the flow's election, so it is overlaid onto the
        // light-part estimate rather than used alone.
        let has_heavy = view.series(Pick::Heavy(packed), heavy, recon);
        // The light part: per row, the flow's bucket minus the heavy flows
        // that share it, keeping the minimum-total row.
        let mut has_light = false;
        for row in 0..self.sketch_config.rows {
            let col = self.sketch_config.light_col(&key, row) as u32;
            let row = row as u32;
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
            let w = e.report().w0;
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
    /// [`Self::flow_curve_with`] for the borrowing rules.
    pub fn host_rate_curve_with<'a>(
        &self,
        host: usize,
        scratch: &'a mut QueryScratch,
    ) -> Option<&'a WindowSeries> {
        let QueryScratch {
            rate, recon, cold, ..
        } = scratch;
        let view = self.host_view(host, cold)?;
        // Accumulation sums overlapping epochs — exactly what aggregating
        // different buckets over the same timeline needs.
        view.series(Pick::Row0, rate, recon).then_some(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{agent_config, contested_reports};
    use super::*;
    use crate::host_agent::HostAgent;
    use crate::retention::RetentionPolicy;

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
            for pr in a.reports.get(&host).into_iter().flat_map(BTreeMap::values) {
                let (light, heavy) = (pr.report.light.iter(), pr.report.heavy.iter());
                let picked: Vec<&Vec<BucketReport>> = match pick {
                    Pick::Heavy(key) => heavy.filter(|(k, _)| *k == key).map(|e| &e.1).collect(),
                    Pick::Colliding(row, col, except) => (heavy.filter(|(k, _)| *k != except))
                        .filter(|(k, _)| cfg.light_col(&unpack_key(k), row as usize) as u32 == col)
                        .map(|e| &e.1)
                        .collect(),
                    Pick::Light(row, col) => (light.filter(|(r, c, _)| *r == row && *c == col))
                        .map(|e| &e.2)
                        .collect(),
                    Pick::Row0 => light.filter(|(r, _, _)| *r == 0).map(|e| &e.2).collect(),
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

        pub fn host_rate_curve(a: &Analyzer, host: usize) -> Option<WindowSeries> {
            a.reports.get(&host)?;
            WindowSeries::from_reports(&select(a, host, Pick::Row0))
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

    /// The walk's visit order, per pick, across all three tiers. Comparing
    /// curves by `f64` bits cannot see an ordering bug: reconstructions of
    /// integer byte counts are dyadic rationals, and summing them is exact
    /// in any order. So this compares the epoch sequence itself with the
    /// rescan reference's selection over an unbounded twin.
    #[test]
    fn walk_visits_cold_then_compacted_then_hot_for_every_pick() {
        let (cfg, reports) = contested_reports(2, 250);
        let dir = std::env::temp_dir().join(format!("umon_walk_order_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());
        let mut tiered =
            Analyzer::with_archive(cfg.sketch.clone(), RetentionPolicy::bounded(1, 3), &dir)
                .expect("open archive");
        tiered.add_reports(reports);

        let mut cold = Vec::new();
        for host in 0..2 {
            let view = tiered.host_view(host, &mut cold).expect("host measured");
            let store = view.store.expect("resident periods");
            assert!(!view.cold.is_empty(), "host {host} has cold periods");
            assert!(
                store.range(..view.hot_floor).next().is_some(),
                "and compacted"
            );
            assert!(store.range(view.hot_floor..).next().is_some(), "and hot");
            let mut picks = vec![Pick::Row0];
            for flow in 0..24u64 {
                let key = FlowKey::from_id(flow);
                picks.push(Pick::Heavy(key.pack()));
                for row in 0..cfg.sketch.rows {
                    let col = cfg.sketch.light_col(&key, row) as u32;
                    picks.push(Pick::Light(row as u32, col));
                    picks.push(Pick::Colliding(row as u32, col, key.pack()));
                }
            }
            for pick in picks {
                let mut got = Vec::new();
                view.walk(pick, &mut |e| got.push(e.report().clone()));
                let want = rescan_reference::select(&unbounded, host, pick);
                assert_eq!(got, want, "host {host} {pick:?}");
            }
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
}
