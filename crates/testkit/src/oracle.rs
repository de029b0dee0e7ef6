//! The exact oracle: dense per-window counters replayed with the bucket's
//! own epoch rules, transformed offline with [`wavesketch::haar`], compared
//! against drained reports field by field.
//!
//! Two truths are maintained per stream:
//!
//! * per **flow** — what a collision-free bucket dedicated to the flow sees
//!   (validates the Streaming variant and exact-k reconstruction);
//! * per **light cell** `(row, col)` — the merged stream of every flow
//!   hashing into that bucket (validates Basic / Full / HW light parts,
//!   including collisions, epoch rollover and straggler folding).
//!
//! The error check uses the Appendix A fact that the detail basis is
//! orthogonal: dropping the coefficient at loop level `l` with value `v`
//! adds exactly `(2^{-(l+1)/2} · v)^2` to the squared L2 error. The minimal
//! k-term squared error — total weighted energy minus the k largest energies
//! — is therefore *unique* even when the retained set is not (ties carry
//! equal energy), which is what makes it a sound oracle for the ideal
//! selector whatever its tie-break — an independent judge of
//! `wavesketch::select::rank_cmp`, which only decides *which* equal-energy
//! coefficient a full store keeps.

use std::collections::BTreeMap;

use wavesketch::reconstruct::reconstruct;
use wavesketch::{haar, BucketReport, FlowKey, SelectorKind, SketchConfig};

/// Dense ground truth of one bucket epoch: the value of every window from
/// the epoch's first packet to its last touched window.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTruth {
    /// Absolute window id of the epoch start.
    pub w0: u64,
    /// `counts[o]` is the exact value at window `w0 + o`; the last entry is
    /// the last window the epoch touched.
    pub counts: Vec<i64>,
}

impl EpochTruth {
    /// Padded epoch length — what the sketch reports as `padded_len`.
    pub fn padded_len(&self) -> usize {
        self.counts.len().max(1).next_power_of_two()
    }

    /// Exact epoch total.
    pub fn total(&self) -> i64 {
        self.counts.iter().sum()
    }

    /// Effective decomposition depth: `min(levels, log2(padded_len))`.
    pub fn effective_levels(&self, levels: u32) -> u32 {
        levels.min(self.padded_len().trailing_zeros())
    }

    /// The approximation array the sketch must report: block sums over
    /// `2^levels` windows (one total when the epoch is shorter than a block).
    pub fn expected_approx(&self, levels: u32) -> Vec<i64> {
        let padded = haar::pad_to_pow2(&self.counts);
        let block = (1usize << levels).min(padded.len());
        padded.chunks(block).map(|c| c.iter().sum()).collect()
    }

    /// Exact offline Haar coefficients of the epoch.
    pub fn coefficients(&self, levels: u32) -> haar::HaarCoefficients {
        haar::transform(&self.counts, levels)
    }

    /// Weighted energies `(2^{-(l+1)/2} · v)^2` of all nonzero details.
    fn detail_energies(&self, levels: u32) -> Vec<f64> {
        let coeffs = self.coefficients(levels);
        let mut energies = Vec::new();
        for (l, row) in coeffs.details.iter().enumerate() {
            let w = haar::normalized_weight(l as u32);
            for &v in row {
                if v != 0 {
                    energies.push((w * v as f64) * (w * v as f64));
                }
            }
        }
        energies
    }

    /// Total weighted detail energy — the squared error of keeping nothing.
    pub fn total_detail_energy(&self, levels: u32) -> f64 {
        self.detail_energies(levels).iter().sum()
    }

    /// The unique minimal squared L2 error of any `k`-term detail selection
    /// (Appendix A/B): total energy minus the `k` largest energies.
    pub fn optimal_sq_error(&self, levels: u32, k: usize) -> f64 {
        let mut e = self.detail_energies(levels);
        e.sort_by(|a, b| b.partial_cmp(a).expect("energies are finite"));
        e.iter().skip(k).sum()
    }

    /// Squared L2 error of the report's (unclamped) reconstruction vs the
    /// dense truth, over the padded window range.
    pub fn report_sq_error(&self, report: &BucketReport) -> f64 {
        let rec = reconstruct(&report.coeffs());
        let mut err = 0.0;
        for (i, &r) in rec.iter().enumerate() {
            let truth = self.counts.get(i).copied().unwrap_or(0) as f64;
            err += (r - truth) * (r - truth);
        }
        err
    }
}

/// What to hold a report to: the sketch's wavelet depth, coefficient budget
/// and selection strategy.
#[derive(Debug, Clone)]
pub struct CheckParams {
    /// Decomposition depth `L` the sketch ran with.
    pub levels: u32,
    /// Retained-coefficient budget `K`.
    pub topk: usize,
    /// Selection strategy — decides how tight the error bound is.
    pub selector: SelectorKind,
}

impl CheckParams {
    /// Parameters matching a sketch configuration.
    pub fn from_config(config: &SketchConfig) -> Self {
        Self {
            levels: config.levels,
            topk: config.topk,
            selector: config.selector,
        }
    }
}

/// Checks one drained epoch report against its dense truth. Every field is
/// validated: `w0`, depth, padded length, the full approximation array, each
/// retained detail coefficient (exact value, in-range position, uniqueness,
/// budget) and the reconstruction error bound for the selector in use.
pub fn check_epoch_report(
    truth: &EpochTruth,
    report: &BucketReport,
    params: &CheckParams,
) -> Result<(), String> {
    if report.w0 != truth.w0 {
        return Err(format!("w0 {} != expected {}", report.w0, truth.w0));
    }
    if report.levels != params.levels {
        return Err(format!(
            "levels {} != configured {}",
            report.levels, params.levels
        ));
    }
    if report.padded_len != truth.padded_len() {
        return Err(format!(
            "padded_len {} != expected {} (epoch of {} windows)",
            report.padded_len,
            truth.padded_len(),
            truth.counts.len()
        ));
    }
    let approx = truth.expected_approx(params.levels);
    if report.approx != approx {
        return Err(format!(
            "approx {:?} != expected block sums {:?}",
            report.approx, approx
        ));
    }
    if report.details.len() > params.topk {
        return Err(format!(
            "{} details exceed the top-k budget {}",
            report.details.len(),
            params.topk
        ));
    }
    let coeffs = truth.coefficients(params.levels);
    let effective = truth.effective_levels(params.levels);
    let mut seen = std::collections::BTreeSet::new();
    for d in &report.details {
        if d.level >= effective {
            return Err(format!(
                "detail at level {} beyond effective depth {effective}",
                d.level
            ));
        }
        let row = &coeffs.details[d.level as usize];
        let Some(&exact) = row.get(d.idx as usize) else {
            return Err(format!(
                "detail index {} out of range at level {} (len {})",
                d.idx,
                d.level,
                row.len()
            ));
        };
        if d.val != exact {
            return Err(format!(
                "detail ({}, {}) value {} != exact coefficient {exact}",
                d.level, d.idx, d.val
            ));
        }
        if d.val == 0 {
            return Err(format!("zero detail retained at ({}, {})", d.level, d.idx));
        }
        if !seen.insert((d.level, d.idx)) {
            return Err(format!("duplicate detail ({}, {})", d.level, d.idx));
        }
    }

    let err = truth.report_sq_error(report);
    let optimal = truth.optimal_sq_error(params.levels, params.topk);
    let total = truth.total_detail_energy(params.levels);
    let eps = 1e-6 * (1.0 + total);
    match params.selector {
        SelectorKind::Ideal => {
            if (err - optimal).abs() > eps {
                return Err(format!(
                    "ideal selector error {err} != optimal k-term error {optimal} (eps {eps})"
                ));
            }
        }
        SelectorKind::HwThreshold { .. } => {
            if err < optimal - eps {
                return Err(format!(
                    "error {err} beats the optimal k-term error {optimal} — impossible"
                ));
            }
            if err > total + eps {
                return Err(format!(
                    "error {err} exceeds the keep-nothing bound {total}"
                ));
            }
        }
    }
    Ok(())
}

/// A faithful replay of [`wavesketch::BucketArena::update`]'s counting rules
/// onto a dense array: same epoch start, same straggler folding (a late packet is
/// counted in the currently open window), same capacity rollover.
#[derive(Debug, Clone)]
struct BucketSim {
    max_windows: usize,
    w0: Option<u64>,
    counts: Vec<i64>,
    sealed: Vec<EpochTruth>,
}

impl BucketSim {
    fn new(max_windows: usize) -> Self {
        Self {
            max_windows,
            w0: None,
            counts: Vec::new(),
            sealed: Vec::new(),
        }
    }

    fn update(&mut self, window: u64, value: i64) {
        let Some(w0) = self.w0 else {
            self.w0 = Some(window);
            self.counts = vec![value];
            return;
        };
        let offset = window.saturating_sub(w0);
        if offset >= self.max_windows as u64 {
            self.seal();
            self.w0 = Some(window);
            self.counts = vec![value];
            return;
        }
        let o = offset as usize;
        let open = self.counts.len() - 1;
        if o <= open {
            // Same window or a straggler: folded into the open window.
            self.counts[open] += value;
        } else {
            self.counts.resize(o, 0);
            self.counts.push(value);
        }
    }

    fn seal(&mut self) {
        if let Some(w0) = self.w0.take() {
            self.sealed.push(EpochTruth {
                w0,
                counts: std::mem::take(&mut self.counts),
            });
        }
    }

    /// All epochs a drain at this point would produce (sealed + open).
    fn epochs(&self) -> Vec<EpochTruth> {
        let mut out = self.sealed.clone();
        if let Some(w0) = self.w0 {
            out.push(EpochTruth {
                w0,
                counts: self.counts.clone(),
            });
        }
        out
    }
}

/// The exact ground truth of one packet stream under one sketch placement.
pub struct Oracle {
    config: SketchConfig,
    flows: BTreeMap<FlowKey, BucketSim>,
    cells: BTreeMap<(u32, u32), BucketSim>,
    /// Updates recorded so far.
    pub updates: u64,
}

impl Oracle {
    /// An empty oracle for the given (global, unsliced) configuration.
    pub fn new(config: SketchConfig) -> Self {
        Self {
            config,
            flows: BTreeMap::new(),
            cells: BTreeMap::new(),
            updates: 0,
        }
    }

    /// The configuration the oracle mirrors.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Records one update, mirroring it into the flow's dedicated truth and
    /// into every light cell the sketch would touch.
    pub fn record(&mut self, flow: &FlowKey, window: u64, value: i64) {
        let mw = self.config.max_windows;
        self.flows
            .entry(*flow)
            .or_insert_with(|| BucketSim::new(mw))
            .update(window, value);
        for row in 0..self.config.rows {
            let col = self.config.light_col(flow, row) as u32;
            self.cells
                .entry((row as u32, col))
                .or_insert_with(|| BucketSim::new(mw))
                .update(window, value);
        }
        self.updates += 1;
    }

    /// Every flow the oracle has seen.
    pub fn flows(&self) -> Vec<FlowKey> {
        self.flows.keys().copied().collect()
    }

    /// The flow's dense epochs as a drain right now would seal them.
    pub fn flow_epochs(&self, flow: &FlowKey) -> Vec<EpochTruth> {
        self.flows.get(flow).map(|s| s.epochs()).unwrap_or_default()
    }

    /// The flow's exact total volume.
    pub fn flow_total(&self, flow: &FlowKey) -> i64 {
        self.flow_epochs(flow).iter().map(EpochTruth::total).sum()
    }

    /// Dense epochs of every touched light cell.
    pub fn cell_epochs(&self) -> BTreeMap<(u32, u32), Vec<EpochTruth>> {
        self.cells
            .iter()
            .map(|(&cell, sim)| (cell, sim.epochs()))
            .collect()
    }

    /// Checks a drained flow-bucket report list (one collision-free bucket
    /// per flow, as the Streaming variant keeps) against the flow's truth.
    pub fn check_flow_reports(
        &self,
        flow: &FlowKey,
        reports: &[BucketReport],
        params: &CheckParams,
    ) -> Result<(), String> {
        let truths = self.flow_epochs(flow);
        check_report_list(&truths, reports, params).map_err(|e| format!("flow {flow:?}: {e}"))
    }

    /// Checks a full light-part drain against the truth of every cell:
    /// the drained cell set must equal the set of touched cells exactly, and
    /// every epoch report must pass [`check_epoch_report`]. Returns the
    /// number of epoch reports validated.
    pub fn check_light_drain(
        &self,
        light: &[(u32, u32, Vec<BucketReport>)],
        params: &CheckParams,
    ) -> Result<usize, String> {
        let truth = self.cell_epochs();
        let mut drained: BTreeMap<(u32, u32), &Vec<BucketReport>> = BTreeMap::new();
        for (row, col, reports) in light {
            if drained.insert((*row, *col), reports).is_some() {
                return Err(format!("cell ({row}, {col}) drained twice"));
            }
        }
        if let Some(cell) = truth.keys().find(|c| !drained.contains_key(c)) {
            return Err(format!("touched cell {cell:?} missing from the drain"));
        }
        if let Some(cell) = drained.keys().find(|c| !truth.contains_key(c)) {
            return Err(format!("untouched cell {cell:?} present in the drain"));
        }
        let mut checked = 0;
        for (cell, truths) in &truth {
            let reports = drained[cell];
            check_report_list(truths, reports, params)
                .map_err(|e| format!("cell {cell:?}: {e}"))?;
            checked += reports.len();
        }
        Ok(checked)
    }
}

fn check_report_list(
    truths: &[EpochTruth],
    reports: &[BucketReport],
    params: &CheckParams,
) -> Result<(), String> {
    if truths.len() != reports.len() {
        return Err(format!(
            "{} epoch reports, expected {} (w0s {:?} vs {:?})",
            reports.len(),
            truths.len(),
            reports.iter().map(|r| r.w0).collect::<Vec<_>>(),
            truths.iter().map(|t| t.w0).collect::<Vec<_>>(),
        ));
    }
    for (i, (truth, report)) in truths.iter().zip(reports).enumerate() {
        check_epoch_report(truth, report, params).map_err(|e| format!("epoch {i}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesketch::{BucketArena, SelectorKind};

    fn params(levels: u32, topk: usize) -> CheckParams {
        CheckParams {
            levels,
            topk,
            selector: SelectorKind::Ideal,
        }
    }

    #[test]
    fn bucket_sim_matches_arena_bucket_epochs() {
        // Stragglers, same-window folds and capacity rollover in one stream.
        let pattern = [
            (100u64, 10i64),
            (100, 5),
            (103, 7),
            (102, 2), // straggler: folds into window 103
            (110, 1),
            (300, 9), // beyond max_windows=128 → rollover
            (301, 4),
        ];
        let mut sim = BucketSim::new(128);
        let mut bucket = BucketArena::new(4, 128, 256, SelectorKind::Ideal, 1);
        for (w, v) in pattern {
            sim.update(w, v);
            bucket.update(0, w, v);
        }
        sim.seal();
        let truths = sim.sealed;
        let reports = bucket.drain_bucket(0);
        assert_eq!(truths.len(), 2);
        check_report_list(&truths, &reports, &params(4, 256)).unwrap();
        assert_eq!(truths[0].counts[0], 15);
        assert_eq!(truths[0].counts[3], 9); // 7 + straggler 2
    }

    #[test]
    fn optimal_error_is_achieved_by_ideal_topk() {
        let truth = EpochTruth {
            w0: 0,
            counts: vec![5, 9, 1, 0, 0, 44, 3, 3, 7, 0, 0, 0, 2],
        };
        for k in 1..8 {
            let mut bucket = BucketArena::new(3, 16, k, SelectorKind::Ideal, 1);
            for (w, &v) in truth.counts.iter().enumerate() {
                if v != 0 {
                    bucket.update(0, w as u64, v);
                }
            }
            // Zero-valued windows between packets are implicit; the dense
            // truth and the bucket agree on them.
            let reports = bucket.drain_bucket(0);
            assert_eq!(reports.len(), 1);
            let err = truth.report_sq_error(&reports[0]);
            let optimal = truth.optimal_sq_error(3, k);
            assert!(
                (err - optimal).abs() < 1e-9,
                "k={k}: err {err} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn check_rejects_corrupted_fields() {
        let truth = EpochTruth {
            w0: 10,
            counts: vec![4, 0, 9, 1],
        };
        let mut bucket = BucketArena::new(2, 8, 8, SelectorKind::Ideal, 1);
        for (o, &v) in truth.counts.iter().enumerate() {
            if v != 0 {
                bucket.update(0, 10 + o as u64, v);
            }
        }
        let good = bucket.drain_bucket(0).remove(0);
        let p = params(2, 8);
        check_epoch_report(&truth, &good, &p).unwrap();

        let mut bad = good.clone();
        bad.approx[0] += 1;
        assert!(check_epoch_report(&truth, &bad, &p).is_err());

        let mut bad = good.clone();
        bad.w0 += 1;
        assert!(check_epoch_report(&truth, &bad, &p).is_err());

        let mut bad = good.clone();
        bad.details[0].val += 1;
        assert!(check_epoch_report(&truth, &bad, &p).is_err());
    }
}
