//! The basic WaveSketch (§4.2, Figure 6): a Count-Min-style array of
//! `d × w` counter buckets in one [`BucketArena`]. Updates hash the flow key into one bucket per
//! row; queries reconstruct each of the `d` candidate buckets and return the
//! one with the smallest total (the Count-Min minimum generalized to curves).

use crate::arena::BucketArena;
use crate::batch::{active_kernel, BatchKernel, BatchScratch, CHUNK};
use crate::config::{Placement, SketchConfig};
use crate::flow::FlowKey;
use crate::reconstruct::ReconstructScratch;
use crate::report::{BucketReport, EpochSource};

/// A reconstructed flow-rate curve: per-window values anchored at an
/// absolute window id. Mirrors `umon_metrics::RateCurve` but lives here so
/// the core crate has no dependencies.
///
/// Every mutating operation works in place: once a series (and the
/// [`ReconstructScratch`] feeding it) has grown to a workload's span, query
/// loops reuse it with zero heap traffic. The in-place span growth only
/// moves and zero-fills values — no arithmetic — so it cannot perturb a
/// single result bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSeries {
    /// Absolute window id of `values[0]`.
    pub start_window: u64,
    /// Reconstructed per-window values.
    pub values: Vec<f64>,
}

impl WindowSeries {
    /// An empty series (no span, no values) ready for [`Self::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the union series from a set of per-epoch reports (epochs of one
    /// bucket never overlap).
    pub fn from_reports(reports: &[BucketReport]) -> Option<Self> {
        let mut series = Self::new();
        let mut scratch = ReconstructScratch::new();
        series
            .assign_from_reports(reports, &mut scratch)
            .then_some(series)
    }

    /// In-place [`Self::from_reports`]: resets this series to the epochs'
    /// union span and accumulates every epoch, in iteration order, through
    /// `scratch`. Returns `false` (leaving the series empty) when `reports`
    /// is empty. The iterator is walked twice (span, then sums), so it must
    /// be cloneable; a slice or a filtered view of one both are. Decoded
    /// and encoded epochs ([`EpochSource`]) sum to the same bits.
    pub fn assign_from_reports<I>(&mut self, reports: I, scratch: &mut ReconstructScratch) -> bool
    where
        I: IntoIterator,
        I::Item: EpochSource,
        I::IntoIter: Clone,
    {
        let reports = reports.into_iter();
        let span = reports
            .clone()
            .map(|r| r.span())
            .fold(None, |acc, (w0, len)| {
                let end = w0 + len as u64;
                Some(acc.map_or((w0, end), |(s, e): (u64, u64)| (s.min(w0), e.max(end))))
            });
        let Some((start, end)) = span else {
            self.reset(0, 0);
            return false;
        };
        self.reset(start, (end - start) as usize);
        for r in reports {
            self.accumulate_report(r, scratch);
        }
        true
    }

    /// Resets to an all-zero series of `len` windows anchored at
    /// `start_window`, keeping the allocation.
    pub fn reset(&mut self, start_window: u64, len: usize) {
        self.start_window = start_window;
        self.values.clear();
        self.values.resize(len, 0.0);
    }

    /// Becomes a copy of `other`, keeping this series' allocation.
    pub fn assign_from(&mut self, other: &WindowSeries) {
        self.start_window = other.start_window;
        self.values.clear();
        self.values.extend_from_slice(&other.values);
    }

    /// Adds one epoch's (clamped) reconstruction into the series. The epoch
    /// must lie inside the current span — callers size the span first (as
    /// [`Self::assign_from_reports`] does).
    pub fn accumulate_report(&mut self, r: impl EpochSource, scratch: &mut ReconstructScratch) {
        let rec = r.reconstruct_with(scratch);
        let base = (r.span().0 - self.start_window) as usize;
        for (i, &v) in rec.iter().enumerate() {
            self.values[base + i] += v;
        }
    }

    /// Adds one already-reconstructed epoch curve into the series — the
    /// cached-curve twin of [`Self::accumulate_report`], with the same
    /// must-lie-inside-the-span contract and the same per-window addition
    /// order (so sums are bit-identical either way).
    pub fn accumulate_curve(&mut self, w0: u64, curve: &[f64]) {
        let base = (w0 - self.start_window) as usize;
        for (i, &v) in curve.iter().enumerate() {
            self.values[base + i] += v;
        }
    }

    /// Grows the span to cover `[new_start, new_end)` in place, zero-filling
    /// the new windows: one `resize`, one `copy_within`, one `fill` — no
    /// fresh buffer. Shrinks nothing.
    fn grow_to_span(&mut self, new_start: u64, new_end: u64) {
        let new_start = new_start.min(self.start_window);
        let new_end = new_end.max(self.end_window());
        let old_len = self.values.len();
        let pad_front = (self.start_window - new_start) as usize;
        self.values.resize((new_end - new_start) as usize, 0.0);
        if pad_front > 0 {
            self.values.copy_within(0..old_len, pad_front);
            self.values[..pad_front].fill(0.0);
            self.start_window = new_start;
        }
    }

    /// The absolute window id one past the last value.
    pub fn end_window(&self) -> u64 {
        self.start_window + self.values.len() as u64
    }

    /// Value at absolute window `w` (0 outside the series span).
    pub fn at(&self, w: u64) -> f64 {
        if w < self.start_window {
            return 0.0;
        }
        self.values
            .get((w - self.start_window) as usize)
            .copied()
            .unwrap_or(0.0)
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Overlays `other` onto this series: within `other`'s span, this
    /// series takes `other`'s values (extending the span if needed). Used by
    /// the full-version query to prefer exact heavy-part values where the
    /// heavy bucket has coverage while keeping the light part's history for
    /// windows before the flow was elected heavy.
    pub fn overlay(&mut self, other: &WindowSeries) {
        if other.values.is_empty() {
            return;
        }
        self.grow_to_span(other.start_window, other.end_window());
        let off = (other.start_window - self.start_window) as usize;
        self.values[off..off + other.values.len()].copy_from_slice(&other.values);
    }

    /// Extends the span with zeros so absolute window `w` indexes a real
    /// slot. A no-op when `w` is already inside the span. Used by analyzers
    /// merging evidence whose light series lost coverage (e.g. a dropped
    /// upload period) while a heavy epoch still anchors earlier windows.
    pub fn extend_to_cover(&mut self, w: u64) {
        if w < self.start_window {
            self.grow_to_span(w, self.end_window());
        } else if w >= self.end_window() {
            let len = (w - self.start_window + 1) as usize;
            self.values.resize(len, 0.0);
        }
    }

    /// Pointwise subtraction of `other`, clamped at zero. Used when removing
    /// heavy-flow contributions from a light-part curve (§4.2 full version).
    pub fn subtract_clamped(&mut self, other: &WindowSeries) {
        for (offset, v) in other.values.iter().enumerate() {
            let w = other.start_window + offset as u64;
            if w < self.start_window {
                continue;
            }
            let idx = (w - self.start_window) as usize;
            if let Some(slot) = self.values.get_mut(idx) {
                *slot = (*slot - v).max(0.0);
            }
        }
    }
}

/// The basic WaveSketch.
///
/// All `d × w` buckets share one flat [`BucketArena`] (bucket `row * width +
/// col`), so the per-packet update path performs no allocation and touches
/// contiguous header/counter arrays instead of chasing per-bucket heap
/// state.
pub struct BasicWaveSketch {
    config: SketchConfig,
    /// Row-major bucket arena: bucket `row * width + col`.
    arena: BucketArena,
    /// How [`Self::update_batch`] ingests: [`active_kernel`], read once here.
    kernel: BatchKernel,
    /// Lazily-built staging buffers for the staged [`Self::update_batch`];
    /// allocated on the first batch and reused forever after (the alloc gate
    /// covers this). Never built on the per-record path.
    batch: Option<Box<BatchScratch>>,
}

impl BasicWaveSketch {
    /// Creates an empty sketch.
    pub fn new(config: SketchConfig) -> Self {
        let arena = BucketArena::from_config(&config, config.rows * config.width);
        Self {
            config,
            arena,
            kernel: active_kernel(),
            batch: None,
        }
    }

    /// Test hook: pins how [`Self::update_batch`] ingests, so the staged
    /// pipeline and the per-record fallback can be compared on one CPU.
    #[cfg(test)]
    pub(crate) fn force_kernel(&mut self, kernel: BatchKernel) {
        self.kernel = kernel;
    }

    /// The sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Records `value` (bytes or packets) for `flow` at absolute window
    /// `window` — the sketch update of Algorithm 1 applied to all `d` rows.
    pub fn update(&mut self, flow: &FlowKey, window: u64, value: i64) {
        let p = self.config.place(flow);
        self.update_placed(&p, window, value);
    }

    /// [`Self::update`] with the key already packed and hashed —
    /// lets [`crate::FullWaveSketch`] share one [`Placement`] between its
    /// heavy part and this light part.
    #[inline]
    pub(crate) fn update_placed(&mut self, p: &Placement, window: u64, value: i64) {
        for row in 0..self.config.rows {
            let idx = row * self.config.width + self.config.light_col_placed(p, row);
            self.arena.update(idx, window, value);
        }
    }

    /// Records a burst of `(flow, window, value)` updates. On CPUs with
    /// AVX-512 this is the batch pipeline ([`crate::batch`]): keys are packed
    /// and hashed 8 at a time, then each row's window folds are applied with
    /// the upcoming buckets prefetched. Everywhere else it is a loop over
    /// [`Self::update`].
    ///
    /// The resulting sketch state is **bit-identical** to calling
    /// [`Self::update`] for each record in order: light buckets are mutually
    /// independent and the row-phased application preserves every individual
    /// bucket's record order (two records can share a bucket only within one
    /// row, and within a row they are applied in record order).
    pub fn update_batch(&mut self, records: &[(FlowKey, u64, i64)]) {
        if self.kernel == BatchKernel::Scalar {
            for (flow, window, value) in records {
                self.update(flow, *window, *value);
            }
            return;
        }
        let mut scratch = self
            .batch
            .take()
            .unwrap_or_else(|| Box::new(BatchScratch::new(&self.config, false)));
        for chunk in records.chunks(CHUNK) {
            let n = chunk.len();
            scratch.stage(&self.config, chunk);
            for row in 0..self.config.rows {
                let idx = &scratch.light_idx[row * CHUNK..row * CHUNK + n];
                self.arena
                    .apply_batch(idx, &scratch.windows, &scratch.values, n);
            }
        }
        self.batch = Some(scratch);
    }

    /// Mutable access to the bucket arena, for [`crate::FullWaveSketch`]'s
    /// batch path (which stages once and applies to both parts).
    #[inline]
    pub(crate) fn arena_mut(&mut self) -> &mut BucketArena {
        &mut self.arena
    }

    /// Queries the flow's reconstructed rate curve: reconstructs the `d`
    /// candidate buckets and returns the one with the smallest total volume
    /// (least over-counted by collisions). `None` if the flow hit no bucket.
    pub fn query(&self, flow: &FlowKey) -> Option<WindowSeries> {
        let p = self.config.place(flow);
        let mut best: Option<WindowSeries> = None;
        for row in 0..self.config.rows {
            let idx = row * self.config.width + self.config.light_col_placed(&p, row);
            let reports = self.arena.snapshot_bucket(idx);
            if let Some(series) = WindowSeries::from_reports(&reports) {
                let replace = match &best {
                    None => true,
                    Some(b) => series.total() < b.total(),
                };
                if replace {
                    best = Some(series);
                }
            }
        }
        best
    }

    /// Raw per-bucket reports of the flow's `d` candidate buckets (for
    /// analyzers that need every row, e.g. the full version's subtraction).
    pub fn query_reports(&self, flow: &FlowKey) -> Vec<(u32, u32, Vec<BucketReport>)> {
        let p = self.config.place(flow);
        (0..self.config.rows)
            .map(|row| {
                let col = self.config.light_col_placed(&p, row);
                let idx = row * self.config.width + col;
                (row as u32, col as u32, self.arena.snapshot_bucket(idx))
            })
            .collect()
    }

    /// Drains every bucket into an exact-size list of `(row, col, reports)`
    /// entries and resets the sketch for the next measurement period.
    pub fn drain(&mut self) -> Vec<(u32, u32, Vec<BucketReport>)> {
        let mut out = Vec::new();
        for row in 0..self.config.rows {
            for col in 0..self.config.width {
                let idx = row * self.config.width + col;
                let reports = self.arena.drain_bucket(idx);
                if !reports.is_empty() {
                    out.push((row as u32, col as u32, reports));
                }
            }
        }
        out.shrink_to_fit();
        out
    }

    /// Number of buckets that have recorded at least one packet.
    pub fn active_buckets(&self) -> usize {
        (0..self.arena.bucket_count())
            .filter(|&b| !self.arena.is_bucket_empty(b))
            .count()
    }

    /// Configured in-dataplane memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.config.basic_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::SelectorKind;

    fn config(w: usize, k: usize) -> SketchConfig {
        SketchConfig::builder()
            .rows(3)
            .width(w)
            .levels(4)
            .topk(k)
            .max_windows(256)
            .selector(SelectorKind::Ideal)
            .build()
    }

    #[test]
    fn single_flow_reconstructs_exactly_with_big_k() {
        let mut s = BasicWaveSketch::new(config(64, 256));
        let f = FlowKey::from_id(1);
        let pattern = [(0u64, 1000i64), (1, 2000), (3, 500), (10, 1500)];
        for (w, v) in pattern {
            s.update(&f, w, v);
        }
        let curve = s.query(&f).expect("flow present");
        for (w, v) in pattern {
            assert!((curve.at(w) - v as f64).abs() < 1e-9, "window {w}");
        }
        assert_eq!(curve.at(2), 0.0);
    }

    /// Light-only twin of `full.rs`'s selection test: the staged pipeline
    /// (where the CPU has it) and the forced per-record fallback both drain
    /// exactly what `update` drains, and only the staged one builds scratch.
    #[test]
    fn update_batch_selection_matches_update_exactly() {
        let (cfg, stream) = crate::batch::churn_stream();
        let mut plain = BasicWaveSketch::new(cfg.clone());
        for (f, w, v) in &stream {
            plain.update(f, *w, *v);
        }
        let want = plain.drain();
        for kernel in [BatchKernel::Scalar, active_kernel()] {
            let mut s = BasicWaveSketch::new(cfg.clone());
            s.force_kernel(kernel);
            for burst in stream.chunks(600) {
                s.update_batch(burst);
            }
            assert_eq!(s.batch.is_some(), kernel == BatchKernel::Avx512);
            assert_eq!(s.drain(), want, "{kernel:?}");
        }
    }

    #[test]
    fn unknown_flow_queries_to_none_mostly() {
        // An unseen flow may collide with a recorded one, but with an empty
        // sketch the query must be None.
        let s = BasicWaveSketch::new(config(64, 16));
        assert!(s.query(&FlowKey::from_id(9)).is_none());
    }

    #[test]
    fn query_never_underestimates_total_for_recorded_flow() {
        // Count-Min property lifted to curves: collisions only add volume.
        let mut s = BasicWaveSketch::new(config(8, 64)); // tiny width → collisions
        let mut totals = std::collections::HashMap::new();
        for id in 0..50u64 {
            let f = FlowKey::from_id(id);
            let bytes = 100 * (id as i64 + 1);
            s.update(&f, id % 32, bytes);
            *totals.entry(id).or_insert(0i64) += bytes;
        }
        for (id, true_total) in totals {
            let est = s.query(&FlowKey::from_id(id)).unwrap().total();
            assert!(
                est >= true_total as f64 - 1e-6,
                "flow {id}: est {est} < true {true_total}"
            );
        }
    }

    #[test]
    fn drain_resets_and_reports_active_buckets_only() {
        let mut s = BasicWaveSketch::new(config(64, 16));
        s.update(&FlowKey::from_id(1), 5, 100);
        let drained = s.drain();
        // One flow hits d=3 buckets (possibly fewer if rows collide — they
        // can't across rows since indices are row-scoped).
        assert_eq!(drained.len(), 3);
        assert_eq!(s.active_buckets(), 0);
        assert!(s.query(&FlowKey::from_id(1)).is_none());
    }

    #[test]
    fn two_flows_in_different_buckets_do_not_interfere() {
        let mut s = BasicWaveSketch::new(config(256, 64));
        let (a, b) = (FlowKey::from_id(1), FlowKey::from_id(2));
        s.update(&a, 0, 111);
        s.update(&b, 0, 999);
        // With w=256 and 2 flows a full 3-row collision is vanishingly
        // unlikely; the min-total query isolates each flow.
        let qa = s.query(&a).unwrap().total();
        assert!((qa - 111.0).abs() < 1e-6 || (qa - 1110.0).abs() < 1e-6);
    }

    #[test]
    fn window_series_merges_multiple_epochs() {
        let mut bucket = BucketArena::new(2, 4, 16, SelectorKind::Ideal, 1);
        for w in 0..8 {
            bucket.update(0, w, 10 * (w as i64 + 1));
        }
        let series = WindowSeries::from_reports(&bucket.drain_bucket(0)).unwrap();
        assert_eq!(series.start_window, 0);
        for w in 0..8u64 {
            assert!((series.at(w) - 10.0 * (w as f64 + 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn overlay_prefers_other_within_its_span() {
        let mut base = WindowSeries {
            start_window: 10,
            values: vec![5.0, 5.0, 5.0, 5.0],
        };
        let exact = WindowSeries {
            start_window: 12,
            values: vec![1.0, 2.0],
        };
        base.overlay(&exact);
        assert_eq!(base.values, vec![5.0, 5.0, 1.0, 2.0]);
    }

    #[test]
    fn overlay_extends_the_span_when_needed() {
        let mut base = WindowSeries {
            start_window: 10,
            values: vec![5.0],
        };
        let other = WindowSeries {
            start_window: 8,
            values: vec![1.0, 1.0],
        };
        base.overlay(&other);
        assert_eq!(base.start_window, 8);
        assert_eq!(base.values, vec![1.0, 1.0, 5.0]);
        // And extending forward.
        let tail = WindowSeries {
            start_window: 12,
            values: vec![9.0],
        };
        base.overlay(&tail);
        assert_eq!(base.values, vec![1.0, 1.0, 5.0, 0.0, 9.0]);
    }

    #[test]
    fn overlay_with_empty_other_is_a_noop() {
        let mut base = WindowSeries {
            start_window: 3,
            values: vec![7.0],
        };
        base.overlay(&WindowSeries {
            start_window: 0,
            values: vec![],
        });
        assert_eq!(base.values, vec![7.0]);
        assert_eq!(base.start_window, 3);
    }

    #[test]
    fn extend_to_cover_pads_with_zeros_both_ways() {
        let mut s = WindowSeries {
            start_window: 10,
            values: vec![3.0, 4.0],
        };
        s.extend_to_cover(11); // inside: no-op
        assert_eq!(s.start_window, 10);
        assert_eq!(s.values, vec![3.0, 4.0]);
        s.extend_to_cover(8); // grow backwards
        assert_eq!(s.start_window, 8);
        assert_eq!(s.values, vec![0.0, 0.0, 3.0, 4.0]);
        s.extend_to_cover(13); // grow forwards
        assert_eq!(s.values, vec![0.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
        assert_eq!(s.end_window(), 14);
    }

    #[test]
    fn assign_from_reports_reuses_buffers_and_matches_from_reports() {
        let mut bucket = BucketArena::new(3, 8, 16, SelectorKind::Ideal, 1);
        for w in 0..20 {
            bucket.update(0, w, 7 * (w as i64 % 5) + 1);
        }
        let reports = bucket.drain_bucket(0);
        let fresh = WindowSeries::from_reports(&reports).unwrap();

        let mut series = WindowSeries::new();
        let mut scratch = crate::reconstruct::ReconstructScratch::new();
        // Dirty the series first: reuse must fully overwrite stale state.
        series.reset(999, 3);
        series.values.fill(42.0);
        assert!(series.assign_from_reports(&reports, &mut scratch));
        assert_eq!(series, fresh);
        // And an empty report set resets to empty and reports false.
        assert!(!series.assign_from_reports(&[] as &[BucketReport], &mut scratch));
        assert!(series.values.is_empty());
    }

    #[test]
    fn subtract_clamped_removes_overlap_only() {
        let mut a = WindowSeries {
            start_window: 10,
            values: vec![5.0, 5.0, 5.0],
        };
        let b = WindowSeries {
            start_window: 11,
            values: vec![2.0, 10.0],
        };
        a.subtract_clamped(&b);
        assert_eq!(a.values, vec![5.0, 3.0, 0.0]);
    }
}
