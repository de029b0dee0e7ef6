//! The full WaveSketch (§4.2): a heavy part electing heavy flows by majority
//! vote, backed by the basic sketch as the light part.
//!
//! Design points from the paper:
//!
//! * The light part counts **every** packet — heavy-flow packets update both
//!   parts simultaneously, so evicting a heavy candidate needs no coefficient
//!   migration: the evicted flow was fully counted in the light part all
//!   along and its heavy bucket is simply discarded.
//! * Querying a heavy flow reads its heavy bucket directly (collision-free).
//! * Querying a mice flow reads the light part and subtracts the
//!   reconstructed curves of heavy flows that share its buckets, since those
//!   flows inflated the light counters.

use crate::arena::BucketArena;
use crate::basic::{BasicWaveSketch, WindowSeries};
use crate::batch::{active_kernel, prefetch_read, BatchKernel, BatchScratch, CHUNK};
use crate::config::SketchConfig;
use crate::flow::FlowKey;
use crate::report::{BucketReport, SketchReport};

/// One heavy-part slot: the candidate key and its majority-vote counter,
/// colocated so the packet path's slot probe touches a single cache line.
#[derive(Debug, Clone, Copy)]
struct HeavySlot {
    /// Heavy-candidate key (`None` = free slot).
    key: Option<FlowKey>,
    /// Majority-vote counter.
    votes: i64,
}

const FREE_SLOT: HeavySlot = HeavySlot {
    key: None,
    votes: 0,
};

/// The full WaveSketch.
///
/// The heavy part is a flat [`BucketArena`] plus a key/vote slot array,
/// so an eviction is an in-place bucket reset (no allocation) and the
/// per-packet path shares one [`crate::config::Placement`] (pack + `d + 1`
/// hashes) between the heavy slot and the light rows.
pub struct FullWaveSketch {
    config: SketchConfig,
    /// Heavy-candidate slots (key + votes), one per heavy bucket.
    slots: Vec<HeavySlot>,
    /// Heavy-part bucket arena, one bucket per slot.
    heavy: BucketArena,
    light: BasicWaveSketch,
    /// Heavy candidates evicted since the last drain (their history lives in
    /// the light part).
    evictions: u64,
    /// How [`Self::update_batch`] ingests: [`active_kernel`], read once here.
    kernel: BatchKernel,
    /// Lazily-built staging buffers for the staged [`Self::update_batch`]
    /// (with the heavy-tag chain), reused across batches. Never built on the
    /// per-record path.
    batch: Option<Box<BatchScratch>>,
}

impl FullWaveSketch {
    /// Creates an empty full sketch.
    pub fn new(config: SketchConfig) -> Self {
        let heavy = BucketArena::from_config(&config, config.heavy_rows);
        let light = BasicWaveSketch::new(config.clone());
        Self {
            slots: vec![FREE_SLOT; config.heavy_rows],
            config,
            heavy,
            light,
            evictions: 0,
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

    /// Heavy-candidate evictions since the last drain.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    #[inline]
    fn heavy_index(&self, flow: &FlowKey) -> usize {
        // A distinct hash stream (row tag 0xFF) keeps the heavy placement
        // independent of the light rows.
        self.config.heavy_slot(flow)
    }

    /// Records `value` for `flow` at absolute window `window`.
    pub fn update(&mut self, flow: &FlowKey, window: u64, value: i64) {
        // Pack and batch-hash the key once for both parts.
        let p = self.config.place(flow);

        // The light part counts everything (simultaneous update).
        self.light.update_placed(&p, window, value);

        let idx = self.config.heavy_slot_placed(&p);
        self.heavy_vote(idx, flow, window, value);
    }

    /// The heavy part's majority-vote machine for one packet at slot `idx` —
    /// the only state shared between records of a batch, so the batch path
    /// replays it record-by-record in original order.
    #[inline]
    fn heavy_vote(&mut self, idx: usize, flow: &FlowKey, window: u64, value: i64) {
        let slot = &mut self.slots[idx];
        match slot.key {
            None => {
                // Empty slot: install the flow as a heavy candidate.
                slot.key = Some(*flow);
                slot.votes = 1;
                self.heavy.update(idx, window, value);
            }
            Some(k) if k == *flow => {
                slot.votes += 1;
                self.heavy.update(idx, window, value);
            }
            Some(_) => {
                // Majority vote: challengers decrement; at zero the incumbent
                // is evicted (its counts are safe in the light part).
                slot.votes -= 1;
                if slot.votes <= 0 {
                    slot.key = Some(*flow);
                    slot.votes = 1;
                    self.heavy.reset_bucket(idx);
                    self.heavy.update(idx, window, value);
                    self.evictions += 1;
                }
            }
        }
    }

    /// Records a burst of `(flow, window, value)` updates. On CPUs with
    /// AVX-512 this is the batch pipeline: one SIMD hashing pass covers all
    /// `d` light rows *and* the heavy slot of every record, then
    /// the light rows are applied row-phased with prefetch and the heavy vote
    /// machine is replayed in original record order. Everywhere else it is a
    /// loop over [`Self::update`].
    ///
    /// Bit-identical to per-record [`Self::update`] calls: the light and
    /// heavy parts share no state, light buckets preserve per-bucket record
    /// order under row-phasing (see [`BasicWaveSketch::update_batch`]), and
    /// the vote machine — the only cross-record dependency — runs strictly
    /// in order.
    pub fn update_batch(&mut self, records: &[(FlowKey, u64, i64)]) {
        const PF: usize = 16;
        if self.kernel == BatchKernel::Scalar {
            for (flow, window, value) in records {
                self.update(flow, *window, *value);
            }
            return;
        }
        let mut scratch = self
            .batch
            .take()
            .unwrap_or_else(|| Box::new(BatchScratch::new(&self.config, true)));
        for chunk in records.chunks(CHUNK) {
            let n = chunk.len();
            scratch.stage(&self.config, chunk);
            for row in 0..self.config.rows {
                let idx = &scratch.light_idx[row * CHUNK..row * CHUNK + n];
                self.light
                    .arena_mut()
                    .apply_batch(idx, &scratch.windows, &scratch.values, n);
            }
            for j in 0..n {
                if j + PF < n {
                    let b = scratch.heavy_idx[j + PF] as usize;
                    prefetch_read(&self.slots[b]);
                    self.heavy.prefetch_header(b);
                }
                let idx = scratch.heavy_idx[j] as usize;
                let flow = scratch.keys[j];
                self.heavy_vote(idx, &flow, scratch.windows[j], scratch.values[j]);
            }
        }
        self.batch = Some(scratch);
    }

    /// True if `flow` currently holds a heavy-part slot.
    pub fn is_heavy(&self, flow: &FlowKey) -> bool {
        self.slots[self.heavy_index(flow)].key == Some(*flow)
    }

    /// Current heavy candidates and their votes.
    pub fn heavy_flows(&self) -> Vec<(FlowKey, i64)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.key.map(|k| (k, slot.votes)))
            .collect()
    }

    /// The first window covered by `flow`'s heavy bucket — the window it was
    /// (last) elected heavy in. `None` for mice flows. Callers comparing a
    /// query against all-time truth can use this to restrict themselves to
    /// the post-election span, where the heavy bucket is exact.
    pub fn election_window(&self, flow: &FlowKey) -> Option<u64> {
        let idx = self.heavy_index(flow);
        if self.slots[idx].key != Some(*flow) {
            return None;
        }
        self.heavy
            .snapshot_bucket(idx)
            .iter()
            .map(|r| r.w0)
            .min()
            .or_else(|| self.heavy.epoch_start(idx))
    }

    /// The exact volume `flow` sent since its election: the heavy bucket's
    /// block sums are lossless, so this is a sound lower bound on the flow's
    /// all-time volume. `None` for mice flows.
    pub fn post_election_volume(&self, flow: &FlowKey) -> Option<i64> {
        let idx = self.heavy_index(flow);
        if self.slots[idx].key != Some(*flow) {
            return None;
        }
        Some(
            self.heavy
                .snapshot_bucket(idx)
                .iter()
                .map(BucketReport::total)
                .sum(),
        )
    }

    /// Sound all-time volume estimate for `flow`.
    ///
    /// The curve returned by [`Self::query`] merges the exact heavy bucket
    /// with a light-part estimate whose heavy-flow subtraction can
    /// over-subtract (other heavy flows' reconstructions are themselves
    /// upper bounds), so its total can fall below even the flow's exact
    /// post-election volume's worth of evidence. This query clamps the curve
    /// total from below by that exact bound, which is the tightest sound
    /// lower bound the sketch can certify (see `umon-testkit`'s
    /// `heavy_volume_query_is_clamped_to_the_post_election_bound`).
    pub fn query_volume(&self, flow: &FlowKey) -> Option<f64> {
        let total = self.query(flow)?.total();
        match self.post_election_volume(flow) {
            Some(exact) => Some(total.max(exact as f64)),
            None => Some(total),
        }
    }

    /// Queries the reconstructed rate curve of `flow`.
    ///
    /// Heavy flows merge both parts: within the heavy bucket's epochs the
    /// private (collision-free, exact) values win; windows before the flow
    /// was elected heavy come from the light part, which counts every packet
    /// of every flow. Mice flows read the light part with heavy-flow
    /// contributions subtracted from shared buckets.
    pub fn query(&self, flow: &FlowKey) -> Option<WindowSeries> {
        let idx = self.heavy_index(flow);
        if self.slots[idx].key == Some(*flow) {
            let reports = self.heavy.snapshot_bucket(idx);
            let heavy = WindowSeries::from_reports(&reports);
            let light = self.query_light_with_subtraction(flow);
            return match (light, heavy) {
                (Some(mut l), Some(h)) => {
                    // The election window is only partially covered by the
                    // heavy bucket: packets the flow sent in that window
                    // *before* taking the slot were counted light-only. Keep
                    // whichever source saw more there (both upper-bound the
                    // truth; see tests/properties.rs).
                    let election = h.start_window;
                    let light_at_election = l.at(election);
                    l.overlay(&h);
                    let idx = (election - l.start_window) as usize;
                    l.values[idx] = l.values[idx].max(light_at_election);
                    Some(l)
                }
                (l, h) => h.or(l),
            };
        }
        self.query_light_with_subtraction(flow)
    }

    /// Light-part query with heavy-flow subtraction: for each of the flow's
    /// `d` light buckets, subtract the curves of heavy flows that hash into
    /// the same bucket, then take the candidate with the smallest total.
    fn query_light_with_subtraction(&self, flow: &FlowKey) -> Option<WindowSeries> {
        let light_cfg = self.light.config();
        let mut best: Option<WindowSeries> = None;
        for (row, col, reports) in self.light.query_reports(flow) {
            let Some(mut series) = WindowSeries::from_reports(&reports) else {
                continue;
            };
            // Subtract every heavy flow sharing bucket (row, col).
            for slot in 0..self.config.heavy_rows {
                let Some(hkey) = self.slots[slot].key else {
                    continue;
                };
                if hkey == *flow {
                    continue;
                }
                let hcol = light_cfg.light_col(&hkey, row as usize) as u32;
                if hcol != col {
                    continue;
                }
                if let Some(hseries) = WindowSeries::from_reports(&self.heavy.snapshot_bucket(slot))
                {
                    series.subtract_clamped(&hseries);
                }
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

    /// Drains the sketch into an uploadable, exact-size report (the
    /// analyzer keeps it as it arrives) and resets all state for the next
    /// measurement period.
    pub fn drain(&mut self) -> SketchReport {
        let mut report = SketchReport::default();
        for slot in 0..self.config.heavy_rows {
            let reports: Vec<BucketReport> = self.heavy.drain_bucket(slot);
            if let Some(key) = self.slots[slot].key.take() {
                if !reports.is_empty() {
                    report.heavy.push((key.pack().to_vec(), reports));
                }
            }
            self.slots[slot].votes = 0;
        }
        report.heavy.shrink_to_fit();
        report.light = self.light.drain();
        self.evictions = 0;
        report
    }

    /// Configured in-dataplane memory in bytes (heavy + light parts).
    pub fn memory_bytes(&self) -> usize {
        self.config.full_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::SelectorKind;

    fn config() -> SketchConfig {
        SketchConfig::builder()
            .rows(3)
            .width(32)
            .levels(4)
            .topk(64)
            .max_windows(256)
            .heavy_rows(16)
            .selector(SelectorKind::Ideal)
            .build()
    }

    /// `update_batch` picks one of two paths per CPU; both must leave the
    /// sketch exactly where per-record `update` does, and only the staged
    /// one may allocate scratch.
    #[test]
    fn update_batch_selection_matches_update_exactly() {
        let (cfg, stream) = crate::batch::churn_stream();
        let mut plain = FullWaveSketch::new(cfg.clone());
        for (f, w, v) in &stream {
            plain.update(f, *w, *v);
        }
        assert!(plain.evictions() > 0, "stream must churn the heavy part");
        let want_evictions = plain.evictions();
        let want = plain.drain();

        let run = |kernel: Option<BatchKernel>| {
            let mut s = FullWaveSketch::new(cfg.clone());
            if let Some(k) = kernel {
                s.force_kernel(k);
            }
            for burst in stream.chunks(600) {
                s.update_batch(burst);
            }
            (s.evictions(), s.batch.is_some(), s.drain())
        };

        // The per-record fallback, forced: what every CPU without AVX-512
        // runs. No scratch is ever built.
        assert_eq!(
            run(Some(BatchKernel::Scalar)),
            (want_evictions, false, want.clone())
        );
        // The path this CPU selects on its own.
        let staged = active_kernel() == BatchKernel::Avx512;
        assert_eq!(run(None), (want_evictions, staged, want));
    }

    #[test]
    fn first_flow_becomes_heavy_candidate() {
        let mut s = FullWaveSketch::new(config());
        let f = FlowKey::from_id(1);
        s.update(&f, 0, 100);
        assert!(s.is_heavy(&f));
    }

    #[test]
    fn heavy_flow_query_is_collision_free() {
        let mut s = FullWaveSketch::new(config());
        let f = FlowKey::from_id(1);
        for w in 0..20 {
            s.update(&f, w, 1000);
        }
        // Add background mice that might collide in the light part.
        for id in 100..150 {
            s.update(&FlowKey::from_id(id), 5, 50);
        }
        let curve = s.query(&f).unwrap();
        for w in 0..20u64 {
            assert!((curve.at(w) - 1000.0).abs() < 1e-6, "window {w}");
        }
    }

    #[test]
    fn majority_vote_evicts_after_enough_challenges() {
        let mut s = FullWaveSketch::new(config());
        // Find two flows that share a heavy slot.
        let a = FlowKey::from_id(1);
        let b = (2..10_000u64)
            .map(FlowKey::from_id)
            .find(|k| s.config.heavy_slot(k) == s.config.heavy_slot(&a))
            .expect("some flow must collide");
        s.update(&a, 0, 10); // a installed, vote=1
        s.update(&b, 1, 10); // vote 0 → b evicts a
        assert!(s.is_heavy(&b));
        assert!(!s.is_heavy(&a));
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn evicted_flow_still_queryable_from_light_part() {
        let mut s = FullWaveSketch::new(config());
        let a = FlowKey::from_id(1);
        let b = (2..10_000u64)
            .map(FlowKey::from_id)
            .find(|k| s.config.heavy_slot(k) == s.config.heavy_slot(&a))
            .unwrap();
        s.update(&a, 0, 777);
        s.update(&b, 1, 10);
        s.update(&b, 2, 10);
        // a evicted; its volume must still be visible via the light part.
        let curve = s.query(&a).expect("light part has the history");
        assert!(curve.total() >= 777.0 - 1e-6);
    }

    #[test]
    fn mice_query_subtracts_heavy_contribution() {
        let mut s = FullWaveSketch::new(config());
        let heavy = FlowKey::from_id(1);
        for w in 0..100 {
            s.update(&heavy, w, 10_000);
        }
        // A mouse colliding with the heavy flow in the light part would be
        // massively overestimated without subtraction. Find a full collision.
        let mouse = (2..200_000u64).map(FlowKey::from_id).find(|k| {
            (0..3).all(|row| s.config.light_col(k, row) == s.config.light_col(&heavy, row))
                && !s.is_heavy(k)
        });
        let Some(mouse) = mouse else {
            // No full collision exists for this seed/width — the subtraction
            // path is still covered by the partial-collision assertion below.
            return;
        };
        s.update(&mouse, 50, 500);
        let est = s.query(&mouse).unwrap();
        // Without subtraction the estimate would be ≥ 1,000,000.
        assert!(
            est.total() < 50_000.0,
            "subtraction failed: total {}",
            est.total()
        );
        assert!(est.total() >= 500.0 - 1e-6);
    }

    #[test]
    fn mid_life_election_keeps_pre_election_history() {
        // Flow `a` starts as a mouse (another candidate holds its heavy
        // slot), then wins the slot mid-life. The query must still cover its
        // early windows via the light part.
        let mut s = FullWaveSketch::new(config());
        let a = FlowKey::from_id(1);
        let b = (2..10_000u64)
            .map(FlowKey::from_id)
            .find(|k| s.config.heavy_slot(k) == s.config.heavy_slot(&a))
            .expect("a colliding key exists");
        // b grabs the slot with a strong vote.
        for w in 0..3 {
            s.update(&b, w, 10);
        }
        // a sends early packets as a mouse (vote-challenging b)...
        s.update(&a, 5, 111);
        s.update(&a, 6, 222);
        s.update(&a, 7, 1); // vote hits 0 → a evicts b here
        assert!(s.is_heavy(&a), "a must have taken the slot");
        // ...and keeps sending as a heavy flow.
        s.update(&a, 10, 333);
        let curve = s.query(&a).expect("queryable");
        assert!(
            curve.at(5) >= 111.0 - 1e-6,
            "pre-election window lost: {}",
            curve.at(5)
        );
        assert!(curve.at(6) >= 222.0 - 1e-6);
        assert!(
            (curve.at(10) - 333.0).abs() < 1e-6,
            "heavy window must be exact"
        );
    }

    #[test]
    fn election_window_and_post_election_volume_are_exact() {
        let mut s = FullWaveSketch::new(config());
        let a = FlowKey::from_id(1);
        let b = (2..10_000u64)
            .map(FlowKey::from_id)
            .find(|k| s.config.heavy_slot(k) == s.config.heavy_slot(&a))
            .unwrap();
        // b holds the slot; a sends as a mouse, then takes the slot at w=7.
        for w in 0..3 {
            s.update(&b, w, 10);
        }
        s.update(&a, 4, 100);
        s.update(&a, 5, 100);
        s.update(&a, 7, 40); // vote 0 → a elected here
        s.update(&a, 9, 60);
        assert!(s.is_heavy(&a));
        assert_eq!(s.election_window(&a), Some(7));
        assert_eq!(s.post_election_volume(&a), Some(100));
        assert_eq!(s.election_window(&b), None);
        assert_eq!(s.post_election_volume(&b), None);
    }

    #[test]
    fn query_volume_never_falls_below_the_post_election_bound() {
        let mut s = FullWaveSketch::new(config());
        let f = FlowKey::from_id(3);
        for w in 0..50u64 {
            s.update(&f, w, 100 + (w as i64 % 5));
        }
        // Mice sharing light buckets make the light estimate noisy.
        for id in 100..160u64 {
            s.update(&FlowKey::from_id(id), 25, 900);
        }
        let exact = s.post_election_volume(&f).unwrap() as f64;
        let vol = s.query_volume(&f).unwrap();
        assert!(
            vol >= exact - 1e-9,
            "volume {vol} below exact bound {exact}"
        );
        // Mice flows get the plain light estimate.
        let mouse = FlowKey::from_id(120);
        if !s.is_heavy(&mouse) {
            let via_curve = s.query(&mouse).unwrap().total();
            assert_eq!(s.query_volume(&mouse), Some(via_curve));
        }
    }

    #[test]
    fn drain_produces_heavy_and_light_sections() {
        let mut s = FullWaveSketch::new(config());
        for id in 0..20u64 {
            for w in 0..10 {
                s.update(&FlowKey::from_id(id), w, 100);
            }
        }
        let report = s.drain();
        assert!(!report.heavy.is_empty());
        assert!(!report.light.is_empty());
        assert!(report.wire_bytes() > 0);
        // Sketch fully reset.
        assert!(s.query(&FlowKey::from_id(0)).is_none());
        assert_eq!(s.heavy_flows().len(), 0);
    }

    #[test]
    fn heavy_total_matches_injected_volume() {
        let mut s = FullWaveSketch::new(config());
        let f = FlowKey::from_id(3);
        let mut injected = 0i64;
        for w in 0..200u64 {
            let v = 100 + (w as i64 % 7) * 13;
            s.update(&f, w, v);
            injected += v;
        }
        let curve = s.query(&f).unwrap();
        assert!((curve.total() - injected as f64).abs() < 1e-6);
    }
}
