//! The differential fuzzer step: one seed → one generated stream → every
//! WaveSketch variant driven over it → every cross-variant and vs-oracle
//! invariant asserted.
//!
//! Invariants checked per run (see DESIGN.md §8 for the rationale):
//!
//! 1. **Streaming ≡ oracle**: a dedicated per-flow one-bucket
//!    [`BucketArena`] drains exactly the oracle's epochs — `w0`, padded length, block sums, every
//!    retained coefficient exact, reconstruction error equal to the unique
//!    optimal k-term error (ideal selector).
//! 2. **Exact-k reconstruction**: with `k ≥` the coefficient count the
//!    reconstruction equals the dense truth everywhere — in particular,
//!    zero-traffic windows inside an epoch reconstruct to zero.
//! 3. **Basic ≡ oracle**: a full light-part drain covers exactly the touched
//!    cells and every cell's epochs match the oracle's merged per-cell truth
//!    (collisions included).
//! 4. **Count-Min lower bound**: a Basic query never underestimates a
//!    recorded flow's total.
//! 5. **Full light ≡ Basic**: the Full sketch's light part counts every
//!    packet, so its drained light half is bit-identical to a Basic sketch
//!    fed the same stream. The heavy part is replayed exactly too: the
//!    majority vote is deterministic, so the harness recomputes every slot's
//!    incumbent, vote and post-election volume and holds `heavy_flows()`,
//!    the drained heavy totals and heavy-query totals to them. (A plain
//!    `query ≥ truth` bound is *not* asserted for heavy flows: their light
//!    path subtracts other heavy flows' lossy reconstructions, which can
//!    legitimately overshoot — the sound bound is the post-election volume.)
//! 6. **HW selector bound**: with the threshold selector, reports stay
//!    structurally exact (approx, coefficient values) and the reconstruction
//!    error lands in `[optimal, keep-nothing]`.
//! 7. **Within-window permutation invariance**: shuffling packets inside a
//!    window leaves Basic drains, Full light drains and per-flow bucket
//!    drains bit-identical (heavy election is order-dependent and exempt).
//! 8. **Value scaling**: scaling every count by `c` scales every coefficient
//!    of an ideal-selector Full drain by exactly `c` (selection and election
//!    are scale-invariant).

use std::collections::{BTreeMap, BTreeSet};

use wavesketch::reconstruct::reconstruct;
use wavesketch::{
    BasicWaveSketch, BucketArena, BucketReport, FlowKey, FullWaveSketch, SelectorKind,
    SketchConfig, SketchReport,
};

use crate::oracle::{CheckParams, Oracle};
use crate::stream::{gen_stream, scale_values, shuffle_within_windows, StreamConfig, StreamKind};

/// Everything one differential run needs.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Sketch layout shared by every variant (ideal selector).
    pub sketch: SketchConfig,
    /// Stream shape.
    pub stream: StreamConfig,
    /// HW-selector retain threshold for even loop levels.
    pub hw_even: u64,
    /// HW-selector retain threshold for odd loop levels.
    pub hw_odd: u64,
    /// How many flows to spot-check with queries.
    pub query_sample: usize,
    /// Factor for the value-scaling metamorphic check.
    pub scale_factor: i64,
    /// When `Some(n)`, the Basic/Full/HW variants ingest through
    /// `update_batch` in bursts of `n` records instead of per-record
    /// `update`, so every oracle and cross-variant invariant in this file
    /// pins whichever path `update_batch` selects on this CPU (the staged
    /// AVX-512 pipeline, or the per-record loop). `None` keeps the
    /// per-record loop.
    pub batch_burst: Option<usize>,
}

/// Reads the `UMON_DIFF_BATCH` burst-size toggle ci.sh uses to force the
/// batch ingest path through the fuzzer (0 or unset → per-record loop).
/// Which path `update_batch` then takes is `wavesketch::active_kernel()`'s
/// choice; `diff_fuzz` prints it.
pub fn batch_burst_from_env() -> Option<usize> {
    std::env::var("UMON_DIFF_BATCH")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl DiffConfig {
    /// A small configuration sized for debug-build test suites: multi-epoch
    /// streams (windows > max_windows), odd top-k (exercises the HW parity
    /// split), nonzero start window, collisions likely (40 flows over
    /// 32-wide rows). The paced shape gets a smaller `k`: its point is full
    /// stores choosing between equal-energy coefficients, and at 7 a
    /// bucket's store fills within its first few dozen windows.
    pub fn quick(kind: StreamKind) -> Self {
        Self {
            sketch: SketchConfig::builder()
                .rows(3)
                .width(32)
                .levels(5)
                .topk(if kind == StreamKind::Paced { 7 } else { 17 })
                .max_windows(256)
                .heavy_rows(16)
                .selector(SelectorKind::Ideal)
                .build(),
            stream: StreamConfig {
                kind,
                flows: 40,
                windows: 300,
                start_window: 1000,
                mean_packets: 3,
            },
            hw_even: 3,
            hw_odd: 3,
            query_sample: 16,
            scale_factor: 3,
            batch_burst: batch_burst_from_env(),
        }
    }
}

/// Drives a Full sketch over the stream through whichever ingest path the
/// config selects. Burst sizes are taken as-is (ci.sh picks one that is not
/// a multiple of the staging CHUNK so remainder handling stays covered).
fn drive_full(sketch: &mut FullWaveSketch, stream: &[(FlowKey, u64, i64)], cfg: &DiffConfig) {
    match cfg.batch_burst {
        Some(burst) => {
            for chunk in stream.chunks(burst) {
                sketch.update_batch(chunk);
            }
        }
        None => {
            for (f, w, v) in stream {
                sketch.update(f, *w, *v);
            }
        }
    }
}

/// [`drive_full`] for the Basic (light-only) sketch.
fn drive_basic(sketch: &mut BasicWaveSketch, stream: &[(FlowKey, u64, i64)], cfg: &DiffConfig) {
    match cfg.batch_burst {
        Some(burst) => {
            for chunk in stream.chunks(burst) {
                sketch.update_batch(chunk);
            }
        }
        None => {
            for (f, w, v) in stream {
                sketch.update(f, *w, *v);
            }
        }
    }
}

/// What a successful run covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Updates in the generated stream.
    pub updates: usize,
    /// Distinct flows observed.
    pub flows: usize,
    /// Light-cell epoch reports validated against the oracle.
    pub light_epochs: usize,
    /// Per-flow (streaming) epoch reports validated against the oracle.
    pub flow_epochs: usize,
    /// Flow queries spot-checked.
    pub queries: usize,
    /// Whole-drain bit-identity comparisons performed.
    pub drains_compared: usize,
}

/// A differential failure: the seed and workload that reproduce it plus a
/// description of the first violated invariant.
#[derive(Debug)]
pub struct DiffError {
    /// Seed that reproduces the failure.
    pub seed: u64,
    /// Workload kind the stream was generated with.
    pub kind: StreamKind,
    /// Which invariant broke, and how.
    pub detail: String,
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "diff_run failed (seed {}, workload {}): {}",
            self.seed,
            self.kind.name(),
            self.detail
        )
    }
}

impl std::error::Error for DiffError {}

/// Scales every coefficient of a drained report by `factor` — the expected
/// drain of a value-scaled stream under the ideal selector.
pub fn scale_report(report: &SketchReport, factor: i64) -> SketchReport {
    let scale_buckets = |reports: &[BucketReport]| -> Vec<BucketReport> {
        reports
            .iter()
            .map(|r| {
                let mut s = r.clone();
                for a in &mut s.approx {
                    *a *= factor;
                }
                for d in &mut s.details {
                    d.val *= factor;
                }
                s
            })
            .collect()
    };
    SketchReport {
        heavy: report
            .heavy
            .iter()
            .map(|(k, rs)| (k.clone(), scale_buckets(rs)))
            .collect(),
        light: report
            .light
            .iter()
            .map(|&(row, col, ref rs)| (row, col, scale_buckets(rs)))
            .collect(),
    }
}

/// Runs the full differential step for one seed. Returns coverage counters
/// on success and the first violated invariant otherwise.
pub fn diff_run(seed: u64, cfg: &DiffConfig) -> Result<DiffStats, DiffError> {
    let fail = |detail: String| DiffError {
        seed,
        kind: cfg.stream.kind,
        detail,
    };
    let stream = gen_stream(seed, &cfg.stream);
    let mut stats = DiffStats {
        updates: stream.len(),
        ..DiffStats::default()
    };
    if stream.is_empty() {
        return Ok(stats);
    }

    let mut oracle = Oracle::new(cfg.sketch.clone());
    for (f, w, v) in &stream {
        oracle.record(f, *w, *v);
    }
    let flows = oracle.flows();
    stats.flows = flows.len();
    let params = CheckParams::from_config(&cfg.sketch);
    let sample: Vec<FlowKey> = flows
        .iter()
        .copied()
        .step_by((flows.len() / cfg.query_sample.max(1)).max(1))
        .take(cfg.query_sample)
        .collect();

    // 1 + 2: Streaming variant — one dedicated bucket per flow, plus an
    // exact-k twin whose reconstruction must equal the dense truth.
    let exact_k = cfg.sketch.max_windows;
    let mut per_flow: BTreeMap<FlowKey, BucketArena> = BTreeMap::new();
    let mut exact: BTreeMap<FlowKey, BucketArena> = BTreeMap::new();
    for (f, w, v) in &stream {
        per_flow
            .entry(*f)
            .or_insert_with(|| BucketArena::from_config(&cfg.sketch, 1))
            .update(0, *w, *v);
        exact
            .entry(*f)
            .or_insert_with(|| {
                BucketArena::new(
                    cfg.sketch.levels,
                    cfg.sketch.max_windows,
                    exact_k,
                    SelectorKind::Ideal,
                    1,
                )
            })
            .update(0, *w, *v);
    }
    let mut flow_reports: BTreeMap<FlowKey, Vec<BucketReport>> = BTreeMap::new();
    for (flow, bucket) in &mut per_flow {
        let reports = bucket.drain_bucket(0);
        oracle
            .check_flow_reports(flow, &reports, &params)
            .map_err(|e| fail(format!("streaming variant: {e}")))?;
        stats.flow_epochs += reports.len();
        flow_reports.insert(*flow, reports);
    }
    for (flow, bucket) in &mut exact {
        let truths = oracle.flow_epochs(flow);
        let reports = bucket.drain_bucket(0);
        for (truth, report) in truths.iter().zip(&reports) {
            let rec = reconstruct(&report.coeffs());
            for (i, &r) in rec.iter().enumerate() {
                let want = truth.counts.get(i).copied().unwrap_or(0) as f64;
                if (r - want).abs() > 1e-6 {
                    return Err(fail(format!(
                        "exact-k reconstruction of flow {flow:?} window {} is {r}, truth {want}",
                        truth.w0 + i as u64
                    )));
                }
            }
        }
    }

    // 3 + 4: Basic sketch vs the per-cell oracle, plus query lower bounds.
    let mut basic = BasicWaveSketch::new(cfg.sketch.clone());
    drive_basic(&mut basic, &stream, cfg);
    for flow in &sample {
        let truth_total = oracle.flow_total(flow) as f64;
        let est = basic
            .query(flow)
            .map(|s| s.total())
            .ok_or_else(|| fail(format!("basic query lost recorded flow {flow:?}")))?;
        if est < truth_total - 1e-6 * (1.0 + truth_total) {
            return Err(fail(format!(
                "basic query underestimates flow {flow:?}: {est} < {truth_total}"
            )));
        }
        stats.queries += 1;
    }
    let basic_drain = basic.drain();
    stats.light_epochs += oracle
        .check_light_drain(&basic_drain, &params)
        .map_err(|e| fail(format!("basic variant: {e}")))?;

    // 5: Full sketch. The heavy part's majority vote is value-independent
    // and deterministic, so replay it exactly: per slot, the incumbent key,
    // its vote and its post-election volume.
    let mut slots: Vec<(Option<FlowKey>, i64, i64)> = vec![(None, 0, 0); cfg.sketch.heavy_rows];
    for (f, _, v) in &stream {
        let slot = &mut slots[cfg.sketch.heavy_slot(f)];
        match slot.0 {
            None => *slot = (Some(*f), 1, *v),
            Some(k) if k == *f => {
                slot.1 += 1;
                slot.2 += *v;
            }
            Some(_) => {
                slot.1 -= 1;
                if slot.1 <= 0 {
                    *slot = (Some(*f), 1, *v);
                }
            }
        }
    }
    let mut full = FullWaveSketch::new(cfg.sketch.clone());
    drive_full(&mut full, &stream, cfg);
    let expected_heavy: Vec<(FlowKey, i64)> = slots
        .iter()
        .filter_map(|&(k, vote, _)| k.map(|k| (k, vote)))
        .collect();
    if full.heavy_flows() != expected_heavy {
        return Err(fail(
            "heavy candidates/votes differ from the exact majority-vote replay".into(),
        ));
    }
    for flow in &sample {
        if full.is_heavy(flow) {
            // The query overlays the exact heavy bucket onto the light
            // curve, so its total can never drop below the flow's exact
            // post-election volume (the truth total itself is not a sound
            // bound here — see the module docs).
            let post_election = slots[cfg.sketch.heavy_slot(flow)].2 as f64;
            let est = full.query(flow).map(|s| s.total()).unwrap_or(0.0);
            if est < post_election - 1e-6 * (1.0 + post_election) {
                return Err(fail(format!(
                    "full query of heavy flow {flow:?} is {est}, below its exact \
                     post-election volume {post_election}"
                )));
            }
            // The public volume query is clamped from below by the exact
            // post-election volume, so it can never fall under it — and the
            // sketch's own bound must agree with the replayed one.
            let volume = full.query_volume(flow).unwrap_or(0.0);
            let own_bound = full.post_election_volume(flow).unwrap_or(0);
            if own_bound as f64 != post_election {
                return Err(fail(format!(
                    "post_election_volume of heavy flow {flow:?} is {own_bound}, \
                     replay says {post_election}"
                )));
            }
            if volume < post_election || volume < est {
                return Err(fail(format!(
                    "query_volume of heavy flow {flow:?} is {volume}, below \
                     max(curve total {est}, post-election volume {post_election})"
                )));
            }
        }
        stats.queries += 1;
    }
    let full_report = full.drain();
    if full_report.light != basic_drain {
        return Err(fail(
            "full sketch's light drain differs from the basic sketch's".into(),
        ));
    }
    stats.drains_compared += 1;
    let known: BTreeSet<Vec<u8>> = flows.iter().map(|f| f.pack().to_vec()).collect();
    let drained_heavy: Vec<(Vec<u8>, i64)> = full_report
        .heavy
        .iter()
        .map(|(key, reports)| (key.clone(), reports.iter().map(BucketReport::total).sum()))
        .collect();
    let expected_drained: Vec<(Vec<u8>, i64)> = slots
        .iter()
        .filter_map(|&(k, _, total)| k.map(|k| (k.pack().to_vec(), total)))
        .collect();
    if drained_heavy != expected_drained {
        return Err(fail(
            "drained heavy keys/totals differ from the exact majority-vote replay".into(),
        ));
    }
    for (key, reports) in &full_report.heavy {
        if !known.contains(key) {
            return Err(fail(format!("heavy entry for unseen flow key {key:?}")));
        }
        if reports.is_empty() {
            return Err(fail(format!("empty heavy entry for key {key:?}")));
        }
    }
    // 6: HW threshold selector — structural exactness + the error corridor.
    let hw_cfg = SketchConfig {
        selector: SelectorKind::HwThreshold {
            even: cfg.hw_even,
            odd: cfg.hw_odd,
        },
        ..cfg.sketch.clone()
    };
    let hw_params = CheckParams::from_config(&hw_cfg);
    let mut hw = FullWaveSketch::new(hw_cfg);
    drive_full(&mut hw, &stream, cfg);
    let hw_report = hw.drain();
    stats.light_epochs += oracle
        .check_light_drain(&hw_report.light, &hw_params)
        .map_err(|e| fail(format!("hw variant: {e}")))?;

    // 7: within-window permutation invariance.
    let shuffled = shuffle_within_windows(&stream, seed ^ 0xA5A5_5A5A_F00D_BEEF);
    let mut basic_p = BasicWaveSketch::new(cfg.sketch.clone());
    let mut full_p = FullWaveSketch::new(cfg.sketch.clone());
    drive_basic(&mut basic_p, &shuffled, cfg);
    drive_full(&mut full_p, &shuffled, cfg);
    let mut per_flow_p: BTreeMap<FlowKey, BucketArena> = BTreeMap::new();
    for (f, w, v) in &shuffled {
        per_flow_p
            .entry(*f)
            .or_insert_with(|| BucketArena::from_config(&cfg.sketch, 1))
            .update(0, *w, *v);
    }
    if basic_p.drain() != basic_drain {
        return Err(fail(
            "basic drain changed under within-window permutation".into(),
        ));
    }
    if full_p.drain().light != full_report.light {
        return Err(fail(
            "full light drain changed under within-window permutation".into(),
        ));
    }
    for (flow, bucket) in &mut per_flow_p {
        if bucket.drain_bucket(0) != flow_reports[flow] {
            return Err(fail(format!(
                "per-flow drain of {flow:?} changed under within-window permutation"
            )));
        }
    }
    stats.drains_compared += 2;

    // 8: value scaling.
    let scaled = scale_values(&stream, cfg.scale_factor);
    let mut full_s = FullWaveSketch::new(cfg.sketch.clone());
    drive_full(&mut full_s, &scaled, cfg);
    if full_s.drain() != scale_report(&full_report, cfg.scale_factor) {
        return Err(fail(format!(
            "scaling values by {} did not scale the full drain's coefficients by {}",
            cfg.scale_factor, cfg.scale_factor
        )));
    }
    stats.drains_compared += 1;

    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_valid_and_multi_epoch() {
        for kind in StreamKind::ALL {
            let cfg = DiffConfig::quick(kind);
            assert!(cfg.stream.windows > cfg.sketch.max_windows as u64);
            assert!(
                cfg.sketch.topk % 2 == 1,
                "odd k exercises the HW parity split"
            );
        }
    }

    #[test]
    fn one_smoke_seed_per_workload() {
        for kind in StreamKind::ALL {
            let stats = diff_run(0xD1FF, &DiffConfig::quick(kind)).unwrap();
            assert!(stats.updates > 0);
            assert!(stats.light_epochs > 0);
            assert!(stats.flow_epochs > 0);
            // Full light ≡ Basic, the two permutation drains, the scaled
            // drain.
            assert_eq!(stats.drains_compared, 4);
        }
    }

    #[test]
    fn heavy_volume_query_is_clamped_to_the_post_election_bound() {
        // Minimized from the first failing fuzz seed (0, bursty): a heavy
        // flow's *curve* query subtracts other heavy flows' lossy
        // reconstructions from its pre-election light history, so its total
        // can undershoot the all-time truth — that mechanism is inherent to
        // the sketch and still reproduces below. The public volume query is
        // therefore clamped from below by the exact post-election volume:
        // the sound bound the sketch can actually promise. (Seed 0 stopped
        // colliding that way when placement dropped its lane hash; seed 12
        // is the first bursty seed that does under the Count-Min layout.)
        let seed = 12;
        let cfg = DiffConfig::quick(StreamKind::Bursty);
        let stream = gen_stream(seed, &cfg.stream);
        let mut oracle = Oracle::new(cfg.sketch.clone());
        let mut full = FullWaveSketch::new(cfg.sketch.clone());
        for (f, w, v) in &stream {
            oracle.record(f, *w, *v);
            full.update(f, *w, *v);
        }
        let undershoot = oracle.flows().iter().any(|f| {
            full.is_heavy(f)
                && full.query(f).map(|s| s.total()).unwrap_or(0.0)
                    < oracle.flow_total(f) as f64 - 1e-6
        });
        assert!(
            undershoot,
            "seed {seed} / bursty no longer reproduces the undershoot; refresh this regression"
        );
        // The fix: for every heavy flow, the volume query never falls below
        // the exact post-election volume nor below the curve total.
        for f in oracle.flows() {
            if !full.is_heavy(&f) {
                continue;
            }
            let volume = full.query_volume(&f).expect("heavy flow answers");
            let bound = full
                .post_election_volume(&f)
                .expect("heavy flow has a slot") as f64;
            let curve_total = full.query(&f).map(|s| s.total()).unwrap_or(0.0);
            assert!(
                volume >= bound && volume >= curve_total,
                "flow {f:?}: query_volume {volume} below max({curve_total}, {bound})"
            );
        }
        diff_run(seed, &cfg).unwrap();
    }

    #[test]
    fn paced_quick_config_keeps_stores_full_and_tied() {
        // The paced sweep exists to put the oracle's optimal-k-term check in
        // front of full stores deciding between equal-energy coefficients;
        // hold the configuration to that.
        let cfg = DiffConfig::quick(StreamKind::Paced);
        let mut basic = BasicWaveSketch::new(cfg.sketch.clone());
        for (f, w, v) in &gen_stream(1, &cfg.stream) {
            basic.update(f, *w, *v);
        }
        let (mut epochs, mut full, mut tied) = (0, 0, 0);
        for (_, _, reports) in basic.drain() {
            for r in reports {
                epochs += 1;
                full += usize::from(r.details.len() == cfg.sketch.topk);
                let mut e: Vec<u128> = r
                    .details
                    .iter()
                    .map(|d| (d.val.unsigned_abs() as u128).pow(2) << (31 - d.level))
                    .collect();
                e.sort_unstable();
                tied += usize::from(e.windows(2).any(|p| p[0] == p[1]));
            }
        }
        assert!(epochs > 100, "suspiciously low coverage: {epochs}");
        assert!(
            full * 10 >= epochs * 9,
            "only {full} of {epochs} stores full"
        );
        assert!(
            tied * 10 >= epochs * 9,
            "only {tied} of {epochs} stores retain equal-energy coefficients"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = DiffConfig::quick(StreamKind::Skewed);
        assert_eq!(diff_run(42, &cfg).unwrap(), diff_run(42, &cfg).unwrap());
    }

    #[test]
    fn batch_ingest_survives_the_full_differential() {
        // Belt-and-braces alongside the ci.sh env toggle: pin the staged
        // batch path against every invariant in this file even when the
        // suite runs without UMON_DIFF_BATCH set. Burst 257 is deliberately
        // not a multiple of the staging CHUNK (256) so remainder handling
        // stays covered, and the batch run must produce coverage counters
        // identical to the scalar run's — same streams, same epochs, same
        // drains.
        for kind in StreamKind::ALL {
            let mut cfg = DiffConfig::quick(kind);
            cfg.batch_burst = None;
            let scalar = diff_run(0xBA7C, &cfg).unwrap();
            cfg.batch_burst = Some(257);
            let batched = diff_run(0xBA7C, &cfg).unwrap();
            assert_eq!(scalar, batched);
            assert_eq!(batched.drains_compared, 4);
        }
    }
}
