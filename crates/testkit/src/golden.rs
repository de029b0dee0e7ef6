//! Golden drain fixtures: frozen [`FullWaveSketch`] drains from fixed seeds,
//! checked into `tests/golden/` as JSON.
//!
//! The fixtures pin the *content* of a drain across refactors of the sketch
//! hot path: every bucket, every epoch's `w0`, depth, padded length and
//! approximation array exactly, and the retained details as a set — the
//! order a selector emits them in is unspecified, so both sides of a
//! comparison are put through [`canonical`] first. `tests/differential.rs`
//! replays the same seeded workloads on the current implementation and
//! compares; `golden_gen --check` is the same gate stand-alone. All eight
//! files were last written when placement became the paper's Count-Min
//! layout (ISSUE 26), and only through a bridge: the previous code with its
//! lane count forced to 1 wrote these exact bytes, so the re-record moved
//! placement and nothing else (DESIGN.md §8 has the per-seed table).
//!
//! The eight seeds sweep both selector kinds (ideal top-k and the hardware
//! threshold split, with an odd `k` so the uneven parity split is covered)
//! and all three workload shapes, with more windows than `max_windows` so
//! every fixture contains mid-stream epoch rollovers.

use crate::stream::{gen_stream, StreamConfig, StreamKind, Update};
use wavesketch::{FullWaveSketch, SelectorKind, SketchConfig, SketchReport};

/// The fixed seeds the fixture set covers.
pub const GOLDEN_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Repo-relative fixture file name for `seed`.
pub fn golden_fixture_name(seed: u64) -> String {
    format!("full_drain_seed{seed:02}.json")
}

/// The deterministic `(sketch config, update stream)` pair for `seed`.
///
/// Selector kind alternates by seed parity; the workload shape cycles
/// through all three [`StreamKind`]s. 300 windows against `max_windows =
/// 256` forces an epoch rollover inside every active bucket, and `topk = 17`
/// (odd) exercises the hardware selector's uneven parity split.
pub fn golden_case(seed: u64) -> (SketchConfig, Vec<Update>) {
    let kind = match seed % 3 {
        0 => StreamKind::Uniform,
        1 => StreamKind::Skewed,
        _ => StreamKind::Bursty,
    };
    let selector = if seed.is_multiple_of(2) {
        SelectorKind::HwThreshold { even: 4, odd: 4 }
    } else {
        SelectorKind::Ideal
    };
    let sketch = SketchConfig::builder()
        .rows(3)
        .width(32)
        .levels(5)
        .topk(17)
        .max_windows(256)
        .heavy_rows(16)
        .selector(selector)
        .seed(0x5EED ^ seed)
        .build();
    let stream = gen_stream(
        seed,
        &StreamConfig {
            kind,
            flows: 40,
            windows: 300,
            start_window: 1000,
            mean_packets: 4,
        },
    );
    (sketch, stream)
}

/// `report` with every epoch's `details` sorted by `(level, idx)`. The order
/// a selector emits its retained coefficients in is its own business
/// (`CoeffSelector::retained`); the fixtures pin *which* coefficients a
/// drain retains, so both sides of a fixture comparison go through this.
pub fn canonical(mut report: SketchReport) -> SketchReport {
    let heavy = report.heavy.iter_mut().map(|(_, epochs)| epochs);
    let light = report.light.iter_mut().map(|(_, _, epochs)| epochs);
    for epoch in heavy.chain(light).flatten() {
        epoch.details.sort_by_key(|d| (d.level, d.idx));
    }
    report
}

/// Runs the seed's workload through a [`FullWaveSketch`] and drains it.
pub fn golden_drain(seed: u64) -> SketchReport {
    let (cfg, stream) = golden_case(seed);
    let mut sketch = FullWaveSketch::new(cfg);
    for (flow, window, value) in &stream {
        sketch.update(flow, *window, *value);
    }
    sketch.drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_drains_are_deterministic_and_nonempty() {
        for seed in GOLDEN_SEEDS {
            let a = golden_drain(seed);
            let b = golden_drain(seed);
            assert_eq!(a, b, "seed {seed} drain not deterministic");
            assert!(
                !a.light.is_empty(),
                "seed {seed} produced an empty light part"
            );
            assert!(
                !a.heavy.is_empty(),
                "seed {seed} produced an empty heavy part"
            );
            // Every fixture must contain a rollover (two epochs in a bucket).
            assert!(
                a.light.iter().any(|(_, _, rs)| rs.len() > 1),
                "seed {seed} has no mid-stream rollover"
            );
        }
    }

    #[test]
    fn golden_seeds_cover_both_selectors_and_all_workloads() {
        let mut kinds = std::collections::BTreeSet::new();
        let mut selectors = std::collections::BTreeSet::new();
        for seed in GOLDEN_SEEDS {
            let (cfg, _) = golden_case(seed);
            selectors.insert(matches!(cfg.selector, SelectorKind::Ideal));
            kinds.insert(seed % 3);
        }
        assert_eq!(selectors.len(), 2, "both selector kinds must appear");
        assert_eq!(kinds.len(), 3, "all workload shapes must appear");
    }
}
