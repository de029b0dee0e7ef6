//! Batch-vs-scalar bit-identity properties (DESIGN.md §15).
//!
//! `update_batch` may reorder *independent* work only, so for any stream,
//! any burst size and whichever path it selects on this CPU, the sketch must
//! end up indistinguishable from per-record `update` calls: drain reports
//! compared exactly, reconstructed curves compared by `f64::to_bits` (not
//! an epsilon), heavy elections and eviction counts equal.
//!
//! The configs here are deliberately tiny so the generated streams cross
//! every boundary the staging pipeline has to respect: `max_windows` is
//! small enough that single bursts straddle epoch seals, `heavy_rows` is
//! small enough that evictions land mid-batch, and streams longer than the
//! staging `CHUNK` (256) cover chunk-boundary remainders.

use proptest::prelude::*;
use wavesketch::{BasicWaveSketch, FlowKey, FullWaveSketch, SketchConfig};

/// Epochs roll over at 16 windows; 8 heavy slots for ~40 flows guarantees
/// vote churn; width 32 keeps collisions (and thus shared buckets) common.
fn churn_config() -> SketchConfig {
    SketchConfig::builder()
        .rows(3)
        .width(32)
        .levels(4)
        .topk(32)
        .max_windows(16)
        .heavy_rows(8)
        .build()
}

/// An arbitrary stream: flow ids over a small population, windows spanning
/// several epochs of `churn_config` (0..96 with `max_windows = 16`), and
/// positive byte counts. Sorted by window like a real timeline, which still
/// leaves same-window reordering and epoch straddling to the batch path.
fn stream(max_len: usize) -> impl Strategy<Value = Vec<(FlowKey, u64, i64)>> {
    proptest::collection::vec((0u64..40, 0u64..96, 1i64..100_000), 0..max_len).prop_map(|mut v| {
        v.sort_by_key(|&(_, w, _)| w);
        v.into_iter()
            .map(|(id, w, val)| (FlowKey::from_id(id), w, val))
            .collect()
    })
}

/// Asserts two curve queries are bit-identical.
fn assert_curves_match(
    scalar: Option<wavesketch::basic::WindowSeries>,
    batched: Option<wavesketch::basic::WindowSeries>,
) -> Result<(), TestCaseError> {
    match (scalar, batched) {
        (None, None) => Ok(()),
        (Some(s), Some(b)) => {
            prop_assert_eq!(s.start_window, b.start_window);
            let s_bits: Vec<u64> = s.values.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(s_bits, b_bits);
            Ok(())
        }
        (s, b) => {
            prop_assert!(
                false,
                "curve presence differs: scalar {:?} batch {:?}",
                s,
                b
            );
            Ok(())
        }
    }
}

#[test]
fn empty_batch_is_a_noop() {
    let mut batched = FullWaveSketch::new(churn_config());
    batched.update_batch(&[]);
    let mut scalar = FullWaveSketch::new(churn_config());
    assert_eq!(batched.drain(), scalar.drain());

    let mut batched = BasicWaveSketch::new(churn_config());
    batched.update_batch(&[]);
    let mut scalar = BasicWaveSketch::new(churn_config());
    assert_eq!(batched.drain(), scalar.drain());
}

proptest! {
    /// Full sketch: heavy elections, eviction counts, per-flow curves and
    /// the full drain report all bit-identical for any burst size — 1,
    /// odd sizes, larger than the stream, and larger than the staging CHUNK.
    #[test]
    fn full_batch_matches_scalar_bit_for_bit(
        records in stream(600),
        burst in 1usize..600,
    ) {
        let mut scalar = FullWaveSketch::new(churn_config());
        for (f, w, v) in &records {
            scalar.update(f, *w, *v);
        }
        let mut batched = FullWaveSketch::new(churn_config());
        for chunk in records.chunks(burst) {
            batched.update_batch(chunk);
        }

        prop_assert_eq!(scalar.evictions(), batched.evictions());
        let mut heavy_s = scalar.heavy_flows();
        let mut heavy_b = batched.heavy_flows();
        heavy_s.sort();
        heavy_b.sort();
        prop_assert_eq!(heavy_s, heavy_b);
        for (f, _, _) in &records {
            prop_assert_eq!(scalar.is_heavy(f), batched.is_heavy(f));
            assert_curves_match(scalar.query(f), batched.query(f))?;
        }
        prop_assert_eq!(scalar.drain(), batched.drain());
    }

    /// Basic (light-only) sketch: same contract without the vote machine,
    /// so this isolates the row-phased light fold.
    #[test]
    fn basic_batch_matches_scalar_bit_for_bit(
        records in stream(600),
        burst in 1usize..600,
    ) {
        let mut scalar = BasicWaveSketch::new(churn_config());
        for (f, w, v) in &records {
            scalar.update(f, *w, *v);
        }
        let mut batched = BasicWaveSketch::new(churn_config());
        for chunk in records.chunks(burst) {
            batched.update_batch(chunk);
        }
        for (f, _, _) in &records {
            assert_curves_match(scalar.query(f), batched.query(f))?;
        }
        prop_assert_eq!(scalar.drain(), batched.drain());
    }

    /// Unsorted timelines (clock-skew stragglers folding into the current
    /// window, including regressions *across* an epoch seal) take different
    /// arena branches than monotone streams — identity must survive them
    /// too, since the batch path replays per-bucket order exactly.
    #[test]
    fn full_batch_matches_scalar_on_unsorted_streams(
        raw in proptest::collection::vec((0u64..40, 0u64..96, 1i64..100_000), 0..300),
        burst in 1usize..300,
    ) {
        let records: Vec<(FlowKey, u64, i64)> = raw
            .into_iter()
            .map(|(id, w, v)| (FlowKey::from_id(id), w, v))
            .collect();
        let mut scalar = FullWaveSketch::new(churn_config());
        for (f, w, v) in &records {
            scalar.update(f, *w, *v);
        }
        let mut batched = FullWaveSketch::new(churn_config());
        for chunk in records.chunks(burst) {
            batched.update_batch(chunk);
        }
        prop_assert_eq!(scalar.evictions(), batched.evictions());
        for (f, _, _) in &records {
            prop_assert_eq!(scalar.is_heavy(f), batched.is_heavy(f));
            assert_curves_match(scalar.query(f), batched.query(f))?;
        }
        prop_assert_eq!(scalar.drain(), batched.drain());
    }
}
