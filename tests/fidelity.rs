//! Fidelity guards: small-scale versions of the paper's headline claims,
//! run as ordinary tests so a regression in any component that would change
//! the *shape* of a figure fails CI, not just a rerun of the figures.

use std::collections::BTreeMap;
use umon_repro::umon_baselines::budget::SweepLayout;
use umon_repro::umon_baselines::CurveSketch;
use umon_repro::umon_metrics::{all_metrics, WorkloadAccuracy};
use umon_repro::umon_netsim::{SimConfig, Simulator, Topology};
use umon_repro::umon_workloads::{WorkloadKind, WorkloadParams};
use umon_repro::wavesketch::{FlowKey, SelectorKind};

const WINDOW_SHIFT: u32 = 13;

fn small_run(kind: WorkloadKind) -> umon_repro::umon_netsim::SimResult {
    let params = WorkloadParams {
        duration_ns: 4_000_000,
        ..WorkloadParams::paper(kind, 0.2, 7)
    };
    let flows = params.generate();
    let topo = Topology::fat_tree(4, 100.0, 1000);
    let config = SimConfig {
        end_ns: 7_000_000,
        seed: 7,
        collect_queue_dist: false,
        ..SimConfig::default()
    };
    Simulator::new(topo, flows, config).run()
}

/// Feeds all hosts into per-host instances and averages flow metrics, flows
/// in `(host, flow)` order: the mean of the same input is the same bits in
/// every process.
fn score(
    result: &umon_repro::umon_netsim::SimResult,
    mut make: impl FnMut() -> Box<dyn CurveSketch>,
) -> umon_repro::umon_metrics::MetricSummary {
    let records = &result.telemetry.tx_records;
    let mut truth: BTreeMap<(usize, u64), BTreeMap<u64, f64>> = BTreeMap::new();
    for r in records {
        *truth
            .entry((r.host, r.flow.0))
            .or_default()
            .entry(r.ts_ns >> WINDOW_SHIFT)
            .or_insert(0.0) += r.bytes as f64;
    }
    let mut acc = WorkloadAccuracy::new();
    for host in 0..16usize {
        let mut sketch = make();
        for r in records.iter().filter(|r| r.host == host) {
            sketch.update(
                &FlowKey::from_id(r.flow.0),
                r.ts_ns >> WINDOW_SHIFT,
                r.bytes as i64,
            );
        }
        for (&(_, flow), windows) in truth.range((host, 0)..(host + 1, 0)) {
            let start = windows.keys().next().unwrap().saturating_sub(4);
            let end = windows.keys().next_back().unwrap() + 5;
            let t: Vec<f64> = (start..end)
                .map(|w| windows.get(&w).copied().unwrap_or(0.0))
                .collect();
            let est: Vec<f64> = match sketch.query(&FlowKey::from_id(flow)) {
                Some(c) => (start..end).map(|w| c.at(w)).collect(),
                None => vec![0.0; t.len()],
            };
            acc.add(all_metrics(&t, &est));
        }
    }
    acc.mean()
}

/// `score` is a pure function of its input: two calls in one process agree
/// on every metric's bits (it once averaged flows in `HashMap` order, whose
/// per-process random keys moved the last bits between runs).
#[test]
fn score_is_bit_identical_across_calls() {
    let result = small_run(WorkloadKind::Hadoop);
    let windows = (7_000_000u64 >> WINDOW_SHIFT) as usize + 1;
    let make = || -> Box<dyn CurveSketch> {
        Box::new(SweepLayout::paper(0, windows).wavesketch(200 * 1024, SelectorKind::Ideal))
    };
    let bits = |m: umon_repro::umon_metrics::MetricSummary| {
        [m.euclidean, m.are, m.cosine, m.energy].map(f64::to_bits)
    };
    assert_eq!(bits(score(&result, make)), bits(score(&result, make)));
}

#[test]
fn wavesketch_beats_every_baseline_at_200kb() {
    // The Figure 11/12 ordering, on both workloads at one memory point.
    let windows = (7_000_000u64 >> WINDOW_SHIFT) as usize + 1;
    for kind in [WorkloadKind::Hadoop, WorkloadKind::WebSearch] {
        let result = small_run(kind);
        let layout = SweepLayout::paper(0, windows);
        let budget = 200 * 1024;
        let ws = score(&result, || {
            Box::new(SweepLayout::paper(0, windows).wavesketch(budget, SelectorKind::Ideal))
        });
        type SketchFactory = Box<dyn Fn() -> Box<dyn CurveSketch>>;
        let schemes: Vec<(&str, SketchFactory)> = vec![
            (
                "omniwindow",
                Box::new(move || {
                    Box::new(SweepLayout::paper(0, windows).omniwindow(budget))
                        as Box<dyn CurveSketch>
                }),
            ),
            (
                "fourier",
                Box::new(move || {
                    Box::new(SweepLayout::paper(0, windows).fourier(budget)) as Box<dyn CurveSketch>
                }),
            ),
            (
                "persist",
                Box::new(move || {
                    Box::new(SweepLayout::paper(0, windows).persist_cms(budget))
                        as Box<dyn CurveSketch>
                }),
            ),
        ];
        for (name, make) in schemes {
            let baseline = score(&result, || make());
            assert!(
                ws.euclidean < baseline.euclidean,
                "{kind:?}/{name}: WaveSketch euclidean {} must beat {}",
                ws.euclidean,
                baseline.euclidean
            );
            assert!(
                ws.are <= baseline.are + 1e-9,
                "{kind:?}/{name}: WaveSketch ARE {} must beat {}",
                ws.are,
                baseline.are
            );
        }
        let _ = layout;
        // And the paper's absolute headline: <10% ARE, >90% energy.
        assert!(ws.are < 0.10, "{kind:?}: ARE {}", ws.are);
        assert!(ws.energy > 0.90, "{kind:?}: energy {}", ws.energy);
    }
}

#[test]
fn hw_version_tracks_ideal_closely() {
    // §7.1: "the accuracy of the hardware approximate implementation is
    // close to the accuracy of an ideal WaveSketch".
    let result = small_run(WorkloadKind::Hadoop);
    let windows = (7_000_000u64 >> WINDOW_SHIFT) as usize + 1;
    let budget = 200 * 1024;
    let ideal = score(&result, || {
        Box::new(SweepLayout::paper(0, windows).wavesketch(budget, SelectorKind::Ideal))
    });
    // A mid-scale threshold stands in for trace calibration here; the bench
    // harness calibrates properly (accuracy::calibrate_hw).
    let hw = score(&result, || {
        Box::new(SweepLayout::paper(0, windows).wavesketch(
            budget,
            SelectorKind::HwThreshold {
                even: 600,
                odd: 600,
            },
        ))
    });
    assert!(
        hw.cosine > ideal.cosine - 0.05,
        "hw cosine {} vs ideal {}",
        hw.cosine,
        ideal.cosine
    );
    assert!(
        hw.are < ideal.are * 20.0 + 0.05,
        "hw ARE {} vs ideal {}",
        hw.are,
        ideal.are
    );
}
