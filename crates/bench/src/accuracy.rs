//! The accuracy-sweep engine behind Figures 11, 12, 17 and 18: all schemes
//! at equal memory over one simulated workload.

use crate::{by_flow_length, evaluate_scheme, PERIOD_WINDOWS, WINDOW_SHIFT};
use std::collections::BTreeMap;
use umon_baselines::budget::SweepLayout;
use umon_baselines::CurveSketch;
use umon_metrics::MetricSummary;
use umon_netsim::TxRecord;
use umon_workloads::WorkloadKind;
use wavesketch::hw::calibrate_thresholds;
use wavesketch::{FlowKey, SelectorKind};

/// The five schemes of the accuracy figures.
pub const SCHEMES: [&str; 5] = [
    "WaveSketch-Ideal",
    "WaveSketch-HW",
    "OmniWindow-Avg",
    "Fourier",
    "Persist-CMS",
];

/// One accuracy data point: scheme × memory budget.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Scheme name.
    pub scheme: &'static str,
    /// Memory budget in bytes.
    pub memory_bytes: usize,
    /// Workload-average metrics.
    pub summary: MetricSummary,
    /// Per-flow `(flow, bytes, metrics)` rows for flow-size breakdowns.
    pub per_flow: Vec<(u64, f64, MetricSummary)>,
}

/// Calibrates WaveSketch-HW thresholds from sampled *bucket-level* traces
/// (§4.3: sample traces from the actual scenario, measure them with an
/// ideal WaveSketch, take the median of the heap minima). Bucket streams —
/// not individual flows — are what the selectors actually see, including
/// the aggregation of mice flows into elongated background streams.
pub fn calibrate_hw(records: &[TxRecord], k: usize) -> SelectorKind {
    let layout = SweepLayout::paper(0, PERIOD_WINDOWS);
    // Assign every record of host 0's traffic to its row-0 bucket under the
    // sweep layout's hash, building per-bucket window series.
    let sample_host = records.first().map(|r| r.host).unwrap_or(0);
    let mut buckets: BTreeMap<u64, Vec<(u32, i64)>> = BTreeMap::new();
    for r in records {
        if r.host != sample_host {
            continue;
        }
        let col = FlowKey::from_id(r.flow.0).hash(0, layout.seed) % layout.width as u64;
        let w = (r.ts_ns >> WINDOW_SHIFT) as u32;
        let e = buckets.entry(col).or_default();
        match e.last_mut() {
            Some(last) if last.0 == w => last.1 += r.bytes as i64,
            _ => e.push((w, r.bytes as i64)),
        }
    }
    let cap = PERIOD_WINDOWS.next_power_of_two() as u32;
    let traces: Vec<Vec<(u32, i64)>> = buckets
        .into_values()
        .map(|mut t| {
            let base = t.first().map(|&(w, _)| w).unwrap_or(0);
            for p in &mut t {
                p.0 -= base;
            }
            t.retain(|&(w, _)| w < cap);
            t
        })
        .collect();
    let cfg = calibrate_thresholds(&traces, 8, cap as usize, k.max(2));
    cfg.kind()
}

/// Runs the full sweep: every scheme at every memory budget.
pub fn sweep(records: &[TxRecord], num_hosts: usize, budgets_kb: &[usize]) -> Vec<AccuracyPoint> {
    let layout = SweepLayout::paper(0, PERIOD_WINDOWS);
    let mut out = Vec::new();
    for &kb in budgets_kb {
        let budget = kb * 1024;
        // K for this budget (reused by HW calibration).
        let k = layout.wavesketch(budget, SelectorKind::Ideal).config().topk;
        let hw_kind = calibrate_hw(records, k);
        type SketchFactory = Box<dyn Fn() -> Box<dyn CurveSketch>>;
        let makes: Vec<(&'static str, SketchFactory)> = vec![
            (
                SCHEMES[0],
                Box::new(move || {
                    Box::new(
                        SweepLayout::paper(0, PERIOD_WINDOWS)
                            .wavesketch(budget, SelectorKind::Ideal),
                    )
                }),
            ),
            (
                SCHEMES[1],
                Box::new(move || {
                    Box::new(SweepLayout::paper(0, PERIOD_WINDOWS).wavesketch(budget, hw_kind))
                }),
            ),
            (
                SCHEMES[2],
                Box::new(move || {
                    Box::new(SweepLayout::paper(0, PERIOD_WINDOWS).omniwindow(budget))
                }),
            ),
            (
                SCHEMES[3],
                Box::new(move || Box::new(SweepLayout::paper(0, PERIOD_WINDOWS).fourier(budget))),
            ),
            (
                SCHEMES[4],
                Box::new(move || {
                    Box::new(SweepLayout::paper(0, PERIOD_WINDOWS).persist_cms(budget))
                }),
            ),
        ];
        for (name, make) in makes {
            let (summary, per_flow) = evaluate_scheme(records, num_hosts, || make());
            out.push(AccuracyPoint {
                scheme: name,
                memory_bytes: budget,
                summary,
                per_flow,
            });
        }
    }
    out
}

/// The JSON of a Figure 11/12 sweep: one row per (scheme, budget).
pub fn report(kind: WorkloadKind, load: f64, points: &[AccuracyPoint]) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = points
        .iter()
        .map(|p| {
            serde_json::json!({
                "scheme": p.scheme,
                "memory_kb": p.memory_bytes / 1024,
                "euclidean": p.summary.euclidean,
                "are": p.summary.are,
                "cosine": p.summary.cosine,
                "energy": p.summary.energy,
            })
        })
        .collect();
    serde_json::json!({
        "workload": kind.name(),
        "load": load,
        "points": rows,
    })
}

/// The JSON of a Figure 17/18 breakdown: one row per (scheme, flow-length
/// bucket) at `memory_bytes`.
pub fn report_by_flow_size(points: &[AccuracyPoint], memory_bytes: usize) -> serde_json::Value {
    let mut rows = Vec::new();
    for p in points.iter().filter(|p| p.memory_bytes == memory_bytes) {
        for (bucket, m, n) in by_flow_length(&p.per_flow, 1000.0) {
            rows.push(serde_json::json!({
                "scheme": p.scheme,
                "flow_length_bucket": bucket,
                "flows": n,
                "euclidean": m.euclidean,
                "are": m.are,
                "cosine": m.cosine,
                "energy": m.energy,
            }));
        }
    }
    serde_json::json!(rows)
}
