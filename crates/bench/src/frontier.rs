//! The memory–accuracy frontier: WaveSketch vs. the baselines on the
//! adversarial scenario matrix.
//!
//! For every scenario in [`umon_workloads::scenario_matrix`] this module
//! runs the netsim once (failure schedule and all), rebuilds the exact
//! per-flow ground truth through the testkit [`Oracle`], then sweeps a
//! ladder of equal-memory budgets across WaveSketch, Fourier, OmniWindow
//! and Persist-CMS and scores each point with the three frontier metrics:
//!
//! * **NMSE** — per-flow curve error normalized by the flow's true energy,
//! * **burst recall** — fraction of true above-threshold windows the
//!   reconstruction also flags (threshold: half the flow's true peak),
//! * **heavy-hitter F1** — top-k flow-set agreement per source host.
//!
//! Everything is seeded and wall-clock free, so two `--record --only
//! frontier` runs produce byte-identical `results/frontier_*.json` files.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use umon_baselines::budget::SweepLayout;
use umon_baselines::CurveSketch;
use umon_metrics::{burst_recall, heavy_hitter_f1, nmse};
use umon_netsim::{PfcConfig, SimConfig, Simulator, Topology, TxRecord};
use umon_testkit::Oracle;
use umon_workloads::{scenario_matrix, Scenario};
use wavesketch::{FlowKey, SelectorKind, SketchConfig};

use crate::{PERIOD_WINDOWS, WINDOW_SHIFT};

/// Seed for the whole frontier (scenario generation and the simulator).
pub const FRONTIER_SEED: u64 = 0xF407;

/// Schemes swept at every budget, in output order.
pub const SCHEMES: [&str; 4] = ["wavesketch", "fourier", "omniwindow", "persist_cms"];

/// The budget ladder, bytes of total sketch memory.
pub fn budgets(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![64 * 1024, 256 * 1024]
    } else {
        vec![64 * 1024, 150 * 1024, 300 * 1024, 600 * 1024, 1200 * 1024]
    }
}

/// One (scheme, budget) point on the frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemePoint {
    /// Scheme name (one of [`SCHEMES`]).
    pub scheme: String,
    /// Bytes the built sketch actually occupies at this budget.
    pub memory_bytes: usize,
    /// Mean per-flow normalized mean squared error (lower is better).
    pub nmse: f64,
    /// Mean per-flow burst recall at half the true peak (higher is better).
    pub burst_recall: f64,
    /// Mean per-host top-k heavy-hitter F1 (higher is better).
    pub heavy_hitter_f1: f64,
    /// Flows scored.
    pub flows: usize,
}

/// All schemes at one memory budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetRow {
    /// Total sketch memory budget, bytes.
    pub budget_bytes: usize,
    /// One point per scheme, in [`SCHEMES`] order.
    pub schemes: Vec<SchemePoint>,
}

/// The frontier of one scenario — the content of `results/frontier_<name>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioFrontier {
    /// Result-file schema version.
    pub schema: u32,
    /// Scenario name from the matrix.
    pub scenario: String,
    /// Seed the scenario and simulator ran with.
    pub seed: u64,
    /// Window shift (8.192 μs windows).
    pub window_shift: u32,
    /// Flows the scenario injected.
    pub injected_flows: usize,
    /// Failure events the scenario scheduled.
    pub failure_events: usize,
    /// Egress records the simulation produced.
    pub tx_records: usize,
    /// True time of the last simulator event, ns.
    pub sim_end_ns: u64,
    /// Budget ladder, ascending.
    pub budgets: Vec<BudgetRow>,
}

/// Runs one scenario through the simulator (PFC fabric and failure schedule
/// as the scenario demands) and returns the host egress tap.
pub fn run_scenario(scenario: &Scenario) -> (Vec<TxRecord>, u64) {
    let topo = Topology::fat_tree(scenario.topo_k, 100.0, 1000);
    let config = SimConfig {
        end_ns: scenario.end_ns,
        seed: FRONTIER_SEED,
        clock_error_ns: 0,
        pfc: if scenario.needs_pfc {
            Some(PfcConfig {
                xoff_bytes: 300 * 1024,
                xon_bytes: 200 * 1024,
            })
        } else {
            None
        },
        failures: scenario.failures.clone(),
        ..SimConfig::default()
    };
    let result = Simulator::new(topo, scenario.flows.clone(), config).run();
    (result.telemetry.tx_records, result.end_ns)
}

/// The oracle's epoch layout: paper defaults cover 4096 windows ≈ 33.5 ms,
/// comfortably past every scenario horizon, so no epoch ever rolls over and
/// `flow_epochs` is the exact dense truth.
fn oracle_config() -> SketchConfig {
    SketchConfig::builder().build()
}

fn make_scheme(layout: &SweepLayout, name: &str, budget: usize) -> Box<dyn CurveSketch> {
    match name {
        "wavesketch" => Box::new(layout.wavesketch(budget, SelectorKind::Ideal)),
        "fourier" => Box::new(layout.fourier(budget)),
        "omniwindow" => Box::new(layout.omniwindow(budget)),
        "persist_cms" => Box::new(layout.persist_cms(budget)),
        other => panic!("unknown frontier scheme {other}"),
    }
}

/// Dense truth curve of one flow from its oracle epochs:
/// `window → bytes`, plus the padded evaluation span.
fn truth_curve(oracle: &Oracle, flow: u64) -> Option<(BTreeMap<u64, f64>, u64, u64)> {
    let epochs = oracle.flow_epochs(&FlowKey::from_id(flow));
    let mut windows: BTreeMap<u64, f64> = BTreeMap::new();
    for e in &epochs {
        for (o, &v) in e.counts.iter().enumerate() {
            if v != 0 {
                *windows.entry(e.w0 + o as u64).or_insert(0.0) += v as f64;
            }
        }
    }
    let (&first, _) = windows.iter().next()?;
    let (&last, _) = windows.iter().next_back()?;
    // Pad by 8 windows on each side so smeared energy is charged (the same
    // rule as `evaluate_scheme`).
    let pad = 8u64;
    Some((windows, first.saturating_sub(pad), last + 1 + pad))
}

/// Scores every scheme at every budget on one simulated record stream.
pub fn evaluate_scenario(scenario: &Scenario, smoke: bool) -> ScenarioFrontier {
    let (records, sim_end_ns) = run_scenario(scenario);
    let num_hosts = scenario.topo_k.pow(3) / 4;

    // Partition per source host; records arrive time-ordered.
    let mut per_host: Vec<Vec<&TxRecord>> = vec![Vec::new(); num_hosts];
    for r in &records {
        per_host[r.host].push(r);
    }

    // Exact ground truth: one oracle per host, fed the same update stream
    // every sketch sees.
    let mut oracles: Vec<Oracle> = (0..num_hosts)
        .map(|_| Oracle::new(oracle_config()))
        .collect();
    let mut host_flows: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); num_hosts];
    for (host, recs) in per_host.iter().enumerate() {
        for r in recs {
            let w = r.ts_ns >> WINDOW_SHIFT;
            oracles[host].record(&FlowKey::from_id(r.flow.0), w, r.bytes as i64);
            host_flows[host].insert(r.flow.0);
        }
    }

    let layout = SweepLayout::paper(0, PERIOD_WINDOWS);
    let mut rows = Vec::new();
    for budget in budgets(smoke) {
        let mut points = Vec::new();
        for scheme_name in SCHEMES {
            let mut memory_bytes = 0;
            let mut nmse_sum = 0.0;
            let mut recall_sum = 0.0;
            let mut flows_scored = 0usize;
            let mut f1_sum = 0.0;
            let mut hosts_scored = 0usize;
            for (host, recs) in per_host.iter().enumerate() {
                if recs.is_empty() {
                    continue;
                }
                let mut sketch = make_scheme(&layout, scheme_name, budget);
                for r in recs {
                    let w = r.ts_ns >> WINDOW_SHIFT;
                    sketch.update(&FlowKey::from_id(r.flow.0), w, r.bytes as i64);
                }
                memory_bytes = sketch.memory_bytes();
                let mut truth_totals: Vec<(u64, f64)> = Vec::new();
                let mut est_totals: Vec<(u64, f64)> = Vec::new();
                for &flow in &host_flows[host] {
                    let Some((windows, start, end)) = truth_curve(&oracles[host], flow) else {
                        continue;
                    };
                    let t: Vec<f64> = (start..end)
                        .map(|w| windows.get(&w).copied().unwrap_or(0.0))
                        .collect();
                    let g: Vec<f64> = match sketch.query(&FlowKey::from_id(flow)) {
                        Some(series) => (start..end).map(|w| series.at(w)).collect(),
                        None => vec![0.0; t.len()],
                    };
                    nmse_sum += nmse(&t, &g);
                    let peak = t.iter().cloned().fold(0.0f64, f64::max);
                    recall_sum += burst_recall(&t, &g, peak / 2.0);
                    flows_scored += 1;
                    truth_totals.push((flow, t.iter().sum()));
                    est_totals.push((flow, g.iter().sum()));
                }
                if !truth_totals.is_empty() {
                    let k = (truth_totals.len() / 4).clamp(1, 8);
                    f1_sum += heavy_hitter_f1(&truth_totals, &est_totals, k);
                    hosts_scored += 1;
                }
            }
            let n = flows_scored.max(1) as f64;
            points.push(SchemePoint {
                scheme: scheme_name.to_string(),
                memory_bytes,
                nmse: nmse_sum / n,
                burst_recall: recall_sum / n,
                heavy_hitter_f1: f1_sum / hosts_scored.max(1) as f64,
                flows: flows_scored,
            });
        }
        rows.push(BudgetRow {
            budget_bytes: budget,
            schemes: points,
        });
    }

    ScenarioFrontier {
        schema: 1,
        scenario: scenario.name.clone(),
        seed: FRONTIER_SEED,
        window_shift: WINDOW_SHIFT,
        injected_flows: scenario.flows.len(),
        failure_events: scenario.failures.events.len(),
        tx_records: records.len(),
        sim_end_ns,
        budgets: rows,
    }
}

/// The full sweep: every matrix scenario, in matrix order.
pub fn sweep() -> Vec<ScenarioFrontier> {
    scenario_matrix(FRONTIER_SEED, false)
        .iter()
        .map(|s| evaluate_scenario(s, false))
        .collect()
}

/// Checks one frontier metric is finite and inside `[lo, hi]`; returns an
/// error string for the gate to report.
pub fn check_metric(ctx: &str, name: &str, v: f64, lo: f64, hi: f64) -> Result<(), String> {
    if v.is_finite() && (lo..=hi).contains(&v) {
        Ok(())
    } else {
        Err(format!("{ctx}: {name} = {v} outside [{lo}, {hi}]"))
    }
}

/// Validates every point of a frontier file: three finite in-range metrics
/// per scheme, every scheme present at every budget, flows actually scored.
pub fn validate_frontier(f: &ScenarioFrontier) -> Result<(), String> {
    if f.budgets.is_empty() {
        return Err(format!("{}: no budgets", f.scenario));
    }
    for row in &f.budgets {
        let names: Vec<&str> = row.schemes.iter().map(|p| p.scheme.as_str()).collect();
        if names != SCHEMES {
            return Err(format!(
                "{}@{}: schemes {names:?} != {SCHEMES:?}",
                f.scenario, row.budget_bytes
            ));
        }
        for p in &row.schemes {
            let ctx = format!("{}@{}:{}", f.scenario, row.budget_bytes, p.scheme);
            check_metric(&ctx, "nmse", p.nmse, 0.0, f64::MAX)?;
            check_metric(&ctx, "burst_recall", p.burst_recall, 0.0, 1.0)?;
            check_metric(&ctx, "heavy_hitter_f1", p.heavy_hitter_f1, 0.0, 1.0)?;
            if p.flows == 0 {
                return Err(format!("{ctx}: scored zero flows"));
            }
            if p.memory_bytes == 0 {
                return Err(format!("{ctx}: zero sketch memory"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_scenario(name: &str) -> Scenario {
        scenario_matrix(FRONTIER_SEED, true)
            .into_iter()
            .find(|s| s.name == name)
            .expect("scenario in matrix")
    }

    #[test]
    fn frontier_point_is_deterministic() {
        let s = smoke_scenario("incast_dcqcn");
        let a = evaluate_scenario(&s, true);
        let b = evaluate_scenario(&s, true);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        validate_frontier(&a).expect("smoke frontier validates");
    }

    #[test]
    fn failure_scenario_produces_finite_metrics() {
        let s = smoke_scenario("pfc_storm");
        assert!(!s.failures.is_empty(), "pfc_storm must inject failures");
        let f = evaluate_scenario(&s, true);
        validate_frontier(&f).expect("failure-injected frontier validates");
        assert!(f.tx_records > 0);
    }

    #[test]
    fn bigger_budget_never_hurts_wavesketch_much() {
        // Sanity: the frontier must actually slope — WaveSketch at the top
        // budget should be at least as accurate as at the bottom one.
        let s = smoke_scenario("incast_dcqcn");
        let f = evaluate_scenario(&s, true);
        let ws = |row: &BudgetRow| {
            row.schemes
                .iter()
                .find(|p| p.scheme == "wavesketch")
                .unwrap()
                .nmse
        };
        let small = ws(&f.budgets[0]);
        let big = ws(f.budgets.last().unwrap());
        assert!(
            big <= small * 1.5 + 1e-9,
            "wavesketch nmse rose from {small} to {big} with more memory"
        );
    }

    #[test]
    fn validate_frontier_rejects_broken_points() {
        let s = smoke_scenario("incast_dcqcn");
        let mut f = evaluate_scenario(&s, true);
        f.budgets[0].schemes[0].nmse = f64::NAN;
        assert!(validate_frontier(&f).is_err());
    }
}
