//! # umon-bench — the experiment harness
//!
//! Shared plumbing for the paper's figures and tables ([`figures`]) and the
//! memory–accuracy frontier ([`frontier`]): it runs the paper's simulation
//! workloads, builds ground-truth rate curves from the simulator's egress
//! tap, sweeps measurement schemes at equal memory, and evaluates the
//! Appendix-E accuracy metrics per flow. `umon_bench --record --only
//! results` writes every `results/*.json` from here.

use std::collections::BTreeMap;
use umon_baselines::CurveSketch;
use umon_metrics::{all_metrics, MetricSummary, WorkloadAccuracy};
use umon_netsim::{FlowSpec, SimConfig, SimResult, Simulator, Topology, TxRecord};
use umon_workloads::{WorkloadKind, WorkloadParams};
use wavesketch::FlowKey;

/// The paper's window shift: 8.192 μs windows.
pub const WINDOW_SHIFT: u32 = 13;
/// The paper's measurement period: 20 ms.
pub const PERIOD_NS: u64 = 20_000_000;
/// Windows per 20 ms period at 8.192 μs.
pub const PERIOD_WINDOWS: usize = (PERIOD_NS >> WINDOW_SHIFT) as usize + 1;

/// Runs one paper workload (k=4 fat-tree, 100 Gbps, 1 μs hops) and returns
/// the flow list plus the simulation result.
pub fn run_paper_workload(kind: WorkloadKind, load: f64, seed: u64) -> (Vec<FlowSpec>, SimResult) {
    let params = WorkloadParams::paper(kind, load, seed);
    let flows = params.generate();
    let topo = Topology::fat_tree(4, 100.0, 1000);
    let config = SimConfig {
        end_ns: PERIOD_NS + 5_000_000, // let in-flight traffic land
        seed,
        ..SimConfig::default()
    };
    let result = Simulator::new(topo, flows.clone(), config).run();
    (flows, result)
}

/// Ground-truth per-flow window series measured at the flow's source host:
/// `(host, flow) → bytes per absolute window`, in key order.
pub fn ground_truth(
    records: &[TxRecord],
    window_shift: u32,
) -> BTreeMap<(usize, u64), BTreeMap<u64, f64>> {
    let mut truth: BTreeMap<(usize, u64), BTreeMap<u64, f64>> = BTreeMap::new();
    for r in records {
        let w = r.ts_ns >> window_shift;
        *truth
            .entry((r.host, r.flow.0))
            .or_default()
            .entry(w)
            .or_insert(0.0) += r.bytes as f64;
    }
    truth
}

/// Dense truth curve over `[start, end)` from a sparse window map.
pub fn dense_curve(windows: &BTreeMap<u64, f64>, start: u64, end: u64) -> Vec<f64> {
    (start..end)
        .map(|w| windows.get(&w).copied().unwrap_or(0.0))
        .collect()
}

/// Feeds each host's egress records into its own instance of a scheme
/// (`make` is called once per host), queries every flow at its source host
/// and averages the four metrics over flows — one data point of
/// Figures 11/12. Hosts and flows are visited in ascending id order, so the
/// float sums behind the averages are the same in every process.
///
/// Returns `(summary, per_flow)` where `per_flow` maps flow id to
/// `(flow_bytes, metrics)` for the flow-size breakdowns (Figures 17/18).
pub fn evaluate_scheme<F>(
    records: &[TxRecord],
    num_hosts: usize,
    mut make: F,
) -> (MetricSummary, Vec<(u64, f64, MetricSummary)>)
where
    F: FnMut() -> Box<dyn CurveSketch>,
{
    // Partition records per host (they are already time-ordered).
    let mut per_host: Vec<Vec<&TxRecord>> = vec![Vec::new(); num_hosts];
    for r in records {
        per_host[r.host].push(r);
    }
    let truth = ground_truth(records, WINDOW_SHIFT);
    let mut acc = WorkloadAccuracy::new();
    let mut per_flow = Vec::new();
    for (host, recs) in per_host.iter().enumerate() {
        if recs.is_empty() {
            continue;
        }
        let mut sketch = make();
        for r in recs {
            let w = r.ts_ns >> WINDOW_SHIFT;
            sketch.update(&FlowKey::from_id(r.flow.0), w, r.bytes as i64);
        }
        // Every flow sourced at this host.
        for (&(_, flow), tw) in truth.range((host, 0)..=(host, u64::MAX)) {
            // Evaluate over the flow's active span padded by 8 windows on
            // each side: schemes that smear a burst beyond its true windows
            // must be charged for it (a 1-window flow would otherwise score
            // a trivially perfect cosine on a 1-sample vector).
            let pad = 8u64;
            let start = tw.keys().next().expect("non-empty").saturating_sub(pad);
            let end = *tw.keys().next_back().expect("non-empty") + 1 + pad;
            let t = dense_curve(tw, start, end);
            let est = match sketch.query(&FlowKey::from_id(flow)) {
                Some(series) => (start..end).map(|w| series.at(w)).collect::<Vec<f64>>(),
                None => vec![0.0; t.len()],
            };
            let m = all_metrics(&t, &est);
            let bytes: f64 = t.iter().sum();
            acc.add(m);
            per_flow.push((flow, bytes, m));
        }
    }
    (acc.mean(), per_flow)
}

/// Groups per-flow metrics by flow length (packets at 1000 B MTU) into
/// logarithmic buckets — the x-axis of Figures 17/18. Returns
/// `(bucket_upper_packets, mean metrics, flows_in_bucket)` rows.
pub fn by_flow_length(
    per_flow: &[(u64, f64, MetricSummary)],
    mtu: f64,
) -> Vec<(u64, MetricSummary, usize)> {
    let mut buckets: BTreeMap<u64, WorkloadAccuracy> = BTreeMap::new();
    for &(_, bytes, m) in per_flow {
        let packets = (bytes / mtu).ceil().max(1.0) as u64;
        // Log10 buckets: 10, 100, 1000, 10000, ...
        let bucket = 10u64.pow((packets as f64).log10().ceil().max(1.0) as u32);
        buckets.entry(bucket).or_default().add(m);
    }
    buckets
        .into_iter()
        .map(|(b, acc)| {
            let n = acc.flow_count();
            (b, acc.mean(), n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use umon_baselines::budget::SweepLayout;
    use umon_netsim::FlowId;
    use wavesketch::SelectorKind;

    fn synth_records() -> Vec<TxRecord> {
        // Two hosts, three flows, deterministic pattern.
        let mut recs = Vec::new();
        for i in 0..200u64 {
            recs.push(TxRecord {
                host: 0,
                flow: FlowId(i % 2),
                ts_ns: i * 20_000,
                bytes: 1000,
            });
            recs.push(TxRecord {
                host: 1,
                flow: FlowId(2),
                ts_ns: i * 40_000,
                bytes: 500,
            });
        }
        recs.sort_by_key(|r| r.ts_ns);
        recs
    }

    #[test]
    fn ground_truth_buckets_by_window() {
        let recs = vec![
            TxRecord {
                host: 0,
                flow: FlowId(1),
                ts_ns: 0,
                bytes: 100,
            },
            TxRecord {
                host: 0,
                flow: FlowId(1),
                ts_ns: 100,
                bytes: 100,
            },
            TxRecord {
                host: 0,
                flow: FlowId(1),
                ts_ns: 8192,
                bytes: 100,
            },
        ];
        let t = ground_truth(&recs, 13);
        let w = &t[&(0, 1)];
        assert_eq!(w[&0], 200.0);
        assert_eq!(w[&1], 100.0);
    }

    #[test]
    fn evaluate_scheme_scores_wavesketch_nearly_perfect_with_big_memory() {
        let recs = synth_records();
        let layout = SweepLayout::paper(0, PERIOD_WINDOWS);
        let (summary, per_flow) = evaluate_scheme(&recs, 2, || {
            Box::new(layout.wavesketch(8 << 20, SelectorKind::Ideal))
        });
        assert_eq!(per_flow.len(), 3);
        assert!(summary.are < 0.01, "ARE {} too high", summary.are);
        assert!(summary.cosine > 0.99);
    }

    #[test]
    fn evaluate_scheme_ranks_wavesketch_above_omniwindow_at_small_memory() {
        let recs = synth_records();
        let layout = SweepLayout::paper(0, PERIOD_WINDOWS);
        let budget = 150 * 1024;
        let (ws, _) = evaluate_scheme(&recs, 2, || {
            Box::new(layout.wavesketch(budget, SelectorKind::Ideal))
        });
        let (ow, _) = evaluate_scheme(&recs, 2, || Box::new(layout.omniwindow(budget)));
        assert!(
            ws.cosine >= ow.cosine,
            "WaveSketch cosine {} must beat OmniWindow {}",
            ws.cosine,
            ow.cosine
        );
    }

    #[test]
    fn evaluate_scheme_is_bit_identical_across_calls() {
        // 240 flows of mixed sizes on three hosts, through a sketch small
        // enough that every flow scores differently: the averages then
        // depend on the order the flows are summed in.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(44);
        let mut recs: Vec<TxRecord> = (0..240u64)
            .flat_map(|flow| {
                let start = rng.gen_range(0..2_000_000u64);
                let packets = rng.gen_range(1..60u64);
                let gap = rng.gen_range(1_000..40_000u64);
                (0..packets).map(move |i| TxRecord {
                    host: (flow % 3) as usize,
                    flow: FlowId(flow),
                    ts_ns: start + i * gap,
                    bytes: 1000,
                })
            })
            .collect();
        recs.sort_by_key(|r| r.ts_ns);
        let layout = SweepLayout::paper(0, PERIOD_WINDOWS);
        let run = || evaluate_scheme(&recs, 3, || Box::new(layout.omniwindow(16 * 1024)));
        let bits = |m: &MetricSummary| [m.euclidean, m.are, m.cosine, m.energy].map(f64::to_bits);
        let (a, a_flows) = run();
        let (b, b_flows) = run();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a_flows.len(), 240);
        for (x, y) in a_flows.iter().zip(&b_flows) {
            assert_eq!(
                (x.0, x.1.to_bits(), bits(&x.2)),
                (y.0, y.1.to_bits(), bits(&y.2))
            );
        }
    }

    #[test]
    fn flow_length_buckets_are_logarithmic() {
        let m = MetricSummary {
            euclidean: 1.0,
            are: 0.1,
            cosine: 0.9,
            energy: 0.9,
        };
        let per_flow = vec![
            (0u64, 5_000.0, m),  // 5 packets → bucket 10
            (1, 50_000.0, m),    // 50 packets → bucket 100
            (2, 70_000.0, m),    // 70 packets → bucket 100
            (3, 5_000_000.0, m), // 5000 packets → bucket 10000
        ];
        let rows = by_flow_length(&per_flow, 1000.0);
        let buckets: Vec<u64> = rows.iter().map(|r| r.0).collect();
        assert_eq!(buckets, vec![10, 100, 10_000]);
        assert_eq!(rows[1].2, 2);
    }
}
pub mod accuracy;
pub mod figures;
pub mod frontier;
