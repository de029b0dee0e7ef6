//! The paper's figures and tables, one function each.
//!
//! Every function runs its experiment from fixed seeds and returns the JSON
//! that `umon_bench --record --only results` writes to
//! `results/<name>.json`; [`FIGURES`] is the whole list. Nothing here reads a
//! clock or a per-process random state, so a rerun writes the same bytes. An
//! `assert!` states the shape a figure must keep (the paper's claim it
//! reproduces); a run that breaks one aborts before anything is written.

use std::collections::BTreeMap;

use serde_json::{json, Value};
use umon::usecases::find_gaps;
use umon::{
    loss_events, pause_storms, Analyzer, HostAgent, HostAgentConfig, PSwitchAgent, PSwitchConfig,
    SwitchAgent, SwitchAgentConfig,
};
use umon_baselines::{CurveSketch, OmniWindowAvg};
use umon_metrics::{all_metrics, cosine_similarity, counts_to_gbps, WorkloadAccuracy};
use umon_netsim::{
    CongestionControl, FlowId, FlowSpec, MirrorCandidate, PfcConfig, SimConfig, Simulator,
    Topology, TxRecord,
};
use umon_workloads::{
    counter_increase_factor, incast_burst, inter_arrival_cdf, on_off_background, WorkloadKind,
    WorkloadParams, WorkloadStats,
};
use wavesketch::reconstruct::reconstruct_non_negative;
use wavesketch::select::IdealTopK;
use wavesketch::streaming::StreamingTransform;
use wavesketch::{
    BasicWaveSketch, BucketReport, FlowKey, FullWaveSketch, PipelineBudget, ResourceUsage,
    SelectorKind, SketchConfig,
};

use crate::accuracy::{report, report_by_flow_size, sweep};
use crate::{
    dense_curve, evaluate_scheme, ground_truth, run_paper_workload, PERIOD_NS, PERIOD_WINDOWS,
    WINDOW_SHIFT,
};

/// One figure: the stem of its `results/*.json` file and its experiment.
pub type Figure = (&'static str, fn() -> Value);

/// Every figure and table, in file-name order.
pub const FIGURES: [Figure; 23] = [
    ("ablation_clock_sync", ablation_clock_sync),
    ("ablation_granularity", ablation_granularity),
    ("ablation_heavy_part", ablation_heavy_part),
    ("ablation_pswitch", ablation_pswitch),
    ("ablation_wavelet_params", ablation_wavelet_params),
    ("bandwidth_host", bandwidth_host),
    ("compression_ratio", compression_ratio),
    ("ext_pfc_loss_events", ext_pfc_loss_events),
    ("ext_scale_k8", ext_scale_k8),
    ("fig01_timescales", fig01_timescales),
    ("fig03_amplification", fig03_amplification),
    ("fig09_flow_behaviors", fig09_flow_behaviors),
    ("fig10_event_replay", fig10_event_replay),
    ("fig11_accuracy_hadoop15", fig11_accuracy_hadoop15),
    ("fig12_accuracy_websearch25", fig12_accuracy_websearch25),
    ("fig13_reconstruction", fig13_reconstruction),
    ("fig14_event_recall", fig14_event_recall),
    ("fig15_bandwidth", fig15_bandwidth),
    ("fig16_workload_info", fig16_workload_info),
    ("fig17_flow_size_websearch", fig17_flow_size_websearch),
    ("fig18_flow_size_hadoop", fig18_flow_size_hadoop),
    ("table1_resources", table1_resources),
    ("table2_workloads", table2_workloads),
];

/// Hosts of the paper's k = 4 fat-tree; its switches are [`SWITCHES`].
const HOSTS: usize = 16;
const SWITCHES: std::ops::Range<usize> = 16..36;

/// The four workload/load combinations of Figures 15 and 16.
const PAPER_COMBOS: [(WorkloadKind, f64); 4] = [
    (WorkloadKind::Hadoop, 0.15),
    (WorkloadKind::Hadoop, 0.35),
    (WorkloadKind::WebSearch, 0.15),
    (WorkloadKind::WebSearch, 0.35),
];

/// Mirrors `candidates` through one switch agent per switch into
/// `analyzer`; returns the mirrored wire bytes.
fn mirror_into(
    analyzer: &mut Analyzer,
    candidates: &[MirrorCandidate],
    config: SwitchAgentConfig,
) -> u64 {
    let mut bytes = 0;
    for switch in SWITCHES {
        let mut agent = SwitchAgent::new(switch, config);
        agent.ingest(candidates);
        bytes += agent
            .mirrored()
            .iter()
            .map(|m| m.wire_bytes as u64)
            .sum::<u64>();
        analyzer.add_mirrors(agent.drain());
    }
    bytes
}

/// The Figure 1/9/13 dumbbell: an observed DCQCN flow (host 0 → 2) of
/// `size_bytes` against on-off fixed-rate bursts (host 1 → 3).
fn dcqcn_vs_on_off(size_bytes: u64, background: Vec<FlowSpec>) -> Vec<FlowSpec> {
    let mut flows = vec![FlowSpec {
        id: FlowId(0),
        src: 0,
        dst: 2,
        size_bytes,
        start_ns: 0,
        cc: CongestionControl::Dcqcn,
    }];
    flows.extend(background);
    flows
}

fn dumbbell_config(end_ns: u64, seed: u64) -> SimConfig {
    SimConfig {
        end_ns,
        clock_error_ns: 0,
        seed,
        ..SimConfig::default()
    }
}

/// Ablation: time-synchronization sensitivity (§6.1) — μMon requires
/// nanosecond-level PTP-class sync; NTP's millisecond errors break the
/// event/rate alignment. Sweeps the per-node clock-error bound and measures
/// the recall of heavy (≥ KMax) episodes at a fixed ±2-window tolerance:
/// those are detectable by construction, so any recall loss comes from
/// timestamp misalignment.
pub fn ablation_clock_sync() -> Value {
    let tolerance = 2 * 8192;
    let mut rows = Vec::new();
    for error_ns in [0i64, 100, 1_000, 8_192, 100_000, 1_000_000] {
        let flows = WorkloadParams::paper(WorkloadKind::Hadoop, 0.35, 23).generate();
        let config = SimConfig {
            end_ns: PERIOD_NS + 5_000_000,
            seed: 23,
            clock_error_ns: error_ns,
            ..SimConfig::default()
        };
        let result = Simulator::new(Topology::fat_tree(4, 100.0, 1000), flows, config).run();
        let mut analyzer = Analyzer::new(HostAgentConfig::default().sketch);
        let sw_cfg = SwitchAgentConfig {
            sampling_shift: 4,
            ..Default::default()
        };
        mirror_into(&mut analyzer, &result.telemetry.mirror_candidates, sw_cfg);
        let stats =
            analyzer.match_episodes(&result.telemetry.episodes, 200 * 1024, u32::MAX, tolerance);
        rows.push(json!({
            "clock_error_ns": error_ns,
            "episodes": stats.episodes,
            "recall": stats.recall(),
        }));
    }
    json!(rows)
}

/// Ablation: window granularity (§8 "Limitations on flow rate compression")
/// — wavelet compression pays off between ~1 and ~100 μs. Too coarse and
/// there is no sequence to compress; too fine and the curve degenerates to
/// isolated points. Per granularity, over the 20 largest flows: the
/// compression ratio (report bytes vs raw per-window counters) and the
/// reconstruction cosine at K = 32, L = 8.
pub fn ablation_granularity() -> Value {
    let (_flows, result) = run_paper_workload(WorkloadKind::WebSearch, 0.25, 22);
    let mut per_flow: BTreeMap<u64, Vec<(u64, i64)>> = BTreeMap::new();
    for r in &result.telemetry.tx_records {
        per_flow
            .entry(r.flow.0)
            .or_default()
            .push((r.ts_ns, r.bytes as i64));
    }
    let mut flows: Vec<(u64, i64)> = per_flow
        .iter()
        .map(|(&f, pkts)| (f, pkts.iter().map(|&(_, b)| b).sum::<i64>()))
        .collect();
    flows.sort_by_key(|&(_, b)| std::cmp::Reverse(b));
    let sample: Vec<u64> = flows.iter().take(20).map(|&(f, _)| f).collect();

    let mut rows = Vec::new();
    for shift in [10u32, 13, 16, 20, 23] {
        // 2^10 ns ≈ 1 μs … 2^23 ns ≈ 8.4 ms.
        let mut ratios = Vec::new();
        let mut cosines = Vec::new();
        let mut lens = Vec::new();
        for f in &sample {
            let mut windows: BTreeMap<u64, i64> = BTreeMap::new();
            for &(ts, b) in &per_flow[f] {
                *windows.entry(ts >> shift).or_default() += b;
            }
            let w0 = *windows.keys().next().expect("non-empty");
            let n = (*windows.keys().next_back().expect("non-empty") - w0 + 1) as usize;
            lens.push(n as f64);
            let mut t =
                StreamingTransform::new(8, n.next_power_of_two().max(256), IdealTopK::new(32));
            for (&w, &v) in &windows {
                t.push((w - w0) as u32, v);
            }
            let report = BucketReport::from_coeffs(w0, t.finish());
            ratios.push(report.wire_bytes() as f64 / (4.0 * n as f64));
            let rec = reconstruct_non_negative(&report.coeffs());
            let truth: Vec<f64> = (0..rec.len())
                .map(|i| windows.get(&(w0 + i as u64)).copied().unwrap_or(0) as f64)
                .collect();
            cosines.push(cosine_similarity(&truth, &rec));
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        rows.push(json!({
            "window_ns": 1u64 << shift,
            "avg_sequence_len": avg(&lens),
            "compression_ratio": avg(&ratios),
            "cosine": avg(&cosines),
        }));
    }
    json!(rows)
}

/// Ablation: the full WaveSketch's heavy part (§4.2) — majority-vote-elected
/// heavy flows get private, collision-free buckets. Basic and full versions
/// at the same total memory, scored on each host's heavy flows (top 10 % by
/// bytes) under a deliberately collision-prone layout (w = 32).
pub fn ablation_heavy_part() -> Value {
    let (_flows, result) = run_paper_workload(WorkloadKind::WebSearch, 0.25, 26);
    let records = &result.telemetry.tx_records;
    let max_windows = PERIOD_WINDOWS.next_power_of_two();
    let full_cfg = SketchConfig::builder()
        .rows(2)
        .width(32)
        .levels(8)
        .topk(64)
        .max_windows(max_windows)
        .heavy_rows(64)
        .build();
    // The basic version gets the heavy part's memory back as extra width.
    let extra = full_cfg.heavy_rows * (full_cfg.bucket_bytes() + 17) / 2 / full_cfg.bucket_bytes();
    let basic_cfg = SketchConfig::builder()
        .rows(2)
        .width(32 + extra)
        .levels(8)
        .topk(64)
        .max_windows(max_windows)
        .build();

    let truth = ground_truth(records, WINDOW_SHIFT);
    let mut acc_full = WorkloadAccuracy::new();
    let mut acc_basic = WorkloadAccuracy::new();
    for host in 0..HOSTS {
        let mut full = FullWaveSketch::new(full_cfg.clone());
        let mut basic = BasicWaveSketch::new(basic_cfg.clone());
        for r in records.iter().filter(|r| r.host == host) {
            let key = FlowKey::from_id(r.flow.0);
            let w = r.ts_ns >> WINDOW_SHIFT;
            full.update(&key, w, r.bytes as i64);
            basic.update(&key, w, r.bytes as i64);
        }
        let mut host_flows: Vec<(u64, f64, &BTreeMap<u64, f64>)> = truth
            .range((host, 0)..=(host, u64::MAX))
            .map(|(&(_, f), w)| (f, w.values().sum(), w))
            .collect();
        host_flows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN totals"));
        let top = (host_flows.len() / 10).max(1).min(host_flows.len());
        for &(f, _, tw) in &host_flows[..top] {
            let start = tw.keys().next().expect("non-empty") - 4;
            let end = tw.keys().next_back().expect("non-empty") + 5;
            let t = dense_curve(tw, start, end);
            let key = FlowKey::from_id(f);
            let eval = |curve: Option<wavesketch::basic::WindowSeries>| -> Vec<f64> {
                match curve {
                    Some(c) => (start..end).map(|w| c.at(w)).collect(),
                    None => vec![0.0; t.len()],
                }
            };
            acc_full.add(all_metrics(&t, &eval(full.query(&key))));
            acc_basic.add(all_metrics(&t, &eval(basic.query(&key))));
        }
    }
    let mf = acc_full.mean();
    let mb = acc_basic.mean();
    assert!(
        mf.euclidean <= mb.euclidean,
        "the heavy part must help heavy flows under collisions"
    );
    json!({
        "full": json!({
            "are": mf.are, "cosine": mf.cosine, "energy": mf.energy, "euclidean": mf.euclidean
        }),
        "basic": json!({
            "are": mb.are, "cosine": mb.cosine, "energy": mb.energy, "euclidean": mb.euclidean
        }),
        "flows": acc_full.flow_count(),
    })
}

/// Extension (§5 discussion): commodity-switch μEvent capture (ACL match on
/// CE + PSN sampling + mirroring at 1/64) vs a programmable-switch design
/// (direct queue observation, in-dataplane flow dedup, batch reporting):
/// recall of heavy episodes, flows per event and report bandwidth on the
/// same workload.
pub fn ablation_pswitch() -> Value {
    // Re-run the workload with the burst tap enabled (threshold = KMin).
    let flows = WorkloadParams::paper(WorkloadKind::Hadoop, 0.35, 24).generate();
    let config = SimConfig {
        end_ns: PERIOD_NS + 5_000_000,
        seed: 24,
        burst_capture_threshold: Some(20 * 1024),
        ..SimConfig::default()
    };
    let result = Simulator::new(Topology::fat_tree(4, 100.0, 1000), flows, config).run();
    let episodes = &result.telemetry.episodes;

    let mut analyzer = Analyzer::new(HostAgentConfig::default().sketch);
    let mirror_bytes = mirror_into(
        &mut analyzer,
        &result.telemetry.mirror_candidates,
        SwitchAgentConfig::default(),
    );
    let acl = analyzer.match_episodes(episodes, 200 * 1024, u32::MAX, 10_000);

    let ps_cfg = PSwitchConfig::default();
    let mut ps_events = Vec::new();
    for switch in SWITCHES {
        let mut agent = PSwitchAgent::new(switch, ps_cfg);
        agent.ingest(&result.telemetry.burst_records);
        ps_events.extend(agent.finish());
    }
    let ps_bytes = PSwitchAgent::report_bytes(&ps_cfg, &ps_events);
    // A heavy episode is detected if a captured event on the same
    // (switch, port) overlaps it.
    let heavy: Vec<_> = episodes
        .iter()
        .filter(|e| e.max_qlen >= 200 * 1024)
        .collect();
    let mut detected = 0usize;
    let mut flows_sum = 0usize;
    for ep in &heavy {
        let hit = ps_events.iter().find(|e| {
            e.switch == ep.switch
                && e.port == ep.port
                && e.start_ns <= ep.end_ns + 10_000
                && ep.start_ns <= e.end_ns + 10_000
        });
        if let Some(e) = hit {
            detected += 1;
            flows_sum += e.flows.len();
        }
    }
    let ps_recall = if heavy.is_empty() {
        1.0
    } else {
        detected as f64 / heavy.len() as f64
    };
    let ps_flows = if detected == 0 {
        0.0
    } else {
        flows_sum as f64 / detected as f64
    };
    assert!(ps_recall >= acl.recall() - 1e-9);
    let mbps = |bytes: u64| bytes as f64 * 8.0 / (PERIOD_NS as f64 / 1e9) / 1e6;
    json!({
        "acl": json!({
            "recall": acl.recall(), "flows_per_event": acl.mean_flows_captured,
            "bandwidth_mbps": mbps(mirror_bytes)
        }),
        "pswitch": json!({
            "recall": ps_recall, "flows_per_event": ps_flows,
            "bandwidth_mbps": mbps(ps_bytes)
        }),
    })
}

/// Ablation: the wavelet depth `L` and coefficient budget `K` trade-off of
/// §4.2 — deeper decomposition shrinks the approximation array, larger `K`
/// keeps more detail at the cost of bigger reports. `L` sweeps at K = 64,
/// then `K` at L = 8.
pub fn ablation_wavelet_params() -> Value {
    let (_flows, result) = run_paper_workload(WorkloadKind::WebSearch, 0.25, 21);
    let records = &result.telemetry.tx_records;
    let build = |levels: u32, k: usize| {
        BasicWaveSketch::new(
            SketchConfig::builder()
                .rows(3)
                .width(256)
                .levels(levels)
                .topk(k)
                .max_windows(PERIOD_WINDOWS.next_power_of_two())
                .selector(SelectorKind::Ideal)
                .build(),
        )
    };
    let points = [4u32, 6, 8, 10]
        .map(|l| (l, 64))
        .into_iter()
        .chain([16usize, 32, 64, 128, 256].map(|k| (8, k)));
    let mut rows = Vec::new();
    for (levels, k) in points {
        let proto = build(levels, k);
        let (m, _) = evaluate_scheme(records, HOSTS, || {
            Box::new(build(levels, k)) as Box<dyn CurveSketch>
        });
        rows.push(json!({
            "levels": levels, "k": k, "memory_kb": proto.memory_bytes() / 1024,
            "report_bytes_per_bucket": proto.config().report_bytes_per_bucket(),
            "are": m.are, "cosine": m.cosine, "energy": m.energy,
            "euclidean": m.euclidean,
        }));
    }
    json!(rows)
}

/// §7.1 "Bandwidth usage": the per-host report upload bandwidth of the
/// WaveSketch host agent (~5 Mbps in the paper) against per-packet head
/// mirroring (64 B on the wire for every packet), Hadoop 15 %.
pub fn bandwidth_host() -> Value {
    let (_flows, result) = run_paper_workload(WorkloadKind::Hadoop, 0.15, 7);
    let mut total_bps = 0.0;
    let mut max_bps = 0.0f64;
    let mut total_pkts = 0u64;
    for host in 0..HOSTS {
        let mut agent = HostAgent::new(host, HostAgentConfig::default());
        agent.ingest(&result.telemetry.tx_records);
        total_pkts += agent.packets;
        let bps = HostAgent::report_bandwidth_bps(&agent.finish(), PERIOD_NS);
        total_bps += bps;
        max_bps = max_bps.max(bps);
    }
    let avg_mbps = total_bps / HOSTS as f64 / 1e6;
    let mirror_bits = total_pkts * 64 * 8;
    let mirror_avg_mbps = mirror_bits as f64 / (PERIOD_NS as f64 / 1e9) / HOSTS as f64 / 1e6;
    assert!(
        avg_mbps < mirror_avg_mbps / 10.0,
        "WaveSketch must be an order of magnitude cheaper than mirroring"
    );
    json!({
        "wavesketch_avg_mbps": avg_mbps,
        "wavesketch_max_mbps": max_bps / 1e6,
        "mirroring_avg_mbps": mirror_avg_mbps,
    })
}

/// §4.2 compression-ratio analysis: the `(n/2^L + α·K)/n` model against the
/// measured wire size of a bursty synthetic bucket epoch (paper example:
/// L = 8, K = 32, n = 2000, α = 1.5 → ≈ 0.028).
pub fn compression_ratio() -> Value {
    let mut rows = Vec::new();
    for (n, l, k) in [
        (2000usize, 8u32, 32usize),
        (2000, 8, 64),
        (500, 8, 32),
        (10_000, 8, 32),
        (2000, 6, 32),
    ] {
        let alpha = 1.5;
        let cap = n.next_power_of_two();
        let model = (cap as f64 / (1u64 << l) as f64 + alpha * k as f64) / n as f64;
        let mut t = StreamingTransform::new(l, cap, IdealTopK::new(k));
        for i in 0..n as u32 {
            let base = ((i as i64 * 2654435761) % 997).abs();
            let burst = if i % 97 == 0 { 50_000 } else { 0 };
            t.push(i, base + burst);
        }
        let report = BucketReport::from_coeffs(0, t.finish());
        let measured = report.wire_bytes() as f64 / (4.0 * n as f64);
        assert!(
            (measured - model).abs() / model < 0.5,
            "measured ratio must track the model"
        );
        rows.push(json!({
            "n": n, "L": l, "K": k, "model": model, "measured": measured,
        }));
    }
    json!(rows)
}

/// Extension: the two μEvent classes beyond microbursts that §5 names — PFC
/// pause storms (lossless fabric) and packet loss (lossy fabric with
/// deflect-on-drop) — detected from the telemetry taps under a harsh 8:1
/// fixed-rate incast.
pub fn ext_pfc_loss_events() -> Value {
    let flows = || {
        incast_burst(
            0,
            &[1, 2, 3, 4, 5, 6, 7, 8],
            0,
            1_000_000,
            500_000,
            0,
            0,
            CongestionControl::FixedRate(100.0),
        )
    };
    let fabric = |pfc: Option<PfcConfig>| SimConfig {
        switch_buffer_bytes: 600 * 1024,
        deflect_on_drop: pfc.is_none(),
        pfc,
        end_ns: 20_000_000,
        seed: 25,
        ..SimConfig::default()
    };
    let pfc = PfcConfig {
        xoff_bytes: 300 * 1024,
        xon_bytes: 200 * 1024,
    };
    let topo = || Topology::fat_tree(4, 100.0, 1000);
    let lossless = Simulator::new(topo(), flows(), fabric(Some(pfc))).run();
    let storms = pause_storms(&lossless.telemetry.pause_records, 100_000, 3);
    assert_eq!(lossless.telemetry.drops, 0, "PFC fabric must be lossless");
    assert!(!storms.is_empty(), "the incast must cause repeated pausing");

    let lossy = Simulator::new(topo(), flows(), fabric(None)).run();
    let losses = loss_events(&lossy.telemetry.drop_records, 50_000);
    assert!(
        lossy.telemetry.drops > 0,
        "without PFC this incast must drop"
    );
    assert!(!losses.is_empty());
    json!({
        "lossless": json!({
            "drops": lossless.telemetry.drops,
            "pause_transitions": lossless.telemetry.pause_records.len(),
            "storms": storms.len()
        }),
        "lossy": json!({
            "drops": lossy.telemetry.drops, "loss_events": losses.len()
        }),
    })
}

/// Extension: the §7.1 scale claim — the same per-host load (Hadoop 15 %,
/// 10 ms) on k = 4 and k = 8 fat-trees gives the same per-host report
/// bandwidth.
pub fn ext_scale_k8() -> Value {
    let per_host_mbps = |k: usize| {
        let topo = Topology::fat_tree(k, 100.0, 1000);
        let hosts = topo.num_hosts;
        let flows = WorkloadParams {
            num_hosts: hosts,
            duration_ns: 10_000_000,
            ..WorkloadParams::paper(WorkloadKind::Hadoop, 0.15, 31)
        }
        .generate();
        let config = SimConfig {
            end_ns: 14_000_000,
            seed: 31,
            collect_queue_dist: false,
            ..SimConfig::default()
        };
        let result = Simulator::new(topo, flows, config).run();
        let mut per_host: Vec<Vec<TxRecord>> = vec![Vec::new(); hosts];
        for r in &result.telemetry.tx_records {
            per_host[r.host].push(*r);
        }
        let mut total_bps = 0.0;
        for (host, records) in per_host.iter().enumerate() {
            let mut agent = HostAgent::new(host, HostAgentConfig::default());
            for r in records {
                agent.observe(r.flow.0, r.ts_ns, r.bytes);
            }
            total_bps += HostAgent::report_bandwidth_bps(&agent.finish(), 10_000_000);
        }
        (hosts, total_bps / hosts as f64 / 1e6)
    };
    let (h4, bw4) = per_host_mbps(4);
    let (h8, bw8) = per_host_mbps(8);
    let ratio = bw8 / bw4;
    assert!(
        (0.5..2.0).contains(&ratio),
        "per-host cost must be scale-invariant (ratio {ratio})"
    );
    json!({
        "k4_hosts": h4, "k4_mbps_per_host": bw4,
        "k8_hosts": h8, "k8_mbps_per_host": bw8,
    })
}

/// Figure 1: one DCQCN flow's rate at 10 μs vs 10 ms granularity on a
/// dumbbell with on-off background bursts; the microsecond view shows the
/// swings the 10 ms average erases.
pub fn fig01_timescales() -> Value {
    let flows = dcqcn_vs_on_off(
        30_000_000,
        on_off_background(1, 1, 3, 90.0, 150_000, 250_000, 25, 100_000),
    );
    let result = Simulator::new(
        Topology::dumbbell(2, 100.0, 1000),
        flows,
        dumbbell_config(11_000_000, 1),
    )
    .run();
    let fine_ns = 10_000u64;
    let coarse_ns = 10_000_000u64;
    let horizon = 10_000_000u64;
    let mut fine = vec![0.0f64; (horizon / fine_ns) as usize];
    let mut coarse = 0.0f64;
    for r in &result.telemetry.tx_records {
        if r.flow != FlowId(0) || r.ts_ns >= horizon {
            continue;
        }
        fine[(r.ts_ns / fine_ns) as usize] += r.bytes as f64;
        coarse += r.bytes as f64;
    }
    let coarse_gbps = coarse * 8.0 / coarse_ns as f64;
    let fine_gbps: Vec<f64> = fine.iter().map(|&b| b * 8.0 / fine_ns as f64).collect();
    let max = fine_gbps.iter().cloned().fold(0.0, f64::max);
    let min_active = fine_gbps
        .iter()
        .cloned()
        .filter(|&v| v > 0.0)
        .fold(f64::INFINITY, f64::min);
    assert!(
        max - min_active > coarse_gbps * 0.3,
        "the fine view must reveal swings the coarse view hides"
    );
    json!({
        "avg_10ms_gbps": coarse_gbps,
        "fine_10us_gbps": fine_gbps,
    })
}

/// Figure 3: the counter-amplification factor N(10 μs)/N(10 ms) a naive
/// window refinement would pay, per workload and load, from the flows'
/// active durations at the measurement point (first to last egress packet).
pub fn fig03_amplification() -> Value {
    let mut rows = Vec::new();
    for kind in [WorkloadKind::WebSearch, WorkloadKind::Hadoop] {
        for load in [0.05, 0.15, 0.25, 0.35, 0.45] {
            let (_specs, result) = run_paper_workload(kind, load, 3);
            let mut bounds: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for r in &result.telemetry.tx_records {
                let e = bounds.entry(r.flow.0).or_insert((r.ts_ns, r.ts_ns));
                e.0 = e.0.min(r.ts_ns);
                e.1 = e.1.max(r.ts_ns);
            }
            let durations: Vec<u64> = bounds.values().map(|&(a, b)| b - a).collect();
            rows.push(json!({
                "workload": kind.name(),
                "load": load,
                "factor": counter_increase_factor(&durations, 10_000, 10_000_000),
            }));
        }
    }
    json!(rows)
}

/// Figure 9: flow behaviors only visible at microsecond granularity,
/// measured through WaveSketch (not raw taps): (a) an application-limited
/// TCP flow whose curve is intermittent — gaps diagnose host-side
/// starvation — and (b) an RDMA (DCQCN) flow backing off on each burst of an
/// on-off competitor and recovering in each silence.
pub fn fig09_flow_behaviors() -> Value {
    let window_ns = 1u64 << WINDOW_SHIFT;
    let to_gbps = |b: f64| b * 8.0 / window_ns as f64;
    let horizon_w = 5_000_000 >> WINDOW_SHIFT;
    let config = dumbbell_config(6_000_000, 9);

    // (a) Application-limited transmission: on-off fixed-rate bursts of the
    // *same* flow id, 40 Gbps for 200 μs, idle 300 μs, 8 times.
    let flows: Vec<FlowSpec> = on_off_background(0, 0, 1, 40.0, 200_000, 300_000, 8, 0)
        .into_iter()
        .map(|f| FlowSpec { id: FlowId(0), ..f })
        .collect();
    let result = Simulator::new(Topology::dumbbell(1, 100.0, 1000), flows, config.clone()).run();
    let tcp_curve = measured_curve(&result.telemetry.tx_records, horizon_w);
    let gaps = find_gaps(&tcp_curve, 1.0, 4);
    assert!(gaps.len() >= 4, "the intermittent pattern must be visible");

    // (b) RDMA flow vs on-off competing flow on a shared bottleneck.
    let flows = dcqcn_vs_on_off(
        25_000_000,
        on_off_background(1, 1, 3, 90.0, 200_000, 300_000, 8, 200_000),
    );
    let result = Simulator::new(Topology::dumbbell(2, 100.0, 1000), flows, config).run();
    let rdma_gbps: Vec<f64> = measured_curve(&result.telemetry.tx_records, horizon_w)
        .into_iter()
        .map(to_gbps)
        .collect();
    // Windows inside the 200 μs on-periods, which start at 200 μs and repeat
    // every 500 μs.
    let in_burst = |w: usize| {
        let t = w as u64 * window_ns;
        t >= 200_000 && (t - 200_000) % 500_000 < 200_000
    };
    let mean_where = |on: bool| {
        let picked: Vec<f64> = rdma_gbps
            .iter()
            .enumerate()
            .filter(|&(w, &v)| in_burst(w) == on && v >= 0.0)
            .map(|(_, &v)| v)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    };
    let on_rate = mean_where(true);
    let off_rate = mean_where(false);
    assert!(
        off_rate > on_rate,
        "the flow must recover between bursts ({off_rate:.1} vs {on_rate:.1})"
    );
    json!({
        "tcp_gaps": gaps.len(),
        "tcp_curve_gbps": tcp_curve.into_iter().map(to_gbps).collect::<Vec<f64>>(),
        "rdma_curve_gbps": rdma_gbps,
        "rdma_on_rate_gbps": on_rate,
        "rdma_off_rate_gbps": off_rate,
    })
}

/// Flow 0's curve over `windows` windows, measured through a host agent at
/// host 0 and an analyzer.
fn measured_curve(records: &[TxRecord], windows: u64) -> Vec<f64> {
    let cfg = HostAgentConfig::default();
    let mut agent = HostAgent::new(0, cfg.clone());
    agent.ingest(records);
    let mut analyzer = Analyzer::new(cfg.sketch);
    analyzer.add_reports(agent.finish());
    let series = analyzer.flow_curve(0, 0).expect("flow 0 measured");
    (0..windows).map(|w| series.at(w)).collect()
}

/// Figure 10: congestion event detection and replay through the whole μMon
/// pipeline on one fat-tree workload (host agents plus CE mirroring at 1/8):
/// the detected events, their median duration, and a replay of the longest
/// one with each involved flow classified as contributor or victim.
pub fn fig10_event_replay() -> Value {
    let (flows, result) = run_paper_workload(WorkloadKind::Hadoop, 0.15, 10);
    let host_of_flow: BTreeMap<u64, usize> = flows.iter().map(|f| (f.id.0, f.src)).collect();
    let agent_cfg = HostAgentConfig::default();
    let mut analyzer = Analyzer::new(agent_cfg.sketch.clone());
    for host in 0..HOSTS {
        let mut agent = HostAgent::new(host, agent_cfg.clone());
        agent.ingest(&result.telemetry.tx_records);
        analyzer.add_reports(agent.finish());
    }
    let sw_cfg = SwitchAgentConfig {
        sampling_shift: 3,
        ..Default::default()
    };
    mirror_into(&mut analyzer, &result.telemetry.mirror_candidates, sw_cfg);

    let events = analyzer.cluster_events(50_000);
    assert!(!events.is_empty(), "the workload must congest some links");
    let mut durations: Vec<f64> = events
        .iter()
        .map(|e| e.duration_ns() as f64 / 1000.0)
        .collect();
    durations.sort_by(|a, b| a.partial_cmp(b).expect("no NaN durations"));

    let longest = events
        .iter()
        .max_by_key(|e| e.duration_ns())
        .expect("events exist");
    let margin_windows = 20usize;
    let (windows, curves) =
        analyzer.replay_event(longest, margin_windows as u64 * 8192, WINDOW_SHIFT, |f| {
            host_of_flow.get(&f).copied()
        });
    let pre = 0..margin_windows;
    let during_end = windows.len().saturating_sub(margin_windows);
    let during = margin_windows..during_end.max(margin_windows + 1);
    let contributors = curves
        .iter()
        .filter(|(_, v)| {
            umon::classify_event_role(v, pre.clone(), during.clone())
                == umon::EventRole::Contributor
        })
        .count();
    assert!(
        !curves.is_empty(),
        "replay must recover at least one flow curve"
    );
    assert!(
        contributors >= 1,
        "a congestion event must have at least one bursting contributor"
    );
    json!({
        "events": events.len(),
        "duration_us_p50": durations[durations.len() / 2],
        "replay_flows": curves.len(),
        "replay_windows": windows.len(),
    })
}

/// Figure 11: accuracy vs memory on the 15 %-load Hadoop workload, every
/// scheme at equal memory.
pub fn fig11_accuracy_hadoop15() -> Value {
    accuracy_vs_memory(WorkloadKind::Hadoop, 0.15, 11)
}

/// Figure 12: accuracy vs memory on the 25 %-load WebSearch workload.
pub fn fig12_accuracy_websearch25() -> Value {
    accuracy_vs_memory(WorkloadKind::WebSearch, 0.25, 12)
}

fn accuracy_vs_memory(kind: WorkloadKind, load: f64, seed: u64) -> Value {
    let (_flows, result) = run_paper_workload(kind, load, seed);
    let points = sweep(&result.telemetry.tx_records, HOSTS, &[200, 400, 800, 1600]);
    report(kind, load, &points)
}

/// Figure 13: single-flow reconstruction — WaveSketch (K = 32) vs
/// OmniWindow-Avg at the same memory, on a DCQCN flow oscillating under
/// on-off contention. WaveSketch keeps the peaks and sharp drops; the
/// sub-window average flattens them.
pub fn fig13_reconstruction() -> Value {
    let flows = dcqcn_vs_on_off(
        25_000_000,
        on_off_background(1, 1, 3, 90.0, 150_000, 200_000, 24, 100_000),
    );
    let result = Simulator::new(
        Topology::dumbbell(2, 100.0, 1000),
        flows,
        dumbbell_config(10_000_000, 13),
    )
    .run();
    let horizon_w = (10_000_000u64 >> WINDOW_SHIFT) as usize;
    let ws_config = SketchConfig::builder()
        .rows(1)
        .width(1)
        .levels(8)
        .topk(32)
        .max_windows(horizon_w.next_power_of_two())
        .build();
    let mut ws = BasicWaveSketch::new(ws_config.clone());
    // OmniWindow-Avg with the WaveSketch bucket's bytes as 4-byte
    // sub-window counters.
    let m = (ws_config.bucket_bytes() / 4).max(1);
    let mut ow = OmniWindowAvg::new(1, 1, m.min(horizon_w), 0, horizon_w, 1);
    let key = FlowKey::from_id(0);
    let mut truth = vec![0.0f64; horizon_w];
    for r in result
        .telemetry
        .tx_records
        .iter()
        .filter(|r| r.flow == FlowId(0))
    {
        let w = r.ts_ns >> WINDOW_SHIFT;
        if (w as usize) < horizon_w {
            truth[w as usize] += r.bytes as f64;
        }
        ws.update(&key, w, r.bytes as i64);
        CurveSketch::update(&mut ow, &key, w, r.bytes as i64);
    }
    let ws_series = ws.query(&key).expect("flow recorded");
    let ow_series = CurveSketch::query(&ow, &key).expect("flow recorded");
    let ws_curve: Vec<f64> = (0..horizon_w as u64).map(|w| ws_series.at(w)).collect();
    let ow_curve: Vec<f64> = (0..horizon_w as u64).map(|w| ow_series.at(w)).collect();
    let m_ws = all_metrics(&truth, &ws_curve);
    let m_ow = all_metrics(&truth, &ow_curve);
    let peak = |c: &[f64]| c.iter().cloned().fold(0.0, f64::max);
    let (peak_truth, peak_ws, peak_ow) = (peak(&truth), peak(&ws_curve), peak(&ow_curve));
    assert!(
        (peak_ws - peak_truth).abs() < (peak_ow - peak_truth).abs(),
        "WaveSketch must preserve the peak better than sub-window averaging"
    );
    let gbps = |b: f64| counts_to_gbps(&[b], 1 << WINDOW_SHIFT)[0];
    json!({
        "wavesketch": json!({
            "cosine": m_ws.cosine, "energy": m_ws.energy, "are": m_ws.are,
            "peak_gbps": gbps(peak_ws)
        }),
        "omniwindow": json!({
            "cosine": m_ow.cosine, "energy": m_ow.energy, "are": m_ow.are,
            "peak_gbps": gbps(peak_ow)
        }),
        "truth_peak_gbps": gbps(peak_truth),
    })
}

/// Figure 14: congestion-event recall and captured-flow coverage vs the
/// episode's maximum queue length, for sampling ratios 1/1 … 1/256, on three
/// workload/load combinations.
pub fn fig14_event_recall() -> Value {
    const QLEN_BINS_KB: [(u32, u32); 6] = [
        (0, 50),
        (50, 100),
        (100, 150),
        (150, 200),
        (200, 250),
        (250, u32::MAX / 1024),
    ];
    let mut all = Vec::new();
    for (kind, load) in [
        (WorkloadKind::WebSearch, 0.35),
        (WorkloadKind::Hadoop, 0.15),
        (WorkloadKind::Hadoop, 0.35),
    ] {
        let (_flows, result) = run_paper_workload(kind, load, 14);
        for shift in [0u32, 2, 4, 6, 7, 8] {
            let mut analyzer = Analyzer::new(SketchConfig::builder().build());
            let sw_cfg = SwitchAgentConfig {
                sampling_shift: shift,
                ..Default::default()
            };
            mirror_into(&mut analyzer, &result.telemetry.mirror_candidates, sw_cfg);
            let stats: Vec<_> = QLEN_BINS_KB
                .iter()
                .map(|&(lo_kb, hi_kb)| {
                    analyzer.match_episodes(
                        &result.telemetry.episodes,
                        lo_kb * 1024,
                        hi_kb.saturating_mul(1024),
                        10_000,
                    )
                })
                .collect();
            all.push(json!({
                "workload": kind.name(),
                "load": load,
                "sampling": format!("1/{}", 1u64 << shift),
                "bins_kb": QLEN_BINS_KB.map(|(lo, _)| lo).to_vec(),
                "episodes": stats.iter().map(|s| s.episodes).collect::<Vec<usize>>(),
                "recall": stats.iter().map(|s| s.recall()).collect::<Vec<f64>>(),
                "mean_flows": stats.iter().map(|s| s.mean_flows_captured).collect::<Vec<f64>>(),
            }));
        }
    }
    json!(all)
}

/// Figure 15: maximum per-switch mirror bandwidth vs sampling ratio
/// (1/1 … 1/128) for the four workload/load combinations.
pub fn fig15_bandwidth() -> Value {
    let shifts: Vec<u32> = (0..=7).collect();
    let mut all = Vec::new();
    for (kind, load) in PAPER_COMBOS {
        let (_flows, result) = run_paper_workload(kind, load, 15);
        let max_mbps: Vec<f64> = shifts
            .iter()
            .map(|&shift| {
                let sw_cfg = SwitchAgentConfig {
                    sampling_shift: shift,
                    ..Default::default()
                };
                let mut max_bps = 0.0f64;
                for switch in SWITCHES {
                    let mut agent = SwitchAgent::new(switch, sw_cfg);
                    agent.ingest(&result.telemetry.mirror_candidates);
                    max_bps = max_bps.max(agent.mirror_bandwidth_bps(PERIOD_NS));
                }
                max_bps / 1e6
            })
            .collect();
        all.push(json!({
            "workload": kind.name(),
            "load": load,
            "ratios": shifts.iter().map(|&s| 1u64 << s).collect::<Vec<u64>>(),
            "max_mbps": max_mbps,
        }));
    }
    json!(all)
}

/// Figure 16: workload information — (b) port-level flow inter-arrival
/// quantiles and (c) the time-weighted queue-length distribution of the
/// simulated fabrics. Panel (a), the flow-size CDFs, is the distributions
/// themselves ([`umon_workloads::hadoop`], [`umon_workloads::websearch`]).
pub fn fig16_workload_info() -> Value {
    let mut inter_arrival = Vec::new();
    let mut queue = Vec::new();
    for (kind, load) in PAPER_COMBOS {
        let cdf = inter_arrival_cdf(&WorkloadParams::paper(kind, load, 16).generate(), HOSTS);
        let q = |p: f64| -> f64 {
            if cdf.is_empty() {
                return f64::NAN;
            }
            let idx = ((cdf.len() as f64 * p) as usize).min(cdf.len() - 1);
            cdf[idx].0 / 1000.0
        };
        inter_arrival.push(json!({
            "workload": kind.name(), "load": load,
            "p20_us": q(0.2), "p50_us": q(0.5), "p90_us": q(0.9),
        }));
    }
    for (kind, load) in PAPER_COMBOS {
        let (_flows, result) = run_paper_workload(kind, load, 16);
        let dist = result.telemetry.queue_dist.expect("collected");
        queue.push(json!({
            "workload": kind.name(), "load": load,
            "frac_above_kmin": dist.fraction_at_or_above(20 * 1024),
            "frac_above_kmax": dist.fraction_at_or_above(200 * 1024),
        }));
    }
    json!({ "inter_arrival": inter_arrival, "queue": queue })
}

/// Figure 17: accuracy by flow length on the 25 %-load WebSearch workload at
/// 400 KB, flows grouped into log-scale length buckets.
pub fn fig17_flow_size_websearch() -> Value {
    accuracy_by_flow_size(WorkloadKind::WebSearch, 0.25, 17)
}

/// Figure 18: accuracy by flow length on the 15 %-load Hadoop workload at
/// 400 KB.
pub fn fig18_flow_size_hadoop() -> Value {
    accuracy_by_flow_size(WorkloadKind::Hadoop, 0.15, 18)
}

fn accuracy_by_flow_size(kind: WorkloadKind, load: f64, seed: u64) -> Value {
    let (_flows, result) = run_paper_workload(kind, load, seed);
    let budget_kb = 400;
    let points = sweep(&result.telemetry.tx_records, HOSTS, &[budget_kb]);
    report_by_flow_size(&points, budget_kb * 1024)
}

/// Table 1: PISA pipeline resource usage of a full-version WaveSketch (heavy
/// h = 256; light w = 256, L = 8, K = 64, D = 1) from the analytical
/// resource model, the Tofino2-compiler substitute documented in DESIGN.md.
pub fn table1_resources() -> Value {
    let config = SketchConfig::builder()
        .rows(1)
        .width(256)
        .levels(8)
        .topk(64)
        .max_windows(4096)
        .heavy_rows(256)
        .build();
    let usage = ResourceUsage::model(&config);
    let budget = PipelineBudget::default();
    assert!(usage.fits(&budget), "must fit a Tofino2-class pipeline");
    let rows: Vec<Value> = usage
        .percentages(&budget)
        .into_iter()
        .map(|(name, used, pct)| {
            json!({
                "resource": name,
                "usage": used,
                "percentage": pct,
            })
        })
        .collect();
    json!(rows)
}

/// Table 2: packet and flow counts of the six simulation workloads
/// (WebSearch and Hadoop at 15/25/35 % load, 20 ms arrival window).
pub fn table2_workloads() -> Value {
    let mut rows = Vec::new();
    for kind in [WorkloadKind::WebSearch, WorkloadKind::Hadoop] {
        for load in [0.15, 0.25, 0.35] {
            let flows = WorkloadParams::paper(kind, load, 2024).generate();
            let stats = WorkloadStats::compute(&flows, 1000);
            rows.push(json!({
                "workload": kind.name(),
                "load": load,
                "packets": stats.packets,
                "flows": stats.flows,
                "mean_flow_bytes": stats.mean_flow_bytes,
            }));
        }
    }
    json!(rows)
}
