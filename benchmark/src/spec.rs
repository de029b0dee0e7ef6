//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same tables; `tests/smoke.rs` fails when the
//! two drift apart.

/// Measured seconds per run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// One workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads, in run order.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "fabric_k8",
        why: "whole journey on a k=8 fat-tree: netsim does ~85% of the work, every other layer runs once per packet or report",
    },
    WorkloadSpec {
        name: "host_bursty",
        why: "simulated line-rate bursts replayed through host agents: core/host_agent dominate on the same-window fast path, netsim bypassed",
    },
    WorkloadSpec {
        name: "host_paced",
        why: "2000 paced flows per host, nearly every packet advances a window: the same layer on its Haar-transition slow path",
    },
    WorkloadSpec {
        name: "collect_clean",
        why: "dense prebuilt reports over a perfect transport into an archive-backed analyzer: ingest + archive dominate, core and query bypassed",
    },
    WorkloadSpec {
        name: "collect_lossy",
        why: "same reports over a seeded drop/duplicate/reorder/truncate/ack-drop transport: retransmit, dedup, quarantine and gap tracking",
    },
    WorkloadSpec {
        name: "query_tiers",
        why: "reads only: whole-history curves crossing hot, compacted and cold periods with a cold cache smaller than the archive",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric every run prints by this name.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics. Every workload prints every one of them; what an
/// "op" and a "request" are on each workload is stated in the README's
/// workload table (packets / reports / queries; bursts / reports / queries).
///
/// The bounds are what this shared two-core box can resolve, not what one
/// would like: ten runs of unchanged code on ten seeds spread (interquartile
/// range over median) by up to 12 % on `ops_per_s`, 8 % on `req_p50_us`, 11 %
/// on `req_p95_us` and 2 % on `peak_rss_mb` in an ordinary session, and by
/// 15–26 % on the three timings in a noisy one (README, "How steady it is").
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("req_p50_us", "us", Better::Lower, 0.25),
    e2e("req_p95_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run, per measured lap unless the name
/// says otherwise. A layer the workload bypasses reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // Whole-run views the issue names; on a traced run, so with tracing on.
    layer("wall_s", "s", Lower),
    layer("laps", "count", Higher),
    layer("stage_sum_frac", "ratio", Higher),
    layer("traced_ops_per_s", "1/s", Higher),
    layer("sim_events_per_s", "1/s", Higher),
    layer("host_ns_per_pkt", "ns", Lower),
    layer("report_mbps_per_host", "Mb/s", Lower),
    layer("reports_per_s", "1/s", Higher),
    layer("queries_per_s", "1/s", Higher),
    layer("flow_are_mean", "ratio", Lower),
    layer("flow_energy_sim_mean", "ratio", Higher),
    // workloads
    layer("workloads.generate_ns", "ns", Lower),
    layer("workloads.flows", "count", Higher),
    // netsim
    layer("netsim.run_ns", "ns", Lower),
    layer("netsim.events", "count", Lower),
    layer("netsim.ns_per_event", "ns", Lower),
    layer("netsim.tx_records", "count", Higher),
    layer("netsim.mirror_candidates", "count", Higher),
    layer("netsim.run_parallel_p2_ns", "ns", Lower),
    // host agent and sketch core
    layer("host_agent.ingest_ns", "ns", Lower),
    layer("host_agent.pkts", "count", Higher),
    layer("host_agent.reports", "count", Lower),
    layer("host_agent.report_bytes", "bytes", Lower),
    layer("host_agent.window_advance_frac", "ratio", Lower),
    layer("core.update_batch_ns_per_pkt", "ns", Lower),
    layer("core.update_ns_per_pkt", "ns", Lower),
    layer("core.drain_us_per_report", "us", Lower),
    // uplink and transport
    layer("uplink.submit_ns", "ns", Lower),
    layer("uplink.tick_ns", "ns", Lower),
    layer("uplink.envelopes_sent", "count", Lower),
    layer("uplink.retransmissions", "count", Lower),
    layer("uplink.evicted", "count", Lower),
    layer("uplink.acked", "count", Higher),
    layer("transport.sent", "count", Lower),
    layer("transport.dropped", "count", Lower),
    layer("transport.duplicated", "count", Lower),
    layer("transport.reordered", "count", Lower),
    layer("transport.truncated", "count", Lower),
    layer("transport.acks_dropped", "count", Lower),
    // collector
    layer("collector.pump_ns", "ns", Lower),
    layer("collector.accepted", "count", Higher),
    layer("collector.duplicates", "count", Lower),
    layer("collector.corrupt", "count", Lower),
    layer("collector.mismatched", "count", Lower),
    layer("collector.ticks_to_drain", "count", Lower),
    layer("collector.gap_seqs_final", "count", Lower),
    layer("collector.self_ns", "ns", Lower),
    // analyzer ingest and archive
    layer("analyzer.add_reports_ns", "ns", Lower),
    layer("analyzer.us_per_report", "us", Lower),
    layer("analyzer.compacted_periods", "count", Lower),
    layer("analyzer.evicted_periods", "count", Lower),
    layer("analyzer.cached_bytes", "bytes", Lower),
    layer("analyzer.resident_report_bytes", "bytes", Lower),
    layer("archive.append_ns", "ns", Lower),
    layer("archive.bytes_written", "bytes", Lower),
    layer("archive.recover_ns", "ns", Lower),
    // analyzer queries
    layer("query.flow_curve_us_p50", "us", Lower),
    layer("query.flow_curve_us_p99", "us", Lower),
    layer("query.host_rate_us_p50", "us", Lower),
    layer("query.hot_us_p50", "us", Lower),
    layer("query.compacted_us_p50", "us", Lower),
    layer("query.cold_us_p50", "us", Lower),
    layer("query.cold_hits", "count", Higher),
    layer("query.cold_misses", "count", Lower),
    layer("query.cold_bytes_read", "bytes", Lower),
    layer("query.cold_read_ns", "ns", Lower),
    layer("query.none_answers", "count", Lower),
    // μEvent path
    layer("switch_agent.ingest_ns", "ns", Lower),
    layer("switch_agent.mirrored", "count", Higher),
    layer("analyzer.add_mirrors_ns", "ns", Lower),
    layer("analyzer.cluster_events_ns", "ns", Lower),
    layer("analyzer.events", "count", Higher),
    layer("analyzer.replay_event_ns", "ns", Lower),
    layer("analyzer.event_recall", "ratio", Higher),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
