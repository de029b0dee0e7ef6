//! `host_bursty` and `host_paced`: the same pipeline — per-host egress
//! records in 32-record bursts → `HostAgent` → `HostUplink` →
//! `PerfectTransport` → `Collector` → bounded `Analyzer` — fed two input
//! shapes that take the sketch down different paths.
//!
//! * bursty: the hosts' taps of a k=4 Hadoop simulation. Line-rate bursts:
//!   consecutive packets of a flow mostly fall in the same 8 µs window, the
//!   accumulate fast path.
//! * paced: 2 000 concurrent flows per host, one packet each every 160 µs
//!   (~20 windows apart): nearly every packet moves its flow to a new window
//!   and takes the Haar-transition path.
//!
//! A lap replays every host's records once; each lap the timestamps move on
//! by a whole number of periods, so agents, uplinks and the analyzer see one
//! endless trace and retention keeps memory flat.

use super::fabric::TRAFFIC_SEED;
use crate::plane::Plane;
use crate::run::{timed_setups, LapClock, Outcome, RunArgs};
use crate::synth::{reports_leaking_bytes, split_by_host, Paced, Truth, BURST};
use crate::trace::Tracer;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;
use umon::{
    Analyzer, HostAgent, HostAgentConfig, PerfectTransport, PeriodReport, QueryScratch,
    RetentionPolicy,
};
use umon_netsim::{SimConfig, Simulator, Topology, TxRecord};
use umon_workloads::{WorkloadKind, WorkloadParams};
use wavesketch::{FlowKey, FullWaveSketch};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Bursty,
    Paced,
}

/// Upload periods, per shape the power of two that keeps the collection
/// side's per-report cost the smaller share of a lap, so these two workloads
/// stay about the host. The analyzer's cost per report grows faster than the
/// report, so sparse bursty taps want short periods (2.1 ms: ~30 ns/packet of
/// collection against ~90 of ingest; at 8.4 ms the two are equal) and dense
/// paced hosts long ones (8.4 ms, the paper's 20 ms order of magnitude).
const BURSTY_PERIOD_NS: u64 = 1 << 21;
const PACED_PERIOD_NS: u64 = 1 << 23;

struct Inputs {
    per_host: Vec<Vec<TxRecord>>,
    period_ns: u64,
    /// The next lap starts this much later: laps follow one another without
    /// a gap, so one period spans several bursty laps.
    lap_shift_ns: u64,
    sizes: String,
}

fn bursty_inputs(args: &RunArgs) -> Inputs {
    let (arrivals_ns, end_ns, period_ns) = if args.quick {
        (300_000, 500_000, 1 << 18)
    } else {
        (6_000_000, 7_000_000, BURSTY_PERIOD_NS)
    };
    // Fixed traffic matrix, seeded simulator: see `fabric::generate`.
    let params = WorkloadParams {
        duration_ns: arrivals_ns,
        ..WorkloadParams::paper(WorkloadKind::Hadoop, 0.25, TRAFFIC_SEED)
    };
    let config = SimConfig {
        end_ns,
        seed: args.seed,
        ..SimConfig::default()
    };
    let topo = Topology::fat_tree(4, 100.0, 1000);
    let result = Simulator::new(topo, params.generate(), config).run();
    let per_host = split_by_host(&result.telemetry.tx_records, params.num_hosts);
    Inputs {
        sizes: format!(
            "k=4 Hadoop 0.25, arrivals {arrivals_ns} ns, end {end_ns} ns, {} hosts, {} pkts/lap, period {period_ns} ns",
            params.num_hosts,
            result.telemetry.tx_records.len()
        ),
        period_ns,
        lap_shift_ns: end_ns.next_multiple_of(wavesketch::DEFAULT_WINDOW_NS),
        per_host,
    }
}

fn paced_inputs(args: &RunArgs) -> Inputs {
    let (hosts, lap_periods) = if args.quick { (2, 1) } else { (8, 1) };
    let shape = Paced {
        flows: if args.quick { 200 } else { 2000 },
        gap_ns: 160_000,
        span_ns: lap_periods * PACED_PERIOD_NS,
        pkt_bytes: 1000,
    };
    let per_host: Vec<Vec<TxRecord>> = (0..hosts)
        .map(|h| shape.host_records(h, args.seed).0)
        .collect();
    Inputs {
        sizes: format!(
            "{hosts} hosts x {} flows, one 1000 B pkt per flow per 160 us, {} pkts/lap, period {PACED_PERIOD_NS} ns",
            shape.flows,
            per_host.iter().map(Vec::len).sum::<usize>()
        ),
        period_ns: PACED_PERIOD_NS,
        lap_shift_ns: shape.span_ns,
        per_host,
    }
}

/// Moves every record `shift_ns` later and adds the bytes each host then
/// sends per period to `sent` — the truth the final conservation check reads.
fn shift_and_count(
    per_host: &mut [Vec<TxRecord>],
    shift_ns: u64,
    period_ns: u64,
    sent: &mut HashMap<(usize, u64), u64>,
) {
    for (host, records) in per_host.iter_mut().enumerate() {
        // Records are time-ordered: sum runs of one period, touch the map
        // once per run.
        let (mut period, mut bytes) = (u64::MAX, 0);
        for r in records.iter_mut() {
            r.ts_ns += shift_ns;
            let p = r.ts_ns / period_ns;
            if p != period {
                if bytes > 0 {
                    *sent.entry((host, period)).or_default() += bytes;
                }
                (period, bytes) = (p, 0);
            }
            bytes += u64::from(r.bytes);
        }
        *sent.entry((host, period)).or_default() += bytes;
    }
}

/// Share of packets whose flow was last seen in an earlier window (first
/// packets included): how often the sketch leaves the accumulate fast path.
/// A property of the input, computed from the records.
fn window_advance_frac(per_host: &[Vec<TxRecord>], shift: u32) -> f64 {
    let (mut advanced, mut total) = (0u64, 0u64);
    for records in per_host {
        let mut last = HashMap::new();
        for r in records {
            let w = r.ts_ns >> shift;
            if last.insert(r.flow.0, w) != Some(w) {
                advanced += 1;
            }
            total += 1;
        }
    }
    advanced as f64 / total.max(1) as f64
}

/// Batch ≡ scalar: one lap through `ingest` (bursts) and through per-record
/// `observe` must drain reports with equal integrity digests, and those
/// reports must conserve the bytes sent.
fn batch_equals_scalar(
    per_host: &[Vec<TxRecord>],
    cfg: &HostAgentConfig,
    truth: &Truth,
) -> (bool, String) {
    let mut compared = 0;
    for (host, records) in per_host.iter().enumerate().take(2) {
        let mut batch = HostAgent::new(host, cfg.clone());
        for burst in records.chunks(BURST) {
            batch.ingest(burst);
        }
        let mut scalar = HostAgent::new(host, cfg.clone());
        for r in records {
            scalar.observe(r.flow.0, r.ts_ns, r.bytes);
        }
        let (batch, scalar) = (batch.finish(), scalar.finish());
        let digests = |reports: &[PeriodReport]| -> Vec<(u64, u64)> {
            reports
                .iter()
                .map(|r| (r.period, r.report.integrity()))
                .collect()
        };
        if batch.is_empty() || digests(&batch) != digests(&scalar) {
            return (false, format!("host {host}: digests differ"));
        }
        if let Some(leak) = reports_leaking_bytes(&batch, truth).first() {
            return (false, leak.clone());
        }
        compared += batch.len();
    }
    (
        true,
        format!("{compared} report digests equal, bytes conserved"),
    )
}

/// What a direct `FullWaveSketch` replay of one host's lap costs.
pub struct CoreCosts {
    update_batch_ns_per_pkt: f64,
    update_ns_per_pkt: f64,
    drain_us_per_report: f64,
}

impl CoreCosts {
    pub fn report_into(&self, out: &mut Outcome) {
        out.set("core.update_batch_ns_per_pkt", self.update_batch_ns_per_pkt);
        out.set("core.update_ns_per_pkt", self.update_ns_per_pkt);
        out.set("core.drain_us_per_report", self.drain_us_per_report);
    }
}

/// Replays the tuples `HostAgent::ingest` would stage straight into a
/// sketch, draining at every period boundary: once through `update_batch`
/// in 32-tuple bursts, once through per-record `update`.
pub fn core_probe(records: &[TxRecord], cfg: &HostAgentConfig, tr: &mut Tracer) -> CoreCosts {
    let mut periods: Vec<Vec<(FlowKey, u64, i64)>> = Vec::new();
    let mut current = None;
    for r in records {
        let period = r.ts_ns / cfg.period_ns;
        if current != Some(period) {
            current = Some(period);
            periods.push(Vec::new());
        }
        let staged = (
            FlowKey::from_id(r.flow.0),
            r.ts_ns >> cfg.window_shift,
            i64::from(r.bytes),
        );
        periods.last_mut().expect("just pushed").push(staged);
    }
    let mut replay = |name: &'static str, batch: bool| -> (u64, u64) {
        let mut sketch = FullWaveSketch::new(cfg.sketch.clone());
        let (start, mut drain_ns) = (tr.now_ns(), 0);
        for period in &periods {
            if batch {
                for burst in period.chunks(BURST) {
                    sketch.update_batch(burst);
                }
            } else {
                for (key, window, value) in period {
                    sketch.update(key, *window, *value);
                }
            }
            let t0 = tr.now_ns();
            std::hint::black_box(sketch.drain());
            drain_ns += tr.now_ns() - t0;
        }
        let end = tr.now_ns();
        let update_ns = end - start - drain_ns;
        tr.leaf_total(name, start, end, update_ns, 1);
        (update_ns, drain_ns)
    };
    let (batch_ns, drain_ns) = replay("probe.core.update_batch", true);
    let (scalar_ns, _) = replay("probe.core.update", false);
    let pkts = records.len().max(1) as f64;
    CoreCosts {
        update_batch_ns_per_pkt: batch_ns as f64 / pkts,
        update_ns_per_pkt: scalar_ns as f64 / pkts,
        drain_us_per_report: drain_ns as f64 / periods.len().max(1) as f64 / 1e3,
    }
}

/// One lap: every host's records once, in bursts, reports flowing to the
/// analyzer as their periods close. Each burst's `ingest` + `poll_finished`
/// time is appended to `burst_ns`.
fn lap(
    agents: &mut [HostAgent],
    plane: &mut Plane<PerfectTransport>,
    per_host: &[Vec<TxRecord>],
    burst_ns: &mut Vec<u64>,
    tr: &mut Tracer,
) {
    let stage = tr.open("hosts");
    for (agent, records) in agents.iter_mut().zip(per_host) {
        let first = tr.now_ns();
        let mut busy = 0;
        for burst in records.chunks(BURST) {
            let t0 = Instant::now();
            agent.ingest(burst);
            let finished = agent.poll_finished();
            let dt = t0.elapsed().as_nanos() as u64;
            burst_ns.push(dt);
            busy += dt;
            if !finished.is_empty() {
                plane.submit(agent.host, finished, tr);
            }
        }
        let calls = records.len().div_ceil(BURST) as u64;
        tr.leaf_total("host_agent.ingest", first, tr.now_ns(), busy, calls);
        // The collection plane ticks once per host and lap, like a periodic
        // upload timer, not once per finished report.
        plane.round(tr);
    }
    plane.drain(tr);
    tr.close(stage);
}

pub fn run(args: &RunArgs, tr: &mut Tracer, shape: Shape) -> Outcome {
    let (mut inputs, setup_s) = timed_setups(args, || match shape {
        Shape::Bursty => bursty_inputs(args),
        Shape::Paced => paced_inputs(args),
    });
    let cfg = HostAgentConfig {
        period_ns: inputs.period_ns,
        ..HostAgentConfig::default()
    };
    let hosts = inputs.per_host.len();
    let lap_pkts: u64 = inputs.per_host.iter().map(|r| r.len() as u64).sum();
    // The unshifted lap, for the off-clock checks and probes.
    let lap0 = inputs.per_host.clone();

    let mut agents: Vec<HostAgent> = (0..hosts).map(|h| HostAgent::new(h, cfg.clone())).collect();
    let analyzer = Analyzer::with_retention(
        cfg.sketch.clone(),
        RetentionPolicy::bounded(2, 4).with_cached_bytes(256 << 20),
    );
    let mut plane = Plane::new(hosts, PerfectTransport::new(), analyzer);
    let mut burst_ns: Vec<u64> = Vec::new();

    // Warm-up lap: fills caches and grows every buffer to its steady size.
    let mut sent = HashMap::new();
    shift_and_count(&mut inputs.per_host, 0, cfg.period_ns, &mut sent);
    tr.set_run(0);
    lap(&mut agents, &mut plane, &inputs.per_host, &mut burst_ns, tr);
    burst_ns.clear();
    let (warm_reports, warm_bytes) = (plane.submitted, plane.submitted_bytes);

    let mut clock = LapClock::new(args);
    while clock.more() {
        shift_and_count(
            &mut inputs.per_host,
            inputs.lap_shift_ns,
            cfg.period_ns,
            &mut sent,
        );
        burst_ns.reserve(lap_pkts as usize / BURST + hosts);
        clock.start(tr);
        lap(&mut agents, &mut plane, &inputs.per_host, &mut burst_ns, tr);
        clock.stop(&mut burst_ns);
    }
    let ops = lap_pkts * clock.laps() as u64;
    let ingested = agents.iter().map(|a| a.packets).sum::<u64>() - lap_pkts;
    let failed_ops = ops.saturating_sub(ingested) + plane.unaccounted_reports();
    let ingest_ns = tr.busy_ns("host_agent.ingest");
    let reports = plane.submitted - warm_reports;
    let report_bytes = plane.submitted_bytes - warm_bytes;
    let mut out = Outcome::close(inputs.sizes.clone(), setup_s, &clock, tr, ops, failed_ops);

    // --- output checks, off the clock ------------------------------------
    let mut truth = Truth::new(&cfg);
    for records in &lap0 {
        truth.add(records);
    }
    let (ok, detail) = batch_equals_scalar(&lap0, &cfg, &truth);
    out.check(
        "lap-0 reports: batch ingest == per-record observe, bytes conserved",
        ok,
        detail,
    );

    // One light row sums to the host's aggregate and reconstruction only
    // clamps negatives up, so a host's rate curve over its resident periods
    // can never total less than the bytes sent in them.
    let mut scratch = QueryScratch::new();
    let mut off = Vec::new();
    for host in 0..hosts {
        let resident = plane.analyzer.host_coverage(host).periods;
        let sent: u64 = resident.iter().filter_map(|p| sent.get(&(host, *p))).sum();
        let curve = plane
            .analyzer
            .host_rate_curve_with(host, &mut scratch)
            .map_or(0.0, |s| s.total());
        if sent == 0 || curve < sent as f64 * (1.0 - 1e-9) {
            off.push(format!("host {host}: curve {curve} vs sent {sent}"));
        }
    }
    out.check(
        "host rate curves lose none of the bytes sent in resident periods",
        off.is_empty(),
        if off.is_empty() {
            format!("{hosts}/{hosts} hosts")
        } else {
            off.join("; ")
        },
    );
    let sampled: BTreeSet<(usize, u64)> = lap0
        .iter()
        .flat_map(|records| records.iter().step_by(records.len() / 32 + 1))
        .map(|r| (r.host, r.flow.0))
        .collect();
    let answered = sampled
        .iter()
        .filter(|(h, f)| {
            plane
                .analyzer
                .flow_curve_with(*h, *f, &mut scratch)
                .is_some()
        })
        .count();
    out.check(
        "sampled flows are queryable",
        answered == sampled.len(),
        format!("{answered}/{} flows", sampled.len()),
    );

    // --- per-layer metrics -----------------------------------------------
    let span_s = (clock.laps() as u64 * inputs.lap_shift_ns) as f64 / 1e9;
    let mbps_per_host = report_bytes as f64 * 8.0 / span_s / 1e6 / hosts as f64;
    out.set("host_ns_per_pkt", ingest_ns as f64 / ops.max(1) as f64);
    out.set("report_mbps_per_host", mbps_per_host);
    out.set("reports_per_s", reports as f64 / out.wall_s());
    out.set_per_lap("host_agent.ingest_ns", ingest_ns as f64);
    out.set_per_lap("host_agent.pkts", ops as f64);
    out.set_per_lap("host_agent.reports", reports as f64);
    out.set_per_lap("host_agent.report_bytes", report_bytes as f64);
    out.set(
        "host_agent.window_advance_frac",
        window_advance_frac(&lap0, cfg.window_shift),
    );
    plane.report_into(&mut out, tr);
    out.exact.push(("pkts_per_lap", lap_pkts as f64));
    if args.trace {
        let busiest = lap0
            .iter()
            .max_by_key(|r| r.len())
            .expect("at least one host");
        core_probe(busiest, &cfg, tr).report_into(&mut out);
    }
    out
}
