//! `collect_clean` and `collect_lossy`: prebuilt dense reports travel
//! `HostUplink` → transport → `Collector` → archive-backed `Analyzer`.
//!
//! Period by period every host submits its report; after each submit all
//! uplinks tick and the collector pumps (one report outstanding at a time, so
//! a report's latency is its own service time plus any retransmission
//! backoff, not its place in a batch); after the last period the plane runs
//! until nothing is in flight. Every lap builds a fresh plane on an empty archive directory, so
//! laps are identical and memory does not depend on how many fit in a run.
//! The lossy variant changes only the transport.

use crate::plane::Plane;
use crate::run::{timed_setups, LapClock, Outcome, RunArgs};
use crate::synth::{bit_equal, Paced, ReportSet};
use crate::trace::Tracer;
use std::path::Path;
use umon::{
    Analyzer, FaultSpec, FaultyTransport, HostAgentConfig, PerfectTransport, PeriodArchive,
    PeriodReport, QueryScratch, RetentionPolicy, Transport,
};

/// 2.1 ms periods of 256 windows: with 2 000 flows a period fills nearly
/// every bucket, so each report is the ~300 KB a busy host uploads.
const PERIOD_NS: u64 = 1 << 21;

/// What the lossy link does to report envelopes and ACKs. One report in ten
/// needs a retransmission (dropped or truncated), so the 95th percentile of
/// report latency sits inside the retransmitted group for every seed instead
/// of straddling its edge.
const LOSSY: FaultSpec = FaultSpec {
    drop: 0.08,
    duplicate: 0.05,
    reorder: 0.10,
    truncate: 0.02,
    ack_drop: 0.05,
};

fn agent_config() -> HostAgentConfig {
    HostAgentConfig {
        period_ns: PERIOD_NS,
        ..HostAgentConfig::default()
    }
}

fn policy() -> RetentionPolicy {
    RetentionPolicy::bounded(2, 8).with_cached_bytes(256 << 20)
}

struct Sizes {
    hosts: usize,
    distinct: usize,
    periods: u64,
    flows: u64,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            hosts: 8,
            distinct: 2,
            periods: 8,
            flows: 200,
        }
    } else {
        Sizes {
            hosts: 8,
            distinct: 4,
            periods: 12,
            flows: 2000,
        }
    }
}

fn build_reports(sz: &Sizes, seed: u64) -> ReportSet {
    let shape = Paced {
        flows: sz.flows,
        gap_ns: 640_000,
        span_ns: sz.periods * PERIOD_NS,
        pkt_bytes: 1000,
    };
    ReportSet::build(&agent_config(), shape, sz.hosts, sz.distinct, seed)
}

/// Fault counters of a lap's transport, summed over hosts:
/// `[dropped, duplicated, reordered, truncated, acks_dropped]`.
trait LapTransport: Transport {
    fn faults(&self, hosts: usize) -> [u64; 5];
}

impl LapTransport for PerfectTransport {
    fn faults(&self, _hosts: usize) -> [u64; 5] {
        [0; 5]
    }
}

impl LapTransport for FaultyTransport {
    fn faults(&self, hosts: usize) -> [u64; 5] {
        let mut sum = [0; 5];
        for h in 0..hosts {
            let log = self.log(h);
            let counts = [
                log.dropped,
                log.duplicated,
                log.reordered,
                log.truncated,
                log.acks_dropped,
            ];
            for (s, c) in sum.iter_mut().zip(counts) {
                *s += c;
            }
        }
        sum
    }
}

fn open_analyzer(dir: &Path) -> Analyzer {
    Analyzer::with_archive(agent_config().sketch, policy(), dir)
        .expect("scratch archive directory is writable")
}

pub fn run(args: &RunArgs, tr: &mut Tracer, lossy: bool) -> Outcome {
    if lossy {
        // The same fault pattern on every lap: laps must be identical work.
        let seed = args.seed;
        run_with(args, tr, move || FaultyTransport::new(seed, LOSSY))
    } else {
        run_with(args, tr, PerfectTransport::new)
    }
}

fn run_with<T: LapTransport>(
    args: &RunArgs,
    tr: &mut Tracer,
    make_transport: impl Fn() -> T,
) -> Outcome {
    let sz = sizes(args.quick);
    let (set, setup_s) = timed_setups(args, || build_reports(&sz, args.seed));
    let per_lap = set.count() as u64;

    // One lap. Returns the plane (for its counters) and the drain's rounds.
    let lap = |tr: &mut Tracer, dir: &Path, mut queue: Vec<std::vec::IntoIter<PeriodReport>>| {
        let mut plane = Plane::new(sz.hosts, make_transport(), open_analyzer(dir));
        let stage = tr.open("collect");
        for _ in 0..sz.periods {
            for (host, reports) in queue.iter_mut().enumerate() {
                if let Some(report) = reports.next() {
                    plane.submit(host, vec![report], tr);
                    plane.round(tr);
                }
            }
        }
        let drain_rounds = plane.drain(tr);
        tr.close(stage);
        (plane, drain_rounds)
    };
    let fresh_queue = || -> Vec<_> { set.by_host.iter().map(|r| r.clone().into_iter()).collect() };

    let dir = args.scratch_dir("lap");
    tr.set_run(0);
    drop(lap(tr, &dir, fresh_queue()));

    let mut clock = LapClock::new(args);
    let mut failed_ops = 0;
    let mut last = None;
    while clock.more() {
        drop(last.take());
        let _ = std::fs::remove_dir_all(&dir);
        let queue = fresh_queue();
        clock.start(tr);
        let (plane, drain_rounds) = lap(tr, &dir, queue);
        clock.stop(&mut plane.report_latencies_ns());
        failed_ops += plane.unaccounted_reports();
        last = Some((plane, drain_rounds));
    }
    let (plane, drain_rounds) = last.expect("at least one measured lap");

    let ops = per_lap * clock.laps() as u64;
    let sizes = format!(
        "{} hosts ({} distinct) x {} periods = {per_lap} reports/lap, {} B/report, {} flows/host, period 2^21 ns",
        sz.hosts,
        sz.distinct,
        sz.periods,
        plane.submitted_bytes / per_lap.max(1),
        sz.flows
    );
    let mut out = Outcome::close(sizes, setup_s, &clock, tr, ops, failed_ops);

    // --- output checks, off the clock ------------------------------------
    let stats = plane.collector.stats();
    out.check(
        "every submitted report accepted exactly once (last lap)",
        stats.accepted == per_lap && plane.unaccounted_reports() == 0,
        format!("accepted {} of {per_lap}", stats.accepted),
    );
    // The plane's analyzer (bounded, archive-backed, fed through the
    // transport) must answer like an unbounded one fed `add_reports` directly.
    let sample_hosts = sz.distinct.min(2);
    let mut reference = Analyzer::new(agent_config().sketch);
    for reports in set.by_host.iter().take(sample_hosts) {
        reference.add_reports(reports.clone());
    }
    let (mut s1, mut s2) = (QueryScratch::new(), QueryScratch::new());
    let (mut same, mut sampled) = (0, 0);
    for host in 0..sample_hosts {
        let flows = &set.flows[host];
        for flow in flows.iter().step_by(flows.len() / 32 + 1).take(32) {
            sampled += 1;
            let got = plane.analyzer.flow_curve_with(host, *flow, &mut s1);
            let want = reference.flow_curve_with(host, *flow, &mut s2);
            if matches!((got, want), (Some(g), Some(w)) if bit_equal(g, w)) {
                same += 1;
            }
        }
    }
    out.check(
        "sampled curves bit-equal to a reference analyzer fed add_reports directly",
        same == sampled && sampled > 0,
        format!("{same}/{sampled} curves"),
    );

    // --- per-layer metrics -----------------------------------------------
    let span_ns = sz.periods * PERIOD_NS;
    out.set("reports_per_s", ops as f64 / out.wall_s());
    out.set("report_mbps_per_host", set.mbps_per_host(span_ns));
    out.set("host_agent.reports", per_lap as f64);
    out.set("host_agent.report_bytes", plane.submitted_bytes as f64);
    plane.report_into(&mut out, tr);
    out.set("collector.ticks_to_drain", drain_rounds as f64);
    let [dropped, duplicated, reordered, truncated, acks_dropped] =
        plane.transport.inner.faults(sz.hosts);
    out.set("transport.sent", plane.transport.envelopes_sent as f64);
    out.set("transport.dropped", dropped as f64);
    out.set("transport.duplicated", duplicated as f64);
    out.set("transport.reordered", reordered as f64);
    out.set("transport.truncated", truncated as f64);
    out.set("transport.acks_dropped", acks_dropped as f64);
    out.exact.push(("reports_per_lap", per_lap as f64));
    out.exact
        .push(("report_bytes_per_lap", plane.submitted_bytes as f64));
    out.exact
        .push(("envelopes_sent", plane.transport.envelopes_sent as f64));
    out.exact.push(("drain_rounds", drain_rounds as f64));

    if args.trace {
        let pump_ns = out.layer["collector.pump_ns"];
        probes(args, tr, &set, &dir, &mut out);
        out.set(
            "collector.self_ns",
            (pump_ns - out.layer["analyzer.add_reports_ns"]).max(0.0),
        );
    }
    drop(plane);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Traced run only: the analyzer and the archive measured alone on the same
/// reports, and recovery of the directory the last lap wrote.
fn probes(args: &RunArgs, tr: &mut Tracer, set: &ReportSet, lap_dir: &Path, out: &mut Outcome) {
    let reports = set.in_upload_order();
    let n = reports.len().max(1) as f64;
    tr.set_run(0);

    let twin_dir = args.scratch_dir("twin");
    let mut twin = open_analyzer(&twin_dir);
    let feed = reports.clone();
    let t0 = tr.now_ns();
    for r in feed {
        twin.add_reports(vec![r]);
    }
    let add_ns = tr.now_ns() - t0;
    tr.leaf_total(
        "probe.analyzer.add_reports",
        t0,
        t0 + add_ns,
        add_ns,
        reports.len() as u64,
    );
    drop(twin);
    let _ = std::fs::remove_dir_all(&twin_dir);
    out.set("analyzer.add_reports_ns", add_ns as f64);
    out.set("analyzer.us_per_report", add_ns as f64 / n / 1e3);

    let archive_dir = args.scratch_dir("archive");
    let mut archive = PeriodArchive::open(&archive_dir).expect("scratch directory is writable");
    let t0 = tr.now_ns();
    let mut bytes = 0u64;
    for r in &reports {
        bytes += u64::from(archive.append(r).expect("append to scratch archive").len);
    }
    let append_ns = tr.now_ns() - t0;
    tr.leaf_total(
        "probe.archive.append",
        t0,
        t0 + append_ns,
        append_ns,
        reports.len() as u64,
    );
    drop(archive);
    let _ = std::fs::remove_dir_all(&archive_dir);
    out.set("archive.append_ns", append_ns as f64);
    out.set("archive.bytes_written", bytes as f64);

    let mut restarted = open_analyzer(lap_dir);
    let t0 = tr.now_ns();
    let recovery = restarted.recover_from_archive();
    let recover_ns = tr.now_ns() - t0;
    tr.leaf_total("probe.archive.recover", t0, t0 + recover_ns, recover_ns, 1);
    out.set("archive.recover_ns", recover_ns as f64);
    let recovered = recovery.map_or(0, |r| r.recovered + r.skipped);
    out.check(
        "recovery replays every record the last lap archived",
        recovered == reports.len() as u64,
        format!("{recovered} of {} records", reports.len()),
    );
}
