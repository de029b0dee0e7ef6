//! `query_tiers`: reads only. Set-up loads 24 periods per host into an
//! archive-backed analyzer that keeps 2 periods hot and 8 resident, so every
//! whole-history curve crosses the hot, compacted and cold tiers, and the
//! cold segment cache is smaller than the archived set, so cold reads miss.
//! One closed-loop client then repeats a seeded query sweep.

use crate::run::{timed_setups, LapClock, Outcome, RunArgs};
use crate::stats::percentile_sorted;
use crate::synth::{accuracy, bit_equal, Paced, ReportSet, SplitMix64, Truth};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;
use umon::{Analyzer, HostAgentConfig, QueryScratch, RetentionPolicy};

const PERIOD_NS: u64 = 1 << 21;

fn agent_config() -> HostAgentConfig {
    HostAgentConfig {
        period_ns: PERIOD_NS,
        ..HostAgentConfig::default()
    }
}

struct Sizes {
    hosts: usize,
    distinct: usize,
    periods: u64,
    flows: u64,
    sweep: usize,
    cold_cache_bytes: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            hosts: 4,
            distinct: 2,
            periods: 12,
            flows: 100,
            sweep: 250,
            cold_cache_bytes: 256 << 10,
        }
    } else {
        Sizes {
            hosts: 8,
            distinct: 4,
            periods: 24,
            flows: 500,
            sweep: 200,
            cold_cache_bytes: 12 << 20,
        }
    }
}

fn shape(sz: &Sizes) -> Paced {
    Paced {
        flows: sz.flows,
        gap_ns: 640_000,
        span_ns: sz.periods * PERIOD_NS,
        pkt_bytes: 1000,
    }
}

fn tiered_policy(sz: &Sizes) -> RetentionPolicy {
    RetentionPolicy::bounded(2, 8).with_cold_cache_bytes(sz.cold_cache_bytes)
}

fn load(set: &ReportSet, mut analyzer: Analyzer) -> Analyzer {
    for report in set.in_upload_order() {
        analyzer.add_reports(vec![report]);
    }
    analyzer
}

fn load_archived(set: &ReportSet, policy: RetentionPolicy, dir: &Path) -> Analyzer {
    let _ = std::fs::remove_dir_all(dir);
    let analyzer = Analyzer::with_archive(agent_config().sketch, policy, dir)
        .expect("scratch archive directory is writable");
    load(set, analyzer)
}

#[derive(Clone, Copy)]
enum Query {
    FlowCurve(usize, u64),
    HostRate(usize),
    FlowCurveWithCoverage(usize, u64),
}

/// The seeded sweep, one host after another (an operator inspects a host at
/// a time, and it makes the cold cache's misses a property of the workload,
/// not of the draw: the cache cannot hold every host's cold periods, so each
/// host's are read back once per sweep). Per host a fixed share of queries
/// with seeded flows; of every ten, one is a host rate curve, one a flow
/// curve with its period coverage and eight are flow curves — a host rate
/// curve costs ten flow curves, so a drawn mix would move the sweep's cost
/// with the seed.
fn sweep(set: &ReportSet, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64(seed ^ 0x5EED_5EE9);
    let hosts = set.flows.len();
    (0..n)
        .map(|i| {
            let host = i * hosts / n;
            let flow = set.flows[host][rng.below(set.flows[host].len() as u64) as usize];
            match i % 10 {
                4 => Query::HostRate(host),
                9 => Query::FlowCurveWithCoverage(host, flow),
                _ => Query::FlowCurve(host, flow),
            }
        })
        .collect()
}

/// Latencies of one pass over the sweep, split by query kind.
#[derive(Default)]
struct SweepTimes {
    all_ns: Vec<u64>,
    flow_curve_ns: Vec<u64>,
    host_rate_ns: Vec<u64>,
    none_answers: u64,
}

fn run_sweep(
    analyzer: &Analyzer,
    queries: &[Query],
    scratch: &mut QueryScratch,
    times: &mut SweepTimes,
) {
    for q in queries {
        let t0 = Instant::now();
        let answered = match *q {
            Query::FlowCurve(h, f) => analyzer.flow_curve_with(h, f, scratch).is_some(),
            Query::HostRate(h) => analyzer.host_rate_curve_with(h, scratch).is_some(),
            Query::FlowCurveWithCoverage(h, f) => {
                std::hint::black_box(analyzer.flow_curve_with_coverage(h, f)).is_some()
            }
        };
        let dt = t0.elapsed().as_nanos() as u64;
        times.all_ns.push(dt);
        match q {
            Query::FlowCurve(..) => times.flow_curve_ns.push(dt),
            Query::HostRate(..) => times.host_rate_ns.push(dt),
            Query::FlowCurveWithCoverage(..) => {}
        }
        if !answered {
            times.none_answers += 1;
        }
    }
}

fn p_us(ns: &mut [u64], q: f64) -> f64 {
    ns.sort_unstable();
    percentile_sorted(ns, q) as f64 / 1e3
}

pub fn run(args: &RunArgs, tr: &mut Tracer) -> Outcome {
    let sz = sizes(args.quick);
    let dir = args.scratch_dir("tiers");
    let ((set, analyzer), setup_s) = timed_setups(args, || {
        let set = ReportSet::build(
            &agent_config(),
            shape(&sz),
            sz.hosts,
            sz.distinct,
            args.seed,
        );
        let analyzer = load_archived(&set, tiered_policy(&sz), &dir);
        (set, analyzer)
    });
    let queries = sweep(&set, sz.sweep, args.seed);
    let mut scratch = QueryScratch::new();

    tr.set_run(0);
    run_sweep(
        &analyzer,
        &queries,
        &mut scratch,
        &mut SweepTimes::default(),
    );
    let cold_before = analyzer.retention_stats();

    let mut clock = LapClock::new(args);
    let mut times = SweepTimes::default();
    while clock.more() {
        times.all_ns.reserve(queries.len());
        clock.start(tr);
        let stage = tr.open("query");
        let first = tr.now_ns();
        run_sweep(&analyzer, &queries, &mut scratch, &mut times);
        let busy = times.all_ns.iter().sum();
        tr.leaf_total(
            "analyzer.query",
            first,
            tr.now_ns(),
            busy,
            queries.len() as u64,
        );
        tr.close(stage);
        clock.stop(&mut times.all_ns);
    }
    let cold = analyzer.retention_stats();

    let ops = (queries.len() * clock.laps()) as u64;
    let report_bytes: usize = set.by_host.iter().flatten().map(|r| r.wire_bytes()).sum();
    let sizes = format!(
        "{} hosts ({} distinct) x {} periods, {} flows/host, {} B archived, cold cache {} B, bounded(2,8), {} queries/lap",
        sz.hosts, sz.distinct, sz.periods, sz.flows, report_bytes, sz.cold_cache_bytes, queries.len()
    );
    let mut out = Outcome::close(sizes, setup_s, &clock, tr, ops, times.none_answers);

    // --- output checks, off the clock ------------------------------------
    let hot = load(&set, Analyzer::new(agent_config().sketch));
    let mut hot_scratch = QueryScratch::new();
    let (mut same, mut sampled) = (0, 0);
    for q in queries.iter().step_by(queries.len() / 128 + 1) {
        sampled += 1;
        let equal = match *q {
            Query::FlowCurve(h, f) | Query::FlowCurveWithCoverage(h, f) => matches!(
                (analyzer.flow_curve_with(h, f, &mut scratch), hot.flow_curve_with(h, f, &mut hot_scratch)),
                (Some(a), Some(b)) if bit_equal(a, b)
            ),
            Query::HostRate(h) => matches!(
                (analyzer.host_rate_curve_with(h, &mut scratch), hot.host_rate_curve_with(h, &mut hot_scratch)),
                (Some(a), Some(b)) if bit_equal(a, b)
            ),
        };
        same += usize::from(equal);
    }
    out.check(
        "tiered answers bit-equal to an all-hot twin",
        same == sampled,
        format!("{same}/{sampled} sampled queries"),
    );
    out.check(
        "cold reads missed the segment cache during the measured phase",
        cold.cold_misses > cold_before.cold_misses && cold.cold_read_errors == 0,
        format!(
            "{} misses, {} read errors",
            cold.cold_misses - cold_before.cold_misses,
            cold.cold_read_errors
        ),
    );

    // Accuracy against the exact per-window truth of the distinct hosts.
    let mut truth = Truth::new(&agent_config());
    for h in 0..sz.distinct.min(sz.hosts) {
        truth.add(&shape(&sz).host_records(h, args.seed).0);
    }
    let (mut are, mut energy, mut n) = (0.0, 0.0, 0);
    for (h, f) in truth.flow_keys().into_iter().step_by(7) {
        if let (Some(t), Some(e)) = (
            truth.curve(h, f),
            hot.flow_curve_with(h, f, &mut hot_scratch),
        ) {
            let (a, s) = accuracy(&t, e);
            are += a;
            energy += s;
            n += 1;
        }
    }
    let (are, energy) = (are / n.max(1) as f64, energy / n.max(1) as f64);

    // --- per-layer metrics -----------------------------------------------
    let laps = clock.laps() as f64;
    out.set("queries_per_s", ops as f64 / out.wall_s());
    out.set(
        "report_mbps_per_host",
        set.mbps_per_host(sz.periods * PERIOD_NS),
    );
    out.set("flow_are_mean", are);
    out.set("flow_energy_sim_mean", energy);
    out.set(
        "query.flow_curve_us_p50",
        p_us(&mut times.flow_curve_ns, 0.50),
    );
    out.set(
        "query.flow_curve_us_p99",
        p_us(&mut times.flow_curve_ns, 0.99),
    );
    out.set(
        "query.host_rate_us_p50",
        p_us(&mut times.host_rate_ns, 0.50),
    );
    out.set(
        "query.cold_hits",
        (cold.cold_hits - cold_before.cold_hits) as f64 / laps,
    );
    out.set(
        "query.cold_misses",
        (cold.cold_misses - cold_before.cold_misses) as f64 / laps,
    );
    out.set(
        "query.cold_bytes_read",
        (cold.cold_bytes_read - cold_before.cold_bytes_read) as f64 / laps,
    );
    out.set(
        "query.cold_read_ns",
        (cold.cold_read_ns - cold_before.cold_read_ns) as f64 / laps,
    );
    out.set("query.none_answers", times.none_answers as f64);
    let residency = analyzer.residency();
    out.set("analyzer.compacted_periods", cold.compacted_periods as f64);
    out.set("analyzer.evicted_periods", cold.evicted_periods as f64);
    out.set("analyzer.cached_bytes", residency.cached_bytes as f64);
    out.set(
        "analyzer.resident_report_bytes",
        residency.resident_report_bytes as f64,
    );
    out.exact.push(("queries_per_lap", queries.len() as f64));
    out.exact
        .push(("archived_report_bytes", report_bytes as f64));
    out.exact.push(("flow_are_mean", are));

    if args.trace {
        tr.set_run(0);
        // The same sweep against one-tier twins. `bounded(1, MAX)` keeps all
        // but the newest period compacted; `bounded(1, 1)` with an archive
        // keeps all but the newest cold (cache large enough to hold them, so
        // this is the cache-hit cost of the cold path).
        let mut p50 = |name: &'static str, twin: &Analyzer| -> f64 {
            let mut t = SweepTimes::default();
            let mut s = QueryScratch::new();
            run_sweep(twin, &queries, &mut s, &mut SweepTimes::default());
            let first = tr.now_ns();
            run_sweep(twin, &queries, &mut s, &mut t);
            let busy = t.all_ns.iter().sum();
            tr.leaf_total(name, first, tr.now_ns(), busy, queries.len() as u64);
            p_us(&mut t.all_ns, 0.50)
        };
        out.set("query.hot_us_p50", p50("probe.query.hot", &hot));
        let compacted = load(
            &set,
            Analyzer::with_retention(agent_config().sketch, RetentionPolicy::bounded(1, u64::MAX)),
        );
        out.set(
            "query.compacted_us_p50",
            p50("probe.query.compacted", &compacted),
        );
        drop(compacted);
        let cold_dir = args.scratch_dir("cold");
        let all_cold = load_archived(
            &set,
            RetentionPolicy::bounded(1, 1).with_cold_cache_bytes(1 << 30),
            &cold_dir,
        );
        out.set("query.cold_us_p50", p50("probe.query.cold", &all_cold));
        drop(all_cold);
        let _ = std::fs::remove_dir_all(&cold_dir);
    }
    drop(analyzer);
    let _ = std::fs::remove_dir_all(&dir);
    out
}
