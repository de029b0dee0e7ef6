//! What every workload shares: run arguments, the lap clock, the result
//! record, and how a result is printed.

use crate::spec::{self, MetricSpec};
use crate::stats::{best, median, percentile_sorted};
use crate::trace::Tracer;
use crate::{env, workloads};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds; laps run until their summed time reaches it.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: two short laps regardless of `seconds`.
    pub quick: bool,
    /// Where trace files and scratch archives go (inside the checkout).
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// A scratch directory unique to this process and `tag`, emptied first.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        let dir = self.out_dir.join(format!(
            "tmp-{}-{}-{tag}",
            self.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// One output check, run after the clock stops. A failed check counts as one
/// failed operation.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Times the measured laps of a run. Work between `stop` and the next
/// `start` (preparing the next lap's inputs, deleting scratch files) is off
/// the clock.
pub struct LapClock {
    seconds: f64,
    min_laps: usize,
    started: Option<Instant>,
    pub lap_ns: Vec<u64>,
    /// Each lap's own median and 95th-percentile request latency, µs. Kept
    /// per lap, not per request, so memory does not grow with the lap count.
    pub req_p50_us: Vec<f64>,
    pub req_p95_us: Vec<f64>,
}

impl LapClock {
    /// Also collapses the peak-RSS watermark, so `peak_rss_mb` covers the
    /// state set-up left behind plus the measured phase, not set-up's own
    /// transients.
    pub fn new(args: &RunArgs) -> Self {
        env::reset_peak_rss();
        Self {
            seconds: if args.quick { 0.0 } else { args.seconds },
            min_laps: 2,
            started: None,
            lap_ns: Vec::new(),
            req_p50_us: Vec::new(),
            req_p95_us: Vec::new(),
        }
    }

    pub fn more(&self) -> bool {
        self.lap_ns.len() < self.min_laps || self.total_s() < self.seconds
    }

    pub fn start(&mut self, tr: &mut Tracer) {
        tr.set_run(self.lap_ns.len() as u32 + 1);
        self.started = Some(Instant::now());
    }

    /// Stops the lap, then (off the clock) takes the quantiles of its request
    /// latencies and empties `req_ns` for the next lap.
    pub fn stop(&mut self, req_ns: &mut Vec<u64>) {
        let t0 = self.started.take().expect("stop follows start");
        self.lap_ns.push(t0.elapsed().as_nanos() as u64);
        req_ns.sort_unstable();
        self.req_p50_us
            .push(percentile_sorted(req_ns, 0.50) as f64 / 1e3);
        self.req_p95_us
            .push(percentile_sorted(req_ns, 0.95) as f64 / 1e3);
        req_ns.clear();
    }

    pub fn laps(&self) -> usize {
        self.lap_ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.lap_ns.iter().sum()
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns() as f64 / 1e9
    }
}

/// Repetitions of a workload's set-up: at least [`MIN_SETUPS`], and more
/// while they fit in [`SETUP_BUDGET_S`] — a millisecond set-up needs many
/// repetitions for a steady reading, a one-second set-up can afford three.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET_S: f64 = 1.0;

/// Runs `setup` repeatedly, dropping each product before building the next,
/// and returns the last product with the fastest build time in seconds (see
/// [`best`] for why the fastest).
pub fn timed_setups<T>(args: &RunArgs, mut setup: impl FnMut() -> T) -> (T, f64) {
    let budget_s = if args.quick { 0.0 } else { SETUP_BUDGET_S };
    let mut times = Vec::new();
    let mut product = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < budget_s)
    {
        drop(product.take());
        let t0 = Instant::now();
        product = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (product.expect("at least one repetition"), best(&times))
}

/// The result of one run.
pub struct Outcome {
    /// Workload sizes, for the stamp.
    pub sizes: String,
    /// Operations attempted in measured laps (packets, reports or queries).
    pub ops: u64,
    /// Operations that failed, output checks not included.
    pub failed_ops: u64,
    pub checks: Vec<Check>,
    pub setup_s: f64,
    /// Each lap's median and 95th-percentile request latency, µs (bursts,
    /// reports or queries — see the README's workload table).
    pub req_p50_us: Vec<f64>,
    pub req_p95_us: Vec<f64>,
    pub lap_ns: Vec<u64>,
    pub peak_rss_mb: f64,
    /// Per-layer metrics by name; unset ones print as 0.
    pub layer: BTreeMap<&'static str, f64>,
    /// Values that must repeat exactly for one seed (`repeat.sh` compares
    /// them bit for bit between its two sets).
    pub exact: Vec<(&'static str, f64)>,
    /// Top-level stage shares of the measured wall time.
    pub stages: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Closes the books of a run: takes the lap times, peak RSS and stage
    /// totals, and checks that the stages cover the measured wall time.
    pub fn close(
        sizes: String,
        setup_s: f64,
        clock: &LapClock,
        tr: &Tracer,
        ops: u64,
        failed_ops: u64,
    ) -> Self {
        let wall_ns = clock.total_ns().max(1);
        let stage_sum = tr.top_level_ns() as f64 / wall_ns as f64;
        let mut out = Self {
            sizes,
            ops,
            failed_ops,
            checks: Vec::new(),
            setup_s,
            req_p50_us: clock.req_p50_us.clone(),
            req_p95_us: clock.req_p95_us.clone(),
            lap_ns: clock.lap_ns.clone(),
            peak_rss_mb: env::peak_rss_mib(),
            layer: BTreeMap::new(),
            exact: Vec::new(),
            stages: tr
                .stage_totals()
                .into_iter()
                .map(|(name, ns)| (name, ns as f64 / wall_ns as f64))
                .collect(),
        };
        out.set("wall_s", clock.total_s());
        out.set("laps", clock.laps() as f64);
        out.set("stage_sum_frac", stage_sum);
        out.set("traced_ops_per_s", out.ops_per_s());
        out.check(
            "stage spans sum to the measured wall time within 2%",
            (stage_sum - 1.0).abs() <= 0.02,
            format!("sum/wall = {stage_sum:.4}"),
        );
        out
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.layer.insert(name, value);
    }

    /// Sets a per-lap metric from a total over the measured laps.
    pub fn set_per_lap(&mut self, name: &'static str, total: f64) {
        self.set(name, total / self.lap_ns.len().max(1) as f64);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn wall_s(&self) -> f64 {
        self.lap_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn attempted(&self) -> u64 {
        self.ops + self.checks.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed_ops + self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// Operations of one lap over the fastest lap's time (see [`best`]).
    pub fn ops_per_s(&self) -> f64 {
        let lap_s: Vec<f64> = self.lap_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        self.ops as f64 / lap_s.len().max(1) as f64 / best(&lap_s).max(1e-9)
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<(&'static MetricSpec, f64)> {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "setup_s" => self.setup_s,
                    "ops_per_s" => self.ops_per_s(),
                    // Each lap's own quantile, then the best lap's.
                    "req_p50_us" => best(&self.req_p50_us),
                    "req_p95_us" => best(&self.req_p95_us),
                    "peak_rss_mb" => self.peak_rss_mb,
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m, v)
            })
            .collect()
    }

    /// The per-layer metrics, in `spec::PER_LAYER` order.
    pub fn per_layer(&self) -> Vec<(&'static MetricSpec, f64)> {
        spec::PER_LAYER
            .iter()
            .map(|m| (m, self.layer.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    /// The contract's result object: end-to-end metrics on an untraced run,
    /// per-layer metrics on a traced one.
    pub fn result_json(&self, traced: bool) -> Value {
        let metrics = if traced {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let metrics: Vec<(String, Value)> = metrics
            .into_iter()
            .map(|(m, v)| (m.name.to_string(), json!({ "value": v, "unit": m.unit })))
            .collect();
        json!({
            "correct": self.failed() == 0,
            "attempted": self.attempted(),
            "failed": self.failed(),
            "metrics": Value::Object(metrics)
        })
    }
}

/// Runs one workload in this process.
pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut tr = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "fabric_k8" => workloads::fabric::run(args, &mut tr),
        "host_bursty" => workloads::host::run(args, &mut tr, workloads::host::Shape::Bursty),
        "host_paced" => workloads::host::run(args, &mut tr, workloads::host::Shape::Paced),
        "collect_clean" => workloads::collect::run(args, &mut tr, false),
        "collect_lossy" => workloads::collect::run(args, &mut tr, true),
        "query_tiers" => workloads::query::run(args, &mut tr),
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        let stamp = env::stamp(&args.workload, args.seed, &outcome.sizes);
        let path = args.out_dir.join(format!("trace_{}.json", args.workload));
        let text = serde_json::to_string(&tr.to_json(&stamp)).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// Prints a run for a reader, then the `#exact` line `repeat.sh` compares,
/// then — last — the contract's one-line JSON result.
pub fn print_outcome(args: &RunArgs, outcome: &Outcome) {
    let stamp = env::stamp(&args.workload, args.seed, &outcome.sizes);
    println!(
        "# env {}",
        serde_json::to_string(&stamp).unwrap_or_default()
    );
    println!(
        "# {}: {} laps, {:.3} s measured, ops {}, failed {}",
        args.workload,
        outcome.lap_ns.len(),
        outcome.wall_s(),
        outcome.ops,
        outcome.failed()
    );
    let lap_ms: Vec<f64> = outcome.lap_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    println!(
        "  lap ms: min {:.2} median {:.2} max {:.2}",
        lap_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&lap_ms),
        lap_ms.iter().copied().fold(0.0, f64::max)
    );
    for (m, v) in outcome.end_to_end() {
        println!("  {:<28} {:>16.6} {}", m.name, v, m.unit);
    }
    let stages: Vec<String> = outcome
        .stages
        .iter()
        .map(|(n, share)| format!("{n} {:.1}%", share * 100.0))
        .collect();
    println!("  stages: {}", stages.join(", "));
    if args.trace {
        for (m, v) in outcome.per_layer() {
            println!("  {:<36} {:>18.4} {}", m.name, v, m.unit);
        }
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {verdict} {} ({})", c.name, c.detail);
    }
    let exact: Vec<(String, Value)> = outcome
        .exact
        .iter()
        .map(|(k, v)| (k.to_string(), json!(*v)))
        .collect();
    println!(
        "#exact {}",
        serde_json::to_string(&Value::Object(exact)).unwrap_or_default()
    );
    println!(
        "{}",
        serde_json::to_string(&outcome.result_json(args.trace)).unwrap_or_default()
    );
}
