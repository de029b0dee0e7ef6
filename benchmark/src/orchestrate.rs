//! Sets of runs: every workload several times, each run a child process of
//! its own, summarised as median and min/max per metric; and the
//! two-set repeatability check behind `repeat.sh`.

use crate::spec;
use crate::stats::{iqr_over_median, median};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What a set of runs covers.
pub struct SetOptions {
    /// One workload only, or all six.
    pub only: Option<String>,
    /// Run `i` of every workload uses seed `seed + i`.
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub runs: usize,
    /// Also make one traced run per workload and print its per-layer metrics.
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one child run printed.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    exact: Vec<(String, f64)>,
    failed: u64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(entries) => entries,
        _ => &[],
    }
}

/// Runs one workload once in a child process and parses its last two lines.
/// The child's own report is passed through when `echo` is set.
fn run_child(
    opts: &SetOptions,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    for (name, m) in object(result.field("metrics").unwrap_or(&Value::Null)) {
        let value = m
            .field("value")
            .and_then(number)
            .ok_or(format!("{workload}: {name} has no value"))?;
        metrics.insert(name.clone(), value);
    }
    let exact_line = stdout.lines().rev().find_map(|l| l.strip_prefix("#exact "));
    let exact: Value = serde_json::from_str(exact_line.unwrap_or("{}"))
        .map_err(|e| format!("{workload}: bad #exact line: {e}"))?;
    Ok(ChildRun {
        metrics,
        exact: object(&exact)
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), number(v)?)))
            .collect(),
        failed: result.field("failed").and_then(number).unwrap_or(1.0) as u64,
    })
}

/// The untraced runs of one workload in one set.
struct WorkloadRuns {
    workload: &'static str,
    runs: Vec<ChildRun>,
}

impl WorkloadRuns {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }

    fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.failed).sum()
    }
}

fn selected(opts: &SetOptions) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| opts.only.as_deref().is_none_or(|only| only == *name))
        .collect()
}

fn run_set(
    opts: &SetOptions,
    order: &[&'static str],
    echo: bool,
) -> Result<Vec<WorkloadRuns>, String> {
    order
        .iter()
        .map(|&workload| {
            let runs = (0..opts.runs)
                .map(|i| run_child(opts, workload, opts.seed + i as u64, false, echo))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(WorkloadRuns { workload, runs })
        })
        .collect()
}

fn print_summary(set: &WorkloadRuns) {
    println!(
        "== {} : {} runs, failed {}",
        set.workload,
        set.runs.len(),
        set.failed()
    );
    println!(
        "  {:<16} {:>6} {:>16} {:>16} {:>16} {:>8}",
        "metric", "unit", "median", "min", "max", "iqr/med"
    );
    for m in spec::END_TO_END {
        let v = set.values(m.name);
        let (lo, hi) = v
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        println!(
            "  {:<16} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>7.2}%",
            m.name,
            m.unit,
            median(&v),
            lo,
            hi,
            iqr_over_median(&v) * 100.0
        );
    }
}

/// Every selected workload `runs` times, then (with `--trace`) once traced.
/// `Ok(false)` when any run reported a failed operation or check.
pub fn run_all(opts: &SetOptions) -> Result<bool, String> {
    let mut ok = true;
    for workload in selected(opts) {
        let set = &run_set(opts, &[workload], true)?[0];
        print_summary(set);
        ok &= set.failed() == 0;
        if opts.trace {
            let traced = run_child(opts, workload, opts.seed, true, true)?;
            ok &= traced.failed == 0;
            let untraced = median(&set.values("ops_per_s"));
            let with_tracing = traced
                .metrics
                .get("traced_ops_per_s")
                .copied()
                .unwrap_or(0.0);
            println!(
                "  tracing overhead: untraced {untraced:.1} ops/s / traced {with_tracing:.1} ops/s = {:.3}x; trace in {}",
                untraced / with_tracing.max(1e-9),
                opts.out_dir.join(format!("trace_{workload}.json")).display()
            );
        }
    }
    Ok(ok)
}

/// Two full sets of the same code, workload order reversed in the second.
/// Prints both side by side; `Ok(false)` when the medians of an end-to-end
/// metric differ by more than its bound in either direction, when a value
/// that must repeat exactly for a seed does not, or when anything failed.
pub fn repeat(opts: &SetOptions) -> Result<bool, String> {
    let forward = selected(opts);
    let backward: Vec<_> = forward.iter().rev().copied().collect();
    let first = run_set(opts, &forward, false)?;
    let mut second = run_set(opts, &backward, false)?;
    second.reverse();
    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        println!(
            "== {} : {} runs per set, failed {} / {}",
            a.workload,
            opts.runs,
            a.failed(),
            b.failed()
        );
        ok &= a.failed() == 0 && b.failed() == 0;
        println!(
            "  {:<16} {:>6} {:>16} {:>8} {:>16} {:>8} {:>9} {:>7}",
            "metric",
            "unit",
            "set 1 median",
            "iqr/med",
            "set 2 median",
            "iqr/med",
            "differ",
            "bound"
        );
        for m in spec::END_TO_END {
            let (va, vb) = (a.values(m.name), b.values(m.name));
            let (ma, mb) = (median(&va), median(&vb));
            // Either set may be the "parent": the gap over the smaller median.
            let differ = (ma - mb).abs() / ma.abs().min(mb.abs()).max(f64::MIN_POSITIVE);
            let bound = m.bound.unwrap_or(0.0);
            let within = differ <= bound;
            ok &= within;
            println!(
                "  {:<16} {:>6} {:>16.6} {:>7.2}% {:>16.6} {:>7.2}% {:>8.2}% {:>6.0}%{}",
                m.name,
                m.unit,
                ma,
                iqr_over_median(&va) * 100.0,
                mb,
                iqr_over_median(&vb) * 100.0,
                differ * 100.0,
                bound * 100.0,
                if within { "" } else { "  <-- beyond the bound" }
            );
        }
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            for ((name, x), (_, y)) in ra.exact.iter().zip(&rb.exact) {
                if x.to_bits() != y.to_bits() || ra.exact.len() != rb.exact.len() {
                    ok = false;
                    println!("  exact value {name} differs between the sets: {x} vs {y}");
                }
            }
        }
        let exact: Vec<String> = a.runs[0]
            .exact
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("  exact (seed {}): {}", opts.seed, exact.join(" "));
    }
    println!(
        "{}",
        if ok {
            "repeat: the two sets agree"
        } else {
            "repeat: the two sets DISAGREE"
        }
    );
    Ok(ok)
}
