//! `umon-pipeline-bench`: see `benchmark/README.md`. Normally started by
//! `benchmark/run.sh`, which builds it first.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints the contract's JSON result as the last line.
//! * Without `--workload` it runs every workload, each run in a child
//!   process of its own (a fresh peak-RSS watermark), and prints every
//!   metric with its median and min/max over the runs.
//! * `--repeat` runs two such sets and fails when they disagree.

use std::path::PathBuf;
use std::process::ExitCode;
use umon_pipeline_bench::orchestrate::{self, SetOptions};
use umon_pipeline_bench::run::{print_outcome, run_workload, RunArgs};
use umon_pipeline_bench::{env, spec};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
[--quick] [--runs N] [--repeat] [--out DIR]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: Option<usize>,
    repeat: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        runs: None,
        repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if spec::workload(&w).is_none() {
                    return Err(format!("unknown workload {w}"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--runs" => {
                let n: usize = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                cli.runs = Some(n.max(1));
            }
            "--out" => cli.out_dir = PathBuf::from(value("--out")?),
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            "--repeat" => cli.repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = env::profile_refusal() {
        eprintln!("error: refusing to report: {why}");
        return ExitCode::from(2);
    }
    if let Some(workload) = cli
        .workload
        .clone()
        .filter(|_| !cli.repeat && cli.runs.is_none())
    {
        let run = RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
            out_dir: cli.out_dir,
        };
        return match run_workload(&run) {
            Ok(outcome) => {
                print_outcome(&run, &outcome);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = SetOptions {
        only: cli.workload,
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
        runs: cli.runs.unwrap_or(if cli.quick { 1 } else { 3 }),
        trace: cli.trace,
        out_dir: cli.out_dir,
    };
    let ok = if cli.repeat {
        orchestrate::repeat(&opts)
    } else {
        orchestrate::run_all(&opts)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
