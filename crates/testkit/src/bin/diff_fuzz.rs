//! Fixed-seed differential fuzzer for CI and local debugging.
//!
//! Runs [`umon_testkit::diff_run`] for `--seeds` consecutive seeds starting
//! at `--start`, each across the three [`StreamKind::ALL`] workload kinds —
//! or, with `--adversarial`, across [`StreamKind::ADVERSARIAL`] (incast,
//! allreduce and the paced shape whose full, tie-laden stores put the
//! oracle's optimal-k-term-error check in front of the selector's
//! tie-break). Prints a repro command for every failure and exits nonzero
//! if any invariant broke.
//!
//! `UMON_DIFF_BATCH=<burst>` routes the Basic/Full/HW variants through
//! `update_batch` in bursts of that size so the oracle pins whichever path
//! `update_batch` selects on this CPU — the staged AVX-512 pipeline, or the
//! per-record loop the default run already sweeps. The banner names it.

use std::time::Instant;

use umon_testkit::{batch_burst_from_env, diff_run, DiffConfig, DiffStats, StreamKind};

fn usage() -> ! {
    eprintln!("usage: diff_fuzz [--seeds N] [--start S] [--adversarial]");
    std::process::exit(2);
}

fn main() {
    let mut seeds = 32u64;
    let mut start = 0u64;
    let mut adversarial = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric argument");
                usage()
            })
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds"),
            "--start" => start = value("--start"),
            "--adversarial" => adversarial = true,
            _ => usage(),
        }
    }

    let (kinds, repro_flag): (&[StreamKind], &str) = if adversarial {
        (&StreamKind::ADVERSARIAL, " --adversarial")
    } else {
        (&StreamKind::ALL, "")
    };
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    match batch_burst_from_env() {
        Some(burst) => println!(
            "diff_fuzz: workloads [{}], update_batch ingest path, burst {burst}, kernel {}",
            names.join(", "),
            wavesketch::active_kernel().name()
        ),
        None => println!(
            "diff_fuzz: workloads [{}], per-record ingest path",
            names.join(", ")
        ),
    }

    let t0 = Instant::now();
    let mut runs = 0u64;
    let mut failures = 0u64;
    let mut totals = DiffStats::default();
    for seed in start..start.saturating_add(seeds) {
        for &kind in kinds {
            match diff_run(seed, &DiffConfig::quick(kind)) {
                Ok(stats) => {
                    totals.updates += stats.updates;
                    totals.light_epochs += stats.light_epochs;
                    totals.flow_epochs += stats.flow_epochs;
                    totals.queries += stats.queries;
                    totals.drains_compared += stats.drains_compared;
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL: {e}");
                    eprintln!(
                        "  repro: cargo run -p umon-testkit --bin diff_fuzz -- --seeds 1 --start {seed}{repro_flag}"
                    );
                }
            }
            runs += 1;
        }
    }
    println!(
        "diff_fuzz: {runs} runs ({seeds} seeds x {} workloads), {failures} failures in {:.2?}",
        kinds.len(),
        t0.elapsed()
    );
    println!(
        "  coverage: {} updates, {} light epochs, {} flow epochs, {} queries, {} drain comparisons",
        totals.updates,
        totals.light_epochs,
        totals.flow_epochs,
        totals.queries,
        totals.drains_compared
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
