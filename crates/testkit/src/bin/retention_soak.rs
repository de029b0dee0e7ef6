//! Fixed-seed retention and crash-recovery smoke for CI and local debugging.
//!
//! Two stages per seed:
//!
//! 1. [`umon_testkit::retention_diff_run`] across all three workload kinds —
//!    the tier/archive differential contract (compaction and recovery are
//!    bit-invisible, eviction is exact forgetting, torn tails lose exactly
//!    the torn record).
//! 2. [`umon_testkit::retention_soak_run`] — `--periods` upload periods
//!    through a small bounded policy, asserting at every checkpoint that
//!    resident state honors the budget and queries stay bit-identical to an
//!    unbounded reference over the surviving periods.
//!
//! Plus one fixed-seed [`umon_testkit::cold_soak_run`] per invocation: a
//! bounded archive-backed analyzer whose checkpoints compare the *full*
//! history (hot + compacted + archived-cold read back from disk) against an
//! unbounded reference, bit-identically.
//!
//! Prints a repro command for every failure and exits nonzero if the
//! retention contract broke.

use std::time::Instant;

use umon::RetentionPolicy;
use umon_testkit::{
    cold_soak_run, retention_diff_run, retention_soak_run, RetentionDiffConfig, RetentionDiffStats,
    StreamKind,
};

fn usage() -> ! {
    eprintln!("usage: retention_soak [--seeds N] [--start S] [--periods P]");
    std::process::exit(2);
}

fn main() {
    let mut seeds = 4u64;
    let mut start = 0u64;
    let mut periods = 1000u64;
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
            "--periods" => periods = value("--periods"),
            _ => usage(),
        }
    }

    let scratch = std::env::temp_dir().join(format!("umon_retention_soak_{}", std::process::id()));
    let t0 = Instant::now();
    let mut runs = 0u64;
    let mut failures = 0u64;
    let mut totals = RetentionDiffStats::default();
    let mut soak_periods = 0u64;
    let mut soak_checks = 0usize;
    for seed in start..start.saturating_add(seeds) {
        for kind in StreamKind::ALL {
            match retention_diff_run(seed, &RetentionDiffConfig::quick(kind), &scratch) {
                Ok(stats) => {
                    totals.reports += stats.reports;
                    totals.compacted += stats.compacted;
                    totals.evicted += stats.evicted;
                    totals.recovered += stats.recovered;
                    totals.cold_reads += stats.cold_reads;
                    totals.backfilled += stats.backfilled;
                    totals.torn_tails.extend(stats.torn_tails);
                    totals.curves_compared += stats.curves_compared;
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL: {e}");
                    eprintln!(
                        "  repro: cargo run -p umon-testkit --bin retention_soak -- --seeds 1 --start {seed}"
                    );
                }
            }
            runs += 1;
        }
        let policy = RetentionPolicy::bounded(8, 32).with_cached_bytes(256 * 1024);
        match retention_soak_run(seed, periods, policy, 50) {
            Ok(stats) => {
                soak_periods += stats.periods;
                soak_checks += stats.curves_compared;
            }
            Err(e) => {
                failures += 1;
                eprintln!("FAIL: {e}");
                eprintln!(
                    "  repro: cargo run -p umon-testkit --bin retention_soak -- --seeds 1 --start {seed} --periods {periods}"
                );
            }
        }
        runs += 1;
    }
    // One fixed-seed cold soak per invocation: the checkpoints query the
    // full archived history, so its cost grows with --periods; a quarter of
    // the hot soak's length keeps the wall clock comparable.
    let cold_periods = (periods / 4).clamp(50, 250);
    let cold_policy = RetentionPolicy::bounded(8, 32).with_cold_cache_bytes(256 * 1024);
    match cold_soak_run(start, cold_periods, cold_policy, 50, &scratch) {
        Ok(stats) => {
            soak_periods += stats.periods;
            soak_checks += stats.curves_compared;
        }
        Err(e) => {
            failures += 1;
            eprintln!("FAIL: {e}");
            eprintln!(
                "  repro: cargo run -p umon-testkit --bin retention_soak -- --seeds 1 --start {start} --periods {periods}"
            );
        }
    }
    runs += 1;
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "retention_soak: {runs} runs ({seeds} seeds x {} workloads + soak), {failures} failures in {:.2?}",
        StreamKind::ALL.len(),
        t0.elapsed()
    );
    println!(
        "  coverage: {} reports, {} compacted, {} evicted, {} recovered, {} cold reads, {} backfilled, {} curve comparisons; soak {} periods, {} checkpoint comparisons",
        totals.reports,
        totals.compacted,
        totals.evicted,
        totals.recovered,
        totals.cold_reads,
        totals.backfilled,
        totals.curves_compared,
        soak_periods,
        soak_checks
    );
    // The tears are the differential's own injections; what recovery found
    // comes back in its stats, and this binary — not the library — says so.
    if let Some(last) = totals.torn_tails.last() {
        println!(
            "  torn tails: {} injected and reported, {} records lost to them (last: {last})",
            totals.torn_tails.len(),
            totals
                .torn_tails
                .iter()
                .map(|t| t.lost_records)
                .sum::<u64>()
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
