//! The environment stamp printed with every result, the build-profile gate,
//! and the process's peak-RSS watermark.

use serde_json::{json, Value};

/// Why this build may not report numbers, or `None` when it may: it must be
/// an optimized `panic = "abort"` build whose `[profile.release]` equals the
/// repository root's (checked by `build.rs`).
pub fn profile_refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("not a --release build (debug assertions are on)".into());
    }
    if !cfg!(panic = "abort") {
        return Some("built without panic = \"abort\"".into());
    }
    if env!("UMON_BENCH_PROFILE_MATCHES_ROOT") != "true" {
        return Some(format!(
            "benchmark/Cargo.toml [profile.release] ({}) differs from the root Cargo.toml",
            env!("UMON_BENCH_PROFILE")
        ));
    }
    None
}

/// SIMD features detected at run time — what the batch kernel may select.
fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    for (name, detected) in [
        ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("avx512dq", std::arch::is_x86_feature_detected!("avx512dq")),
        ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
        ("avx512vl", std::arch::is_x86_feature_detected!("avx512vl")),
        (
            "avx512vbmi",
            std::arch::is_x86_feature_detected!("avx512vbmi"),
        ),
    ] {
        if detected {
            out.push(name);
        }
    }
    out
}

/// The machine-and-build context a number depends on. `run.sh` passes the
/// git commit through `UMON_BENCH_GIT_COMMIT` (the driver's checkout is not
/// a repository, so it may be `unknown`).
pub fn stamp(workload: &str, seed: u64, sizes: &str) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "nproc": nproc,
        "arch": std::env::consts::ARCH,
        "cpu_features": cpu_features().join(","),
        "batch_kernel": wavesketch::active_kernel().name(),
        "rustc": env!("UMON_BENCH_RUSTC"),
        "profile": env!("UMON_BENCH_PROFILE"),
        "git_commit": std::env::var("UMON_BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())
    })
}

/// Collapses the process-wide peak-RSS watermark to the current RSS, so the
/// measured phase reports its own peak and not set-up's. Best effort: where
/// `/proc/self/clear_refs` is missing the watermark keeps set-up's peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
