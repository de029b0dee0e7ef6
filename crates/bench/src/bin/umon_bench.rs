//! The repo's reproducible perf gate: fixed-seed core-update and netsim
//! workloads, emitting `BENCH_core.json` / `BENCH_netsim.json` at the repo
//! root and checking fresh runs against those committed baselines.
//!
//! Modes:
//!
//! * `--record [--as-baseline NAME]` — run the full workloads and update the
//!   BENCH files. Without `--as-baseline`, the measurement lands in the
//!   `current` section (and the speedup vs. `baseline` is recomputed); with
//!   it, the measurement is stored under the named section (`baseline` /
//!   `baseline_lto`) instead, which is how the pre-refactor numbers were
//!   pinned before the hot paths changed. `--only core --as-baseline
//!   paced_reference` measures just the window-advancing point into
//!   `paced.reference` — run it on the parent of a change to that path.
//! * `--smoke` — run shortened workloads, verify every committed metric
//!   exists and is finite, and print a one-line delta per file. The
//!   regression check is *soft*: a slowdown prints a warning but only
//!   missing or non-finite metrics fail the gate (CI machines are shared;
//!   wall-clock noise must not turn the gate red).
//!
//! All workloads are seeded and deterministic; wall time is the only
//! nondeterministic output. Each measurement is the minimum over `REPS`
//! repetitions, which is the standard way to strip scheduler noise from a
//! throughput figure.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;
use umon::switch_agent::MirroredPacket;
use umon::{Analyzer, HostAgent, HostAgentConfig, QueryScratch, RetentionPolicy};
use umon_bench::frontier;
use umon_netsim::{
    run_parallel, CongestionControl, FlowId, FlowSpec, SimConfig, Simulator, Topology,
};
use umon_workloads::{WorkloadKind, WorkloadParams};
use wavesketch::{BasicWaveSketch, FlowKey, FullWaveSketch, SketchConfig};

const CORE_UPDATES_FULL_RUN: u64 = 4_000_000;
const CORE_UPDATES_SMOKE: u64 = 400_000;
const CORE_FLOWS: u64 = 512;
const CORE_SEED: u64 = 0xBE9C;
/// Wide-sketch batch point: a deployment-scale config (see `wide_config`)
/// with enough distinct flows that the touched buckets span the whole
/// arena instead of staying cache-resident.
const WIDE_WIDTH: usize = 16_384;
const WIDE_HEAVY_ROWS: usize = 4_096;
const WIDE_FLOWS: u64 = 100_000;
/// Window-advancing point (the pipeline benchmark's `host_paced` shape):
/// every flow sends one equal-sized packet per fixed gap at a seeded phase,
/// so nearly every packet closes a window and the light part runs its
/// transform + selection path instead of the same-window accumulate. The
/// gap is 19.5 windows of 8.192 µs — not a whole number, so a bucket's
/// series drifts against the window grid instead of repeating exactly —
/// and 200 rounds (3 907 windows) stay inside one 4096-window epoch.
const PACED_FLOWS: u64 = 2_000;
const PACED_GAP_NS: u64 = 160_000;
const PACED_ROUNDS: u64 = 200;
const PACED_PKT_BYTES: i64 = 1_000;
const PACED_BURST: usize = 32;
const NETSIM_SEED: u64 = 1;
const REPS: usize = 5;
/// Scaling-surface knobs: arrival window + simulated horizon per fat-tree
/// arity, sized so a point stays in seconds even at k=16 (1024 hosts), and
/// fewer reps than [`REPS`] because each rep is long enough to be stable.
const SCALING_REPS: usize = 3;
const SCALING_K4_DURATION_NS: u64 = 2_000_000;
const SCALING_K4_END_NS: u64 = 3_000_000;
const SCALING_K8_DURATION_NS: u64 = 1_000_000;
const SCALING_K8_END_NS: u64 = 2_000_000;
const SCALING_K16_DURATION_NS: u64 = 250_000;
const SCALING_K16_END_NS: u64 = 1_000_000;

const ANALYZER_SEED: u64 = 0xA11A;
const ANALYZER_HOSTS: usize = 8;
const ANALYZER_FLOWS: u64 = 64;
const ANALYZER_WINDOWS: u64 = 4096;
const ANALYZER_WINDOWS_PER_PERIOD: u64 = 256;
const ANALYZER_MIRRORS: usize = 20_000;
const ANALYZER_SWEEPS_FULL_RUN: usize = 20;
const ANALYZER_SWEEPS_SMOKE: usize = 3;

#[derive(Debug, Serialize, Deserialize, Clone)]
struct CoreMeasure {
    ns_per_update_full: f64,
    ns_per_update_basic: f64,
    updates_per_sec_full: f64,
    peak_rss_kb: u64,
    notes: String,
}

/// One batch-size point of the batch-ingest sweep.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct BatchSweepPoint {
    batch_size: u64,
    ns_per_update: f64,
    updates_per_sec: f64,
    speedup_vs_scalar: f64,
}

/// The batch-ingest section of `BENCH_core.json`: the same full-sketch
/// workload fed through `update_batch` in fixed-size bursts, compared
/// against the scalar `ns_per_update_full` measured *in the same run* (so
/// the ratio is machine- and build-honest).
#[derive(Debug, Serialize, Deserialize, Clone)]
struct BatchBench {
    kernel: String,
    scalar_ns_per_update: f64,
    sweep: Vec<BatchSweepPoint>,
    best_ns_per_update: f64,
    best_speedup_vs_scalar: f64,
    /// The same sweep on a deployment-scale sketch (`wide_config`), where
    /// the bucket arrays exceed cache and header loads dominate the scalar
    /// path — the regime batch ingest exists for. Scalar is re-measured
    /// fresh on this config in the same run.
    wide: Option<BatchWideBench>,
    notes: String,
}

/// Batch-vs-scalar on the wide (cache-busting) configuration.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct BatchWideBench {
    width: u64,
    heavy_rows: u64,
    flows: u64,
    scalar_ns_per_update: f64,
    sweep: Vec<BatchSweepPoint>,
    best_ns_per_update: f64,
    best_speedup_vs_scalar: f64,
}

/// One measurement of the window-advancing point.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct PacedMeasure {
    ns_per_update: f64,
    notes: String,
}

/// The `paced` section of `BENCH_core.json`: the paper-default sketch fed
/// the `host_paced` shape through `FullWaveSketch::update_batch`.
/// `reference` is the last measurement taken with
/// `--as-baseline paced_reference` (the parent of a change to this path),
/// `current` the last plain `--record`.
#[derive(Debug, Serialize, Deserialize, Clone, Default)]
struct PacedBench {
    flows: u64,
    gap_ns: u64,
    updates: u64,
    batch_size: u64,
    reference: Option<PacedMeasure>,
    current: Option<PacedMeasure>,
    speedup_vs_reference: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct CoreBench {
    schema: u32,
    updates: u64,
    flows: u64,
    seed: u64,
    baseline: Option<CoreMeasure>,
    baseline_lto: Option<CoreMeasure>,
    current: Option<CoreMeasure>,
    batch: Option<BatchBench>,
    paced: Option<PacedBench>,
    speedup_vs_baseline: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct NetsimMeasure {
    wall_ns: u64,
    events: u64,
    events_per_sec: f64,
    peak_rss_kb: u64,
    notes: String,
}

/// One point of the parallel-scaling surface: a Hadoop-mix cluster workload
/// on a `k`-ary fat-tree run through `run_parallel` with `partitions`
/// threads. `peak_rss_kb` is per-point (the watermark is reset before each
/// measurement, see [`reset_peak_rss`]) and `speedup_vs_single_thread`
/// compares against the `partitions == 1` point of the same `k` in the same
/// run.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct NetsimScalingPoint {
    k: u64,
    flows: u64,
    partitions: u64,
    wall_ns: u64,
    events: u64,
    events_per_sec: f64,
    peak_rss_kb: u64,
    speedup_vs_single_thread: f64,
}

/// The `scaling` section of `BENCH_netsim.json`: the k=4 single-thread
/// reference point measured in the same run (so cross-k comparisons are
/// machine-honest), then the (k, partitions) surface.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct NetsimScaling {
    baseline_k4_single_thread: NetsimScalingPoint,
    points: Vec<NetsimScalingPoint>,
    notes: String,
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct NetsimBench {
    schema: u32,
    workload: String,
    seed: u64,
    baseline: Option<NetsimMeasure>,
    current: Option<NetsimMeasure>,
    scaling: Option<NetsimScaling>,
    speedup_vs_baseline: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct AnalyzerMeasure {
    queries_per_sec: f64,
    us_per_query: f64,
    queries_per_sweep: u64,
    peak_rss_kb: u64,
    notes: String,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct RetentionMeasure {
    hot_queries_per_sec: f64,
    compacted_queries_per_sec: f64,
    compacted_slowdown: f64,
    bytes_per_retained_period: f64,
    resident_periods: u64,
    notes: String,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct ColdMeasure {
    hot_queries_per_sec: f64,
    compacted_queries_per_sec: f64,
    cold_queries_per_sec: f64,
    cold_slowdown: f64,
    segment_cache_hit_rate: f64,
    cold_bytes_read: u64,
    archived_periods: u64,
    notes: String,
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct AnalyzerBench {
    schema: u32,
    workload: String,
    seed: u64,
    baseline: Option<AnalyzerMeasure>,
    current: Option<AnalyzerMeasure>,
    retention: Option<RetentionMeasure>,
    cold: Option<ColdMeasure>,
    speedup_vs_baseline: Option<f64>,
}

/// The machine-and-build context every recorded measurement depends on:
/// runtime-detected SIMD features, compile-time `target_feature` flags (i.e.
/// the effective `target-cpu` configuration) and the batch kernel the run
/// selected. Recorded into the `notes` of every BENCH file so a number can
/// be traced to the hardware and codegen that produced it.
fn cpu_notes() -> String {
    let mut runtime: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, detected) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("avx512dq", std::arch::is_x86_feature_detected!("avx512dq")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
            ("avx512vl", std::arch::is_x86_feature_detected!("avx512vl")),
        ] {
            if detected {
                runtime.push(name);
            }
        }
    }
    let compiled: Vec<&str> = vec![
        #[cfg(target_feature = "sse4.2")]
        "sse4.2",
        #[cfg(target_feature = "avx2")]
        "avx2",
        #[cfg(target_feature = "avx512f")]
        "avx512f",
        #[cfg(target_feature = "avx512dq")]
        "avx512dq",
    ];
    format!(
        "cpu: arch={} runtime[{}] target-cpu-features[{}] batch_kernel={}",
        std::env::consts::ARCH,
        runtime.join(","),
        if compiled.is_empty() {
            "baseline".to_string()
        } else {
            compiled.join(",")
        },
        wavesketch::active_kernel().name()
    )
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) down to the *current*
/// RSS by writing `5` to `/proc/self/clear_refs`. The watermark is
/// process-wide, so without this every netsim figure inherits whatever the
/// core and analyzer benches allocated earlier in the same invocation — the
/// 128.6 → 198.4 MB "regression" a past BENCH_netsim.json showed was
/// exactly that pollution (core's wide-sketch sweep ran first), not a
/// simulator change. Best-effort: kernels without `clear_refs` support
/// leave the watermark unchanged.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, from `/proc/self/status` (kB).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Fixed-seed sketch workload: `n` updates over `flows` flows with a slowly
/// advancing window, bounded below `max_windows` so the measurement stays in
/// the steady state (no epoch rollovers — those are per-epoch, not per
/// packet). Mirrors `benches/wavesketch_update.rs`.
fn core_stream(n: u64, flows: u64, seed: u64) -> Vec<(FlowKey, u64, i64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut window = 0u64;
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                window = (window + 1).min(4000);
            }
            (
                FlowKey::from_id(rng.gen_range(0..flows)),
                window,
                rng.gen_range(64..1500i64),
            )
        })
        .collect()
}

fn core_config() -> SketchConfig {
    SketchConfig::builder().build() // paper defaults: 3×256, L=8, K=64, 4096 windows
}

/// A deployment-scale sketch whose header/approx arrays (tens of MB) blow
/// past L2, so every scalar fold eats the random-access header-load latency
/// the batch pipeline exists to hide. Paper defaults otherwise.
fn wide_config() -> SketchConfig {
    SketchConfig::builder()
        .width(WIDE_WIDTH)
        .heavy_rows(WIDE_HEAVY_ROWS)
        .build()
}

/// Minimum-of-`REPS` wall time for `f`, freshly constructing state each rep.
fn time_min<F: FnMut() -> u64>(f: F) -> (u64, u64) {
    time_min_of(REPS, f)
}

/// Minimum-of-`reps` wall time for `f`; the scaling surface uses fewer reps
/// than [`REPS`] because each point is seconds, not milliseconds.
fn time_min_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut checksum = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        checksum = f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    (best, checksum)
}

fn bench_core(updates: u64) -> CoreMeasure {
    let stream = core_stream(updates, CORE_FLOWS, CORE_SEED);

    let (full_ns, full_sum) = time_min(|| {
        let mut sketch = FullWaveSketch::new(core_config());
        for (flow, window, value) in &stream {
            sketch.update(flow, *window, *value);
        }
        sketch.heavy_flows().len() as u64
    });
    let (basic_ns, basic_sum) = time_min(|| {
        let mut sketch = BasicWaveSketch::new(core_config());
        for (flow, window, value) in &stream {
            sketch.update(flow, *window, *value);
        }
        sketch.active_buckets() as u64
    });
    assert!(full_sum > 0 && basic_sum > 0, "workload touched nothing");

    let n = stream.len() as f64;
    CoreMeasure {
        ns_per_update_full: full_ns as f64 / n,
        ns_per_update_basic: basic_ns as f64 / n,
        updates_per_sec_full: n / (full_ns as f64 / 1e9),
        peak_rss_kb: peak_rss_kb(),
        notes: String::new(),
    }
}

/// The batch-ingest sweep: the scalar workload's records fed through
/// `FullWaveSketch::update_batch` in bursts of 8 / 32 / 256 records, each
/// point min-of-`REPS` on a fresh sketch. `scalar_ns` must come from the
/// same run's [`bench_core`] so the speedup compares like with like.
fn bench_batch(updates: u64, scalar_ns: f64) -> BatchBench {
    let stream = core_stream(updates, CORE_FLOWS, CORE_SEED);
    let sweep = batch_sweep(&stream, core_config, scalar_ns);
    let best = best_point(&sweep);
    BatchBench {
        kernel: wavesketch::active_kernel().name().to_string(),
        scalar_ns_per_update: scalar_ns,
        sweep,
        best_ns_per_update: best.ns_per_update,
        best_speedup_vs_scalar: best.speedup_vs_scalar,
        wide: None,
        notes: cpu_notes(),
    }
}

/// Runs the 8/32/256 burst sweep of `update_batch` over `stream` on fresh
/// sketches built by `config`, each point min-of-`REPS`.
fn batch_sweep(
    stream: &[(FlowKey, u64, i64)],
    config: fn() -> SketchConfig,
    scalar_ns: f64,
) -> Vec<BatchSweepPoint> {
    let n = stream.len() as f64;
    let mut sweep = Vec::new();
    for &batch_size in &[8usize, 32, 256] {
        let (ns, sum) = time_min(|| {
            let mut sketch = FullWaveSketch::new(config());
            for burst in stream.chunks(batch_size) {
                sketch.update_batch(burst);
            }
            sketch.heavy_flows().len() as u64
        });
        assert!(sum > 0, "batch workload touched nothing");
        let ns_per_update = ns as f64 / n;
        sweep.push(BatchSweepPoint {
            batch_size: batch_size as u64,
            ns_per_update,
            updates_per_sec: n / (ns as f64 / 1e9),
            speedup_vs_scalar: scalar_ns / ns_per_update,
        });
    }
    sweep
}

fn best_point(sweep: &[BatchSweepPoint]) -> BatchSweepPoint {
    sweep
        .iter()
        .cloned()
        .min_by(|a, b| a.ns_per_update.total_cmp(&b.ns_per_update))
        .expect("non-empty sweep")
}

/// The wide-config batch point: scalar re-measured fresh on the same config
/// and stream, then the burst sweep — so the speedup isolates exactly what
/// batching buys once the arena stops fitting in cache.
fn bench_batch_wide(updates: u64) -> BatchWideBench {
    let stream = core_stream(updates, WIDE_FLOWS, CORE_SEED);
    let (scalar_total_ns, scalar_sum) = time_min(|| {
        let mut sketch = FullWaveSketch::new(wide_config());
        for (flow, window, value) in &stream {
            sketch.update(flow, *window, *value);
        }
        sketch.heavy_flows().len() as u64
    });
    assert!(scalar_sum > 0, "wide scalar workload touched nothing");
    let scalar_ns = scalar_total_ns as f64 / stream.len() as f64;
    let sweep = batch_sweep(&stream, wide_config, scalar_ns);
    let best = best_point(&sweep);
    BatchWideBench {
        width: WIDE_WIDTH as u64,
        heavy_rows: WIDE_HEAVY_ROWS as u64,
        flows: WIDE_FLOWS,
        scalar_ns_per_update: scalar_ns,
        sweep,
        best_ns_per_update: best.ns_per_update,
        best_speedup_vs_scalar: best.speedup_vs_scalar,
    }
}

/// The paced stream: [`PACED_FLOWS`] flows, each sending one
/// [`PACED_PKT_BYTES`] packet every [`PACED_GAP_NS`] at a seeded phase,
/// [`PACED_ROUNDS`] times, in time order, on the default 8.192 µs window grid.
fn paced_stream() -> Vec<(FlowKey, u64, i64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(CORE_SEED);
    let mut phased: Vec<(u64, u64)> = (0..PACED_FLOWS)
        .map(|flow| (rng.gen_range(0..PACED_GAP_NS), flow))
        .collect();
    phased.sort_unstable();
    (0..PACED_ROUNDS)
        .flat_map(|r| {
            phased.iter().map(move |&(phase_ns, flow)| {
                (
                    FlowKey::from_id(flow),
                    wavesketch::window_of_ns(r * PACED_GAP_NS + phase_ns),
                    PACED_PKT_BYTES,
                )
            })
        })
        .collect()
}

/// ns/update of the paced stream through `update_batch` in
/// [`PACED_BURST`]-record bursts on a fresh paper-default sketch,
/// min-of-`REPS`. The same size for `--record` and `--smoke` (well under a
/// second): a shorter run would sit in the epoch's store-filling start and
/// measure a different regime.
fn bench_paced() -> PacedMeasure {
    let stream = paced_stream();
    let (ns, sum) = time_min(|| {
        let mut sketch = FullWaveSketch::new(core_config());
        for burst in stream.chunks(PACED_BURST) {
            sketch.update_batch(burst);
        }
        sketch.heavy_flows().len() as u64
    });
    assert!(sum > 0, "paced workload touched nothing");
    PacedMeasure {
        ns_per_update: ns as f64 / stream.len() as f64,
        notes: cpu_notes(),
    }
}

/// Heavy fan-in on a fat-tree k=4: 1024 flows starting 1 µs apart, every
/// host both sending and receiving. Keeps the event queue deep (thousands
/// of in-flight events) the way the paper's incast scenarios do, which is
/// the regime an event scheduler must handle well.
fn netsim_flows(n: u64) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec {
            id: FlowId(i),
            src: (i % 8) as usize,
            dst: ((i + 8) % 16) as usize,
            size_bytes: 50_000 + (i % 64) * 1000,
            start_ns: i * 1_000,
            cc: CongestionControl::Dcqcn,
        })
        .collect()
}

fn netsim_config(end_ns: u64) -> SimConfig {
    SimConfig {
        end_ns,
        clock_error_ns: 0,
        seed: NETSIM_SEED,
        ..SimConfig::default()
    }
}

fn bench_netsim(end_ns: u64) -> NetsimMeasure {
    reset_peak_rss();
    let mut events = 0u64;
    let (wall_ns, _) = time_min(|| {
        let topo = Topology::fat_tree(4, 100.0, 1000);
        let result = Simulator::new(topo, netsim_flows(1024), netsim_config(end_ns)).run();
        events = result.events_processed;
        result.events_processed
    });
    NetsimMeasure {
        wall_ns,
        events,
        events_per_sec: events as f64 / (wall_ns as f64 / 1e9),
        peak_rss_kb: peak_rss_kb(),
        notes: String::new(),
    }
}

/// Scaling-surface workload: Hadoop mix at 0.25 load on the k-ary fat-tree,
/// with the arrival window shortened from the paper's 20 ms so each
/// (k, partitions) point finishes in seconds. Deterministic in
/// [`NETSIM_SEED`].
fn scaling_flows(k: usize, duration_ns: u64) -> Vec<FlowSpec> {
    let mut params = WorkloadParams::cluster(WorkloadKind::Hadoop, 0.25, k, NETSIM_SEED);
    params.duration_ns = duration_ns;
    params.generate()
}

/// Measures one point of the scaling surface: min-of-[`SCALING_REPS`] wall
/// time for `run_parallel` on the k-ary fat-tree cluster workload. The RSS
/// watermark is reset first so `peak_rss_kb` is this point's own footprint.
fn bench_scaling_point(
    k: usize,
    partitions: usize,
    duration_ns: u64,
    end_ns: u64,
) -> NetsimScalingPoint {
    reset_peak_rss();
    let flows = scaling_flows(k, duration_ns);
    let num_flows = flows.len() as u64;
    let mut events = 0u64;
    let (wall_ns, _) = time_min_of(SCALING_REPS, || {
        let topo = Topology::fat_tree(k, 100.0, 1000);
        let result = run_parallel(topo, flows.clone(), netsim_config(end_ns), partitions)
            .expect("standard fat-trees have non-zero cut latency");
        events = result.events_processed;
        events
    });
    NetsimScalingPoint {
        k: k as u64,
        flows: num_flows,
        partitions: partitions as u64,
        wall_ns,
        events,
        events_per_sec: events as f64 / (wall_ns as f64 / 1e9),
        peak_rss_kb: peak_rss_kb(),
        speedup_vs_single_thread: 1.0, // filled in against the P=1 point
    }
}

/// The parallel-scaling surface: k=4 single-thread reference, then k=8 and
/// k=16 at 1/2/4 partitions. Every number comes from the same process and
/// machine, so the ratios are honest; the notes record how many hardware
/// threads the host actually had, because conservative-window parallelism
/// can only buy wall-clock on a multi-core host.
fn bench_scaling() -> NetsimScaling {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let baseline = bench_scaling_point(4, 1, SCALING_K4_DURATION_NS, SCALING_K4_END_NS);
    println!(
        "  scaling k=4  p=1: {:>10.0} events/sec ({} events, {} flows, {:.1} MB)",
        baseline.events_per_sec,
        baseline.events,
        baseline.flows,
        baseline.peak_rss_kb as f64 / 1024.0
    );
    let mut points = Vec::new();
    for &(k, duration_ns, end_ns) in &[
        (8usize, SCALING_K8_DURATION_NS, SCALING_K8_END_NS),
        (16, SCALING_K16_DURATION_NS, SCALING_K16_END_NS),
    ] {
        let mut single_thread_ev = f64::NAN;
        for &partitions in &[1usize, 2, 4] {
            let mut point = bench_scaling_point(k, partitions, duration_ns, end_ns);
            if partitions == 1 {
                single_thread_ev = point.events_per_sec;
            }
            point.speedup_vs_single_thread = point.events_per_sec / single_thread_ev;
            println!(
                "  scaling k={k:<2} p={partitions}: {:>10.0} events/sec ({} events, {} flows, \
                 {:.1} MB, {:.2}x vs p=1)",
                point.events_per_sec,
                point.events,
                point.flows,
                point.peak_rss_kb as f64 / 1024.0,
                point.speedup_vs_single_thread
            );
            points.push(point);
        }
    }
    NetsimScaling {
        baseline_k4_single_thread: baseline,
        points,
        notes: format!(
            "hadoop mix at 0.25 load, arrival windows {}/{}/{} us for k=4/8/16, \
             min of {SCALING_REPS} reps; host has {cores} hardware thread(s) — \
             conservative-window parallelism needs >= partitions cores for \
             wall-clock speedup, so on a 1-core host multi-partition points \
             measure synchronization overhead, not speedup; {}",
            SCALING_K4_DURATION_NS / 1000,
            SCALING_K8_DURATION_NS / 1000,
            SCALING_K16_DURATION_NS / 1000,
            cpu_notes()
        ),
    }
}

/// Analyzer host-agent configuration for the query workload: paper-shaped
/// rows/levels over a narrower array so collisions (and the subtraction
/// path) stay live, with a contested heavy part.
fn analyzer_config() -> HostAgentConfig {
    HostAgentConfig {
        sketch: SketchConfig::builder()
            .rows(3)
            .width(64)
            .levels(6)
            .topk(32)
            .max_windows(512)
            .heavy_rows(32)
            .build(),
        period_ns: ANALYZER_WINDOWS_PER_PERIOD << 13,
        window_shift: 13,
    }
}

/// Builds the seeded analyzer the query sweep runs against: 8 hosts × 16
/// upload periods of a skewed flow mix (heavy elections + light-only tails),
/// reports delivered in reverse period order to exercise the out-of-order
/// ingest path, plus a seeded mirror stream for the event-clustering
/// queries.
fn build_analyzer() -> Analyzer {
    build_analyzer_with(RetentionPolicy::UNBOUNDED)
}

fn build_analyzer_with(policy: RetentionPolicy) -> Analyzer {
    build_analyzer_inner(Analyzer::with_retention(
        analyzer_config().sketch.clone(),
        policy,
    ))
}

/// Same seeded workload, but archive-backed so evicted periods land in the
/// cold tier instead of being forgotten. Used by the `cold` bench section.
fn build_analyzer_archived(policy: RetentionPolicy, dir: &Path) -> Analyzer {
    let analyzer = Analyzer::with_archive(analyzer_config().sketch.clone(), policy, dir)
        .expect("open bench archive dir");
    build_analyzer_inner(analyzer)
}

fn build_analyzer_inner(mut analyzer: Analyzer) -> Analyzer {
    let cfg = analyzer_config();
    for host in 0..ANALYZER_HOSTS {
        let mut rng = ChaCha8Rng::seed_from_u64(
            ANALYZER_SEED ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut agent = HostAgent::new(host, cfg.clone());
        for w in 0..ANALYZER_WINDOWS {
            let n = rng.gen_range(0..=4u32);
            for _ in 0..n {
                let flow = if rng.gen_bool(0.5) {
                    rng.gen_range(0..ANALYZER_FLOWS / 8)
                } else {
                    rng.gen_range(0..ANALYZER_FLOWS)
                };
                agent.observe(flow, w << 13, rng.gen_range(64..9000u32));
            }
        }
        let mut reports = agent.finish();
        reports.reverse();
        analyzer.add_reports(reports);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(ANALYZER_SEED ^ 0x3141);
    let mirrors: Vec<MirroredPacket> = (0..ANALYZER_MIRRORS)
        .map(|_| MirroredPacket {
            switch: rng.gen_range(16..32usize),
            vlan: rng.gen_range(1..9u16),
            ts_ns: rng.gen_range(0..ANALYZER_WINDOWS << 13),
            flow: rng.gen_range(0..ANALYZER_FLOWS),
            psn: 0,
            wire_bytes: 1064,
            orig_bytes: 1000,
        })
        .collect();
    analyzer.add_mirrors(mirrors);
    analyzer
}

/// One query sweep: every (host, flow) rate curve, every host's aggregate
/// curve, and the congestion map. Returns (queries issued, checksum).
///
/// Runs through the scratch query API (`flow_curve_with`), as a query-heavy
/// analyzer deployment would; the pre-index baseline in BENCH_analyzer.json
/// ran the same sweep through the then-current allocating `flow_curve`.
fn query_sweep(analyzer: &Analyzer, scratch: &mut QueryScratch) -> (u64, u64) {
    let mut queries = 0u64;
    let mut checksum = 0u64;
    for host in 0..ANALYZER_HOSTS {
        for flow in 0..ANALYZER_FLOWS {
            if let Some(series) = analyzer.flow_curve_with(host, flow, scratch) {
                checksum = checksum.wrapping_add(series.values.len() as u64);
            }
            queries += 1;
        }
        if let Some(series) = analyzer.host_rate_curve_with(host, scratch) {
            checksum = checksum.wrapping_add(series.values.len() as u64);
        }
        queries += 1;
    }
    checksum = checksum.wrapping_add(analyzer.congestion_map(50_000).len() as u64);
    queries += 1;
    (queries, checksum)
}

fn bench_analyzer(sweeps: usize) -> AnalyzerMeasure {
    let analyzer = build_analyzer();
    let mut scratch = QueryScratch::new();
    let mut queries = 0u64;
    let (wall_ns, checksum) = time_min(|| {
        queries = 0;
        let mut checksum = 0u64;
        for _ in 0..sweeps {
            let (q, c) = query_sweep(&analyzer, &mut scratch);
            queries += q;
            checksum = checksum.wrapping_add(c);
        }
        checksum
    });
    assert!(checksum > 0, "query sweep reconstructed nothing");
    AnalyzerMeasure {
        queries_per_sec: queries as f64 / (wall_ns as f64 / 1e9),
        us_per_query: wall_ns as f64 / 1e3 / queries as f64,
        queries_per_sweep: queries / sweeps as u64,
        peak_rss_kb: peak_rss_kb(),
        notes: "ingest-time index + curves memoised on first read + QueryScratch".into(),
    }
}

/// The retention tiers' perf envelope: the same query sweep against a
/// fully-hot analyzer vs one whose periods are all compacted but the newest
/// (`hot_periods = 1`), plus the per-period resident footprint of the
/// compacted tier. The compacted sweep pays inverse-Haar
/// reconstruction per query — the explicit memory-for-throughput trade of
/// DESIGN.md §12 — so it runs fewer sweeps.
fn bench_retention(sweeps: usize, hot_queries_per_sec: f64) -> RetentionMeasure {
    let analyzer = build_analyzer_with(RetentionPolicy::bounded(1, u64::MAX));
    let mut scratch = QueryScratch::new();
    let mut queries = 0u64;
    let (wall_ns, checksum) = time_min(|| {
        queries = 0;
        let mut checksum = 0u64;
        for _ in 0..sweeps {
            let (q, c) = query_sweep(&analyzer, &mut scratch);
            queries += q;
            checksum = checksum.wrapping_add(c);
        }
        checksum
    });
    assert!(checksum > 0, "compacted query sweep reconstructed nothing");
    let res = analyzer.residency();
    assert!(
        res.hot_periods <= ANALYZER_HOSTS,
        "hot tier exceeds hot_periods=1 per host"
    );
    let compacted_queries_per_sec = queries as f64 / (wall_ns as f64 / 1e9);
    RetentionMeasure {
        hot_queries_per_sec,
        compacted_queries_per_sec,
        compacted_slowdown: hot_queries_per_sec / compacted_queries_per_sec,
        bytes_per_retained_period: res.resident_report_bytes as f64 / res.resident_periods as f64,
        resident_periods: res.resident_periods as u64,
        notes: "hot = unbounded sweep; compacted = hot_periods=1 on-demand inverse-Haar fallback"
            .into(),
    }
}

/// The cold tier's perf envelope, the bottom rung of the hot → compacted →
/// archived ladder (DESIGN.md §14): the same query sweep against an
/// archive-backed analyzer whose policy evicts all but the two newest
/// periods per host, so most of the sweep answers from the segment cache or
/// from disk. The cache is sized to hold the archived working set, so the
/// first sweep pays the disk reads and later sweeps measure cached cold
/// reads — the steady state of a query-heavy deployment.
fn bench_cold(
    sweeps: usize,
    hot_queries_per_sec: f64,
    compacted_queries_per_sec: f64,
) -> ColdMeasure {
    let dir = std::env::temp_dir().join(format!("umon_bench_cold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = RetentionPolicy::bounded(1, 2).with_cold_cache_bytes(64 << 20);
    let analyzer = build_analyzer_archived(policy, &dir);
    let mut scratch = QueryScratch::new();
    let mut queries = 0u64;
    let (wall_ns, checksum) = time_min(|| {
        queries = 0;
        let mut checksum = 0u64;
        for _ in 0..sweeps {
            let (q, c) = query_sweep(&analyzer, &mut scratch);
            queries += q;
            checksum = checksum.wrapping_add(c);
        }
        checksum
    });
    assert!(checksum > 0, "cold query sweep reconstructed nothing");
    let stats = analyzer.retention_stats();
    assert_eq!(
        stats.cold_read_errors, 0,
        "cold tier read errors during bench"
    );
    assert!(
        stats.cold_misses > 0,
        "cold bench never touched the archive"
    );
    let archived_periods: u64 = (0..ANALYZER_HOSTS)
        .map(|h| analyzer.host_coverage(h).archived.len() as u64)
        .sum();
    assert!(archived_periods > 0, "cold bench policy evicted nothing");
    let _ = std::fs::remove_dir_all(&dir);
    let lookups = stats.cold_hits + stats.cold_misses;
    let cold_queries_per_sec = queries as f64 / (wall_ns as f64 / 1e9);
    ColdMeasure {
        hot_queries_per_sec,
        compacted_queries_per_sec,
        cold_queries_per_sec,
        cold_slowdown: hot_queries_per_sec / cold_queries_per_sec,
        segment_cache_hit_rate: stats.cold_hits as f64 / lookups as f64,
        cold_bytes_read: stats.cold_bytes_read,
        archived_periods,
        notes: "resident=2 periods/host; archived rest answered via ColdStore segment cache".into(),
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load<T: Deserialize + Default>(path: &Path) -> T {
    match std::fs::read_to_string(path) {
        Ok(raw) => serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("unparseable {}: {e}", path.display())),
        Err(_) => T::default(),
    }
}

fn store<T: Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize bench file");
    std::fs::write(path, json + "\n").expect("write bench file");
}

/// Fails the gate if a required metric is missing or non-finite.
fn require_finite(file: &str, section: &str, name: &str, value: Option<f64>) -> f64 {
    match value {
        Some(v) if v.is_finite() && v > 0.0 => v,
        Some(v) => {
            eprintln!("FAIL {file}: {section}.{name} is not a positive finite number ({v})");
            std::process::exit(1);
        }
        None => {
            eprintln!("FAIL {file}: missing section {section} (metric {name})");
            std::process::exit(1);
        }
    }
}

/// True if `only` selects `section` (no `--only` flag selects everything).
fn selected(only: Option<&str>, section: &str) -> bool {
    match only {
        None => true,
        Some(o) => o == section,
    }
}

/// Measures the paced point and stores it as the section's `reference`
/// (`--as-baseline paced_reference`) or `current`.
fn record_paced(core_file: &mut CoreBench, as_reference: bool) {
    let measure = bench_paced();
    println!(
        "  paced ({} flows, one pkt per {} ns, burst {}): {:.1} ns/update",
        PACED_FLOWS, PACED_GAP_NS, PACED_BURST, measure.ns_per_update
    );
    let paced = core_file.paced.get_or_insert_default();
    paced.flows = PACED_FLOWS;
    paced.gap_ns = PACED_GAP_NS;
    paced.updates = PACED_FLOWS * PACED_ROUNDS;
    paced.batch_size = PACED_BURST as u64;
    if as_reference {
        paced.reference = Some(measure);
    } else {
        paced.current = Some(measure);
    }
    if let (Some(r), Some(c)) = (&paced.reference, &paced.current) {
        paced.speedup_vs_reference = Some(r.ns_per_update / c.ns_per_update);
    }
}

fn record_core(root: &Path, as_baseline: Option<&str>) {
    let core_path = root.join("BENCH_core.json");
    if as_baseline == Some("paced_reference") {
        let mut core_file: CoreBench = load(&core_path);
        record_paced(&mut core_file, true);
        store(&core_path, &core_file);
        println!("wrote {}", core_path.display());
        return;
    }
    println!(
        "core: {} updates x {} reps ...",
        CORE_UPDATES_FULL_RUN, REPS
    );
    let mut core = bench_core(CORE_UPDATES_FULL_RUN);
    core.notes = cpu_notes();
    println!(
        "  full {:.1} ns/update, basic {:.1} ns/update",
        core.ns_per_update_full, core.ns_per_update_basic
    );
    let batch = if as_baseline.is_none() {
        let mut b = bench_batch(CORE_UPDATES_FULL_RUN, core.ns_per_update_full);
        for p in &b.sweep {
            println!(
                "  batch[{:>3}] {:.1} ns/update ({:.2}x vs scalar)",
                p.batch_size, p.ns_per_update, p.speedup_vs_scalar
            );
        }
        println!(
            "  batch best {:.1} ns/update, {:.2}x vs scalar, kernel {}",
            b.best_ns_per_update, b.best_speedup_vs_scalar, b.kernel
        );
        let wide = bench_batch_wide(CORE_UPDATES_FULL_RUN);
        println!(
            "  wide ({}x{} light, {} heavy, {} flows): scalar {:.1} ns/update",
            3, wide.width, wide.heavy_rows, wide.flows, wide.scalar_ns_per_update
        );
        for p in &wide.sweep {
            println!(
                "  wide batch[{:>3}] {:.1} ns/update ({:.2}x vs scalar)",
                p.batch_size, p.ns_per_update, p.speedup_vs_scalar
            );
        }
        b.wide = Some(wide);
        Some(b)
    } else {
        None
    };
    let mut core_file: CoreBench = load(&core_path);
    core_file.schema = 1;
    core_file.updates = CORE_UPDATES_FULL_RUN;
    core_file.flows = CORE_FLOWS;
    core_file.seed = CORE_SEED;
    match as_baseline {
        Some("baseline") => core_file.baseline = Some(core),
        Some("baseline_lto") => core_file.baseline_lto = Some(core),
        Some(_) => unreachable!("validated in record()"),
        None => core_file.current = Some(core),
    }
    if let Some(b) = batch {
        core_file.batch = Some(b);
        record_paced(&mut core_file, false);
    }
    if let (Some(b), Some(c)) = (&core_file.baseline, &core_file.current) {
        core_file.speedup_vs_baseline = Some(b.ns_per_update_full / c.ns_per_update_full);
    }
    store(&core_path, &core_file);
    println!("wrote {}", core_path.display());
}

fn record_netsim(root: &Path, as_baseline: Option<&str>) {
    let netsim_path = root.join("BENCH_netsim.json");
    println!(
        "netsim: fat-tree k=4, 1024 DCQCN flows, 10 ms x {} reps ...",
        REPS
    );
    let mut netsim_file: NetsimBench = load(&netsim_path);
    netsim_file.schema = 2;
    netsim_file.workload = "fat_tree_k4_1024flows_dcqcn_10ms".to_string();
    netsim_file.seed = NETSIM_SEED;
    let measure = || {
        let mut m = bench_netsim(10_000_000);
        m.notes = cpu_notes();
        println!("  {:.0} events/sec ({} events)", m.events_per_sec, m.events);
        m
    };
    match as_baseline {
        Some("baseline") => netsim_file.baseline = Some(measure()),
        Some("baseline_lto") => {} // netsim records no profile baseline
        Some(_) => unreachable!("validated in record()"),
        None => {
            netsim_file.current = Some(measure());
            println!(
                "netsim scaling: hadoop cluster workloads, k=4/8/16 x 1/2/4 partitions \
                 x {SCALING_REPS} reps ..."
            );
            netsim_file.scaling = Some(bench_scaling());
        }
    }
    if let (Some(b), Some(c)) = (&netsim_file.baseline, &netsim_file.current) {
        netsim_file.speedup_vs_baseline = Some(c.events_per_sec / b.events_per_sec);
    }
    store(&netsim_path, &netsim_file);
    println!("wrote {}", netsim_path.display());
}

fn record_analyzer(root: &Path, as_baseline: Option<&str>) {
    let analyzer_path = root.join("BENCH_analyzer.json");
    println!(
        "analyzer: {} hosts x {} flows, {} sweeps x {} reps ...",
        ANALYZER_HOSTS, ANALYZER_FLOWS, ANALYZER_SWEEPS_FULL_RUN, REPS
    );
    let mut analyzer = bench_analyzer(ANALYZER_SWEEPS_FULL_RUN);
    analyzer.notes = format!("{}; {}", analyzer.notes, cpu_notes());
    println!(
        "  {:.0} queries/sec ({:.1} us/query)",
        analyzer.queries_per_sec, analyzer.us_per_query
    );
    let (retention, cold) = if as_baseline.is_none() {
        println!(
            "analyzer retention: compacted sweep ({} sweeps x {} reps) ...",
            ANALYZER_SWEEPS_SMOKE, REPS
        );
        let r = bench_retention(ANALYZER_SWEEPS_SMOKE, analyzer.queries_per_sec);
        println!(
            "  hot {:.0} q/s, compacted {:.0} q/s ({:.1}x slower), {:.0} bytes/retained period over {} periods",
            r.hot_queries_per_sec,
            r.compacted_queries_per_sec,
            r.compacted_slowdown,
            r.bytes_per_retained_period,
            r.resident_periods
        );
        println!(
            "analyzer cold: archived sweep ({} sweeps x {} reps) ...",
            ANALYZER_SWEEPS_SMOKE, REPS
        );
        let c = bench_cold(
            ANALYZER_SWEEPS_SMOKE,
            analyzer.queries_per_sec,
            r.compacted_queries_per_sec,
        );
        println!(
            "  cold {:.0} q/s ({:.1}x below hot), cache hit rate {:.3}, {} archived periods, {} bytes read",
            c.cold_queries_per_sec,
            c.cold_slowdown,
            c.segment_cache_hit_rate,
            c.archived_periods,
            c.cold_bytes_read
        );
        (Some(r), Some(c))
    } else {
        (None, None)
    };
    let mut analyzer_file: AnalyzerBench = load(&analyzer_path);
    analyzer_file.schema = 1;
    analyzer_file.workload = format!(
        "{}hosts_{}flows_{}periods_query_sweep",
        ANALYZER_HOSTS,
        ANALYZER_FLOWS,
        ANALYZER_WINDOWS / ANALYZER_WINDOWS_PER_PERIOD
    );
    analyzer_file.seed = ANALYZER_SEED;
    match as_baseline {
        Some("baseline") => analyzer_file.baseline = Some(analyzer),
        Some("baseline_lto") => {}
        Some(_) => unreachable!("validated in record()"),
        None => analyzer_file.current = Some(analyzer),
    }
    if let Some(r) = retention {
        analyzer_file.retention = Some(r);
    }
    if let Some(c) = cold {
        analyzer_file.cold = Some(c);
    }
    if let (Some(b), Some(c)) = (&analyzer_file.baseline, &analyzer_file.current) {
        analyzer_file.speedup_vs_baseline = Some(c.queries_per_sec / b.queries_per_sec);
    }
    store(&analyzer_path, &analyzer_file);
    println!("wrote {}", analyzer_path.display());
}

/// Records the memory–accuracy frontier: one `results/frontier_*.json` per
/// matrix scenario. Deterministic end to end (seeded scenarios, seeded sim,
/// no wall clock), so reruns are byte-identical. Only runs under
/// `--only frontier` — the accuracy sweep is a different gate from the
/// wall-clock BENCH files and must not piggyback on a plain `--record`.
fn record_frontier(root: &Path) {
    let results_dir = root.join("results");
    std::fs::create_dir_all(&results_dir).expect("create results dir");
    println!(
        "frontier: scenario matrix x {} budgets x {} schemes ...",
        frontier::budgets(false).len(),
        frontier::SCHEMES.len()
    );
    for f in frontier::sweep(false) {
        frontier::validate_frontier(&f).unwrap_or_else(|e| {
            eprintln!("FAIL frontier sweep produced an invalid point: {e}");
            std::process::exit(1);
        });
        let path = results_dir.join(format!("frontier_{}.json", f.scenario));
        store(&path, &f);
        let last = f.budgets.last().expect("validated non-empty");
        let ws = last
            .schemes
            .iter()
            .find(|p| p.scheme == "wavesketch")
            .expect("validated scheme set");
        println!(
            "  {:<16} {} flows, {} records: wavesketch@{}k nmse={:.4} recall={:.3} f1={:.3}",
            f.scenario,
            f.injected_flows,
            f.tx_records,
            last.budget_bytes / 1024,
            ws.nmse,
            ws.burst_recall,
            ws.heavy_hitter_f1
        );
        println!("wrote {}", path.display());
    }
}

/// The frontier CI gate: committed `results/frontier_*.json` files must
/// exist for every matrix scenario with finite in-range metrics, and a
/// fresh shrunken sweep (2 scenarios x 2 tiny budgets) must also produce
/// finite in-range metrics. No wall-clock thresholds — accuracy metrics
/// are deterministic, so any drift is a real change, but the gate only
/// *fails* on missing or invalid numbers.
fn smoke_frontier() {
    let root = repo_root();
    for scenario in [
        "incast_dcqcn",
        "incast_dctcp",
        "allreduce_dcqcn",
        "allreduce_dctcp",
        "pfc_storm",
        "link_flap",
    ] {
        let path = root
            .join("results")
            .join(format!("frontier_{scenario}.json"));
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "FAIL missing committed frontier file {}: {e}",
                path.display()
            );
            std::process::exit(1);
        });
        let f: frontier::ScenarioFrontier = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("unparseable {}: {e}", path.display()));
        if let Err(e) = frontier::validate_frontier(&f) {
            eprintln!("FAIL {}: {e}", path.display());
            std::process::exit(1);
        }
        if f.scenario != scenario {
            eprintln!("FAIL {}: names scenario {}", path.display(), f.scenario);
            std::process::exit(1);
        }
        println!(
            "frontier_{scenario}.json: {} budgets x {} schemes OK",
            f.budgets.len(),
            frontier::SCHEMES.len()
        );
    }
    println!(
        "frontier fresh smoke: {:?} x {:?} bytes ...",
        frontier::SMOKE_SCENARIOS,
        frontier::budgets(true)
    );
    for f in frontier::sweep(true) {
        if let Err(e) = frontier::validate_frontier(&f) {
            eprintln!("FAIL fresh frontier sweep: {e}");
            std::process::exit(1);
        }
        println!(
            "  {} fresh: {} flows scored, all metrics finite",
            f.scenario, f.budgets[0].schemes[0].flows
        );
    }
    println!("frontier gate OK");
}

fn record(as_baseline: Option<&str>, only: Option<&str>) {
    if let Some(name) = as_baseline {
        assert!(
            matches!(name, "baseline" | "baseline_lto" | "paced_reference"),
            "unknown baseline section {name}"
        );
        assert!(
            name != "paced_reference" || only == Some("core"),
            "--as-baseline paced_reference needs --only core"
        );
    }
    if let Some(section) = only {
        assert!(
            matches!(section, "core" | "netsim" | "analyzer" | "frontier"),
            "unknown --only section {section} (want core|netsim|analyzer|frontier)"
        );
    }
    let root = repo_root();
    // The frontier only runs when explicitly selected; see record_frontier.
    if only == Some("frontier") {
        record_frontier(&root);
        return;
    }
    if selected(only, "core") {
        record_core(&root, as_baseline);
    }
    if selected(only, "netsim") {
        record_netsim(&root, as_baseline);
    }
    if selected(only, "analyzer") {
        record_analyzer(&root, as_baseline);
    }
}

fn smoke() {
    let root = repo_root();
    let core_file: CoreBench = load(&root.join("BENCH_core.json"));
    let netsim_file: NetsimBench = load(&root.join("BENCH_netsim.json"));
    let analyzer_file: AnalyzerBench = load(&root.join("BENCH_analyzer.json"));

    // Committed metrics must exist and be finite.
    let committed_core = require_finite(
        "BENCH_core.json",
        "current",
        "ns_per_update_full",
        core_file.current.as_ref().map(|c| c.ns_per_update_full),
    );
    require_finite(
        "BENCH_core.json",
        "baseline",
        "ns_per_update_full",
        core_file.baseline.as_ref().map(|c| c.ns_per_update_full),
    );
    require_finite(
        "BENCH_core.json",
        "speedup",
        "speedup_vs_baseline",
        core_file.speedup_vs_baseline,
    );
    let committed_batch = require_finite(
        "BENCH_core.json",
        "batch",
        "best_ns_per_update",
        core_file.batch.as_ref().map(|b| b.best_ns_per_update),
    );
    let committed_batch_speedup = require_finite(
        "BENCH_core.json",
        "batch",
        "best_speedup_vs_scalar",
        core_file.batch.as_ref().map(|b| b.best_speedup_vs_scalar),
    );
    let batch_section = core_file.batch.as_ref().expect("checked above");
    if batch_section.sweep.is_empty() {
        eprintln!("FAIL BENCH_core.json: batch.sweep is empty");
        std::process::exit(1);
    }
    for p in &batch_section.sweep {
        require_finite(
            "BENCH_core.json",
            "batch.sweep",
            &format!("ns_per_update[batch_size={}]", p.batch_size),
            Some(p.ns_per_update),
        );
        require_finite(
            "BENCH_core.json",
            "batch.sweep",
            &format!("speedup_vs_scalar[batch_size={}]", p.batch_size),
            Some(p.speedup_vs_scalar),
        );
    }
    println!(
        "BENCH_core:   committed batch {committed_batch:.1} ns/update \
         ({committed_batch_speedup:.2}x vs scalar, kernel {})",
        batch_section.kernel
    );
    let committed_wide = require_finite(
        "BENCH_core.json",
        "batch.wide",
        "best_ns_per_update",
        batch_section.wide.as_ref().map(|w| w.best_ns_per_update),
    );
    let committed_wide_speedup = require_finite(
        "BENCH_core.json",
        "batch.wide",
        "best_speedup_vs_scalar",
        batch_section
            .wide
            .as_ref()
            .map(|w| w.best_speedup_vs_scalar),
    );
    for p in &batch_section.wide.as_ref().expect("checked above").sweep {
        require_finite(
            "BENCH_core.json",
            "batch.wide.sweep",
            &format!("ns_per_update[batch_size={}]", p.batch_size),
            Some(p.ns_per_update),
        );
    }
    println!(
        "BENCH_core:   committed wide batch {committed_wide:.1} ns/update \
         ({committed_wide_speedup:.2}x vs scalar)"
    );
    let committed_paced = require_finite(
        "BENCH_core.json",
        "paced.current",
        "ns_per_update",
        core_file
            .paced
            .as_ref()
            .and_then(|p| p.current.as_ref())
            .map(|m| m.ns_per_update),
    );
    let committed_ev = require_finite(
        "BENCH_netsim.json",
        "current",
        "events_per_sec",
        netsim_file.current.as_ref().map(|c| c.events_per_sec),
    );
    require_finite(
        "BENCH_netsim.json",
        "baseline",
        "events_per_sec",
        netsim_file.baseline.as_ref().map(|c| c.events_per_sec),
    );
    require_finite(
        "BENCH_netsim.json",
        "speedup",
        "speedup_vs_baseline",
        netsim_file.speedup_vs_baseline,
    );
    require_finite(
        "BENCH_netsim.json",
        "scaling.baseline_k4_single_thread",
        "events_per_sec",
        netsim_file
            .scaling
            .as_ref()
            .map(|s| s.baseline_k4_single_thread.events_per_sec),
    );
    let scaling = netsim_file.scaling.as_ref().expect("checked above");
    if scaling.points.is_empty() {
        eprintln!("FAIL BENCH_netsim.json: scaling.points is empty");
        std::process::exit(1);
    }
    for p in &scaling.points {
        let label = format!("k={} partitions={}", p.k, p.partitions);
        require_finite(
            "BENCH_netsim.json",
            "scaling.points",
            &format!("events_per_sec[{label}]"),
            Some(p.events_per_sec),
        );
        require_finite(
            "BENCH_netsim.json",
            "scaling.points",
            &format!("speedup_vs_single_thread[{label}]"),
            Some(p.speedup_vs_single_thread),
        );
        if p.partitions == 0 || p.events == 0 || p.peak_rss_kb == 0 {
            eprintln!("FAIL BENCH_netsim.json: scaling point {label} has a zero field");
            std::process::exit(1);
        }
    }
    println!(
        "BENCH_netsim: committed scaling surface has {} points over k={{{}}}",
        scaling.points.len(),
        {
            let mut ks: Vec<u64> = scaling.points.iter().map(|p| p.k).collect();
            ks.dedup();
            ks.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        }
    );
    let committed_queries = require_finite(
        "BENCH_analyzer.json",
        "current",
        "queries_per_sec",
        analyzer_file.current.as_ref().map(|c| c.queries_per_sec),
    );
    require_finite(
        "BENCH_analyzer.json",
        "baseline",
        "queries_per_sec",
        analyzer_file.baseline.as_ref().map(|c| c.queries_per_sec),
    );
    require_finite(
        "BENCH_analyzer.json",
        "speedup",
        "speedup_vs_baseline",
        analyzer_file.speedup_vs_baseline,
    );
    let committed_compacted = require_finite(
        "BENCH_analyzer.json",
        "retention",
        "compacted_queries_per_sec",
        analyzer_file
            .retention
            .as_ref()
            .map(|r| r.compacted_queries_per_sec),
    );
    require_finite(
        "BENCH_analyzer.json",
        "retention",
        "hot_queries_per_sec",
        analyzer_file
            .retention
            .as_ref()
            .map(|r| r.hot_queries_per_sec),
    );
    require_finite(
        "BENCH_analyzer.json",
        "retention",
        "bytes_per_retained_period",
        analyzer_file
            .retention
            .as_ref()
            .map(|r| r.bytes_per_retained_period),
    );
    println!(
        "BENCH_analyzer: committed compacted tier {committed_compacted:.0} queries/sec \
         ({:.1}x below hot)",
        analyzer_file
            .retention
            .as_ref()
            .map(|r| r.compacted_slowdown)
            .unwrap_or(f64::NAN)
    );
    let committed_cold = require_finite(
        "BENCH_analyzer.json",
        "cold",
        "cold_queries_per_sec",
        analyzer_file.cold.as_ref().map(|c| c.cold_queries_per_sec),
    );
    require_finite(
        "BENCH_analyzer.json",
        "cold",
        "hot_queries_per_sec",
        analyzer_file.cold.as_ref().map(|c| c.hot_queries_per_sec),
    );
    require_finite(
        "BENCH_analyzer.json",
        "cold",
        "cold_bytes_read",
        analyzer_file
            .cold
            .as_ref()
            .map(|c| c.cold_bytes_read as f64),
    );
    let hit_rate = require_finite(
        "BENCH_analyzer.json",
        "cold",
        "segment_cache_hit_rate",
        analyzer_file
            .cold
            .as_ref()
            .map(|c| c.segment_cache_hit_rate),
    );
    if hit_rate > 1.0 {
        eprintln!("FAIL BENCH_analyzer.json: cold.segment_cache_hit_rate {hit_rate} exceeds 1.0");
        std::process::exit(1);
    }
    println!(
        "BENCH_analyzer: committed cold tier {committed_cold:.0} queries/sec \
         ({:.1}x below hot, segment cache hit rate {hit_rate:.3})",
        analyzer_file
            .cold
            .as_ref()
            .map(|c| c.cold_slowdown)
            .unwrap_or(f64::NAN)
    );

    let core = bench_core(CORE_UPDATES_SMOKE);
    let fresh_core = require_finite(
        "BENCH_core.json",
        "fresh",
        "ns_per_update_full",
        Some(core.ns_per_update_full),
    );
    let fresh_batch = bench_batch(CORE_UPDATES_SMOKE, core.ns_per_update_full);
    require_finite(
        "BENCH_core.json",
        "fresh batch",
        "best_ns_per_update",
        Some(fresh_batch.best_ns_per_update),
    );
    println!(
        "BENCH_core:   fresh batch {:.1} ns/update ({:.2}x vs fresh scalar, kernel {})",
        fresh_batch.best_ns_per_update, fresh_batch.best_speedup_vs_scalar, fresh_batch.kernel
    );
    if fresh_batch.best_speedup_vs_scalar < 1.0 {
        eprintln!(
            "WARN: batch ingest slower than scalar this run ({:.2}x)",
            fresh_batch.best_speedup_vs_scalar
        );
    }
    let fresh_paced = require_finite(
        "BENCH_core.json",
        "fresh paced",
        "ns_per_update",
        Some(bench_paced().ns_per_update),
    );
    println!(
        "BENCH_core:   fresh paced {fresh_paced:.1} ns/update vs committed {committed_paced:.1} ({:+.1}%)",
        (fresh_paced / committed_paced - 1.0) * 100.0
    );
    let netsim = bench_netsim(2_000_000);
    let fresh_ev = require_finite(
        "BENCH_netsim.json",
        "fresh",
        "events_per_sec",
        Some(netsim.events_per_sec),
    );
    // Parallel gate: the sharded simulator must dispatch exactly the events
    // the sequential run does (cheap proxy for the bit-identical contract;
    // the full trace diff lives in the sim_equivalence suite).
    let par = run_parallel(
        Topology::fat_tree(4, 100.0, 1000),
        netsim_flows(1024),
        netsim_config(2_000_000),
        2,
    )
    .expect("k=4 fat-tree partitions cleanly");
    if par.events_processed != netsim.events {
        eprintln!(
            "FAIL netsim: 2-partition run dispatched {} events, sequential dispatched {}",
            par.events_processed, netsim.events
        );
        std::process::exit(1);
    }
    let analyzer = bench_analyzer(ANALYZER_SWEEPS_SMOKE);
    let fresh_queries = require_finite(
        "BENCH_analyzer.json",
        "fresh",
        "queries_per_sec",
        Some(analyzer.queries_per_sec),
    );

    let core_ratio = fresh_core / committed_core;
    let ev_ratio = committed_ev / fresh_ev;
    let query_ratio = committed_queries / fresh_queries;
    println!(
        "BENCH_core:   fresh {fresh_core:.1} ns/update vs committed {committed_core:.1} ({:+.1}%)",
        (core_ratio - 1.0) * 100.0
    );
    println!(
        "BENCH_netsim: fresh {fresh_ev:.0} events/sec vs committed {committed_ev:.0} ({:+.1}%)",
        (1.0 / ev_ratio - 1.0) * 100.0
    );
    println!(
        "BENCH_analyzer: fresh {fresh_queries:.0} queries/sec vs committed {committed_queries:.0} ({:+.1}%)",
        (1.0 / query_ratio - 1.0) * 100.0
    );
    // Soft regression check: warn loudly, never fail on wall-clock noise.
    if core_ratio > 1.5 {
        eprintln!("WARN: core update path {core_ratio:.2}x slower than the committed baseline");
    }
    if ev_ratio > 1.5 {
        eprintln!("WARN: netsim event rate {ev_ratio:.2}x below the committed baseline");
    }
    if query_ratio > 1.5 {
        eprintln!("WARN: analyzer query rate {query_ratio:.2}x below the committed baseline");
    }
    println!("perf gate OK");
}

/// Stage-by-stage breakdown of the core update path on the recorded
/// workload: placement/hashing alone, a single bucket's transform push path,
/// and the basic/full sketches under both selectors. A diagnostic aid for
/// perf work, not part of the gate.
fn profile() {
    use wavesketch::{BucketArena, SelectorKind};

    let stream = core_stream(CORE_UPDATES_FULL_RUN, CORE_FLOWS, CORE_SEED);
    let n = stream.len() as f64;
    let config = core_config();

    // Checksums are folded into the output below: a discarded closure result
    // lets thin-LTO dead-code-eliminate a pure loop (the placement benchmark
    // once printed 0.0 ns/update exactly this way).
    let (place_ns, place_sum) = time_min(|| {
        let mut acc = 0u64;
        for (flow, _, _) in &stream {
            let p = config.place(flow);
            acc = acc.wrapping_add(config.heavy_slot_placed(&p) as u64);
            for row in 0..config.rows {
                acc = acc.wrapping_add(config.light_col_placed(&p, row) as u64);
            }
        }
        acc.max(1)
    });
    println!(
        "place+derive   {:6.1} ns/update   [checksum {place_sum:x}]",
        place_ns as f64 / n
    );

    let (bucket_ns, bucket_sum) = time_min(|| {
        let mut b = BucketArena::from_config(&config, 1);
        for (_, window, value) in &stream {
            b.update(0, *window, *value);
        }
        b.current_epoch_total(0).unsigned_abs().max(1)
    });
    println!(
        "1-bucket push  {:6.1} ns/update   [checksum {bucket_sum:x}]",
        bucket_ns as f64 / n
    );

    for &bs in &[8usize, 32, 256] {
        let (batch_ns, batch_sum) = time_min(|| {
            let mut sketch = FullWaveSketch::new(config.clone());
            for burst in stream.chunks(bs) {
                sketch.update_batch(burst);
            }
            sketch.heavy_flows().len() as u64
        });
        println!(
            "batch[{bs:>3}]     {:6.1} ns/update   [kernel {}, checksum {batch_sum:x}]",
            batch_ns as f64 / n,
            wavesketch::active_kernel().name()
        );
    }

    for (label, selector) in [
        ("ideal", SelectorKind::Ideal),
        ("hw-thr", SelectorKind::HwThreshold { even: 0, odd: 0 }),
    ] {
        let cfg = SketchConfig::builder().selector(selector).build();
        let (basic_ns, _) = time_min(|| {
            let mut sketch = BasicWaveSketch::new(cfg.clone());
            for (flow, window, value) in &stream {
                sketch.update(flow, *window, *value);
            }
            sketch.active_buckets() as u64
        });
        let (full_ns, _) = time_min(|| {
            let mut sketch = FullWaveSketch::new(cfg.clone());
            for (flow, window, value) in &stream {
                sketch.update(flow, *window, *value);
            }
            sketch.heavy_flows().len() as u64
        });
        println!(
            "basic ({label})  {:6.1} ns/update   full ({label})  {:6.1} ns/update",
            basic_ns as f64 / n,
            full_ns as f64 / n
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut as_baseline: Option<String> = None;
    let mut only: Option<String> = None;
    let mut mode: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => mode = Some("smoke"),
            "--record" => mode = Some("record"),
            "--profile" => mode = Some("profile"),
            "--as-baseline" => {
                as_baseline = Some(it.next().expect("--as-baseline needs a name").clone());
            }
            "--only" => {
                only = Some(it.next().expect("--only needs a section").clone());
            }
            other => panic!("unknown argument {other}"),
        }
    }
    match mode {
        Some("smoke") if only.as_deref() == Some("frontier") => smoke_frontier(),
        Some("smoke") => smoke(),
        Some("record") => record(as_baseline.as_deref(), only.as_deref()),
        Some("profile") => profile(),
        _ => {
            eprintln!(
                "usage: umon-bench --smoke [--only frontier] | --record [--as-baseline baseline|baseline_lto|paced_reference] [--only core|netsim|analyzer|frontier] | --profile"
            );
            std::process::exit(2);
        }
    }
}
