//! The wall-clock records the pipeline benchmark (`benchmark/`) does not
//! take, and every `results/*.json`.
//!
//! * `BENCH_core.json` — `wide`: per-record `update` and `update_batch` in
//!   bursts of 8 / 32 / 256 on a deployment-scale sketch (3 × 16 384 light
//!   buckets, 4 096 heavy slots, 100 k flows) whose arrays exceed cache, a
//!   size no pipeline workload runs; `paced`: the `host_paced` shape through
//!   `update_batch` on the paper-default sketch, the window-advancing path
//!   as one number.
//! * `BENCH_netsim.json` — `scaling`: `run_parallel` on k = 4 / 8 / 16
//!   fat-trees at 1 / 2 / 4 partitions, each point with its own peak RSS.
//! * `results/*.json` — the memory–accuracy frontier
//!   (`umon_bench::frontier`, one `frontier_<scenario>.json` per matrix
//!   scenario) and the paper's figures and tables (`umon_bench::figures`, one
//!   file per entry of its table), deterministic and byte-identical across
//!   reruns.
//!
//! Every recorded number is a [`Reading`]: the minimum over the reps of a
//! time per unit of work (min, not mean: noise on a shared box only ever
//! adds time), the reps' relative spread and the CPU stamp. A point keeps
//! the last plain `--record` as `current` and the last `--record
//! --as-reference` (run on the parent of a change) as `reference`. Ratios
//! between points are printed, never stored.
//!
//! Modes:
//!
//! * `--record [--only core|netsim|results] [--as-reference]` — measure and
//!   rewrite the records at the root of the checkout this binary was built
//!   from. The results run only under `--only results` (~2.5 min): they are
//!   accuracy records, not wall-clock ones.
//! * `--smoke` — check that both committed records have this schema, every
//!   point and finite positive readings, then take one fresh `paced`
//!   reading and print its delta against the committed one. No timing is
//!   held to a threshold: a shared box is too noisy for one.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;
use umon_bench::{figures, frontier};
use umon_netsim::{run_parallel, FlowSpec, SimConfig, Topology};
use umon_workloads::{WorkloadKind, WorkloadParams};
use wavesketch::{FlowKey, FullWaveSketch, SketchConfig};

const USAGE: &str =
    "usage: umon_bench --smoke | --record [--only core|netsim|results] [--as-reference]";
/// Schema of both records; a record of another schema is not read back.
const SCHEMA: u32 = 3;
const SEED: u64 = 0xBE9C;
const REPS: usize = 5;
/// The `wide` point: a deployment-scale config (see `wide_config`) with
/// enough distinct flows that the touched buckets span the whole arena
/// instead of staying cache-resident.
const WIDE_UPDATES: u64 = 4_000_000;
const WIDE_WIDTH: usize = 16_384;
const WIDE_HEAVY_ROWS: usize = 4_096;
const WIDE_FLOWS: u64 = 100_000;
const BATCH_SIZES: [usize; 3] = [8, 32, 256];
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
/// Scaling surface: `(k, arrival window ns, simulated horizon ns)` per
/// fat-tree arity, sized so a point stays in seconds even at k = 16 (1 024
/// hosts), with fewer reps than [`REPS`] because each rep is long enough to
/// be stable.
const SCALING: [(usize, u64, u64); 3] = [
    (4, 2_000_000, 3_000_000),
    (8, 1_000_000, 2_000_000),
    (16, 250_000, 1_000_000),
];
const SCALING_PARTITIONS: [usize; 3] = [1, 2, 4];
const SCALING_REPS: usize = 3;

/// One recorded number: `min` is the minimum over the reps of a time per
/// unit of work (ns per update, ns per event), `spread` is `(max − min) /
/// min` over the same reps, `notes` the [`cpu_notes`] stamp.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct Reading {
    min: f64,
    spread: f64,
    notes: String,
}

/// A timed point: `current` from the last plain `--record`, `reference`
/// from the last `--record --as-reference`.
#[derive(Debug, Serialize, Deserialize, Clone, Default)]
struct Point {
    current: Option<Reading>,
    reference: Option<Reading>,
}

/// One burst size of the `wide` point.
#[derive(Debug, Serialize, Deserialize, Clone)]
struct BatchPoint {
    batch_size: u64,
    ns_per_update: Point,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct WideBench {
    width: u64,
    heavy_rows: u64,
    flows: u64,
    updates: u64,
    update: Point,
    update_batch: Vec<BatchPoint>,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct PacedBench {
    flows: u64,
    gap_ns: u64,
    updates: u64,
    batch_size: u64,
    ns_per_update: Point,
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct CoreBench {
    schema: u32,
    seed: u64,
    reps: u64,
    wide: Option<WideBench>,
    paced: Option<PacedBench>,
}

/// One (k, partitions) point of the scaling surface. `flows`, `events` and
/// `peak_rss_kb` describe the latest record run of either kind;
/// `peak_rss_kb` is this point's own (the watermark is reset before it, see
/// [`reset_peak_rss`]).
#[derive(Debug, Serialize, Deserialize, Clone)]
struct ScalingPoint {
    k: u64,
    partitions: u64,
    flows: u64,
    events: u64,
    peak_rss_kb: u64,
    ns_per_event: Point,
}

#[derive(Debug, Serialize, Deserialize, Clone)]
struct ScalingBench {
    workload: String,
    points: Vec<ScalingPoint>,
}

#[derive(Debug, Serialize, Deserialize, Default)]
struct NetsimBench {
    schema: u32,
    seed: u64,
    reps: u64,
    scaling: Option<ScalingBench>,
}

/// A committed record's shape: its top-level keys and how many timed
/// points it holds.
struct Shape {
    file: &'static str,
    keys: &'static [&'static str],
    points: usize,
}

const CORE_SHAPE: Shape = Shape {
    file: "BENCH_core.json",
    keys: &["schema", "seed", "reps", "wide", "paced"],
    points: 1 + BATCH_SIZES.len() + 1,
};

const NETSIM_SHAPE: Shape = Shape {
    file: "BENCH_netsim.json",
    keys: &["schema", "seed", "reps", "scaling"],
    points: SCALING.len() * SCALING_PARTITIONS.len(),
};

/// The machine-and-build context every reading depends on: runtime-detected
/// SIMD features, compile-time `target_feature` flags (the effective
/// `target-cpu`), the batch kernel the run selected and the hardware
/// threads the host offers (a multi-partition point can only beat one
/// partition with as many cores).
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
        "cpu: arch={} runtime[{}] target-cpu-features[{}] batch_kernel={} threads={}",
        std::env::consts::ARCH,
        runtime.join(","),
        if compiled.is_empty() {
            "baseline".to_string()
        } else {
            compiled.join(",")
        },
        wavesketch::active_kernel().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
}

/// Resets the kernel's peak-RSS watermark (`VmHWM`) down to the *current*
/// RSS by writing `5` to `/proc/self/clear_refs`. The watermark is
/// process-wide, so without this every scaling point inherits whatever the
/// points before it allocated in the same invocation. Best-effort: kernels
/// without `clear_refs` support leave the watermark unchanged.
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

/// Wall time of each of `reps` runs of `f`, plus the checksum the last run
/// returned. `f` builds its state afresh and returns a non-zero checksum of
/// it: a discarded result lets the optimizer delete a pure loop. One
/// untimed run goes first, so the spread measures noise rather than the
/// first run's page faults.
fn time_reps(reps: usize, mut f: impl FnMut() -> u64) -> (Vec<u64>, u64) {
    let mut checksum = f();
    let ns = (0..reps)
        .map(|_| {
            let start = Instant::now();
            checksum = f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    assert!(checksum > 0, "workload touched nothing");
    (ns, checksum)
}

/// `(max − min) / min` of one wall time per rep.
fn spread(ns: &[u64]) -> f64 {
    let min = *ns.iter().min().expect("at least one rep");
    let max = *ns.iter().max().expect("at least one rep");
    (max - min) as f64 / min as f64
}

/// The [`Reading`] of `ns` (one wall time per rep) per `units` of work.
fn reading(ns: &[u64], units: u64) -> Reading {
    Reading {
        min: *ns.iter().min().expect("at least one rep") as f64 / units as f64,
        spread: spread(ns),
        notes: cpu_notes(),
    }
}

/// Stores `reading` in the slot `as_reference` picks, on top of `old` (the
/// committed point, whose other slot is kept), and prints it — with
/// reference ÷ current when both slots are filled.
fn record_point(
    label: &str,
    unit: &str,
    old: Option<&Point>,
    reading: Reading,
    as_reference: bool,
) -> Point {
    println!(
        "  {label:<24} {:>8.1} {unit} (spread {:.1} %)",
        reading.min,
        reading.spread * 100.0
    );
    let mut point = old.cloned().unwrap_or_default();
    let slot = if as_reference {
        &mut point.reference
    } else {
        &mut point.current
    };
    *slot = Some(reading);
    if let (Some(r), Some(c)) = (&point.reference, &point.current) {
        println!("  {label:<24} reference / current {:.2}x", r.min / c.min);
    }
    point
}

/// The `wide` stream: [`WIDE_UPDATES`] updates over [`WIDE_FLOWS`] flows
/// with a slowly advancing window, bounded below `max_windows` so the
/// measurement stays in the steady state (no epoch rollovers — those are
/// per-epoch, not per packet). Mirrors `benches/wavesketch_update.rs`.
fn wide_stream() -> Vec<(FlowKey, u64, i64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut window = 0u64;
    (0..WIDE_UPDATES)
        .map(|_| {
            if rng.gen_bool(0.2) {
                window = (window + 1).min(4000);
            }
            (
                FlowKey::from_id(rng.gen_range(0..WIDE_FLOWS)),
                window,
                rng.gen_range(64..1500i64),
            )
        })
        .collect()
}

/// A deployment-scale sketch whose header/approx arrays (tens of MB) blow
/// past L2, so every per-record fold eats the random-access header-load
/// latency the batch pipeline exists to hide. Paper defaults otherwise.
fn wide_config() -> SketchConfig {
    SketchConfig::builder()
        .width(WIDE_WIDTH)
        .heavy_rows(WIDE_HEAVY_ROWS)
        .build()
}

/// The `wide` point: per-record `update`, then `update_batch` at each of
/// [`BATCH_SIZES`], on fresh sketches over one stream, min of [`REPS`].
fn record_wide(old: Option<&WideBench>, as_reference: bool) -> WideBench {
    let stream = wide_stream();
    let n = stream.len() as u64;
    let (ns, _) = time_reps(REPS, || {
        let mut sketch = FullWaveSketch::new(wide_config());
        for (flow, window, value) in &stream {
            sketch.update(flow, *window, *value);
        }
        sketch.heavy_flows().len() as u64
    });
    let update = reading(&ns, n);
    let update_min = update.min;
    let update = record_point(
        "wide update",
        "ns/update",
        old.map(|w| &w.update),
        update,
        as_reference,
    );
    let mut update_batch = Vec::new();
    for batch_size in BATCH_SIZES {
        let (ns, _) = time_reps(REPS, || {
            let mut sketch = FullWaveSketch::new(wide_config());
            for burst in stream.chunks(batch_size) {
                sketch.update_batch(burst);
            }
            sketch.heavy_flows().len() as u64
        });
        let r = reading(&ns, n);
        let speedup = update_min / r.min;
        let label = format!("wide update_batch/{batch_size}");
        let old_point = old
            .and_then(|w| {
                w.update_batch
                    .iter()
                    .find(|p| p.batch_size == batch_size as u64)
            })
            .map(|p| &p.ns_per_update);
        update_batch.push(BatchPoint {
            batch_size: batch_size as u64,
            ns_per_update: record_point(&label, "ns/update", old_point, r, as_reference),
        });
        println!("  {label:<24} {speedup:.2}x vs update");
    }
    WideBench {
        width: WIDE_WIDTH as u64,
        heavy_rows: WIDE_HEAVY_ROWS as u64,
        flows: WIDE_FLOWS,
        updates: n,
        update,
        update_batch,
    }
}

/// The paced stream: [`PACED_FLOWS`] flows, each sending one
/// [`PACED_PKT_BYTES`] packet every [`PACED_GAP_NS`] at a seeded phase,
/// [`PACED_ROUNDS`] times, in time order, on the default 8.192 µs window grid.
fn paced_stream() -> Vec<(FlowKey, u64, i64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
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
/// min of [`REPS`]. The same size for `--record` and `--smoke` (well under a
/// second): a shorter run would sit in the epoch's store-filling start and
/// measure a different regime.
fn bench_paced() -> Reading {
    let stream = paced_stream();
    let (ns, _) = time_reps(REPS, || {
        // Paper defaults: 3×256, L=8, K=64, 4096 windows.
        let mut sketch = FullWaveSketch::new(SketchConfig::builder().build());
        for burst in stream.chunks(PACED_BURST) {
            sketch.update_batch(burst);
        }
        sketch.heavy_flows().len() as u64
    });
    reading(&ns, stream.len() as u64)
}

fn netsim_config(end_ns: u64) -> SimConfig {
    SimConfig {
        end_ns,
        clock_error_ns: 0,
        seed: NETSIM_SEED,
        ..SimConfig::default()
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

/// The scaling surface: every [`SCALING`] arity at every
/// [`SCALING_PARTITIONS`] count, min of [`SCALING_REPS`] per point.
fn record_scaling(old: Option<&ScalingBench>, as_reference: bool) -> ScalingBench {
    let mut points = Vec::new();
    for (k, duration_ns, end_ns) in SCALING {
        let mut single_partition_min = f64::NAN;
        for partitions in SCALING_PARTITIONS {
            reset_peak_rss();
            let flows = scaling_flows(k, duration_ns);
            let (ns, events) = time_reps(SCALING_REPS, || {
                let topo = Topology::fat_tree(k, 100.0, 1000);
                run_parallel(topo, flows.clone(), netsim_config(end_ns), partitions)
                    .expect("standard fat-trees have non-zero cut latency")
                    .events_processed
            });
            let peak_rss_kb = peak_rss_kb();
            let r = reading(&ns, events);
            let min = r.min;
            if partitions == 1 {
                single_partition_min = min;
            }
            let label = format!("scaling k={k} p={partitions}");
            let old_point = old
                .and_then(|s| {
                    s.points
                        .iter()
                        .find(|p| p.k == k as u64 && p.partitions == partitions as u64)
                })
                .map(|p| &p.ns_per_event);
            points.push(ScalingPoint {
                k: k as u64,
                partitions: partitions as u64,
                flows: flows.len() as u64,
                events,
                peak_rss_kb,
                ns_per_event: record_point(&label, "ns/event", old_point, r, as_reference),
            });
            println!(
                "  {label:<24} {:.2} M events/s, {:.2}x vs p=1 ({events} events, {} flows, {:.1} MB)",
                1e3 / min,
                single_partition_min / min,
                flows.len(),
                peak_rss_kb as f64 / 1024.0
            );
        }
    }
    ScalingBench {
        workload: format!(
            "hadoop mix at 0.25 load, arrival windows {} us for k={}, run_parallel",
            SCALING.map(|(_, d, _)| (d / 1000).to_string()).join("/"),
            SCALING.map(|(k, _, _)| k.to_string()).join("/"),
        ),
        points,
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_record(path: &Path) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

/// The record at `path`, or an empty one when there is none or it has
/// another schema (its readings do not fit this shape).
fn load<T: Deserialize + Default>(path: &Path) -> T {
    if !path.exists() {
        return T::default();
    }
    let record = read_record(path).unwrap_or_else(|e| panic!("unparseable {e}"));
    if record.field("schema") != Some(&Value::Int(SCHEMA.into())) {
        return T::default();
    }
    T::from_value(&record).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn store<T: Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize bench file");
    std::fs::write(path, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Every point under `v` (an object with a `current` key) with its path.
fn collect_points<'a>(path: String, v: &'a Value, out: &mut Vec<(String, &'a Value)>) {
    match v {
        Value::Object(_) if v.field("current").is_some() => out.push((path, v)),
        Value::Object(entries) => {
            for (key, child) in entries {
                collect_points(format!("{path}.{key}"), child, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                collect_points(format!("{path}[{i}]"), child, out);
            }
        }
        _ => {}
    }
}

fn check_reading(r: &Reading) -> Result<(), String> {
    if !(r.min.is_finite() && r.min > 0.0) {
        return Err(format!("min {} is not a positive finite number", r.min));
    }
    if !(r.spread.is_finite() && r.spread >= 0.0) {
        return Err(format!("spread {} is not a non-negative number", r.spread));
    }
    if r.notes.is_empty() {
        return Err("has no CPU stamp".into());
    }
    Ok(())
}

/// Holds a committed record to its shape: this schema, exactly these
/// top-level keys, every point present with a `current` reading whose `min`
/// is positive and finite and whose `spread` is non-negative, and a
/// `reference` that is null or as valid. `--smoke` and the schema test both
/// call this.
fn validate(shape: &Shape, record: &Value) -> Result<(), String> {
    let file = shape.file;
    if record.field("schema") != Some(&Value::Int(SCHEMA.into())) {
        return Err(format!("{file}: schema is not {SCHEMA}"));
    }
    let Value::Object(entries) = record else {
        return Err(format!("{file}: not an object"));
    };
    let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = shape.keys.to_vec();
    keys.sort_unstable();
    want.sort_unstable();
    if keys != want {
        return Err(format!("{file}: top-level keys {keys:?}, want {want:?}"));
    }
    let mut points = Vec::new();
    collect_points(String::new(), record, &mut points);
    if points.len() != shape.points {
        return Err(format!(
            "{file}: {} points, want {}",
            points.len(),
            shape.points
        ));
    }
    for (path, point) in points {
        let slots = Point::from_value(point).map_err(|e| format!("{file}: {path}: {e}"))?;
        let current = slots
            .current
            .ok_or_else(|| format!("{file}: {path} has no current reading"))?;
        check_reading(&current).map_err(|e| format!("{file}: {path}.current: {e}"))?;
        if let Some(r) = slots.reference {
            check_reading(&r).map_err(|e| format!("{file}: {path}.reference: {e}"))?;
        }
    }
    Ok(())
}

fn record_core(root: &Path, as_reference: bool) {
    let path = root.join(CORE_SHAPE.file);
    let old: CoreBench = load(&path);
    println!(
        "core: wide 3x{WIDE_WIDTH} light, {WIDE_HEAVY_ROWS} heavy, {WIDE_FLOWS} flows, \
         {WIDE_UPDATES} updates; paced {PACED_FLOWS} flows, one packet per {PACED_GAP_NS} ns, \
         burst {PACED_BURST}; {REPS} reps ..."
    );
    let wide = record_wide(old.wide.as_ref(), as_reference);
    let paced = record_point(
        "paced update_batch/32",
        "ns/update",
        old.paced.as_ref().map(|p| &p.ns_per_update),
        bench_paced(),
        as_reference,
    );
    let core = CoreBench {
        schema: SCHEMA,
        seed: SEED,
        reps: REPS as u64,
        wide: Some(wide),
        paced: Some(PacedBench {
            flows: PACED_FLOWS,
            gap_ns: PACED_GAP_NS,
            updates: PACED_FLOWS * PACED_ROUNDS,
            batch_size: PACED_BURST as u64,
            ns_per_update: paced,
        }),
    };
    store(&path, &core);
    println!("wrote {}", path.display());
}

fn record_netsim(root: &Path, as_reference: bool) {
    let path = root.join(NETSIM_SHAPE.file);
    let old: NetsimBench = load(&path);
    println!(
        "netsim scaling: hadoop cluster workloads, k=4/8/16 x 1/2/4 partitions \
         x {SCALING_REPS} reps ..."
    );
    let netsim = NetsimBench {
        schema: SCHEMA,
        seed: NETSIM_SEED,
        reps: SCALING_REPS as u64,
        scaling: Some(record_scaling(old.scaling.as_ref(), as_reference)),
    };
    store(&path, &netsim);
    println!("wrote {}", path.display());
}

fn results_dir(root: &Path) -> PathBuf {
    root.join("results")
}

/// Records every result file: the memory–accuracy frontier (one
/// `frontier_<scenario>.json` per matrix scenario, every point validated
/// before it is written), then each entry of [`figures::FIGURES`].
/// Deterministic end to end (fixed seeds, no wall clock in any file), so
/// reruns are byte-identical.
fn record_results(root: &Path) {
    let dir = results_dir(root);
    std::fs::create_dir_all(&dir).expect("create results dir");
    println!(
        "frontier: scenario matrix x {} budgets x {} schemes ...",
        frontier::budgets(false).len(),
        frontier::SCHEMES.len()
    );
    for f in frontier::sweep() {
        frontier::validate_frontier(&f).unwrap_or_else(|e| {
            eprintln!("FAIL frontier sweep produced an invalid point: {e}");
            std::process::exit(1);
        });
        let path = dir.join(format!("frontier_{}.json", f.scenario));
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
    for (name, figure) in figures::FIGURES {
        let start = Instant::now();
        let path = dir.join(format!("{name}.json"));
        store(&path, &figure());
        println!(
            "wrote {} ({:.1} s)",
            path.display(),
            start.elapsed().as_secs_f64()
        );
    }
}

fn smoke() {
    let root = repo_root();
    for shape in [&CORE_SHAPE, &NETSIM_SHAPE] {
        if let Err(e) = read_record(&root.join(shape.file)).and_then(|r| validate(shape, &r)) {
            eprintln!("FAIL {e}");
            std::process::exit(1);
        }
        println!("{}: {} points OK", shape.file, shape.points);
    }
    let core: CoreBench = load(&root.join(CORE_SHAPE.file));
    let committed = core
        .paced
        .and_then(|p| p.ns_per_update.current)
        .expect("validated above")
        .min;
    let fresh = bench_paced();
    if let Err(e) = check_reading(&fresh) {
        eprintln!("FAIL fresh paced reading: {e}");
        std::process::exit(1);
    }
    println!(
        "paced: fresh {:.1} ns/update (spread {:.1} %) vs committed {committed:.1} ({:+.1} %)",
        fresh.min,
        fresh.spread * 100.0,
        (fresh.min / committed - 1.0) * 100.0
    );
    println!("perf gate OK");
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut mode: Option<String> = None;
    let mut only: Option<String> = None;
    let mut as_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--record" if mode.is_none() => mode = Some(arg),
            "--only" if only.is_none() => match args.next() {
                Some(s) if matches!(s.as_str(), "core" | "netsim" | "results") => only = Some(s),
                _ => usage(),
            },
            "--as-reference" if !as_reference => as_reference = true,
            _ => usage(),
        }
    }
    let root = repo_root();
    match (mode.as_deref(), only.as_deref(), as_reference) {
        (Some("--smoke"), None, false) => smoke(),
        (Some("--record"), Some("results"), false) => record_results(&root),
        (Some("--record"), Some("core") | None, _) => {
            record_core(&root, as_reference);
            if only.is_none() {
                record_netsim(&root, as_reference);
            }
        }
        (Some("--record"), Some("netsim"), _) => record_netsim(&root, as_reference),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use umon_workloads::scenario_matrix;

    #[test]
    fn spread_is_relative_to_the_fastest_rep() {
        assert_eq!(spread(&[120, 100, 110, 105]), 0.2);
        assert_eq!(spread(&[40, 50]), 0.25);
        assert_eq!(spread(&[7]), 0.0);
    }

    #[test]
    fn every_result_file_has_a_writer_and_every_writer_a_file() {
        let scenarios = scenario_matrix(frontier::FRONTIER_SEED, false);
        let written: BTreeSet<String> = scenarios
            .iter()
            .map(|s| format!("frontier_{}.json", s.name))
            .chain(
                figures::FIGURES
                    .iter()
                    .map(|(name, _)| format!("{name}.json")),
            )
            .collect();
        let committed: BTreeSet<String> = std::fs::read_dir(results_dir(&repo_root()))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(written.len(), scenarios.len() + figures::FIGURES.len());
        assert_eq!(committed, written);
    }

    #[test]
    fn committed_records_match_the_schema() {
        let root = repo_root();
        for shape in [&CORE_SHAPE, &NETSIM_SHAPE] {
            let record = read_record(&root.join(shape.file)).unwrap();
            validate(shape, &record).unwrap();
        }
        let core = std::fs::read_to_string(root.join(CORE_SHAPE.file)).unwrap();
        assert!(!core.contains("peak_rss_kb"), "core points carry no RSS");
    }

    fn field_mut<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
        let Value::Object(entries) = v else {
            panic!("not an object")
        };
        &mut entries.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    fn paced_slot<'a>(v: &'a mut Value, slot: &str) -> &'a mut Value {
        field_mut(field_mut(field_mut(v, "paced"), "ns_per_update"), slot)
    }

    #[test]
    fn validate_rejects_what_the_schema_forbids() {
        let committed = read_record(&repo_root().join(CORE_SHAPE.file)).unwrap();
        type Damage = fn(&mut Value);
        let breaks: [(&str, Damage); 6] = [
            ("old schema", |v| *field_mut(v, "schema") = Value::Int(1)),
            ("extra key", |v| {
                let Value::Object(entries) = v else {
                    panic!("not an object")
                };
                entries.push(("baseline".into(), Value::Null));
            }),
            ("no current", |v| *paced_slot(v, "current") = Value::Null),
            ("NaN min", |v| {
                *field_mut(paced_slot(v, "current"), "min") = Value::Float(f64::NAN)
            }),
            ("negative spread", |v| {
                *field_mut(paced_slot(v, "current"), "spread") = Value::Float(-0.1)
            }),
            ("zero reference", |v| {
                *paced_slot(v, "reference") = serde_json::to_value(&Reading {
                    min: 0.0,
                    spread: 0.0,
                    notes: cpu_notes(),
                })
            }),
        ];
        for (what, damage) in breaks {
            let mut record = committed.clone();
            damage(&mut record);
            assert!(validate(&CORE_SHAPE, &record).is_err(), "{what} passed");
        }
    }
}
