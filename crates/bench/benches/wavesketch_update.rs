//! Criterion micro-benchmarks for the WaveSketch core: the O(1) amortized
//! update claim (Appendix B), transform/reconstruct costs, and ideal vs
//! hardware selection.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wavesketch::reconstruct::{reconstruct_into, ReconstructScratch};
use wavesketch::select::{Candidate, CoeffSelector, IdealTopK};
use wavesketch::streaming::{EpochCoefficients, StreamingTransform};
use wavesketch::{
    BasicWaveSketch, BucketArena, FlowKey, FullWaveSketch, Selector, SelectorKind, SketchConfig,
};

fn config(selector: SelectorKind) -> SketchConfig {
    SketchConfig::builder()
        .rows(3)
        .width(256)
        .levels(8)
        .topk(64)
        .max_windows(4096)
        .heavy_rows(256)
        .selector(selector)
        .build()
}

/// A packet stream: (flow, window, bytes), windows non-decreasing and
/// bounded to one measurement period (no epoch rollovers).
fn stream(packets: usize, flows: u64, seed: u64) -> Vec<(FlowKey, u64, i64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut window = 0u64;
    (0..packets)
        .map(|_| {
            if rng.gen_bool(0.2) {
                window = (window + rng.gen_range(1..4)).min(4000);
            }
            (
                FlowKey::from_id(rng.gen_range(0..flows)),
                window,
                rng.gen_range(64..1500),
            )
        })
        .collect()
}

fn bench_update(c: &mut Criterion) {
    let packets = stream(100_000, 500, 1);
    let mut group = c.benchmark_group("update");
    group.throughput(Throughput::Elements(packets.len() as u64));

    group.bench_function("basic_ideal", |b| {
        b.iter(|| {
            let mut s = BasicWaveSketch::new(config(SelectorKind::Ideal));
            for (f, w, v) in &packets {
                s.update(black_box(f), *w, *v);
            }
            s.active_buckets()
        })
    });
    group.bench_function("basic_hw", |b| {
        b.iter(|| {
            let mut s = BasicWaveSketch::new(config(SelectorKind::HwThreshold {
                even: 100,
                odd: 100,
            }));
            for (f, w, v) in &packets {
                s.update(black_box(f), *w, *v);
            }
            s.active_buckets()
        })
    });
    group.bench_function("full_ideal", |b| {
        b.iter(|| {
            let mut s = FullWaveSketch::new(config(SelectorKind::Ideal));
            for (f, w, v) in &packets {
                s.update(black_box(f), *w, *v);
            }
            s.heavy_flows().len()
        })
    });
    group.finish();
}

/// Appendix B: amortized update cost must be flat in the stream density
/// (packets per window). Criterion surfaces the per-element cost directly.
fn bench_amortized_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_per_density");
    for pkts_per_window in [1usize, 8, 64] {
        let n_windows = 2048usize;
        let packets: Vec<(u64, i64)> = (0..n_windows)
            .flat_map(|w| (0..pkts_per_window).map(move |_| (w as u64, 1000i64)))
            .collect();
        group.throughput(Throughput::Elements(packets.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(pkts_per_window),
            &packets,
            |b, packets| {
                b.iter(|| {
                    let mut t =
                        StreamingTransform::new(8, 4096, Selector::new(SelectorKind::Ideal, 64));
                    let mut cur = (0u64, 0i64);
                    for &(w, v) in packets {
                        if w == cur.0 {
                            cur.1 += v;
                        } else {
                            t.push(cur.0 as u32, cur.1);
                            cur = (w, v);
                        }
                    }
                    t.approx_total()
                })
            },
        );
    }
    group.finish();
}

fn bench_transform_reconstruct(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let series: Vec<(u32, i64)> = (0..4096u32)
        .map(|w| (w, rng.gen_range(0..100_000)))
        .collect();
    c.bench_function("streaming_transform_4096", |b| {
        b.iter(|| {
            let mut t = StreamingTransform::new(8, 4096, IdealTopK::new(64));
            for &(w, v) in &series {
                t.push(w, v);
            }
            t.finish()
        })
    });
    // The analyzer's inverse transform over an (n windows, k retained details)
    // grid at L = 8, the details on k distinct tree nodes drawn uniformly,
    // through a warm scratch as the query index calls it — DESIGN.md §11's
    // table.
    let mut group = c.benchmark_group("reconstruct");
    for (n, k) in [
        (32usize, 3usize),
        (256, 1),
        (256, 16),
        (256, 64),
        (1024, 3),
        (1024, 64),
        (4096, 8),
        (4096, 64),
    ] {
        let top = 8u32.min(n.trailing_zeros());
        let mut nodes: Vec<(u32, u32)> = (0..top)
            .flat_map(|level| (0..(n >> (level + 1)) as u32).map(move |idx| (level, idx)))
            .collect();
        let coeffs = EpochCoefficients {
            levels: 8,
            padded_len: n,
            approx: (0..n >> top).map(|_| rng.gen_range(0..1_000_000)).collect(),
            details: (0..k)
                .map(|_| {
                    let (level, idx) = nodes.swap_remove(rng.gen_range(0..nodes.len()));
                    Candidate {
                        level,
                        idx,
                        val: rng.gen_range(-100_000i64..100_000),
                    }
                })
                .collect(),
        };
        let mut scratch = ReconstructScratch::new();
        group.bench_function(BenchmarkId::new(n, k), |b| {
            b.iter(|| black_box(reconstruct_into(black_box(&coeffs), &mut scratch)).len())
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let candidates: Vec<wavesketch::select::Candidate> = (0..10_000)
        .map(|i| wavesketch::select::Candidate {
            level: i % 8,
            idx: i,
            val: rng.gen_range(-100_000i64..100_000),
        })
        .collect();
    let mut group = c.benchmark_group("selection_10k_candidates");
    group.bench_function("ideal_topk_64", |b| {
        b.iter(|| {
            let mut s = IdealTopK::new(64);
            for &cand in &candidates {
                s.offer(cand);
            }
            s.len()
        })
    });
    group.bench_function("hw_threshold_64", |b| {
        b.iter(|| {
            let mut s = wavesketch::select::HwThresholdSelector::new(64, 20_000, 20_000);
            for &cand in &candidates {
                s.offer(cand);
            }
            s.len()
        })
    });
    // The selector that ships: a one-bucket arena. Its store is only
    // reachable through `update`, so these points feed window counts whose
    // L = 8 transform finishes ~10 k coefficients (10 040 windows: 5 020 at
    // level 0, 2 510 at level 1, …) and include the transform's few ns per
    // window. `_ties` draws counts from three values, so most coefficients
    // share a weighted magnitude with many others — the tie-break's regime.
    for (name, distinct) in [("arena_topk_64", 100_000i64), ("arena_topk_64_ties", 3)] {
        let counts: Vec<i64> = (0..10_040)
            .map(|_| rng.gen_range(0..distinct) * (100_000 / distinct))
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut arena = BucketArena::new(8, 16_384, 64, SelectorKind::Ideal, 1);
                for (w, &c) in counts.iter().enumerate() {
                    arena.update(0, w as u64, c);
                }
                arena.drain_bucket(0).len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_update, bench_amortized_density, bench_transform_reconstruct, bench_selection
}
criterion_main!(benches);
