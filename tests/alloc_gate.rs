//! Zero-allocation gate for the steady-state hot paths.
//!
//! The perf tentpole's contract is that after warm-up neither the sketch
//! packet path (`FullWaveSketch::update`, including heavy-part evictions),
//! nor the netsim event queue's push/pop cycle, nor the analyzer's query
//! path (`flow_curve_with` / `host_rate_curve_with` through a warm
//! `QueryScratch`, over hot periods and over compacted and cache-hit cold
//! ones) touches the heap — and, off the hot path, that a cold-cache miss
//! costs a fixed count of heap operations whatever its record's heavy-key
//! count, that a report
//! decoder allocates nothing for a length prefix its input cannot back and
//! that an uplink's first send moves a report instead of copying it, and
//! that the collector's envelope verify reuses its encode buffer.  A
//! counting `#[global_allocator]` wraps the system allocator; this file
//! contains a single `#[test]` so no sibling test thread can contribute
//! spurious counts (each integration-test file is its own binary).
//!
//! Out of scope by design: epoch rollover (a completed epoch materialises
//! `BucketReport`s) and `drain()` — those are control-plane operations, not
//! the per-packet path.  The workload therefore keeps every window index
//! below `max_windows`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocating entry point; frees are not counted (returning
/// memory is harmless, acquiring it on the hot path is the bug).
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    HEAP_OPS.load(Ordering::Relaxed)
}

/// Dependency-free xorshift64 so the workload generator itself cannot
/// allocate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    sketch_packet_path_is_allocation_free();
    batch_ingest_path_is_allocation_free();
    event_queue_cycle_is_allocation_free();
    analyzer_query_path_is_allocation_free();
    cold_miss_allocates_a_fixed_count();
    lying_length_prefix_allocates_nothing();
    uplink_tick_moves_the_report();
    envelope_verify_with_a_warm_buffer_allocates_nothing();
}

/// The collector verifies every envelope by encoding its report into one
/// buffer it keeps and digesting that: once the buffer has held a report's
/// encoding, verifying it again — intact or damaged — touches the heap not
/// at all (an `encode()` per verify would allocate and grow a fresh `Vec`).
fn envelope_verify_with_a_warm_buffer_allocates_nothing() {
    use umon::{Envelope, HostAgent, HostAgentConfig};

    let mut agent = HostAgent::new(0, HostAgentConfig::default());
    for w in 0..64u64 {
        for flow in 0..100u64 {
            agent.observe(flow, (w << 13) + flow, 1000);
        }
    }
    let env = Envelope::seal(0, agent.finish().remove(0));
    let mut damaged = env.clone();
    damaged.checksum ^= 1;
    let mut buf = Vec::new();
    assert!(env.verify(&mut buf), "warm-up verify");

    let before = heap_ops();
    let intact = env.verify(&mut buf);
    let broken = damaged.verify(&mut buf);
    let measured = heap_ops() - before;
    assert!(intact && !broken);
    assert_eq!(
        measured, 0,
        "a warm-buffer Envelope::verify performed {measured} heap operations"
    );
}

/// Off the packet path too: a report's first send moves it onto the wire.
/// The heap operations of a `HostUplink::tick` that sends one report for the
/// first time must not depend on the report's size — a deep copy of the
/// envelope costs an allocation per key and coefficient list (1 842 for the
/// 400-flow report here, 12 for the one-flow one).
fn uplink_tick_moves_the_report() {
    use umon::{HostAgent, HostAgentConfig, HostUplink, PerfectTransport, RetransmitPolicy};

    let report = |flows: u64| {
        let mut agent = HostAgent::new(0, HostAgentConfig::default());
        for w in 0..64u64 {
            for flow in 0..flows {
                agent.observe(flow, (w << 13) + flow, 1000);
            }
        }
        agent.finish().remove(0)
    };
    let first_tick = |report: umon::PeriodReport| -> u64 {
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut transport = PerfectTransport::new();
        uplink.submit(vec![report]);
        let before = heap_ops();
        uplink.tick(0, &mut transport);
        heap_ops() - before
    };
    let (small, large) = (report(1), report(400));
    assert!(large.report.epoch_count() >= 100 * small.report.epoch_count());
    let (small_ops, large_ops) = (first_tick(small), first_tick(large));
    assert_eq!(
        small_ops, large_ops,
        "a first-send tick allocated {small_ops} times for a one-flow report \
         and {large_ops} times for a 400-flow one"
    );
    assert!(
        large_ops <= 4,
        "a first-send tick allocated {large_ops} times"
    );
}

/// Not a hot path, but the same counter answers it: a report decoder handed
/// a length prefix the buffer cannot back (2^24 approximation entries, five
/// bytes left) must refuse before allocating for it. So must the cold
/// tier's entry-table builder, for a report claiming 2^24 heavy entries; for
/// a light entry whose one epoch lies, it allocates only for the entry and
/// the epoch it read (two vectors, made and freed).
fn lying_length_prefix_allocates_nothing() {
    use wavesketch::ReportTable;
    let lying = [0u8, 8, 0, 0x80, 0x80, 0x80, 0x08, 1, 2, 3, 4, 5];
    let before = heap_ops();
    let decoded = wavesketch::BucketReport::decode_from(&lying, &mut 0);
    let measured = heap_ops() - before;
    assert_eq!(decoded, None);
    assert_eq!(
        measured, 0,
        "decoding a lying length prefix performed {measured} heap operations"
    );
    let mut report = vec![0x80, 0x80, 0x80, 0x08];
    report.extend_from_slice(&lying);
    let before = heap_ops();
    let table = ReportTable::build(&report);
    let measured = heap_ops() - before;
    assert_eq!(table, None);
    assert_eq!(
        measured, 0,
        "table over a lying entry count: {measured} heap operations"
    );
    // No heavy entries; one light entry (row 0, col 0) with one epoch.
    let mut report = vec![0, 1, 0, 0, 1];
    report.extend_from_slice(&lying);
    let before = heap_ops();
    let table = ReportTable::build(&report);
    let measured = heap_ops() - before;
    assert_eq!(table, None);
    assert!(
        measured <= 4,
        "table over a lying epoch: {measured} heap operations"
    );
}

fn batch_ingest_path_is_allocation_free() {
    use wavesketch::{FlowKey, FullWaveSketch, SketchConfig};

    const BURST: usize = 256;
    const BURSTS: usize = 400;
    const SEED: u64 = 0xBA7C_F00D;

    let mut sketch = FullWaveSketch::new(SketchConfig::builder().build());
    let mut burst: Vec<(FlowKey, u64, i64)> = Vec::with_capacity(BURST);

    // Same flow/value sequence for warm-up and measurement (the rng is
    // reseeded). Only the window keeps advancing, and 2 * BURSTS * BURST /
    // 100 advances stay below max_windows (4096), so no epoch rollover
    // allocates a report.
    let mut window = 0u64;
    let mut step = 0u64;
    let run = |sketch: &mut FullWaveSketch,
               burst: &mut Vec<(FlowKey, u64, i64)>,
               window: &mut u64,
               step: &mut u64| {
        let mut rng = Rng(SEED);
        for _ in 0..BURSTS {
            burst.clear();
            for _ in 0..BURST {
                *step += 1;
                if step.is_multiple_of(100) {
                    *window += 1;
                }
                let flow = FlowKey::from_id(rng.next() % 512);
                let bytes = (64 + rng.next() % 1400) as i64;
                burst.push((flow, *window, bytes));
            }
            sketch.update_batch(burst);
        }
    };

    // Warm-up: allocates the staging scratch (hash/pack/index SoA buffers),
    // first-epoch bucket state and the initial heavy-slot elections.
    run(&mut sketch, &mut burst, &mut window, &mut step);

    let evictions_before = sketch.evictions();
    let before = heap_ops();
    run(&mut sketch, &mut burst, &mut window, &mut step);
    let measured = heap_ops() - before;

    assert!(
        sketch.evictions() > evictions_before,
        "measured phase must exercise the eviction path"
    );
    assert_eq!(
        measured, 0,
        "batch ingest steady state performed {measured} heap operations"
    );
}

fn sketch_packet_path_is_allocation_free() {
    use wavesketch::{FlowKey, FullWaveSketch, SketchConfig};

    let mut sketch = FullWaveSketch::new(SketchConfig::builder().build());
    let mut rng = Rng(0x5EED_CAFE);
    let mut window = 0u64;
    let mut step = 0u64;
    // 512 flows over 256 heavy slots keeps the vote-out eviction path live
    // throughout; advancing the window every 100th update keeps the total
    // advance count (4000 over both halves) below max_windows (4096) so no
    // epoch ever rolls over into a completed-report allocation.
    let mut update = |sketch: &mut FullWaveSketch, rng: &mut Rng, window: &mut u64| {
        step += 1;
        if step.is_multiple_of(100) {
            *window += 1;
        }
        let flow = FlowKey::from_id(rng.next() % 512);
        let bytes = (64 + rng.next() % 1400) as i64;
        sketch.update(&flow, *window, bytes);
    };

    // Warm-up: first-epoch bucket initialisation and initial heavy-slot
    // elections happen here.
    for _ in 0..200_000 {
        update(&mut sketch, &mut rng, &mut window);
    }

    let evictions_before = sketch.evictions();
    let before = heap_ops();
    for _ in 0..200_000 {
        update(&mut sketch, &mut rng, &mut window);
    }
    let measured = heap_ops() - before;

    assert!(
        sketch.evictions() > evictions_before,
        "measured phase must exercise the eviction path"
    );
    assert_eq!(
        measured, 0,
        "sketch steady-state packet path performed {measured} heap operations"
    );
}

fn analyzer_query_path_is_allocation_free() {
    use umon::{Analyzer, HostAgent, HostAgentConfig, QueryScratch, RetentionPolicy};
    use wavesketch::SketchConfig;

    const HOSTS: usize = 3;
    const FLOWS: u64 = 48;

    // Narrow light array over 48 flows keeps bucket collisions (and thus the
    // heavy-subtraction query path) live; reversed report delivery exercises
    // the out-of-order ingest ordering the index must preserve.
    let cfg = HostAgentConfig {
        sketch: SketchConfig::builder()
            .rows(3)
            .width(16)
            .levels(5)
            .topk(12)
            .max_windows(256)
            .heavy_rows(8)
            .build(),
        period_ns: 128 << 13,
        window_shift: 13,
    };
    // The same reports into an all-hot analyzer and into an archive-backed
    // one that keeps one period hot and three resident: its queries read
    // compacted periods, cold periods served from a segment cache large
    // enough to hit after warm-up, and the selection over both.
    let dir = std::env::temp_dir().join(format!("umon_alloc_gate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut analyzer = Analyzer::new(cfg.sketch.clone());
    let policy = RetentionPolicy::bounded(1, 3).with_cold_cache_bytes(64 << 20);
    let mut tiered =
        Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
    for host in 0..HOSTS {
        let mut rng = Rng(0xBEEF ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut agent = HostAgent::new(host, cfg.clone());
        for w in 0..1024u64 {
            for _ in 0..(rng.next() % 4) {
                let flow = rng.next() % FLOWS;
                agent.observe(flow, w << 13, (64 + rng.next() % 1400) as u32);
            }
        }
        let mut reports = agent.finish();
        reports.reverse();
        analyzer.add_reports(reports.clone());
        tiered.add_reports(reports);
    }
    // Reversed delivery: each host's newest period sets the floors, so the
    // older ones arrive compacted, or below the eviction floor (archived).
    let r = tiered.residency();
    assert!(
        r.resident_periods > r.hot_periods,
        "compacted periods: {r:?}"
    );
    for host in 0..HOSTS {
        assert!(
            !tiered.host_coverage(host).archived.is_empty(),
            "host {host} has cold periods"
        );
    }

    let sweep = |analyzer: &Analyzer, scratch: &mut QueryScratch| -> u64 {
        let mut checksum = 0u64;
        for host in 0..HOSTS {
            for flow in 0..FLOWS {
                if let Some(s) = analyzer.flow_curve_with(host, flow, scratch) {
                    checksum = checksum.wrapping_add(s.values.len() as u64);
                }
            }
            if let Some(s) = analyzer.host_rate_curve_with(host, scratch) {
                checksum = checksum.wrapping_add(s.values.len() as u64);
            }
        }
        checksum
    };

    // Two warm-up sweeps, not one: min-row selection swaps the candidate and
    // best buffers data-dependently, so after one sweep the larger allocation
    // may sit in whichever field the second sweep uses less.  A second sweep
    // runs the same reset-size sequence against the flipped arrangement,
    // growing both allocations to every size either role needs; the third
    // (measured) sweep then repeats one of the two warmed parities exactly.
    for (what, analyzer) in [("all-hot", &analyzer), ("tiered", &tiered)] {
        let mut scratch = QueryScratch::new();
        let warm = sweep(analyzer, &mut scratch);
        assert_eq!(warm, sweep(analyzer, &mut scratch), "sweeps must repeat");

        let cold_before = analyzer.retention_stats();
        let before = heap_ops();
        let measured_sum = sweep(analyzer, &mut scratch);
        let measured = heap_ops() - before;

        assert_eq!(warm, measured_sum, "measured sweep must do identical work");
        assert_ne!(warm, 0, "workload must produce non-empty curves");
        assert_eq!(
            measured, 0,
            "{what} analyzer query path performed {measured} heap operations after warm-up"
        );
        if what == "tiered" {
            let s = analyzer.retention_stats();
            assert!(
                s.cold_hits > cold_before.cold_hits,
                "the sweep must read cold periods"
            );
            assert_eq!(
                s.cold_misses, cold_before.cold_misses,
                "and hit the cache only"
            );
            assert_eq!(s.cold_read_errors, 0);
        }
    }
    drop(tiered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Off the hot path: a cold miss reads one record and builds what the
/// cache keeps for it — the payload, the entry table and the heavy keys'
/// light columns. The table builder's vectors grow with the record's epoch
/// count, so they are counted apart, by building the same table alone; the
/// rest of the miss is a fixed count of heap operations whatever the
/// record's heavy-key count. The columns are one exact-size allocation, not
/// one per key, and nothing else in the query allocates.
fn cold_miss_allocates_a_fixed_count() {
    use umon::{Analyzer, HostAgent, HostAgentConfig, QueryScratch, RetentionPolicy};
    use wavesketch::ReportTable;

    let cfg = HostAgentConfig {
        period_ns: 64 << 13,
        ..HostAgentConfig::default()
    };
    // One record per host goes cold: host 0's holds one heavy key, host
    // 1's a few hundred. A one-byte cache makes every cold read a miss.
    let dir = std::env::temp_dir().join(format!("umon_alloc_miss_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = RetentionPolicy::bounded(1, 1).with_cold_cache_bytes(1);
    let mut tiered =
        Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
    let mut cold_records = Vec::new();
    for (host, flows) in [(0usize, 1u64), (1, 400)] {
        let mut agent = HostAgent::new(host, cfg.clone());
        for w in 0..128u64 {
            for flow in 0..flows {
                agent.observe(flow, (w << 13) + flow, 1000);
            }
        }
        let reports = agent.finish();
        assert_eq!(reports.len(), 2, "periods 0 and 1");
        cold_records.push(reports[0].clone());
        tiered.add_reports(reports);
        assert_eq!(tiered.host_coverage(host).archived.len(), 1);
    }
    let heavy: Vec<usize> = (cold_records.iter())
        .map(|r| r.report.heavy.len())
        .collect();
    assert!(
        heavy[0] >= 1 && heavy[1] >= 100 * heavy[0],
        "heavy keys {heavy:?}"
    );

    let mut scratch = QueryScratch::new();
    let mut fixed = Vec::new();
    for (host, record) in cold_records.iter().enumerate() {
        // Warm the scratch and the hot period's memos on the same query.
        for _ in 0..3 {
            tiered.flow_curve_with(host, 0, &mut scratch);
        }
        let misses = tiered.retention_stats().cold_misses;
        let before = heap_ops();
        let curve = tiered.flow_curve_with(host, 0, &mut scratch).is_some();
        let miss = heap_ops() - before;
        assert!(curve, "host {host} flow 0 measured");
        assert_eq!(tiered.retention_stats().cold_misses, misses + 1);
        assert_eq!(tiered.retention_stats().cold_read_errors, 0);

        let sketch = record.report.encode();
        let before = heap_ops();
        let table = ReportTable::build(&sketch);
        let table_ops = heap_ops() - before;
        assert!(table.is_some());
        drop(table);
        fixed.push(miss - table_ops);
    }
    assert_eq!(
        fixed[0], fixed[1],
        "a cold miss beside its table cost {} heap operations for {} heavy keys \
         and {} for {}",
        fixed[0], heavy[0], fixed[1], heavy[1]
    );
    assert!(
        fixed[0] <= 6,
        "a cold miss beside its table: {} heap operations",
        fixed[0]
    );
    drop(tiered);
    let _ = std::fs::remove_dir_all(&dir);
}

fn event_queue_cycle_is_allocation_free() {
    use umon_netsim::sched::EventQueue;

    const LANES: u64 = 16;
    let mut q: EventQueue<u64> = EventQueue::new(LANES as usize);
    let mut seq = 0u64;

    // One cycle of a fixed schedule shaped like the simulator's event loop:
    // seed and seal an initial run, grow to a simulation-sized backlog of
    // heap and lane events, hold it level, drain. Every buffer (heap, slab,
    // free list, run, lanes) starts at zero capacity and only grows, so the
    // warm-up must reach the peak occupancy the measured run will —
    // replaying the identical push/pop pattern from an empty queue
    // guarantees that (occupancy does not depend on `base`). A lane event
    // lands a fixed latency after `now`, and `seq` only grows, so each
    // lane's `(time, prio)` strictly increases as `push_lane` requires.
    let run = |q: &mut EventQueue<u64>, seq: &mut u64, base: u64| -> u64 {
        let mut rng = Rng(0xABCD_1234);
        let mut in_flight = 0usize;
        for step in 0..2_048u64 {
            *seq += 1;
            q.push_init(base + rng.next() % 1_000_000, *seq, step);
            in_flight += 1;
        }
        q.seal_init();
        let mut now = base;
        for step in 0..50_000u64 {
            *seq += 1;
            if rng.next().is_multiple_of(3) {
                let lane = rng.next() % LANES;
                q.push_lane(lane as usize, now + 1_000 + lane * 50, *seq, step);
            } else {
                let delay = match rng.next() % 10 {
                    0 => 0,
                    1..=6 => rng.next() % 2_000,
                    7 | 8 => 2_000 + rng.next() % 60_000,
                    _ => 70_000 + rng.next() % 200_000,
                };
                q.push(now + delay, *seq, step);
            }
            in_flight += 1;
            if in_flight > 4_096 {
                let (t, _, _) = q.pop().expect("event in flight");
                now = t;
                in_flight -= 1;
            }
        }
        while let Some((t, _, _)) = q.pop() {
            now = t;
        }
        now
    };

    let end = run(&mut q, &mut seq, 0);

    let before = heap_ops();
    run(&mut q, &mut seq, end);
    let measured = heap_ops() - before;

    assert_eq!(
        measured, 0,
        "event queue steady-state cycle performed {measured} heap operations"
    );
}
