//! Tier-1 differential suite: every WaveSketch variant (Basic, Full, HW,
//! Streaming, Sharded) driven over the same generated streams and held to
//! the exact oracle, for 32 fixed seeds across all three workload kinds.
//!
//! A failure prints the seed; reproduce it in isolation with
//! `cargo run -p umon-testkit --bin diff_fuzz -- --seeds 1 --start <seed>`.

use umon_testkit::{
    collection_diff_run, diff_run, gen_stream, replay_host_records, CheckParams,
    CollectionDiffConfig, DiffConfig, Oracle, StreamKind,
};
use wavesketch::{BasicWaveSketch, SketchConfig};

const SEEDS: u64 = 32;

#[test]
fn thirty_two_seeds_across_all_workloads_and_variants() {
    let mut failures = Vec::new();
    let mut light_epochs = 0;
    let mut flow_epochs = 0;
    for seed in 0..SEEDS {
        for kind in StreamKind::ALL {
            match diff_run(seed, &DiffConfig::quick(kind)) {
                Ok(stats) => {
                    light_epochs += stats.light_epochs;
                    flow_epochs += stats.flow_epochs;
                }
                Err(e) => failures.push(e.to_string()),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        light_epochs > 1000,
        "suspiciously low coverage: {light_epochs}"
    );
    assert!(
        flow_epochs > 1000,
        "suspiciously low coverage: {flow_epochs}"
    );
}

/// Harness self-test: the oracle comparison must actually have teeth.
/// Corrupting one light-part counter by one unit must fail the check.
#[test]
fn corrupting_one_light_counter_fails_the_oracle_comparison() {
    let cfg = DiffConfig::quick(StreamKind::Skewed);
    let stream = gen_stream(7, &cfg.stream);
    let mut oracle = Oracle::new(cfg.sketch.clone());
    let mut basic = BasicWaveSketch::new(cfg.sketch.clone());
    for (f, w, v) in &stream {
        oracle.record(f, *w, *v);
        basic.update(f, *w, *v);
    }
    let mut drain = basic.drain();
    let params = CheckParams::from_config(&cfg.sketch);
    oracle
        .check_light_drain(&drain, &params)
        .expect("uncorrupted drain must pass");

    drain[0].2[0].approx[0] += 1;
    let err = oracle
        .check_light_drain(&drain, &params)
        .expect_err("corrupted counter must be detected");
    assert!(err.contains("approx"), "unexpected failure message: {err}");
}

/// Dropping a whole cell from the drain must be detected too.
#[test]
fn dropping_a_drained_cell_fails_the_oracle_comparison() {
    let cfg = DiffConfig::quick(StreamKind::Uniform);
    let stream = gen_stream(9, &cfg.stream);
    let mut oracle = Oracle::new(cfg.sketch.clone());
    let mut basic = BasicWaveSketch::new(cfg.sketch.clone());
    for (f, w, v) in &stream {
        oracle.record(f, *w, *v);
        basic.update(f, *w, *v);
    }
    let mut drain = basic.drain();
    drain.remove(0);
    let params = CheckParams::from_config(&cfg.sketch);
    let err = oracle.check_light_drain(&drain, &params).unwrap_err();
    assert!(err.contains("missing"), "unexpected failure message: {err}");
}

/// Trace replay: synthesize TX records, round-trip them through the netsim
/// trace CSV format, then re-drive a real host agent and validate every
/// uploaded period report against per-period oracles.
#[test]
fn trace_roundtrip_replays_into_validated_period_reports() {
    use umon_netsim::trace::{read_trace, write_tx_records};
    use umon_netsim::{FlowId, TxRecord};

    let records: Vec<TxRecord> = (0..1200u64)
        .map(|i| TxRecord {
            host: 4,
            flow: FlowId(i % 17),
            ts_ns: i * 9_000 + (i % 5) * 111,
            bytes: 100 + (i % 29) as u32 * 50,
        })
        .collect();
    let mut csv = Vec::new();
    write_tx_records(&mut csv, &records).unwrap();
    let (parsed, mirrors) = read_trace(&csv[..]).unwrap();
    assert_eq!(parsed, records);
    assert!(mirrors.is_empty());

    let cfg = umon::HostAgentConfig {
        sketch: SketchConfig::builder()
            .rows(3)
            .width(32)
            .levels(4)
            .topk(16)
            .max_windows(128)
            .heavy_rows(16)
            .build(),
        period_ns: 2_000_000,
        window_shift: 13,
    };
    let stats = replay_host_records(&parsed, 4, &cfg).unwrap();
    assert!(
        stats.periods >= 5,
        "expected several periods, got {}",
        stats.periods
    );
    assert_eq!(stats.records, 1200);
    assert!(stats.light_epochs > 0);
}

/// The whole pipeline is deterministic: identical seeds produce identical
/// coverage counters.
#[test]
fn differential_runs_are_reproducible() {
    let cfg = DiffConfig::quick(StreamKind::Bursty);
    let a = diff_run(11, &cfg).unwrap();
    let b = diff_run(11, &cfg).unwrap();
    assert_eq!(a, b);
}

/// The collection-plane differential (umon::collector degradation
/// contract): for 32 fixed seeds across all three workloads, (1) zero-loss
/// duplication + reordering leaves analyzer output bit-identical to the
/// lossless run, (2) unrecovered loss leaves curves equal to a reference fed
/// exactly the surviving reports with the gaps flagged precisely, and
/// (3) a hostile fault mix is fully healed by bounded retransmission.
///
/// Reproduce a failure in isolation with
/// `cargo run -p umon-testkit --bin collector_smoke -- --seeds 1 --start <seed>`.
#[test]
fn collection_plane_degrades_soundly_across_fault_schedules() {
    let mut failures = Vec::new();
    let mut reports = 0;
    let mut curves = 0;
    let mut duplicates = 0;
    let mut gaps = 0;
    for seed in 0..SEEDS {
        for kind in StreamKind::ALL {
            match collection_diff_run(seed, &CollectionDiffConfig::quick(kind)) {
                Ok(stats) => {
                    reports += stats.reports;
                    curves += stats.curves_compared;
                    duplicates += stats.duplicates;
                    gaps += stats.gaps;
                }
                Err(e) => failures.push(e.to_string()),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        reports > 1000,
        "suspiciously low coverage: {reports} reports"
    );
    assert!(curves > 1000, "suspiciously low coverage: {curves} curves");
    assert!(duplicates > 0, "fault schedules never injected a duplicate");
    assert!(gaps > 0, "fault schedules never produced a detectable gap");
}

/// The adversarial-stream differential: the scenario-matrix shapes (incast
/// storm rounds, lockstep allreduce steps) and the paced shape through every
/// sketch variant and the exact oracle, for 8 fixed seeds, through both
/// ingest paths (per-record `update`, then `update_batch` in bursts of 257).
/// These shapes stress exactly what the friendly trio does not — long idle
/// runs inside an epoch, many flows slamming one window, equal-total flows
/// fighting for heavy slots, and (paced, at `k = 7`) full retained stores
/// choosing between coefficients of equal energy, where the oracle's
/// optimal-k-term-error check is the independent judge of the selector's
/// tie-break.
#[test]
fn eight_seeds_across_adversarial_workloads_and_variants() {
    let mut failures = Vec::new();
    let mut light_epochs = 0;
    let mut flow_epochs = 0;
    for seed in 0..8 {
        for kind in StreamKind::ADVERSARIAL {
            let mut cfg = DiffConfig::quick(kind);
            for batch_burst in [None, Some(257)] {
                cfg.batch_burst = batch_burst;
                match diff_run(seed, &cfg) {
                    Ok(stats) => {
                        light_epochs += stats.light_epochs;
                        flow_epochs += stats.flow_epochs;
                    }
                    Err(e) => failures.push(format!("{e} (batch burst {batch_burst:?})")),
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        light_epochs > 100,
        "suspiciously low coverage: {light_epochs}"
    );
    assert!(
        flow_epochs > 100,
        "suspiciously low coverage: {flow_epochs}"
    );
}

/// The collection plane under adversarial traffic *and* a hostile fault mix:
/// every fault class at once (drop, duplicate, reorder, truncate, ACK loss)
/// at rates above the tier-1 sweep, healed by bounded retransmission, for 8
/// fixed seeds per adversarial kind.
#[test]
fn collection_plane_survives_hostile_faults_on_adversarial_streams() {
    use umon::FaultSpec;

    let mut failures = Vec::new();
    let mut reports = 0;
    let mut retransmissions = 0;
    for seed in 0..8 {
        for kind in StreamKind::ADVERSARIAL {
            let mut cfg = CollectionDiffConfig::quick(kind);
            // Every envelope fault class at once, summing to 1.0 — the
            // hardest mix FaultSpec::validate admits — plus heavy ACK loss.
            cfg.recovery_faults = FaultSpec {
                drop: 0.3,
                duplicate: 0.25,
                reorder: 0.25,
                truncate: 0.2,
                ack_drop: 0.3,
            };
            cfg.recovery_ticks = 10_000;
            match collection_diff_run(seed, &cfg) {
                Ok(stats) => {
                    reports += stats.reports;
                    retransmissions += stats.retransmissions;
                }
                Err(e) => failures.push(e.to_string()),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        reports > 100,
        "suspiciously low coverage: {reports} reports"
    );
    assert!(
        retransmissions > 0,
        "hostile mix never forced a retransmission"
    );
}

/// End-to-end scenario replay: simulate a matrix scenario (failure schedule
/// included), then re-drive each host's egress records through a real host
/// agent and hold every uploaded period report to per-period oracles.
#[test]
fn scenario_matrix_records_replay_into_validated_period_reports() {
    use umon_workloads::scenario_matrix;

    let scenarios = scenario_matrix(0xD1FF, true);
    let storm = scenarios
        .iter()
        .find(|s| s.name == "pfc_storm")
        .expect("matrix has pfc_storm");
    let topo = umon_netsim::Topology::fat_tree(4, 100.0, 1000);
    let config = umon_netsim::SimConfig {
        end_ns: storm.end_ns,
        seed: 0xD1FF,
        clock_error_ns: 0,
        pfc: Some(umon_netsim::PfcConfig {
            xoff_bytes: 300 * 1024,
            xon_bytes: 200 * 1024,
        }),
        failures: storm.failures.clone(),
        ..umon_netsim::SimConfig::default()
    };
    let result = umon_netsim::Simulator::new(topo, storm.flows.clone(), config).run();
    let records = &result.telemetry.tx_records;
    assert!(!records.is_empty(), "scenario produced no egress records");

    let agent_cfg = umon::HostAgentConfig {
        sketch: SketchConfig::builder()
            .rows(3)
            .width(32)
            .levels(4)
            .topk(16)
            .max_windows(128)
            .heavy_rows(16)
            .build(),
        period_ns: 2_000_000,
        window_shift: 13,
    };
    let hosts: std::collections::BTreeSet<usize> = records.iter().map(|r| r.host).collect();
    let mut replayed = 0;
    for host in hosts {
        let stats = replay_host_records(records, host, &agent_cfg)
            .unwrap_or_else(|e| panic!("host {host} replay failed: {e}"));
        replayed += stats.records;
        assert!(stats.periods > 0, "host {host} uploaded nothing");
    }
    assert_eq!(
        replayed,
        records.len(),
        "every record must be replayed once"
    );
}

/// Drain-fixture gate: the drain of every golden scenario must equal the
/// committed fixture under `tests/golden/` in content — every bucket, every
/// epoch field exactly, the retained details as a set (both sides through
/// `umon_testkit::golden::canonical`; the order a selector emits its
/// retained coefficients in is unspecified). A fixture is regenerated only
/// for an intentional, documented change of content — `golden_gen` leaves
/// files whose content still matches untouched, and DESIGN.md §8 records
/// every re-record and its bridge. CI also runs `golden_gen --check`.
#[test]
fn drains_match_golden_fixtures_in_content() {
    use umon_testkit::golden::{canonical, golden_drain, golden_fixture_name, GOLDEN_SEEDS};
    use wavesketch::SketchReport;

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for seed in GOLDEN_SEEDS {
        let path = dir.join(golden_fixture_name(seed));
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        let fixture: SketchReport = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("unreadable fixture {}: {e}", path.display()));
        let (fresh, fixture) = (canonical(golden_drain(seed)), canonical(fixture));
        assert_eq!(
            fresh.heavy, fixture.heavy,
            "seed {seed}: heavy-part drain diverged from the fixture"
        );
        assert_eq!(
            fresh.light, fixture.light,
            "seed {seed}: light-part drain diverged from the fixture"
        );
    }
}
