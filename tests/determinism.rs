//! Reproducibility: every layer of the stack must be bit-deterministic in
//! its seed — the property that makes every figure regenerable.

use umon_repro::umon::{Analyzer, HostAgent, HostAgentConfig, SwitchAgent, SwitchAgentConfig};
use umon_repro::umon_netsim::{SimConfig, Simulator, Topology};
use umon_repro::umon_workloads::{WorkloadKind, WorkloadParams};

fn pipeline(seed: u64) -> (usize, usize, Vec<(usize, u16, u64)>) {
    let params = WorkloadParams {
        duration_ns: 3_000_000,
        ..WorkloadParams::paper(WorkloadKind::Hadoop, 0.25, seed)
    };
    let flows = params.generate();
    let topo = Topology::fat_tree(4, 100.0, 1000);
    let config = SimConfig {
        end_ns: 5_000_000,
        seed,
        ..SimConfig::default()
    };
    let result = Simulator::new(topo, flows, config).run();

    let agent_cfg = HostAgentConfig::default();
    let mut analyzer = Analyzer::new(agent_cfg.sketch.clone());
    let mut report_bytes = 0usize;
    for host in 0..16 {
        let mut agent = HostAgent::new(host, agent_cfg.clone());
        agent.ingest(&result.telemetry.tx_records);
        let reports = agent.finish();
        report_bytes += reports.iter().map(|r| r.wire_bytes()).sum::<usize>();
        analyzer.add_reports(reports);
    }
    for switch in 16..36 {
        let mut agent = SwitchAgent::new(switch, SwitchAgentConfig::default());
        agent.ingest(&result.telemetry.mirror_candidates);
        analyzer.add_mirrors(agent.drain());
    }
    let events: Vec<(usize, u16, u64)> = analyzer
        .cluster_events(50_000)
        .into_iter()
        .map(|e| (e.switch, e.vlan, e.start_ns))
        .collect();
    (report_bytes, result.telemetry.tx_records.len(), events)
}

#[test]
fn same_seed_reproduces_everything() {
    let a = pipeline(77);
    let b = pipeline(77);
    assert_eq!(a.0, b.0, "report bytes must match");
    assert_eq!(a.1, b.1, "packet counts must match");
    assert_eq!(a.2, b.2, "detected events must match");
}

#[test]
fn different_seeds_differ() {
    let a = pipeline(77);
    let b = pipeline(78);
    // Different seed → different workload → different packet count with
    // overwhelming probability.
    assert_ne!(a.1, b.1);
}

mod pinned_trace {
    //! One sequential netsim run whose full trace is pinned by digest: a
    //! change to the simulator's event order that moves any record, any
    //! timestamp or any counter changes these bytes. `sim_equivalence`
    //! compares parallel runs with the sequential one of the same build, so
    //! it cannot see an order change that moves both alike; this can.

    use umon_repro::umon_netsim::trace::write_full_trace;
    use umon_repro::umon_netsim::{
        CongestionControl, FailureEvent, FailureSchedule, FlowId, FlowSpec, PfcConfig, SimConfig,
        SimResult, Simulator, Topology,
    };

    /// A k = 4 fat-tree carrying DCQCN and DCTCP flows (every third one
    /// into an incast on host 15), PFC on with low thresholds, one flap of
    /// the edge(0, 0) ↔ agg(0, 0) link, drop deflection and burst capture.
    fn pinned_run() -> SimResult {
        let topo = Topology::fat_tree(4, 100.0, 1000);
        let flows: Vec<FlowSpec> = (0..64u64)
            .map(|i| {
                let src = (i % 16) as usize;
                let dst = match (i % 3, src) {
                    (0, 15) => 14,
                    (0, _) => 15,
                    _ => (src + 5 + i as usize / 16) % 16,
                };
                FlowSpec {
                    id: FlowId(i),
                    src,
                    dst,
                    size_bytes: 20_000 + (i * 7_919) % 150_000,
                    start_ns: i * 500,
                    cc: if i % 2 == 0 {
                        CongestionControl::Dcqcn
                    } else {
                        CongestionControl::Dctcp
                    },
                }
            })
            .collect();
        let mut failures = FailureSchedule::none();
        failures.events.push(FailureEvent::LinkFlap {
            node: 16,
            port: 2,
            down_ns: 30_000,
            up_ns: 130_000,
        });
        let config = SimConfig {
            pfc: Some(PfcConfig {
                xoff_bytes: 100_000,
                xon_bytes: 60_000,
            }),
            deflect_on_drop: true,
            burst_capture_threshold: Some(30_000),
            end_ns: 3_000_000,
            seed: 11,
            failures,
            ..SimConfig::default()
        };
        Simulator::new(topo, flows, config).run()
    }

    /// FNV-1a 64: fixed by its definition, unlike std's hasher.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn sequential_fat_tree_trace_matches_its_pinned_digest() {
        let r = pinned_run();
        let t = &r.telemetry;
        let mut bytes = Vec::new();
        write_full_trace(&mut bytes, t).expect("Vec<u8> writes are infallible");
        let counts = [
            r.events_processed as usize,
            t.tx_records.len(),
            t.mirror_candidates.len(),
            t.pause_records.len(),
            t.link_records.len(),
            t.drop_records.len(),
            t.burst_records.len(),
            t.episodes.len(),
        ];
        assert_eq!(
            counts,
            [97_875, 5_576, 16, 198, 4, 0, 7_111, 53],
            "events, tx, ce, pause, link, drop, burst, episodes"
        );
        let digest = fnv1a64(&bytes);
        assert_eq!(
            digest, 0x28c8_d303_85dc_42a1,
            "full-trace digest {digest:#018x}"
        );
    }
}

mod scenario_generators {
    //! Property tests for the adversarial scenario layer: conservation,
    //! permutation validity, failure non-overlap and bit-identical reruns,
    //! swept over many seeds.

    use umon_repro::umon_netsim::{CongestionControl, Topology};
    use umon_repro::umon_workloads::{
        allreduce, failure_plan, incast_storm, scenario_matrix, AllreduceConfig, AllreducePattern,
        FailurePlanConfig, IncastStormConfig,
    };

    #[test]
    fn incast_storms_conserve_bytes_across_seeds() {
        for seed in 0..16 {
            let cfg = IncastStormConfig::paper(seed, CongestionControl::Dcqcn);
            let flows = incast_storm(0, &cfg);
            let total: u64 = flows.iter().map(|f| f.size_bytes).sum();
            assert_eq!(
                total,
                cfg.total_bytes(),
                "seed {seed}: storm bytes not conserved"
            );
            assert_eq!(flows.len(), cfg.rounds * cfg.fan_in);
            assert!(flows
                .iter()
                .all(|f| f.src != f.dst && f.src < 16 && f.dst < 16));
            // Dense, collision-free flow ids.
            for (i, f) in flows.iter().enumerate() {
                assert_eq!(f.id.0, i as u64, "seed {seed}: ids must be dense");
            }
        }
    }

    #[test]
    fn allreduce_steps_are_fixed_point_free_permutations_across_seeds() {
        for seed in 0..16 {
            for pattern in [AllreducePattern::Ring, AllreducePattern::ShiftPermutation] {
                let cfg = AllreduceConfig {
                    pattern,
                    ..AllreduceConfig::paper(seed, CongestionControl::Dctcp)
                };
                let flows = allreduce(0, &cfg);
                for step in 0..cfg.steps {
                    let sf = &flows[step * cfg.num_hosts..(step + 1) * cfg.num_hosts];
                    let mut dst_of = vec![None; cfg.num_hosts];
                    for f in sf {
                        assert_ne!(f.src, f.dst, "seed {seed} step {step}: fixed point");
                        assert!(
                            dst_of[f.src].replace(f.dst).is_none(),
                            "seed {seed} step {step}: host {} sends twice",
                            f.src
                        );
                    }
                    let hit: std::collections::BTreeSet<usize> =
                        dst_of.iter().map(|d| d.unwrap()).collect();
                    assert_eq!(
                        hit.len(),
                        cfg.num_hosts,
                        "seed {seed} step {step}: not a permutation"
                    );
                }
            }
        }
    }

    #[test]
    fn failure_plans_never_overlap_on_a_physical_link_across_seeds() {
        let topo = Topology::fat_tree(4, 100.0, 1000);
        for seed in 0..32 {
            let plan = failure_plan(&topo, &FailurePlanConfig::paper(seed));
            plan.validate(&topo)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Host access links are never failed.
            for ev in &plan.events {
                let (node, _) = ev.endpoint();
                assert!(!topo.is_host(node), "seed {seed}: failed a host link");
            }
        }
    }

    #[test]
    fn the_whole_matrix_reruns_bit_identically() {
        for smoke in [false, true] {
            let a = scenario_matrix(0xBEEF, smoke);
            let b = scenario_matrix(0xBEEF, smoke);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.flows, y.flows, "{}: flows differ across reruns", x.name);
                assert_eq!(
                    x.failures, y.failures,
                    "{}: failure schedule differs across reruns",
                    x.name
                );
                assert_eq!(x.end_ns, y.end_ns);
            }
        }
    }
}
