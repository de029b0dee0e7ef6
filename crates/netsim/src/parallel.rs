//! Conservative parallel discrete-event execution: the topology is sharded
//! into logical processes ([`crate::partition`]), each running a private
//! [`Simulator`] over its own nodes, queues, CC state and event queue, and
//! the processes advance in barrier-synchronized windows.
//!
//! ## Synchronization protocol
//!
//! Classic conservative (Chandy–Misra–Bryant-style) windowing with a global
//! barrier instead of per-channel null messages:
//!
//! 1. Every partition publishes the timestamp of its earliest pending event
//!    and waits at a barrier.
//! 2. Each computes the global floor `F` = min over those timestamps. All
//!    partitions compute the same `F` (the inputs cannot change while any
//!    thread is still between the two barriers).
//! 3. Each dispatches every local event with `time < F + L`, where `L` is
//!    the lookahead — the minimum link latency over cut links. Events bound
//!    for a remote partition are buffered, not sent immediately.
//! 4. Outbound buffers are flushed into per-destination mailboxes; a second
//!    barrier makes them visible; each partition drains its own mailbox into
//!    its event queue and the round repeats.
//!
//! Safety: an event dispatched in the window has `time ≥ F`, and anything it
//! schedules across a cut link is delayed by that link's latency `≥ L`, so
//! remote work created during the window lands at `time ≥ F + L` — strictly
//! after the window every receiver is processing. No partition can receive
//! an event "in its past".
//!
//! ## Determinism
//!
//! Event priorities are `(creator_counter << NODE_BITS) | creator_node`
//! (see [`crate::sim`] module docs): a creator's counter depends only on its
//! own dispatch sequence, so priorities — and therefore the `(time, prio)`
//! dispatch order — are identical in sequential and parallel runs. Telemetry
//! records are tagged with the `(time, prio)` of the dispatch that produced
//! them and merged by a stable sort, reproducing the sequential record order
//! byte for byte. The merged [`SimResult`] is bit-identical to
//! [`Simulator::run`] for any seed and any partition count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use crate::partition::{PartitionError, PartitionPlan};
use crate::sim::{FlowSpec, FlowStats, OutboundEvent, SimConfig, SimResult, Simulator};
use crate::telemetry::{QueueLengthDist, TapTags, Telemetry};
use crate::topology::Topology;

/// Runs the simulation partitioned across `num_partitions` OS threads and
/// returns a result bit-identical to `Simulator::new(topo, flows,
/// config).run()`.
///
/// Partitioning follows the topology's locality zones (one per fat-tree pod
/// plus one for the core layer; dumbbell halves). `num_partitions == 1`
/// validates the plan, then runs sequentially on the calling thread.
///
/// # Errors
///
/// [`PartitionError::ZeroLookahead`] if a cut link has zero latency (the
/// conservative window would never advance past a single timestamp), and
/// [`PartitionError::NoPartitions`] for `num_partitions == 0`.
pub fn run_parallel(
    topo: Topology,
    flows: Vec<FlowSpec>,
    config: SimConfig,
    num_partitions: usize,
) -> Result<SimResult, PartitionError> {
    let plan = PartitionPlan::new(&topo, num_partitions)?;
    if num_partitions == 1 {
        return Ok(Simulator::new(topo, flows, config).run());
    }
    let p = plan.num_partitions;
    let plan = Arc::new(plan);
    let topo = Arc::new(topo);
    let lookahead = plan.lookahead_ns;
    let end_ns = config.end_ns;

    let barrier = Barrier::new(p);
    let next_times: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(u64::MAX)).collect();
    let last_times: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
    let mailboxes: Vec<Mutex<Vec<OutboundEvent>>> =
        (0..p).map(|_| Mutex::new(Vec::new())).collect();

    let parts: Vec<(SimResult, TapTags)> = thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|id| {
                let topo = Arc::clone(&topo);
                let plan = Arc::clone(&plan);
                let flows = flows.clone();
                let config = config.clone();
                let barrier = &barrier;
                let next_times = &next_times;
                let last_times = &last_times;
                let mailboxes = &mailboxes;
                s.spawn(move || {
                    let mut sim = Simulator::new_partition(topo, flows, config, plan, id);
                    sim.seed_initial_events();
                    let floor_at_break;
                    loop {
                        next_times[id]
                            .store(sim.next_event_time().unwrap_or(u64::MAX), Ordering::Relaxed);
                        barrier.wait();
                        let floor = next_times
                            .iter()
                            .map(|t| t.load(Ordering::Relaxed))
                            .min()
                            .expect("at least one partition");
                        if floor == u64::MAX || floor > end_ns {
                            floor_at_break = floor;
                            break;
                        }
                        sim.process_window(floor.saturating_add(lookahead));
                        sim.flush_outbound(mailboxes);
                        barrier.wait();
                        let mut batch =
                            std::mem::take(&mut *mailboxes[id].lock().expect("mailbox"));
                        sim.deliver(&mut batch);
                    }
                    // Global end time: if events remained past `end_ns`, the
                    // sequential run clamps to `end_ns`; otherwise it stops
                    // at the last dispatched event — the max across
                    // partitions.
                    last_times[id].store(sim.last_dispatch_time(), Ordering::Relaxed);
                    barrier.wait();
                    let global_end = if floor_at_break != u64::MAX {
                        end_ns
                    } else {
                        last_times
                            .iter()
                            .map(|t| t.load(Ordering::Relaxed))
                            .max()
                            .expect("at least one partition")
                    };
                    sim.finish_partition(global_end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition thread panicked"))
            .collect()
    });

    Ok(merge_results(&plan, parts))
}

/// One tap's worth of per-partition output: the `(now, prio)` dispatch tags
/// alongside the records they label, one pair per partition.
type TaggedParts<T> = Vec<(Vec<(u64, u64)>, Vec<T>)>;

/// Stable-sorts tagged records from all partitions into global dispatch
/// order. Records sharing a tag were born inside the same dispatch (hence
/// the same partition) and keep their relative order.
fn merge_tagged<T>(parts: TaggedParts<T>) -> Vec<T> {
    let mut all: Vec<((u64, u64), T)> = Vec::new();
    for (tags, records) in parts {
        debug_assert_eq!(tags.len(), records.len(), "tag/record count mismatch");
        all.extend(tags.into_iter().zip(records));
    }
    all.sort_by_key(|&(tag, _)| tag);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Reassembles the global [`SimResult`] from per-partition results,
/// reproducing exactly what the sequential simulator would have built.
fn merge_results(plan: &PartitionPlan, parts: Vec<(SimResult, TapTags)>) -> SimResult {
    let mut telemetry = Telemetry::default();
    let mut tx = Vec::new();
    let mut mirror = Vec::new();
    let mut episodes_run = Vec::new();
    let mut episodes_finish = Vec::new();
    let mut pause = Vec::new();
    let mut link = Vec::new();
    let mut drop = Vec::new();
    let mut burst = Vec::new();
    let mut queue_dist: Option<QueueLengthDist> = None;
    let mut events_processed = 0u64;
    let mut per_part_flows: Vec<Vec<FlowStats>> = Vec::with_capacity(parts.len());
    let mut clocks = None;
    let mut end_ns = 0u64;

    for (idx, (result, tags)) in parts.into_iter().enumerate() {
        let SimResult {
            telemetry: t,
            flows,
            clocks: c,
            end_ns: e,
            events_processed: n,
        } = result;
        if idx == 0 {
            clocks = Some(c);
            end_ns = e;
        }
        tx.push((tags.tx, t.tx_records));
        mirror.push((tags.mirror, t.mirror_candidates));
        // The episode vector is run-phase records (tagged, in dispatch
        // order) followed by the finish-phase flush of still-open episodes.
        let mut eps = t.episodes;
        let flushed = eps.split_off(tags.episode.len());
        episodes_run.push((tags.episode, eps));
        episodes_finish.extend(flushed);
        pause.push((tags.pause, t.pause_records));
        link.push((tags.link, t.link_records));
        drop.push((tags.drop, t.drop_records));
        burst.push((tags.burst, t.burst_records));
        if let Some(d) = t.queue_dist {
            match queue_dist.as_mut() {
                Some(acc) => acc.merge(&d),
                None => queue_dist = Some(d),
            }
        }
        telemetry.drops += t.drops;
        telemetry.random_losses += t.random_losses;
        telemetry.link_losses += t.link_losses;
        telemetry.delivered_bytes += t.delivered_bytes;
        telemetry.injected_bytes += t.injected_bytes;
        events_processed += n;
        per_part_flows.push(flows);
    }

    telemetry.tx_records = merge_tagged(tx);
    telemetry.mirror_candidates = merge_tagged(mirror);
    telemetry.pause_records = merge_tagged(pause);
    telemetry.link_records = merge_tagged(link);
    telemetry.drop_records = merge_tagged(drop);
    telemetry.burst_records = merge_tagged(burst);
    // Sequential finish flushes open episodes in (switch, port) order after
    // the last dispatch; each (switch, port) flushes at most once.
    telemetry.episodes = merge_tagged(episodes_run);
    episodes_finish.sort_by_key(|e| (e.switch, e.port));
    telemetry.episodes.extend(episodes_finish);
    telemetry.queue_dist = queue_dist;

    // A flow's sender-side state lives in the partition owning its source
    // host, the receiver side in the one owning its destination.
    let num_flows = per_part_flows.first().map_or(0, Vec::len);
    let flows = (0..num_flows)
        .map(|i| {
            let spec = per_part_flows[0][i].spec;
            let src_side = &per_part_flows[plan.owner(spec.src)][i];
            let dst_side = &per_part_flows[plan.owner(spec.dst)][i];
            FlowStats {
                spec,
                sent_bytes: src_side.sent_bytes,
                delivered_bytes: dst_side.delivered_bytes,
                packets_sent: src_side.packets_sent,
                fct_ns: dst_side.fct_ns,
            }
        })
        .collect();

    SimResult {
        telemetry,
        flows,
        clocks: clocks.expect("at least one partition"),
        end_ns,
        events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{FailureEvent, FailureSchedule};
    use crate::packet::FlowId;
    use crate::sim::{CongestionControl, PfcConfig};

    fn quick_config() -> SimConfig {
        SimConfig {
            end_ns: 10_000_000,
            clock_error_ns: 0,
            ..SimConfig::default()
        }
    }

    fn fat_tree_flows(n: u64) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: (i % 8) as usize,
                dst: ((i + 8) % 16) as usize,
                size_bytes: 50_000 + i * 1000,
                start_ns: i * 10_000,
                cc: if i % 3 == 0 {
                    CongestionControl::Dctcp
                } else {
                    CongestionControl::Dcqcn
                },
            })
            .collect()
    }

    /// Everything observable must match: every telemetry vector, every
    /// scalar, flow stats, end time and the event count.
    fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
        assert_eq!(a.telemetry.tx_records, b.telemetry.tx_records, "{what}: tx");
        assert_eq!(
            a.telemetry.mirror_candidates, b.telemetry.mirror_candidates,
            "{what}: mirror"
        );
        assert_eq!(
            a.telemetry.episodes, b.telemetry.episodes,
            "{what}: episodes"
        );
        assert_eq!(
            a.telemetry.pause_records, b.telemetry.pause_records,
            "{what}: pause"
        );
        assert_eq!(
            a.telemetry.link_records, b.telemetry.link_records,
            "{what}: link"
        );
        assert_eq!(
            a.telemetry.drop_records, b.telemetry.drop_records,
            "{what}: drop"
        );
        assert_eq!(
            a.telemetry.burst_records, b.telemetry.burst_records,
            "{what}: burst"
        );
        assert_eq!(
            a.telemetry.queue_dist.as_ref().map(|d| &d.weight_ns),
            b.telemetry.queue_dist.as_ref().map(|d| &d.weight_ns),
            "{what}: queue dist"
        );
        assert_eq!(a.telemetry.drops, b.telemetry.drops, "{what}: drops");
        assert_eq!(
            a.telemetry.random_losses, b.telemetry.random_losses,
            "{what}: random losses"
        );
        assert_eq!(
            a.telemetry.link_losses, b.telemetry.link_losses,
            "{what}: link losses"
        );
        assert_eq!(
            a.telemetry.delivered_bytes, b.telemetry.delivered_bytes,
            "{what}: delivered"
        );
        assert_eq!(
            a.telemetry.injected_bytes, b.telemetry.injected_bytes,
            "{what}: injected"
        );
        assert_eq!(a.flows, b.flows, "{what}: flows");
        assert_eq!(a.end_ns, b.end_ns, "{what}: end");
        assert_eq!(
            a.events_processed, b.events_processed,
            "{what}: event count"
        );
    }

    #[test]
    fn parallel_is_bit_identical_on_fat_tree_for_any_partition_count() {
        let config = quick_config();
        let seq = Simulator::new(
            Topology::fat_tree(4, 100.0, 1000),
            fat_tree_flows(40),
            config.clone(),
        )
        .run();
        for p in [1, 2, 4, 5] {
            let par = run_parallel(
                Topology::fat_tree(4, 100.0, 1000),
                fat_tree_flows(40),
                config.clone(),
                p,
            )
            .unwrap();
            assert_identical(&par, &seq, &format!("{p} partitions"));
        }
        assert!(seq.telemetry.delivered_bytes > 0, "workload must do work");
    }

    /// PFC pause/resume frames crossing a cut link: a cross-pod incast into
    /// host 0 backs queues up through the pod-0 edge and agg layers into the
    /// core, and the core switches XOFF the aggregation switches of the
    /// *sending* pods — partitions 1..3, across the agg↔core cut links.
    #[test]
    fn pfc_pause_frames_crossing_a_cut_link_stay_deterministic() {
        let mk = || {
            // Unthrottled senders in pods 1..3 (hosts 4..16) all into host
            // 0: fixed-rate keeps the pressure on so the PFC cascade reaches
            // the core instead of DCQCN backing off first.
            let flows = (0..6u64)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: 4 + (i as usize % 12),
                    dst: 0,
                    size_bytes: 2_000_000,
                    start_ns: 0,
                    cc: CongestionControl::FixedRate(100.0),
                })
                .collect::<Vec<_>>();
            let config = SimConfig {
                pfc: Some(PfcConfig {
                    xoff_bytes: 32 * 1024,
                    xon_bytes: 16 * 1024,
                }),
                end_ns: 5_000_000,
                clock_error_ns: 0,
                ..SimConfig::default()
            };
            (Topology::fat_tree(4, 100.0, 1000), flows, config)
        };
        let (topo, flows, config) = mk();
        let seq = Simulator::new(topo, flows, config).run();
        // A core switch (32..36) must have paused an aggregation switch of
        // a sending pod (26..32 — pods 1..3, partitions 1..3) for the test
        // to exercise a pause frame on a cut link.
        assert!(
            seq.telemetry
                .pause_records
                .iter()
                .any(|r| (26..32).contains(&r.node) && (32..36).contains(&r.triggered_by)),
            "incast must push PFC across an agg-core cut link"
        );
        let (topo, flows, config) = mk();
        let par = run_parallel(topo, flows, config, 4).unwrap();
        assert_identical(&par, &seq, "pfc across cut");
    }

    /// LinkFlap and PauseStorm failure events targeting the cut link itself:
    /// the flap's two endpoints dispatch in different partitions, and
    /// packets in flight on the failed link are lost deterministically.
    #[test]
    fn failures_on_the_cut_link_stay_deterministic() {
        let mk = || {
            let flows = (0..4)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: (i % 4) as usize,
                    dst: 4 + ((i + 1) % 4) as usize,
                    size_bytes: 500_000,
                    start_ns: i * 5_000,
                    cc: CongestionControl::Dcqcn,
                })
                .collect::<Vec<_>>();
            let config = SimConfig {
                deflect_on_drop: true,
                failures: FailureSchedule {
                    events: vec![
                        // Node 8 port 4 is the left switch's bottleneck port:
                        // the cut link itself flaps...
                        FailureEvent::LinkFlap {
                            node: 8,
                            port: 4,
                            down_ns: 100_000,
                            up_ns: 300_000,
                        },
                        // ...and later suffers a forced pause storm.
                        FailureEvent::PauseStorm {
                            node: 8,
                            port: 4,
                            start_ns: 500_000,
                            cycles: 3,
                            pause_ns: 20_000,
                            gap_ns: 10_000,
                        },
                    ],
                },
                ..quick_config()
            };
            (Topology::dumbbell(4, 100.0, 1000), flows, config)
        };
        let (topo, flows, config) = mk();
        let seq = Simulator::new(topo, flows, config).run();
        assert!(
            !seq.telemetry.link_records.is_empty(),
            "flap must be recorded"
        );
        assert!(
            seq.telemetry.link_records.iter().any(|r| r.node == 9),
            "the far endpoint of the cut link must also flap"
        );
        let (topo, flows, config) = mk();
        let par = run_parallel(topo, flows, config, 2).unwrap();
        assert_identical(&par, &seq, "failures on cut link");
    }

    /// All taps at once — burst capture, deflect-on-drop, random loss,
    /// queue distributions, imperfect clocks — through the full merge path.
    #[test]
    fn every_tap_survives_the_merge_bit_identically() {
        let mk = || {
            let config = SimConfig {
                burst_capture_threshold: Some(16 * 1024),
                deflect_on_drop: true,
                random_loss_probability: 1e-3,
                clock_error_ns: 100,
                switch_buffer_bytes: 200 * 1024,
                end_ns: 5_000_000,
                ..SimConfig::default()
            };
            (
                Topology::fat_tree(4, 100.0, 1000),
                fat_tree_flows(48),
                config,
            )
        };
        let (topo, flows, config) = mk();
        let seq = Simulator::new(topo, flows, config).run();
        assert!(
            seq.telemetry.random_losses > 0,
            "loss injection must trigger for coverage"
        );
        for p in [2, 4] {
            let (topo, flows, config) = mk();
            let par = run_parallel(topo, flows, config, p).unwrap();
            assert_identical(&par, &seq, &format!("all taps, {p} partitions"));
        }
    }

    #[test]
    fn zero_lookahead_cut_is_rejected_with_a_clear_error() {
        let topo = Topology::dumbbell(1, 100.0, 0);
        let err = run_parallel(topo, Vec::new(), quick_config(), 2).unwrap_err();
        assert!(matches!(err, PartitionError::ZeroLookahead { .. }));
        assert!(err.to_string().contains("lookahead"));
        // The same topology runs fine single-partition.
        let topo = Topology::dumbbell(1, 100.0, 0);
        assert!(run_parallel(topo, Vec::new(), quick_config(), 1).is_ok());
    }

    #[test]
    fn empty_event_population_terminates() {
        let r = run_parallel(
            Topology::fat_tree(4, 100.0, 1000),
            Vec::new(),
            quick_config(),
            4,
        )
        .unwrap();
        assert_eq!(r.events_processed, 0);
        assert_eq!(r.end_ns, 0);
    }
}
