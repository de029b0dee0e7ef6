//! The discrete-event simulator: hosts with per-flow pacing (DCQCN) or
//! window clocking (DCTCP), output-queued switches with ECN marking, CNP/ACK
//! feedback and ground-truth telemetry taps.
//!
//! ## Model
//!
//! * Every node (host or switch) owns output ports ([`OutPort`]); a port
//!   serializes its head packet for `size·8/bandwidth` ns, then the packet
//!   propagates `latency_ns` and arrives at the peer node.
//! * Switches route by per-flow ECMP, mark ECN at enqueue (RED between
//!   `kmin`/`kmax`), tail-drop at the buffer limit, and expose every
//!   CE-marked data packet they forward as a [`MirrorCandidate`].
//! * DCQCN flows start at line rate and pace packets at their current rate;
//!   receivers return CNPs for CE-marked packets at most once per
//!   `cnp_interval_ns`. DCTCP flows are ACK-clocked with per-packet ECN echo.
//! * Losses are not retransmitted (the evaluation workloads are ECN-governed
//!   and virtually loss-free; conservation is asserted instead — see the
//!   integration tests).
//!
//! ## Determinism and the priority scheme
//!
//! Every scheduled event carries a priority `(counter << NODE_BITS) |
//! creator`, where `creator` is the node whose event is currently being
//! dispatched and `counter` is that node's private schedule count. The
//! global dispatch order is `(time, prio)` ascending. Because a node's
//! counter depends only on that node's own dispatch sequence — never on how
//! events from *other* nodes interleave — the order is identical whether
//! the simulation runs on one thread or partitioned across many (see
//! [`crate::parallel`]). Randomness follows the same discipline: each node
//! owns a private `ChaCha8` stream, so RED marking and fault-injection
//! draws depend only on that node's packet sequence.

use crate::dcqcn::{DcqcnParams, DcqcnState};
use crate::dctcp::{DctcpParams, DctcpState};
use crate::failure::{FailureEvent, FailureSchedule};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::partition::PartitionPlan;
use crate::queue::{EcnConfig, EnqueueOutcome, OutPort};
use crate::sched::EventQueue;
use crate::telemetry::{
    ClockModel, EpisodeTracker, MirrorCandidate, QueueEpisode, QueueLengthDist, TapTags, Telemetry,
    TxRecord,
};
use crate::topology::{NodeId, PortId, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// Bits of an event priority reserved for the creator node id; the upper
/// bits hold that node's schedule counter (counter-major comparison, node id
/// as the final tie-break). 20 bits ≈ 1M nodes, leaving 44-bit counters.
pub(crate) const NODE_BITS: u32 = 20;

/// A cross-partition event in flight: `(time, prio, event)`.
pub(crate) type OutboundEvent = (u64, u64, Event);

/// Which congestion-control algorithm drives a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CongestionControl {
    /// Rate-based RDMA-style control (RoCEv2 + DCQCN). The default in the
    /// paper's simulations.
    Dcqcn,
    /// Window-based DCTCP-style control (for the TCP use cases).
    Dctcp,
    /// No congestion control: fixed-rate pacing at the given Gbps (used for
    /// on-off background traffic in the testbed-style experiments).
    FixedRate(f64),
}

/// One flow to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Unique flow id.
    pub id: FlowId,
    /// Source host node.
    pub src: NodeId,
    /// Destination host node.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size_bytes: u64,
    /// Start time in ns.
    pub start_ns: u64,
    /// Congestion control.
    pub cc: CongestionControl,
}

/// PFC (priority flow control) configuration for lossless-fabric mode.
///
/// When a switch egress queue exceeds `xoff_bytes`, the switch pauses every
/// neighbor that can feed it; once the queue drains below `xon_bytes`, it
/// resumes them. Pause/resume frames propagate with the link latency, so
/// some headroom above `xoff_bytes` must remain in the buffer (one
/// bandwidth-delay product per upstream port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcConfig {
    /// Queue length that triggers XOFF, bytes.
    pub xoff_bytes: u32,
    /// Queue length that triggers XON, bytes.
    pub xon_bytes: u32,
}

impl Default for PfcConfig {
    fn default() -> Self {
        Self {
            xoff_bytes: 512 * 1024,
            xon_bytes: 384 * 1024,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// ECN marking thresholds applied at every switch port.
    pub ecn: EcnConfig,
    /// Lossless-fabric mode: PFC pause thresholds (`None` = lossy fabric).
    pub pfc: Option<PfcConfig>,
    /// Report dropped data packets in the telemetry (deflect-on-drop, §5).
    pub deflect_on_drop: bool,
    /// Programmable-switch mode (§5): record every data packet enqueued
    /// while the queue is at or above this threshold, with the instantaneous
    /// queue length (ConQuest/BurstRadar-style capture). `None` disables.
    pub burst_capture_threshold: Option<u32>,
    /// Fault injection: probability that a packet arriving at a switch is
    /// lost to a link/ASIC error (independent per packet). Exercises the
    /// monitoring stack's robustness to losses outside congestion.
    pub random_loss_probability: f64,
    /// Switch buffer per port, bytes.
    pub switch_buffer_bytes: u32,
    /// Host NIC buffer, bytes.
    pub host_buffer_bytes: u32,
    /// Host pacing back-pressure watermark: pacing defers while the NIC
    /// queue holds more than this many bytes.
    pub host_watermark_bytes: u32,
    /// MTU (maximum data packet size), bytes.
    pub mtu_bytes: u32,
    /// Hard simulation stop, ns (events beyond are not processed).
    pub end_ns: u64,
    /// DCQCN parameters.
    pub dcqcn: DcqcnParams,
    /// DCTCP parameters.
    pub dctcp: DctcpParams,
    /// RNG seed (ECN marking randomness).
    pub seed: u64,
    /// Per-node residual clock error bound, ns (0 = perfect clocks).
    pub clock_error_ns: i64,
    /// Collect the time-weighted queue-length distribution.
    pub collect_queue_dist: bool,
    /// Scheduled fabric failures (link flaps, forced PFC pause storms).
    /// Empty by default; see [`crate::failure`] for the model.
    pub failures: FailureSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            ecn: EcnConfig::default(),
            pfc: None,
            deflect_on_drop: false,
            burst_capture_threshold: None,
            random_loss_probability: 0.0,
            switch_buffer_bytes: 1600 * 1024,
            host_buffer_bytes: 4 * 1024 * 1024,
            host_watermark_bytes: 2 * 1024 * 1024,
            mtu_bytes: 1000,
            end_ns: 25_000_000, // 25 ms
            dcqcn: DcqcnParams::default(),
            dctcp: DctcpParams::default(),
            seed: 1,
            clock_error_ns: 100,
            collect_queue_dist: true,
            failures: FailureSchedule::none(),
        }
    }
}

/// Per-flow completion statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// The spec this flow ran with.
    pub spec: FlowSpec,
    /// Bytes handed to the NIC.
    pub sent_bytes: u64,
    /// Bytes delivered to the destination.
    pub delivered_bytes: u64,
    /// Data packets sent.
    pub packets_sent: u64,
    /// Completion time (all bytes delivered), ns, if the flow finished.
    pub fct_ns: Option<u64>,
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// All telemetry taps.
    pub telemetry: Telemetry,
    /// Per-flow statistics, in spec order.
    pub flows: Vec<FlowStats>,
    /// The clock model used (for analyzer-side alignment experiments).
    pub clocks: ClockModel,
    /// True time of the last processed event, ns.
    pub end_ns: u64,
    /// Total events dispatched (the denominator of events/sec benchmarks).
    pub events_processed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    FlowStart {
        flow: usize,
    },
    /// Paced send attempt (DCQCN / fixed-rate) or blocked-send retry (DCTCP).
    FlowSend {
        flow: usize,
    },
    /// The head packet of (node, port) finished serializing.
    Departure {
        node: NodeId,
        port: PortId,
    },
    /// A packet arrives at (node, port) after propagation.
    Arrival {
        node: NodeId,
        port: PortId,
        packet: Packet,
    },
    AlphaTimer {
        flow: usize,
        generation: u64,
    },
    RateTimer {
        flow: usize,
        generation: u64,
    },
    /// A PFC pause/resume frame lands at (node, port) after link latency.
    Pause {
        node: NodeId,
        port: PortId,
        on: bool,
        triggered_by: NodeId,
    },
    /// The duplex link at (node, port) changes state (failure injection).
    LinkState {
        node: NodeId,
        port: PortId,
        up: bool,
    },
}

/// Partition-mode context: which logical process this simulator instance
/// is, buffered outbound cross-partition events, and the `(time, prio)`
/// tags the merge step uses to interleave telemetry records into the exact
/// sequential order (see [`crate::parallel`]).
pub(crate) struct PartCtx {
    /// This instance's partition id.
    pub(crate) id: usize,
    /// The shared partition plan (node → partition, lookahead).
    pub(crate) plan: Arc<PartitionPlan>,
    /// Cross-partition events created this window, keyed by destination.
    pub(crate) outbound: Vec<Vec<OutboundEvent>>,
    /// Per-tap dispatch tags, one per telemetry record pushed during the
    /// run phase.
    pub(crate) tags: TapTags,
}

struct FlowRt {
    spec: FlowSpec,
    remaining: u64,
    next_psn: u64,
    sent_bytes: u64,
    delivered: u64,
    packets_sent: u64,
    fct_ns: Option<u64>,
    dcqcn: Option<DcqcnState>,
    dctcp: Option<DctcpState>,
    /// Receiver-side: last CNP emission time.
    last_cnp_ns: Option<u64>,
    /// Receiver-side cumulative delivery frontier (for ACKs).
    rcv_cum: u64,
    /// True while a FlowSend event is in flight (avoids duplicate pacing
    /// chains).
    send_scheduled: bool,
}

/// The simulator. Construct with a topology, flows and a config, then call
/// [`Simulator::run`].
///
/// ```
/// use umon_netsim::{CongestionControl, FlowId, FlowSpec, SimConfig, Simulator, Topology};
///
/// // One 100 kB DCQCN flow across a dumbbell.
/// let topo = Topology::dumbbell(1, 100.0, 1000);
/// let flows = vec![FlowSpec {
///     id: FlowId(0),
///     src: 0,
///     dst: 1,
///     size_bytes: 100_000,
///     start_ns: 0,
///     cc: CongestionControl::Dcqcn,
/// }];
/// let result = Simulator::new(topo, flows, SimConfig::default()).run();
/// assert_eq!(result.flows[0].delivered_bytes, 100_000);
/// assert_eq!(result.telemetry.tx_records.len(), 100); // 100 × 1000 B packets
/// ```
pub struct Simulator {
    topo: Arc<Topology>,
    config: SimConfig,
    clocks: ClockModel,
    /// One private RNG stream per node (RED marking, random-loss draws):
    /// a node's draw sequence depends only on its own dispatch sequence.
    node_rng: Vec<ChaCha8Rng>,
    now: u64,
    /// Per-node schedule counters — the high bits of event priorities.
    sched_count: Vec<u64>,
    /// Owner node of the event currently being dispatched (the creator of
    /// everything scheduled from inside this dispatch).
    cur_node: NodeId,
    /// Priority of the event currently being dispatched (tags telemetry
    /// pushes in partition mode).
    cur_prio: u64,
    events_processed: u64,
    /// One lane per (node, port) ingress, numbered by
    /// `Topology::port_index`: the `Arrival`s and `Pause`s its link
    /// delivers.
    events: EventQueue<Event>,
    /// `ports[node][port]`.
    ports: Vec<Vec<OutPort>>,
    flows: Vec<FlowRt>,
    episode_trackers: Vec<Vec<EpisodeTracker>>,
    queue_dists: Vec<Vec<QueueLengthDist>>,
    /// Per switch-port: true while this queue holds XOFF on its feeders.
    pfc_asserting: Vec<Vec<bool>>,
    /// Per (node, port): true while the attached link is failed.
    link_down: Vec<Vec<bool>>,
    telemetry: Telemetry,
    /// `Some` when this instance is one logical process of a parallel run.
    part: Option<Box<PartCtx>>,
}

impl Simulator {
    /// Builds a simulator over `topo` running `flows`.
    pub fn new(topo: Topology, flows: Vec<FlowSpec>, config: SimConfig) -> Self {
        Self::build(Arc::new(topo), flows, config, None)
    }

    /// Builds one logical process of a parallel run: partition `id` of
    /// `plan`. It seeds and dispatches only events owned by its nodes and
    /// buffers cross-partition events into `PartCtx::outbound`.
    pub(crate) fn new_partition(
        topo: Arc<Topology>,
        flows: Vec<FlowSpec>,
        config: SimConfig,
        plan: Arc<PartitionPlan>,
        id: usize,
    ) -> Self {
        let outbound = vec![Vec::new(); plan.num_partitions];
        let part = PartCtx {
            id,
            plan,
            outbound,
            tags: TapTags::default(),
        };
        Self::build(topo, flows, config, Some(Box::new(part)))
    }

    fn build(
        topo: Arc<Topology>,
        flows: Vec<FlowSpec>,
        config: SimConfig,
        part: Option<Box<PartCtx>>,
    ) -> Self {
        let clocks = if config.clock_error_ns == 0 {
            ClockModel::perfect(topo.num_nodes())
        } else {
            ClockModel::ptp(topo.num_nodes(), config.clock_error_ns, config.seed)
        };
        let owned = |node: NodeId| match &part {
            Some(p) => p.plan.owner(node) == p.id,
            None => true,
        };
        let mut ports = Vec::with_capacity(topo.num_nodes());
        let mut trackers = Vec::with_capacity(topo.num_nodes());
        let mut dists = Vec::with_capacity(topo.num_nodes());
        for node in 0..topo.num_nodes() {
            let n = topo.ports(node);
            if topo.is_host(node) {
                ports.push(vec![OutPort::new(config.host_buffer_bytes, None); n]);
                trackers.push(Vec::new());
                dists.push(Vec::new());
            } else {
                ports.push(vec![
                    OutPort::new(
                        config.switch_buffer_bytes,
                        Some(config.ecn)
                    );
                    n
                ]);
                trackers.push(vec![EpisodeTracker::new(config.ecn.kmin); n]);
                // Queue distributions are the large per-port allocation;
                // a partition only ever observes its own switches.
                dists.push(if config.collect_queue_dist && owned(node) {
                    vec![QueueLengthDist::new(1024); n]
                } else {
                    Vec::new()
                });
            }
        }
        let node_rng = (0..topo.num_nodes())
            .map(|node| {
                ChaCha8Rng::seed_from_u64(splitmix64(
                    config
                        .seed
                        .wrapping_add((node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                ))
            })
            .collect();
        let flow_rts = flows
            .into_iter()
            .map(|spec| FlowRt {
                spec,
                remaining: spec.size_bytes,
                next_psn: 0,
                sent_bytes: 0,
                delivered: 0,
                packets_sent: 0,
                fct_ns: None,
                dcqcn: match spec.cc {
                    CongestionControl::Dcqcn => Some(DcqcnState::new(&config.dcqcn)),
                    _ => None,
                },
                dctcp: match spec.cc {
                    CongestionControl::Dctcp => Some(DctcpState::new(&config.dctcp)),
                    _ => None,
                },
                last_cnp_ns: None,
                rcv_cum: 0,
                send_scheduled: false,
            })
            .collect();
        if let Err(msg) = config.failures.validate(&topo) {
            panic!("invalid failure schedule: {msg}");
        }
        Self {
            config,
            clocks,
            node_rng,
            now: 0,
            sched_count: vec![0; topo.num_nodes()],
            cur_node: 0,
            cur_prio: 0,
            events_processed: 0,
            events: EventQueue::new(topo.total_ports()),
            pfc_asserting: ports.iter().map(|ps| vec![false; ps.len()]).collect(),
            link_down: ports.iter().map(|ps| vec![false; ps.len()]).collect(),
            ports,
            flows: flow_rts,
            episode_trackers: trackers,
            queue_dists: dists,
            telemetry: Telemetry::default(),
            part,
            topo,
        }
    }

    /// The node whose state machine an event belongs to: flow-clocking
    /// events belong to the flow's source host, everything else names its
    /// node explicitly. The owner both dispatches the event and acts as
    /// creator for everything scheduled from inside that dispatch.
    fn event_owner(&self, ev: &Event) -> NodeId {
        match *ev {
            Event::FlowStart { flow }
            | Event::FlowSend { flow }
            | Event::AlphaTimer { flow, .. }
            | Event::RateTimer { flow, .. } => self.flows[flow].spec.src,
            Event::Departure { node, .. }
            | Event::Arrival { node, .. }
            | Event::Pause { node, .. }
            | Event::LinkState { node, .. } => node,
        }
    }

    /// Allocates the next priority for an event created by `creator`.
    fn next_prio(&mut self, creator: NodeId) -> u64 {
        debug_assert!((creator as u64) < (1u64 << NODE_BITS), "node id overflow");
        let c = &mut self.sched_count[creator];
        *c += 1;
        (*c << NODE_BITS) | creator as u64
    }

    /// Schedules `event` from inside a dispatch: the creator is the node
    /// whose event is currently executing. In partition mode, events owned
    /// by a remote partition are buffered outbound instead of queued — the
    /// conservative lookahead guarantees they cannot be due before the
    /// current synchronization window closes.
    fn schedule(&mut self, time: u64, event: Event) {
        let prio = self.next_prio(self.cur_node);
        if let Some(part) = self.part.as_deref() {
            let dest = part.plan.owner(self.event_owner(&event));
            if dest != part.id {
                debug_assert!(
                    matches!(event, Event::Arrival { .. } | Event::Pause { .. }),
                    "only link-delayed events may cross partitions"
                );
                debug_assert!(
                    time >= self.now + part.plan.lookahead_ns,
                    "cross-partition event inside the lookahead window"
                );
                let part = self.part.as_mut().expect("partition mode");
                part.outbound[dest].push((time, prio, event));
                return;
            }
        }
        self.queue(time, prio, event);
    }

    /// Queues a scheduled or delivered event. A link-delayed event joins the
    /// lane of the ingress it lands on: its creator is the link's sender,
    /// whose counter numbers the lane's events in dispatch order and whose
    /// clock never runs back, and the link's latency is fixed, so the lane's
    /// `(time, prio)` strictly increases.
    fn queue(&mut self, time: u64, prio: u64, event: Event) {
        match event {
            Event::Arrival { node, port, .. } | Event::Pause { node, port, .. } => {
                let lane = self.topo.port_index(node, port);
                self.events.push_lane(lane, time, prio, event);
            }
            _ => self.events.push(time, prio, event),
        }
    }

    /// Schedules an event during initialization (failure expansion, flow
    /// starts), before any dispatch: the creator is the event's own owner.
    /// Counters advance identically in every partition — each one iterates
    /// the full init list — but only the owner keeps the event.
    fn schedule_init(&mut self, time: u64, event: Event) {
        let owner = self.event_owner(&event);
        let prio = self.next_prio(owner);
        if let Some(part) = self.part.as_ref() {
            if part.plan.owner(owner) != part.id {
                return;
            }
        }
        self.events.push_init(time, prio, event);
    }

    /// True if this instance owns `node` (always, outside partition mode).
    fn owns(&self, node: NodeId) -> bool {
        match &self.part {
            Some(p) => p.plan.owner(node) == p.id,
            None => true,
        }
    }

    /// Seeds the initial event population: expanded failure schedule plus
    /// one `FlowStart` per flow, sorted once into the queue's initial run.
    pub(crate) fn seed_initial_events(&mut self) {
        self.schedule_failures();
        for f in 0..self.flows.len() {
            let start = self.flows[f].spec.start_ns;
            self.schedule_init(start, Event::FlowStart { flow: f });
        }
        self.events.seal_init();
    }

    /// Runs to completion (event queue empty or `end_ns` reached) and
    /// returns the telemetry and flow statistics.
    pub fn run(mut self) -> SimResult {
        self.seed_initial_events();
        while let Some((time, prio, event)) = self.events.pop() {
            if time > self.config.end_ns {
                self.now = self.config.end_ns;
                break;
            }
            self.now = time;
            self.events_processed += 1;
            self.cur_prio = prio;
            self.cur_node = self.event_owner(&event);
            self.dispatch(event);
        }
        self.finish()
    }

    /// Partition-mode event loop for one synchronization window: dispatches
    /// every local event strictly before `upper` (and never past `end_ns` —
    /// those stay queued, matching the sequential early-exit).
    pub(crate) fn process_window(&mut self, upper: u64) {
        let upper = upper.min(self.config.end_ns.saturating_add(1));
        while let Some(t) = self.events.next_time() {
            if t >= upper {
                break;
            }
            let (time, prio, event) = self.events.pop().expect("peeked nonempty");
            self.now = time;
            self.events_processed += 1;
            self.cur_prio = prio;
            self.cur_node = self.event_owner(&event);
            self.dispatch(event);
        }
    }

    /// Timestamp of this partition's earliest pending event.
    pub(crate) fn next_event_time(&self) -> Option<u64> {
        self.events.next_time()
    }

    /// True time of the last dispatched event.
    pub(crate) fn last_dispatch_time(&self) -> u64 {
        self.now
    }

    /// Moves this window's outbound cross-partition events into the shared
    /// mailboxes (one per destination partition).
    pub(crate) fn flush_outbound(&mut self, mailboxes: &[Mutex<Vec<OutboundEvent>>]) {
        let part = self.part.as_mut().expect("partition mode");
        for (dest, batch) in part.outbound.iter_mut().enumerate() {
            if !batch.is_empty() {
                mailboxes[dest].lock().expect("mailbox").append(batch);
            }
        }
    }

    /// Accepts a batch of cross-partition events delivered at a barrier.
    /// Priorities were assigned by the creators; `(time, prio)` slots them
    /// into exactly the sequential order.
    pub(crate) fn deliver(&mut self, batch: &mut Vec<OutboundEvent>) {
        for (time, prio, event) in batch.drain(..) {
            self.queue(time, prio, event);
        }
    }

    /// Partition-mode finish: close episodes/distributions at the *global*
    /// end time and hand back the per-tap dispatch tags for the merge.
    pub(crate) fn finish_partition(mut self, global_end: u64) -> (SimResult, TapTags) {
        let tags = std::mem::take(&mut self.part.as_mut().expect("partition mode").tags);
        self.now = global_end;
        (self.finish(), tags)
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::FlowStart { flow } => self.on_flow_start(flow),
            Event::FlowSend { flow } => self.on_flow_send(flow),
            Event::Departure { node, port } => self.on_departure(node, port),
            Event::Arrival { node, packet, .. } => self.on_arrival(node, packet),
            Event::AlphaTimer { flow, generation } => self.on_alpha_timer(flow, generation),
            Event::RateTimer { flow, generation } => self.on_rate_timer(flow, generation),
            Event::Pause {
                node,
                port,
                on,
                triggered_by,
            } => self.on_pause(node, port, on, triggered_by),
            Event::LinkState { node, port, up } => self.on_link_state(node, port, up),
        }
    }

    /// Expands the failure schedule into concrete events. Pause storms drive
    /// the ordinary PFC machinery; the paused node itself is recorded as
    /// `triggered_by`, which organic PFC can never produce (a congested
    /// switch pauses its *neighbors*), so injected records stay
    /// distinguishable in the telemetry.
    fn schedule_failures(&mut self) {
        let events = self.config.failures.events.clone();
        for ev in events {
            match ev {
                FailureEvent::LinkFlap {
                    node,
                    port,
                    down_ns,
                    up_ns,
                } => {
                    // A flap changes both endpoints of the duplex link, which
                    // may live in different partitions: expand it into one
                    // LinkState per endpoint, named endpoint first so the
                    // record order matches the pre-split trace.
                    let (peer, peer_port) = self.topo.link_at(node, port).peer(node);
                    for up in [false, true] {
                        let t = if up { up_ns } else { down_ns };
                        self.schedule_init(t, Event::LinkState { node, port, up });
                        self.schedule_init(
                            t,
                            Event::LinkState {
                                node: peer,
                                port: peer_port,
                                up,
                            },
                        );
                    }
                }
                FailureEvent::PauseStorm {
                    node,
                    port,
                    start_ns,
                    cycles,
                    pause_ns,
                    gap_ns,
                } => {
                    for c in 0..cycles as u64 {
                        let t = start_ns + c * (pause_ns + gap_ns);
                        self.schedule_init(
                            t,
                            Event::Pause {
                                node,
                                port,
                                on: true,
                                triggered_by: node,
                            },
                        );
                        self.schedule_init(
                            t + pause_ns,
                            Event::Pause {
                                node,
                                port,
                                on: false,
                                triggered_by: node,
                            },
                        );
                    }
                }
            }
        }
    }

    /// One endpoint of a link flap takes effect (the schedule expands a flap
    /// into one event per endpoint — they may live in different partitions).
    /// On recovery, an endpoint with queued work and an idle, unpaused
    /// serializer restarts it.
    fn on_link_state(&mut self, node: NodeId, port: PortId, up: bool) {
        self.link_down[node][port] = !up;
        if let Some(p) = self.part.as_mut() {
            p.tags.link.push((self.now, self.cur_prio));
        }
        self.telemetry
            .link_records
            .push(crate::telemetry::LinkRecord {
                node,
                port,
                ts_ns: self.now,
                up,
            });
        let prt = &mut self.ports[node][port];
        if up && !prt.busy && !prt.is_paused() && prt.head().is_some() {
            prt.busy = true;
            let head_size = prt.head().expect("checked").size;
            let tx = self.topo.link_at(node, port).tx_time_ns(head_size);
            self.schedule(self.now + tx, Event::Departure { node, port });
        }
    }

    /// A PFC pause/resume frame takes effect at (node, port).
    fn on_pause(&mut self, node: NodeId, port: PortId, on: bool, triggered_by: NodeId) {
        if let Some(p) = self.part.as_mut() {
            p.tags.pause.push((self.now, self.cur_prio));
        }
        self.telemetry
            .pause_records
            .push(crate::telemetry::PauseRecord {
                node,
                port,
                triggered_by,
                ts_ns: self.now,
                on,
            });
        let p = &mut self.ports[node][port];
        if on {
            p.pause_count += 1;
        } else {
            p.pause_count = p.pause_count.saturating_sub(1);
            let down = self.link_down[node][port];
            // Resumed and idle with work queued: restart the serializer
            // (unless the link itself is failed).
            if !down && !p.is_paused() && !p.busy && p.head().is_some() {
                p.busy = true;
                let head_size = p.head().expect("checked").size;
                let tx = self.topo.link_at(node, port).tx_time_ns(head_size);
                self.schedule(self.now + tx, Event::Departure { node, port });
            }
        }
    }

    fn on_flow_start(&mut self, flow: usize) {
        match self.flows[flow].spec.cc {
            CongestionControl::Dcqcn | CongestionControl::FixedRate(_) => {
                let gen = self.flows[flow].dcqcn.as_ref().map(|d| d.generation);
                self.flows[flow].send_scheduled = true;
                self.schedule(self.now, Event::FlowSend { flow });
                if let Some(gen) = gen {
                    let p = self.config.dcqcn;
                    self.schedule(
                        self.now + p.alpha_timer_ns,
                        Event::AlphaTimer {
                            flow,
                            generation: gen,
                        },
                    );
                    self.schedule(
                        self.now + p.rate_timer_ns,
                        Event::RateTimer {
                            flow,
                            generation: gen,
                        },
                    );
                }
            }
            CongestionControl::Dctcp => self.dctcp_try_send(flow),
        }
    }

    /// Paced send path (DCQCN / fixed rate).
    fn on_flow_send(&mut self, flow: usize) {
        self.flows[flow].send_scheduled = false;
        if self.flows[flow].remaining == 0 {
            return;
        }
        let host = self.flows[flow].spec.src;
        // NIC back-pressure: defer pacing while the host queue is deep.
        if self.ports[host][0].qlen_bytes() > self.config.host_watermark_bytes {
            let retry = self.topo.link_at(host, 0).tx_time_ns(self.config.mtu_bytes);
            self.flows[flow].send_scheduled = true;
            self.schedule(self.now + retry, Event::FlowSend { flow });
            return;
        }
        let size = (self.config.mtu_bytes as u64).min(self.flows[flow].remaining) as u32;
        let psn = self.flows[flow].next_psn;
        let spec = self.flows[flow].spec;
        let pkt = Packet::data(spec.id, spec.src, spec.dst, size, psn, self.now);
        self.flows[flow].next_psn += 1;
        self.flows[flow].remaining -= size as u64;
        self.flows[flow].sent_bytes += size as u64;
        self.flows[flow].packets_sent += 1;
        self.host_transmit(host, pkt);

        // DCQCN byte counter.
        let mut byte_trip = false;
        if let Some(d) = self.flows[flow].dcqcn.as_mut() {
            byte_trip = d.on_bytes_sent(size as u64, &self.config.dcqcn);
        }
        if byte_trip {
            if let Some(d) = self.flows[flow].dcqcn.as_mut() {
                d.on_rate_increase(false, &self.config.dcqcn);
            }
        }

        if self.flows[flow].remaining > 0 {
            let delay = match (self.flows[flow].spec.cc, self.flows[flow].dcqcn.as_ref()) {
                (CongestionControl::FixedRate(gbps), _) => {
                    ((size as f64 * 8.0 / gbps).ceil() as u64).max(1)
                }
                (_, Some(d)) => d.pacing_delay_ns(size),
                _ => unreachable!("paced send without rate state"),
            };
            self.flows[flow].send_scheduled = true;
            self.schedule(self.now + delay, Event::FlowSend { flow });
        }
    }

    /// Window-clocked send path (DCTCP).
    fn dctcp_try_send(&mut self, flow: usize) {
        loop {
            if self.flows[flow].remaining == 0 {
                return;
            }
            let host = self.flows[flow].spec.src;
            if self.ports[host][0].qlen_bytes() > self.config.host_watermark_bytes {
                if !self.flows[flow].send_scheduled {
                    let retry = self.topo.link_at(host, 0).tx_time_ns(self.config.mtu_bytes);
                    self.flows[flow].send_scheduled = true;
                    self.schedule(self.now + retry, Event::FlowSend { flow });
                }
                return;
            }
            let Some(st) = self.flows[flow].dctcp.as_mut() else {
                return;
            };
            if st.in_flight_budget() == 0 {
                return;
            }
            let seq = st.next_seq;
            st.on_send(seq);
            let size = (self.config.mtu_bytes as u64).min(self.flows[flow].remaining) as u32;
            let spec = self.flows[flow].spec;
            let pkt = Packet::data(spec.id, spec.src, spec.dst, size, seq, self.now);
            self.flows[flow].next_psn = seq + 1;
            self.flows[flow].remaining -= size as u64;
            self.flows[flow].sent_bytes += size as u64;
            self.flows[flow].packets_sent += 1;
            self.host_transmit(host, pkt);
        }
    }

    /// Puts a packet on the host NIC queue and records the ground-truth
    /// egress tap (data packets only).
    fn host_transmit(&mut self, host: NodeId, pkt: Packet) {
        if pkt.is_data() {
            self.telemetry.injected_bytes += pkt.size as u64;
            if let Some(p) = self.part.as_mut() {
                p.tags.tx.push((self.now, self.cur_prio));
            }
            self.telemetry.tx_records.push(TxRecord {
                host,
                flow: pkt.flow,
                ts_ns: self.clocks.local_time(host, self.now),
                bytes: pkt.size,
            });
        }
        self.enqueue_port(host, 0, pkt);
    }

    /// Enqueues at (node, port) and kicks the serializer if idle.
    fn enqueue_port(&mut self, node: NodeId, port: PortId, pkt: Packet) {
        let (flow, psn, bytes, is_data) = (pkt.flow, pkt.psn, pkt.size, pkt.is_data());
        let outcome = self.ports[node][port].enqueue(pkt, &mut self.node_rng[node]);
        if outcome == EnqueueOutcome::Dropped {
            self.telemetry.drops += 1;
        }
        // μEvent tap: a data packet CE-marked here is a candidate for this
        // switch's ACL mirror rule (§5). The mark is applied (and observed)
        // at the congested egress queue, so the candidate carries this
        // switch's local timestamp and egress port.
        if outcome == EnqueueOutcome::QueuedMarked && is_data && !self.topo.is_host(node) {
            if let Some(p) = self.part.as_mut() {
                p.tags.mirror.push((self.now, self.cur_prio));
            }
            self.telemetry.mirror_candidates.push(MirrorCandidate {
                switch: node,
                port,
                ts_ns: self.clocks.local_time(node, self.now),
                flow,
                psn,
                bytes,
            });
        }
        // Programmable-switch tap: direct queue observation at enqueue.
        if let Some(threshold) = self.config.burst_capture_threshold {
            if outcome != EnqueueOutcome::Dropped && is_data && !self.topo.is_host(node) {
                let qlen = self.ports[node][port].qlen_bytes();
                if qlen >= threshold {
                    if let Some(p) = self.part.as_mut() {
                        p.tags.burst.push((self.now, self.cur_prio));
                    }
                    self.telemetry
                        .burst_records
                        .push(crate::telemetry::BurstRecord {
                            switch: node,
                            port,
                            ts_ns: self.clocks.local_time(node, self.now),
                            flow,
                            qlen_bytes: qlen,
                        });
                }
            }
        }
        if outcome == EnqueueOutcome::Dropped
            && is_data
            && self.config.deflect_on_drop
            && !self.topo.is_host(node)
        {
            if let Some(p) = self.part.as_mut() {
                p.tags.drop.push((self.now, self.cur_prio));
            }
            self.telemetry
                .drop_records
                .push(crate::telemetry::DropRecord {
                    switch: node,
                    port,
                    ts_ns: self.clocks.local_time(node, self.now),
                    flow,
                    psn,
                    bytes,
                });
        }
        self.observe_queue(node, port);
        if outcome != EnqueueOutcome::Dropped
            && !self.ports[node][port].busy
            && !self.ports[node][port].is_paused()
            && !self.link_down[node][port]
        {
            self.ports[node][port].busy = true;
            let head_size = self.ports[node][port].head().expect("just queued").size;
            let tx = self.topo.link_at(node, port).tx_time_ns(head_size);
            self.schedule(self.now + tx, Event::Departure { node, port });
        }
    }

    fn on_departure(&mut self, node: NodeId, port: PortId) {
        let pkt = self.ports[node][port]
            .dequeue()
            .expect("departure from empty port");
        self.observe_queue(node, port);

        // The link failed while this packet was serializing: it is lost on
        // the wire, and the serializer stays idle until link-up restarts it.
        if self.link_down[node][port] {
            self.telemetry.link_losses += 1;
            if pkt.is_data() && self.config.deflect_on_drop && !self.topo.is_host(node) {
                if let Some(p) = self.part.as_mut() {
                    p.tags.drop.push((self.now, self.cur_prio));
                }
                self.telemetry
                    .drop_records
                    .push(crate::telemetry::DropRecord {
                        switch: node,
                        port,
                        ts_ns: self.clocks.local_time(node, self.now),
                        flow: pkt.flow,
                        psn: pkt.psn,
                        bytes: pkt.size,
                    });
            }
            self.ports[node][port].busy = false;
            return;
        }

        let link = *self.topo.link_at(node, port);
        let (peer, peer_port) = link.peer(node);
        self.schedule(
            self.now + link.latency_ns,
            Event::Arrival {
                node: peer,
                port: peer_port,
                packet: pkt,
            },
        );

        // PFC gates the serializer: the transmission that was in flight
        // completes, but no new one starts while paused.
        if self.ports[node][port].is_paused() {
            self.ports[node][port].busy = false;
        } else if let Some(head) = self.ports[node][port].head() {
            let tx = link.tx_time_ns(head.size);
            self.schedule(self.now + tx, Event::Departure { node, port });
        } else {
            self.ports[node][port].busy = false;
        }
    }

    fn on_arrival(&mut self, node: NodeId, pkt: Packet) {
        // Fault injection: random link/ASIC loss at switch ingress.
        if self.config.random_loss_probability > 0.0
            && !self.topo.is_host(node)
            && rand::Rng::gen_bool(
                &mut self.node_rng[node],
                self.config.random_loss_probability,
            )
        {
            self.telemetry.drops += 1;
            self.telemetry.random_losses += 1;
            return;
        }
        if self.topo.is_host(node) {
            self.host_receive(node, pkt);
        } else {
            let port = self
                .topo
                .route(node, pkt.dst, flow_route_hash(pkt.flow, pkt.kind));
            self.enqueue_port(node, port, pkt);
        }
    }

    fn host_receive(&mut self, host: NodeId, pkt: Packet) {
        let flow = self.flow_index(pkt.flow).expect("packet for unknown flow");
        match pkt.kind {
            PacketKind::Data => {
                debug_assert_eq!(pkt.dst, host);
                self.telemetry.delivered_bytes += pkt.size as u64;
                self.flows[flow].delivered += pkt.size as u64;
                if self.flows[flow].fct_ns.is_none()
                    && self.flows[flow].delivered >= self.flows[flow].spec.size_bytes
                {
                    self.flows[flow].fct_ns = Some(self.now);
                }
                match self.flows[flow].spec.cc {
                    CongestionControl::Dcqcn => {
                        if pkt.is_ce() {
                            self.maybe_send_cnp(flow, host, pkt);
                        }
                    }
                    CongestionControl::Dctcp => {
                        // Cumulative frontier tolerant to loss: any arrival
                        // advances the ACK to at least psn+1 (no retransmit
                        // in this model — see module docs).
                        let cum = self.flows[flow].rcv_cum.max(pkt.psn + 1);
                        self.flows[flow].rcv_cum = cum;
                        let spec = self.flows[flow].spec;
                        let ack = Packet::ack(
                            spec.id,
                            spec.dst,
                            spec.src,
                            pkt.psn,
                            cum,
                            pkt.is_ce(),
                            self.now,
                        );
                        self.enqueue_port(host, 0, ack);
                    }
                    CongestionControl::FixedRate(_) => {}
                }
            }
            PacketKind::Cnp => {
                // Reaction point: multiplicative decrease + timer restart.
                let p = self.config.dcqcn;
                if let Some(d) = self.flows[flow].dcqcn.as_mut() {
                    d.on_cnp(&p);
                    let gen = d.generation;
                    self.schedule(
                        self.now + p.alpha_timer_ns,
                        Event::AlphaTimer {
                            flow,
                            generation: gen,
                        },
                    );
                    self.schedule(
                        self.now + p.rate_timer_ns,
                        Event::RateTimer {
                            flow,
                            generation: gen,
                        },
                    );
                }
            }
            PacketKind::Ack { ack_seq, ece } => {
                let p = self.config.dctcp;
                if let Some(st) = self.flows[flow].dctcp.as_mut() {
                    st.on_ack(ack_seq, ece, &p);
                }
                self.dctcp_try_send(flow);
            }
        }
    }

    /// NP-side CNP pacing: at most one CNP per flow per `cnp_interval_ns`.
    fn maybe_send_cnp(&mut self, flow: usize, host: NodeId, pkt: Packet) {
        let interval = self.config.dcqcn.cnp_interval_ns;
        let due = match self.flows[flow].last_cnp_ns {
            None => true,
            Some(last) => self.now >= last + interval,
        };
        if due {
            self.flows[flow].last_cnp_ns = Some(self.now);
            let cnp = Packet::cnp(pkt.flow, host, pkt.src, pkt.psn, self.now);
            self.enqueue_port(host, 0, cnp);
        }
    }

    fn on_alpha_timer(&mut self, flow: usize, generation: u64) {
        let p = self.config.dcqcn;
        let Some(d) = self.flows[flow].dcqcn.as_mut() else {
            return;
        };
        if d.generation != generation {
            return; // superseded by a CNP
        }
        d.on_alpha_timer(&p);
        if self.flows[flow].remaining > 0 {
            self.schedule(
                self.now + p.alpha_timer_ns,
                Event::AlphaTimer { flow, generation },
            );
        }
    }

    fn on_rate_timer(&mut self, flow: usize, generation: u64) {
        let p = self.config.dcqcn;
        let Some(d) = self.flows[flow].dcqcn.as_mut() else {
            return;
        };
        if d.generation != generation {
            return;
        }
        d.on_rate_increase(true, &p);
        if self.flows[flow].remaining > 0 {
            self.schedule(
                self.now + p.rate_timer_ns,
                Event::RateTimer { flow, generation },
            );
        }
    }

    fn observe_queue(&mut self, node: NodeId, port: PortId) {
        if self.topo.is_host(node) {
            return;
        }
        let qlen = self.ports[node][port].qlen_bytes();
        // PFC trigger: XOFF the feeders when this queue crosses the pause
        // threshold, XON once it drains below the resume threshold.
        if let Some(pfc) = self.config.pfc {
            let asserting = self.pfc_asserting[node][port];
            if !asserting && qlen > pfc.xoff_bytes {
                self.pfc_asserting[node][port] = true;
                self.send_pause_frames(node, port, true);
            } else if asserting && qlen < pfc.xon_bytes {
                self.pfc_asserting[node][port] = false;
                self.send_pause_frames(node, port, false);
            }
        }
        if let Some((start, end, max)) = self.episode_trackers[node][port].observe(self.now, qlen) {
            if let Some(p) = self.part.as_mut() {
                p.tags.episode.push((self.now, self.cur_prio));
            }
            self.telemetry.episodes.push(QueueEpisode {
                switch: node,
                port,
                start_ns: start,
                end_ns: end,
                max_qlen: max,
            });
        }
        if self.config.collect_queue_dist {
            self.queue_dists[node][port].observe(self.now, qlen);
        }
    }

    /// Sends XOFF/XON frames from the switch whose queue (node, port) is
    /// congested to every neighbor that can feed that queue (all ports
    /// except the congested egress itself).
    fn send_pause_frames(&mut self, node: NodeId, congested_port: PortId, on: bool) {
        for q in 0..self.topo.ports(node) {
            if q == congested_port {
                continue;
            }
            let link = *self.topo.link_at(node, q);
            let (peer, peer_port) = link.peer(node);
            self.schedule(
                self.now + link.latency_ns,
                Event::Pause {
                    node: peer,
                    port: peer_port,
                    on,
                    triggered_by: node,
                },
            );
        }
    }

    fn flow_index(&self, id: FlowId) -> Option<usize> {
        // Flow ids are dense in the workloads; fall back to scan otherwise.
        let guess = id.0 as usize;
        if guess < self.flows.len() && self.flows[guess].spec.id == id {
            return Some(guess);
        }
        self.flows.iter().position(|f| f.spec.id == id)
    }

    fn finish(mut self) -> SimResult {
        // Close open episodes and the queue distribution. In partition mode
        // only owned switches carry state (and only they have dists
        // allocated); the merge reassembles the global picture.
        for node in self.topo.num_hosts..self.topo.num_nodes() {
            if !self.owns(node) {
                continue;
            }
            for port in 0..self.topo.ports(node) {
                if let Some((start, end, max)) = self.episode_trackers[node][port].flush(self.now) {
                    self.telemetry.episodes.push(QueueEpisode {
                        switch: node,
                        port,
                        start_ns: start,
                        end_ns: end,
                        max_qlen: max,
                    });
                }
            }
        }
        if self.config.collect_queue_dist {
            let mut merged = QueueLengthDist::new(1024);
            for node in self.topo.num_hosts..self.topo.num_nodes() {
                if !self.owns(node) {
                    continue;
                }
                for port in 0..self.topo.ports(node) {
                    self.queue_dists[node][port].finish(self.now);
                    merged.merge(&self.queue_dists[node][port]);
                }
            }
            self.telemetry.queue_dist = Some(merged);
        }
        // Account drops recorded inside ports too (host ports may drop),
        // plus the injected random losses.
        let port_drops: u64 = self
            .ports
            .iter()
            .flat_map(|ps| ps.iter().map(|p| p.drops))
            .sum();
        self.telemetry.drops =
            port_drops + self.telemetry.random_losses + self.telemetry.link_losses;

        let flows = self
            .flows
            .iter()
            .map(|f| FlowStats {
                spec: f.spec,
                sent_bytes: f.sent_bytes,
                delivered_bytes: f.delivered,
                packets_sent: f.packets_sent,
                fct_ns: f.fct_ns,
            })
            .collect();
        SimResult {
            telemetry: self.telemetry,
            flows,
            clocks: self.clocks,
            end_ns: self.now,
            events_processed: self.events_processed,
        }
    }
}

/// ECMP hash: control packets reverse-route on their own hash so CNPs/ACKs
/// need not share the data path.
fn flow_route_hash(flow: FlowId, kind: PacketKind) -> u64 {
    let tag = match kind {
        PacketKind::Data => 0u64,
        PacketKind::Cnp => 1,
        PacketKind::Ack { .. } => 2,
    };
    splitmix64(flow.0 ^ (tag << 61))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimConfig {
        SimConfig {
            end_ns: 10_000_000,
            clock_error_ns: 0,
            ..SimConfig::default()
        }
    }

    fn one_flow(size: u64, cc: CongestionControl) -> Vec<FlowSpec> {
        vec![FlowSpec {
            id: FlowId(0),
            src: 0,
            dst: 1,
            size_bytes: size,
            start_ns: 0,
            cc,
        }]
    }

    #[test]
    fn single_dcqcn_flow_completes_and_conserves_bytes() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let r = Simulator::new(
            topo,
            one_flow(1_000_000, CongestionControl::Dcqcn),
            quick_config(),
        )
        .run();
        let f = &r.flows[0];
        assert_eq!(f.sent_bytes, 1_000_000);
        assert_eq!(f.delivered_bytes, 1_000_000);
        assert!(f.fct_ns.is_some());
        assert_eq!(r.telemetry.drops, 0);
        assert_eq!(r.telemetry.injected_bytes, r.telemetry.delivered_bytes);
    }

    #[test]
    fn flow_completion_time_is_sane_for_line_rate() {
        // 1 MB at 100 Gbps ≈ 80 μs serialization + ~4 hops propagation.
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let r = Simulator::new(
            topo,
            one_flow(1_000_000, CongestionControl::Dcqcn),
            quick_config(),
        )
        .run();
        let fct = r.flows[0].fct_ns.unwrap();
        assert!(fct > 80_000, "fct {fct} faster than line rate");
        assert!(fct < 200_000, "fct {fct} too slow for an uncontended path");
    }

    #[test]
    fn two_flows_share_bottleneck_and_get_marked() {
        let topo = Topology::dumbbell(2, 100.0, 1000);
        let flows = vec![
            FlowSpec {
                id: FlowId(0),
                src: 0,
                dst: 2,
                size_bytes: 4_000_000,
                start_ns: 0,
                cc: CongestionControl::Dcqcn,
            },
            FlowSpec {
                id: FlowId(1),
                src: 1,
                dst: 3,
                size_bytes: 4_000_000,
                start_ns: 0,
                cc: CongestionControl::Dcqcn,
            },
        ];
        let r = Simulator::new(topo, flows, quick_config()).run();
        // Two line-rate flows into one 100G link must congest the bottleneck
        // queue past kmin, yielding CE marks and at least one episode.
        assert!(
            !r.telemetry.mirror_candidates.is_empty(),
            "bottleneck must CE-mark packets"
        );
        assert!(!r.telemetry.episodes.is_empty(), "episode must be recorded");
        // And DCQCN must eventually deliver everything.
        for f in &r.flows {
            assert_eq!(f.delivered_bytes, 4_000_000, "flow {:?}", f.spec.id);
        }
        // Conservation: injected = delivered + dropped bytes (all data here
        // since no losses are retransmitted).
        assert_eq!(
            r.telemetry.injected_bytes,
            r.telemetry.delivered_bytes
                + r.flows
                    .iter()
                    .map(|f| f.sent_bytes - f.delivered_bytes)
                    .sum::<u64>()
        );
    }

    #[test]
    fn dctcp_flow_completes() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let r = Simulator::new(
            topo,
            one_flow(500_000, CongestionControl::Dctcp),
            quick_config(),
        )
        .run();
        assert_eq!(r.flows[0].delivered_bytes, 500_000);
        assert!(r.flows[0].fct_ns.is_some());
    }

    #[test]
    fn fixed_rate_flow_paces_at_requested_rate() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let r = Simulator::new(
            topo,
            one_flow(1_000_000, CongestionControl::FixedRate(10.0)),
            quick_config(),
        )
        .run();
        // 1 MB at 10 Gbps = 800 μs.
        let fct = r.flows[0].fct_ns.unwrap();
        assert!(fct > 780_000 && fct < 900_000, "fct {fct}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let flows = |n: u64| -> Vec<FlowSpec> {
            (0..n)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: (i % 8) as usize,
                    dst: ((i + 8) % 16) as usize,
                    size_bytes: 50_000 + i * 1000,
                    start_ns: i * 10_000,
                    cc: CongestionControl::Dcqcn,
                })
                .collect()
        };
        let run = || {
            let topo = Topology::fat_tree(4, 100.0, 1000);
            Simulator::new(topo, flows(40), quick_config()).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.telemetry.tx_records.len(), b.telemetry.tx_records.len());
        assert_eq!(a.telemetry.tx_records, b.telemetry.tx_records);
        assert_eq!(a.telemetry.mirror_candidates, b.telemetry.mirror_candidates);
        assert_eq!(a.telemetry.episodes, b.telemetry.episodes);
    }

    #[test]
    fn fat_tree_cross_pod_traffic_flows() {
        let topo = Topology::fat_tree(4, 100.0, 1000);
        let flows = vec![FlowSpec {
            id: FlowId(0),
            src: 0,
            dst: 15,
            size_bytes: 200_000,
            start_ns: 0,
            cc: CongestionControl::Dcqcn,
        }];
        let r = Simulator::new(topo, flows, quick_config()).run();
        assert_eq!(r.flows[0].delivered_bytes, 200_000);
        // Cross-pod RTT floor: 6 hops ≈ 6 μs one way.
        assert!(r.flows[0].fct_ns.unwrap() > 6 * 1000);
    }

    #[test]
    fn cnp_feedback_reduces_sender_rate() {
        // Heavy incast onto one receiver: all senders must be backed off
        // from line rate by CNPs, so the flows take much longer than the
        // no-contention serialization time.
        let topo = Topology::dumbbell(4, 100.0, 1000);
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: i as usize,
                dst: 4, // all into the first receiver
                size_bytes: 2_000_000,
                start_ns: 0,
                cc: CongestionControl::Dcqcn,
            })
            .collect();
        let mut config = quick_config();
        config.end_ns = 50_000_000;
        let r = Simulator::new(topo, flows, config).run();
        // The initial line-rate burst may overflow the buffer before CNPs
        // land (no retransmission in this model), but the vast majority of
        // bytes must arrive, every byte must be accounted for, and the
        // transfer must be far slower than uncontended line rate.
        let mut last_delivery = 0u64;
        for f in &r.flows {
            assert_eq!(f.sent_bytes, 2_000_000);
            assert!(
                f.delivered_bytes >= 1_800_000,
                "flow {:?} delivered only {}",
                f.spec.id,
                f.delivered_bytes
            );
            last_delivery = last_delivery.max(f.fct_ns.unwrap_or(r.end_ns));
        }
        // 8 MB over one 100 G link ≥ 640 μs even at perfect sharing.
        assert!(
            last_delivery > 600_000,
            "finished implausibly fast: {last_delivery}"
        );
        assert!(!r.telemetry.mirror_candidates.is_empty());
        // Conservation: injected = delivered + dropped bytes.
        let dropped: u64 = r.telemetry.injected_bytes - r.telemetry.delivered_bytes;
        assert_eq!(
            dropped,
            r.flows
                .iter()
                .map(|f| f.sent_bytes - f.delivered_bytes)
                .sum::<u64>()
        );
    }

    #[test]
    fn tx_records_cover_all_data_packets() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let r = Simulator::new(
            topo,
            one_flow(100_000, CongestionControl::Dcqcn),
            quick_config(),
        )
        .run();
        assert_eq!(r.telemetry.tx_records.len() as u64, r.flows[0].packets_sent);
        let bytes: u64 = r.telemetry.tx_records.iter().map(|t| t.bytes as u64).sum();
        assert_eq!(bytes, 100_000);
    }

    #[test]
    fn mtu_partitioning_last_packet_is_remainder() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let r = Simulator::new(
            topo,
            one_flow(2500, CongestionControl::Dcqcn),
            quick_config(),
        )
        .run();
        let sizes: Vec<u32> = r.telemetry.tx_records.iter().map(|t| t.bytes).collect();
        assert_eq!(sizes, vec![1000, 1000, 500]);
    }

    #[test]
    fn clock_error_shifts_tx_timestamps() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let mut config = quick_config();
        config.clock_error_ns = 500;
        let r = Simulator::new(topo, one_flow(10_000, CongestionControl::Dcqcn), config).run();
        let offset = r.clocks.offset(0);
        assert!(offset.abs() <= 500);
    }

    #[test]
    fn pfc_makes_the_fabric_lossless() {
        // A 4:1 incast with a small switch buffer: without PFC this drops,
        // with PFC the pauses push the backlog to the senders instead.
        let incast = |pfc: Option<PfcConfig>| {
            let topo = Topology::dumbbell(4, 100.0, 1000);
            let flows: Vec<FlowSpec> = (0..4)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: i as usize,
                    dst: 4,
                    size_bytes: 1_500_000,
                    start_ns: 0,
                    cc: CongestionControl::Dcqcn,
                })
                .collect();
            let config = SimConfig {
                switch_buffer_bytes: 800 * 1024,
                pfc,
                end_ns: 50_000_000,
                clock_error_ns: 0,
                ..SimConfig::default()
            };
            Simulator::new(topo, flows, config).run()
        };
        let lossy = incast(None);
        assert!(
            lossy.telemetry.drops > 0,
            "small buffer must drop without PFC"
        );
        let lossless = incast(Some(PfcConfig {
            xoff_bytes: 400 * 1024,
            xon_bytes: 300 * 1024,
        }));
        assert_eq!(lossless.telemetry.drops, 0, "PFC fabric must not drop");
        assert!(
            !lossless.telemetry.pause_records.is_empty(),
            "pauses must have fired"
        );
        // Every byte still arrives (pauses only delay).
        for f in &lossless.flows {
            assert_eq!(f.delivered_bytes, 1_500_000, "flow {:?}", f.spec.id);
        }
        // XOFFs and XONs balance out (no port left paused forever).
        let on = lossless
            .telemetry
            .pause_records
            .iter()
            .filter(|p| p.on)
            .count();
        let off = lossless
            .telemetry
            .pause_records
            .iter()
            .filter(|p| !p.on)
            .count();
        assert_eq!(on, off, "every XOFF must be resumed");
    }

    #[test]
    fn pause_records_identify_the_congested_switch() {
        let topo = Topology::dumbbell(2, 100.0, 1000);
        let flows: Vec<FlowSpec> = (0..2)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: i as usize,
                dst: 2,
                size_bytes: 2_000_000,
                start_ns: 0,
                cc: CongestionControl::FixedRate(100.0), // no backoff → sustained pressure
            })
            .collect();
        let config = SimConfig {
            pfc: Some(PfcConfig {
                xoff_bytes: 100 * 1024,
                xon_bytes: 50 * 1024,
            }),
            end_ns: 50_000_000,
            clock_error_ns: 0,
            ..SimConfig::default()
        };
        let r = Simulator::new(topo, flows, config).run();
        assert!(!r.telemetry.pause_records.is_empty());
        // The bottleneck is switch 4's downlink queue (2:1 into one 100 G
        // receiver port): it must appear as a trigger.
        assert!(
            r.telemetry
                .pause_records
                .iter()
                .any(|p| p.triggered_by == 4),
            "the receiving-side switch must assert PFC"
        );
        assert_eq!(r.telemetry.drops, 0);
    }

    #[test]
    fn cnp_generation_respects_the_np_interval() {
        // Force heavy marking: two fixed-rate flows swamp one receiver so
        // nearly every packet is CE-marked; the NP must still emit at most
        // one CNP per flow per cnp_interval_ns.
        let topo = Topology::dumbbell(2, 100.0, 1000);
        let flows: Vec<FlowSpec> = (0..2)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: i as usize,
                dst: 2,
                size_bytes: 3_000_000,
                start_ns: 0,
                cc: CongestionControl::Dcqcn,
            })
            .collect();
        let mut config = quick_config();
        config.end_ns = 30_000_000;
        let r = Simulator::new(topo, flows, config).run();
        // Upper bound on CNPs: one per flow per interval over the active
        // span (plus one initial per flow).
        let span = r.end_ns;
        let interval = DcqcnParams::default().cnp_interval_ns;
        let bound = 2 * (span / interval + 2);
        // CNPs are not in the telemetry directly; infer from rate state —
        // instead check the marking volume is large while flows still
        // finish (pacing worked) in bounded time.
        assert!(
            r.telemetry.mirror_candidates.len() as u64 > bound,
            "the scenario must mark far more packets than CNPs allowed"
        );
        for f in &r.flows {
            assert_eq!(f.delivered_bytes, 3_000_000);
        }
    }

    #[test]
    fn host_watermark_defers_rather_than_drops() {
        // 16 line-rate flows from one host: the aggregate pacing far
        // exceeds the NIC, so the watermark must defer sends; the host
        // buffer never overflows and nothing is lost at the host.
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let flows: Vec<FlowSpec> = (0..16)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: 0,
                dst: 1,
                size_bytes: 500_000,
                start_ns: 0,
                cc: CongestionControl::FixedRate(100.0),
            })
            .collect();
        let mut config = quick_config();
        config.end_ns = 100_000_000;
        let r = Simulator::new(topo, flows, config).run();
        assert_eq!(r.telemetry.drops, 0, "backpressure must prevent host drops");
        for f in &r.flows {
            assert_eq!(f.delivered_bytes, 500_000, "flow {:?}", f.spec.id);
        }
        // 8 MB over a 100 G NIC needs ≥ 640 μs — deferral must show up as
        // serialized completion, not parallel line-rate magic.
        let last = r.flows.iter().map(|f| f.fct_ns.unwrap()).max().unwrap();
        assert!(last > 600_000, "fct {last} too fast for a shared NIC");
    }

    #[test]
    fn random_loss_fault_injection_keeps_accounting_consistent() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let mut config = quick_config();
        config.random_loss_probability = 0.01;
        let r = Simulator::new(topo, one_flow(2_000_000, CongestionControl::Dcqcn), config).run();
        // ~1% of ~2000 packets × 2 switch hops should be lost.
        assert!(r.telemetry.random_losses > 0, "injected losses must occur");
        assert_eq!(
            r.telemetry.drops, r.telemetry.random_losses,
            "no buffer overflows on an uncontended path"
        );
        // Conservation: sent = delivered + lost (data bytes only; losses
        // include some control packets, so compare at the flow level).
        let f = &r.flows[0];
        assert_eq!(f.sent_bytes, 2_000_000);
        assert!(f.delivered_bytes < f.sent_bytes);
        assert!(
            f.delivered_bytes > 1_800_000,
            "1% loss cannot eat 10% of bytes"
        );
    }

    #[test]
    fn deflect_on_drop_reports_lost_packets() {
        let topo = Topology::dumbbell(4, 100.0, 1000);
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: i as usize,
                dst: 4,
                size_bytes: 2_000_000,
                start_ns: 0,
                cc: CongestionControl::FixedRate(100.0),
            })
            .collect();
        let config = SimConfig {
            switch_buffer_bytes: 300 * 1024,
            deflect_on_drop: true,
            end_ns: 20_000_000,
            clock_error_ns: 0,
            ..SimConfig::default()
        };
        let r = Simulator::new(topo, flows, config).run();
        assert!(r.telemetry.drops > 0);
        assert_eq!(
            r.telemetry.drop_records.len() as u64,
            r.telemetry.drops,
            "every switch drop must be reported"
        );
        // Drop records carry enough context to identify victims.
        let victims: std::collections::HashSet<u64> =
            r.telemetry.drop_records.iter().map(|d| d.flow.0).collect();
        assert!(!victims.is_empty());
    }

    #[test]
    fn link_flap_stalls_traffic_and_recovers() {
        // One fixed-rate flow across a dumbbell; the bottleneck link flaps
        // for 1 ms mid-transfer. The flow must still finish (after the
        // outage), any packet serialized onto the dead link is lost, and the
        // accounting stays consistent.
        let run = |failures: FailureSchedule| {
            let topo = Topology::dumbbell(1, 100.0, 1000);
            // The bottleneck link is (switch 2, last port) <-> (switch 3, _):
            // flap it via the left switch's inter-switch port.
            let config = SimConfig {
                end_ns: 20_000_000,
                clock_error_ns: 0,
                failures,
                ..SimConfig::default()
            };
            Simulator::new(
                topo,
                one_flow(2_000_000, CongestionControl::FixedRate(50.0)),
                config,
            )
            .run()
        };
        let clean = run(FailureSchedule::none());
        assert_eq!(clean.telemetry.link_losses, 0);
        assert!(clean.telemetry.link_records.is_empty());

        let mut failures = FailureSchedule::none();
        // Switch 2 (left) port 1 is the bottleneck (port 0 is host 0's).
        failures.events.push(FailureEvent::LinkFlap {
            node: 2,
            port: 1,
            down_ns: 100_000,
            up_ns: 1_100_000,
        });
        let flapped = run(failures);
        assert_eq!(
            flapped.telemetry.link_records.len(),
            4,
            "2 changes × 2 ends"
        );
        assert!(
            flapped.telemetry.link_losses <= 1,
            "at most the in-flight packet dies"
        );
        // Everything not lost on the wire still arrives (losses are never
        // retransmitted in this model), just later: the last delivery is
        // pushed past the outage window.
        assert_eq!(
            flapped.telemetry.delivered_bytes,
            2_000_000 - flapped.telemetry.link_losses * 1000
        );
        assert!(
            flapped.end_ns >= clean.end_ns + 600_000,
            "outage must delay the last delivery: {} vs {}",
            flapped.end_ns,
            clean.end_ns
        );
    }

    #[test]
    fn injected_pause_storm_uses_the_pfc_machinery() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let mut failures = FailureSchedule::none();
        failures.events.push(FailureEvent::PauseStorm {
            node: 2,
            port: 1,
            start_ns: 50_000,
            cycles: 5,
            pause_ns: 20_000,
            gap_ns: 10_000,
        });
        let config = SimConfig {
            end_ns: 20_000_000,
            clock_error_ns: 0,
            failures,
            ..SimConfig::default()
        };
        let r = Simulator::new(
            topo,
            one_flow(1_000_000, CongestionControl::FixedRate(50.0)),
            config,
        )
        .run();
        // 5 XOFF + 5 XON, all self-triggered (the injection marker).
        assert_eq!(r.telemetry.pause_records.len(), 10);
        assert!(r
            .telemetry
            .pause_records
            .iter()
            .all(|p| p.triggered_by == p.node));
        let xoffs = r.telemetry.pause_records.iter().filter(|p| p.on).count();
        assert_eq!(xoffs, 5);
        // Lossless: pauses delay but never drop.
        assert_eq!(r.telemetry.drops, 0);
        assert_eq!(r.flows[0].delivered_bytes, 1_000_000);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let run = || {
            let topo = Topology::fat_tree(4, 100.0, 1000);
            let mut failures = FailureSchedule::none();
            // Flap an edge→agg uplink and storm a different agg's downlink
            // (distinct physical links — same-link overlap is rejected).
            failures.events.push(FailureEvent::LinkFlap {
                node: 16,
                port: 2,
                down_ns: 200_000,
                up_ns: 700_000,
            });
            failures.events.push(FailureEvent::PauseStorm {
                node: 25,
                port: 0,
                start_ns: 300_000,
                cycles: 8,
                pause_ns: 15_000,
                gap_ns: 5_000,
            });
            let flows: Vec<FlowSpec> = (0..24)
                .map(|i| FlowSpec {
                    id: FlowId(i),
                    src: (i % 8) as usize,
                    dst: ((i + 8) % 16) as usize,
                    size_bytes: 80_000 + i * 777,
                    start_ns: i * 7_000,
                    cc: if i % 2 == 0 {
                        CongestionControl::Dcqcn
                    } else {
                        CongestionControl::Dctcp
                    },
                })
                .collect();
            let config = SimConfig {
                end_ns: 10_000_000,
                clock_error_ns: 0,
                failures,
                ..SimConfig::default()
            };
            Simulator::new(topo, flows, config).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.telemetry.tx_records, b.telemetry.tx_records);
        assert_eq!(a.telemetry.link_records, b.telemetry.link_records);
        assert_eq!(a.telemetry.pause_records, b.telemetry.pause_records);
        assert_eq!(a.telemetry.link_losses, b.telemetry.link_losses);
        assert_eq!(a.events_processed, b.events_processed);
        assert!(!a.telemetry.link_records.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid failure schedule")]
    fn overlapping_failures_are_rejected_at_construction() {
        let topo = Topology::dumbbell(1, 100.0, 1000);
        let mut failures = FailureSchedule::none();
        failures.events.push(FailureEvent::LinkFlap {
            node: 2,
            port: 1,
            down_ns: 0,
            up_ns: 100,
        });
        failures.events.push(FailureEvent::LinkFlap {
            node: 3,
            port: 1,
            down_ns: 50,
            up_ns: 150,
        });
        let config = SimConfig {
            failures,
            ..SimConfig::default()
        };
        let _ = Simulator::new(topo, Vec::new(), config);
    }

    #[test]
    fn queue_dist_collected_when_enabled() {
        let topo = Topology::dumbbell(2, 100.0, 1000);
        let flows = vec![
            FlowSpec {
                id: FlowId(0),
                src: 0,
                dst: 2,
                size_bytes: 1_000_000,
                start_ns: 0,
                cc: CongestionControl::Dcqcn,
            },
            FlowSpec {
                id: FlowId(1),
                src: 1,
                dst: 2,
                size_bytes: 1_000_000,
                start_ns: 0,
                cc: CongestionControl::Dcqcn,
            },
        ];
        let r = Simulator::new(topo, flows, quick_config()).run();
        let dist = r.telemetry.queue_dist.expect("enabled by default");
        assert!(
            dist.fraction_at_or_above(1024) > 0.0,
            "some queueing must occur"
        );
    }
}
