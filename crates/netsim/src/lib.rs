#![warn(missing_docs)]

//! # umon-netsim — deterministic packet-level data-center network simulator
//!
//! The evaluation substrate for the μMon reproduction (the paper used NS-3,
//! §7 Setup): a discrete-event, packet-level simulator of a data-center
//! fabric with
//!
//! * fat-tree and dumbbell topologies ([`topology`]),
//! * output-queued switches with RED/ECN marking at DCQCN thresholds
//!   ([`queue`]),
//! * DCQCN rate-based congestion control with CNP feedback ([`dcqcn`]) and a
//!   DCTCP-style window-based variant ([`dctcp`]),
//! * per-flow pacing hosts ([`sim`]), and
//! * ground-truth telemetry taps ([`telemetry`]): per-flow egress byte
//!   counts per microsecond window, CE-marked packet records (the μEvent
//!   mirror candidates), queue-length episodes and time-weighted queue
//!   distributions.
//!
//! Everything is seeded and deterministic: the same [`sim::SimConfig`] and
//! flow list reproduce the same packet trace bit-for-bit — on one thread or
//! many: [`parallel::run_parallel`] shards the topology into logical
//! processes (one per fat-tree pod plus the core, [`partition`]) under
//! conservative lookahead sync and produces bit-identical results to
//! [`sim::Simulator::run`] for any seed and partition count.
//!
//! The sequential simulator is synchronous and event-driven — a CPU-bound
//! workload with no blocking I/O, hence no async runtime (see DESIGN.md §5);
//! the parallel runner uses scoped OS threads with parking barriers, not an
//! async runtime, for the same reason.

pub mod dcqcn;
pub mod dctcp;
pub mod failure;
pub mod packet;
pub mod parallel;
pub mod partition;
pub mod queue;
pub mod sched;
pub mod sim;
pub mod telemetry;
pub mod topology;
pub mod trace;

pub use failure::{FailureEvent, FailureSchedule};
pub use packet::{EcnCodepoint, FlowId, Packet, PacketKind};
pub use parallel::run_parallel;
pub use partition::{PartitionError, PartitionPlan};
pub use queue::{EcnConfig, OutPort};
pub use sim::{CongestionControl, FlowSpec, PfcConfig, SimConfig, SimResult, Simulator};
pub use telemetry::{
    BurstRecord, ClockModel, DropRecord, LinkRecord, MirrorCandidate, PauseRecord, QueueEpisode,
    Telemetry, TxRecord,
};
pub use topology::{NodeId, PortId, Topology};
