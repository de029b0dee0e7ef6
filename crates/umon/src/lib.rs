#![warn(missing_docs)]

//! # umon — the μMon system: μFlow host agents, μEvent switch agents and
//! the network-wide analyzer
//!
//! Ties the WaveSketch measurement core to the simulated data center:
//!
//! * [`host_agent`] — runs a full WaveSketch per host over the host's egress
//!   packet stream, draining an uploadable report every measurement period
//!   and accounting the report bandwidth (§3, §4; the "~5 Mbps per host" of
//!   §7.1).
//! * [`switch_agent`] — the μEvent capture of §5: an ACL rule matching
//!   CE-marked packets, PSN low-bit sampling at `1/2^w`, and remote
//!   mirroring with per-port VLAN tags and switch-local timestamps.
//! * [`analyzer`] — network-wide synchronized analysis (§6): collects host
//!   reports and mirrored packets, clusters mirrors into congestion events,
//!   reconstructs flow-rate curves, and replays events by joining the two.
//! * [`collector`] — the report collection plane: sequence-numbered,
//!   checksummed envelopes over a fault-injectable transport, host-side
//!   bounded retransmission and analyzer-side dedup / gap detection /
//!   quarantine, so loss degrades coverage instead of corrupting curves.
//! * [`usecases`] — the §6.2 analyses: underutilization gap detection and
//!   congestion-control convergence/fairness checks.

pub mod analyzer;
pub mod archive;
mod cold;
pub mod collector;
pub mod events;
pub mod host_agent;
pub mod pswitch;
mod query_index;
pub mod retention;
pub mod seqwin;
pub mod switch_agent;
pub mod usecases;

pub use analyzer::{
    Analyzer, AnnotatedCurve, DetectedEvent, EventMatchStats, IngestStats, PeriodCoverage,
    RecoveryStats,
};
pub use archive::{ArchiveScan, PeriodArchive, SegLoc, TornTail};
pub use collector::{
    BackfillRequest, Collector, CollectorStats, Envelope, FaultLog, FaultSpec, FaultyTransport,
    HostUplink, PerfectTransport, RetransmitPolicy, Transport,
};
pub use events::{loss_events, pause_storms, LossEvent, PauseStorm};
pub use host_agent::{HostAgent, HostAgentConfig, PeriodReport};
pub use pswitch::{PSwitchAgent, PSwitchConfig, PSwitchEvent};
pub use query_index::QueryScratch;
pub use retention::{ResidencySnapshot, RetentionPolicy, RetentionStats};
pub use seqwin::SeqWindow;
pub use switch_agent::{MirrorBatch, MirroredPacket, SamplerField, SwitchAgent, SwitchAgentConfig};
pub use usecases::{classify_event_role, fairness_index, find_gaps, EventRole, GapReport};
