//! The report collection plane: how period reports actually travel from
//! host agents to the analyzer, and what happens when the network loses,
//! duplicates, reorders or corrupts them.
//!
//! The earlier pipeline hand-delivered `Vec<PeriodReport>` by function call,
//! which silently assumed a perfect network. This module makes the transport
//! explicit and hostile-by-default:
//!
//! * [`Envelope`] — a sequence-numbered, checksummed wrapper around one
//!   [`PeriodReport`], sealed by the sender so the collector can detect
//!   truncation and tampering without trusting the transport. The seal is
//!   [`digest`] over the report's whole [`PeriodReport::encode`] bytes, so
//!   it covers period, host and config fingerprint as well as the sketch.
//! * [`Transport`] — the uplink abstraction: report envelopes flow up,
//!   per-sequence ACKs flow back down. [`PerfectTransport`] is the lossless
//!   reference; [`FaultyTransport`] injects seeded, per-host drop /
//!   duplicate / reorder / truncate faults and logs exactly what it did, so
//!   tests can assert collector counters against ground truth.
//! * [`HostUplink`] — the host-side send buffer: bounded retransmit queue,
//!   ACK-driven release, exponential backoff. Memory is capped by
//!   [`RetransmitPolicy::capacity`]; when the network outlives the buffer,
//!   the oldest unacknowledged report is evicted and counted, never silently
//!   wedged. It holds one copy of each report: the first send moves the
//!   report onto the wire, retransmissions decode its kept encoding.
//! * [`Collector`] — the analyzer-side ingest: verifies envelope integrity,
//!   dedups by `(host, seq)`, detects sequence gaps, quarantines damage
//!   behind counters instead of panicking, and keeps the analyzer's
//!   [`known-lost`](crate::Analyzer::set_known_lost) coverage in sync.
//!   Verifying encodes the received report into one reused buffer; those
//!   verified bytes, under the digest just checked, are what the archive
//!   writes, so a report crosses the plane with one encode and one digest
//!   on each side.
//!
//! Degradation contract: whatever the transport does, the collector never
//! panics, never double-counts a report, and every accepted curve is built
//! only from intact reports — loss shows up as missing coverage, not as
//! corrupted data.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use crate::analyzer::Analyzer;
use crate::host_agent::PeriodReport;
use crate::seqwin::SeqWindow;
use wavesketch::report::digest;

/// A sequence-numbered, checksummed report in flight.
///
/// The sequence number is per-host and assigned by the sending
/// [`HostUplink`]; the checksum and declared epoch count are sealed over the
/// payload so the receiver can tell a truncated or bit-flipped report from
/// an intact one without any transport-level guarantees.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Envelope {
    /// Per-host upload sequence number (0, 1, 2, … in submit order).
    pub seq: u64,
    /// Epoch count of the payload at seal time.
    pub declared_epochs: usize,
    /// [`digest`] of the report's [`PeriodReport::encode`] bytes at seal
    /// time — the same value the archive stores as the record checksum.
    pub checksum: u64,
    /// `Some(n)`: this envelope is an end-of-stream sentinel declaring that
    /// the sender has assigned sequence numbers `0..n`. Without it a
    /// *trailing* drop is invisible — a gap only shows once something newer
    /// arrives — so the uplink sends one each tick and the collector folds
    /// the declaration into its gap detection. Sentinels carry an empty
    /// report, are never ACKed, and never reach the analyzer.
    pub fin: Option<u64>,
    /// The report being carried.
    pub report: PeriodReport,
}

impl Envelope {
    /// Seals `report` under sequence number `seq`: encodes it and digests
    /// the encoding. (The uplink digests the encoding it already holds.)
    pub fn seal(seq: u64, report: PeriodReport) -> Self {
        Self {
            seq,
            declared_epochs: report.report.epoch_count(),
            checksum: digest(&report.encode()),
            fin: None,
            report,
        }
    }

    /// An end-of-stream sentinel for `host`, declaring `submitted` assigned
    /// sequence numbers. Sealed over an empty payload so in-flight damage
    /// is still detectable (a damaged sentinel is dropped silently — the
    /// next tick sends a fresh one).
    pub fn fin(host: usize, submitted: u64) -> Self {
        let report = PeriodReport {
            period: 0,
            host,
            config_fingerprint: 0,
            report: wavesketch::SketchReport::default(),
        };
        let mut env = Self::seal(submitted, report);
        env.fin = Some(submitted);
        env
    }

    /// True if the payload still matches what the sender sealed. Encodes
    /// the report into `buf` (cleared first; a warm buffer makes this
    /// allocation-free) and compares its digest with the seal; on `true`,
    /// `buf` holds the verified [`PeriodReport::encode`] bytes.
    pub fn verify(&self, buf: &mut Vec<u8>) -> bool {
        if self.report.report.epoch_count() != self.declared_epochs {
            return false;
        }
        buf.clear();
        self.report.encode_into(buf);
        digest(buf) == self.checksum
    }

    /// The reporting host (shorthand for `self.report.host`).
    pub fn host(&self) -> usize {
        self.report.host
    }
}

/// The collection-plane link: envelopes up, ACKs down.
///
/// `send`/`deliver` move report envelopes from hosts to the collector;
/// `ack`/`deliver_acks` move per-sequence acknowledgements back. A transport
/// may drop, duplicate, reorder or damage envelopes and may drop ACKs; it
/// must not fabricate envelopes it was never given.
pub trait Transport {
    /// Hands one envelope to the network.
    fn send(&mut self, env: Envelope);
    /// Takes every envelope the network chose to deliver since the last
    /// call (order is the network's choice).
    fn deliver(&mut self) -> Vec<Envelope>;
    /// Sends an ACK for `(host, seq)` back toward the host.
    fn ack(&mut self, host: usize, seq: u64);
    /// Takes the ACKs that reached `host` since the last call.
    fn deliver_acks(&mut self, host: usize) -> Vec<u64>;
}

/// The lossless reference transport: delivers everything, in order, exactly
/// once. The differential baseline every faulty run is compared against.
#[derive(Debug, Default)]
pub struct PerfectTransport {
    queue: VecDeque<Envelope>,
    acks: HashMap<usize, Vec<u64>>,
}

impl PerfectTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for PerfectTransport {
    fn send(&mut self, env: Envelope) {
        self.queue.push_back(env);
    }

    fn deliver(&mut self) -> Vec<Envelope> {
        self.queue.drain(..).collect()
    }

    fn ack(&mut self, host: usize, seq: u64) {
        self.acks.entry(host).or_default().push(seq);
    }

    fn deliver_acks(&mut self, host: usize) -> Vec<u64> {
        self.acks.remove(&host).unwrap_or_default()
    }
}

/// Per-host fault rates for [`FaultyTransport`], each in `[0, 1]`.
///
/// The four envelope faults are mutually exclusive per send (one roll
/// decides), so `drop + duplicate + reorder + truncate` must not exceed 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability an envelope vanishes.
    pub drop: f64,
    /// Probability an envelope is delivered twice.
    pub duplicate: f64,
    /// Probability an envelope is held back and delivered after later sends.
    pub reorder: f64,
    /// Probability an envelope loses part of its payload in flight (the
    /// sealed checksum goes stale, so the collector can detect it).
    pub truncate: f64,
    /// Probability an ACK vanishes on the way back.
    pub ack_drop: f64,
}

impl FaultSpec {
    /// A spec that injects no faults at all.
    pub const NONE: FaultSpec = FaultSpec {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        truncate: 0.0,
        ack_drop: 0.0,
    };

    fn validate(&self) {
        let sum = self.drop + self.duplicate + self.reorder + self.truncate;
        assert!(
            (0.0..=1.0).contains(&sum) && (0.0..=1.0).contains(&self.ack_drop),
            "fault rates must be probabilities with envelope faults summing ≤ 1, got {self:?}"
        );
    }
}

/// What a [`FaultyTransport`] actually did to one host's envelopes — ground
/// truth for asserting collector counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Envelopes handed to `send`.
    pub sent: u64,
    /// Envelopes dropped.
    pub dropped: u64,
    /// Envelopes delivered twice.
    pub duplicated: u64,
    /// Envelopes held back for late delivery.
    pub reordered: u64,
    /// Envelopes damaged in flight.
    pub truncated: u64,
    /// ACKs dropped on the return path.
    pub acks_dropped: u64,
    /// The exact sequence numbers dropped (for gap-detection oracles).
    pub dropped_seqs: Vec<u64>,
}

/// SplitMix64 — a tiny, deterministic, dependency-free PRNG. Statistical
/// quality is far beyond what fault scheduling needs, and the whole plane
/// stays reproducible from one `u64` seed.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seeded fault-injecting transport. Same seed + same call sequence →
/// same faults, so every failure is replayable.
#[derive(Debug)]
pub struct FaultyTransport {
    rng: SplitMix64,
    default_spec: FaultSpec,
    specs: HashMap<usize, FaultSpec>,
    queue: VecDeque<Envelope>,
    /// Reordered envelopes, appended after the queue at the next deliver —
    /// everything sent meanwhile overtakes them.
    held: Vec<Envelope>,
    acks: HashMap<usize, Vec<u64>>,
    logs: HashMap<usize, FaultLog>,
}

impl FaultyTransport {
    /// Creates a transport that injects `default_spec` faults on every link.
    pub fn new(seed: u64, default_spec: FaultSpec) -> Self {
        default_spec.validate();
        Self {
            rng: SplitMix64(seed),
            default_spec,
            specs: HashMap::new(),
            queue: VecDeque::new(),
            held: Vec::new(),
            acks: HashMap::new(),
            logs: HashMap::new(),
        }
    }

    /// Overrides the fault rates for one host's link.
    pub fn set_faults(&mut self, host: usize, spec: FaultSpec) {
        spec.validate();
        self.specs.insert(host, spec);
    }

    /// What this transport did to `host`'s envelopes so far.
    pub fn log(&self, host: usize) -> FaultLog {
        self.logs.get(&host).cloned().unwrap_or_default()
    }

    fn spec_for(&self, host: usize) -> FaultSpec {
        self.specs.get(&host).copied().unwrap_or(self.default_spec)
    }

    /// Removes one trailing payload entry without re-sealing the envelope:
    /// the sealed checksum goes stale exactly as a truncated datagram's
    /// would.
    fn truncate_payload(env: &mut Envelope) {
        let report = &mut env.report.report;
        if let Some((_, _, brs)) = report.light.last_mut() {
            if brs.len() > 1 {
                brs.pop();
            } else {
                report.light.pop();
            }
        } else if let Some((_, brs)) = report.heavy.last_mut() {
            if brs.len() > 1 {
                brs.pop();
            } else {
                report.heavy.pop();
            }
        } else {
            // Nothing left to lose: damage the declared epoch count instead.
            env.declared_epochs += 1;
        }
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, mut env: Envelope) {
        let host = env.host();
        let spec = self.spec_for(host);
        // Fin sentinels ride the same faulty link (and consume a roll like
        // any datagram) but stay out of the fault log: the log is ground
        // truth for *report* envelopes, and the log-vs-collector counter
        // contracts compare it against report counters only.
        let is_fin = env.fin.is_some();
        let log = self.logs.entry(host).or_default();
        if !is_fin {
            log.sent += 1;
        }
        // One roll decides the envelope's fate; the fault classes are
        // mutually exclusive so log counters match collector counters
        // exactly.
        let r = self.rng.next_f64();
        if r < spec.drop {
            if !is_fin {
                log.dropped += 1;
                log.dropped_seqs.push(env.seq);
            }
        } else if r < spec.drop + spec.duplicate {
            if !is_fin {
                log.duplicated += 1;
            }
            self.queue.push_back(env.clone());
            self.queue.push_back(env);
        } else if r < spec.drop + spec.duplicate + spec.reorder {
            if !is_fin {
                log.reordered += 1;
            }
            self.held.push(env);
        } else if r < spec.drop + spec.duplicate + spec.reorder + spec.truncate {
            if !is_fin {
                log.truncated += 1;
            }
            Self::truncate_payload(&mut env);
            self.queue.push_back(env);
        } else {
            self.queue.push_back(env);
        }
    }

    fn deliver(&mut self) -> Vec<Envelope> {
        let mut out: Vec<Envelope> = self.queue.drain(..).collect();
        out.append(&mut self.held);
        out
    }

    fn ack(&mut self, host: usize, seq: u64) {
        let spec = self.spec_for(host);
        let r = self.rng.next_f64();
        if r < spec.ack_drop {
            self.logs.entry(host).or_default().acks_dropped += 1;
        } else {
            self.acks.entry(host).or_default().push(seq);
        }
    }

    fn deliver_acks(&mut self, host: usize) -> Vec<u64> {
        self.acks.remove(&host).unwrap_or_default()
    }
}

/// Host-side send policy: how much unacknowledged state to hold and how to
/// pace retransmissions.
#[derive(Debug, Clone, Copy)]
pub struct RetransmitPolicy {
    /// Maximum unacknowledged envelopes buffered; the oldest is evicted
    /// (and counted) beyond this. Bounds host memory under collector
    /// outages.
    pub capacity: usize,
    /// Ticks before the first retransmission; doubles per attempt.
    pub base_backoff: u64,
    /// Backoff stops doubling after this many attempts (caps the wait at
    /// `base_backoff << max_backoff_shift`).
    pub max_backoff_shift: u32,
    /// Reports kept (post-ACK) in the replay buffer for
    /// [`HostUplink::backfill`] re-uploads — the host-side bound on how far
    /// back an analyzer can ask for history after losing its archive tail.
    /// `0` disables replay.
    pub replay_capacity: usize,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        Self {
            capacity: 64,
            base_backoff: 1,
            max_backoff_shift: 6,
            replay_capacity: 64,
        }
    }
}

/// One unacknowledged report: its seal, and the report itself in the only
/// two forms the uplink keeps.
struct Pending {
    /// Sequence number, epoch count and digest, sealed once at enqueue.
    seq: u64,
    declared_epochs: usize,
    checksum: u64,
    /// The report until its first send moves it onto the wire.
    first: Option<PeriodReport>,
    /// The report's [`PeriodReport::encode`] bytes, shared with the replay
    /// buffer: what every retransmission decodes.
    bytes: Arc<[u8]>,
    attempts: u32,
    due: u64,
}

impl Pending {
    /// The envelope for the next send: the report itself the first time,
    /// a decode of the kept encoding on every retransmission.
    fn envelope(&mut self) -> Envelope {
        let report = self.first.take().unwrap_or_else(|| {
            // Unreachable: `bytes` is this uplink's own encoding of the
            // report, and the codec round-trips every report.
            PeriodReport::decode(&self.bytes).expect("uplink decodes its own encoding")
        });
        Envelope {
            seq: self.seq,
            declared_epochs: self.declared_epochs,
            checksum: self.checksum,
            fin: None,
            report,
        }
    }
}

/// The host side of the collection plane: seals finished reports into
/// envelopes, sends them, and retransmits with exponential backoff until
/// ACKed — inside a hard memory bound.
///
/// The uplink keeps one copy of each report. `submit` encodes it once;
/// the first send moves the report itself onto the wire, and a
/// retransmission decodes the kept encoding, which the replay buffer shares.
pub struct HostUplink {
    /// The host this uplink sends for.
    pub host: usize,
    policy: RetransmitPolicy,
    next_seq: u64,
    pending: VecDeque<Pending>,
    /// Recently submitted reports as `(period, PeriodReport::encode bytes)`,
    /// newest last, kept *past* their ACK so a restarted analyzer can ask
    /// for them again ([`Self::backfill`]). Each entry shares its bytes with
    /// the report's [`Pending`] entry while that is in flight. Encoded, not
    /// cloned: a report is thousands of small `Vec`s, its encoding one
    /// compact buffer, and this is the uplink's largest resident state
    /// (DESIGN.md §14 has the sizes). Bounded by `policy.replay_capacity`.
    replay: VecDeque<(u64, Arc<[u8]>)>,
    /// Reused encode buffer: `submit` encodes here, then copies once into
    /// the report's exact-size shared bytes.
    encode_buf: Vec<u8>,
    /// Reports evicted unacknowledged because the buffer was full.
    pub evicted: u64,
    /// Sends beyond each envelope's first (retransmissions).
    pub retransmissions: u64,
    /// Envelopes released by an ACK.
    pub acked: u64,
}

impl HostUplink {
    /// Creates an uplink for `host`.
    pub fn new(host: usize, policy: RetransmitPolicy) -> Self {
        assert!(policy.capacity > 0, "capacity must be positive");
        Self {
            host,
            policy,
            next_seq: 0,
            pending: VecDeque::new(),
            replay: VecDeque::new(),
            encode_buf: Vec::new(),
            evicted: 0,
            retransmissions: 0,
            acked: 0,
        }
    }

    /// Seals one report under a fresh sequence number — the digest of its
    /// encoding `bytes` — and queues it with them, evicting the oldest
    /// unacknowledged report when the buffer is full.
    fn enqueue(&mut self, report: PeriodReport, bytes: Arc<[u8]>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.pending.len() == self.policy.capacity {
            self.pending.pop_front();
            self.evicted += 1;
        }
        self.pending.push_back(Pending {
            seq,
            declared_epochs: report.report.epoch_count(),
            checksum: digest(&bytes),
            first: Some(report),
            bytes,
            attempts: 0,
            due: 0,
        });
    }

    /// Seals `reports` (typically a
    /// [`poll_finished`](crate::HostAgent::poll_finished) batch) into
    /// sequence-numbered envelopes and queues them for sending. Evicts the
    /// oldest unacknowledged envelope when the buffer is full. Each report
    /// is encoded once, even with replay disabled — retransmissions decode
    /// it — and the bounded replay buffer shares that encoding for backfill.
    pub fn submit(&mut self, reports: Vec<PeriodReport>) {
        for r in reports {
            debug_assert_eq!(r.host, self.host, "uplink sends for one host");
            self.encode_buf.clear();
            r.encode_into(&mut self.encode_buf);
            let bytes: Arc<[u8]> = Arc::from(self.encode_buf.as_slice());
            if self.policy.replay_capacity > 0 {
                if self.replay.len() == self.policy.replay_capacity {
                    self.replay.pop_front();
                }
                self.replay.push_back((r.period, Arc::clone(&bytes)));
            }
            self.enqueue(r, bytes);
        }
    }

    /// Answers a [`BackfillRequest`]: re-submits every replay-buffered
    /// report with period strictly after `after_period` (`None` = all of
    /// them) under fresh sequence numbers. The re-uploads flow through the
    /// normal transport → collector path, where `(host, period)` dedup
    /// absorbs any the analyzer turns out to still have. Returns how many
    /// reports were queued.
    pub fn backfill(&mut self, after_period: Option<u64>) -> usize {
        let again: Vec<(PeriodReport, Arc<[u8]>)> = self
            .replay
            .iter()
            .filter(|(period, _)| after_period.is_none_or(|p| *period > p))
            .map(|(_, bytes)| {
                // Unreachable failure: the replay buffer holds this
                // uplink's own encodings.
                let report = PeriodReport::decode(bytes).expect("uplink decodes its own encoding");
                (report, Arc::clone(bytes))
            })
            .collect();
        let n = again.len();
        for (report, bytes) in again {
            self.enqueue(report, bytes);
        }
        n
    }

    /// One scheduler step at time `now` (any monotonic tick counter):
    /// releases ACKed envelopes, then (re)sends every pending envelope whose
    /// backoff has expired, then declares the assigned-sequence high-water
    /// mark with a fin sentinel so the collector can see trailing losses.
    /// A first send moves the report out of the uplink; only its encoding
    /// stays behind for retransmission.
    pub fn tick(&mut self, now: u64, transport: &mut dyn Transport) {
        let acked: BTreeSet<u64> = transport.deliver_acks(self.host).into_iter().collect();
        if !acked.is_empty() {
            let before = self.pending.len();
            self.pending.retain(|p| !acked.contains(&p.seq));
            self.acked += (before - self.pending.len()) as u64;
        }
        for p in &mut self.pending {
            if p.due <= now {
                transport.send(p.envelope());
                if p.attempts > 0 {
                    self.retransmissions += 1;
                }
                let shift = p.attempts.min(self.policy.max_backoff_shift);
                p.due = now + (self.policy.base_backoff << shift);
                p.attempts += 1;
            }
        }
        // Sent every tick rather than ACKed/retransmitted: losing one only
        // delays detection until the next tick's sentinel.
        if self.next_seq > 0 {
            transport.send(Envelope::fin(self.host, self.next_seq));
        }
    }

    /// Unacknowledged envelopes currently buffered (≤ policy capacity).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Next sequence number to be assigned (= total reports submitted).
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }
}

/// Collector-side ingestion counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Intact, first-seen reports handed to the analyzer.
    pub accepted: u64,
    /// Redelivered sequence numbers dropped (still ACKed — dedup is the
    /// receiver's job precisely so the sender may retransmit freely).
    pub duplicates: u64,
    /// Envelopes failing integrity verification, quarantined and *not*
    /// ACKed so a retransmission can still recover the intact report.
    pub corrupt: u64,
    /// Intact envelopes whose report the analyzer quarantined because it
    /// does not fit the sketch configuration — fingerprint or shape (ACKed:
    /// retransmitting cannot fix either).
    pub mismatched: u64,
}

/// A collector→host control message asking one host to re-upload recent
/// history the analyzer no longer has — produced by
/// [`Analyzer::backfill_requests`](crate::Analyzer::backfill_requests)
/// after a recovery that found a torn archive tail or known collection
/// losses, answered by [`HostUplink::backfill`]. Re-uploads travel the
/// normal collection path, so dedup and integrity checks apply unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackfillRequest {
    /// The host asked to re-upload.
    pub host: usize,
    /// Re-upload periods strictly after this one; `None` means everything
    /// the host's replay buffer still holds.
    pub after_period: Option<u64>,
}

/// The analyzer-side end of the collection plane.
///
/// Pumps a [`Transport`], verifies and dedups envelopes, feeds intact
/// first-seen reports to an [`Analyzer`], ACKs what should not be
/// retransmitted, and tracks per-host sequence gaps so curve coverage can
/// report known losses.
#[derive(Debug, Default)]
pub struct Collector {
    /// Per-host sequence bookkeeping, memory-bounded per host.
    hosts: HashMap<usize, HostSeqState>,
    stats: CollectorStats,
    /// [`Envelope::verify`]'s encode buffer, reused across envelopes; after
    /// a successful verify it holds the bytes the archive writes.
    verified: Vec<u8>,
}

/// Out-of-order horizon for the per-host dedup window. An intact copy
/// arriving more than this many sequence numbers behind the newest heard
/// sequence may be conceded (treated as already-seen); the default
/// [`RetransmitPolicy`] caps a host at 64 outstanding envelopes, so 1024 is
/// far beyond any reordering the uplink can produce.
const SEEN_HORIZON: usize = 1024;

/// Bound on remembered damaged-only sequence numbers per host. Overflow
/// forgets the *oldest* damaged sequence: a late intact retransmission of it
/// is then accepted as new rather than replacing a tracked quarantine slot,
/// which is safe — the analyzer's own `(host, period)` dedup still holds.
const DAMAGED_CAP: usize = 1024;

/// One host's bounded dedup / gap-tracking state.
#[derive(Debug)]
struct HostSeqState {
    /// Sequence numbers whose intact report was accepted (or deduped):
    /// contiguous-ack watermark plus bounded reorder tail.
    seen: SeqWindow,
    /// Sequence numbers received only in damaged form so far. Cleared if an
    /// intact copy arrives; size-capped at [`DAMAGED_CAP`].
    damaged: BTreeSet<u64>,
    /// Highest assigned-sequence count declared by a fin sentinel: the host
    /// has sealed seqs `0..declared`, so any of those not heard are losses
    /// even with nothing newer on the wire.
    declared: u64,
}

impl Default for HostSeqState {
    fn default() -> Self {
        Self {
            seen: SeqWindow::new(SEEN_HORIZON),
            damaged: BTreeSet::new(),
            declared: 0,
        }
    }
}

impl HostSeqState {
    fn heard(&self) -> bool {
        self.seen.max_seen().is_some() || !self.damaged.is_empty() || self.declared > 0
    }

    /// Highest sequence heard in any form, or `None`.
    fn max_heard(&self) -> Option<u64> {
        self.seen
            .max_seen()
            .into_iter()
            .chain(self.damaged.iter().next_back().copied())
            .max()
    }

    /// The sequences past the seen window that are still unaccounted for:
    /// from just above the window's top to one past the highest sequence
    /// heard in any form or declared assigned (empty if nothing is owed).
    fn unseen_tail(&self) -> std::ops::Range<u64> {
        let end = self.max_heard().map_or(0, |m| m + 1).max(self.declared);
        let from = match self.seen.max_seen() {
            Some(m) => m + 1,
            None => self.seen.floor(),
        };
        from..end
    }

    /// `Collector::missing_seqs(host).len()`, counted without building it.
    fn missing_count(&self) -> u64 {
        let tail = self.unseen_tail();
        self.seen.hole_count() + tail.end.saturating_sub(tail.start)
    }
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the transport once: dedup → verify → ingest → ACK. Updates the
    /// analyzer's per-host known-loss counts afterward so coverage
    /// annotations stay current. Returns the counter deltas of this pump.
    pub fn pump(
        &mut self,
        transport: &mut dyn Transport,
        analyzer: &mut Analyzer,
    ) -> CollectorStats {
        let before = self.stats;
        for env in transport.deliver() {
            let host = env.host();
            let seq = env.seq;
            let state = self.hosts.entry(host).or_default();
            if let Some(declared) = env.fin {
                // End-of-stream declaration: fold the high-water mark into
                // gap tracking. No ACK, no counters — a damaged sentinel is
                // dropped silently (the next tick sends a fresh one).
                if env.verify(&mut self.verified) {
                    state.declared = state.declared.max(declared);
                }
                continue;
            }
            if state.seen.contains(seq) {
                // Already have this one intact (or conceded past the dedup
                // horizon); re-ACK in case the first ACK was lost.
                self.stats.duplicates += 1;
                transport.ack(host, seq);
                continue;
            }
            if !env.verify(&mut self.verified) {
                // Damaged in flight. No ACK: the sender's retransmission is
                // our only chance at the intact payload.
                self.stats.corrupt += 1;
                state.damaged.insert(seq);
                if state.damaged.len() > DAMAGED_CAP {
                    state.damaged.pop_first();
                }
                continue;
            }
            let ingest = analyzer.add_verified(env.report, &self.verified, env.checksum);
            if ingest.mismatched > 0 {
                self.stats.mismatched += 1;
            } else {
                // Accepted — or a (host, period) duplicate under a fresh
                // seq, which the analyzer already dropped; either way the
                // payload is safely delivered.
                self.stats.accepted += 1;
            }
            let state = self.hosts.entry(host).or_default();
            state.damaged.remove(&seq);
            state.seen.insert(seq);
            transport.ack(host, seq);
        }
        for (&host, state) in &self.hosts {
            if state.heard() {
                // Conceded (force-skipped) sequences were never received
                // intact, so they stay in the loss count even after leaving
                // the window.
                analyzer.set_known_lost(host, state.missing_count() + state.seen.skipped());
            }
        }
        CollectorStats {
            accepted: self.stats.accepted - before.accepted,
            duplicates: self.stats.duplicates - before.duplicates,
            corrupt: self.stats.corrupt - before.corrupt,
            mismatched: self.stats.mismatched - before.mismatched,
        }
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> CollectorStats {
        self.stats
    }

    /// Every host this collector has heard from (even only in damaged form).
    pub fn hosts(&self) -> Vec<usize> {
        let mut hosts: Vec<usize> = self
            .hosts
            .iter()
            .filter(|(_, s)| s.heard())
            .map(|(&h, _)| h)
            .collect();
        hosts.sort_unstable();
        hosts
    }

    /// Sequence numbers below `host`'s highest heard sequence — or its
    /// fin-declared high-water mark, whichever is greater — that have not
    /// been received intact: the gaps. Includes damaged-only sequences
    /// (their data is still missing) and shrinks as retransmissions land.
    /// The fin extension is what makes *trailing* drops visible: a sequence
    /// with nothing heard after it is still a gap once the host declares it
    /// was assigned.
    ///
    /// Sequences conceded past the dedup horizon are no longer enumerated
    /// here (they have left the window), but they stay counted in the
    /// analyzer's known-loss totals via [`SeqWindow::skipped`].
    pub fn missing_seqs(&self, host: usize) -> Vec<u64> {
        let Some(state) = self.hosts.get(&host) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Holes inside the seen window...
        state.seen.for_each_hole(|h| out.push(h));
        // ...plus everything between the window's top and the accountable
        // end (heard about or declared, never received intact).
        out.extend(state.unseen_tail());
        out
    }

    /// How many sequences [`Self::missing_seqs`] would list for `host`,
    /// without building the list.
    pub fn missing_count(&self, host: usize) -> u64 {
        self.hosts.get(&host).map_or(0, HostSeqState::missing_count)
    }

    /// Resident dedup/gap-tracking entries across all hosts — the quantity
    /// the retention soak asserts stays bounded.
    pub fn resident_seq_entries(&self) -> usize {
        self.hosts
            .values()
            .map(|s| s.seen.tail_len() + s.damaged.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_agent::{HostAgent, HostAgentConfig};
    use wavesketch::SketchConfig;

    fn agent_config() -> HostAgentConfig {
        HostAgentConfig {
            sketch: SketchConfig::builder()
                .rows(2)
                .width(32)
                .levels(4)
                .topk(64)
                .max_windows(4096)
                .heavy_rows(16)
                .build(),
            period_ns: 16 << 13, // 16 windows per period
            window_shift: 13,
        }
    }

    /// A few periods of two-flow traffic for `host`.
    fn make_reports(host: usize, cfg: &HostAgentConfig) -> Vec<PeriodReport> {
        let mut agent = HostAgent::new(host, cfg.clone());
        for w in [1u64, 5, 18, 22, 35, 40, 51, 66] {
            agent.observe(7, w << 13, 900);
            agent.observe(8, w << 13, 300);
        }
        agent.finish()
    }

    /// Runs submit → tick/pump rounds until the uplink drains or `rounds`
    /// expire.
    fn run_rounds(
        uplink: &mut HostUplink,
        transport: &mut dyn Transport,
        collector: &mut Collector,
        analyzer: &mut Analyzer,
        rounds: u64,
    ) {
        for now in 0..rounds {
            uplink.tick(now, transport);
            collector.pump(transport, analyzer);
            if uplink.in_flight() == 0 {
                break;
            }
        }
    }

    #[test]
    fn perfect_transport_delivers_everything_exactly_once() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len() as u64;

        // Direct ingest is the reference.
        let mut direct = Analyzer::new(cfg.sketch.clone());
        direct.add_reports(reports.clone());
        let want = direct.flow_curve(0, 7).unwrap();

        let mut transport = PerfectTransport::new();
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            10,
        );

        assert_eq!(uplink.in_flight(), 0, "everything ACKed");
        assert_eq!(uplink.acked, n);
        assert_eq!(uplink.retransmissions, 0);
        let stats = collector.stats();
        assert_eq!(stats.accepted, n);
        assert_eq!(stats.duplicates + stats.corrupt + stats.mismatched, 0);
        assert!(collector.missing_seqs(0).is_empty());
        assert_eq!(analyzer.flow_curve(0, 7).unwrap(), want);
        assert!(analyzer.host_coverage(0).is_complete());
    }

    #[test]
    fn drops_are_recovered_by_retransmission() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len() as u64;
        let mut direct = Analyzer::new(cfg.sketch.clone());
        direct.add_reports(reports.clone());
        let want = direct.flow_curve(0, 7).unwrap();

        let mut transport = FaultyTransport::new(
            42,
            FaultSpec {
                drop: 0.5,
                ..FaultSpec::NONE
            },
        );
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            500,
        );

        assert_eq!(uplink.in_flight(), 0, "retransmit must eventually win");
        assert!(transport.log(0).dropped > 0, "seed 42 injects drops");
        assert!(uplink.retransmissions > 0);
        assert_eq!(collector.stats().accepted, n);
        assert!(collector.missing_seqs(0).is_empty(), "all gaps closed");
        assert_eq!(analyzer.flow_curve(0, 7).unwrap(), want);
        assert!(analyzer.host_coverage(0).is_complete());
    }

    #[test]
    fn duplicates_are_counted_and_ignored() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len() as u64;
        let mut transport = FaultyTransport::new(
            7,
            FaultSpec {
                duplicate: 1.0,
                ..FaultSpec::NONE
            },
        );
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            10,
        );

        let stats = collector.stats();
        assert_eq!(stats.accepted, n);
        assert_eq!(stats.duplicates, transport.log(0).duplicated);
        assert_eq!(analyzer.ingest_stats().accepted, n, "no double-count");
    }

    #[test]
    fn truncation_is_quarantined_then_recovered_intact() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len() as u64;
        // Every first transmission is truncated; retransmissions are clean.
        let mut transport = FaultyTransport::new(
            3,
            FaultSpec {
                truncate: 1.0,
                ..FaultSpec::NONE
            },
        );
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports.clone());
        uplink.tick(0, &mut transport);
        collector.pump(&mut transport, &mut analyzer);
        assert_eq!(collector.stats().corrupt, n, "all damaged, none accepted");
        assert_eq!(collector.stats().accepted, 0);
        assert_eq!(analyzer.ingest_stats().total(), 0, "no damage reaches it");
        assert_eq!(collector.missing_seqs(0).len(), n as usize);
        assert_eq!(uplink.in_flight(), n as usize, "no ACK for damage");

        transport.set_faults(0, FaultSpec::NONE);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            500,
        );
        assert_eq!(collector.stats().accepted, n);
        assert!(collector.missing_seqs(0).is_empty());
        let mut direct = Analyzer::new(cfg.sketch.clone());
        direct.add_reports(reports);
        assert_eq!(
            analyzer.flow_curve(0, 7).unwrap(),
            direct.flow_curve(0, 7).unwrap()
        );
    }

    #[test]
    fn gaps_match_the_fault_log_exactly_without_retransmit() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let mut transport = FaultyTransport::new(
            11,
            FaultSpec {
                drop: 0.4,
                ..FaultSpec::NONE
            },
        );
        // Bypass the uplink: one send per report, no retransmission.
        for (seq, r) in reports.into_iter().enumerate() {
            transport.send(Envelope::seal(seq as u64, r));
        }
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        collector.pump(&mut transport, &mut analyzer);

        let log = transport.log(0);
        assert!(log.dropped > 0 && log.dropped < log.sent, "seed 11 mixes");
        // Without a fin, a trailing drop is invisible: nothing after it
        // reveals the gap, so only drops below the delivered maximum show.
        let max_seen = (0..log.sent)
            .filter(|s| !log.dropped_seqs.contains(s))
            .max()
            .expect("some envelope survived");
        let below_max: Vec<u64> = log
            .dropped_seqs
            .iter()
            .copied()
            .filter(|&s| s < max_seen)
            .collect();
        assert_eq!(collector.missing_seqs(0), below_max);

        // The fin sentinel declares how many seqs were assigned; once it
        // lands, every dropped seq — trailing ones included — is a gap.
        let sent = transport.log(0).sent;
        let expect: Vec<u64> = transport.log(0).dropped_seqs.to_vec();
        loop {
            // The fin rides the same faulty link; resend until one survives.
            transport.send(Envelope::fin(0, sent));
            collector.pump(&mut transport, &mut analyzer);
            if collector.missing_seqs(0).len() >= expect.len() {
                break;
            }
        }
        assert_eq!(collector.missing_seqs(0), expect, "trailing drops visible");
        assert_eq!(
            analyzer.host_coverage(0).known_lost,
            expect.len() as u64,
            "coverage annotation mirrors the full gap count"
        );
        // The sentinel itself never shows up in collector report counters.
        assert_eq!(
            collector.stats().accepted + collector.stats().corrupt,
            log.sent - log.dropped
        );
    }

    #[test]
    fn reordered_envelopes_still_arrive_and_curves_match() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len() as u64;
        let mut direct = Analyzer::new(cfg.sketch.clone());
        direct.add_reports(reports.clone());
        let want = direct.flow_curve(0, 7).unwrap();

        let mut transport = FaultyTransport::new(
            5,
            FaultSpec {
                reorder: 0.5,
                ..FaultSpec::NONE
            },
        );
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            100,
        );

        assert!(transport.log(0).reordered > 0, "seed 5 reorders");
        // Reordered envelopes may race their own retransmission; the second
        // copy is deduped, and exactly n distinct reports get through.
        assert_eq!(collector.stats().accepted, n);
        assert_eq!(analyzer.flow_curve(0, 7).unwrap(), want);
    }

    #[test]
    fn uplink_memory_stays_bounded_and_evictions_are_counted() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len();
        assert!(n >= 4);
        let policy = RetransmitPolicy {
            capacity: 2,
            ..RetransmitPolicy::default()
        };
        let mut uplink = HostUplink::new(0, policy);
        uplink.submit(reports);
        assert_eq!(uplink.in_flight(), 2, "bounded by capacity");
        assert_eq!(uplink.evicted, n as u64 - 2);
        assert_eq!(uplink.submitted(), n as u64);
    }

    #[test]
    fn first_send_moves_the_report_and_retransmissions_decode_it() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        assert!(reports.len() >= 2);
        let report_envelopes = |transport: &mut PerfectTransport| -> Vec<Envelope> {
            let mut envs = transport.deliver();
            envs.retain(|env| env.fin.is_none());
            envs
        };

        // An entry evicted before its first send is counted, never sent.
        let policy = RetransmitPolicy {
            capacity: 1,
            ..RetransmitPolicy::default()
        };
        let mut uplink = HostUplink::new(0, policy);
        let mut transport = PerfectTransport::new();
        uplink.submit(reports[..2].to_vec());
        assert_eq!(uplink.evicted, 1);
        uplink.tick(0, &mut transport);
        let first = report_envelopes(&mut transport);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].seq, 1, "seq 0 was evicted unsent");

        // The first send moved the report: only its encoding stays behind.
        assert!(uplink.pending.iter().all(|p| p.first.is_none()));
        assert_eq!(first[0].report, reports[1]);
        let mut buf = Vec::new();
        assert!(first[0].verify(&mut buf));

        // No ACK: the retransmission decodes the kept encoding into a report
        // equal to the original, under the same seal.
        uplink.tick(1, &mut transport);
        let again = report_envelopes(&mut transport);
        assert_eq!(uplink.retransmissions, 1);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].report, reports[1]);
        assert_eq!(
            (again[0].seq, again[0].declared_epochs, again[0].checksum),
            (first[0].seq, first[0].declared_epochs, first[0].checksum)
        );
        assert!(again[0].verify(&mut buf));
    }

    #[test]
    fn replay_shares_the_pending_encoding_and_disabled_replay_still_encodes() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        uplink.submit(reports.clone());
        for (p, (_, bytes)) in uplink.pending.iter().zip(&uplink.replay) {
            assert!(Arc::ptr_eq(&p.bytes, bytes), "one encoding per report");
        }

        let policy = RetransmitPolicy {
            replay_capacity: 0,
            ..RetransmitPolicy::default()
        };
        let mut uplink = HostUplink::new(0, policy);
        uplink.submit(reports.clone());
        assert!(uplink.replay.is_empty());
        for (p, r) in uplink.pending.iter().zip(&reports) {
            assert_eq!(&*p.bytes, r.encode().as_slice());
        }
    }

    #[test]
    fn backfill_after_acks_resubmits_the_original_reports_in_period_order() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let mut transport = PerfectTransport::new();
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports.clone());
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            10,
        );
        assert_eq!(uplink.in_flight(), 0, "everything ACKed and released");
        transport.deliver(); // discard the last tick's fin sentinel

        // The replay buffer outlives the ACKs and round-trips every field.
        assert_eq!(uplink.backfill(None), reports.len());
        uplink.tick(100, &mut transport);
        let resent: Vec<PeriodReport> = transport
            .deliver()
            .into_iter()
            .filter(|env| env.fin.is_none())
            .map(|env| env.report)
            .collect();
        assert_eq!(resent, reports);
        assert!(resent.windows(2).all(|w| w[0].period < w[1].period));

        // A bounded ask re-submits only the periods after it.
        let after = reports[1].period;
        assert_eq!(uplink.backfill(Some(after)), reports.len() - 2);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let one = vec![reports.into_iter().next().unwrap()];
        let policy = RetransmitPolicy {
            capacity: 4,
            base_backoff: 1,
            max_backoff_shift: 3,
            ..RetransmitPolicy::default()
        };
        // A transport that drops everything: the envelope is never ACKed.
        let mut transport = FaultyTransport::new(
            0,
            FaultSpec {
                drop: 1.0,
                ..FaultSpec::NONE
            },
        );
        let mut uplink = HostUplink::new(0, policy);
        uplink.submit(one);
        let mut send_ticks = Vec::new();
        for now in 0..64u64 {
            let before = transport.log(0).sent;
            uplink.tick(now, &mut transport);
            if transport.log(0).sent > before {
                send_ticks.push(now);
            }
        }
        // due = 0, 1, 3, 7, 15, then +8 apiece once the shift caps.
        assert_eq!(&send_ticks[..5], &[0, 1, 3, 7, 15]);
        let tail: Vec<u64> = send_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            tail[4..].iter().all(|&d| d == 8),
            "capped backoff must be constant: {send_ticks:?}"
        );
    }

    #[test]
    fn ack_loss_causes_retransmission_but_no_double_count() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let n = reports.len() as u64;
        let mut transport = FaultyTransport::new(
            9,
            FaultSpec {
                ack_drop: 0.7,
                ..FaultSpec::NONE
            },
        );
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            500,
        );

        assert_eq!(uplink.in_flight(), 0);
        assert!(transport.log(0).acks_dropped > 0, "seed 9 drops ACKs");
        assert!(uplink.retransmissions > 0, "lost ACKs force resends");
        assert_eq!(collector.stats().accepted, n);
        assert_eq!(
            collector.stats().duplicates,
            uplink.retransmissions,
            "every redundant copy deduped, none double-counted"
        );
        assert_eq!(analyzer.ingest_stats().accepted, n);
    }

    #[test]
    fn mismatched_configs_are_acked_but_quarantined() {
        let cfg = agent_config();
        let mut reports = make_reports(0, &cfg);
        for r in &mut reports {
            r.config_fingerprint ^= 0x5555;
        }
        let n = reports.len() as u64;
        let mut transport = PerfectTransport::new();
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            10,
        );

        assert_eq!(collector.stats().mismatched, n);
        assert_eq!(collector.stats().accepted, 0);
        assert_eq!(uplink.in_flight(), 0, "ACKed: resending cannot fix this");
        assert_eq!(analyzer.quarantined().len(), n as usize);
        assert!(analyzer.flow_curve(0, 7).is_none());
    }

    /// A report whose shape contradicts its (valid) fingerprint arrives
    /// intact — the seal covers whatever the sender sealed — and must end in
    /// the quarantine like a foreign config, not in an abort inside the
    /// index or a curve sized from the report's own `padded_len`.
    #[test]
    fn hostile_shapes_under_a_valid_fingerprint_are_acked_but_quarantined() {
        let cfg = agent_config();
        let damages: [fn(&mut wavesketch::SketchReport); 3] = [
            |r| r.heavy.push((vec![1, 2, 3], vec![])),
            |r| r.light[0].2[0].padded_len = 1 << 24,
            |r| r.light[0].2[0].w0 = u64::MAX - 3,
        ];
        let mut reports = make_reports(0, &cfg);
        reports.truncate(damages.len() + 1);
        for (r, damage) in reports.iter_mut().zip(damages) {
            damage(&mut r.report);
        }
        let mut transport = PerfectTransport::new();
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut analyzer,
            10,
        );

        assert_eq!(collector.stats().mismatched, 3);
        assert_eq!(collector.stats().accepted, 1, "the undamaged report");
        assert_eq!(collector.stats().corrupt, 0, "seals were intact");
        assert_eq!(uplink.in_flight(), 0, "ACKed: resending cannot fix this");
        assert_eq!(analyzer.ingest_stats().mismatched, 3);
        assert_eq!(analyzer.quarantined().len(), 3);
        assert!(analyzer.residency().cached_bytes < 1 << 20);
        assert!(analyzer.host_rate_curve(0).is_some());
    }

    #[test]
    fn two_hosts_with_different_fault_links_stay_independent() {
        let cfg = agent_config();
        let r0 = make_reports(0, &cfg);
        let r1 = make_reports(1, &cfg);
        let n = r0.len() as u64;
        let mut transport = FaultyTransport::new(21, FaultSpec::NONE);
        transport.set_faults(
            1,
            FaultSpec {
                drop: 1.0,
                ..FaultSpec::NONE
            },
        );
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        for (seq, r) in r0.into_iter().enumerate() {
            transport.send(Envelope::seal(seq as u64, r));
        }
        for (seq, r) in r1.into_iter().enumerate() {
            transport.send(Envelope::seal(seq as u64, r));
        }
        collector.pump(&mut transport, &mut analyzer);
        assert_eq!(collector.stats().accepted, n);
        assert_eq!(transport.log(1).dropped, n);
        assert!(analyzer.flow_curve(0, 7).is_some());
        assert!(analyzer.flow_curve(1, 7).is_none(), "host 1's link is dead");
        assert_eq!(collector.hosts(), vec![0], "never heard from host 1");
    }

    #[test]
    fn envelope_verify_catches_tampering() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let env = Envelope::seal(0, reports[0].clone());
        let mut buf = Vec::new();
        assert!(env.verify(&mut buf));
        assert_eq!(buf, reports[0].encode(), "verify leaves the verified bytes");
        let mut bad = env.clone();
        FaultyTransport::truncate_payload(&mut bad);
        assert!(!bad.verify(&mut buf), "truncation must break the seal");
    }

    /// The seal is the digest of the whole `PeriodReport` encoding, so a
    /// report re-addressed in flight — another period, host or
    /// configuration — fails verification like a damaged sketch does.
    #[test]
    fn seal_covers_period_host_and_fingerprint() {
        let cfg = agent_config();
        let env = Envelope::seal(0, make_reports(0, &cfg).remove(0));
        let mut buf = Vec::new();
        assert!(env.verify(&mut buf));
        let damages: [fn(&mut PeriodReport); 3] = [
            |r| r.period += 1,
            |r| r.host ^= 1,
            |r| r.config_fingerprint ^= 1 << 40,
        ];
        for damage in damages {
            let mut bad = env.clone();
            damage(&mut bad.report);
            assert!(!bad.verify(&mut buf), "re-addressed report verified");
        }
        // The uplink's seal, over the encoding it keeps, is the same value.
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        uplink.submit(vec![env.report.clone()]);
        assert_eq!(uplink.pending[0].checksum, env.checksum);
    }

    /// Both ways into the archive end in the same record writer: reports
    /// that crossed the collector (written as the bytes it verified) and
    /// the same reports handed to `add_reports` (encoded by the archive)
    /// leave byte-identical segment files.
    #[test]
    fn collector_and_add_reports_write_identical_segments() {
        let cfg = agent_config();
        let reports = make_reports(0, &cfg);
        let dir = std::env::temp_dir().join(format!("umon_collector_seg_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = crate::RetentionPolicy::UNBOUNDED;

        let mut direct =
            Analyzer::with_archive(cfg.sketch.clone(), policy, dir.join("direct")).unwrap();
        direct.add_reports(reports.clone());
        let mut collected =
            Analyzer::with_archive(cfg.sketch.clone(), policy, dir.join("collected")).unwrap();
        let mut transport = PerfectTransport::new();
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        uplink.submit(reports.clone());
        run_rounds(
            &mut uplink,
            &mut transport,
            &mut collector,
            &mut collected,
            10,
        );
        assert_eq!(collector.stats().accepted, reports.len() as u64);

        let direct_seg = std::fs::read(dir.join("direct/host_0.seg")).unwrap();
        let collected_seg = std::fs::read(dir.join("collected/host_0.seg")).unwrap();
        assert!(direct_seg.len() > reports[0].encode().len());
        assert_eq!(collected_seg, direct_seg);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
