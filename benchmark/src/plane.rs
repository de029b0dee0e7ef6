//! The collection plane as every workload drives it: per-host `HostUplink`s,
//! a transport, the `Collector` and the `Analyzer`, behind one tick counter.
//!
//! The transport is wrapped in a [`ProbeTransport`], which is how the
//! benchmark sees from outside when a report became queryable: the collector
//! ACKs a sequence number right after `Analyzer::add_reports` took the
//! report, so the first ACK of `(host, seq)` is that moment.

use crate::run::Outcome;
use crate::trace::Tracer;
use std::time::Instant;
use umon::{Analyzer, Collector, Envelope, HostUplink, PeriodReport, RetransmitPolicy, Transport};

/// Delegates to the wrapped transport, counting report envelopes and noting
/// the time of each sequence number's first ACK.
pub struct ProbeTransport<T: Transport> {
    pub inner: T,
    epoch: Instant,
    /// Report envelopes handed to `send` (fin sentinels excluded).
    pub envelopes_sent: u64,
    /// `first_ack_ns[host][seq]`: ns since `epoch`, 0 while unacknowledged.
    first_ack_ns: Vec<Vec<u64>>,
}

impl<T: Transport> ProbeTransport<T> {
    fn new(inner: T, hosts: usize, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            envelopes_sent: 0,
            first_ack_ns: vec![Vec::new(); hosts],
        }
    }
}

impl<T: Transport> Transport for ProbeTransport<T> {
    fn send(&mut self, env: Envelope) {
        if env.fin.is_none() {
            self.envelopes_sent += 1;
        }
        self.inner.send(env);
    }

    fn deliver(&mut self) -> Vec<Envelope> {
        self.inner.deliver()
    }

    fn ack(&mut self, host: usize, seq: u64) {
        let acks = &mut self.first_ack_ns[host];
        if acks.len() <= seq as usize {
            acks.resize(seq as usize + 1, 0);
        }
        if acks[seq as usize] == 0 {
            acks[seq as usize] = self.epoch.elapsed().as_nanos().max(1) as u64;
        }
        self.inner.ack(host, seq);
    }

    fn deliver_acks(&mut self, host: usize) -> Vec<u64> {
        self.inner.deliver_acks(host)
    }
}

/// Rounds a drain may take before the plane is declared stuck. The default
/// retransmit backoff caps at 64 ticks, so a healthy lossy plane drains in a
/// few hundred.
const MAX_DRAIN_ROUNDS: u64 = 20_000;

/// Uplinks, transport, collector and analyzer of one run.
pub struct Plane<T: Transport> {
    pub uplinks: Vec<HostUplink>,
    pub transport: ProbeTransport<T>,
    pub collector: Collector,
    pub analyzer: Analyzer,
    epoch: Instant,
    now: u64,
    /// `submit_ns[host][seq]`: ns since `epoch` of the report's `submit`.
    submit_ns: Vec<Vec<u64>>,
    /// Reports handed to `submit`, and their wire bytes.
    pub submitted: u64,
    pub submitted_bytes: u64,
    /// Tick/pump rounds run so far.
    pub rounds: u64,
}

impl<T: Transport> Plane<T> {
    pub fn new(hosts: usize, transport: T, analyzer: Analyzer) -> Self {
        let epoch = Instant::now();
        Self {
            uplinks: (0..hosts)
                .map(|h| HostUplink::new(h, RetransmitPolicy::default()))
                .collect(),
            transport: ProbeTransport::new(transport, hosts, epoch),
            collector: Collector::new(),
            analyzer,
            epoch,
            now: 0,
            submit_ns: vec![Vec::new(); hosts],
            submitted: 0,
            submitted_bytes: 0,
            rounds: 0,
        }
    }

    /// Hands `host`'s finished reports to its uplink.
    pub fn submit(&mut self, host: usize, reports: Vec<PeriodReport>, tr: &mut Tracer) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.submit_ns[host].extend(reports.iter().map(|_| now));
        self.submitted += reports.len() as u64;
        self.submitted_bytes += reports.iter().map(|r| r.wire_bytes() as u64).sum::<u64>();
        let t0 = tr.tick();
        self.uplinks[host].submit(reports);
        tr.leaf("uplink.submit", t0);
    }

    /// One scheduler step: every uplink ticks, then the collector pumps.
    pub fn round(&mut self, tr: &mut Tracer) {
        let t0 = tr.tick();
        for up in &mut self.uplinks {
            up.tick(self.now, &mut self.transport);
        }
        tr.leaf("uplink.tick", t0);
        let t0 = tr.tick();
        self.collector.pump(&mut self.transport, &mut self.analyzer);
        tr.leaf("collector.pump", t0);
        self.now += 1;
        self.rounds += 1;
    }

    /// Unacknowledged reports across all uplinks.
    pub fn in_flight(&self) -> usize {
        self.uplinks.iter().map(HostUplink::in_flight).sum()
    }

    /// Rounds until nothing is in flight; returns how many it took. The
    /// final round only delivers the last ACKs.
    pub fn drain(&mut self, tr: &mut Tracer) -> u64 {
        let before = self.rounds;
        while self.in_flight() > 0 && self.rounds - before < MAX_DRAIN_ROUNDS {
            self.round(tr);
        }
        self.rounds - before
    }

    /// Submit-to-queryable latency of every acknowledged report, ns.
    pub fn report_latencies_ns(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (subs, acks) in self.submit_ns.iter().zip(&self.transport.first_ack_ns) {
            for (&sub, &ack) in subs.iter().zip(acks) {
                if ack > 0 {
                    out.push(ack.saturating_sub(sub));
                }
            }
        }
        out
    }

    /// Sets the uplink / collector / analyzer metrics every workload with a
    /// collection plane reports the same way. Times are per measured lap;
    /// counts are the plane's own counters as they stand (one lap's worth
    /// where a lap builds a fresh plane).
    pub fn report_into(&self, out: &mut Outcome, tr: &Tracer) {
        out.set_per_lap("uplink.submit_ns", tr.busy_ns("uplink.submit") as f64);
        out.set_per_lap("uplink.tick_ns", tr.busy_ns("uplink.tick") as f64);
        out.set_per_lap("collector.pump_ns", tr.busy_ns("collector.pump") as f64);
        let sum = |f: fn(&HostUplink) -> u64| self.uplinks.iter().map(f).sum::<u64>() as f64;
        out.set(
            "uplink.envelopes_sent",
            self.transport.envelopes_sent as f64,
        );
        out.set("uplink.retransmissions", sum(|u| u.retransmissions));
        out.set("uplink.evicted", sum(|u| u.evicted));
        out.set("uplink.acked", sum(|u| u.acked));
        let stats = self.collector.stats();
        out.set("collector.accepted", stats.accepted as f64);
        out.set("collector.duplicates", stats.duplicates as f64);
        out.set("collector.corrupt", stats.corrupt as f64);
        out.set("collector.mismatched", stats.mismatched as f64);
        let gaps: usize = (0..self.uplinks.len())
            .map(|h| self.collector.missing_seqs(h).len())
            .sum();
        out.set("collector.gap_seqs_final", gaps as f64);
        let retention = self.analyzer.retention_stats();
        let residency = self.analyzer.residency();
        out.set(
            "analyzer.compacted_periods",
            retention.compacted_periods as f64,
        );
        out.set("analyzer.evicted_periods", retention.evicted_periods as f64);
        out.set("analyzer.cached_bytes", residency.cached_bytes as f64);
        out.set(
            "analyzer.resident_report_bytes",
            residency.resident_report_bytes as f64,
        );
    }

    /// Reports that did not become queryable exactly once: never accepted
    /// (still in flight included), handed to the analyzer twice, quarantined,
    /// or evicted by an uplink.
    pub fn unaccounted_reports(&self) -> u64 {
        let ingest = self.analyzer.ingest_stats();
        let evicted: u64 = self.uplinks.iter().map(|u| u.evicted).sum();
        self.submitted.saturating_sub(ingest.accepted)
            + ingest.duplicates
            + ingest.mismatched
            + evicted
    }
}
