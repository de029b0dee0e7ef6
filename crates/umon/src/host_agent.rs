//! The μFlow host agent: a full WaveSketch fed by the host's egress packet
//! stream, drained into an uploadable report every measurement period.

use umon_netsim::TxRecord;
use wavesketch::{FlowKey, FullWaveSketch, SketchConfig, SketchReport};

/// Host-agent configuration.
#[derive(Debug, Clone)]
pub struct HostAgentConfig {
    /// Sketch layout and wavelet parameters.
    pub sketch: SketchConfig,
    /// Measurement / reporting period in ns (paper: 20 ms).
    pub period_ns: u64,
    /// Window id = local timestamp >> this shift (13 → 8.192 μs windows).
    pub window_shift: u32,
}

impl Default for HostAgentConfig {
    fn default() -> Self {
        Self {
            sketch: SketchConfig::builder()
                .rows(3)
                .width(256)
                .levels(8)
                .topk(64)
                .max_windows(4096)
                .heavy_rows(256)
                .build(),
            period_ns: 20_000_000,
            window_shift: wavesketch::DEFAULT_WINDOW_SHIFT,
        }
    }
}

/// One uploaded report: the sketch contents of one measurement period.
/// Serializable so reports can be archived and replayed into an analyzer
/// offline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PeriodReport {
    /// Period index (`floor(local_ts / period_ns)`).
    pub period: u64,
    /// Reporting host.
    pub host: usize,
    /// Fingerprint of the sketch configuration that produced the report —
    /// the analyzer can only reconstruct reports matching its own config.
    pub config_fingerprint: u64,
    /// The drained sketch.
    pub report: SketchReport,
}

impl PeriodReport {
    /// Envelope metadata bytes each upload carries in addition to the sketch
    /// payload: period index (8) + host id (4) + config fingerprint (8) +
    /// the collector sequence number (8, see `umon::collector::Envelope`).
    pub const ENVELOPE_WIRE_BYTES: usize = 28;

    /// Bytes of [`Self::encode`] ahead of the sketch: period, host and
    /// config fingerprint.
    pub(crate) const ENCODED_HEADER: usize = 24;

    /// Upload size in bytes, envelope included. Earlier accounting forwarded
    /// to the payload alone and undercounted the bandwidth-vs-accuracy
    /// experiments by the per-period envelope overhead.
    pub fn wire_bytes(&self) -> usize {
        Self::ENVELOPE_WIRE_BYTES + self.report.wire_bytes()
    }

    /// The compact binary encoding: period, host and config fingerprint as
    /// fixed LE u64s, then the varint [`SketchReport`] codec. These bytes
    /// are the archive's record payload (`crate::archive`), so changing
    /// them orphans every archive already written; the uplink keeps the
    /// same encoding for retransmission and replay.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Self::encode`]'s bytes to `out`, so a caller with a warm
    /// buffer encodes without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.period.to_le_bytes());
        out.extend_from_slice(&(self.host as u64).to_le_bytes());
        out.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        self.report.encode_into(out);
    }

    /// Decodes [`Self::encode`]'s bytes; `None` on truncation or trailing
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < Self::ENCODED_HEADER {
            return None;
        }
        let period = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let host = usize::try_from(u64::from_le_bytes(bytes[8..16].try_into().ok()?)).ok()?;
        let config_fingerprint = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        let report = SketchReport::decode(&bytes[Self::ENCODED_HEADER..])?;
        Some(Self {
            period,
            host,
            config_fingerprint,
            report,
        })
    }
}

/// The per-host measurement agent.
///
/// ```
/// use umon::{HostAgent, HostAgentConfig};
///
/// let mut agent = HostAgent::new(0, HostAgentConfig::default());
/// // One packet of 1500 B at t = 1 ms for flow 7.
/// agent.observe(7, 1_000_000, 1500);
/// let reports = agent.finish();
/// assert_eq!(reports.len(), 1);
/// assert!(reports[0].wire_bytes() > 0);
/// ```
pub struct HostAgent {
    /// This host's node id.
    pub host: usize,
    config: HostAgentConfig,
    sketch: FullWaveSketch,
    current_period: Option<u64>,
    finished: Vec<PeriodReport>,
    /// Staging buffer for [`Self::ingest`]: records of the current period
    /// accumulate here and flush through the sketch's batch pipeline. Always
    /// empty between calls (drained at every period boundary and at the end
    /// of each ingest slice), so mixing `ingest` and `observe` stays sound.
    ingest_buf: Vec<(FlowKey, u64, i64)>,
    /// Total packets observed.
    pub packets: u64,
    /// Total bytes observed.
    pub bytes: u64,
}

impl HostAgent {
    /// Creates an agent for `host`.
    pub fn new(host: usize, config: HostAgentConfig) -> Self {
        let sketch = FullWaveSketch::new(config.sketch.clone());
        Self {
            host,
            config,
            sketch,
            current_period: None,
            finished: Vec::new(),
            ingest_buf: Vec::new(),
            packets: 0,
            bytes: 0,
        }
    }

    /// Observes one egress packet (already timestamped with the host's local
    /// clock). Records must arrive in non-decreasing timestamp order.
    pub fn observe(&mut self, flow_id: u64, local_ts_ns: u64, bytes: u32) {
        let period = local_ts_ns / self.config.period_ns;
        match self.current_period {
            None => self.current_period = Some(period),
            Some(cur) if period > cur => {
                self.flush_period(cur);
                self.current_period = Some(period);
            }
            _ => {}
        }
        let window = local_ts_ns >> self.config.window_shift;
        let key = FlowKey::from_id(flow_id);
        self.sketch.update(&key, window, bytes as i64);
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    /// Feeds every record of this host from a simulation tap, batching
    /// consecutive same-period records through the sketch's SIMD batch
    /// pipeline ([`FullWaveSketch::update_batch`]). Bit-identical to calling
    /// [`Self::observe`] per record: the staging buffer flushes *before*
    /// every period drain and again at the end of the slice, so drains see
    /// exactly the records a scalar replay would have applied.
    pub fn ingest(&mut self, records: &[TxRecord]) {
        for r in records {
            if r.host != self.host {
                continue;
            }
            let period = r.ts_ns / self.config.period_ns;
            match self.current_period {
                None => self.current_period = Some(period),
                Some(cur) if period > cur => {
                    self.flush_ingest_buf();
                    self.flush_period(cur);
                    self.current_period = Some(period);
                }
                _ => {}
            }
            let window = r.ts_ns >> self.config.window_shift;
            self.ingest_buf
                .push((FlowKey::from_id(r.flow.0), window, r.bytes as i64));
            self.packets += 1;
            self.bytes += r.bytes as u64;
        }
        self.flush_ingest_buf();
    }

    fn flush_ingest_buf(&mut self) {
        if !self.ingest_buf.is_empty() {
            self.sketch.update_batch(&self.ingest_buf);
            self.ingest_buf.clear();
        }
    }

    fn flush_period(&mut self, period: u64) {
        let report = self.sketch.drain();
        if report.epoch_count() > 0 {
            self.finished.push(PeriodReport {
                period,
                host: self.host,
                config_fingerprint: self.config.sketch.fingerprint(),
                report,
            });
        }
    }

    /// Takes the reports of periods that have already closed, leaving the
    /// in-progress period counting. This is the incremental upload path: an
    /// uplink polls it after each batch of observations and ships whatever
    /// completed, instead of waiting for [`Self::finish`].
    pub fn poll_finished(&mut self) -> Vec<PeriodReport> {
        std::mem::take(&mut self.finished)
    }

    /// Flushes the in-progress period and returns all reports collected so
    /// far, leaving the agent empty.
    pub fn finish(mut self) -> Vec<PeriodReport> {
        if let Some(cur) = self.current_period.take() {
            self.flush_period(cur);
        }
        self.finished
    }

    /// Average upload bandwidth in bits per second given the observation
    /// span, for the §7.1 "~5 Mbps per host" accounting. Includes the
    /// still-open period's projected upload.
    pub fn report_bandwidth_bps(reports: &[PeriodReport], span_ns: u64) -> f64 {
        if span_ns == 0 {
            return 0.0;
        }
        let bits: usize = reports.iter().map(|r| r.wire_bytes() * 8).sum();
        bits as f64 / (span_ns as f64 / 1e9)
    }

    /// The sketch configuration (for analyzer-side reconstruction).
    pub fn config(&self) -> &HostAgentConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HostAgentConfig {
        HostAgentConfig {
            sketch: SketchConfig::builder()
                .rows(2)
                .width(32)
                .levels(4)
                .topk(32)
                .max_windows(4096)
                .heavy_rows(16)
                .build(),
            period_ns: 1_000_000, // 1 ms periods for fast tests
            window_shift: 13,
        }
    }

    #[test]
    fn packets_accumulate_into_reports() {
        let mut agent = HostAgent::new(0, small_config());
        for i in 0..100u64 {
            agent.observe(1, i * 10_000, 1000);
        }
        let reports = agent.finish();
        assert_eq!(reports.len(), 1, "all packets in one period");
        assert!(reports[0].wire_bytes() > 0);
    }

    #[test]
    fn period_boundaries_split_reports() {
        let mut agent = HostAgent::new(0, small_config());
        agent.observe(1, 100, 1000); // period 0
        agent.observe(1, 1_500_000, 1000); // period 1
        agent.observe(1, 2_500_000, 1000); // period 2
        let reports = agent.finish();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].period, 0);
        assert_eq!(reports[2].period, 2);
    }

    #[test]
    fn ingest_filters_by_host() {
        use umon_netsim::FlowId;
        let mut agent = HostAgent::new(3, small_config());
        let records = vec![
            TxRecord {
                host: 3,
                flow: FlowId(1),
                ts_ns: 0,
                bytes: 500,
            },
            TxRecord {
                host: 4,
                flow: FlowId(2),
                ts_ns: 10,
                bytes: 500,
            },
            TxRecord {
                host: 3,
                flow: FlowId(1),
                ts_ns: 20,
                bytes: 500,
            },
        ];
        agent.ingest(&records);
        assert_eq!(agent.packets, 2);
        assert_eq!(agent.bytes, 1000);
    }

    #[test]
    fn bandwidth_accounting_follows_report_sizes() {
        let mut agent = HostAgent::new(0, small_config());
        for i in 0..1000u64 {
            agent.observe(i % 7, i * 1000, 1000);
        }
        let reports = agent.finish();
        let bits: usize = reports.iter().map(|r| r.wire_bytes() * 8).sum();
        let bps = HostAgent::report_bandwidth_bps(&reports, 1_000_000);
        assert!((bps - bits as f64 * 1000.0).abs() < 1.0);
    }

    #[test]
    fn empty_agent_produces_no_reports() {
        let agent = HostAgent::new(0, small_config());
        assert!(agent.finish().is_empty());
    }

    #[test]
    fn wire_bytes_include_the_envelope() {
        let mut agent = HostAgent::new(0, small_config());
        agent.observe(1, 100, 1000);
        let reports = agent.finish();
        assert_eq!(
            reports[0].wire_bytes(),
            PeriodReport::ENVELOPE_WIRE_BYTES + reports[0].report.wire_bytes()
        );
    }

    #[test]
    fn poll_finished_drains_closed_periods_only() {
        let mut agent = HostAgent::new(0, small_config());
        agent.observe(1, 100, 1000); // period 0
        agent.observe(1, 1_500_000, 1000); // period 1 (closes period 0)
        let closed = agent.poll_finished();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].period, 0);
        assert!(agent.poll_finished().is_empty(), "drained already");
        // The open period still flushes at finish.
        let rest = agent.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].period, 1);
    }

    #[test]
    fn period_reports_roundtrip_through_serde() {
        let mut agent = HostAgent::new(2, small_config());
        agent.observe(9, 12_345, 777);
        agent.observe(9, 50_000, 223);
        let reports = agent.finish();
        let json = serde_json::to_string(&reports).unwrap();
        let back: Vec<PeriodReport> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), reports.len());
        assert_eq!(back[0].host, 2);
        assert_eq!(back[0].config_fingerprint, reports[0].config_fingerprint);
        assert_eq!(back[0].wire_bytes(), reports[0].wire_bytes());
    }

    #[test]
    fn default_config_matches_paper_settings() {
        let c = HostAgentConfig::default();
        assert_eq!(c.period_ns, 20_000_000);
        assert_eq!(c.window_shift, 13);
        assert_eq!(c.sketch.rows, 3);
        assert_eq!(c.sketch.width, 256);
        assert_eq!(c.sketch.levels, 8);
    }
}
