//! Seeded synthetic inputs and the exact ground truth they are checked
//! against. Nothing here is timed as a layer; it is the load generator.

use std::collections::HashMap;
use umon::{HostAgent, HostAgentConfig, PeriodReport};
use umon_metrics::{align_curves, average_relative_error, energy_similarity, RateCurve};
use umon_netsim::{FlowId, TxRecord};
use wavesketch::basic::WindowSeries;

/// Records per `HostAgent::ingest` call — the burst a NIC tap hands over.
pub const BURST: usize = 32;

/// SplitMix64: the benchmark's only randomness, one `u64` of state.
#[derive(Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A host whose flows are all paced: `flows` concurrent flows, each sending
/// one `pkt_bytes` packet every `gap_ns` at its own seeded phase — the shape
/// DCQCN-throttled traffic has once every flow is rate-limited.
#[derive(Clone, Copy)]
pub struct Paced {
    pub flows: u64,
    pub gap_ns: u64,
    pub span_ns: u64,
    pub pkt_bytes: u32,
}

impl Paced {
    /// The host's egress records in timestamp order, and its flow ids.
    pub fn host_records(&self, host: usize, seed: u64) -> (Vec<TxRecord>, Vec<u64>) {
        let mut rng = SplitMix64(seed ^ (host as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let base = rng.next_u64() >> 24;
        let mut phased: Vec<(u64, u64)> = (0..self.flows)
            .map(|i| (rng.below(self.gap_ns), base + i))
            .collect();
        phased.sort_unstable();
        let rounds = self.span_ns / self.gap_ns;
        let mut records = Vec::with_capacity((rounds * self.flows) as usize);
        for r in 0..rounds {
            for &(phase, flow) in &phased {
                records.push(TxRecord {
                    host,
                    flow: FlowId(flow),
                    ts_ns: r * self.gap_ns + phase,
                    bytes: self.pkt_bytes,
                });
            }
        }
        (records, phased.into_iter().map(|(_, f)| f).collect())
    }
}

/// Splits a time-ordered tap into per-host slices (`HostAgent::ingest`
/// skips other hosts' records one by one, so a shared tap would cost every
/// agent the whole trace).
pub fn split_by_host(records: &[TxRecord], hosts: usize) -> Vec<Vec<TxRecord>> {
    let mut per_host = vec![Vec::new(); hosts];
    for r in records {
        per_host[r.host].push(*r);
    }
    per_host
}

/// Exact per-window bytes of every `(host, flow)` and per-period bytes of
/// every host, from the records the host agents were fed.
#[derive(Default)]
pub struct Truth {
    flows: HashMap<(usize, u64), Vec<(u64, f64)>>,
    period_bytes: HashMap<(usize, u64), u64>,
    window_shift: u32,
    period_ns: u64,
}

impl Truth {
    pub fn new(cfg: &HostAgentConfig) -> Self {
        Self {
            window_shift: cfg.window_shift,
            period_ns: cfg.period_ns,
            ..Self::default()
        }
    }

    /// Adds records (time-ordered per flow).
    pub fn add(&mut self, records: &[TxRecord]) {
        for r in records {
            let w = r.ts_ns >> self.window_shift;
            let curve = self.flows.entry((r.host, r.flow.0)).or_default();
            match curve.last_mut() {
                Some((lw, b)) if *lw == w => *b += f64::from(r.bytes),
                _ => curve.push((w, f64::from(r.bytes))),
            }
            *self
                .period_bytes
                .entry((r.host, r.ts_ns / self.period_ns))
                .or_default() += u64::from(r.bytes);
        }
    }

    /// Every `(host, flow)` with at least one packet, sorted.
    pub fn flow_keys(&self) -> Vec<(usize, u64)> {
        let mut keys: Vec<_> = self.flows.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The flow's true curve, zero-filled between its first and last window.
    pub fn curve(&self, host: usize, flow: u64) -> Option<RateCurve> {
        let points = self.flows.get(&(host, flow))?;
        let (first, last) = (points.first()?.0, points.last()?.0);
        let mut samples = vec![0.0; (last - first + 1) as usize];
        for &(w, b) in points {
            samples[(w - first) as usize] = b;
        }
        Some(RateCurve::new(first, samples))
    }

    /// Bytes `host` sent in the given periods.
    pub fn host_bytes_in(&self, host: usize, periods: impl Iterator<Item = u64>) -> u64 {
        periods
            .filter_map(|p| self.period_bytes.get(&(host, p)))
            .sum()
    }
}

/// Reports whose first light row does not total exactly the bytes `truth`
/// says the host sent in that period. Every packet lands in one bucket of
/// each light row and approximation coefficients are exact block sums, so a
/// drained report conserves bytes whatever the detail compression dropped.
pub fn reports_leaking_bytes(reports: &[PeriodReport], truth: &Truth) -> Vec<String> {
    reports
        .iter()
        .filter_map(|r| {
            let sketched: i64 = r
                .report
                .light
                .iter()
                .filter(|(row, _, _)| *row == 0)
                .flat_map(|(_, _, epochs)| epochs)
                .map(|epoch| epoch.total())
                .sum();
            let sent = truth.host_bytes_in(r.host, std::iter::once(r.period));
            (sketched != sent as i64).then(|| {
                format!(
                    "host {} period {}: sketched {sketched} B, sent {sent} B",
                    r.host, r.period
                )
            })
        })
        .collect()
}

/// ARE and energy similarity of an estimate against the true curve.
pub fn accuracy(truth: &RateCurve, estimate: &WindowSeries) -> (f64, f64) {
    let est = RateCurve::new(estimate.start_window, estimate.values.clone());
    let (t, e) = align_curves(truth, &est);
    (average_relative_error(&t, &e), energy_similarity(&t, &e))
}

/// True when two curves are the same bits.
pub fn bit_equal(a: &WindowSeries, b: &WindowSeries) -> bool {
    a.start_window == b.start_window
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Dense period reports for `hosts` hosts × `periods` periods, built off the
/// clock by real `HostAgent`s over paced traffic. Only `distinct` hosts'
/// traffic is generated and sketched; the others are relabelled copies, so
/// set-up stays a small share of a run while every report keeps a realistic
/// size (a host near line rate fills the sketch every period).
pub struct ReportSet {
    /// `by_host[h]`: host `h`'s reports in period order.
    pub by_host: Vec<Vec<PeriodReport>>,
    /// `flows[h]`: the flow ids host `h` carried.
    pub flows: Vec<Vec<u64>>,
}

impl ReportSet {
    pub fn build(
        cfg: &HostAgentConfig,
        shape: Paced,
        hosts: usize,
        distinct: usize,
        seed: u64,
    ) -> Self {
        let mut by_host: Vec<Vec<PeriodReport>> = Vec::with_capacity(hosts);
        let mut flows: Vec<Vec<u64>> = Vec::with_capacity(hosts);
        for h in 0..hosts.min(distinct) {
            let (records, ids) = shape.host_records(h, seed);
            let mut agent = HostAgent::new(h, cfg.clone());
            for burst in records.chunks(BURST) {
                agent.ingest(burst);
            }
            by_host.push(agent.finish());
            flows.push(ids);
        }
        for h in distinct..hosts {
            let mut copy = by_host[h % distinct].clone();
            for r in &mut copy {
                r.host = h;
            }
            by_host.push(copy);
            flows.push(flows[h % distinct].clone());
        }
        Self { by_host, flows }
    }

    /// Reports in the set.
    pub fn count(&self) -> usize {
        self.by_host.iter().map(Vec::len).sum()
    }

    /// Every report in `(period, host)` order — the order a live fleet
    /// uploads in.
    pub fn in_upload_order(&self) -> Vec<PeriodReport> {
        let mut all: Vec<PeriodReport> = self.by_host.iter().flatten().cloned().collect();
        all.sort_by_key(|r| (r.period, r.host));
        all
    }

    /// Upload bandwidth per host in Mb/s over `span_ns` of traffic.
    pub fn mbps_per_host(&self, span_ns: u64) -> f64 {
        let bps: f64 = self
            .by_host
            .iter()
            .map(|reports| HostAgent::report_bandwidth_bps(reports, span_ns))
            .sum();
        bps / 1e6 / self.by_host.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_records_are_time_ordered_and_seeded() {
        let shape = Paced {
            flows: 50,
            gap_ns: 10_000,
            span_ns: 100_000,
            pkt_bytes: 1000,
        };
        let (a, ids) = shape.host_records(3, 9);
        let (b, _) = shape.host_records(3, 9);
        let (c, _) = shape.host_records(3, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
        assert_eq!(ids.len(), 50);
        assert!(a.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert!(a.iter().all(|r| r.host == 3));
    }

    #[test]
    fn truth_sums_windows_and_periods() {
        let cfg = HostAgentConfig {
            period_ns: 1 << 15,
            ..HostAgentConfig::default()
        };
        let mut truth = Truth::new(&cfg);
        let rec = |ts_ns, bytes| TxRecord {
            host: 1,
            flow: FlowId(7),
            ts_ns,
            bytes,
        };
        truth.add(&[rec(0, 100), rec(10, 50), rec(3 << 13, 25), rec(1 << 15, 5)]);
        let curve = truth.curve(1, 7).unwrap();
        assert_eq!(curve.start_window, 0);
        assert_eq!(curve.samples, vec![150.0, 0.0, 0.0, 25.0, 5.0]);
        assert_eq!(truth.host_bytes_in(1, [0u64].into_iter()), 175);
        assert_eq!(truth.host_bytes_in(1, [0u64, 1].into_iter()), 180);
        assert_eq!(truth.flow_keys(), vec![(1, 7)]);
    }
}
