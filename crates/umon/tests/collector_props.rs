//! Property-based tests for the collection plane (`umon::collector`):
//! dedup idempotence, gap-detection accuracy and bounded retransmit memory
//! under randomly drawn fault schedules.

use proptest::prelude::*;
use std::collections::BTreeSet;
use umon::{
    Analyzer, Collector, Envelope, FaultSpec, FaultyTransport, HostAgent, HostAgentConfig,
    HostUplink, PeriodReport, RetransmitPolicy, SeqWindow, Transport,
};
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
        period_ns: 16 << 13, // 16 windows per upload period
        window_shift: 13,
    }
}

/// Builds one host's period reports from a drawn traffic sample.
fn make_reports(host: usize, traffic: &[(u64, u32)]) -> Vec<PeriodReport> {
    let cfg = agent_config();
    let mut agent = HostAgent::new(host, cfg);
    let mut sorted = traffic.to_vec();
    sorted.sort_unstable();
    for &(w, bytes) in &sorted {
        agent.observe(1 + w % 5, w << 13, bytes);
    }
    agent.finish()
}

/// Random traffic: windows spread over many periods, so several reports.
fn traffic() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..200, 64u32..1500), 8..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dedup idempotence: replaying every already-accepted envelope a second
    /// time changes nothing — same curves, zero newly accepted, every replay
    /// counted as a duplicate.
    #[test]
    fn redelivery_is_idempotent(traffic in traffic(), seed in 0u64..1_000_000) {
        let reports = make_reports(0, &traffic);
        if reports.is_empty() {
            return Ok(());
        }
        let cfg = agent_config();
        let n = reports.len() as u64;
        let envelopes: Vec<Envelope> = reports
            .iter()
            .cloned()
            .enumerate()
            .map(|(s, r)| Envelope::seal(s as u64, r))
            .collect();

        let mut transport = FaultyTransport::new(seed, FaultSpec::NONE);
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        for env in &envelopes {
            transport.send(env.clone());
        }
        let first = collector.pump(&mut transport, &mut analyzer);
        prop_assert_eq!(first.accepted, n);
        let curve = analyzer.host_rate_curve(0);

        // Replay the whole set, twice.
        for _ in 0..2 {
            for env in &envelopes {
                transport.send(env.clone());
            }
        }
        let replay = collector.pump(&mut transport, &mut analyzer);
        prop_assert_eq!(replay.accepted, 0);
        prop_assert_eq!(replay.duplicates, 2 * n);
        prop_assert_eq!(analyzer.ingest_stats().accepted, n);
        prop_assert_eq!(&analyzer.host_rate_curve(0), &curve);
        prop_assert!(collector.missing_seqs(0).is_empty());
    }

    /// Zero-loss faults (duplication + reordering at any rate) leave the
    /// delivered report set — and so every reconstruction — identical to a
    /// lossless run, with no retransmission needed.
    #[test]
    fn lossless_faults_cannot_change_curves(
        traffic in traffic(),
        seed in 0u64..1_000_000,
        dup in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
    ) {
        let reports = make_reports(0, &traffic);
        if reports.is_empty() {
            return Ok(());
        }
        let cfg = agent_config();
        let n = reports.len() as u64;
        let mut reference = Analyzer::new(cfg.sketch.clone());
        reference.add_reports(reports.clone());

        let spec = FaultSpec { duplicate: dup, reorder, ..FaultSpec::NONE };
        let mut transport = FaultyTransport::new(seed, spec);
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        for (s, r) in reports.into_iter().enumerate() {
            transport.send(Envelope::seal(s as u64, r));
        }
        // Two pumps: reordered envelopes surface on the first deliver, any
        // that were held surface by the second.
        collector.pump(&mut transport, &mut analyzer);
        collector.pump(&mut transport, &mut analyzer);

        prop_assert_eq!(collector.stats().accepted, n);
        prop_assert_eq!(collector.stats().duplicates, transport.log(0).duplicated);
        prop_assert!(collector.missing_seqs(0).is_empty());
        for flow in 1..6u64 {
            prop_assert_eq!(&analyzer.flow_curve(0, flow), &reference.flow_curve(0, flow));
        }
        prop_assert_eq!(&analyzer.host_rate_curve(0), &reference.host_rate_curve(0));
        prop_assert!(analyzer.host_coverage(0).is_complete());
    }

    /// Gap detection is exact: without retransmission, the collector's
    /// missing-sequence list is precisely the dropped sequence numbers below
    /// the highest delivered one (a trailing drop is unobservable).
    #[test]
    fn gap_detection_matches_the_fault_log(
        traffic in traffic(),
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.9,
    ) {
        let reports = make_reports(0, &traffic);
        if reports.is_empty() {
            return Ok(());
        }
        let cfg = agent_config();
        let spec = FaultSpec { drop, ..FaultSpec::NONE };
        let mut transport = FaultyTransport::new(seed, spec);
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        for (s, r) in reports.into_iter().enumerate() {
            transport.send(Envelope::seal(s as u64, r));
        }
        collector.pump(&mut transport, &mut analyzer);

        let log = transport.log(0);
        let delivered_max = (0..log.sent).filter(|s| !log.dropped_seqs.contains(s)).max();
        let expect: Vec<u64> = match delivered_max {
            None => Vec::new(),
            Some(m) => log.dropped_seqs.iter().copied().filter(|&s| s < m).collect(),
        };
        prop_assert_eq!(collector.missing_seqs(0), expect.clone());
        prop_assert_eq!(collector.missing_count(0), expect.len() as u64);
        prop_assert_eq!(collector.stats().accepted, log.sent - log.dropped);
        if delivered_max.is_some() {
            prop_assert_eq!(analyzer.host_coverage(0).known_lost, expect.len() as u64);
        }
    }

    /// Retransmit memory is hard-bounded: whatever the fault schedule, the
    /// uplink never buffers more than `capacity` envelopes, and every
    /// submitted report is accounted as acked, evicted or still in flight.
    #[test]
    fn retransmit_buffer_is_bounded(
        traffic in traffic(),
        seed in 0u64..1_000_000,
        capacity in 1usize..8,
        drop in 0.0f64..0.6,
        ack_drop in 0.0f64..0.6,
        rounds in 1u64..40,
    ) {
        let reports = make_reports(0, &traffic);
        if reports.is_empty() {
            return Ok(());
        }
        let n = reports.len() as u64;
        let cfg = agent_config();
        let spec = FaultSpec { drop, ack_drop, ..FaultSpec::NONE };
        let mut transport = FaultyTransport::new(seed, spec);
        let policy = RetransmitPolicy { capacity, ..RetransmitPolicy::default() };
        let mut uplink = HostUplink::new(0, policy);
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());

        // Trickle reports in while the network misbehaves, checking the
        // memory bound after every step.
        let mut queue = reports;
        for now in 0..rounds {
            if !queue.is_empty() {
                let batch = vec![queue.remove(0)];
                uplink.submit(batch);
            }
            prop_assert!(uplink.in_flight() <= capacity);
            uplink.tick(now, &mut transport);
            prop_assert!(uplink.in_flight() <= capacity);
            collector.pump(&mut transport, &mut analyzer);
            prop_assert_eq!(
                collector.missing_count(0),
                collector.missing_seqs(0).len() as u64
            );
        }
        // Submit any remainder at once — eviction must absorb the burst.
        uplink.submit(queue);
        prop_assert!(uplink.in_flight() <= capacity);
        prop_assert_eq!(uplink.submitted(), n);
        prop_assert_eq!(
            uplink.acked + uplink.evicted + uplink.in_flight() as u64,
            n,
            "every report accounted for"
        );
    }

    /// Under any survivable fault mix, enough patience makes the analyzer
    /// state bit-identical to the lossless run: retransmission closes every
    /// gap and dedup absorbs every redundant copy.
    #[test]
    fn retransmission_eventually_recovers_everything(
        traffic in traffic(),
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.3,
        dup in 0.0f64..0.2,
        reorder in 0.0f64..0.2,
        truncate in 0.0f64..0.2,
        ack_drop in 0.0f64..0.3,
    ) {
        let reports = make_reports(0, &traffic);
        if reports.is_empty() {
            return Ok(());
        }
        let cfg = agent_config();
        let n = reports.len() as u64;
        let mut reference = Analyzer::new(cfg.sketch.clone());
        reference.add_reports(reports.clone());

        let spec = FaultSpec { drop, duplicate: dup, reorder, truncate, ack_drop };
        let mut transport = FaultyTransport::new(seed, spec);
        let mut uplink = HostUplink::new(0, RetransmitPolicy::default());
        let mut collector = Collector::new();
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        uplink.submit(reports);
        for now in 0..3000u64 {
            uplink.tick(now, &mut transport);
            collector.pump(&mut transport, &mut analyzer);
            prop_assert_eq!(
                collector.missing_count(0),
                collector.missing_seqs(0).len() as u64
            );
            if uplink.in_flight() == 0 && collector.stats().accepted == n {
                break;
            }
        }
        prop_assert_eq!(collector.stats().accepted, n);
        prop_assert!(collector.missing_seqs(0).is_empty());
        prop_assert_eq!(analyzer.ingest_stats().accepted, n);
        prop_assert_eq!(&analyzer.host_rate_curve(0), &reference.host_rate_curve(0));
        for flow in 1..6u64 {
            prop_assert_eq!(&analyzer.flow_curve(0, flow), &reference.flow_curve(0, flow));
        }
        prop_assert!(analyzer.host_coverage(0).is_complete());
    }

    /// The bounded dedup window is *exactly* the full-set dedup for any
    /// reorder (and any duplication) within the horizon: same accept/reject
    /// per insert, same membership, same hole enumeration — so the
    /// collector's gap accounting (`known_lost`) is unchanged by the
    /// watermark refactor.
    #[test]
    fn seq_window_matches_full_set_within_horizon(
        stream in proptest::collection::vec(0u64..64, 1..300),
    ) {
        // Every drawn id is < 64 and the horizon is 512, so no reorder in
        // this stream can force the window to concede anything.
        let mut window = SeqWindow::new(512);
        let mut full: BTreeSet<u64> = BTreeSet::new();
        for &s in &stream {
            prop_assert_eq!(window.insert(s), full.insert(s), "insert({}) diverged", s);
        }
        prop_assert_eq!(window.skipped(), 0);

        let max = *full.iter().next_back().unwrap();
        for s in 0..=max + 2 {
            prop_assert_eq!(window.contains(s), full.contains(&s), "contains({}) diverged", s);
        }

        // Hole enumeration (what `Collector::missing_seqs` is built from)
        // matches the full-set computation `(0..=max).filter(!seen)`.
        let mut holes = Vec::new();
        window.for_each_hole(|h| holes.push(h));
        let expect: Vec<u64> = (0..=max).filter(|s| !full.contains(s)).collect();
        prop_assert_eq!(holes, expect);
        prop_assert_eq!(window.hole_count(), (max + 1) - full.len() as u64);
        prop_assert_eq!(window.max_seen(), Some(max));
    }

    /// Beyond the horizon the window trades exactness for bounded memory,
    /// but its accounting stays conservation-exact: every id in the heard
    /// range is seen, a known hole, or counted as conceded.
    #[test]
    fn seq_window_conservation_under_hostile_reorder(
        stream in proptest::collection::vec(0u64..10_000, 1..400),
        horizon in 1usize..12,
    ) {
        let mut window = SeqWindow::new(horizon);
        let mut inserted: BTreeSet<u64> = BTreeSet::new();
        for &s in &stream {
            if window.insert(s) {
                inserted.insert(s);
            }
            prop_assert!(window.tail_len() <= horizon);
        }
        let max = window.max_seen().unwrap();
        // floor splits the range: below it everything is seen-or-conceded,
        // above it tail + holes partition [floor, max].
        let below = window.floor();
        let seen_below = inserted.iter().filter(|&&s| s < below).count() as u64;
        prop_assert_eq!(below, seen_below + window.skipped());
        prop_assert_eq!(
            max + 1 - below,
            window.tail_len() as u64 + window.hole_count()
        );
        // Accepted inserts are never forgotten.
        for &s in &inserted {
            prop_assert!(window.contains(s));
        }
    }
}
