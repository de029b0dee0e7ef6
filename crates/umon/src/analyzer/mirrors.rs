//! The switch side (§5, §6): mirrored-packet ingest, event clustering,
//! episode matching, the Figure 10 congestion map and duration CDF, and
//! event replay against the hosts' rate curves.

use super::{Analyzer, CongestionMap, DetectedEvent, EventMatchStats};
use crate::seqwin::SeqWindow;
use crate::switch_agent::{MirrorBatch, MirroredPacket};
use std::collections::{BTreeMap, BTreeSet};
use umon_netsim::QueueEpisode;

/// Out-of-order tolerance for mirror batch sequence numbers, per switch.
/// Batches more than this many sequence numbers behind the newest seen are
/// treated as duplicates (the dedup window has moved past them).
const MIRROR_BATCH_HORIZON: usize = 1024;

impl Analyzer {
    /// Ingests mirrored packets from a switch agent.
    pub fn add_mirrors(&mut self, mirrors: Vec<MirroredPacket>) {
        for m in mirrors {
            self.index_mirror(m);
        }
    }

    /// Ingests a sequence-numbered mirror batch, dropping redelivered batch
    /// numbers. Returns `true` if the batch was new. Dedup state is a
    /// per-switch [`SeqWindow`], so it stays bounded no matter how long the
    /// analyzer runs; a batch delivered more than `MIRROR_BATCH_HORIZON`
    /// sequence numbers late is dropped as a duplicate.
    pub fn add_mirror_batch(&mut self, batch: MirrorBatch) -> bool {
        let seen = self
            .mirror_batches_seen
            .entry(batch.switch)
            .or_insert_with(|| SeqWindow::new(MIRROR_BATCH_HORIZON));
        if !seen.insert(batch.seq) {
            self.mirror_duplicates += 1;
            return false;
        }
        for m in batch.packets {
            self.index_mirror(m);
        }
        true
    }

    /// Appends one mirror and files its position in the per-port index at
    /// its timestamp-sorted slot. Inserting after all equal timestamps keeps
    /// ties in arrival order — the same order the stable per-query sort this
    /// index replaced would have produced.
    fn index_mirror(&mut self, m: MirroredPacket) {
        let list = self.mirror_index.entry((m.switch, m.vlan)).or_default();
        let pos = list.partition_point(|&j| self.mirrors[j].ts_ns <= m.ts_ns);
        list.insert(pos, self.mirrors.len());
        self.mirrors.push(m);
    }

    /// Redelivered mirror batches dropped so far.
    pub fn mirror_duplicates(&self) -> u64 {
        self.mirror_duplicates
    }

    /// All mirrored packets seen so far.
    pub fn mirrors(&self) -> &[MirroredPacket] {
        &self.mirrors
    }

    /// Clusters mirrored packets into detected events: per (switch, VLAN),
    /// packets closer than `gap_ns` belong to the same event.
    pub fn cluster_events(&self, gap_ns: u64) -> Vec<DetectedEvent> {
        let mut events = Vec::new();
        for (&(switch, vlan), positions) in &self.mirror_index {
            let mut cur: Option<DetectedEvent> = None;
            for &j in positions {
                let m = &self.mirrors[j];
                match cur.as_mut() {
                    Some(ev) if m.ts_ns.saturating_sub(ev.end_ns) <= gap_ns => {
                        ev.end_ns = m.ts_ns;
                        ev.flows.insert(m.flow);
                        ev.packets += 1;
                    }
                    _ => {
                        if let Some(done) = cur.take() {
                            events.push(done);
                        }
                        cur = Some(DetectedEvent {
                            switch,
                            vlan,
                            start_ns: m.ts_ns,
                            end_ns: m.ts_ns,
                            flows: BTreeSet::from([m.flow]),
                            packets: 1,
                        });
                    }
                }
            }
            if let Some(done) = cur.take() {
                events.push(done);
            }
        }
        events
    }

    /// Evaluates detection against ground-truth episodes whose max queue
    /// length falls in `[qlen_min, qlen_max)` bytes. An episode counts as
    /// detected if any mirrored packet from the same switch/port lands
    /// within its span extended by `tolerance_ns` on both sides (absorbing
    /// clock offsets and the marking-to-egress delay).
    pub fn match_episodes(
        &self,
        episodes: &[QueueEpisode],
        qlen_min: u32,
        qlen_max: u32,
        tolerance_ns: u64,
    ) -> EventMatchStats {
        let mut considered = 0usize;
        let mut detected = 0usize;
        let mut flows_sum = 0usize;
        for ep in episodes {
            if ep.max_qlen < qlen_min || ep.max_qlen >= qlen_max {
                continue;
            }
            considered += 1;
            let vlan = ep.port as u16 + 1;
            let lo = ep.start_ns.saturating_sub(tolerance_ns);
            let hi = ep.end_ns.saturating_add(tolerance_ns);
            if let Some(positions) = self.mirror_index.get(&(ep.switch, vlan)) {
                // The per-port index is timestamp-sorted: binary-search the
                // episode's span instead of filtering every mirror.
                let from = positions.partition_point(|&j| self.mirrors[j].ts_ns < lo);
                let to = positions.partition_point(|&j| self.mirrors[j].ts_ns <= hi);
                let inside: BTreeSet<u64> = positions[from..to]
                    .iter()
                    .map(|&j| self.mirrors[j].flow)
                    .collect();
                if !inside.is_empty() {
                    detected += 1;
                    flows_sum += inside.len();
                }
            }
        }
        EventMatchStats {
            episodes: considered,
            detected,
            mean_flows_captured: if detected == 0 {
                0.0
            } else {
                flows_sum as f64 / detected as f64
            },
        }
    }

    /// The Figure 10a congestion map: per link (switch, VLAN), the list of
    /// detected event time spans, sorted by event count descending — the
    /// operator's "which links hurt" view.
    pub fn congestion_map(&self, gap_ns: u64) -> CongestionMap {
        let mut per_link: BTreeMap<(usize, u16), Vec<(u64, u64)>> = BTreeMap::new();
        for e in self.cluster_events(gap_ns) {
            per_link
                .entry((e.switch, e.vlan))
                .or_default()
                .push((e.start_ns, e.end_ns));
        }
        let mut out: Vec<_> = per_link.into_iter().collect();
        out.sort_by_key(|(_, spans)| std::cmp::Reverse(spans.len()));
        out
    }

    /// The Figure 10b duration distribution: sorted event durations in ns
    /// with their empirical CDF.
    pub fn duration_cdf(&self, gap_ns: u64) -> Vec<(u64, f64)> {
        let mut durations: Vec<u64> = self
            .cluster_events(gap_ns)
            .iter()
            .map(DetectedEvent::duration_ns)
            .collect();
        durations.sort_unstable();
        let n = durations.len() as f64;
        durations
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, (i + 1) as f64 / n))
            .collect()
    }

    /// Event replay (Figure 10c): the rate curves of the event's flows over
    /// `[event.start − margin, event.end + margin]`, sampled per window.
    /// `host_of_flow` maps a flow to the host that measured it (its source).
    ///
    /// Returns `(window_ids, per-flow curves)` where each curve is
    /// `(flow_id, bytes-per-window values)`.
    pub fn replay_event(
        &self,
        event: &DetectedEvent,
        margin_ns: u64,
        window_shift: u32,
        host_of_flow: impl Fn(u64) -> Option<usize>,
    ) -> (Vec<u64>, Vec<(u64, Vec<f64>)>) {
        let from = event.start_ns.saturating_sub(margin_ns) >> window_shift;
        // Trace-derived timestamps: saturate rather than wrap (release) or
        // panic (debug) when the event sits at the top of the clock range.
        let to = (event.end_ns.saturating_add(margin_ns) >> window_shift).saturating_add(1);
        let windows: Vec<u64> = (from..to).collect();
        let mut curves = Vec::new();
        for &flow in &event.flows {
            let Some(host) = host_of_flow(flow) else {
                continue;
            };
            let Some(series) = self.flow_curve(host, flow) else {
                continue;
            };
            let values: Vec<f64> = windows.iter().map(|&w| series.at(w)).collect();
            curves.push((flow, values));
        }
        (windows, curves)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::agent_config;
    use super::*;
    use crate::host_agent::HostAgent;

    fn mirror(switch: usize, vlan: u16, ts: u64, flow: u64) -> MirroredPacket {
        MirroredPacket {
            switch,
            vlan,
            ts_ns: ts,
            flow,
            psn: 0,
            wire_bytes: 1064,
            orig_bytes: 1000,
        }
    }

    /// Clustering as it ran before the per-port index: re-bucket and
    /// stable-sort every mirror per call.
    fn cluster_events_by_rebuild(a: &Analyzer, gap_ns: u64) -> Vec<DetectedEvent> {
        let mut by_port: BTreeMap<(usize, u16), Vec<&MirroredPacket>> = BTreeMap::new();
        for m in &a.mirrors {
            by_port.entry((m.switch, m.vlan)).or_default().push(m);
        }
        let mut events = Vec::new();
        for ((switch, vlan), mut packets) in by_port {
            packets.sort_by_key(|m| m.ts_ns);
            let mut cur: Option<DetectedEvent> = None;
            for m in packets {
                match cur.as_mut() {
                    Some(ev) if m.ts_ns.saturating_sub(ev.end_ns) <= gap_ns => {
                        ev.end_ns = m.ts_ns;
                        ev.flows.insert(m.flow);
                        ev.packets += 1;
                    }
                    _ => {
                        if let Some(done) = cur.take() {
                            events.push(done);
                        }
                        cur = Some(DetectedEvent {
                            switch,
                            vlan,
                            start_ns: m.ts_ns,
                            end_ns: m.ts_ns,
                            flows: BTreeSet::from([m.flow]),
                            packets: 1,
                        });
                    }
                }
            }
            if let Some(done) = cur.take() {
                events.push(done);
            }
        }
        events
    }

    #[test]
    fn clustering_splits_on_gaps_and_ports() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![
            mirror(20, 1, 1000, 1),
            mirror(20, 1, 2000, 2),
            mirror(20, 1, 100_000, 1), // > gap → new event
            mirror(20, 2, 1500, 3),    // other port → own event
        ]);
        let events = analyzer.cluster_events(50_000);
        assert_eq!(events.len(), 3);
        let first = events
            .iter()
            .find(|e| e.vlan == 1 && e.start_ns == 1000)
            .unwrap();
        assert_eq!(first.packets, 2);
        assert_eq!(first.flows.len(), 2);
    }

    #[test]
    fn congestion_map_ranks_links_by_event_count() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        // Link (20, 1): two events; link (21, 3): one.
        analyzer.add_mirrors(vec![
            mirror(20, 1, 1_000, 1),
            mirror(20, 1, 200_000, 1),
            mirror(21, 3, 5_000, 2),
        ]);
        let map = analyzer.congestion_map(50_000);
        assert_eq!(map.len(), 2);
        assert_eq!(map[0].0, (20, 1));
        assert_eq!(map[0].1.len(), 2);
        assert_eq!(map[1].0, (21, 3));
    }

    #[test]
    fn duration_cdf_is_monotone_and_complete() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![
            mirror(20, 1, 0, 1),
            mirror(20, 1, 30_000, 1), // 30 μs event
            mirror(20, 2, 0, 2),      // 0-duration event
        ]);
        let cdf = analyzer.duration_cdf(50_000);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].0, 0);
        assert_eq!(cdf[1].0, 30_000);
        assert!((cdf[1].1 - 1.0).abs() < 1e-12);
        assert!(cdf[0].1 <= cdf[1].1);
    }

    #[test]
    fn match_episodes_computes_recall_by_qlen_bin() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![mirror(20, 1, 5_000, 1)]);
        let episodes = vec![
            QueueEpisode {
                switch: 20,
                port: 0,
                start_ns: 4_000,
                end_ns: 6_000,
                max_qlen: 100_000,
            },
            QueueEpisode {
                switch: 20,
                port: 0,
                start_ns: 50_000,
                end_ns: 60_000,
                max_qlen: 120_000,
            },
        ];
        let stats = analyzer.match_episodes(&episodes, 0, u32::MAX, 1_000);
        assert_eq!(stats.episodes, 2);
        assert_eq!(stats.detected, 1);
        assert!((stats.recall() - 0.5).abs() < 1e-12);
        // Binning filters by max queue length.
        let only_big = analyzer.match_episodes(&episodes, 110_000, u32::MAX, 1_000);
        assert_eq!(only_big.episodes, 1);
        assert_eq!(only_big.detected, 0);
    }

    #[test]
    fn tolerance_absorbs_clock_offset() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        // Mirror timestamped 300 ns after the episode end (clock skew).
        analyzer.add_mirrors(vec![mirror(20, 1, 6_300, 1)]);
        let ep = QueueEpisode {
            switch: 20,
            port: 0,
            start_ns: 4_000,
            end_ns: 6_000,
            max_qlen: 50_000,
        };
        let strict = analyzer.match_episodes(&[ep], 0, u32::MAX, 100);
        assert_eq!(strict.detected, 0);
        let tolerant = analyzer.match_episodes(&[ep], 0, u32::MAX, 500);
        assert_eq!(tolerant.detected, 1);
    }

    /// `end_ns + tolerance_ns` must saturate: a wrapped upper bound makes
    /// the mirror range inverted, and slicing it aborts a release build.
    #[test]
    fn unbounded_tolerance_matches_every_episode_on_a_mirrored_port() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![mirror(20, 1, 5_000, 1)]);
        let episode = |port, start_ns| QueueEpisode {
            switch: 20,
            port,
            start_ns,
            end_ns: start_ns + 1_000,
            max_qlen: 50_000,
        };
        let episodes = [episode(0, 1_000_000), episode(0, 9_000_000), episode(3, 0)];
        let stats = analyzer.match_episodes(&episodes, 0, u32::MAX, u64::MAX);
        assert_eq!(stats.episodes, 3);
        assert_eq!(stats.detected, 2, "port 3 has no mirrors");
    }

    #[test]
    fn replay_joins_mirrors_with_rate_curves() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in 0..50u64 {
            agent.observe(5, w << 13, 2000);
        }
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(agent.finish());
        let event = DetectedEvent {
            switch: 20,
            vlan: 1,
            start_ns: 20 << 13,
            end_ns: 25 << 13,
            flows: BTreeSet::from([5u64]),
            packets: 3,
        };
        let (windows, curves) = analyzer.replay_event(&event, 2 << 13, 13, |_| Some(0));
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].0, 5);
        assert_eq!(windows.len(), curves[0].1.len());
        // Every replayed window inside the flow's life shows its rate.
        assert!(curves[0].1.iter().all(|&v| (v - 2000.0).abs() < 1e-6));
        assert_eq!(windows[0], 18);
    }

    /// Host evidence (rate curves from two different hosts) joins with
    /// switch evidence (a detected event naming both flows).
    #[test]
    fn replay_event_merges_evidence_from_multiple_hosts() {
        let cfg = agent_config();
        let mut a0 = HostAgent::new(0, cfg.clone());
        let mut a1 = HostAgent::new(1, cfg.clone());
        for w in 10..30u64 {
            a0.observe(5, w << 13, 1000);
            a1.observe(6, w << 13, 3000);
        }
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        analyzer.add_reports(a0.finish());
        analyzer.add_reports(a1.finish());
        let event = DetectedEvent {
            switch: 20,
            vlan: 1,
            start_ns: 15 << 13,
            end_ns: 18 << 13,
            flows: BTreeSet::from([5u64, 6]),
            packets: 4,
        };
        let host_of = |f: u64| Some(if f == 5 { 0 } else { 1 });
        let (windows, curves) = analyzer.replay_event(&event, 0, 13, host_of);
        assert_eq!(curves.len(), 2);
        let c5 = curves.iter().find(|(f, _)| *f == 5).unwrap();
        let c6 = curves.iter().find(|(f, _)| *f == 6).unwrap();
        assert!(c5.1.iter().all(|&v| (v - 1000.0).abs() < 1e-6));
        assert!(c6.1.iter().all(|&v| (v - 3000.0).abs() < 1e-6));
        assert_eq!(windows.first().copied(), Some(15));
        // A flow whose measuring host is unknown is skipped, not fabricated.
        let (_, partial) = analyzer.replay_event(&event, 0, 13, |f| (f == 5).then_some(0));
        assert_eq!(partial.len(), 1);
    }

    /// Regression: `end_ns + margin_ns` was unchecked, so an event at the top
    /// of the clock range wrapped to an empty window list in release builds
    /// and panicked in debug ones. The margin saturates instead.
    #[test]
    fn replay_event_near_the_end_of_the_clock_range_keeps_its_windows() {
        let analyzer = Analyzer::new(agent_config().sketch);
        let end_ns = u64::MAX - 5;
        let event = DetectedEvent {
            switch: 20,
            vlan: 1,
            start_ns: end_ns - (3 << 13),
            end_ns,
            flows: BTreeSet::from([5u64]),
            packets: 2,
        };
        let (windows, curves) = analyzer.replay_event(&event, 1 << 13, 13, |_| None);
        assert!(curves.is_empty());
        let first = (event.start_ns >> 13) - 1;
        let last = u64::MAX >> 13;
        assert_eq!(windows, (first..=last).collect::<Vec<u64>>());
        assert!(windows.contains(&(event.start_ns >> 13)) && windows.contains(&(end_ns >> 13)));
    }

    /// Several mirrors inside one ground-truth episode count it as detected
    /// exactly once, with distinct flows (not packets) as the capture count.
    #[test]
    fn overlapping_mirrors_count_an_episode_once_with_distinct_flows() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        analyzer.add_mirrors(vec![
            mirror(20, 1, 4_500, 1),
            mirror(20, 1, 5_000, 1),
            mirror(20, 1, 5_500, 2),
        ]);
        let ep = QueueEpisode {
            switch: 20,
            port: 0,
            start_ns: 4_000,
            end_ns: 6_000,
            max_qlen: 90_000,
        };
        let stats = analyzer.match_episodes(&[ep], 0, u32::MAX, 0);
        assert_eq!(stats.episodes, 1);
        assert_eq!(stats.detected, 1);
        assert!((stats.mean_flows_captured - 2.0).abs() < 1e-12);
    }

    /// Satellite equivalence: the sorted per-port mirror index reproduces
    /// the rebuild-every-time clustering exactly, including with interleaved
    /// add/query sequences, shuffled timestamps and redelivered batches.
    #[test]
    fn mirror_index_matches_rebuild_reference_interleaved() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        let mut x = 0xDEAD_BEEFu64;
        for step in 0..6 {
            // A mixed, unsorted slab of mirrors over a few ports.
            let mut slab = Vec::new();
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                slab.push(mirror(
                    20 + (x % 2) as usize,
                    1 + (x >> 3) as u16 % 3,
                    (x >> 8) % 500_000,
                    (x >> 5) % 6,
                ));
            }
            if step % 2 == 0 {
                analyzer.add_mirrors(slab);
            } else {
                let batch = MirrorBatch {
                    switch: 20,
                    seq: step as u64,
                    packets: slab.clone(),
                };
                assert!(analyzer.add_mirror_batch(batch.clone()));
                assert!(!analyzer.add_mirror_batch(batch), "redelivery must drop");
            }
            // Query between every ingest step: the index must be coherent
            // mid-stream, not only after the last add.
            for gap in [1_000u64, 50_000, u64::MAX] {
                assert_eq!(
                    analyzer.cluster_events(gap),
                    cluster_events_by_rebuild(&analyzer, gap),
                    "step {step} gap {gap}"
                );
            }
        }
        // The derived views ride on the same index.
        let map = analyzer.congestion_map(10_000);
        let events = analyzer.cluster_events(10_000);
        let total_spans: usize = map.iter().map(|(_, spans)| spans.len()).sum();
        assert_eq!(total_spans, events.len());
        let cdf = analyzer.duration_cdf(10_000);
        assert_eq!(cdf.len(), events.len());
    }

    /// Satellite regression: mirror-batch dedup state is a per-switch
    /// watermark window, bounded no matter how many batches arrive, and
    /// redeliveries — including ancient ones below the watermark — drop.
    #[test]
    fn mirror_batch_dedup_is_bounded_with_a_watermark() {
        let cfg = agent_config();
        let mut analyzer = Analyzer::new(cfg.sketch);
        let n = (MIRROR_BATCH_HORIZON as u64) * 3;
        for seq in 0..n {
            let fresh = analyzer.add_mirror_batch(MirrorBatch {
                switch: 20,
                seq,
                packets: vec![mirror(20, 1, seq * 10, seq % 5)],
            });
            assert!(fresh, "first delivery of seq {seq} must be accepted");
        }
        // Redelivery inside the window and far below the watermark both drop.
        for seq in [n - 1, n - 7, 0, 1] {
            let fresh = analyzer.add_mirror_batch(MirrorBatch {
                switch: 20,
                seq,
                packets: vec![mirror(20, 1, 1, 1)],
            });
            assert!(!fresh, "redelivered seq {seq} must drop");
        }
        assert_eq!(analyzer.mirror_duplicates(), 4);
        assert_eq!(analyzer.mirrors().len(), n as usize);
        let seen = &analyzer.mirror_batches_seen[&20];
        assert!(seen.tail_len() <= MIRROR_BATCH_HORIZON);
    }
}
