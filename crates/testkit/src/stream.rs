//! Seeded, deterministic packet-stream generation for differential testing,
//! plus the metamorphic stream transforms (within-window shuffling, value
//! scaling) whose effect on drained reports is provable.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wavesketch::FlowKey;

/// One sketch update: `(flow, absolute window, value)`.
pub type Update = (FlowKey, u64, i64);

/// The workload shapes the fuzzer covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Uniform background: every flow equally likely, small values.
    Uniform,
    /// Skewed elephants-and-mice mix (the datacenter heavy-tail shape).
    Skewed,
    /// Bursty incast: idle gaps punctuated by synchronized fan-in bursts.
    Bursty,
    /// Incast storm (the `umon_workloads::scenario` shape): strictly
    /// periodic rounds where a small fan-in set slams one window with
    /// MTU-sized packets (some jittering into the next), then silence.
    Incast,
    /// Allreduce collective: lockstep steps where *every* flow sends one
    /// equal-sized chunk in the same window, silence between steps — the
    /// worst case for per-window counter contention.
    Allreduce,
    /// Paced flows (the pipeline benchmark's `host_paced` / `collect_*`
    /// shape): every flow sends one equal-sized packet per fixed gap at its
    /// own seeded phase. Nearly every packet closes a window, and a bucket's
    /// coefficients come in large groups of *equal* weighted energy — full
    /// retained stores deciding between ties, which the other shapes'
    /// random sizes almost never produce.
    Paced,
}

impl StreamKind {
    /// The original three workload kinds — the exhaustive tier-1 sweep.
    /// Deliberately unchanged when the adversarial kinds were added: every
    /// committed seed/coverage expectation downstream is pinned to this set.
    pub const ALL: [StreamKind; 3] = [StreamKind::Uniform, StreamKind::Skewed, StreamKind::Bursty];

    /// The scenario-matrix shapes (see `umon_workloads::scenario`), swept by
    /// the adversarial differential tests on top of [`StreamKind::ALL`].
    pub const ADVERSARIAL: [StreamKind; 3] =
        [StreamKind::Incast, StreamKind::Allreduce, StreamKind::Paced];

    /// Stable lower-case name (used in failure messages and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Uniform => "uniform",
            StreamKind::Skewed => "skewed",
            StreamKind::Bursty => "bursty",
            StreamKind::Incast => "incast",
            StreamKind::Allreduce => "allreduce",
            StreamKind::Paced => "paced",
        }
    }
}

/// Shape parameters for [`gen_stream`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Workload shape.
    pub kind: StreamKind,
    /// Number of distinct flows.
    pub flows: u64,
    /// Number of windows the stream spans.
    pub windows: u64,
    /// Absolute window id of the first window (nonzero start exercises the
    /// `w0` anchoring).
    pub start_window: u64,
    /// Mean packets per window (approximate; per-kind distributions vary).
    pub mean_packets: u32,
}

/// Generates a deterministic stream: same `(seed, cfg)` → same updates.
/// Windows are emitted in non-decreasing order, as on a real timeline; when
/// `cfg.windows` exceeds the sketch's `max_windows`, epochs roll over.
pub fn gen_stream(seed: u64, cfg: &StreamConfig) -> Vec<Update> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let flows = cfg.flows.max(1);
    let elephants = (flows / 8).max(1);
    // Paced only (no draw otherwise, so the other kinds' streams are what
    // they always were): one packet per flow per `gap` windows, which makes
    // `mean_packets` per window overall, at a per-flow phase.
    let gap = (flows / u64::from(cfg.mean_packets.max(1))).max(2);
    let phases: Vec<u64> = match cfg.kind {
        StreamKind::Paced => (0..flows).map(|_| rng.gen_range(0..gap)).collect(),
        _ => Vec::new(),
    };
    let mut out = Vec::new();
    for w in 0..cfg.windows {
        let window = cfg.start_window + w;
        match cfg.kind {
            StreamKind::Uniform => {
                let n = rng.gen_range(0..=2 * cfg.mean_packets);
                for _ in 0..n {
                    let flow = rng.gen_range(0..flows);
                    let bytes = rng.gen_range(64..1500i64);
                    out.push((FlowKey::from_id(flow), window, bytes));
                }
            }
            StreamKind::Skewed => {
                let n = rng.gen_range(0..=2 * cfg.mean_packets);
                for _ in 0..n {
                    let (flow, bytes) = if rng.gen_bool(0.7) {
                        (rng.gen_range(0..elephants), rng.gen_range(500..9000i64))
                    } else {
                        (
                            rng.gen_range(elephants..flows.max(elephants + 1)),
                            rng.gen_range(40..300i64),
                        )
                    };
                    out.push((FlowKey::from_id(flow), window, bytes));
                }
            }
            StreamKind::Bursty => {
                if rng.gen_bool(0.12) {
                    // Synchronized fan-in: many flows land in one window.
                    let fan_in = rng.gen_range(4..=16u64).min(flows);
                    let burst = cfg.mean_packets * 6;
                    for _ in 0..burst {
                        let flow = rng.gen_range(0..fan_in);
                        out.push((FlowKey::from_id(flow), window, rng.gen_range(1000..1500i64)));
                    }
                } else if rng.gen_bool(0.5) {
                    // Idle gap: zero-traffic window inside the epoch.
                } else {
                    for _ in 0..rng.gen_range(1..=2u32) {
                        let flow = rng.gen_range(0..flows);
                        out.push((FlowKey::from_id(flow), window, rng.gen_range(64..400i64)));
                    }
                }
            }
            StreamKind::Incast => {
                // One round every 16 windows; the other 15 are dead air.
                if w % 16 == 0 {
                    let fan_in = rng.gen_range(4..=8u64).min(flows);
                    let mut spill = Vec::new();
                    for _ in 0..cfg.mean_packets * 8 {
                        let flow = rng.gen_range(0..fan_in);
                        let bytes = rng.gen_range(1000..1500i64);
                        if rng.gen_bool(0.25) && w + 1 < cfg.windows {
                            // Sender jitter: this packet lands one window late.
                            spill.push((FlowKey::from_id(flow), window + 1, bytes));
                        } else {
                            out.push((FlowKey::from_id(flow), window, bytes));
                        }
                    }
                    // Appending the spill after the on-time packets keeps the
                    // stream's non-decreasing window order (round gap > 1).
                    out.extend(spill);
                }
            }
            StreamKind::Allreduce => {
                // One collective step every 12 windows: every flow sends an
                // equal-sized chunk (small value noise keeps coefficients
                // distinct), then the fabric goes quiet in lockstep.
                if w % 12 == 0 {
                    for flow in 0..flows {
                        for _ in 0..cfg.mean_packets.max(1) {
                            out.push((FlowKey::from_id(flow), window, rng.gen_range(950..1050i64)));
                        }
                    }
                }
            }
            StreamKind::Paced => {
                for (flow, &phase) in phases.iter().enumerate() {
                    if w % gap == phase {
                        out.push((FlowKey::from_id(flow as u64), window, 1000));
                    }
                }
            }
        }
    }
    out
}

/// Shuffles updates *within* each window, leaving the window sequence
/// untouched. Light-part counting is a per-window sum, so drains of the
/// Basic sketch, the Full sketch's light part and any dedicated per-flow
/// bucket must be bit-identical under this permutation. (The Full sketch's
/// heavy-part *election* is order-dependent by design, so it is exempt.)
pub fn shuffle_within_windows(stream: &[Update], seed: u64) -> Vec<Update> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = stream.to_vec();
    let mut start = 0;
    while start < out.len() {
        let window = out[start].1;
        let mut end = start + 1;
        while end < out.len() && out[end].1 == window {
            end += 1;
        }
        // Fisher–Yates over the window's slice.
        for i in (start + 1..end).rev() {
            let j = rng.gen_range(start..=i);
            out.swap(i, j);
        }
        start = end;
    }
    out
}

/// Scales every update value by `factor`. All Haar coefficients are linear
/// in the counts and both the exact weighted comparison and the majority
/// vote are scale-invariant, so an ideal-selector Full drain of the scaled
/// stream equals the original drain with every coefficient scaled.
pub fn scale_values(stream: &[Update], factor: i64) -> Vec<Update> {
    stream.iter().map(|&(f, w, v)| (f, w, v * factor)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: StreamKind) -> StreamConfig {
        StreamConfig {
            kind,
            flows: 24,
            windows: 120,
            start_window: 500,
            mean_packets: 3,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in StreamKind::ALL {
            let a = gen_stream(7, &cfg(kind));
            let b = gen_stream(7, &cfg(kind));
            assert_eq!(a, b, "{}", kind.name());
            assert!(!a.is_empty(), "{} stream empty", kind.name());
        }
    }

    #[test]
    fn seeds_differ() {
        let a = gen_stream(1, &cfg(StreamKind::Uniform));
        let b = gen_stream(2, &cfg(StreamKind::Uniform));
        assert_ne!(a, b);
    }

    #[test]
    fn windows_are_non_decreasing_and_anchored() {
        for kind in StreamKind::ALL {
            let s = gen_stream(3, &cfg(kind));
            for pair in s.windows(2) {
                assert!(pair[0].1 <= pair[1].1);
            }
            assert!(s.iter().all(|u| u.1 >= 500 && u.1 < 620));
        }
    }

    #[test]
    fn shuffle_preserves_window_multisets() {
        let s = gen_stream(11, &cfg(StreamKind::Skewed));
        let shuffled = shuffle_within_windows(&s, 99);
        assert_eq!(s.len(), shuffled.len());
        let key = |v: &[Update]| {
            let mut sorted: Vec<_> = v.to_vec();
            sorted.sort_by_key(|&(f, w, val)| (w, f, val));
            sorted
        };
        assert_eq!(key(&s), key(&shuffled));
        assert_ne!(s, shuffled, "shuffle should move something");
    }

    #[test]
    fn adversarial_kinds_are_deterministic_and_shaped() {
        for kind in StreamKind::ADVERSARIAL {
            let a = gen_stream(7, &cfg(kind));
            let b = gen_stream(7, &cfg(kind));
            assert_eq!(a, b, "{}", kind.name());
            assert!(!a.is_empty(), "{} stream empty", kind.name());
            for pair in a.windows(2) {
                assert!(pair[0].1 <= pair[1].1, "{} out of order", kind.name());
            }
            // Incast and allreduce are mostly silence between synchronized
            // slams.
            if kind != StreamKind::Paced {
                let touched: std::collections::BTreeSet<u64> = a.iter().map(|u| u.1).collect();
                assert!(touched.len() < 40, "{} lacks idle gaps", kind.name());
            }
        }
    }

    #[test]
    fn paced_flows_send_one_equal_packet_per_gap_at_their_own_phase() {
        let s = gen_stream(3, &cfg(StreamKind::Paced));
        assert!(s.iter().all(|u| u.2 == 1000), "equal-sized packets");
        let mut per_flow: std::collections::BTreeMap<FlowKey, Vec<u64>> =
            std::collections::BTreeMap::new();
        for &(f, w, _) in &s {
            per_flow.entry(f).or_default().push(w);
        }
        assert_eq!(per_flow.len(), 24, "every flow participates");
        let gap = 24 / 3; // flows / mean_packets
        let mut phases = std::collections::BTreeSet::new();
        for windows in per_flow.values() {
            assert_eq!(windows.len(), 120 / gap as usize);
            assert!(windows.windows(2).all(|p| p[1] - p[0] == gap));
            phases.insert(windows[0] % gap);
        }
        assert!(phases.len() > 1, "flows share one phase");
    }

    #[test]
    fn allreduce_steps_load_every_flow_equally() {
        let s = gen_stream(3, &cfg(StreamKind::Allreduce));
        let mut per_flow: std::collections::BTreeMap<FlowKey, usize> =
            std::collections::BTreeMap::new();
        for &(f, _, _) in &s {
            *per_flow.entry(f).or_default() += 1;
        }
        assert_eq!(per_flow.len(), 24, "every flow participates");
        let counts: std::collections::BTreeSet<usize> = per_flow.values().copied().collect();
        assert_eq!(counts.len(), 1, "lockstep steps send equal packet counts");
    }

    #[test]
    fn incast_rounds_concentrate_on_a_small_fan_in() {
        let s = gen_stream(5, &cfg(StreamKind::Incast));
        let flows: std::collections::BTreeSet<FlowKey> = s.iter().map(|u| u.0).collect();
        assert!(
            flows.len() <= 8,
            "incast must hit a small sender set, got {}",
            flows.len()
        );
        assert!(
            s.iter().all(|u| u.2 >= 1000),
            "incast packets are MTU-sized"
        );
    }

    #[test]
    fn bursty_streams_have_idle_windows() {
        let s = gen_stream(5, &cfg(StreamKind::Bursty));
        let touched: std::collections::BTreeSet<u64> = s.iter().map(|u| u.1).collect();
        assert!(touched.len() < 120, "no idle gaps generated");
    }
}
