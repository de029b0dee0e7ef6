//! Golden *query* fixtures: frozen analyzer curve outputs from fixed seeds,
//! checked into `tests/golden/` as JSON.
//!
//! Where [`crate::golden`] pins the drain (write-path) output, these
//! fixtures pin the *read* path: `Analyzer::flow_curve` and
//! `Analyzer::host_rate_curve` over a seeded multi-host, multi-period run,
//! ingested in a deliberately hostile order (reversed, then fully
//! redelivered) so the fixtures also freeze the dedup/out-of-order ingest
//! behavior. Curve values are stored as raw `f64` bit patterns
//! ([`f64::to_bits`]) — JSON float round-tripping must not be able to hide a
//! last-ulp divergence.
//!
//! The fixtures were first generated from the pre-index, pre-sparse-kernel
//! query path (linear rescans + dense inverse Haar); the indexed query
//! engine and the block-dense kernel reproduced them bit for bit. They were
//! regenerated once, when placement became the paper's Count-Min layout
//! (ISSUE 26), and then only from the previous code with its lane count
//! forced to 1 — the same query engine over reports placed the new way
//! (DESIGN.md §8). Regenerate them from nothing whose curves are not
//! already known to be bit-identical to the code that wrote them.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;
use umon::{Analyzer, HostAgent, HostAgentConfig, PeriodReport, RetentionPolicy};
use wavesketch::basic::WindowSeries;
use wavesketch::{SelectorKind, SketchConfig};

/// The fixed seeds the query-fixture set covers (selector kind alternates by
/// parity, as in [`crate::golden`]).
pub const QUERY_SEEDS: [u64; 4] = [3, 6, 11, 20];

/// Hosts per fixture run.
pub const QUERY_HOSTS: usize = 3;

/// Flow-id space per host; every id in `0..QUERY_FLOWS` is queried, hit or
/// miss, so "no evidence → `None`" is pinned too.
pub const QUERY_FLOWS: u64 = 24;

const WINDOW_SHIFT: u32 = 13;
const START_WINDOW: u64 = 1000;
const WINDOWS: u64 = 300;
const WINDOWS_PER_PERIOD: u64 = 96;

/// Repo-relative fixture file name for `seed`.
pub fn query_fixture_name(seed: u64) -> String {
    format!("query_curves_seed{seed:02}.json")
}

/// The deterministic host-agent configuration for `seed`. 300 windows over
/// 96-window periods and `max_windows = 256` force both period splits and a
/// mid-period epoch rollover; 8 heavy rows over a skewed flow mix keep the
/// heavy part contested (elections, evictions, partial opening windows).
pub fn query_agent_config(seed: u64) -> HostAgentConfig {
    let selector = if seed.is_multiple_of(2) {
        SelectorKind::HwThreshold { even: 4, odd: 4 }
    } else {
        SelectorKind::Ideal
    };
    HostAgentConfig {
        sketch: SketchConfig::builder()
            .rows(3)
            .width(32)
            .levels(5)
            .topk(17)
            .max_windows(256)
            .heavy_rows(8)
            .selector(selector)
            .seed(0x5EED ^ seed)
            .build(),
        period_ns: WINDOWS_PER_PERIOD << WINDOW_SHIFT,
        window_shift: WINDOW_SHIFT,
    }
}

/// The deterministic per-host period reports for `seed`: a skewed
/// elephants-and-mice mix so a handful of flows win heavy slots while the
/// rest stay light-only (covering both query paths and the subtraction).
pub fn query_reports(seed: u64) -> (HostAgentConfig, Vec<PeriodReport>) {
    let cfg = query_agent_config(seed);
    let mut reports = Vec::new();
    for host in 0..QUERY_HOSTS {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut agent = HostAgent::new(host, cfg.clone());
        for w in 0..WINDOWS {
            let window = START_WINDOW + w;
            let n = rng.gen_range(0..=6u32);
            for _ in 0..n {
                let flow = if rng.gen_bool(0.6) {
                    rng.gen_range(0..QUERY_FLOWS / 6)
                } else {
                    rng.gen_range(0..QUERY_FLOWS)
                };
                let bytes = rng.gen_range(64..9000u32);
                agent.observe(flow, window << WINDOW_SHIFT, bytes);
            }
        }
        reports.extend(agent.finish());
    }
    (cfg, reports)
}

/// Builds the fixture analyzer for `seed`: reports ingested reversed first,
/// then redelivered in the original order — every period arrives out of
/// order once and as a duplicate once, so the frozen curves also pin the
/// ingest plane's dedup and reorder handling.
pub fn query_analyzer(seed: u64) -> Analyzer {
    let (cfg, reports) = query_reports(seed);
    ingest_hostile(Analyzer::new(cfg.sketch), reports)
}

/// Reversed delivery, then a full redelivery (see [`query_analyzer`]).
fn ingest_hostile(mut analyzer: Analyzer, reports: Vec<PeriodReport>) -> Analyzer {
    let reversed: Vec<PeriodReport> = reports.iter().rev().cloned().collect();
    let accepted = analyzer.add_reports(reversed).accepted;
    let redelivered = analyzer.add_reports(reports);
    assert_eq!(redelivered.accepted, 0, "every redelivery must dedup");
    assert!(accepted > 0, "fixture workload produced no reports");
    analyzer
}

/// One frozen curve: anchor window plus raw `f64` bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CurveBits {
    /// Absolute window id of the first value.
    pub start_window: u64,
    /// `f64::to_bits` of every value, in order.
    pub bits: Vec<u64>,
}

impl CurveBits {
    /// Freezes a reconstructed series.
    pub fn from_series(s: &WindowSeries) -> Self {
        Self {
            start_window: s.start_window,
            bits: s.values.iter().map(|v| v.to_bits()).collect(),
        }
    }
}

/// All frozen curves of one host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostCurves {
    /// The host id.
    pub host: usize,
    /// `host_rate_curve(host)`.
    pub rate: Option<CurveBits>,
    /// `flow_curve(host, flow)` for every flow in `0..QUERY_FLOWS`.
    pub flows: Vec<(u64, Option<CurveBits>)>,
}

/// One seed's complete query fixture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryFixture {
    /// Generating seed.
    pub seed: u64,
    /// Per-host frozen curves.
    pub hosts: Vec<HostCurves>,
}

/// Runs the seed's workload end to end and freezes every query output.
pub fn query_fixture(seed: u64) -> QueryFixture {
    freeze(seed, &query_analyzer(seed))
}

/// The archive-backed policies `golden_gen --check` answers every query
/// fixture under, by name: `bounded(1, 2)` (each host's newest period hot,
/// the next compacted, the two oldest cold), and the same with a one-byte
/// cold cache, under which every cold read of every query is a miss.
pub fn tiered_policies() -> [(&'static str, RetentionPolicy); 2] {
    let tiered = RetentionPolicy::bounded(1, 2);
    [
        ("tiered", tiered),
        ("cold-miss", tiered.with_cold_cache_bytes(1)),
    ]
}

/// [`query_fixture`] answered by an analyzer with an archive in `dir`
/// (emptied first, removed after) and `policy`, one of
/// [`tiered_policies`], fed the same hostile ingest: its curves cross every
/// tier — and must still be the fixture's bits.
pub fn query_fixture_tiered(seed: u64, dir: &Path, policy: RetentionPolicy) -> QueryFixture {
    let (cfg, reports) = query_reports(seed);
    let _ = std::fs::remove_dir_all(dir);
    let analyzer = Analyzer::with_archive(cfg.sketch, policy, dir).expect("open fixture archive");
    let analyzer = ingest_hostile(analyzer, reports);
    let s = analyzer.retention_stats();
    assert!(
        s.compacted_on_arrival > 0 && s.stale_archived > 0 && s.archive_errors == 0,
        "every tier must hold periods: {s:?}"
    );
    let fixture = freeze(seed, &analyzer);
    let s = analyzer.retention_stats();
    assert!(s.cold_misses > 0 && s.cold_read_errors == 0, "{s:?}");
    if policy.cold_cache_bytes == 1 {
        assert_eq!(s.cold_hits, 0, "a one-byte cache holds nothing");
    }
    drop(analyzer);
    let _ = std::fs::remove_dir_all(dir);
    fixture
}

/// Every query output of `analyzer`, frozen.
fn freeze(seed: u64, analyzer: &Analyzer) -> QueryFixture {
    let hosts = (0..QUERY_HOSTS)
        .map(|host| HostCurves {
            host,
            rate: analyzer
                .host_rate_curve(host)
                .map(|s| CurveBits::from_series(&s)),
            flows: (0..QUERY_FLOWS)
                .map(|flow| {
                    (
                        flow,
                        analyzer
                            .flow_curve(host, flow)
                            .map(|s| CurveBits::from_series(&s)),
                    )
                })
                .collect(),
        })
        .collect();
    QueryFixture { seed, hosts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_workload_exercises_both_query_paths() {
        let fixture = query_fixture(QUERY_SEEDS[0]);
        assert_eq!(fixture.hosts.len(), QUERY_HOSTS);
        for h in &fixture.hosts {
            let rate = h.rate.as_ref().expect("every host saw traffic");
            assert!(!rate.bits.is_empty());
            let hits = h.flows.iter().filter(|(_, c)| c.is_some()).count();
            assert!(hits > 0, "host {} reconstructed no flows", h.host);
        }
    }

    #[test]
    fn fixture_generation_is_deterministic() {
        for &seed in &QUERY_SEEDS[..2] {
            assert_eq!(query_fixture(seed), query_fixture(seed), "seed {seed}");
        }
    }

    #[test]
    fn tiered_analyzer_answers_the_fixture_bits() {
        let seed = QUERY_SEEDS[0];
        for (name, policy) in tiered_policies() {
            let dir =
                std::env::temp_dir().join(format!("umon_golden_{name}_{}", std::process::id()));
            assert_eq!(
                query_fixture_tiered(seed, &dir, policy),
                query_fixture(seed),
                "{name}"
            );
        }
    }

    #[test]
    fn heavy_part_is_contested_in_fixture_workloads() {
        let (_, reports) = query_reports(QUERY_SEEDS[0]);
        let heavy_epochs: usize = reports.iter().map(|r| r.report.heavy.len()).sum();
        assert!(heavy_epochs > 0, "no heavy elections — fixture too tame");
    }
}
