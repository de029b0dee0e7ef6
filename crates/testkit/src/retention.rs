//! Differential contract for the analyzer's bounded-memory retention tiers
//! and the crash-safe period archive (DESIGN.md §12).
//!
//! One [`retention_diff_run`] call generates a multi-host, multi-period
//! workload, delivers it interleaved across hosts, and asserts the three
//! retention invariants against unbounded references:
//!
//! 1. **Compaction is invisible** — an analyzer that compacts periods past
//!    the hot horizon (and one that additionally compacts early under a
//!    cached-bytes budget) produces curves bit-identical to a fully
//!    unbounded analyzer: the compacted tier's on-demand inverse-Haar fallback
//!    accumulates in the same order as the cached hot path.
//! 2. **Eviction is exact forgetting** — a bounded-resident analyzer equals
//!    an unbounded reference fed exactly the periods it retained: evicting
//!    old periods never perturbs what survives.
//! 3. **Recovery reconverges** — an archive-backed analyzer killed
//!    mid-ingest and recovered from its segment files, then fed the rest of
//!    the workload, ends bit-identical to one that never crashed; a torn
//!    segment tail loses exactly the torn record and nothing else.
//! 4. **The cold tier erases the eviction horizon** — an archive-backed
//!    bounded analyzer answers queries over *evicted* periods by reading
//!    them back from its segments, bit-identical to a fully unbounded
//!    analyzer; a segment cache too small for even one record only costs
//!    disk reads, never correctness.
//! 5. **Backfill heals torn history** — after a crash that tears a segment
//!    tail, the recovered analyzer's [`Analyzer::backfill_requests`] asks
//!    the affected hosts to re-upload over the normal collection plane
//!    ([`umon::HostUplink::backfill`]), and the healed analyzer ends
//!    bit-identical to the unbounded reference: the tear lost nothing.
//!
//! [`retention_soak_run`] is the long-run variant: thousands of periods
//! through a small budget, asserting at checkpoints that resident state
//! stays bounded and hot-tier queries stay bit-identical to an unbounded
//! reference that ingested the same reports. [`cold_soak_run`] is its cold
//! twin: checkpoints compare the *full* history — hot, compacted and
//! archived-cold — against an unbounded analyzer.

use std::path::Path;

use umon::{
    Analyzer, Collector, HostAgent, HostAgentConfig, HostUplink, PerfectTransport, PeriodReport,
    RetentionPolicy, RetransmitPolicy, TornTail,
};
use wavesketch::{SelectorKind, SketchConfig};

use crate::diff::DiffError;
use crate::stream::{gen_stream, StreamConfig, StreamKind};

/// Everything one retention differential run needs.
#[derive(Debug, Clone)]
pub struct RetentionDiffConfig {
    /// Host-agent configuration (sketch + period geometry).
    pub agent: HostAgentConfig,
    /// Stream shape, generated per host with a host-mixed seed.
    pub stream: StreamConfig,
    /// Hosts feeding the analyzer.
    pub hosts: usize,
    /// Hot horizon of the bounded scenarios.
    pub hot_periods: u64,
    /// Resident horizon of the eviction and archive scenarios.
    pub resident_periods: u64,
    /// Cached-bytes budget for the early-compaction scenario.
    pub cached_budget: usize,
    /// How many flow ids to compare per host and scenario.
    pub query_sample: u64,
}

impl RetentionDiffConfig {
    /// A configuration sized for debug-build suites: ~25 upload periods per
    /// host against a hot horizon of 4 and a resident horizon of 10, so
    /// every tier transition fires many times.
    pub fn quick(kind: StreamKind) -> Self {
        Self {
            agent: HostAgentConfig {
                sketch: SketchConfig::builder()
                    .rows(3)
                    .width(16)
                    .levels(4)
                    .topk(12)
                    .max_windows(64)
                    .heavy_rows(4)
                    .selector(SelectorKind::Ideal)
                    .build(),
                period_ns: 16 << 13, // 16 windows per upload period
                window_shift: 13,
            },
            stream: StreamConfig {
                kind,
                flows: 24,
                windows: 400,
                start_window: 500,
                mean_packets: 2,
            },
            hosts: 3,
            hot_periods: 4,
            resident_periods: 10,
            cached_budget: 8 * 1024,
            query_sample: 12,
        }
    }
}

/// What a successful retention differential run covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionDiffStats {
    /// Period reports the workload produced (all hosts).
    pub reports: usize,
    /// Periods compacted across the bounded scenarios.
    pub compacted: u64,
    /// Periods evicted across the bounded scenarios.
    pub evicted: u64,
    /// Archived reports replayed by the recovery scenarios.
    pub recovered: u64,
    /// Cold-tier record fetches (cache hits + disk reads) across the cold
    /// scenarios.
    pub cold_reads: u64,
    /// Reports re-uploaded by hosts answering backfill requests.
    pub backfilled: u64,
    /// Every torn segment tail the recovery scenarios' `RecoveryStats`
    /// reported (the tears are injected on purpose; the analyzer itself
    /// prints nothing).
    pub torn_tails: Vec<TornTail>,
    /// Curve comparisons performed.
    pub curves_compared: usize,
}

/// Compares every sampled flow curve and the host rate curve of `got`
/// against `want`, for each host. Bit-exact: `WindowSeries` is compared
/// with `==` on raw `f64`s.
fn compare_curves(
    got: &Analyzer,
    want: &Analyzer,
    hosts: usize,
    flows: u64,
    scenario: &str,
    fail: &impl Fn(String) -> DiffError,
) -> Result<usize, DiffError> {
    let mut compared = 0;
    for host in 0..hosts {
        for flow in 0..flows {
            if got.flow_curve(host, flow) != want.flow_curve(host, flow) {
                return Err(fail(format!(
                    "{scenario}: host {host} flow {flow} curve differs from the reference"
                )));
            }
            compared += 1;
        }
        if got.host_rate_curve(host) != want.host_rate_curve(host) {
            return Err(fail(format!(
                "{scenario}: host {host} rate curve differs from the reference"
            )));
        }
        compared += 1;
    }
    Ok(compared)
}

/// Generates the per-host reports and flattens them into an interleaved
/// delivery order (round-robin by period across hosts), the shape a shared
/// collection plane produces.
fn interleaved_workload(seed: u64, cfg: &RetentionDiffConfig) -> (Vec<PeriodReport>, usize) {
    let mut per_host: Vec<Vec<PeriodReport>> = Vec::new();
    for host in 0..cfg.hosts {
        let stream = gen_stream(
            seed ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &cfg.stream,
        );
        let mut agent = HostAgent::new(host, cfg.agent.clone());
        for (f, w, v) in &stream {
            agent.observe(
                crate::flow_id_of(f),
                *w << cfg.agent.window_shift,
                *v as u32,
            );
        }
        per_host.push(agent.finish());
    }
    let total = per_host.iter().map(Vec::len).sum();
    let longest = per_host.iter().map(Vec::len).max().unwrap_or(0);
    let mut delivery = Vec::with_capacity(total);
    for i in 0..longest {
        for reports in &per_host {
            if let Some(r) = reports.get(i) {
                delivery.push(r.clone());
            }
        }
    }
    (delivery, total)
}

/// Feeds `delivery` to `analyzer` in small batches (multiple retention
/// enforcement rounds, as live ingest would see).
fn feed(analyzer: &mut Analyzer, delivery: &[PeriodReport]) {
    for chunk in delivery.chunks(7) {
        analyzer.add_reports(chunk.to_vec());
    }
}

/// Ticks every uplink and pumps the collector until all uplinks drain (or a
/// generous round cap expires — a lossless transport drains in a few).
fn pump_until_drained(
    uplinks: &mut [HostUplink],
    transport: &mut PerfectTransport,
    collector: &mut Collector,
    analyzer: &mut Analyzer,
    now: &mut u64,
) {
    for _ in 0..100 {
        for u in uplinks.iter_mut() {
            u.tick(*now, transport);
        }
        collector.pump(transport, analyzer);
        *now += 1;
        if uplinks.iter().all(|u| u.in_flight() == 0) {
            break;
        }
    }
}

/// Runs the retention differential step for one seed. `scratch_dir` is a
/// caller-owned directory for the archive scenarios; its `crash/`,
/// `nocrash/` and `torn/` subdirectories are recreated on every call.
pub fn retention_diff_run(
    seed: u64,
    cfg: &RetentionDiffConfig,
    scratch_dir: &Path,
) -> Result<RetentionDiffStats, DiffError> {
    let fail = |detail: String| DiffError {
        seed,
        kind: cfg.stream.kind,
        detail,
    };
    let mut stats = RetentionDiffStats::default();

    let (delivery, total) = interleaved_workload(seed, cfg);
    if total == 0 {
        return Err(fail("workload produced no reports".into()));
    }
    stats.reports = total;
    let flows = cfg.query_sample.min(cfg.stream.flows);

    // The unbounded reference every scenario is measured against.
    let mut reference = Analyzer::new(cfg.agent.sketch.clone());
    feed(&mut reference, &delivery);

    // Scenario 1: compaction only — bit-identical to unbounded.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, u64::MAX);
        let mut compacting = Analyzer::with_retention(cfg.agent.sketch.clone(), policy);
        feed(&mut compacting, &delivery);
        let rs = compacting.retention_stats();
        if rs.compacted_periods + rs.compacted_on_arrival == 0 {
            return Err(fail(
                "compaction-only: nothing was compacted (vacuous)".into(),
            ));
        }
        if rs.evicted_periods != 0 {
            return Err(fail(
                "compaction-only: eviction fired without a resident bound".into(),
            ));
        }
        let res = compacting.residency();
        let hot_cap = cfg.hosts as u64 * cfg.hot_periods;
        if res.hot_periods as u64 > hot_cap {
            return Err(fail(format!(
                "compaction-only: {} hot periods exceed the {hot_cap} horizon",
                res.hot_periods
            )));
        }
        stats.compacted += rs.compacted_periods + rs.compacted_on_arrival;
        stats.curves_compared += compare_curves(
            &compacting,
            &reference,
            cfg.hosts,
            flows,
            "compaction-only",
            &fail,
        )?;
    }

    // Scenario 1b: a cached-bytes budget compacts early — still identical.
    {
        let policy =
            RetentionPolicy::bounded(u64::MAX / 2, u64::MAX).with_cached_bytes(cfg.cached_budget);
        let mut budgeted = Analyzer::with_retention(cfg.agent.sketch.clone(), policy);
        feed(&mut budgeted, &delivery);
        let res = budgeted.residency();
        if res.cached_bytes > cfg.cached_budget {
            return Err(fail(format!(
                "byte-budget: {} cached bytes exceed the {} budget",
                res.cached_bytes, cfg.cached_budget
            )));
        }
        stats.compacted += budgeted.retention_stats().compacted_periods;
        stats.curves_compared += compare_curves(
            &budgeted,
            &reference,
            cfg.hosts,
            flows,
            "byte-budget",
            &fail,
        )?;
    }

    // Scenario 2: eviction — equals a reference fed only the survivors.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, cfg.resident_periods);
        let mut bounded = Analyzer::with_retention(cfg.agent.sketch.clone(), policy);
        feed(&mut bounded, &delivery);
        let rs = bounded.retention_stats();
        if rs.evicted_periods == 0 {
            return Err(fail("eviction: nothing was evicted (vacuous)".into()));
        }
        stats.evicted += rs.evicted_periods;
        stats.compacted += rs.compacted_periods + rs.compacted_on_arrival;
        for host in 0..cfg.hosts {
            let resident = bounded.host_coverage(host).periods.len() as u64;
            if resident > cfg.resident_periods {
                return Err(fail(format!(
                    "eviction: host {host} holds {resident} periods, budget {}",
                    cfg.resident_periods
                )));
            }
        }
        // Survivors, in the original delivery order.
        let survivors: Vec<PeriodReport> = delivery
            .iter()
            .filter(|r| bounded.host_coverage(r.host).covers(r.period))
            .cloned()
            .collect();
        let mut surviving_ref = Analyzer::new(cfg.agent.sketch.clone());
        feed(&mut surviving_ref, &survivors);
        stats.curves_compared += compare_curves(
            &bounded,
            &surviving_ref,
            cfg.hosts,
            flows,
            "eviction",
            &fail,
        )?;
    }

    // Scenario 3: archive crash/recovery reconverges bit-identically.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, cfg.resident_periods);
        let crash_dir = scratch_dir.join("crash");
        let nocrash_dir = scratch_dir.join("nocrash");
        for d in [&crash_dir, &nocrash_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        let io_fail = |e: std::io::Error| fail(format!("recovery: archive io error: {e}"));

        let half = delivery.len() / 2;
        {
            let mut doomed = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &crash_dir)
                .map_err(io_fail)?;
            feed(&mut doomed, &delivery[..half]);
            // Killed here: `doomed` drops without any shutdown path. Every
            // accepted report was already archived (write-ahead).
        }
        let mut revived = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &crash_dir)
            .map_err(io_fail)?;
        let recovery = revived.recover_from_archive().map_err(io_fail)?;
        if !recovery.damaged_tails.is_empty() {
            return Err(fail(format!(
                "recovery: clean crash reported damaged tails {:?}",
                recovery.damaged_tails
            )));
        }
        if recovery.recovered == 0 {
            return Err(fail("recovery: archive replay recovered nothing".into()));
        }
        stats.recovered += recovery.recovered;
        feed(&mut revived, &delivery[half..]);

        let mut steady = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &nocrash_dir)
            .map_err(io_fail)?;
        feed(&mut steady, &delivery);
        if revived.residency() != steady.residency() {
            return Err(fail(format!(
                "recovery: residency diverged: {:?} vs {:?}",
                revived.residency(),
                steady.residency()
            )));
        }
        for host in 0..cfg.hosts {
            if revived.host_coverage(host).periods != steady.host_coverage(host).periods {
                return Err(fail(format!(
                    "recovery: host {host} resident periods diverged"
                )));
            }
        }
        stats.curves_compared +=
            compare_curves(&revived, &steady, cfg.hosts, flows, "recovery", &fail)?;
    }

    // Scenario 3b: a torn segment tail loses exactly the torn record.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, cfg.resident_periods);
        let torn_dir = scratch_dir.join("torn");
        let _ = std::fs::remove_dir_all(&torn_dir);
        let io_fail = |e: std::io::Error| fail(format!("torn-tail: archive io error: {e}"));

        let half = delivery.len() / 2;
        {
            let mut doomed = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &torn_dir)
                .map_err(io_fail)?;
            feed(&mut doomed, &delivery[..half]);
        }
        // Tear the tail of host 0's segment mid-record (a crash mid-write).
        let seg = torn_dir.join("host_0.seg");
        let bytes = std::fs::read(&seg).map_err(io_fail)?;
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).map_err(io_fail)?;
        // The torn record is host 0's last archived = its newest accepted
        // period in the first half (per-host appends are period-ascending
        // here).
        let torn_period = delivery[..half]
            .iter()
            .filter(|r| r.host == 0)
            .map(|r| r.period)
            .max()
            .expect("host 0 delivered in the first half");

        let mut revived =
            Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &torn_dir).map_err(io_fail)?;
        let recovery = revived.recover_from_archive().map_err(io_fail)?;
        if recovery.damaged_tails != vec![0] {
            return Err(fail(format!(
                "torn-tail: damaged tails {:?}, want [0]",
                recovery.damaged_tails
            )));
        }
        stats.recovered += recovery.recovered;
        stats.torn_tails.extend(&recovery.torn_tails);
        feed(&mut revived, &delivery[half..]);

        // Reference: never crashed, but never saw the torn record either.
        // Archive-backed like the revived analyzer, so both answer queries
        // over their full (cold-inclusive) history and differ only if the
        // tear cost more than the one torn record.
        let torn_ref_dir = scratch_dir.join("torn_ref");
        let _ = std::fs::remove_dir_all(&torn_ref_dir);
        let mut steady = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &torn_ref_dir)
            .map_err(io_fail)?;
        let surviving: Vec<PeriodReport> = delivery
            .iter()
            .filter(|r| !(r.host == 0 && r.period == torn_period))
            .cloned()
            .collect();
        feed(&mut steady, &surviving);
        stats.curves_compared +=
            compare_curves(&revived, &steady, cfg.hosts, flows, "torn-tail", &fail)?;
    }

    // Scenario 4: cold tier — the eviction horizon is not a data horizon.
    // An archive-backed bounded analyzer equals the fully unbounded
    // reference on every curve, because evicted periods are read back from
    // the segments at query time.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, cfg.resident_periods);
        let cold_dir = scratch_dir.join("cold");
        let _ = std::fs::remove_dir_all(&cold_dir);
        let io_fail = |e: std::io::Error| fail(format!("cold-tier: archive io error: {e}"));
        let mut archived =
            Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &cold_dir).map_err(io_fail)?;
        feed(&mut archived, &delivery);
        if archived.retention_stats().evicted_periods == 0 {
            return Err(fail("cold-tier: nothing was evicted (vacuous)".into()));
        }
        stats.curves_compared +=
            compare_curves(&archived, &reference, cfg.hosts, flows, "cold-tier", &fail)?;
        let rs = archived.retention_stats();
        if rs.cold_misses == 0 {
            return Err(fail("cold-tier: queries never touched the archive".into()));
        }
        if rs.cold_read_errors != 0 {
            return Err(fail(format!(
                "cold-tier: {} archive read-backs failed",
                rs.cold_read_errors
            )));
        }
        stats.cold_reads += rs.cold_hits + rs.cold_misses;
    }

    // Scenario 4b: a segment cache too small for even one record thrashes
    // (every cold fetch is a disk read) but stays bit-identical.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, cfg.resident_periods)
            .with_cold_cache_bytes(1);
        let thrash_dir = scratch_dir.join("cold_thrash");
        let _ = std::fs::remove_dir_all(&thrash_dir);
        let io_fail = |e: std::io::Error| fail(format!("cold-thrash: archive io error: {e}"));
        let mut thrashing = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &thrash_dir)
            .map_err(io_fail)?;
        feed(&mut thrashing, &delivery);
        stats.curves_compared += compare_curves(
            &thrashing,
            &reference,
            cfg.hosts,
            flows,
            "cold-thrash",
            &fail,
        )?;
        let rs = thrashing.retention_stats();
        if rs.cold_hits != 0 {
            return Err(fail(format!(
                "cold-thrash: {} cache hits under a 1-byte budget",
                rs.cold_hits
            )));
        }
        if rs.cold_misses == 0 || rs.cold_read_errors != 0 {
            return Err(fail(format!(
                "cold-thrash: {} misses, {} errors — want misses > 0, errors == 0",
                rs.cold_misses, rs.cold_read_errors
            )));
        }
        stats.cold_reads += rs.cold_misses;
    }

    // Scenario 5: kill/recover with a torn tail, healed by backfill over
    // the collection plane. The hosts' uplinks and the collector survive
    // the analyzer crash; the revived analyzer truncates the damage, asks
    // the torn host to re-upload, and — because re-uploads flow through the
    // normal transport → collector → ingest path — ends bit-identical to
    // the unbounded reference: the tear lost nothing at all.
    {
        let policy = RetentionPolicy::bounded(cfg.hot_periods, cfg.resident_periods);
        let bf_dir = scratch_dir.join("backfill");
        let _ = std::fs::remove_dir_all(&bf_dir);
        let io_fail = |e: std::io::Error| fail(format!("backfill: archive io error: {e}"));

        let mut transport = PerfectTransport::new();
        let mut uplinks: Vec<HostUplink> = (0..cfg.hosts)
            .map(|h| HostUplink::new(h, RetransmitPolicy::default()))
            .collect();
        let mut collector = Collector::new();
        let mut now = 0u64;
        let half = delivery.len() / 2;
        {
            let mut doomed = Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &bf_dir)
                .map_err(io_fail)?;
            for chunk in delivery[..half].chunks(7) {
                for r in chunk {
                    uplinks[r.host].submit(vec![r.clone()]);
                }
                pump_until_drained(
                    &mut uplinks,
                    &mut transport,
                    &mut collector,
                    &mut doomed,
                    &mut now,
                );
            }
            // Killed here; every accepted report was archived write-ahead,
            // and the uplinks' replay buffers still hold their copies.
        }
        // The crash tears host 0's newest archived record mid-write.
        let seg = bf_dir.join("host_0.seg");
        let bytes = std::fs::read(&seg).map_err(io_fail)?;
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).map_err(io_fail)?;

        let mut revived =
            Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &bf_dir).map_err(io_fail)?;
        let recovery = revived.recover_from_archive().map_err(io_fail)?;
        if recovery.damaged_tails != vec![0] {
            return Err(fail(format!(
                "backfill: damaged tails {:?}, want [0]",
                recovery.damaged_tails
            )));
        }
        if recovery.torn_tails.len() != 1 || recovery.torn_tails[0].lost_records == 0 {
            return Err(fail(format!(
                "backfill: torn-tail report {:?} names no lost records",
                recovery.torn_tails
            )));
        }
        stats.recovered += recovery.recovered;
        stats.torn_tails.extend(&recovery.torn_tails);

        let asks = revived.backfill_requests(&recovery);
        if asks.iter().map(|a| a.host).collect::<Vec<_>>() != vec![0] {
            return Err(fail(format!(
                "backfill: requests {asks:?}, want exactly host 0"
            )));
        }
        let mut healed = 0usize;
        for ask in &asks {
            healed += uplinks[ask.host].backfill(ask.after_period);
        }
        if healed == 0 {
            return Err(fail(
                "backfill: the replay buffer had nothing for the torn span".into(),
            ));
        }
        stats.backfilled += healed as u64;
        pump_until_drained(
            &mut uplinks,
            &mut transport,
            &mut collector,
            &mut revived,
            &mut now,
        );
        for chunk in delivery[half..].chunks(7) {
            for r in chunk {
                uplinks[r.host].submit(vec![r.clone()]);
            }
            pump_until_drained(
                &mut uplinks,
                &mut transport,
                &mut collector,
                &mut revived,
                &mut now,
            );
        }
        stats.curves_compared +=
            compare_curves(&revived, &reference, cfg.hosts, flows, "backfill", &fail)?;
    }

    Ok(stats)
}

/// What [`retention_soak_run`] observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionSoakStats {
    /// Upload periods ingested.
    pub periods: u64,
    /// Maximum resident periods observed at any checkpoint.
    pub max_resident_periods: usize,
    /// Maximum bytes reserved for hot curves observed at any checkpoint.
    pub max_cached_bytes: usize,
    /// Periods evicted over the run.
    pub evicted: u64,
    /// Checkpoint equivalence comparisons performed.
    pub curves_compared: usize,
}

/// Long-run soak: one host streams `periods` upload periods through a small
/// bounded policy, asserting at every checkpoint (every `checkpoint_every`
/// periods) that resident state honors the budget and that queries over the
/// retained periods stay bit-identical to an unbounded analyzer fed exactly
/// those reports. Everything held by the soak itself is O(budget): the
/// reference window is pruned in lockstep with the bounded analyzer's
/// eviction, so the run can span thousands of periods without growing.
pub fn retention_soak_run(
    seed: u64,
    periods: u64,
    policy: RetentionPolicy,
    checkpoint_every: u64,
) -> Result<RetentionSoakStats, DiffError> {
    let fail = |detail: String| DiffError {
        seed,
        kind: StreamKind::Uniform,
        detail,
    };
    let cfg = RetentionDiffConfig::quick(StreamKind::Uniform);
    let windows_per_period = cfg.agent.period_ns >> cfg.agent.window_shift;
    let mut stats = RetentionSoakStats::default();
    let flows = cfg.query_sample.min(cfg.stream.flows);

    let mut bounded = Analyzer::with_retention(cfg.agent.sketch.clone(), policy);
    // The surviving-report window backing the checkpoint references; pruned
    // to the bounded analyzer's resident set, so it never outgrows the
    // budget either.
    let mut recent: std::collections::BTreeMap<u64, PeriodReport> =
        std::collections::BTreeMap::new();

    let mut agent = HostAgent::new(0, cfg.agent.clone());
    let mut stream_cfg = cfg.stream.clone();
    stream_cfg.windows = windows_per_period * checkpoint_every;
    let mut done = 0u64;
    while done < periods {
        stream_cfg.start_window = done * windows_per_period;
        let stream = gen_stream(seed ^ done, &stream_cfg);
        for (f, w, v) in &stream {
            agent.observe(
                crate::flow_id_of(f),
                *w << cfg.agent.window_shift,
                *v as u32,
            );
        }
        let reports = agent.poll_finished();
        done += checkpoint_every;
        stats.periods = done;
        for r in &reports {
            recent.insert(r.period, r.clone());
        }
        bounded.add_reports(reports);

        let res = bounded.residency();
        stats.max_resident_periods = stats.max_resident_periods.max(res.resident_periods);
        stats.max_cached_bytes = stats.max_cached_bytes.max(res.cached_bytes);
        stats.evicted = bounded.retention_stats().evicted_periods;
        if res.resident_periods as u64 > policy.resident_periods {
            return Err(fail(format!(
                "soak: {} resident periods exceed the {} budget at period {done}",
                res.resident_periods, policy.resident_periods
            )));
        }
        if res.hot_periods as u64 > policy.hot_periods {
            return Err(fail(format!(
                "soak: {} hot periods exceed the {} horizon at period {done}",
                res.hot_periods, policy.hot_periods
            )));
        }
        if let Some(budget) = policy.max_cached_bytes {
            if res.cached_bytes > budget {
                return Err(fail(format!(
                    "soak: {} cached bytes exceed the {budget} budget at period {done}",
                    res.cached_bytes
                )));
            }
        }

        // Prune the reference window to the bounded analyzer's resident set,
        // then assert bit-identical queries over the survivors.
        let coverage = bounded.host_coverage(0);
        recent.retain(|p, _| coverage.covers(*p));
        if recent.len() != res.resident_periods {
            return Err(fail(format!(
                "soak: reference window {} periods vs resident {} at period {done}",
                recent.len(),
                res.resident_periods
            )));
        }
        let mut reference = Analyzer::new(cfg.agent.sketch.clone());
        reference.add_reports(recent.values().cloned().collect());
        stats.curves_compared +=
            compare_curves(&bounded, &reference, 1, flows, "soak-checkpoint", &fail)?;
    }
    Ok(stats)
}

/// Long-run cold-tier soak: one host streams `periods` upload periods
/// through a bounded, archive-backed analyzer, and every checkpoint compares
/// the *full* history — hot, compacted and archived-cold — bit-identically
/// against an unbounded analyzer fed the same reports. Unlike
/// [`retention_soak_run`], the reference deliberately keeps everything
/// (O(periods) memory): the point is that the bounded analyzer's disk
/// read-back matches it over the entire horizon, not just the resident set.
pub fn cold_soak_run(
    seed: u64,
    periods: u64,
    policy: RetentionPolicy,
    checkpoint_every: u64,
    scratch_dir: &Path,
) -> Result<RetentionSoakStats, DiffError> {
    let fail = |detail: String| DiffError {
        seed,
        kind: StreamKind::Uniform,
        detail,
    };
    let io_fail = |e: std::io::Error| fail(format!("cold-soak: archive io error: {e}"));
    let cfg = RetentionDiffConfig::quick(StreamKind::Uniform);
    let windows_per_period = cfg.agent.period_ns >> cfg.agent.window_shift;
    let flows = cfg.query_sample.min(cfg.stream.flows);
    let mut stats = RetentionSoakStats::default();

    let dir = scratch_dir.join("cold_soak");
    let _ = std::fs::remove_dir_all(&dir);
    let mut bounded =
        Analyzer::with_archive(cfg.agent.sketch.clone(), policy, &dir).map_err(io_fail)?;
    let mut reference = Analyzer::new(cfg.agent.sketch.clone());

    let mut agent = HostAgent::new(0, cfg.agent.clone());
    let mut stream_cfg = cfg.stream.clone();
    stream_cfg.windows = windows_per_period * checkpoint_every;
    let mut done = 0u64;
    while done < periods {
        stream_cfg.start_window = done * windows_per_period;
        let stream = gen_stream(seed ^ done, &stream_cfg);
        for (f, w, v) in &stream {
            agent.observe(
                crate::flow_id_of(f),
                *w << cfg.agent.window_shift,
                *v as u32,
            );
        }
        let reports = agent.poll_finished();
        done += checkpoint_every;
        stats.periods = done;
        reference.add_reports(reports.clone());
        bounded.add_reports(reports);

        let res = bounded.residency();
        stats.max_resident_periods = stats.max_resident_periods.max(res.resident_periods);
        stats.max_cached_bytes = stats.max_cached_bytes.max(res.cached_bytes);
        stats.evicted = bounded.retention_stats().evicted_periods;
        if res.resident_periods as u64 > policy.resident_periods {
            return Err(fail(format!(
                "cold-soak: {} resident periods exceed the {} budget at period {done}",
                res.resident_periods, policy.resident_periods
            )));
        }
        stats.curves_compared += compare_curves(
            &bounded,
            &reference,
            1,
            flows,
            "cold-soak-checkpoint",
            &fail,
        )?;
    }
    let rs = bounded.retention_stats();
    if rs.evicted_periods == 0 {
        return Err(fail("cold-soak: nothing was evicted (vacuous)".into()));
    }
    if rs.cold_misses == 0 {
        return Err(fail("cold-soak: queries never touched the archive".into()));
    }
    if rs.cold_read_errors != 0 {
        return Err(fail(format!(
            "cold-soak: {} archive read-backs failed",
            rs.cold_read_errors
        )));
    }
    Ok(stats)
}
