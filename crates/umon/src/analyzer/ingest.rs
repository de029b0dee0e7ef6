//! Report ingest: dedup, quarantine, the write-ahead archive, crash
//! recovery and retention (compaction and eviction).

use super::{Analyzer, IngestStats, RecoveryStats};
use crate::archive::PeriodArchive;
use crate::host_agent::PeriodReport;
use crate::query_index::StoredPeriod;
use wavesketch::{BucketReport, SketchConfig, SketchReport};

/// Mismatched reports retained for inspection before old ones are evicted.
pub(super) const QUARANTINE_CAP: usize = 64;

/// True if `r` can be stored, indexed and reconstructed under `cfg`: sealed
/// under the same configuration, and of the shape every drain of it has.
/// The fingerprint is only the sender's word; the shape is what the index
/// and the inverse transform index and allocate by — unchecked, a 3-byte
/// heavy key or a `w0` next to `u64::MAX` aborts the (`panic = "abort"`)
/// process and a `padded_len` of 2^24 sizes a 134 MB curve. An epoch of a
/// drain is `next_power_of_two` of at most `max_windows` windows (itself a
/// power of two), whatever the selector; `padded_len == 0` (a degenerate
/// heavy record) is legal.
fn fits_config(r: &PeriodReport, cfg: &SketchConfig) -> bool {
    let epochs_fit = |brs: &[BucketReport]| {
        brs.iter().all(|b| {
            b.padded_len <= cfg.max_windows && b.w0.checked_add(b.padded_len as u64).is_some()
        })
    };
    r.config_fingerprint == cfg.fingerprint()
        && (r.report.heavy.iter()).all(|(key, brs)| key.len() == 13 && epochs_fit(brs))
        && (r.report.light.iter()).all(|(row, col, brs)| {
            (*row as usize) < cfg.rows && (*col as usize) < cfg.width && epochs_fit(brs)
        })
}

impl Analyzer {
    /// Replays the archive this analyzer writes to, re-accepting every
    /// intact record (the crash-recovery path: construct with
    /// [`Self::with_archive`] over the surviving directory, then call this).
    /// Records replay sorted by `(host, period)`, so retention enforcement
    /// re-evicts periods past the policy's horizon as the replay advances —
    /// the recovered analyzer converges to the same resident set, and
    /// bit-identical curves, as one that never crashed. Appends are
    /// suppressed during the replay, so recovery never duplicates archive
    /// records. No-op without an archive.
    pub fn recover_from_archive(&mut self) -> std::io::Result<RecoveryStats> {
        let Some(dir) = self.archive.as_ref().map(|a| a.dir().to_path_buf()) else {
            return Ok(RecoveryStats::default());
        };
        let scan = PeriodArchive::scan(&dir)?;
        // Truncate torn tails back to the intact prefix so post-recovery
        // appends — including the backfilled re-uploads of what the tear
        // lost — extend a clean segment instead of hiding behind
        // unreachable bytes. A refused segment of another format version
        // is not a torn tail: it stays byte-identical.
        if let Some(archive) = self.archive.as_mut() {
            archive.truncate_damage(&scan)?;
        }
        for t in &scan.torn_tails {
            self.retention_stats.torn_tail_records += t.lost_records;
        }
        // Index every intact record's location for the cold tier before the
        // replay: records the replay re-evicts (or skips as stale) stay
        // queryable from disk.
        if let Some(cold) = self.cold.as_mut() {
            for (r, loc) in scan.reports.iter().zip(&scan.locs) {
                if fits_config(r, &self.sketch_config) {
                    cold.record(r.host, r.period, *loc);
                }
            }
        }
        self.recovering = true;
        let stats = self.add_reports(scan.reports);
        self.recovering = false;
        Ok(RecoveryStats {
            recovered: stats.accepted,
            skipped: stats.duplicates,
            mismatched: stats.mismatched,
            damaged_tails: scan.damaged_tails,
            torn_tails: scan.torn_tails,
            refused_segments: scan.refused_segments,
        })
    }

    /// Ingests period reports, one host or many mixed.
    ///
    /// Reports built under a different sketch configuration are quarantined
    /// (counted in [`IngestStats::mismatched`], the most recent kept for
    /// inspection) instead of poisoning the batch, and so are reports that
    /// carry the right fingerprint but not the shape it promises — a heavy
    /// key that is not 13 bytes, a light tag outside the `rows × width`
    /// array, an epoch longer than `max_windows` or running past the end of
    /// the window space; redelivered periods are dropped as duplicates.
    /// Never panics — the collection plane, an archive and `umon replay`
    /// deliver whatever the network, the disk or the user did to it.
    pub fn add_reports(&mut self, reports: Vec<PeriodReport>) -> IngestStats {
        let mut batch = IngestStats::default();
        for r in reports {
            self.ingest(r, None, &mut batch);
        }
        self.finish_batch(batch)
    }

    /// [`Self::add_reports`] for one report the collector has verified:
    /// `encoded` is its [`PeriodReport::encode`] bytes and `checksum` their
    /// digest, which the archive writes as they are instead of encoding and
    /// digesting the report again.
    pub(crate) fn add_verified(
        &mut self,
        r: PeriodReport,
        encoded: &[u8],
        checksum: u64,
    ) -> IngestStats {
        let mut batch = IngestStats::default();
        self.ingest(r, Some((encoded, checksum)), &mut batch);
        self.finish_batch(batch)
    }

    /// Closes a batch: enforces the cached-bytes budget, then folds the
    /// batch into the cumulative counters.
    fn finish_batch(&mut self, batch: IngestStats) -> IngestStats {
        self.enforce_cached_budget();
        self.stats.absorb(batch);
        batch
    }

    /// Files one report into `batch`: quarantine, stale or duplicate drop,
    /// or archive-then-store. `encoded` is the report's verified encoding
    /// and digest, when the caller has them.
    fn ingest(
        &mut self,
        mut r: PeriodReport,
        encoded: Option<(&[u8], u64)>,
        batch: &mut IngestStats,
    ) {
        if !fits_config(&r, &self.sketch_config) {
            batch.mismatched += 1;
            if self.quarantine.len() >= QUARANTINE_CAP {
                self.quarantine.pop_front();
            }
            self.quarantine.push_back(r);
            return;
        }
        let floors = self.floors.get(&r.host).copied().unwrap_or_default();
        if r.period < floors.evict_floor {
            // Below the eviction floor the report can never become
            // resident, but with an archive the cold index *can* tell a
            // stale first delivery from a redelivery of an evicted
            // period: first deliveries are archived (immediately
            // queryable from the cold tier), redeliveries are dropped.
            // Without an archive the two are indistinguishable, so
            // everything is dropped as before.
            let first = (self.cold.as_ref()).is_some_and(|c| !c.contains(r.host, r.period));
            if first && self.archive_report(&r, encoded) {
                self.retention_stats.stale_archived += 1;
                batch.accepted += 1;
            } else {
                batch.duplicates += 1;
                self.retention_stats.stale_dropped += 1;
            }
            return;
        }
        let host = r.host;
        let store = self.reports.entry(host).or_default();
        if store.contains_key(&r.period) {
            batch.duplicates += 1;
            return;
        }
        // Write-ahead: archive before the report becomes queryable, so
        // eviction never races a missing record. The archive record
        // keeps full fidelity even when the lossy floor trims the
        // resident copy below.
        self.archive_report(&r, encoded);
        let hot = r.period >= floors.hot_floor;
        if !hot {
            // Arrived already past the hot horizon: store it compacted
            // (resident, never indexed).
            self.index.ensure_host(host);
            self.retention_stats.compacted_on_arrival += 1;
            if let Some(keep) = self.retention.lossy_floor {
                self.retention_stats.lossy_trimmed_details += trim_details(&mut r.report, keep);
            }
        }
        // The stored period places its heavy keys once; the index reads
        // those columns.
        let sp = StoredPeriod::new(r, &self.sketch_config);
        if hot {
            self.index.index_report(host, &sp);
        }
        let store = self.reports.entry(host).or_default();
        store.insert(sp.report.period, sp);
        batch.accepted += 1;
        self.enforce_retention(host);
    }

    /// Appends `r` to the archive — as `encoded`, its verified encoding and
    /// digest, when given — and files its location with the cold tier.
    /// Returns whether it was archived: never while replaying the archive
    /// itself, nor without one; a failed append is counted in
    /// `archive_errors`.
    fn archive_report(&mut self, r: &PeriodReport, encoded: Option<(&[u8], u64)>) -> bool {
        let Some(archive) = self.archive.as_mut() else {
            return false;
        };
        if self.recovering {
            return false;
        }
        let appended = match encoded {
            Some((bytes, checksum)) => archive.append_encoded(r.host, bytes, checksum),
            None => archive.append(r),
        };
        match appended {
            Ok(loc) => {
                if let Some(cold) = self.cold.as_mut() {
                    cold.record(r.host, r.period, loc);
                }
                true
            }
            Err(_) => {
                self.retention_stats.archive_errors += 1;
                false
            }
        }
    }

    /// Raises `host`'s tier floors to track its newest stored period, then
    /// compacts/evicts the periods the raise uncovered. No-ops entirely
    /// under the default unbounded policy (the floors stay at 0).
    fn enforce_retention(&mut self, host: usize) {
        let Some(store) = self.reports.get(&host) else {
            return;
        };
        let Some((&newest, _)) = store.last_key_value() else {
            return;
        };
        let floors = self.floors.entry(host).or_default();
        let prev = floors.raise(newest, &self.retention);
        let (hot_floor, evict_floor) = (floors.hot_floor, floors.evict_floor);
        if evict_floor > prev.evict_floor {
            let store = self.reports.get_mut(&host).expect("checked above");
            let doomed: Vec<u64> = store
                .range(prev.evict_floor..evict_floor)
                .map(|(&p, _)| p)
                .collect();
            for p in doomed {
                let sp = store.remove(&p).expect("just enumerated");
                // The period may still be hot (small resident horizons);
                // deindexing is a no-op if it was already compacted. Its
                // row-0 series, if built, goes with it.
                self.index.deindex_period(host, &sp);
                self.retention_stats.evicted_periods += 1;
            }
        }
        let compact_from = prev.hot_floor.max(evict_floor);
        if hot_floor > compact_from {
            let store = self.reports.get_mut(&host).expect("checked above");
            let doomed: Vec<u64> = store
                .range(compact_from..hot_floor)
                .map(|(&p, _)| p)
                .collect();
            let mut compacted = 0u64;
            for p in doomed {
                let sp = store.get_mut(&p).expect("just enumerated");
                // Deindex against the untrimmed report (the index entries
                // were built from it), then trim the resident copy if the
                // lossy floor is on — the archive already holds the full
                // record, so this trades resident memory for compacted-tier
                // accuracy, never data. A trim changes the epochs the row-0
                // series was summed from, so it drops the series; otherwise
                // the series stays with the compacted period. It drops no
                // key, so the heavy-key columns stay either way.
                if self.index.deindex_period(host, sp) {
                    compacted += 1;
                }
                if let Some(keep) = self.retention.lossy_floor {
                    let trimmed = trim_details(&mut sp.report.report, keep);
                    if trimmed > 0 {
                        sp.forget_row0();
                    }
                    self.retention_stats.lossy_trimmed_details += trimmed;
                }
            }
            self.retention_stats.compacted_periods += compacted;
        }
    }

    /// Compacts the globally oldest hot periods until the cached-bytes
    /// budget is respected, raising the victims' hot floors so re-ingest
    /// of the same periods cannot thrash.
    fn enforce_cached_budget(&mut self) {
        let Some(budget) = self.retention.max_cached_bytes else {
            return;
        };
        while self.index.cached_bytes() > budget {
            let Some((p, h)) = self.index.oldest_indexed() else {
                break;
            };
            let sp = self
                .reports
                .get(&h)
                .and_then(|m| m.get(&p))
                .expect("indexed periods are resident");
            self.index.deindex_period(h, sp);
            let floors = self.floors.entry(h).or_default();
            floors.hot_floor = floors.hot_floor.max(p + 1);
            self.retention_stats.compacted_periods += 1;
        }
    }
}

/// Drops all but the `keep` largest-magnitude detail coefficients from every
/// bucket epoch of `report` (the lossy compaction floor,
/// [`RetentionPolicy::lossy_floor`](crate::RetentionPolicy::lossy_floor)).
/// Survivors keep their original order; ties break toward the earlier
/// record, so the trim is deterministic. Returns how many details were
/// dropped. Haar approx coefficients are untouched, so block sums — and the
/// curve's total — survive the trim; what degrades is sub-block detail.
fn trim_details(report: &mut SketchReport, keep: usize) -> u64 {
    fn trim_bucket(br: &mut BucketReport, keep: usize) -> u64 {
        let n = br.details.len();
        if n <= keep {
            return 0;
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(br.details[i].val.unsigned_abs()), i));
        idx.truncate(keep);
        idx.sort_unstable();
        br.details = idx.iter().map(|&i| br.details[i]).collect();
        (n - keep) as u64
    }
    let mut dropped = 0u64;
    for (_, brs) in report.heavy.iter_mut() {
        for br in brs {
            dropped += trim_bucket(br, keep);
        }
    }
    for (_, _, brs) in report.light.iter_mut() {
        for br in brs {
            dropped += trim_bucket(br, keep);
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::super::tests::{agent_config, contested_reports};
    use super::*;
    use crate::host_agent::{HostAgent, HostAgentConfig};
    use crate::retention::RetentionPolicy;
    use std::collections::BTreeSet;

    #[test]
    fn mismatched_sketch_configs_are_quarantined_not_panicked() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(1, 0, 100);
        let reports = agent.finish();
        // An analyzer built with a different width must refuse the report —
        // but by quarantining it, not by tearing down the whole batch.
        let other = SketchConfig::builder()
            .rows(2)
            .width(64) // differs from the agent's 32
            .levels(4)
            .topk(64)
            .max_windows(4096)
            .heavy_rows(16)
            .build();
        let mut analyzer = Analyzer::new(other);
        let stats = analyzer.add_reports(reports);
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.mismatched, 1);
        assert_eq!(analyzer.quarantined().len(), 1);
        assert!(
            analyzer.flow_curve(0, 1).is_none(),
            "nothing reconstructable"
        );
    }

    /// Satellite regression: one corrupt report must not poison the rest of
    /// its batch.
    #[test]
    fn one_corrupt_report_does_not_poison_a_batch() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(5, 10 << 13, 1000);
        let mut reports = agent.finish();
        // Inject a report from a foreign config into the same batch.
        let mut corrupt = reports[0].clone();
        corrupt.config_fingerprint ^= 0xDEAD_BEEF;
        corrupt.period += 1;
        reports.push(corrupt);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(reports);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.mismatched, 1);
        assert_eq!(analyzer.ingest_stats(), stats);
        // The healthy report still reconstructs.
        let curve = analyzer.flow_curve(0, 5).expect("good report survives");
        assert!((curve.at(10) - 1000.0).abs() < 1e-6);
    }

    /// The fingerprint `HostAgentConfig::default()` stamped while placement
    /// hashed every flow to a lane first (8 of them by default; the
    /// fingerprint covered the lane count), computed at that code. Every `reports.json` and archive
    /// written then carries it.
    const LANE_ERA_DEFAULT_FINGERPRINT: u64 = 0xe956_0ca5_9774_5497;

    /// A lane-era report puts flows in other buckets than the Count-Min
    /// layout does; reconstructed under it, it would hand one flow another's
    /// traffic. Live ingest and archive recovery both quarantine it.
    #[test]
    fn lane_era_reports_are_refused_live_and_from_the_archive() {
        let cfg = HostAgentConfig::default();
        assert_ne!(cfg.sketch.fingerprint(), LANE_ERA_DEFAULT_FINGERPRINT);
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(5, 10 << 13, 1000);
        let mut old = agent.finish().remove(0);
        old.config_fingerprint = LANE_ERA_DEFAULT_FINGERPRINT;

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(vec![old.clone()]);
        assert_eq!((stats.accepted, stats.mismatched), (0, 1));
        assert_eq!(analyzer.quarantined().len(), 1);
        assert!(analyzer.flow_curve(0, 5).is_none());
        assert!(analyzer.host_rate_curve(0).is_none());

        let dir = std::env::temp_dir().join(format!("umon_lane_era_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (PeriodArchive::open(&dir).and_then(|mut a| a.append(&old))).expect("archive old report");
        let mut revived = Analyzer::with_archive(cfg.sketch, RetentionPolicy::default(), &dir)
            .expect("open archive");
        let rec = revived.recover_from_archive().expect("scan archive");
        assert_eq!((rec.recovered, rec.mismatched), (0, 1));
        assert!(revived.flow_curve(0, 5).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A healthy report for period 0 and a copy for period 1 that `damage`
    /// reshapes under its valid fingerprint; the copy must be quarantined
    /// before the store, the index or the inverse transform see it, and the
    /// healthy one must stay queryable. Unchecked, each of these shapes ends
    /// in an abort (release is `panic = "abort"`) or a curve sized by the
    /// report's own word.
    fn assert_hostile_shape_is_quarantined(damage: impl Fn(&mut SketchReport)) {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in [10u64, 11, 14] {
            agent.observe(5, w << 13, 1000);
        }
        let healthy = agent.finish().remove(0);
        assert!(!healthy.report.light.is_empty());
        let mut hostile = healthy.clone();
        hostile.period += 1;
        damage(&mut hostile.report);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(vec![hostile, healthy]);
        assert_eq!((stats.accepted, stats.mismatched), (1, 1));
        assert_eq!(analyzer.quarantined().back().map(|r| r.period), Some(1));
        assert!(analyzer.residency().cached_bytes < 1 << 20);
        assert_eq!(analyzer.host_coverage(0).periods, BTreeSet::from([0]));
        let curve = analyzer.flow_curve(0, 5).expect("healthy report survives");
        assert!((curve.at(14) - 1000.0).abs() < 1e-6);
        assert!(analyzer.host_rate_curve(0).is_some());
    }

    #[test]
    fn short_heavy_key_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.heavy.push((vec![1, 2, 3], vec![])));
    }

    #[test]
    fn oversized_epoch_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.light[0].2[0].padded_len = 1 << 24);
    }

    #[test]
    fn epoch_past_the_window_space_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.light[0].2[0].w0 = u64::MAX - 3);
    }

    #[test]
    fn light_tag_outside_the_array_under_a_valid_fingerprint_is_quarantined() {
        assert_hostile_shape_is_quarantined(|r| r.light[0].0 = 2); // rows = 2
        assert_hostile_shape_is_quarantined(|r| r.light[0].1 = 32); // width = 32
    }

    /// The shape check must not reject what drains legitimately produce at
    /// its edges: an epoch of exactly `max_windows`, an empty one, an epoch
    /// ending on the last window.
    #[test]
    fn edge_shapes_a_drain_can_produce_are_accepted() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(5, 10 << 13, 1000);
        let mut r = agent.finish().remove(0);
        let epoch = r.report.light[0].2[0].clone();
        r.report.light[0].2 = vec![
            BucketReport {
                padded_len: cfg.sketch.max_windows,
                ..epoch.clone()
            },
            BucketReport {
                w0: 1 << 40,
                padded_len: 0,
                approx: vec![],
                details: vec![],
                ..epoch.clone()
            },
            BucketReport {
                w0: u64::MAX - epoch.padded_len as u64,
                ..epoch
            },
        ];
        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let stats = analyzer.add_reports(vec![r]);
        assert_eq!((stats.accepted, stats.mismatched), (1, 0));
    }

    /// Satellite regression: duplicated and reordered period reports must
    /// not double-count or mis-merge. The analyzer output over a shuffled,
    /// duplicated report vector must be bit-identical to the clean run.
    #[test]
    fn duplicated_and_shuffled_reports_do_not_double_count() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13; // 16 windows per upload period
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in [2u64, 20, 37, 52, 70] {
            agent.observe(7, w << 13, 500 + w as u32);
        }
        let reports = agent.finish();
        assert!(reports.len() >= 4, "want several periods");

        let mut clean = Analyzer::new(cfg.sketch.clone());
        clean.add_reports(reports.clone());
        let want = clean.flow_curve(0, 7).expect("measured");
        let want_host = clean.host_rate_curve(0).expect("measured");

        // Reverse order + duplicate every report, split across two batches.
        let mut mangled: Vec<PeriodReport> = reports.iter().rev().cloned().collect();
        mangled.extend(reports.iter().cloned());
        let mut dirty = Analyzer::new(cfg.sketch.clone());
        let n = mangled.len() / 2;
        let tail = mangled.split_off(n);
        let s1 = dirty.add_reports(mangled);
        let s2 = dirty.add_reports(tail);
        assert_eq!(s1.accepted + s2.accepted, reports.len() as u64);
        assert_eq!(
            s1.duplicates + s2.duplicates,
            reports.len() as u64,
            "every redelivery must be dropped"
        );
        assert_eq!(dirty.flow_curve(0, 7).unwrap(), want);
        assert_eq!(dirty.host_rate_curve(0).unwrap(), want_host);
    }

    /// Quarantined (config-mismatched) reports must leave the index — not
    /// just the store — untouched.
    #[test]
    fn quarantined_reports_do_not_enter_the_index() {
        let (cfg, reports) = contested_reports(1, 100);
        let mut clean = Analyzer::new(cfg.sketch.clone());
        clean.add_reports(reports.clone());

        let mut poisoned = Analyzer::new(cfg.sketch.clone());
        let mut mangled = reports.clone();
        for (i, r) in reports.iter().enumerate() {
            let mut bad = r.clone();
            bad.config_fingerprint ^= 0xBAD;
            bad.period += 1000 + i as u64; // would land in fresh periods
            mangled.push(bad);
        }
        let stats = poisoned.add_reports(mangled);
        assert_eq!(stats.mismatched, reports.len() as u64);
        for flow in 0..24u64 {
            assert_eq!(
                poisoned.flow_curve(0, flow),
                clean.flow_curve(0, flow),
                "flow {flow}"
            );
        }
        assert_eq!(poisoned.host_rate_curve(0), clean.host_rate_curve(0));
    }

    /// Satellite regression: the quarantine is a bounded ring that keeps the
    /// most recent [`QUARANTINE_CAP`] mismatched reports in arrival order —
    /// no `Vec::remove(0)` shifting, no unbounded growth.
    #[test]
    fn quarantine_is_a_bounded_ring_in_arrival_order() {
        let cfg = agent_config();
        let mut agent = HostAgent::new(0, cfg.clone());
        agent.observe(1, 0, 100);
        let template = agent.finish().remove(0);

        let mut analyzer = Analyzer::new(cfg.sketch.clone());
        let n = QUARANTINE_CAP + 16;
        for i in 0..n {
            let mut bad = template.clone();
            bad.config_fingerprint ^= 0xBAD;
            bad.period = i as u64;
            analyzer.add_reports(vec![bad]);
        }
        assert_eq!(analyzer.quarantined().len(), QUARANTINE_CAP);
        let periods: Vec<u64> = analyzer.quarantined().iter().map(|r| r.period).collect();
        let want: Vec<u64> = ((n - QUARANTINE_CAP) as u64..n as u64).collect();
        assert_eq!(periods, want, "ring keeps the newest, oldest first");
        assert_eq!(analyzer.ingest_stats().mismatched, n as u64);
    }

    /// A bounded policy keeps curves exactly equal to an unbounded reference
    /// fed only the periods the bounded analyzer retained, while compaction
    /// alone (no eviction) changes nothing at all.
    #[test]
    fn bounded_retention_tracks_the_resident_set_bit_identically() {
        let (cfg, reports) = contested_reports(2, 200);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());

        // Compaction only: identical to unbounded everywhere.
        let mut compacting =
            Analyzer::with_retention(cfg.sketch.clone(), RetentionPolicy::bounded(2, u64::MAX));
        compacting.add_reports(reports.clone());
        assert!(compacting.retention_stats().compacted_periods > 0);
        assert_eq!(compacting.retention_stats().evicted_periods, 0);
        for host in 0..2 {
            for flow in 0..24u64 {
                assert_eq!(
                    compacting.flow_curve(host, flow),
                    unbounded.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
            assert_eq!(
                compacting.host_rate_curve(host),
                unbounded.host_rate_curve(host)
            );
        }

        // Eviction: equals a reference fed exactly the survivors.
        let mut bounded =
            Analyzer::with_retention(cfg.sketch.clone(), RetentionPolicy::bounded(1, 3));
        bounded.add_reports(reports.clone());
        assert!(bounded.retention_stats().evicted_periods > 0);
        let survivors: Vec<PeriodReport> = reports
            .iter()
            .filter(|r| bounded.host_coverage(r.host).covers(r.period))
            .cloned()
            .collect();
        let mut reference = Analyzer::new(cfg.sketch.clone());
        reference.add_reports(survivors);
        for host in 0..2 {
            assert!(bounded.host_coverage(host).periods.len() <= 3);
            for flow in 0..24u64 {
                assert_eq!(
                    bounded.flow_curve(host, flow),
                    reference.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
            assert_eq!(
                bounded.host_rate_curve(host),
                reference.host_rate_curve(host)
            );
        }
    }

    /// A report arriving below the eviction floor is dropped as stale (it is
    /// indistinguishable from a redelivery of an evicted period), while one
    /// landing between the floors is stored compacted on arrival.
    #[test]
    fn late_arrivals_land_in_the_tier_their_age_dictates() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13;
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in 0..(16 * 12u64) {
            agent.observe(3, w << 13, 100);
        }
        let reports = agent.finish();
        assert!(reports.len() >= 12);

        let mut analyzer =
            Analyzer::with_retention(cfg.sketch.clone(), RetentionPolicy::bounded(2, 6));
        // Deliver only the newest report first: floors jump immediately.
        let newest = reports.last().unwrap().clone();
        analyzer.add_reports(vec![newest.clone()]);
        let newest_period = newest.period;

        // Below the eviction floor → stale-dropped, not stored.
        let stale = reports
            .iter()
            .find(|r| r.period + 6 <= newest_period)
            .unwrap()
            .clone();
        let s = analyzer.add_reports(vec![stale.clone()]);
        assert_eq!(s.accepted, 0);
        assert_eq!(s.duplicates, 1);
        assert_eq!(analyzer.retention_stats().stale_dropped, 1);
        assert!(!analyzer.host_coverage(0).covers(stale.period));

        // Between the floors → accepted straight into the compacted tier.
        let compactable = reports
            .iter()
            .find(|r| r.period + 6 > newest_period && r.period + 2 <= newest_period)
            .unwrap()
            .clone();
        let before_hot = analyzer.residency().hot_periods;
        let s = analyzer.add_reports(vec![compactable.clone()]);
        assert_eq!(s.accepted, 1);
        assert_eq!(analyzer.retention_stats().compacted_on_arrival, 1);
        assert!(analyzer.host_coverage(0).covers(compactable.period));
        assert_eq!(
            analyzer.residency().hot_periods,
            before_hot,
            "compacted-on-arrival must not be indexed"
        );
        // And it is queryable through the compacted fallback.
        assert!(analyzer.flow_curve(0, 3).is_some());
    }

    /// Restarting from the archive reconverges to the no-crash state.
    #[test]
    fn archive_recovery_reconverges_after_restart() {
        let (cfg, reports) = contested_reports(2, 150);
        let dir =
            std::env::temp_dir().join(format!("umon_analyzer_recovery_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = RetentionPolicy::bounded(2, 4);

        let half = reports.len() / 2;
        {
            let mut doomed =
                Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
            doomed.add_reports(reports[..half].to_vec());
            // Crash: dropped without a shutdown path.
        }
        let mut revived =
            Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("reopen archive");
        let rec = revived.recover_from_archive().expect("scan archive");
        assert!(rec.recovered > 0);
        assert!(rec.damaged_tails.is_empty());
        revived.add_reports(reports[half..].to_vec());

        let mut steady = Analyzer::with_retention(cfg.sketch.clone(), policy);
        steady.add_reports(reports.clone());
        assert_eq!(revived.residency(), steady.residency());
        for host in 0..2 {
            assert_eq!(
                revived.host_coverage(host).periods,
                steady.host_coverage(host).periods
            );
            for flow in 0..24u64 {
                assert_eq!(
                    revived.flow_curve(host, flow),
                    steady.flow_curve(host, flow),
                    "host {host} flow {flow}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite 1: a report arriving below the eviction floor used to be
    /// dropped as stale even when it was the *first* delivery — losing data
    /// forever. With an archive, the cold index tells first deliveries
    /// (archived, queryable) from redeliveries (dropped).
    #[test]
    fn stale_first_delivery_is_archived_not_lost() {
        let mut cfg = agent_config();
        cfg.period_ns = 16 << 13;
        let dir = std::env::temp_dir().join(format!("umon_stale_arch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut agent = HostAgent::new(0, cfg.clone());
        for w in 0..(16 * 12u64) {
            agent.observe(3, w << 13, 100);
        }
        let reports = agent.finish();

        let policy = RetentionPolicy::bounded(2, 6);
        let mut analyzer =
            Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
        // Newest first: the floors jump, everything older is now "stale".
        let newest = reports.last().unwrap().clone();
        analyzer.add_reports(vec![newest.clone()]);
        let stale = reports
            .iter()
            .find(|r| r.period + 6 <= newest.period)
            .unwrap()
            .clone();

        // First delivery below the floor: archived and accepted.
        let s = analyzer.add_reports(vec![stale.clone()]);
        assert_eq!(s.accepted, 1, "first delivery is not lost");
        assert_eq!(analyzer.retention_stats().stale_archived, 1);
        assert_eq!(analyzer.retention_stats().stale_dropped, 0);
        let cov = analyzer.host_coverage(0);
        assert!(!cov.covers(stale.period), "not resident");
        assert!(cov.queryable(stale.period), "but queryable from cold");
        let curve = analyzer.flow_curve(0, 3).expect("flow present");
        assert!(curve.at(stale.period * 16) > 0.0, "cold epoch contributes");

        // Redelivery of the same period: now it really is a duplicate.
        let s = analyzer.add_reports(vec![stale]);
        assert_eq!(s.accepted, 0);
        assert_eq!(s.duplicates, 1);
        assert_eq!(analyzer.retention_stats().stale_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment of the previous format (`UMONSEG1`, FNV-1a record
    /// checksums) is refused, not mistaken for a torn tail: recovery leaves
    /// it byte-identical and reads none of it, and a later append for its
    /// host fails — counted, with the report kept resident — instead of
    /// writing new records behind old ones.
    #[test]
    fn old_format_segment_is_refused_not_wiped() {
        fn fnv1a64(bytes: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let (cfg, reports) = contested_reports(2, 60);
        let dir = std::env::temp_dir().join(format!("umon_v1_refused_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut v1 = b"UMONSEG1".to_vec();
        for r in reports.iter().filter(|r| r.host == 1) {
            let payload = r.encode();
            v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            v1.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            v1.extend_from_slice(&payload);
        }
        let seg = dir.join("host_1.seg");
        std::fs::write(&seg, &v1).unwrap();

        let policy = RetentionPolicy::default();
        let mut revived = Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).unwrap();
        let rec = revived.recover_from_archive().unwrap();
        assert_eq!(rec.refused_segments, vec![1]);
        assert_eq!(rec.recovered, 0);
        assert!(rec.damaged_tails.is_empty(), "refused, not torn");
        assert_eq!(std::fs::read(&seg).unwrap(), v1, "left byte-identical");

        let late = reports.iter().find(|r| r.host == 1).unwrap().clone();
        let stats = revived.add_reports(vec![late.clone()]);
        assert_eq!(stats.accepted, 1, "the report stays resident");
        assert_eq!(revived.retention_stats().archive_errors, 1);
        assert!(revived.host_coverage(1).covers(late.period));
        assert_eq!(std::fs::read(&seg).unwrap(), v1, "never appended to");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery from a torn archive names the lost records, and
    /// `backfill_requests` asks exactly the affected hosts for exactly the
    /// missing span.
    #[test]
    fn torn_tail_is_reported_and_backfill_targets_it() {
        let (cfg, reports) = contested_reports(2, 250);
        let dir = std::env::temp_dir().join(format!("umon_torn_backfill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = RetentionPolicy::bounded(1, 3);
        {
            let mut doomed =
                Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("open archive");
            doomed.add_reports(reports.clone());
        }
        // Chop host 0's segment mid-record: the newest record is torn.
        let seg = dir.join("host_0.seg");
        let len = std::fs::metadata(&seg).expect("segment exists").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open segment")
            .set_len(len - 5)
            .expect("truncate");

        let mut revived = Analyzer::with_archive(cfg.sketch.clone(), policy, &dir).expect("reopen");
        let rec = revived.recover_from_archive().expect("scan");
        assert_eq!(rec.damaged_tails, vec![0]);
        assert_eq!(rec.torn_tails.len(), 1);
        // The stats carry everything a caller needs to report the tear
        // (the library itself prints nothing).
        let torn = rec.torn_tails[0];
        assert_eq!((torn.host, torn.lost_records), (0, 1));
        assert!(torn.lost_bytes > 0);
        assert_eq!(torn.intact_bytes + torn.lost_bytes, len - 5);
        assert_eq!(
            torn.to_string(),
            format!(
                "archive segment for host 0 lost 1 record(s) ({} bytes) to a torn tail; \
                 backfill needed",
                torn.lost_bytes
            )
        );
        assert_eq!(revived.retention_stats().torn_tail_records, 1);

        let asks = revived.backfill_requests(&rec);
        assert_eq!(asks.len(), 1, "only the torn host is asked");
        assert_eq!(asks[0].host, 0);
        // The ask starts after the newest period the analyzer still holds.
        let newest_held = revived
            .host_coverage(0)
            .periods
            .iter()
            .chain(revived.host_coverage(0).archived.iter())
            .copied()
            .max();
        assert_eq!(asks[0].after_period, newest_held);

        // Re-uploading the lost span through normal ingest heals the gap:
        // the analyzer reconverges to the never-crashed twin bit-identically.
        let after = asks[0].after_period;
        let missing: Vec<PeriodReport> = reports
            .iter()
            .filter(|r| r.host == 0 && after.is_none_or(|p| r.period > p))
            .cloned()
            .collect();
        assert!(!missing.is_empty(), "the tear lost something");
        revived.add_reports(missing);
        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());
        for flow in 0..24u64 {
            assert_eq!(revived.flow_curve(0, flow), unbounded.flow_curve(0, flow));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The optional lossy floor trims detail coefficients from compacted
    /// resident copies (shrinking memory) while the archive keeps full
    /// fidelity — so cold reads of evicted periods stay exact.
    #[test]
    fn lossy_floor_trims_resident_but_cold_reads_stay_exact() {
        let (cfg, reports) = contested_reports(1, 250);
        let dir = std::env::temp_dir().join(format!("umon_lossy_floor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut unbounded = Analyzer::new(cfg.sketch.clone());
        unbounded.add_reports(reports.clone());

        let exact_policy = RetentionPolicy::bounded(1, 3);
        let lossy_policy = RetentionPolicy::bounded(1, 3).with_lossy_floor(1);
        let exact_dir = dir.join("exact");
        let lossy_dir = dir.join("lossy");
        let mut exact =
            Analyzer::with_archive(cfg.sketch.clone(), exact_policy, &exact_dir).expect("open");
        exact.add_reports(reports.clone());
        let mut lossy =
            Analyzer::with_archive(cfg.sketch.clone(), lossy_policy, &lossy_dir).expect("open");
        lossy.add_reports(reports.clone());

        let stats = lossy.retention_stats();
        assert!(stats.lossy_trimmed_details > 0, "the floor actually trims");
        assert!(
            lossy.residency().resident_report_bytes < exact.residency().resident_report_bytes,
            "trimming shrinks the resident footprint"
        );
        // Evicted periods are served from the (full-fidelity) archive, so
        // curves restricted to the cold span match the unbounded analyzer
        // exactly: totals over every cold period's windows are identical.
        let floor = lossy.host_coverage(0);
        assert!(!floor.archived.is_empty());
        let lossy_curve = lossy.flow_curve(0, 0).expect("flow present");
        let full_curve = unbounded.flow_curve(0, 0).expect("flow present");
        let windows_per_period = 48u64;
        for &p in &floor.archived {
            for w in p * windows_per_period..(p + 1) * windows_per_period {
                assert_eq!(lossy_curve.at(w), full_curve.at(w), "period {p} window {w}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
