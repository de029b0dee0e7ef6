//! Regenerates the golden fixtures under `tests/golden/`: sketch *drain*
//! fixtures (write path) and analyzer *query* fixtures (read path).
//!
//! Usage: `cargo run -p umon-testkit --bin golden_gen [-- --check]`
//!
//! Without flags, writes one JSON [`SketchReport`] per golden drain seed and
//! one JSON [`QueryFixture`] per golden query seed. With `--check`, compares
//! the current implementation's outputs against the checked-in fixtures
//! instead of overwriting them and exits nonzero on any mismatch — the same
//! assertions the drain-fixture and query-equivalence test suites make,
//! usable standalone. `--check` answers every query fixture three times:
//! from the all-hot analyzer that wrote it, from an archive-backed
//! `bounded(1, 2)` one whose curves cross the hot, compacted and cold tiers,
//! and from the same with a one-byte cold cache, whose every cold read is a
//! miss (read, verify, build the entry table, parse the selected epochs).
//!
//! Drain fixtures pin *content*: which coefficients every epoch retains,
//! with every other field exact. Both sides of the comparison go through
//! [`canonical`] (details sorted by `(level, idx)`), because the order a
//! selector emits its retained set in is unspecified. A drain fixture whose
//! content already matches is left byte-for-byte alone when regenerating, so
//! a regeneration's `git diff` lists exactly the seeds whose content moved —
//! each of which needs its reason written down (DESIGN.md §8 has the
//! history). The query fixtures are bit-exact `f64` curves and are always
//! rewritten; only a change meant to alter curves may let them move. All
//! twelve were last re-recorded through the ISSUE 26 placement bridge:
//! bytes the previous code wrote with its lane count forced to 1.

use std::path::PathBuf;
use umon_testkit::golden::{canonical, golden_drain, golden_fixture_name, GOLDEN_SEEDS};
use umon_testkit::golden_query::{
    query_fixture, query_fixture_name, query_fixture_tiered, tiered_policies, QueryFixture,
    QUERY_SEEDS,
};
use wavesketch::SketchReport;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden")
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let dir = fixture_dir();
    if !check {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut failures = 0;
    for seed in GOLDEN_SEEDS {
        let report = canonical(golden_drain(seed));
        let path = dir.join(golden_fixture_name(seed));
        let matches = std::fs::read_to_string(&path).map(|raw| {
            let fixture: SketchReport = serde_json::from_str(&raw).expect("parse fixture");
            canonical(fixture) == report
        });
        if check {
            let matches =
                matches.unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            if matches {
                println!("drain seed {seed:2}: OK ({} epochs)", report.epoch_count());
            } else {
                println!("drain seed {seed:2}: MISMATCH vs {}", path.display());
                failures += 1;
            }
        } else if matches.unwrap_or(false) {
            println!("drain seed {seed:2}: unchanged {}", path.display());
        } else {
            let json = serde_json::to_string(&report).expect("serialize report");
            std::fs::write(&path, json).expect("write fixture");
            println!(
                "drain seed {seed:2}: wrote {} ({} epochs, integrity {:016x})",
                path.display(),
                report.epoch_count(),
                report.integrity()
            );
        }
    }
    for seed in QUERY_SEEDS {
        let fixture = query_fixture(seed);
        let path = dir.join(query_fixture_name(seed));
        let curves: usize = fixture
            .hosts
            .iter()
            .map(|h| h.rate.iter().count() + h.flows.iter().filter(|(_, c)| c.is_some()).count())
            .sum();
        if check {
            let raw = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            let frozen: QueryFixture = serde_json::from_str(&raw).expect("parse query fixture");
            let twins = tiered_policies().map(|(what, policy)| {
                let dir = std::env::temp_dir()
                    .join(format!("umon_golden_{what}_{seed}_{}", std::process::id()));
                (what, query_fixture_tiered(seed, &dir, policy))
            });
            let answers = std::iter::once(("all-hot", &fixture));
            for (what, got) in answers.chain(twins.iter().map(|(w, f)| (*w, f))) {
                if *got == frozen {
                    println!("query seed {seed:2}: OK ({curves} curves, {what})");
                } else {
                    println!(
                        "query seed {seed:2}: MISMATCH ({what}) vs {}",
                        path.display()
                    );
                    failures += 1;
                }
            }
        } else {
            let json = serde_json::to_string(&fixture).expect("serialize query fixture");
            std::fs::write(&path, json).expect("write fixture");
            println!(
                "query seed {seed:2}: wrote {} ({curves} curves)",
                path.display()
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} fixture(s) diverged");
        std::process::exit(1);
    }
}
