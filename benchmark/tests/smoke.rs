//! Every workload at smoke size (`--quick`: k=4, two laps, 64 reports, 500
//! queries), traced and untraced: all output checks pass, nothing fails, and
//! every metric `BENCHMARK.json` names is present and finite. Plus: the
//! tables in `spec.rs` and `BENCHMARK.json` say the same thing.

use serde_json::Value;
use std::path::PathBuf;
use umon_pipeline_bench::run::{run_workload, RunArgs};
use umon_pipeline_bench::spec;

fn quick(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}")),
    }
}

fn smoke(workload: &str) {
    for trace in [false, true] {
        let args = quick(workload, trace);
        let outcome = run_workload(&args).expect("workload runs");
        for check in &outcome.checks {
            assert!(
                check.ok,
                "{workload}: check failed: {} ({})",
                check.name, check.detail
            );
        }
        assert_eq!(outcome.failed(), 0, "{workload}: failed operations");
        assert!(
            outcome.ops > 0 && outcome.lap_ns.len() >= 2,
            "{workload}: measured nothing"
        );
        for (m, v) in outcome.end_to_end() {
            assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
        }
        for (m, v) in outcome.per_layer() {
            assert!(v.is_finite() && v >= 0.0, "{workload}: {} = {v}", m.name);
        }
        // The contract's result object carries exactly the metrics of its mode.
        let result = outcome.result_json(trace);
        let Some(Value::Object(metrics)) = result.field("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let want = if trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, want.iter().map(|m| m.name).collect::<Vec<_>>());
        if trace {
            let path = args.out_dir.join(format!("trace_{workload}.json"));
            let text = std::fs::read_to_string(&path).expect("trace file written");
            let trace: Value = serde_json::from_str(&text).expect("trace file is JSON");
            assert!(matches!(trace.field("spans"), Some(Value::Array(s)) if !s.is_empty()));
        }
    }
}

#[test]
fn fabric_k8_smoke() {
    smoke("fabric_k8");
}

#[test]
fn host_bursty_smoke() {
    smoke("host_bursty");
}

#[test]
fn host_paced_smoke() {
    smoke("host_paced");
}

#[test]
fn collect_clean_smoke() {
    smoke("collect_clean");
}

#[test]
fn collect_lossy_smoke() {
    smoke("collect_lossy");
}

#[test]
fn query_tiers_smoke() {
    smoke("query_tiers");
}

#[test]
fn layers_the_workload_bypasses_report_zero() {
    let outcome = run_workload(&quick("collect_clean", true)).expect("workload runs");
    for name in ["netsim.run_ns", "host_agent.ingest_ns", "queries_per_s"] {
        assert_eq!(
            outcome.layer.get(name).copied().unwrap_or(0.0),
            0.0,
            "{name}"
        );
    }
    assert!(outcome.layer["collector.pump_ns"] > 0.0);
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

#[test]
fn benchmark_json_states_the_same_tables_as_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(
        doc.field("run_seconds"),
        Some(&Value::Int(spec::RUN_SECONDS as i128))
    );

    let Some(Value::Array(workloads)) = doc.field("workloads") else {
        panic!("workloads missing");
    };
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (w, s) in workloads.iter().zip(spec::WORKLOADS) {
        assert_eq!(text(w, "name"), s.name);
        assert_eq!(text(w, "why"), s.why);
    }

    for (key, table) in [
        ("end_to_end", spec::END_TO_END),
        ("per_layer", spec::PER_LAYER),
    ] {
        let Some(Value::Array(metrics)) = doc.field(key) else {
            panic!("{key} missing");
        };
        assert_eq!(metrics.len(), table.len(), "{key}");
        for (m, s) in metrics.iter().zip(table) {
            assert_eq!(text(m, "name"), s.name);
            assert_eq!(text(m, "unit"), s.unit, "{}", s.name);
            assert_eq!(text(m, "better"), s.better.as_str(), "{}", s.name);
            let bound = match m.field("bound") {
                Some(Value::Float(f)) => Some(*f),
                Some(Value::Int(i)) => Some(*i as f64),
                _ => None,
            };
            assert_eq!(bound, s.bound, "{}", s.name);
        }
    }
}
