//! `umon` — the operator command line for the μMon reproduction.
//!
//! ```text
//! umon simulate --workload hadoop --load 0.15 --out trace.csv
//! umon measure  --trace trace.csv --out reports.json
//! umon detect   --trace trace.csv --sampling 64
//! umon replay   --trace trace.csv --reports reports.json
//! umon report   --trace trace.csv
//! ```
//!
//! `simulate` runs the packet-level fabric and archives the telemetry taps;
//! the other subcommands drive the μMon agents and analyzer over the trace
//! without re-simulating.

mod args;
mod render;

use args::{ArgError, Args};
use render::{downsample, fmt_bps, fmt_ns, sparkline};
use std::collections::HashMap;
use std::io::BufReader;
use umon::{Analyzer, HostAgent, HostAgentConfig, PeriodReport, SwitchAgent, SwitchAgentConfig};
use umon_netsim::{trace, MirrorCandidate, SimConfig, Simulator, Topology, TxRecord};
use umon_workloads::{WorkloadKind, WorkloadParams};

const HELP: &str = "umon — microsecond-level network monitoring (μMon reproduction)

USAGE:
  umon simulate --workload hadoop|websearch [--load 0.15] [--seed 1]
                [--duration-ms 20] [--out trace.csv]
  umon simulate --flows flows.txt [--seed 1] [--duration-ms 20]
                [--out trace.csv]      (custom flow specs, see umon-workloads)
  umon measure  --trace trace.csv [--out reports.json]
  umon detect   --trace trace.csv [--sampling 64] [--gap-us 50]
  umon replay   --trace trace.csv --reports reports.json [--sampling 8]
  umon report   --trace trace.csv
  umon help
";

fn main() {
    // Exit quietly when stdout closes early (e.g. `umon detect | head`):
    // a closed pipe is the reader's choice, not an error.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
        std::process::exit(101);
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{HELP}");
        return;
    }
    if let Err(e) = run(argv) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "simulate" => cmd_simulate(&args),
        "measure" => cmd_measure(&args),
        "detect" => cmd_detect(&args),
        "replay" => cmd_replay(&args),
        "report" => cmd_report(&args),
        other => Err(Box::new(ArgError(format!(
            "unknown subcommand {other:?}; try `umon help`"
        )))),
    }
}

fn cmd_simulate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["workload", "load", "seed", "duration-ms", "out", "flows"])?;
    let seed: u64 = args.num_or("seed", 1)?;
    let duration_ms: u64 = args.num_or("duration-ms", 20)?;
    let out = args.str_or("out", "trace.csv");

    let flows = if let Ok(path) = args.require("flows") {
        // Operator-supplied flow specs.
        let file = std::fs::File::open(&path)
            .map_err(|e| ArgError(format!("cannot open flow specs {path:?}: {e}")))?;
        let flows = umon_workloads::parse_flow_specs(BufReader::new(file))?;
        eprintln!(
            "simulating {} custom flows over a k=4 fat-tree ...",
            flows.len()
        );
        flows
    } else {
        let kind = match args.str_or("workload", "hadoop").as_str() {
            "hadoop" => WorkloadKind::Hadoop,
            "websearch" => WorkloadKind::WebSearch,
            w => return Err(Box::new(ArgError(format!("unknown workload {w:?}")))),
        };
        let load: f64 = args.num_or("load", 0.15)?;
        let params = WorkloadParams {
            duration_ns: duration_ms * 1_000_000,
            ..WorkloadParams::paper(kind, load, seed)
        };
        let flows = params.generate();
        eprintln!(
            "simulating {} at {:.0}% load: {} flows over {} ms on a k=4 fat-tree ...",
            kind.name(),
            load * 100.0,
            flows.len(),
            duration_ms
        );
        flows
    };
    let config = SimConfig {
        end_ns: duration_ms * 1_000_000 + 5_000_000,
        seed,
        ..SimConfig::default()
    };
    let result = Simulator::new(Topology::fat_tree(4, 100.0, 1000), flows, config).run();

    let mut file = std::io::BufWriter::new(std::fs::File::create(&out)?);
    trace::write_tx_records(&mut file, &result.telemetry.tx_records)?;
    trace::write_mirror_candidates(&mut file, &result.telemetry.mirror_candidates)?;
    println!(
        "wrote {}: {} data packets, {} CE-marked packets, {} queue episodes, {} drops",
        out,
        result.telemetry.tx_records.len(),
        result.telemetry.mirror_candidates.len(),
        result.telemetry.episodes.len(),
        result.telemetry.drops
    );
    Ok(())
}

fn load_trace(
    path: &str,
) -> Result<(Vec<TxRecord>, Vec<MirrorCandidate>), Box<dyn std::error::Error>> {
    let file = std::fs::File::open(path)
        .map_err(|e| ArgError(format!("cannot open trace {path:?}: {e}")))?;
    Ok(trace::read_trace(BufReader::new(file))?)
}

/// Runs host agents over a trace; returns (reports, observation span ns).
fn measure(tx: &[TxRecord]) -> (Vec<PeriodReport>, u64) {
    // Trace-derived: saturate, a last timestamp of u64::MAX must not wrap.
    let span = tx
        .iter()
        .map(|r| r.ts_ns)
        .max()
        .unwrap_or(0)
        .saturating_add(1);
    let hosts: std::collections::BTreeSet<usize> = tx.iter().map(|r| r.host).collect();
    let mut reports = Vec::new();
    for &host in &hosts {
        let mut agent = HostAgent::new(host, HostAgentConfig::default());
        for r in tx.iter().filter(|r| r.host == host) {
            agent.observe(r.flow.0, r.ts_ns, r.bytes);
        }
        reports.extend(agent.finish());
    }
    (reports, span)
}

fn cmd_measure(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["trace", "out"])?;
    let (tx, _) = load_trace(&args.require("trace")?)?;
    if tx.is_empty() {
        return Err(Box::new(ArgError("trace has no tx records".into())));
    }
    let (reports, span) = measure(&tx);
    let out = args.str_or("out", "reports.json");
    std::fs::write(&out, serde_json::to_vec(&reports)?)?;
    let bytes: usize = reports.iter().map(PeriodReport::wire_bytes).sum();
    let hosts: std::collections::BTreeSet<usize> = tx.iter().map(|r| r.host).collect();
    println!(
        "wrote {}: {} period reports from {} hosts, {} on the wire",
        out,
        reports.len(),
        hosts.len(),
        fmt_bps(bytes as f64 * 8.0 / (span as f64 / 1e9) / hosts.len() as f64) + " per host"
    );
    Ok(())
}

/// Runs switch agents + clustering; returns the analyzer holding mirrors.
fn detect(ce: &[MirrorCandidate], sampling_shift: u32) -> Analyzer {
    let mut analyzer = Analyzer::new(HostAgentConfig::default().sketch);
    let switches: std::collections::BTreeSet<usize> = ce.iter().map(|m| m.switch).collect();
    for &switch in &switches {
        let mut agent = SwitchAgent::new(
            switch,
            SwitchAgentConfig {
                sampling_shift,
                ..Default::default()
            },
        );
        agent.ingest(ce);
        analyzer.add_mirrors(agent.drain());
    }
    analyzer
}

fn cmd_detect(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["trace", "sampling", "gap-us"])?;
    let (_, ce) = load_trace(&args.require("trace")?)?;
    let sampling: u64 = args.num_or("sampling", 64)?;
    let gap_us: u64 = args.num_or("gap-us", 50)?;
    let shift = sampling.max(1).ilog2();
    let analyzer = detect(&ce, shift);
    let events = analyzer.cluster_events(gap_us.saturating_mul(1000));
    println!(
        "{} CE packets → {} events at 1/{} sampling (gap {} us)\n",
        ce.len(),
        events.len(),
        1u64 << shift,
        gap_us
    );
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>6} {:>6}",
        "switch", "port", "start", "duration", "pkts", "flows"
    );
    for e in events.iter().take(30) {
        println!(
            "{:>8} {:>6} {:>12} {:>12} {:>6} {:>6}",
            e.switch,
            e.vlan - 1,
            fmt_ns(e.start_ns),
            fmt_ns(e.duration_ns()),
            e.packets,
            e.flows.len()
        );
    }
    if events.len() > 30 {
        println!("... and {} more", events.len() - 30);
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["trace", "reports", "sampling"])?;
    let (tx, ce) = load_trace(&args.require("trace")?)?;
    let reports: Vec<PeriodReport> =
        serde_json::from_slice(&std::fs::read(args.require("reports")?)?)?;
    let sampling: u64 = args.num_or("sampling", 8)?;
    let mut analyzer = detect(&ce, sampling.max(1).ilog2());
    let ingest = analyzer.add_reports(reports);
    if ingest.mismatched > 0 {
        let msg = format!(
            "{} of {} reports quarantined (sketch layout fingerprint or shape mismatch; \
             re-run umon measure)",
            ingest.mismatched,
            ingest.total()
        );
        if ingest.mismatched == ingest.total() {
            return Err(msg.into());
        }
        eprintln!("{msg}");
    }

    let events = analyzer.cluster_events(50_000);
    let Some(event) = events.iter().max_by_key(|e| e.flows.len()) else {
        println!("no congestion events in the trace");
        return Ok(());
    };
    // Source host of each flow from the tx records.
    let host_of_flow: HashMap<u64, usize> = tx.iter().map(|r| (r.flow.0, r.host)).collect();
    let margin = 20u64 * 8192;
    let (windows, curves) =
        analyzer.replay_event(event, margin, 13, |f| host_of_flow.get(&f).copied());
    println!(
        "replaying the busiest event: switch {} port {} — {} over {}, {} flows\n",
        event.switch,
        event.vlan - 1,
        event.packets,
        fmt_ns(event.duration_ns()),
        event.flows.len()
    );
    let pre = 0..20usize;
    let during = 20..windows.len().saturating_sub(20).max(21);
    for (flow, values) in curves.iter().take(10) {
        let gbps: Vec<f64> = values.iter().map(|&b| b * 8.0 / 8192.0).collect();
        let (line, caption) = sparkline(&downsample(&gbps, 72), None);
        let role = umon::classify_event_role(values, pre.clone(), during.clone());
        println!("flow {flow:>6} [{role:?}]  {caption}");
        println!("  {line}");
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.check_known(&["trace"])?;
    let (tx, ce) = load_trace(&args.require("trace")?)?;
    if tx.is_empty() {
        return Err(Box::new(ArgError("trace has no tx records".into())));
    }
    let (reports, span) = measure(&tx);
    let hosts: std::collections::BTreeSet<usize> = tx.iter().map(|r| r.host).collect();
    let bytes: u64 = tx.iter().map(|r| r.bytes as u64).sum();
    println!("trace summary");
    println!("  span:           {}", fmt_ns(span));
    println!("  hosts:          {}", hosts.len());
    println!(
        "  data:           {} packets / {:.1} MB",
        tx.len(),
        bytes as f64 / 1e6
    );
    let flows: std::collections::BTreeSet<u64> = tx.iter().map(|r| r.flow.0).collect();
    println!("  flows:          {}", flows.len());

    let report_bytes: usize = reports.iter().map(PeriodReport::wire_bytes).sum();
    println!(
        "  μFlow upload:   {} per host",
        fmt_bps(report_bytes as f64 * 8.0 / (span as f64 / 1e9) / hosts.len() as f64)
    );

    let analyzer = detect(&ce, 6);
    let map = analyzer.congestion_map(50_000);
    println!(
        "  CE packets:     {} ({} mirrored at 1/64)",
        ce.len(),
        analyzer.mirrors().len()
    );
    println!("  congested links (top 5 by events):");
    for ((switch, vlan), spans) in map.iter().take(5) {
        println!(
            "    switch {switch} port {}: {} events",
            vlan - 1,
            spans.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use umon_netsim::FlowId;

    /// Writes a trace holding `tx` and `ce` to a fresh temp file.
    fn trace_file(name: &str, tx: &[TxRecord], ce: &[MirrorCandidate]) -> String {
        let path = std::env::temp_dir().join(format!("umon-cli-{}-{name}.csv", std::process::id()));
        let mut file = std::fs::File::create(&path).unwrap();
        trace::write_tx_records(&mut file, tx).unwrap();
        trace::write_mirror_candidates(&mut file, ce).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tx(ts_ns: u64) -> TxRecord {
        TxRecord {
            host: 0,
            flow: FlowId(7),
            ts_ns,
            bytes: 1000,
        }
    }

    /// Regression: `max(ts_ns) + 1` wrapped (release) or panicked (debug)
    /// on a trace whose last timestamp is `u64::MAX`.
    #[test]
    fn measure_span_saturates_at_the_top_of_the_clock_range() {
        let (reports, span) = measure(&[tx(5), tx(u64::MAX)]);
        assert_eq!(span, u64::MAX);
        assert!(!reports.is_empty());
        assert_eq!(measure(&[tx(5)]).1, 6);
    }

    /// `report` takes its span from `measure`, so the same trace must print
    /// a summary instead of dying on the way.
    #[test]
    fn report_survives_a_trace_ending_at_u64_max() {
        let path = trace_file("report", &[tx(5), tx(u64::MAX)], &[]);
        let result = run(vec!["report".into(), "--trace".into(), path.clone()]);
        std::fs::remove_file(&path).ok();
        result.unwrap();
    }

    /// `replay` over reports the analyzer refuses wholesale — here stamped
    /// with the fingerprint the default config had while placement hashed a
    /// lane first — is an error naming the fix, not empty curves and exit 0.
    #[test]
    fn replay_of_only_foreign_layout_reports_is_an_error() {
        let path = trace_file("replay", &[tx(5)], &[]);
        let (mut reports, _) = measure(&[tx(5)]);
        for r in &mut reports {
            r.config_fingerprint = 0xe956_0ca5_9774_5497;
        }
        let reports_path = format!("{path}.reports.json");
        std::fs::write(&reports_path, serde_json::to_vec(&reports).unwrap()).unwrap();
        let argv = ["replay", "--trace", &path, "--reports", &reports_path];
        let result = run(argv.iter().map(|s| s.to_string()).collect());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&reports_path).ok();
        let err = result.expect_err("nothing replayable").to_string();
        assert_eq!(
            err,
            format!(
                "{n} of {n} reports quarantined (sketch layout fingerprint or shape \
                 mismatch; re-run umon measure)",
                n = reports.len()
            )
        );
    }

    /// Regression: `gap_us * 1000` was unchecked; an absurd `--gap-us` now
    /// means "one event per port", not a wrapped (tiny) gap or a panic.
    #[test]
    fn detect_saturates_an_oversized_gap() {
        let ce = |ts_ns| MirrorCandidate {
            switch: 20,
            port: 1,
            ts_ns,
            flow: FlowId(7),
            psn: 0,
            bytes: 1000,
        };
        let path = trace_file("detect", &[], &[ce(1_000), ce(9_000_000_000)]);
        let argv = ["detect", "--trace", &path, "--sampling", "1", "--gap-us"]
            .iter()
            .map(|s| s.to_string())
            .chain([u64::MAX.to_string()])
            .collect();
        let result = run(argv);
        std::fs::remove_file(&path).ok();
        result.unwrap();
    }
}
