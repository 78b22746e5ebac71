//! `repwf trace` — summarize an NDJSON telemetry trace.
//!
//! `repwf trace report FILE` validates a `repwf-trace/v1` file written
//! by `--trace` (schema, record count, FNV checksum footer) and prints
//! per-phase totals with p50/p95/p99 span latencies, counter totals,
//! event counts, and per-worker busy-time imbalance. `--min-coverage`
//! turns the report into a CI gate: fail unless the top-level spans
//! cover at least that fraction of the trace's wall time.

use crate::json::Json;
use crate::opts::Opts;
use repwf_obs::report::{read_trace, TraceReport};

const HELP: &str = "\
repwf trace — summarize an NDJSON telemetry trace (repwf-trace/v1)

USAGE: repwf trace report FILE.ndjson [--min-coverage F] [--json]

Validates the trace end to end — header schema, per-line parse, record
count, FNV-1a checksum footer — then reports per-phase span totals
(count, total, p50/p95/p99), counter totals, event counts, and
per-worker busy time with the max/mean imbalance ratio.

OPTIONS:
  --min-coverage F   fail (exit 2) unless the main thread's top-level
                     spans cover at least fraction F of the trace's
                     wall time (a CI accounting gate, e.g. 0.95)
  --json             structured output
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["--min-coverage"], &["--json", "--help"])?;
    if opts.has("--help") {
        out!("{HELP}");
        return Ok(());
    }
    let file = match opts.positional() {
        [sub, file] if sub == "report" => file,
        [sub] if sub == "report" => return Err(format!("report needs a trace file\n\n{HELP}")),
        [] => return Err(format!("missing subcommand\n\n{HELP}")),
        [other, ..] => return Err(format!("unknown subcommand `{other}`\n\n{HELP}")),
    };
    let rep = read_trace(std::path::Path::new(file))?;

    if opts.has("--json") {
        out!("{}", report_json(&rep).to_string_pretty());
    } else {
        print_report(&rep);
    }

    if let Some(min) = opts.get("--min-coverage") {
        let min: f64 =
            min.parse().map_err(|_| format!("invalid --min-coverage {min:?}"))?;
        if !(0.0..=1.0).contains(&min) {
            return Err("--min-coverage must be a fraction in 0..=1".to_string());
        }
        if rep.coverage < min {
            return Err(format!(
                "span coverage {:.1}% below required {:.1}% — unaccounted wall time",
                rep.coverage * 100.0,
                min * 100.0
            ));
        }
    }
    Ok(())
}

fn report_json(rep: &TraceReport) -> Json {
    let phases: Vec<Json> = rep
        .phases
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("name", Json::str(&p.name)),
                ("count", Json::UInt(u128::from(p.count))),
                ("total_ns", Json::UInt(u128::from(p.sum_ns))),
                ("min_ns", Json::UInt(u128::from(p.min_ns))),
                ("max_ns", Json::UInt(u128::from(p.max_ns))),
                ("p50_ns", Json::UInt(u128::from(p.p50_ns))),
                ("p95_ns", Json::UInt(u128::from(p.p95_ns))),
                ("p99_ns", Json::UInt(u128::from(p.p99_ns))),
            ])
        })
        .collect();
    let counters: Vec<Json> = rep
        .counters
        .iter()
        .map(|(n, v)| {
            Json::Obj(vec![("name", Json::str(n)), ("value", Json::UInt(u128::from(*v)))])
        })
        .collect();
    let events: Vec<Json> = rep
        .events
        .iter()
        .map(|(n, c)| {
            Json::Obj(vec![("name", Json::str(n)), ("count", Json::UInt(u128::from(*c)))])
        })
        .collect();
    let threads: Vec<Json> = rep
        .threads
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("tid", Json::UInt(u128::from(t.tid))),
                ("busy_ns", Json::UInt(u128::from(t.busy_ns))),
                ("spans", Json::UInt(u128::from(t.spans))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("command", Json::str(&rep.command)),
        ("records", Json::UInt(u128::from(rep.records))),
        ("total_ns", Json::UInt(u128::from(rep.total_ns))),
        ("coverage", Json::Num(rep.coverage)),
        ("imbalance", Json::Num(rep.imbalance)),
        ("phases", Json::Arr(phases)),
        ("counters", Json::Arr(counters)),
        ("events", Json::Arr(events)),
        ("threads", Json::Arr(threads)),
    ])
}

fn print_report(rep: &TraceReport) {
    outln!(
        "trace: {} — {} records, {:.3} ms wall (checksum OK)",
        rep.command,
        rep.records,
        rep.total_ns as f64 / 1e6
    );
    if !rep.phases.is_empty() {
        outln!("phases (by total time):");
        outln!(
            "  {:<12} {:>8} {:>12} {:>10} {:>10} {:>10}",
            "phase", "count", "total ms", "p50 us", "p95 us", "p99 us"
        );
        for p in &rep.phases {
            outln!(
                "  {:<12} {:>8} {:>12.3} {:>10.1} {:>10.1} {:>10.1}",
                p.name,
                p.count,
                p.sum_ns as f64 / 1e6,
                p.p50_ns as f64 / 1e3,
                p.p95_ns as f64 / 1e3,
                p.p99_ns as f64 / 1e3,
            );
        }
    }
    if !rep.counters.is_empty() {
        outln!("counters:");
        for (name, value) in &rep.counters {
            outln!("  {name:<24} {value}");
        }
    }
    if !rep.events.is_empty() {
        outln!("events:");
        for (name, count) in &rep.events {
            outln!("  {name:<24} {count}");
        }
    }
    if rep.threads.len() > 1 {
        outln!("workers: {} threads", rep.threads.len());
        for t in &rep.threads {
            outln!(
                "  tid {:<4} busy {:>12.3} ms over {} spans",
                t.tid,
                t.busy_ns as f64 / 1e6,
                t.spans
            );
        }
        outln!("imbalance (max/mean worker busy): {:.2}", rep.imbalance);
    }
    outln!("span coverage of wall time: {:.1}%", rep.coverage * 100.0);
}
