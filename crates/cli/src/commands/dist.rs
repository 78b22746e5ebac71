//! `repwf dist` — inspect a supervised campaign directory.
//!
//! `repwf dist status --dir D` scans the directory's durable files —
//! the pinned campaign, unit files, leases, done and split markers —
//! and reports each claim unit's standing without claiming or changing
//! anything. Safe to run while workers are live.

use crate::json::Json;
use repwf_dist::status;

const HELP: &str = "\
repwf dist — inspect distributed campaign state

USAGE: repwf dist status --dir PATH [--lease-timeout S] [--json]

Reports each claim unit of a supervised campaign directory (see
`repwf campaign --supervise`): durable records vs effective length,
completion, and the current lease (owner, attempt, heartbeat age,
failed flag). Leased units report throughput (records/sec, derived
from checkpoint growth between heartbeats) when the owner has
published progress, and are flagged STALE once the heartbeat age
exceeds --lease-timeout. Read-only; safe while workers are running.

OPTIONS:
  --dir PATH         the shared campaign directory
  --lease-timeout S  heartbeat age (seconds) past which a lease is
                     reported STALE (default 10, matching the
                     supervisor's takeover timeout)
  --json             structured output
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts =
        crate::opts::Opts::parse(args, &["--dir", "--lease-timeout"], &["--json", "--help"])?;
    if opts.has("--help") {
        out!("{HELP}");
        return Ok(());
    }
    match opts.positional() {
        [sub] if sub == "status" => {}
        [] => return Err(format!("missing subcommand\n\n{HELP}")),
        [other, ..] => return Err(format!("unknown subcommand `{other}`\n\n{HELP}")),
    }
    let dir = opts.get("--dir").ok_or("dist status needs --dir PATH")?;
    let timeout = opts.get_or("--lease-timeout", 10.0f64)?;
    if !timeout.is_finite() || timeout <= 0.0 {
        return Err("--lease-timeout must be positive seconds".to_string());
    }
    let stale_after = std::time::Duration::from_secs_f64(timeout);
    let status = status(std::path::Path::new(dir)).map_err(|e| e.to_string())?;

    if opts.has("--json") {
        let units: Vec<Json> = status
            .unit_status
            .iter()
            .map(|u| {
                let mut fields = vec![
                    ("offset", Json::UInt(u.unit.offset as u128)),
                    ("declared", Json::UInt(u.unit.declared as u128)),
                    ("effective", Json::UInt(u.unit.eff as u128)),
                    ("records", Json::UInt(u.records as u128)),
                    ("done", Json::Bool(u.unit.done.is_some())),
                    ("file_complete", Json::Bool(u.file_complete)),
                ];
                if let Some(lease) = &u.lease {
                    let mut lease_fields = vec![
                        ("owner", Json::str(&lease.owner)),
                        ("attempt", Json::UInt(u128::from(lease.attempt))),
                        ("failed", Json::Bool(lease.failed)),
                        ("age_ms", Json::UInt(lease.age.as_millis())),
                        ("stale", Json::Bool(lease.age >= stale_after)),
                    ];
                    if let Some(rate) = lease.progress.as_ref().and_then(|p| p.records_per_sec()) {
                        lease_fields.push(("records_per_sec", Json::Num(rate)));
                    }
                    fields.push(("lease", Json::Obj(lease_fields)));
                }
                Json::Obj(fields)
            })
            .collect();
        let doc = Json::Obj(vec![
            ("count", Json::UInt(status.spec.count as u128)),
            ("seed", Json::UInt(u128::from(status.spec.seed_base))),
            ("units", Json::UInt(status.units as u128)),
            ("complete", Json::Bool(status.complete)),
            ("unit_status", Json::Arr(units)),
        ]);
        out!("{}", doc.to_string_pretty());
        return Ok(());
    }

    outln!(
        "campaign: {} experiments from seed {}, {} initial units",
        status.spec.count, status.spec.seed_base, status.units
    );
    for u in &status.unit_status {
        let state = if u.unit.done.is_some() {
            "done".to_string()
        } else if let Some(lease) = &u.lease {
            let rate = lease
                .progress
                .as_ref()
                .and_then(repwf_dist::LeaseProgress::records_per_sec)
                .map_or(String::new(), |r| format!(", {r:.1} rec/s"));
            let stale = if !lease.failed && lease.age >= stale_after { " STALE" } else { "" };
            format!(
                "{} by {} (attempt {}, heartbeat {:.1}s ago{rate}){stale}",
                if lease.failed { "failed" } else { "claimed" },
                lease.owner,
                lease.attempt,
                lease.age.as_secs_f64(),
            )
        } else {
            "unclaimed".to_string()
        };
        outln!(
            "  r{}-{}: {}/{} records, {}",
            u.unit.offset, u.unit.declared, u.records, u.unit.eff, state
        );
    }
    let durable: usize = status.unit_status.iter().map(|u| u.records.min(u.unit.eff)).sum();
    outln!(
        "progress: {durable}/{} records durable ({})",
        status.spec.count,
        repwf_gen::campaign::format_pct(durable, status.spec.count)
    );
    outln!("status: {}", if status.complete { "COMPLETE" } else { "in progress" });
    Ok(())
}
