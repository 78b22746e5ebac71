//! Shared `--trace FILE` / `--metrics` plumbing for the instrumented
//! commands (`period`, `map`, `campaign`).
//!
//! The contract the CLI tests pin: `--trace` writes its NDJSON file on
//! the side and must not change a single stdout byte at any thread
//! count. `--metrics` is the flag that *adds* output — a counter table
//! after the human report, or a `"metrics"` object in `--json` docs.

use crate::json::Json;
use crate::opts::Opts;
use repwf_obs::{CounterId, MetricsSnapshot, SpanId};

/// Live telemetry for one command invocation. Holds the top-level
/// `command` span open until [`Obs::finish`].
pub struct Obs {
    guard: Option<repwf_obs::SpanGuard>,
    metrics: bool,
}

/// Reads `--trace FILE` / `--metrics` from already-parsed options,
/// installs the sink / enables the registry, and opens the `command`
/// span. With neither flag, telemetry stays fully disabled (the
/// zero-overhead path) and the returned guard is inert.
pub fn init(opts: &Opts, command: &str) -> Result<Obs, String> {
    let metrics = opts.has("--metrics");
    if let Some(path) = opts.get("--trace") {
        repwf_obs::install_trace(std::path::Path::new(path), command)
            .map_err(|e| format!("--trace {path}: {e}"))?;
    } else if metrics {
        repwf_obs::enable();
    }
    let guard = repwf_obs::enabled().then(|| repwf_obs::span(SpanId::Command));
    Ok(Obs { guard, metrics })
}

impl Obs {
    /// Closes the command span, flushes and footers the trace file (if
    /// one was installed), and returns the final snapshot when
    /// `--metrics` asked for one. Call after the command's work is done,
    /// before printing a document that should embed the metrics.
    pub fn finish(mut self) -> Result<Option<MetricsSnapshot>, String> {
        drop(self.guard.take());
        repwf_obs::finish_trace().map_err(|e| format!("writing trace: {e}"))?;
        Ok(self.metrics.then(repwf_obs::snapshot))
    }
}

/// The `"metrics"` object for `--json` documents: every nonzero counter,
/// then per-span `{count, total_ns, min_ns, max_ns}` for spans that
/// fired.
pub fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let counters: Vec<(&'static str, Json)> = CounterId::ALL
        .iter()
        .filter(|&&id| snap.counter(id) > 0)
        .map(|&id| (id.name(), Json::UInt(u128::from(snap.counter(id)))))
        .collect();
    let spans: Vec<(&'static str, Json)> = SpanId::ALL
        .iter()
        .filter(|&&id| snap.span(id).count > 0)
        .map(|&id| {
            let s = snap.span(id);
            (
                id.name(),
                Json::Obj(vec![
                    ("count", Json::UInt(u128::from(s.count))),
                    ("total_ns", Json::UInt(u128::from(s.sum_ns))),
                    ("min_ns", Json::UInt(u128::from(s.min_ns))),
                    ("max_ns", Json::UInt(u128::from(s.max_ns))),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![("counters", Json::Obj(counters)), ("spans", Json::Obj(spans))])
}

/// The human metrics table, one indented line per nonzero counter /
/// fired span. Callers print it to stdout after a human report, or to
/// stderr in modes whose stdout is a machine artifact.
pub fn metrics_table(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("metrics:\n");
    for id in CounterId::ALL {
        let v = snap.counter(id);
        if v > 0 {
            let _ = writeln!(out, "  {:24} {v}", id.name());
        }
    }
    for id in SpanId::ALL {
        let s = snap.span(id);
        if s.count > 0 {
            let _ = writeln!(
                out,
                "  span {:19} {} x, {:.3} ms total, mean {:.3} ms",
                id.name(),
                s.count,
                s.sum_ns as f64 / 1e6,
                s.mean_ns() as f64 / 1e6,
            );
        }
    }
    out
}

/// [`metrics_table`] to stdout (the human-report commands).
pub fn print_metrics(snap: &MetricsSnapshot) {
    out!("{}", metrics_table(snap));
}
