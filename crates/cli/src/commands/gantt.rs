//! `repwf gantt` — the paper's Gantt figures (Figs. 7 and 12).

use crate::opts::Opts;
use repwf_core::fixtures::{example_a, example_b};
use repwf_core::model::CommModel;
use repwf_core::period::{compute_period, Method};
use repwf_sim::gantt::build;
use repwf_sim::{simulate, SimOptions};

const HELP: &str = "\
repwf gantt — render a schedule Gantt chart (ASCII, optionally SVG)

USAGE: repwf gantt <a-strict|a-overlap|b-overlap> [OPTIONS]

  a-strict    Fig. 7: Example A, strict one-port (no critical resource)
  a-overlap   Example A, overlap one-port
  b-overlap   Fig. 12: Example B, overlap one-port

OPTIONS:
  --periods K   number of full TPN periods to draw (default: 3)
  --width N     ASCII chart width in columns (default: 110)
  --svg PATH    additionally write an SVG file
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["--periods", "--width", "--svg"], &["--help"])?;
    if opts.has("--help") {
        out!("{HELP}");
        return Ok(());
    }
    let which = opts.positional().first().map(String::as_str).unwrap_or("a-strict");
    let (inst, model, title) = match which {
        "a-strict" => (example_a(), CommModel::Strict, "Fig. 7: Example A, strict one-port"),
        "a-overlap" => (example_a(), CommModel::Overlap, "Example A, overlap one-port"),
        "b-overlap" => (example_b(), CommModel::Overlap, "Fig. 12: Example B, overlap one-port"),
        other => return Err(format!("unknown chart {other:?} (see repwf gantt --help)")),
    };
    let periods = opts.get_or("--periods", 3usize)?;
    let width = opts.get_or("--width", 110usize)?;

    let report = compute_period(&inst, model, Method::Auto).map_err(|e| e.to_string())?;
    let m = report.num_paths as u64;
    let data_sets = m * (periods as u64 + 4);
    let sim = simulate(&inst, model, &SimOptions { data_sets, record_ops: true });

    // The paper's figures show the FIRST periods: the unthrottled early
    // stages run ahead, so draw the window [0, periods · m·P̂).
    let p_big = report.period * m as f64;
    let (t0, t1) = (0.0, periods as f64 * p_big);
    let chart = build(&inst, model, &sim, t0, t1);

    outln!("{title}");
    outln!(
        "period = {:.4} per data set (M_ct = {:.4}, critical resource: {})\n",
        report.period,
        report.mct,
        if report.has_critical_resource(1e-9) { "yes" } else { "NO — every resource idles" }
    );
    out!("{}", chart.to_ascii(width));
    outln!("\nidle fractions over the window:");
    for &row in &chart.rows {
        outln!("  {:?}: {:.1}% idle", row, chart.idle_fraction(row, t0) * 100.0);
    }
    if let Some(path) = opts.get("--svg") {
        std::fs::write(path, chart.to_svg()).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("SVG written to {path}");
    }
    Ok(())
}
