//! `repwf simulate` — discrete-event estimate of the period.

use crate::json::Json;
use crate::opts::{load_instance, model_name, parse_model, Opts};
use repwf_sim::{simulate, SimOptions};

const HELP: &str = "\
repwf simulate — estimate the period with the discrete-event simulator

OPTIONS:
  --example a|b|c    paper fixture (default: a)
  --file PATH        instance in the repwf text format
  --workflow PATH    series-parallel workflow instance in JSON
  --model M          overlap | strict (default: overlap)
  --data-sets N      data sets to push through (default: 20000)
  --json             structured output
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["--example", "--file", "--workflow", "--model", "--data-sets"],
        &["--json", "--help"],
    )?;
    if opts.has("--help") {
        out!("{HELP}");
        return Ok(());
    }
    let inst = load_instance(&opts)?;
    let model = parse_model(&opts)?;
    let data_sets = opts.get_or("--data-sets", 20_000u64)?;
    if data_sets == 0 {
        return Err("--data-sets must be at least 1".to_string());
    }
    let result = simulate(&inst, model, &SimOptions { data_sets, record_ops: false });
    let exact = result.exact_period(1e-9);
    let estimate = exact.unwrap_or_else(|| result.period_estimate());
    let (mct, _) = repwf_core::cycle_time::max_cycle_time(&inst, model);

    if opts.has("--json") {
        let doc = Json::Obj(vec![
            ("model", Json::str(model_name(model))),
            ("data_sets", Json::UInt(u128::from(data_sets))),
            ("period", Json::Num(estimate)),
            ("exact_period", exact.map_or(Json::Null, Json::Num)),
            ("mct", Json::Num(mct)),
            ("exact", Json::Bool(exact.is_some())),
        ]);
        out!("{}", doc.to_string_pretty());
    } else {
        outln!("model           : {}", model_name(model));
        outln!("data sets       : {data_sets}");
        outln!(
            "period estimate : {:.6}{}",
            estimate,
            if exact.is_some() { "  (asymptotically exact)" } else { "" }
        );
        outln!("M_ct            : {mct:.6}");
    }
    Ok(())
}
