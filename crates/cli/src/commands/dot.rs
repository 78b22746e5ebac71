//! `repwf dot` — the paper's TPN figures as Graphviz DOT, plus the
//! workflow precedence DAG itself.

use crate::opts::{load_instance, Opts};
use repwf_core::fixtures::{example_a, example_b};
use repwf_core::model::{CommModel, Instance};
use repwf_core::tpn_build::{build_tpn, comm_sub_tpn, BuildOptions};
use std::fmt::Write as _;
use tpn::dot::{to_dot, DotOptions};

const HELP: &str = "\
repwf dot — emit a timed-Petri-net figure as Graphviz DOT

USAGE: repwf dot <WHICH> [-o PATH]

  overlap           Fig. 4: Example A, overlap one-port TPN
  strict            Fig. 5b: Example A, strict one-port TPN
  overlap-critical  overlap net with the critical circuit highlighted
  strict-critical   Fig. 8: strict net with the critical circuit highlighted
  subtpn-a-f1       Fig. 9: sub-TPN of the F1 transfers of Example A
  subtpn-b-f0       Fig. 10: sub-TPN of the F0 transfers of Example B
  workflow          the instance's precedence DAG: stages (with replica
                    counts and processors) and file edges — takes
                    --example a|b|c, --file PATH or --workflow PATH

OPTIONS:
  -o PATH            write to a file instead of stdout
  --example a|b|c    instance for `workflow` (default: a)
  --file PATH        instance in the repwf text format (for `workflow`)
  --workflow PATH    series-parallel workflow JSON (for `workflow`)
";

/// Renders the workflow precedence DAG: one box per stage annotated with
/// its work, replica count and processors; one edge per file annotated
/// with its size.
fn workflow_dag_dot(inst: &Instance) -> String {
    let wf = &inst.pipeline;
    let mut s = String::from("digraph workflow {\n  rankdir=LR;\n  node [shape=box];\n");
    for i in 0..wf.num_stages() {
        let procs = inst.mapping.procs(i);
        let plist: Vec<String> = procs.iter().map(|u| format!("P{u}")).collect();
        let _ = writeln!(
            s,
            "  S{i} [label=\"S{i}\\nw={}\\n×{} on {}\"];",
            wf.work(i),
            procs.len(),
            plist.join(",")
        );
    }
    for e in 0..wf.num_edges() {
        let (src, dst) = wf.edge(e);
        let _ = writeln!(s, "  S{src} -> S{dst} [label=\"F{e} δ={}\"];", wf.file(e));
    }
    s.push_str("}\n");
    s
}

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["-o", "--example", "--file", "--workflow"], &["--help"])?;
    if opts.has("--help") {
        out!("{HELP}");
        return Ok(());
    }
    let which = opts.positional().first().map(String::as_str).unwrap_or("overlap");
    let build_opts = BuildOptions::default();

    if which == "workflow" {
        let inst = load_instance(&opts)?;
        let dot = workflow_dag_dot(&inst);
        match opts.get("-o") {
            Some(path) => {
                std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            None => out!("{dot}"),
        }
        return Ok(());
    }

    let (net, highlight, title) = match which {
        "overlap" => {
            let built = build_tpn(&example_a(), CommModel::Overlap, &build_opts)
                .map_err(|e| e.to_string())?;
            (built.net, Vec::new(), "Fig. 4: Example A, overlap one-port TPN".to_string())
        }
        "strict" => {
            let built = build_tpn(&example_a(), CommModel::Strict, &build_opts)
                .map_err(|e| e.to_string())?;
            (built.net, Vec::new(), "Fig. 5b: Example A, strict one-port TPN".to_string())
        }
        "overlap-critical" | "strict-critical" => {
            let model = if which.starts_with("overlap") {
                CommModel::Overlap
            } else {
                CommModel::Strict
            };
            let built =
                build_tpn(&example_a(), model, &build_opts).map_err(|e| e.to_string())?;
            let sol = tpn::analysis::period(&built.net)
                .map_err(|e| e.to_string())?
                .ok_or("net has no circuit")?;
            eprintln!(
                "critical circuit: {} transitions, {} tokens, period {:.4} ({:.4} per data set)",
                sol.critical.len(),
                sol.tokens,
                sol.period,
                sol.period / built.rows as f64
            );
            (built.net, sol.critical, format!("Example A critical circuit ({which})"))
        }
        "subtpn-a-f1" => {
            let sub =
                comm_sub_tpn(&example_a(), 1, &build_opts).map_err(|e| e.to_string())?;
            (sub.net, Vec::new(), "Fig. 9: sub-TPN of F1 (Example A)".to_string())
        }
        "subtpn-b-f0" => {
            let sub =
                comm_sub_tpn(&example_b(), 0, &build_opts).map_err(|e| e.to_string())?;
            (sub.net, Vec::new(), "Fig. 10: sub-TPN of F0 (Example B)".to_string())
        }
        other => return Err(format!("unknown figure {other:?} (see repwf dot --help)")),
    };

    let dot = to_dot(&net, &DotOptions { highlight, title, left_to_right: true });
    match opts.get("-o") {
        Some(path) => {
            std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => out!("{dot}"),
    }
    Ok(())
}
