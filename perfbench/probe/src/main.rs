//! `perfbench-probe` — the in-process half of `perfbench/run.py`.
//!
//! ```text
//! perfbench-probe calibrate
//! perfbench-probe trace PLAN
//! ```
//!
//! `calibrate` times a CPU spin on one thread and on two threads at once
//! and prints the effective parallelism of the machine. `trace` reads a
//! pass plan (one command per line, `pass` between passes; see
//! [`parse_plan`]) and runs every pass three ways: through the library
//! entry points on one thread with telemetry off (the untraced base),
//! through the span-timed replay on one thread, and — first pass only —
//! on two threads with the worker closures timed. It prints one JSON
//! object with per-pass layer self times and counts.

mod replay;
mod spans;

use replay::{Answer, Cmd, Replay};
use repwf_core::model::CommModel;
use repwf_gen::{GenConfig, Range};
use spans::Layer;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("calibrate") => Ok(calibrate()),
        Some("trace") => match args.get(1) {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| parse_plan(&text))
                .and_then(|plan| trace(&plan)),
            None => Err("usage: perfbench-probe trace PLAN".to_string()),
        },
        _ => Err("usage: perfbench-probe calibrate | trace PLAN".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::from(2)
        }
    }
}

fn spin(rounds: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..rounds {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    x
}

/// Effective parallelism: the same spin on one thread, then on two
/// threads at once; 2 × t₁ / t₂ is 2.0 on two free cores.
fn calibrate() -> String {
    const ROUNDS: u64 = 40_000_000;
    spin(ROUNDS / 10);
    let t0 = Instant::now();
    black_box(spin(ROUNDS));
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| black_box(spin(ROUNDS)));
        let b = s.spawn(|| black_box(spin(ROUNDS)));
        a.join().expect("spin thread panicked");
        b.join().expect("spin thread panicked");
    });
    let two = t0.elapsed().as_secs_f64();
    format!(
        "{{\"spin_1_thread_s\": {one}, \"spin_2_threads_s\": {two}, \"parallelism\": {}}}",
        2.0 * one / two
    )
}

fn parse_range(raw: &str) -> Result<Range, String> {
    let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad range {raw:?}"));
    Ok(match raw.split_once("..") {
        Some((lo, hi)) => Range::new(num(lo)?, num(hi)?),
        None => Range::constant(num(raw)?),
    })
}

fn parse_model(raw: &str) -> Result<CommModel, String> {
    match raw {
        "strict" => Ok(CommModel::Strict),
        "overlap" => Ok(CommModel::Overlap),
        _ => Err(format!("bad model {raw:?}")),
    }
}

/// Parses a pass plan. Lines (fields separated by spaces):
///
/// ```text
/// pass
/// table2 SEED CAP
/// campaign STAGES PROCS COMP COMM COUNT SEED CAP
/// exact EXAMPLE MODEL CAP
/// heuristic EXAMPLE MODEL STEPS SEED
/// ```
///
/// `COMP`/`COMM` are CLI ranges (`lo..hi` or a constant).
fn parse_plan(text: &str) -> Result<Vec<Vec<Cmd>>, String> {
    let mut passes: Vec<Vec<Cmd>> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad plan line {line:?}"))
        };
        let example = |i: usize| -> Result<char, String> {
            match f.get(i) {
                Some(&"a") => Ok('a'),
                Some(&"b") => Ok('b'),
                _ => Err(format!("bad example in {line:?}")),
            }
        };
        let cmd = match f[0] {
            "pass" => {
                passes.push(Vec::new());
                continue;
            }
            "table2" => Cmd::Table2 {
                seed: num(1)?,
                cap: num(2)? as usize,
            },
            "campaign" => Cmd::Campaign {
                cfg: GenConfig {
                    stages: num(1)? as usize,
                    procs: num(2)? as usize,
                    comp: parse_range(f.get(3).ok_or("missing comp")?)?,
                    comm: parse_range(f.get(4).ok_or("missing comm")?)?,
                },
                count: num(5)? as usize,
                seed: num(6)?,
                cap: num(7)? as usize,
            },
            "exact" => Cmd::Exact {
                example: example(1)?,
                model: parse_model(f.get(2).ok_or("missing model")?)?,
                cap: num(3)? as usize,
            },
            "heuristic" => Cmd::Heuristic {
                example: example(1)?,
                model: parse_model(f.get(2).ok_or("missing model")?)?,
                steps: num(3)? as usize,
                seed: num(4)?,
            },
            other => return Err(format!("unknown plan command {other:?}")),
        };
        passes
            .last_mut()
            .ok_or("plan must start with `pass`")?
            .push(cmd);
    }
    if passes.is_empty() {
        return Err("empty plan".to_string());
    }
    Ok(passes)
}

/// Bitwise agreement of two answer lists (NaN `M_ct` of map commands
/// compares equal to NaN).
fn same_answers(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

fn json_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let items: Vec<String> = xs.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn trace(plan: &[Vec<Cmd>]) -> Result<String, String> {
    // Untraced base first: telemetry cannot be switched off once on.
    let mut untraced_s = Vec::new();
    let mut reference = Vec::new();
    for cmds in plan {
        let t0 = Instant::now();
        reference.push(replay::library_pass(cmds)?);
        untraced_s.push(t0.elapsed().as_secs_f64());
    }
    let (busy, capacity) = replay::busy_pass(&plan[0], 2)?;

    repwf_obs::enable();
    let mut out = String::from("{\"passes\": [");
    let mut experiment_ns = Vec::new();
    let mut mismatches = 0usize;
    for (i, cmds) in plan.iter().enumerate() {
        let pass = Replay::run(cmds)?;
        if !same_answers(&pass.answers, &reference[i]) {
            mismatches += 1;
        }
        experiment_ns.extend_from_slice(&pass.experiment_ns);
        let t = &pass.totals;
        let probe_ns = t.self_ns(Layer::Probe);
        let mut layers = String::new();
        for layer in Layer::ALL.iter().filter(|&&l| l != Layer::Probe) {
            let _ = write!(
                layers,
                "{}\"{}\": {{\"self_s\": {}, \"calls\": {}}}",
                if layers.is_empty() { "" } else { ", " },
                layer.name(),
                t.self_ns(*layer) as f64 * 1e-9,
                t.calls(*layer)
            );
        }
        let counts: Vec<String> = pass
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(
            out,
            "{}{{\"untraced_s\": {}, \"traced_s\": {}, \"probe_s\": {}, \
             \"unattributed_s\": {}, \"answers\": {}, \"layers\": {{{layers}}}, \
             \"counts\": {{{}}}}}",
            if i == 0 { "" } else { ", " },
            untraced_s[i],
            (pass.wall_ns - probe_ns) as f64 * 1e-9,
            probe_ns as f64 * 1e-9,
            (pass.wall_ns - t.root_ns) as f64 * 1e-9,
            pass.answers.len(),
            counts.join(", ")
        );
    }
    let _ = write!(
        out,
        "], \"busy_s\": {busy}, \"busy_capacity_s\": {capacity}, \
         \"replay_mismatched_passes\": {mismatches}, \"experiment_ns\": {}}}",
        json_list(&experiment_ns)
    );
    Ok(out)
}
