//! The workloads' commands re-run in process: once through the library
//! entry points the CLI calls (untraced, for the overhead base and the
//! reference outcomes), once replayed call by call through the layers'
//! public functions with a span around every call (traced), and once on
//! two threads with the closure handed to `repwf_par` timed (busy share).
//!
//! The replay mirrors the library's own loops: `PeriodEngine`'s per-instance
//! path (table2), the batched campaign runner's static routing and
//! `ShapeBatchSolver` chunks (campaigns), and the CLI's `map` flows. Every
//! replayed outcome is compared bit for bit with the library's.

use crate::spans::{Layer, Totals, Tracer};
use maxplus::batch::{BatchScratch, CostPlanes};
use maxplus::{RatioGraph, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::batch::ShapeBatchSolver;
use repwf_core::cycle_time::max_cycle_time_view;
use repwf_core::fixtures::{example_a, example_b};
use repwf_core::model::{CommModel, Instance, InstanceView};
use repwf_core::overlap_poly::overlap_period_view;
use repwf_core::paths::{mapping_num_paths, num_paths};
use repwf_core::tpn_build::{
    build_tpn_view_into, retime_tpn_into, transition_times_into, BuildError, BuildOptions,
};
use repwf_gen::campaign::{
    engine_for_cap, run_campaign_batched_with, run_campaign_with, run_one_with, ExperimentOutcome,
    Resolution,
};
use repwf_gen::sampler::{sample_replica_counts, sample_workflow_parts};
use repwf_gen::{table2_rows, GenConfig, Topology};
use repwf_map::annealing::{anneal, AnnealOptions};
use repwf_map::exact::{solve, ExactOptions};
use repwf_map::{optimize, SearchOptions};
use repwf_obs::{CounterId, MetricsSnapshot, SpanId};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tpn::analysis::{ratio_graph_into, PAR_SOLVE_MIN_VERTICES};
use tpn::net::{TimedEventGraph, TransitionId};

/// One command of a workload pass, as the CLI runs it.
#[derive(Clone, Debug)]
pub enum Cmd {
    /// `repwf table2 --full --seed S --cap C`.
    Table2 { seed: u64, cap: usize },
    /// `repwf campaign --model strict --stages --procs --comp --comm --count --seed --cap`.
    Campaign {
        cfg: GenConfig,
        count: usize,
        seed: u64,
        cap: usize,
    },
    /// `repwf map --exact --example E --model M --cap C`.
    Exact {
        example: char,
        model: CommModel,
        cap: usize,
    },
    /// `repwf map --example E --model M --steps N --seed S`.
    Heuristic {
        example: char,
        model: CommModel,
        steps: usize,
        seed: u64,
    },
}

/// One answer a command produced: `(M_ct, P̂)` of an experiment, or
/// `(NaN, period)` of a mapping search.
pub type Answer = (f64, f64);

/// Named per-pass counts (summed over the pass's commands).
pub type Counts = BTreeMap<&'static str, f64>;

fn bump(c: &mut Counts, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

fn instance(example: char) -> Instance {
    match example {
        'a' => example_a(),
        _ => example_b(),
    }
}

/// The (stages, procs, model, count, seed) campaigns `repwf table2 --full`
/// runs, in its order (`crates/cli/src/commands/table2.rs`).
fn table2_campaigns(seed: u64) -> Vec<(GenConfig, CommModel, usize, u64)> {
    let mut out = Vec::new();
    for (i, row) in table2_rows().iter().enumerate() {
        let per_size = ((row.paper_count as f64 / row.sizes.len() as f64).round() as usize).max(1);
        for (k, &(stages, procs)) in row.sizes.iter().enumerate() {
            let cfg = GenConfig {
                stages,
                procs,
                comp: row.comp,
                comm: row.comm,
            };
            let base = seed + 10_000_000 * i as u64 + 1_000_000 * k as u64;
            out.push((cfg, row.model, per_size, base));
        }
    }
    out
}

fn answers(outcomes: &[ExperimentOutcome]) -> Vec<Answer> {
    outcomes.iter().map(|o| (o.mct, o.period)).collect()
}

fn heuristic(inst: &Instance, model: CommModel, steps: usize, seed: u64) -> (f64, usize) {
    let search = SearchOptions {
        model,
        seed,
        ..SearchOptions::default()
    };
    let base = optimize(&inst.pipeline, &inst.platform, &search);
    let ann = AnnealOptions {
        model,
        steps,
        seed,
        ..AnnealOptions::default()
    };
    let refined = anneal(&inst.pipeline, &inst.platform, base.mapping.clone(), &ann);
    (
        refined.period.min(base.period),
        base.evaluations + refined.evaluations,
    )
}

fn exact_options(model: CommModel, threads: usize, cap: usize) -> ExactOptions {
    ExactOptions {
        model,
        threads,
        initial_bound: None,
        max_transitions: cap,
    }
}

/// Runs `cmds` through the library entry points the CLI calls, on one
/// thread, with telemetry off. Returns every answer in command order.
pub fn library_pass(cmds: &[Cmd]) -> Result<Vec<Answer>, String> {
    let mut out = Vec::new();
    for cmd in cmds {
        match cmd {
            Cmd::Table2 { seed, cap } => {
                for (cfg, model, count, base) in table2_campaigns(*seed) {
                    let res = run_campaign_with(&cfg, model, count, base, 1, *cap, None);
                    out.extend(answers(&res.outcomes));
                }
            }
            Cmd::Campaign {
                cfg,
                count,
                seed,
                cap,
            } => {
                let res =
                    run_campaign_batched_with(cfg, CommModel::Strict, *count, *seed, 1, *cap, None);
                out.extend(answers(&res.outcomes));
            }
            Cmd::Exact {
                example,
                model,
                cap,
            } => {
                let inst = instance(*example);
                let res = solve(
                    &inst.pipeline,
                    &inst.platform,
                    &exact_options(*model, 1, *cap),
                )
                .map_err(|e| format!("exact search failed: {e}"))?;
                let (_, period) = res.best.ok_or("exact search found no feasible mapping")?;
                out.push((f64::NAN, period));
            }
            Cmd::Heuristic {
                example,
                model,
                steps,
                seed,
            } => {
                let (period, _) = heuristic(&instance(*example), *model, *steps, *seed);
                out.push((f64::NAN, period));
            }
        }
    }
    Ok(out)
}

/// Current `/proc/self/stat` user + system CPU time in seconds.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall (12th and 13th after the name).
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // Linux reports these in USER_HZ, which is 100 on every supported ABI.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Runs `cmds` on `threads` workers, timing the closure each worker runs
/// for every task (campaigns, table2) or, for the exact search whose
/// closure is internal to `repwf_map`, the process CPU time. Returns
/// `(busy seconds, threads × wall seconds)`; heuristic commands are
/// single-threaded and skipped.
pub fn busy_pass(cmds: &[Cmd], threads: usize) -> Result<(f64, f64), String> {
    let busy_ns = AtomicU64::new(0);
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    let mut cpu_busy = 0.0;
    let mut capacity = 0.0;
    for cmd in cmds {
        let t0 = Instant::now();
        match cmd {
            Cmd::Table2 { seed, cap } => {
                for (cfg, model, count, base) in table2_campaigns(*seed) {
                    repwf_par::par_map_init(
                        threads,
                        count,
                        || engine_for_cap(*cap),
                        |engine, k| {
                            timed(&mut || {
                                black_box(run_one_with(&cfg, model, base + k as u64, engine));
                            })
                        },
                    );
                }
            }
            Cmd::Campaign {
                cfg,
                count,
                seed,
                cap,
            } => {
                let tasks = route(cfg, *count, *seed, *cap).tasks;
                repwf_par::par_map_init(
                    threads,
                    tasks.len(),
                    || (engine_for_cap(*cap), ShapeBatchSolver::new(*cap)),
                    |(engine, solver), t| {
                        timed(&mut || match &tasks[t] {
                            Task::Solo(k) => {
                                black_box(run_one_with(
                                    cfg,
                                    CommModel::Strict,
                                    seed + u64::from(*k),
                                    engine,
                                ));
                            }
                            Task::Batch(ks) => {
                                for (q, &k) in ks.iter().enumerate() {
                                    let mut rng = StdRng::seed_from_u64(seed + u64::from(k));
                                    let (pl, pf, mp) = sample_workflow_parts(
                                        cfg,
                                        &Topology::chain(cfg.stages),
                                        &mut rng,
                                    );
                                    let view = InstanceView::new(&pl, &pf, &mp)
                                        .expect("generator produces valid instances");
                                    if q == 0 {
                                        solver
                                            .begin(view, CommModel::Strict, ks.len())
                                            .expect("routed shapes fit the size cap");
                                    }
                                    black_box(max_cycle_time_view(view, CommModel::Strict));
                                    solver.stage(q, view);
                                }
                                black_box(solver.solve());
                            }
                        })
                    },
                );
            }
            Cmd::Exact {
                example,
                model,
                cap,
            } => {
                let inst = instance(*example);
                let cpu0 = process_cpu_s()?;
                solve(
                    &inst.pipeline,
                    &inst.platform,
                    &exact_options(*model, threads, *cap),
                )
                .map_err(|e| format!("exact search failed: {e}"))?;
                cpu_busy += process_cpu_s()? - cpu0;
            }
            Cmd::Heuristic { .. } => continue,
        }
        capacity += threads as f64 * t0.elapsed().as_secs_f64();
    }
    Ok((
        busy_ns.load(Ordering::Relaxed) as f64 * 1e-9 + cpu_busy,
        capacity,
    ))
}

/// A unit of batched-campaign work, as the library's runner routes it.
enum Task {
    Solo(u32),
    Batch(Vec<u32>),
}

struct Routed {
    tasks: Vec<Task>,
    shape_groups: usize,
}

/// Same-shape chunking limits of `run_campaign_workflow_batched_with`.
const BATCH_TRANSITION_BUDGET: u128 = 1_000_000;
const MAX_BATCH: u128 = 16;

/// The batched runner's static shape routing: replay each seed's
/// replica-count prefix, group in-cap seeds by shape (first-occurrence
/// order) and cut groups into chunks; over-cap seeds run solo.
fn route(cfg: &GenConfig, count: usize, seed: u64, cap: usize) -> Routed {
    let cols = (2 * cfg.stages - 1) as u128;
    let mut tasks = Vec::new();
    let mut group_of: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut groups: Vec<(u128, Vec<u32>)> = Vec::new();
    for k in 0..count {
        let mut rng = StdRng::seed_from_u64(seed + k as u64);
        let replicas = sample_replica_counts(cfg, &mut rng);
        match num_paths(&replicas).and_then(|m| m.checked_mul(cols)) {
            Some(t) if t <= cap as u128 => {
                let g = *group_of.entry(replicas).or_insert_with(|| {
                    groups.push((t, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(k as u32);
            }
            _ => tasks.push(Task::Solo(k as u32)),
        }
    }
    let shape_groups = groups.len();
    for (transitions, members) in groups {
        let chunk = (BATCH_TRANSITION_BUDGET / transitions.max(1)).clamp(1, MAX_BATCH) as usize;
        tasks.extend(members.chunks(chunk).map(|c| Task::Batch(c.to_vec())));
    }
    Routed {
        tasks,
        shape_groups,
    }
}

/// What one traced pass measured.
pub struct TracedPass {
    pub answers: Vec<Answer>,
    pub totals: Totals,
    pub counts: Counts,
    /// Per-experiment latency samples in nanoseconds.
    pub experiment_ns: Vec<u64>,
    pub wall_ns: u64,
}

fn howard_iters(s: &MetricsSnapshot) -> u64 {
    s.counter(CounterId::HowardItersCold)
        + s.counter(CounterId::HowardItersWarm)
        + s.counter(CounterId::HowardItersBatched)
}

/// The per-instance solver state of one `PeriodEngine` (strict model,
/// full TPN, cold starts), rebuilt from the layers' public functions.
struct SoloState {
    opts: BuildOptions,
    net: TimedEventGraph,
    graph: RatioGraph,
    ws: Workspace,
    structure_gen: u64,
    /// Replica counts of the net the arena holds, when it may be patched.
    shape: Option<Vec<usize>>,
    counts: Vec<usize>,
    changed: Vec<TransitionId>,
    pre_offsets: Vec<u32>,
    pre_places: Vec<u32>,
    pre_valid: bool,
}

impl SoloState {
    fn new(cap: usize) -> SoloState {
        SoloState {
            opts: BuildOptions {
                labels: false,
                max_transitions: cap,
            },
            net: TimedEventGraph::new(),
            graph: RatioGraph::new(0),
            ws: Workspace::new(),
            structure_gen: 0,
            shape: None,
            counts: Vec::new(),
            changed: Vec::new(),
            pre_offsets: Vec::new(),
            pre_places: Vec::new(),
            pre_valid: false,
        }
    }

    /// Re-weights the ratio-graph edges fed by the re-timed transitions
    /// (the patch half of `tpn::analysis::period_patched_with`).
    fn reweight(&mut self) {
        if !self.pre_valid {
            let n = self.net.num_transitions();
            self.pre_offsets.clear();
            self.pre_offsets.resize(n + 1, 0);
            for p in self.net.places() {
                self.pre_offsets[p.pre.0 as usize + 1] += 1;
            }
            for i in 0..n {
                self.pre_offsets[i + 1] += self.pre_offsets[i];
            }
            let mut cursor: Vec<u32> = self.pre_offsets[..n].to_vec();
            self.pre_places.clear();
            self.pre_places.resize(self.net.num_places(), 0);
            for (i, p) in self.net.places().iter().enumerate() {
                let c = &mut cursor[p.pre.0 as usize];
                self.pre_places[*c as usize] = i as u32;
                *c += 1;
            }
            self.pre_valid = true;
        }
        for &t in &self.changed {
            let time = self.net.transition(t).firing_time;
            let (a, b) = (
                self.pre_offsets[t.0 as usize] as usize,
                self.pre_offsets[t.0 as usize + 1] as usize,
            );
            for &place in &self.pre_places[a..b] {
                self.graph.set_edge_cost(place as usize, time);
            }
        }
    }
}

/// Shared structure of one `ShapeBatchSolver` + `PeriodBatch`, rebuilt
/// from the layers' public functions.
struct BatchState {
    opts: BuildOptions,
    net: TimedEventGraph,
    keys: HashMap<Vec<usize>, u64>,
    built: Option<u64>,
    rows: usize,
    graph: RatioGraph,
    pre: Vec<u32>,
    have: Option<(u64, usize, usize)>,
    key: u64,
    ws: Workspace,
    /// Mirror of the workspace's structure cache: `(key, n, ne)` of the
    /// last fully successful batched solve.
    armed: Option<(u64, usize, usize)>,
    planes: CostPlanes,
    scratch: BatchScratch,
    times: Vec<f64>,
}

impl BatchState {
    fn new(cap: usize) -> BatchState {
        BatchState {
            opts: BuildOptions {
                labels: false,
                max_transitions: cap,
            },
            net: TimedEventGraph::new(),
            keys: HashMap::new(),
            built: None,
            rows: 0,
            graph: RatioGraph::new(0),
            pre: Vec::new(),
            have: None,
            key: 0,
            ws: Workspace::new(),
            armed: None,
            planes: CostPlanes::new(),
            scratch: BatchScratch::new(),
            times: Vec::new(),
        }
    }
}

/// The traced replay of one pass.
pub struct Replay {
    tr: Tracer,
    counts: Counts,
    experiment_ns: Vec<u64>,
}

impl Replay {
    pub fn run(cmds: &[Cmd]) -> Result<TracedPass, String> {
        let mut r = Replay {
            tr: Tracer::new(),
            counts: Counts::new(),
            experiment_ns: Vec::new(),
        };
        let mut answers = Vec::new();
        let mut totals = Totals::default();
        let iters0 = howard_iters(&repwf_obs::snapshot());
        let t0 = r.tr.now();
        for cmd in cmds {
            match cmd {
                Cmd::Table2 { seed, cap } => {
                    for (cfg, model, count, base) in table2_campaigns(*seed) {
                        let mut st = SoloState::new(*cap);
                        for k in 0..count {
                            answers.push(r.solo(&mut st, &cfg, model, base + k as u64)?);
                        }
                        r.tr.drain_into(&mut totals);
                    }
                }
                Cmd::Campaign {
                    cfg,
                    count,
                    seed,
                    cap,
                } => {
                    answers.extend(r.campaign(cfg, *count, *seed, *cap)?);
                    r.tr.drain_into(&mut totals);
                }
                Cmd::Exact {
                    example,
                    model,
                    cap,
                } => {
                    let inst = instance(*example);
                    let opts = exact_options(*model, 1, *cap);
                    let res = r.mapping_call(Layer::MapExact, || {
                        solve(&inst.pipeline, &inst.platform, &opts)
                    });
                    let res = res.map_err(|e| format!("exact search failed: {e}"))?;
                    bump(&mut r.counts, "map.exact.nodes", res.stats.nodes as f64);
                    bump(
                        &mut r.counts,
                        "map.exact.evaluated",
                        res.stats.evaluated as f64,
                    );
                    bump(
                        &mut r.counts,
                        "map.exact.space",
                        res.space.unwrap_or(0) as f64,
                    );
                    let (_, period) = res.best.ok_or("exact search found no feasible mapping")?;
                    answers.push((f64::NAN, period));
                    r.tr.drain_into(&mut totals);
                }
                Cmd::Heuristic {
                    example,
                    model,
                    steps,
                    seed,
                } => {
                    let inst = instance(*example);
                    let (period, evals) = r
                        .mapping_call(Layer::MapAnneal, || heuristic(&inst, *model, *steps, *seed));
                    bump(&mut r.counts, "map.anneal.evals", evals as f64);
                    answers.push((f64::NAN, period));
                    r.tr.drain_into(&mut totals);
                }
            }
        }
        let wall_ns = r.tr.now() - t0;
        // Howard iterations of the timed solves: the probe re-solves
        // repeat their miss solve's iterations and are taken out.
        let iters = howard_iters(&repwf_obs::snapshot()) - iters0;
        let probe = r.counts.remove("probe.howard_iters").unwrap_or(0.0);
        bump(&mut r.counts, "maxplus.howard.iters", iters as f64 - probe);
        Ok(TracedPass {
            answers,
            totals,
            counts: r.counts,
            experiment_ns: r.experiment_ns,
            wall_ns,
        })
    }

    /// Times a mapping-search call as one root span. The search loop calls
    /// the layers itself, so their shares come from the repwf-obs span
    /// totals of the call, laid end to end inside the root span.
    fn mapping_call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let before = repwf_obs::snapshot();
        let root = self.tr.open(layer);
        let out = f();
        self.tr.close(root);
        let after = repwf_obs::snapshot();
        let wall = if layer == Layer::MapExact {
            "map.exact.wall_s"
        } else {
            "map.anneal.wall_s"
        };
        bump(&mut self.counts, wall, self.tr.duration(root) as f64 * 1e-9);
        let span = |id: SpanId| after.span(id).sum_ns - before.span(id).sum_ns;
        let counter = |id: CounterId| (after.counter(id) - before.counter(id)) as f64;
        let structure = span(SpanId::CsrBuild) + span(SpanId::Tarjan);
        self.tr.children_from_start(
            root,
            &[
                (Layer::Mct, span(SpanId::Mct)),
                (
                    Layer::TpnBuild,
                    span(SpanId::TpnBuild) + span(SpanId::Retime),
                ),
                (Layer::CsrTarjan, structure),
                (Layer::Howard, span(SpanId::Solve).saturating_sub(structure)),
            ],
        );
        let c = &mut self.counts;
        bump(c, "obs.mct_evals", counter(CounterId::MctEvals));
        bump(
            c,
            "obs.mct_stage_recomputes",
            counter(CounterId::MctStageRecomputes),
        );
        bump(c, "obs.tpn_builds", counter(CounterId::TpnBuilds));
        bump(c, "obs.patched_solves", counter(CounterId::PatchedSolves));
        bump(c, "obs.csr_builds", counter(CounterId::CsrBuilds));
        bump(
            c,
            "obs.howard_solves",
            counter(CounterId::HowardSolvesCold) + counter(CounterId::HowardSolvesWarm),
        );
        out
    }

    /// One experiment through the per-instance engine path
    /// (`run_one_workflow_with` → `PeriodEngine::compute_mapping`).
    fn solo(
        &mut self,
        st: &mut SoloState,
        cfg: &GenConfig,
        model: CommModel,
        seed: u64,
    ) -> Result<Answer, String> {
        let root = self.tr.open(Layer::Experiment);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::chain(cfg.stages);
        let (pipeline, platform, mapping) = self.tr.time(Layer::Sampler, || {
            sample_workflow_parts(cfg, &topo, &mut rng)
        });
        let engine = self.tr.open(Layer::Engine);
        let view = InstanceView::new(&pipeline, &platform, &mapping)
            .expect("generator produces valid instances");
        let (mct, _) = self
            .tr
            .time(Layer::Mct, || max_cycle_time_view(view, model));
        let m = mapping_num_paths(&mapping).ok_or("path count overflow")?;
        let period = match model {
            CommModel::Overlap => {
                self.tr
                    .time(Layer::OverlapPoly, || overlap_period_view(view))
                    .period
            }
            CommModel::Strict => match self.strict(st, view)? {
                Some(ratio) => ratio / m as f64,
                None => {
                    // Over the size cap: the library falls back to the
                    // simulator; run that experiment through it unsplit.
                    bump(&mut self.counts, "sim.fallbacks", 1.0);
                    let outcome = run_one_with(
                        cfg,
                        model,
                        seed,
                        &mut engine_for_cap(st.opts.max_transitions),
                    );
                    if outcome.resolution != Resolution::Simulated {
                        return Err(format!("experiment {seed}: expected a simulator fallback"));
                    }
                    outcome.period
                }
            },
        };
        self.tr.close(engine);
        self.tr.close(root);
        self.experiment_ns.push(self.tr.duration(root));
        Ok((mct, period))
    }

    /// The engine's strict full-TPN solve: patch when the replica counts
    /// match the arena's net, rebuild otherwise. `None` when the TPN is
    /// over the size cap.
    fn strict(
        &mut self,
        st: &mut SoloState,
        view: InstanceView<'_>,
    ) -> Result<Option<f64>, String> {
        let mut counts = std::mem::take(&mut st.counts);
        view.mapping.replica_counts_into(&mut counts);
        let patchable = st.shape.as_deref() == Some(&counts[..]);
        let tr = &mut self.tr;
        let res = if patchable {
            bump(&mut self.counts, "core.engine.patched", 1.0);
            tr.time(Layer::TpnBuild, || {
                retime_tpn_into(view, &mut st.net, &mut st.changed)
            });
            tr.time(Layer::RatioGraph, || st.reweight());
            self.solve_solo(st)
        } else {
            st.shape = None;
            bump(&mut self.counts, "core.engine.rebuilt", 1.0);
            let opts = st.opts.clone();
            match tr.time(Layer::TpnBuild, || {
                build_tpn_view_into(view, CommModel::Strict, &opts, &mut st.net)
            }) {
                Ok(_) => {}
                Err(BuildError::TooLarge { .. }) => {
                    st.counts = counts;
                    return Ok(None);
                }
                Err(e) => return Err(e.to_string()),
            }
            bump(
                &mut self.counts,
                "core.tpn_build.transitions",
                st.net.num_transitions() as f64,
            );
            tr.time(Layer::RatioGraph, || {
                ratio_graph_into(&st.net, &mut st.graph)
            });
            st.pre_valid = false;
            st.structure_gen = st.structure_gen.wrapping_add(1);
            bump(
                &mut self.counts,
                "tpn.ratio_graph.edges",
                st.graph.num_edges() as f64,
            );
            let res = self.solve_solo(st);
            if res.is_ok() {
                st.shape = Some(counts.clone());
            }
            res
        };
        st.counts = counts;
        res.map(Some)
    }

    /// `tpn::analysis`'s solve step on the per-instance workspace. A
    /// structure miss is split by re-solving the same graph as a structure
    /// hit: the hit's time is Howard's, the rest is CSR + Tarjan.
    fn solve_solo(&mut self, st: &mut SoloState) -> Result<f64, String> {
        let tr = &mut self.tr;
        if st.graph.num_vertices() >= PAR_SOLVE_MIN_VERTICES {
            let sol = tr.time(Layer::Howard, || {
                st.ws
                    .max_cycle_ratio_par(&st.graph, repwf_par::max_threads())
            });
            bump(&mut self.counts, "maxplus.howard.calls", 1.0);
            bump(&mut self.counts, "maxplus.csr_tarjan.calls", 1.0);
            return ratio_of(sol);
        }
        let csr_before = st.ws.csr_builds();
        let id = tr.open(Layer::CsrTarjan);
        let sol = st
            .ws
            .max_cycle_ratio_cached(&st.graph, st.structure_gen, false);
        tr.close(id);
        bump(&mut self.counts, "maxplus.howard.calls", 1.0);
        let miss = st.ws.csr_builds() > csr_before;
        if !miss {
            tr.relabel(id, Layer::Howard);
            return ratio_of(sol);
        }
        bump(&mut self.counts, "maxplus.csr_tarjan.calls", 1.0);
        let ratio = ratio_of(sol)?;
        let probe = tr.open(Layer::Probe);
        let iters0 = howard_iters(&repwf_obs::snapshot());
        let t0 = tr.now();
        let again = st
            .ws
            .max_cycle_ratio_cached(&st.graph, st.structure_gen, false);
        let hit_ns = tr.now() - t0;
        let probe_iters = howard_iters(&repwf_obs::snapshot()) - iters0;
        tr.close(probe);
        tr.child_at_end(id, Layer::Howard, hit_ns);
        bump(&mut self.counts, "probe.howard_iters", probe_iters as f64);
        if ratio_of(again)?.to_bits() != ratio.to_bits() {
            return Err("structure-hit re-solve disagrees with the miss solve".to_string());
        }
        Ok(ratio)
    }

    /// One strict campaign through the batched runner's schedule.
    fn campaign(
        &mut self,
        cfg: &GenConfig,
        count: usize,
        seed: u64,
        cap: usize,
    ) -> Result<Vec<Answer>, String> {
        let routing = self.tr.open(Layer::Routing);
        let routed = route(cfg, count, seed, cap);
        self.tr.close(routing);
        bump(
            &mut self.counts,
            "gen.routing.shape_groups",
            routed.shape_groups as f64,
        );
        bump(&mut self.counts, "gen.routing.experiments", count as f64);
        let mut out = vec![(f64::NAN, f64::NAN); count];
        let mut solo = SoloState::new(cap);
        let mut batch = BatchState::new(cap);
        for task in &routed.tasks {
            match task {
                Task::Solo(k) => {
                    out[*k as usize] =
                        self.solo(&mut solo, cfg, CommModel::Strict, seed + u64::from(*k))?;
                }
                Task::Batch(ks) => {
                    for (k, answer) in self.chunk(&mut batch, cfg, ks, seed)? {
                        out[k as usize] = answer;
                    }
                }
            }
        }
        Ok(out)
    }

    /// One `ShapeBatchSolver` chunk: begin, stage every member, one
    /// batched Howard pass.
    fn chunk(
        &mut self,
        bs: &mut BatchState,
        cfg: &GenConfig,
        ks: &[u32],
        seed: u64,
    ) -> Result<Vec<(u32, Answer)>, String> {
        let model = CommModel::Strict;
        let topo = Topology::chain(cfg.stages);
        let root = self.tr.open(Layer::Batch);
        let mut metas = Vec::with_capacity(ks.len());
        for (q, &k) in ks.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed + u64::from(k));
            let (pipeline, platform, mapping) = self.tr.time(Layer::Sampler, || {
                sample_workflow_parts(cfg, &topo, &mut rng)
            });
            let view = InstanceView::new(&pipeline, &platform, &mapping)
                .expect("generator produces valid instances");
            if q == 0 {
                self.begin(bs, view, ks.len())?;
            }
            let (mct, _) = self
                .tr
                .time(Layer::Mct, || max_cycle_time_view(view, model));
            let m = mapping_num_paths(&mapping).ok_or("path count overflow")?;
            self.tr.time(Layer::Stage, || {
                transition_times_into(view, bs.rows, &mut bs.times);
                let plane = bs.planes.plane_mut(q);
                for (c, &t) in plane.iter_mut().zip(&bs.pre) {
                    *c = bs.times[t as usize];
                }
            });
            metas.push((k, mct, m));
        }
        let dims = (bs.key, bs.graph.num_vertices(), bs.graph.num_edges());
        let miss = bs.armed != Some(dims);
        let id = self.tr.open(if miss {
            Layer::CsrTarjan
        } else {
            Layer::Howard
        });
        let solved = bs
            .ws
            .max_cycle_ratio_batch(&bs.graph, bs.key, &bs.planes, &mut bs.scratch);
        self.tr.close(id);
        bump(&mut self.counts, "maxplus.howard.calls", 1.0);
        bump(&mut self.counts, "core.batch.lanes", ks.len() as f64);
        let all_ok = solved.iter().all(Result::is_ok);
        bs.armed = if all_ok { Some(dims) } else { None };
        if miss {
            bump(&mut self.counts, "maxplus.csr_tarjan.calls", 1.0);
        }
        if miss && all_ok {
            let probe = self.tr.open(Layer::Probe);
            let iters0 = howard_iters(&repwf_obs::snapshot());
            let t0 = self.tr.now();
            let again = bs
                .ws
                .max_cycle_ratio_batch(&bs.graph, bs.key, &bs.planes, &mut bs.scratch);
            let hit_ns = self.tr.now() - t0;
            let probe_iters = howard_iters(&repwf_obs::snapshot()) - iters0;
            self.tr.close(probe);
            self.tr.child_at_end(id, Layer::Howard, hit_ns);
            bump(&mut self.counts, "probe.howard_iters", probe_iters as f64);
            let same = again.iter().zip(&solved).all(|(a, b)| match (a, b) {
                (Ok(Some(a)), Ok(Some(b))) => a.ratio.to_bits() == b.ratio.to_bits(),
                _ => false,
            });
            if !same {
                return Err(
                    "structure-hit batched re-solve disagrees with the miss solve".to_string(),
                );
            }
        }
        self.tr.close(root);
        let per_member = self.tr.duration(root) / ks.len() as u64;
        self.experiment_ns
            .extend(std::iter::repeat_n(per_member, ks.len()));
        let mut out = Vec::with_capacity(ks.len());
        for ((k, mct, m), res) in metas.into_iter().zip(solved) {
            let ratio = ratio_of(res)?;
            out.push((k, (mct, ratio / m as f64)));
        }
        Ok(out)
    }

    /// `ShapeBatchSolver::begin` + `PeriodBatch::set_structure`: resolve
    /// the shape key, build the TPN unless the arena holds this shape,
    /// rebuild the ratio graph when the structure changed, size the planes.
    fn begin(
        &mut self,
        bs: &mut BatchState,
        view: InstanceView<'_>,
        k: usize,
    ) -> Result<(), String> {
        let mut counts = Vec::new();
        view.mapping.replica_counts_into(&mut counts);
        let next = bs.keys.len() as u64;
        let key = *bs.keys.entry(counts).or_insert(next);
        if bs.built != Some(key) {
            bs.built = None;
            let opts = bs.opts.clone();
            let (rows, _) = self
                .tr
                .time(Layer::TpnBuild, || {
                    build_tpn_view_into(view, CommModel::Strict, &opts, &mut bs.net)
                })
                .map_err(|e| format!("routed shape failed to build: {e}"))?;
            bs.rows = rows;
            bs.built = Some(key);
            bump(
                &mut self.counts,
                "core.tpn_build.transitions",
                bs.net.num_transitions() as f64,
            );
        }
        let dims = (key, bs.net.num_transitions(), bs.net.num_places());
        if bs.have != Some(dims) {
            self.tr.time(Layer::RatioGraph, || {
                ratio_graph_into(&bs.net, &mut bs.graph);
                bs.pre.clear();
                bs.pre.extend(bs.net.places().iter().map(|p| p.pre.0));
            });
            bump(
                &mut self.counts,
                "tpn.ratio_graph.edges",
                bs.graph.num_edges() as f64,
            );
            bs.have = Some(dims);
            bs.key = key;
        }
        bs.planes.reset(k, bs.graph.num_edges());
        Ok(())
    }
}

fn ratio_of(
    res: Result<Option<maxplus::CycleSolution>, maxplus::RatioGraphError>,
) -> Result<f64, String> {
    match res {
        Ok(Some(sol)) => Ok(sol.ratio),
        Ok(None) => Err("mapping TPN without a circuit".to_string()),
        Err(e) => Err(format!("cycle-ratio solve failed: {e}")),
    }
}
