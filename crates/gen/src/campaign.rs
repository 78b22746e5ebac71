//! The parallel experiment campaign engine: period vs. `M_ct` on random
//! instances.
//!
//! Each experiment draws an instance, computes the critical-resource bound
//! `M_ct` and the actual period, and records whether a critical resource
//! exists (`P̂ = M_ct`) or not (`P̂ > M_ct`, the paper's surprising regime).
//!
//! # Engine
//!
//! Experiments run on the [`repwf_par`] **work-stealing** executor (this
//! replaced the original static crossbeam thread loop, whose fixed
//! partition stalled whole workers on simulator-fallback experiments).
//! Each worker thread owns one [`repwf_core::engine::PeriodEngine`]
//! (created by [`repwf_par::par_map_init`]), so the TPN build arena and
//! the Howard workspace are allocated `threads` times per campaign instead
//! of once per experiment. Draws are evaluated **by reference** through
//! [`PeriodEngine::compute_mapping`] (no owned `Instance` unless the
//! simulator fallback needs one), and when consecutive draws on a worker
//! happen to share their replica-count shape the engine re-times the TPN
//! in place instead of rebuilding it — the patched state is bit-for-bit a
//! rebuild, so this never leaks the schedule into the numbers. Three
//! properties are guaranteed:
//!
//! * **Determinism at any thread count** — experiment `k` derives *all* of
//!   its randomness from `StdRng::seed_from_u64(seed_base + k)`, results
//!   are returned in seed order, and the per-worker engines run **cold**
//!   (warm starts stay off: with them, the reported witness could depend
//!   on which experiment a worker ran previously, i.e. on the stealing
//!   schedule). A campaign's [`CampaignResult`] is therefore bit-identical
//!   for `threads = 1` and `threads = N` (tested below and in the `repwf`
//!   CLI).
//! * **Lock-free streaming aggregation** — running counts (`done`,
//!   `no_critical`, `simulated`, `max_gap`) are plain atomics folded in as
//!   experiments complete; the hot path never takes a lock and a progress
//!   consumer never scans the outcome vector. (A `Mutex<Progress>` used to
//!   serialize every worker here; profiles of short-experiment campaigns
//!   showed it right behind the period solve itself.)
//! * **Progress callbacks** — [`run_campaign_with`] reports a
//!   [`Progress`] snapshot after every finished experiment (from worker
//!   threads: callbacks must be `Sync`). Counters in a snapshot are each
//!   exact and monotone, but mid-campaign a snapshot may combine them at
//!   slightly different instants; the final snapshot (`done == total`) is
//!   exact in every field.

use crate::agg;
use crate::sampler::{sample_replica_counts, sample_workflow_parts, GenConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::engine::PeriodEngine;
use repwf_core::model::{CommModel, Instance};
use repwf_core::paths::num_paths;
use repwf_core::period::{Method, PeriodError};
use repwf_core::tpn_build::{BuildError, BuildOptions};
use repwf_sim::{simulate, SimOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How one experiment was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Exact analysis (polynomial algorithm or full TPN).
    Exact,
    /// The TPN exceeded the size cap; the period was estimated with the
    /// discrete-event simulator.
    Simulated,
}

/// Outcome of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Seed used to draw the instance (reproducible).
    pub seed: u64,
    /// Critical-resource bound.
    pub mct: f64,
    /// Actual per-data-set period.
    pub period: f64,
    /// Resolution method.
    pub resolution: Resolution,
    /// Number of TPN rows `m` of the instance.
    pub num_paths: u128,
}

impl ExperimentOutcome {
    /// Relative gap `(P̂ − M_ct)/M_ct` (0 when a critical resource exists).
    ///
    /// Clamped at 0.0: float noise when the period sits exactly on `M_ct`
    /// — or a simulator-fallback estimate landing just *below* it — must
    /// never produce a negative gap (whose sign bit would out-rank every
    /// positive pattern in the bitwise streaming maximum), and a NaN from
    /// a degenerate draw clamps to 0.0 too. An infinite period passes
    /// through (visible in the CSV dump); the aggregates reject
    /// non-finite gaps separately.
    pub fn gap(&self) -> f64 {
        let g = (self.period - self.mct) / self.mct;
        if g > 0.0 {
            g
        } else {
            0.0
        }
    }

    /// True iff no resource is critical: the period strictly exceeds `M_ct`.
    pub fn no_critical_resource(&self, rel_tol: f64) -> bool {
        self.gap() > rel_tol
    }
}

/// Aggregated campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// All outcomes (one per experiment), in seed order.
    pub outcomes: Vec<ExperimentOutcome>,
}

impl CampaignResult {
    /// Number of experiments without a critical resource.
    pub fn count_no_critical(&self, rel_tol: f64) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.no_critical_resource(rel_tol))
            .count()
    }

    /// Maximum relative gap over all experiments. Non-finite gaps (an
    /// infinite period from a degenerate draw) are skipped, matching the
    /// streaming aggregate of [`run_campaign_with`].
    pub fn max_gap(&self) -> f64 {
        agg::max_finite_gap(self.outcomes.iter().map(ExperimentOutcome::gap))
    }

    /// Number of experiments resolved by simulation fallback.
    pub fn count_simulated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.resolution == Resolution::Simulated)
            .count()
    }

    /// The associative aggregates of this result (at [`GAP_REL_TOL`]).
    pub fn accum(&self) -> CampaignAccum {
        let mut accum = CampaignAccum::new();
        for outcome in &self.outcomes {
            accum.push(outcome);
        }
        accum
    }
}

/// **Associative** campaign aggregates: what a shard can compute locally
/// and a merger can recombine without touching the outcomes again.
///
/// Every field folds through an operation that is associative and
/// commutative *bitwise* — integer sums and the guarded bit-pattern
/// maximum of [`max_gap`](CampaignAccum::max_gap) — so
/// `merge(accum(s_1), …, accum(s_N))` equals `accum(s_1 ∥ … ∥ s_N)`
/// **exactly**, for any grouping of the shards. This is the foundation of
/// the `repwf-dist` exact merger: aggregates of a sharded campaign are
/// bit-identical to the unsharded run at any `num_shards × threads`
/// combination. Order statistics (gap quantiles) deliberately do *not*
/// live here: they are not associative and are computed only after the
/// full merge, from the concatenated outcomes
/// ([`crate::stats::gap_quantiles`]).
///
/// The no-critical count is fixed at [`GAP_REL_TOL`] — the tolerance the
/// streaming aggregates and the CLI report use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignAccum {
    /// Experiments folded in.
    pub done: usize,
    /// Experiments without a critical resource (at [`GAP_REL_TOL`]).
    pub no_critical: usize,
    /// Experiments resolved by the simulator fallback.
    pub simulated: usize,
    /// Bit pattern of the maximum finite positive gap (see
    /// [`CampaignAccum::max_gap`]).
    max_gap_bits: u64,
}

impl CampaignAccum {
    /// The empty accumulator (the identity of [`merge`](Self::merge)).
    pub fn new() -> CampaignAccum {
        CampaignAccum { done: 0, no_critical: 0, simulated: 0, max_gap_bits: 0f64.to_bits() }
    }

    /// Folds one outcome in.
    pub fn push(&mut self, outcome: &ExperimentOutcome) {
        self.done += 1;
        self.no_critical += usize::from(outcome.no_critical_resource(GAP_REL_TOL));
        self.simulated += usize::from(outcome.resolution == Resolution::Simulated);
        self.max_gap_bits = agg::fold_max_gap_bits(self.max_gap_bits, outcome.gap());
    }

    /// Folds another accumulator in (associative, commutative, exact).
    pub fn merge(&mut self, other: &CampaignAccum) {
        self.done += other.done;
        self.no_critical += other.no_critical;
        self.simulated += other.simulated;
        self.max_gap_bits = self.max_gap_bits.max(other.max_gap_bits);
    }

    /// Maximum finite positive gap folded in so far (0.0 when none);
    /// equals [`CampaignResult::max_gap`] over the same outcomes.
    pub fn max_gap(&self) -> f64 {
        f64::from_bits(self.max_gap_bits)
    }

    /// Snapshots this accumulator as a [`Progress`] against a campaign
    /// of `total` experiments — the same shape the streaming callbacks
    /// receive, so checkpoint-derived state (a resumed shard, a merged
    /// partial campaign) reports through one code path.
    pub fn progress(&self, total: usize) -> Progress {
        Progress {
            done: self.done,
            total,
            no_critical: self.no_critical,
            simulated: self.simulated,
            max_gap: self.max_gap(),
        }
    }
}

impl Default for CampaignAccum {
    fn default() -> Self {
        CampaignAccum::new()
    }
}

/// Relative-gap tolerance below which an experiment counts as having a
/// critical resource (shared by the streaming aggregates and Table 2).
pub const GAP_REL_TOL: f64 = 1e-7;

/// Default TPN size cap (max transitions) of campaign runs. Raised from
/// the historical `400_000` once the per-SCC parallel solver and the
/// shape-batched path made strict TPNs of this size solve exactly in
/// reasonable time — instance families that used to fall back to the
/// discrete-event simulator now report [`Resolution::Exact`].
pub const DEFAULT_CAMPAIGN_CAP: usize = 2_000_000;

/// Streaming snapshot passed to progress callbacks after every experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Experiments finished so far.
    pub done: usize,
    /// Campaign size.
    pub total: usize,
    /// Finished experiments without a critical resource (at [`GAP_REL_TOL`]).
    pub no_critical: usize,
    /// Finished experiments resolved by the simulator fallback.
    pub simulated: usize,
    /// Maximum relative gap seen so far.
    pub max_gap: f64,
}

impl Progress {
    /// Fraction complete in `[0, 1]`; an empty campaign counts as done.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done as f64 / self.total as f64
        }
    }

    /// One-line human summary, shared by the supervisor, `repwf dist
    /// status` and partial merges: experiments done (with the percentage
    /// when short of the campaign), the no-critical tally, the simulated
    /// tally (only when any experiment actually fell back to the
    /// simulator), and the running max gap.
    ///
    /// ```
    /// use repwf_gen::campaign::Progress;
    /// let p = Progress { done: 3, total: 4, no_critical: 1, simulated: 0, max_gap: 0.25 };
    /// assert_eq!(p.summary(), "3/4 experiments (75.0%), 1 no-critical, max gap 25.000%");
    /// let s = Progress { simulated: 2, ..p };
    /// assert_eq!(
    ///     s.summary(),
    ///     "3/4 experiments (75.0%), 1 no-critical, 2 simulated, max gap 25.000%",
    /// );
    /// ```
    pub fn summary(&self) -> String {
        let coverage = if self.done == self.total {
            format!("{}/{} experiments", self.done, self.total)
        } else {
            format!(
                "{}/{} experiments ({})",
                self.done,
                self.total,
                format_pct(self.done, self.total)
            )
        };
        let simulated = if self.simulated > 0 {
            format!(", {} simulated", self.simulated)
        } else {
            String::new()
        };
        format!(
            "{coverage}, {} no-critical{simulated}, max gap {:.3}%",
            self.no_critical,
            self.max_gap * 100.0
        )
    }
}

/// `done/total` as a percentage with one decimal (`"75.0%"`). An empty
/// total counts as complete (`"100.0%"`), matching [`Progress::fraction`]'s
/// empty-campaign convention. The one formatting rule shared by
/// [`Progress::summary`] and `repwf dist status`.
pub fn format_pct(done: usize, total: usize) -> String {
    let fraction = if total == 0 { 1.0 } else { done as f64 / total as f64 };
    format!("{:.1}%", fraction * 100.0)
}

/// Progress callback type: invoked from worker threads.
pub type ProgressFn<'a> = &'a (dyn Fn(Progress) + Sync);

/// Outcome sink for [`run_campaign_streamed`]: invoked from worker
/// threads, **in seed order**.
pub type OutcomeSink<'a> = &'a (dyn Fn(&ExperimentOutcome) + Sync);

/// The lock-free streaming aggregates behind a [`ProgressFn`], shared by
/// the worker threads of one campaign. `max_gap` is a non-negative f64;
/// for non-negative IEEE-754 doubles the bit pattern is monotone in the
/// value, so a `fetch_max` on the bits is a numeric max.
struct LiveProgress<'a> {
    callback: Option<ProgressFn<'a>>,
    total: usize,
    done: AtomicUsize,
    no_critical: AtomicUsize,
    simulated: AtomicUsize,
    max_gap_bits: AtomicU64,
}

impl<'a> LiveProgress<'a> {
    fn new(callback: Option<ProgressFn<'a>>, total: usize) -> Self {
        LiveProgress {
            callback,
            total,
            done: AtomicUsize::new(0),
            no_critical: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            max_gap_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Folds one finished experiment in and reports a snapshot (a no-op
    /// without a callback).
    fn record(&self, outcome: &ExperimentOutcome) {
        let Some(callback) = self.callback else { return };
        // Update every statistic *before* bumping `done`: the worker that
        // observes `done == total` then reads totals that include every
        // experiment.
        self.no_critical.fetch_add(
            usize::from(outcome.no_critical_resource(GAP_REL_TOL)),
            Ordering::SeqCst,
        );
        self.simulated.fetch_add(
            usize::from(outcome.resolution == Resolution::Simulated),
            Ordering::SeqCst,
        );
        agg::fold_max_gap(&self.max_gap_bits, outcome.gap());
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        callback(Progress {
            done,
            total: self.total,
            no_critical: self.no_critical.load(Ordering::SeqCst),
            simulated: self.simulated.load(Ordering::SeqCst),
            max_gap: f64::from_bits(self.max_gap_bits.load(Ordering::SeqCst)),
        });
    }
}

/// Runs one experiment (public for reuse by benches/tests).
///
/// One-shot convenience over [`run_one_with`]: allocates a fresh
/// [`PeriodEngine`] sized by `cap`.
pub fn run_one(cfg: &GenConfig, model: CommModel, seed: u64, cap: usize) -> ExperimentOutcome {
    run_one_with(cfg, model, seed, &mut engine_for_cap(cap))
}

/// A cold-start engine with the campaign build options (no labels, TPN
/// size cap `cap`).
pub fn engine_for_cap(cap: usize) -> PeriodEngine {
    PeriodEngine::with_options(BuildOptions {
        labels: false,
        max_transitions: cap,
    })
}

/// Runs one experiment on a caller-owned engine (the size cap comes from
/// the engine's build options). The outcome is a pure function of
/// `(cfg, model, seed, engine options)` — the engine only contributes
/// reusable buffers, never state that leaks into the numbers.
pub fn run_one_with(
    cfg: &GenConfig,
    model: CommModel,
    seed: u64,
    engine: &mut PeriodEngine,
) -> ExperimentOutcome {
    run_one_workflow_with(cfg, &Topology::chain(cfg.stages), model, seed, engine)
}

/// [`run_one_with`] on an arbitrary series-parallel [`Topology`]. On
/// [`Topology::chain`] this *is* [`run_one_with`] (same RNG stream, same
/// bytes).
pub fn run_one_workflow_with(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    seed: u64,
    engine: &mut PeriodEngine,
) -> ExperimentOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    // The draw is evaluated through the borrowed-view oracle path: no
    // owned `Instance` is assembled unless the simulator fallback needs
    // one (and then by move, not clone). Consecutive same-shape draws on a
    // worker take the engine's incremental patch path — bit-transparent,
    // so outcomes stay a pure function of the seed regardless of the
    // work-stealing schedule.
    let (pipeline, platform, mapping) = sample_workflow_parts(cfg, topo, &mut rng);
    let method = match model {
        CommModel::Overlap => Method::Polynomial,
        CommModel::Strict => Method::FullTpn,
    };
    match engine.compute_mapping(&pipeline, &platform, &mapping, model, method) {
        Ok(report) => ExperimentOutcome {
            seed,
            mct: report.mct,
            period: report.period,
            resolution: Resolution::Exact,
            num_paths: report.num_paths,
        },
        Err(PeriodError::Build(BuildError::TooLarge { m, .. })) => {
            // Simulator fallback: long enough to pass the transient.
            let inst = Instance::new(pipeline, platform, mapping)
                .expect("generator produces valid instances");
            let (mct, _) = repwf_core::cycle_time::max_cycle_time(&inst, model);
            let data_sets = 20_000u64;
            let sim = simulate(
                &inst,
                model,
                &SimOptions {
                    data_sets,
                    record_ops: false,
                },
            );
            ExperimentOutcome {
                seed,
                mct,
                period: sim
                    .exact_period(1e-9)
                    .unwrap_or_else(|| sim.period_estimate()),
                resolution: Resolution::Simulated,
                num_paths: m,
            }
        }
        Err(e) => panic!("experiment {seed} failed: {e}"),
    }
}

/// Runs `count` experiments for a configuration over `threads` work-stealing
/// workers (seeds `seed_base..seed_base+count`).
pub fn run_campaign(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
) -> CampaignResult {
    run_campaign_with(cfg, model, count, seed_base, threads, cap, None)
}

/// [`run_campaign`] with an optional streaming progress callback.
pub fn run_campaign_with(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    progress: Option<ProgressFn<'_>>,
) -> CampaignResult {
    run_campaign_workflow_with(cfg, &Topology::chain(cfg.stages), model, count, seed_base, threads, cap, progress)
}

/// [`run_campaign`] on an arbitrary series-parallel [`Topology`]: every
/// experiment draws its instance on the same precedence graph. All
/// determinism guarantees carry over — outcomes are a pure function of
/// `(cfg, topo, model, seed)` and bit-identical at any thread count. On
/// [`Topology::chain`] the result is byte-identical to [`run_campaign`].
pub fn run_campaign_workflow(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
) -> CampaignResult {
    run_campaign_workflow_with(cfg, topo, model, count, seed_base, threads, cap, None)
}

/// [`run_campaign_workflow`] with an optional streaming progress callback.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_workflow_with(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    progress: Option<ProgressFn<'_>>,
) -> CampaignResult {
    let live = LiveProgress::new(progress, count);
    let outcomes = repwf_par::par_map_init(
        threads,
        count,
        || engine_for_cap(cap),
        |engine, k| {
            let _span = repwf_obs::span!(Experiment);
            let outcome = run_one_workflow_with(cfg, topo, model, seed_base + k as u64, engine);
            live.record(&outcome);
            outcome
        },
    );
    CampaignResult { outcomes }
}

/// [`run_campaign`] streaming every outcome to `sink` **in seed order**
/// as the contiguous prefix of experiments completes (via
/// [`repwf_par::par_map_init_ordered`]).
///
/// This is the entry point of the `repwf-dist` shard runners: the sink
/// appends NDJSON records to the shard file, and because outcomes arrive
/// strictly in seed order a killed process always leaves a valid,
/// resumable prefix — at any thread count, with the same bytes. The sink
/// runs under the executor's reorder lock; keep it to an append, not a
/// solve. Outcomes are exactly those of [`run_campaign`] with the same
/// arguments, bit for bit.
pub fn run_campaign_streamed(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    sink: OutcomeSink<'_>,
) -> CampaignResult {
    run_campaign_workflow_streamed(
        cfg,
        &Topology::chain(cfg.stages),
        model,
        count,
        seed_base,
        threads,
        cap,
        sink,
    )
}

/// [`run_campaign_streamed`] on an arbitrary series-parallel
/// [`Topology`] — the shard-runner entry point for workflow campaigns,
/// with the same seed-order streaming contract.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_workflow_streamed(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    sink: OutcomeSink<'_>,
) -> CampaignResult {
    let outcomes = repwf_par::par_map_init_ordered(
        threads,
        count,
        || engine_for_cap(cap),
        |engine, k| run_one_workflow_with(cfg, topo, model, seed_base + k as u64, engine),
        |_, outcome| sink(outcome),
    );
    CampaignResult { outcomes }
}

/// Structural-solve totals of the shape-sorted campaign schedule (see
/// [`shape_stats`]): the engine counters [`PeriodEngine::patched_solves`],
/// [`PeriodEngine::csr_builds`] and [`PeriodEngine::tarjan_runs`] summed
/// over the workers of [`run_campaign_batched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructuralStats {
    /// Solves that took the engine's shape-preserving patch path: every
    /// member of a shape-group chunk but the first. The overlap model
    /// never builds a TPN, so it reports zero.
    pub patched_solves: u64,
    /// CSR adjacency builds: one per chunk, paid by its first member.
    pub csr_builds: u64,
    /// Tarjan condensations: one per chunk (always equal to `csr_builds`
    /// on this schedule; reported separately to mirror the engine
    /// counters).
    pub tarjan_runs: u64,
}

impl StructuralStats {
    /// The structural counters `engine` has accumulated so far.
    fn of(engine: &PeriodEngine) -> Self {
        StructuralStats {
            patched_solves: engine.patched_solves(),
            csr_builds: engine.csr_builds(),
            tarjan_runs: engine.tarjan_runs(),
        }
    }

    /// Field-wise `self - earlier`.
    fn since(self, earlier: StructuralStats) -> Self {
        StructuralStats {
            patched_solves: self.patched_solves - earlier.patched_solves,
            csr_builds: self.csr_builds - earlier.csr_builds,
            tarjan_runs: self.tarjan_runs - earlier.tarjan_runs,
        }
    }

    /// Field-wise `self += other`.
    fn add(&mut self, other: StructuralStats) {
        self.patched_solves += other.patched_solves;
        self.csr_builds += other.csr_builds;
        self.tarjan_runs += other.tarjan_runs;
    }
}

/// Campaign shape statistics (see [`shape_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShapeStats {
    /// Distinct replica-count shapes the campaign draws, over-cap shapes
    /// included.
    pub distinct_shapes: usize,
    /// `(count − distinct_shapes)/count`: the fraction of experiments
    /// that ride a shape some earlier seed already drew.
    pub batch_hit_rate: f64,
    /// Structural work of the shape-sorted schedule.
    pub structural: StructuralStats,
}

/// Campaign shape statistics, computed **statically from the spec** in
/// one replay of the replica-count RNG prefix of every seed (no instance
/// materialized, no experiment run): the distinct TPN shapes, the batch
/// hit rate, and the structural work of the schedule
/// [`run_campaign_workflow_batched_with`] routes — per in-cap chunk one
/// TPN/CSR/Tarjan structural phase and one patched solve per further
/// member; over-cap seeds run the simulator fallback, which builds none
/// of it.
///
/// The statistics depend only on `(cfg, topo, model, count, seed_base,
/// cap)` — never on the outcomes or the thread schedule — so a sharded
/// campaign's merge report and the unsharded run report identical
/// values, whichever runner actually executed the experiments.
pub fn shape_stats(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    cap: usize,
) -> ShapeStats {
    if count == 0 {
        return ShapeStats::default();
    }
    let cols = grid_columns(topo);
    // Seeds per shape, with the shape's routed TPN size.
    let mut shapes: HashMap<Vec<usize>, (Option<u128>, u64)> = HashMap::new();
    for k in 0..count {
        let replicas = replica_shape(cfg, seed_base + k as u64);
        shapes.entry(replicas).or_insert_with_key(|r| (routed_transitions(r, cols, cap), 0)).1 += 1;
    }
    let mut structural = StructuralStats::default();
    if model == CommModel::Strict {
        for &(transitions, members) in shapes.values() {
            if let Some(t) = transitions {
                let chunks = members.div_ceil(chunk_len(t) as u64);
                structural.add(StructuralStats {
                    patched_solves: members - chunks,
                    csr_builds: chunks,
                    tarjan_runs: chunks,
                });
            }
        }
    }
    let distinct_shapes = shapes.len();
    ShapeStats {
        distinct_shapes,
        batch_hit_rate: (count - distinct_shapes) as f64 / count as f64,
        structural,
    }
}

/// Upper bound on transitions per shape-group chunk: chunks shrink for
/// big shapes, down to one seed, so the work stealer can balance
/// expensive solves (a pure function of the shape dimensions —
/// deterministic).
const BATCH_TRANSITION_BUDGET: u128 = 1_000_000;
/// Seeds per shape-group chunk for small shapes: one structural phase
/// amortized over up to this many solves.
const MAX_BATCH: usize = 16;

/// TPN grid columns of `topo`: one per stage and one per edge.
fn grid_columns(topo: &Topology) -> u128 {
    (topo.stages + topo.num_edges()) as u128
}

/// The replica counts seed `seed` draws: the prefix of its RNG stream.
fn replica_shape(cfg: &GenConfig, seed: u64) -> Vec<usize> {
    sample_replica_counts(cfg, &mut StdRng::seed_from_u64(seed))
}

/// TPN transitions of a shape when they fit `cap`; `None` (over the cap,
/// or a path count that overflows) runs the seed on its own.
fn routed_transitions(replicas: &[usize], cols: u128, cap: usize) -> Option<u128> {
    num_paths(replicas)
        .and_then(|m| m.checked_mul(cols))
        .filter(|&t| t <= cap as u128)
}

/// Seeds per chunk of a shape group whose TPN has `transitions`.
fn chunk_len(transitions: u128) -> usize {
    (BATCH_TRANSITION_BUDGET / transitions.max(1)).clamp(1, MAX_BATCH as u128) as usize
}

/// [`run_campaign`] with the experiments **sorted by TPN shape**. Outcomes
/// are **byte identical** to [`run_campaign`] with the same arguments at
/// any thread count (property-tested in `tests/batch_props.rs`); only the
/// work schedule differs:
///
/// * experiments are **routed by shape** — the canonical shape signature
///   (communication model + per-stage replica counts) of each seed is
///   recovered statically by replaying the replica RNG prefix
///   ([`crate::sampler::sample_replica_counts`]), and same-shape seeds are
///   grouped in first-occurrence order and cut into chunks (up to
///   16 seeds, fewer for big shapes) without sampling an instance;
/// * each chunk runs in seed order on the worker's [`PeriodEngine`]: the
///   first member pays **one** TPN build, ratio-graph/CSR build and
///   Tarjan condensation, and every further member takes the engine's
///   patch path — re-time the TPN in place, re-weight the ratio graph,
///   re-solve Howard on the cached condensation. The per-seed runner
///   patches only when consecutive seeds on a worker happen to share a
///   shape;
/// * over-cap and degenerate seeds run alone, exactly like the per-seed
///   campaign.
///
/// The overlap model solves through the polynomial algorithm (no TPN to
/// share), so it delegates to the per-seed runner wholesale.
pub fn run_campaign_batched(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
) -> CampaignResult {
    run_campaign_batched_with(cfg, model, count, seed_base, threads, cap, None)
}

/// [`run_campaign_batched`] with an optional streaming progress callback
/// (one [`Progress`] snapshot per finished experiment, like
/// [`run_campaign_with`]).
pub fn run_campaign_batched_with(
    cfg: &GenConfig,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    progress: Option<ProgressFn<'_>>,
) -> CampaignResult {
    run_campaign_workflow_batched_with(
        cfg,
        &Topology::chain(cfg.stages),
        model,
        count,
        seed_base,
        threads,
        cap,
        progress,
    )
}

/// [`run_campaign_batched`] on an arbitrary series-parallel [`Topology`].
/// Static shape routing is unchanged: the topology is fixed across the
/// campaign, so the TPN shape of a seed is still recovered from its
/// replica-count RNG prefix alone (the grid simply has `n + E` columns
/// instead of the chain's `2n − 1`).
pub fn run_campaign_workflow_batched(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
) -> CampaignResult {
    run_campaign_workflow_batched_with(cfg, topo, model, count, seed_base, threads, cap, None)
}

/// [`run_campaign_workflow_batched`] with an optional streaming progress
/// callback.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_workflow_batched_with(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    progress: Option<ProgressFn<'_>>,
) -> CampaignResult {
    run_shape_sorted(cfg, topo, model, count, seed_base, threads, cap, progress).0
}

/// [`run_campaign_workflow_batched_with`], also returning the structural
/// counters of the per-worker engines, summed over the chunks.
#[allow(clippy::too_many_arguments)]
fn run_shape_sorted(
    cfg: &GenConfig,
    topo: &Topology,
    model: CommModel,
    count: usize,
    seed_base: u64,
    threads: usize,
    cap: usize,
    progress: Option<ProgressFn<'_>>,
) -> (CampaignResult, StructuralStats) {
    if model == CommModel::Overlap || count == 0 {
        let res =
            run_campaign_workflow_with(cfg, topo, model, count, seed_base, threads, cap, progress);
        return (res, StructuralStats::default());
    }

    // --- static shape routing: replay only the replica RNG prefix ---
    let cols = grid_columns(topo);
    let mut solo: Vec<u32> = Vec::new();
    let mut group_of: HashMap<Vec<usize>, usize> = HashMap::new();
    // (transitions, members) per shape, in first-occurrence order.
    let mut groups: Vec<(u128, Vec<u32>)> = Vec::new();
    for k in 0..count {
        let replicas = replica_shape(cfg, seed_base + k as u64);
        match routed_transitions(&replicas, cols, cap) {
            Some(t) => {
                let g = *group_of.entry(replicas).or_insert_with(|| {
                    groups.push((t, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(k as u32);
            }
            None => solo.push(k as u32),
        }
    }
    // One task per over-cap seed, then every group cut into chunks.
    let mut tasks: Vec<&[u32]> = solo.chunks(1).collect();
    for (transitions, members) in &groups {
        tasks.extend(members.chunks(chunk_len(*transitions)));
    }
    repwf_obs::counter_add(repwf_obs::CounterId::ShapeGroups, groups.len() as u64);
    repwf_obs::counter_add(repwf_obs::CounterId::SoloExperiments, solo.len() as u64);
    repwf_obs::counter_add(repwf_obs::CounterId::BatchChunks, (tasks.len() - solo.len()) as u64);
    repwf_obs::counter_add(
        repwf_obs::CounterId::BatchedExperiments,
        (count - solo.len()) as u64,
    );

    let live = LiveProgress::new(progress, count);
    let results = repwf_par::par_map_init(
        threads,
        tasks.len(),
        || engine_for_cap(cap),
        |engine, t| {
            // Every chunk starts with a rebuild, even after a same-shape
            // chunk on this worker, so the structural work is a function
            // of the routing alone, never of the stealing schedule.
            engine.reset_patch_state();
            let before = StructuralStats::of(engine);
            let outcomes: Vec<(u32, ExperimentOutcome)> = tasks[t]
                .iter()
                .map(|&k| {
                    let _span = repwf_obs::span!(Experiment);
                    let outcome =
                        run_one_workflow_with(cfg, topo, model, seed_base + u64::from(k), engine);
                    live.record(&outcome);
                    (k, outcome)
                })
                .collect();
            (outcomes, StructuralStats::of(engine).since(before))
        },
    );

    // Scatter the chunked results back to seed order.
    let mut outcomes: Vec<Option<ExperimentOutcome>> = vec![None; count];
    let mut structural = StructuralStats::default();
    for (chunk, work) in results {
        structural.add(work);
        for (k, outcome) in chunk {
            outcomes[k as usize] = Some(outcome);
        }
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every seed is scheduled exactly once"))
        .collect();
    (CampaignResult { outcomes }, structural)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Range;
    use std::sync::Mutex;

    fn small_cfg() -> GenConfig {
        GenConfig {
            stages: 2,
            procs: 7,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        }
    }

    #[test]
    fn outcomes_respect_lower_bound() {
        let res = run_campaign(&small_cfg(), CommModel::Overlap, 20, 100, 4, 200_000);
        assert_eq!(res.outcomes.len(), 20);
        for o in &res.outcomes {
            assert!(
                o.period >= o.mct - 1e-9 * o.mct,
                "seed {}: {} < {}",
                o.seed,
                o.period,
                o.mct
            );
        }
    }

    #[test]
    fn reused_engine_matches_fresh_engines() {
        // The per-worker engine only contributes buffers: running many
        // seeds through one engine must reproduce fresh-engine runs bit
        // for bit.
        let cfg = small_cfg();
        let mut engine = engine_for_cap(200_000);
        for seed in 300..316 {
            let reused = run_one_with(&cfg, CommModel::Strict, seed, &mut engine);
            let fresh = run_one(&cfg, CommModel::Strict, seed, 200_000);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run_campaign(&small_cfg(), CommModel::Strict, 8, 7, 4, 200_000);
        let b = run_campaign(&small_cfg(), CommModel::Strict, 8, 7, 2, 200_000);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.seed, y.seed);
            assert!((x.period - y.period).abs() < 1e-12);
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Stronger than the tolerance check above: the whole result must be
        // byte-for-byte equal for every thread count (the work-stealing
        // schedule must never leak into the numbers).
        let reference = run_campaign(&small_cfg(), CommModel::Strict, 24, 900, 1, 200_000);
        for threads in [2, 3, 4, 16] {
            let other = run_campaign(&small_cfg(), CommModel::Strict, 24, 900, threads, 200_000);
            assert_eq!(reference, other, "threads={threads}");
        }
    }

    fn outcome(mct: f64, period: f64) -> ExperimentOutcome {
        ExperimentOutcome { seed: 0, mct, period, resolution: Resolution::Simulated, num_paths: 4 }
    }

    #[test]
    fn period_below_mct_clamps_gap_through_the_aggregates() {
        // Regression: a simulator-fallback period just below M_ct (or
        // float noise at period ≈ M_ct) must aggregate as gap 0, not as a
        // negative bit pattern that out-ranks every real maximum.
        let below = outcome(1295.0 / 6.0, 1295.0 / 6.0 - 1e-9);
        assert_eq!(below.gap(), 0.0);
        assert!(!below.no_critical_resource(GAP_REL_TOL));
        let res = CampaignResult { outcomes: vec![below, outcome(100.0, 100.5)] };
        assert_eq!(res.count_no_critical(GAP_REL_TOL), 1);
        assert!((res.max_gap() - 0.005).abs() < 1e-12);

        // Degenerate draws must not poison the aggregates either.
        assert_eq!(outcome(100.0, f64::NAN).gap(), 0.0);
        let degenerate = CampaignResult {
            outcomes: vec![outcome(100.0, f64::INFINITY), outcome(100.0, 99.0)],
        };
        assert_eq!(degenerate.max_gap(), 0.0, "non-finite gaps are skipped");
    }

    #[test]
    fn streaming_maximum_rejects_degenerate_gaps() {
        let bits = AtomicU64::new(0f64.to_bits());
        for g in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            agg::fold_max_gap(&bits, g);
        }
        assert_eq!(f64::from_bits(bits.load(Ordering::SeqCst)), 0.0);
        agg::fold_max_gap(&bits, 0.25);
        for g in [-1.0, f64::NAN, 0.1] {
            agg::fold_max_gap(&bits, g);
        }
        assert_eq!(f64::from_bits(bits.load(Ordering::SeqCst)), 0.25);
    }

    #[test]
    fn accum_matches_result_aggregates_and_merges_associatively() {
        let res = run_campaign(&small_cfg(), CommModel::Strict, 30, 40, 4, 200_000);
        let whole = res.accum();
        assert_eq!(whole.done, res.outcomes.len());
        assert_eq!(whole.no_critical, res.count_no_critical(GAP_REL_TOL));
        assert_eq!(whole.simulated, res.count_simulated());
        assert_eq!(whole.max_gap().to_bits(), res.max_gap().to_bits());

        // Any split of the outcome sequence, merged in any grouping, must
        // reproduce the whole-campaign accumulator exactly.
        for split in [1, 7, 15, 29] {
            for second_split in [split + 1, res.outcomes.len()] {
                let mut left = CampaignAccum::new();
                res.outcomes[..split].iter().for_each(|o| left.push(o));
                let mut mid = CampaignAccum::new();
                res.outcomes[split..second_split].iter().for_each(|o| mid.push(o));
                let mut right = CampaignAccum::new();
                res.outcomes[second_split..].iter().for_each(|o| right.push(o));

                let mut left_first = left;
                left_first.merge(&mid);
                left_first.merge(&right);
                let mut right_first = mid;
                right_first.merge(&right);
                let mut outer = left;
                outer.merge(&right_first);
                assert_eq!(left_first, whole, "split {split}/{second_split}");
                assert_eq!(outer, whole, "split {split}/{second_split}");
            }
        }

        // Degenerate outcomes stay excluded from the merged maximum.
        let mut degenerate = CampaignAccum::new();
        degenerate.push(&outcome(100.0, f64::INFINITY));
        assert_eq!(degenerate.max_gap(), 0.0);
        let mut merged = whole;
        merged.merge(&degenerate);
        assert_eq!(merged.max_gap().to_bits(), whole.max_gap().to_bits());
    }

    #[test]
    fn streamed_outcomes_arrive_in_seed_order_and_match_run_campaign() {
        let reference = run_campaign(&small_cfg(), CommModel::Strict, 18, 70, 1, 200_000);
        for threads in [1, 3, 8] {
            let seen: Mutex<Vec<ExperimentOutcome>> = Mutex::new(Vec::new());
            let res = run_campaign_streamed(
                &small_cfg(),
                CommModel::Strict,
                18,
                70,
                threads,
                200_000,
                &|o| seen.lock().unwrap().push(o.clone()),
            );
            assert_eq!(res, reference, "threads={threads}");
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen, reference.outcomes, "sink must stream in seed order");
        }
    }

    #[test]
    fn gap_is_nonnegative_and_consistent() {
        let res = run_campaign(&small_cfg(), CommModel::Strict, 10, 55, 4, 200_000);
        let n = res.count_no_critical(1e-7);
        assert!(n <= res.outcomes.len());
        if n > 0 {
            assert!(res.max_gap() > 0.0);
        }
    }

    #[test]
    fn simulation_fallback_engages_on_tiny_cap() {
        let cfg = GenConfig {
            stages: 3,
            procs: 9,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        // Cap of 1 transition forces the simulator for any replicated draw.
        let res = run_campaign(&cfg, CommModel::Strict, 6, 3, 2, 1);
        assert!(res.count_simulated() > 0);
        for o in &res.outcomes {
            assert!(o.period >= o.mct - 1e-6 * o.mct);
        }
    }

    #[test]
    fn progress_streams_to_completion() {
        let seen: Mutex<Vec<Progress>> = Mutex::new(Vec::new());
        let res = run_campaign_with(
            &small_cfg(),
            CommModel::Overlap,
            12,
            500,
            3,
            200_000,
            Some(&|p| seen.lock().unwrap().push(p)),
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 12, "one snapshot per experiment");
        let last = seen.iter().max_by_key(|p| p.done).unwrap();
        assert_eq!(last.done, 12);
        assert_eq!(last.total, 12);
        assert_eq!(last.no_critical, res.count_no_critical(GAP_REL_TOL));
        assert_eq!(last.simulated, res.count_simulated());
        assert!((last.max_gap - res.max_gap()).abs() < 1e-15);
    }

    #[test]
    fn accum_progress_matches_streaming_snapshots() {
        // A checkpoint-derived snapshot (accumulator over a prefix of the
        // outcomes) must equal the Progress the streaming callback would
        // have reported at the same point — one reporting path for live
        // runs and resumed/partial ones.
        let res = run_campaign(&small_cfg(), CommModel::Strict, 20, 310, 4, 200_000);
        let mut accum = CampaignAccum::new();
        for (k, o) in res.outcomes.iter().enumerate() {
            accum.push(o);
            let p = accum.progress(res.outcomes.len());
            assert_eq!(p.done, k + 1);
            assert_eq!(p.total, 20);
            assert_eq!(p.no_critical, accum.no_critical);
            assert_eq!(p.simulated, accum.simulated);
            assert_eq!(p.max_gap.to_bits(), accum.max_gap().to_bits());
        }
        assert_eq!(accum.progress(20), res.accum().progress(20));
    }

    #[test]
    fn batched_campaign_is_byte_identical_across_thread_counts() {
        // The tentpole contract: shape-batched scheduling must never leak
        // into the numbers — same bytes as the unbatched campaign, at any
        // thread count, for both models.
        for model in [CommModel::Strict, CommModel::Overlap] {
            let reference = run_campaign(&small_cfg(), model, 24, 900, 1, 200_000);
            for threads in [1, 2, 4] {
                let batched = run_campaign_batched(&small_cfg(), model, 24, 900, threads, 200_000);
                assert_eq!(
                    batched.outcomes.len(),
                    reference.outcomes.len(),
                    "{model} threads={threads}"
                );
                for (b, r) in batched.outcomes.iter().zip(&reference.outcomes) {
                    assert_eq!(b.seed, r.seed, "{model} threads={threads}");
                    assert_eq!(b.resolution, r.resolution, "{model} seed {}", r.seed);
                    assert_eq!(b.num_paths, r.num_paths, "{model} seed {}", r.seed);
                    assert_eq!(
                        b.mct.to_bits(),
                        r.mct.to_bits(),
                        "{model} seed {} mct",
                        r.seed
                    );
                    assert_eq!(
                        b.period.to_bits(),
                        r.period.to_bits(),
                        "{model} seed {} period",
                        r.seed
                    );
                }
            }
        }
    }

    #[test]
    fn batched_campaign_routes_simulator_era_seeds_through_the_solo_path() {
        // A tiny cap forces some draws over the size limit: the batched
        // runner must hand exactly those to the per-instance path
        // (simulator fallback) and still reproduce the unbatched bytes.
        let cfg = GenConfig {
            stages: 3,
            procs: 9,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        // Cap of 60 transitions: draws with lcm ≤ 12 batch, the rest solo.
        let reference = run_campaign(&cfg, CommModel::Strict, 12, 3, 1, 60);
        assert!(reference.count_simulated() > 0, "cap must force some fallbacks");
        assert!(
            reference.count_simulated() < 12,
            "cap must leave some exact experiments"
        );
        for threads in [1, 3] {
            let batched = run_campaign_batched(&cfg, CommModel::Strict, 12, 3, threads, 60);
            assert_eq!(batched, reference, "threads={threads}");
        }
    }

    #[test]
    fn batched_progress_streams_one_snapshot_per_experiment() {
        let seen: Mutex<Vec<Progress>> = Mutex::new(Vec::new());
        let res = run_campaign_batched_with(
            &small_cfg(),
            CommModel::Strict,
            12,
            500,
            3,
            200_000,
            Some(&|p| seen.lock().unwrap().push(p)),
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 12, "one snapshot per experiment");
        let last = seen.iter().max_by_key(|p| p.done).unwrap();
        assert_eq!(last.done, 12);
        assert_eq!(last.total, 12);
        assert_eq!(last.no_critical, res.count_no_critical(GAP_REL_TOL));
        assert_eq!(last.simulated, res.count_simulated());
        assert!((last.max_gap - res.max_gap()).abs() < 1e-15);
    }

    #[test]
    fn workflow_campaign_deterministic_and_batched_matches_unbatched() {
        // Fork/join campaign: batched and unbatched runners must agree
        // byte-for-byte at any thread count, and every outcome respects
        // the M_ct lower bound.
        let cfg = GenConfig {
            stages: 4,
            procs: 9,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        let topo = Topology::fork_join(2);
        assert_eq!(topo.stages, 4);
        let reference =
            run_campaign_workflow(&cfg, &topo, CommModel::Strict, 16, 40, 1, 200_000);
        for o in &reference.outcomes {
            assert!(o.period >= o.mct - 1e-9 * o.mct, "seed {}", o.seed);
        }
        for threads in [2, 4] {
            let other = run_campaign_workflow(&cfg, &topo, CommModel::Strict, 16, 40, threads, 200_000);
            assert_eq!(other, reference, "threads={threads}");
        }
        for threads in [1, 3] {
            let batched = run_campaign_workflow_batched(
                &cfg, &topo, CommModel::Strict, 16, 40, threads, 200_000,
            );
            assert_eq!(batched, reference, "batched threads={threads}");
        }
    }

    #[test]
    fn chain_topology_campaign_is_byte_identical_to_legacy() {
        // The non-negotiable invariant at the campaign level: running the
        // chain topology through the workflow entry points reproduces the
        // legacy chain campaign exactly.
        let cfg = small_cfg();
        let topo = Topology::chain(cfg.stages);
        assert!(topo.is_chain());
        for model in [CommModel::Strict, CommModel::Overlap] {
            let legacy = run_campaign(&cfg, model, 12, 77, 2, 200_000);
            let wf = run_campaign_workflow(&cfg, &topo, model, 12, 77, 2, 200_000);
            assert_eq!(legacy, wf, "{model}");
        }
    }

    #[test]
    fn shape_stats_count_distinct_replica_draws() {
        let cfg = small_cfg();
        let chain = Topology::chain(cfg.stages);
        let stats = shape_stats(&cfg, &chain, CommModel::Strict, 24, 900, 200_000);
        let distinct = stats.distinct_shapes;
        assert!((1..=24).contains(&distinct));
        // 2 stages / 7 procs: only 6 possible shapes, so 24 draws repeat.
        assert!(distinct <= 6);
        assert!((stats.batch_hit_rate - (24 - distinct) as f64 / 24.0).abs() < 1e-15);
        assert_eq!(
            shape_stats(&cfg, &chain, CommModel::Strict, 0, 900, 200_000),
            ShapeStats::default()
        );
        // Purely spec-derived: identical on every call, and the shape
        // count depends on neither the model nor the cap.
        assert_eq!(shape_stats(&cfg, &chain, CommModel::Strict, 24, 900, 200_000), stats);
        for (model, cap) in [(CommModel::Overlap, 200_000), (CommModel::Strict, 1)] {
            let other = shape_stats(&cfg, &chain, model, 24, 900, cap);
            assert_eq!(other.distinct_shapes, distinct);
            assert_eq!(other.batch_hit_rate.to_bits(), stats.batch_hit_rate.to_bits());
        }
    }

    #[test]
    fn progress_fraction_and_summary_cover_partial_and_degenerate_cases() {
        let partial = Progress { done: 3, total: 4, no_critical: 1, simulated: 2, max_gap: 0.015 };
        assert!((partial.fraction() - 0.75).abs() < 1e-15);
        assert_eq!(
            partial.summary(),
            "3/4 experiments (75.0%), 1 no-critical, 2 simulated, max gap 1.500%"
        );

        let complete = Progress { done: 4, total: 4, no_critical: 0, simulated: 0, max_gap: 0.0 };
        assert!((complete.fraction() - 1.0).abs() < 1e-15);
        // No simulator fallback: the summary does not mention it at all.
        assert_eq!(complete.summary(), "4/4 experiments, 0 no-critical, max gap 0.000%");

        let empty = Progress { done: 0, total: 0, no_critical: 0, simulated: 0, max_gap: 0.0 };
        assert_eq!(empty.fraction(), 1.0, "an empty campaign counts as done");
    }

    #[test]
    fn format_pct_covers_zero_records_and_degraded_edges() {
        // 0 records of a non-empty campaign (every unit failed / nothing
        // checkpointed yet): 0.0%, never NaN.
        assert_eq!(format_pct(0, 8), "0.0%");
        // Empty campaign counts as done, matching `Progress::fraction`.
        assert_eq!(format_pct(0, 0), "100.0%");
        assert_eq!(format_pct(3, 4), "75.0%");
        assert_eq!(format_pct(4, 4), "100.0%");
        // `Progress::summary` routes through the same helper.
        let p = Progress { done: 0, total: 8, no_critical: 0, simulated: 0, max_gap: 0.0 };
        assert_eq!(p.summary(), "0/8 experiments (0.0%), 0 no-critical, max gap 0.000%");
    }

    #[test]
    fn structural_stats_replay_the_batched_routing() {
        let cfg = small_cfg();
        let chain = Topology::chain(cfg.stages);
        let structural =
            |model, count, cap| shape_stats(&cfg, &chain, model, count, 900, cap).structural;
        // Overlap: polynomial path, no structural work at all.
        assert_eq!(structural(CommModel::Overlap, 24, 200_000), StructuralStats::default());
        assert_eq!(structural(CommModel::Strict, 0, 200_000), StructuralStats::default());

        let stats = structural(CommModel::Strict, 24, 200_000);
        let distinct =
            shape_stats(&cfg, &chain, CommModel::Strict, 24, 900, 200_000).distinct_shapes;
        // One structural phase per chunk: at least one chunk per in-cap
        // shape, at most one per experiment; Tarjan rides every CSR build,
        // and every seed but a chunk's first patches.
        assert_eq!(stats.tarjan_runs, stats.csr_builds);
        assert!(stats.csr_builds >= distinct as u64);
        assert!(stats.csr_builds <= 24);
        assert_eq!(stats.patched_solves, 24 - stats.csr_builds);
        // Purely spec-derived: identical on every call.
        assert_eq!(structural(CommModel::Strict, 24, 200_000), stats);

        // A cap below every shape routes everything solo (simulator): no
        // structural work is derived.
        assert_eq!(structural(CommModel::Strict, 24, 1), StructuralStats::default());
    }

    #[test]
    fn structural_stats_equal_the_summed_engine_counters() {
        // The spec replay is not a model of the schedule but the schedule
        // itself: the per-worker engine counters of a real run, summed,
        // must match it at any thread count. Cap 60 on the 3-stage family
        // mixes in-cap groups with over-cap solo seeds, and 80 seeds of 2
        // stages give groups longer than one chunk.
        let mixed = GenConfig {
            stages: 3,
            procs: 9,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        for (cfg, count, cap) in [(mixed, 24, 60), (small_cfg(), 80, 200_000)] {
            let chain = Topology::chain(cfg.stages);
            let expected = shape_stats(&cfg, &chain, CommModel::Strict, count, 5, cap).structural;
            assert!(expected.patched_solves > 0);
            for threads in [1, 2, 4] {
                let (_, measured) =
                    run_shape_sorted(&cfg, &chain, CommModel::Strict, count, 5, threads, cap, None);
                assert_eq!(measured, expected, "{}x{} threads={threads}", cfg.stages, cfg.procs);
            }
        }
        let stats =
            shape_stats(&small_cfg(), &Topology::chain(2), CommModel::Strict, 80, 5, 200_000);
        assert!(
            stats.structural.csr_builds > stats.distinct_shapes as u64,
            "80 seeds over at most 6 shapes must split some group into several chunks"
        );
    }
}
