//! Shape-batched period evaluation of mapped workflows.
//!
//! Campaign draws collapse into a handful of TPN *shapes*: the place
//! structure of a mapping's TPN is a pure function of the communication
//! model, the per-stage replica counts and the workflow's edge set, so
//! two instances with equal counts on the same precedence graph differ
//! only in firing times. A [`ShapeBatchSolver`] exploits
//! that end to end — one TPN build, one ratio-graph build, one CSR +
//! Tarjan condensation per shape, with per-instance firing-time planes
//! solved k at a time by the batched Howard kernel
//! (`maxplus::batch`, via [`tpn::analysis::PeriodBatch`]).
//!
//! Results are bit-for-bit those of a cold [`crate::engine::PeriodEngine`]
//! full-TPN solve per instance (pinned by the tests below).
//!
//! No campaign runs this solver: measured on the Table 2 families, shape-
//! sorted chunks on the engine's patch path matched it where shapes
//! repeat and beat it where they do not, because there almost every
//! chunk has one lane. It stays public because the benchmark probe under
//! `perfbench/probe` links it.

use crate::model::{CommModel, InstanceView};
use crate::tpn_build::{build_tpn_view_into, transition_times_into, BuildError, BuildOptions};
use std::collections::HashMap;
use tpn::analysis::{AnalysisError, PeriodBatch, PeriodSolution};
use tpn::net::TimedEventGraph;

/// Canonical TPN shape of a mapped workflow: communication model,
/// per-stage replica counts, and the workflow's edge set — the three
/// inputs the place structure is a pure function of.
type ShapeKey = (CommModel, Vec<usize>, Vec<(u32, u32)>);

/// Batched period solver for groups of same-shape instances.
///
/// Usage per group: [`ShapeBatchSolver::begin`] with the group's first
/// instance (builds or reuses the shared structure), then
/// [`ShapeBatchSolver::stage`] each instance's firing times, then
/// [`ShapeBatchSolver::solve`]. Hold one per worker thread and reuse
/// across groups — consecutive same-shape groups keep the whole
/// structural phase cached (counter-asserted in the tests).
#[derive(Debug, Clone)]
pub struct ShapeBatchSolver {
    opts: BuildOptions,
    net: TimedEventGraph,
    batch: PeriodBatch,
    times: Vec<f64>,
    counts: Vec<usize>,
    edges: Vec<(u32, u32)>,
    /// Canonical shape (model + replica counts + workflow edge set) →
    /// sequential key. Keys are handed to the solver workspace as
    /// structure tokens; sequential assignment (not hashes) keeps them
    /// collision-free and deterministic in one worker.
    keys: HashMap<ShapeKey, u64>,
    next_key: u64,
    /// The shape key the arena net currently holds, if any.
    built: Option<u64>,
    rows: usize,
    tpn_builds: u64,
}

impl ShapeBatchSolver {
    /// A solver whose TPN builds are capped at `max_transitions`
    /// (label-free nets, like the campaign engines).
    pub fn new(max_transitions: usize) -> Self {
        ShapeBatchSolver {
            opts: BuildOptions { labels: false, max_transitions },
            net: TimedEventGraph::new(),
            batch: PeriodBatch::new(),
            times: Vec::new(),
            counts: Vec::new(),
            edges: Vec::new(),
            keys: HashMap::new(),
            next_key: 0,
            built: None,
            rows: 0,
            tpn_builds: 0,
        }
    }

    /// Opens a batch of `k` instances shaped like `view` under `model`:
    /// resolves the canonical shape key (model, per-stage replica counts,
    /// workflow edge set), builds the shared TPN structure unless the
    /// arena already holds this shape, and sizes the cost planes. Fails
    /// like an engine build would (size cap, path-count overflow).
    pub fn begin(
        &mut self,
        view: InstanceView<'_>,
        model: CommModel,
        k: usize,
    ) -> Result<(), BuildError> {
        let mut counts = std::mem::take(&mut self.counts);
        view.mapping.replica_counts_into(&mut counts);
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        edges.extend_from_slice(view.pipeline.edges());
        let probe = (model, counts, edges);
        let key = match self.keys.get(&probe) {
            Some(&key) => {
                self.counts = probe.1;
                self.edges = probe.2;
                key
            }
            None => {
                let key = self.next_key;
                self.next_key += 1;
                self.keys.insert(probe, key);
                key
            }
        };
        if self.built != Some(key) {
            self.built = None;
            let (rows, _cols) = build_tpn_view_into(view, model, &self.opts, &mut self.net)?;
            self.rows = rows;
            self.tpn_builds += 1;
            self.built = Some(key);
        }
        self.batch.set_structure(&self.net, k, key);
        Ok(())
    }

    /// Stages instance `q` of the open batch: recomputes its firing times
    /// from `view` (bit-identical to a fresh TPN build of `view`) straight
    /// into the cost planes. `view` must share the open batch's shape.
    pub fn stage(&mut self, q: usize, view: InstanceView<'_>) {
        transition_times_into(view, self.rows, &mut self.times);
        self.batch.stage(q, &self.times);
    }

    /// Solves every staged instance in one batched Howard pass. Results
    /// are in stage order; divide each period by
    /// [`ShapeBatchSolver::rows`] (the path count `m`) for the
    /// per-data-set period, exactly as the engine does.
    pub fn solve(&mut self) -> Vec<Result<Option<PeriodSolution>, AnalysisError>> {
        self.batch.solve()
    }

    /// Number of grid rows `m` of the open batch's shape.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// TPN structure builds performed — one per distinct consecutive
    /// shape, however many instances flowed through.
    pub fn tpn_builds(&self) -> u64 {
        self.tpn_builds
    }

    /// CSR adjacency builds performed by the underlying solver workspace.
    pub fn csr_builds(&self) -> u64 {
        self.batch.csr_builds()
    }

    /// Tarjan condensation runs performed by the underlying solver
    /// workspace.
    pub fn tarjan_runs(&self) -> u64 {
        self.batch.tarjan_runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PeriodEngine;
    use crate::model::{Instance, Mapping, Pipeline, Platform};
    use crate::period::Method;

    /// Same-shape family: replica counts fixed, processor slots rotated,
    /// heterogeneous speeds so every rotation has distinct times.
    fn rotated(k: usize) -> Instance {
        let pipeline = Pipeline::new(vec![5.0, 7.0, 4.0], vec![3.0, 2.0]).unwrap();
        let mut platform = Platform::uniform(6, 1.0, 1.0);
        for u in 0..6 {
            platform.set_speed(u, 1.0 + 0.2 * u as f64);
        }
        let procs: Vec<usize> = (0..6).map(|i| (i + k) % 6).collect();
        let mapping =
            Mapping::new(vec![procs[..2].to_vec(), procs[2..5].to_vec(), procs[5..].to_vec()])
                .unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    /// Different shape on the same platform (counts 3/2/1 instead of
    /// 2/3/1).
    fn other_shape() -> Instance {
        let pipeline = Pipeline::new(vec![5.0, 7.0, 4.0], vec![3.0, 2.0]).unwrap();
        let platform = Platform::uniform(6, 1.0, 1.0);
        let mapping = Mapping::new(vec![vec![0, 1, 2], vec![3, 4], vec![5]]).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn batched_groups_match_cold_engine_bitwise_with_one_structural_phase() {
        for model in [CommModel::Strict, CommModel::Overlap] {
            let mut solver = ShapeBatchSolver::new(4_000_000);
            for round in 0..2 {
                let group: Vec<Instance> = (round * 3..round * 3 + 3).map(rotated).collect();
                solver.begin(group[0].view(), model, group.len()).unwrap();
                for (q, inst) in group.iter().enumerate() {
                    solver.stage(q, inst.view());
                }
                let m = solver.rows() as f64;
                let solved = solver.solve();
                for (q, (res, inst)) in solved.iter().zip(&group).enumerate() {
                    let sol = res.as_ref().unwrap().as_ref().unwrap();
                    let reference = PeriodEngine::new()
                        .compute(inst, model, Method::FullTpn)
                        .unwrap();
                    assert_eq!(
                        (sol.period / m).to_bits(),
                        reference.period.to_bits(),
                        "{model} round {round} q {q}"
                    );
                }
                // Two same-shape groups: one TPN build, one condensation.
                assert_eq!(
                    (solver.tpn_builds(), solver.csr_builds(), solver.tarjan_runs()),
                    (1, 1, 1),
                    "{model} round {round}"
                );
            }
            // A different shape rebuilds exactly once more.
            let other = other_shape();
            solver.begin(other.view(), model, 1).unwrap();
            solver.stage(0, other.view());
            let m = solver.rows() as f64;
            let sol = solver.solve().remove(0).unwrap().unwrap();
            let reference =
                PeriodEngine::new().compute(&other, model, Method::FullTpn).unwrap();
            assert_eq!((sol.period / m).to_bits(), reference.period.to_bits(), "{model}");
            assert_eq!(
                (solver.tpn_builds(), solver.csr_builds(), solver.tarjan_runs()),
                (2, 2, 2),
                "{model}"
            );
        }
    }

    #[test]
    fn begin_respects_the_size_cap() {
        let inst = rotated(0);
        let mut solver = ShapeBatchSolver::new(4);
        match solver.begin(inst.view(), CommModel::Strict, 1) {
            Err(BuildError::TooLarge { .. }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }
}
