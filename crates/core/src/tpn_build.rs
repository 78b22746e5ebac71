//! §3 of the paper: the timed Petri net model of a mapping, generalized
//! from the paper's linear chain to series-parallel workflows.
//!
//! The TPN is a grid of `m = lcm(m_0,…,m_{n−1})` rows — one per path of
//! Proposition 1 — and `n + E` columns: walking the stages in topological
//! order, each stage contributes its computation column followed by one
//! communication column per out-edge (ascending edge id). On a linear
//! chain (`E = n − 1`) this is exactly the paper's `2n−1`-column grid —
//! column `2i` is stage `S_i`, column `2i+1` is file `F_i` — and every
//! transition, place and label is emitted in the same order with the same
//! value, so chain nets are byte-identical to the historical builder.
//! Dependences (places) are:
//!
//! 1. **Dataflow** (both models): within a row, each edge's transfer
//!    follows its producer's computation and precedes its consumer's
//!    (Fig. 3a; on a chain this is the row order).
//! 2. **Overlap model** (Figs. 3b–3d): per-column round-robin circuits — one
//!    circuit per computing processor (stage columns), per sending port
//!    (edge columns, grouped by sender replica) and per receiving port
//!    (edge columns, grouped by receiver replica). Each circuit carries one
//!    token on its wrap-around place. Because ports are per *edge*, every
//!    circuit stays within a single column and the Theorem 1 column
//!    decomposition survives on DAGs.
//! 3. **Strict model** (Fig. 5a): one circuit per *processor* chaining its
//!    receive→compute→send sequences across its rows (the last send of one
//!    row precedes the first receive of the processor's next row), one
//!    token on the wrap-around; plus 0-token serialization places between
//!    a stage's consecutive same-row receives and consecutive same-row
//!    sends (a processor moves one file at a time). A chain stage has at
//!    most one in- and one out-edge, so chains gain no extra places.
//!
//! Construction is `O(m·(n + E))`.

use crate::model::{CommModel, Instance, InstanceView};
use crate::paths::{instance_num_paths, mapping_num_paths};
use std::fmt;
use tpn::net::{TimedEventGraph, TransitionId};

/// Options for TPN construction.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Attach human-readable labels to transitions and places (costs memory
    /// on large nets; required for DOT export and Gantt labelling).
    pub labels: bool,
    /// Refuse to build nets with more transitions than this.
    pub max_transitions: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { labels: true, max_transitions: 4_000_000 }
    }
}

/// Errors from TPN construction.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// `m·(n+E)` exceeds [`BuildOptions::max_transitions`] (the strict
    /// model has no known polynomial alternative; use the simulator).
    TooLarge {
        /// Number of TPN rows `m`.
        m: u128,
        /// Required number of transitions.
        transitions: u128,
        /// The configured cap.
        cap: usize,
    },
    /// `lcm(m_0,…,m_{n−1})` overflows `u128`.
    PathCountOverflow,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooLarge { m, transitions, cap } => write!(
                f,
                "TPN would need {transitions} transitions ({m} rows), above the cap of {cap}"
            ),
            BuildError::PathCountOverflow => write!(f, "lcm of replication factors overflows u128"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The built net plus the grid book-keeping needed to interpret it.
#[derive(Debug, Clone)]
pub struct BuiltTpn {
    /// The timed event graph.
    pub net: TimedEventGraph,
    /// Number of rows `m`.
    pub rows: usize,
    /// Number of columns `n + E` (chain: `2n−1`).
    pub cols: usize,
}

/// Transition id at grid position (row `j`, column `c`) of a row-major
/// `rows × cols` TPN grid — the single place that knows the layout
/// produced by [`build_tpn_into`].
pub fn grid_transition(cols: usize, j: usize, c: usize) -> TransitionId {
    TransitionId((j * cols + c) as u32)
}

impl BuiltTpn {
    /// Transition at grid position (row `j`, column `c`).
    pub fn at(&self, j: usize, c: usize) -> TransitionId {
        debug_assert!(j < self.rows && c < self.cols);
        grid_transition(self.cols, j, c)
    }

    /// Grid position of a transition.
    pub fn pos(&self, t: TransitionId) -> (usize, usize) {
        let i = t.0 as usize;
        (i / self.cols, i % self.cols)
    }

    /// All transitions of one column (a computation stage or a file
    /// transfer), top row first.
    pub fn column(&self, c: usize) -> Vec<TransitionId> {
        (0..self.rows).map(|j| self.at(j, c)).collect()
    }
}

fn checked_dims(view: InstanceView<'_>, opts: &BuildOptions) -> Result<(usize, usize), BuildError> {
    let m = mapping_num_paths(view.mapping).ok_or(BuildError::PathCountOverflow)?;
    let cols = (view.num_stages() + view.pipeline.num_edges()) as u128;
    let transitions = m.checked_mul(cols).ok_or(BuildError::PathCountOverflow)?;
    if transitions > opts.max_transitions as u128 {
        return Err(BuildError::TooLarge { m, transitions, cap: opts.max_transitions });
    }
    Ok((m as usize, cols as usize))
}

/// Column index of every stage and every edge in the grid layout: stages
/// in topological order, each immediately followed by its out-edge
/// columns (ascending edge id). Chain: stage `i` at `2i`, edge `i` at
/// `2i+1`.
fn column_map(view: InstanceView<'_>) -> (Vec<usize>, Vec<usize>) {
    let wf = view.pipeline;
    let n = wf.num_stages();
    let mut col_of_stage = vec![0usize; n];
    let mut col_of_edge = vec![0usize; wf.num_edges()];
    let mut c = 0;
    for (i, col) in col_of_stage.iter_mut().enumerate() {
        *col = c;
        c += 1;
        for &e in wf.out_edges(i) {
            col_of_edge[e] = c;
            c += 1;
        }
    }
    (col_of_stage, col_of_edge)
}

/// Builds the full TPN of a mapping under the given communication model.
pub fn build_tpn(inst: &Instance, model: CommModel, opts: &BuildOptions) -> Result<BuiltTpn, BuildError> {
    let mut net = TimedEventGraph::new();
    let (rows, cols) = build_tpn_into(inst, model, opts, &mut net)?;
    Ok(BuiltTpn { net, rows, cols })
}

/// [`build_tpn`] into a caller-owned net: clears `net` and rebuilds it in
/// place, reusing its transition/place buffers. Returns the grid
/// dimensions `(rows, cols)`. This is the arena primitive of
/// [`crate::engine::PeriodEngine`], which re-evaluates thousands of
/// mappings without re-allocating the net.
pub fn build_tpn_into(
    inst: &Instance,
    model: CommModel,
    opts: &BuildOptions,
    net: &mut TimedEventGraph,
) -> Result<(usize, usize), BuildError> {
    build_tpn_view_into(inst.view(), model, opts, net)
}

/// [`build_tpn_into`] on a borrowed [`InstanceView`] — no owned `Instance`
/// required, which is how the period engine evaluates candidate mappings
/// without cloning pipeline/platform/mapping.
pub fn build_tpn_view_into(
    view: InstanceView<'_>,
    model: CommModel,
    opts: &BuildOptions,
    net: &mut TimedEventGraph,
) -> Result<(usize, usize), BuildError> {
    let (rows, cols) = checked_dims(view, opts)?;
    let wf = view.pipeline;
    let n = view.num_stages();
    net.clear();

    // --- transitions, row-major in column order (stage, then out-edges) ---
    for j in 0..rows {
        for i in 0..n {
            let u = view.mapping.procs(i)[j % view.mapping.replicas(i)];
            let label = if opts.labels { format!("S{i}/P{u} r{j}") } else { String::new() };
            net.add_transition(view.comp_time(i, u), label);
            for &e in wf.out_edges(i) {
                let (_, dst) = wf.edge(e);
                let v = view.mapping.procs(dst)[j % view.mapping.replicas(dst)];
                let label =
                    if opts.labels { format!("F{e}:P{u}>P{v} r{j}") } else { String::new() };
                net.add_transition(view.comm_time(e, u, v), label);
            }
        }
    }
    let at = |j: usize, c: usize| TransitionId((j * cols + c) as u32);
    let (col_of_stage, col_of_edge) = column_map(view);

    // --- constraint 1: dataflow (both models) ---
    // Per row, per edge (producer order): computation feeds the transfer,
    // the transfer feeds the consumer's computation. On a chain this emits
    // exactly the historical row-order places c → c+1.
    for j in 0..rows {
        for i in 0..n {
            for &e in wf.out_edges(i) {
                let (src, dst) = wf.edge(e);
                let (cs, ce, cd) = (col_of_stage[src], col_of_edge[e], col_of_stage[dst]);
                let label = if opts.labels { format!("row{j} c{cs}>{ce}") } else { String::new() };
                net.add_place(at(j, cs), at(j, ce), 0, label);
                let label = if opts.labels { format!("row{j} c{ce}>{cd}") } else { String::new() };
                net.add_place(at(j, ce), at(j, cd), 0, label);
            }
        }
    }

    // Adds the round-robin circuit over `group` (ascending rows) in column
    // `c`: chain places with 0 tokens, wrap-around with 1 token. A
    // single-row group becomes a tokenized self-loop.
    let circuit = |net: &mut TimedEventGraph, group: &[usize], c_from: usize, c_to: usize, tag: &str| {
        for w in 0..group.len() {
            let (a, b) = (group[w], group[(w + 1) % group.len()]);
            let tokens = u32::from(w + 1 == group.len());
            let label = if opts.labels { format!("{tag} r{a}>r{b}") } else { String::new() };
            net.add_place(at(a, c_from), at(b, c_to), tokens, label);
        }
    };

    match model {
        CommModel::Overlap => {
            for (i, &ci) in col_of_stage.iter().enumerate() {
                let m_i = view.mapping.replicas(i);
                // constraint 2: computation round-robin per processor
                for beta in 0..m_i {
                    let group: Vec<usize> = (beta..rows).step_by(m_i).collect();
                    circuit(net, &group, ci, ci, &format!("cpu S{i}#{beta}"));
                }
                for &e in wf.out_edges(i) {
                    let (_, dst) = wf.edge(e);
                    let m_dst = view.mapping.replicas(dst);
                    let ce = col_of_edge[e];
                    // constraint 3: out-port round-robin per sender
                    for alpha in 0..m_i {
                        let group: Vec<usize> = (alpha..rows).step_by(m_i).collect();
                        circuit(net, &group, ce, ce, &format!("out F{e}#{alpha}"));
                    }
                    // constraint 4: in-port round-robin per receiver
                    for beta in 0..m_dst {
                        let group: Vec<usize> = (beta..rows).step_by(m_dst).collect();
                        circuit(net, &group, ce, ce, &format!("in F{e}#{beta}"));
                    }
                }
            }
        }
        CommModel::Strict => {
            for (i, &ci) in col_of_stage.iter().enumerate() {
                let m_i = view.mapping.replicas(i);
                let ins = wf.in_edges(i);
                let outs = wf.out_edges(i);
                // A processor moves one file at a time: serialize a
                // stage's same-row receives and sends in edge order. A
                // chain stage has ≤1 of each, so this emits nothing there.
                for j in 0..rows {
                    for w in ins.windows(2) {
                        let (a, b) = (col_of_edge[w[0]], col_of_edge[w[1]]);
                        let label =
                            if opts.labels { format!("ser in S{i} r{j}") } else { String::new() };
                        net.add_place(at(j, a), at(j, b), 0, label);
                    }
                    for w in outs.windows(2) {
                        let (a, b) = (col_of_edge[w[0]], col_of_edge[w[1]]);
                        let label =
                            if opts.labels { format!("ser out S{i} r{j}") } else { String::new() };
                        net.add_place(at(j, a), at(j, b), 0, label);
                    }
                }
                // Last operation of the processor in a row, first in the next.
                let last_col = outs.last().map_or(ci, |&e| col_of_edge[e]);
                let first_col = ins.first().map_or(ci, |&e| col_of_edge[e]);
                for beta in 0..m_i {
                    let group: Vec<usize> = (beta..rows).step_by(m_i).collect();
                    circuit(net, &group, last_col, first_col, &format!("proc S{i}#{beta}"));
                }
            }
        }
    }

    Ok((rows, cols))
}

/// Re-times a net previously produced by [`build_tpn_view_into`] for a
/// **shape-preserving** mapping change, instead of clearing and rebuilding
/// it: recomputes every transition's firing time from `view` (the same
/// expressions the builder uses, so values are bit-identical to a fresh
/// build) and patches them in place, appending the ids of transitions
/// whose time actually changed to `changed` (cleared first).
///
/// A mapping change preserves the TPN shape iff the communication model,
/// every per-stage replica count `m_i`, and the workflow's edge set are
/// unchanged — the place structure (dataflow + round-robin circuits)
/// depends only on those, so swapping which processors occupy the slots
/// only re-times transitions. The caller
/// ([`crate::engine::PeriodEngine`]) is responsible for that check; this
/// function `debug_assert`s the grid dimensions. Labels (if any) are left
/// stale — only patch label-free nets.
pub fn retime_tpn_into(
    view: InstanceView<'_>,
    net: &mut TimedEventGraph,
    changed: &mut Vec<TransitionId>,
) {
    changed.clear();
    let wf = view.pipeline;
    let n = view.num_stages();
    let cols = n + wf.num_edges();
    let rows = net.num_transitions() / cols;
    debug_assert_eq!(rows * cols, net.num_transitions(), "net is not a {cols}-column grid");
    for j in 0..rows {
        let mut c = 0;
        let mut patch = |net: &mut TimedEventGraph, time: f64| {
            let t = grid_transition(cols, j, c);
            c += 1;
            let old = net.patch(t, time);
            if old.to_bits() != time.to_bits() {
                changed.push(t);
            }
        };
        for i in 0..n {
            let u = view.mapping.procs(i)[j % view.mapping.replicas(i)];
            patch(net, view.comp_time(i, u));
            for &e in wf.out_edges(i) {
                let (_, dst) = wf.edge(e);
                let v = view.mapping.procs(dst)[j % view.mapping.replicas(dst)];
                patch(net, view.comm_time(e, u, v));
            }
        }
    }
}

/// Computes the row-major firing-time vector of the TPN grid of `view`
/// **without building a net**: `out[j·cols + c]` is the firing time
/// [`build_tpn_view_into`] would give transition `(j, c)` of a
/// `rows × (n+E)` grid — the same expressions in the same order, so the
/// values are bit-identical to a fresh build. This is the per-instance
/// staging primitive of [`crate::batch::ShapeBatchSolver`]: same-shape
/// instances share one built net (the place structure) and differ only
/// in these times.
pub fn transition_times_into(view: InstanceView<'_>, rows: usize, out: &mut Vec<f64>) {
    let wf = view.pipeline;
    let n = view.num_stages();
    let cols = n + wf.num_edges();
    out.clear();
    out.reserve(rows * cols);
    for j in 0..rows {
        for i in 0..n {
            let u = view.mapping.procs(i)[j % view.mapping.replicas(i)];
            out.push(view.comp_time(i, u));
            for &e in wf.out_edges(i) {
                let (_, dst) = wf.edge(e);
                let v = view.mapping.procs(dst)[j % view.mapping.replicas(dst)];
                out.push(view.comm_time(e, u, v));
            }
        }
    }
}

/// Builds only the sub-TPN of the transfer on edge `e` under the overlap
/// model (the restriction of the full TPN to that edge's column): `m`
/// transfer transitions with the sender and receiver round-robin
/// circuits. This is the object of the paper's Figures 9 and 10 and of
/// the Theorem 1 decomposition (on a chain, edge `i` is file `F_i`).
pub fn comm_sub_tpn(inst: &Instance, e: usize, opts: &BuildOptions) -> Result<BuiltTpn, BuildError> {
    assert!(e < inst.pipeline.num_edges(), "edge {e} out of range");
    let (src, dst) = inst.pipeline.edge(e);
    let m = instance_num_paths(inst).ok_or(BuildError::PathCountOverflow)?;
    if m > opts.max_transitions as u128 {
        return Err(BuildError::TooLarge { m, transitions: m, cap: opts.max_transitions });
    }
    let rows = m as usize;
    let m_i = inst.mapping.replicas(src);
    let m_next = inst.mapping.replicas(dst);
    let mut net = TimedEventGraph::with_capacity(rows, 2 * rows);
    for j in 0..rows {
        let u = inst.mapping.procs(src)[j % m_i];
        let v = inst.mapping.procs(dst)[j % m_next];
        let label = if opts.labels { format!("F{e}:P{u}>P{v} r{j}") } else { String::new() };
        net.add_transition(inst.comm_time(e, u, v), label);
    }
    let circuit = |net: &mut TimedEventGraph, group: &[usize], tag: &str| {
        for w in 0..group.len() {
            let (a, b) = (group[w], group[(w + 1) % group.len()]);
            let tokens = u32::from(w + 1 == group.len());
            let label = if opts.labels { format!("{tag} r{a}>r{b}") } else { String::new() };
            net.add_place(TransitionId(a as u32), TransitionId(b as u32), tokens, label);
        }
    };
    for alpha in 0..m_i {
        let group: Vec<usize> = (alpha..rows).step_by(m_i).collect();
        circuit(&mut net, &group, &format!("out#{alpha}"));
    }
    for beta in 0..m_next {
        let group: Vec<usize> = (beta..rows).step_by(m_next).collect();
        circuit(&mut net, &group, &format!("in#{beta}"));
    }
    Ok(BuiltTpn { net, rows, cols: 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};

    fn abc_instance(replicas: &[usize]) -> Instance {
        let n = replicas.len();
        let pipeline = Pipeline::new(vec![6.0; n], vec![3.0; n.saturating_sub(1)]).unwrap();
        let p: usize = replicas.iter().sum();
        let platform = Platform::uniform(p, 1.0, 1.0);
        let mut next = 0;
        let assignment: Vec<Vec<usize>> = replicas
            .iter()
            .map(|&m| {
                let v: Vec<usize> = (next..next + m).collect();
                next += m;
                v
            })
            .collect();
        Instance::new(pipeline, platform, Mapping::new(assignment).unwrap()).unwrap()
    }

    /// Diamond 0→{1,2}→3 with the given replica counts.
    fn diamond_instance(replicas: &[usize; 4]) -> Instance {
        let wf = crate::model::Workflow::from_edges(
            vec![6.0; 4],
            vec![(0, 1, 3.0), (0, 2, 3.0), (1, 3, 3.0), (2, 3, 3.0)],
        )
        .unwrap();
        let p: usize = replicas.iter().sum();
        let platform = Platform::uniform(p, 1.0, 1.0);
        let mut next = 0;
        let assignment: Vec<Vec<usize>> = replicas
            .iter()
            .map(|&m| {
                let v: Vec<usize> = (next..next + m).collect();
                next += m;
                v
            })
            .collect();
        Instance::new(wf, platform, Mapping::new(assignment).unwrap()).unwrap()
    }

    #[test]
    fn diamond_grid_dimensions() {
        let inst = diamond_instance(&[1, 2, 3, 1]);
        let built = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        assert_eq!(built.rows, 6); // lcm(1,2,3,1)
        assert_eq!(built.cols, 8); // n + E = 4 + 4
        assert_eq!(built.net.num_transitions(), 48);
    }

    #[test]
    fn diamond_place_counts_overlap() {
        // Dataflow: 2E per row. Circuits: one place per row per column
        // (stage columns: cpu; edge columns: out + in).
        let inst = diamond_instance(&[1, 2, 3, 1]);
        let built = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        let (m, n, e) = (6, 4, 4);
        assert_eq!(built.net.num_places(), m * 2 * e + n * m + e * 2 * m);
        // One token per circuit: Σ m_i + Σ_e (m_src + m_dst).
        assert_eq!(built.net.total_tokens(), (1 + 2 + 3 + 1) + (1 + 2) + (1 + 3) + (2 + 1) + (3 + 1));
    }

    #[test]
    fn diamond_place_counts_strict() {
        // Dataflow 2E·m, serialization 1·m at the fork and 1·m at the
        // join, proc circuits n·m.
        let inst = diamond_instance(&[1, 2, 3, 1]);
        let built = build_tpn(&inst, CommModel::Strict, &BuildOptions::default()).unwrap();
        let (m, n, e) = (6, 4, 4);
        assert_eq!(built.net.num_places(), m * 2 * e + 2 * m + n * m);
        assert_eq!(built.net.total_tokens(), 1 + 2 + 3 + 1);
    }

    #[test]
    fn diamond_no_sourceless_transitions() {
        let inst = diamond_instance(&[2, 3, 1, 2]);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let built = build_tpn(&inst, model, &BuildOptions::default()).unwrap();
            assert!(built.net.lint().is_empty(), "{model}: {:?}", built.net.lint());
        }
    }

    #[test]
    fn diamond_transition_times_match_built_net_bitwise() {
        let inst = diamond_instance(&[1, 2, 3, 1]);
        let opts = BuildOptions { labels: false, ..Default::default() };
        for model in [CommModel::Overlap, CommModel::Strict] {
            let built = build_tpn(&inst, model, &opts).unwrap();
            let mut times = Vec::new();
            transition_times_into(inst.view(), built.rows, &mut times);
            assert_eq!(times.len(), built.net.num_transitions());
            for (i, t) in built.net.transitions().iter().enumerate() {
                assert_eq!(times[i].to_bits(), t.firing_time.to_bits(), "{model} t{i}");
            }
        }
    }

    #[test]
    fn grid_dimensions() {
        let inst = abc_instance(&[1, 2, 3, 1]);
        let built = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        assert_eq!(built.rows, 6);
        assert_eq!(built.cols, 7);
        assert_eq!(built.net.num_transitions(), 42);
    }

    #[test]
    fn place_counts_overlap() {
        // Row places: m(2n−2). Circuits: per column, one place per row:
        // compute columns n·m places, comm columns 2m each (out + in).
        let inst = abc_instance(&[1, 2, 3, 1]);
        let built = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        let (m, n) = (6, 4);
        let expected = m * (2 * n - 2) + n * m + (n - 1) * 2 * m;
        assert_eq!(built.net.num_places(), expected);
    }

    #[test]
    fn place_counts_strict() {
        // Row places m(2n−2) + one serialization place per row per stage.
        let inst = abc_instance(&[1, 2, 3, 1]);
        let built = build_tpn(&inst, CommModel::Strict, &BuildOptions::default()).unwrap();
        let (m, n) = (6, 4);
        assert_eq!(built.net.num_places(), m * (2 * n - 2) + n * m);
    }

    #[test]
    fn token_count_matches_circuits() {
        // One token per circuit. Overlap: Σ m_i (cpu) + Σ_{i<n-1} (m_i +
        // m_{i+1}) (ports). Strict: Σ m_i.
        let inst = abc_instance(&[1, 2, 3, 1]);
        let ov = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        assert_eq!(ov.net.total_tokens(), (1 + 2 + 3 + 1) + (1 + 2) + (2 + 3) + (3 + 1));
        let st = build_tpn(&inst, CommModel::Strict, &BuildOptions::default()).unwrap();
        assert_eq!(st.net.total_tokens(), 1 + 2 + 3 + 1);
    }

    #[test]
    fn no_sourceless_transitions() {
        let inst = abc_instance(&[2, 3]);
        for model in [CommModel::Overlap, CommModel::Strict] {
            let built = build_tpn(&inst, model, &BuildOptions::default()).unwrap();
            assert!(built.net.lint().is_empty(), "{model}: {:?}", built.net.lint());
        }
    }

    #[test]
    fn single_stage_pipeline() {
        let inst = abc_instance(&[3]);
        let built = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        assert_eq!(built.cols, 1);
        assert_eq!(built.rows, 3);
        // Three processors, each a tokenized self-loop.
        assert_eq!(built.net.num_places(), 3);
        assert_eq!(built.net.total_tokens(), 3);
    }

    #[test]
    fn cap_enforced() {
        let inst = abc_instance(&[4, 5, 7, 9]); // m = 1260, transitions = 8820
        let opts = BuildOptions { labels: false, max_transitions: 100 };
        match build_tpn(&inst, CommModel::Overlap, &opts) {
            Err(BuildError::TooLarge { m, .. }) => assert_eq!(m, 1260),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn grid_round_trip() {
        let inst = abc_instance(&[1, 2]);
        let built = build_tpn(&inst, CommModel::Overlap, &BuildOptions::default()).unwrap();
        for j in 0..built.rows {
            for c in 0..built.cols {
                assert_eq!(built.pos(built.at(j, c)), (j, c));
            }
        }
    }

    #[test]
    fn sub_tpn_shape() {
        let inst = abc_instance(&[2, 3]);
        let sub = comm_sub_tpn(&inst, 0, &BuildOptions::default()).unwrap();
        assert_eq!(sub.net.num_transitions(), 6);
        // 6 sender-circuit places + 6 receiver-circuit places.
        assert_eq!(sub.net.num_places(), 12);
        assert_eq!(sub.net.total_tokens(), 5); // 2 sender + 3 receiver circuits
    }

    #[test]
    fn transition_times_match_built_net_bitwise() {
        let inst = abc_instance(&[1, 2, 3, 1]);
        let opts = BuildOptions { labels: false, ..Default::default() };
        for model in [CommModel::Overlap, CommModel::Strict] {
            let built = build_tpn(&inst, model, &opts).unwrap();
            let mut times = Vec::new();
            transition_times_into(inst.view(), built.rows, &mut times);
            assert_eq!(times.len(), built.net.num_transitions());
            for (i, t) in built.net.transitions().iter().enumerate() {
                assert_eq!(times[i].to_bits(), t.firing_time.to_bits(), "{model} t{i}");
            }
        }
    }

    #[test]
    fn labels_can_be_disabled() {
        let inst = abc_instance(&[1, 2]);
        let opts = BuildOptions { labels: false, ..Default::default() };
        let built = build_tpn(&inst, CommModel::Overlap, &opts).unwrap();
        assert!(built.net.transitions().iter().all(|t| t.label.is_empty()));
    }
}
