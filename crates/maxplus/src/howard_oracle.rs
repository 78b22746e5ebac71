//! Reference Howard solver for the kernel in [`crate::workspace`].
//!
//! The functions below are the solo policy-iteration kernel as it stood
//! before the solver plan, the policy-target array and stamp-based
//! evaluation: every sweep visits every member and filters edges by
//! component id, evaluation resets a state array and re-reads λ and the
//! potential of the next vertex from memory. They differ from that code
//! only in returning the iteration count instead of adding it to the
//! telemetry counter. [`Oracle`] drives them the way `Workspace::howard`
//! did, on its own CSR and on the condensation of [`crate::scc`], so the
//! property tests at the bottom can demand **bit-identical** trajectories
//! from the rewritten kernel: the same ratio, cost, tokens and cycle, and
//! the same iteration counts.

use crate::graph::{CycleSolution, RatioGraph, RatioGraphError};
use crate::howard::RatioResult;
use crate::scc::tarjan_scc;
use crate::workspace::Csr;

/// The pre-plan `Workspace::howard` driver around the reference kernel.
#[derive(Debug, Default)]
pub(crate) struct Oracle {
    csr: Csr,
    policy: Vec<u32>,
    lambda: Vec<f64>,
    potential: Vec<f64>,
    state: Vec<u8>,
    walk_pos: Vec<u32>,
    path: Vec<u32>,
    warm_sig: Option<(usize, usize)>,
}

impl Oracle {
    /// Solves `g` cold, or warm-started from the previous converged policy
    /// when `warm` is set and the shape matches. Returns the result and the
    /// policy iterations of the converged components.
    pub(crate) fn solve(&mut self, g: &RatioGraph, warm: bool) -> (RatioResult, u64) {
        let mut iters = 0;
        let r = self.solve_counted(g, warm, &mut iters);
        (r, iters)
    }

    fn solve_counted(&mut self, g: &RatioGraph, warm: bool, iters: &mut u64) -> RatioResult {
        g.validate()?;
        let n = g.num_vertices();
        let ne = g.num_edges();
        let warm_ok = warm && self.warm_sig == Some((n, ne)) && self.policy.len() == n;
        self.warm_sig = None;
        self.csr.build(g);
        let scc = tarjan_scc(g);
        if !warm_ok {
            self.policy.clear();
            self.policy.resize(n, u32::MAX);
        }
        self.lambda.clear();
        self.lambda.resize(n, f64::NEG_INFINITY);
        self.potential.clear();
        self.potential.resize(n, 0.0);
        self.state.clear();
        self.state.resize(n, 0);
        self.walk_pos.clear();
        self.walk_pos.resize(n, 0);
        let max_iters = 64 + 8 * n + ne;
        let csr = &self.csr;
        let mut best: Option<CycleSolution> = None;
        for (c, members) in scc.members.iter().enumerate() {
            let cyclic =
                members.len() > 1 || csr.targets()[csr.range(members[0])].contains(&members[0]);
            if !cyclic {
                continue;
            }
            let (sol, it) = howard_component(
                csr,
                &scc.component,
                c as u32,
                members,
                warm_ok,
                &mut self.policy,
                &mut self.lambda,
                &mut self.potential,
                &mut self.state,
                &mut self.walk_pos,
                &mut self.path,
                max_iters,
            )?;
            *iters += it;
            if best.as_ref().is_none_or(|b| sol.ratio > b.ratio) {
                best = Some(sol);
            }
        }
        self.warm_sig = Some((n, ne));
        Ok(best)
    }
}

/// Howard's iteration on one strongly connected component, operating on
/// global vertex ids with edges filtered by component membership. All edge
/// data is read from the CSR's structure-of-arrays mirror
/// (`targets`/`costs`/`token_counts`), so the improvement loops stream
/// three contiguous arrays; `policy` holds CSR positions.
#[allow(clippy::too_many_arguments)]
fn howard_component(
    csr: &Csr,
    comp: &[u32],
    cid: u32,
    members: &[u32],
    warm_ok: bool,
    policy: &mut [u32],
    lambda: &mut [f64],
    potential: &mut [f64],
    state: &mut [u8],
    walk_pos: &mut [u32],
    path: &mut Vec<u32>,
    max_iters: usize,
) -> Result<(CycleSolution, u64), RatioGraphError> {
    let to = csr.targets();
    let cost = csr.costs();
    let tokens = csr.token_counts();

    // Improvement tolerance scaled to THIS component's costs: a huge-cost
    // component elsewhere in the graph must not inflate eps here and
    // suppress genuine improvements (per-SCC scale, as in the historical
    // per-subgraph implementation).
    let mut scale = 1.0f64;
    for &vu in members {
        for p in csr.range(vu) {
            if comp[to[p] as usize] == cid {
                scale = scale.max(cost[p].abs());
            }
        }
    }
    let eps = scale * 1e-12;

    // Policy: one in-component out-edge per vertex. Cold start picks the
    // max-cost edge (last one on ties, mirroring the historical `max_by`);
    // warm start keeps the previous policy edge when it is still valid for
    // this vertex and component (its position lies in the vertex's CSR
    // range — same-shape graphs produce identical CSR layouts, so a kept
    // position denotes the structurally same edge as in the prior solve).
    for &vu in members {
        let v = vu as usize;
        let range = csr.range(vu);
        let keep = warm_ok && {
            let p = policy[v] as usize;
            range.contains(&p) && comp[to[p] as usize] == cid
        };
        if keep {
            continue;
        }
        let mut best_p = u32::MAX;
        let mut best_cost = f64::NEG_INFINITY;
        for p in range {
            if comp[to[p] as usize] != cid {
                continue;
            }
            if cost[p] >= best_cost {
                best_cost = cost[p];
                best_p = p as u32;
            }
        }
        debug_assert!(
            best_p != u32::MAX,
            "SCC vertex must have an in-component out-edge"
        );
        policy[v] = best_p;
    }

    for iter in 0..max_iters {
        evaluate_policy(
            csr, members, policy, lambda, potential, state, walk_pos, path,
        )?;

        // Phase 1: improve by cycle-ratio value.
        let mut changed = false;
        for &vu in members {
            let v = vu as usize;
            let mut best_p = policy[v];
            let mut best_l = lambda[to[best_p as usize] as usize];
            for p in csr.range(vu) {
                if comp[to[p] as usize] != cid {
                    continue;
                }
                let l = lambda[to[p] as usize];
                if l > best_l + eps {
                    best_l = l;
                    best_p = p as u32;
                }
            }
            if best_p != policy[v] {
                policy[v] = best_p;
                changed = true;
            }
        }
        if changed {
            continue;
        }

        // Phase 2: improve by potential among edges of (near-)equal value.
        for &vu in members {
            let v = vu as usize;
            let cur = policy[v] as usize;
            let cur_val =
                cost[cur] - lambda[v] * f64::from(tokens[cur]) + potential[to[cur] as usize];
            let mut best_p = policy[v];
            let mut best_val = cur_val;
            for p in csr.range(vu) {
                let w = to[p] as usize;
                if comp[w] != cid {
                    continue;
                }
                if lambda[w] < lambda[v] - eps {
                    continue;
                }
                let val = cost[p] - lambda[v] * f64::from(tokens[p]) + potential[w];
                if val > best_val + eps {
                    best_val = val;
                    best_p = p as u32;
                }
            }
            if best_p != policy[v] {
                policy[v] = best_p;
                changed = true;
            }
        }
        if !changed {
            return Ok((
                extract_witness(csr, members, policy, lambda, state)?,
                iter as u64 + 1,
            ));
        }
    }
    Err(RatioGraphError::NoConvergence)
}

/// Evaluates a policy on one component: for every member vertex, the ratio
/// of the policy cycle it reaches (`lambda`) and a potential solving
/// `x[v] = cost − λ·tokens + x[π(v)]` along policy edges, rooted at an
/// arbitrary vertex of each policy cycle.
#[allow(clippy::too_many_arguments)]
fn evaluate_policy(
    csr: &Csr,
    members: &[u32],
    policy: &[u32],
    lambda: &mut [f64],
    potential: &mut [f64],
    state: &mut [u8],
    walk_pos: &mut [u32],
    path: &mut Vec<u32>,
) -> Result<(), RatioGraphError> {
    let to = csr.targets();
    let cost = csr.costs();
    let tok = csr.token_counts();
    // 0 = unvisited, 1 = on current walk, 2 = finished.
    for &v in members {
        state[v as usize] = 0;
    }
    for &start in members {
        if state[start as usize] != 0 {
            continue;
        }
        path.clear();
        let mut u = start;
        while state[u as usize] == 0 {
            state[u as usize] = 1;
            walk_pos[u as usize] = path.len() as u32;
            path.push(u);
            u = to[policy[u as usize] as usize];
        }

        let settle_from = if state[u as usize] == 1 {
            // New policy cycle: path[pos..] are its vertices in order.
            let pos = walk_pos[u as usize] as usize;
            let cycle = &path[pos..];
            let mut c = 0.0;
            let mut t: u64 = 0;
            for &v in cycle {
                let p = policy[v as usize] as usize;
                c += cost[p];
                t += u64::from(tok[p]);
            }
            if t == 0 {
                return Err(RatioGraphError::ZeroTokenCycle {
                    cycle: cycle.to_vec(),
                });
            }
            let lam = c / t as f64;
            // Root the potential at the cycle entry point `u = cycle[0]`.
            lambda[u as usize] = lam;
            potential[u as usize] = 0.0;
            for i in (1..cycle.len()).rev() {
                let v = cycle[i] as usize;
                let p = policy[v] as usize;
                lambda[v] = lam;
                potential[v] = cost[p] - lam * f64::from(tok[p]) + potential[to[p] as usize];
                state[v] = 2;
            }
            state[u as usize] = 2;
            pos
        } else {
            // Reached an already-settled vertex; the whole path hangs off it.
            path.len()
        };

        // Settle the tail of the walk (path[..settle_from]) backwards.
        for i in (0..settle_from).rev() {
            let v = path[i] as usize;
            let p = policy[v] as usize;
            lambda[v] = lambda[to[p] as usize];
            potential[v] = cost[p] - lambda[v] * f64::from(tok[p]) + potential[to[p] as usize];
            state[v] = 2;
        }
    }
    Ok(())
}

/// Extracts the critical circuit of the converged policy: follow the policy
/// from the member with maximal λ until a vertex repeats. Reuses `state`
/// (all members are at 2 after evaluation) with mark value 3.
fn extract_witness(
    csr: &Csr,
    members: &[u32],
    policy: &[u32],
    lambda: &[f64],
    state: &mut [u8],
) -> Result<CycleSolution, RatioGraphError> {
    let to = csr.targets();
    let cost = csr.costs();
    let tok = csr.token_counts();
    let mut start = members[0];
    for &v in &members[1..] {
        if lambda[v as usize] >= lambda[start as usize] {
            start = v;
        }
    }
    let mut u = start;
    while state[u as usize] != 3 {
        state[u as usize] = 3;
        u = to[policy[u as usize] as usize];
    }
    // `u` is on the cycle; walk it once more to collect it.
    let mut cycle = Vec::new();
    let mut c = 0.0;
    let mut t: u64 = 0;
    let first = u;
    loop {
        cycle.push(u);
        let p = policy[u as usize] as usize;
        c += cost[p];
        t += u64::from(tok[p]);
        u = to[p];
        if u == first {
            break;
        }
    }
    debug_assert!(t > 0, "converged policy cycle must carry tokens");
    Ok(CycleSolution {
        ratio: c / t as f64,
        cycle,
        cost: c,
        tokens: t,
    })
}

mod props {
    use super::Oracle;
    use crate::graph::RatioGraph;
    use crate::howard::RatioResult;
    use crate::workspace::Workspace;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use repwf_core::model::{CommModel, Instance};
    use repwf_core::tpn_build::{build_tpn, BuildError, BuildOptions};

    /// Random live graphs: a tokenized Hamiltonian ring plus random extra
    /// edges, backward/self extras always tokenized (the generator of
    /// `tests/engine_props.rs`).
    fn arb_live_graph() -> impl Strategy<Value = RatioGraph> {
        (
            proptest::collection::vec(0.1f64..100.0, 2..14),
            proptest::collection::vec((0u32..14, 0u32..14, 0.1f64..100.0, 0u32..3), 0..40),
        )
            .prop_map(|(ring, extras)| {
                let n = ring.len();
                let mut g = RatioGraph::new(n);
                for (v, cost) in ring.into_iter().enumerate() {
                    g.add_edge(v as u32, (v as u32 + 1) % n as u32, cost, 1);
                }
                for (a, b, cost, tokens) in extras {
                    let (a, b) = (a % n as u32, b % n as u32);
                    let tokens = if a >= b { tokens.max(1) } else { tokens };
                    g.add_edge(a, b, cost, tokens);
                }
                g
            })
    }

    /// Unconstrained random graphs: several SCCs, acyclic parts, parallel
    /// edges and self-loops, and zero-token circuits (error paths).
    fn arb_any_graph() -> impl Strategy<Value = RatioGraph> {
        (
            1usize..12,
            proptest::collection::vec((0u32..12, 0u32..12, -50.0f64..100.0, 0u32..3), 0..36),
        )
            .prop_map(|(n, edges)| {
                let mut g = RatioGraph::new(n);
                for (a, b, cost, tokens) in edges {
                    g.add_edge(a % n as u32, b % n as u32, cost, tokens);
                }
                g
            })
    }

    /// A same-shape cost perturbation of `g`.
    fn perturb(g: &RatioGraph, factor: f64) -> RatioGraph {
        let mut out = RatioGraph::new(g.num_vertices());
        for e in g.edges() {
            out.add_edge(e.from, e.to, e.cost * factor + 0.013, e.tokens);
        }
        out
    }

    fn assert_same(got: &RatioResult, want: &RatioResult, tag: &str) {
        match (got, want) {
            (Ok(Some(a)), Ok(Some(b))) => {
                assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "{tag}: ratio");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{tag}: cost");
                assert_eq!(a.tokens, b.tokens, "{tag}: tokens");
                assert_eq!(a.cycle, b.cycle, "{tag}: cycle");
            }
            _ => assert_eq!(got, want, "{tag}"),
        }
    }

    /// Solves a same-shape sequence cold, warm, structure-cached and on the
    /// per-SCC parallel path at threads 1/2/4, and demands the oracle's
    /// bits and iteration counts on every solve.
    fn check_sequence(seq: &[RatioGraph], tag: &str) {
        let (mut cold, mut warm, mut cached) =
            (Workspace::new(), Workspace::new(), Workspace::new());
        let (mut cold_ref, mut warm_ref) = (Oracle::default(), Oracle::default());
        for (i, g) in seq.iter().enumerate() {
            let tag = format!("{tag} #{i}");
            let (want, want_iters) = cold_ref.solve(g, false);
            let before = cold.howard_iterations();
            assert_same(&cold.max_cycle_ratio(g), &want, &format!("{tag} cold"));
            assert_eq!(
                cold.howard_iterations() - before,
                want_iters,
                "{tag} cold iterations"
            );
            for threads in [1, 2, 4] {
                let mut ws = Workspace::new();
                let got = ws.max_cycle_ratio_par(g, threads);
                assert_same(&got, &want, &format!("{tag} par {threads}"));
                if want.is_ok() {
                    assert_eq!(
                        ws.howard_iterations(),
                        want_iters,
                        "{tag} par {threads} iterations"
                    );
                }
            }

            let (want, want_iters) = warm_ref.solve(g, true);
            let before = warm.howard_iterations();
            assert_same(&warm.max_cycle_ratio_warm(g), &want, &format!("{tag} warm"));
            assert_eq!(
                warm.howard_iterations() - before,
                want_iters,
                "{tag} warm iterations"
            );
            let before = cached.howard_iterations();
            assert_same(
                &cached.max_cycle_ratio_cached(g, 1, true),
                &want,
                &format!("{tag} cached"),
            );
            assert_eq!(
                cached.howard_iterations() - before,
                want_iters,
                "{tag} cached iterations"
            );
        }
    }

    fn perturbed_sequence(g: RatioGraph) -> Vec<RatioGraph> {
        let mut seq = vec![g];
        for factor in [1.07, 0.93, 1.5, 1.0] {
            let next = perturb(&seq[seq.len() - 1], factor);
            seq.push(next);
        }
        seq
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn kernel_matches_the_oracle_on_live_graphs(g in arb_live_graph()) {
            check_sequence(&perturbed_sequence(g), "live");
        }

        #[test]
        fn kernel_matches_the_oracle_on_arbitrary_graphs(g in arb_any_graph()) {
            check_sequence(&perturbed_sequence(g), "any");
        }
    }

    /// The cycle-ratio graph of `inst`'s TPN, rebuilt as this crate's
    /// `RatioGraph` (the TPN builders link the non-test build of this crate).
    fn tpn_graph(inst: &Instance, model: CommModel) -> Option<RatioGraph> {
        let opts = BuildOptions {
            labels: false,
            max_transitions: 20_000,
        };
        let built = match build_tpn(inst, model, &opts) {
            Ok(built) => built,
            Err(BuildError::TooLarge { .. }) => return None,
            Err(e) => panic!("TPN build failed: {e:?}"),
        };
        let ext = tpn::analysis::ratio_graph(&built.net);
        let mut g = RatioGraph::new(ext.num_vertices());
        for e in ext.edges() {
            g.add_edge(e.from, e.to, e.cost, e.tokens);
        }
        Some(g)
    }

    #[test]
    fn kernel_matches_the_oracle_on_table2_and_example_tpns() {
        use repwf_core::fixtures::{example_a, example_b};
        let mut solved = 0;
        for model in [CommModel::Strict, CommModel::Overlap] {
            for (name, inst) in [("A", example_a()), ("B", example_b())] {
                let g = tpn_graph(&inst, model).expect("examples fit the cap");
                check_sequence(&perturbed_sequence(g), &format!("example {name} {model}"));
            }
        }
        for row in repwf_gen::table2_rows() {
            for &(stages, procs) in &row.sizes {
                let cfg = repwf_gen::GenConfig {
                    stages,
                    procs,
                    comp: row.comp,
                    comm: row.comm,
                };
                for seed in 0..4 {
                    let inst = repwf_gen::sample_instance(&cfg, &mut StdRng::seed_from_u64(seed));
                    let Some(g) = tpn_graph(&inst, row.model) else {
                        continue;
                    };
                    let tag = format!(
                        "{} ({stages},{procs}) {:?} seed {seed}",
                        row.model, row.comp
                    );
                    check_sequence(&perturbed_sequence(g), &tag);
                    solved += 1;
                }
            }
        }
        assert!(solved >= 40, "only {solved} Table 2 instances fit the cap");
    }
}
