//! Batched-campaign determinism properties (the PR's acceptance criteria):
//!
//! * for random `(count, threads, model, seed_base)`, the shape-batched
//!   campaign is **byte-identical** (every outcome field, floats compared
//!   by bit pattern) to the per-instance campaign — mixed-shape draws
//!   exercise the grouped scheduling, and the single-thread unbatched run
//!   is the reference so no schedule can hide in the comparison;
//! * with a tiny TPN size cap, simulator-era draws route through the
//!   per-instance fallback and the byte identity still holds — the
//!   batched runner must split every campaign into batchable and solo
//!   work without perturbing either side;
//! * on a Table 2 large-shape family, where almost every shape group has
//!   one member, and on a small family whose groups outgrow one chunk
//!   while the cap sends its biggest shape solo, outcomes still equal
//!   the per-instance campaign at threads {1, 2, 4}.

use proptest::prelude::*;
use repwf_core::model::CommModel;
use repwf_gen::campaign::{run_campaign, run_campaign_batched, shape_stats, CampaignResult};
use repwf_gen::{GenConfig, Range, Topology};

/// Mixed-shape configuration: 3 stages over 9 processors draw many
/// distinct replica-count vectors, so campaigns route into several batch
/// groups (plus singletons).
fn mixed_cfg() -> GenConfig {
    GenConfig {
        stages: 3,
        procs: 9,
        comp: Range::new(5.0, 15.0),
        comm: Range::new(5.0, 15.0),
    }
}

/// Asserts full bitwise equality of two campaign results, field by field
/// (`PartialEq` on f64 would accept `-0.0 == 0.0`; the bit compare below
/// would not — and names the diverging seed when it fires).
fn assert_bitwise_eq(batched: &CampaignResult, reference: &CampaignResult, tag: &str) {
    assert_eq!(batched.outcomes.len(), reference.outcomes.len(), "{tag}");
    for (b, r) in batched.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(b.seed, r.seed, "{tag}");
        assert_eq!(b.resolution, r.resolution, "{tag} seed {}", r.seed);
        assert_eq!(b.num_paths, r.num_paths, "{tag} seed {}", r.seed);
        assert_eq!(b.mct.to_bits(), r.mct.to_bits(), "{tag} seed {} mct", r.seed);
        assert_eq!(b.period.to_bits(), r.period.to_bits(), "{tag} seed {} period", r.seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batched_campaign_is_bitwise_the_unbatched_one(
        count in 0usize..22,
        threads in 1usize..5,
        seed_base in 1u64..5000,
    ) {
        let cfg = mixed_cfg();
        for model in [CommModel::Strict, CommModel::Overlap] {
            let reference = run_campaign(&cfg, model, count, seed_base, 1, 200_000);
            let batched =
                run_campaign_batched(&cfg, model, count, seed_base, threads, 200_000);
            assert_bitwise_eq(
                &batched,
                &reference,
                &format!("{model} count={count} threads={threads} seeds={seed_base}"),
            );
        }
    }

    #[test]
    fn batched_campaign_matches_with_simulator_era_instances(
        count in 1usize..16,
        threads in 1usize..4,
        seed_base in 1u64..3000,
    ) {
        // Cap of 60 transitions: 3-stage draws build 5 columns, so shapes
        // with lcm > 12 overflow the cap and take the simulator fallback —
        // mixed batch/solo campaigns at nearly every draw.
        let cfg = mixed_cfg();
        let reference = run_campaign(&cfg, CommModel::Strict, count, seed_base, 1, 60);
        let batched =
            run_campaign_batched(&cfg, CommModel::Strict, count, seed_base, threads, 60);
        assert_bitwise_eq(
            &batched,
            &reference,
            &format!("count={count} threads={threads} seeds={seed_base}"),
        );
    }

    #[test]
    fn batched_campaign_matches_on_a_large_shape_family(
        count in 1usize..10,
        seed_base in 1u64..100_000,
    ) {
        // Table 2's (10,20) strict family: shapes almost never repeat, so
        // nearly every chunk is a single rebuild solve.
        let cfg = GenConfig {
            stages: 10,
            procs: 20,
            comp: Range::new(5.0, 15.0),
            comm: Range::new(5.0, 15.0),
        };
        let reference = run_campaign(&cfg, CommModel::Strict, count, seed_base, 1, 2_000_000);
        for threads in [1, 2, 4] {
            let batched =
                run_campaign_batched(&cfg, CommModel::Strict, count, seed_base, threads, 2_000_000);
            assert_bitwise_eq(
                &batched,
                &reference,
                &format!("(10,20) count={count} threads={threads} seeds={seed_base}"),
            );
        }
    }

    #[test]
    fn batched_campaign_matches_when_groups_span_several_chunks(
        count in 80usize..120,
        seed_base in 1u64..100_000,
    ) {
        // (2,6) draws the shapes (3,3), (2,4), (4,2), (1,5) and (5,1); 80+
        // seeds put about 30 in the (3,3) group, beyond one 16-seed chunk.
        // Cap 12 keeps (3,3) and (2,4) (9 and 12 transitions) and sends
        // (1,5) (15) to the simulator.
        let cfg = GenConfig {
            stages: 2,
            procs: 6,
            comp: Range::constant(1.0),
            comm: Range::new(5.0, 10.0),
        };
        let cap = 12;
        let reference = run_campaign(&cfg, CommModel::Strict, count, seed_base, 1, cap);
        let stats =
            shape_stats(&cfg, &Topology::chain(2), CommModel::Strict, count, seed_base, cap);
        prop_assert_eq!(
            stats.structural.csr_builds + stats.structural.patched_solves,
            (count - reference.count_simulated()) as u64
        );
        for threads in [1, 2, 4] {
            let batched =
                run_campaign_batched(&cfg, CommModel::Strict, count, seed_base, threads, cap);
            assert_bitwise_eq(
                &batched,
                &reference,
                &format!("(2,6) count={count} threads={threads} seeds={seed_base}"),
            );
        }
    }
}
