//! Equivalence of the arena `PathPool` with the old per-`Vec` pool
//! semantics, and determinism of the parallel sampler.
//!
//! The pre-arena pool kept every sampled type-1 walk as its own
//! `Vec<NodeId>` (duplicates included) and handed the cover phase a
//! duplicated, per-set-allocated family. The arena pool deduplicates
//! identical paths under multiplicities and hands the cover phase a
//! weighted CSR instance. These tests re-create the old semantics from
//! first principles (`sample_target_path` over the same per-walk seeds
//! draws the identical walk multiset) and assert the two representations agree
//! *exactly*: `p_max` estimates, coverage under arbitrary invitation
//! sets, and solver outputs.

use proptest::prelude::*;
use raf_cover::{
    solve_msc, AnchorSolver, ChlamtacPortfolio, CoverInstance, ExactSolver, GreedyMarginal,
    MpuSolver, SmallestSets,
};
use raf_graph::{generators, CsrGraph, NodeId, WeightScheme};
use raf_model::reverse::{sample_target_path, TargetPath};
use raf_model::sampler::{walk_rng, PathPool, SampleRequest, CANCEL_CHECK_INTERVAL};
use raf_model::{FriendingInstance, InvitationSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Routes fixture: `s = 0`, `t = 1`, disjoint routes with the given
/// interior lengths.
fn routes_csr(lens: &[usize]) -> CsrGraph {
    generators::parallel_paths(lens).unwrap().build(WeightScheme::UniformByDegree).unwrap().to_csr()
}

/// The old pool: every sampled type-1 walk kept as its own vector, in
/// the old deterministic order (lexicographic by walk sequence). Walk
/// `i` draws from `walk_rng(seed, i)`, as the arena sampler's does.
fn reference_pool(instance: &FriendingInstance<'_>, l: u64, seed: u64) -> Vec<TargetPath> {
    let mut paths: Vec<TargetPath> = (0..l)
        .map(|i| sample_target_path(instance, &mut walk_rng(seed, i)))
        .filter(|tp| tp.is_type1())
        .collect();
    paths.sort_by(|a, b| a.nodes.cmp(&b.nodes));
    paths
}

/// The old cover instance: one sorted `Vec<u32>` per sampled path,
/// duplicates included, in pool order.
fn reference_cover(n: usize, paths: &[TargetPath]) -> CoverInstance {
    let sets: Vec<Vec<u32>> =
        paths.iter().map(|tp| tp.nodes.iter().map(|v| v.index() as u32).collect()).collect();
    CoverInstance::new(n, sets).unwrap()
}

fn arena_cover(n: usize, pool: PathPool) -> CoverInstance {
    CoverInstance::from_path_pool(n, pool).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arena pool reports the same estimates as the old pool: same
    /// `|B¹_l|`, same `p_max` estimate, and byte-equal coverage /
    /// covered-count for random invitation sets.
    #[test]
    fn arena_estimates_match_reference(
        seed in 0u64..1_000,
        l in 200u64..2_000,
        route_extra in 0usize..3,
    ) {
        let g = routes_csr(&[1, 2, 2 + route_extra]);
        let n = g.node_count();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let reference = reference_pool(&inst, l, seed);
        let arena = SampleRequest::new(l).seed(seed).run(&inst);
        prop_assert_eq!(arena.total_samples(), l);
        prop_assert_eq!(arena.type1_count(), reference.len());
        let ref_pmax = reference.len() as f64 / l as f64;
        prop_assert_eq!(arena.pmax_estimate(), ref_pmax);
        // Multiset equality: run-length encode the sorted reference.
        let total_mult: usize = arena.iter().map(|(_, m)| m as usize).sum();
        prop_assert_eq!(total_mult, reference.len());
        // Random invitation sets: coverage agrees exactly.
        let mut inv_rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        for _ in 0..8 {
            let inv = InvitationSet::from_nodes(
                n,
                (0..n).filter(|_| inv_rng.gen::<f64>() < 0.6).map(NodeId::new),
            );
            let ref_covered = reference.iter().filter(|tp| tp.covered_by(&inv)).count();
            prop_assert_eq!(arena.covered_count(&inv), ref_covered);
            prop_assert_eq!(arena.coverage(&inv), ref_covered as f64 / l as f64);
        }
    }

    /// The weighted, deduplicated cover instance produces the same solver
    /// outputs as the old duplicated family, for every portfolio arm.
    #[test]
    fn solver_outputs_match_reference(
        seed in 0u64..400,
        l in 200u64..1_500,
    ) {
        let g = routes_csr(&[1, 2, 3]);
        let n = g.node_count();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let reference = reference_pool(&inst, l, seed);
        let b1 = reference.len();
        if b1 == 0 {
            return Ok(());
        }
        let legacy = reference_cover(n, &reference);
        let arena = arena_cover(n, SampleRequest::new(l).seed(seed).run(&inst));
        prop_assert_eq!(legacy.total_weight(), arena.total_weight());
        for beta in [0.05f64, 0.3, 0.7, 1.0] {
            let p = ((beta * b1 as f64).ceil() as usize).clamp(1, b1);
            let g_legacy = GreedyMarginal::new().solve(&legacy, p).unwrap();
            let g_arena = GreedyMarginal::new().solve(&arena, p).unwrap();
            prop_assert_eq!(&g_legacy.union, &g_arena.union, "greedy diverged at p={}", p);
            let s_legacy = SmallestSets::new().solve(&legacy, p).unwrap();
            let s_arena = SmallestSets::new().solve(&arena, p).unwrap();
            prop_assert_eq!(&s_legacy.union, &s_arena.union, "smallest diverged at p={}", p);
            let a_legacy = AnchorSolver::new().solve(&legacy, p).unwrap();
            let a_arena = AnchorSolver::new().solve(&arena, p).unwrap();
            prop_assert_eq!(&a_legacy.union, &a_arena.union, "anchor diverged at p={}", p);
            let msc_legacy = solve_msc(&ChlamtacPortfolio::new(), &legacy, p).unwrap();
            let msc_arena = solve_msc(&ChlamtacPortfolio::new(), &arena, p).unwrap();
            prop_assert_eq!(&msc_legacy.elements, &msc_arena.elements,
                "portfolio MSC diverged at p={}", p);
            // Covered counts are multiplicity-weighted on the arena side
            // and duplicate-counted on the legacy side: identical.
            prop_assert_eq!(msc_legacy.covered_weight, msc_arena.covered_weight);
        }
    }
}

/// Weighted exact solver agrees with classical exact enumeration over the
/// duplicated family on a tiny pool.
#[test]
fn exact_solver_matches_reference_on_tiny_pool() {
    let g = routes_csr(&[1, 2]);
    let n = g.node_count();
    let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
    for seed in 0..10u64 {
        let l = 30;
        let reference = reference_pool(&inst, l, seed);
        let b1 = reference.len();
        // Keep C(b1, p) within the exact solver's enumeration budget.
        if b1 == 0 || b1 > 14 {
            continue;
        }
        let legacy = reference_cover(n, &reference);
        let arena = arena_cover(n, SampleRequest::new(l).seed(seed).run(&inst));
        for p in 1..=b1 {
            let e_legacy = ExactSolver::new().solve(&legacy, p).unwrap();
            let e_arena = ExactSolver::new().solve(&arena, p).unwrap();
            assert_eq!(e_legacy.cost(), e_arena.cost(), "exact cost diverged at seed={seed} p={p}");
            assert!(e_arena.verify(&arena, p));
        }
    }
}

/// Pools are identical for every thread count, whether the walks fill
/// part of one block or many blocks, and reproducible run to run.
#[test]
fn pool_determinism_across_thread_counts() {
    let g = routes_csr(&[1, 2, 3]);
    let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
    for l in [CANCEL_CHECK_INTERVAL / 2, CANCEL_CHECK_INTERVAL * 64] {
        let baseline = SampleRequest::new(l).seed(11).run(&inst);
        assert_eq!(baseline.total_samples(), l);
        for threads in [1usize, 2, 4] {
            let a = SampleRequest::new(l).seed(11).threads(threads).run(&inst);
            assert_eq!(a, baseline, "pool changed at l={l} threads={threads}");
        }
    }
}

/// The full RAF pipeline is deterministic for a fixed seed, with the
/// same answer at every thread count.
#[test]
fn raf_pipeline_deterministic_with_threads() {
    use active_friending::prelude::*;
    let g = routes_csr(&[1, 2, 3]);
    let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
    let run = |threads| {
        let cfg = RafConfig::with_alpha(0.4)
            .seed(23)
            .threads(threads)
            .budget(RealizationBudget::Fixed(20_000));
        RafAlgorithm::new(cfg).run(&inst).unwrap()
    };
    let reference = run(1);
    for threads in [1usize, 2, 4] {
        let a = run(threads);
        assert_eq!(a.invitations, reference.invitations, "threads={threads}");
        assert_eq!(a.type1_count, reference.type1_count);
        assert_eq!(a.covered, reference.covered);
    }
}
