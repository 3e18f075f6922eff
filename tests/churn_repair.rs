//! Incremental pool repair versus resample-from-scratch.
//!
//! `repair_pool` drops exactly the stored walks that drew a step at a
//! churned endpoint and re-samples their multiplicity mass on the
//! post-delta graph. These tests pin down both halves of that contract:
//!
//! * **exactly** — conservation of the walk tally, stale-mass
//!   accounting, retention of untouched paths, byte-level determinism
//!   of the repaired arena, and the `FullResample` escape hatch when
//!   churn touches the pair — across seeds × threads;
//! * **in distribution** — a repaired pool is statistically
//!   indistinguishable from a pool sampled from scratch on the
//!   post-delta graph (up to the documented type-0 approximation:
//!   unstored dangling/cycle walks keep their old classification, a
//!   bias bounded by the type-0 share of the touched buckets).

use proptest::prelude::*;
use raf_graph::{CsrGraph, EdgeDelta, GraphBuilder, NodeId, SocialGraph, WeightScheme};
use raf_model::sampler::{repair_pool, PoolRepair, SampleRequest};
use raf_model::walk_index::EdgeWalkIndex;
use raf_model::FriendingInstance;
use std::collections::HashSet;

/// Branching fixture (`s = 0`, `t = 1`): multiple routes with shared
/// interior nodes, so churn at `{4, 5}` or `{2, 3}` invalidates a real
/// (but proper) fraction of the stored walks.
fn fixture() -> (SocialGraph, CsrGraph) {
    let mut b = GraphBuilder::new();
    b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (2, 4), (3, 5), (5, 1), (5, 4)])
        .unwrap();
    let social = b.build(WeightScheme::UniformByDegree).unwrap();
    let csr = social.to_csr();
    (social, csr)
}

/// Interior-only churn variants: none touches `s = 0` or `t = 1`.
fn interior_delta(which: usize) -> EdgeDelta {
    let specs = ["-4:5", "-2:4", "-3:5,-4:5", "+2:5"];
    EdgeDelta::parse(specs[which % specs.len()]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact repair invariants for every `(seed, threads, delta)`:
    /// the walk tally is conserved, the stale accounting matches the
    /// index, untouched paths survive with at least their multiplicity,
    /// and the repaired arena is byte-identical across repeated calls.
    #[test]
    fn repair_conserves_mass_and_is_deterministic(
        seed in 0u64..500,
        l in 1_000u64..4_000,
        threads in 1usize..5,
        which in 0usize..4,
    ) {
        let (social, pre_csr) = fixture();
        let (s, t) = (NodeId::new(0), NodeId::new(1));
        let pre_inst = FriendingInstance::new(&pre_csr, s, t).unwrap();
        let pool = SampleRequest::new(l).seed(seed).threads(threads).run(&pre_inst);
        let index = EdgeWalkIndex::build(&pool, pre_csr.node_count());

        let delta = interior_delta(which);
        let applied = delta.apply(&social, WeightScheme::UniformByDegree).unwrap();
        prop_assert!(!applied.is_noop());
        let touched = applied.touched_nodes();
        let post_csr = applied.graph.to_csr();
        let post_inst = FriendingInstance::new(&post_csr, s, t).unwrap();
        // A repair seed distinct from the pool seed, as the serve layer
        // derives one per delta generation.
        let template = SampleRequest::new(0).seed(seed ^ 0x5bd1_e995).threads(threads);

        let PoolRepair::Repaired { pool: repaired, stale_unique, resampled } =
            repair_pool(&pool, &index, &touched, &post_inst, template)
        else {
            panic!("interior churn must repair, not full-resample");
        };

        // Conservation: the repaired pool describes the same walk count.
        prop_assert_eq!(repaired.total_samples(), pool.total_samples());
        prop_assert_eq!(
            repaired.type1_count() as u64 + repaired.dangling_count() + repaired.cycle_count(),
            pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(),
        );
        // Stale accounting agrees with the index the repair consulted.
        let invalidation = index.invalidated(&pool, &touched);
        prop_assert_eq!(invalidation.stale.len(), stale_unique);
        prop_assert_eq!(invalidation.mass, resampled);
        // Type-1 mass moves by exactly (mini type-1) − (stale mass).
        let kept_mass: u64 = pool.type1_count() as u64 - invalidation.mass;
        prop_assert!(repaired.type1_count() as u64 >= kept_mass);
        // Untouched paths survive with at least their old multiplicity
        // (the mini-pool may legitimately add more of the same shape).
        let stale: HashSet<u32> = invalidation.stale.iter().copied().collect();
        for i in 0..pool.unique_count() {
            if stale.contains(&(i as u32)) {
                continue;
            }
            let kept = repaired.iter().find(|(p, _)| *p == pool.path(i));
            prop_assert!(
                kept.is_some_and(|(_, m)| m >= pool.multiplicity(i)),
                "kept path {:?} lost multiplicity", pool.path(i)
            );
        }
        // Byte-level determinism: same inputs, same arena.
        match repair_pool(&pool, &index, &touched, &post_inst, template) {
            PoolRepair::Repaired { pool: again, .. } => prop_assert_eq!(&repaired, &again),
            PoolRepair::FullResample => panic!("repair decision must be deterministic"),
        }
    }

    /// Churn touching the initiator or the target can invalidate walks
    /// the arena never stored, so the repair must refuse and direct the
    /// caller to a full resample — for every seed.
    #[test]
    fn pair_touching_churn_demands_a_full_resample(
        seed in 0u64..500,
        spec_idx in 0usize..4,
    ) {
        let spec = ["-0:2", "-3:1", "+0:5", "-0:4,+2:5"][spec_idx];
        let (social, pre_csr) = fixture();
        let (s, t) = (NodeId::new(0), NodeId::new(1));
        let pre_inst = FriendingInstance::new(&pre_csr, s, t).unwrap();
        let pool = SampleRequest::new(1_500).seed(seed).run(&pre_inst);
        let index = EdgeWalkIndex::build(&pool, pre_csr.node_count());
        let applied = EdgeDelta::parse(spec)
            .unwrap()
            .apply(&social, WeightScheme::UniformByDegree)
            .unwrap();
        let post_csr = applied.graph.to_csr();
        let post_inst = FriendingInstance::new(&post_csr, s, t).unwrap();
        let repair = repair_pool(
            &pool,
            &index,
            &applied.touched_nodes(),
            &post_inst,
            SampleRequest::new(0).seed(seed ^ 0x5bd1_e995),
        );
        prop_assert!(matches!(repair, PoolRepair::FullResample));
    }
}

/// A repaired pool is distributed like a pool sampled from scratch on
/// the post-delta graph, up to the documented type-0 approximation —
/// and the approximation error is exactly the predictable one.
///
/// The coupling argument behind the repair: run the walk generator with
/// the same random stream on the old and the new graph. Draws at
/// untouched nodes are identically distributed, and the *first* arrival
/// at a touched node is decided entirely by such draws, so the event
/// "the walk draws a step at a touched endpoint" coincides on both
/// graphs — and on its complement the two walks are the same walk.
/// Hence:
///
/// 1. **Exact**: the stored walks the repair *keeps* are distributed
///    like the from-scratch type-1 walks that avoid the touched nodes,
///    with matching mass. (`EdgeWalkIndex::invalidated` measures the
///    touched type-1 mass of any pool, so both sides are observable.)
/// 2. **Predictable bias**: the full type-1 fraction differs by
///    `E[stale/L] · p_new(type1) − p_new(type1 ∩ touch)` because stale
///    mass is redrawn from the *unconditioned* new-graph distribution
///    while unstored type-0 walks keep their old classification. The
///    observed divergence must match this prediction — nothing more.
///
/// With `l = 600` walks and 300 seeds, each estimated mean fraction has
/// standard error ≈ `sqrt(0.25 / 600) / sqrt(300)` ≈ 0.0012, so the
/// 0.01 tolerances sit at ~6σ of the null: the assertions trip on a
/// genuine distributional defect, not on noise.
#[test]
fn repair_matches_scratch_resample_in_distribution() {
    let (social, pre_csr) = fixture();
    let (s, t) = (NodeId::new(0), NodeId::new(1));
    let pre_inst = FriendingInstance::new(&pre_csr, s, t).unwrap();
    let applied =
        EdgeDelta::parse("-4:5").unwrap().apply(&social, WeightScheme::UniformByDegree).unwrap();
    let touched = applied.touched_nodes();
    let post_csr = applied.graph.to_csr();
    let post_inst = FriendingInstance::new(&post_csr, s, t).unwrap();

    let l = 600u64;
    let seeds = 300u64;
    let mut kept_t1_mean = 0.0f64;
    let mut scratch_avoid_t1_mean = 0.0f64;
    let mut repaired_t1_mean = 0.0f64;
    let mut scratch_t1_mean = 0.0f64;
    let mut stale_mean = 0.0f64;
    let mut scratch_touch_mean = 0.0f64;
    let mut total_resampled = 0u64;
    for seed in 0..seeds {
        let pool = SampleRequest::new(l).seed(seed).run(&pre_inst);
        let index = EdgeWalkIndex::build(&pool, pre_csr.node_count());
        let template = SampleRequest::new(0).seed(seed ^ 0x9e37_79b9);
        let PoolRepair::Repaired { pool: repaired, resampled, .. } =
            repair_pool(&pool, &index, &touched, &post_inst, template)
        else {
            panic!("interior churn must repair");
        };
        total_resampled += resampled;
        // A disjoint seed stream for the from-scratch control pools.
        let scratch = SampleRequest::new(l).seed(seed.wrapping_add(7_777_777)).run(&post_inst);
        let scratch_index = EdgeWalkIndex::build(&scratch, post_csr.node_count());
        let scratch_touch = scratch_index.invalidated(&scratch, &touched).mass;

        let norm = l as f64;
        kept_t1_mean += (pool.type1_count() as u64 - resampled) as f64 / norm;
        scratch_avoid_t1_mean += (scratch.type1_count() as u64 - scratch_touch) as f64 / norm;
        repaired_t1_mean += repaired.type1_count() as f64 / norm;
        scratch_t1_mean += scratch.type1_count() as f64 / norm;
        stale_mean += resampled as f64 / norm;
        scratch_touch_mean += scratch_touch as f64 / norm;
    }
    for mean in [
        &mut kept_t1_mean,
        &mut scratch_avoid_t1_mean,
        &mut repaired_t1_mean,
        &mut scratch_t1_mean,
        &mut stale_mean,
        &mut scratch_touch_mean,
    ] {
        *mean /= seeds as f64;
    }
    // The repair must have actually exercised the resample path — a
    // vacuous run (nothing invalidated anywhere) would test nothing.
    assert!(total_resampled > seeds, "churn at {{4, 5}} barely invalidated anything");
    // (1) The kept mass is distributed like the from-scratch type-1
    // mass avoiding the touched nodes — the exact half of the contract.
    assert!(
        (kept_t1_mean - scratch_avoid_t1_mean).abs() < 0.01,
        "kept walks diverged from scratch-conditioned-on-avoid: \
         {kept_t1_mean:.4} vs {scratch_avoid_t1_mean:.4}"
    );
    // (2) The full type-1 fraction differs by exactly the predicted
    // type-0 approximation bias, not by more.
    let observed_bias = repaired_t1_mean - scratch_t1_mean;
    let predicted_bias = stale_mean * scratch_t1_mean - scratch_touch_mean;
    assert!(
        (observed_bias - predicted_bias).abs() < 0.01,
        "type-1 divergence {observed_bias:+.4} strayed from the predicted \
         type-0 approximation bias {predicted_bias:+.4}"
    );
}

/// Repair commutes with the delta history: applying two interior deltas
/// one at a time (repairing after each) lands on a pool with the same
/// conserved tally as repairing the batched delta once — and both stay
/// deterministic.
#[test]
fn sequential_and_batched_repairs_conserve_identically() {
    let (social, pre_csr) = fixture();
    let (s, t) = (NodeId::new(0), NodeId::new(1));
    let pre_inst = FriendingInstance::new(&pre_csr, s, t).unwrap();
    let pool = SampleRequest::new(2_000).seed(13).run(&pre_inst);
    let tally = pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count();

    // Sequential: -4:5, repair, then -2:4 on the updated graph, repair.
    let mut social_seq = social.clone();
    let mut current = pool.clone();
    for (serial, spec) in ["-4:5", "-2:4"].iter().enumerate() {
        let applied = EdgeDelta::parse(spec)
            .unwrap()
            .apply(&social_seq, WeightScheme::UniformByDegree)
            .unwrap();
        let post_csr = applied.graph.to_csr();
        let post_inst = FriendingInstance::new(&post_csr, s, t).unwrap();
        let index = EdgeWalkIndex::build(&current, post_csr.node_count());
        let template = SampleRequest::new(0).seed(13 ^ ((serial as u64 + 1) * 0x9e37_79b9));
        let PoolRepair::Repaired { pool: repaired, .. } =
            repair_pool(&current, &index, &applied.touched_nodes(), &post_inst, template)
        else {
            panic!("interior churn must repair");
        };
        current = repaired;
        social_seq = applied.graph;
    }
    assert_eq!(
        current.type1_count() as u64 + current.dangling_count() + current.cycle_count(),
        tally,
        "sequential repairs must conserve the walk tally"
    );

    // Batched: the same two removals in one delta, one repair.
    let applied = EdgeDelta::parse("-4:5,-2:4")
        .unwrap()
        .apply(&social, WeightScheme::UniformByDegree)
        .unwrap();
    let post_csr = applied.graph.to_csr();
    let post_inst = FriendingInstance::new(&post_csr, s, t).unwrap();
    let index = EdgeWalkIndex::build(&pool, post_csr.node_count());
    let template = SampleRequest::new(0).seed(13 ^ 0x9e37_79b9);
    let PoolRepair::Repaired { pool: batched, .. } =
        repair_pool(&pool, &index, &applied.touched_nodes(), &post_inst, template)
    else {
        panic!("interior churn must repair");
    };
    assert_eq!(
        batched.type1_count() as u64 + batched.dangling_count() + batched.cycle_count(),
        tally,
        "the batched repair must conserve the walk tally"
    );
    // Both end states describe the same post-delta graph, so their pools
    // must estimate the same pmax within sampling noise of the repaired
    // mass (coarse sanity bound; the distributional test above is the
    // sharp one).
    assert!((current.pmax_estimate() - batched.pmax_estimate()).abs() < 0.1);
}
