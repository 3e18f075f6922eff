//! Incremental pool repair versus resample-from-scratch, and patched
//! snapshots versus rebuilt ones.
//!
//! A delta patches the graph and the CSR in place: only its endpoints'
//! rows are rewritten. `patched_snapshots_equal_rebuilt_ones` holds a
//! patched graph, CSR and pool equal to a rebuild of the post-churn edge
//! list after every delta of random streams, on the plain and hub-BFS
//! layouts and on both walk loops.
//!
//! `repair_pool` drops exactly the stored walks that drew a step at a
//! churned endpoint and re-samples their multiplicity mass on the
//! post-delta graph. The other tests pin down both halves of that
//! contract:
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
use raf_graph::{CsrGraph, EdgeDelta, GraphBuilder, NodeId, Relabeling, SocialGraph, WeightScheme};
use raf_model::sampler::{repair_pool, PoolRepair, SampleRequest, AUTO_LOCKSTEP_NODES};
use raf_model::walk_index::EdgeWalkIndex;
use raf_model::FriendingInstance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

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
        prop_assert!(!applied.effect.is_noop());
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

/// Cases of `patched_snapshots_equal_rebuilt_ones`: 12, or
/// `PROPTEST_CASES` when it asks for more (CI runs 256). The vendored
/// `ProptestConfig::with_cases` ignores the environment.
fn patch_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|raw| raw.trim().parse::<u32>().ok())
        .map_or(12, |cases| cases.max(12))
}

/// Nodes of the churned graph before padding: hubs 0 and 1, the rest
/// leaves of one hub, of both, or of none.
const PATCH_NODES: u32 = 24;

/// A hub graph drawn from `rng`: each leaf befriends each hub with
/// probability 0.6, and a few leaves befriend each other, so the graph
/// has rows of degree 0, 1 and about 14.
fn hub_edges(rng: &mut StdRng) -> BTreeSet<(u32, u32)> {
    let mut edges = BTreeSet::new();
    for leaf in 2..PATCH_NODES {
        for hub in 0..2 {
            if rng.gen_bool(0.6) {
                edges.insert((hub, leaf));
            }
        }
    }
    for _ in 0..4 {
        let (a, b) = (rng.gen_range(2..PATCH_NODES), rng.gen_range(2..PATCH_NODES));
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    edges
}

/// The graph of `edges` on `nodes` nodes, built from scratch.
fn rebuild(edges: &BTreeSet<(u32, u32)>, nodes: usize) -> SocialGraph {
    let mut b = GraphBuilder::new();
    b.add_edges(edges.iter().map(|&(u, v)| (u as usize, v as usize))).unwrap();
    b.reserve_nodes(nodes).build(WeightScheme::UniformByDegree).unwrap()
}

/// One random delta over `edges` (the current edge set): adds and
/// removes at the hubs, edges that take a node's degree between 0 and 1,
/// uniform ops that are often no-ops, and repeats or reversals of an
/// earlier op of the batch. `edges` advances op by op, in arrival order.
fn random_delta(rng: &mut StdRng, edges: &mut BTreeSet<(u32, u32)>) -> EdgeDelta {
    let mut delta = EdgeDelta::new();
    let mut ops: Vec<(bool, u32, u32)> = Vec::new();
    for _ in 0..rng.gen_range(1..6) {
        let op = match rng.gen_range(0..10) {
            0..=3 => (rng.gen_bool(0.5), rng.gen_range(0..2), rng.gen_range(2..PATCH_NODES)),
            4..=6 => {
                // A node of degree at most 1 gains an edge or loses its one.
                let degree = |v: u32| edges.iter().filter(|&&(a, b)| a == v || b == v).count();
                let low: Vec<u32> = (0..PATCH_NODES).filter(|&v| degree(v) <= 1).collect();
                let Some(&v) = low.get(rng.gen_range(0..low.len().max(1))) else { continue };
                match edges.iter().find(|&&(a, b)| a == v || b == v) {
                    Some(&(a, b)) => (false, a, b),
                    None => (true, v, rng.gen_range(0..PATCH_NODES)),
                }
            }
            7..=8 => {
                (rng.gen_bool(0.5), rng.gen_range(0..PATCH_NODES), rng.gen_range(0..PATCH_NODES))
            }
            _ => match ops.last() {
                Some(&(add, u, v)) => (if rng.gen_bool(0.5) { add } else { !add }, v, u),
                None => continue,
            },
        };
        let (add, u, v) = op;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if add {
            delta.add(u as usize, v as usize).unwrap();
            edges.insert(key);
        } else {
            delta.remove(u as usize, v as usize).unwrap();
            edges.remove(&key);
        }
        ops.push(op);
    }
    delta
}

/// A pair `(s, t)` that forms an instance on `g`, preferring a hub as
/// `s`, or `None` when there is none.
fn patch_pair(g: &SocialGraph) -> Option<(NodeId, NodeId)> {
    (0..PATCH_NODES as usize).map(NodeId::new).filter(|&s| g.degree(s) > 0).find_map(|s| {
        (0..PATCH_NODES as usize)
            .rev()
            .map(NodeId::new)
            .find(|&t| t != s && g.degree(t) > 0 && !g.has_edge(s, t))
            .map(|t| (s, t))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(patch_cases()))]

    /// After every delta of a random stream, the graph and CSR patched
    /// in place equal a rebuild of the post-churn edge list: the graph
    /// row for row, the CSR in every row, degree, `total` bit and the edge
    /// count, on the plain and hub-BFS layouts. Pools sampled on the
    /// patched and the rebuilt CSR are bit-identical, on the graph as
    /// drawn (scalar loop) and padded past `AUTO_LOCKSTEP_NODES` with
    /// isolated nodes (lockstep loop).
    #[test]
    fn patched_snapshots_equal_rebuilt_ones(seed in 0u64..100_000) {
        let start = hub_edges(&mut StdRng::seed_from_u64(seed));
        for nodes in [PATCH_NODES as usize + 2, AUTO_LOCKSTEP_NODES] {
            let initial = rebuild(&start, nodes);
            let layouts = [None, Some(Arc::new(Relabeling::hub_bfs(&initial)))];
            for relabeling in layouts {
                let build = |g: &SocialGraph| match &relabeling {
                    None => g.to_csr(),
                    Some(r) => g.to_csr_relabeled(r),
                };
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0B);
                let mut edges = start.clone();
                let mut social = initial.clone();
                let mut csr = build(&social);
                for step in 0..10u64 {
                    let before = edges.clone();
                    let delta = random_delta(&mut rng, &mut edges);
                    let effect = delta.apply_in_place(&mut social).unwrap();
                    let touched: BTreeSet<u32> = before
                        .symmetric_difference(&edges)
                        .flat_map(|&(u, v)| [u, v])
                        .collect();
                    prop_assert_eq!(
                        effect.touched_nodes(), touched.into_iter().collect::<Vec<_>>(),
                        "step {} of {}", step, delta.spec()
                    );
                    csr.patch_rows(&social, &effect.touched_nodes(), relabeling.as_deref());

                    let fresh = rebuild(&edges, nodes);
                    prop_assert_eq!(social.edge_count(), fresh.edge_count());
                    for v in fresh.nodes() {
                        prop_assert_eq!(social.neighbors(v), fresh.neighbors(v), "row {:?}", v);
                    }
                    prop_assert!(social == fresh);

                    // Each record's `scale` follows from its degree and
                    // total in a build and a patch alike, and the pools
                    // below select through it.
                    let fresh_csr = build(&fresh);
                    prop_assert_eq!(csr.edge_count(), fresh_csr.edge_count());
                    for v in fresh_csr.nodes() {
                        prop_assert_eq!(csr.neighbors(v), fresh_csr.neighbors(v), "row {:?}", v);
                        prop_assert_eq!(csr.degree(v), fresh_csr.degree(v));
                        prop_assert_eq!(
                            csr.total_in_weight(v).to_bits(),
                            fresh_csr.total_in_weight(v).to_bits()
                        );
                    }

                    let Some((s, t)) = patch_pair(&fresh) else { continue };
                    let request = SampleRequest::new(1_000).seed(seed ^ step);
                    let (patched, rebuilt) = match &relabeling {
                        None => (
                            FriendingInstance::new(&csr, s, t).unwrap(),
                            FriendingInstance::new(&fresh_csr, s, t).unwrap(),
                        ),
                        Some(r) => (
                            FriendingInstance::relabeled(&csr, s, t, Arc::clone(r)).unwrap(),
                            FriendingInstance::relabeled(&fresh_csr, s, t, Arc::clone(r)).unwrap(),
                        ),
                    };
                    prop_assert_eq!(
                        request.run(&patched), request.run(&rebuilt),
                        "pool of ({:?}, {:?}) at step {} on {} nodes", s, t, step, nodes
                    );
                }
            }
        }
    }
}
