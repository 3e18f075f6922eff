//! The sampler's determinism model, checked through the public API: walk
//! `i` draws only from `walk_rng(seed, i)`, so a pool is a pure function
//! of `(instance, walks, seed, max_steps)`. Thread count, layout and walk
//! loop are execution choices that never change it.
//!
//! The sampler runs the scalar loop below [`AUTO_LOCKSTEP_NODES`] nodes
//! and the lockstep loop from there on. Padding a graph with isolated
//! nodes up to the threshold flips the loop but changes no walk: an
//! isolated node is nobody's neighbor, and the padding only appends ids,
//! so every original node keeps its id, its degree and so its weights.
//! So every property samples each graph twice, as generated and padded,
//! and demands the same pool from both:
//!
//! * at every thread count;
//! * on relabeled layouts, hub-BFS and a random permutation (pools are
//!   always in original ids);
//! * under a step budget, which truncates at a block boundary to exactly
//!   the unbudgeted pool of its own walk count;
//! * and a longer request extends a shorter one: walk `i` is the same
//!   walk in every request of a seed.
//!
//! The serve-layer byte-exact fixtures rely on this: CI replays each
//! committed batch at `--threads 1` and `--threads 4` against one file.
//! (`raf_model::sampler`'s unit tests also run both loops directly on one
//! instance, including one whose walks spill past the walk scratch's
//! fixed array.) Each property runs 12 cases, or `PROPTEST_CASES` when
//! that is more; CI runs it at 256.

use proptest::prelude::*;
use raf_graph::{generators, GraphBuilder, NodeId, Relabeling, SocialGraph, WeightScheme};
use raf_model::sampler::{
    threads_from_env, PathPool, SampleControl, SampleRequest, AUTO_LOCKSTEP_NODES,
    CANCEL_CHECK_INTERVAL,
};
use raf_model::FriendingInstance;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A random graph's edges from the generator families (same recipe as
/// the relabeling equivalence suite, so failures are comparable).
fn random_builder(family: u8, nodes: usize, seed: u64) -> GraphBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => generators::powerlaw_cluster(nodes, 2, 0.3, &mut rng).unwrap(),
        1 => generators::erdos_renyi_gnp(nodes, 8.0 / nodes as f64, &mut rng).unwrap(),
        _ => generators::barabasi_albert(nodes, 3, &mut rng).unwrap(),
    }
}

/// The relabeled layouts the kernels are checked on: hub-BFS and a
/// random permutation drawn from `seed` (same recipe as the relabeling
/// equivalence suite).
fn layouts(g: &SocialGraph, seed: u64) -> [(&'static str, Arc<Relabeling>); 2] {
    let mut order: Vec<NodeId> = (0..g.node_count()).map(NodeId::new).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0DE5));
    [
        ("hub_bfs", Arc::new(Relabeling::hub_bfs(g))),
        ("random", Arc::new(Relabeling::from_order(&order))),
    ]
}

/// The graph of `builder` twice: as generated, which the sampler walks
/// with the scalar loop, and padded with isolated nodes up to
/// [`AUTO_LOCKSTEP_NODES`], which it walks with the lockstep loop.
fn scalar_and_lockstep_graphs(mut builder: GraphBuilder) -> (SocialGraph, SocialGraph) {
    let small = builder.build(WeightScheme::UniformByDegree).unwrap();
    let padded =
        builder.reserve_nodes(AUTO_LOCKSTEP_NODES).build(WeightScheme::UniformByDegree).unwrap();
    assert!(small.node_count() < AUTO_LOCKSTEP_NODES, "the small graph must take the scalar loop");
    assert!(padded.node_count() >= AUTO_LOCKSTEP_NODES, "padding must reach the lockstep loop");
    (small, padded)
}

/// Picks a deterministic `(s, t)` pair that forms a valid instance, or
/// `None` when the graph has no such pair (same rule as the relabeling
/// equivalence suite).
fn pick_pair(g: &SocialGraph) -> Option<(NodeId, NodeId)> {
    let n = g.node_count();
    for s in 0..n.min(8) {
        let s = NodeId::new(s);
        if g.degree(s) == 0 {
            continue;
        }
        for t in (0..n).rev().take(16) {
            let t = NodeId::new(t);
            if t != s && !g.has_edge(s, t) && g.degree(t) > 0 {
                return Some((s, t));
            }
        }
    }
    None
}

/// The thread counts every property is checked under.
fn thread_matrix() -> Vec<usize> {
    let mut threads = vec![1usize, 2, 4];
    let env = threads_from_env();
    if !threads.contains(&env) {
        threads.push(env);
    }
    threads
}

/// Whether `longer` keeps every walk of `shorter`: each tally at least as
/// large, and each path with at least its multiplicity.
fn extends(longer: &PathPool, shorter: &PathPool) -> bool {
    longer.type1_count() >= shorter.type1_count()
        && longer.dangling_count() >= shorter.dangling_count()
        && longer.cycle_count() >= shorter.cycle_count()
        && shorter.iter().all(|(path, mult)| longer.iter().any(|(p, m)| p == path && m >= mult))
}

/// Cases per property: 12, or `PROPTEST_CASES` when it asks for more.
/// The vendored `ProptestConfig::with_cases` ignores the environment, so
/// CI's deeper run (`PROPTEST_CASES=256`) goes through here, and no
/// setting runs fewer cases than the default 12.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|raw| raw.trim().parse::<u32>().ok())
        .map_or(12, |cases| cases.max(12))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Scalar and lockstep pools are bit-identical at every thread count,
    /// and a longer request extends a shorter one.
    #[test]
    fn kernels_agree_across_lanes_and_threads(
        family in 0u8..3,
        seed in 0u64..1_000,
        walks in 2_000u64..8_000,
    ) {
        let (small, padded) = scalar_and_lockstep_graphs(random_builder(family, 220, seed));
        let Some((s, t)) = pick_pair(&small) else { return Ok(()); };
        let (small_csr, padded_csr) = (small.to_csr(), padded.to_csr());
        let scalar = FriendingInstance::new(&small_csr, s, t).unwrap();
        let lockstep = FriendingInstance::new(&padded_csr, s, t).unwrap();
        let request = SampleRequest::new(walks).seed(seed ^ 0xA11);
        let reference = request.run(&scalar);
        prop_assert_eq!(reference.total_samples(), walks);
        for threads in thread_matrix() {
            for (name, inst) in [("scalar", &scalar), ("lockstep", &lockstep)] {
                prop_assert_eq!(
                    &reference, &request.threads(threads).run(inst),
                    "{} pool diverged at threads={}", name, threads
                );
            }
        }
        let shorter = request.with_walks(walks / 3).threads(4).run(&lockstep);
        prop_assert!(extends(&reference, &shorter), "a longer request lost walks");
    }

    /// A step budget truncates at a block boundary, identically across
    /// loops × thread counts, and the truncated pool is the unbudgeted
    /// pool of its own walk count.
    #[test]
    fn budget_truncation_is_kernel_independent(
        family in 0u8..3,
        seed in 0u64..1_000,
        budget in 500u64..6_000,
    ) {
        let (small, padded) = scalar_and_lockstep_graphs(random_builder(family, 220, seed));
        let Some((s, t)) = pick_pair(&small) else { return Ok(()); };
        let (small_csr, padded_csr) = (small.to_csr(), padded.to_csr());
        let scalar = FriendingInstance::new(&small_csr, s, t).unwrap();
        let lockstep = FriendingInstance::new(&padded_csr, s, t).unwrap();
        let control = SampleControl { max_steps: Some(budget), deadline: None, probe: None };
        let walks = 20_000u64;
        let unbudgeted = SampleRequest::new(walks).seed(seed ^ 0xB5D);
        let request = unbudgeted.control(&control);
        let reference = request.run(&scalar);
        prop_assert!(reference.total_samples() <= walks);
        prop_assert!(
            reference.total_samples() == walks
                || reference.total_samples() % CANCEL_CHECK_INTERVAL == 0,
            "truncated off a block boundary at {} walks", reference.total_samples()
        );
        let prefix = unbudgeted.with_walks(reference.total_samples());
        for threads in thread_matrix() {
            for (name, inst) in [("scalar", &scalar), ("lockstep", &lockstep)] {
                prop_assert_eq!(
                    &reference, &request.threads(threads).run(inst),
                    "{} truncated pool diverged at threads={}", name, threads
                );
                prop_assert_eq!(
                    &reference, &prefix.threads(threads).run(inst),
                    "{} truncated pool is not its walk count's pool at threads={}", name, threads
                );
            }
        }
    }

    /// Relabeled CSR layouts: hub-BFS and a random permutation of the
    /// graph, as generated (scalar loop) and padded (lockstep loop),
    /// sample the same original-space pool as the plain graph at every
    /// thread count.
    #[test]
    fn kernels_commute_with_relabeling(
        family in 0u8..3,
        seed in 0u64..500,
    ) {
        let (small, padded) = scalar_and_lockstep_graphs(random_builder(family, 180, seed));
        let Some((s, t)) = pick_pair(&small) else { return Ok(()); };
        let small_csr = small.to_csr();
        let plain = FriendingInstance::new(&small_csr, s, t).unwrap();
        let request = SampleRequest::new(5_000).seed(seed ^ 0x1E1);
        let reference = request.run(&plain);
        for (name, graph) in [("scalar", &small), ("lockstep", &padded)] {
            for (order, relabeling) in layouts(graph, seed) {
                let relabeled_csr = graph.to_csr_relabeled(&relabeling);
                let relabeled =
                    FriendingInstance::relabeled(&relabeled_csr, s, t, relabeling).unwrap();
                for threads in thread_matrix() {
                    prop_assert_eq!(
                        &reference, &request.threads(threads).run(&relabeled),
                        "{} pool diverged under {} at threads={}", name, order, threads
                    );
                }
            }
        }
    }
}
