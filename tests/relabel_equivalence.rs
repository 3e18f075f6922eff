//! Relabeling isomorphism property: a relabeled CSR layout — the
//! serving benchmark's hub-BFS order, and a random permutation so the
//! property is checked beyond any one order — is
//! *observationally invisible*. Sampling and solving on a relabeled
//! snapshot must yield identical acceptance estimates, identical pool
//! multiplicity histograms, and identical (mapped-back) invitation sets
//! as the plain snapshot — exactly, not within tolerance, because
//! relabeled snapshots keep neighbor slices in image order and walks
//! therefore commute with the permutation draw for draw.
//!
//! Thread counts cover {1, 4} plus whatever `RAF_THREADS` the CI matrix
//! sets, so the per-thread interner merge is exercised under relabeling
//! too.

use proptest::prelude::*;
use raf_graph::{generators, NodeId, Relabeling, SocialGraph, WeightScheme};
use raf_model::pmax::estimate_pmax_fixed;
use raf_model::sampler::{threads_from_env, SampleRequest};
use raf_model::{acceptance::estimate_acceptance, FriendingInstance, InvitationSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// The thread counts every property is checked under.
fn thread_matrix() -> Vec<usize> {
    let mut threads = vec![1usize, 4];
    let env = threads_from_env();
    if !threads.contains(&env) {
        threads.push(env);
    }
    threads
}

/// The layouts every property is checked on: hub-BFS and a random
/// permutation drawn from `seed`.
fn layouts(g: &SocialGraph, seed: u64) -> [(&'static str, Arc<Relabeling>); 2] {
    let mut order: Vec<NodeId> = (0..g.node_count()).map(NodeId::new).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0DE5));
    [
        ("hub_bfs", Arc::new(Relabeling::hub_bfs(g))),
        ("random", Arc::new(Relabeling::from_order(&order))),
    ]
}

/// A random connected-ish social graph from the generator families.
fn random_graph(family: u8, nodes: usize, seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let builder = match family % 3 {
        0 => generators::powerlaw_cluster(nodes, 2, 0.3, &mut rng).unwrap(),
        1 => generators::erdos_renyi_gnp(nodes, 8.0 / nodes as f64, &mut rng).unwrap(),
        _ => generators::barabasi_albert(nodes, 3, &mut rng).unwrap(),
    };
    builder.build(WeightScheme::UniformByDegree).unwrap()
}

/// Picks a deterministic `(s, t)` pair that forms a valid instance, or
/// `None` when the graph has no such pair.
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

/// Sorted multiset of path multiplicities — the histogram the satellite
/// task names explicitly.
fn multiplicity_histogram(pool: &raf_model::sampler::PathPool) -> Vec<u32> {
    let mut hist: Vec<u32> = (0..pool.unique_count()).map(|i| pool.multiplicity(i)).collect();
    hist.sort_unstable();
    hist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pools sampled on every layout are bit-identical to the plain
    /// layout's: same unique paths in the same canonical order, same
    /// multiplicity histogram, same implied acceptance estimates — for
    /// the hub-BFS order and a random permutation alike.
    #[test]
    fn pools_and_estimates_are_layout_invariant(
        seed in 0u64..500,
        family in 0u8..3,
        nodes in 60usize..160,
    ) {
        let social = random_graph(family, nodes, seed);
        let Some((s, t)) = pick_pair(&social) else { return Ok(()); };
        let plain_csr = social.to_csr();
        let plain = FriendingInstance::new(&plain_csr, s, t).unwrap();
        for (order, relabeling) in layouts(&social, seed) {
            let relabeled_csr = social.to_csr_relabeled(&relabeling);
            let relabeled =
                FriendingInstance::relabeled(&relabeled_csr, s, t, relabeling.clone()).unwrap();
            for threads in thread_matrix() {
                let walks = 6_000u64;
                let a =
                    SampleRequest::new(walks).seed(seed ^ 0x51).threads(threads).run(&plain);
                let b =
                    SampleRequest::new(walks).seed(seed ^ 0x51).threads(threads).run(&relabeled);
                // Identical pools ⇒ identical multiplicity histograms and
                // identical pmax/coverage estimates, but assert the named
                // observables explicitly for the stronger failure message.
                prop_assert_eq!(multiplicity_histogram(&a), multiplicity_histogram(&b),
                    "multiplicity histogram diverged ({}, threads={})", order, threads);
                prop_assert_eq!(a.pmax_estimate(), b.pmax_estimate(),
                    "pmax estimate diverged ({}, threads={})", order, threads);
                prop_assert_eq!(&a, &b, "pools diverged ({}, threads={})", order, threads);
                // Acceptance estimates against a shared invitation set.
                let full = InvitationSet::full(social.node_count());
                prop_assert_eq!(a.coverage(&full), b.coverage(&full));
            }
            // Per-walk estimators agree too (sample_target_path maps back).
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0x9);
            let mut rng_b = StdRng::seed_from_u64(seed ^ 0x9);
            let pa = estimate_pmax_fixed(&plain, 2_000, &mut rng_a);
            let pb = estimate_pmax_fixed(&relabeled, 2_000, &mut rng_b);
            prop_assert_eq!(pa, pb, "fixed pmax estimator diverged ({})", order);
        }
    }

    /// The full Alg. 4 pipeline — parameters, pmax phase, pool, cover
    /// solve — returns the identical invitation set (already mapped back
    /// to original ids) on every layout, across seeds and thread counts.
    #[test]
    fn raf_invitation_sets_are_layout_invariant(
        seed in 0u64..200,
        family in 0u8..3,
        nodes in 60usize..140,
    ) {
        use raf_core::{CoreError, RafAlgorithm, RafConfig, RealizationBudget};
        let social = random_graph(family, nodes, seed);
        let Some((s, t)) = pick_pair(&social) else { return Ok(()); };
        let plain_csr = social.to_csr();
        let plain = FriendingInstance::new(&plain_csr, s, t).unwrap();
        for (order, relabeling) in layouts(&social, seed) {
            let relabeled_csr = social.to_csr_relabeled(&relabeling);
            let relabeled =
                FriendingInstance::relabeled(&relabeled_csr, s, t, relabeling.clone()).unwrap();
            for threads in thread_matrix() {
                let cfg = RafConfig::with_alpha(0.3)
                    .seed(seed ^ 0xAB)
                    .threads(threads)
                    .budget(RealizationBudget::Fixed(8_000));
                let a = RafAlgorithm::new(cfg.clone()).run(&plain);
                let b = RafAlgorithm::new(cfg).run(&relabeled);
                match (a, b) {
                    (Ok(ra), Ok(rb)) => {
                        prop_assert_eq!(&ra.invitations, &rb.invitations,
                            "invitation sets diverged ({}, threads={})", order, threads);
                        prop_assert_eq!(ra.type1_count, rb.type1_count);
                        prop_assert_eq!(ra.cover_p, rb.cover_p);
                        prop_assert_eq!(ra.covered, rb.covered);
                        prop_assert_eq!(ra.pmax_estimate, rb.pmax_estimate);
                        prop_assert_eq!(ra.vmax_size, rb.vmax_size);
                        // The acceptance estimate of the (shared) solution
                        // is likewise layout-independent.
                        let mut ea = StdRng::seed_from_u64(seed ^ 0x77);
                        let mut eb = StdRng::seed_from_u64(seed ^ 0x77);
                        let fa = estimate_acceptance(&plain, &ra.invitations, 3_000, &mut ea);
                        let fb = estimate_acceptance(&relabeled, &rb.invitations, 3_000, &mut eb);
                        prop_assert_eq!(fa, fb,
                            "acceptance estimate diverged ({})", order);
                    }
                    (Err(CoreError::TargetUnreachable { .. }),
                     Err(CoreError::TargetUnreachable { .. })) => {}
                    (a, b) => prop_assert!(false,
                        "layouts disagree on failure ({}): plain={:?} relabeled={:?}",
                        order,
                        a.map(|r| r.invitation_size()), b.map(|r| r.invitation_size())),
                }
            }
        }
    }
}

/// `V_max` and the baselines report original-space sets on relabeled
/// instances — byte-equal to the plain layout's, whatever the order.
#[test]
fn vmax_and_baselines_are_layout_invariant() {
    use raf_core::baselines::{Baseline, HighDegree};
    use raf_core::vmax_exact;
    for seed in [3u64, 17, 90] {
        let social = random_graph(seed as u8, 90, seed);
        let Some((s, t)) = pick_pair(&social) else { continue };
        let plain_csr = social.to_csr();
        let plain = FriendingInstance::new(&plain_csr, s, t).unwrap();
        for (order, relabeling) in layouts(&social, seed) {
            let relabeled_csr = social.to_csr_relabeled(&relabeling);
            let relabeled =
                FriendingInstance::relabeled(&relabeled_csr, s, t, relabeling.clone()).unwrap();
            assert_eq!(
                vmax_exact(&plain),
                vmax_exact(&relabeled),
                "V_max diverged at seed {seed} ({})",
                order
            );
            // HD ranks by (degree, id); degrees are isomorphism-invariant
            // and ties in *original* id order differ from relabeled
            // order, so compare only the degree multiset of the chosen
            // sets — and the target membership contract.
            let a = HighDegree::new().build(&plain, 5);
            let b = HighDegree::new().build(&relabeled, 5);
            assert_eq!(a.len(), b.len());
            assert!(a.contains(t) && b.contains(t));
            let degrees = |inv: &InvitationSet| {
                let mut d: Vec<usize> = inv.iter().map(|v| plain_csr.degree(v)).collect();
                d.sort_unstable();
                d
            };
            assert_eq!(
                degrees(&a),
                degrees(&b),
                "HD degree profile diverged at seed {seed} ({})",
                order
            );
        }
    }
}
