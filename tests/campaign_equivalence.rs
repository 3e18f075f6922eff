//! Campaign equivalence properties — the contracts the multi-target
//! generalization must keep, checked through
//! [`SessionContext::campaign`], the one campaign pipeline:
//!
//! 1. **`k = 1` bit-identity.** A one-target serve campaign is the
//!    existing single-target pipeline byte for byte: [`MaxFriending`]
//!    under the same master seed derives `pair_seed(master, s, t)` (the
//!    serve cache's per-pair derivation) and reproduces the same pool,
//!    the same invitation set, and the same float estimate, across
//!    seeds, thread counts, and graph families.
//! 2. **Joint dominance.** The campaign objective never loses to the
//!    best *independent* split of the same budget — checked against
//!    genuinely independent per-target [`MaxFriending`] runs, not just
//!    the allocator's own arm bookkeeping.
//! 3. **Target-order invariance.** Permuting the caller's target list
//!    changes nothing, on the plain and the relabeled layout.
//! 4. **Structured failure.** Duplicate and unreachable targets are
//!    typed errors, never panics, and never poison session state; ties
//!    in the allocator break deterministically by target index.

use active_friending::prelude::*;
use proptest::prelude::*;
use raf_core::{MaxFriending, MaxFriendingConfig};
use raf_graph::{generators, Relabeling, SocialGraph};
use raf_model::sampler::threads_from_env;
use raf_serve::QueryRejection;
use rand::rngs::StdRng;
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

/// Picks up to `k` deterministic targets that each form a valid
/// instance with `s` and have a sampled route (pool screening is the
/// caller's job; this only guarantees structural validity).
fn pick_targets(g: &SocialGraph, s: NodeId, k: usize) -> Vec<NodeId> {
    let n = g.node_count();
    let mut targets = Vec::new();
    for t in (0..n).rev() {
        let t = NodeId::new(t);
        if t != s && !g.has_edge(s, t) && g.degree(t) > 0 {
            targets.push(t);
            if targets.len() == k {
                break;
            }
        }
    }
    targets
}

/// The serve configuration every campaign here runs under.
fn serve_config(walks: u64, seed: u64, threads: usize) -> ServeConfig {
    ServeConfig { walks, seed, threads, cache_bytes: 32 << 20, ..Default::default() }
}

/// Runs a campaign on a fresh session, tolerating unreachable targets
/// (sparse random graphs legitimately strand a pocket); `None` means the
/// cell can't be tested, not that it failed.
fn try_campaign(
    csr: &CsrGraph,
    config: ServeConfig,
    query: &CampaignQuery,
) -> Option<CampaignAnswer> {
    match SessionContext::new(csr, config).campaign(query) {
        Ok(answer) => Some(answer),
        Err(ServeError::CampaignUnreachable { .. }) => None,
        Err(other) => panic!("campaign failed structurally: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `k = 1` bit-identity: a one-target serve campaign equals the
    /// single-target [`MaxFriending`] pipeline on every byte — both seed
    /// target `t`'s pool with `pair_seed(master, s, t)`, so the
    /// single-target run takes the session's master seed.
    #[test]
    fn single_target_campaign_is_max_friending_bit_for_bit(
        family in 0u8..3,
        nodes in 60usize..140,
        master in 0u64..1_000,
        budget in 1usize..12,
    ) {
        let g = random_graph(family, nodes, master.wrapping_mul(11).wrapping_add(3));
        let csr = g.to_csr();
        let s = NodeId::new(0);
        let Some(&t) = pick_targets(&g, s, 1).first() else { return Ok(()) };
        let query = CampaignQuery { s, targets: vec![t], alpha: 0.5, budget };
        for threads in thread_matrix() {
            let Some(campaign) = try_campaign(&csr, serve_config(6_000, master, threads), &query)
            else {
                continue;
            };
            let single = MaxFriending::new(MaxFriendingConfig {
                budget,
                realizations: 6_000,
                seed: master,
                threads,
            })
            .run(&FriendingInstance::new(&csr, s, t).unwrap());
            prop_assert_eq!(
                &campaign.invitations, &single.invitations,
                "invitations diverged at threads={}", threads
            );
            prop_assert_eq!(campaign.targets[0].covered, single.covered);
            // Bit-equal floats: both sides compute covered / samples.
            prop_assert_eq!(campaign.objective, single.estimated_probability);
            prop_assert_eq!(campaign.targets[0].samples, single.realizations_used);
            // k = 1 always reports the joint arm (all arms coincide and
            // ties keep the first).
            prop_assert_eq!(campaign.arm, "joint");
        }
    }

    /// Joint dominance: the campaign objective is at least the sum of
    /// genuinely independent per-target [`MaxFriending`] runs under an
    /// equal split of the same budget (the pre-campaign way to serve k
    /// targets) — per seeded cell, not on average.
    #[test]
    fn joint_allocation_dominates_independent_splits(
        family in 0u8..3,
        nodes in 80usize..160,
        master in 0u64..1_000,
        budget in 2usize..16,
    ) {
        let g = random_graph(family, nodes, master.wrapping_mul(7).wrapping_add(1));
        let csr = g.to_csr();
        let s = NodeId::new(0);
        let targets = pick_targets(&g, s, 3);
        if targets.len() < 2 {
            return Ok(());
        }
        let query = CampaignQuery { s, targets: targets.clone(), alpha: 0.5, budget };
        let Some(campaign) = try_campaign(&csr, serve_config(6_000, master, 1), &query) else {
            return Ok(());
        };
        // The allocator's own bookkeeping: joint never loses to either
        // split arm it evaluated on the same pools.
        prop_assert!(campaign.objective >= campaign.arm_objectives[1]);
        prop_assert!(campaign.objective >= campaign.arm_objectives[2]);
        // The independent check: k separate single-target pipelines,
        // equal slices (+1 for the first budget % k targets, matching
        // the allocator's canonical-order split).
        let k = targets.len();
        let mut canonical = targets.clone();
        canonical.sort_by_key(|t| t.index());
        let mut independent = 0.0f64;
        for (i, &t) in canonical.iter().enumerate() {
            let slice = budget / k + usize::from(i < budget % k);
            let single = MaxFriending::new(MaxFriendingConfig {
                budget: slice,
                realizations: 6_000,
                seed: master,
                threads: 1,
            })
            .run(&FriendingInstance::new(&csr, s, t).unwrap());
            independent += single.estimated_probability;
        }
        prop_assert!(
            campaign.objective >= independent - 1e-12,
            "joint {} lost to independent equal split {}",
            campaign.objective,
            independent
        );
    }

    /// Target-order invariance, end to end: every permutation of the
    /// target list produces the identical answer, and the plain and
    /// hub-BFS-relabeled layouts answer identically (original-space ids
    /// throughout).
    #[test]
    fn campaigns_are_order_and_layout_invariant(
        family in 0u8..3,
        nodes in 80usize..140,
        master in 0u64..1_000,
    ) {
        let g = random_graph(family, nodes, master.wrapping_mul(13).wrapping_add(5));
        let csr = g.to_csr();
        let s = NodeId::new(0);
        let targets = pick_targets(&g, s, 3);
        if targets.len() < 2 {
            return Ok(());
        }
        let config = serve_config(4_000, master, 1);
        let query = CampaignQuery { s, targets: targets.clone(), alpha: 0.4, budget: 6 };
        let Some(reference) = try_campaign(&csr, config.clone(), &query) else {
            return Ok(());
        };
        let mut reversed = targets.clone();
        reversed.reverse();
        let mut rotated = targets.clone();
        rotated.rotate_left(1);
        for permutation in [reversed, rotated] {
            let permuted_query = CampaignQuery { targets: permutation, ..query.clone() };
            let permuted = try_campaign(&csr, config.clone(), &permuted_query)
                .expect("reachability cannot depend on target order");
            prop_assert_eq!(&permuted, &reference);
        }

        // The relabeled layout, with a permuted target list.
        let relabeling = Arc::new(Relabeling::hub_bfs(&g));
        let relabeled_csr = g.to_csr_relabeled(&relabeling);
        let mut hub_ctx = SessionContext::with_relabeling(&relabeled_csr, relabeling, config);
        let mut permuted_query = query.clone();
        permuted_query.targets.reverse();
        let hub = hub_ctx.campaign(&permuted_query).expect("layouts agree on reachability");
        prop_assert_eq!(&hub, &reference);
    }
}

/// Duplicate targets are a typed error, and the session keeps answering
/// afterward — a rejected campaign must not poison the cache or the
/// context.
#[test]
fn duplicate_targets_fail_structurally_without_killing_the_session() {
    let g = random_graph(0, 100, 42);
    let csr = g.to_csr();
    let s = NodeId::new(0);
    let targets = pick_targets(&g, s, 2);
    assert!(targets.len() == 2, "generator produced no valid pair");

    let mut ctx = SessionContext::new(&csr, serve_config(3_000, 7, 1));
    let dup = vec![targets[0], targets[1], targets[0]];
    let bad = CampaignQuery { s, targets: dup, alpha: 0.3, budget: 4 };
    let err = ctx.campaign(&bad).unwrap_err();
    assert!(matches!(
        err,
        ServeError::InvalidQuery(QueryRejection::DuplicateTarget { target })
            if target == targets[0].index()
    ));
    // The session still serves: the same targets, deduplicated, answer.
    let good = CampaignQuery { s, targets, alpha: 0.3, budget: 4 };
    match ctx.campaign(&good) {
        Ok(answer) => assert!(answer.invitations.len() <= 4),
        Err(ServeError::CampaignUnreachable { .. }) => {} // sparse cell: still structured
        Err(other) => panic!("session poisoned by the rejected campaign: {other}"),
    }
}

/// An unreachable target is a typed error naming the target and its
/// walks — never a panic, never an empty-pool unwrap.
#[test]
fn unreachable_targets_are_typed_errors() {
    // Two components: 0-1-2 and 6-7. Target 6 can never be reached
    // from source 0.
    let mut b = GraphBuilder::new();
    b.add_edges(vec![(0, 1), (1, 2), (6, 7)]).unwrap();
    let csr = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
    let mut ctx = SessionContext::new(&csr, serve_config(800, 1, 1));
    let query = CampaignQuery {
        s: NodeId::new(0),
        targets: vec![NodeId::new(2), NodeId::new(6)],
        alpha: 0.3,
        budget: 4,
    };
    let err = ctx.campaign(&query).unwrap_err();
    assert!(matches!(err, ServeError::CampaignUnreachable { target: 6, samples: 800 }));
}

/// Allocator ties break deterministically by target index: two targets
/// with byte-identical single-path pools must allocate to the
/// lower-index target's path first, every time.
#[test]
fn allocation_ties_break_by_target_index() {
    use raf_cover::{allocate_budget, BudgetTarget};
    // Two targets whose pools each hold one path of one node — node 0
    // for target 0, node 1 for target 1 — with equal weight. Budget 1
    // fits either; the tie must go to the first target.
    let a = CoverInstance::new(4, vec![vec![0]]).unwrap();
    let b = CoverInstance::new(4, vec![vec![1]]).unwrap();
    for _ in 0..8 {
        let targets = [
            BudgetTarget { sets: &a, total_samples: 100 },
            BudgetTarget { sets: &b, total_samples: 100 },
        ];
        let alloc = allocate_budget(&targets, 1).unwrap();
        assert_eq!(alloc.chosen, vec![0], "tie did not break to the first target");
        assert_eq!(alloc.per_target_covered, vec![1, 0]);
    }
}
