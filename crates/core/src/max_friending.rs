//! The **maximum** active friending problem — the dual of Problem 1.
//!
//! Prior work (Yang et al. [7], Yuan et al. [6]) studies the maximization
//! version: given an invitation budget `k`, choose `I` with `|I| ≤ k`
//! maximizing `f(I)`. The paper notes `f` is *supermodular* under the LT
//! model, so plain greedy has no classical `(1−1/e)` guarantee — but the
//! realization machinery built for RAF yields a natural sampling-based
//! algorithm: maximize the number of sampled type-1 paths covered with at
//! most `k` nodes (the budgeted variant of the same cover structure).
//!
//! Two strategies are provided:
//!
//! * [`greedy_max_coverage_paths`] — whole-path greedy: repeatedly add
//!   the sampled path with the best (covered-paths gained) / (new nodes)
//!   density while the budget lasts. Because success requires *entire*
//!   paths (Lemma 2), node-by-node greedy is blind until a path
//!   completes; path-granular greedy sidesteps that plateau.
//! * [`MaxFriending`] — the full pipeline: sample a pool, run the greedy,
//!   return the invitation set and its in-pool coverage estimate.

use raf_model::sampler::{PathPool, SampleRequest};
use raf_model::{FriendingInstance, InvitationSet};
use serde::{Deserialize, Serialize};

/// Configuration for the maximization pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxFriendingConfig {
    /// Invitation budget `k` (the target `t` counts toward it).
    pub budget: usize,
    /// Realizations to sample.
    pub realizations: u64,
    /// Master RNG seed. The pool is seeded with
    /// [`FriendingInstance::pair_seed`]`(seed)`, the serve cache's
    /// per-pair seed, so a run answers what a one-target `campaign`
    /// answers at the same seed and walk count.
    pub seed: u64,
    /// Sampling threads.
    pub threads: usize,
}

impl Default for MaxFriendingConfig {
    fn default() -> Self {
        MaxFriendingConfig { budget: 10, realizations: 50_000, seed: 0, threads: 1 }
    }
}

/// Result of the maximization pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxFriendingResult {
    /// The chosen invitation set (`|I| ≤ k`).
    pub invitations: InvitationSet,
    /// In-pool estimate of `f(I)` (fraction of all sampled walks
    /// covered).
    pub estimated_probability: f64,
    /// Sampled realizations.
    pub realizations_used: u64,
    /// Type-1 paths in the pool.
    pub type1_count: usize,
    /// Paths covered by the chosen set.
    pub covered: usize,
}

/// Path-granular greedy max-coverage under a node budget: repeatedly pick
/// the sampled type-1 path with the highest (newly covered paths) per
/// (newly added node) density that still fits, until nothing fits.
///
/// Returns the chosen node set. Paths sharing nodes make this strictly
/// better than size-ordered selection: once a route's nodes are paid for,
/// every other sampled walk along that route is covered for free.
pub fn greedy_max_coverage_paths(
    instance: &FriendingInstance<'_>,
    pool: &PathPool,
    budget: usize,
) -> InvitationSet {
    let n = instance.node_count();
    if budget == 0 || pool.type1_count() == 0 {
        return InvitationSet::empty(n);
    }
    // The arena pool is already deduplicated with multiplicities and in
    // canonical (lexicographic) order, which `from_path_pool_ref`
    // preserves — so the allocator's scan order, density tie-breaks, and
    // pruning reproduce the original single-target greedy exactly. This
    // is the `k = 1` case of the campaign allocator: one shared machine
    // for both pipelines keeps them bit-identical by construction.
    let cover = raf_cover::CoverInstance::from_path_pool_ref(n, pool)
        .expect("pool node ids fit the instance's node range");
    let target =
        raf_cover::BudgetTarget { sets: &cover, total_samples: pool.total_samples().max(1) };
    let alloc = raf_cover::allocate_budget(std::slice::from_ref(&target), budget)
        .expect("a single target can always be allocated");
    InvitationSet::from_nodes(n, alloc.chosen.iter().map(|&v| raf_graph::NodeId::new(v as usize)))
}

/// The maximization pipeline (sample pool → path-greedy → report).
#[derive(Debug, Clone)]
pub struct MaxFriending {
    config: MaxFriendingConfig,
}

impl MaxFriending {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: MaxFriendingConfig) -> Self {
        MaxFriending { config }
    }

    /// Runs the pipeline.
    pub fn run(&self, instance: &FriendingInstance<'_>) -> MaxFriendingResult {
        let pool = SampleRequest::new(self.config.realizations)
            .seed(instance.pair_seed(self.config.seed))
            .threads(self.config.threads)
            .run(instance);
        let invitations = greedy_max_coverage_paths(instance, &pool, self.config.budget);
        let covered = pool.covered_count(&invitations);
        MaxFriendingResult {
            estimated_probability: pool.coverage(&invitations),
            realizations_used: pool.total_samples(),
            type1_count: pool.type1_count(),
            covered,
            invitations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{CsrGraph, GraphBuilder, NodeId, WeightScheme};
    use rand::SeedableRng;

    /// Two routes: short 0-2-3-1 (non-seed interior {3}) and long
    /// 0-4-5-6-1 (non-seed interiors {5, 6}).
    fn two_routes() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn budget_is_respected() {
        let g = two_routes();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        for budget in 0..=5 {
            let cfg = MaxFriendingConfig { budget, realizations: 10_000, seed: 1, threads: 1 };
            let res = MaxFriending::new(cfg).run(&inst);
            assert!(res.invitations.len() <= budget, "budget {budget} exceeded");
        }
    }

    #[test]
    fn picks_the_cheap_route_first() {
        let g = two_routes();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        // Budget 2 fits exactly the short route {t=1, 3}.
        let cfg = MaxFriendingConfig { budget: 2, realizations: 20_000, seed: 2, threads: 1 };
        let res = MaxFriending::new(cfg).run(&inst);
        assert!(res.invitations.contains(NodeId::new(1)));
        assert!(res.invitations.contains(NodeId::new(3)));
        // Short route probability: t selects 3 w.p. 1/2, 3 selects seed 2
        // w.p. 1/2 ⇒ 1/4.
        assert!((res.estimated_probability - 0.25).abs() < 0.02);
    }

    #[test]
    fn more_budget_never_hurts() {
        let g = two_routes();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let mut last = 0.0f64;
        for budget in [0usize, 1, 2, 4, 6] {
            let cfg = MaxFriendingConfig { budget, realizations: 20_000, seed: 3, threads: 1 };
            let res = MaxFriending::new(cfg).run(&inst);
            assert!(
                res.estimated_probability >= last - 1e-9,
                "budget {budget}: {} < {last}",
                res.estimated_probability
            );
            last = res.estimated_probability;
        }
    }

    #[test]
    fn zero_paths_gives_empty_set() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let cfg = MaxFriendingConfig { budget: 3, realizations: 1_000, seed: 4, threads: 1 };
        let res = MaxFriending::new(cfg).run(&inst);
        assert!(res.invitations.is_empty());
        assert_eq!(res.estimated_probability, 0.0);
    }

    #[test]
    fn greedy_beats_random_subset_on_pool() {
        use rand::seq::SliceRandom;
        let g = two_routes();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let pool = SampleRequest::new(20_000).seed(5).run(&inst);
        let budget = 3;
        let greedy = greedy_max_coverage_paths(&inst, &pool, budget);
        // Random budget-sized subsets of candidate nodes.
        let candidates: Vec<NodeId> = (0..g.node_count()).map(NodeId::new).collect();
        for seed in 0..10u64 {
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed);
            let mut shuffled = candidates.clone();
            shuffled.shuffle(&mut rng2);
            let random =
                InvitationSet::from_nodes(g.node_count(), shuffled.into_iter().take(budget));
            assert!(
                pool.coverage(&greedy) >= pool.coverage(&random) - 1e-12,
                "greedy lost to random seed {seed}"
            );
        }
    }

    #[test]
    fn free_paths_always_taken() {
        // Once the long route is paid, duplicate sampled paths of the same
        // route add coverage at zero cost — greedy must count them.
        let g = two_routes();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let cfg = MaxFriendingConfig { budget: 10, realizations: 20_000, seed: 6, threads: 1 };
        let res = MaxFriending::new(cfg).run(&inst);
        // With enough budget both routes are taken: estimated f equals the
        // in-pool pmax estimate.
        let expected = res.type1_count as f64 / res.realizations_used as f64;
        assert!((res.estimated_probability - expected).abs() < 1e-9);
    }
}
