//! Multi-target friending **campaigns**: one source, `k` targets, one
//! shared invitation budget.
//!
//! The related work treats one-target friending as the degenerate case —
//! the production shape is a campaign that allocates a single invitation
//! budget across several objectives by marginal gain. A
//! [`CampaignInstance`] validates the `(G, s, {t₁…tₖ})` tuple (each pair
//! is a [`FriendingInstance`], so all single-target validation applies,
//! plus duplicate-target rejection) and [`Campaign::run`] executes the
//! pipeline:
//!
//! 1. sample one path pool per target through
//!    [`SampleRequest`](raf_model::sampler::SampleRequest), seeding each
//!    with [`pair_seed`]`(master, s, tᵢ)` — **exactly** the serve
//!    cache's per-pair derivation, so campaign pools are bit-identical
//!    to (and cache-shareable with) single-target serve pools;
//! 2. hand the per-target cover instances to
//!    [`raf_cover::allocate_budget`], which returns the best of the
//!    joint marginal-gain greedy and the independent equal/proportional
//!    budget splits;
//! 3. report the shared invitation set plus per-target acceptance
//!    estimates.
//!
//! # Determinism and the `k = 1` contract
//!
//! The result is a pure function of `(graph, s, targets, budget, walks,
//! seed)` — the thread count never changes pools, the allocator is
//! exact-integer-deterministic, and targets are
//! canonicalized (sorted by node id) before allocation, so permuting the
//! target list cannot change anything. With one target the campaign is
//! the existing single-target pipeline bit for bit:
//! [`greedy_max_coverage_paths`](crate::max_friending::greedy_max_coverage_paths)
//! delegates to the same allocator, so a `k = 1` campaign and a
//! [`MaxFriending`](crate::MaxFriending) run over the same pool agree on
//! every byte (`tests/campaign_equivalence.rs`).

use crate::CoreError;
use raf_cover::{allocate_budget, AllocationArm, BudgetTarget, CoverInstance};
use raf_graph::{CsrGraph, NodeId};
use raf_model::sampler::{pair_seed, SampleRequest};
use raf_model::{FriendingInstance, InvitationSet};
use serde::{Deserialize, Serialize};

/// A validated multi-target campaign instance: the shared graph, the
/// source, and one [`FriendingInstance`] per target in **canonical
/// order** (targets sorted ascending by node id).
#[derive(Debug, Clone)]
pub struct CampaignInstance<'g> {
    graph: &'g CsrGraph,
    source: NodeId,
    instances: Vec<FriendingInstance<'g>>,
}

impl<'g> CampaignInstance<'g> {
    /// Validates `(graph, source, targets)`. Targets are deduplicated
    /// *never* — a repeated target is a caller bug surfaced as
    /// [`CoreError::DuplicateTarget`] — and each `(source, target)` pair
    /// must form a valid [`FriendingInstance`] (distinct, in range, not
    /// already friends).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on an empty target list,
    /// [`CoreError::DuplicateTarget`] on a repeat, and any
    /// [`raf_model::ModelError`] a pair fails validation with.
    pub fn new(graph: &'g CsrGraph, source: NodeId, targets: &[NodeId]) -> Result<Self, CoreError> {
        if targets.is_empty() {
            return Err(CoreError::InvalidParameter {
                message: "campaign needs at least one target".into(),
            });
        }
        // Canonical order: sorted by node id. Allocation tie-breaks by
        // target index, so sorting here is what makes the campaign
        // invariant under permutations of the caller's target list.
        let mut canonical: Vec<NodeId> = targets.to_vec();
        canonical.sort_by_key(|t| t.index());
        for pair in canonical.windows(2) {
            if pair[0] == pair[1] {
                return Err(CoreError::DuplicateTarget { target: pair[0].index() });
            }
        }
        let instances = canonical
            .into_iter()
            .map(|t| FriendingInstance::new(graph, source, t))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignInstance { graph, source, instances })
    }

    /// The shared graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The campaign source `s`.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of targets `k`.
    pub fn target_count(&self) -> usize {
        self.instances.len()
    }

    /// The targets in canonical (ascending node id) order.
    pub fn targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.instances.iter().map(|i| i.target())
    }

    /// The per-target single-pair instances, in canonical order.
    pub fn instances(&self) -> &[FriendingInstance<'g>] {
        &self.instances
    }
}

/// Configuration for [`Campaign`] — the multi-target analogue of
/// [`MaxFriendingConfig`](crate::MaxFriendingConfig).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Shared invitation budget (every target's routes draw on it).
    pub budget: usize,
    /// Walks sampled per target pool.
    pub walks: u64,
    /// Master seed; target `t` samples with `pair_seed(seed, s, t)`.
    pub seed: u64,
    /// Sampling threads (wall clock only, never the result).
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { budget: 10, walks: 50_000, seed: 0, threads: 1 }
    }
}

/// Per-target outcome inside a [`CampaignResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignTargetReport {
    /// The target node.
    pub target: usize,
    /// Type-1 paths sampled into this target's pool (unique).
    pub type1_unique: usize,
    /// Walks sampled for this target.
    pub samples: u64,
    /// Sampled walks covered by the shared invitation set (weighted).
    pub covered: usize,
    /// In-pool acceptance estimate `covered / samples`.
    pub estimate: f64,
}

/// Result of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The shared invitation set (`|I| ≤ budget`).
    pub invitations: InvitationSet,
    /// Per-target outcomes, in canonical target order.
    pub targets: Vec<CampaignTargetReport>,
    /// Σ per-target estimates — the campaign objective.
    pub objective: f64,
    /// Which allocation arm won (see [`AllocationArm`]).
    pub arm: AllocationArm,
    /// Every arm's objective, indexed Joint, EqualSplit,
    /// ProportionalSplit.
    pub arm_objectives: [f64; 3],
}

/// The campaign pipeline: per-target pools → joint budget allocation →
/// shared invitation set. See the module docs.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// [`CoreError::CampaignTargetUnreachable`] when a target's pool
    /// holds no type-1 path (no sampled route reaches it);
    /// [`CoreError::Cover`] on allocator failures.
    pub fn run(&self, instance: &CampaignInstance<'_>) -> Result<CampaignResult, CoreError> {
        let n = instance.graph().node_count();
        let s = instance.source().index() as u32;
        let mut covers: Vec<CoverInstance> = Vec::with_capacity(instance.target_count());
        let mut reports: Vec<CampaignTargetReport> = Vec::with_capacity(instance.target_count());
        for fi in instance.instances() {
            let t = fi.target();
            let pool = SampleRequest::new(self.config.walks)
                .seed(pair_seed(self.config.seed, s, t.index() as u32))
                .threads(self.config.threads)
                .run(fi);
            if pool.type1_count() == 0 {
                return Err(CoreError::CampaignTargetUnreachable {
                    target: t.index(),
                    samples: pool.total_samples(),
                });
            }
            reports.push(CampaignTargetReport {
                target: t.index(),
                type1_unique: pool.unique_count(),
                samples: pool.total_samples(),
                covered: 0,
                estimate: 0.0,
            });
            covers.push(CoverInstance::from_path_pool(n, pool)?);
        }
        let targets: Vec<BudgetTarget<'_>> = covers
            .iter()
            .zip(&reports)
            .map(|(sets, r)| BudgetTarget { sets, total_samples: r.samples })
            .collect();
        let alloc = allocate_budget(&targets, self.config.budget)?;
        for (report, &covered) in reports.iter_mut().zip(&alloc.per_target_covered) {
            report.covered = covered;
            report.estimate =
                if report.samples == 0 { 0.0 } else { covered as f64 / report.samples as f64 };
        }
        let invitations =
            InvitationSet::from_nodes(n, alloc.chosen.iter().map(|&v| NodeId::new(v as usize)));
        Ok(CampaignResult {
            invitations,
            targets: reports,
            objective: alloc.objective,
            arm: alloc.arm,
            arm_objectives: alloc.arm_objectives,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{GraphBuilder, WeightScheme};

    /// Source 0, two targets 1 and 7 sharing the hub route through 8:
    /// 0-8-9-1 and 0-8-9-7, plus private spurs 0-2-3-1 and 0-4-5-7.
    fn shared_hub() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![
            (0, 8),
            (8, 9),
            (9, 1),
            (9, 7),
            (0, 2),
            (2, 3),
            (3, 1),
            (0, 4),
            (4, 5),
            (5, 7),
        ])
        .unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn rejects_empty_target_list() {
        let g = shared_hub();
        let err = CampaignInstance::new(&g, NodeId::new(0), &[]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_duplicate_targets() {
        let g = shared_hub();
        let err = CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(1), NodeId::new(1)])
            .unwrap_err();
        assert_eq!(err, CoreError::DuplicateTarget { target: 1 });
    }

    #[test]
    fn rejects_source_as_target() {
        let g = shared_hub();
        let err = CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(1), NodeId::new(0)])
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Model(raf_model::ModelError::InitiatorIsTarget { node: 0 })
        ));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let g = shared_hub();
        let err = CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(99)]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Model(raf_model::ModelError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn unreachable_target_is_a_structured_error() {
        // 6 is an isolated pocket: 0-1 … 6-7 disconnected.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (6, 7)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst =
            CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(2), NodeId::new(6)]).unwrap();
        let err =
            Campaign::new(CampaignConfig { budget: 4, walks: 500, ..CampaignConfig::default() })
                .run(&inst)
                .unwrap_err();
        assert_eq!(err, CoreError::CampaignTargetUnreachable { target: 6, samples: 500 });
    }

    #[test]
    fn targets_canonicalize_and_run_is_order_invariant() {
        let g = shared_hub();
        let forward =
            CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(1), NodeId::new(7)]).unwrap();
        let backward =
            CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(7), NodeId::new(1)]).unwrap();
        assert_eq!(forward.targets().collect::<Vec<_>>(), backward.targets().collect::<Vec<_>>());
        let config = CampaignConfig { budget: 4, walks: 4_000, seed: 3, threads: 1 };
        let a = Campaign::new(config.clone()).run(&forward).unwrap();
        let b = Campaign::new(config).run(&backward).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_is_respected_and_objective_monotone() {
        let g = shared_hub();
        let inst =
            CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(1), NodeId::new(7)]).unwrap();
        let mut last = 0.0f64;
        for budget in [0usize, 1, 2, 4, 8] {
            let res = Campaign::new(CampaignConfig { budget, walks: 8_000, seed: 5, threads: 1 })
                .run(&inst)
                .unwrap();
            assert!(res.invitations.len() <= budget);
            assert!(
                res.objective >= last - 1e-12,
                "objective dropped at budget {budget}: {} < {last}",
                res.objective
            );
            last = res.objective;
            assert!(res.objective >= res.arm_objectives[1]);
            assert!(res.objective >= res.arm_objectives[2]);
        }
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        let g = shared_hub();
        let inst =
            CampaignInstance::new(&g, NodeId::new(0), &[NodeId::new(1), NodeId::new(7)]).unwrap();
        let run = |threads| {
            Campaign::new(CampaignConfig { budget: 4, walks: 20_000, seed: 9, threads })
                .run(&inst)
                .unwrap()
        };
        let single = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), single, "threads = {threads}");
        }
    }
}
