//! Multi-target campaigns: one source, `k` targets and one shared
//! invitation budget, answered over the session's pool cache. This is
//! the only campaign pipeline in the workspace.

use crate::context::{Query, QueryRejection, ServeError, SessionContext};
use raf_graph::NodeId;
use raf_model::InvitationSet;

/// One multi-target campaign request against the resident graph: a
/// source, `k` distinct targets, and one shared invitation budget,
/// allocated greedily across the targets' pools by
/// [`raf_cover::allocate_budget`]. Each target's pool resolves through
/// the same [`PoolCache`](crate::PoolCache) keys a single-target
/// [`Query`] for that pair would use (walk count = the context ceiling),
/// so campaigns warm the cache for later single queries and vice versa.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignQuery {
    /// The campaigning source.
    pub s: NodeId,
    /// The targets, in any order (answers are order-independent).
    pub targets: Vec<NodeId>,
    /// Approximation target `α`, echoed in the response line; the
    /// budget-driven allocation itself is `α`-independent, exactly as
    /// pool sampling is.
    pub alpha: f64,
    /// Shared invitation budget across all targets.
    pub budget: usize,
}

/// One target's slice of a [`CampaignAnswer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignTargetAnswer {
    /// The target.
    pub target: NodeId,
    /// Sampled walk mass (pool copies) the shared set covers for this
    /// target.
    pub covered: usize,
    /// Walks in this target's pool.
    pub samples: u64,
    /// `covered / samples` — the target's acceptance-probability
    /// estimate under the shared invitation set.
    pub estimate: f64,
    /// Whether this target's pool came from the cache.
    pub cache_hit: bool,
}

/// The answer to one [`CampaignQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAnswer {
    /// The shared invitation set (original-space ids, `≤ budget`).
    pub invitations: InvitationSet,
    /// Per-target outcomes, in canonical (ascending node id) order.
    pub targets: Vec<CampaignTargetAnswer>,
    /// Σ per-target estimates — the campaign objective.
    pub objective: f64,
    /// Which allocation arm won (`joint`, `equal_split`,
    /// `proportional_split`); ties keep `joint`.
    pub arm: &'static str,
    /// Every arm's objective, in `[joint, equal_split,
    /// proportional_split]` order — what `raf experiment --targets`
    /// charts as joint-vs-independent-split gain.
    pub arm_objectives: [f64; 3],
    /// Walks requested per target pool (the context's walk ceiling).
    pub walks: u64,
    /// How many target pools were answered from the cache.
    pub hits: usize,
    /// Whether any target pool is a deadline-truncated prefix of the
    /// walk ceiling, exactly as
    /// [`QueryAnswer::degraded`](crate::QueryAnswer::degraded) marks a
    /// single pool; each target's
    /// [`samples`](CampaignTargetAnswer::samples) says how many walks its
    /// pool holds.
    pub degraded: bool,
}

impl SessionContext<'_> {
    /// Answers one multi-target campaign: resolve each target's pool
    /// through the shared [`PoolCache`](crate::PoolCache) (same keys and
    /// same pure seeds a single-target [`Query`] for that pair uses —
    /// warming is bidirectional), then allocate the shared invitation
    /// budget across the targets with [`raf_cover::allocate_budget`].
    ///
    /// Targets are canonicalized to ascending node id first, so the
    /// answer is independent of the order the request listed them in.
    /// Campaigns count cache hits and misses like queries do, but do not
    /// consume a query serial (fault sites address [`query`](Self::query)
    /// calls only).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidQuery`] for an empty or duplicated target
    /// list, a zero budget, and the usual per-pair rejections;
    /// [`ServeError::Parameters`] for an `α` a query would reject. All of
    /// these fail before any pool lookup, so they never touch the cache.
    /// [`ServeError::CampaignUnreachable`] when a target's pool has no
    /// type-1 realization; pools sampled before that failure stay cached.
    pub fn campaign(&mut self, query: &CampaignQuery) -> Result<CampaignAnswer, ServeError> {
        if query.targets.is_empty() {
            return Err(ServeError::InvalidQuery(QueryRejection::NoTargets));
        }
        if query.budget == 0 {
            return Err(ServeError::InvalidQuery(QueryRejection::ZeroBudget));
        }
        // The allocation ignores `α`, but the answer echoes it: hold it to
        // the same check a query's cover phase runs.
        self.parameters(query.alpha)?;
        let mut targets = query.targets.clone();
        targets.sort_by_key(|t| t.index());
        for pair in targets.windows(2) {
            if pair[0] == pair[1] {
                return Err(ServeError::InvalidQuery(QueryRejection::DuplicateTarget {
                    target: pair[0].index(),
                }));
            }
        }
        // Per-target pools at the context's walk ceiling: exactly the key
        // a default-budget single query for the pair resolves to. Every
        // key is validated before the first lookup.
        let walks = self.config().walks;
        let mut probes = Vec::with_capacity(targets.len());
        for &t in &targets {
            let probe = Query { s: query.s, t, alpha: query.alpha, budget: walks };
            let key = self.key_for(&probe)?;
            self.check_query_cap(&key)?;
            probes.push((probe, key));
        }
        let mut pools = Vec::with_capacity(targets.len());
        let mut hit_flags = Vec::with_capacity(targets.len());
        let mut entries = Vec::with_capacity(targets.len());
        for (&t, (probe, key)) in targets.iter().zip(&probes) {
            let (entry, hit) = self.entry_for(probe, key, &[])?;
            let pool = entry.pool();
            if pool.type1_count() == 0 {
                return Err(ServeError::CampaignUnreachable {
                    target: t.index(),
                    samples: pool.total_samples(),
                });
            }
            pools.push(pool);
            hit_flags.push(hit);
            entries.push(entry);
        }
        let budget_targets: Vec<raf_cover::BudgetTarget<'_>> = entries
            .iter()
            .zip(&pools)
            .map(|(entry, pool)| raf_cover::BudgetTarget {
                sets: &entry.cover,
                total_samples: pool.total_samples().max(1),
            })
            .collect();
        let alloc = raf_cover::allocate_budget(&budget_targets, query.budget)?;
        let node_count = self.active_csr().node_count();
        let mut invitations = InvitationSet::empty(node_count);
        for &v in &alloc.chosen {
            invitations.insert(NodeId::new(v as usize));
        }
        let per_target: Vec<CampaignTargetAnswer> = targets
            .iter()
            .enumerate()
            .map(|(i, &target)| {
                let samples = pools[i].total_samples();
                let covered = alloc.per_target_covered[i];
                CampaignTargetAnswer {
                    target,
                    covered,
                    samples,
                    estimate: covered as f64 / samples.max(1) as f64,
                    cache_hit: hit_flags[i],
                }
            })
            .collect();
        Ok(CampaignAnswer {
            invitations,
            objective: alloc.objective,
            arm: alloc.arm.name(),
            arm_objectives: alloc.arm_objectives,
            walks,
            hits: hit_flags.iter().filter(|&&h| h).count(),
            degraded: pools.iter().any(|pool| pool.total_samples() < walks),
            targets: per_target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use raf_graph::{CsrGraph, GraphBuilder, WeightScheme};

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

    /// A campaign from source 0 at `α = 0.5`.
    fn campaign(targets: &[usize], budget: usize) -> CampaignQuery {
        CampaignQuery {
            s: NodeId::new(0),
            targets: targets.iter().map(|&t| NodeId::new(t)).collect(),
            alpha: 0.5,
            budget,
        }
    }

    fn rejection(targets: &[usize]) -> ServeError {
        let g = shared_hub();
        SessionContext::new(&g, ServeConfig { walks: 500, ..Default::default() })
            .campaign(&campaign(targets, 4))
            .unwrap_err()
    }

    #[test]
    fn rejects_empty_target_list() {
        let err = rejection(&[]);
        assert!(matches!(err, ServeError::InvalidQuery(QueryRejection::NoTargets)));
    }

    #[test]
    fn rejects_duplicate_targets() {
        let err = rejection(&[1, 1]);
        assert!(matches!(
            err,
            ServeError::InvalidQuery(QueryRejection::DuplicateTarget { target: 1 })
        ));
    }

    #[test]
    fn rejects_source_as_target() {
        let err = rejection(&[1, 0]);
        assert!(matches!(err, ServeError::InvalidQuery(QueryRejection::SourceIsTarget)));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let err = rejection(&[99]);
        assert!(matches!(
            err,
            ServeError::InvalidQuery(QueryRejection::NodeOutOfRange { node: 99, node_count: 10 })
        ));
    }

    #[test]
    fn unreachable_target_is_a_structured_error() {
        // 6 is an isolated pocket: 0-1 … 6-7 disconnected.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (6, 7)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let err = SessionContext::new(&g, ServeConfig { walks: 500, ..Default::default() })
            .campaign(&campaign(&[2, 6], 4))
            .unwrap_err();
        assert!(matches!(err, ServeError::CampaignUnreachable { target: 6, samples: 500 }));
    }

    #[test]
    fn targets_canonicalize_and_run_is_order_invariant() {
        let g = shared_hub();
        let config = ServeConfig { walks: 4_000, seed: 3, ..Default::default() };
        let a = SessionContext::new(&g, config.clone()).campaign(&campaign(&[1, 7], 4)).unwrap();
        let b = SessionContext::new(&g, config).campaign(&campaign(&[7, 1], 4)).unwrap();
        let order: Vec<usize> = a.targets.iter().map(|t| t.target.index()).collect();
        assert_eq!(order, [1, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_is_respected_and_objective_monotone() {
        let g = shared_hub();
        let mut ctx =
            SessionContext::new(&g, ServeConfig { walks: 8_000, seed: 5, ..Default::default() });
        let mut last = 0.0f64;
        for budget in [1, 2, 4, 8] {
            let res = ctx.campaign(&campaign(&[1, 7], budget)).unwrap();
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
        let run = |threads| {
            let config = ServeConfig { walks: 20_000, seed: 9, threads, ..Default::default() };
            SessionContext::new(&g, config).campaign(&campaign(&[1, 7], 4)).unwrap()
        };
        let single = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), single, "threads = {threads}");
        }
    }
}
