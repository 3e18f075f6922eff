//! The traced replay: after each session op, redo the op's stages by
//! calling each layer's public functions on the same inputs, timing every
//! call as a child span, and check that the replay reproduces the
//! session's answer.
//!
//! The mirror keeps its own copy of every pool the session holds, so a
//! hit replays the cover phase on the pool the session would use, a miss
//! replays the sampling, and a delta replays graph rebuild, walk index
//! and repair on the mirror's pools with the session's repair seeds.

use crate::trace::Trace;
use crate::workload::splitmix64;
use raf_core::ParameterSet;
use raf_cover::{
    allocate_budget, cover_requirement, solve_msc, BudgetTarget, ChlamtacPortfolio, CoverInstance,
};
use raf_graph::{CsrGraph, EdgeDelta, NodeId, Relabeling, SocialGraph, WeightScheme};
use raf_model::bounds::l_star;
use raf_model::sampler::{pair_seed, repair_pool, PathPool, PoolRepair, SampleRequest};
use raf_model::walk_index::EdgeWalkIndex;
use raf_model::{FriendingInstance, InvitationSet};
use raf_serve::{CampaignAnswer, CampaignQuery, DeltaOutcome, Query, QueryAnswer, ServeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Confidence `N` of the paper's `l*` bound, as `raf run` defaults it.
const CONFIDENCE: f64 = 100_000.0;

/// One mirrored cache entry.
#[derive(Debug)]
struct Entry {
    pool: PathPool,
    cover: CoverInstance,
}

/// The replay's copy of the session state.
#[derive(Debug)]
pub struct Mirror {
    relabeling: Arc<Relabeling>,
    config: ServeConfig,
    /// The edge list as of the last replayed delta.
    graph: SocialGraph,
    /// The post-delta snapshot, once a delta has been replayed.
    csr: Option<CsrGraph>,
    pools: BTreeMap<(u32, u32), Entry>,
    /// Deltas replayed so far; the session mixes the same serial into
    /// its repair seeds.
    delta_serial: u64,
}

impl Mirror {
    /// A mirror of a fresh session with `config`; `graph` is the edge
    /// list deltas will churn.
    pub fn new(relabeling: Arc<Relabeling>, config: &ServeConfig, graph: SocialGraph) -> Mirror {
        Mirror {
            relabeling,
            config: config.clone(),
            graph,
            csr: None,
            pools: BTreeMap::new(),
            delta_serial: 0,
        }
    }

    /// Forgets every pool, as a newly opened session has none.
    pub fn clear(&mut self) {
        self.pools.clear();
    }

    fn active<'a>(&'a self, base: &'a CsrGraph) -> &'a CsrGraph {
        self.csr.as_ref().unwrap_or(base)
    }

    /// Makes the pool for `(s, t)` resident: a hit must find it, a miss
    /// samples it as the session did.
    fn resolve(
        &mut self,
        trace: &mut Trace,
        op: usize,
        base: &CsrGraph,
        (s, t): (NodeId, NodeId),
        hit: bool,
    ) -> Result<(u32, u32), String> {
        let key = (s.as_u32(), t.as_u32());
        if hit {
            return if self.pools.contains_key(&key) {
                Ok(key)
            } else {
                Err(format!("session hit ({}, {}) but the replay holds no such pool", key.0, key.1))
            };
        }
        let csr = self.active(base);
        let instance = FriendingInstance::relabeled(csr, s, t, Arc::clone(&self.relabeling))
            .map_err(|e| format!("replay instance ({}, {}): {e}", key.0, key.1))?;
        let request = SampleRequest::new(self.config.walks)
            .seed(pair_seed(self.config.seed, key.0, key.1))
            .threads(self.config.threads);
        let pool = trace.span(op, "model.sample", || request.run(&instance));
        let n = csr.node_count();
        trace.count("model.walks", pool.total_samples());
        trace.count("model.type1", pool.type1_count() as u64);
        trace.count("model.unique", pool.unique_count() as u64);
        trace.value("model.unique_paths", pool.unique_count() as f64);
        let cover = trace
            .span(op, "cover.build", || CoverInstance::from_path_pool(n, pool.clone()))
            .map_err(|e| format!("replay cover build: {e}"))?;
        self.pools.insert(key, Entry { pool, cover });
        Ok(key)
    }

    /// Replays a query: parameter solve and cover solve on the mirrored
    /// pool, checking the invitation set against the session's.
    pub fn query(
        &mut self,
        trace: &mut Trace,
        op: usize,
        base: &CsrGraph,
        query: &Query,
        answer: &QueryAnswer,
    ) -> Result<(), String> {
        let key = self.resolve(trace, op, base, (query.s, query.t), answer.cache_hit)?;
        let n = self.active(base).node_count();
        let entry = &self.pools[&key];
        let params = trace
            .span(op, "core.params", || ParameterSet::solve(query.alpha, self.config.epsilon, n))
            .map_err(|e| format!("replay parameter solve: {e}"))?;
        let p = cover_requirement(params.beta, entry.pool.type1_count());
        let msc = trace
            .span(op, "cover.solve", || solve_msc(&ChlamtacPortfolio::new(), &entry.cover, p))
            .map_err(|e| format!("replay cover solve: {e}"))?;
        let invitations =
            InvitationSet::from_nodes(n, msc.elements.iter().map(|&e| NodeId::new(e as usize)));
        if invitations != answer.invitations || msc.covered_weight != answer.covered {
            return Err(format!(
                "replayed query ({}, {}) at α={} chose {:?} covering {}, the session {:?} covering {}",
                key.0,
                key.1,
                query.alpha,
                msc.elements,
                msc.covered_weight,
                answer.invitations.to_vec(),
                answer.covered
            ));
        }
        let elements: BTreeSet<u32> =
            entry.pool.iter().flat_map(|(path, _)| path.iter().copied()).collect();
        trace.value("cover.pool_elements", elements.len() as f64);
        trace.value("cover.universe_ratio", n as f64 / elements.len().max(1) as f64);
        let bound = l_star(n, CONFIDENCE, params.eps0, params.eps1, entry.pool.pmax_estimate());
        trace.value("core.walks_over_lstar", entry.pool.total_samples() as f64 / bound);
        Ok(())
    }

    /// Replays a campaign: the budget allocation over the mirrored target
    /// pools, checking the chosen set and objective against the session's.
    pub fn campaign(
        &mut self,
        trace: &mut Trace,
        op: usize,
        base: &CsrGraph,
        query: &CampaignQuery,
        answer: &CampaignAnswer,
    ) -> Result<(), String> {
        let mut targets = query.targets.clone();
        targets.sort();
        if answer.targets.len() != targets.len() {
            return Err(format!(
                "campaign answered {} of {} targets",
                answer.targets.len(),
                targets.len()
            ));
        }
        let mut keys = Vec::with_capacity(targets.len());
        for (&t, target) in targets.iter().zip(&answer.targets) {
            keys.push(self.resolve(trace, op, base, (query.s, t), target.cache_hit)?);
        }
        let n = self.active(base).node_count();
        let budget_targets: Vec<BudgetTarget<'_>> = keys
            .iter()
            .map(|key| {
                let entry = &self.pools[key];
                BudgetTarget {
                    sets: &entry.cover,
                    total_samples: entry.pool.total_samples().max(1),
                }
            })
            .collect();
        let allocation = trace
            .span(op, "cover.allocate", || allocate_budget(&budget_targets, query.budget))
            .map_err(|e| format!("replay allocation: {e}"))?;
        let invitations = InvitationSet::from_nodes(
            n,
            allocation.chosen.iter().map(|&v| NodeId::new(v as usize)),
        );
        if invitations != answer.invitations || allocation.objective != answer.objective {
            return Err(format!(
                "replayed campaign from {} chose {:?} (objective {}), the session {:?} (objective {})",
                query.s.index(),
                allocation.chosen,
                allocation.objective,
                answer.invitations.to_vec(),
                answer.objective
            ));
        }
        Ok(())
    }

    /// Replays a delta: rebuild the edge list and snapshot, then index and
    /// repair every mirrored pool under the session's repair seed,
    /// checking the repair tally against the session's outcome.
    pub fn delta(
        &mut self,
        trace: &mut Trace,
        op: usize,
        delta: &EdgeDelta,
        outcome: &DeltaOutcome,
    ) -> Result<(), String> {
        let applied = trace
            .span(op, "graph.delta_apply", || {
                delta.apply(&self.graph, WeightScheme::UniformByDegree)
            })
            .map_err(|e| format!("replay delta: {e}"))?;
        let touched = applied.touched_nodes();
        let csr =
            trace.span(op, "graph.csr_build", || applied.graph.to_csr_relabeled(&self.relabeling));
        self.delta_serial += 1;
        let n = csr.node_count();
        let (mut repaired, mut untouched, mut flushed, mut resampled_walks) =
            (0usize, 0usize, 0usize, 0u64);
        let keys: Vec<(u32, u32)> = self.pools.keys().copied().collect();
        for key in keys {
            let entry = &self.pools[&key];
            let index = trace.span(op, "model.walk_index", || EdgeWalkIndex::build(&entry.pool, n));
            let (s, t) = (NodeId::new(key.0 as usize), NodeId::new(key.1 as usize));
            // The session's repair seed: its pool seed mixed with the
            // delta serial.
            let seed = splitmix64(
                pair_seed(self.config.seed, key.0, key.1) ^ splitmix64(self.delta_serial),
            );
            let repair = FriendingInstance::relabeled(&csr, s, t, Arc::clone(&self.relabeling))
                .ok()
                .map(|instance| {
                    let template = SampleRequest::new(0).seed(seed).threads(self.config.threads);
                    trace.span(op, "model.repair", || {
                        repair_pool(&entry.pool, &index, &touched, &instance, template)
                    })
                });
            match repair {
                Some(PoolRepair::Repaired { resampled: 0, .. }) => untouched += 1,
                Some(PoolRepair::Repaired { pool, resampled, .. }) => {
                    let cover = trace
                        .span(op, "cover.build", || CoverInstance::from_path_pool(n, pool.clone()))
                        .map_err(|e| format!("replay cover rebuild: {e}"))?;
                    self.pools.insert(key, Entry { pool, cover });
                    repaired += 1;
                    resampled_walks += resampled;
                }
                Some(PoolRepair::FullResample) | None => {
                    self.pools.remove(&key);
                    flushed += 1;
                }
            }
        }
        trace.count("model.resampled_walks", resampled_walks);
        self.graph = applied.graph;
        self.csr = Some(csr);
        let replayed = (repaired, untouched, flushed, resampled_walks);
        let session =
            (outcome.repaired, outcome.untouched, outcome.flushed, outcome.resampled_walks);
        if replayed != session {
            return Err(format!(
                "replayed repair (repaired, untouched, flushed, resampled) = {replayed:?}, session {session:?}"
            ));
        }
        Ok(())
    }
}
