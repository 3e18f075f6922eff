//! Shared experiment machinery: evaluate invitation sets and grow
//! baselines until they match a target probability (Figs. 4–5).

use crate::baselines::Baseline;
use raf_model::acceptance::{estimate_acceptance, AcceptanceEstimate};
use raf_model::sampler::PathPool;
use raf_model::{FriendingInstance, InvitationSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One point on a baseline growth curve: the set size tried and the
/// estimated acceptance probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowthPoint {
    /// Invitation-set size.
    pub size: usize,
    /// Estimated `f(I)` at that size.
    pub probability: f64,
}

/// Result of growing a baseline toward a target probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowthCurve {
    /// The sampled (size, probability) trajectory, increasing in size.
    pub points: Vec<GrowthPoint>,
    /// The first size whose probability reached the target, if any.
    pub matched_size: Option<usize>,
}

impl GrowthCurve {
    /// The probability achieved at the largest tried size.
    pub fn final_probability(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.probability)
    }
}

/// Estimates `f(I)` for an invitation set (thin wrapper over the model
/// crate, re-exported here so experiment code only imports `raf-core`).
pub fn evaluate<R: Rng>(
    instance: &FriendingInstance<'_>,
    invitations: &InvitationSet,
    samples: u64,
    rng: &mut R,
) -> AcceptanceEstimate {
    estimate_acceptance(instance, invitations, samples, rng)
}

/// Grows `baseline` sets from size 1 upward (multiplicative steps of
/// `growth` after `linear_until`) until the probability reaches
/// `target_probability` or `max_size` is hit — the Figs. 4–5 protocol
/// ("run HD/SP and continuously increase the size of the invitation set
/// until the resulting acceptance probability equals f(I_RAF)"). Every
/// size step is scored against the same pre-sampled walk pool (common
/// random numbers), so the growth trajectory is monotone by construction.
pub fn grow_until_match_pooled<B: Baseline + ?Sized>(
    instance: &FriendingInstance<'_>,
    baseline: &B,
    target_probability: f64,
    pool: &PathPool,
    max_size: usize,
    linear_until: usize,
    growth: f64,
) -> GrowthCurve {
    let mut points = Vec::new();
    let mut matched_size = None;
    let mut size = 1usize;
    let mut last_len = 0usize;
    while size <= max_size {
        let inv = baseline.build(instance, size);
        // Stop early when the strategy ran out of candidates.
        let exhausted = inv.len() == last_len && size > 1;
        last_len = inv.len();
        let probability = pool.coverage(&inv);
        points.push(GrowthPoint { size: inv.len(), probability });
        if probability >= target_probability {
            matched_size = Some(inv.len());
            break;
        }
        if exhausted {
            break;
        }
        size = if size < linear_until {
            size + 1
        } else {
            ((size as f64 * growth).ceil() as usize).max(size + 1)
        };
    }
    GrowthCurve { points, matched_size }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{HighDegree, ShortestPath};
    use raf_graph::{CsrGraph, GraphBuilder, NodeId, WeightScheme};
    use raf_model::sampler::SampleRequest;
    use rand::SeedableRng;

    fn line_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn sp_matches_quickly_on_a_line() {
        // Path 0-1-2-3: SP at size 2 invites {3, 2} = the whole interior;
        // f = 1/2 = p_max.
        let g = line_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let pool = SampleRequest::new(20_000).seed(1).run(&inst);
        let curve = grow_until_match_pooled(&inst, &ShortestPath::new(), 0.45, &pool, 10, 8, 1.5);
        assert_eq!(curve.matched_size, Some(2));
        assert!(curve.final_probability() >= 0.45);
    }

    #[test]
    fn unreachable_target_never_matches() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let pool = SampleRequest::new(1_000).seed(2).run(&inst);
        let curve = grow_until_match_pooled(&inst, &HighDegree::new(), 0.1, &pool, 50, 8, 1.5);
        assert_eq!(curve.matched_size, None);
        assert_eq!(curve.final_probability(), 0.0);
    }

    #[test]
    fn growth_is_monotone_in_size() {
        let g = line_csr(6);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(5)).unwrap();
        let pool = SampleRequest::new(20_000).seed(3).run(&inst);
        let curve = grow_until_match_pooled(&inst, &ShortestPath::new(), 2.0, &pool, 20, 8, 1.5);
        // Target 2.0 unreachable ⇒ full trajectory recorded; sizes increase.
        for w in curve.points.windows(2) {
            assert!(w[1].size >= w[0].size);
        }
        assert_eq!(curve.matched_size, None);
    }

    #[test]
    fn pooled_growth_matches_unpooled_shape() {
        let g = line_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let pool = SampleRequest::new(30_000).seed(5).run(&inst);
        let curve = grow_until_match_pooled(&inst, &ShortestPath::new(), 0.45, &pool, 10, 8, 1.5);
        assert_eq!(curve.matched_size, Some(2));
        // Pooled trajectories are monotone by construction (nested sets
        // against a fixed pool).
        for w in curve.points.windows(2) {
            assert!(w[1].probability >= w[0].probability - 1e-12);
        }
    }

    #[test]
    fn evaluate_delegates() {
        let g = line_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = InvitationSet::full(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let est = evaluate(&inst, &inv, 30_000, &mut rng);
        assert!((est.probability - 0.5).abs() < 0.02);
    }
}
