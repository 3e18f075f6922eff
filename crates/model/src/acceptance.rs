//! Monte-Carlo estimation of the acceptance probability `f(I)`.
//!
//! `f(I)` is #P-hard to compute exactly (Yuan et al. \[6\]); the paper
//! estimates it by sampling. Corollary 1 gives two equivalent routes:
//! simulate the forward friending process, or sample backward walks and
//! count coverage (`t(g) ⊆ I`). The reverse route only touches the walked
//! nodes and is the one used throughout the evaluation; the forward route
//! is kept for the Lemma 1 equivalence tests.

use crate::process::run_process;
use crate::reverse::sample_target_path;
use crate::{FriendingInstance, InvitationSet};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Monte-Carlo estimate with its sampling metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceEstimate {
    /// The point estimate of `f(I)`.
    pub probability: f64,
    /// Number of samples used.
    pub samples: u64,
    /// Number of successful samples (coverage / target friended).
    pub successes: u64,
}

impl AcceptanceEstimate {
    /// Half-width of the normal-approximation confidence interval at the
    /// given z-score (e.g. 1.96 for 95%).
    pub fn half_width(&self, z: f64) -> f64 {
        if self.samples == 0 {
            return f64::INFINITY;
        }
        let p = self.probability;
        z * (p * (1.0 - p) / self.samples as f64).sqrt()
    }
}

/// Estimates `f(I)` by reverse sampling: the fraction of `samples` random
/// backward walks covered by `I` (Corollary 1).
pub fn estimate_acceptance<R: Rng>(
    instance: &FriendingInstance<'_>,
    invitations: &InvitationSet,
    samples: u64,
    rng: &mut R,
) -> AcceptanceEstimate {
    let mut successes = 0u64;
    for _ in 0..samples {
        let tp = sample_target_path(instance, rng);
        if tp.covered_by(invitations) {
            successes += 1;
        }
    }
    AcceptanceEstimate {
        probability: if samples == 0 { 0.0 } else { successes as f64 / samples as f64 },
        samples,
        successes,
    }
}

/// Estimates `f(I)` by forward simulation of Process 1 — `O(m)` per
/// sample, used to validate Lemma 1 (both estimators converge to the same
/// value).
pub fn estimate_acceptance_forward<R: Rng>(
    instance: &FriendingInstance<'_>,
    invitations: &InvitationSet,
    samples: u64,
    rng: &mut R,
) -> AcceptanceEstimate {
    let mut successes = 0u64;
    for _ in 0..samples {
        if run_process(instance, invitations, rng).target_friended {
            successes += 1;
        }
    }
    AcceptanceEstimate {
        probability: if samples == 0 { 0.0 } else { successes as f64 / samples as f64 },
        samples,
        successes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{CsrGraph, GraphBuilder, NodeId, WeightScheme};
    use rand::SeedableRng;

    fn path_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn closed_form_on_line() {
        // Path 0-1-2-3, s=0, t=3, full invitations.
        // Reverse view: 3→2 (w.p. 1), 2→1 (w.p. 1/2) ⇒ f(V) = 1/2.
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = InvitationSet::full(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let est = estimate_acceptance(&inst, &inv, 40_000, &mut rng);
        assert!((est.probability - 0.5).abs() < 0.01, "estimate {}", est.probability);
    }

    #[test]
    fn lemma1_forward_and_reverse_agree() {
        // Parallel-paths gadget: s and t joined by two routes.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let inv = InvitationSet::full(g.node_count());
        let samples = 30_000;
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(31);
        let rev = estimate_acceptance(&inst, &inv, samples, &mut rng1);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(32);
        let fwd = estimate_acceptance_forward(&inst, &inv, samples, &mut rng2);
        assert!(
            (rev.probability - fwd.probability).abs() < 0.015,
            "reverse {} vs forward {}",
            rev.probability,
            fwd.probability
        );
    }

    #[test]
    fn missing_target_gives_zero() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        // t ∉ I ⇒ coverage impossible.
        let inv = InvitationSet::from_nodes(4, [NodeId::new(2)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let est = estimate_acceptance(&inst, &inv, 2_000, &mut rng);
        assert_eq!(est.probability, 0.0);
    }

    #[test]
    fn monotone_in_invitations() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let small = InvitationSet::from_nodes(5, [NodeId::new(4)]);
        let mid = InvitationSet::from_nodes(5, [NodeId::new(3), NodeId::new(4)]);
        let full = InvitationSet::full(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let f_small = estimate_acceptance(&inst, &small, 20_000, &mut rng).probability;
        let f_mid = estimate_acceptance(&inst, &mid, 20_000, &mut rng).probability;
        let f_full = estimate_acceptance(&inst, &full, 20_000, &mut rng).probability;
        assert!(f_small <= f_mid + 0.01);
        assert!(f_mid <= f_full + 0.01);
    }

    #[test]
    fn half_width_shrinks_with_samples() {
        let est_small = AcceptanceEstimate { probability: 0.3, samples: 100, successes: 30 };
        let est_big = AcceptanceEstimate { probability: 0.3, samples: 10_000, successes: 3_000 };
        assert!(est_big.half_width(1.96) < est_small.half_width(1.96));
        let zero = AcceptanceEstimate { probability: 0.0, samples: 0, successes: 0 };
        assert!(zero.half_width(1.96).is_infinite());
    }

    #[test]
    fn zero_samples_behave() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = InvitationSet::full(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let est = estimate_acceptance(&inst, &inv, 0, &mut rng);
        assert_eq!(est.probability, 0.0);
        assert_eq!(est.samples, 0);
    }
}
