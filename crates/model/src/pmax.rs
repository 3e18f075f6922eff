//! Estimating `p_max = f(V)` (Alg. 2 of the paper).
//!
//! `y(g̃)` — the type-1 indicator of a random realization — is an unbiased
//! estimator of `p_max` (Corollary 2). Two estimators are provided:
//!
//! * a fixed-sample Monte-Carlo average, and
//! * the Dagum–Karp–Luby–Ross (DKLR) *stopping rule* of Alg. 2 / Lemma 3,
//!   which keeps sampling until `Υ` successes have been seen and returns
//!   `Υ / (samples used)`, guaranteeing a *relative* `(ε, 1/N)` error with
//!   an asymptotically optimal sample count.
//!
//! Paper erratum: Alg. 2 line 2 writes `ln(2/N)`, which is negative for
//! `N > 2`; the DKLR rule uses `ln(2/δ)` for failure probability
//! `δ = 1/N`, i.e. `ln(2N)`, which is what this module implements
//! (README, *Paper errata*).

use crate::reverse::sample_target_path;
use crate::{FriendingInstance, ModelError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Result of a `p_max` estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmaxEstimate {
    /// The point estimate `p*_max`.
    pub pmax: f64,
    /// Realizations sampled.
    pub samples: u64,
    /// Type-1 realizations observed.
    pub type1: u64,
}

/// The DKLR success budget `Υ = 1 + 4(e−2)(1+ε)·ln(2N)/ε²` (Alg. 2
/// line 2, with the erratum fix described in the module docs).
///
/// # Panics
///
/// Panics if `epsilon ∉ (0, 1]` or `n_confidence < 1` in debug builds.
pub fn dklr_upsilon(epsilon: f64, n_confidence: f64) -> f64 {
    debug_assert!(epsilon > 0.0 && epsilon <= 1.0);
    debug_assert!(n_confidence >= 1.0);
    let e = std::f64::consts::E;
    1.0 + 4.0 * (e - 2.0) * (1.0 + epsilon) * (2.0 * n_confidence).ln() / (epsilon * epsilon)
}

/// Fixed-sample Monte-Carlo estimate of `p_max` from `samples` backward
/// walks.
///
/// ```
/// use raf_graph::{GraphBuilder, NodeId, WeightScheme};
/// use raf_model::pmax::estimate_pmax_fixed;
/// use raf_model::FriendingInstance;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 0 - 1 - 2: the walk 2 → 1 always reaches the seed, so p_max = 1.
/// let mut b = GraphBuilder::new();
/// b.add_edges(vec![(0, 1), (1, 2)])?;
/// let g = b.build(WeightScheme::UniformByDegree)?.to_csr();
/// let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(2))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let est = estimate_pmax_fixed(&inst, 1_000, &mut rng);
/// assert_eq!(est.pmax, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn estimate_pmax_fixed<R: Rng>(
    instance: &FriendingInstance<'_>,
    samples: u64,
    rng: &mut R,
) -> PmaxEstimate {
    let mut type1 = 0u64;
    for _ in 0..samples {
        if sample_target_path(instance, rng).is_type1() {
            type1 += 1;
        }
    }
    PmaxEstimate {
        pmax: if samples == 0 { 0.0 } else { type1 as f64 / samples as f64 },
        samples,
        type1,
    }
}

/// Alg. 2: the DKLR stopping-rule estimator. Samples walks until `Υ`
/// type-1 realizations are observed, then returns `Υ / samples`; by
/// Lemma 3 the result satisfies `|p* − p_max| ≤ ε·p_max` with probability
/// at least `1 − 1/N`.
///
/// `cap` bounds the work when `p_max` is (near) zero — the paper's
/// evaluation screens out pairs with `p_max < 0.01` for exactly this
/// reason.
///
/// # Errors
///
/// * [`ModelError::InvalidParameter`] for `epsilon ∉ (0, 1]` or
///   `n_confidence < 1`;
/// * [`ModelError::SampleCapExhausted`] when `cap` walks were sampled
///   before the stopping condition was reached.
pub fn estimate_pmax_dklr<R: Rng>(
    instance: &FriendingInstance<'_>,
    epsilon: f64,
    n_confidence: f64,
    cap: u64,
    rng: &mut R,
) -> Result<PmaxEstimate, ModelError> {
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(ModelError::InvalidParameter {
            message: format!("epsilon {epsilon} outside (0, 1]"),
        });
    }
    if n_confidence < 1.0 {
        return Err(ModelError::InvalidParameter {
            message: format!("confidence parameter N={n_confidence} below 1"),
        });
    }
    let upsilon = dklr_upsilon(epsilon, n_confidence);
    let mut samples = 0u64;
    let mut successes = 0u64;
    while (successes as f64) < upsilon {
        if samples >= cap {
            return Err(ModelError::SampleCapExhausted { cap, successes });
        }
        samples += 1;
        if sample_target_path(instance, rng).is_type1() {
            successes += 1;
        }
    }
    Ok(PmaxEstimate { pmax: upsilon / samples as f64, samples, type1: successes })
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
    fn upsilon_grows_with_confidence_and_precision() {
        let base = dklr_upsilon(0.1, 100.0);
        assert!(dklr_upsilon(0.05, 100.0) > base);
        assert!(dklr_upsilon(0.1, 10_000.0) > base);
        assert!(base > 1.0);
    }

    #[test]
    fn fixed_estimator_on_closed_form_line() {
        // Path 0-1-2-3: p_max = 1/2 (see acceptance tests).
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let est = estimate_pmax_fixed(&inst, 40_000, &mut rng);
        assert!((est.pmax - 0.5).abs() < 0.01, "pmax {}", est.pmax);
    }

    #[test]
    fn dklr_estimator_respects_relative_error() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let est = estimate_pmax_dklr(&inst, 0.1, 100.0, 10_000_000, &mut rng).unwrap();
        // True p_max = 0.5; with ε = 0.1 the estimate should land within
        // 10% relative error (the test seed makes this deterministic).
        assert!((est.pmax - 0.5).abs() <= 0.1 * 0.5 + 1e-9, "pmax {}", est.pmax);
        assert!(est.samples > 0);
    }

    #[test]
    fn dklr_cap_exhaustion_on_impossible_instance() {
        // Disconnected: t unreachable ⇒ p_max = 0 ⇒ cap must trip.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let err = estimate_pmax_dklr(&inst, 0.2, 10.0, 1_000, &mut rng).unwrap_err();
        assert!(matches!(err, ModelError::SampleCapExhausted { cap: 1_000, .. }));
    }

    #[test]
    fn dklr_rejects_bad_parameters() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        assert!(estimate_pmax_dklr(&inst, 0.0, 10.0, 100, &mut rng).is_err());
        assert!(estimate_pmax_dklr(&inst, 1.5, 10.0, 100, &mut rng).is_err());
        assert!(estimate_pmax_dklr(&inst, 0.1, 0.5, 100, &mut rng).is_err());
    }

    #[test]
    fn dklr_uses_fewer_samples_for_high_pmax() {
        // p_max = 1 on a 2-hop path where every walk succeeds:
        // 0-1-2 with s=0, t=2: walk 2→1 (w.p. 1) hits the seed.
        let g = path_csr(3);
        let easy = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(2)).unwrap();
        let g5 = path_csr(5);
        let hard = FriendingInstance::new(&g5, NodeId::new(0), NodeId::new(4)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let e_easy = estimate_pmax_dklr(&easy, 0.1, 100.0, 10_000_000, &mut rng).unwrap();
        let e_hard = estimate_pmax_dklr(&hard, 0.1, 100.0, 10_000_000, &mut rng).unwrap();
        assert!(e_easy.samples < e_hard.samples);
        assert!((e_easy.pmax - 1.0).abs() < 0.05);
    }

    #[test]
    fn unbiasedness_sanity() {
        // Average of many short fixed-sample estimates ≈ closed form.
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let runs = 200;
        let mean: f64 =
            (0..runs).map(|_| estimate_pmax_fixed(&inst, 200, &mut rng).pmax).sum::<f64>()
                / runs as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean of estimates {mean}");
    }
}
