//! Solving Equation System 1 / eq. (17) for `(ε0, ε1, β)`.
//!
//! Given the approximation target `α`, the slack `ε < α`, and the
//! ground-set size `n`, the paper couples `ε0 = n·ε1` (so that the `p_max`
//! estimation and the covering phase have the same asymptotic cost) and
//! requires
//!
//! ```text
//! β = (α − x) / (1 + x)                          (eq. 12)
//! β·(1 − x) − x = α − ε                          (eq. 13)
//! ```
//!
//! with `x = ε1(1+ε0)`. It has a closed form: substituting eq. (12) into
//! eq. (13) and clearing the denominator gives
//! `(α − x)(1 − x) − x(1 + x) = (α − ε)(1 + x)`, whose `x²` terms cancel,
//! so `x = ε / (2α + 2 − ε)`, and eq. (12) then gives `β = α − ε/2` for
//! every `n`. The ground size only splits `x` between `ε0` and `ε1`: while
//! `n·ε1 ≤ 0.5`, `ε1` is the positive root of `n·ε1² + ε1 − x = 0`, taken
//! in the cancellation-free form `2x / (1 + √(1 + 4nx))`, and `ε0 = n·ε1`;
//! past that, `ε0 = 0.5` and `ε1 = x / 1.5`.
//!
//! Paper errata handled here (README, *Paper errata*): the printed eq. (17)
//! swaps `α` and `ε1` relative to eq. (13) — we solve the consistent
//! system — and for large `n` the coupling `ε0 = n·ε1` can push `ε0`
//! beyond 1, where eq. (10) becomes vacuous and eq. (16) ill-defined,
//! hence the clamp at [`ParameterSet::EPS0_CAP`].

use crate::CoreError;
use serde::{Deserialize, Serialize};

/// The solved parameter set consumed by the RAF pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterSet {
    /// Approximation target `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Total slack `ε ∈ (0, α)`.
    pub epsilon: f64,
    /// Relative error allotted to the `p_max` estimation (eq. 10).
    pub eps0: f64,
    /// Relative error allotted to the pool estimate (eq. 11).
    pub eps1: f64,
    /// The covering fraction `β` of eq. (12).
    pub beta: f64,
}

impl ParameterSet {
    /// Cap on `ε0` (see module docs).
    pub const EPS0_CAP: f64 = 0.5;

    /// Solves the system with the paper's `ε0 = n·ε1` coupling (clamped at
    /// [`Self::EPS0_CAP`]) in closed form (see module docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::ParameterSolveFailed`] unless `0 < ε < α ≤ 1` and
    /// `n ≥ 1`.
    pub fn solve(alpha: f64, epsilon: f64, n: usize) -> Result<Self, CoreError> {
        if !(alpha > 0.0 && alpha <= 1.0 && epsilon > 0.0 && epsilon < alpha) || n == 0 {
            return Err(CoreError::ParameterSolveFailed { alpha, epsilon });
        }
        // Written exactly like this so the bits are reproducible.
        let beta = alpha - epsilon / 2.0;
        let x = epsilon / (2.0 * alpha + 2.0 - epsilon);
        let c = n as f64;
        let root = 2.0 * x / (1.0 + (1.0 + 4.0 * c * x).sqrt());
        let (eps0, eps1) = if c * root <= Self::EPS0_CAP {
            (c * root, root)
        } else {
            (Self::EPS0_CAP, x / (1.0 + Self::EPS0_CAP))
        };
        Ok(ParameterSet { alpha, epsilon, eps0, eps1, beta })
    }

    /// The eq. (13) residual — zero up to floating-point rounding for a
    /// valid parameter set; exposed for tests and diagnostics.
    pub fn residual(&self) -> f64 {
        let x = self.eps1 * (1.0 + self.eps0);
        self.beta * (1.0 - x) - x - (self.alpha - self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_standard_settings() {
        // The paper's evaluation setting: α varies, ε = 0.01.
        for &alpha in &[0.05, 0.1, 0.2, 0.35, 1.0] {
            for &n in &[100usize, 7_000, 1_100_000] {
                let p = ParameterSet::solve(alpha, 0.01, n).unwrap();
                assert!(p.eps1 > 0.0 && p.eps1 < 1.0, "eps1 {}", p.eps1);
                assert!(p.eps0 > 0.0 && p.eps0 <= 0.5);
                assert!(p.beta > 0.0 && p.beta <= 1.0, "beta {}", p.beta);
                assert!(p.residual().abs() < 1e-9, "residual {}", p.residual());
            }
        }
    }

    #[test]
    fn beta_close_to_alpha_for_small_epsilon() {
        let p = ParameterSet::solve(0.3, 0.001, 1_000).unwrap();
        assert!((p.beta - 0.3).abs() < 0.01, "beta {}", p.beta);
    }

    #[test]
    fn rejects_invalid_ranges() {
        assert!(ParameterSet::solve(0.0, 0.01, 10).is_err());
        assert!(ParameterSet::solve(1.5, 0.01, 10).is_err());
        assert!(ParameterSet::solve(0.1, 0.1, 10).is_err()); // ε ≥ α
        assert!(ParameterSet::solve(0.1, 0.0, 10).is_err());
        assert!(ParameterSet::solve(0.1, 0.01, 0).is_err());
    }

    #[test]
    fn coupling_saturates_at_cap_for_large_n() {
        let p = ParameterSet::solve(0.1, 0.01, 10_000_000).unwrap();
        assert_eq!(p.eps0, ParameterSet::EPS0_CAP);
    }

    #[test]
    fn coupling_proportional_for_small_n() {
        let p = ParameterSet::solve(0.5, 0.01, 3).unwrap();
        assert!(p.eps0 < ParameterSet::EPS0_CAP);
        assert!((p.eps0 - 3.0 * p.eps1).abs() < 1e-12);
    }

    #[test]
    fn eps1_decreases_with_larger_n_before_cap() {
        let p_small = ParameterSet::solve(0.2, 0.01, 10).unwrap();
        let p_big = ParameterSet::solve(0.2, 0.01, 1_000).unwrap();
        assert!(p_big.eps1 < p_small.eps1);
    }

    #[test]
    fn smaller_epsilon_means_tighter_eps1() {
        let loose = ParameterSet::solve(0.2, 0.05, 100).unwrap();
        let tight = ParameterSet::solve(0.2, 0.005, 100).unwrap();
        assert!(tight.eps1 < loose.eps1);
    }

    #[test]
    fn beta_does_not_depend_on_the_ground_size() {
        for step in 1..=20u32 {
            let alpha = f64::from(step) * 0.05;
            let reference = ParameterSet::solve(alpha, 0.01, 1).unwrap().beta;
            for n in [4usize, 8, 70, 220_000, 1_100_000] {
                let beta = ParameterSet::solve(alpha, 0.01, n).unwrap().beta;
                assert_eq!(beta.to_bits(), reference.to_bits(), "alpha {alpha} n {n}");
            }
        }
    }

    #[test]
    fn cover_requirement_is_exact_at_round_pool_sizes() {
        // β = 0.095 exactly as written, so 10 000 type-1 paths need 950.
        for n in [8usize, 220_000] {
            let beta = ParameterSet::solve(0.1, 0.01, n).unwrap().beta;
            assert_eq!(raf_cover::cover_requirement(beta, 10_000), 950, "n {n}");
        }
    }

    #[test]
    fn serde_roundtrip_shape() {
        let p = ParameterSet::solve(0.1, 0.01, 100).unwrap();
        let cloned = p.clone();
        assert_eq!(p, cloned);
    }
}
