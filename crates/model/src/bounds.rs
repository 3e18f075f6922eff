//! Concentration bounds: the Chernoff inequality (eq. 9) and the
//! realization budget `l*` (eq. 16) and DKLR sample bound `l_0` (eq. 6).

/// The two-sided Chernoff bound of eq. 9: for `l` i.i.d. variables in
/// `[0,1]` with mean `µ`,
/// `Pr[|Σ X_i − lµ| ≥ δlµ] ≤ 2·exp(−lµδ²/(2+δ))`.
///
/// Returns the probability bound (clamped to 1).
pub fn chernoff_bound(l: f64, mu: f64, delta: f64) -> f64 {
    if l <= 0.0 || mu <= 0.0 || delta <= 0.0 {
        return 1.0;
    }
    (2.0 * (-(l * mu * delta * delta) / (2.0 + delta)).exp()).min(1.0)
}

/// The realization budget `l*` of eq. 16:
///
/// ```text
/// l* = (ln 2 + ln N + n·ln 2) · (2 + ε1·(1−ε0))
///      ───────────────────────────────────────
///            ε1² · (1−ε0)² · p*_max
/// ```
///
/// With `l ≥ l*` realizations, `|F(B_l, I)/l − f(I)| ≤ ε1·p*_max` holds
/// for **every** `I ⊆ V` simultaneously with probability ≥ `1 − 1/N`
/// (Lemma 6; the `n·ln 2` term is the union bound over all `2^n` subsets).
///
/// The `n` here may be replaced by `|V_max|` per the Sec. III-C remark —
/// callers pass whichever ground-set size applies.
///
/// # Panics
///
/// Panics in debug builds when parameters are outside their valid ranges
/// (`ε0, ε1 ∈ (0,1)`, `p*_max ∈ (0,1]`, `N ≥ 1`).
pub fn l_star(n: usize, n_confidence: f64, eps0: f64, eps1: f64, pmax_est: f64) -> f64 {
    debug_assert!(eps0 > 0.0 && eps0 < 1.0, "eps0={eps0}");
    debug_assert!(eps1 > 0.0 && eps1 < 1.0, "eps1={eps1}");
    debug_assert!(pmax_est > 0.0 && pmax_est <= 1.0);
    debug_assert!(n_confidence >= 1.0);
    let ln2 = std::f64::consts::LN_2;
    let numer = (ln2 + n_confidence.ln() + n as f64 * ln2) * (2.0 + eps1 * (1.0 - eps0));
    let denom = eps1 * eps1 * (1.0 - eps0) * (1.0 - eps0) * pmax_est;
    numer / denom
}

/// The asymptotic DKLR sample bound `l_0` of eq. 6 / Lemma 3:
///
/// ```text
/// l_0 = (2ε + 4(e−2)(1+ε)·ln(2N)) / (ε²·p_max)
/// ```
///
/// (with the `ln(N/2)` → `ln(2N)` erratum fix; see README, *Paper errata*). This is
/// the *expected* number of walks Alg. 2 uses, useful for budgeting.
pub fn dklr_expected_samples(epsilon: f64, n_confidence: f64, pmax: f64) -> f64 {
    let e = std::f64::consts::E;
    (2.0 * epsilon + 4.0 * (e - 2.0) * (1.0 + epsilon) * (2.0 * n_confidence).ln())
        / (epsilon * epsilon * pmax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_decreases_in_l() {
        let a = chernoff_bound(100.0, 0.5, 0.1);
        let b = chernoff_bound(1000.0, 0.5, 0.1);
        assert!(b < a);
        assert!(a <= 1.0 && b > 0.0);
    }

    #[test]
    fn chernoff_degenerate_inputs_clamp_to_one() {
        assert_eq!(chernoff_bound(0.0, 0.5, 0.1), 1.0);
        assert_eq!(chernoff_bound(10.0, 0.0, 0.1), 1.0);
        assert_eq!(chernoff_bound(10.0, 0.5, 0.0), 1.0);
    }

    #[test]
    fn chernoff_matches_formula() {
        let (l, mu, delta): (f64, f64, f64) = (500.0, 0.2, 0.3);
        let expected = 2.0 * (-(l * mu * delta * delta) / (2.0 + delta)).exp();
        assert!((chernoff_bound(l, mu, delta) - expected).abs() < 1e-12);
    }

    #[test]
    fn l_star_scales_linearly_in_n() {
        let l1 = l_star(100, 1000.0, 0.01, 0.001, 0.1);
        let l2 = l_star(200, 1000.0, 0.01, 0.001, 0.1);
        // Dominated by n·ln2, so roughly doubles.
        assert!(l2 / l1 > 1.8 && l2 / l1 < 2.2, "ratio {}", l2 / l1);
    }

    #[test]
    fn l_star_inverse_in_pmax() {
        let l_small = l_star(100, 1000.0, 0.01, 0.001, 0.01);
        let l_big = l_star(100, 1000.0, 0.01, 0.001, 0.1);
        assert!((l_small / l_big - 10.0).abs() < 1e-6);
    }

    #[test]
    fn l_star_decreases_in_eps1() {
        let tight = l_star(100, 1000.0, 0.01, 0.0005, 0.1);
        let loose = l_star(100, 1000.0, 0.01, 0.005, 0.1);
        assert!(tight > loose);
    }

    #[test]
    fn chernoff_justifies_l_star() {
        // With l = l*, the per-subset failure probability must be at most
        // 1/(N·2^n): check the Lemma 6 computation end to end for small n.
        let (n, n_conf, eps0, eps1, pmax_est) = (20usize, 100.0, 0.01, 0.05, 0.2);
        let l = l_star(n, n_conf, eps0, eps1, pmax_est);
        // Worst case f(I) = pmax upper bound: δ = ε1·p*max/f(I) with
        // f(I) ≤ pmax ≤ p*max/(1−ε0).
        let f_i = pmax_est / (1.0 - eps0);
        let delta = eps1 * pmax_est / f_i;
        let per_subset = chernoff_bound(l, f_i, delta);
        let budget = 1.0 / (n_conf * 2f64.powi(n as i32));
        assert!(per_subset <= budget * 1.0001, "{per_subset} > {budget}");
    }

    #[test]
    fn dklr_expected_samples_positive_and_decreasing_in_pmax() {
        let a = dklr_expected_samples(0.1, 1000.0, 0.01);
        let b = dklr_expected_samples(0.1, 1000.0, 0.1);
        assert!(a > b && b > 0.0);
    }
}
