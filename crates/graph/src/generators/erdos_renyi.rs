//! Erdős–Rényi random graphs.

use crate::{GraphBuilder, GraphError};
use rand::Rng;

/// `G(n, p)`: every pair is an edge independently with probability `p`.
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than
/// `O(n²)` for sparse graphs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `p ∉ [0, 1]`.
pub fn erdos_renyi_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<GraphBuilder, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            message: format!("edge probability {p} outside [0, 1]"),
        });
    }
    let mut b = GraphBuilder::new();
    b.reserve_nodes(n);
    if p == 0.0 || n < 2 {
        return Ok(b);
    }
    if p == 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v)?;
            }
        }
        return Ok(b);
    }
    // Geometric skipping over the upper-triangular pair enumeration.
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = (r.ln() / log_q).floor() as i64 + 1;
        w += skip.max(1);
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            b.add_edge(w as usize, v)?;
        }
    }
    Ok(b)
}

/// `G(n, m)`: exactly `m` distinct edges sampled uniformly at random.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `m` exceeds `n(n−1)/2`.
pub fn erdos_renyi_gnm<R: Rng>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<GraphBuilder, GraphError> {
    let max_edges = if n < 2 { 0 } else { n * (n - 1) / 2 };
    if m > max_edges {
        return Err(GraphError::InvalidParameter {
            message: format!("{m} edges requested but only {max_edges} possible with {n} nodes"),
        });
    }
    let mut b = GraphBuilder::with_capacity(m);
    b.reserve_nodes(n);
    while b.edge_count() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            b.add_edge(u, v)?;
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightScheme;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gnp_zero_probability_is_empty() {
        let b = erdos_renyi_gnp(50, 0.0, &mut rng(1)).unwrap();
        assert_eq!(b.edge_count(), 0);
        assert_eq!(b.node_count(), 50);
    }

    #[test]
    fn gnp_one_probability_is_complete() {
        let b = erdos_renyi_gnp(10, 1.0, &mut rng(1)).unwrap();
        assert_eq!(b.edge_count(), 45);
    }

    #[test]
    fn gnp_rejects_bad_p() {
        assert!(erdos_renyi_gnp(10, 1.5, &mut rng(1)).is_err());
        assert!(erdos_renyi_gnp(10, -0.1, &mut rng(1)).is_err());
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 400;
        let p = 0.05;
        let b = erdos_renyi_gnp(n, p, &mut rng(42)).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = b.edge_count() as f64;
        // 5 sigma tolerance.
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!(
            (got - expected).abs() < 5.0 * sigma,
            "edge count {got} too far from expectation {expected}"
        );
    }

    #[test]
    fn gnm_exact_edge_count() {
        let b = erdos_renyi_gnm(100, 500, &mut rng(3)).unwrap();
        assert_eq!(b.edge_count(), 500);
        assert_eq!(b.node_count(), 100);
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (100, 500));
    }

    #[test]
    fn gnm_rejects_overfull() {
        assert!(erdos_renyi_gnm(5, 11, &mut rng(1)).is_err());
        assert!(erdos_renyi_gnm(5, 10, &mut rng(1)).is_ok());
    }

    #[test]
    fn gnm_no_self_loops_or_duplicates() {
        let b = erdos_renyi_gnm(30, 200, &mut rng(9)).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.edge_count(), 200);
        for (u, v) in g.edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let b1 = erdos_renyi_gnp(100, 0.05, &mut rng(7)).unwrap();
        let b2 = erdos_renyi_gnp(100, 0.05, &mut rng(7)).unwrap();
        assert_eq!(b1.edge_count(), b2.edge_count());
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(erdos_renyi_gnp(0, 0.5, &mut rng(1)).unwrap().node_count(), 0);
        assert_eq!(erdos_renyi_gnp(1, 0.5, &mut rng(1)).unwrap().edge_count(), 0);
        assert_eq!(erdos_renyi_gnm(1, 0, &mut rng(1)).unwrap().edge_count(), 0);
    }
}
