//! The friending model's familiarity weights.

use serde::{Deserialize, Serialize};

/// How familiarity weights `w(u,v)` are assigned when building a
/// [`SocialGraph`](crate::SocialGraph).
///
/// The one scheme is the paper's model, so a weight is implied by the
/// degree of the node that places it, and no graph stores weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WeightScheme {
    /// The convention used throughout the paper's evaluation (Sec. IV,
    /// "Friending Model"): `w(u,v) = 1/|N_v|`. Incoming weights sum to 1,
    /// up to rounding, for every non-isolated node.
    UniformByDegree,
}

/// `w(u,v) = 1/|N_v|` for a node `v` of degree `degree ≥ 1`.
#[inline]
pub(crate) fn in_weight(degree: usize) -> f64 {
    1.0 / degree as f64
}

/// `Σ_u w(u,v)` for a node of degree `degree`, summed left to right as
/// `degree` copies of [`in_weight`]: 0 for an isolated node, otherwise
/// within a few ulps of 1 and sometimes below it, where a draw in
/// `[total, 1)` selects nobody. Selection compares draws against this
/// exact sum, so its rounding is part of every sampled pool.
pub(crate) fn total_in_weight(degree: usize) -> f64 {
    let w = if degree == 0 { 0.0 } else { in_weight(degree) };
    let mut total = 0.0;
    for _ in 0..degree {
        total += w;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, NodeId};

    #[test]
    fn uniform_by_degree() {
        // A star's center has degree 4: each leaf weighs 1/4 on both
        // graph representations.
        let mut b = GraphBuilder::new();
        b.add_edges((1..=4).map(|leaf| (0, leaf))).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        let csr = g.to_csr();
        for leaf in 1..=4 {
            let (u, v) = (NodeId::new(leaf), NodeId::new(0));
            assert_eq!(g.in_weight(u, v), Some(0.25));
            assert_eq!(csr.in_weight(u, v), Some(0.25));
        }
        assert_eq!(g.total_in_weight(NodeId::new(0)), 1.0);
        assert_eq!(csr.total_in_weight(NodeId::new(0)), 1.0);
    }

    #[test]
    fn isolated_node_has_no_weights() {
        assert_eq!(total_in_weight(0), 0.0);
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        let g = b.reserve_nodes(3).build(WeightScheme::UniformByDegree).unwrap();
        let isolated = NodeId::new(2);
        assert_eq!(g.total_in_weight(isolated), 0.0);
        assert_eq!(g.to_csr().total_in_weight(isolated), 0.0);
        assert_eq!(g.in_weight(NodeId::new(0), isolated), None);
    }
}
