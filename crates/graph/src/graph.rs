//! The [`SocialGraph`] adjacency-list representation.

use crate::{weights, CsrGraph, NodeId};
use serde::{Deserialize, Serialize};

/// An undirected simple graph under the friending model of Sec. II-A of
/// the paper.
///
/// Every ordered pair of friends `(u, v)` carries the familiarity
/// `w(u,v) = 1/|N_v|` that `v` places on `u`
/// ([`WeightScheme::UniformByDegree`](crate::WeightScheme::UniformByDegree)).
/// Weights need not be symmetric, and they are implied by the degrees,
/// so the graph stores only adjacency. The LT normalization
/// `Σ_u w(u,v) ≤ 1` holds for every node up to rounding.
///
/// Neighbor lists are kept sorted by node id, enabling `O(log d)` edge
/// queries via binary search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SocialGraph {
    /// `adj[v]` = sorted neighbor ids of node `v`.
    adj: Vec<Vec<NodeId>>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl SocialGraph {
    /// Assembles a graph from pre-sorted adjacency. Used by
    /// [`GraphBuilder`](crate::GraphBuilder); not public.
    pub(crate) fn from_parts(adj: Vec<Vec<NodeId>>, edge_count: usize) -> Self {
        SocialGraph { adj, edge_count }
    }

    /// Number of users `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of friendships `m = |E|` (undirected edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree `|N_v|` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// The sorted current friends `N_v` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// Whether `{u, v}` is an edge (the users are friends).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return false;
        }
        self.adj[v.index()].binary_search(&u).is_ok()
    }

    /// The familiarity `w(u,v) = 1/|N_v|` that `v` places on `u`, or
    /// `None` when the two users are not friends (the paper sets such
    /// weights to 0).
    pub fn in_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if !self.has_edge(u, v) {
            return None;
        }
        Some(weights::in_weight(self.degree(v)))
    }

    /// Total incoming familiarity `Σ_u w(u,v)`, summed left to right: 1
    /// up to rounding for a node with friends, 0 for an isolated one. A
    /// node's realization selects **no** neighbor with probability
    /// `1 − total_in_weight(v)` (Def. 1).
    pub fn total_in_weight(&self, v: NodeId) -> f64 {
        weights::total_in_weight(self.degree(v))
    }

    /// Iterates over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(v, nbrs)| {
            let v = NodeId::new(v);
            nbrs.iter().copied().filter(move |&u| v < u).map(move |u| (v, u))
        })
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Builds the immutable CSR snapshot used by the sampling hot paths.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_social_graph(self)
    }

    /// Builds the CSR snapshot under a node relabeling (see
    /// [`CsrGraph::from_social_graph_relabeled`]). It stays for the
    /// serving benchmark's hub-BFS workload until ROADMAP item 4; every
    /// `raf` command builds [`to_csr`](Self::to_csr).
    pub fn to_csr_relabeled(&self, relabeling: &crate::Relabeling) -> CsrGraph {
        CsrGraph::from_social_graph_relabeled(self, relabeling)
    }

    /// Returns the neighbor of `v` with maximum degree (ties broken toward
    /// the lowest id), used by tests and simple heuristics. `None` when `v`
    /// is isolated.
    pub fn max_degree_neighbor(&self, v: NodeId) -> Option<NodeId> {
        self.neighbors(v).iter().copied().max_by_key(|&u| (self.degree(u), std::cmp::Reverse(u)))
    }

    /// Average degree `2m/n`, as reported in the paper's Table I.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, NodeId, WeightScheme};

    fn triangle() -> crate::SocialGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = triangle();
        assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.neighbors(NodeId::new(1)), &[NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn uniform_weights_sum_to_one() {
        let g = triangle();
        for v in g.nodes() {
            assert!((g.total_in_weight(v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn edge_queries() {
        let g = triangle();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(7)));
        assert_eq!(g.in_weight(NodeId::new(0), NodeId::new(1)), Some(0.5));
        assert_eq!(g.in_weight(NodeId::new(5), NodeId::new(1)), None);
    }

    #[test]
    fn edges_iterate_once_each() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn asymmetric_weights() {
        // A path 0 - 1 - 2: node 1 has degree 2, nodes 0 and 2 degree 1.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        // w(1, 0) = 1 (node 0's only neighbor), w(0, 1) = 1/2.
        assert_eq!(g.in_weight(NodeId::new(1), NodeId::new(0)), Some(1.0));
        assert_eq!(g.in_weight(NodeId::new(0), NodeId::new(1)), Some(0.5));
    }

    #[test]
    fn serde_roundtrip() {
        let g = triangle();
        // serde data-model roundtrip through the derived impls using a
        // token-free check: clone + field comparison via Debug formatting.
        let cloned = g.clone();
        assert_eq!(format!("{g:?}"), format!("{cloned:?}"));
    }

    #[test]
    fn max_degree_neighbor() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(1, 3).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.max_degree_neighbor(NodeId::new(0)), Some(NodeId::new(1)));
        assert_eq!(g.max_degree_neighbor(NodeId::new(1)), Some(NodeId::new(0)));
    }
}
