//! Incremental construction of [`SocialGraph`]s.

use crate::{GraphError, NodeId, SocialGraph, WeightScheme};
use std::collections::HashSet;

/// Builder for [`SocialGraph`]; collects undirected edges, deduplicates
/// them and rejects self-loops. [`build`](GraphBuilder::build) lays out
/// the sorted adjacency, which implies every familiarity weight.
///
/// The node set is `0..n` where `n` is one past the largest id seen (or a
/// larger explicit [`reserve_nodes`](GraphBuilder::reserve_nodes) value), so
/// isolated trailing nodes can be represented.
///
/// ```
/// use raf_graph::{GraphBuilder, WeightScheme};
///
/// # fn main() -> Result<(), raf_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 3)?;
/// b.add_edge(3, 0)?; // duplicate, ignored
/// let g = b.build(WeightScheme::UniformByDegree)?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32)>,
    seen: HashSet<(u32, u32)>,
    node_count: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for roughly `edges` insertions.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            seen: HashSet::with_capacity(edges * 2),
            node_count: 0,
        }
    }

    /// Ensures the built graph has at least `n` nodes even if some are
    /// isolated.
    pub fn reserve_nodes(&mut self, n: usize) -> &mut Self {
        self.node_count = self.node_count.max(n);
        self
    }

    /// Number of distinct edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Whether the undirected edge `{u, v}` has been added.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        let key = Self::key(u as u32, v as u32);
        self.seen.contains(&key)
    }

    fn key(u: u32, v: u32) -> (u32, u32) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Adds the undirected edge `{u, v}`. Duplicate edges are silently
    /// ignored (the graph is simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] when `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        debug_assert!(u <= u32::MAX as usize && v <= u32::MAX as usize);
        let key = Self::key(u as u32, v as u32);
        if self.seen.insert(key) {
            self.edges.push(key);
            self.node_count = self.node_count.max(u + 1).max(v + 1);
        }
        Ok(self)
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError::SelfLoop`] encountered; edges
    /// added before the failure remain in the builder.
    pub fn add_edges<I>(&mut self, iter: I) -> Result<&mut Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (u, v) in iter {
            self.add_edge(u, v)?;
        }
        Ok(self)
    }

    /// Renumbers every stored edge through `perm` (`perm[old] = new`),
    /// in place. A bijection maps distinct endpoints to distinct
    /// endpoints, so the builder stays a valid simple graph with the
    /// same edge count; the dedup index is rebuilt under the new ids.
    ///
    /// This is how the synthetic dataset stand-ins shuffle node ids to
    /// match real SNAP crawl order — permuting the edge list directly is
    /// one pass, where the previous build → re-add → rebuild cycle paid
    /// a full intermediate graph construction.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when `perm` is not a
    /// permutation of `0..self.node_count()`.
    pub fn permute_nodes(&mut self, perm: &[usize]) -> Result<&mut Self, GraphError> {
        let n = self.node_count;
        if perm.len() != n {
            return Err(GraphError::InvalidParameter {
                message: format!("permutation covers {} nodes but the builder has {n}", perm.len()),
            });
        }
        let mut hit = vec![false; n];
        for &image in perm {
            if image >= n || hit[image] {
                return Err(GraphError::InvalidParameter {
                    message: format!(
                        "not a permutation of 0..{n}: image {image} repeats or overflows"
                    ),
                });
            }
            hit[image] = true;
        }
        for edge in &mut self.edges {
            *edge = Self::key(perm[edge.0 as usize] as u32, perm[edge.1 as usize] as u32);
        }
        self.seen.clear();
        self.seen.extend(self.edges.iter().copied());
        Ok(self)
    }

    /// Finalizes the graph under `scheme`, whose one variant derives every
    /// weight from the degrees, so nothing is assigned or stored.
    ///
    /// # Errors
    ///
    /// None today: every edge list the builder accepts is a valid graph.
    /// The `Result` and the `scheme` argument stay so the call sites do
    /// not churn.
    pub fn build(&self, scheme: WeightScheme) -> Result<SocialGraph, GraphError> {
        let WeightScheme::UniformByDegree = scheme;
        let n = self.node_count;
        // Exact per-node preallocation: at million-node generator scale
        // the incremental regrowth of 2m random-order pushes dominated
        // the build.
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut adj: Vec<Vec<NodeId>> = degree.into_iter().map(Vec::with_capacity).collect();
        for &(u, v) in &self.edges {
            adj[u as usize].push(NodeId::from(v));
            adj[v as usize].push(NodeId::from(u));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        Ok(SocialGraph::from_parts(adj, self.edges.len()))
    }
}

impl FromIterator<(usize, usize)> for GraphBuilder {
    /// Collects edges into a builder, skipping self-loops silently (use
    /// [`GraphBuilder::add_edge`] for strict handling).
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let mut b = GraphBuilder::new();
        for (u, v) in iter {
            if u != v {
                let _ = b.add_edge(u, v);
            }
        }
        b
    }
}

impl Extend<(usize, usize)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (usize, usize)>>(&mut self, iter: I) {
        for (u, v) in iter {
            if u != v {
                let _ = self.add_edge(u, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        assert!(matches!(b.add_edge(2, 2), Err(GraphError::SelfLoop { node: 2 })));
    }

    #[test]
    fn dedups_edges_in_both_orientations() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn reserve_isolated_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.reserve_nodes(10);
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.degree(NodeId::new(9)), 0);
    }

    #[test]
    fn from_iterator_skips_self_loops() {
        let b: GraphBuilder = vec![(0, 1), (1, 1), (1, 2)].into_iter().collect();
        assert_eq!(b.edge_count(), 2);
    }

    #[test]
    fn extend_accumulates() {
        let mut b = GraphBuilder::new();
        b.extend(vec![(0, 1), (1, 2)]);
        b.extend(vec![(2, 3)]);
        assert_eq!(b.edge_count(), 3);
        assert_eq!(b.node_count(), 4);
    }

    #[test]
    fn contains_edge_is_orientation_free() {
        let mut b = GraphBuilder::new();
        b.add_edge(4, 7).unwrap();
        assert!(b.contains_edge(4, 7));
        assert!(b.contains_edge(7, 4));
        assert!(!b.contains_edge(4, 5));
    }

    #[test]
    fn build_produces_sorted_adjacency() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 5).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 9).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        let nbrs: Vec<usize> = g.neighbors(NodeId::new(0)).iter().map(|v| v.index()).collect();
        assert_eq!(nbrs, vec![2, 5, 9]);
    }

    #[test]
    fn add_edges_bulk() {
        let mut b = GraphBuilder::new();
        b.add_edges((0..10).map(|i| (i, i + 1))).unwrap();
        assert_eq!(b.edge_count(), 10);
        assert_eq!(b.node_count(), 11);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = GraphBuilder::with_capacity(100);
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn permute_nodes_relabels_edges_and_dedup_index() {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        // perm: 0→3, 1→2, 2→1, 3→0.
        b.permute_nodes(&[3, 2, 1, 0]).unwrap();
        assert_eq!(b.edge_count(), 3);
        assert!(b.contains_edge(3, 2) && b.contains_edge(2, 1) && b.contains_edge(1, 0));
        assert!(!b.contains_edge(0, 3));
        // The dedup index survives the renumbering: re-adding a mapped
        // edge is a no-op, a genuinely new edge lands.
        b.add_edge(2, 3).unwrap();
        assert_eq!(b.edge_count(), 3);
        b.add_edge(0, 3).unwrap();
        assert_eq!(b.edge_count(), 4);
    }

    #[test]
    fn permute_nodes_matches_rebuild_through_add_edge() {
        // The permuted builder must build the exact graph the old
        // build → re-add cycle produced (adjacency is sorted at build,
        // so edge-vec order differences are invisible).
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 4), (4, 2), (2, 0), (1, 3)]).unwrap();
        let perm = [2usize, 0, 4, 3, 1];
        let direct = {
            let mut p = b.clone();
            p.permute_nodes(&perm).unwrap();
            p.build(WeightScheme::UniformByDegree).unwrap()
        };
        let rebuilt = {
            let g = b.build(WeightScheme::UniformByDegree).unwrap();
            let mut p = GraphBuilder::with_capacity(g.edge_count());
            p.reserve_nodes(g.node_count());
            for (u, v) in g.edges() {
                p.add_edge(perm[u.index()], perm[v.index()]).unwrap();
            }
            p.build(WeightScheme::UniformByDegree).unwrap()
        };
        assert_eq!(direct.edges().collect::<Vec<_>>(), rebuilt.edges().collect::<Vec<_>>());
        for v in 0..5 {
            assert_eq!(direct.degree(NodeId::new(v)), rebuilt.degree(NodeId::new(v)));
        }
    }

    #[test]
    fn permute_nodes_rejects_non_permutations() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        assert!(b.permute_nodes(&[0]).is_err()); // wrong length
        assert!(b.permute_nodes(&[0, 0]).is_err()); // repeated image
        assert!(b.permute_nodes(&[0, 2]).is_err()); // image out of range
                                                    // The failed calls left the edges untouched.
        assert!(b.contains_edge(0, 1));
    }
}
