//! Connected components, labelled in one union-find pass: the
//! connectivity check behind the generator and dataset stand-in tests.

use crate::{NodeId, SocialGraph, UnionFind};

/// Component labels for every node, produced by [`connected_components`].
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    labels: Vec<u32>,
    count: usize,
}

impl ComponentLabels {
    /// The component label of `v` (dense in `0..count`).
    pub fn label(&self, v: NodeId) -> usize {
        self.labels[v.index()] as usize
    }

    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sizes of each component, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }
}

/// Labels the connected components of `g` with a union-find pass.
pub fn connected_components(g: &SocialGraph) -> ComponentLabels {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    for (u, v) in g.edges() {
        uf.union(u.index(), v.index());
    }
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    for i in 0..n {
        let root = uf.find(i);
        if labels[root] == u32::MAX {
            labels[root] = next;
            next += 1;
        }
        labels[i] = labels[root];
    }
    ComponentLabels { labels, count: next as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, WeightScheme};

    fn two_components() -> SocialGraph {
        let mut b = GraphBuilder::new();
        // Component A: 0-1-2 (3 nodes); component B: 3-4 (2 nodes).
        b.add_edges(vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn counts_components() {
        let labels = connected_components(&two_components());
        assert_eq!(labels.count(), 2);
        let mut sizes = labels.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn labels_are_consistent_within_component() {
        let g = two_components();
        let labels = connected_components(&g);
        assert_eq!(labels.label(NodeId::new(0)), labels.label(NodeId::new(2)));
        assert_ne!(labels.label(NodeId::new(0)), labels.label(NodeId::new(3)));
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.reserve_nodes(4);
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels.count(), 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn empty_graph() {
        let b = GraphBuilder::new();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels.count(), 0);
    }

    #[test]
    fn fully_connected_single_component() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(i, j).unwrap();
            }
        }
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(connected_components(&g).count(), 1);
    }
}
