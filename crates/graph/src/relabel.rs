//! Node relabeling: a hub-seeded BFS renumbering and the image-order
//! CSR build it feeds.
//!
//! Every `raf` command (`raf serve`, `raf run`, `raf max`, the
//! experiment sweeps and `raf bench-json`) samples the plain CSR. This
//! module stays only for the serving benchmark (`perfbench/`), whose
//! workloads build [`Relabeling::hub_bfs`] and serve through a relabeled
//! session, until ROADMAP item 4 deletes it. The layout earned no place
//! of its own: in the interleaved bake-off hub-BFS ran at 0.99× the
//! plain layout's speed at 220k nodes and 0.89× at 1M (README, "Layout").
//!
//! A [`Relabeling`] is a bijection `original ↔ new`. Applying it to a
//! graph is done at CSR build time
//! ([`CsrGraph::from_social_graph_relabeled`](crate::CsrGraph::from_social_graph_relabeled)),
//! which preserves each node's neighbor slice in *image order* — the
//! relabeled slice at position `i` holds the image of the original slice's
//! position-`i` entry. Because realization selection
//! ([`CsrGraph::select_with`](crate::CsrGraph::select_with)) is purely
//! positional, a walk on the relabeled snapshot consumes the same RNG
//! draws and visits exactly the images of the nodes the unrelabeled walk
//! visits: sampling is *equivariant*, not merely equal in distribution.
//! Everything downstream can therefore map results back through the
//! inverse permutation and report ids in original space with **no**
//! statistical or bitwise divergence (the relabeling property tests
//! assert exact equality, for hub-BFS and for random permutations).

use crate::{NodeId, SocialGraph};

/// A bijective renumbering of the nodes `0..n`.
///
/// `new_of(original)` maps into the relabeled space; `original_of(new)`
/// is the inverse. Construct with [`Relabeling::hub_bfs`], from an
/// explicit order with [`Relabeling::from_order`], or with
/// [`Relabeling::identity`]. It stays for the serving benchmark's
/// hub-BFS workload until ROADMAP item 4; no `raf` command builds one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// `to_new[original] = new`.
    to_new: Vec<u32>,
    /// `to_original[new] = original`.
    to_original: Vec<u32>,
}

impl Relabeling {
    /// The identity relabeling on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<u32> = (0..n as u32).collect();
        Relabeling { to_new: ids.clone(), to_original: ids }
    }

    /// Builds a relabeling from `order`, where `order[new] = original`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: &[NodeId]) -> Self {
        let n = order.len();
        let mut to_new = vec![u32::MAX; n];
        let mut to_original = Vec::with_capacity(n);
        for (new, &orig) in order.iter().enumerate() {
            let o = orig.index();
            assert!(o < n, "order entry {o} out of range for {n} nodes");
            assert!(to_new[o] == u32::MAX, "node {o} appears twice in order");
            to_new[o] = new as u32;
            to_original.push(o as u32);
        }
        Relabeling { to_new, to_original }
    }

    /// Hub-seeded BFS order: visit nodes breadth-first starting from the
    /// highest-degree node, restarting from the highest-degree unvisited
    /// node whenever a component is exhausted. Within a BFS level,
    /// neighbors are visited in adjacency order, so the heavy spine of a
    /// social graph — the hubs and their one-hop shells, which is where
    /// backward walks spend their time — occupies a dense id prefix.
    ///
    /// Deterministic: ties in degree break toward the lower original id.
    pub fn hub_bfs(g: &SocialGraph) -> Self {
        let n = g.node_count();
        let mut hubs: Vec<u32> = (0..n as u32).collect();
        hubs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(NodeId::new(v as usize))), v));
        let mut visited = vec![false; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        for &hub in &hubs {
            if visited[hub as usize] {
                continue;
            }
            visited[hub as usize] = true;
            queue.push_back(hub);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                for &u in g.neighbors(NodeId::new(v as usize)) {
                    if !visited[u.index()] {
                        visited[u.index()] = true;
                        queue.push_back(u.index() as u32);
                    }
                }
            }
        }
        Self::from_u32_order(order)
    }

    /// Builds the bijection from a complete `order[new] = original`
    /// permutation (already validated by construction in
    /// [`hub_bfs`](Self::hub_bfs)).
    fn from_u32_order(order: Vec<u32>) -> Self {
        let n = order.len();
        let mut to_new = vec![0u32; n];
        for (new, &orig) in order.iter().enumerate() {
            to_new[orig as usize] = new as u32;
        }
        Relabeling { to_new, to_original: order }
    }

    /// Number of nodes the relabeling covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.to_new.len()
    }

    /// Whether the relabeling covers zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.to_new.is_empty()
    }

    /// The relabeled id of an original node.
    ///
    /// # Panics
    ///
    /// Panics if `original` is out of range.
    #[inline]
    pub fn new_of(&self, original: NodeId) -> NodeId {
        NodeId::new(self.to_new[original.index()] as usize)
    }

    /// The original id of a relabeled node.
    ///
    /// # Panics
    ///
    /// Panics if `new` is out of range.
    #[inline]
    pub fn original_of(&self, new: NodeId) -> NodeId {
        NodeId::new(self.to_original[new.index()] as usize)
    }

    /// The raw inverse table (`table[new] = original`) — the zero-overhead
    /// form hot paths index directly.
    #[inline]
    pub fn original_table(&self) -> &[u32] {
        &self.to_original
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.to_original.iter().enumerate().all(|(i, &o)| i == o as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, WeightScheme};

    fn star_plus_tail() -> SocialGraph {
        // Hub 3 with spokes {0, 1, 2, 5}, tail 5-4-6.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(3, 0), (3, 1), (3, 2), (3, 5), (5, 4), (4, 6)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn identity_round_trips() {
        let r = Relabeling::identity(5);
        assert!(r.is_identity());
        assert_eq!(r.len(), 5);
        for i in 0..5 {
            assert_eq!(r.new_of(NodeId::new(i)), NodeId::new(i));
            assert_eq!(r.original_of(NodeId::new(i)), NodeId::new(i));
        }
    }

    #[test]
    fn hub_bfs_starts_at_the_hub() {
        let g = star_plus_tail();
        let r = Relabeling::hub_bfs(&g);
        // Node 3 has maximum degree 4 → new id 0; its neighbors fill the
        // next ids in adjacency (sorted) order: 0, 1, 2, 5.
        assert_eq!(r.new_of(NodeId::new(3)), NodeId::new(0));
        assert_eq!(r.original_of(NodeId::new(0)), NodeId::new(3));
        assert_eq!(r.original_of(NodeId::new(1)), NodeId::new(0));
        assert_eq!(r.original_of(NodeId::new(2)), NodeId::new(1));
        assert_eq!(r.original_of(NodeId::new(3)), NodeId::new(2));
        assert_eq!(r.original_of(NodeId::new(4)), NodeId::new(5));
        // Second shell: 5's unvisited neighbor 4, then 4's neighbor 6.
        assert_eq!(r.original_of(NodeId::new(5)), NodeId::new(4));
        assert_eq!(r.original_of(NodeId::new(6)), NodeId::new(6));
    }

    #[test]
    fn hub_bfs_is_a_permutation() {
        let g = star_plus_tail();
        let r = Relabeling::hub_bfs(&g);
        assert_eq!(r.len(), g.node_count());
        let mut seen = vec![false; r.len()];
        for new in 0..r.len() {
            let orig = r.original_of(NodeId::new(new));
            assert!(!seen[orig.index()], "original id {orig:?} mapped twice");
            seen[orig.index()] = true;
            assert_eq!(r.new_of(orig), NodeId::new(new), "inverse mismatch");
        }
    }

    #[test]
    fn hub_bfs_covers_disconnected_and_isolated_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (3, 4), (3, 5)]).unwrap();
        b.reserve_nodes(7); // node 6 isolated
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        let r = Relabeling::hub_bfs(&g);
        assert_eq!(r.len(), 7);
        // Hub of the bigger component first (node 3, degree 2).
        assert_eq!(r.original_of(NodeId::new(0)), NodeId::new(3));
        let mut originals: Vec<usize> =
            (0..7).map(|new| r.original_of(NodeId::new(new)).index()).collect();
        originals.sort_unstable();
        assert_eq!(originals, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn from_order_validates() {
        let order: Vec<NodeId> = [2usize, 0, 1].iter().map(|&i| NodeId::new(i)).collect();
        let r = Relabeling::from_order(&order);
        assert_eq!(r.new_of(NodeId::new(2)), NodeId::new(0));
        assert_eq!(r.original_table(), &[2, 0, 1]);
        assert!(!r.is_identity());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn from_order_rejects_duplicates() {
        let order: Vec<NodeId> = [0usize, 0, 1].iter().map(|&i| NodeId::new(i)).collect();
        let _ = Relabeling::from_order(&order);
    }

    #[test]
    fn every_order_is_a_permutation() {
        // Both ways to build a relabeling: the hub-BFS order and an
        // explicit order (here the reverse of the identity).
        let g = star_plus_tail();
        let reversed: Vec<NodeId> = (0..g.node_count()).rev().map(NodeId::new).collect();
        for (name, r) in [
            ("hub_bfs", Relabeling::hub_bfs(&g)),
            ("from_order", Relabeling::from_order(&reversed)),
        ] {
            assert_eq!(r.len(), g.node_count(), "{name}");
            let mut seen = vec![false; r.len()];
            for new in 0..r.len() {
                let orig = r.original_of(NodeId::new(new));
                assert!(!seen[orig.index()], "{name}: {orig:?} mapped twice");
                seen[orig.index()] = true;
                assert_eq!(r.new_of(orig), NodeId::new(new), "{name}: inverse");
            }
        }
    }
}
