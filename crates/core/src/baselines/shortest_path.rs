//! The Shortest-Path (SP) baseline.

use super::{is_candidate, Baseline};
use raf_model::{FriendingInstance, InvitationSet};

/// SP "fills the invitation set by adding the nodes on the shortest paths
/// from s to t; if more invited nodes are needed, SP will select the next
/// shortest path disjoint from those that have been selected" (Sec. IV-A).
///
/// Paths are consumed shortest-first; within a path, nodes are added from
/// the `t` end backwards (the nodes closest to the target are the scarce
/// resource). `s` and existing friends are skipped — they need no
/// invitation. The routes come from `successive_disjoint_paths_csr`, the
/// workspace's one disjoint-path search.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestPath;

impl ShortestPath {
    /// Creates the baseline.
    pub fn new() -> Self {
        ShortestPath
    }
}

impl Baseline for ShortestPath {
    fn build(&self, instance: &FriendingInstance<'_>, size: usize) -> InvitationSet {
        let g = instance.graph();
        let n = g.node_count();
        let mut inv = InvitationSet::empty(n);
        if size == 0 {
            return inv;
        }
        inv.insert(instance.target());
        if inv.len() < size {
            // Search at most `size + 1` routes. A two-hop route adds
            // nobody (its interior node is a friend of `s`), so on pairs
            // with many mutual friends the cap can stop SP short of `size`.
            let paths = successive_disjoint_paths_csr(instance, size + 1);
            'outer: for path in paths {
                for &v in path.iter().rev() {
                    if is_candidate(instance, v) {
                        inv.insert(v);
                        if inv.len() >= size {
                            break 'outer;
                        }
                    }
                }
            }
        }
        instance.to_original_set(&inv)
    }

    fn name(&self) -> &'static str {
        "shortest-path"
    }
}

/// Up to `max_paths` successive interior-disjoint BFS shortest paths from
/// `s` to `t` on the CSR snapshot, shortest first, each with both
/// endpoints: every search skips the interiors of the paths before it, and
/// the list stops early when no route is left.
///
/// There is no direct-edge case: [`FriendingInstance`] rejects an `s`–`t`
/// pair that are already friends, so every path has an interior node, and
/// blocking the interiors forces each search onto a new route.
fn successive_disjoint_paths_csr(
    instance: &FriendingInstance<'_>,
    max_paths: usize,
) -> Vec<Vec<raf_graph::NodeId>> {
    use raf_graph::NodeId;
    use std::collections::VecDeque;
    let g = instance.graph();
    let n = g.node_count();
    let (s, t) = (instance.initiator(), instance.target());
    let mut blocked = vec![false; n];
    let mut paths = Vec::new();
    for _ in 0..max_paths {
        // BFS avoiding blocked interiors.
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[s.index()] = true;
        queue.push_back(s);
        let mut found = false;
        'bfs: while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if visited[u.index()] {
                    continue;
                }
                if u == t {
                    parent[u.index()] = Some(v);
                    found = true;
                    break 'bfs;
                }
                if blocked[u.index()] {
                    continue;
                }
                visited[u.index()] = true;
                parent[u.index()] = Some(v);
                queue.push_back(u);
            }
        }
        if !found {
            break;
        }
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        for &v in &path[1..path.len() - 1] {
            blocked[v.index()] = true;
        }
        paths.push(path);
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{GraphBuilder, NodeId, WeightScheme};

    /// Two routes 0→5: 0-1-5 (short) and 0-2-3-4-5 (long).
    fn two_routes() -> raf_graph::CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 5), (0, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    fn routes(g: &raf_graph::CsrGraph, s: usize, t: usize, max_paths: usize) -> Vec<Vec<NodeId>> {
        let instance = FriendingInstance::new(g, NodeId::new(s), NodeId::new(t)).unwrap();
        successive_disjoint_paths_csr(&instance, max_paths)
    }

    #[test]
    fn finds_paths_in_length_order() {
        let paths = routes(&two_routes(), 0, 5, 10);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 5);
    }

    #[test]
    fn interiors_are_disjoint() {
        let paths = routes(&two_routes(), 0, 5, 10);
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            for v in &p[1..p.len() - 1] {
                assert!(seen.insert(*v), "interior node {v} reused");
            }
        }
    }

    #[test]
    fn respects_max_paths() {
        assert_eq!(routes(&two_routes(), 0, 5, 1).len(), 1);
    }

    #[test]
    fn exhausts_when_no_more_routes() {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        // One route; its interior node 1 is then blocked.
        assert_eq!(routes(&g, 0, 2, 10).len(), 1);
    }

    #[test]
    fn takes_short_route_first() {
        let g = two_routes();
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(5)).unwrap();
        // Budget 2: target + the short route's interior (node 1 is a seed?
        // N_0 = {1, 2}: both route entries are seeds!). The path 0-1-5 has
        // interior {1} which is a seed, so SP must fall through to t only,
        // then the longer route's interiors 3, 4.
        let inv = ShortestPath::new().build(&instance, 3);
        assert!(inv.contains(NodeId::new(5)));
        assert!(!inv.contains(NodeId::new(1)));
        assert!(inv.contains(NodeId::new(4)));
        assert!(inv.contains(NodeId::new(3)));
    }

    #[test]
    fn covers_whole_route_with_enough_budget() {
        // Lengthen route A so its interior is not all seeds:
        // 0-1-6-5 and 0-2-3-4-5.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 6), (6, 5), (0, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(5)).unwrap();
        let inv = ShortestPath::new().build(&instance, 2);
        // Short route 0-1-6-5: interior candidates {6} (1 is a seed).
        assert!(inv.contains(NodeId::new(5)));
        assert!(inv.contains(NodeId::new(6)));
        assert_eq!(inv.len(), 2);
    }

    #[test]
    fn grows_into_second_route() {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 6), (6, 5), (0, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(5)).unwrap();
        let inv = ShortestPath::new().build(&instance, 4);
        // After route A (t, 6), budget flows into route B's interiors
        // nearest t first: 4, then 3.
        assert!(inv.contains(NodeId::new(4)));
        assert!(inv.contains(NodeId::new(3)));
        assert!(!inv.contains(NodeId::new(2)));
    }

    #[test]
    fn disconnected_gives_target_only() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let instance = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = ShortestPath::new().build(&instance, 5);
        assert_eq!(inv.to_vec(), vec![NodeId::new(3)]);
    }
}
