//! Edge→walk side index over the flat [`PathPool`] arena.
//!
//! Incremental pool repair needs to answer "which stored walks does this
//! edge delta invalidate?" without scanning the whole arena. A stored
//! type-1 path `[t, v1, …, vk]` drew one weighted step at every recorded
//! node, and since weights derive from degrees (`w(u,v) = 1/|N_v|`)
//! churn on edge `{u, v}` renormalizes the *entire* in-weight
//! distribution at both endpoints — so the exact invalidation
//! unit is "the walk drew a step at a touched endpoint". Every draw site
//! lies on the path, so indexing paths by their recorded nodes is the
//! edge-bundle index of the ISSUE collapsed to node granularity: the
//! bucket of node `v` is the union of the bundles of `v`'s incident
//! edges, stored once instead of per edge.
//!
//! The index is a second CSR over the arena — `offsets` by node id,
//! `path_ids` the concatenated buckets — built in two counting passes,
//! O(total path length). Queries cost O(Σ touched-bucket sizes), i.e.
//! proportional to the walks actually affected, never pool or graph
//! size.
//!
//! Type-0 walks (dangling/cycle terminations) are tallied but not stored
//! in the arena, so they cannot be indexed; the repair layer accounts
//! for them separately (see `sampler::repair_pool`).

use crate::sampler::PathPool;

/// CSR index from node id → ids of unique pool paths that drew a step
/// at that node.
#[derive(Debug, Clone)]
pub struct EdgeWalkIndex {
    /// `offsets[v]..offsets[v + 1]` brackets node `v`'s bucket.
    offsets: Vec<u32>,
    /// Concatenated buckets; ids ascend within each bucket.
    path_ids: Vec<u32>,
}

/// The walks an edge delta invalidates, as reported by
/// [`EdgeWalkIndex::invalidated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invalidation {
    /// Sorted, deduplicated ids of stale unique paths.
    pub stale: Vec<u32>,
    /// Total multiplicity mass of the stale paths — the number of raw
    /// walks that must be re-sampled.
    pub mass: u64,
}

impl Invalidation {
    /// Whether the delta leaves the pool untouched.
    pub fn is_empty(&self) -> bool {
        self.stale.is_empty()
    }
}

impl EdgeWalkIndex {
    /// Builds the index for `pool` over a graph with `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if a stored path references a node `>= node_count` (the
    /// pool and the graph snapshot must agree).
    pub fn build(pool: &PathPool, node_count: usize) -> Self {
        let mut counts = vec![0u32; node_count + 1];
        for (path, _) in pool.iter() {
            for &v in path {
                assert!(
                    (v as usize) < node_count,
                    "pool path references node {v} outside graph of {node_count} nodes"
                );
                counts[v as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor: Vec<u32> = offsets[..node_count].to_vec();
        let mut path_ids = vec![0u32; offsets[node_count] as usize];
        // Walks abort as type-0 cycles on any node revisit, so a stored
        // path's nodes are distinct: each (path, node) pair lands once,
        // and ascending path-id order within a bucket falls out of the
        // outer iteration order.
        for (i, (path, _)) in pool.iter().enumerate() {
            for &v in path {
                let slot = cursor[v as usize];
                path_ids[slot as usize] = i as u32;
                cursor[v as usize] += 1;
            }
        }
        EdgeWalkIndex { offsets, path_ids }
    }

    /// Number of nodes the index covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total (path, draw-site) pairs indexed — the arena's summed path
    /// length.
    pub fn indexed_sites(&self) -> usize {
        self.path_ids.len()
    }

    /// Ids of unique paths that drew a step at `node` (ascending).
    pub fn paths_at(&self, node: u32) -> &[u32] {
        let v = node as usize;
        if v >= self.node_count() {
            return &[];
        }
        &self.path_ids[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Resolves the walks invalidated by churn whose effective endpoint
    /// set is `touched` (any id order, duplicates and out-of-range ids
    /// tolerated): the union of the touched buckets, with `pool`
    /// multiplicities summed into the stale mass.
    pub fn invalidated(&self, pool: &PathPool, touched: &[u32]) -> Invalidation {
        let mut stale: Vec<u32> = Vec::new();
        for &v in touched {
            stale.extend_from_slice(self.paths_at(v));
        }
        stale.sort_unstable();
        stale.dedup();
        let mass = stale.iter().map(|&i| pool.multiplicity(i as usize) as u64).sum();
        Invalidation { stale, mass }
    }

    /// Heap footprint of the index in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.path_ids.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SampleRequest;
    use crate::FriendingInstance;
    use raf_graph::{CsrGraph, GraphBuilder, NodeId, WeightScheme};

    fn diamond_csr() -> CsrGraph {
        // Two disjoint routes 0-1-2-3-7 and 0-4-5-6-7 from initiator 0
        // to target 7. Seeds {1, 4} terminate walks unrecorded, so the
        // stored type-1 shapes are [7,3,2] and [7,6,5]: distinct
        // interiors sharing the target.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3), (3, 7), (0, 4), (4, 5), (5, 6), (6, 7)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    fn diamond_pool() -> (PathPool, usize) {
        let g = diamond_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(7)).unwrap();
        (SampleRequest::new(6_000).seed(11).run(&inst), g.node_count())
    }

    #[test]
    fn buckets_cover_exactly_the_paths_containing_the_node() {
        let (pool, n) = diamond_pool();
        assert!(pool.unique_count() >= 2, "fixture should produce multiple shapes");
        let index = EdgeWalkIndex::build(&pool, n);
        for v in 0..n as u32 {
            let bucket = index.paths_at(v);
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "bucket sorted+dedup");
            for i in 0..pool.unique_count() as u32 {
                let contains = pool.path(i as usize).contains(&v);
                assert_eq!(bucket.contains(&i), contains, "node {v} path {i}");
            }
        }
        let total: usize = (0..pool.unique_count()).map(|i| pool.path(i).len()).sum();
        assert_eq!(index.indexed_sites(), total);
    }

    #[test]
    fn invalidated_sums_multiplicity_mass() {
        let (pool, n) = diamond_pool();
        let index = EdgeWalkIndex::build(&pool, n);
        // Node 7 (the target) is on every stored path, so touching it
        // invalidates the whole stored mass.
        let all = index.invalidated(&pool, &[7]);
        assert_eq!(all.stale.len(), pool.unique_count());
        assert_eq!(all.mass, pool.type1_count() as u64);
        // Node 3 is only on the first branch's shape.
        let some = index.invalidated(&pool, &[3]);
        assert!(!some.is_empty());
        assert!(some.stale.len() < pool.unique_count());
        let expect: u64 = some.stale.iter().map(|&i| pool.multiplicity(i as usize) as u64).sum();
        assert_eq!(some.mass, expect);
    }

    #[test]
    fn union_dedups_and_tolerates_junk_ids() {
        let (pool, n) = diamond_pool();
        let index = EdgeWalkIndex::build(&pool, n);
        let a = index.invalidated(&pool, &[7, 3]);
        let b = index.invalidated(&pool, &[3, 7, 7, 3, 999]);
        assert_eq!(a, b);
        // The union must not double-count paths through both nodes.
        let via_both = index.paths_at(7).iter().filter(|i| index.paths_at(3).contains(i)).count();
        let naive = index.paths_at(7).len() + index.paths_at(3).len();
        assert_eq!(a.stale.len(), naive - via_both);
    }

    #[test]
    fn untouched_nodes_and_empty_pools_are_cheap() {
        let (pool, n) = diamond_pool();
        let index = EdgeWalkIndex::build(&pool, n);
        // Walks record the target and intermediate draw sites, never the
        // initiator 0 or the terminal seed nodes {1, 4} — their buckets
        // are empty.
        for quiet in [0, 1, 4] {
            assert!(index.paths_at(quiet).is_empty(), "node {quiet}");
        }
        assert!(index.invalidated(&pool, &[0]).is_empty());
        assert_eq!(index.invalidated(&pool, &[]).mass, 0);

        let g = diamond_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(7)).unwrap();
        let empty = SampleRequest::new(0).seed(1).run(&inst);
        let idx = EdgeWalkIndex::build(&empty, g.node_count());
        assert_eq!(idx.indexed_sites(), 0);
        assert!(idx.invalidated(&empty, &[3]).is_empty());
    }

    #[test]
    fn heap_bytes_tracks_len() {
        let (pool, n) = diamond_pool();
        let index = EdgeWalkIndex::build(&pool, n);
        assert_eq!(index.heap_bytes(), 4 * (n + 1 + index.indexed_sites()));
        assert_eq!(index.node_count(), n);
    }
}
