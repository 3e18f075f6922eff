//! MpU/MSC problem instances.

use crate::CoverError;
use raf_model::sampler::PathPool;
use serde::{Deserialize, Serialize};

/// A (weighted) Minimum p-Union instance: a ground set `0..universe` and
/// a family of subsets, each carrying a positive integer *weight* (its
/// multiplicity in the original multiset family). Sets are stored in a
/// flat CSR arena — one `Vec<u32>` of elements plus an offset table.
///
/// In the RAF pipeline, each set is a sampled backward path `t(g)` (its
/// weight = how many sampled walks produced it) and the ground set is the
/// node set of the social graph. Choosing a set of weight `w` counts `w`
/// toward the requirement `p`, which keeps the deduplicated instance
/// exactly equivalent to the paper's duplicated one: covering a path
/// covers every sampled copy of it.
///
/// **Local element ids.** The family usually touches a tiny part of the
/// ground set (a few hundred nodes of a million-node graph), so every
/// constructor rewrites the arena to dense *local* ids `0..element_count`,
/// assigned in ascending ground-set order, and keeps the local → ground
/// table ([`node`](Self::node), inverted by [`local`](Self::local)).
/// [`set`](Self::set), [`iter_sets`](Self::iter_sets),
/// [`marginal`](Self::marginal) and [`covered_count`](Self::covered_count)
/// speak local ids, so solver scratch scales with the family, not with
/// [`universe`](Self::universe). Because the map is monotone, ordering by
/// local id is ordering by ground id: tie-breaks and sorted unions are
/// the same in both spaces.
///
/// **Transposed index.** Every constructor also builds the arena's
/// transpose, [`sets_containing`](Self::sets_containing): for each local
/// element, the ascending ids of the sets that contain it. Like the rest
/// of the instance it does not depend on `p` or `α`, so a cached instance
/// builds it once and every solve and allocation over it reuses it
/// instead of rebuilding a per-element index per call.
///
/// ```
/// use raf_cover::{CoverInstance, GreedyMarginal, MpuSolver};
///
/// # fn main() -> Result<(), raf_cover::CoverError> {
/// let inst = CoverInstance::new(50, vec![vec![10, 20], vec![20, 30], vec![40, 45]])?;
/// assert_eq!(inst.element_count(), 5);
/// assert_eq!(inst.set(1), &[1, 2]); // local ids of nodes 20 and 30
/// let sol = GreedyMarginal::new().solve(&inst, 2)?;
/// assert_eq!(sol.union, vec![10, 20, 30]); // the two overlapping sets
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverInstance {
    universe: usize,
    /// Concatenated local element ids; set `i` is
    /// `elems[offsets[i]..offsets[i+1]]`.
    elems: Vec<u32>,
    offsets: Vec<u32>,
    /// Local → ground id table, strictly ascending.
    nodes: Vec<u32>,
    /// The arena transposed: the sets containing local element `e` are
    /// `containing[containing_offsets[e]..containing_offsets[e+1]]`, in
    /// ascending set order.
    containing: Vec<u32>,
    containing_offsets: Vec<u32>,
    /// Per-set weights; `None` means every weight is 1 (the unweighted
    /// case built by [`CoverInstance::new`]).
    weights: Option<Vec<u32>>,
    /// Σ weights — the size `|U|` of the underlying multiset family.
    total_weight: usize,
}

impl CoverInstance {
    /// Builds an unweighted instance, normalizing each set (sort +
    /// dedup). Every set has weight 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::ElementOutOfRange`] when a set mentions an
    /// element `≥ universe`.
    pub fn new(universe: usize, sets: Vec<Vec<u32>>) -> Result<Self, CoverError> {
        let m = sets.len();
        let mut elems = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0u32);
        for mut set in sets {
            set.sort_unstable();
            set.dedup();
            elems.extend_from_slice(&set);
            assert!(elems.len() <= u32::MAX as usize, "set family overflows u32 offsets");
            offsets.push(elems.len() as u32);
        }
        Self::localize(universe, elems, offsets, None)
    }

    /// Builds a weighted instance from a sampled [`PathPool`] (Alg. 3
    /// line 3); the owned form of
    /// [`from_path_pool_ref`](Self::from_path_pool_ref), with the same
    /// result.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::ElementOutOfRange`] when a path mentions a
    /// node `≥ universe`.
    pub fn from_path_pool(universe: usize, pool: PathPool) -> Result<Self, CoverError> {
        Self::from_path_pool_ref(universe, &pool)
    }

    /// Builds a weighted instance from a borrowed [`PathPool`]: set `i` is
    /// the pool's unique path `i` (canonical pool order; elements in walk
    /// order, distinct by the walk's cycle check but *not* sorted) with
    /// weight = the path's multiplicity. The arena is copied once and
    /// rewritten to local ids; the pool stays available for post-solve
    /// evaluation and repair.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::ElementOutOfRange`] when a path mentions a
    /// node `≥ universe`.
    pub fn from_path_pool_ref(universe: usize, pool: &PathPool) -> Result<Self, CoverError> {
        let mut elems = Vec::new();
        let mut offsets = vec![0u32];
        let mut weights = Vec::new();
        for (path, mult) in pool.iter() {
            elems.extend_from_slice(path);
            assert!(elems.len() <= u32::MAX as usize, "set family overflows u32 offsets");
            offsets.push(elems.len() as u32);
            weights.push(mult);
        }
        Self::localize(universe, elems, offsets, Some(weights))
    }

    /// The one remapping step behind every constructor: checks the
    /// ground-id arena against `universe`, then rewrites it in place to
    /// local ids in ascending ground-id order.
    ///
    /// A small ground set under a large family (a 7k-node graph under a
    /// pool of 134k elements) is ranked through a ground-sized table,
    /// which costs `O(universe + arena)` and is taken only when the
    /// universe is no larger than the arena; otherwise the distinct
    /// elements are sorted and each element binary-searched, in
    /// `O(arena · log arena)`. Either way the cost follows the family.
    fn localize(
        universe: usize,
        mut elems: Vec<u32>,
        offsets: Vec<u32>,
        weights: Option<Vec<u32>>,
    ) -> Result<Self, CoverError> {
        if let Some(&max) = elems.iter().max() {
            if max as usize >= universe {
                return Err(CoverError::ElementOutOfRange { element: max, universe });
            }
        }
        let nodes = if universe <= elems.len() {
            const ABSENT: u32 = u32::MAX;
            let mut rank = vec![ABSENT; universe];
            for &v in &elems {
                rank[v as usize] = 0;
            }
            let mut nodes = Vec::new();
            for (v, r) in rank.iter_mut().enumerate() {
                if *r != ABSENT {
                    *r = nodes.len() as u32;
                    nodes.push(v as u32);
                }
            }
            for e in &mut elems {
                *e = rank[*e as usize];
            }
            nodes
        } else {
            let mut nodes = elems.clone();
            nodes.sort_unstable();
            nodes.dedup();
            for e in &mut elems {
                *e = nodes.binary_search(e).expect("the table holds every element") as u32;
            }
            nodes
        };
        let (containing, containing_offsets) = transpose(&elems, &offsets, nodes.len());
        let total_weight = match &weights {
            Some(w) => w.iter().map(|&w| w as usize).sum(),
            None => offsets.len() - 1,
        };
        Ok(CoverInstance {
            universe,
            elems,
            offsets,
            nodes,
            containing,
            containing_offsets,
            weights,
            total_weight,
        })
    }

    /// Ground-set size (the graph's node count in the RAF pipeline) —
    /// the range constructors check against, not the size of any
    /// solver's scratch.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of distinct elements the family mentions: local ids are
    /// `0..element_count()`.
    #[inline]
    pub fn element_count(&self) -> usize {
        self.nodes.len()
    }

    /// The ground id of local element `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e ≥ element_count()`.
    #[inline]
    pub fn node(&self, e: u32) -> u32 {
        self.nodes[e as usize]
    }

    /// The local id of ground element `v`, or `None` when no set mentions
    /// it. A binary search of the local → ground table.
    #[inline]
    pub fn local(&self, v: u32) -> Option<u32> {
        self.nodes.binary_search(&v).ok().map(|e| e as u32)
    }

    /// The ids of the sets that contain local element `e`, ascending —
    /// a row of the transposed arena built with the instance. A set that
    /// lists `e` twice appears twice.
    ///
    /// # Panics
    ///
    /// Panics if `e ≥ element_count()`.
    #[inline]
    pub fn sets_containing(&self, e: u32) -> &[u32] {
        let e = e as usize;
        &self.containing
            [self.containing_offsets[e] as usize..self.containing_offsets[e + 1] as usize]
    }

    /// Logical heap footprint of the instance in bytes: the lengths, not
    /// capacities, of its flat tables — the arena and its offsets, the
    /// local → ground table, the transposed arena and its offsets, and
    /// the weights. The counterpart of `PathPool::heap_bytes` for
    /// byte-budgeted caches that keep the built cover instance resident
    /// next to the pool it came from.
    pub fn heap_bytes(&self) -> usize {
        (self.elems.len()
            + self.offsets.len()
            + self.nodes.len()
            + self.containing.len()
            + self.containing_offsets.len()
            + self.weights.as_ref().map_or(0, Vec::len))
            * std::mem::size_of::<u32>()
    }

    /// Number of distinct sets `m` in the family.
    #[inline]
    pub fn set_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The weight (multiplicity) of set `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn weight(&self, i: usize) -> usize {
        match &self.weights {
            Some(w) => w[i] as usize,
            None => {
                assert!(i < self.set_count(), "set index {i} out of range");
                1
            }
        }
    }

    /// Σ weights: the size `|U|` of the underlying multiset family (equal
    /// to [`set_count`](Self::set_count) for unweighted instances).
    #[inline]
    pub fn total_weight(&self) -> usize {
        self.total_weight
    }

    /// The `i`-th set, in local ids. Unweighted instances store sets
    /// sorted and deduplicated; pool-built instances store paths in walk
    /// order (elements distinct but unsorted).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&self, i: usize) -> &[u32] {
        &self.elems[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates over all sets in index order, in local ids.
    pub fn iter_sets(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.set_count()).map(|i| self.set(i))
    }

    /// Marginal cost of adding set `i` to the partial union described by
    /// `in_union`, a mask over local ids: `|S_i \ A|`.
    pub fn marginal(&self, i: usize, in_union: &[bool]) -> usize {
        self.set(i).iter().filter(|&&e| !in_union[e as usize]).count()
    }

    /// Weighted number of sets fully contained in `mask`, a mask over
    /// local ids (each contained set counts its multiplicity).
    pub fn covered_count(&self, mask: &[bool]) -> usize {
        (0..self.set_count())
            .filter(|&i| self.set(i).iter().all(|&e| mask[e as usize]))
            .map(|i| self.weight(i))
            .sum()
    }

    /// The theoretical portfolio guarantee target `2√|U|` from the paper,
    /// where `|U|` counts the multiset family (Σ weights).
    pub fn approximation_target(&self) -> f64 {
        2.0 * (self.total_weight as f64).sqrt()
    }
}

/// Transposes a local-id arena by counting sort, in `O(arena +
/// elements)`: returns the row table and its `elements + 1` offsets,
/// each row listing the sets that contain its element in ascending order.
fn transpose(elems: &[u32], offsets: &[u32], elements: usize) -> (Vec<u32>, Vec<u32>) {
    let mut row_offsets = vec![0u32; elements + 1];
    for &e in elems {
        row_offsets[e as usize + 1] += 1;
    }
    for e in 0..elements {
        row_offsets[e + 1] += row_offsets[e];
    }
    let mut next = row_offsets.clone();
    let mut rows = vec![0u32; elems.len()];
    for (i, set) in offsets.windows(2).enumerate() {
        for &e in &elems[set[0] as usize..set[1] as usize] {
            rows[next[e as usize] as usize] = i as u32;
            next[e as usize] += 1;
        }
    }
    (rows, row_offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_sets() {
        let inst = CoverInstance::new(5, vec![vec![3, 1, 3, 0]]).unwrap();
        let nodes: Vec<u32> = inst.set(0).iter().map(|&e| inst.node(e)).collect();
        assert_eq!(nodes, [0, 1, 3]);
        assert_eq!(inst.weight(0), 1);
        assert_eq!(inst.total_weight(), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = CoverInstance::new(3, vec![vec![0, 5]]).unwrap_err();
        assert!(matches!(err, CoverError::ElementOutOfRange { element: 5, universe: 3 }));
    }

    #[test]
    fn marginal_counts_new_elements() {
        let inst = CoverInstance::new(6, vec![vec![0, 1, 2], vec![2, 3]]).unwrap();
        let mut in_union = vec![false; 6];
        assert_eq!(inst.marginal(0, &in_union), 3);
        in_union[2] = true;
        assert_eq!(inst.marginal(0, &in_union), 2);
        assert_eq!(inst.marginal(1, &in_union), 1);
    }

    #[test]
    fn covered_count() {
        let inst = CoverInstance::new(6, vec![vec![0, 1], vec![1, 2], vec![4]]).unwrap();
        let mut mask = vec![false; 6];
        mask[0] = true;
        mask[1] = true;
        assert_eq!(inst.covered_count(&mask), 1);
        mask[2] = true;
        assert_eq!(inst.covered_count(&mask), 2);
    }

    #[test]
    fn empty_sets_are_always_covered() {
        let inst = CoverInstance::new(3, vec![vec![], vec![0]]).unwrap();
        let mask = vec![false; 3];
        assert_eq!(inst.covered_count(&mask), 1);
    }

    #[test]
    fn approximation_target() {
        let inst = CoverInstance::new(3, vec![vec![0]; 16]).unwrap();
        assert_eq!(inst.approximation_target(), 8.0);
    }

    #[test]
    fn from_path_pool_is_weighted() {
        use raf_graph::{GraphBuilder, NodeId, WeightScheme};
        use raf_model::sampler::SampleRequest;
        use raf_model::FriendingInstance;
        // 0-1-2-3-4 line: the only type-1 path is [4, 3, 2].
        let mut b = GraphBuilder::new();
        b.add_edges((0..4).map(|i| (i, i + 1))).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let fi = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(4_000).seed(9).run(&fi);
        let type1 = pool.type1_count();
        assert!(type1 > 0);
        let inst = CoverInstance::from_path_pool(5, pool).unwrap();
        assert_eq!(inst.set_count(), 1);
        let nodes: Vec<u32> = inst.set(0).iter().map(|&e| inst.node(e)).collect();
        assert_eq!(nodes, [4, 3, 2]); // walk order, not sorted
        assert_eq!(inst.weight(0), type1);
        assert_eq!(inst.total_weight(), type1);
        // Universe too small: the node ids 2..=4 are out of range.
        let pool = SampleRequest::new(4_000).seed(9).run(&fi);
        assert!(matches!(
            CoverInstance::from_path_pool(3, pool),
            Err(CoverError::ElementOutOfRange { .. })
        ));
    }

    /// `sets_containing(e)` against a scan of the family: the ascending
    /// ids of the sets that mention `e`.
    fn assert_index_matches_scan(inst: &CoverInstance) {
        for e in 0..inst.element_count() as u32 {
            let scanned: Vec<u32> = (0..inst.set_count() as u32)
                .filter(|&i| inst.set(i as usize).contains(&e))
                .collect();
            assert_eq!(inst.sets_containing(e), scanned.as_slice(), "row of local element {e}");
        }
    }

    #[test]
    fn sets_containing_lists_sorted_sets() {
        let inst =
            CoverInstance::new(9, vec![vec![4, 1], vec![], vec![1, 8], vec![8, 4, 1], vec![]])
                .unwrap();
        assert_index_matches_scan(&inst);
        // Local ids 0, 1, 2 are nodes 1, 4, 8.
        assert_eq!(inst.sets_containing(0), &[0, 2, 3]);
        assert_eq!(inst.sets_containing(1), &[0, 3]);
        assert_eq!(inst.sets_containing(2), &[2, 3]);
    }

    #[test]
    fn sets_containing_lists_walk_order_paths() {
        use raf_graph::{generators, NodeId, WeightScheme};
        use raf_model::sampler::SampleRequest;
        use raf_model::FriendingInstance;
        // Two routes from 3 to 0 over a 6-cycle: walk-order paths that
        // share their ends but not their order.
        let g = generators::cycle_graph(6).unwrap().build(WeightScheme::UniformByDegree).unwrap();
        let g = g.to_csr();
        let fi = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let pool = SampleRequest::new(2_000).seed(3).run(&fi);
        let inst = CoverInstance::from_path_pool_ref(6, &pool).unwrap();
        assert!(inst.set_count() >= 2, "both routes sampled");
        assert!(inst.iter_sets().any(|set| !set.is_sorted()), "walk order is kept");
        assert_index_matches_scan(&inst);
        let (arena, m, elements) = (
            inst.iter_sets().map(<[u32]>::len).sum::<usize>(),
            inst.set_count(),
            inst.element_count(),
        );
        // Arena and offsets, nodes, transposed arena and offsets, weights.
        assert_eq!(
            inst.heap_bytes(),
            4 * (arena + (m + 1) + elements + arena + (elements + 1) + m)
        );
    }

    #[test]
    fn sets_containing_on_an_empty_family() {
        for inst in [
            CoverInstance::new(4, vec![]).unwrap(),
            CoverInstance::new(4, vec![vec![], vec![]]).unwrap(),
        ] {
            assert_eq!(inst.element_count(), 0);
            assert_index_matches_scan(&inst);
        }
    }

    #[test]
    fn heap_bytes_counts_the_transposed_index() {
        // 3 sets over 4 distinct elements, 6 arena entries: arena 6 +
        // offsets 4 + nodes 4 + transposed arena 6 + its offsets 5, no
        // weight table.
        let inst = CoverInstance::new(10, vec![vec![2, 5], vec![5, 7, 9], vec![2]]).unwrap();
        assert_eq!(inst.heap_bytes(), 4 * (6 + 4 + 4 + 6 + 5));
        // An empty family keeps one offset per table.
        let empty = CoverInstance::new(10, vec![]).unwrap();
        assert_eq!(empty.heap_bytes(), 4 * (1 + 1));
    }

    #[test]
    fn iter_sets_matches_indexing() {
        let inst = CoverInstance::new(6, vec![vec![0, 1], vec![2], vec![3, 4, 5]]).unwrap();
        let collected: Vec<&[u32]> = inst.iter_sets().collect();
        assert_eq!(collected.len(), inst.set_count());
        for (i, s) in collected.iter().enumerate() {
            assert_eq!(*s, inst.set(i));
        }
    }
}
