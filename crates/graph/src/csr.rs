//! Immutable compressed-sparse-row snapshot used by sampling hot paths.

use crate::{NodeId, Relabeling, SocialGraph};
use serde::{Deserialize, Serialize};

/// Per-node metadata packed into one 24-byte record so a walk step loads
/// one (occasionally two) cache lines instead of scattering across an
/// offset table, a totals table, and a uniform-flag table. The third
/// 8-byte word is the precomputed reciprocal `scale` that keeps the
/// divide off the uniform selection fast path — measured worth more than
/// the denser 16-byte layout it displaced.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct NodeMeta {
    /// `Σ_u w(u,v)`.
    total: f64,
    /// `degree / total` (0 for isolated nodes): the uniform fast path
    /// selects with one multiply, `⌊r · scale⌋`, instead of a divide —
    /// the divide sat on the walk loop's critical dependency chain.
    scale: f64,
    /// Start of the node's slice in `neighbors` / `cum_weights`.
    base: u32,
    /// Degree in the low 31 bits; the high bit is set when the node's
    /// weights are all equal (the `O(1)` selection fast path).
    packed_degree: u32,
}

/// High bit of [`NodeMeta::packed_degree`]: uniform-weight flag.
const UNIFORM_BIT: u32 = 1 << 31;
/// Low 31 bits of [`NodeMeta::packed_degree`]: the degree.
const DEGREE_MASK: u32 = UNIFORM_BIT - 1;

impl NodeMeta {
    #[inline]
    fn degree(self) -> usize {
        (self.packed_degree & DEGREE_MASK) as usize
    }

    #[inline]
    fn is_uniform(self) -> bool {
        self.packed_degree & UNIFORM_BIT != 0
    }
}

/// A compressed-sparse-row view of a [`SocialGraph`] with per-node
/// cumulative weight tables.
///
/// This is the structure realization sampling (Def. 1 of the paper) runs
/// on: selecting `g(v)` means drawing `r ~ U[0,1)` and, when
/// `r < total_in_weight(v)`, binary-searching the cumulative weights of
/// `v`'s neighbor slice — `O(log d)` per selection, `O(1)` for the
/// uniform-weight fast path. Per-node metadata (slice offset, total
/// weight, uniform flag) lives in one packed record per node, which is
/// what keeps the backward-walk hot loop cache-resident on large graphs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsrGraph {
    /// One packed record per node.
    meta: Vec<NodeMeta>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<NodeId>,
    /// `cum_weights[i]` = prefix sum of `v`'s incoming weights up to and
    /// including slice position `i`.
    cum_weights: Vec<f64>,
    /// Number of undirected edges.
    edge_count: usize,
    /// Whether neighbor slices are sorted by node id. The default build
    /// sorts them (enabling binary-search edge queries); a relabeled
    /// build keeps slices in *image order* so realization selection is
    /// exactly equivariant under the permutation, and edge queries fall
    /// back to a linear scan.
    sorted_neighbors: bool,
}

impl CsrGraph {
    /// Builds the snapshot from an adjacency-list graph.
    pub fn from_social_graph(g: &SocialGraph) -> Self {
        Self::build(g, None)
    }

    /// Builds the snapshot with node ids renumbered by `relabeling`
    /// (typically [`Relabeling::hub_bfs`]). Every `raf` command samples
    /// the plain [`from_social_graph`](Self::from_social_graph) build;
    /// this one stays for the serving benchmark's hub-BFS workload until
    /// ROADMAP item 4.
    ///
    /// Each relabeled node's neighbor slice — and its cumulative weight
    /// table — is the **image** of the original slice, position by
    /// position, *not* re-sorted by the new ids. Because
    /// [`select_with`](Self::select_with) is positional, a backward walk
    /// on this snapshot consumes the same RNG draws as on the unrelabeled
    /// snapshot and visits exactly the image nodes: sampling commutes
    /// with the relabeling bit for bit, which is what lets callers map
    /// results back to original ids with no divergence. The price is that
    /// [`has_edge`](Self::has_edge) / [`in_weight`](Self::in_weight)
    /// degrade to a linear scan — neither is on a sampling hot path.
    ///
    /// # Panics
    ///
    /// Panics if `relabeling.len()` differs from the node count.
    pub fn from_social_graph_relabeled(g: &SocialGraph, relabeling: &Relabeling) -> Self {
        assert_eq!(relabeling.len(), g.node_count(), "relabeling covers a different node count");
        Self::build(g, Some(relabeling))
    }

    fn build(g: &SocialGraph, relabeling: Option<&Relabeling>) -> Self {
        let n = g.node_count();
        let mut meta = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        let mut cum_weights = Vec::with_capacity(2 * g.edge_count());
        // Node `new` of the snapshot is node `source_of(new)` of `g`.
        let source_of = |new: usize| -> NodeId {
            match relabeling {
                None => NodeId::new(new),
                Some(r) => r.original_of(NodeId::new(new)),
            }
        };
        for new in 0..n {
            let v = source_of(new);
            let ws = g.in_weights(v);
            let base = neighbors.len();
            match relabeling {
                None => neighbors.extend_from_slice(g.neighbors(v)),
                // Image order: position i maps position i.
                Some(r) => neighbors.extend(g.neighbors(v).iter().map(|&u| r.new_of(u))),
            }
            let mut acc = 0.0;
            let first = ws.first().copied();
            let mut is_uniform = true;
            for &w in ws {
                acc += w;
                cum_weights.push(acc);
                if let Some(f) = first {
                    if (w - f).abs() > 1e-15 {
                        is_uniform = false;
                    }
                }
            }
            let degree = neighbors.len() - base;
            // Hard asserts (not debug): overflow would silently corrupt
            // slices or flip the uniform flag in release builds.
            assert!(degree <= DEGREE_MASK as usize, "degree overflows packed metadata");
            assert!(base <= u32::MAX as usize, "adjacency overflows u32 offsets");
            meta.push(NodeMeta {
                total: acc,
                scale: if acc > 0.0 { degree as f64 / acc } else { 0.0 },
                base: base as u32,
                packed_degree: degree as u32 | if is_uniform { UNIFORM_BIT } else { 0 },
            });
        }
        CsrGraph {
            meta,
            neighbors,
            cum_weights,
            edge_count: g.edge_count(),
            sorted_neighbors: relabeling.is_none(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.meta.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.meta[v.index()].degree()
    }

    /// Neighbors of `v` — sorted by id for a default build, in image
    /// order for a relabeled build (see
    /// [`from_social_graph_relabeled`](Self::from_social_graph_relabeled)).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let m = self.meta[v.index()];
        &self.neighbors[m.base as usize..m.base as usize + m.degree()]
    }

    /// Whether neighbor slices are sorted by node id (false only for
    /// relabeled snapshots, whose slices are in image order).
    #[inline]
    pub fn has_sorted_neighbors(&self) -> bool {
        self.sorted_neighbors
    }

    /// Total incoming familiarity of `v` (the probability that `v` selects
    /// *some* neighbor in a realization).
    #[inline]
    pub fn total_in_weight(&self, v: NodeId) -> f64 {
        self.meta[v.index()].total
    }

    /// Position of `u` in `v`'s neighbor slice: binary search on sorted
    /// slices, linear scan on relabeled (image-order) slices.
    #[inline]
    fn neighbor_position(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let slice = self.neighbors(v);
        if self.sorted_neighbors {
            slice.binary_search(&u).ok()
        } else {
            slice.iter().position(|&w| w == u)
        }
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if v.index() >= self.node_count() {
            return false;
        }
        self.neighbor_position(u, v).is_some()
    }

    /// The familiarity `w(u,v)`, reconstructed from the cumulative table.
    pub fn in_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let i = v.index();
        if i >= self.node_count() {
            return None;
        }
        let base = self.meta[i].base as usize;
        let pos = self.neighbor_position(u, v)?;
        let hi = self.cum_weights[base + pos];
        let lo = if pos == 0 { 0.0 } else { self.cum_weights[base + pos - 1] };
        Some(hi - lo)
    }

    /// Realization selection for node `v` (Def. 1): given a uniform draw
    /// `r ∈ [0, 1)`, returns the neighbor `u` selected with probability
    /// `w(u,v)`, or `None` — the artificial user `ℵ0` — with the remaining
    /// probability `1 − Σ_u w(u,v)`.
    ///
    /// Deterministic in `r`, which makes the derandomized tests and the
    /// Lemma 1 equivalence checks straightforward.
    #[inline]
    pub fn select_with(&self, v: NodeId, r: f64) -> Option<NodeId> {
        let m = self.meta[v.index()];
        if r >= m.total {
            return None;
        }
        let base = m.base as usize;
        let d = m.degree();
        debug_assert!(d > 0, "node with zero total weight cannot select");
        if m.is_uniform() {
            // All weights equal: index = floor(r · d/total), clamped.
            // The reciprocal is precomputed in the record, so the fast
            // path costs one multiply; `r < total` guarantees the clamp
            // handles the at-most-one-ulp overshoot at the boundary.
            let idx = (r * m.scale) as usize;
            return Some(self.neighbors[base + idx.min(d - 1)]);
        }
        let slice = &self.cum_weights[base..base + d];
        // First position whose cumulative weight exceeds r.
        let idx = slice.partition_point(|&c| c <= r);
        Some(self.neighbors[base + idx.min(d - 1)])
    }

    /// Hints the CPU to pull `v`'s packed metadata record into cache.
    ///
    /// A backward-walk step is two dependent loads: the walk's metadata
    /// record, then the neighbor slot [`select_slot`](Self::select_slot)
    /// picks from it. A walk lands on a different random row every step,
    /// so both loads miss the private caches once the graph outgrows
    /// them, even where it fits L3: the 220k youtube stand-in's ~15 MB
    /// of records and neighbor slots sit well inside a 300 MiB L3 on a
    /// 2-vCPU Xeon (2 MiB L2 per core), and prefetching them still pays
    /// there, since each L3 hit still stalls the step. Kernels that know
    /// the *next* node early (the lockstep cohort sampler) call this, and
    /// [`prefetch_slot`](Self::prefetch_slot) for the slot, to start each
    /// load while other walks proceed, converting the serial chain into
    /// memory-level parallelism. Purely a performance hint: it never
    /// faults, never changes results, and compiles to nothing on
    /// non-x86_64 targets.
    #[inline]
    pub fn prefetch_node(&self, v: NodeId) {
        prefetch(&self.meta[v.index()]);
    }

    /// Hints the CPU to pull neighbor slot `slot` (a position returned by
    /// [`select_slot`](Self::select_slot)) into cache, so the following
    /// [`neighbor_at`](Self::neighbor_at) does not stall. The same pure
    /// hint as [`prefetch_node`](Self::prefetch_node).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a position of the neighbor table.
    #[inline]
    pub fn prefetch_slot(&self, slot: usize) {
        prefetch(&self.neighbors[slot]);
    }

    /// Realization selection as a position: the neighbor-table slot
    /// holding the neighbor [`select_with`](Self::select_with) picks for
    /// `(v, r)`, or `None` (the artificial user `ℵ0`) when
    /// `r ≥ total_in_weight(v)`. So `neighbor_at(select_slot(v, r)?)`
    /// is `select_with(v, r)` for every `(v, r)` — the two are freely
    /// interchangeable in deterministic pipelines (property-tested). The
    /// lockstep sampler splits a step here: it selects and prefetches
    /// the slot, and reads it a pass later.
    ///
    /// Non-uniform tables are searched guess-then-scan instead of by
    /// bisection. The guess is the reciprocal fast path applied to a
    /// non-uniform table: if the weights *were* equal the hit would be at
    /// `⌊r · degree/total⌋`, so start there and scan outward to the true
    /// partition point. Near-uniform tables resolve in O(1) expected
    /// steps with no branch-mispredicting bisection; heavily skewed
    /// tables degrade toward a linear scan, which is why
    /// [`select_with`](Self::select_with) (O(log d) worst case) remains
    /// the selection outside the lockstep loop.
    #[inline]
    pub fn select_slot(&self, v: NodeId, r: f64) -> Option<usize> {
        let m = self.meta[v.index()];
        if r >= m.total {
            return None;
        }
        let base = m.base as usize;
        let d = m.degree();
        debug_assert!(d > 0, "node with zero total weight cannot select");
        let guess = ((r * m.scale) as usize).min(d - 1);
        if m.is_uniform() {
            return Some(base + guess);
        }
        let slice = &self.cum_weights[base..base + d];
        let mut idx = guess;
        // Restore the partition-point invariants around the guess: every
        // cumulative weight before `idx` must be ≤ r, the one at `idx`
        // (if any) must exceed r. The table is nondecreasing, so the
        // fixed point is unique and equals `partition_point(|&c| c <= r)`.
        while idx > 0 && slice[idx - 1] > r {
            idx -= 1;
        }
        while idx < d && slice[idx] <= r {
            idx += 1;
        }
        Some(base + idx.min(d - 1))
    }

    /// The neighbor stored at `slot`, a position returned by
    /// [`select_slot`](Self::select_slot).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a position of the neighbor table.
    #[inline]
    pub fn neighbor_at(&self, slot: usize) -> NodeId {
        self.neighbors[slot]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }
}

/// Issues a `T0` software prefetch for the cache line holding `item`:
/// the one `unsafe` site of the crate, behind
/// [`CsrGraph::prefetch_node`] and [`CsrGraph::prefetch_slot`].
#[inline]
fn prefetch<T>(item: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        let ptr: *const T = item;
        // SAFETY: `_mm_prefetch` is a hint instruction — it performs no
        // architectural memory access, so any pointer value is sound;
        // this one comes from a reference, so it is in bounds anyway.
        #[allow(unsafe_code)]
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(ptr.cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = item;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, WeightScheme};

    fn path4() -> SocialGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..3).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn structure_matches_adjacency() {
        let g = path4();
        let csr = g.to_csr();
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(csr.neighbors(v), g.neighbors(v));
            assert_eq!(csr.degree(v), g.degree(v));
            assert!((csr.total_in_weight(v) - g.total_in_weight(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn weight_reconstruction() {
        let g = path4();
        let csr = g.to_csr();
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                let expected = g.in_weight(u, v).unwrap();
                let got = csr.in_weight(u, v).unwrap();
                assert!((expected - got).abs() < 1e-12);
            }
        }
        assert_eq!(csr.in_weight(NodeId::new(0), NodeId::new(3)), None);
    }

    #[test]
    fn select_covers_all_neighbors_uniform() {
        let g = path4();
        let csr = g.to_csr();
        // Node 1 has neighbors {0, 2} each with weight 1/2 and total 1.
        let v = NodeId::new(1);
        assert_eq!(csr.select_with(v, 0.0), Some(NodeId::new(0)));
        assert_eq!(csr.select_with(v, 0.49), Some(NodeId::new(0)));
        assert_eq!(csr.select_with(v, 0.5), Some(NodeId::new(2)));
        assert_eq!(csr.select_with(v, 0.999), Some(NodeId::new(2)));
        assert_eq!(csr.select_with(v, 1.0), None);
    }

    #[test]
    fn select_respects_partial_total() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        let g = b.build(WeightScheme::ScaledByDegree { rho: 0.4 }).unwrap();
        let csr = g.to_csr();
        let v = NodeId::new(0);
        assert_eq!(csr.select_with(v, 0.39), Some(NodeId::new(1)));
        assert_eq!(csr.select_with(v, 0.4), None);
        assert_eq!(csr.select_with(v, 0.9), None);
    }

    #[test]
    fn select_with_nonuniform_weights() {
        use std::collections::HashMap;
        let mut weights = HashMap::new();
        weights.insert((1, 0), 0.2);
        weights.insert((2, 0), 0.6);
        weights.insert((0, 1), 0.5);
        weights.insert((0, 2), 0.5);
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build(WeightScheme::Custom { weights }).unwrap();
        let csr = g.to_csr();
        let v = NodeId::new(0);
        // Cumulative: [0.2, 0.8]; neighbor slice [1, 2].
        assert_eq!(csr.select_with(v, 0.1), Some(NodeId::new(1)));
        assert_eq!(csr.select_with(v, 0.2), Some(NodeId::new(2)));
        assert_eq!(csr.select_with(v, 0.79), Some(NodeId::new(2)));
        assert_eq!(csr.select_with(v, 0.8), None);
    }

    #[test]
    fn isolated_node_always_selects_nobody() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.reserve_nodes(3);
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        let csr = g.to_csr();
        assert_eq!(csr.select_with(NodeId::new(2), 0.0), None);
    }

    #[test]
    fn relabeled_build_is_the_exact_image() {
        use crate::Relabeling;
        let g = path4();
        let plain = g.to_csr();
        let r = Relabeling::hub_bfs(&g);
        let relabeled = CsrGraph::from_social_graph_relabeled(&g, &r);
        assert_eq!(relabeled.node_count(), plain.node_count());
        assert_eq!(relabeled.edge_count(), plain.edge_count());
        assert!(plain.has_sorted_neighbors());
        assert!(!relabeled.has_sorted_neighbors());
        for v in g.nodes() {
            let pv = r.new_of(v);
            assert_eq!(relabeled.degree(pv), plain.degree(v));
            assert_eq!(relabeled.total_in_weight(pv), plain.total_in_weight(v));
            // Image order: position i of the relabeled slice is the image
            // of position i of the original slice.
            let image: Vec<NodeId> = plain.neighbors(v).iter().map(|&u| r.new_of(u)).collect();
            assert_eq!(relabeled.neighbors(pv), image.as_slice());
            // Edge queries and weights agree through the mapping.
            for &u in plain.neighbors(v) {
                assert!(relabeled.has_edge(r.new_of(u), pv));
                assert_eq!(relabeled.in_weight(r.new_of(u), pv), plain.in_weight(u, v));
            }
            assert!(!relabeled.has_edge(pv, pv));
        }
    }

    #[test]
    fn relabeled_selection_is_equivariant() {
        use crate::Relabeling;
        use rand::{Rng, SeedableRng};
        // Non-uniform weights + a hub, so both selection paths and the
        // dangling branch are exercised.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)]).unwrap();
        let g = b.build(WeightScheme::ScaledByDegree { rho: 0.9 }).unwrap();
        let plain = g.to_csr();
        let r = Relabeling::hub_bfs(&g);
        let relabeled = CsrGraph::from_social_graph_relabeled(&g, &r);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..2_000 {
            let v = NodeId::new(rng.gen_range(0..g.node_count()));
            let draw = rng.gen::<f64>();
            let expected = plain.select_with(v, draw).map(|u| r.new_of(u));
            assert_eq!(relabeled.select_with(r.new_of(v), draw), expected);
        }
    }

    #[test]
    fn guided_selection_is_exactly_select_with() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        // A non-uniform star (exercises the guided scan), a uniform path
        // (exercises the reciprocal fast path), and a scaled graph whose
        // weights sum below 1 (a draw at or past the total dangles).
        let mut weights = HashMap::new();
        weights.insert((1, 0), 0.05);
        weights.insert((2, 0), 0.5);
        weights.insert((3, 0), 0.2);
        weights.insert((4, 0), 0.1);
        weights.insert((0, 1), 0.3);
        weights.insert((0, 2), 0.3);
        weights.insert((0, 3), 0.3);
        weights.insert((0, 4), 0.3);
        let mut b = GraphBuilder::new();
        b.add_edges((1..5).map(|i| (0, i))).unwrap();
        let skewed = b.build(WeightScheme::Custom { weights }).unwrap().to_csr();
        let uniform = path4().to_csr();
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)]).unwrap();
        let scaled = b.build(WeightScheme::ScaledByDegree { rho: 0.6 }).unwrap().to_csr();
        let select = |csr: &CsrGraph, v, r| csr.select_slot(v, r).map(|slot| csr.neighbor_at(slot));
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for csr in [&skewed, &uniform, &scaled] {
            for v in csr.nodes() {
                let total = csr.total_in_weight(v);
                // Every cumulative weight and the draw just below it sit
                // on a partition boundary of the scan.
                let m = csr.meta[v.index()];
                let cum = &csr.cum_weights[m.base as usize..m.base as usize + m.degree()];
                let boundaries = cum.iter().flat_map(|&c| [c, c.next_down()]);
                for r in [0.0, 1e-12, 0.5, 0.999_999, 1.0, total, total.next_down()]
                    .into_iter()
                    .chain(boundaries)
                {
                    assert_eq!(select(csr, v, r), csr.select_with(v, r), "v={v:?} r={r}");
                }
                for _ in 0..2_000 {
                    let r = rng.gen::<f64>();
                    assert_eq!(select(csr, v, r), csr.select_with(v, r), "v={v:?} r={r}");
                }
            }
        }
        // The scaled graph really dangles: a draw at its total selects
        // nobody, the draw just below it somebody.
        for v in scaled.nodes() {
            let total = scaled.total_in_weight(v);
            assert!(total < 1.0, "v={v:?} total={total}");
            assert_eq!(scaled.select_slot(v, total), None, "v={v:?}");
            assert!(scaled.select_slot(v, total.next_down()).is_some(), "v={v:?}");
        }
    }

    #[test]
    fn prefetch_is_a_harmless_hint() {
        // No observable effect, valid for every node id and every
        // neighbor slot in range.
        let csr = path4().to_csr();
        for v in csr.nodes() {
            csr.prefetch_node(v);
        }
        for slot in 0..2 * csr.edge_count() {
            csr.prefetch_slot(slot);
        }
        assert_eq!(csr.select_with(NodeId::new(1), 0.0), Some(NodeId::new(0)));
    }

    #[test]
    fn selection_frequencies_match_weights() {
        use rand::{Rng, SeedableRng};
        let g = path4();
        let csr = g.to_csr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let v = NodeId::new(1);
        let trials = 20_000;
        let mut zero = 0;
        for _ in 0..trials {
            if csr.select_with(v, rng.gen::<f64>()) == Some(NodeId::new(0)) {
                zero += 1;
            }
        }
        let freq = zero as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.02, "frequency {freq} too far from 0.5");
    }
}
