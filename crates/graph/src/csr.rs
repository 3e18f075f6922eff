//! The compressed-sparse-row snapshot used by sampling hot paths, and
//! its row-by-row patch under an edge delta.

use crate::{weights, NodeId, Relabeling, SocialGraph};
use serde::{Deserialize, Serialize};

/// Per-node metadata packed into one 24-byte record so a walk step loads
/// one (occasionally two) cache lines instead of scattering across an
/// offset table and a totals table. The second 8-byte word is the
/// precomputed reciprocal `scale` that keeps the divide off the
/// selection path — measured worth more than the denser 16-byte layout
/// it displaced.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct NodeMeta {
    /// `Σ_u w(u,v)`: the left-to-right sum of `degree` copies of
    /// `1/degree`, so a draw at or past it selects nobody.
    total: f64,
    /// `degree / total` (0 for isolated nodes): selection picks slot
    /// `⌊r · scale⌋` with one multiply instead of a divide — the divide
    /// sat on the walk loop's critical dependency chain.
    scale: f64,
    /// Start of the node's slice in `neighbors`.
    base: u32,
    /// The node's degree.
    degree: u32,
}

/// A compressed-sparse-row view of a [`SocialGraph`].
///
/// This is the structure realization sampling (Def. 1 of the paper) runs
/// on. Every neighbor of `v` weighs `1/|N_v|`, so selecting `g(v)` from a
/// uniform draw `r` is one multiply: slot `⌊r · degree/total⌋` of `v`'s
/// neighbor slice when `r < total_in_weight(v)`, nobody otherwise. No
/// weight is stored; per-node metadata (slice offset, degree, total
/// weight and its reciprocal scale) lives in one packed record per node,
/// which is what keeps the backward-walk hot loop cache-resident on
/// large graphs.
///
/// A fresh build lays the rows out back to back in node order. An edge
/// delta patches the snapshot instead of rebuilding it
/// ([`patch_rows`](Self::patch_rows)): it rewrites only its endpoints'
/// rows where they sit, so the array may hold dead slots that no row
/// owns, the tails that shrunk rows freed. Selection is positional
/// within a row, so dead slots never change a walk. A row that outgrows
/// its slots and the dead run after them sends the patch to a fresh
/// build, so the array never holds more slots than the last build laid
/// out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsrGraph {
    /// One packed record per node.
    meta: Vec<NodeMeta>,
    /// The neighbor slices, each contiguous, in the order the last build
    /// laid them out; between them, dead slots hold [`VACANT`].
    neighbors: Vec<NodeId>,
    /// Number of undirected edges.
    edge_count: usize,
    /// Whether neighbor slices are sorted by node id. The default build
    /// sorts them (enabling binary-search edge queries); a relabeled
    /// build keeps slices in *image order* so realization selection is
    /// exactly equivariant under the permutation, and edge queries fall
    /// back to a linear scan.
    sorted_neighbors: bool,
}

/// What a dead slot of the neighbor array holds: the tail a shrunk row
/// freed. No graph has this node (graphs are capped at 2^32 − 1 nodes,
/// so ids stay below `u32::MAX`), and a growing row claims the run of
/// these that follows it.
const VACANT: NodeId = NodeId::new(u32::MAX as usize);

impl NodeMeta {
    /// The record of a `degree`-slot row starting at slot `base`, its
    /// `total` the left-to-right sum a fresh build computes.
    fn new(base: usize, degree: usize) -> Self {
        // Hard asserts (not debug): overflow would silently corrupt
        // slices in release builds.
        assert!(degree <= u32::MAX as usize, "degree overflows packed metadata");
        assert!(base <= u32::MAX as usize, "adjacency overflows u32 offsets");
        let total = weights::total_in_weight(degree);
        NodeMeta {
            total,
            scale: if total > 0.0 { degree as f64 / total } else { 0.0 },
            base: base as u32,
            degree: degree as u32,
        }
    }
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
        for new in 0..n {
            // Node `new` of the snapshot is node `v` of `g`.
            let v = match relabeling {
                None => NodeId::new(new),
                Some(r) => r.original_of(NodeId::new(new)),
            };
            let base = neighbors.len();
            match relabeling {
                None => neighbors.extend_from_slice(g.neighbors(v)),
                // Image order: position i maps position i.
                Some(r) => neighbors.extend(g.neighbors(v).iter().map(|&u| r.new_of(u))),
            }
            meta.push(NodeMeta::new(base, neighbors.len() - base));
        }
        CsrGraph {
            meta,
            neighbors,
            edge_count: g.edge_count(),
            sorted_neighbors: relabeling.is_none(),
        }
    }

    /// Rewrites the rows of `nodes` from `g` after an edge delta that
    /// touched exactly those nodes: `g` is the post-delta graph, and every
    /// other row of this snapshot already equals its row of `g`. `nodes`
    /// and `g` speak original ids; under `relabeling` (which must be the
    /// one this snapshot was built with, or `None` for a plain build) each
    /// rewritten row is the image of `g`'s row, as
    /// [`from_social_graph_relabeled`](Self::from_social_graph_relabeled)
    /// builds it. Each rewritten record's `total` and `scale` are
    /// recomputed from the new degree with a fresh build's sum, so the
    /// patched snapshot selects exactly what a rebuild of `g` selects,
    /// bit for bit.
    ///
    /// A row that fits its slots, plus the dead run that follows them, is
    /// written where it sits; one that outgrows them sends the patch to a
    /// fresh build of `g`. A shrinking row always fits, so the slot array
    /// never grows between builds. Cost: the rewritten rows' degrees, or
    /// `O(n + m)` for the rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different node count, or if `relabeling` is
    /// `None` for a relabeled snapshot or `Some` for a plain one.
    pub fn patch_rows(&mut self, g: &SocialGraph, nodes: &[u32], relabeling: Option<&Relabeling>) {
        assert_eq!(g.node_count(), self.node_count(), "patch from a graph of another node set");
        assert_eq!(
            relabeling.is_none(),
            self.sorted_neighbors,
            "a snapshot is patched under the relabeling it was built with"
        );
        self.edge_count = g.edge_count();
        for &v in nodes {
            let v = NodeId::new(v as usize);
            let row = g.neighbors(v).iter();
            let fits = match relabeling {
                None => self.write_row(v, row.copied()),
                Some(r) => self.write_row(r.new_of(v), row.map(|&u| r.new_of(u))),
            };
            if !fits {
                *self = Self::build(g, relabeling);
                return;
            }
        }
    }

    /// Writes `row` as node `v`'s slice and record where `v`'s slots
    /// sit, when it fits them plus the dead run after them. Returns
    /// whether it did; a row that does not fit writes nothing.
    fn write_row(&mut self, v: NodeId, row: impl ExactSizeIterator<Item = NodeId>) -> bool {
        let old = self.meta[v.index()];
        let (base, old_degree, degree) = (old.base as usize, old.degree as usize, row.len());
        let end = base + old_degree;
        let grow = degree.saturating_sub(old_degree);
        let free =
            self.neighbors[end..].iter().take(grow).take_while(|&&slot| slot == VACANT).count();
        if free < grow {
            return false;
        }
        self.neighbors[(base + degree).min(end)..end].fill(VACANT);
        for (slot, u) in self.neighbors[base..base + degree].iter_mut().zip(row) {
            *slot = u;
        }
        self.meta[v.index()] = NodeMeta::new(base, degree);
        true
    }

    /// Bytes the snapshot holds on the heap: its records and its whole
    /// neighbor array, dead slots and spare capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.meta.capacity() * std::mem::size_of::<NodeMeta>()
            + self.neighbors.capacity() * std::mem::size_of::<NodeId>()
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
        self.meta[v.index()].degree as usize
    }

    /// Neighbors of `v` — sorted by id for a default build, in image
    /// order for a relabeled build (see
    /// [`from_social_graph_relabeled`](Self::from_social_graph_relabeled)).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let m = self.meta[v.index()];
        &self.neighbors[m.base as usize..m.base as usize + m.degree as usize]
    }

    /// Whether neighbor slices are sorted by node id (false only for
    /// relabeled snapshots, whose slices are in image order).
    #[inline]
    pub fn has_sorted_neighbors(&self) -> bool {
        self.sorted_neighbors
    }

    /// Total incoming familiarity of `v` (the probability that `v` selects
    /// *some* neighbor in a realization), the same left-to-right sum as
    /// [`SocialGraph::total_in_weight`].
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

    /// The familiarity `w(u,v) = 1/|N_v|`, or `None` when `{u, v}` is not
    /// an edge.
    pub fn in_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if !self.has_edge(u, v) {
            return None;
        }
        Some(weights::in_weight(self.degree(v)))
    }

    /// Realization selection for node `v` (Def. 1): given a uniform draw
    /// `r ∈ [0, 1)`, returns the neighbor `u` selected with probability
    /// `w(u,v)`, or `None` — the artificial user `ℵ0` — with the remaining
    /// probability `1 − Σ_u w(u,v)`: the neighbor at
    /// [`select_slot`](Self::select_slot)`(v, r)`.
    ///
    /// Deterministic in `r`, which makes the derandomized tests and the
    /// Lemma 1 equivalence checks straightforward.
    #[inline]
    pub fn select_with(&self, v: NodeId, r: f64) -> Option<NodeId> {
        self.select_slot(v, r).map(|slot| self.neighbors[slot])
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
    /// `r ≥ total_in_weight(v)`. Each of `v`'s `d` neighbors weighs
    /// `1/d`, so the slot is `⌊r · d/total⌋` within `v`'s slice, clamped
    /// to its last position: one multiply by the record's precomputed
    /// `scale`. The lockstep sampler splits a step here: it selects and
    /// prefetches the slot, and reads it a pass later.
    #[inline]
    pub fn select_slot(&self, v: NodeId, r: f64) -> Option<usize> {
        let m = self.meta[v.index()];
        if r >= m.total {
            return None;
        }
        let d = m.degree as usize;
        debug_assert!(d > 0, "node with zero total weight cannot select");
        // `r < total` bounds the product by `d` up to one ulp, which the
        // clamp absorbs.
        let idx = (r * m.scale) as usize;
        Some(m.base as usize + idx.min(d - 1))
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
            assert_eq!(csr.total_in_weight(v), g.total_in_weight(v));
        }
    }

    #[test]
    fn weight_reconstruction() {
        let g = path4();
        let csr = g.to_csr();
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                assert_eq!(csr.in_weight(u, v), g.in_weight(u, v));
                assert_eq!(csr.in_weight(u, v), Some(1.0 / g.degree(v) as f64));
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

    /// A star whose center has `leaves` neighbors.
    fn star(leaves: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((1..=leaves).map(|leaf| (0, leaf))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn select_respects_partial_total() {
        // Six copies of 1/6 sum to one ulp below 1, so the center of a
        // six-leaf star selects nobody on a draw in [total, 1).
        let csr = star(6);
        let v = NodeId::new(0);
        let total = csr.total_in_weight(v);
        assert_eq!(total, 1.0f64.next_down());
        assert_eq!(csr.select_with(v, total.next_down()), Some(NodeId::new(6)));
        assert_eq!(csr.select_with(v, total), None);
        assert_eq!(csr.select_with(v, 0.999_999), Some(NodeId::new(6)));
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
        // A hub of degree 6, whose total sits one ulp below 1, and an
        // isolated node, so selection and the dangling branch are both
        // exercised.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (2, 3), (3, 4)]).unwrap();
        let g = b.reserve_nodes(9).build(WeightScheme::UniformByDegree).unwrap();
        let plain = g.to_csr();
        let r = Relabeling::hub_bfs(&g);
        let relabeled = CsrGraph::from_social_graph_relabeled(&g, &r);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..2_000 {
            let v = NodeId::new(rng.gen_range(0..g.node_count()));
            // Draws lie in [0, 1): an isolated node's total is 0.
            let total = plain.total_in_weight(v);
            for draw in [rng.gen::<f64>(), total, total.next_down().max(0.0)] {
                let expected = plain.select_with(v, draw).map(|u| r.new_of(u));
                assert_eq!(relabeled.select_with(r.new_of(v), draw), expected);
            }
        }
    }

    #[test]
    fn guided_selection_is_exactly_select_with() {
        use rand::{Rng, SeedableRng};
        // A path (totals of exactly 1), and stars whose centers' totals
        // fall below 1 (degree 6), above it (degree 9) or hit it (degree
        // 16): a draw at or past a total dangles.
        let graphs = [path4().to_csr(), star(6), star(9), star(16)];
        let select = |csr: &CsrGraph, v, r| csr.select_slot(v, r).map(|slot| csr.neighbor_at(slot));
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for csr in &graphs {
            for v in csr.nodes() {
                let d = csr.degree(v);
                let total = csr.total_in_weight(v);
                // Each slot's first draw `k · total/d`, and the draw just
                // below it, sit on a boundary of the multiply.
                let boundaries = (1..d).map(|k| k as f64 * total / d as f64);
                let boundaries = boundaries.flat_map(|b| [b, b.next_down()]);
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
                // The draw just below the total selects the last slot.
                assert_eq!(csr.select_slot(v, total), None, "v={v:?}");
                if d > 0 {
                    assert_eq!(
                        select(csr, v, total.next_down()),
                        csr.neighbors(v).last().copied(),
                        "v={v:?}"
                    );
                }
            }
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

    /// Every node of `a` has `b`'s row and record, bit for bit, wherever
    /// each row sits in the slot array: a patched snapshot against a
    /// rebuild of its graph.
    fn same_rows(a: &CsrGraph, b: &CsrGraph) -> bool {
        a.edge_count == b.edge_count
            && a.meta.len() == b.meta.len()
            && a.nodes().all(|v| {
                let (x, y) = (a.meta[v.index()], b.meta[v.index()]);
                (x.total.to_bits(), x.scale.to_bits(), x.degree)
                    == (y.total.to_bits(), y.scale.to_bits(), y.degree)
                    && a.neighbors(v) == b.neighbors(v)
            })
    }

    /// Every record bit and slot of `a` equals `b`'s, bases and capacity
    /// included: the same layout, not only the same rows.
    fn same_layout(a: &CsrGraph, b: &CsrGraph) -> bool {
        same_rows(a, b)
            && a.neighbors == b.neighbors
            && a.neighbors.capacity() == b.neighbors.capacity()
            && a.meta.iter().zip(&b.meta).all(|(x, y)| x.base == y.base)
    }

    #[test]
    fn patched_rows_shrink_grow_back_and_rebuild() {
        use crate::EdgeDelta;
        // The path 0-1-...-11: 22 slots, back to back.
        let mut b = GraphBuilder::new();
        b.add_edges((0..11).map(|i| (i, i + 1))).unwrap();
        let mut g = b.build(WeightScheme::UniformByDegree).unwrap();
        let mut csr = g.to_csr();
        let bases = |csr: &CsrGraph| csr.meta.iter().map(|m| m.base).collect::<Vec<_>>();
        let built = bases(&csr);
        let mut patch = |csr: &mut CsrGraph, spec: &str| {
            let effect = EdgeDelta::parse(spec).unwrap().apply_in_place(&mut g).unwrap();
            csr.patch_rows(&g, &effect.touched_nodes(), None);
            let fresh = g.to_csr();
            assert!(same_rows(csr, &fresh), "{spec}");
            fresh
        };
        // Rows 1 and 2 shrink in place, each leaving a dead slot.
        patch(&mut csr, "-1:2");
        assert_eq!(bases(&csr), built);
        assert_eq!((csr.neighbors[2], csr.neighbors[4]), (VACANT, VACANT));
        // Row 1 grows back into its dead slot, row 2 trades 3 for 1 and
        // row 3 shrinks: every row stays where it sits.
        patch(&mut csr, "-2:3,+1:2");
        assert_eq!(bases(&csr), built);
        assert_eq!((csr.neighbors[4], csr.neighbors[6]), (VACANT, VACANT));
        assert_eq!(csr.neighbors.len(), 22);
        // Row 0 outgrows its slot, whose neighbor is row 1's live slot, so
        // the patch is a fresh build: its layout, capacity included.
        let fresh = patch(&mut csr, "+0:2");
        assert!(same_layout(&csr, &fresh));
        assert_eq!(csr.heap_bytes(), fresh.heap_bytes());
    }

    #[test]
    fn slot_array_stays_bounded_under_hub_churn() {
        use crate::EdgeDelta;
        use rand::{Rng, SeedableRng};
        // Four hubs over 60 leaves. Each delta removes hub edges, re-adds
        // removed ones, or adds a new one, so rows shrink, grow back into
        // their dead slots, or outgrow them and rebuild.
        const HUBS: usize = 4;
        const LEAVES: usize = 60;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut b = GraphBuilder::new();
        for hub in 0..HUBS {
            for leaf in HUBS..HUBS + LEAVES {
                if rng.gen_bool(0.5) {
                    b.add_edge(hub, leaf).unwrap();
                }
            }
        }
        let mut g = b.reserve_nodes(HUBS + LEAVES).build(WeightScheme::UniformByDegree).unwrap();
        let mut csr = g.to_csr();
        let mut built_bytes = csr.heap_bytes();
        let mut removed: Vec<(usize, usize)> = Vec::new();
        let (mut in_place, mut rebuilt, mut dead_steps) = (0, 0, 0);
        for step in 0..10_000 {
            let mut delta = EdgeDelta::new();
            for _ in 0..rng.gen_range(1..=3) {
                let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
                match rng.gen_range(0..10) {
                    0..=4 if !edges.is_empty() => {
                        let (u, v) = edges[rng.gen_range(0..edges.len())];
                        delta.remove(u.index(), v.index()).unwrap();
                        removed.push((u.index(), v.index()));
                    }
                    5..=8 if !removed.is_empty() => {
                        let (u, v) = removed.swap_remove(rng.gen_range(0..removed.len()));
                        delta.add(u, v).unwrap();
                    }
                    _ => {
                        let (hub, leaf) =
                            (rng.gen_range(0..HUBS), rng.gen_range(HUBS..HUBS + LEAVES));
                        delta.add(hub, leaf).unwrap();
                    }
                }
            }
            let effect = delta.apply_in_place(&mut g).unwrap();
            let buffer = csr.neighbors.as_ptr();
            csr.patch_rows(&g, &effect.touched_nodes(), None);

            let fresh = g.to_csr();
            assert!(same_rows(&csr, &fresh), "step {step}: {}", delta.spec());
            // Only a rebuild swaps the slot array; in place, it neither
            // grows nor moves.
            if csr.neighbors.as_ptr() != buffer {
                rebuilt += 1;
                assert!(same_layout(&csr, &fresh), "step {step}: a rebuild left another layout");
                built_bytes = csr.heap_bytes();
            } else {
                in_place += 1;
                assert_eq!(csr.heap_bytes(), built_bytes, "step {step}: the array grew in place");
            }
            dead_steps += usize::from(csr.neighbors.len() > 2 * csr.edge_count);
        }
        assert!(
            in_place > 1_000 && rebuilt > 1_000 && dead_steps > 1_000,
            "in place {in_place}, rebuilt {rebuilt}, with dead slots {dead_steps}"
        );
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
