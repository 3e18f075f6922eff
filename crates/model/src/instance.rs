//! Validated `(G, s, t)` problem instances.

use crate::{InvitationSet, ModelError};
use raf_graph::{CsrGraph, NodeId, Relabeling};
use std::sync::Arc;

/// A validated active-friending instance: the graph snapshot, the
/// initiator `s`, the target `t`, and the precomputed seed set `N_s`
/// (the current friends of `s`, the starting set `C_0` of Process 1).
///
/// All estimators and the RAF algorithm operate on this type, so the
/// `s ≠ t` / not-already-friends / in-range checks happen exactly once.
///
/// # Relabeled snapshots
///
/// An instance built with [`relabeled`](Self::relabeled) runs on a
/// renumbered [`CsrGraph`] — any `raf_graph::RelabelOrder` layout:
/// hub-BFS, degree-descending, or reverse Cuthill–McKee, the candidates
/// of the cache-layout bake-off — while *reporting* every node id in the caller's original
/// space: sampled pools, target paths, and invitation sets crossing this
/// type's API are mapped back through the inverse permutation, and —
/// because relabeled snapshots keep neighbor slices in image order, so
/// realization selection commutes with the permutation — the mapped-back
/// results are **bit-identical** to running on the unrelabeled snapshot,
/// not merely equal in distribution. Internal graph-space accessors
/// ([`initiator`](Self::initiator), [`target`](Self::target),
/// [`seeds`](Self::seeds), [`is_seed`](Self::is_seed)) stay in the
/// snapshot's own space; use [`original_of`](Self::original_of) /
/// [`to_original_set`](Self::to_original_set) at reporting boundaries.
#[derive(Debug, Clone)]
pub struct FriendingInstance<'g> {
    graph: &'g CsrGraph,
    s: NodeId,
    t: NodeId,
    ns: Vec<NodeId>,
    /// `N_s` as a packed bitset: the backward walk probes membership on
    /// every step, and one bit per node keeps the whole set cache-hot
    /// (8× smaller than a `Vec<bool>`).
    is_seed: InvitationSet,
    /// When the snapshot is a relabeled build, the permutation that maps
    /// its ids back to the caller's original space.
    relabeling: Option<Arc<Relabeling>>,
}

impl<'g> FriendingInstance<'g> {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NodeOutOfRange`] when `s` or `t` exceeds the graph;
    /// * [`ModelError::InitiatorIsTarget`] when `s == t`;
    /// * [`ModelError::AlreadyFriends`] when `(s, t)` is already an edge —
    ///   the active-friending problem assumes the friendship is missing.
    pub fn new(graph: &'g CsrGraph, s: NodeId, t: NodeId) -> Result<Self, ModelError> {
        Self::build(graph, s, t, None)
    }

    /// Builds an instance over a relabeled snapshot
    /// ([`CsrGraph::from_social_graph_relabeled`]): `s` and `t` are given
    /// in **original** ids and mapped into the snapshot's space here; all
    /// results leaving the instance are mapped back (see the type docs).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), with node ids in the errors referring to
    /// the original space. Additionally returns
    /// [`ModelError::InvalidParameter`] when the relabeling's node count
    /// differs from the graph's (a permutation built for another graph).
    pub fn relabeled(
        graph: &'g CsrGraph,
        s_original: NodeId,
        t_original: NodeId,
        relabeling: Arc<Relabeling>,
    ) -> Result<Self, ModelError> {
        let n = graph.node_count();
        if relabeling.len() != n {
            return Err(ModelError::InvalidParameter {
                message: format!(
                    "relabeling covers {} nodes but the graph has {n}",
                    relabeling.len()
                ),
            });
        }
        for v in [s_original, t_original] {
            if v.index() >= n {
                return Err(ModelError::NodeOutOfRange { node: v.index(), node_count: n });
            }
        }
        Self::build(
            graph,
            relabeling.new_of(s_original),
            relabeling.new_of(t_original),
            Some(relabeling),
        )
    }

    fn build(
        graph: &'g CsrGraph,
        s: NodeId,
        t: NodeId,
        relabeling: Option<Arc<Relabeling>>,
    ) -> Result<Self, ModelError> {
        let n = graph.node_count();
        let original =
            |v: NodeId| -> usize { relabeling.as_ref().map_or(v, |r| r.original_of(v)).index() };
        for v in [s, t] {
            if v.index() >= n {
                return Err(ModelError::NodeOutOfRange { node: original(v), node_count: n });
            }
        }
        if s == t {
            return Err(ModelError::InitiatorIsTarget { node: original(s) });
        }
        if graph.has_edge(s, t) {
            return Err(ModelError::AlreadyFriends { s: original(s), t: original(t) });
        }
        let ns = graph.neighbors(s).to_vec();
        let is_seed = InvitationSet::from_nodes(n, ns.iter().copied());
        Ok(FriendingInstance { graph, s, t, ns, is_seed, relabeling })
    }

    /// The underlying graph snapshot.
    #[inline]
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The initiator `s`.
    #[inline]
    pub fn initiator(&self) -> NodeId {
        self.s
    }

    /// The target `t`.
    #[inline]
    pub fn target(&self) -> NodeId {
        self.t
    }

    /// The current friends `N_s` of the initiator (the seed set `C_0`).
    #[inline]
    pub fn seeds(&self) -> &[NodeId] {
        &self.ns
    }

    /// Whether `v ∈ N_s`.
    #[inline]
    pub fn is_seed(&self, v: NodeId) -> bool {
        self.is_seed.contains_index(v.index())
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The relabeling carried by this instance, if the snapshot is a
    /// relabeled build.
    #[inline]
    pub fn relabeling(&self) -> Option<&Relabeling> {
        self.relabeling.as_deref()
    }

    /// Maps a graph-space node id back to the caller's original space
    /// (identity for unrelabeled instances).
    #[inline]
    pub fn original_of(&self, v: NodeId) -> NodeId {
        match &self.relabeling {
            None => v,
            Some(r) => r.original_of(v),
        }
    }

    /// The raw inverse-permutation table (`table[graph_id] = original`),
    /// or `None` for unrelabeled instances — the zero-overhead form the
    /// pool assembler indexes directly.
    #[inline]
    pub fn original_table(&self) -> Option<&[u32]> {
        self.relabeling.as_deref().map(Relabeling::original_table)
    }

    /// Maps a graph-space node set into the original space (a cheap
    /// clone-equivalent for unrelabeled instances). Used by `V_max` and
    /// the baselines so every set crossing the public API is reported in
    /// original ids.
    pub fn to_original_set(&self, set: &InvitationSet) -> InvitationSet {
        match &self.relabeling {
            None => set.clone(),
            Some(r) => {
                InvitationSet::from_nodes(set.capacity(), set.iter().map(|v| r.original_of(v)))
            }
        }
    }

    /// The target `t` in original space (what reports should print).
    #[inline]
    pub fn target_original(&self) -> NodeId {
        self.original_of(self.t)
    }

    /// [`pair_seed`](crate::sampler::pair_seed) over the pair's original
    /// ids: the serve cache's pool seed for the pair, on every layout.
    pub fn pair_seed(&self, master: u64) -> u64 {
        let (s, t) = (self.initiator_original(), self.target_original());
        crate::sampler::pair_seed(master, s.index() as u32, t.index() as u32)
    }

    /// The initiator `s` in original space.
    #[inline]
    pub fn initiator_original(&self) -> NodeId {
        self.original_of(self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{GraphBuilder, WeightScheme};

    fn csr() -> CsrGraph {
        let mut b = GraphBuilder::new();
        // 0 - 1 - 2 - 3 path.
        b.add_edges(vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn valid_instance() {
        let g = csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(inst.initiator(), NodeId::new(0));
        assert_eq!(inst.target(), NodeId::new(3));
        assert_eq!(inst.seeds(), &[NodeId::new(1)]);
        assert!(inst.is_seed(NodeId::new(1)));
        assert!(!inst.is_seed(NodeId::new(2)));
    }

    #[test]
    fn rejects_same_node() {
        let g = csr();
        assert!(matches!(
            FriendingInstance::new(&g, NodeId::new(1), NodeId::new(1)),
            Err(ModelError::InitiatorIsTarget { node: 1 })
        ));
    }

    #[test]
    fn rejects_existing_friends() {
        let g = csr();
        assert!(matches!(
            FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)),
            Err(ModelError::AlreadyFriends { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let g = csr();
        assert!(matches!(
            FriendingInstance::new(&g, NodeId::new(0), NodeId::new(9)),
            Err(ModelError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn relabeled_instance_maps_both_ways() {
        use raf_graph::{GraphBuilder, Relabeling, WeightScheme};
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let social = b.build(WeightScheme::UniformByDegree).unwrap();
        let r = std::sync::Arc::new(Relabeling::hub_bfs(&social));
        let g = social.to_csr_relabeled(&r);
        let inst =
            FriendingInstance::relabeled(&g, NodeId::new(0), NodeId::new(3), r.clone()).unwrap();
        // Internal accessors are graph-space…
        assert_eq!(inst.initiator(), r.new_of(NodeId::new(0)));
        assert_eq!(inst.target(), r.new_of(NodeId::new(3)));
        // …while the original-space accessors round-trip.
        assert_eq!(inst.initiator_original(), NodeId::new(0));
        assert_eq!(inst.target_original(), NodeId::new(3));
        assert_eq!(inst.original_of(inst.target()), NodeId::new(3));
        assert!(inst.relabeling().is_some());
        assert_eq!(inst.original_table().unwrap().len(), 4);
        // Seed structure is preserved: N_s = {1} in original space.
        assert!(inst.is_seed(r.new_of(NodeId::new(1))));
        let seeds = InvitationSet::from_nodes(4, inst.seeds().iter().copied());
        assert_eq!(inst.to_original_set(&seeds).to_vec(), vec![NodeId::new(1)]);
    }

    #[test]
    fn relabeled_instance_validates_in_original_space() {
        use raf_graph::{GraphBuilder, Relabeling, WeightScheme};
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let social = b.build(WeightScheme::UniformByDegree).unwrap();
        let r = std::sync::Arc::new(Relabeling::hub_bfs(&social));
        let g = social.to_csr_relabeled(&r);
        // Already friends in original space → error reports original ids.
        assert!(matches!(
            FriendingInstance::relabeled(&g, NodeId::new(0), NodeId::new(1), r.clone()),
            Err(ModelError::AlreadyFriends { s: 0, t: 1 })
        ));
        assert!(matches!(
            FriendingInstance::relabeled(&g, NodeId::new(2), NodeId::new(2), r.clone()),
            Err(ModelError::InitiatorIsTarget { node: 2 })
        ));
        assert!(matches!(
            FriendingInstance::relabeled(&g, NodeId::new(0), NodeId::new(9), r.clone()),
            Err(ModelError::NodeOutOfRange { node: 9, .. })
        ));
        // A relabeling sized for a different graph is rejected with a
        // diagnostic naming the size mismatch, not a bogus node id.
        let wrong = std::sync::Arc::new(Relabeling::identity(2));
        match FriendingInstance::relabeled(&g, NodeId::new(0), NodeId::new(3), wrong) {
            Err(ModelError::InvalidParameter { message }) => {
                assert!(message.contains("covers 2 nodes"), "message: {message}");
            }
            other => panic!("expected an InvalidParameter error, got {other:?}"),
        }
    }
}
