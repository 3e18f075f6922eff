//! Batched edge churn over a [`SocialGraph`].
//!
//! Real friendship graphs evolve while a serving session is live. An
//! [`EdgeDelta`] collects add/remove operations in arrival order,
//! collapses them deterministically (last operation per undirected edge
//! wins), and applies them in place
//! ([`EdgeDelta::apply_in_place`]): it validates the whole batch, then
//! inserts or removes each effective edge in its two endpoints' sorted
//! rows, so a delta costs its endpoints' degrees, not `O(|E|)`. The
//! patched graph equals, row for row, the graph a fresh load of the
//! post-churn edge list builds. Weights follow the post-churn degrees,
//! since `w(u,v) = 1/|N_v|` is implied by them, so a delta changes the
//! in-weights of its endpoints and of no other node.
//!
//! The node set is frozen: a delta rewires edges among the existing
//! `0..n` ids. This keeps every resident [`Relabeling`](crate::Relabeling)
//! table valid, so a serving layer patches a relabeled snapshot's touched
//! rows ([`CsrGraph::patch_rows`](crate::CsrGraph::patch_rows)) under the
//! same permutation.

use crate::{GraphError, NodeId, SocialGraph, WeightScheme};
use std::collections::HashMap;

/// One churn operation over an undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// Insert the edge if absent.
    Add,
    /// Delete the edge if present.
    Remove,
}

impl DeltaOp {
    /// The spec-string sigil (`+` / `-`).
    pub fn sigil(self) -> char {
        match self {
            DeltaOp::Add => '+',
            DeltaOp::Remove => '-',
        }
    }
}

/// An ordered batch of edge add/remove operations.
///
/// Endpoints are stored as normalized `(min, max)` pairs, so the two
/// orientations of an undirected edge address the same operation slot.
/// Self-loops are rejected at insertion: the graph is simple.
///
/// ```
/// use raf_graph::{EdgeDelta, GraphBuilder, WeightScheme};
///
/// # fn main() -> Result<(), raf_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// b.add_edges(vec![(0, 1), (1, 2), (2, 3)])?;
/// let g = b.build(WeightScheme::UniformByDegree)?;
///
/// let delta = EdgeDelta::parse("+0:3,-1:2")?;
/// let applied = delta.apply(&g, WeightScheme::UniformByDegree)?;
/// assert_eq!(applied.graph.edge_count(), 3);
/// assert_eq!(applied.effect.added, vec![(0, 3)]);
/// assert_eq!(applied.effect.removed, vec![(1, 2)]);
/// assert_eq!(applied.touched_nodes(), vec![0, 1, 2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Operations in arrival order, endpoints normalized `(min, max)`.
    ops: Vec<(DeltaOp, u32, u32)>,
}

impl EdgeDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of raw operations recorded (before batching).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn key(u: usize, v: usize) -> (u32, u32) {
        debug_assert!(u <= u32::MAX as usize && v <= u32::MAX as usize);
        if u < v {
            (u as u32, v as u32)
        } else {
            (v as u32, u as u32)
        }
    }

    fn push(&mut self, op: DeltaOp, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let (a, b) = Self::key(u, v);
        self.ops.push((op, a, b));
        Ok(self)
    }

    /// Records an edge insertion.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] when `u == v`.
    pub fn add(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        self.push(DeltaOp::Add, u, v)
    }

    /// Records an edge deletion.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] when `u == v`.
    pub fn remove(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        self.push(DeltaOp::Remove, u, v)
    }

    /// Parses a delta spec: comma- or whitespace-separated operations of
    /// the form `+u:v` (add) or `-u:v` (remove), e.g. `+0:3,-1:2`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Parse`] (with the 1-based operation index as
    /// the line) for malformed tokens, and [`GraphError::SelfLoop`] for
    /// `u == v`.
    pub fn parse(spec: &str) -> Result<Self, GraphError> {
        let mut delta = EdgeDelta::new();
        for (idx, token) in spec
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .enumerate()
        {
            let line = idx + 1;
            let malformed = |message: String| GraphError::Parse { line, message };
            let op = match token.as_bytes()[0] {
                b'+' => DeltaOp::Add,
                b'-' => DeltaOp::Remove,
                _ => {
                    return Err(malformed(format!(
                        "op `{token}` must start with `+` (add) or `-` (remove)"
                    )))
                }
            };
            let body = &token[1..];
            let (u_str, v_str) = body.split_once(':').ok_or_else(|| {
                malformed(format!("op `{token}` is missing the `u:v` endpoint pair"))
            })?;
            let endpoint = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| malformed(format!("endpoint `{s}` in `{token}` is not a u32 id")))
            };
            let (u, v) = (endpoint(u_str)?, endpoint(v_str)?);
            delta.push(op, u as usize, v as usize)?;
        }
        Ok(delta)
    }

    /// Renders the delta back into the spec grammar accepted by
    /// [`parse`](EdgeDelta::parse), preserving arrival order.
    pub fn spec(&self) -> String {
        let mut out = String::new();
        for (i, &(op, u, v)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push(op.sigil());
            out.push_str(&format!("{u}:{v}"));
        }
        out
    }

    /// Collapses the batch deterministically: the **last** operation
    /// recorded for each undirected edge wins, and the surviving
    /// operations are emitted sorted by `(u, v)` key, so any two deltas
    /// with the same net effect batch to the same plan.
    pub fn batched(&self) -> Vec<(DeltaOp, u32, u32)> {
        let mut last: HashMap<(u32, u32), DeltaOp> = HashMap::with_capacity(self.ops.len());
        for &(op, u, v) in &self.ops {
            last.insert((u, v), op);
        }
        let mut plan: Vec<(DeltaOp, u32, u32)> =
            last.into_iter().map(|((u, v), op)| (op, u, v)).collect();
        plan.sort_unstable_by_key(|&(_, u, v)| (u, v));
        plan
    }

    /// Applies the batched delta to a copy of `graph`: a clone patched by
    /// [`apply_in_place`](Self::apply_in_place), which is the one
    /// implementation of every delta. Under the one [`WeightScheme`]
    /// weights follow the degrees, so the patched rows are the whole
    /// update.
    ///
    /// Adds of present edges and removes of absent edges are no-ops and
    /// are excluded from the effect report; the node set is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when an endpoint is outside
    /// `0..graph.node_count()` (the node set is frozen under churn).
    pub fn apply(
        &self,
        graph: &SocialGraph,
        scheme: WeightScheme,
    ) -> Result<DeltaApplied, GraphError> {
        let WeightScheme::UniformByDegree = scheme;
        let mut graph = graph.clone();
        let effect = self.apply_in_place(&mut graph)?;
        Ok(DeltaApplied { graph, effect })
    }

    /// Applies the batched delta to `graph` in place. The whole batch is
    /// validated before the first write, so an error leaves `graph` as it
    /// was. Then each effective operation inserts or removes its edge in
    /// the two endpoints' sorted rows, and nothing else moves: the result
    /// equals, row for row, a fresh build of the post-churn edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when an endpoint is outside
    /// `0..graph.node_count()` (the node set is frozen under churn).
    pub fn apply_in_place(&self, graph: &mut SocialGraph) -> Result<DeltaEffect, GraphError> {
        let n = graph.node_count();
        let plan = self.batched();
        for &(_, u, v) in &plan {
            let out = if u as usize >= n { u } else { v };
            if out as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: out as usize, node_count: n });
            }
        }
        let mut effect = DeltaEffect::default();
        for &(op, u, v) in &plan {
            let (a, b) = (NodeId::new(u as usize), NodeId::new(v as usize));
            match op {
                DeltaOp::Add if graph.insert_edge(a, b) => effect.added.push((u, v)),
                DeltaOp::Remove if graph.remove_edge(a, b) => effect.removed.push((u, v)),
                _ => {}
            }
        }
        Ok(effect)
    }
}

/// The *effective* operations of an applied delta (no-ops excluded), in
/// sorted `(u, v)` order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Edges that were actually inserted, sorted `(min, max)` pairs.
    pub added: Vec<(u32, u32)>,
    /// Edges that were actually deleted, sorted `(min, max)` pairs.
    pub removed: Vec<(u32, u32)>,
}

impl DeltaEffect {
    /// Whether the delta had no effect on the edge set.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Sorted, deduplicated endpoints of every effective operation.
    ///
    /// Weights derive from degrees, so these are exactly the nodes whose
    /// in-weight distributions changed, which is the invalidation
    /// unit for walk repair: a stored walk is stale iff it drew a step
    /// at a touched node. They are also the only rows a patch rewrites.
    pub fn touched_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> =
            self.added.iter().chain(&self.removed).flat_map(|&(u, v)| [u, v]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// The result of applying an [`EdgeDelta`] to a copy: the patched graph
/// and the delta's effect.
#[derive(Debug, Clone)]
pub struct DeltaApplied {
    /// The post-churn graph (same node set, patched rows).
    pub graph: SocialGraph,
    /// The effective operations, no-ops excluded.
    pub effect: DeltaEffect,
}

impl DeltaApplied {
    /// The effect's [`touched_nodes`](DeltaEffect::touched_nodes).
    pub fn touched_nodes(&self) -> Vec<u32> {
        self.effect.touched_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph(n: usize) -> SocialGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn rejects_self_loops_on_push_and_parse() {
        let mut d = EdgeDelta::new();
        assert!(matches!(d.add(3, 3), Err(GraphError::SelfLoop { node: 3 })));
        assert!(matches!(EdgeDelta::parse("+1:1"), Err(GraphError::SelfLoop { node: 1 })));
    }

    #[test]
    fn parse_accepts_commas_and_whitespace() {
        let a = EdgeDelta::parse("+0:3,-1:2").unwrap();
        let b = EdgeDelta::parse("  +0:3 \t -1:2 ").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.spec(), "+0:3,-1:2");
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in ["~0:1", "+0", "+a:1", "+0:b", "+0:1:2", "+-1:2"] {
            let err = EdgeDelta::parse(bad).unwrap_err();
            assert!(matches!(err, GraphError::Parse { .. }), "{bad} gave {err:?}");
        }
    }

    #[test]
    fn spec_round_trips() {
        let d = EdgeDelta::parse("+5:2,-7:9,+1:0").unwrap();
        assert_eq!(EdgeDelta::parse(&d.spec()).unwrap(), d);
        // Endpoints normalize to (min, max) in the round-tripped spec.
        assert_eq!(d.spec(), "+2:5,-7:9,+0:1");
    }

    #[test]
    fn batching_is_last_op_wins_and_sorted() {
        let mut d = EdgeDelta::new();
        d.add(4, 5).unwrap();
        d.remove(0, 1).unwrap();
        d.remove(5, 4).unwrap(); // overrides the add, via the flipped orientation
        d.add(2, 3).unwrap();
        assert_eq!(
            d.batched(),
            vec![(DeltaOp::Remove, 0, 1), (DeltaOp::Add, 2, 3), (DeltaOp::Remove, 4, 5),]
        );
    }

    #[test]
    fn apply_reports_only_effective_ops() {
        let g = path_graph(5); // edges 0-1, 1-2, 2-3, 3-4
        let mut d = EdgeDelta::new();
        d.add(0, 1).unwrap(); // no-op: already present
        d.remove(0, 4).unwrap(); // no-op: absent
        d.add(0, 2).unwrap();
        d.remove(3, 4).unwrap();
        let applied = d.apply(&g, WeightScheme::UniformByDegree).unwrap();
        assert_eq!(applied.effect.added, vec![(0, 2)]);
        assert_eq!(applied.effect.removed, vec![(3, 4)]);
        assert_eq!(applied.touched_nodes(), vec![0, 2, 3, 4]);
        assert!(!applied.effect.is_noop());
        assert_eq!(applied.graph.edge_count(), 4);
        assert!(applied.graph.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!applied.graph.has_edge(NodeId::new(3), NodeId::new(4)));
    }

    #[test]
    fn apply_preserves_node_set_and_rejects_out_of_range() {
        let g = path_graph(4);
        let applied =
            EdgeDelta::parse("-1:2").unwrap().apply(&g, WeightScheme::UniformByDegree).unwrap();
        assert_eq!(applied.graph.node_count(), 4);
        let err =
            EdgeDelta::parse("+0:9").unwrap().apply(&g, WeightScheme::UniformByDegree).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 9, node_count: 4 }));
        // A mixed batch is validated whole before its first write: the
        // valid removal must not land when the add is out of range,
        // whether it sorts before the bad op or after it.
        for spec in ["-2:3,+0:999", "-2:3,+3:999"] {
            let mixed = EdgeDelta::parse(spec).unwrap();
            let err = mixed.apply(&g, WeightScheme::UniformByDegree).unwrap_err();
            assert!(matches!(err, GraphError::NodeOutOfRange { node: 999, node_count: 4 }));
            let mut patched = g.clone();
            let err = mixed.apply_in_place(&mut patched).unwrap_err();
            assert!(matches!(err, GraphError::NodeOutOfRange { node: 999, node_count: 4 }));
            assert_eq!(patched, g, "{spec}: a failing batch leaves the graph as it was");
        }
    }

    #[test]
    fn in_place_patch_equals_the_copy_and_reports_the_same_effect() {
        let g = path_graph(6);
        // Repeated ops on one edge (last wins), a no-op add, a leaf
        // trading its only edge and a row growing.
        let delta = EdgeDelta::parse("+1:4,-1:4,+1:4,+0:1,-4:5,+1:5").unwrap();
        let applied = delta.apply(&g, WeightScheme::UniformByDegree).unwrap();
        let mut patched = g.clone();
        let effect = delta.apply_in_place(&mut patched).unwrap();
        assert_eq!(patched, applied.graph);
        assert_eq!(effect, applied.effect);
        assert_eq!(effect.added, vec![(1, 4), (1, 5)]);
        assert_eq!(effect.removed, vec![(4, 5)]);
        assert_eq!(patched.neighbors(NodeId::new(1)), &[0, 2, 4, 5].map(NodeId::new));
        assert_eq!(patched.degree(NodeId::new(5)), 1);
        assert_eq!(patched.edge_count(), 6);
        // The rows equal a fresh build's, so do the weights they imply.
        let mut b = GraphBuilder::new();
        b.add_edges(patched.edges().map(|(u, v)| (u.index(), v.index()))).unwrap();
        let fresh = b.reserve_nodes(6).build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(patched, fresh);
        assert!(delta.apply_in_place(&mut patched).unwrap().is_noop(), "a delta is idempotent");
        assert_eq!(patched, fresh);
    }

    #[test]
    fn apply_matches_fresh_build_of_post_churn_edges() {
        let g = path_graph(6);
        let applied = EdgeDelta::parse("+0:3,+2:5,-1:2")
            .unwrap()
            .apply(&g, WeightScheme::UniformByDegree)
            .unwrap();
        let mut b = GraphBuilder::new();
        b.reserve_nodes(6);
        b.add_edges(vec![(0, 1), (2, 3), (3, 4), (4, 5), (0, 3), (2, 5)]).unwrap();
        let fresh = b.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!(applied.graph.edges().collect::<Vec<_>>(), fresh.edges().collect::<Vec<_>>());
        for v in 0..6 {
            let v = NodeId::new(v);
            assert_eq!(applied.graph.neighbors(v), fresh.neighbors(v));
            assert_eq!(applied.graph.total_in_weight(v), fresh.total_in_weight(v));
        }
    }

    #[test]
    fn noop_delta_rebuilds_identical_weights() {
        let g = path_graph(5);
        let applied = EdgeDelta::new().apply(&g, WeightScheme::UniformByDegree).unwrap();
        assert!(applied.effect.is_noop());
        assert_eq!(applied.touched_nodes(), Vec::<u32>::new());
        for v in 0..5 {
            let v = NodeId::new(v);
            assert_eq!(applied.graph.neighbors(v), g.neighbors(v));
            assert_eq!(applied.graph.total_in_weight(v), g.total_in_weight(v));
        }
    }
}
