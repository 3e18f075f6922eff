//! Batched edge churn over a [`SocialGraph`].
//!
//! Real friendship graphs evolve while a serving session is live. An
//! [`EdgeDelta`] collects add/remove operations in arrival order,
//! collapses them deterministically (last operation per undirected edge
//! wins — "rebuild batching"), and applies them by rebuilding the graph
//! through [`GraphBuilder`], exactly as a from-scratch load of the
//! post-churn edge list would. Weights follow the post-churn degrees,
//! since `w(u,v) = 1/|N_v|` is implied by them.
//!
//! The node set is frozen: a delta rewires edges among the existing
//! `0..n` ids. This keeps every resident [`Relabeling`](crate::Relabeling)
//! table valid, so a serving layer rebuilds a relabeled snapshot from the
//! post-delta graph under the same permutation.

use crate::{GraphBuilder, GraphError, NodeId, SocialGraph, WeightScheme};
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
/// Self-loops are rejected at insertion, matching [`GraphBuilder`].
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
/// assert_eq!(applied.added, vec![(0, 3)]);
/// assert_eq!(applied.removed, vec![(1, 2)]);
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

    /// Applies the batched delta to `graph`, rebuilding adjacency under
    /// `scheme` exactly as a fresh [`GraphBuilder`] load of the
    /// post-churn edge list would.
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
        let n = graph.node_count();
        let plan = self.batched();
        for &(_, u, v) in &plan {
            let out = if u as usize >= n { u } else { v };
            if out as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: out as usize, node_count: n });
            }
        }
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for &(op, u, v) in &plan {
            let present = graph.has_edge(NodeId::new(u as usize), NodeId::new(v as usize));
            match op {
                DeltaOp::Add if !present => added.push((u, v)),
                DeltaOp::Remove if present => removed.push((u, v)),
                _ => {}
            }
        }
        let mut builder = GraphBuilder::with_capacity(graph.edge_count() + added.len());
        builder.reserve_nodes(n);
        let gone: std::collections::HashSet<(u32, u32)> = removed.iter().copied().collect();
        for (u, v) in graph.edges() {
            let key = Self::key(u.index(), v.index());
            if !gone.contains(&key) {
                builder.add_edge(u.index(), v.index())?;
            }
        }
        for &(u, v) in &added {
            builder.add_edge(u as usize, v as usize)?;
        }
        let graph = builder.build(scheme)?;
        Ok(DeltaApplied { graph, added, removed })
    }
}

/// The result of applying an [`EdgeDelta`]: the rebuilt graph plus the
/// *effective* operations (no-ops excluded), in sorted `(u, v)` order.
#[derive(Debug, Clone)]
pub struct DeltaApplied {
    /// The post-churn graph (same node set, rebuilt adjacency).
    pub graph: SocialGraph,
    /// Edges that were actually inserted, sorted `(min, max)` pairs.
    pub added: Vec<(u32, u32)>,
    /// Edges that were actually deleted, sorted `(min, max)` pairs.
    pub removed: Vec<(u32, u32)>,
}

impl DeltaApplied {
    /// Number of edges whose presence actually changed.
    pub fn touched_edge_count(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether the delta had no effect on the edge set.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Sorted, deduplicated endpoints of every effective operation.
    ///
    /// Weights derive from degrees, so these are exactly the nodes whose
    /// in-weight distributions changed, which is the invalidation
    /// unit for walk repair: a stored walk is stale iff it drew a step
    /// at a touched node.
    pub fn touched_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> =
            self.added.iter().chain(self.removed.iter()).flat_map(|&(u, v)| [u, v]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(applied.added, vec![(0, 2)]);
        assert_eq!(applied.removed, vec![(3, 4)]);
        assert_eq!(applied.touched_edge_count(), 2);
        assert_eq!(applied.touched_nodes(), vec![0, 2, 3, 4]);
        assert!(!applied.is_noop());
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
        assert!(applied.is_noop());
        assert_eq!(applied.touched_nodes(), Vec::<u32>::new());
        for v in 0..5 {
            let v = NodeId::new(v);
            assert_eq!(applied.graph.neighbors(v), g.neighbors(v));
            assert_eq!(applied.graph.total_in_weight(v), g.total_in_weight(v));
        }
    }
}
