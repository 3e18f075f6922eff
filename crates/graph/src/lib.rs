//! Social-graph substrate for the active-friending reproduction.
//!
//! This crate implements the graph model of Sec. II-A of *An Approximation
//! Algorithm for Active Friending in Online Social Networks* (ICDCS 2019):
//! an undirected simple graph `G = (V, E)` where every **ordered** pair of
//! friends `(u, v)` carries a familiarity weight `w(u,v) ∈ (0, 1]` — the
//! weight that `v` places on its neighbor `u` — normalized so that
//! `Σ_u w(u,v) ≤ 1` for every `v`. Weights follow the paper's evaluation
//! model (Sec. IV), `w(u,v) = 1/|N_v|`, so they are implied by the
//! degrees and neither representation stores them.
//!
//! The crate provides:
//!
//! * [`SocialGraph`] — sorted adjacency lists, built through
//!   [`GraphBuilder`] under the one [`WeightScheme`];
//! * [`CsrGraph`] — a compressed-sparse-row snapshot with one packed
//!   record per node, the hot-path structure used by realization
//!   sampling in `raf-model`, which an edge delta patches row by row;
//! * [`EdgeDelta`] — batched edge churn, applied in place;
//! * [`generators`] — Erdős–Rényi, Barabási–Albert, Holme–Kim, and
//!   deterministic fixture graphs;
//! * [`io`] — SNAP-compatible edge-list reading and writing;
//! * [`GraphMetrics`] — the statistics reported in the paper's Table I.
//!
//! # Example
//!
//! ```
//! use raf_graph::{GraphBuilder, NodeId, WeightScheme};
//!
//! # fn main() -> Result<(), raf_graph::GraphError> {
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1)?;
//! b.add_edge(1, 2)?;
//! let g = b.build(WeightScheme::UniformByDegree)?;
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 2);
//! // Node 1 has two neighbors, each with familiarity weight 1/2.
//! assert_eq!(g.in_weight(NodeId::new(0), NodeId::new(1)), Some(0.5));
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// software-prefetch intrinsic in `csr.rs` (the private `prefetch` helper
// behind `CsrGraph::prefetch_node` and `CsrGraph::prefetch_slot`), which
// carries a scoped `#[allow(unsafe_code)]` with a safety comment.
// Everything else in the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod biconnected;
mod builder;
mod components;
mod csr;
mod delta;
mod error;
mod graph;
mod metrics;
mod node;
mod relabel;
mod unionfind;
mod weights;

pub mod generators;
pub mod io;

pub use biconnected::BlockCutTree;
pub use builder::GraphBuilder;
pub use components::{connected_components, ComponentLabels};
pub use csr::CsrGraph;
pub use delta::{DeltaApplied, DeltaEffect, DeltaOp, EdgeDelta};
pub use error::GraphError;
pub use graph::SocialGraph;
pub use metrics::{clustering_coefficient, DegreeHistogram, GraphMetrics};
pub use node::NodeId;
pub use relabel::Relabeling;
pub use unionfind::UnionFind;
pub use weights::WeightScheme;

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use crate::{
        CsrGraph, GraphBuilder, GraphError, GraphMetrics, NodeId, SocialGraph, WeightScheme,
    };
}
