//! Amortized query serving for active friending.
//!
//! Everything below `raf-serve` in the stack is one-shot: load a graph,
//! sample a realization pool, solve the cover, exit. The paper's setting
//! is a *service*, though — many `(source, target, α, budget)` friending
//! queries against one social-graph snapshot — and the expensive phase
//! (sampling the backward-walk pool `B_l`) depends only on the pair and
//! the walk count, **not** on `α` or on how the budget clamps. This crate
//! supplies the amortization layer:
//!
//! * [`SessionContext`] holds a (possibly relabeled)
//!   [`CsrGraph`](raf_graph::CsrGraph) resident and answers [`Query`]s one
//!   at a time, in request order;
//! * [`PoolCache`] keeps sampled [`PathPool`](raf_model::sampler::PathPool)s
//!   — plus the [`CoverInstance`](raf_cover::CoverInstance) built from
//!   each, which is equally `α`-independent — behind an LRU with a
//!   byte-size budget, with hit/miss/eviction counters;
//! * [`protocol`] is the line-oriented request/response format behind
//!   `raf serve`, which reads a request file or stdin through one loop
//!   (no network).
//!
//! On top of the happy path sits a robustness layer: per-query
//! [`DeadlinePolicy`] work budgets that *degrade* answers (partial pool,
//! `degraded` marker) instead of failing them, an [`AdmissionPolicy`]
//! per-query walk cap that sheds oversized queries with a retry hint
//! ([`ServeError::Overloaded`]), panic isolation that contains any
//! query-pipeline panic to an [`ServeError::Internal`] response, cache
//! integrity fingerprints that evict corrupt entries transparently, and
//! a deterministic [`FaultPlan`] harness (`raf serve --fault-plan`) that
//! drives every one of those failure paths reproducibly in tests. With
//! an empty plan and default policies, all of it is invisible: output is
//! bit-identical to a context without the machinery.
//!
//! A query whose `(source, target, effective walk count)` key is cached
//! re-solves only the `α`-dependent cover phase on the resident
//! instance; a true key miss resamples. Answers are a pure function of
//! `(graph, config, query)` — the cache is memoization, never
//! approximation — so a cache-hit answer is bit-identical to a cold
//! [`one_shot`] run with the same seed (property-tested in
//! `tests/serving_equivalence.rs` at the workspace root).
//!
//! ```
//! use raf_graph::{GraphBuilder, NodeId, WeightScheme};
//! use raf_serve::{Query, ServeConfig, SessionContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)])?;
//! let csr = b.build(WeightScheme::UniformByDegree)?.to_csr();
//! let mut ctx = SessionContext::new(&csr, ServeConfig::default());
//! let q = Query { s: NodeId::new(0), t: NodeId::new(1), alpha: 0.5, budget: 20_000 };
//! let cold = ctx.query(&q)?;
//! assert!(!cold.cache_hit);
//! // Same pair, different alpha: the pool is reused, only the cover
//! // phase re-runs.
//! let warm = ctx.query(&Query { alpha: 0.3, ..q })?;
//! assert!(warm.cache_hit);
//! assert_eq!(ctx.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod campaign;
mod context;
mod deadline;
mod fault;
pub mod protocol;

pub use cache::{CacheStats, CachedPool, PoolCache, PoolKey};
pub use campaign::{CampaignAnswer, CampaignQuery, CampaignTargetAnswer};
pub use context::{
    one_shot, DeltaOutcome, Query, QueryAnswer, QueryRejection, ServeConfig, ServeError,
    SessionContext, SessionStats,
};
pub use deadline::{AdmissionPolicy, DeadlinePolicy, ShedReason};
pub use fault::{FaultKind, FaultPlan, FaultSite};
