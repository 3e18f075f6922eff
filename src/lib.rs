//! # active-friending
//!
//! A production-quality Rust reproduction of *An Approximation Algorithm
//! for Active Friending in Online Social Networks* (Tong, Wang, Li, Wu,
//! Du — ICDCS 2019): the **RAF** (Realization-based Active Friending)
//! algorithm, the linear-threshold friending model it runs on, the
//! Minimum-Subset-Cover machinery it reduces to, the High-Degree and
//! Shortest-Path baselines it is evaluated against, and the full
//! experiment harness regenerating every table and figure of the paper's
//! evaluation.
//!
//! ## The problem
//!
//! User `s` wants to become an online friend of a non-acquaintance `t`.
//! Under the linear-threshold friending model, a user accepts `s`'s
//! invitation once the familiarity weight of their mutual friends with
//! `s` reaches a random threshold. Given a target fraction `α`, find the
//! **minimum** set of users to invite so that the probability of
//! eventually friending `t` reaches `α · p_max` (Problem 1 of the paper).
//!
//! ## Quickstart
//!
//! ```
//! use active_friending::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small social network: two routes between s = 0 and t = 1.
//! let mut builder = GraphBuilder::new();
//! builder.add_edges(vec![
//!     (0, 2), (2, 3), (3, 1),      // route A
//!     (0, 4), (4, 5), (5, 1),      // route B
//! ])?;
//! let graph = builder.build(WeightScheme::UniformByDegree)?.to_csr();
//! let instance = FriendingInstance::new(&graph, NodeId::new(0), NodeId::new(1))?;
//!
//! // Run RAF: find a small invitation set reaching 50% of p_max.
//! let config = RafConfig::with_alpha(0.5)
//!     .seed(42)
//!     .budget(RealizationBudget::Fixed(20_000));
//! let result = RafAlgorithm::new(config).run(&instance)?;
//!
//! // The target must always be invited; the set is small.
//! assert!(result.invitations.contains(NodeId::new(1)));
//! assert!(result.invitation_size() <= 4);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`graph`] (`raf-graph`) | weighted social graphs, CSR snapshots, generators, SNAP IO |
//! | [`model`] (`raf-model`) | friending process, realizations, reverse sampling behind the `SampleRequest` builder (one seed per walk; the sampler picks its loop), estimators |
//! | [`cover`] (`raf-cover`) | Minimum p-Union / Minimum Subset Cover solvers |
//! | [`core`] (`raf-core`) | the RAF algorithm, `V_max`, baselines, evaluation helpers |
//! | [`datasets`] (`raf-datasets`) | Table I dataset stand-ins, SNAP loader, pair sampling |
//! | [`serve`] (`raf-serve`) | amortized query serving: resident graph + LRU pool cache |
//!
//! The paper's evaluation (Tables I–II and Figs. 3–6) runs through one
//! driver, `raf experiment`; README's *Datasets & experiments* gives the
//! command for each artifact, and its *Paper errata* the three places
//! where the code departs from the printed paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use raf_core as core;
pub use raf_cover as cover;
pub use raf_datasets as datasets;
pub use raf_graph as graph;
pub use raf_model as model;
pub use raf_serve as serve;

/// One-stop prelude for applications: graph building, instances, RAF, the
/// baselines, and the estimators.
pub mod prelude {
    pub use raf_core::baselines::{Baseline, HighDegree, RandomInvite, ShortestPath};
    pub use raf_core::evaluator::evaluate;
    pub use raf_core::{
        vmax_exact, CoreError, ParameterSet, RafAlgorithm, RafConfig, RafResult, RealizationBudget,
    };
    pub use raf_cover::{ChlamtacPortfolio, CoverInstance, GreedyMarginal, MpuSolver};
    pub use raf_datasets::{load_dataset, sample_pairs, Dataset, PairSamplerConfig};
    pub use raf_graph::{
        CsrGraph, GraphBuilder, GraphError, GraphMetrics, NodeId, SocialGraph, WeightScheme,
    };
    pub use raf_model::acceptance::estimate_acceptance;
    pub use raf_model::pmax::{estimate_pmax_dklr, estimate_pmax_fixed};
    pub use raf_model::sampler::{threads_from_env, SampleRequest};
    pub use raf_model::{FriendingInstance, InvitationSet, ModelError};
    pub use raf_serve::{
        one_shot, AdmissionPolicy, CampaignAnswer, CampaignQuery, DeadlinePolicy, FaultPlan, Query,
        QueryAnswer, ServeConfig, ServeError, SessionContext, ShedReason,
    };
}
