//! The linear-threshold friending model of the active-friending paper.
//!
//! This crate implements the probabilistic engine of Sec. II–III of *An
//! Approximation Algorithm for Active Friending in Online Social Networks*
//! (ICDCS 2019):
//!
//! * [`FriendingInstance`] — a validated `(G, s, t)` problem instance;
//! * [`InvitationSet`] — the sets `I ⊆ V` the optimization ranges over;
//! * [`process`] — the forward friending process (Process 1) with random
//!   thresholds `θ_v ~ U[0,1]`;
//! * [`realization`] — full live-edge realizations (Def. 1) and the
//!   derandomized Process 2;
//! * [`reverse`] — the lazy backward walk computing `t(g)` (Alg. 1 +
//!   Remark 3), classifying realizations as type-1/type-0;
//! * [`acceptance`] — Monte-Carlo estimators of the acceptance
//!   probability `f(I)` through both processes (they agree by Lemma 1);
//! * [`pmax`] — estimators of `p_max = f(V)`, including the
//!   Dagum–Karp–Luby–Ross optimal stopping rule of Alg. 2;
//! * [`bounds`] — the Chernoff machinery (eq. 9) and the realization
//!   budget `l*` (eq. 16);
//! * [`sampler`] — batched (optionally multi-threaded) reverse sampling
//!   into the flat arena [`sampler::PathPool`]: the realization pool
//!   `B_l` consumed by the RAF algorithm, stored CSR-style with
//!   identical paths deduplicated under multiplicities;
//! * [`intern`] — the streaming hash interner behind the pool: walks are
//!   deduplicated the moment they are sampled (open addressing over a
//!   vendored FxHash-style hasher), replacing the old sort-based
//!   assembly;
//! * [`walk_index`] — the edge→walk side index over the arena (a second
//!   CSR keyed by draw-site node), resolving which stored walks an edge
//!   delta invalidates in time proportional to the affected walks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod bounds;
pub mod intern;
pub mod pmax;
pub mod process;
pub mod realization;
pub mod reverse;
pub mod sampler;
pub mod walk_index;

mod error;
mod instance;
mod invitation;

pub use error::ModelError;
pub use instance::FriendingInstance;
pub use invitation::InvitationSet;

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use crate::acceptance::estimate_acceptance;
    pub use crate::pmax::{estimate_pmax_dklr, estimate_pmax_fixed, PmaxEstimate};
    pub use crate::reverse::{sample_target_path, sample_walk_into, TargetPath, WalkOutcome};
    pub use crate::sampler::{
        pair_seed, repair_pool, threads_from_env, PathPool, PoolRepair, SampleRequest,
    };
    pub use crate::walk_index::EdgeWalkIndex;
    pub use crate::{FriendingInstance, InvitationSet, ModelError};
}
