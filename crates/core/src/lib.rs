//! The RAF (Realization-based Active Friending) algorithm — the primary
//! contribution of *An Approximation Algorithm for Active Friending in
//! Online Social Networks* (ICDCS 2019) — together with its parameter
//! machinery, the polynomial `α = 1` special case, and the evaluation's
//! baseline algorithms.
//!
//! # The pipeline (Alg. 4)
//!
//! 1. [`params`] solves Equation System 1 / eq. (17) for `ε0, ε1, β` in
//!    closed form (`β = α − ε/2` whatever the ground size);
//! 2. `p*_max` is estimated with the DKLR stopping rule (Alg. 2, from
//!    `raf-model`);
//! 3. the realization budget `l*` follows from eq. (16);
//! 4. [`raf`] samples `l` backward walks, keeps the type-1 paths `B¹_l`,
//!    and [`select_invitations`] solves the Minimum Subset Cover instance
//!    `(V, {t(g_1), …}, ⌈β·|B¹_l|⌉)` with the `raf-cover` portfolio (Alg. 3);
//! 5. the resulting union is the invitation set `I*`, satisfying
//!    `f(I*) ≥ (α−ε)·p_max` and `|I*|/|I_α| = O(√n)` with probability
//!    `≥ 1 − 2/N` (Theorem 1).
//!
//! Every entry point seeds per-pair pools with `pair_seed(seed, s, t)` and
//! solves through [`select_invitations`], so `(graph, s, t, α, walks,
//! seed)` gives one invitation set on every path, `raf serve` included.
//!
//! # Also here
//!
//! * [`vmax`] — Lemma 7's `V_max`, the unique minimum invitation set
//!   achieving `p_max`, computed exactly through the block-cut tree;
//! * [`baselines`] — the High-Degree and Shortest-Path heuristics the
//!   evaluation compares against (plus a random-invitation control);
//! * [`evaluator`] — shared machinery for the paper's experiments
//!   (estimate `f(I)`, grow a baseline until it matches RAF's
//!   probability);
//! * [`report`] — [`report::RatioCurve`], the binned size-ratio curve of
//!   Figs. 4–5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod evaluator;
pub mod max_friending;
pub mod params;
pub mod raf;
pub mod report;
pub mod vmax;

mod error;

pub use error::CoreError;
pub use max_friending::{MaxFriending, MaxFriendingConfig, MaxFriendingResult};
pub use params::ParameterSet;
pub use raf::{
    select_invitations, RafAlgorithm, RafConfig, RafResult, RealizationBudget, Selection,
};
pub use vmax::{vmax_exact, vmax_loose};

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use crate::baselines::{Baseline, HighDegree, RandomInvite, ShortestPath};
    pub use crate::raf::{RafAlgorithm, RafConfig, RafResult, RealizationBudget};
    pub use crate::vmax::vmax_exact;
    pub use crate::{CoreError, ParameterSet};
}
