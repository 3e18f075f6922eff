//! Minimum Subset Cover / Minimum p-Union solvers.
//!
//! The RAF algorithm reduces active friending to the **Minimum Subset
//! Cover** problem (Problem 3 of the paper): given a family `U` of subsets
//! of a ground set `V` and an integer `p`, find a minimum-cardinality
//! `V* ⊆ V` such that at least `p` subsets are contained in `V*`. By
//! Remark 2 this is equivalent to **Minimum p-Union** (Problem 2): choose
//! exactly `p` subsets minimizing the size of their union.
//!
//! Instances are stored as flat CSR arenas with per-set *weights*
//! (multiplicities): the RAF pipeline hands its deduplicated
//! [`raf_model::sampler::PathPool`] to
//! [`CoverInstance::from_path_pool`], and every solver counts a chosen
//! set's weight toward `p`, which is exactly equivalent to solving the
//! paper's duplicated multiset family. Every instance rewrites its
//! elements to dense local ids over only the nodes its sets mention, so
//! solver and allocator scratch scales with the family, not with the
//! graph; answers come back in ground ids. It also carries its element →
//! sets index ([`CoverInstance::sets_containing`]), built once with it,
//! which the solvers and the allocator read instead of building their own.
//!
//! The paper invokes the Chlamtáč et al. `2√|U|`-approximation \[10\] as a
//! black box. That algorithm relies on LP-rounding machinery for the
//! densest-k-subhypergraph problem; this crate substitutes a combinatorial
//! **portfolio** (see DESIGN.md §4):
//!
//! * [`GreedyMarginal`] — repeatedly add the set with the smallest
//!   marginal union increase (what the authors' released implementation
//!   effectively runs, and the empirically dominant arm on RAF's
//!   path-structured instances);
//! * [`SmallestSets`] — take the `p` sets of smallest cardinality;
//! * [`AnchorSolver`] — for each frequently occurring element, gather the
//!   cheapest sets through it (the "dense hub" regime);
//! * [`ChlamtacPortfolio`] — best of the above;
//! * [`ExactSolver`] — brute force for verification on small instances.
//!
//! Property tests (see `tests/`) check the portfolio stays within the
//! `2√|U|` factor of the exact optimum on randomized instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocate;
mod anchor;
mod error;
mod exact;
mod greedy;
mod instance;
mod portfolio;
mod reduction;
mod smallest;
mod solution;
mod solver;

pub use allocate::{allocate_budget, Allocation, AllocationArm, BudgetTarget};
pub use anchor::AnchorSolver;
pub use error::CoverError;
pub use exact::ExactSolver;
pub use greedy::GreedyMarginal;
pub use instance::CoverInstance;
pub use portfolio::ChlamtacPortfolio;
pub use reduction::{cover_requirement, solve_msc, MscSolution};
pub use smallest::SmallestSets;
pub use solution::CoverSolution;
pub use solver::MpuSolver;

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use crate::{
        ChlamtacPortfolio, CoverError, CoverInstance, CoverSolution, ExactSolver, GreedyMarginal,
        MpuSolver,
    };
}
