//! Random and deterministic graph generators.
//!
//! These serve two purposes in the reproduction:
//!
//! 1. **Dataset stand-ins** — the paper evaluates on four SNAP datasets
//!    that cannot be downloaded in this environment; `raf-datasets`
//!    calibrates the generators here to Table I's node/edge counts (see
//!    DESIGN.md §4).
//! 2. **Test fixtures** — deterministic gadgets (paths, stars, the
//!    parallel-paths graph behind the paper's Fig. 1/2 and the Fig. 4
//!    "breakpoint" discussion) with analytically known friending
//!    probabilities.

mod barabasi_albert;
mod erdos_renyi;
mod fixtures;
mod powerlaw_cluster;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use fixtures::{
    complete_graph, cycle_graph, grid_graph, parallel_paths, path_graph, star_graph,
};
pub use powerlaw_cluster::powerlaw_cluster;
