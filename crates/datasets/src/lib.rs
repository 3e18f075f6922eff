//! The evaluation's data layer.
//!
//! The paper evaluates on four SNAP datasets (Table I): Wiki (7K nodes /
//! 103K edges), HepTh (28K / 353K), HepPh (35K / 421K), and Youtube
//! (1.1M / 6.0M). This environment has no network access, so the crate
//! provides **synthetic stand-ins** calibrated to Table I's node/edge
//! counts (DESIGN.md §4 documents why the substitution preserves the
//! evaluation's shape), plus a loader that transparently prefers real
//! SNAP edge lists dropped into `data/`.
//!
//! * [`Dataset`] — the four-dataset registry with Table I statistics;
//! * [`synthetic`] — calibrated generators (powerlaw-cluster for the
//!   dense Wiki graph, preferential attachment for the citation networks
//!   and Youtube, with fractional attachment to hit non-integer average
//!   degrees);
//! * [`loader`] — real-data override (`data/<name>.txt`, SNAP format);
//! * [`pairs`] — the `(s, t)` pair sampler with the paper's
//!   `p_max ≥ 0.01` screening.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loader;
pub mod pairs;
pub mod synthetic;

mod registry;

pub use loader::{load_dataset, DatasetSource, LoadedDataset};
pub use pairs::{sample_campaigns, sample_pairs, PairSamplerConfig, SampledCampaign, SampledPair};
pub use registry::{Dataset, DatasetSpec};

/// Convenience prelude re-exporting the most common types.
pub mod prelude {
    pub use crate::{load_dataset, sample_pairs, Dataset, DatasetSpec, PairSamplerConfig};
}
