//! The three `raf experiment` forms. Each exposes a `run` returning a
//! schema-versioned report and a `print` emitting the paper-style panel.
//!
//! - [`sweep`]: RAF against HD and SP at matched size over an
//!   α × realization-budget grid per dataset (Table I, Table II, Fig. 3
//!   and Fig. 6).
//! - [`fig45`] (`--ratio`): how far HD and SP must grow to match RAF
//!   (Figs. 4–5), on the sweep's pairs and evaluation pools.
//! - [`campaign`] (`--targets k`): one invitation budget shared across
//!   `k` targets.

pub mod campaign;
pub mod fig45;
pub mod sweep;
