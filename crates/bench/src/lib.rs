//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Sec. IV).
//!
//! | Paper artifact | Module | Binary |
//! |----------------|--------|--------|
//! | Table I (dataset statistics) | [`experiments::table1`] | `table1` |
//! | Fig. 3 (probability vs α, RAF/HD/SP/p_max) | [`experiments::fig3`] | `fig3` |
//! | Fig. 4 (size ratio vs probability ratio, HD) | [`experiments::fig45`] | `fig4` |
//! | Fig. 5 (size ratio vs probability ratio, SP) | [`experiments::fig45`] | `fig5` |
//! | Table II (V_max vs RAF) | [`experiments::table2`] | `table2` |
//! | Fig. 6 (probability vs realizations) | [`experiments::fig6`] | `fig6` |
//!
//! All binaries honour the same environment knobs (see
//! [`ExperimentConfig::from_env`]): `AF_SCALE`, `AF_PAIRS`,
//! `AF_EVAL_SAMPLES`, `AF_BUDGET`, `AF_SEED`, `AF_THREADS`,
//! `AF_DATASETS`. Paper-scale settings and the scaled defaults are
//! documented in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod experiments;
pub mod history;
pub mod sampling;

mod config;

pub use config::ExperimentConfig;
