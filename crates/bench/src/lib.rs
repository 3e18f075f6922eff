//! The experiment harness: one `raf experiment` form per question of the
//! paper's evaluation (Sec. IV), plus the `raf bench-json` count gate.
//!
//! | Paper artifact | Module | `raf experiment` flags |
//! |----------------|--------|------------------------|
//! | Table I (dataset statistics) | [`experiments::sweep`] | any sweep: the `nodes`, `edges` and `source` columns; `--scale 1` is Table I size |
//! | Fig. 3 (probability vs α, RAF/HD/SP/p_max) | [`experiments::sweep`] | `--alphas 0.05,…,0.35` at one budget |
//! | Table II (V_max vs RAF) | [`experiments::sweep`] | the `vmax` and `vmax_ratio` columns of the α = 0.1 rows |
//! | Fig. 6 (probability vs realizations) | [`experiments::sweep`] | `--alphas 0.3 --pairs 1 --budgets …` (the budget axis) |
//! | Figs. 4–5 (size ratio vs probability ratio, HD/SP) | [`experiments::fig45`] | `--ratio` |
//!
//! Every form validates its flags and writes a schema-versioned CSV
//! (JSON with `--out-json`) that is byte-identical at any `--threads`.
//! `--targets k` runs the multi-target campaign sweep
//! ([`experiments::campaign`]) instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod experiments;
pub mod history;
pub mod sampling;
