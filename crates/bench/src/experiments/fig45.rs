//! Figs. 4 and 5 behind `raf experiment --ratio`: how many more
//! invitations a baseline needs to match RAF's acceptance probability.
//!
//! Protocol (Sec. IV-B/C): run RAF, then grow the baseline's invitation
//! set until `f(I_baseline) = f(I_RAF)`; along the way record the ratio
//! points `(f(I_b)/f(I_RAF), |I_b|/|I_RAF|)`; bin the x-axis into five
//! intervals and average y within each bin. Fig. 4 grows High-Degree and
//! Fig. 5 Shortest-Path.
//!
//! The form reads the sweep's [`SweepConfig`] and answers RAF through the
//! sweep's `PreparedDataset`, so its pairs, its RAF answers and its
//! evaluation pools are the sweep's: `f(I_RAF)` here is the sweep's `raf`
//! cell. The paper's panels are one cell, `--alphas 0.3 --budgets
//! 30000`. The output is a schema-versioned report with one row per
//! `(dataset, α, budget, baseline)`.

use super::sweep::{PreparedDataset, SweepConfig};
use crate::csv::{f, CsvTable};
use crate::history::JsonValue;
use raf_core::baselines::{Baseline, HighDegree, ShortestPath};
use raf_core::evaluator::grow_until_match_pooled;
use raf_core::report::RatioCurve;
use raf_datasets::Dataset;
use std::io::{self, Write};

/// Version stamped into every ratio report (CSV `schema` column, JSON
/// `schema_version` field). Bump on any column/field change.
pub const RATIO_SCHEMA_VERSION: u64 = 1;

/// The `schema` cell value of the CSV flavour.
pub const RATIO_CSV_SCHEMA: &str = "raf-ratio-v1";

/// Growth beyond `|I_RAF|` is capped at this multiple. The paper
/// observes ratios in the thousands on HepPh/HepTh and about 8e4 on
/// Youtube, but at reduced scale a smaller cap keeps runs bounded.
const CAP_MULTIPLIER: usize = 512;

/// One ratio cell: a `(dataset, α, budget, baseline)` curve over the
/// contributing pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow {
    /// The dataset.
    pub dataset: Dataset,
    /// `"real"` or `"synthetic"`.
    pub source: &'static str,
    /// Nodes of the loaded graph.
    pub nodes: usize,
    /// Edges of the loaded graph.
    pub edges: usize,
    /// The acceptance threshold α.
    pub alpha: f64,
    /// The realization budget: walks in each RAF pool.
    pub budget: u64,
    /// The grown baseline, by [`Baseline::name`].
    pub baseline: &'static str,
    /// Pairs that contributed (RAF reached the target and `f(I_RAF) > 0`).
    pub pairs: usize,
    /// Ratio points recorded across those pairs.
    pub points: usize,
    /// The five-bin curve.
    pub curve: RatioCurve,
}

/// A full ratio report.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioReport {
    /// Format version ([`RATIO_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The rows, in `(dataset, α, budget, baseline)` nesting order.
    pub rows: Vec<RatioRow>,
}

/// The CSV column of each bin: `bin_` and the bin's midpoint on the
/// probability-ratio axis.
const BIN_COLUMNS: [&str; 5] = ["bin_0.2", "bin_0.4", "bin_0.6", "bin_0.8", "bin_1.0"];

impl RatioReport {
    /// The CSV flavour: one row per cell, `schema` column first, a bin
    /// with no point left empty. Like the sweep's, it holds no timing,
    /// so it is byte-deterministic at any thread count.
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new(
            [
                "schema", "dataset", "source", "nodes", "edges", "alpha", "budget", "baseline",
                "pairs", "points",
            ]
            .into_iter()
            .chain(BIN_COLUMNS),
        );
        for r in &self.rows {
            let cells = [
                RATIO_CSV_SCHEMA.to_string(),
                r.dataset.spec().file_stem.to_string(),
                r.source.to_string(),
                r.nodes.to_string(),
                r.edges.to_string(),
                f(r.alpha),
                r.budget.to_string(),
                r.baseline.to_string(),
                r.pairs.to_string(),
                r.points.to_string(),
            ];
            let bins = r.curve.mean_size_ratio.iter().map(|m| m.map(f).unwrap_or_default());
            table.push_row(cells.into_iter().chain(bins));
        }
        table
    }

    /// The JSON flavour (parseable with [`crate::history::parse_json`]);
    /// an empty bin is `null`.
    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let bins = r
                    .curve
                    .mean_size_ratio
                    .iter()
                    .map(|m| m.map_or(JsonValue::Null, JsonValue::Num))
                    .collect();
                JsonValue::Obj(vec![
                    ("dataset".into(), JsonValue::Str(r.dataset.spec().file_stem.into())),
                    ("source".into(), JsonValue::Str(r.source.into())),
                    ("nodes".into(), JsonValue::Num(r.nodes as f64)),
                    ("edges".into(), JsonValue::Num(r.edges as f64)),
                    ("alpha".into(), JsonValue::Num(r.alpha)),
                    ("budget".into(), JsonValue::Num(r.budget as f64)),
                    ("baseline".into(), JsonValue::Str(r.baseline.into())),
                    ("pairs".into(), JsonValue::Num(r.pairs as f64)),
                    ("points".into(), JsonValue::Num(r.points as f64)),
                    ("mean_size_ratio".into(), JsonValue::Arr(bins)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("schema_version".into(), JsonValue::Num(RATIO_SCHEMA_VERSION as f64)),
            ("experiment".into(), JsonValue::Str("ratio".into())),
            ("rows".into(), JsonValue::Arr(rows)),
        ])
    }
}

/// One baseline's growth in one cell, across pairs.
#[derive(Debug, Clone, Default)]
struct Growth {
    /// Pairs grown.
    pairs: usize,
    /// Raw `(f(I_b)/f(I_RAF), |I_b|/|I_RAF|)` points.
    observations: Vec<(f64, f64)>,
}

/// Runs the ratio form for every configured dataset.
///
/// # Panics
///
/// Panics on an invalid configuration — call
/// [`SweepConfig::validate`] first to surface the problem as an error.
pub fn run(config: &SweepConfig) -> RatioReport {
    if let Err(message) = config.validate() {
        panic!("invalid ratio configuration: {message}");
    }
    let mut rows = Vec::new();
    for &dataset in &config.datasets {
        rows.extend(run_dataset(config, dataset));
    }
    RatioReport { schema_version: RATIO_SCHEMA_VERSION, rows }
}

/// Runs the ratio grid for one dataset: HD then SP per `(α, budget)`.
pub fn run_dataset(config: &SweepConfig, dataset: Dataset) -> Vec<RatioRow> {
    let prep = PreparedDataset::load(config, dataset);
    let baselines: [&dyn Baseline; 2] = [&HighDegree, &ShortestPath];
    let mut acc: Vec<[Growth; 2]> =
        vec![Default::default(); config.alphas.len() * config.budgets.len()];
    prep.for_each_run(config, |run| {
        let f_raf = run.eval_pool.coverage(&run.answer.invitations);
        if f_raf <= 0.0 {
            return;
        }
        let raf_size = run.answer.invitations.len().max(1);
        for (baseline, growth) in baselines.iter().zip(&mut acc[run.cell]) {
            let curve = grow_until_match_pooled(
                run.instance,
                *baseline,
                f_raf,
                run.eval_pool,
                raf_size * CAP_MULTIPLIER,
                raf_size.max(8),
                1.5,
            );
            growth.pairs += 1;
            growth.observations.extend(curve.points.iter().map(|point| {
                ((point.probability / f_raf).min(1.0), point.size as f64 / raf_size as f64)
            }));
        }
    });
    let cells = config.alphas.iter().flat_map(|&a| config.budgets.iter().map(move |&b| (a, b)));
    let mut rows = Vec::with_capacity(2 * acc.len());
    for ((alpha, budget), per_baseline) in cells.zip(acc) {
        for (baseline, growth) in baselines.iter().zip(per_baseline) {
            rows.push(RatioRow {
                dataset,
                source: prep.source,
                nodes: prep.csr.node_count(),
                edges: prep.csr.edge_count(),
                alpha,
                budget,
                baseline: baseline.name(),
                pairs: growth.pairs,
                points: growth.observations.len(),
                curve: RatioCurve::five_bins(&growth.observations),
            });
        }
    }
    rows
}

/// Writes the Fig. 4/5 panels for one dataset's rows to `out`.
///
/// # Errors
///
/// Returns the first write error, such as a closed pipe.
pub fn print(out: &mut impl Write, dataset: Dataset, rows: &[RatioRow]) -> io::Result<()> {
    for r in rows.iter().filter(|r| r.dataset == dataset) {
        writeln!(
            out,
            "FIG {} ({dataset}, alpha {:.2}, budget {}): |I_{b}|/|I_RAF| vs f(I_{b})/f(I_RAF)   \
             [{} pairs, {} points]",
            if r.baseline == HighDegree.name() { 4 } else { 5 },
            r.alpha,
            r.budget,
            r.pairs,
            r.points,
            b = r.baseline,
        )?;
        writeln!(out, "{:>22} {:>22}", "prob ratio (bin mid)", "avg size ratio")?;
        for (mid, mean) in r.curve.bin_midpoints.iter().zip(&r.curve.mean_size_ratio) {
            match mean {
                Some(m) => writeln!(out, "{mid:>22.1} {m:>22.2}")?,
                None => writeln!(out, "{mid:>22.1} {:>22}", "(empty)")?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_needs_more_nodes_than_raf() {
        let cfg = SweepConfig {
            datasets: vec![Dataset::HepTh],
            alphas: vec![0.3],
            budgets: vec![6_000],
            pairs: 5,
            scale: 0.01,
            eval_samples: 3_000,
            ..SweepConfig::default()
        };
        let rows = run(&cfg).rows;
        let hd = rows.iter().find(|r| r.baseline == HighDegree.name()).unwrap();
        assert!(hd.points > 0, "no observations collected");
        // In the top bin (probability ratio ≈ 1) HD needs at least as
        // many invitations as RAF — the Fig. 4 qualitative shape.
        if let Some(top) = hd.curve.mean_size_ratio[4] {
            assert!(top >= 0.9, "HD matched RAF with fewer nodes: {top}");
        }
    }
}
