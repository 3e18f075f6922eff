//! The multi-target campaign sweep behind `raf experiment --targets k`:
//! per dataset, screened campaigns (one source, `k` targets) × an
//! invitation-budget grid, the joint greedy allocation against the
//! independent equal/proportional per-target budget splits.
//!
//! This is the campaign generalization's evaluation companion to the
//! Table-I sweep in [`super::sweep`]: instead of charting RAF against
//! HD/SP on single pairs, it charts what sharing one invitation budget
//! across `k` targets buys over splitting that budget up front. All
//! allocations run through the serving layer's
//! [`SessionContext::campaign`](raf_serve::SessionContext) — the same
//! per-target pools, the same `PoolCache` amortization — so a campaign's
//! first budget cell samples `k` pools and every later cell answers
//! warm.
//!
//! The output is a schema-versioned report (CSV via [`CsvTable`], JSON
//! via [`JsonValue`]) with one row per `(dataset, budget)` cell,
//! averaged over the contributing campaigns.

use crate::csv::{f, CsvTable};
use crate::history::JsonValue;
use raf_datasets::{load_dataset, sample_campaigns, Dataset, DatasetSource, PairSamplerConfig};
use raf_graph::NodeId;
use raf_serve::{CampaignQuery, ServeConfig, ServeError, SessionContext};
use std::io::{self, Write};
use std::path::PathBuf;

/// Byte budget of the per-dataset campaign-pool cache (the same backstop
/// role as the Table-I sweep's eval cache).
const CAMPAIGN_CACHE_BYTES: usize = 64 << 20;

/// Version stamped into every campaign report (CSV `schema` column,
/// JSON `schema_version` field). Bump on any column/field change.
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// The `schema` cell value of the CSV flavour.
pub const CAMPAIGN_CSV_SCHEMA: &str = "raf-campaign-v1";

/// Configuration of one campaign sweep run.
#[derive(Debug, Clone)]
pub struct CampaignSweepConfig {
    /// Datasets to run (Table I order).
    pub datasets: Vec<Dataset>,
    /// Targets per campaign (`k`).
    pub targets: usize,
    /// Shared invitation-budget grid.
    pub budgets: Vec<usize>,
    /// Screened campaigns per dataset.
    pub campaigns: usize,
    /// Graph scale relative to Table I sizes (ignored for real files).
    pub scale: f64,
    /// Walks per target pool.
    pub walks: u64,
    /// Master seed; the whole report is deterministic per config.
    pub seed: u64,
    /// Sampling threads (speed only; the report never depends on them).
    pub threads: usize,
    /// Directory searched for real SNAP files.
    pub data_dir: PathBuf,
}

impl Default for CampaignSweepConfig {
    fn default() -> Self {
        CampaignSweepConfig {
            datasets: Dataset::all().to_vec(),
            targets: 3,
            budgets: vec![4, 8, 16],
            campaigns: 8,
            scale: 0.02,
            walks: 20_000,
            seed: 1,
            threads: 1,
            data_dir: PathBuf::from("data"),
        }
    }
}

impl CampaignSweepConfig {
    /// The CI-sized profile: every dataset at 1% scale, few campaigns,
    /// a 2-point budget grid — seconds, not minutes.
    pub fn quick() -> Self {
        CampaignSweepConfig {
            budgets: vec![4, 8],
            campaigns: 3,
            scale: 0.01,
            walks: 4_000,
            ..Self::default()
        }
    }

    /// Validates the grid before a run; [`run`] asserts this, CLI
    /// callers surface the message as a clean error instead.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.datasets.is_empty() {
            return Err("no datasets selected".into());
        }
        if self.targets == 0 {
            return Err("campaigns need at least one target".into());
        }
        if self.targets > raf_serve::protocol::MAX_CAMPAIGN_TARGETS {
            return Err(format!(
                "targets {} exceeds the campaign cap {}",
                self.targets,
                raf_serve::protocol::MAX_CAMPAIGN_TARGETS
            ));
        }
        if self.budgets.is_empty() {
            return Err("empty budget grid".into());
        }
        for &budget in &self.budgets {
            if budget == 0 {
                return Err("budget 0 invites nobody".into());
            }
        }
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err("scale must lie in (0, 1]".into());
        }
        if self.campaigns == 0 || self.walks == 0 {
            return Err("campaigns and walks must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        Ok(())
    }
}

/// One campaign sweep cell: a `(dataset, budget)` pair averaged over the
/// contributing campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// The dataset.
    pub dataset: Dataset,
    /// `"real"` or `"synthetic"`.
    pub source: &'static str,
    /// Nodes of the loaded graph.
    pub nodes: usize,
    /// Edges of the loaded graph.
    pub edges: usize,
    /// Targets per campaign.
    pub targets: usize,
    /// The shared invitation budget.
    pub budget: usize,
    /// Campaigns that contributed (unreachable-target campaigns drop
    /// out whole).
    pub campaigns: usize,
    /// Mean campaign objective (the winning arm's Σ of per-target
    /// acceptance estimates).
    pub objective: f64,
    /// Mean joint-arm objective.
    pub joint: f64,
    /// Mean equal-split arm objective.
    pub equal_split: f64,
    /// Mean proportional-split arm objective.
    pub proportional_split: f64,
    /// Mean shared invitation-set size.
    pub mean_size: f64,
}

impl CampaignRow {
    /// Mean gain of the returned allocation over the better independent
    /// split — what sharing the budget buys.
    pub fn gain_over_best_split(&self) -> f64 {
        self.objective - self.equal_split.max(self.proportional_split)
    }
}

/// A full campaign sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Format version ([`CAMPAIGN_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The rows, in `(dataset, budget)` nesting order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignReport {
    /// The CSV flavour: one row per cell, `schema` column first.
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new([
            "schema",
            "dataset",
            "source",
            "nodes",
            "edges",
            "targets",
            "budget",
            "campaigns",
            "objective",
            "joint",
            "equal_split",
            "proportional_split",
            "gain",
            "mean_size",
        ]);
        for r in &self.rows {
            table.push_row([
                CAMPAIGN_CSV_SCHEMA.to_string(),
                r.dataset.spec().file_stem.to_string(),
                r.source.to_string(),
                r.nodes.to_string(),
                r.edges.to_string(),
                r.targets.to_string(),
                r.budget.to_string(),
                r.campaigns.to_string(),
                f(r.objective),
                f(r.joint),
                f(r.equal_split),
                f(r.proportional_split),
                f(r.gain_over_best_split()),
                f(r.mean_size),
            ]);
        }
        table
    }

    /// The JSON flavour (parseable with [`crate::history::parse_json`]).
    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::Obj(vec![
                    ("dataset".into(), JsonValue::Str(r.dataset.spec().file_stem.into())),
                    ("source".into(), JsonValue::Str(r.source.into())),
                    ("nodes".into(), JsonValue::Num(r.nodes as f64)),
                    ("edges".into(), JsonValue::Num(r.edges as f64)),
                    ("targets".into(), JsonValue::Num(r.targets as f64)),
                    ("budget".into(), JsonValue::Num(r.budget as f64)),
                    ("campaigns".into(), JsonValue::Num(r.campaigns as f64)),
                    ("objective".into(), JsonValue::Num(r.objective)),
                    ("joint".into(), JsonValue::Num(r.joint)),
                    ("equal_split".into(), JsonValue::Num(r.equal_split)),
                    ("proportional_split".into(), JsonValue::Num(r.proportional_split)),
                    ("gain".into(), JsonValue::Num(r.gain_over_best_split())),
                    ("mean_size".into(), JsonValue::Num(r.mean_size)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("schema_version".into(), JsonValue::Num(CAMPAIGN_SCHEMA_VERSION as f64)),
            ("experiment".into(), JsonValue::Str("campaign_sweep".into())),
            ("rows".into(), JsonValue::Arr(rows)),
        ])
    }
}

/// Per-cell accumulator across campaigns.
#[derive(Debug, Clone, Copy, Default)]
struct CellAcc {
    campaigns: usize,
    objective: f64,
    joint: f64,
    equal: f64,
    proportional: f64,
    size: f64,
}

/// Runs the campaign sweep for every configured dataset.
///
/// # Panics
///
/// Panics on an invalid configuration — call
/// [`CampaignSweepConfig::validate`] first to surface the problem as an
/// error.
pub fn run(config: &CampaignSweepConfig) -> CampaignReport {
    if let Err(message) = config.validate() {
        panic!("invalid campaign sweep configuration: {message}");
    }
    let mut rows = Vec::new();
    for &dataset in &config.datasets {
        rows.extend(run_dataset(config, dataset));
    }
    CampaignReport { schema_version: CAMPAIGN_SCHEMA_VERSION, rows }
}

/// Runs the budget grid for one dataset.
pub fn run_dataset(config: &CampaignSweepConfig, dataset: Dataset) -> Vec<CampaignRow> {
    let loaded = load_dataset(dataset, config.scale, config.seed, &config.data_dir)
        .expect("dataset loading cannot fail with validated configs");
    let csr = loaded.graph.to_csr();
    let source = match loaded.source {
        DatasetSource::Real => "real",
        DatasetSource::Synthetic => "synthetic",
    };
    let campaign_cfg = PairSamplerConfig {
        pairs: config.campaigns,
        screen_samples: 2_000,
        seed: config.seed.wrapping_mul(31).wrapping_add(7),
        ..Default::default()
    };
    let campaigns = sample_campaigns(&csr, &campaign_cfg, config.targets);
    // Per-target pools go through the serving layer's cache: a
    // campaign's first budget cell samples its k pools (misses), every
    // later cell answers warm — and a single-target query on any
    // (source, target) pair of the campaign would share the same
    // entries.
    let serve_cfg = ServeConfig {
        walks: config.walks,
        epsilon: 0.01,
        seed: config.seed ^ 0xCA4,
        threads: config.threads,
        cache_bytes: CAMPAIGN_CACHE_BYTES,
        ..Default::default()
    };
    let mut ctx = SessionContext::new(&csr, serve_cfg);
    let mut acc = vec![CellAcc::default(); config.budgets.len()];
    for campaign in &campaigns {
        let s = NodeId::new(campaign.s as usize);
        let targets: Vec<NodeId> =
            campaign.targets.iter().map(|&t| NodeId::new(t as usize)).collect();
        for (bi, &budget) in config.budgets.iter().enumerate() {
            let query = CampaignQuery { s, targets: targets.clone(), alpha: 0.5, budget };
            let answer = match ctx.campaign(&query) {
                Ok(answer) => answer,
                // A target the screen liked but whose full-size pool has
                // no type-1 walk drops the campaign from this cell; any
                // other failure is a bug at sweep scales.
                Err(ServeError::CampaignUnreachable { .. }) => continue,
                Err(e) => panic!("campaign failed on {dataset}: {e}"),
            };
            let cell = &mut acc[bi];
            cell.campaigns += 1;
            cell.objective += answer.objective;
            cell.joint += answer.arm_objectives[0];
            cell.equal += answer.arm_objectives[1];
            cell.proportional += answer.arm_objectives[2];
            cell.size += answer.invitations.len() as f64;
        }
    }
    config
        .budgets
        .iter()
        .zip(acc)
        .map(|(&budget, cell)| {
            let n = cell.campaigns.max(1) as f64;
            CampaignRow {
                dataset,
                source,
                nodes: csr.node_count(),
                edges: csr.edge_count(),
                targets: config.targets,
                budget,
                campaigns: cell.campaigns,
                objective: cell.objective / n,
                joint: cell.joint / n,
                equal_split: cell.equal / n,
                proportional_split: cell.proportional / n,
                mean_size: cell.size / n,
            }
        })
        .collect()
}

/// Writes the panel for one dataset's rows to `out`.
///
/// # Errors
///
/// Returns the first write error, such as a closed pipe.
pub fn print(out: &mut impl Write, dataset: Dataset, rows: &[CampaignRow]) -> io::Result<()> {
    writeln!(
        out,
        "CAMPAIGN ({dataset}): joint vs independent splits, shared budget across targets"
    )?;
    writeln!(
        out,
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "targets", "budget", "objective", "joint", "equal", "prop", "gain", "|I|"
    )?;
    for r in rows.iter().filter(|r| r.dataset == dataset) {
        writeln!(
            out,
            "{:>8} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.1}",
            r.targets,
            r.budget,
            r.objective,
            r.joint,
            r.equal_split,
            r.proportional_split,
            r.gain_over_best_split(),
            r.mean_size,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignSweepConfig {
        CampaignSweepConfig {
            datasets: vec![Dataset::HepTh],
            targets: 2,
            budgets: vec![3, 6],
            campaigns: 3,
            scale: 0.01,
            walks: 2_000,
            seed: 1,
            threads: 1,
            ..CampaignSweepConfig::default()
        }
    }

    #[test]
    fn campaign_sweep_produces_the_grid_and_joint_never_loses() {
        let cfg = tiny_config();
        let report = run(&cfg);
        assert_eq!(report.schema_version, CAMPAIGN_SCHEMA_VERSION);
        assert_eq!(report.rows.len(), cfg.budgets.len());
        let contributing: Vec<&CampaignRow> =
            report.rows.iter().filter(|r| r.campaigns > 0).collect();
        assert!(!contributing.is_empty(), "no usable campaigns on the stand-in");
        for r in contributing {
            assert_eq!(r.source, "synthetic");
            assert_eq!(r.targets, 2);
            assert!(r.nodes > 0 && r.edges > 0);
            assert!(r.objective > 0.0 && r.objective <= r.targets as f64);
            // The returned allocation is best-of-arms with ties to
            // joint, so per-campaign (and therefore on the mean) it
            // never trails either independent split.
            assert!(r.gain_over_best_split() >= -1e-12, "joint lost: {r:?}");
            assert!(r.mean_size >= 1.0 && r.mean_size <= r.budget as f64);
        }
    }

    #[test]
    fn campaign_sweep_is_deterministic_per_seed() {
        let cfg = tiny_config();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_campaign_grids_are_rejected() {
        let mut cfg = tiny_config();
        cfg.targets = 0;
        assert!(cfg.validate().unwrap_err().contains("target"));
        let mut cfg = tiny_config();
        cfg.targets = raf_serve::protocol::MAX_CAMPAIGN_TARGETS + 1;
        assert!(cfg.validate().unwrap_err().contains("cap"));
        let mut cfg = tiny_config();
        cfg.budgets = vec![0];
        assert!(cfg.validate().unwrap_err().contains("budget"));
        let mut cfg = tiny_config();
        cfg.datasets.clear();
        assert!(cfg.validate().is_err());
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY, 1.5] {
            let cfg = CampaignSweepConfig { scale, ..tiny_config() };
            assert_eq!(cfg.validate().unwrap_err(), "scale must lie in (0, 1]", "scale {scale}");
        }
        let cfg = CampaignSweepConfig { threads: 0, ..tiny_config() };
        assert_eq!(cfg.validate().unwrap_err(), "threads must be positive");
        assert!(tiny_config().validate().is_ok());
        assert!(CampaignSweepConfig::quick().validate().is_ok());
    }

    #[test]
    fn campaign_csv_and_json_are_schema_versioned() {
        let cfg = tiny_config();
        let report = run(&cfg);
        let mut out = Vec::new();
        report.to_csv().write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("schema,dataset,source,nodes,edges,targets,budget"));
        assert!(text.contains(CAMPAIGN_CSV_SCHEMA));
        assert!(text.contains("hepth"));
        let json = report.to_json().render();
        let parsed = crate::history::parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(JsonValue::as_f64),
            Some(CAMPAIGN_SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("experiment").and_then(JsonValue::as_str), Some("campaign_sweep"));
        let JsonValue::Arr(rows) = parsed.get("rows").unwrap() else {
            panic!("rows is not an array");
        };
        assert_eq!(rows.len(), report.rows.len());
        assert!(rows[0].path_f64(&["joint"]).is_some());
        assert!(rows[0].path_f64(&["gain"]).is_some());
    }
}
