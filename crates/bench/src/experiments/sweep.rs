//! The Table-I dataset sweep behind `raf experiment`: every dataset of
//! the paper's evaluation × an acceptance-threshold (α) grid × a
//! realization-budget grid, RAF against the HD/SP baselines at matched
//! invitation-set size.
//!
//! This is the sweep shape of the paper's Figs. 5–7 (and of the
//! precursor evaluation in Yang et al., *Maximizing Acceptance
//! Probability for Active Friending in On-Line Social Networks*): load
//! each network of Table I — a real SNAP file when one is present in
//! `data/`, the calibrated synthetic stand-in otherwise — screen `(s, t)`
//! pairs with `p_max ≥ 0.01`, and chart acceptance probability as the
//! threshold and budget grow. Graphs load through the hub-BFS relabeled
//! CSR layout by default (the large-graph path), with every reported id
//! and estimate in original space. For a *fixed* `(s, t)` pair the whole
//! pipeline is bit-identical across layouts (proven in
//! `tests/relabel_equivalence.rs`); the sweep's pair *screening* runs in
//! snapshot space, though, so `--no-relabel` may select different pairs
//! and therefore report different (equally valid) averages.
//!
//! The output is a schema-versioned report (CSV via [`CsvTable`], JSON
//! via [`JsonValue`]) so downstream tooling can detect format changes.

use crate::csv::{f, CsvTable};
use crate::history::JsonValue;
use raf_core::baselines::{Baseline, HighDegree, ShortestPath};
use raf_core::{CoreError, RafAlgorithm, RafConfig, RealizationBudget};
use raf_datasets::{
    load_dataset_csr, sample_pairs, Dataset, DatasetSource, PairSamplerConfig, PreparedCsr,
    RelabelMode,
};
use raf_graph::NodeId;
use raf_serve::{ServeConfig, SessionContext};
use std::path::PathBuf;
use std::time::Instant;

/// Byte budget of the per-dataset evaluation-pool cache. Eval pools are
/// small (tens of thousands of walks), so this comfortably holds every
/// screened pair's pool for the whole grid; the cap only matters as a
/// backstop on misconfigured runs.
const EVAL_CACHE_BYTES: usize = 64 << 20;

/// Version stamped into every report (CSV `schema` column, JSON
/// `schema_version` field). Bump on any column/field change.
pub const SWEEP_SCHEMA_VERSION: u64 = 1;

/// The `schema` cell value of the CSV flavour.
pub const CSV_SCHEMA: &str = "raf-experiment-v1";

/// Configuration of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Datasets to run (Table I order).
    pub datasets: Vec<Dataset>,
    /// Acceptance-threshold grid (the paper's α axis).
    pub alphas: Vec<f64>,
    /// Realization-budget grid (`RealizationBudget::Capped` values).
    pub budgets: Vec<u64>,
    /// Screened pairs per dataset.
    pub pairs: usize,
    /// Graph scale relative to Table I sizes (ignored for real files).
    pub scale: f64,
    /// Walks per shared evaluation pool.
    pub eval_samples: u64,
    /// Master seed; the whole report is deterministic per config.
    pub seed: u64,
    /// Sampling threads (speed only; the report never depends on them).
    pub threads: usize,
    /// Directory searched for real SNAP files.
    pub data_dir: PathBuf,
    /// CSR layout (hub-BFS by default).
    pub relabel: RelabelMode,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            datasets: Dataset::all().to_vec(),
            alphas: vec![0.1, 0.2, 0.3],
            budgets: vec![10_000, 30_000, 100_000],
            pairs: 20,
            scale: 0.02,
            eval_samples: 20_000,
            seed: 1,
            threads: 1,
            data_dir: PathBuf::from("data"),
            relabel: RelabelMode::HubBfs,
        }
    }
}

impl SweepConfig {
    /// The CI-sized profile: every dataset at 1% scale, a 2×2 grid, few
    /// pairs — seconds, not minutes.
    pub fn quick() -> Self {
        SweepConfig {
            alphas: vec![0.1, 0.3],
            budgets: vec![4_000, 8_000],
            pairs: 4,
            scale: 0.01,
            eval_samples: 4_000,
            ..Self::default()
        }
    }

    /// Validates the grid before a run: RAF's parameter system (eq. 17
    /// with ε = 0.01) needs `α ∈ (0.01, 1]`, and zero budgets or empty
    /// grids would make the sweep vacuous. [`run`] asserts this; CLI
    /// callers surface the message as a clean error instead.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.datasets.is_empty() {
            return Err("no datasets selected".into());
        }
        if self.alphas.is_empty() || self.budgets.is_empty() {
            return Err("empty alpha or budget grid".into());
        }
        for &alpha in &self.alphas {
            if !(alpha > 0.01 && alpha <= 1.0) {
                return Err(format!(
                    "alpha {alpha} outside (0.01, 1] (RAF solves eq. 17 with epsilon = 0.01, \
                     which requires alpha > epsilon)"
                ));
            }
        }
        for &budget in &self.budgets {
            if budget == 0 {
                return Err("budget 0 samples no realizations".into());
            }
        }
        if self.scale <= 0.0 || self.scale.is_nan() || self.pairs == 0 || self.eval_samples == 0 {
            return Err("scale, pairs, and eval-samples must be positive".into());
        }
        Ok(())
    }
}

/// One sweep cell: a `(dataset, α, budget)` triple averaged over the
/// contributing pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
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
    /// The realization budget cap.
    pub budget: u64,
    /// Pairs that contributed (RAF can fail on unreachable pairs).
    pub pairs: usize,
    /// Mean screening-phase `p_max` across contributing pairs.
    pub pmax: f64,
    /// Mean `f(I_RAF)` on the shared evaluation pool.
    pub raf: f64,
    /// Mean `f(I_HD)` at `|I_HD| = |I_RAF|`.
    pub hd: f64,
    /// Mean `f(I_SP)` at `|I_SP| = |I_RAF|`.
    pub sp: f64,
    /// Mean `|I_RAF|`.
    pub raf_size: f64,
    /// Wall-clock of the cell's RAF runs (sampling + solve), ms.
    pub wall_ms: f64,
}

/// A full sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Format version ([`SWEEP_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The rows, in `(dataset, α, budget)` nesting order.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// The CSV flavour: one row per cell, `schema` column first.
    ///
    /// Deliberately excludes wall-clock (`SweepRow::wall_ms` prints on
    /// the stdout panel instead): the report is byte-deterministic for a
    /// fixed config at any thread count, so diffs mean the *science* changed —
    /// perf trajectories belong to `BENCH_sampling.json`.
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new([
            "schema", "dataset", "source", "nodes", "edges", "alpha", "budget", "pairs", "pmax",
            "raf", "hd", "sp", "raf_size",
        ]);
        for r in &self.rows {
            table.push_row([
                CSV_SCHEMA.to_string(),
                r.dataset.spec().file_stem.to_string(),
                r.source.to_string(),
                r.nodes.to_string(),
                r.edges.to_string(),
                f(r.alpha),
                r.budget.to_string(),
                r.pairs.to_string(),
                f(r.pmax),
                f(r.raf),
                f(r.hd),
                f(r.sp),
                f(r.raf_size),
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
                    ("alpha".into(), JsonValue::Num(r.alpha)),
                    ("budget".into(), JsonValue::Num(r.budget as f64)),
                    ("pairs".into(), JsonValue::Num(r.pairs as f64)),
                    ("pmax".into(), JsonValue::Num(r.pmax)),
                    ("raf".into(), JsonValue::Num(r.raf)),
                    ("hd".into(), JsonValue::Num(r.hd)),
                    ("sp".into(), JsonValue::Num(r.sp)),
                    ("raf_size".into(), JsonValue::Num(r.raf_size)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("schema_version".into(), JsonValue::Num(SWEEP_SCHEMA_VERSION as f64)),
            ("experiment".into(), JsonValue::Str("table1_sweep".into())),
            ("rows".into(), JsonValue::Arr(rows)),
        ])
    }
}

/// Per-cell accumulator across pairs.
#[derive(Debug, Clone, Copy, Default)]
struct CellAcc {
    pairs: usize,
    pmax: f64,
    raf: f64,
    hd: f64,
    sp: f64,
    size: f64,
    wall_ns: u128,
}

/// Runs the sweep for every configured dataset.
///
/// # Panics
///
/// Panics on an invalid configuration — call
/// [`SweepConfig::validate`] first to surface the problem as an error.
pub fn run(config: &SweepConfig) -> SweepReport {
    if let Err(message) = config.validate() {
        panic!("invalid sweep configuration: {message}");
    }
    let mut rows = Vec::new();
    for &dataset in &config.datasets {
        rows.extend(run_dataset(config, dataset));
    }
    SweepReport { schema_version: SWEEP_SCHEMA_VERSION, rows }
}

/// Runs the sweep grid for one dataset.
pub fn run_dataset(config: &SweepConfig, dataset: Dataset) -> Vec<SweepRow> {
    let prep =
        load_dataset_csr(dataset, config.scale, config.seed, &config.data_dir, config.relabel)
            .expect("dataset loading cannot fail with validated configs");
    let source = match prep.source {
        DatasetSource::Real => "real",
        DatasetSource::Synthetic => "synthetic",
    };
    let pair_cfg = PairSamplerConfig {
        pairs: config.pairs,
        screen_samples: 2_000,
        seed: config.seed.wrapping_mul(31).wrapping_add(7),
        ..Default::default()
    };
    let pairs = sample_pairs(&prep.csr, &pair_cfg);
    // The evaluation pools go through the serving layer's pool cache:
    // the first grid cell that needs a pair's pool samples it (a miss),
    // and every later cell of the same pair reuses the resident pool (a
    // hit) — the same amortization `raf serve` gives repeat queries.
    let serve_cfg = ServeConfig {
        walks: config.eval_samples,
        epsilon: 0.01,
        seed: config.seed ^ 0xE7A,
        threads: config.threads,
        cache_bytes: EVAL_CACHE_BYTES,
        ..Default::default()
    };
    let mut eval_ctx = match &prep.relabeling {
        Some(r) => SessionContext::with_relabeling(&prep.csr, r.clone(), serve_cfg),
        None => SessionContext::new(&prep.csr, serve_cfg),
    };
    let (a_len, b_len) = (config.alphas.len(), config.budgets.len());
    let mut acc = vec![CellAcc::default(); a_len * b_len];
    for pair in &pairs {
        // `sample_pairs` screens in the snapshot's own (possibly
        // relabeled) space; instances take original ids.
        let (s, t) = original_pair(&prep, pair.s, pair.t);
        let Ok(instance) = prep.instance(s, t) else {
            continue;
        };
        // HD/SP depend only on (pair, size) and |I_RAF| repeats across
        // grid cells, so memoize their coverage per size instead of
        // re-sorting the whole candidate list per cell.
        let mut baseline_cache: std::collections::HashMap<usize, (f64, f64)> =
            std::collections::HashMap::new();
        for (ai, &alpha) in config.alphas.iter().enumerate() {
            for (bi, &budget) in config.budgets.iter().enumerate() {
                // One shared evaluation pool per pair (common random
                // numbers): every strategy at every grid point is scored
                // against the same walks, so differences reflect the
                // strategies, not the noise. Cached, so only the first
                // cell pays the sampling.
                let Ok(eval_pool) = eval_ctx.pool(s, t, config.eval_samples) else {
                    continue;
                };
                let raf_cfg = RafConfig {
                    alpha,
                    epsilon: 0.01,
                    confidence: 100_000.0,
                    budget: RealizationBudget::Capped(budget),
                    seed: config.seed,
                    threads: config.threads,
                    ..Default::default()
                };
                let start = Instant::now();
                let result = match RafAlgorithm::new(raf_cfg).run(&instance) {
                    Ok(r) => r,
                    Err(CoreError::TargetUnreachable { .. }) => continue,
                    Err(e) => panic!("RAF failed on {dataset}: {e}"),
                };
                let wall_ns = start.elapsed().as_nanos();
                let size = result.invitation_size();
                let (hd, sp) = *baseline_cache.entry(size).or_insert_with(|| {
                    let hd = HighDegree::new().build(&instance, size);
                    let sp = ShortestPath::new().build(&instance, size);
                    (eval_pool.coverage(&hd), eval_pool.coverage(&sp))
                });
                let cell = &mut acc[ai * b_len + bi];
                cell.pairs += 1;
                cell.pmax += pair.pmax_estimate;
                cell.raf += eval_pool.coverage(&result.invitations);
                cell.hd += hd;
                cell.sp += sp;
                cell.size += size as f64;
                cell.wall_ns += wall_ns;
            }
        }
    }
    let mut rows = Vec::with_capacity(a_len * b_len);
    for (ai, &alpha) in config.alphas.iter().enumerate() {
        for (bi, &budget) in config.budgets.iter().enumerate() {
            let cell = acc[ai * b_len + bi];
            let n = cell.pairs.max(1) as f64;
            rows.push(SweepRow {
                dataset,
                source,
                nodes: prep.csr.node_count(),
                edges: prep.csr.edge_count(),
                alpha,
                budget,
                pairs: cell.pairs,
                pmax: cell.pmax / n,
                raf: cell.raf / n,
                hd: cell.hd / n,
                sp: cell.sp / n,
                raf_size: cell.size / n,
                wall_ms: cell.wall_ns as f64 / 1e6,
            });
        }
    }
    rows
}

/// Maps a screened pair back to original ids (identity on plain layouts).
fn original_pair(prep: &PreparedCsr, s: u32, t: u32) -> (NodeId, NodeId) {
    match &prep.relabeling {
        None => (NodeId::new(s as usize), NodeId::new(t as usize)),
        Some(r) => (r.original_of(NodeId::new(s as usize)), r.original_of(NodeId::new(t as usize))),
    }
}

/// Prints the paper-style panel for one dataset's rows.
pub fn print(dataset: Dataset, rows: &[SweepRow]) {
    println!("EXPERIMENT ({dataset}): acceptance probability vs (alpha, budget)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>10}",
        "alpha", "budget", "pmax", "RAF", "HD", "SP", "|I_RAF|", "pairs", "wall_ms"
    );
    for r in rows.iter().filter(|r| r.dataset == dataset) {
        println!(
            "{:>8.2} {:>10} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.1} {:>7} {:>10.1}",
            r.alpha, r.budget, r.pmax, r.raf, r.hd, r.sp, r.raf_size, r.pairs, r.wall_ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_model::sampler::SampleRequest;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            datasets: vec![Dataset::HepTh],
            alphas: vec![0.2, 0.3],
            budgets: vec![3_000],
            pairs: 3,
            scale: 0.01,
            eval_samples: 2_000,
            seed: 1,
            threads: 1,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_produces_the_full_grid() {
        let cfg = tiny_config();
        let report = run(&cfg);
        assert_eq!(report.schema_version, SWEEP_SCHEMA_VERSION);
        assert_eq!(report.rows.len(), cfg.alphas.len() * cfg.budgets.len());
        let with_pairs: Vec<&SweepRow> = report.rows.iter().filter(|r| r.pairs > 0).collect();
        assert!(!with_pairs.is_empty(), "no usable pairs on the stand-in");
        for r in with_pairs {
            assert_eq!(r.source, "synthetic");
            assert!(r.nodes > 0 && r.edges > 0);
            // pmax upper-bounds RAF up to Monte-Carlo noise; probabilities
            // are probabilities.
            assert!((0.0..=1.0).contains(&r.raf));
            assert!(r.pmax >= r.raf - 0.05, "pmax {} vs raf {}", r.pmax, r.raf);
            assert!(r.raf_size >= 1.0, "RAF always invites at least t");
        }
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let cfg = tiny_config();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            // Everything except wall-clock must match bit for bit.
            assert_eq!(x.pairs, y.pairs);
            assert_eq!(x.pmax, y.pmax);
            assert_eq!(x.raf, y.raf);
            assert_eq!(x.hd, y.hd);
            assert_eq!(x.sp, y.sp);
            assert_eq!(x.raf_size, y.raf_size);
        }
    }

    #[test]
    fn relabeled_and_plain_layouts_agree() {
        // Per-instance layout invariance is proven in
        // tests/relabel_equivalence.rs; here, pin it end-to-end through
        // the sweep machinery by running the *same original-space pairs*
        // through both layouts via run_dataset's building blocks: load
        // both layouts, screen on the plain one, and sweep one grid cell
        // manually on each — every probability must match bit for bit.
        let cfg = tiny_config();
        let plain = load_dataset_csr(
            Dataset::HepTh,
            cfg.scale,
            cfg.seed,
            &cfg.data_dir,
            RelabelMode::Plain,
        )
        .unwrap();
        let hub = load_dataset_csr(
            Dataset::HepTh,
            cfg.scale,
            cfg.seed,
            &cfg.data_dir,
            RelabelMode::HubBfs,
        )
        .unwrap();
        assert_eq!(plain.csr.node_count(), hub.csr.node_count());
        assert_eq!(plain.csr.edge_count(), hub.csr.edge_count());
        let pair_cfg = PairSamplerConfig {
            pairs: 3,
            screen_samples: 1_000,
            seed: cfg.seed,
            ..Default::default()
        };
        let mut checked = 0;
        for pair in sample_pairs(&plain.csr, &pair_cfg) {
            let (s, t) = (NodeId::new(pair.s as usize), NodeId::new(pair.t as usize));
            let (Ok(a), Ok(b)) = (plain.instance(s, t), hub.instance(s, t)) else {
                continue;
            };
            let pool_a = SampleRequest::new(2_000).seed(9).run(&a);
            let pool_b = SampleRequest::new(2_000).seed(9).run(&b);
            assert_eq!(pool_a, pool_b, "pools diverged for pair ({s:?}, {t:?})");
            let raf_cfg = RafConfig {
                alpha: 0.2,
                budget: RealizationBudget::Capped(3_000),
                seed: 5,
                ..Default::default()
            };
            let ra = RafAlgorithm::new(raf_cfg.clone()).run(&a);
            let rb = RafAlgorithm::new(raf_cfg).run(&b);
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(ra.invitations, rb.invitations);
                    assert_eq!(pool_a.coverage(&ra.invitations), pool_b.coverage(&rb.invitations));
                    let size = ra.invitation_size();
                    let hd_a = HighDegree::new().build(&a, size);
                    assert_eq!(
                        pool_a.coverage(&hd_a),
                        pool_b.coverage(&HighDegree::new().build(&a, size))
                    );
                    checked += 1;
                }
                (Err(_), Err(_)) => {}
                other => panic!("layouts disagree on failure: {other:?}"),
            }
        }
        assert!(checked > 0, "no pair survived both layouts");
    }

    #[test]
    fn invalid_grids_are_rejected() {
        let mut cfg = tiny_config();
        cfg.alphas = vec![0.005];
        assert!(cfg.validate().unwrap_err().contains("alpha"));
        let mut cfg = tiny_config();
        cfg.budgets = vec![0];
        assert!(cfg.validate().unwrap_err().contains("budget"));
        let mut cfg = tiny_config();
        cfg.datasets.clear();
        assert!(cfg.validate().is_err());
        assert!(tiny_config().validate().is_ok());
        assert!(SweepConfig::quick().validate().is_ok());
    }

    #[test]
    fn csv_and_json_are_schema_versioned() {
        let cfg = tiny_config();
        let report = run(&cfg);
        let mut out = Vec::new();
        report.to_csv().write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("schema,dataset,source,nodes,edges,alpha,budget"));
        assert!(text.contains(CSV_SCHEMA));
        assert!(text.contains("hepth"));
        let json = report.to_json().render();
        let parsed = crate::history::parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(JsonValue::as_f64),
            Some(SWEEP_SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("experiment").and_then(JsonValue::as_str), Some("table1_sweep"));
        let JsonValue::Arr(rows) = parsed.get("rows").unwrap() else {
            panic!("rows is not an array");
        };
        assert_eq!(rows.len(), report.rows.len());
        assert!(rows[0].path_f64(&["alpha"]).is_some());
    }

    #[test]
    fn quick_profile_is_smaller_than_default() {
        let quick = SweepConfig::quick();
        let full = SweepConfig::default();
        assert!(quick.scale < full.scale);
        assert!(quick.pairs < full.pairs);
        assert_eq!(quick.datasets.len(), 4, "quick still covers all of Table I");
    }
}
