//! The Table-I dataset sweep behind `raf experiment`: every dataset of
//! the paper's evaluation × an acceptance-threshold (α) grid × a
//! realization-budget grid, RAF against the HD/SP baselines at matched
//! invitation-set size.
//!
//! One sweep answers four of the paper's artifacts (Sec. IV): Table I is
//! its `nodes`, `edges` and `source` columns, Fig. 3 is one budget column
//! over the paper's α grid, Table II is the `vmax` and `vmax_ratio`
//! columns of the α = 0.1 rows, and Fig. 6 is the budget axis of one
//! pair. Per dataset it loads the network of Table I (a real SNAP file
//! when one is present in `data/`, the calibrated synthetic stand-in
//! otherwise), screens `(s, t)` pairs with `p_max ≥ 0.01`, and charts
//! acceptance probability as the threshold and budget grow. Graphs load
//! into the plain CSR layout, the one layout every `raf` command serves,
//! so screened pairs, reported ids and `raf serve` queries all share the
//! file's node ids. `PreparedDataset` does the loading, screening and
//! RAF answers for this sweep and for the Figs. 4–5 ratio form
//! ([`super::fig45`]). Every RAF answer is a `raf serve` query: a cell
//! at budget `b` answers what `raf run --budget b` answers.
//!
//! The output is a schema-versioned report (CSV via [`CsvTable`], JSON
//! via [`JsonValue`]) so downstream tooling can detect format changes.

use crate::csv::{f, CsvTable};
use crate::history::JsonValue;
use raf_core::baselines::{Baseline, HighDegree, ShortestPath};
use raf_core::vmax_exact;
use raf_datasets::{
    load_dataset, sample_pairs, Dataset, DatasetSource, PairSamplerConfig, SampledPair,
};
use raf_graph::{CsrGraph, NodeId};
use raf_model::sampler::PathPool;
use raf_model::FriendingInstance;
use raf_serve::{Query, QueryAnswer, ServeConfig, ServeError, SessionContext};
use std::collections::HashMap;
use std::path::PathBuf;

/// Byte budget of each per-dataset pool cache, the evaluation pools' and
/// RAF's. A pair's pools are small (tens of thousands of walks), and the
/// grid is walked pair by pair, so this comfortably holds every pool a
/// pair still needs; the cap only matters as a backstop on misconfigured
/// runs.
const CACHE_BYTES: usize = 64 << 20;

/// Version stamped into every report (CSV `schema` column, JSON
/// `schema_version` field). Bump on any column/field change.
pub const SWEEP_SCHEMA_VERSION: u64 = 2;

/// The `schema` cell value of the CSV flavour.
pub const CSV_SCHEMA: &str = "raf-experiment-v2";

/// Configuration of one sweep run. The defaults keep a run
/// laptop-tractable; the paper's settings are noted per field.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Datasets to run (Table I order).
    pub datasets: Vec<Dataset>,
    /// Acceptance-threshold grid (the paper's α axis).
    pub alphas: Vec<f64>,
    /// Realization-budget grid: a cell at budget `b` samples exactly `b`
    /// walks, as `raf run --budget b` does (the paper's Fig. 6 runs up to
    /// 550,000).
    pub budgets: Vec<u64>,
    /// Screened pairs per dataset (the paper uses 500).
    pub pairs: usize,
    /// Graph scale relative to Table I sizes (ignored for real files;
    /// the paper's is 1).
    pub scale: f64,
    /// Walks per shared evaluation pool.
    pub eval_samples: u64,
    /// Master seed; the whole report is deterministic per config.
    pub seed: u64,
    /// Sampling threads (speed only; the report never depends on them).
    pub threads: usize,
    /// Directory searched for real SNAP files.
    pub data_dir: PathBuf,
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
    /// with ε = 0.01) needs `α ∈ (0.01, 1]`, zero budgets or empty grids
    /// would make the sweep vacuous, a scale above 1 (Table I size)
    /// asks for a stand-in larger than its dataset, and zero threads
    /// sample nothing. [`run`] asserts this; CLI callers surface the
    /// message as a clean error instead.
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
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err("scale must lie in (0, 1]".into());
        }
        if self.pairs == 0 || self.eval_samples == 0 {
            return Err("pairs and eval-samples must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
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
    /// The realization budget: walks in each RAF pool.
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
    /// Mean `|V_max|` (Table II's "Avg. |V_max|").
    pub vmax: f64,
    /// Mean per-pair `|V_max| / |I_RAF|` (Table II's "Avg. ratio").
    pub vmax_ratio: f64,
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
    /// It holds no wall-clock: the report is byte-deterministic for a
    /// fixed config at any thread count, so diffs mean the *science*
    /// changed — perf trajectories belong to `BENCH_sampling.json`.
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new([
            "schema",
            "dataset",
            "source",
            "nodes",
            "edges",
            "alpha",
            "budget",
            "pairs",
            "pmax",
            "raf",
            "hd",
            "sp",
            "raf_size",
            "vmax",
            "vmax_ratio",
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
                f(r.vmax),
                f(r.vmax_ratio),
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
                    ("vmax".into(), JsonValue::Num(r.vmax)),
                    ("vmax_ratio".into(), JsonValue::Num(r.vmax_ratio)),
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

/// A dataset loaded and screened for the sweep and the ratio form.
pub(crate) struct PreparedDataset {
    /// Which dataset.
    pub dataset: Dataset,
    /// `"real"` or `"synthetic"`.
    pub source: &'static str,
    /// The graph snapshot, in the plain layout.
    pub csr: CsrGraph,
    /// Screened `(s, t)` pairs with `p_max ≥ 0.01`, in draw order.
    pub pairs: Vec<SampledPair>,
}

/// One RAF answer of the grid: a screened pair at one `(α, budget)` cell.
pub(crate) struct GridRun<'a> {
    /// The cell's index, `alpha_index * budgets + budget_index`.
    pub cell: usize,
    /// The screened pair.
    pub pair: &'a SampledPair,
    /// The pair's instance on the prepared graph.
    pub instance: &'a FriendingInstance<'a>,
    /// The pair's shared evaluation pool.
    pub eval_pool: &'a PathPool,
    /// RAF's answer at the cell's α and budget.
    pub answer: QueryAnswer,
}

impl PreparedDataset {
    /// Loads `dataset` at the configured scale and screens
    /// `config.pairs` pairs per the paper's protocol. The pair sampler
    /// draws in sequence, so a smaller `pairs` gives a prefix of a
    /// larger screen.
    ///
    /// # Panics
    ///
    /// When the dataset cannot be loaded: a real file that does not
    /// parse, since stand-ins never fail on a validated config.
    pub(crate) fn load(config: &SweepConfig, dataset: Dataset) -> Self {
        let loaded = load_dataset(dataset, config.scale, config.seed, &config.data_dir)
            .expect("dataset loading cannot fail with validated configs");
        let csr = loaded.graph.to_csr();
        let source = match loaded.source {
            DatasetSource::Real => "real",
            DatasetSource::Synthetic => "synthetic",
        };
        let pair_cfg = PairSamplerConfig {
            pairs: config.pairs,
            screen_samples: 2_000,
            seed: config.seed.wrapping_mul(31).wrapping_add(7),
            ..Default::default()
        };
        let pairs = sample_pairs(&csr, &pair_cfg);
        PreparedDataset { dataset, source, csr, pairs }
    }

    /// Answers RAF on every screened pair at every `(α, budget)` cell and
    /// hands each answer to `visit`, pair by pair. Pairs RAF cannot reach
    /// are skipped.
    ///
    /// Two serving sessions share the work. RAF's answers are queries on
    /// a session with the sweep's master seed, walk ceiling the largest
    /// grid budget and `ε = 0.01`, so a pair's pool is sampled once per
    /// budget and every further α answers from the cache, exactly as
    /// `raf serve` answers repeat queries. Every answer of a pair is
    /// scored on one evaluation pool from the other session (common
    /// random numbers), so differences between strategies and cells
    /// reflect the strategies, not the noise.
    pub(crate) fn for_each_run(&self, config: &SweepConfig, mut visit: impl FnMut(GridRun<'_>)) {
        let session = |walks, seed| ServeConfig {
            walks,
            epsilon: 0.01,
            seed,
            threads: config.threads,
            cache_bytes: CACHE_BYTES,
            ..Default::default()
        };
        let ceiling = config.budgets.iter().copied().max().unwrap_or(1);
        let mut raf_ctx = SessionContext::new(&self.csr, session(ceiling, config.seed));
        let mut eval_ctx =
            SessionContext::new(&self.csr, session(config.eval_samples, config.seed ^ 0xE7A));
        let b_len = config.budgets.len();
        for pair in &self.pairs {
            let (s, t) = (NodeId::new(pair.s as usize), NodeId::new(pair.t as usize));
            let Ok(instance) = FriendingInstance::new(&self.csr, s, t) else {
                continue;
            };
            for (ai, &alpha) in config.alphas.iter().enumerate() {
                for (bi, &budget) in config.budgets.iter().enumerate() {
                    let Ok(eval_pool) = eval_ctx.pool(s, t, config.eval_samples) else {
                        continue;
                    };
                    let answer = match raf_ctx.query(&Query { s, t, alpha, budget }) {
                        Ok(answer) => answer,
                        Err(ServeError::TargetUnreachable { .. }) => continue,
                        Err(e) => panic!("RAF failed on {}: {e}", self.dataset),
                    };
                    visit(GridRun {
                        cell: ai * b_len + bi,
                        pair,
                        instance: &instance,
                        eval_pool: &eval_pool,
                        answer,
                    });
                }
            }
        }
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
    vmax: f64,
    vmax_ratio: f64,
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
    let prep = PreparedDataset::load(config, dataset);
    let mut acc = vec![CellAcc::default(); config.alphas.len() * config.budgets.len()];
    // HD/SP depend only on (pair, size) and |I_RAF| repeats across grid
    // cells, so memoize their coverage per size instead of re-sorting
    // the whole candidate list per cell; |V_max| (Table II) depends on
    // the pair alone.
    let mut baselines: HashMap<(u32, u32, usize), (f64, f64)> = HashMap::new();
    let mut vmax_sizes: HashMap<(u32, u32), f64> = HashMap::new();
    prep.for_each_run(config, |run| {
        let size = run.answer.invitations.len();
        let (hd, sp) = *baselines.entry((run.pair.s, run.pair.t, size)).or_insert_with(|| {
            let hd = HighDegree::new().build(run.instance, size);
            let sp = ShortestPath::new().build(run.instance, size);
            (run.eval_pool.coverage(&hd), run.eval_pool.coverage(&sp))
        });
        let vmax = *vmax_sizes
            .entry((run.pair.s, run.pair.t))
            .or_insert_with(|| vmax_exact(run.instance).len() as f64);
        let cell = &mut acc[run.cell];
        cell.pairs += 1;
        cell.pmax += run.pair.pmax_estimate;
        cell.raf += run.eval_pool.coverage(&run.answer.invitations);
        cell.hd += hd;
        cell.sp += sp;
        cell.size += size as f64;
        cell.vmax += vmax;
        cell.vmax_ratio += vmax / size as f64;
    });
    let cells = config.alphas.iter().flat_map(|&a| config.budgets.iter().map(move |&b| (a, b)));
    cells
        .zip(acc)
        .map(|((alpha, budget), cell)| {
            let n = cell.pairs.max(1) as f64;
            SweepRow {
                dataset,
                source: prep.source,
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
                vmax: cell.vmax / n,
                vmax_ratio: cell.vmax_ratio / n,
            }
        })
        .collect()
}

/// Prints the paper-style panel for one dataset's rows; the header names
/// the graph's size and Table I's `m/n`.
pub fn print(dataset: Dataset, rows: &[SweepRow]) {
    let rows: Vec<&SweepRow> = rows.iter().filter(|r| r.dataset == dataset).collect();
    let Some(first) = rows.first() else {
        return;
    };
    println!(
        "EXPERIMENT ({dataset}, {}): {} nodes, {} edges, m/n {:.2}; acceptance probability vs \
         (alpha, budget)",
        first.source,
        first.nodes,
        first.edges,
        first.edges as f64 / first.nodes as f64,
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "alpha", "budget", "pmax", "RAF", "HD", "SP", "|I_RAF|", "|V_max|", "ratio", "pairs"
    );
    for r in rows {
        println!(
            "{:>8.2} {:>10} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.1} {:>10.2} {:>10.2} {:>7}",
            r.alpha, r.budget, r.pmax, r.raf, r.hd, r.sp, r.raf_size, r.vmax, r.vmax_ratio, r.pairs
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
            // A row holds no timing, so every field matches bit for bit.
            assert_eq!(x, y);
        }
    }

    #[test]
    fn sweep_cells_answer_what_serve_answers() {
        // The sweep answers from one session whose walk ceiling is the
        // largest budget and whose pools every α shares, yet each cell
        // must answer what `raf run --budget b` answers: a cold one-shot
        // query at `walks = b` and the sweep's master seed.
        let cfg = SweepConfig { budgets: vec![1_500, 3_000], ..tiny_config() };
        let prep = PreparedDataset::load(&cfg, cfg.datasets[0]);
        let mut checked = 0;
        prep.for_each_run(&cfg, |run| {
            let alpha = cfg.alphas[run.cell / cfg.budgets.len()];
            let budget = cfg.budgets[run.cell % cfg.budgets.len()];
            let (s, t) = (NodeId::new(run.pair.s as usize), NodeId::new(run.pair.t as usize));
            let serve = ServeConfig { walks: budget, seed: cfg.seed, ..Default::default() };
            let cold = raf_serve::one_shot(&prep.csr, serve, &Query { s, t, alpha, budget })
                .expect("a pair the sweep answers serves cold");
            let label = format!("pair ({s:?}, {t:?}) alpha {alpha} budget {budget}");
            assert_eq!(run.answer.invitations, cold.invitations, "{label}");
            assert_eq!(run.answer.cover_p, cold.cover_p, "{label}");
            assert_eq!(run.answer.covered, cold.covered, "{label}");
            checked += 1;
        });
        assert!(checked >= cfg.alphas.len() * cfg.budgets.len(), "only {checked} cells answered");
    }

    #[test]
    fn relabeled_and_plain_layouts_agree() {
        // Per-instance layout invariance is proven in
        // tests/relabel_equivalence.rs; here, pin it end-to-end through
        // the sweep's building blocks on the serving benchmark's hub-BFS
        // layout: load the dataset, screen on the plain CSR, and sweep
        // one grid cell manually on each layout — every probability must
        // match bit for bit.
        use raf_core::{RafAlgorithm, RafConfig, RealizationBudget};
        use raf_graph::Relabeling;
        use std::sync::Arc;
        let cfg = tiny_config();
        let graph = load_dataset(Dataset::HepTh, cfg.scale, cfg.seed, &cfg.data_dir).unwrap().graph;
        let plain = graph.to_csr();
        let relabeling = Arc::new(Relabeling::hub_bfs(&graph));
        let hub = graph.to_csr_relabeled(&relabeling);
        assert_eq!(plain.node_count(), hub.node_count());
        assert_eq!(plain.edge_count(), hub.edge_count());
        let pair_cfg = PairSamplerConfig {
            pairs: 3,
            screen_samples: 1_000,
            seed: cfg.seed,
            ..Default::default()
        };
        let mut checked = 0;
        for pair in sample_pairs(&plain, &pair_cfg) {
            let (s, t) = (NodeId::new(pair.s as usize), NodeId::new(pair.t as usize));
            let (Ok(a), Ok(b)) = (
                FriendingInstance::new(&plain, s, t),
                FriendingInstance::relabeled(&hub, s, t, Arc::clone(&relabeling)),
            ) else {
                continue;
            };
            let pool_a = SampleRequest::new(2_000).seed(9).run(&a);
            let pool_b = SampleRequest::new(2_000).seed(9).run(&b);
            assert_eq!(pool_a, pool_b, "pools diverged for pair ({s:?}, {t:?})");
            let raf_cfg = RafConfig {
                alpha: 0.2,
                budget: RealizationBudget::Fixed(3_000),
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
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY, 1.5] {
            let cfg = SweepConfig { scale, ..tiny_config() };
            assert_eq!(cfg.validate().unwrap_err(), "scale must lie in (0, 1]", "scale {scale}");
        }
        let cfg = SweepConfig { threads: 0, ..tiny_config() };
        assert_eq!(cfg.validate().unwrap_err(), "threads must be positive");
        assert!(tiny_config().validate().is_ok());
        assert!(SweepConfig::quick().validate().is_ok());
    }

    #[test]
    fn raf_tracks_or_beats_baselines_on_average() {
        // One Fig. 3 row: HepTh at α = 0.2. The paper's claims at matched
        // size, up to Monte-Carlo noise: RAF ≥ HD, and p_max bounds RAF.
        let cfg = SweepConfig {
            datasets: vec![Dataset::HepTh],
            alphas: vec![0.2],
            budgets: vec![8_000],
            pairs: 6,
            scale: 0.01,
            eval_samples: 4_000,
            ..SweepConfig::default()
        };
        let rows = run(&cfg).rows;
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.pairs > 0, "no usable pairs");
        assert!(r.raf >= r.hd - 0.02, "RAF {} vs HD {}", r.raf, r.hd);
        assert!(r.pmax >= r.raf - 0.02, "pmax {} vs RAF {}", r.pmax, r.raf);
    }

    #[test]
    fn csv_and_json_are_schema_versioned() {
        let cfg = tiny_config();
        let report = run(&cfg);
        let mut out = Vec::new();
        report.to_csv().write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with(
            "schema,dataset,source,nodes,edges,alpha,budget,pairs,pmax,raf,hd,sp,raf_size,vmax,\
             vmax_ratio\n"
        ));
        assert_eq!(CSV_SCHEMA, "raf-experiment-v2");
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
        assert!(rows[0].path_f64(&["vmax_ratio"]).is_some());
    }

    #[test]
    fn prepares_pairs() {
        let cfg = SweepConfig { pairs: 3, scale: 0.01, ..SweepConfig::default() };
        let prep = PreparedDataset::load(&cfg, Dataset::Wiki);
        assert!(!prep.pairs.is_empty());
        assert!(prep.csr.node_count() > 0);
    }

    #[test]
    fn regenerates_all_rows_with_calibrated_density() {
        // Table I: every stand-in's m/n tracks the paper's average degree.
        let cfg = SweepConfig { pairs: 1, scale: 0.01, ..SweepConfig::default() };
        for dataset in Dataset::all() {
            let prep = PreparedDataset::load(&cfg, dataset);
            let spec = dataset.spec();
            let avg_degree = prep.csr.edge_count() as f64 / prep.csr.node_count() as f64;
            let rel = (avg_degree - spec.avg_degree).abs() / spec.avg_degree;
            assert!(rel < 0.15, "{dataset}: avg degree {avg_degree} vs paper {}", spec.avg_degree);
        }
    }

    #[test]
    fn vmax_dominates_raf_size() {
        // Table II's qualitative content: V_max is meaningfully larger
        // than the RAF solution at α = 0.1.
        let cfg = SweepConfig {
            datasets: vec![Dataset::Wiki],
            alphas: vec![0.1],
            budgets: vec![6_000],
            pairs: 5,
            scale: 0.01,
            eval_samples: 2_000,
            ..SweepConfig::default()
        };
        let rows = run(&cfg).rows;
        let r = &rows[0];
        assert!(r.pairs > 0);
        assert!(r.vmax >= r.raf_size, "Vmax {} smaller than RAF {}", r.vmax, r.raf_size);
        assert!(r.vmax_ratio >= 1.0);
    }

    #[test]
    fn probability_saturates_with_more_realizations() {
        // Fig. 6 on one pair: the budget axis at α = 0.3. The last point
        // is at least as good as the first, within Monte-Carlo noise.
        let cfg = SweepConfig {
            datasets: vec![Dataset::Wiki],
            alphas: vec![0.3],
            budgets: vec![200, 400, 1_000, 2_000, 4_000, 8_000, 14_000, 20_000],
            pairs: 1,
            scale: 0.01,
            eval_samples: 4_000,
            ..SweepConfig::default()
        };
        let rows = run(&cfg).rows;
        assert_eq!(rows.len(), cfg.budgets.len());
        assert_eq!(rows.last().unwrap().pairs, 1, "RAF failed at the largest budget");
        let first = rows.first().unwrap().raf;
        let last = rows.last().unwrap().raf;
        assert!(last >= first - 0.02, "no saturation: first {first} last {last}");
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
