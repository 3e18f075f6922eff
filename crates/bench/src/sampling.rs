//! The Alg. 3 pipeline, sample `B_l` then solve Minimum Subset Cover,
//! timed over the scenario matrix.
//!
//! The engine of the `raf bench-json` subcommand. One run samples a
//! screened pair's pool through
//! [`SampleRequest`] into the flat [`PathPool`] arena, then solves the
//! cover over its type-1 paths with [`CoverInstance::from_path_pool`]
//! and the portfolio solver.
//!
//! A report carries two kinds of numbers. The graph, pool and cost
//! counts are pure functions of the cell: walk `i` draws from
//! `walk_rng(seed, i)`, so the thread count does not change them, and
//! `raf bench-json --check-regression` pins them exactly
//! ([`crate::history::gate_counts`]). The best-of-reps timings are
//! advisory. Every cell runs the plain CSR layout, the one layout every
//! `raf` command serves.

use raf_cover::{ChlamtacPortfolio, CoverInstance, CoverSolution, MpuSolver};
use raf_datasets::synthetic::{generate_topology, Topology};
use raf_datasets::Dataset;
use raf_graph::{generators, CsrGraph, NodeId, WeightScheme};
use raf_model::sampler::{PathPool, SampleRequest};
use raf_model::FriendingInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The graph family of a scenario cell: a generated structural topology
/// (the original matrix axis) or a Table-I dataset stand-in (real SNAP
/// file when one is present in `data/`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A generated topology family.
    Synthetic(Topology),
    /// A Table-I dataset, scaled to the cell's node count.
    Dataset(Dataset),
}

impl Workload {
    /// The snake_case family component of the scenario name (and the
    /// `graph.kind` field of the history entry).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Workload::Synthetic(t) => t.name(),
            Workload::Dataset(d) => d.spec().file_stem,
        }
    }
}

/// One cell of the benchmark scenario matrix: a workload family at a
/// node scale, sampled with a thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Graph family.
    pub workload: Workload,
    /// Requested node count.
    pub nodes: usize,
    /// Sampler threads.
    pub threads: usize,
}

impl Scenario {
    /// The canonical scenario name, e.g. `powerlaw_cluster_10k_t1`,
    /// `dataset_wiki_7k_t1` or `dataset_youtube_1m_t4`: the key the bench
    /// history and the CI regression gate group by.
    pub fn name(&self) -> String {
        let scale = if self.nodes.is_multiple_of(1_000_000) {
            format!("{}m", self.nodes / 1_000_000)
        } else if self.nodes.is_multiple_of(1_000) {
            format!("{}k", self.nodes / 1_000)
        } else {
            self.nodes.to_string()
        };
        match self.workload {
            Workload::Synthetic(t) => format!("{}_{}_t{}", t.name(), scale, self.threads),
            Workload::Dataset(d) => {
                format!("dataset_{}_{}_t{}", d.spec().file_stem, scale, self.threads)
            }
        }
    }
}

/// The full scenario matrix: every topology family × {10k, 50k} nodes ×
/// {1, 4} sampler threads, plus the `dataset` lineage — the Table-I
/// stand-ins {wiki, hepth, hepph} at full Table-I scale × {1, 4} threads,
/// a 20%-scaled Youtube cell (220k nodes — per-node metadata overflows
/// L2, the serving benchmark's size), and the 1M-node
/// `dataset_youtube_1m_t4` cell (metadata far exceeds L3).
pub fn scenario_matrix() -> Vec<Scenario> {
    let mut matrix = Vec::new();
    for topology in Topology::ALL {
        for nodes in [10_000usize, 50_000] {
            for threads in [1usize, 4] {
                matrix.push(Scenario { workload: Workload::Synthetic(topology), nodes, threads });
            }
        }
    }
    for dataset in [Dataset::Wiki, Dataset::HepTh, Dataset::HepPh] {
        for threads in [1usize, 4] {
            matrix.push(Scenario {
                workload: Workload::Dataset(dataset),
                nodes: dataset.spec().nodes,
                threads,
            });
        }
    }
    for nodes in [220_000usize, 1_000_000] {
        matrix.push(Scenario { workload: Workload::Dataset(Dataset::Youtube), nodes, threads: 4 });
    }
    matrix
}

/// The quick (CI-sized) matrix: the 10k-node synthetic slice plus the
/// dataset cells (the lineages the CI gate watches) — **except** the
/// 1M-node cell, whose graph belongs in the weekly full-matrix job, not
/// the per-push gate.
pub fn quick_matrix() -> Vec<Scenario> {
    scenario_matrix()
        .into_iter()
        .filter(|s| match s.workload {
            Workload::Synthetic(_) => s.nodes == 10_000,
            Workload::Dataset(_) => s.nodes < 1_000_000,
        })
        .collect()
}

/// Finds a scenario in the full matrix by [`Scenario::name`].
pub fn find_scenario(name: &str) -> Option<Scenario> {
    scenario_matrix().into_iter().find(|s| s.name() == name)
}

/// Measurement profile: how heavy each scenario run is. `Quick` trades
/// precision for CI wall-clock (fewer walks, fewer reps) and is tracked
/// as a separate history lineage so full and quick runs never gate
/// against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchProfile {
    /// Committed-history profile: 200k walks, best of 5.
    Full,
    /// CI regression profile: 30k walks, best of 2.
    Quick,
}

impl BenchProfile {
    /// The history-lineage label.
    pub fn name(self) -> &'static str {
        match self {
            BenchProfile::Full => "full",
            BenchProfile::Quick => "quick",
        }
    }

    /// Walks per pipeline run.
    pub fn walks(self) -> u64 {
        match self {
            BenchProfile::Full => 200_000,
            BenchProfile::Quick => 30_000,
        }
    }

    /// Timed repetitions per pipeline (minimum is reported).
    pub fn reps(self) -> usize {
        match self {
            BenchProfile::Full => 5,
            BenchProfile::Quick => 2,
        }
    }
}

/// The benchmark configuration for one scenario cell under a profile.
pub fn scenario_config(scenario: Scenario, profile: BenchProfile) -> SamplingBenchConfig {
    SamplingBenchConfig {
        workload: scenario.workload,
        nodes: scenario.nodes,
        threads: scenario.threads,
        walks: profile.walks(),
        reps: profile.reps(),
        profile: profile.name(),
        ..Default::default()
    }
}

/// Knobs of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingBenchConfig {
    /// Graph family of the generated workload.
    pub workload: Workload,
    /// Nodes of the generated graph.
    pub nodes: usize,
    /// Backward walks per pipeline run (`l`).
    pub walks: u64,
    /// Master RNG seed (graph generation, pair screening, sampling).
    pub seed: u64,
    /// Sampler threads.
    pub threads: usize,
    /// Timed rounds; the minimum is reported.
    pub reps: usize,
    /// Covering fraction `β` used to derive the cover requirement `p`.
    pub beta: f64,
    /// History-lineage label (see [`BenchProfile`]).
    pub profile: &'static str,
}

impl Default for SamplingBenchConfig {
    fn default() -> Self {
        SamplingBenchConfig {
            workload: Workload::Synthetic(Topology::PowerlawCluster),
            nodes: 10_000,
            walks: 200_000,
            seed: 7,
            threads: 1,
            reps: 5,
            beta: 0.3,
            profile: BenchProfile::Full.name(),
        }
    }
}

impl SamplingBenchConfig {
    /// The scenario cell this configuration measures.
    pub fn scenario(&self) -> Scenario {
        Scenario { workload: self.workload, nodes: self.nodes, threads: self.threads }
    }

    /// Checks that the run can honour the knobs as given.
    ///
    /// # Errors
    ///
    /// Names the first of `walks`, `threads` and `reps` that is zero:
    /// zero walks sample no pool, and a run with zero threads or reps
    /// would record a config it did not run.
    pub fn validate(&self) -> Result<(), String> {
        for (knob, value) in
            [("walks", self.walks), ("threads", self.threads as u64), ("reps", self.reps as u64)]
        {
            if value == 0 {
                return Err(format!("{knob} must be positive"));
            }
        }
        Ok(())
    }
}

/// Measured outcome of one pipeline run over a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingBenchReport {
    /// The configuration that produced this report.
    pub config: SamplingBenchConfig,
    /// Actual nodes of the generated graph (the grid topology rounds the
    /// requested `config.nodes` to its lattice dimensions).
    pub nodes: usize,
    /// Edges of the generated graph.
    pub edges: usize,
    /// The screened `(s, t)` pair.
    pub pair: (usize, usize),
    /// Type-1 walks in the pool (with multiplicity).
    pub type1: usize,
    /// Distinct type-1 paths after dedup.
    pub unique_paths: usize,
    /// Type-0 walks that dangled.
    pub dangling: u64,
    /// Type-0 walks that closed a cycle.
    pub cycles: u64,
    /// The pool's `p_max` estimate.
    pub pmax_estimate: f64,
    /// Cover requirement `p = ceil(β · |B¹_l|)`.
    pub cover_p: usize,
    /// Best-of-reps sampling time (ns).
    pub arena_sample_ns: u128,
    /// Best-of-reps cover-build + solve time (ns).
    pub arena_solve_ns: u128,
    /// Heap bytes of the sampled pool's flat arena.
    pub pool_arena_bytes: usize,
    /// Union cost of the solve.
    pub arena_cost: usize,
}

/// A `{ sample, solve, total }` timing object of a history entry.
fn ns_json(sample_ns: u128, solve_ns: u128) -> String {
    format!(
        "{{ \"sample\": {sample_ns}, \"solve\": {solve_ns}, \"total\": {} }}",
        sample_ns + solve_ns
    )
}

impl SamplingBenchReport {
    /// Dedup factor: sampled type-1 walks per distinct path.
    pub fn dedup_factor(&self) -> f64 {
        if self.unique_paths == 0 {
            1.0
        } else {
            self.type1 as f64 / self.unique_paths as f64
        }
    }

    /// Sampling + solve total (ns).
    pub fn arena_total_ns(&self) -> u128 {
        self.arena_sample_ns + self.arena_solve_ns
    }

    /// Hand-rolled JSON rendering (the workspace's serde is an offline
    /// no-op shim), stable field order: one `BENCH_sampling.json` history
    /// entry (see [`crate::history`]), attributed by `stamp`.
    pub fn to_json(&self, stamp: &crate::history::Stamp) -> String {
        format!(
            "{{\n  \"scenario\": \"{}\",\n  \"profile\": \"{}\",\n  \"stamp\": {},\n  \"graph\": {{ \"kind\": \"{}\", \"nodes\": {}, \"edges\": {}, \"s\": {}, \"t\": {} }},\n  \"config\": {{ \"walks\": {}, \"seed\": {}, \"threads\": {}, \"reps\": {}, \"beta\": {} }},\n  \"pool\": {{ \"type1\": {}, \"unique_paths\": {}, \"dedup_factor\": {:.3}, \"pmax_estimate\": {:.6}, \"cover_p\": {}, \"arena_bytes\": {}, \"dangling\": {}, \"cycles\": {} }},\n  \"arena_ns\": {},\n  \"cost\": {{ \"arena\": {} }}\n}}\n",
            self.config.scenario().name(),
            self.config.profile,
            stamp.to_json().render(),
            self.config.workload.kind_name(),
            self.nodes,
            self.edges,
            self.pair.0,
            self.pair.1,
            self.config.walks,
            self.config.seed,
            self.config.threads,
            self.config.reps,
            self.config.beta,
            self.type1,
            self.unique_paths,
            self.dedup_factor(),
            self.pmax_estimate,
            self.cover_p,
            self.pool_arena_bytes,
            self.dangling,
            self.cycles,
            ns_json(self.arena_sample_ns, self.arena_solve_ns),
            self.arena_cost,
        )
    }
}

/// Builds the classic benchmark workload: a Holme–Kim powerlaw-cluster
/// graph and a screened `(s, t)` pair (kept as-is so the historical
/// `powerlaw_cluster_10k_t1` entries stay comparable across commits).
fn workload(nodes: usize, seed: u64) -> (CsrGraph, NodeId, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let csr = generators::powerlaw_cluster(nodes, 2, 0.3, &mut rng)
        .expect("valid powerlaw-cluster parameters")
        .build(WeightScheme::UniformByDegree)
        .expect("generator emits a valid graph")
        .to_csr();
    screened_pair(csr, seed)
}

/// Builds the workload for any scenario topology: generate the graph,
/// then screen a small pair batch per the paper's `p_max ≥ 0.01`
/// protocol and keep the highest-`p_max` pair — the representative hot
/// workload (a well-connected target is where pools are type-1-rich and
/// the cover phase does real work).
pub fn scenario_workload(
    topology: Topology,
    nodes: usize,
    seed: u64,
) -> (CsrGraph, NodeId, NodeId) {
    if topology == Topology::PowerlawCluster {
        // The classic workload generates from the bare seed (not the
        // topology-hashed one); keep its graphs byte-identical.
        return workload(nodes, seed);
    }
    let csr = generate_topology(topology, nodes, seed)
        .expect("valid scenario topology parameters")
        .to_csr();
    screened_pair(csr, seed)
}

/// Prepares a [`Workload`]: synthetic families generate their topology;
/// dataset cells load via `raf_datasets` (real SNAP file in `data/` when
/// present, calibrated stand-in otherwise) at `nodes / table_i_nodes`
/// scale. Returns the plain-layout snapshot and its screened pair.
pub fn prepare_workload(
    workload_kind: Workload,
    nodes: usize,
    seed: u64,
) -> (CsrGraph, NodeId, NodeId) {
    match workload_kind {
        Workload::Synthetic(topology) => scenario_workload(topology, nodes, seed),
        Workload::Dataset(dataset) => {
            let scale = nodes as f64 / dataset.spec().nodes as f64;
            let social =
                raf_datasets::load_dataset(dataset, scale, seed, std::path::Path::new("data"))
                    .expect("dataset stand-in generation cannot fail at bench scales")
                    .graph;
            screened_pair(social.to_csr(), seed)
        }
    }
}

fn screened_pair(csr: CsrGraph, seed: u64) -> (CsrGraph, NodeId, NodeId) {
    let pairs = raf_datasets::sample_pairs(
        &csr,
        &raf_datasets::PairSamplerConfig {
            pairs: 8,
            screen_samples: 2_000,
            seed,
            ..Default::default()
        },
    );
    let p = pairs
        .iter()
        .max_by(|a, b| a.pmax_estimate.total_cmp(&b.pmax_estimate))
        .expect("screening found a feasible pair");
    let (s, t) = (NodeId::new(p.s as usize), NodeId::new(p.t as usize));
    (csr, s, t)
}

/// Cover phase: the weighted instance over the pool's unique paths
/// (local element ids) and its portfolio solve.
fn arena_solve(universe: usize, pool: PathPool, beta: f64) -> CoverSolution {
    let b1 = pool.type1_count();
    let cover = CoverInstance::from_path_pool(universe, pool).expect("pool ids in range");
    let p = raf_cover::cover_requirement(beta, b1);
    ChlamtacPortfolio::new().solve(&cover, p).expect("feasible arena instance")
}

/// Runs one cell: an untimed reference pass yields the counts, then
/// `reps` timed rounds each sample and solve again. Every timed pool
/// must equal the reference pool and every solve its cost.
///
/// # Panics
///
/// On a config [`SamplingBenchConfig::validate`] rejects, on a screened
/// pair whose pool holds no type-1 walk, and when a timed round's pool
/// or cost diverges from the reference.
pub fn run_sampling_bench(config: SamplingBenchConfig) -> SamplingBenchReport {
    if let Err(e) = config.validate() {
        panic!("invalid sampling bench config: {e}");
    }
    let (csr, s, t) = prepare_workload(config.workload, config.nodes, config.seed);
    let n = csr.node_count();
    let instance = FriendingInstance::new(&csr, s, t).expect("screened pair is valid");
    let sample = || {
        SampleRequest::new(config.walks).seed(config.seed).threads(config.threads).run(&instance)
    };

    let reference = sample();
    if reference.type1_count() == 0 {
        panic!("degenerate workload: no type-1 walks; change the seed");
    }
    let arena_cost = arena_solve(n, reference.clone(), config.beta).cost();

    let (mut sample_ns, mut solve_ns) = (u128::MAX, u128::MAX);
    for _ in 0..config.reps {
        let start = Instant::now();
        let pool = sample();
        sample_ns = sample_ns.min(start.elapsed().as_nanos());
        assert_eq!(pool, reference, "a timed pool diverged from the reference pool");
        let start = Instant::now();
        let sol = arena_solve(n, pool, config.beta);
        solve_ns = solve_ns.min(start.elapsed().as_nanos());
        assert_eq!(sol.cost(), arena_cost, "a timed solve diverged from the reference solve");
    }

    SamplingBenchReport {
        nodes: n,
        edges: csr.edge_count(),
        pair: (s.index(), t.index()),
        type1: reference.type1_count(),
        unique_paths: reference.unique_count(),
        dangling: reference.dangling_count(),
        cycles: reference.cycle_count(),
        pmax_estimate: reference.pmax_estimate(),
        cover_p: raf_cover::cover_requirement(config.beta, reference.type1_count()),
        arena_sample_ns: sample_ns,
        arena_solve_ns: solve_ns,
        pool_arena_bytes: reference.heap_bytes(),
        arena_cost,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{gate_counts, parse_json, CountGate, JsonValue, Stamp};

    /// The arena pool against first principles: walk `i` of
    /// `sample_target_path` drawn from `walk_rng(seed, i)`, every type-1
    /// walk kept with its duplicates, sorted and run-length encoded, must
    /// equal the pool [`SampleRequest`] builds at `threads` threads,
    /// path for path and multiplicity for multiplicity.
    fn assert_pipelines_agree(nodes: usize, walks: u64, seed: u64, threads: usize) {
        use raf_model::reverse::sample_target_path;
        use raf_model::sampler::walk_rng;
        let (csr, s, t) = workload(nodes, seed);
        let instance = FriendingInstance::new(&csr, s, t).unwrap();
        let mut reference: Vec<Vec<u32>> = (0..walks)
            .map(|i| sample_target_path(&instance, &mut walk_rng(seed, i)))
            .filter(|tp| tp.is_type1())
            .map(|tp| tp.nodes.iter().map(|v| v.index() as u32).collect())
            .collect();
        reference.sort();
        let arena = SampleRequest::new(walks).seed(seed).threads(threads).run(&instance);
        // Same seeds ⇒ the exact same walk multiset ⇒ identical pmax.
        assert_eq!(reference.len(), arena.type1_count(), "threads={threads}");
        let reference_pmax = reference.len() as f64 / walks as f64;
        assert_eq!(arena.pmax_estimate(), reference_pmax, "threads={threads}");
        let total: usize = arena.iter().map(|(_, m)| m as usize).sum();
        assert_eq!(total, arena.type1_count());
        let mut runs: Vec<(&[u32], usize)> = Vec::new();
        for p in &reference {
            match runs.last_mut() {
                Some((path, count)) if *path == p.as_slice() => *count += 1,
                _ => runs.push((p.as_slice(), 1)),
            }
        }
        assert_eq!(runs.len(), arena.unique_count(), "threads={threads}");
        for (i, (path, count)) in runs.iter().enumerate() {
            assert_eq!(*path, arena.path(i), "threads={threads}");
            assert_eq!(*count, arena.multiplicity(i) as usize, "threads={threads}");
        }
    }

    #[test]
    fn pipelines_agree_on_pool_statistics() {
        assert_pipelines_agree(400, 20_000, 3, 1);
    }

    #[test]
    fn pipelines_agree_across_thread_counts_and_seeds() {
        // Many blocks, so threads > 1 exercises the per-thread interner
        // merge, including whatever RAF_THREADS the CI matrix sets.
        let env = raf_model::sampler::threads_from_env();
        for seed in [3u64, 11] {
            for threads in [1usize, 2, 4, env] {
                assert_pipelines_agree(400, 20_000, seed, threads);
            }
        }
    }

    fn test_stamp() -> Stamp {
        Stamp {
            git_rev: "0123abcd".into(),
            rustc: "rustc 1.0.0".into(),
            cpu: "Test CPU".into(),
            nproc: 2,
            unix_time: 1_700_000_000,
        }
    }

    #[test]
    fn scenario_matrix_covers_the_spec() {
        let matrix = scenario_matrix();
        // Synthetic lineage (4 × 2 × 2) plus the dataset lineage:
        // {wiki, hepth, hepph} × {1, 4}, the scaled Youtube cell, and
        // the 1M-node Youtube cell.
        assert_eq!(matrix.len(), Topology::ALL.len() * 2 * 2 + 3 * 2 + 2);
        let names: std::collections::HashSet<String> = matrix.iter().map(Scenario::name).collect();
        assert_eq!(names.len(), matrix.len(), "scenario names collide");
        for required in [
            "powerlaw_cluster_10k_t1",
            "powerlaw_cluster_50k_t4",
            "erdos_renyi_10k_t1",
            "erdos_renyi_50k_t4",
            "grid_10k_t4",
            "ring_50k_t1",
            "dataset_wiki_7k_t1",
            "dataset_wiki_7k_t4",
            "dataset_hepth_28k_t1",
            "dataset_hepph_35k_t4",
            "dataset_youtube_220k_t4",
            "dataset_youtube_1m_t4",
        ] {
            assert!(names.contains(required), "matrix lacks {required}");
            assert!(find_scenario(required).is_some());
        }
        assert!(find_scenario("no_such_scenario").is_none());
        let one_m = find_scenario("dataset_youtube_1m_t4").unwrap();
        assert_eq!(one_m.nodes, 1_000_000);
        // Quick keeps the synthetic 10k slice and every dataset cell but
        // the 1M one, whose graph belongs to the weekly full matrix.
        let quick = quick_matrix();
        assert!(quick
            .iter()
            .all(|s| !matches!(s.workload, Workload::Synthetic(_)) || s.nodes == 10_000));
        assert_eq!(quick.len(), Topology::ALL.len() * 2 + 3 * 2 + 1);
        assert!(quick.iter().any(|s| s.name() == "dataset_youtube_220k_t4"));
        assert!(quick.iter().all(|s| s != &one_m), "--quick must skip the 1M-node cell");
    }

    #[test]
    fn scenario_workloads_are_runnable() {
        // Every topology must survive screening and yield a feasible
        // bench config at small scale (smoke test for the matrix).
        for topology in Topology::ALL {
            let config = SamplingBenchConfig {
                workload: Workload::Synthetic(topology),
                nodes: 400,
                walks: 6_000,
                seed: 3,
                reps: 1,
                ..Default::default()
            };
            let report = run_sampling_bench(config);
            assert!(report.type1 > 0, "{}: empty pool", topology.name());
            assert!(report.arena_cost > 0, "{}: empty cover", topology.name());
            // Every walk is type-1, dangling or a cycle.
            let walks = report.type1 as u64 + report.dangling + report.cycles;
            assert_eq!(walks, report.config.walks, "{}", topology.name());
        }
    }

    #[test]
    fn dataset_workload_measures_the_hub_layout() {
        // A scaled-down Wiki cell: the dataset path must load the
        // stand-in and time it. Dataset cells run the plain layout like
        // every other cell, so the entry carries no layout column.
        let config = SamplingBenchConfig {
            workload: Workload::Dataset(Dataset::Wiki),
            nodes: 400,
            walks: 6_000,
            seed: 3,
            reps: 2,
            ..Default::default()
        };
        let report = run_sampling_bench(config);
        assert!(report.type1 > 0, "empty pool on the wiki stand-in");
        assert!(report.arena_cost > 0);
        assert!(report.arena_sample_ns > 0 && report.arena_solve_ns > 0);
        let value = parse_json(&report.to_json(&test_stamp())).unwrap();
        assert_eq!(value.get("scenario").and_then(JsonValue::as_str), Some("dataset_wiki_400_t1"));
        assert_eq!(value.path_f64(&["arena_ns", "total"]), Some(report.arena_total_ns() as f64));
        assert!(value.path_f64(&["pool", "arena_bytes"]).unwrap() > 0.0);
        assert_eq!(
            value.get("graph").unwrap().get("kind").and_then(JsonValue::as_str),
            Some("wiki")
        );
        let JsonValue::Obj(fields) = &value else { panic!("entry is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["scenario", "profile", "stamp", "graph", "config", "pool", "arena_ns", "cost"]
        );
        // The entry survives a history round trip (parse → render →
        // parse), which is what the append-only file does on every run.
        let mut history = crate::history::BenchHistory::default();
        history.push(value.clone());
        let reloaded = crate::history::BenchHistory::from_text(&history.to_text()).unwrap();
        assert_eq!(reloaded.entries, [value]);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let cfg = SamplingBenchConfig {
            nodes: 400,
            walks: 8_000,
            seed: 3,
            reps: 1,
            ..Default::default()
        };
        let report = run_sampling_bench(cfg);
        assert!(report.type1 > 0);
        assert!(report.unique_paths <= report.type1);
        let json = report.to_json(&test_stamp());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The entry parses with the history JSON reader and carries the
        // scenario/profile keys the gate groups by, the stamp, and every
        // counted field.
        let value = parse_json(&json).unwrap();
        assert_eq!(
            value.get("scenario").and_then(JsonValue::as_str),
            Some("powerlaw_cluster_400_t1")
        );
        assert_eq!(value.get("profile").and_then(JsonValue::as_str), Some("full"));
        assert_eq!(value.get("stamp"), Some(&test_stamp().to_json()));
        assert_eq!(value.path_f64(&["pool", "dangling"]), Some(report.dangling as f64));
        assert_eq!(value.path_f64(&["pool", "cycles"]), Some(report.cycles as f64));
        assert_eq!(value.path_f64(&["cost", "arena"]), Some(report.arena_cost as f64));
        assert!(value.path_f64(&["arena_ns", "total"]).unwrap() > 0.0);
        // An entry carries exactly these fields and one cost.
        let keys = |v: &JsonValue| match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(
            keys(&value),
            ["scenario", "profile", "stamp", "graph", "config", "pool", "arena_ns", "cost"]
        );
        assert_eq!(keys(value.get("cost").unwrap()), ["arena"]);
    }

    #[test]
    fn counted_fields_do_not_depend_on_threads_or_reps() {
        // The gate's premise: the counts are a pure function of the cell,
        // whatever the thread count or the number of timed rounds.
        let run = |threads: usize, reps: usize| {
            let report = run_sampling_bench(SamplingBenchConfig {
                workload: Workload::Dataset(Dataset::Wiki),
                nodes: 400,
                walks: 6_000,
                seed: 3,
                threads,
                reps,
                ..Default::default()
            });
            parse_json(&report.to_json(&test_stamp())).unwrap()
        };
        let baseline = run(1, 1);
        assert_eq!(gate_counts(Some(&baseline), &run(3, 2)), CountGate::Equal);
    }

    #[test]
    fn zero_knobs_are_rejected() {
        let quick = scenario_config(find_scenario("ring_10k_t1").unwrap(), BenchProfile::Quick);
        assert!(quick.validate().is_ok());
        assert!(SamplingBenchConfig::default().validate().is_ok());
        let mut cfg = quick.clone();
        cfg.walks = 0;
        assert!(cfg.validate().unwrap_err().contains("walks"));
        let mut cfg = quick.clone();
        cfg.threads = 0;
        assert!(cfg.validate().unwrap_err().contains("threads"));
        let mut cfg = quick;
        cfg.reps = 0;
        assert!(cfg.validate().unwrap_err().contains("reps"));
    }

    #[test]
    fn scenario_config_applies_profile() {
        let s = find_scenario("erdos_renyi_10k_t4").unwrap();
        let quick = scenario_config(s, BenchProfile::Quick);
        assert_eq!(quick.walks, BenchProfile::Quick.walks());
        assert_eq!(quick.reps, BenchProfile::Quick.reps());
        assert_eq!(quick.threads, 4);
        assert_eq!(quick.profile, "quick");
        assert_eq!(quick.scenario(), s);
        let full = scenario_config(s, BenchProfile::Full);
        assert_eq!(full.walks, 200_000);
        assert_eq!(full.profile, "full");
        let d = find_scenario("dataset_hepth_28k_t1").unwrap();
        assert_eq!(d.workload, Workload::Dataset(Dataset::HepTh));
        assert_eq!(scenario_config(d, BenchProfile::Quick).nodes, 28_000);
    }
}
