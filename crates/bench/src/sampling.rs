//! The legacy-vs-arena sampling+solve pipeline comparison.
//!
//! Shared by the `sampling` criterion bench and the `raf bench-json`
//! subcommand, so both measure exactly the same two pipelines:
//!
//! * **legacy** — a faithful replica of the pre-arena realization pool:
//!   every backward walk heap-allocates its own `Vec` of node ids, the
//!   parallel sampler funnels results through a `Mutex` and
//!   lexicographically sorts the whole pool, and the cover phase
//!   re-copies every path into a fresh `Vec<Vec<u32>>` (one allocation
//!   and one sort per path) before solving the duplicated family;
//! * **arena** — the current pipeline: allocation-free sampling into the
//!   flat [`PathPool`] arena, multiplicity dedup at assembly, and
//!   [`CoverInstance::from_path_pool`], which rewrites the unique paths
//!   to local element ids for the weighted portfolio solve.
//!
//! Both produce statistically identical pools (same seeds, same walk
//! multiset), so the wall-clock ratio is a pure data-structure
//! comparison. Cover solutions coincide on the sparse synthetic
//! workloads; on dense dataset workloads the weighted portfolio can find
//! a strictly *cheaper* union than the duplicated-family solve (its
//! p-smallest arm takes whole high-multiplicity paths where the
//! duplicated family crosses `p` on an interleaved prefix of copies), so
//! cost parity is asserted only as `arena ≤ legacy` there.
//!
//! Dataset cells additionally run the arena pipeline on the **hub-BFS
//! relabeled** layout of the same graph. Relabeled snapshots keep
//! neighbor slices in image order, so the relabeled run samples the
//! *bit-identical* pool (asserted on every run) and its timing isolates
//! the pure locality effect of the renumbering. **Bake-off** cells
//! ([`Scenario::bakeoff`]) go further and time every
//! [`RelabelOrder`] — hub-BFS, degree-descending, reverse Cuthill–McKee
//! — on the same graph in the same entry (`layout_ns`), producing the
//! apples-to-apples layout comparison at a scale (1M nodes) where
//! per-node metadata far exceeds L3 and the orders can diverge.

use raf_cover::{ChlamtacPortfolio, CoverInstance, CoverSolution, MpuSolver};
use raf_datasets::synthetic::{generate_topology, Topology};
use raf_datasets::Dataset;
use raf_graph::{generators, CsrGraph, NodeId, RelabelOrder, SocialGraph, WeightScheme};
use raf_model::reverse::WalkOutcome;
use raf_model::sampler::{walk_rng, PathPool, SampleRequest};
use raf_model::FriendingInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The graph family of a scenario cell: a generated structural topology
/// (the original matrix axis) or a Table-I dataset stand-in (real SNAP
/// file when one is present in `data/`).
///
/// Dataset cells additionally measure the arena pipeline on the hub-BFS
/// relabeled layout (see [`raf_graph::Relabeling::hub_bfs`]) next to the plain one,
/// recording the locality win in the same history entry.
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
    /// Whether this cell runs the **layout bake-off**: the arena
    /// pipeline timed on every [`RelabelOrder`] of the same graph
    /// (hub-BFS, degree-descending, RCM), pool equality asserted across
    /// all of them. Reserved for cells whose per-node metadata far
    /// exceeds L3, where the orders can actually diverge; everywhere
    /// else only hub-BFS is timed. Bake-off cells are excluded from the
    /// `--quick` CI matrix (they run in the weekly full matrix).
    pub bakeoff: bool,
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
/// L2, where the hub-BFS relabeling win first appears), and the
/// `dataset_youtube_1m_t4` **bake-off** cell (1M nodes — metadata far
/// exceeds L3, the scale where the three [`RelabelOrder`] layouts can
/// genuinely diverge; each run times all of them).
pub fn scenario_matrix() -> Vec<Scenario> {
    let mut matrix = Vec::new();
    for topology in Topology::ALL {
        for nodes in [10_000usize, 50_000] {
            for threads in [1usize, 4] {
                matrix.push(Scenario {
                    workload: Workload::Synthetic(topology),
                    nodes,
                    threads,
                    bakeoff: false,
                });
            }
        }
    }
    for dataset in [Dataset::Wiki, Dataset::HepTh, Dataset::HepPh] {
        for threads in [1usize, 4] {
            matrix.push(Scenario {
                workload: Workload::Dataset(dataset),
                nodes: dataset.spec().nodes,
                threads,
                bakeoff: false,
            });
        }
    }
    matrix.push(Scenario {
        workload: Workload::Dataset(Dataset::Youtube),
        nodes: 220_000,
        threads: 4,
        bakeoff: false,
    });
    matrix.push(Scenario {
        workload: Workload::Dataset(Dataset::Youtube),
        nodes: 1_000_000,
        threads: 4,
        bakeoff: true,
    });
    matrix
}

/// The quick (CI-sized) matrix: the 10k-node synthetic slice plus the
/// dataset cells (the lineages the CI gate watches) — **except** the
/// bake-off cell, whose 1M-node graph belongs in the weekly full-matrix
/// job, not the per-push gate.
pub fn quick_matrix() -> Vec<Scenario> {
    scenario_matrix()
        .into_iter()
        .filter(|s| match s.workload {
            Workload::Synthetic(_) => s.nodes == 10_000,
            Workload::Dataset(_) => !s.bakeoff,
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
        bakeoff: scenario.bakeoff,
        walks: profile.walks(),
        reps: profile.reps(),
        profile: profile.name(),
        ..Default::default()
    }
}

/// Knobs of one pipeline comparison run.
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
    /// Sampler threads (both pipelines use the same count).
    pub threads: usize,
    /// Timed repetitions per pipeline; the minimum is reported.
    pub reps: usize,
    /// Covering fraction `β` used to derive the cover requirement `p`.
    pub beta: f64,
    /// History-lineage label (see [`BenchProfile`]).
    pub profile: &'static str,
    /// Whether to time every [`RelabelOrder`] layout (see
    /// [`Scenario::bakeoff`]); dataset cells time hub-BFS alone otherwise.
    pub bakeoff: bool,
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
            bakeoff: false,
        }
    }
}

impl SamplingBenchConfig {
    /// The scenario cell this configuration measures.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            workload: self.workload,
            nodes: self.nodes,
            threads: self.threads,
            bakeoff: self.bakeoff,
        }
    }
}

/// Measured outcome of one legacy-vs-arena comparison.
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
    /// The pool's `p_max` estimate.
    pub pmax_estimate: f64,
    /// Cover requirement `p = ceil(β · |B¹_l|)`.
    pub cover_p: usize,
    /// Legacy pipeline: best-of-reps sampling time (ns).
    pub legacy_sample_ns: u128,
    /// Legacy pipeline: best-of-reps cover-build + solve time (ns).
    pub legacy_solve_ns: u128,
    /// Arena pipeline: best-of-reps sampling time (ns).
    pub arena_sample_ns: u128,
    /// Arena pipeline: best-of-reps cover-build + solve time (ns).
    pub arena_solve_ns: u128,
    /// Arena pipeline on the hub-BFS relabeled layout: best-of-reps
    /// sampling time (ns). Measured only for dataset workloads; 0 means
    /// not measured.
    pub relabeled_sample_ns: u128,
    /// Arena pipeline on the hub-BFS relabeled layout: best-of-reps
    /// cover-build + solve time (ns). 0 means not measured.
    pub relabeled_solve_ns: u128,
    /// Per-order layout timings of the bake-off (one entry per measured
    /// [`RelabelOrder`]; hub-BFS only for ordinary dataset cells, all
    /// three for bake-off cells, empty for synthetic cells).
    pub layouts: Vec<LayoutTiming>,
    /// Heap bytes of the sampled pool's flat arena.
    pub pool_arena_bytes: usize,
    /// Union cost of the legacy solve.
    pub legacy_cost: usize,
    /// Union cost of the arena solve.
    pub arena_cost: usize,
}

/// Best-of-reps arena timings of one relabeled layout, measured on a
/// pool asserted bit-identical to the plain layout's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutTiming {
    /// The layout order measured.
    pub order: RelabelOrder,
    /// Best-of-reps sampling time (ns).
    pub sample_ns: u128,
    /// Best-of-reps cover-build + solve time (ns).
    pub solve_ns: u128,
}

impl LayoutTiming {
    /// Sampling + solve total (ns).
    pub fn total_ns(&self) -> u128 {
        self.sample_ns + self.solve_ns
    }
}

impl SamplingBenchReport {
    /// End-to-end (sampling + solve) speedup of arena over legacy.
    pub fn speedup(&self) -> f64 {
        let legacy = (self.legacy_sample_ns + self.legacy_solve_ns) as f64;
        let arena = (self.arena_sample_ns + self.arena_solve_ns) as f64;
        if arena == 0.0 {
            f64::INFINITY
        } else {
            legacy / arena
        }
    }

    /// Dedup factor: sampled type-1 walks per distinct path.
    pub fn dedup_factor(&self) -> f64 {
        if self.unique_paths == 0 {
            1.0
        } else {
            self.type1 as f64 / self.unique_paths as f64
        }
    }

    /// Whether the hub-BFS relabeled layout was measured (dataset cells).
    pub fn has_relabeled(&self) -> bool {
        self.relabeled_sample_ns + self.relabeled_solve_ns > 0
    }

    /// Sampling+solve speedup of the hub-BFS relabeled layout over the
    /// plain arena layout (1.0 when not measured).
    pub fn relabel_speedup(&self) -> f64 {
        if !self.has_relabeled() {
            return 1.0;
        }
        let plain = (self.arena_sample_ns + self.arena_solve_ns) as f64;
        let hub = (self.relabeled_sample_ns + self.relabeled_solve_ns) as f64;
        if hub == 0.0 {
            f64::INFINITY
        } else {
            plain / hub
        }
    }

    /// Hand-rolled JSON rendering (the workspace's serde is an offline
    /// no-op shim), stable field order: one `BENCH_sampling.json` history
    /// entry (see [`crate::history`]). Dataset cells add a
    /// `relabeled_ns` object — the arena pipeline on the hub-BFS layout —
    /// and a `relabel_speedup` next to the legacy-vs-arena `speedup`;
    /// bake-off cells additionally record a `layout_ns` object with one
    /// `{ sample, solve, total }` triple per measured [`RelabelOrder`].
    pub fn to_json(&self) -> String {
        let mut relabeled = if self.has_relabeled() {
            format!(
                "  \"relabeled_ns\": {{ \"sample\": {}, \"solve\": {}, \"total\": {} }},\n  \
                 \"relabel_speedup\": {:.3},\n",
                self.relabeled_sample_ns,
                self.relabeled_solve_ns,
                self.relabeled_sample_ns + self.relabeled_solve_ns,
                self.relabel_speedup(),
            )
        } else {
            String::new()
        };
        if self.layouts.len() > 1 {
            let columns: Vec<String> = self
                .layouts
                .iter()
                .map(|l| {
                    format!(
                        "\"{}\": {{ \"sample\": {}, \"solve\": {}, \"total\": {} }}",
                        l.order.name(),
                        l.sample_ns,
                        l.solve_ns,
                        l.total_ns(),
                    )
                })
                .collect();
            relabeled.push_str(&format!("  \"layout_ns\": {{ {} }},\n", columns.join(", ")));
        }
        format!(
            "{{\n  \"scenario\": \"{}\",\n  \"profile\": \"{}\",\n  \"graph\": {{ \"kind\": \"{}\", \"nodes\": {}, \"edges\": {}, \"s\": {}, \"t\": {} }},\n  \"config\": {{ \"walks\": {}, \"seed\": {}, \"threads\": {}, \"reps\": {}, \"beta\": {} }},\n  \"pool\": {{ \"type1\": {}, \"unique_paths\": {}, \"dedup_factor\": {:.3}, \"pmax_estimate\": {:.6}, \"cover_p\": {}, \"arena_bytes\": {} }},\n  \"legacy_ns\": {{ \"sample\": {}, \"solve\": {}, \"total\": {} }},\n  \"arena_ns\": {{ \"sample\": {}, \"solve\": {}, \"total\": {} }},\n{relabeled}  \"cost\": {{ \"legacy\": {}, \"arena\": {} }},\n  \"speedup\": {:.3}\n}}\n",
            self.config.scenario().name(),
            self.config.profile,
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
            self.legacy_sample_ns,
            self.legacy_solve_ns,
            self.legacy_sample_ns + self.legacy_solve_ns,
            self.arena_sample_ns,
            self.arena_solve_ns,
            self.arena_sample_ns + self.arena_solve_ns,
            self.legacy_cost,
            self.arena_cost,
            self.speedup(),
        )
    }
}

/// Builds the classic benchmark workload: a Holme–Kim powerlaw-cluster
/// graph and a screened `(s, t)` pair (kept as-is so the criterion bench
/// and the historical `powerlaw_cluster_10k_t1` entries stay comparable
/// across PRs).
pub fn workload(nodes: usize, seed: u64) -> (CsrGraph, NodeId, NodeId) {
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

/// A fully prepared scenario workload: the plain-layout snapshot with a
/// screened pair, plus — for dataset cells — the source graph and the
/// [`RelabelOrder`]s whose layouts the runner builds *one at a time*
/// (hub-BFS only, or every order for bake-off cells; a 1M-node CSR is
/// ~hundreds of MB, so holding all three relabeled copies simultaneously
/// would triple peak memory for no measurement benefit). Their arena
/// timings go into the `relabeled_ns` / `layout_ns` history fields.
pub struct PreparedWorkload {
    /// Plain-layout snapshot.
    pub csr: CsrGraph,
    /// The source graph relabeled layouts are built from on demand
    /// (dataset workloads only).
    pub social: Option<SocialGraph>,
    /// The layout orders to measure, in [`RelabelOrder::ALL`] order
    /// (empty for synthetic cells).
    pub orders: Vec<RelabelOrder>,
    /// The screened initiator (original/plain ids).
    pub s: NodeId,
    /// The screened target (original/plain ids).
    pub t: NodeId,
}

/// Prepares a [`Workload`]: synthetic families generate as before;
/// dataset cells load via `raf_datasets` (real SNAP file in `data/` when
/// present, calibrated stand-in otherwise) at `nodes / table_i_nodes`
/// scale and select the relabeled layout(s) to measure — hub-BFS alone,
/// or all of [`RelabelOrder::ALL`] when `bakeoff` is set.
pub fn prepare_workload(
    workload_kind: Workload,
    nodes: usize,
    seed: u64,
    bakeoff: bool,
) -> PreparedWorkload {
    match workload_kind {
        Workload::Synthetic(topology) => {
            let (csr, s, t) = scenario_workload(topology, nodes, seed);
            PreparedWorkload { csr, social: None, orders: Vec::new(), s, t }
        }
        Workload::Dataset(dataset) => {
            let scale = nodes as f64 / dataset.spec().nodes as f64;
            let social =
                raf_datasets::load_dataset(dataset, scale, seed, std::path::Path::new("data"))
                    .expect("dataset stand-in generation cannot fail at bench scales")
                    .graph;
            let orders =
                if bakeoff { RelabelOrder::ALL.to_vec() } else { vec![RelabelOrder::HubBfs] };
            let (csr, s, t) = screened_pair(social.to_csr(), seed);
            PreparedWorkload { csr, social: Some(social), orders, s, t }
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

/// The pre-arena pool: every type-1 walk keeps its own `Vec` of node ids.
pub struct LegacyPool {
    /// The type-1 paths, one `Vec<NodeId>` each (duplicates included).
    pub type1_paths: Vec<Vec<NodeId>>,
    /// Walks sampled in total.
    pub total_samples: u64,
}

/// Replica of the pre-arena `CsrGraph` storage: per-node metadata
/// scattered across an offset table, a totals table, and a uniform-flag
/// table (the layout this PR replaced with one packed record per node).
///
/// Selections replicate the pre-arena arithmetic verbatim: the uniform
/// fast path computes `⌊(r / total) · d⌋`, while the packed graph now
/// precomputes `⌊r · (d / total)⌋`. The two double-rounded products
/// agree except when a draw lands within an ulp of a bucket boundary on
/// a node whose `total ≠ 1.0` (probability ~1e-16 per draw), so walk
/// parity with the live sampler is exact in practice and *deterministic*
/// under the fixed seeds the equivalence tests use — but it is no longer
/// bit-guaranteed by construction. On non-uniform nodes the cumulative
/// table is *reconstructed* from rounded `in_weight` differences and may
/// likewise diverge in the last ulps at bucket boundaries; don't rely on
/// exact walk parity for non-uniform weight schemes.
pub struct LegacyCsr {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    cum_weights: Vec<f64>,
    totals: Vec<f64>,
    uniform: Vec<bool>,
}

impl LegacyCsr {
    /// Reconstructs the scattered pre-arena layout from a [`CsrGraph`].
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        let mut cum_weights = Vec::new();
        let mut totals = Vec::with_capacity(n);
        let mut uniform = Vec::with_capacity(n);
        offsets.push(0);
        for v in g.nodes() {
            let ns = g.neighbors(v);
            neighbors.extend_from_slice(ns);
            let mut acc = 0.0;
            let first = ns.first().map(|&u| g.in_weight(u, v).expect("edge weight"));
            let mut is_uniform = true;
            for &u in ns {
                let w = g.in_weight(u, v).expect("edge weight");
                acc += w;
                cum_weights.push(acc);
                if let Some(f) = first {
                    if (w - f).abs() > 1e-15 {
                        is_uniform = false;
                    }
                }
            }
            // Use the graph's own total (exact prefix-sum value) so the
            // `r >= total` boundary matches bit for bit.
            totals.push(g.total_in_weight(v));
            uniform.push(is_uniform);
            offsets.push(neighbors.len());
        }
        LegacyCsr { offsets, neighbors, cum_weights, totals, uniform }
    }

    /// Verbatim pre-arena `select_with`: scattered loads, unconditional
    /// division on the uniform fast path.
    #[inline]
    fn select_with(&self, v: NodeId, r: f64) -> Option<NodeId> {
        let i = v.index();
        let total = self.totals[i];
        if r >= total {
            return None;
        }
        let base = self.offsets[i];
        let d = self.offsets[i + 1] - base;
        if self.uniform[i] {
            let idx = ((r / total) * d as f64) as usize;
            return Some(self.neighbors[base + idx.min(d - 1)]);
        }
        let slice = &self.cum_weights[base..base + d];
        let idx = slice.partition_point(|&c| c <= r);
        Some(self.neighbors[base + idx.min(d - 1)])
    }
}

/// Verbatim replica of the pre-arena `sample_target_path` hot loop: the
/// walk builds its own `vec![t, …]` (one allocation plus incremental
/// regrowth per walk) over the scattered [`LegacyCsr`] layout — exactly
/// the cost model the arena sampler removed. The RNG draw sequence and
/// every selection are identical to [`raf_model::reverse::sample_walk_into`]
/// on the packed graph, so both pipelines sample the same walk for the
/// same walk seed.
fn legacy_sample_target_path<R: rand::Rng>(
    instance: &FriendingInstance<'_>,
    csr: &LegacyCsr,
    rng: &mut R,
) -> (Vec<NodeId>, WalkOutcome) {
    let mut nodes = vec![instance.target()];
    let mut overflow: Option<std::collections::HashSet<NodeId>> = None;
    const SCAN_LIMIT: usize = 64;
    let mut current = instance.target();
    loop {
        match csr.select_with(current, rng.gen::<f64>()) {
            None => return (nodes, WalkOutcome::Dangling),
            Some(next) => {
                let revisited = match &overflow {
                    Some(set) => set.contains(&next),
                    None => nodes.contains(&next),
                };
                if revisited {
                    return (nodes, WalkOutcome::Cycle);
                }
                if instance.is_seed(next) {
                    return (nodes, WalkOutcome::ReachedSeed);
                }
                nodes.push(next);
                if overflow.is_none() && nodes.len() > SCAN_LIMIT {
                    overflow = Some(nodes.iter().copied().collect());
                } else if let Some(set) = &mut overflow {
                    set.insert(next);
                }
                current = next;
            }
        }
    }
}

/// Replica of the pre-arena sampler: per-walk allocation, and — exactly
/// as in the pre-arena code — `Mutex` aggregation plus a global
/// lexicographic sort of the pool only on the multi-threaded path (the
/// sequential fallback returned the pool unsorted). Walk `i` draws from
/// [`walk_rng`]`(master_seed, i)`, the live sampler's per-walk seeding,
/// so both pipelines sample the same walk multiset at any thread count.
pub fn legacy_sample_pool(
    instance: &FriendingInstance<'_>,
    csr: &LegacyCsr,
    l: u64,
    master_seed: u64,
    threads: usize,
) -> LegacyPool {
    let threads = threads.max(1) as u64;
    let sample_walks = |walks: std::ops::Range<u64>| {
        let mut local: Vec<Vec<NodeId>> = Vec::new();
        for walk in walks {
            let mut rng = walk_rng(master_seed, walk);
            let (nodes, outcome) = legacy_sample_target_path(instance, csr, &mut rng);
            if outcome == WalkOutcome::ReachedSeed {
                local.push(nodes);
            }
        }
        local
    };
    let type1_paths = if threads == 1 {
        sample_walks(0..l)
    } else {
        let collected: Mutex<Vec<Vec<NodeId>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let mut start = 0u64;
            for i in 0..threads {
                let share = l / threads + u64::from(l % threads > i);
                let walks = start..start + share;
                start += share;
                let collected = &collected;
                let sample_walks = &sample_walks;
                scope.spawn(move || {
                    let local = sample_walks(walks);
                    collected.lock().expect("legacy sampler mutex").extend(local);
                });
            }
        });
        let mut pool = collected.into_inner().expect("legacy sampler mutex");
        // Deterministic order regardless of thread interleaving (the
        // pre-arena code sorted only here, not on the sequential path).
        pool.sort();
        pool
    };
    LegacyPool { type1_paths, total_samples: l }
}

/// Legacy cover phase: re-copy every path into a fresh per-set `Vec`
/// (the pre-arena `NodeId` → `u32` conversion), normalize (sort) each,
/// and solve the duplicated family.
pub fn legacy_solve(universe: usize, pool: &LegacyPool, beta: f64) -> CoverSolution {
    let sets: Vec<Vec<u32>> =
        pool.type1_paths.iter().map(|tp| tp.iter().map(|v| v.index() as u32).collect()).collect();
    let b1 = sets.len();
    let cover = CoverInstance::new(universe, sets).expect("legacy sets in range");
    let p = raf_cover::cover_requirement(beta, b1);
    ChlamtacPortfolio::new().solve(&cover, p).expect("feasible legacy instance")
}

/// Arena sampling: the current `PathPool` pipeline, through the unified
/// [`SampleRequest`] API.
pub fn arena_sample_pool(
    instance: &FriendingInstance<'_>,
    l: u64,
    master_seed: u64,
    threads: usize,
) -> PathPool {
    SampleRequest::new(l).seed(master_seed).threads(threads).run(instance)
}

/// Arena cover phase: the weighted instance over the pool's unique paths
/// (local element ids) and its portfolio solve.
pub fn arena_solve(universe: usize, pool: PathPool, beta: f64) -> CoverSolution {
    let b1 = pool.type1_count();
    let cover = CoverInstance::from_path_pool(universe, pool).expect("pool ids in range");
    let p = raf_cover::cover_requirement(beta, b1);
    ChlamtacPortfolio::new().solve(&cover, p).expect("feasible arena instance")
}

/// Runs the full comparison: both pipelines `reps` times each on the same
/// workload, reporting best-of-reps phase timings and solution costs.
/// Dataset workloads additionally time the arena pipeline on the
/// relabeled layout(s) — hub-BFS, or the full [`RelabelOrder`] bake-off —
/// after asserting each layout's pool is bit-identical to the plain
/// layout's (the relabeling equivariance guarantee).
pub fn run_sampling_bench(config: SamplingBenchConfig) -> SamplingBenchReport {
    let prepared = prepare_workload(config.workload, config.nodes, config.seed, config.bakeoff);
    let (csr, s, t) = (&prepared.csr, prepared.s, prepared.t);
    let instance = FriendingInstance::new(csr, s, t).expect("screened pair is valid");
    let n = csr.node_count();
    let legacy_csr = LegacyCsr::from_csr(csr);

    let mut legacy_sample_ns = u128::MAX;
    let mut legacy_solve_ns = u128::MAX;
    let mut legacy_cost = 0usize;
    for _ in 0..config.reps.max(1) {
        let start = Instant::now();
        let pool =
            legacy_sample_pool(&instance, &legacy_csr, config.walks, config.seed, config.threads);
        legacy_sample_ns = legacy_sample_ns.min(start.elapsed().as_nanos());
        if pool.type1_paths.is_empty() {
            panic!("degenerate workload: no type-1 walks; change the seed");
        }
        let start = Instant::now();
        let sol = legacy_solve(n, &pool, config.beta);
        legacy_solve_ns = legacy_solve_ns.min(start.elapsed().as_nanos());
        legacy_cost = sol.cost();
    }

    let mut arena_sample_ns = u128::MAX;
    let mut arena_solve_ns = u128::MAX;
    let mut arena_cost = 0usize;
    let mut type1 = 0usize;
    let mut unique_paths = 0usize;
    let mut pmax_estimate = 0.0f64;
    let mut cover_p = 0usize;
    let mut pool_arena_bytes = 0usize;
    for _ in 0..config.reps.max(1) {
        let start = Instant::now();
        let pool = arena_sample_pool(&instance, config.walks, config.seed, config.threads);
        arena_sample_ns = arena_sample_ns.min(start.elapsed().as_nanos());
        type1 = pool.type1_count();
        unique_paths = pool.unique_count();
        pmax_estimate = pool.pmax_estimate();
        cover_p = raf_cover::cover_requirement(config.beta, type1);
        pool_arena_bytes = pool.heap_bytes();
        let start = Instant::now();
        let sol = arena_solve(n, pool, config.beta);
        arena_solve_ns = arena_solve_ns.min(start.elapsed().as_nanos());
        arena_cost = sol.cost();
    }

    let mut relabeled_sample_ns = 0u128;
    let mut relabeled_solve_ns = 0u128;
    let mut layouts: Vec<LayoutTiming> = Vec::with_capacity(prepared.orders.len());
    if let Some(social) = &prepared.social {
        // Equivariance reference: every layout must sample the exact
        // same (original-space) pool — any divergence would mean the
        // timings measure different work.
        let plain_pool = arena_sample_pool(&instance, config.walks, config.seed, config.threads);
        for &order in &prepared.orders {
            // Built (and dropped) per order: one relabeled snapshot
            // resident at a time, not the whole bake-off slate.
            let relabeling = Arc::new(order.relabeling(social));
            let layout_csr = social.to_csr_relabeled(&relabeling);
            let layout_instance =
                FriendingInstance::relabeled(&layout_csr, s, t, relabeling.clone())
                    .expect("screened pair is valid under relabeling");
            let layout_pool =
                arena_sample_pool(&layout_instance, config.walks, config.seed, config.threads);
            assert_eq!(
                plain_pool,
                layout_pool,
                "{} layout diverged from the plain layout",
                order.name()
            );
            let mut sample_ns = u128::MAX;
            let mut solve_ns = u128::MAX;
            for _ in 0..config.reps.max(1) {
                let start = Instant::now();
                let pool =
                    arena_sample_pool(&layout_instance, config.walks, config.seed, config.threads);
                sample_ns = sample_ns.min(start.elapsed().as_nanos());
                let start = Instant::now();
                let sol = arena_solve(n, pool, config.beta);
                solve_ns = solve_ns.min(start.elapsed().as_nanos());
                assert_eq!(
                    sol.cost(),
                    arena_cost,
                    "{} solve diverged from the plain solve",
                    order.name()
                );
            }
            if order == RelabelOrder::HubBfs {
                relabeled_sample_ns = sample_ns;
                relabeled_solve_ns = solve_ns;
            }
            layouts.push(LayoutTiming { order, sample_ns, solve_ns });
        }
    }

    SamplingBenchReport {
        config,
        nodes: csr.node_count(),
        edges: csr.edge_count(),
        pair: (s.index(), t.index()),
        type1,
        unique_paths,
        pmax_estimate,
        cover_p,
        legacy_sample_ns,
        legacy_solve_ns,
        arena_sample_ns,
        arena_solve_ns,
        relabeled_sample_ns,
        relabeled_solve_ns,
        layouts,
        pool_arena_bytes,
        legacy_cost,
        arena_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Legacy sort-dedup vs arena streaming interner: exact multiset
    /// equality of `(path, multiplicity)` pairs for one seed's walk
    /// multiset, sampled at `threads` threads by both pipelines.
    fn assert_pipelines_agree(nodes: usize, walks: u64, seed: u64, threads: usize) {
        let (csr, s, t) = workload(nodes, seed);
        let instance = FriendingInstance::new(&csr, s, t).unwrap();
        let legacy_csr = LegacyCsr::from_csr(&csr);
        let legacy = legacy_sample_pool(&instance, &legacy_csr, walks, seed, threads);
        let arena = arena_sample_pool(&instance, walks, seed, threads);
        // Same seeds ⇒ the exact same walk multiset ⇒ identical pmax.
        assert_eq!(legacy.type1_paths.len(), arena.type1_count(), "threads={threads}");
        let legacy_pmax = legacy.type1_paths.len() as f64 / walks as f64;
        assert_eq!(arena.pmax_estimate(), legacy_pmax, "threads={threads}");
        let total: usize = arena.iter().map(|(_, m)| m as usize).sum();
        assert_eq!(total, arena.type1_count());
        // Legacy-with-duplicates vs arena sorted-unique: sorting the
        // legacy walks (the multi-threaded legacy path is pre-sorted, the
        // sequential one unsorted, as in the pre-arena code) and
        // run-length encoding must equal the arena.
        let mut as_u32: Vec<Vec<u32>> = legacy
            .type1_paths
            .iter()
            .map(|tp| tp.iter().map(|v| v.index() as u32).collect())
            .collect();
        as_u32.sort();
        let mut runs: Vec<(&[u32], usize)> = Vec::new();
        for p in &as_u32 {
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
        // merge against the legacy mutex-and-sort aggregation, including
        // whatever RAF_THREADS the CI matrix sets.
        let env = raf_model::sampler::threads_from_env();
        for seed in [3u64, 11] {
            for threads in [1usize, 2, 4, env] {
                assert_pipelines_agree(400, 20_000, seed, threads);
            }
        }
    }

    #[test]
    fn scenario_matrix_covers_the_spec() {
        let matrix = scenario_matrix();
        // Synthetic lineage (4 × 2 × 2) plus the dataset lineage:
        // {wiki, hepth, hepph} × {1, 4}, the scaled Youtube cell, and
        // the 1M-node Youtube bake-off cell.
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
        // The 1M cell is the bake-off cell; nothing else is.
        let one_m = find_scenario("dataset_youtube_1m_t4").unwrap();
        assert!(one_m.bakeoff && one_m.nodes == 1_000_000);
        assert_eq!(matrix.iter().filter(|s| s.bakeoff).count(), 1);
        // Quick keeps the synthetic 10k slice and every non-bake-off
        // dataset cell; the 1M graph belongs to the weekly full matrix.
        let quick = quick_matrix();
        assert!(quick
            .iter()
            .all(|s| !matches!(s.workload, Workload::Synthetic(_)) || s.nodes == 10_000));
        assert_eq!(quick.len(), Topology::ALL.len() * 2 + 3 * 2 + 1);
        assert!(quick.iter().any(|s| s.name() == "dataset_youtube_220k_t4"));
        assert!(quick.iter().all(|s| !s.bakeoff), "--quick must skip the bake-off cell");
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
            assert!(!report.has_relabeled(), "synthetic cells skip the hub layout");
            assert_eq!(
                report.legacy_cost,
                report.arena_cost,
                "{}: pipelines disagree",
                topology.name()
            );
        }
    }

    #[test]
    fn dataset_workload_measures_the_hub_layout() {
        // A scaled-down Wiki cell: the dataset path must load the
        // stand-in, keep the pipelines in agreement, and time the hub-BFS
        // layout (whose pool equality is asserted inside the runner).
        let config = SamplingBenchConfig {
            workload: Workload::Dataset(Dataset::Wiki),
            nodes: 400,
            walks: 6_000,
            seed: 3,
            reps: 1,
            ..Default::default()
        };
        let report = run_sampling_bench(config);
        assert!(report.type1 > 0, "empty pool on the wiki stand-in");
        // On dense dataset workloads the weighted portfolio can legally
        // find a *cheaper* union than the duplicated-family legacy solve
        // (the p-smallest arm takes whole high-multiplicity paths instead
        // of an interleaved prefix of copies), so costs are bounded, not
        // equal, here — the exact equality pipelines keep is pool-level.
        assert!(report.arena_cost <= report.legacy_cost, "weighted solve worse than duplicated");
        assert!(report.arena_cost > 0);
        assert!(report.has_relabeled(), "dataset cells must time the hub layout");
        assert!(report.relabeled_sample_ns > 0 && report.relabeled_solve_ns > 0);
        assert!(report.relabel_speedup() > 0.0);
        // A non-bake-off dataset cell times hub-BFS alone — no layout_ns.
        assert_eq!(report.layouts.len(), 1);
        assert_eq!(report.layouts[0].order, RelabelOrder::HubBfs);
        let json = report.to_json();
        assert!(json.contains("\"relabeled_ns\""));
        assert!(json.contains("\"relabel_speedup\""));
        assert!(!json.contains("\"layout_ns\""), "single-layout cells must not emit layout_ns");
        let value = crate::history::parse_json(&json).unwrap();
        assert_eq!(
            value.get("scenario").and_then(crate::history::JsonValue::as_str),
            Some("dataset_wiki_400_t1")
        );
        assert!(value.path_f64(&["relabeled_ns", "total"]).unwrap() > 0.0);
        assert!(value.path_f64(&["pool", "arena_bytes"]).unwrap() > 0.0);
        assert_eq!(
            value.get("graph").unwrap().get("kind").and_then(crate::history::JsonValue::as_str),
            Some("wiki")
        );
    }

    #[test]
    fn bakeoff_cell_times_every_layout_on_one_pool() {
        // A scaled-down bake-off cell: all three orders must be timed on
        // the same graph (pool equality asserted inside the runner) and
        // the entry must carry a layout_ns column per order.
        let config = SamplingBenchConfig {
            workload: Workload::Dataset(Dataset::Youtube),
            nodes: 600,
            walks: 6_000,
            seed: 3,
            reps: 1,
            bakeoff: true,
            ..Default::default()
        };
        let report = run_sampling_bench(config);
        assert!(report.type1 > 0, "empty pool on the youtube stand-in");
        assert_eq!(report.layouts.len(), RelabelOrder::ALL.len());
        for (timing, order) in report.layouts.iter().zip(RelabelOrder::ALL) {
            assert_eq!(timing.order, order);
            assert!(timing.sample_ns > 0 && timing.solve_ns > 0, "{}", order.name());
        }
        // The hub-BFS column doubles as the back-compatible relabeled_ns.
        assert_eq!(report.layouts[0].sample_ns, report.relabeled_sample_ns);
        assert_eq!(report.layouts[0].solve_ns, report.relabeled_solve_ns);
        let json = report.to_json();
        let value = crate::history::parse_json(&json).unwrap();
        assert_eq!(
            value.get("scenario").and_then(crate::history::JsonValue::as_str),
            Some("dataset_youtube_600_t1")
        );
        for order in RelabelOrder::ALL {
            let total = value.path_f64(&["layout_ns", order.name(), "total"]);
            assert!(total.unwrap() > 0.0, "layout_ns lacks {}", order.name());
        }
        assert_eq!(
            value.path_f64(&["layout_ns", "hub_bfs", "total"]),
            value.path_f64(&["relabeled_ns", "total"]),
        );
        // The entry survives a history round trip (parse → render →
        // parse), which is what the append-only file does on every run.
        let mut history = crate::history::BenchHistory::default();
        history.push(value.clone());
        let reloaded = crate::history::BenchHistory::from_text(&history.to_text()).unwrap();
        assert_eq!(reloaded.entries[0].path_f64(&["layout_ns", "rcm", "total"]), {
            value.path_f64(&["layout_ns", "rcm", "total"])
        });
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
        assert_eq!(report.legacy_cost, report.arena_cost, "pipelines disagree on solution cost");
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"speedup\""));
        // The entry parses with the history JSON reader and carries the
        // scenario/profile keys the regression gate groups by.
        let value = crate::history::parse_json(&json).unwrap();
        assert_eq!(
            value.get("scenario").and_then(crate::history::JsonValue::as_str),
            Some("powerlaw_cluster_400_t1")
        );
        assert_eq!(value.get("profile").and_then(crate::history::JsonValue::as_str), Some("full"));
        assert!(value.path_f64(&["arena_ns", "total"]).unwrap() > 0.0);
        assert!(value.path_f64(&["pool", "arena_bytes"]).unwrap() > 0.0);
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
