//! The multi-target campaign benchmark behind the `campaign_*` scenario
//! cells.
//!
//! Measures what the campaign generalization costs end to end: `k`
//! per-target pools sampled through the unified [`SampleRequest`] API
//! (per-target seeds derived with [`pair_seed`], exactly as the serve
//! cache derives them) feeding **one** joint [`allocate_budget`] call —
//! against `k` genuinely independent single-target pipelines over the
//! frozen [`legacy_sample_pool`] replica, each solving its own
//! equal-split budget slice. Both sides sample the same walk multiset
//! per target (same seeds, same selection arithmetic), so the wall-clock
//! ratio isolates the arena + joint-allocation machinery, and the joint
//! objective can be asserted to dominate the independent splits on equal
//! pools.
//!
//! Unlike serving and churn cells, campaign entries **do** record
//! `arena_ns`/`legacy_ns` totals in the pipeline shape, so the existing
//! CI regression gate (machine-normalized by the legacy sampling phase)
//! covers the campaign path with no new gate code (see
//! [`Scenario::campaign`]).

use crate::sampling::{legacy_sample_pool, BenchProfile, LegacyCsr, Scenario, Workload};
use raf_cover::{allocate_budget, Allocation, BudgetTarget, CoverInstance};
use raf_datasets::{load_dataset, sample_campaigns, Dataset, DatasetSource, PairSamplerConfig};
use raf_graph::NodeId;
use raf_model::sampler::{pair_seed, SampleRequest};
use raf_model::FriendingInstance;
use std::path::PathBuf;
use std::time::Instant;

/// Knobs of one campaign benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignBenchConfig {
    /// The Table-I dataset backing the graph.
    pub dataset: Dataset,
    /// Requested node count (the dataset is scaled to it).
    pub nodes: usize,
    /// Sampler threads (both sides use the same count per pool).
    pub threads: usize,
    /// Campaign targets `k`.
    pub targets: usize,
    /// Shared invitation budget allocated across the targets.
    pub budget: usize,
    /// Backward walks per target pool.
    pub walks: u64,
    /// Master seed (graph generation, target screening; per-target
    /// sampling seeds derive via [`pair_seed`]).
    pub seed: u64,
    /// Timed repetitions per side; the minimum is reported.
    pub reps: usize,
    /// History-lineage label (see [`BenchProfile`]).
    pub profile: &'static str,
    /// Directory searched for real SNAP files.
    pub data_dir: PathBuf,
}

/// The benchmark configuration for one campaign scenario cell under a
/// profile.
///
/// # Panics
///
/// Panics when the scenario is not a campaign cell (campaign cells are
/// dataset-only by construction of the matrix).
pub fn campaign_config(scenario: Scenario, profile: BenchProfile) -> CampaignBenchConfig {
    let Workload::Dataset(dataset) = scenario.workload else {
        panic!("campaign cells are dataset-only; got {}", scenario.name());
    };
    assert!(scenario.campaign, "{} is not a campaign cell", scenario.name());
    let (targets, budget) = match profile {
        BenchProfile::Full => (4, 16),
        BenchProfile::Quick => (3, 8),
    };
    CampaignBenchConfig {
        dataset,
        nodes: scenario.nodes,
        threads: scenario.threads,
        targets,
        budget,
        walks: profile.walks(),
        seed: 13,
        reps: profile.reps(),
        profile: profile.name(),
        data_dir: PathBuf::from("data"),
    }
}

impl CampaignBenchConfig {
    /// The scenario cell this configuration measures.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            workload: Workload::Dataset(self.dataset),
            nodes: self.nodes,
            threads: self.threads,
            bakeoff: false,
            serving: false,
            churn: false,
            campaign: true,
        }
    }
}

/// Measured outcome of one campaign benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignBenchReport {
    /// The configuration that produced this report.
    pub config: CampaignBenchConfig,
    /// `"real"` or `"synthetic"` graph source.
    pub source: &'static str,
    /// Nodes of the loaded graph.
    pub nodes: usize,
    /// Edges of the loaded graph.
    pub edges: usize,
    /// The campaign source (graph id).
    pub s: u32,
    /// The screened targets, ascending (graph ids).
    pub targets: Vec<u32>,
    /// Legacy side: k independent per-walk-allocating samplers, best of
    /// reps, summed over targets (ns).
    pub legacy_sample_ns: u128,
    /// Legacy side: k independent duplicated-family builds plus one
    /// single-target budgeted greedy per equal-split slice (ns).
    pub legacy_solve_ns: u128,
    /// Arena side: k [`SampleRequest`] pools, best of reps (ns).
    pub arena_sample_ns: u128,
    /// Arena side: k zero-copy cover handoffs plus one joint
    /// [`allocate_budget`] (ns).
    pub arena_solve_ns: u128,
    /// Summed acceptance estimate of the k independent legacy campaigns.
    pub legacy_objective: f64,
    /// The joint allocation both sides are compared against.
    pub allocation: Allocation,
    /// Type-1 walks summed over the arena target pools.
    pub type1_total: u64,
}

impl CampaignBenchReport {
    /// End-to-end wall-clock ratio, legacy over arena.
    pub fn speedup(&self) -> f64 {
        (self.legacy_sample_ns + self.legacy_solve_ns) as f64
            / (self.arena_sample_ns + self.arena_solve_ns).max(1) as f64
    }

    /// Joint-allocation gain over the independent equal-split campaigns
    /// (≥ 0 up to float summation noise — the dominance invariant).
    pub fn joint_gain(&self) -> f64 {
        self.allocation.objective - self.legacy_objective
    }

    /// Hand-rolled JSON rendering (stable field order): one
    /// `BENCH_sampling.json` history entry of the `campaign` lineage.
    /// Deliberately records `legacy_ns`/`arena_ns` in the pipeline shape
    /// so [`crate::history::BenchHistory::baseline_total_ns`] and the
    /// machine-factor calibration gate campaign cells unchanged.
    pub fn to_json(&self) -> String {
        let targets = self.targets.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ");
        let arm_objectives = self
            .allocation
            .arm_objectives
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"scenario\": \"{}\",\n  \"profile\": \"{}\",\n  \"graph\": {{ \"kind\": \"{}\", \"source\": \"{}\", \"nodes\": {}, \"edges\": {} }},\n  \"config\": {{ \"walks\": {}, \"seed\": {}, \"threads\": {}, \"targets\": {}, \"budget\": {}, \"reps\": {} }},\n  \"legacy_ns\": {{ \"sample\": {}, \"solve\": {}, \"total\": {} }},\n  \"arena_ns\": {{ \"sample\": {}, \"solve\": {}, \"total\": {} }},\n  \"campaign\": {{ \"s\": {}, \"targets\": [{}], \"type1_total\": {}, \"invitations\": {}, \"arm\": \"{}\", \"objective\": {:.6}, \"arm_objectives\": [{}], \"independent_objective\": {:.6} }}\n}}\n",
            self.config.scenario().name(),
            self.config.profile,
            self.config.dataset.spec().file_stem,
            self.source,
            self.nodes,
            self.edges,
            self.config.walks,
            self.config.seed,
            self.config.threads,
            self.config.targets,
            self.config.budget,
            self.config.reps,
            self.legacy_sample_ns,
            self.legacy_solve_ns,
            self.legacy_sample_ns + self.legacy_solve_ns,
            self.arena_sample_ns,
            self.arena_solve_ns,
            self.arena_sample_ns + self.arena_solve_ns,
            self.s,
            targets,
            self.type1_total,
            self.allocation.chosen.len(),
            self.allocation.arm.name(),
            self.allocation.objective,
            arm_objectives,
            self.legacy_objective,
        )
    }
}

/// Runs the campaign benchmark: load the dataset on the plain layout,
/// screen one `k`-target campaign, then time both sides `reps` times
/// each and report best-of-reps phase totals. Panics (rather than
/// reporting garbage) when no campaign screens, when the joint
/// allocation diverges across reps, or when the dominance invariant
/// fails — each would mean the measurement is wrong, not slow.
pub fn run_campaign_bench(config: CampaignBenchConfig) -> CampaignBenchReport {
    assert!(config.targets > 0 && config.budget > 0, "degenerate campaign cell");
    let scale = config.nodes as f64 / config.dataset.spec().nodes as f64;
    let loaded = load_dataset(config.dataset, scale, config.seed, &config.data_dir)
        .expect("dataset loading cannot fail at bench scales");
    let source = match loaded.source {
        DatasetSource::Real => "real",
        DatasetSource::Synthetic => "synthetic",
    };
    let csr = loaded.graph.to_csr();
    let campaign_cfg = PairSamplerConfig {
        pairs: 1,
        screen_samples: 2_000,
        seed: config.seed.wrapping_mul(31).wrapping_add(7),
        ..Default::default()
    };
    let campaign = sample_campaigns(&csr, &campaign_cfg, config.targets)
        .into_iter()
        .next()
        .expect("no campaign screened successfully; change the seed");
    let s = NodeId::new(campaign.s as usize);
    let instances: Vec<FriendingInstance<'_>> = campaign
        .targets
        .iter()
        .map(|&t| {
            FriendingInstance::new(&csr, s, NodeId::new(t as usize))
                .expect("screened campaign targets are valid")
        })
        .collect();
    let seeds: Vec<u64> =
        campaign.targets.iter().map(|&t| pair_seed(config.seed, campaign.s, t)).collect();
    let n = csr.node_count();
    let legacy_csr = LegacyCsr::from_csr(&csr);

    // Legacy side: k fully independent single-target campaigns, each
    // sampling its own per-walk-allocating pool and solving its own
    // equal-split slice (the pre-campaign way to serve k targets).
    let base = config.budget / config.targets;
    let extra = config.budget % config.targets;
    let mut legacy_sample_ns = u128::MAX;
    let mut legacy_solve_ns = u128::MAX;
    let mut legacy_objective = 0.0f64;
    for _ in 0..config.reps.max(1) {
        let start = Instant::now();
        let pools: Vec<_> = instances
            .iter()
            .zip(&seeds)
            .map(|(inst, &seed)| {
                legacy_sample_pool(inst, &legacy_csr, config.walks, seed, config.threads)
            })
            .collect();
        legacy_sample_ns = legacy_sample_ns.min(start.elapsed().as_nanos());

        let start = Instant::now();
        let mut objective = 0.0f64;
        for (i, pool) in pools.iter().enumerate() {
            // The pre-arena cover handoff: one fresh `Vec` per path copy.
            let sets: Vec<Vec<u32>> = pool
                .type1_paths
                .iter()
                .map(|tp| tp.iter().map(|v| v.index() as u32).collect())
                .collect();
            let cover = CoverInstance::new(n, sets).expect("legacy sets in range");
            let target = BudgetTarget { sets: &cover, total_samples: pool.total_samples };
            let slice = base + usize::from(i < extra);
            let alloc = allocate_budget(std::slice::from_ref(&target), slice)
                .expect("single-target allocation is always valid");
            objective += alloc.objective;
        }
        legacy_solve_ns = legacy_solve_ns.min(start.elapsed().as_nanos());
        legacy_objective = objective;
    }

    // Arena side: k `SampleRequest` pools (the serve cache's exact
    // per-target seeds) feeding one joint allocation.
    let mut arena_sample_ns = u128::MAX;
    let mut arena_solve_ns = u128::MAX;
    let mut allocation: Option<Allocation> = None;
    let mut type1_total = 0u64;
    for _ in 0..config.reps.max(1) {
        let start = Instant::now();
        let pools: Vec<_> = instances
            .iter()
            .zip(&seeds)
            .map(|(inst, &seed)| {
                SampleRequest::new(config.walks).seed(seed).threads(config.threads).run(inst)
            })
            .collect();
        arena_sample_ns = arena_sample_ns.min(start.elapsed().as_nanos());
        type1_total = pools.iter().map(|p| p.type1_count() as u64).sum();

        let start = Instant::now();
        let mut total_samples: Vec<u64> = Vec::with_capacity(pools.len());
        let covers: Vec<CoverInstance> = pools
            .into_iter()
            .map(|pool| {
                total_samples.push(pool.total_samples());
                CoverInstance::from_path_pool(n, pool).expect("pool ids in range")
            })
            .collect();
        let targets: Vec<BudgetTarget<'_>> = covers
            .iter()
            .zip(&total_samples)
            .map(|(sets, &ts)| BudgetTarget { sets, total_samples: ts })
            .collect();
        let alloc = allocate_budget(&targets, config.budget)
            .expect("screened campaign allocation is always valid");
        arena_solve_ns = arena_solve_ns.min(start.elapsed().as_nanos());
        match &allocation {
            None => allocation = Some(alloc),
            Some(prev) => assert_eq!(prev, &alloc, "joint allocation diverged across reps"),
        }
    }
    let allocation = allocation.expect("reps >= 1");
    // Both sides sample the same walk multiset per target, so the joint
    // allocation must dominate the independent equal-split campaigns.
    assert!(
        allocation.objective >= legacy_objective - 1e-9,
        "joint allocation lost to the independent split: {} vs {}",
        allocation.objective,
        legacy_objective
    );

    CampaignBenchReport {
        source,
        nodes: csr.node_count(),
        edges: csr.edge_count(),
        s: campaign.s,
        targets: campaign.targets.clone(),
        legacy_sample_ns,
        legacy_solve_ns,
        arena_sample_ns,
        arena_solve_ns,
        legacy_objective,
        allocation,
        type1_total,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::find_scenario;

    fn tiny_config() -> CampaignBenchConfig {
        CampaignBenchConfig {
            dataset: Dataset::Wiki,
            nodes: 400,
            threads: 1,
            targets: 3,
            budget: 6,
            walks: 4_000,
            seed: 13,
            reps: 1,
            profile: "full",
            data_dir: PathBuf::from("data"),
        }
    }

    #[test]
    fn campaign_config_applies_profile() {
        let s = find_scenario("campaign_wiki_7k_t1").unwrap();
        let quick = campaign_config(s, BenchProfile::Quick);
        assert_eq!(quick.dataset, Dataset::Wiki);
        assert_eq!(quick.nodes, 7_000);
        assert_eq!(quick.threads, 1);
        assert_eq!(quick.walks, BenchProfile::Quick.walks());
        assert_eq!(quick.profile, "quick");
        assert_eq!(quick.scenario(), s);
        let full = campaign_config(s, BenchProfile::Full);
        assert_eq!(full.walks, 200_000);
        assert!(full.targets > quick.targets && full.budget > quick.budget);
    }

    #[test]
    #[should_panic(expected = "not a campaign cell")]
    fn campaign_config_rejects_pipeline_cells() {
        let s = find_scenario("dataset_wiki_7k_t1").unwrap();
        campaign_config(s, BenchProfile::Quick);
    }

    #[test]
    fn campaign_bench_joint_dominates_the_split() {
        let config = tiny_config();
        let report = run_campaign_bench(config.clone());
        assert_eq!(report.targets.len(), config.targets);
        assert!(report.targets.windows(2).all(|w| w[0] < w[1]), "targets not canonical");
        assert!(report.type1_total > 0, "no type-1 walks on the stand-in");
        assert!(!report.allocation.chosen.is_empty());
        assert!(report.allocation.chosen.len() <= config.budget);
        // The dominance invariant the runner asserts internally, restated
        // on the report (plus the joint arm never losing to its own
        // split arms on the same pools).
        assert!(report.joint_gain() >= -1e-9);
        assert!(report.allocation.objective >= report.allocation.arm_objectives[1]);
        assert!(report.allocation.objective >= report.allocation.arm_objectives[2]);
        assert!(report.legacy_sample_ns > 0 && report.arena_sample_ns > 0);
    }

    #[test]
    fn campaign_report_json_feeds_the_regression_gate() {
        let report = run_campaign_bench(tiny_config());
        let json = report.to_json();
        let value = crate::history::parse_json(&json).unwrap();
        assert_eq!(
            value.get("scenario").and_then(crate::history::JsonValue::as_str),
            Some("campaign_wiki_400_t1")
        );
        assert_eq!(value.get("profile").and_then(crate::history::JsonValue::as_str), Some("full"));
        // The exact paths the CI gate reads — a campaign entry must gate
        // like a pipeline entry.
        let mut history = crate::history::BenchHistory::default();
        history.push(value.clone());
        let total = history.baseline_total_ns("campaign_wiki_400_t1", "full").unwrap();
        assert_eq!(total, (report.arena_sample_ns + report.arena_solve_ns) as f64);
        let legacy = history.baseline_legacy_sample_ns("campaign_wiki_400_t1", "full").unwrap();
        assert_eq!(legacy, report.legacy_sample_ns as f64);
        assert!(value.path_f64(&["campaign", "objective"]).unwrap() > 0.0);
        assert!(value.path_f64(&["campaign", "type1_total"]).unwrap() > 0.0);
        let reloaded = crate::history::BenchHistory::from_text(&history.to_text()).unwrap();
        assert_eq!(
            reloaded.entries[0].path_f64(&["arena_ns", "total"]),
            value.path_f64(&["arena_ns", "total"])
        );
    }

    #[test]
    fn campaign_runs_are_deterministic_modulo_timing() {
        let a = run_campaign_bench(tiny_config());
        let b = run_campaign_bench(tiny_config());
        assert_eq!(a.s, b.s);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.legacy_objective, b.legacy_objective);
        assert_eq!(a.type1_total, b.type1_total);
    }
}
