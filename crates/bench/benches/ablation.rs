//! Ablation benches for the design choices called out in DESIGN.md:
//! cover-solver choice, the `V_max` reduction, and realization budgets.
//!
//! The solver ablation runs `solve_msc` on one pool's cover instance; the
//! others time the whole `RafAlgorithm` pipeline. These quantify the
//! engineering trade-offs rather than reproduce a paper artifact; results
//! feed the "Further Discussion" analysis in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raf_core::{ParameterSet, RafAlgorithm, RafConfig, RealizationBudget};
use raf_cover::{
    cover_requirement, solve_msc, ChlamtacPortfolio, CoverInstance, GreedyMarginal, MpuSolver,
};
use raf_datasets::{sample_pairs, synthetic, Dataset, PairSamplerConfig};
use raf_graph::{CsrGraph, NodeId};
use raf_model::sampler::SampleRequest;
use raf_model::FriendingInstance;

fn standin() -> CsrGraph {
    synthetic::generate(Dataset::HepTh, 0.01, 7).unwrap().to_csr()
}

fn instance_on(csr: &CsrGraph) -> FriendingInstance<'_> {
    let pairs = sample_pairs(
        csr,
        &PairSamplerConfig { pairs: 1, screen_samples: 1_000, seed: 5, ..Default::default() },
    );
    let p = pairs.first().expect("screened pair");
    FriendingInstance::new(csr, NodeId::new(p.s as usize), NodeId::new(p.t as usize)).unwrap()
}

/// Ablation 1: cover-solver choice on the cover a 10k-walk `α = 0.3` run
/// solves: the portfolio every RAF path runs against greedy alone.
fn bench_solvers(c: &mut Criterion) {
    let csr = standin();
    let instance = instance_on(&csr);
    let pool = SampleRequest::new(10_000).seed(instance.pair_seed(9)).run(&instance);
    let cover = CoverInstance::from_path_pool(csr.node_count(), pool).unwrap();
    let beta = ParameterSet::solve(0.3, 0.01, csr.node_count()).unwrap().beta;
    let p = cover_requirement(beta, cover.total_weight());
    let solvers: [(&str, Box<dyn MpuSolver>); 2] = [
        ("portfolio", Box::new(ChlamtacPortfolio::new())),
        ("greedy_only", Box::new(GreedyMarginal::new())),
    ];
    let mut group = c.benchmark_group("ablation_solver");
    group.sample_size(10);
    for (name, solver) in &solvers {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| solve_msc(solver.as_ref(), &cover, p).unwrap())
        });
    }
    group.finish();
}

/// Ablation 2: the Sec. III-C `V_max` reduction on/off.
fn bench_vmax_reduction(c: &mut Criterion) {
    let csr = standin();
    let instance = instance_on(&csr);
    let mut group = c.benchmark_group("ablation_vmax_reduction");
    group.sample_size(10);
    for (name, on) in [("with_vmax", true), ("without_vmax", false)] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut cfg =
                RafConfig::with_alpha(0.3).seed(9).budget(RealizationBudget::Fixed(10_000));
            cfg.use_vmax_reduction = on;
            let raf = RafAlgorithm::new(cfg);
            b.iter(|| raf.run(&instance).unwrap())
        });
    }
    group.finish();
}

/// Ablation 3: pipeline cost vs realization budget (the practical knob
/// the paper's Sec. IV-E discusses).
fn bench_budget_scaling(c: &mut Criterion) {
    let csr = standin();
    let instance = instance_on(&csr);
    let mut group = c.benchmark_group("ablation_budget_scaling");
    group.sample_size(10);
    for l in [2_000u64, 10_000, 50_000] {
        group.bench_function(BenchmarkId::from_parameter(l), |b| {
            let cfg = RafConfig::with_alpha(0.3).seed(9).budget(RealizationBudget::Fixed(l));
            let raf = RafAlgorithm::new(cfg);
            b.iter(|| raf.run(&instance).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_vmax_reduction, bench_budget_scaling);
criterion_main!(benches);
