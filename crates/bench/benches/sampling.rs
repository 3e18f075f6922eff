//! Criterion bench for the arena realization pool: legacy (per-walk
//! `Vec`, mutex + sort, per-set copy) vs arena (`PathPool` + weighted
//! cover in local element ids) pipelines on a 10k-node powerlaw-cluster
//! instance.
//!
//! `raf bench-json` runs the same workloads via
//! [`raf_bench::sampling::run_sampling_bench`] and records the measured
//! speedup in `BENCH_sampling.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use raf_bench::sampling::{
    arena_sample_pool, arena_solve, legacy_sample_pool, legacy_solve, workload, LegacyCsr,
};
use raf_model::FriendingInstance;

const NODES: usize = 10_000;
const WALKS: u64 = 50_000;
const SEED: u64 = 7;
const BETA: f64 = 0.3;

fn bench_sampling_pipeline(c: &mut Criterion) {
    let (csr, s, t) = workload(NODES, SEED);
    let instance = FriendingInstance::new(&csr, s, t).expect("screened pair");
    let n = csr.node_count();
    let legacy_csr = LegacyCsr::from_csr(&csr);
    let mut group = c.benchmark_group("sampling_pipeline");
    group.sample_size(5);
    group.bench_function("legacy_sample", |b| {
        b.iter(|| legacy_sample_pool(&instance, &legacy_csr, WALKS, SEED, 1))
    });
    group.bench_function("arena_sample", |b| {
        b.iter(|| arena_sample_pool(&instance, WALKS, SEED, 1))
    });
    let legacy_pool = legacy_sample_pool(&instance, &legacy_csr, WALKS, SEED, 1);
    group.bench_function("legacy_solve", |b| b.iter(|| legacy_solve(n, &legacy_pool, BETA)));
    let arena_pool = arena_sample_pool(&instance, WALKS, SEED, 1);
    group.bench_function("arena_solve", |b| b.iter(|| arena_solve(n, arena_pool.clone(), BETA)));
    group.bench_function("legacy_end_to_end", |b| {
        b.iter(|| {
            let pool = legacy_sample_pool(&instance, &legacy_csr, WALKS, SEED, 1);
            legacy_solve(n, &pool, BETA)
        })
    });
    group.bench_function("arena_end_to_end", |b| {
        b.iter(|| {
            let pool = arena_sample_pool(&instance, WALKS, SEED, 1);
            arena_solve(n, pool, BETA)
        })
    });
    group.finish();
}

fn bench_pool_coverage(c: &mut Criterion) {
    use raf_model::InvitationSet;
    let (csr, s, t) = workload(NODES, SEED);
    let instance = FriendingInstance::new(&csr, s, t).expect("screened pair");
    let pool = arena_sample_pool(&instance, WALKS, SEED, 1);
    let full = InvitationSet::full(csr.node_count());
    c.bench_function("arena_pool_coverage_full", |b| b.iter(|| pool.coverage(&full)));
}

criterion_group!(benches, bench_sampling_pipeline, bench_pool_coverage);
criterion_main!(benches);
