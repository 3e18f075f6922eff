//! Criterion bench for the Alg. 3 pipeline on a 10k-node
//! powerlaw-cluster instance: sampling into the `PathPool` arena, the
//! weighted cover solve in local element ids, and both end to end.
//!
//! `raf bench-json` times the same pipeline over the scenario matrix via
//! [`raf_bench::sampling::run_sampling_bench`] and records it in
//! `BENCH_sampling.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use raf_bench::sampling::{arena_sample_pool, arena_solve, workload};
use raf_model::FriendingInstance;

const NODES: usize = 10_000;
const WALKS: u64 = 50_000;
const SEED: u64 = 7;
const BETA: f64 = 0.3;

fn bench_sampling_pipeline(c: &mut Criterion) {
    let (csr, s, t) = workload(NODES, SEED);
    let instance = FriendingInstance::new(&csr, s, t).expect("screened pair");
    let n = csr.node_count();
    let mut group = c.benchmark_group("sampling_pipeline");
    group.sample_size(5);
    group.bench_function("arena_sample", |b| {
        b.iter(|| arena_sample_pool(&instance, WALKS, SEED, 1))
    });
    let arena_pool = arena_sample_pool(&instance, WALKS, SEED, 1);
    group.bench_function("arena_solve", |b| b.iter(|| arena_solve(n, arena_pool.clone(), BETA)));
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
