//! Criterion benches regenerating each paper artifact at reduced scale —
//! one bench per table and per figure from Fig. 4 on. Fig. 3 is a
//! `raf experiment` sweep, which the `sweep` unit tests drive.
//!
//! The full-scale regenerators are the `raf-bench` binaries (`cargo run
//! -p raf-bench --bin fig4` etc.); these benches use
//! [`ExperimentConfig::bench_scale`] to stay fast.

use criterion::{criterion_group, criterion_main, Criterion};
use raf_bench::experiments::{fig45, fig6, table1, table2};
use raf_bench::ExperimentConfig;
use raf_datasets::Dataset;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::bench_scale()
}

fn bench_table1(c: &mut Criterion) {
    let config = cfg();
    c.bench_function("table1_dataset_statistics", |b| b.iter(|| table1::run(&config)));
}

fn bench_fig4(c: &mut Criterion) {
    let config = cfg();
    let mut group = c.benchmark_group("fig4_ratio_vs_highdegree");
    group.sample_size(10);
    group.bench_function("wiki", |b| {
        b.iter(|| fig45::run(&config, Dataset::Wiki, fig45::RatioBaseline::HighDegree))
    });
    group.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let config = cfg();
    let mut group = c.benchmark_group("fig5_ratio_vs_shortestpath");
    group.sample_size(10);
    group.bench_function("wiki", |b| {
        b.iter(|| fig45::run(&config, Dataset::Wiki, fig45::RatioBaseline::ShortestPath))
    });
    group.finish();
}

fn bench_table2(c: &mut Criterion) {
    let config = cfg();
    let mut group = c.benchmark_group("table2_vmax_vs_raf");
    group.sample_size(10);
    group.bench_function("wiki", |b| b.iter(|| table2::run(&config, Dataset::Wiki)));
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let config = cfg();
    let mut group = c.benchmark_group("fig6_probability_vs_realizations");
    group.sample_size(10);
    group.bench_function("wiki", |b| b.iter(|| fig6::run(&config, Dataset::Wiki)));
    group.finish();
}

criterion_group!(benches, bench_table1, bench_fig4, bench_fig5, bench_table2, bench_fig6);
criterion_main!(benches);
