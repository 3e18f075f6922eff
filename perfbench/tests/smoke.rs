//! Toy-scale smoke test of every workload: each runs on a 400-node
//! stand-in, untraced and traced, and must pass its checks, repeat its
//! answer digest, and print every metric `BENCHMARK.json` declares with
//! the declared unit.

use raf_perfbench::{run, Report, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// `name → unit` of every metric in `BENCHMARK.json`, and its workload
/// names. Reads the two string fields per object with a scanner fitted
/// to the file's flat layout; no JSON crate is available offline.
fn declared() -> (BTreeMap<String, String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let mut units = BTreeMap::new();
    let mut workloads = Vec::new();
    for object in text.split('{').skip(2) {
        let object = object.split('}').next().unwrap_or_default();
        let field = |key: &str| {
            let rest = object.split(&format!("\"{key}\":")).nth(1)?;
            Some(rest.split('"').nth(1)?.to_string())
        };
        match (field("name"), field("unit")) {
            (Some(name), Some(unit)) => {
                units.insert(name, unit);
            }
            (Some(name), None) => workloads.push(name),
            _ => {}
        }
    }
    (units, workloads)
}

/// `name → unit` of the metrics on a run's result line.
fn printed(lines: &[String]) -> BTreeMap<String, String> {
    let result = lines.last().expect("a run prints its result last");
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    let metrics = result.split("\"metrics\": {").nth(1).expect("the result carries metrics");
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let unit = entry.split("\"unit\": \"").nth(1).expect("metric unit");
            (name, unit.split('"').next().unwrap_or_default().to_string())
        })
        .collect()
}

fn toy(workload: Workload, seed: u64, trace: bool) -> Report {
    let config = RunConfig { workload, seed, seconds: 0.01, trace, scale: Scale::Toy };
    let report = run(&config).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
    assert!(report.correct(), "{}: {:?}", workload.name(), report.failures);
    assert!(report.attempted > 0);
    report
}

#[test]
fn benchmark_json_declares_the_workloads_and_metrics() {
    let (units, workloads) = declared();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    let specs: BTreeMap<String, String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(units, specs);
}

#[test]
fn every_workload_prints_its_metrics_with_their_units() {
    let (units, _) = declared();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let metrics = printed(&toy(workload, 1, trace).lines());
            let declared = if trace { PER_LAYER } else { END_TO_END };
            let expected: BTreeMap<String, String> =
                declared.iter().map(|m| (m.name.to_string(), units[m.name].clone())).collect();
            assert_eq!(metrics, expected, "{} trace={trace}", workload.name());
        }
    }
}

#[test]
fn a_seed_repeats_its_answers_and_another_seed_runs_cleanly() {
    for workload in Workload::ALL {
        let first = toy(workload, 5, false);
        let traced = toy(workload, 5, true);
        assert_eq!(first.answers_digest, traced.answers_digest, "{}", workload.name());
        let other = toy(workload, 6, false);
        assert_ne!(first.answers_digest, other.answers_digest, "{}", workload.name());
    }
}
