//! SNAP edge-list parser conformance: golden fixtures under `tests/data/`
//! exercising comment styles, CRLF endings, duplicate/reversed edges,
//! self-loops, whitespace variants, and non-contiguous (u64-sized) ids,
//! through both `read_edge_list_path` and the `load_dataset` round trip
//! (plain and hub-BFS relabeled CSR), with exact node/edge-count
//! assertions.

use raf_datasets::{load_dataset, Dataset, DatasetSource};
use raf_graph::io::{parse_edge_list, read_edge_list_path, EdgeListOptions};
use raf_graph::{GraphError, NodeId, Relabeling, WeightScheme};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data").join(name)
}

/// Unique-per-test scratch directory shaped like a `data/` directory,
/// removed on drop.
struct ScratchDataDir {
    path: PathBuf,
}

impl ScratchDataDir {
    fn new(test: &str) -> Self {
        let unique = format!(
            "raf_snap_conformance_{test}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        let path = std::env::temp_dir().join(unique);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        ScratchDataDir { path }
    }

    /// Installs a fixture as this directory's `hepth.txt` real-data file.
    fn install(&self, fixture_name: &str) {
        std::fs::copy(fixture(fixture_name), self.path.join("hepth.txt")).unwrap();
    }
}

impl Drop for ScratchDataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `(fixture, expected nodes, expected edges)` under default options.
const GOLDEN: &[(&str, usize, usize)] = &[
    ("comments.txt", 5, 5),
    ("crlf.txt", 4, 3),
    ("duplicates.txt", 5, 3),
    ("selfloops.txt", 3, 2),
    ("whitespace.txt", 5, 4),
    ("noncontiguous.txt", 4, 3),
];

#[test]
fn golden_fixtures_parse_to_exact_counts() {
    for &(name, nodes, edges) in GOLDEN {
        let builder = read_edge_list_path(&fixture(name), &EdgeListOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(builder.node_count(), nodes, "{name}: node count");
        assert_eq!(builder.edge_count(), edges, "{name}: edge count");
        // The parsed builder must build a graph of the same counts.
        let graph = builder.build(WeightScheme::UniformByDegree).unwrap();
        assert_eq!((graph.node_count(), graph.edge_count()), (nodes, edges), "{name}: graph");
    }
}

#[test]
fn golden_fixtures_round_trip_through_load_dataset() {
    for &(name, nodes, edges) in GOLDEN {
        let dir = ScratchDataDir::new("roundtrip");
        dir.install(name);
        let loaded = load_dataset(Dataset::HepTh, 1.0, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Real, "{name}: expected the real-data path");
        assert_eq!(loaded.graph.node_count(), nodes, "{name}: node count via loader");
        assert_eq!(loaded.graph.edge_count(), edges, "{name}: edge count via loader");
    }
}

#[test]
fn golden_fixtures_survive_the_relabeled_csr_path() {
    // A loaded fixture's plain CSR and its hub-BFS relabeled CSR (the
    // serving benchmark's layout) must preserve exact counts and the
    // degree multiset (isomorphism at the loader boundary).
    for &(name, nodes, edges) in GOLDEN {
        let dir = ScratchDataDir::new("csr");
        dir.install(name);
        let loaded = load_dataset(Dataset::HepTh, 1.0, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Real, "{name}");
        let plain = loaded.graph.to_csr();
        let hub = loaded.graph.to_csr_relabeled(&Relabeling::hub_bfs(&loaded.graph));
        for csr in [&plain, &hub] {
            assert_eq!(csr.node_count(), nodes, "{name}");
            assert_eq!(csr.edge_count(), edges, "{name}");
        }
        let degree_multiset = |csr: &raf_graph::CsrGraph| {
            let mut d: Vec<usize> = csr.nodes().map(|v| csr.degree(v)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degree_multiset(&plain), degree_multiset(&hub), "{name}");
    }
}

#[test]
fn noncontiguous_ids_compact_in_first_seen_order() {
    let builder =
        read_edge_list_path(&fixture("noncontiguous.txt"), &EdgeListOptions::default()).unwrap();
    let graph = builder.build(WeightScheme::UniformByDegree).unwrap();
    // First-seen order: 1000000 → 0, 4000000 → 1, 73 → 2, u64::MAX → 3.
    // The edge list is the path 0-1-2-3, so the endpoints have degree 1.
    assert_eq!(graph.degree(NodeId::new(0)), 1);
    assert_eq!(graph.degree(NodeId::new(1)), 2);
    assert_eq!(graph.degree(NodeId::new(2)), 2);
    assert_eq!(graph.degree(NodeId::new(3)), 1);
    assert!(graph.has_edge(NodeId::new(0), NodeId::new(1)));
    assert!(!graph.has_edge(NodeId::new(0), NodeId::new(2)));
}

#[test]
fn strict_mode_rejects_the_selfloop_fixture() {
    let data = std::fs::read(fixture("selfloops.txt")).unwrap();
    let opts = EdgeListOptions { drop_self_loops: false, compact_ids: true };
    match parse_edge_list(&data, &opts) {
        Err(GraphError::SelfLoop { node: 0 }) => {}
        other => panic!("expected a self-loop rejection, got {other:?}"),
    }
}

#[test]
fn crlf_and_unix_endings_parse_identically() {
    let crlf = std::fs::read(fixture("crlf.txt")).unwrap();
    let unix: Vec<u8> = crlf.iter().copied().filter(|&b| b != b'\r').collect();
    let a = parse_edge_list(&crlf, &EdgeListOptions::default()).unwrap();
    let b = parse_edge_list(&unix, &EdgeListOptions::default()).unwrap();
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
}

#[test]
fn parse_errors_point_at_the_offending_line() {
    // Line 3 carries a non-numeric token; the 1-based position must be
    // reported even with comments and blanks above it.
    let data = b"# header\n\nhello world\n".to_vec();
    match parse_edge_list(&data, &EdgeListOptions::default()) {
        Err(GraphError::Parse { line: 3, .. }) => {}
        other => panic!("expected a parse error on line 3, got {other:?}"),
    }
}
