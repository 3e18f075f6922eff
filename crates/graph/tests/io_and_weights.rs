//! Integration tests for the graph crate: IO round-trips at scale.

use raf_graph::generators::barabasi_albert;
use raf_graph::io::{read_edge_list, write_edge_list, EdgeListOptions};
use raf_graph::WeightScheme;
use rand::SeedableRng;

#[test]
fn io_roundtrip_on_generated_graph() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let g =
        barabasi_albert(500, 3, &mut rng).unwrap().build(WeightScheme::UniformByDegree).unwrap();
    let mut buffer = Vec::new();
    write_edge_list(&g, &mut buffer, "roundtrip").unwrap();
    let g2 = read_edge_list(&buffer[..], &EdgeListOptions::default())
        .unwrap()
        .build(WeightScheme::UniformByDegree)
        .unwrap();
    assert_eq!(g.node_count(), g2.node_count());
    assert_eq!(g.edge_count(), g2.edge_count());
    // Same degree sequence (ids are compacted in first-appearance order,
    // so compare multisets).
    let mut d1: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let mut d2: Vec<usize> = g2.nodes().map(|v| g2.degree(v)).collect();
    d1.sort_unstable();
    d2.sort_unstable();
    assert_eq!(d1, d2);
}
