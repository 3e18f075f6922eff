//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use raf_graph::generators::{barabasi_albert, erdos_renyi_gnm};
use raf_graph::{connected_components, GraphBuilder, SocialGraph, WeightScheme};
use rand::SeedableRng;

prop_compose! {
    fn edge_lists()(max_node in 2usize..40)
        (edges in proptest::collection::vec((0..max_node, 0..max_node), 0..120),
         max_node in Just(max_node))
        -> (usize, Vec<(usize, usize)>) {
        (max_node, edges)
    }
}

fn build(max_node: usize, edges: &[(usize, usize)]) -> SocialGraph {
    let mut b = GraphBuilder::new();
    b.reserve_nodes(max_node);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build(WeightScheme::UniformByDegree).unwrap()
}

proptest! {
    /// CSR snapshots agree with the adjacency representation everywhere.
    #[test]
    fn csr_equivalent_to_adjacency((max_node, edges) in edge_lists()) {
        let g = build(max_node, &edges);
        let csr = g.to_csr();
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(csr.neighbors(v), g.neighbors(v));
            prop_assert!((csr.total_in_weight(v) - g.total_in_weight(v)).abs() < 1e-12);
            for &u in g.neighbors(v) {
                let a = g.in_weight(u, v).unwrap();
                let b = csr.in_weight(u, v).unwrap();
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }

    /// Uniform-by-degree weights always satisfy the LT normalization.
    #[test]
    fn uniform_weights_normalized((max_node, edges) in edge_lists()) {
        let g = build(max_node, &edges);
        prop_assert!(g.validate().is_ok());
        for v in g.nodes() {
            let total = g.total_in_weight(v);
            if g.degree(v) > 0 {
                prop_assert!((total - 1.0).abs() < 1e-9);
            } else {
                prop_assert_eq!(total, 0.0);
            }
        }
    }

    /// Degree sums equal twice the edge count (handshake lemma).
    #[test]
    fn handshake_lemma((max_node, edges) in edge_lists()) {
        let g = build(max_node, &edges);
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// Component labels partition the node set, and nodes joined by an
    /// edge share a label.
    #[test]
    fn components_partition((max_node, edges) in edge_lists()) {
        let g = build(max_node, &edges);
        let labels = connected_components(&g);
        let sizes = labels.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.node_count());
        for (u, v) in g.edges() {
            prop_assert_eq!(labels.label(u), labels.label(v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generators produce graphs that pass validation and match their
    /// declared node counts.
    #[test]
    fn generators_valid(seed in 0u64..1000, n in 10usize..60) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ba = barabasi_albert(n, 2, &mut rng).unwrap()
            .build(WeightScheme::UniformByDegree).unwrap();
        prop_assert_eq!(ba.node_count(), n);
        prop_assert!(ba.validate().is_ok());

        let m = (n * 2).min(n * (n - 1) / 2);
        let gnm = erdos_renyi_gnm(n, m, &mut rng).unwrap()
            .build(WeightScheme::UniformByDegree).unwrap();
        prop_assert_eq!(gnm.edge_count(), m);
        prop_assert!(gnm.validate().is_ok());
    }
}
