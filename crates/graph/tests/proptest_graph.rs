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
    /// CSR snapshots agree with the adjacency representation everywhere,
    /// and both imply the weights exactly: `w(u,v)` is `1.0 / d` and the
    /// total is the left-to-right sum of `d` copies of it.
    #[test]
    fn csr_equivalent_to_adjacency((max_node, edges) in edge_lists()) {
        let g = build(max_node, &edges);
        let csr = g.to_csr();
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(csr.neighbors(v), g.neighbors(v));
            let d = g.degree(v);
            let mut total = 0.0f64;
            for _ in 0..d {
                total += 1.0 / d as f64;
            }
            prop_assert_eq!(g.total_in_weight(v).to_bits(), total.to_bits());
            prop_assert_eq!(csr.total_in_weight(v).to_bits(), total.to_bits());
            for &u in g.neighbors(v) {
                prop_assert_eq!(g.in_weight(u, v), Some(1.0 / d as f64));
                prop_assert_eq!(csr.in_weight(u, v), Some(1.0 / d as f64));
            }
        }
    }

    /// Selection is the floor the model implies: a draw `r` below the
    /// total picks `neighbors(v)[min(⌊r · (d/total)⌋, d − 1)]`, and any
    /// other draw, the total itself included, selects nobody.
    #[test]
    fn selection_is_the_scaled_floor(
        (max_node, edges) in edge_lists(),
        draws in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let g = build(max_node, &edges);
        let csr = g.to_csr();
        for v in g.nodes() {
            let (d, total) = (g.degree(v), g.total_in_weight(v));
            // Draws lie in [0, 1): an isolated node's total is 0.
            let below_total = total.next_down().max(0.0);
            let edge_draws = [0.0, total, below_total, 1.0f64.next_down(), 1.0];
            for r in draws.iter().copied().chain(edge_draws) {
                let expected = if r < total {
                    let slot = ((r * (d as f64 / total)) as usize).min(d - 1);
                    Some(g.neighbors(v)[slot])
                } else {
                    None
                };
                prop_assert_eq!(csr.select_with(v, r), expected, "v={:?} r={}", v, r);
            }
        }
    }

    /// Uniform-by-degree weights always satisfy the LT normalization.
    #[test]
    fn uniform_weights_normalized((max_node, edges) in edge_lists()) {
        let g = build(max_node, &edges);
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

    /// Generators produce graphs that match their declared node and edge
    /// counts.
    #[test]
    fn generators_valid(seed in 0u64..1000, n in 10usize..60) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ba = barabasi_albert(n, 2, &mut rng).unwrap();
        let edges = ba.edge_count();
        let ba = ba.build(WeightScheme::UniformByDegree).unwrap();
        prop_assert_eq!((ba.node_count(), ba.edge_count()), (n, edges));

        let m = (n * 2).min(n * (n - 1) / 2);
        let gnm = erdos_renyi_gnm(n, m, &mut rng).unwrap()
            .build(WeightScheme::UniformByDegree).unwrap();
        prop_assert_eq!((gnm.node_count(), gnm.edge_count()), (n, m));
    }
}
