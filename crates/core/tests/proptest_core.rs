//! Property-based tests for the RAF core: parameter-solver invariants,
//! baseline construction invariants, and V_max structure on random
//! graphs.

use proptest::prelude::*;
use raf_core::baselines::{Baseline, HighDegree, RandomInvite, ShortestPath};
use raf_core::{vmax_exact, vmax_loose, ParameterSet};
use raf_graph::{CsrGraph, GraphBuilder, NodeId, WeightScheme};
use raf_model::FriendingInstance;
use rand::SeedableRng;

proptest! {
    /// Equation System 1 invariants across the whole valid input range:
    /// the closed-form solution satisfies eq. (13) up to rounding and
    /// all derived quantities stay in range.
    #[test]
    fn parameter_solver_invariants(
        alpha in 0.02f64..1.0,
        eps_frac in 0.05f64..0.9,
        n in 1usize..2_000_000,
    ) {
        let epsilon = alpha * eps_frac;
        let p = ParameterSet::solve(alpha, epsilon, n).unwrap();
        prop_assert!(p.eps1 > 0.0 && p.eps1 < 1.0);
        prop_assert!(p.eps0 > 0.0 && p.eps0 <= ParameterSet::EPS0_CAP + 1e-12);
        prop_assert!(p.beta > 0.0 && p.beta <= 1.0);
        prop_assert!(p.residual().abs() < 1e-7, "residual {}", p.residual());
        // β can never exceed α (eq. 12 with positive x).
        prop_assert!(p.beta <= p.alpha + 1e-12);
    }
}

fn random_instance_graph(seed: u64, n: usize, extra: usize) -> CsrGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for i in 0..n - 1 {
        b.add_edge(i, i + 1).unwrap();
    }
    for _ in 0..extra {
        let u = rand::Rng::gen_range(&mut rng, 0..n);
        let v = rand::Rng::gen_range(&mut rng, 0..n);
        if u != v {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Baseline invariants on random graphs: size budgets respected,
    /// target always present, seeds and initiator never invited, sets
    /// nested as the size budget grows.
    #[test]
    fn baseline_invariants(seed in 0u64..300, n in 6usize..30, extra in 0usize..25) {
        let g = random_instance_graph(seed, n, extra);
        let s = NodeId::new(0);
        let t = NodeId::new(n - 1);
        if g.has_edge(s, t) {
            return Ok(());
        }
        let inst = FriendingInstance::new(&g, s, t).unwrap();
        let baselines: Vec<Box<dyn Baseline>> = vec![
            Box::new(HighDegree::new()),
            Box::new(ShortestPath::new()),
            Box::new(RandomInvite::with_seed(seed)),
        ];
        for b in &baselines {
            let mut prev = raf_model::InvitationSet::empty(n);
            for size in 1..=n.min(12) {
                let inv = b.build(&inst, size);
                prop_assert!(inv.len() <= size);
                prop_assert!(inv.contains(t), "{} dropped target", b.name());
                prop_assert!(!inv.contains(s));
                for seed_node in inst.seeds() {
                    prop_assert!(!inv.contains(*seed_node));
                }
                // Nested growth (required for pooled growth monotonicity).
                prop_assert!(inv.is_superset_of(&prev), "{} not nested", b.name());
                prev = inv;
            }
        }
    }

    /// V_max structure on random graphs: contains t when non-empty, never
    /// contains s or seeds, is a subset of the loose over-approximation,
    /// and every member is adjacent to another member or to a seed
    /// (paths are connected).
    #[test]
    fn vmax_structure(seed in 0u64..300, n in 6usize..30, extra in 0usize..25) {
        let g = random_instance_graph(seed, n, extra);
        let s = NodeId::new(0);
        let t = NodeId::new(n - 1);
        if g.has_edge(s, t) {
            return Ok(());
        }
        let inst = FriendingInstance::new(&g, s, t).unwrap();
        let vm = vmax_exact(&inst);
        let loose = vmax_loose(&inst);
        prop_assert!(loose.is_superset_of(&vm));
        if vm.is_empty() {
            return Ok(());
        }
        prop_assert!(vm.contains(t));
        prop_assert!(!vm.contains(s));
        for v in vm.iter() {
            prop_assert!(!inst.is_seed(v));
            let connected = g.neighbors(v).iter().any(|&u| vm.contains(u) || inst.is_seed(u));
            prop_assert!(connected, "V_max member {v} isolated from the structure");
        }
    }
}
