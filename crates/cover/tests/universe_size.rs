//! Solver and allocator cost must scale with the family, not with the
//! ground set: the same family embedded sparsely into a `2^32`-element
//! universe answers exactly as its dense original, mapped through the
//! embedding, without allocating anything universe-sized. (The dense
//! instances are ranked through a ground-sized table, the sparse ones by
//! sorting, so this also checks the two remaps agree.)

use raf_cover::{allocate_budget, solve_msc, BudgetTarget, ChlamtacPortfolio, CoverInstance};

const UNIVERSE: usize = 1 << 32;
const STRIDE: u32 = 1 << 28;

/// Dense id `v ∈ 0..12` → a ground id spread over the whole `u32` range.
/// Monotone, so sorted answers stay sorted.
fn embed(v: u32) -> u32 {
    v * STRIDE + 7
}

fn family_a() -> Vec<Vec<u32>> {
    vec![
        vec![0, 1, 2],
        vec![1, 2, 3],
        vec![2, 4],
        vec![5],
        vec![6, 7, 8, 9],
        vec![0, 10],
        vec![10, 11],
        vec![3, 4, 5],
        vec![2, 4],
    ]
}

fn family_b() -> Vec<Vec<u32>> {
    vec![vec![1, 6], vec![6, 11], vec![0, 2, 3], vec![9], vec![7, 8], vec![1, 6]]
}

fn dense_and_sparse(sets: Vec<Vec<u32>>) -> (CoverInstance, CoverInstance) {
    let sparse_sets = sets.iter().map(|s| s.iter().map(|&v| embed(v)).collect()).collect();
    (CoverInstance::new(12, sets).unwrap(), CoverInstance::new(UNIVERSE, sparse_sets).unwrap())
}

#[test]
fn solve_and_allocate_ignore_universe_size() {
    let (dense_a, sparse_a) = dense_and_sparse(family_a());
    let (dense_b, sparse_b) = dense_and_sparse(family_b());
    assert_eq!(sparse_a.universe(), UNIVERSE);
    assert_eq!(sparse_a.element_count(), dense_a.element_count());

    for p in 0..=dense_a.total_weight() {
        let dense = solve_msc(&ChlamtacPortfolio::new(), &dense_a, p).unwrap();
        let sparse = solve_msc(&ChlamtacPortfolio::new(), &sparse_a, p).unwrap();
        let mapped: Vec<u32> = dense.elements.iter().map(|&v| embed(v)).collect();
        assert_eq!(sparse.elements, mapped, "p={p}");
        assert_eq!(sparse.covered_sets, dense.covered_sets, "p={p}");
        assert_eq!(sparse.covered_weight, dense.covered_weight, "p={p}");
    }

    let dense_targets = [
        BudgetTarget { sets: &dense_a, total_samples: 20 },
        BudgetTarget { sets: &dense_b, total_samples: 13 },
    ];
    let sparse_targets = [
        BudgetTarget { sets: &sparse_a, total_samples: 20 },
        BudgetTarget { sets: &sparse_b, total_samples: 13 },
    ];
    for budget in 0..=12 {
        let dense = allocate_budget(&dense_targets, budget).unwrap();
        let sparse = allocate_budget(&sparse_targets, budget).unwrap();
        let mapped: Vec<u32> = dense.chosen.iter().map(|&v| embed(v)).collect();
        assert_eq!(sparse.chosen, mapped, "budget={budget}");
        assert_eq!(sparse.per_target_covered, dense.per_target_covered, "budget={budget}");
        assert_eq!(sparse.objective.to_bits(), dense.objective.to_bits(), "budget={budget}");
        assert_eq!(sparse.arm, dense.arm, "budget={budget}");
        let bits = |a: [f64; 3]| a.map(f64::to_bits);
        assert_eq!(bits(sparse.arm_objectives), bits(dense.arm_objectives), "budget={budget}");
    }
}
