//! The MSC → MpU reduction (Remark 2 of the paper).

use crate::{CoverError, CoverInstance, MpuSolver};
use serde::{Deserialize, Serialize};

/// A solution to the Minimum Subset Cover problem: the chosen element set
/// `V*` and the subsets it covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MscSolution {
    /// The chosen elements `V*`, sorted, in ground ids.
    pub elements: Vec<u32>,
    /// Indices of **all** distinct sets covered by `V*` (may exceed `p`:
    /// covering `p` sets can incidentally cover more, which Remark 2
    /// notes is harmless).
    pub covered_sets: Vec<usize>,
    /// Total weight of the covered sets — the number of *multiset* family
    /// members covered. Equals `covered_sets.len()` on unweighted
    /// instances.
    pub covered_weight: usize,
}

impl MscSolution {
    /// Number of chosen elements `|V*|`.
    pub fn cost(&self) -> usize {
        self.elements.len()
    }

    /// Number of covered sets, counting multiplicity.
    pub fn covered_count(&self) -> usize {
        self.covered_weight
    }
}

/// The RAF cover requirement `p = ⌈β · |B¹_l|⌉`, clamped into `[1, |B¹_l|]`
/// (Alg. 3 line 3). Shared by the pipeline and the benchmarks so the
/// recorded `cover_p` always matches the `p` actually solved.
pub fn cover_requirement(beta: f64, b1: usize) -> usize {
    ((beta * b1 as f64).ceil() as usize).clamp(1, b1.max(1))
}

/// Solves MSC via the Remark 2 reduction: run an MpU solver to choose `p`
/// sets with minimum union; the union is the MSC element set, and any set
/// contained in it counts as covered.
///
/// # Errors
///
/// Propagates solver errors (`p` too large, instance too large for exact
/// solvers, …).
pub fn solve_msc<S: MpuSolver + ?Sized>(
    solver: &S,
    instance: &CoverInstance,
    p: usize,
) -> Result<MscSolution, CoverError> {
    let mpu = solver.solve(instance, p)?;
    let mut mask = vec![false; instance.element_count()];
    for &i in &mpu.chosen_sets {
        for &e in instance.set(i) {
            mask[e as usize] = true;
        }
    }
    let covered_sets: Vec<usize> = (0..instance.set_count())
        .filter(|&i| instance.set(i).iter().all(|&e| mask[e as usize]))
        .collect();
    let covered_weight = covered_sets.iter().map(|&i| instance.weight(i)).sum();
    Ok(MscSolution { elements: mpu.union, covered_sets, covered_weight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactSolver, GreedyMarginal};

    #[test]
    fn covers_at_least_p() {
        let inst =
            CoverInstance::new(6, vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4, 5]]).unwrap();
        for p in 0..=4 {
            let sol = solve_msc(&GreedyMarginal::new(), &inst, p).unwrap();
            assert!(sol.covered_count() >= p, "p={p}: covered {}", sol.covered_count());
        }
    }

    #[test]
    fn incidental_coverage_counted() {
        // Choosing sets {0,1} and {1,2} yields union {0,1,2} which also
        // covers {0,2}: 3 sets covered for p=2.
        let inst = CoverInstance::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let sol = solve_msc(&ExactSolver::new(), &inst, 2).unwrap();
        assert_eq!(sol.cost(), 3);
        assert_eq!(sol.covered_count(), 3);
    }

    #[test]
    fn p_zero_covers_empty_sets_only() {
        let inst = CoverInstance::new(3, vec![vec![0], vec![]]).unwrap();
        let sol = solve_msc(&GreedyMarginal::new(), &inst, 0).unwrap();
        assert_eq!(sol.cost(), 0);
        assert_eq!(sol.covered_sets, vec![1]);
    }

    #[test]
    fn works_through_trait_object() {
        let inst = CoverInstance::new(3, vec![vec![0], vec![1]]).unwrap();
        let solver: Box<dyn MpuSolver> = Box::new(GreedyMarginal::new());
        let sol = solve_msc(solver.as_ref(), &inst, 1).unwrap();
        assert_eq!(sol.cost(), 1);
    }
}
