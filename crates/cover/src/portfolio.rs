//! The best-of portfolio standing in for the Chlamtáč et al. algorithm.

use crate::{
    AnchorSolver, CoverError, CoverInstance, CoverSolution, GreedyMarginal, MpuSolver, SmallestSets,
};

/// The portfolio solver used as the paper's "Chlamtáč algorithm" stand-in
/// (the [crate docs](crate) say why): runs [`GreedyMarginal`],
/// [`SmallestSets`], and [`AnchorSolver`] and returns the cheapest
/// feasible solution.
///
/// The paper's analysis consumes only the interface guarantee "a feasible
/// solution within `2√|U|` of the optimum" — property tests in this crate
/// check the portfolio meets that factor on randomized instances, and the
/// `p`-smallest arm alone already certifies `p·opt ≤ 2√m·opt` whenever
/// `p ≤ 2√m`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChlamtacPortfolio {
    anchor: AnchorSolver,
}

impl ChlamtacPortfolio {
    /// Creates the portfolio with default arm configurations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the portfolio with a custom anchor budget.
    pub fn with_anchor_budget(anchors: usize) -> Self {
        ChlamtacPortfolio { anchor: AnchorSolver::with_anchors(anchors) }
    }
}

impl MpuSolver for ChlamtacPortfolio {
    fn solve(&self, instance: &CoverInstance, p: usize) -> Result<CoverSolution, CoverError> {
        let greedy = GreedyMarginal::new().solve(instance, p)?;
        let smallest = SmallestSets::new().solve(instance, p)?;
        let anchored = self.anchor.solve(instance, p)?;
        let mut best = greedy;
        for candidate in [smallest, anchored] {
            if candidate.cost() < best.cost() {
                best = candidate;
            }
        }
        Ok(best)
    }

    fn name(&self) -> &'static str {
        "chlamtac-portfolio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_as_good_as_each_arm() {
        let inst = CoverInstance::new(
            12,
            vec![vec![0, 1, 2], vec![0, 1, 3], vec![4], vec![5], vec![6, 7, 8, 9], vec![10, 11]],
        )
        .unwrap();
        for p in 0..=6 {
            let portfolio = ChlamtacPortfolio::new().solve(&inst, p).unwrap();
            let greedy = GreedyMarginal::new().solve(&inst, p).unwrap();
            let smallest = SmallestSets::new().solve(&inst, p).unwrap();
            let anchored = AnchorSolver::new().solve(&inst, p).unwrap();
            assert!(portfolio.cost() <= greedy.cost(), "p={p}");
            assert!(portfolio.cost() <= smallest.cost(), "p={p}");
            assert!(portfolio.cost() <= anchored.cost(), "p={p}");
            assert!(portfolio.verify(&inst, p));
        }
    }

    #[test]
    fn propagates_infeasibility() {
        let inst = CoverInstance::new(2, vec![vec![0]]).unwrap();
        assert!(ChlamtacPortfolio::new().solve(&inst, 2).is_err());
    }

    #[test]
    fn smallest_arm_wins_on_disjoint_singletons() {
        // Greedy and smallest coincide here, but the point is the
        // portfolio returns cost p on singleton families.
        let sets: Vec<Vec<u32>> = (0..20u32).map(|e| vec![e]).collect();
        let inst = CoverInstance::new(20, sets).unwrap();
        let sol = ChlamtacPortfolio::new().solve(&inst, 7).unwrap();
        assert_eq!(sol.cost(), 7);
    }

    #[test]
    fn custom_anchor_budget() {
        let inst = CoverInstance::new(4, vec![vec![0, 1], vec![1, 2], vec![3]]).unwrap();
        let sol = ChlamtacPortfolio::with_anchor_budget(2).solve(&inst, 2).unwrap();
        assert!(sol.verify(&inst, 2));
    }
}
