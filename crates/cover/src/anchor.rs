//! The element-anchor MpU solver.

use crate::greedy::GreedyScratch;
use crate::solver::check_p;
use crate::{CoverError, CoverInstance, CoverSolution, MpuSolver};

/// Anchors the solution on a frequently shared element: for each of the
/// most frequent elements `e`, greedily accumulates the sets containing
/// `e` by marginal cost and keeps the best completed solution.
///
/// This targets the "dense hub" regime where many sets route through a
/// common element (in RAF instances: backward paths funnelling through a
/// high-degree intermediary next to `N_s`), where global greedy can be
/// distracted by cheap unrelated sets.
#[derive(Debug, Clone, Copy)]
pub struct AnchorSolver {
    /// How many of the most frequent elements to try as anchors.
    anchors: usize,
}

impl Default for AnchorSolver {
    fn default() -> Self {
        AnchorSolver { anchors: 8 }
    }
}

impl AnchorSolver {
    /// Creates the solver with the default anchor budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the solver trying the `anchors` most frequent elements.
    pub fn with_anchors(anchors: usize) -> Self {
        AnchorSolver { anchors: anchors.max(1) }
    }

    /// One anchor attempt: the sets through `anchor` (its row of the
    /// instance's element → sets index), cheapest by size first, then a
    /// marginal-greedy pass over the rest. Returns the attempt's cost —
    /// the size of its union, counted while `in_union` is marked — and
    /// its sets. `taken`, `in_union` and `scratch` are the caller's
    /// buffers, reset here so the attempts share one allocation of each.
    fn solve_for_anchor(
        &self,
        instance: &CoverInstance,
        p: usize,
        anchor: u32,
        taken: &mut [bool],
        in_union: &mut [bool],
        scratch: &mut GreedyScratch,
    ) -> (usize, Vec<usize>) {
        taken.fill(false);
        in_union.fill(false);
        let mut through: Vec<usize> =
            instance.sets_containing(anchor).iter().map(|&i| i as usize).collect();
        through.sort_by_key(|&i| (instance.set(i).len(), i));
        let mut chosen = Vec::new();
        let mut union_size = 0usize;
        let mut covered_weight = 0usize;
        for &i in &through {
            if covered_weight >= p {
                break;
            }
            taken[i] = true;
            for &e in instance.set(i) {
                union_size += usize::from(!in_union[e as usize]);
                in_union[e as usize] = true;
            }
            chosen.push(i);
            covered_weight += instance.weight(i);
        }
        // Pad with the shared linear-time greedy.
        union_size += crate::greedy::greedy_fill(
            instance,
            taken,
            in_union,
            &mut chosen,
            &mut covered_weight,
            p,
            scratch,
        );
        (union_size, chosen)
    }
}

impl MpuSolver for AnchorSolver {
    fn solve(&self, instance: &CoverInstance, p: usize) -> Result<CoverSolution, CoverError> {
        check_p(instance, p)?;
        if p == 0 {
            return Ok(CoverSolution::from_sets(instance, Vec::new()));
        }
        // Weighted frequency of each local element across the multiset
        // family, summed along its row of the element → sets index.
        let elements = instance.element_count();
        let freq: Vec<u64> = (0..elements as u32)
            .map(|e| {
                instance
                    .sets_containing(e)
                    .iter()
                    .map(|&i| instance.weight(i as usize) as u64)
                    .sum()
            })
            .collect();
        // Stable sort: frequency ties go to the smaller local id, which is
        // the smaller ground id.
        let mut by_freq: Vec<u32> = (0..elements as u32).collect();
        by_freq.sort_by_key(|&e| std::cmp::Reverse(freq[e as usize]));
        // The cheapest attempt so far (its cost and sets); only the
        // winner becomes a `CoverSolution`. The greedy scratch and the
        // taken/union masks are shared by the attempts: reset per
        // attempt, allocated once.
        let mut best: Option<(usize, Vec<usize>)> = None;
        let mut scratch = GreedyScratch::new();
        let mut taken = vec![false; instance.set_count()];
        let mut in_union = vec![false; elements];
        for &anchor in by_freq.iter().take(self.anchors) {
            if freq[anchor as usize] == 0 {
                break;
            }
            let (cost, chosen) =
                self.solve_for_anchor(instance, p, anchor, &mut taken, &mut in_union, &mut scratch);
            if best.as_ref().is_none_or(|(best_cost, _)| cost < *best_cost) {
                best = Some((cost, chosen));
            }
        }
        match best {
            Some((_, chosen)) => Ok(CoverSolution::from_sets(instance, chosen)),
            // No non-empty sets at all: the family must be all empty sets
            // — take prefix sets until their weight reaches p.
            None => {
                let mut chosen = Vec::new();
                let mut w = 0usize;
                for i in 0..instance.set_count() {
                    if w >= p {
                        break;
                    }
                    chosen.push(i);
                    w += instance.weight(i);
                }
                Ok(CoverSolution::from_sets(instance, chosen))
            }
        }
    }

    fn name(&self) -> &'static str {
        "element-anchor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefers_hub_sets() {
        // Hub element 0 shared by three sets; one small unrelated set.
        let inst =
            CoverInstance::new(8, vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![7], vec![4, 5, 6]])
                .unwrap();
        let sol = AnchorSolver::new().solve(&inst, 3).unwrap();
        assert!(sol.verify(&inst, 3));
        // Best possible: the three hub sets (union {0,1,2,3} = 4)… but the
        // singleton {7} plus two hub sets is also 4; either is optimal.
        assert!(sol.cost() <= 4, "cost {}", sol.cost());
    }

    #[test]
    fn pads_with_greedy_when_anchor_exhausted() {
        let inst = CoverInstance::new(6, vec![vec![0, 1], vec![2], vec![3], vec![4, 5]]).unwrap();
        let sol = AnchorSolver::new().solve(&inst, 3).unwrap();
        assert!(sol.verify(&inst, 3));
        assert!(sol.cost() <= 4);
    }

    #[test]
    fn all_empty_sets() {
        let inst = CoverInstance::new(3, vec![vec![], vec![]]).unwrap();
        let sol = AnchorSolver::new().solve(&inst, 2).unwrap();
        assert_eq!(sol.cost(), 0);
        assert!(sol.verify(&inst, 2));
    }

    #[test]
    fn p_zero() {
        let inst = CoverInstance::new(3, vec![vec![0]]).unwrap();
        let sol = AnchorSolver::new().solve(&inst, 0).unwrap();
        assert_eq!(sol.set_count(), 0);
    }

    #[test]
    fn frequency_ties_break_by_ground_id() {
        // Nodes 3 and 9 each lie on two sets and 9 is seen first: the
        // single anchor must be 3, the smaller ground id.
        let inst =
            CoverInstance::new(10, vec![vec![9, 5], vec![9, 6], vec![3, 7], vec![3, 8]]).unwrap();
        let sol = AnchorSolver::with_anchors(1).solve(&inst, 2).unwrap();
        assert_eq!(sol.union, vec![3, 7, 8]);
    }

    #[test]
    fn anchor_budget_one_still_feasible() {
        let inst = CoverInstance::new(5, vec![vec![0, 1], vec![2, 3], vec![4]]).unwrap();
        let sol = AnchorSolver::with_anchors(1).solve(&inst, 2).unwrap();
        assert!(sol.verify(&inst, 2));
    }
}
