//! Joint invitation-budget allocation across per-target cover instances.
//!
//! The multi-target campaign generalization: one source, `k` targets,
//! one shared invitation budget. Each target contributes the cover
//! instance built from its own sampled path pool ([`BudgetTarget`]); the
//! allocator chooses **one** node set (the source's invitations are
//! global — a befriended node serves every route through it) of at most
//! `budget` nodes, maximizing the summed per-target acceptance estimate
//! `Σᵢ coveredᵢ / total_samplesᵢ`.
//!
//! Three allocation arms are computed and the best kept, portfolio-style
//! (the same shape as [`crate::ChlamtacPortfolio`]):
//!
//! * **Joint** — round-robin path-granular greedy over *all* targets'
//!   pools at once: each step picks the `(target, path)` candidate with
//!   the best marginal acceptance-probability gain per newly added node.
//!   With one target this is exactly the single-target budgeted greedy
//!   (`greedy_max_coverage_paths` in `raf-core` delegates here).
//! * **EqualSplit** — the budget is split `⌊B/k⌋` (+1 for the first
//!   `B mod k` targets in canonical order), each slice solved by the
//!   single-target greedy independently, and the union evaluated.
//! * **ProportionalSplit** — as EqualSplit, but slices proportional to
//!   each target's sampled acceptance mass (largest-remainder method,
//!   remainders broken by target index).
//!
//! Keeping the best arm makes the dominance invariant *structural*:
//! the returned allocation is never worse than either independent split
//! on the same pools. Ties prefer Joint, then EqualSplit.
//!
//! Every comparison inside the greedy is exact integer arithmetic
//! (`u128` cross-multiplication of the rational densities
//! `wᵢ/(tsᵢ·cᵢ)`), so the allocation is a pure function of
//! `(instances, budget)` — independent of float rounding, target order
//! (callers pass targets in canonical sorted order), and thread count
//! (the allocator is single-threaded by construction; parallelism lives
//! in the sampler).

use crate::{CoverError, CoverInstance};
use serde::{Deserialize, Serialize};

/// One campaign target's view for the allocator: the cover instance
/// built from its sampled path pool plus the pool's total sample count
/// (the denominator of its acceptance estimate).
#[derive(Debug, Clone, Copy)]
pub struct BudgetTarget<'a> {
    /// Per-target cover instance (paths in canonical pool order, weight
    /// = sampled multiplicity).
    pub sets: &'a CoverInstance,
    /// Walks sampled into this target's pool (`PathPool::total_samples`).
    pub total_samples: u64,
}

/// Which allocation arm produced the returned node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationArm {
    /// Interleaved marginal-gain greedy over all targets at once.
    Joint,
    /// Independent per-target greedy under an equal budget split.
    EqualSplit,
    /// Independent per-target greedy under a split proportional to each
    /// target's sampled acceptance mass.
    ProportionalSplit,
}

impl AllocationArm {
    /// Stable lower-case name (used in CSV/JSON/protocol output).
    pub fn name(self) -> &'static str {
        match self {
            AllocationArm::Joint => "joint",
            AllocationArm::EqualSplit => "equal_split",
            AllocationArm::ProportionalSplit => "proportional_split",
        }
    }
}

/// The result of [`allocate_budget`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// The chosen invitation nodes, sorted ascending.
    pub chosen: Vec<u32>,
    /// Weighted covered path mass per target (same order as the input
    /// targets) under the chosen set.
    pub per_target_covered: Vec<usize>,
    /// `Σᵢ coveredᵢ / total_samplesᵢ` — the summed acceptance estimate.
    pub objective: f64,
    /// The winning arm.
    pub arm: AllocationArm,
    /// Objective of every arm, indexed Joint, EqualSplit,
    /// ProportionalSplit — so callers can report joint-vs-split gaps
    /// without re-solving.
    pub arm_objectives: [f64; 3],
}

impl Allocation {
    /// Per-target acceptance estimates `coveredᵢ / total_samplesᵢ` (0
    /// when the target sampled no walks).
    pub fn per_target_estimates(&self, targets: &[BudgetTarget<'_>]) -> Vec<f64> {
        self.per_target_covered
            .iter()
            .zip(targets)
            .map(
                |(&c, t)| {
                    if t.total_samples == 0 {
                        0.0
                    } else {
                        c as f64 / t.total_samples as f64
                    }
                },
            )
            .collect()
    }
}

/// Allocates a shared invitation budget across `k` targets' cover
/// instances; see the module docs for the arm portfolio and the
/// determinism contract.
///
/// # Errors
///
/// [`CoverError::NoTargets`] when `targets` is empty;
/// [`CoverError::UniverseMismatch`] when the per-target instances
/// disagree on the ground-set size.
pub fn allocate_budget(
    targets: &[BudgetTarget<'_>],
    budget: usize,
) -> Result<Allocation, CoverError> {
    check_targets(targets)?;

    let joint = joint_greedy(targets, budget);
    let equal = split_greedy(targets, budget, &equal_slices(targets.len(), budget));
    let prop = split_greedy(targets, budget, &proportional_slices(targets, budget));

    let arms = [
        (AllocationArm::Joint, joint),
        (AllocationArm::EqualSplit, equal),
        (AllocationArm::ProportionalSplit, prop),
    ];
    let covered: Vec<Vec<usize>> =
        arms.iter().map(|(_, chosen)| covered_counts(targets, chosen)).collect();
    let arm_objectives = [
        objective(targets, &covered[0]),
        objective(targets, &covered[1]),
        objective(targets, &covered[2]),
    ];
    // Strictly-better scan: ties keep the earlier arm, so k = 1 (where
    // all three arms coincide) always reports Joint.
    let mut best = 0usize;
    for i in 1..arms.len() {
        if arm_objectives[i] > arm_objectives[best] {
            best = i;
        }
    }
    let (arm, chosen) = arms[best].clone();
    Ok(Allocation {
        chosen,
        per_target_covered: covered[best].clone(),
        objective: arm_objectives[best],
        arm,
        arm_objectives,
    })
}

/// Validates the target list.
fn check_targets(targets: &[BudgetTarget<'_>]) -> Result<(), CoverError> {
    let first = targets.first().ok_or(CoverError::NoTargets)?;
    let universe = first.sets.universe();
    for t in &targets[1..] {
        if t.sets.universe() != universe {
            return Err(CoverError::UniverseMismatch {
                expected: universe,
                found: t.sets.universe(),
            });
        }
    }
    Ok(())
}

/// Weighted covered path mass per target under the chosen ground-id
/// node set.
fn covered_counts(targets: &[BudgetTarget<'_>], chosen: &[u32]) -> Vec<usize> {
    targets
        .iter()
        .map(|t| {
            let mut mask = vec![false; t.sets.element_count()];
            for &v in chosen {
                if let Some(e) = t.sets.local(v) {
                    mask[e as usize] = true;
                }
            }
            t.sets.covered_count(&mask)
        })
        .collect()
}

/// The summed acceptance estimate of per-target covered masses.
fn objective(targets: &[BudgetTarget<'_>], covered: &[usize]) -> f64 {
    targets
        .iter()
        .zip(covered)
        .map(|(t, &c)| if t.total_samples == 0 { 0.0 } else { c as f64 / t.total_samples as f64 })
        .sum()
}

/// `⌊B/k⌋` each, `+1` for the first `B mod k` targets.
fn equal_slices(k: usize, budget: usize) -> Vec<usize> {
    let base = budget / k;
    let extra = budget % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

/// Largest-remainder split proportional to each target's sampled
/// acceptance mass (Σ multiplicities); degenerates to the equal split
/// when no target sampled any type-1 path. Remainder seats go to the
/// largest fractional parts, ties broken by target index — fully
/// deterministic.
fn proportional_slices(targets: &[BudgetTarget<'_>], budget: usize) -> Vec<usize> {
    let masses: Vec<u128> = targets.iter().map(|t| t.sets.total_weight() as u128).collect();
    let total: u128 = masses.iter().sum();
    if total == 0 {
        return equal_slices(targets.len(), budget);
    }
    let mut slices: Vec<usize> = Vec::with_capacity(targets.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(targets.len());
    let mut assigned = 0usize;
    for (i, &mass) in masses.iter().enumerate() {
        let exact = budget as u128 * mass;
        let share = (exact / total) as usize;
        slices.push(share);
        assigned += share;
        remainders.push((exact % total, i));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(budget - assigned) {
        slices[i] += 1;
    }
    slices
}

/// Independent per-target greedy under the given budget slices; returns
/// the union of the chosen ground ids, sorted (each target solved on its
/// own, so the arms model genuinely independent campaigns sharing nothing
/// but the graph).
fn split_greedy(targets: &[BudgetTarget<'_>], budget: usize, slices: &[usize]) -> Vec<u32> {
    debug_assert_eq!(slices.iter().sum::<usize>(), budget.min(slices.iter().sum()));
    let mut union: Vec<u32> = targets
        .iter()
        .zip(slices)
        .flat_map(|(target, &slice)| joint_greedy(std::slice::from_ref(target), slice))
        .collect();
    union.sort_unstable();
    union.dedup();
    union
}

/// The interleaved path-granular greedy: repeatedly pick the
/// `(target, set)` candidate with the highest exact marginal density
/// `wᵢ / (tsᵢ · cᵢ)` (`c` = nodes the set still needs) that fits the
/// remaining budget. Ties: smaller cost, then smaller target index,
/// then smaller set index (the scan keeps the first best). Returns the
/// chosen ground ids, sorted.
///
/// Each target keeps a mask over its own local ids and a remaining cost
/// per set: how many of the set's elements are not chosen yet. A picked
/// set's new nodes are mapped to ground ids and marked in every target
/// that mentions them, and each mark decrements the remaining cost of
/// the sets along that element's row of the target's element → sets
/// index. A set is covered exactly when its remaining cost reaches 0, so
/// a pick costs `k` table lookups per new node plus the rows it walks,
/// and a scan reads one count per set.
fn joint_greedy(targets: &[BudgetTarget<'_>], budget: usize) -> Vec<u32> {
    let mut chosen: Vec<u32> = Vec::new();
    if budget == 0 {
        return chosen;
    }
    let mut masks: Vec<Vec<bool>> =
        targets.iter().map(|t| vec![false; t.sets.element_count()]).collect();
    // Remaining cost per (target, set). The empty sets start covered, so
    // every live candidate has cost ≥ 1 and the density rational is
    // well-defined.
    let mut remaining: Vec<Vec<u32>> =
        targets.iter().map(|t| t.sets.iter_sets().map(|set| set.len() as u32).collect()).collect();
    loop {
        // (weight, ts, cost, target, set) of the best candidate so far.
        let mut best: Option<(u128, u128, usize, usize, usize)> = None;
        for (ti, target) in targets.iter().enumerate() {
            let ts = target.total_samples.max(1) as u128;
            for (j, &cost) in remaining[ti].iter().enumerate() {
                let cost = cost as usize;
                if cost == 0 || chosen.len() + cost > budget {
                    continue;
                }
                let w = target.sets.weight(j) as u128;
                let better = match best {
                    None => true,
                    Some((bw, bts, bc, _, _)) => {
                        // w/(ts·c) vs bw/(bts·bc), exactly.
                        let lhs = w * bts * bc as u128;
                        let rhs = bw * ts * cost as u128;
                        lhs > rhs || (lhs == rhs && cost < bc)
                    }
                };
                if better {
                    best = Some((w, ts, cost, ti, j));
                }
            }
        }
        let Some((_, _, _, ti, j)) = best else { break };
        let picked = targets[ti].sets;
        let before = chosen.len();
        for &e in picked.set(j) {
            if masks[ti][e as usize] {
                continue;
            }
            let v = picked.node(e);
            chosen.push(v);
            // The new node serves every target that mentions it: shared
            // route segments cover sibling targets' paths for free.
            for ((target, mask), remaining) in
                targets.iter().zip(masks.iter_mut()).zip(remaining.iter_mut())
            {
                if let Some(local) = target.sets.local(v) {
                    debug_assert!(!mask[local as usize], "a chosen node is chosen again");
                    mask[local as usize] = true;
                    for &i in target.sets.sets_containing(local) {
                        remaining[i as usize] -= 1;
                    }
                }
            }
        }
        debug_assert!(chosen.len() > before, "a live set has a node left to choose");
        if chosen.len() >= budget {
            break;
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(universe: usize, sets: Vec<Vec<u32>>) -> CoverInstance {
        CoverInstance::new(universe, sets).unwrap()
    }

    #[test]
    fn rejects_empty_targets() {
        assert_eq!(allocate_budget(&[], 3).unwrap_err(), CoverError::NoTargets);
    }

    #[test]
    fn rejects_universe_mismatch() {
        let a = inst(4, vec![vec![0]]);
        let b = inst(5, vec![vec![0]]);
        let err = allocate_budget(
            &[
                BudgetTarget { sets: &a, total_samples: 10 },
                BudgetTarget { sets: &b, total_samples: 10 },
            ],
            3,
        )
        .unwrap_err();
        assert_eq!(err, CoverError::UniverseMismatch { expected: 4, found: 5 });
    }

    #[test]
    fn zero_budget_chooses_nothing() {
        let a = inst(4, vec![vec![0, 1]]);
        let alloc = allocate_budget(&[BudgetTarget { sets: &a, total_samples: 10 }], 0).unwrap();
        assert!(alloc.chosen.is_empty());
        assert_eq!(alloc.objective, 0.0);
        assert_eq!(alloc.arm, AllocationArm::Joint);
    }

    #[test]
    fn single_target_prefers_dense_sets() {
        // {2} covers one set per node (density 1); {0,1} covers one set
        // over two nodes (density ½) — greedy takes the dense one first,
        // and only a raised budget buys the long set too.
        let a = inst(3, vec![vec![0, 1], vec![2]]);
        let tight = allocate_budget(&[BudgetTarget { sets: &a, total_samples: 2 }], 1).unwrap();
        assert_eq!(tight.chosen, vec![2]);
        assert_eq!(tight.per_target_covered, vec![1]);
        assert!((tight.objective - 0.5).abs() < 1e-12);
        let roomy = allocate_budget(&[BudgetTarget { sets: &a, total_samples: 2 }], 3).unwrap();
        assert_eq!(roomy.chosen, vec![0, 1, 2]);
        assert!((roomy.objective - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_never_below_either_split() {
        // A shared hub: node 1 serves both targets; the joint arm pays
        // for it once where independent splits may pay twice.
        let a = inst(6, vec![vec![1, 2], vec![3]]);
        let b = inst(6, vec![vec![1, 4], vec![5]]);
        for budget in 0..=6 {
            let alloc = allocate_budget(
                &[
                    BudgetTarget { sets: &a, total_samples: 2 },
                    BudgetTarget { sets: &b, total_samples: 2 },
                ],
                budget,
            )
            .unwrap();
            assert!(alloc.objective >= alloc.arm_objectives[1] - 0.0);
            assert!(alloc.objective >= alloc.arm_objectives[2] - 0.0);
            assert!(alloc.chosen.len() <= budget);
        }
    }

    #[test]
    fn nodes_bought_for_one_target_serve_the_others() {
        // Target 0's path [1, 2] is also one of target 1's: once bought
        // for target 0 it covers target 1's copy too and is never bought
        // again, however much budget is left.
        let a = inst(4, vec![vec![1, 2]]);
        let b = inst(4, vec![vec![1, 2], vec![3]]);
        let alloc = allocate_budget(
            &[
                BudgetTarget { sets: &a, total_samples: 1 },
                BudgetTarget { sets: &b, total_samples: 1 },
            ],
            5,
        )
        .unwrap();
        assert_eq!(alloc.chosen, vec![1, 2, 3]);
        assert_eq!(alloc.per_target_covered, vec![1, 2]);
    }

    #[test]
    fn equal_slices_distribute_remainder_to_low_indices() {
        assert_eq!(equal_slices(3, 7), vec![3, 2, 2]);
        assert_eq!(equal_slices(2, 4), vec![2, 2]);
        assert_eq!(equal_slices(4, 2), vec![1, 1, 0, 0]);
    }

    #[test]
    fn proportional_slices_follow_mass() {
        let heavy = inst(4, vec![vec![0], vec![1], vec![2]]);
        let light = inst(4, vec![vec![3]]);
        let slices = proportional_slices(
            &[
                BudgetTarget { sets: &heavy, total_samples: 4 },
                BudgetTarget { sets: &light, total_samples: 4 },
            ],
            4,
        );
        assert_eq!(slices, vec![3, 1]);
        assert_eq!(slices.iter().sum::<usize>(), 4);
    }

    #[test]
    fn proportional_falls_back_to_equal_on_empty_pools() {
        let a = inst(4, vec![]);
        let b = inst(4, vec![]);
        let slices = proportional_slices(
            &[
                BudgetTarget { sets: &a, total_samples: 0 },
                BudgetTarget { sets: &b, total_samples: 0 },
            ],
            5,
        );
        assert_eq!(slices, vec![3, 2]);
    }

    #[test]
    fn budget_exhaustion_ties_break_by_target_index() {
        // Both targets offer an identical-density single-node set, but
        // only one fits the remaining budget: the scan keeps the first
        // (lower canonical target index).
        let a = inst(4, vec![vec![0]]);
        let b = inst(4, vec![vec![1]]);
        let alloc = allocate_budget(
            &[
                BudgetTarget { sets: &a, total_samples: 1 },
                BudgetTarget { sets: &b, total_samples: 1 },
            ],
            1,
        )
        .unwrap();
        assert_eq!(alloc.chosen, vec![0], "lower target index wins the tie");
        assert_eq!(alloc.per_target_covered, vec![1, 0]);
    }

    #[test]
    fn allocation_is_deterministic() {
        let a = inst(8, vec![vec![0, 1], vec![1, 2], vec![3, 4, 5]]);
        let b = inst(8, vec![vec![1, 6], vec![7]]);
        let targets = [
            BudgetTarget { sets: &a, total_samples: 3 },
            BudgetTarget { sets: &b, total_samples: 2 },
        ];
        let first = allocate_budget(&targets, 4).unwrap();
        for _ in 0..5 {
            assert_eq!(allocate_budget(&targets, 4).unwrap(), first);
        }
    }

    #[test]
    fn estimates_divide_by_samples() {
        let a = inst(3, vec![vec![0], vec![0]]);
        let targets = [BudgetTarget { sets: &a, total_samples: 8 }];
        let alloc = allocate_budget(&targets, 1).unwrap();
        assert_eq!(alloc.per_target_estimates(&targets), vec![0.25]);
    }
}
