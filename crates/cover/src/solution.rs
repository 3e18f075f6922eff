//! Solutions to MpU instances.

use crate::CoverInstance;
use serde::{Deserialize, Serialize};

/// A feasible MpU solution: the indices of the chosen sets and their
/// union.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverSolution {
    /// Indices (into the instance's family) of the chosen sets.
    pub chosen_sets: Vec<usize>,
    /// The union of the chosen sets, sorted, in ground ids.
    pub union: Vec<u32>,
}

impl CoverSolution {
    /// Assembles a solution from chosen set indices, computing the union
    /// over the instance's local ids and mapping it back to ground ids.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the instance.
    pub fn from_sets(instance: &CoverInstance, chosen: Vec<usize>) -> Self {
        let mut mask = vec![false; instance.element_count()];
        for &i in &chosen {
            for &e in instance.set(i) {
                mask[e as usize] = true;
            }
        }
        let union = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(e, _)| instance.node(e as u32))
            .collect();
        CoverSolution { chosen_sets: chosen, union }
    }

    /// The objective value `|∪ S_i|`.
    #[inline]
    pub fn cost(&self) -> usize {
        self.union.len()
    }

    /// Number of chosen sets.
    pub fn set_count(&self) -> usize {
        self.chosen_sets.len()
    }

    /// Total weight of the chosen sets (`= set_count()` on unweighted
    /// instances).
    pub fn chosen_weight(&self, instance: &CoverInstance) -> usize {
        self.chosen_sets.iter().map(|&i| instance.weight(i)).sum()
    }

    /// Verifies feasibility against an instance: distinct chosen sets, at
    /// most `p` of them, total weight `≥ p`, and the recorded union is
    /// exactly their union. On unweighted instances this degenerates to
    /// the classical "exactly `p` distinct sets" check.
    pub fn verify(&self, instance: &CoverInstance, p: usize) -> bool {
        if self.chosen_sets.len() > p {
            return false;
        }
        let mut seen = std::collections::HashSet::new();
        for &i in &self.chosen_sets {
            if i >= instance.set_count() || !seen.insert(i) {
                return false;
            }
        }
        if self.chosen_weight(instance) < p {
            return false;
        }
        let recomputed = CoverSolution::from_sets(instance, self.chosen_sets.clone());
        recomputed.union == self.union
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> CoverInstance {
        CoverInstance::new(6, vec![vec![0, 1], vec![1, 2], vec![3, 4, 5]]).unwrap()
    }

    #[test]
    fn union_computed() {
        let s = CoverSolution::from_sets(&inst(), vec![0, 1]);
        assert_eq!(s.union, vec![0, 1, 2]);
        assert_eq!(s.cost(), 3);
        assert_eq!(s.set_count(), 2);
    }

    #[test]
    fn verify_accepts_valid() {
        let s = CoverSolution::from_sets(&inst(), vec![0, 2]);
        assert!(s.verify(&inst(), 2));
        assert!(!s.verify(&inst(), 3));
    }

    #[test]
    fn verify_rejects_duplicates_and_bad_union() {
        let dup = CoverSolution { chosen_sets: vec![0, 0], union: vec![0, 1] };
        assert!(!dup.verify(&inst(), 2));
        let wrong_union = CoverSolution { chosen_sets: vec![0], union: vec![0] };
        assert!(!wrong_union.verify(&inst(), 1));
        let out_of_range = CoverSolution { chosen_sets: vec![9], union: vec![] };
        assert!(!out_of_range.verify(&inst(), 1));
    }

    #[test]
    fn empty_solution() {
        let s = CoverSolution::from_sets(&inst(), vec![]);
        assert_eq!(s.cost(), 0);
        assert!(s.verify(&inst(), 0));
    }
}
