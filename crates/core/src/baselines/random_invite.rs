//! A random-invitation control baseline.

use super::{is_candidate, Baseline};
use raf_model::{FriendingInstance, InvitationSet};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Invites the target plus uniformly random candidates — not in the
/// paper's evaluation, but a useful floor for sanity checks: any
/// strategy worth running should beat it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomInvite {
    seed: u64,
}

impl RandomInvite {
    /// Creates the baseline with seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the baseline with an explicit RNG seed (results are
    /// deterministic per seed).
    pub fn with_seed(seed: u64) -> Self {
        RandomInvite { seed }
    }
}

impl Baseline for RandomInvite {
    fn build(&self, instance: &FriendingInstance<'_>, size: usize) -> InvitationSet {
        let g = instance.graph();
        let mut inv = InvitationSet::empty(g.node_count());
        if size == 0 {
            return inv;
        }
        inv.insert(instance.target());
        let mut candidates: Vec<_> =
            g.nodes().filter(|&v| v != instance.target() && is_candidate(instance, v)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        candidates.shuffle(&mut rng);
        for v in candidates {
            if inv.len() >= size {
                break;
            }
            inv.insert(v);
        }
        instance.to_original_set(&inv)
    }

    fn name(&self) -> &'static str {
        "random-invite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{GraphBuilder, NodeId, WeightScheme};

    fn instance_fixture() -> raf_graph::CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn deterministic_per_seed() {
        let g = instance_fixture();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let a = RandomInvite::with_seed(42).build(&inst, 3);
        let b = RandomInvite::with_seed(42).build(&inst, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_vary() {
        let g = instance_fixture();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let sets: Vec<_> = (0..20).map(|s| RandomInvite::with_seed(s).build(&inst, 3)).collect();
        assert!(sets.windows(2).any(|w| w[0] != w[1]), "no variation across seeds");
    }

    #[test]
    fn always_has_target() {
        let g = instance_fixture();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        for seed in 0..10 {
            let inv = RandomInvite::with_seed(seed).build(&inst, 2);
            assert!(inv.contains(NodeId::new(4)));
        }
    }
}
