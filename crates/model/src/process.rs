//! The forward friending process (Process 1 of the paper).
//!
//! Starting from `C_0 = N_s` with thresholds `θ_v ~ U[0,1]`, each round
//! converts every invited non-friend `u` whose accumulated familiarity
//! `Σ_{v ∈ C} w(v,u)` has reached `θ_u` into a new friend, until no more
//! users convert or the target joins.
//!
//! Forward simulation reads `w(v,u) = 1/|N_u|` per propagated edge
//! through `in_weight`, which confirms the edge first: a binary search,
//! or on a *relabeled* snapshot a linear neighbor scan (image-order
//! slices have no binary search) — `O(deg)` at hubs. That is acceptable
//! here because the forward process is the validation route, which only
//! tests run; the evaluation's hot path is reverse sampling, which never
//! calls `in_weight`.

use crate::{FriendingInstance, InvitationSet};
use raf_graph::NodeId;
use rand::Rng;

/// Outcome of one run of the friending process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessOutcome {
    /// Whether the target became a friend of the initiator.
    pub target_friended: bool,
    /// All friends of `s` when the process terminated (`C_∞(I)`),
    /// including the initial `N_s`, sorted by id — reported in the
    /// instance's original id space.
    pub final_friends: Vec<NodeId>,
    /// Number of rounds executed before termination.
    pub rounds: usize,
}

/// Runs Process 1 once with thresholds drawn from `rng`.
///
/// The paper terminates the process as soon as `t ∈ C_{i+1}` — reaching
/// the target is the success event and later conversions are irrelevant —
/// and so does this implementation.
pub fn run_process<R: Rng>(
    instance: &FriendingInstance<'_>,
    invitations: &InvitationSet,
    rng: &mut R,
) -> ProcessOutcome {
    let thresholds: Vec<f64> = (0..instance.node_count()).map(|_| rng.gen::<f64>()).collect();
    run_process_with_thresholds(instance, invitations, &thresholds)
}

/// Runs Process 1 with explicit thresholds — the derandomized form used by
/// the Lemma 1 equivalence tests and by anyone replaying a scenario.
///
/// `thresholds[i]` is the threshold of node `i` in the instance's
/// **original** id space, matching the invitation set and every other id
/// crossing the public API — on relabeled snapshots both are translated
/// through the inverse permutation at probe time, so a recorded scenario
/// replays identically on either layout.
///
/// # Panics
///
/// Panics if `thresholds.len()` differs from the node count.
pub fn run_process_with_thresholds(
    instance: &FriendingInstance<'_>,
    invitations: &InvitationSet,
    thresholds: &[f64],
) -> ProcessOutcome {
    let g = instance.graph();
    let n = g.node_count();
    assert_eq!(thresholds.len(), n, "one threshold per node required");
    let t = instance.target();

    // influence[u] = Σ_{v ∈ C ∩ N_u} w(v,u), maintained incrementally.
    let mut influence = vec![0.0f64; n];
    let mut in_c = vec![false; n];

    // C_0 = N_s: push seed influence out to their neighbors.
    let mut frontier: Vec<NodeId> = Vec::new();
    for &v in instance.seeds() {
        in_c[v.index()] = true;
        frontier.push(v);
    }

    let mut rounds = 0usize;
    let mut target_friended = false;
    while !frontier.is_empty() && !target_friended {
        rounds += 1;
        // Propagate the influence of everyone who joined last round.
        let mut candidates: Vec<NodeId> = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if in_c[u.index()] {
                    continue;
                }
                let w = g.in_weight(v, u).expect("neighbor edge weight");
                influence[u.index()] += w;
                candidates.push(u);
            }
        }
        // Φ(C_i) ∩ I: invited users whose thresholds are now met. The
        // invitation set and the thresholds are in original space; `u`
        // is graph-space.
        let mut next: Vec<NodeId> = Vec::new();
        for u in candidates {
            let original = instance.original_of(u);
            if in_c[u.index()] || !invitations.contains(original) {
                continue;
            }
            if influence[u.index()] >= thresholds[original.index()] {
                in_c[u.index()] = true;
                next.push(u);
                if u == t {
                    target_friended = true;
                }
            }
        }
        frontier = next;
    }

    let mut final_friends: Vec<NodeId> = (0..n)
        .map(NodeId::new)
        .filter(|v| in_c[v.index()])
        .map(|v| instance.original_of(v))
        .collect();
    final_friends.sort_unstable();
    ProcessOutcome { target_friended, final_friends, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FriendingInstance;
    use raf_graph::{CsrGraph, GraphBuilder, WeightScheme};
    use rand::SeedableRng;

    fn path_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn deterministic_chain_with_zero_thresholds() {
        // Path 0-1-2-3, s=0, t=3. With thresholds 0 everybody invited
        // eventually converts: w > 0 ≥ θ ⇒ accepts.
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = InvitationSet::full(4);
        let out = run_process_with_thresholds(&inst, &inv, &[0.0; 4]);
        assert!(out.target_friended);
        // C grows 1 node per round: {1} → +2 → +3.
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn uninvited_interior_blocks_chain() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        // Invite only t: node 2 never joins, so t never sees influence.
        let inv = InvitationSet::from_nodes(4, [NodeId::new(3)]);
        let out = run_process_with_thresholds(&inst, &inv, &[0.0; 4]);
        assert!(!out.target_friended);
        assert_eq!(out.final_friends, vec![NodeId::new(1)]);
    }

    #[test]
    fn threshold_above_weight_blocks() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = InvitationSet::full(4);
        // Node 2's incoming weight from node 1 is 1/2; θ_2 = 0.9 blocks.
        let out = run_process_with_thresholds(&inst, &inv, &[0.0, 0.0, 0.9, 0.0]);
        assert!(!out.target_friended);
    }

    #[test]
    fn seeds_are_friends_from_start() {
        let g = path_csr(3);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(2)).unwrap();
        let inv = InvitationSet::empty(3);
        let out = run_process_with_thresholds(&inst, &inv, &[1.0; 3]);
        assert_eq!(out.final_friends, vec![NodeId::new(1)]);
        assert!(!out.target_friended);
    }

    #[test]
    fn example_one_from_paper() {
        // Fig. 1: s's friends are v1..v4's structure approximated — we test
        // the qualitative claim: an invited node converts once enough
        // mutual friends weigh in, an uninvited node never converts.
        // Star: s(0) - {1, 2}; 1 - 3; 2 - 3; t(4) - 3.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        // Node 3 has degree 3, so each friend weighs 1/3 to it. θ_3 = 0.5
        // needs both seeds 1 and 2 (1/3 + 1/3 ≥ 0.5); one alone is not
        // enough (1/3 < 0.5). Both are seeds, so their influence counts in
        // round 1, and t (degree 1, w = 1 ≥ 0.3) follows in round 2.
        let inv = InvitationSet::from_nodes(5, [NodeId::new(3), NodeId::new(4)]);
        let out = run_process_with_thresholds(&inst, &inv, &[0.9, 0.9, 0.9, 0.5, 0.3]);
        assert!(out.target_friended);
        assert_eq!(out.rounds, 2);
        // A threshold above 2/3 keeps node 3, and with it t, out.
        let out = run_process_with_thresholds(&inst, &inv, &[0.9, 0.9, 0.9, 0.7, 0.3]);
        assert!(!out.target_friended);
        assert_eq!(out.final_friends, vec![NodeId::new(1), NodeId::new(2)]);
        // Uninvited, node 3 never converts, however low its threshold.
        let only_t = InvitationSet::from_nodes(5, [NodeId::new(4)]);
        let out = run_process_with_thresholds(&inst, &only_t, &[0.0; 5]);
        assert!(!out.target_friended);
    }

    #[test]
    fn random_thresholds_monotone_in_invitations() {
        // With the same RNG seed, a superset of invitations cannot reduce
        // the success indicator (supermodularity sanity check at the level
        // of single runs with coupled thresholds).
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let small = InvitationSet::from_nodes(5, [NodeId::new(2), NodeId::new(4)]);
        let big = InvitationSet::full(5);
        for seed in 0..50 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let thresholds: Vec<f64> = (0..5).map(|_| rand::Rng::gen::<f64>(&mut rng)).collect();
            let o_small = run_process_with_thresholds(&inst, &small, &thresholds);
            let o_big = run_process_with_thresholds(&inst, &big, &thresholds);
            assert!(!o_small.target_friended || o_big.target_friended);
        }
    }

    #[test]
    fn rng_entry_point_runs() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let inv = InvitationSet::full(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let out = run_process(&inst, &inv, &mut rng);
        assert!(out.rounds >= 1 || !out.target_friended);
    }
}
