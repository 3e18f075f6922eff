//! Live-edge realizations (Def. 1) and the derandomized Process 2.
//!
//! A realization maps every user `v` to at most one of its neighbors: `u`
//! with probability `w(u,v)`, nobody (the artificial user `ℵ0`) with the
//! remaining probability. Lemma 1 shows the friending process and the
//! realization-based Process 2 induce the same distribution over outcomes.

use crate::{FriendingInstance, InvitationSet};
use raf_graph::{CsrGraph, NodeId};
use rand::Rng;

/// A fully materialized realization `g : V → V ∪ {ℵ0}`.
///
/// `selection(v) == None` encodes `g(v) = ℵ0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    selections: Vec<Option<NodeId>>,
}

impl Realization {
    /// Samples a full realization: every node independently selects one of
    /// its neighbors proportionally to its incoming weights (Def. 1).
    ///
    /// Cost is `O(n)` selections; the lazy reverse walk in
    /// [`crate::reverse`] avoids materializing this for the hot path
    /// (Remark 3), but full realizations remain useful for the equivalence
    /// tests and for replaying scenarios.
    pub fn sample<R: Rng>(graph: &CsrGraph, rng: &mut R) -> Self {
        let selections = graph.nodes().map(|v| graph.select_with(v, rng.gen::<f64>())).collect();
        Realization { selections }
    }

    /// Builds a realization from explicit selections (tests, replays).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a selection points to a non-neighbor.
    pub fn from_selections(graph: &CsrGraph, selections: Vec<Option<NodeId>>) -> Self {
        debug_assert_eq!(selections.len(), graph.node_count());
        #[cfg(debug_assertions)]
        for (v, sel) in selections.iter().enumerate() {
            if let Some(u) = sel {
                debug_assert!(
                    graph.neighbors(NodeId::new(v)).contains(u),
                    "selection {u} is not a neighbor of {v}"
                );
            }
        }
        Realization { selections }
    }

    /// The user selected by `v`, or `None` for `ℵ0`.
    #[inline]
    pub fn selection(&self, v: NodeId) -> Option<NodeId> {
        self.selections[v.index()]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.selections.len()
    }

    /// Whether the realization covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.selections.is_empty()
    }
}

/// Outcome of Process 2 under a fixed realization.
#[derive(Debug, Clone, PartialEq)]
pub struct Process2Outcome {
    /// `f(g, I)`: whether the target joined `H_∞(g, I)`.
    pub target_friended: bool,
    /// The final set `H_∞(g, I)` sorted by id.
    pub final_set: Vec<NodeId>,
}

/// Runs Process 2 (the derandomized friending process): starting from
/// `H_0 = N_s`, each round adds every invited user whose selected neighbor
/// is already in `H`.
pub fn run_process2(
    instance: &FriendingInstance<'_>,
    realization: &Realization,
    invitations: &InvitationSet,
) -> Process2Outcome {
    let g = instance.graph();
    let n = g.node_count();
    let t = instance.target();
    let mut in_h = vec![false; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &v in instance.seeds() {
        in_h[v.index()] = true;
        frontier.push(v);
    }
    let mut target_friended = false;
    while !frontier.is_empty() && !target_friended {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                // Ψ(H_i): u joins iff it selected a current member.
                if !in_h[u.index()]
                    && invitations.contains(u)
                    && realization.selection(u) == Some(v)
                {
                    in_h[u.index()] = true;
                    next.push(u);
                    if u == t {
                        target_friended = true;
                    }
                }
            }
        }
        frontier = next;
    }
    let final_set = (0..n).map(NodeId::new).filter(|v| in_h[v.index()]).collect();
    Process2Outcome { target_friended, final_set }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{GraphBuilder, WeightScheme};
    use rand::SeedableRng;

    fn path_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    #[test]
    fn sampled_selection_is_neighbor_or_none() {
        let g = path_csr(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let r = Realization::sample(&g, &mut rng);
            for v in g.nodes() {
                if let Some(u) = r.selection(v) {
                    assert!(g.neighbors(v).contains(&u));
                }
            }
        }
    }

    #[test]
    fn degree_one_nodes_always_select_their_neighbor() {
        // Uniform weights sum to 1, so selection never lands on ℵ0.
        let g = path_csr(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = Realization::sample(&g, &mut rng);
        assert_eq!(r.selection(NodeId::new(0)), Some(NodeId::new(1)));
        assert_eq!(r.selection(NodeId::new(2)), Some(NodeId::new(1)));
    }

    #[test]
    fn process2_success_requires_chain_of_selections() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        // g(2) = 1, g(3) = 2: chain from seed to target.
        let r = Realization::from_selections(
            &g,
            vec![
                Some(NodeId::new(1)),
                Some(NodeId::new(0)),
                Some(NodeId::new(1)),
                Some(NodeId::new(2)),
            ],
        );
        let all = InvitationSet::full(4);
        let out = run_process2(&inst, &r, &all);
        assert!(out.target_friended);

        // Same realization but node 2 uninvited: chain broken.
        let partial = InvitationSet::from_nodes(4, [NodeId::new(3)]);
        let out2 = run_process2(&inst, &r, &partial);
        assert!(!out2.target_friended);
    }

    #[test]
    fn process2_broken_selection_fails() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        // g(2) = 3 (points the wrong way): no chain.
        let r = Realization::from_selections(
            &g,
            vec![
                Some(NodeId::new(1)),
                Some(NodeId::new(0)),
                Some(NodeId::new(3)),
                Some(NodeId::new(2)),
            ],
        );
        let out = run_process2(&inst, &r, &InvitationSet::full(4));
        assert!(!out.target_friended);
        // 2 and 3 select each other: the Fig. 2 case-b cycle. Node 0 = s
        // joins H because the paper's formalism treats s uniformly: it is
        // invited (I = V) and selected the seed 1 (README, *Paper errata*).
        assert_eq!(out.final_set, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn empty_invitations_keep_only_seeds() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let r = Realization::sample(&g, &mut rng);
        let out = run_process2(&inst, &r, &InvitationSet::empty(4));
        assert_eq!(out.final_set, vec![NodeId::new(1)]);
    }

    #[test]
    fn selection_frequency_matches_weight() {
        let g = path_csr(3); // node 1 selects 0 or 2 with prob 1/2 each
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let trials = 20_000;
        let mut picked_zero = 0usize;
        for _ in 0..trials {
            let r = Realization::sample(&g, &mut rng);
            if r.selection(NodeId::new(1)) == Some(NodeId::new(0)) {
                picked_zero += 1;
            }
        }
        let freq = picked_zero as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.02, "frequency {freq}");
    }
}
