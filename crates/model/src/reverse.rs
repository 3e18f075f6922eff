//! The backward walk `t(g)` (Alg. 1) with lazy sampling (Remark 3).
//!
//! For a realization `g`, the users connected to `t` form a path: walk
//! backwards from `t` following `g` until the walk (a) dangles on `ℵ0`,
//! (b) closes a cycle, or (c) reaches a user in `N_s` — the three cases of
//! Fig. 2 / Lemma 2. Only case (c) — a *type-1* realization — can be
//! covered by an invitation set, and then `t` is friended iff every walked
//! node is invited (`t(g) ⊆ I`).
//!
//! Because each node's selection is examined at most once along the walk,
//! the selections can be sampled lazily *during* the walk (the reverse
//! sampling of Borgs et al. referenced in Remark 3): expected cost is the
//! walk length, not `O(n)`.

use crate::{FriendingInstance, InvitationSet};
use raf_graph::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Walk length at which the linear-scan cycle check upgrades to a hash
/// set (and [`WalkScratch`] spills its fixed array to the heap).
pub(crate) const SCAN_LIMIT: usize = 64;

/// How a backward walk terminated (the three cases of Lemma 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkOutcome {
    /// Case (c): the walk reached a member of `N_s`; the realization is
    /// type-1 and `t(g)` is exactly the walked nodes.
    ReachedSeed,
    /// Case (a): some user selected nobody (`ℵ0`) before reaching `N_s`.
    Dangling,
    /// Case (b): the walk revisited a walked node, forming a cycle.
    Cycle,
}

/// The result of Alg. 1: the walked path and its classification.
///
/// `nodes` lists the walk from `t` backwards, starting with `t` itself and
/// *excluding* the terminating `N_s` member (line 7 of Alg. 1 returns
/// before adding it). For type-0 walks the paper puts `ℵ0` in `t(g)`;
/// here the outcome enum carries that information instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetPath {
    /// The walked users: `t` first, then each selected predecessor.
    pub nodes: Vec<NodeId>,
    /// Which of the three terminating cases occurred.
    pub outcome: WalkOutcome,
}

impl TargetPath {
    /// `y(g)`: whether the underlying realization is type-1 (Def. 2).
    #[inline]
    pub fn is_type1(&self) -> bool {
        self.outcome == WalkOutcome::ReachedSeed
    }

    /// Whether `I` covers this realization: `t(g) ⊆ I` (only meaningful —
    /// and only possibly true — for type-1 walks).
    pub fn covered_by(&self, invitations: &InvitationSet) -> bool {
        self.is_type1() && self.nodes.iter().all(|&v| invitations.contains(v))
    }

    /// Path length `|t(g)|` (number of users that must be invited).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path is empty (never true for walks produced here:
    /// `t` is always included).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Samples a random realization lazily and returns its backward walk
/// `t(g)` (Alg. 1 + Remark 3).
///
/// Each node on the walk draws its selection on first visit; nodes off
/// the walk are never sampled, which is what makes `p_max` estimation and
/// pool generation cheap on large graphs.
///
/// ```
/// use raf_graph::{GraphBuilder, NodeId, WeightScheme};
/// use raf_model::reverse::sample_target_path;
/// use raf_model::FriendingInstance;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// b.add_edges(vec![(0, 1), (1, 2), (2, 3)])?;
/// let g = b.build(WeightScheme::UniformByDegree)?.to_csr();
/// let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let walk = sample_target_path(&inst, &mut rng);
/// assert_eq!(walk.nodes[0], NodeId::new(3)); // walks start at t
/// # Ok(())
/// # }
/// ```
pub fn sample_target_path<R: Rng>(instance: &FriendingInstance<'_>, rng: &mut R) -> TargetPath {
    let mut buf = Vec::new();
    let outcome = sample_walk_into(instance, rng, &mut buf);
    // Report walked ids in the caller's original space (identity unless
    // the instance runs on a relabeled snapshot).
    TargetPath {
        nodes: buf.into_iter().map(|id| instance.original_of(NodeId::new(id as usize))).collect(),
        outcome,
    }
}

/// Allocation-free variant of [`sample_target_path`]: appends the walked
/// node ids (as raw `u32` indices, `t` first) to `buf` and returns the
/// walk's outcome. The hot path of the arena pool sampler — callers keep
/// type-1 suffixes in place and truncate type-0 suffixes away, so a whole
/// pool is built with zero per-walk allocations.
///
/// Only the nodes appended by *this* call (i.e. `buf[start..]` where
/// `start` is `buf.len()` at entry) form the walk; earlier buffer contents
/// are ignored by the cycle check.
pub fn sample_walk_into<R: Rng>(
    instance: &FriendingInstance<'_>,
    rng: &mut R,
    buf: &mut Vec<u32>,
) -> WalkOutcome {
    let g = instance.graph();
    let start = buf.len();
    buf.push(instance.target().index() as u32);
    // Walks are short in practice; membership is a linear scan with a
    // hash-set upgrade for pathological walks. (An O(n) visited buffer
    // per walk would dominate the whole pipeline on large graphs.)
    let mut overflow: Option<std::collections::HashSet<u32>> = None;
    let mut current = instance.target();
    loop {
        match g.select_with(current, rng.gen::<f64>()) {
            // Line 5: g(u*) = ℵ0 — dangling.
            None => return WalkOutcome::Dangling,
            Some(next) => {
                let next_id = next.index() as u32;
                // Line 7: reached N_s — success, seed not recorded.
                // Checked before the line-6 cycle scan: the walk never
                // records a seed (it returns here first), so the walked
                // prefix and `N_s` are disjoint and the two checks can
                // run in either order — the O(1) bitset probe first
                // skips the O(len) scan on every terminal step.
                if instance.is_seed(next) {
                    return WalkOutcome::ReachedSeed;
                }
                // Line 6: cycle.
                let revisited = match &overflow {
                    Some(set) => set.contains(&next_id),
                    None => buf[start..].contains(&next_id),
                };
                if revisited {
                    return WalkOutcome::Cycle;
                }
                // Line 8: extend the walk.
                buf.push(next_id);
                if overflow.is_none() && buf.len() - start > SCAN_LIMIT {
                    overflow = Some(buf[start..].iter().copied().collect());
                } else if let Some(set) = &mut overflow {
                    set.insert(next_id);
                }
                current = next;
            }
        }
    }
}

/// Reusable stack-first storage for [`sample_walk_scratch`].
///
/// Walks are short in practice (see the `SCAN_LIMIT` histogramming in
/// the pool sampler), so the hot path keeps the whole walk in a fixed
/// array: appends are a register-indexed store with a constant bound,
/// the cycle scan reads L1-resident memory, and a type-0 walk costs
/// nothing to discard. Walks longer than the array spill into a `Vec`
/// plus a hash set (the same upgrade [`sample_walk_into`] performs).
#[derive(Debug)]
pub struct WalkScratch {
    head: [u32; SCAN_LIMIT],
    len: usize,
    /// Full walk (head included), only for walks longer than the array.
    spill: Vec<u32>,
    /// Membership set, only for spilled walks.
    seen: std::collections::HashSet<u32>,
    /// Whether the current walk has spilled past the fixed array.
    spilled: bool,
}

impl Default for WalkScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl WalkScratch {
    /// Fresh scratch; reuse it across walks to amortize spill storage.
    pub fn new() -> Self {
        WalkScratch {
            head: [0; SCAN_LIMIT],
            len: 0,
            spill: Vec::new(),
            seen: std::collections::HashSet::new(),
            spilled: false,
        }
    }

    /// The nodes of the most recent walk (`t` first, walk order).
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        if self.spilled {
            &self.spill
        } else {
            &self.head[..self.len]
        }
    }

    /// Starts a new walk at `t`, discarding the previous one. Together
    /// with [`contains`](Self::contains) and [`push`](Self::push) this is
    /// the stepwise face of the scratch: [`sample_walk_scratch`] drives a
    /// whole walk through it, and the lockstep cohort kernel drives many
    /// walks one step at a time — both against the *same* storage policy,
    /// so walk semantics have a single source of truth.
    #[inline]
    pub fn begin(&mut self, t: u32) {
        self.head[0] = t;
        self.len = 1;
        self.spill.clear();
        self.spilled = false;
    }

    /// Whether `id` is already on the current walk (the line-6 cycle
    /// check of Alg. 1): a linear scan over the L1-resident array, or a
    /// hash probe once the walk has spilled.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        if self.spilled {
            self.seen.contains(&id)
        } else {
            self.head[..self.len].contains(&id)
        }
    }

    /// Appends `id` to the current walk, upgrading to heap storage (and
    /// a hash membership set) when the walk outgrows the fixed array.
    #[inline]
    pub fn push(&mut self, id: u32) {
        if !self.spilled && self.len < SCAN_LIMIT {
            self.head[self.len] = id;
            self.len += 1;
        } else {
            if !self.spilled {
                self.spilled = true;
                self.spill.extend_from_slice(&self.head);
                self.seen.clear();
                self.seen.extend(self.head.iter().copied());
            }
            self.spill.push(id);
            self.seen.insert(id);
        }
    }
}

/// [`sample_walk_into`] over reusable [`WalkScratch`] storage — the pool
/// sampler's hot path. Identical RNG draw sequence and outcome for a
/// given `(instance, rng)` state; only the storage strategy differs, so
/// the sampled walk multiset is byte-for-byte the same.
pub fn sample_walk_scratch<R: Rng>(
    instance: &FriendingInstance<'_>,
    rng: &mut R,
    scratch: &mut WalkScratch,
) -> WalkOutcome {
    let g = instance.graph();
    let t = instance.target();
    scratch.begin(t.index() as u32);
    let mut current = t;
    loop {
        match g.select_with(current, rng.gen::<f64>()) {
            None => return WalkOutcome::Dangling,
            Some(next) => {
                // Seed and cycle checks commute — see sample_walk_into.
                if instance.is_seed(next) {
                    return WalkOutcome::ReachedSeed;
                }
                let next_id = next.index() as u32;
                if scratch.contains(next_id) {
                    return WalkOutcome::Cycle;
                }
                scratch.push(next_id);
                current = next;
            }
        }
    }
}

/// Computes `t(g)` for a fully materialized realization (the literal
/// Alg. 1, used to cross-check the lazy sampler). Like
/// [`sample_target_path`], the returned nodes are reported in the
/// instance's original id space.
pub fn target_path_of(
    instance: &FriendingInstance<'_>,
    realization: &crate::realization::Realization,
) -> TargetPath {
    let mut nodes = vec![instance.target()];
    let mut current = instance.target();
    let finish = |mut nodes: Vec<NodeId>, outcome: WalkOutcome| {
        for v in &mut nodes {
            *v = instance.original_of(*v);
        }
        TargetPath { nodes, outcome }
    };
    loop {
        match realization.selection(current) {
            None => return finish(nodes, WalkOutcome::Dangling),
            Some(next) => {
                if nodes.contains(&next) {
                    return finish(nodes, WalkOutcome::Cycle);
                }
                if instance.is_seed(next) {
                    return finish(nodes, WalkOutcome::ReachedSeed);
                }
                nodes.push(next);
                current = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realization::Realization;
    use raf_graph::{CsrGraph, GraphBuilder, WeightScheme};
    use rand::SeedableRng;

    fn path_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    fn inst(g: &CsrGraph, s: usize, t: usize) -> FriendingInstance<'_> {
        FriendingInstance::new(g, NodeId::new(s), NodeId::new(t)).unwrap()
    }

    #[test]
    fn walk_on_line_terminates_with_correct_cases() {
        // Path 0-1-2-3-4, s=0 (seed {1}), t=4.
        let g = path_csr(5);
        let instance = inst(&g, 0, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let tp = sample_target_path(&instance, &mut rng);
            assert_eq!(tp.nodes[0], NodeId::new(4));
            match tp.outcome {
                WalkOutcome::ReachedSeed => {
                    // Must be the full interior 4, 3, 2 (seed 1 excluded).
                    let ids: Vec<usize> = tp.nodes.iter().map(|v| v.index()).collect();
                    assert_eq!(ids, vec![4, 3, 2]);
                }
                WalkOutcome::Cycle | WalkOutcome::Dangling => {
                    assert!(tp.nodes.len() <= 4);
                }
            }
        }
    }

    #[test]
    fn type1_probability_on_line_matches_closed_form() {
        // On the path with uniform weights: t=4 selects 3 w.p. 1 (degree 1);
        // 3 selects 2 w.p. 1/2; 2 selects 1 (the seed) w.p. 1/2.
        // ⇒ Pr[type-1] = 1/4. (Selecting forward creates a cycle.)
        let g = path_csr(5);
        let instance = inst(&g, 0, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let trials = 40_000;
        let mut type1 = 0;
        for _ in 0..trials {
            if sample_target_path(&instance, &mut rng).is_type1() {
                type1 += 1;
            }
        }
        let freq = type1 as f64 / trials as f64;
        assert!((freq - 0.25).abs() < 0.01, "type-1 frequency {freq}, expected 0.25");
    }

    #[test]
    fn cycle_detection() {
        let g = path_csr(4);
        let instance = inst(&g, 0, 3);
        // g(3) = 2, g(2) = 3 would be a 2-cycle, but selections are single
        // valued — build explicitly: 3 → 2, 2 → 3.
        let r = Realization::from_selections(
            &g,
            vec![
                Some(NodeId::new(1)),
                Some(NodeId::new(2)),
                Some(NodeId::new(3)),
                Some(NodeId::new(2)),
            ],
        );
        let tp = target_path_of(&instance, &r);
        assert_eq!(tp.outcome, WalkOutcome::Cycle);
        assert!(!tp.is_type1());
    }

    #[test]
    fn seed_termination_excludes_seed() {
        let g = path_csr(4);
        let instance = inst(&g, 0, 3);
        let r = Realization::from_selections(
            &g,
            vec![
                Some(NodeId::new(1)),
                Some(NodeId::new(0)),
                Some(NodeId::new(1)), // 2 selects the seed 1
                Some(NodeId::new(2)),
            ],
        );
        let tp = target_path_of(&instance, &r);
        assert_eq!(tp.outcome, WalkOutcome::ReachedSeed);
        let ids: Vec<usize> = tp.nodes.iter().map(|v| v.index()).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn coverage_requires_all_nodes_and_type1() {
        let g = path_csr(4);
        let _instance = inst(&g, 0, 3);
        let tp = TargetPath {
            nodes: vec![NodeId::new(3), NodeId::new(2)],
            outcome: WalkOutcome::ReachedSeed,
        };
        let full = InvitationSet::full(4);
        assert!(tp.covered_by(&full));
        let missing_t = InvitationSet::from_nodes(4, [NodeId::new(2)]);
        assert!(!tp.covered_by(&missing_t));
        let type0 = TargetPath { nodes: tp.nodes.clone(), outcome: WalkOutcome::Dangling };
        assert!(!type0.covered_by(&full));
    }

    #[test]
    fn lazy_and_materialized_walks_agree_in_distribution() {
        // Compare type-1 frequency between the lazy sampler and the full
        // materialization on the same graph.
        let g = path_csr(5);
        let instance = inst(&g, 0, 4);
        let trials = 20_000;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let lazy = (0..trials)
            .filter(|_| sample_target_path(&instance, &mut rng).is_type1())
            .count() as f64
            / trials as f64;
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(14);
        let full = (0..trials)
            .filter(|_| {
                let r = Realization::sample(&g, &mut rng2);
                target_path_of(&instance, &r).is_type1()
            })
            .count() as f64
            / trials as f64;
        assert!((lazy - full).abs() < 0.015, "lazy {lazy} vs full {full}");
    }

    #[test]
    fn walk_through_initiator_continues_into_seeds() {
        // Star around s=0: t(2) — s — 1; path 2-0, 0-1. If g(2)=0 the walk
        // adds s and continues; g(s) must land in N_s = {1, 2}: node 2 is
        // on the path → cycle; node 1 → seed.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (0, 2)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let instance = inst(&g, 1, 2); // s=1 (seed {0}), t=2
        let r = Realization::from_selections(
            &g,
            vec![Some(NodeId::new(2)), Some(NodeId::new(0)), Some(NodeId::new(0))],
        );
        // Walk: t=2 → 0 (seed of s=1? N_1 = {0} — yes) ⇒ ReachedSeed.
        let tp = target_path_of(&instance, &r);
        assert_eq!(tp.outcome, WalkOutcome::ReachedSeed);
        assert_eq!(tp.nodes, vec![NodeId::new(2)]);
    }
}
