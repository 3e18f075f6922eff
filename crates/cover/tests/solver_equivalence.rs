//! Exactness of the cover solvers and the budget allocator against their
//! pre-index implementations.
//!
//! [`reference`] holds verbatim copies of the greedy fill, the anchor
//! solver and the joint allocator (with both split arms) as they were
//! before [`CoverInstance`] carried its own element → sets index: each
//! greedy run built a per-element inverted index, each anchor solve built
//! one more and a full solution per attempt, and each allocator pick
//! re-measured every live set's marginal and rescanned every set for
//! completion. The properties check that the shipped code returns the
//! reference's answer exactly: the same sets in the same pick order, the
//! same union and covered weight, and for allocations the same node set,
//! arm and objectives to the bit. The served fixtures depend on these
//! exact tie-breaks, which a check that accepts any valid greedy run does
//! not pin.
//!
//! Inputs mix hand-rolled families from [`CoverInstance::new`] (empty
//! sets, duplicate sets, an empty family) with weighted instances from
//! pools sampled on small random graphs; `p` runs over 0, 1, Σw and a
//! random value, and allocations over 1–4 targets sharing nodes at every
//! budget 0–20. `PROPTEST_CASES` scales the case count.

use proptest::prelude::*;
use raf_cover::{
    allocate_budget, solve_msc, Allocation, AnchorSolver, BudgetTarget, ChlamtacPortfolio,
    CoverInstance, CoverSolution, GreedyMarginal, MpuSolver,
};
use raf_graph::{generators, CsrGraph, NodeId, WeightScheme};
use raf_model::sampler::SampleRequest;
use raf_model::FriendingInstance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The solvers and the allocator before the element → sets index moved
/// into [`CoverInstance`], copied verbatim up to paths and the `self`
/// of the anchor budget.
mod reference {
    use raf_cover::{
        Allocation, AllocationArm, BudgetTarget, CoverError, CoverInstance, CoverSolution,
        MpuSolver, SmallestSets,
    };

    fn check_p(instance: &CoverInstance, p: usize) -> Result<(), CoverError> {
        if p > instance.total_weight() {
            return Err(CoverError::NotEnoughSets { p, available: instance.total_weight() });
        }
        Ok(())
    }

    #[derive(Debug, Default)]
    pub(crate) struct GreedyScratch {
        marginal: Vec<u32>,
        buckets: Vec<Vec<u32>>,
        elem_sets: Vec<Vec<u32>>,
    }

    impl GreedyScratch {
        pub(crate) fn new() -> Self {
            Self::default()
        }

        fn reset(&mut self, elements: usize, m: usize, bucket_levels: usize) {
            self.marginal.clear();
            self.marginal.resize(m, 0);
            for b in &mut self.buckets {
                b.clear();
            }
            if self.buckets.len() < bucket_levels {
                self.buckets.resize_with(bucket_levels, Vec::new);
            }
            for e in &mut self.elem_sets {
                e.clear();
            }
            if self.elem_sets.len() < elements {
                self.elem_sets.resize_with(elements, Vec::new);
            }
        }
    }

    pub(crate) fn greedy_fill(
        instance: &CoverInstance,
        taken: &mut [bool],
        in_union: &mut [bool],
        chosen: &mut Vec<usize>,
        covered_weight: &mut usize,
        target_weight: usize,
        scratch: &mut GreedyScratch,
    ) {
        let m = instance.set_count();
        if *covered_weight >= target_weight {
            return;
        }
        // Exact current marginals.
        let mut max_size = 0usize;
        for (i, &t) in taken.iter().enumerate() {
            if !t {
                max_size = max_size.max(instance.set(i).len());
            }
        }
        scratch.reset(instance.element_count(), m, max_size + 1);
        let GreedyScratch { marginal, buckets, elem_sets } = scratch;
        for (i, &t) in taken.iter().enumerate() {
            if !t {
                marginal[i] = instance.marginal(i, in_union) as u32;
            }
        }
        // Reverse order so ties pop the lowest index first.
        for i in (0..m).rev() {
            if !taken[i] {
                buckets[marginal[i] as usize].push(i as u32);
            }
        }
        // Inverted index over the not-yet-covered elements only.
        for (i, set) in instance.iter_sets().enumerate() {
            if taken[i] {
                continue;
            }
            for &e in set {
                if !in_union[e as usize] {
                    elem_sets[e as usize].push(i as u32);
                }
            }
        }
        let mut cursor = 0usize;
        while *covered_weight < target_weight {
            // Find the next valid (non-stale, untaken) minimum-marginal set.
            let idx = loop {
                while cursor < buckets.len() && buckets[cursor].is_empty() {
                    cursor += 1;
                }
                debug_assert!(cursor < buckets.len(), "p ≤ Σ weights guarantees a candidate");
                let i = buckets[cursor].pop().expect("non-empty bucket") as usize;
                if !taken[i] && marginal[i] as usize == cursor {
                    break i;
                }
            };
            taken[idx] = true;
            chosen.push(idx);
            *covered_weight += instance.weight(idx);
            for &e in instance.set(idx) {
                let e = e as usize;
                if in_union[e] {
                    continue;
                }
                in_union[e] = true;
                for &j in &elem_sets[e] {
                    let j = j as usize;
                    if taken[j] {
                        continue;
                    }
                    marginal[j] -= 1;
                    let lvl = marginal[j] as usize;
                    buckets[lvl].push(j as u32);
                    if lvl < cursor {
                        cursor = lvl;
                    }
                }
            }
        }
    }

    /// `GreedyMarginal`.
    pub struct Greedy;

    impl MpuSolver for Greedy {
        fn solve(&self, instance: &CoverInstance, p: usize) -> Result<CoverSolution, CoverError> {
            check_p(instance, p)?;
            let mut taken = vec![false; instance.set_count()];
            let mut in_union = vec![false; instance.element_count()];
            let mut chosen = Vec::with_capacity(p.min(instance.set_count()));
            let mut covered_weight = 0usize;
            let mut scratch = GreedyScratch::new();
            greedy_fill(
                instance,
                &mut taken,
                &mut in_union,
                &mut chosen,
                &mut covered_weight,
                p,
                &mut scratch,
            );
            Ok(CoverSolution::from_sets(instance, chosen))
        }

        fn name(&self) -> &'static str {
            "reference-greedy-marginal"
        }
    }

    /// `AnchorSolver`.
    #[derive(Clone, Copy)]
    pub struct Anchor {
        pub anchors: usize,
    }

    impl Anchor {
        #[allow(clippy::too_many_arguments)]
        fn solve_for_anchor(
            &self,
            instance: &CoverInstance,
            p: usize,
            through_anchor: &[u32],
            taken: &mut [bool],
            in_union: &mut [bool],
            scratch: &mut GreedyScratch,
        ) -> CoverSolution {
            taken.fill(false);
            in_union.fill(false);
            let mut through: Vec<usize> = through_anchor.iter().map(|&i| i as usize).collect();
            through.sort_by_key(|&i| (instance.set(i).len(), i));
            let mut chosen = Vec::new();
            let mut covered_weight = 0usize;
            for &i in &through {
                if covered_weight >= p {
                    break;
                }
                taken[i] = true;
                for &e in instance.set(i) {
                    in_union[e as usize] = true;
                }
                chosen.push(i);
                covered_weight += instance.weight(i);
            }
            // Pad with the shared linear-time greedy.
            greedy_fill(instance, taken, in_union, &mut chosen, &mut covered_weight, p, scratch);
            CoverSolution::from_sets(instance, chosen)
        }
    }

    impl MpuSolver for Anchor {
        fn solve(&self, instance: &CoverInstance, p: usize) -> Result<CoverSolution, CoverError> {
            check_p(instance, p)?;
            if p == 0 {
                return Ok(CoverSolution::from_sets(instance, Vec::new()));
            }
            let elements = instance.element_count();
            let mut freq = vec![0u64; elements];
            let mut index: Vec<Vec<u32>> = vec![Vec::new(); elements];
            for (i, s) in instance.iter_sets().enumerate() {
                for &e in s {
                    freq[e as usize] += instance.weight(i) as u64;
                    index[e as usize].push(i as u32);
                }
            }
            // Stable sort: frequency ties go to the smaller local id, which is
            // the smaller ground id.
            let mut by_freq: Vec<u32> = (0..elements as u32).collect();
            by_freq.sort_by_key(|&e| std::cmp::Reverse(freq[e as usize]));
            let mut best: Option<CoverSolution> = None;
            let mut scratch = GreedyScratch::new();
            let mut taken = vec![false; instance.set_count()];
            let mut in_union = vec![false; elements];
            for &anchor in by_freq.iter().take(self.anchors) {
                if freq[anchor as usize] == 0 {
                    break;
                }
                let sol = self.solve_for_anchor(
                    instance,
                    p,
                    &index[anchor as usize],
                    &mut taken,
                    &mut in_union,
                    &mut scratch,
                );
                let better = match &best {
                    None => true,
                    Some(b) => sol.cost() < b.cost(),
                };
                if better {
                    best = Some(sol);
                }
            }
            match best {
                Some(sol) => Ok(sol),
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
            "reference-element-anchor"
        }
    }

    /// `ChlamtacPortfolio`: the reference greedy and anchor arms with the
    /// shipped `SmallestSets` (which never built an index).
    pub struct Portfolio {
        pub anchor: Anchor,
    }

    impl MpuSolver for Portfolio {
        fn solve(&self, instance: &CoverInstance, p: usize) -> Result<CoverSolution, CoverError> {
            let greedy = Greedy.solve(instance, p)?;
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
            "reference-chlamtac-portfolio"
        }
    }

    /// `allocate_budget` over a non-empty target list sharing one
    /// universe.
    pub fn allocate_budget(targets: &[BudgetTarget<'_>], budget: usize) -> Allocation {
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
        let mut best = 0usize;
        for i in 1..arms.len() {
            if arm_objectives[i] > arm_objectives[best] {
                best = i;
            }
        }
        let (arm, chosen) = arms[best].clone();
        Allocation {
            chosen,
            per_target_covered: covered[best].clone(),
            objective: arm_objectives[best],
            arm,
            arm_objectives,
        }
    }

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

    fn objective(targets: &[BudgetTarget<'_>], covered: &[usize]) -> f64 {
        targets
            .iter()
            .zip(covered)
            .map(
                |(t, &c)| {
                    if t.total_samples == 0 {
                        0.0
                    } else {
                        c as f64 / t.total_samples as f64
                    }
                },
            )
            .sum()
    }

    fn equal_slices(k: usize, budget: usize) -> Vec<usize> {
        let base = budget / k;
        let extra = budget % k;
        (0..k).map(|i| base + usize::from(i < extra)).collect()
    }

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

    fn joint_greedy(targets: &[BudgetTarget<'_>], budget: usize) -> Vec<u32> {
        let mut chosen: Vec<u32> = Vec::new();
        if budget == 0 {
            return chosen;
        }
        let mut masks: Vec<Vec<bool>> =
            targets.iter().map(|t| vec![false; t.sets.element_count()]).collect();
        // Covered flags per (target, set): pre-mark the empty sets so every
        // live candidate has cost ≥ 1 and the density rational is
        // well-defined.
        let mut covered: Vec<Vec<bool>> = targets
            .iter()
            .map(|t| (0..t.sets.set_count()).map(|j| t.sets.set(j).is_empty()).collect())
            .collect();
        loop {
            // (weight, ts, cost, target, set) of the best candidate so far.
            let mut best: Option<(u128, u128, usize, usize, usize)> = None;
            for (ti, target) in targets.iter().enumerate() {
                let ts = target.total_samples.max(1) as u128;
                for (j, &done) in covered[ti].iter().enumerate() {
                    if done {
                        continue;
                    }
                    let cost = target.sets.marginal(j, &masks[ti]);
                    if chosen.len() + cost > budget {
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
            for &e in picked.set(j) {
                if masks[ti][e as usize] {
                    continue;
                }
                let v = picked.node(e);
                chosen.push(v);
                for (target, mask) in targets.iter().zip(masks.iter_mut()) {
                    if let Some(local) = target.sets.local(v) {
                        mask[local as usize] = true;
                    }
                }
            }
            // Prune every set the pick completed — across *all* targets:
            // shared route segments cover sibling targets' paths for free.
            for ((target, done), mask) in targets.iter().zip(covered.iter_mut()).zip(&masks) {
                for (j, done) in done.iter_mut().enumerate() {
                    if !*done && target.sets.set(j).iter().all(|&e| mask[e as usize]) {
                        *done = true;
                    }
                }
            }
            if chosen.len() >= budget || covered.iter().all(|c| c.iter().all(|&x| x)) {
                break;
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

/// A family over `0..universe` drawn from a few distinct elements, so
/// sets overlap, with empty sets and verbatim duplicates of earlier sets.
fn random_family(rng: &mut StdRng, universe: usize, max_sets: usize) -> Vec<Vec<u32>> {
    let spread = rng.gen_range(1..=universe.min(12)) as u32;
    let offset = rng.gen_range(0..=(universe as u32 - spread));
    let m = rng.gen_range(0..=max_sets);
    let mut sets: Vec<Vec<u32>> = Vec::with_capacity(m);
    for _ in 0..m {
        let set = match rng.gen_range(0..8) {
            0 => Vec::new(),
            1 if !sets.is_empty() => sets[rng.gen_range(0..sets.len())].clone(),
            _ => {
                let len = rng.gen_range(1..=6);
                (0..len).map(|_| offset + rng.gen_range(0..spread)).collect()
            }
        };
        sets.push(set);
    }
    sets
}

/// A small random social graph, its CSR snapshot, from one of the
/// generator families.
fn random_graph(rng: &mut StdRng) -> CsrGraph {
    let n = rng.gen_range(6..28);
    let builder = match rng.gen_range(0..3) {
        0 => generators::erdos_renyi_gnp(n, rng.gen_range(0.1..0.5), rng).unwrap(),
        1 => generators::barabasi_albert(n, rng.gen_range(1..4), rng).unwrap(),
        _ => generators::powerlaw_cluster(n, 2, 0.3, rng).unwrap(),
    };
    builder.build(WeightScheme::UniformByDegree).unwrap().to_csr()
}

/// The weighted instance over the type-1 paths of a pool sampled from
/// `s` to `t` (walk-order sets, weights = multiplicities), with the
/// pool's walk count; `None` when `(s, t)` is not a valid pair.
fn pool_target(g: &CsrGraph, s: usize, t: usize, rng: &mut StdRng) -> Option<(CoverInstance, u64)> {
    let fi = FriendingInstance::new(g, NodeId::new(s), NodeId::new(t)).ok()?;
    let pool = SampleRequest::new(rng.gen_range(20..1_500)).seed(rng.gen()).run(&fi);
    let cover = CoverInstance::from_path_pool_ref(g.node_count(), &pool).unwrap();
    Some((cover, pool.total_samples()))
}

/// One random instance: a sampled pool, or a hand-rolled family when the
/// coin says so or the drawn pair is not valid.
fn random_instance(seed: u64) -> CoverInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.gen_bool(0.5) {
        let g = random_graph(&mut rng);
        let (s, t) = (rng.gen_range(0..g.node_count()), rng.gen_range(0..g.node_count()));
        if let Some((cover, _)) = pool_target(&g, s, t, &mut rng) {
            return cover;
        }
    }
    let universe = rng.gen_range(1..24);
    let family = random_family(&mut rng, universe, 14);
    CoverInstance::new(universe, family).unwrap()
}

/// `k` targets over one universe that share nodes: pools of one source
/// to several targets on one graph, mixed with hand-rolled families over
/// the same node range (some with a zero walk count).
fn random_targets(seed: u64, k: usize) -> Vec<(CoverInstance, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_graph(&mut rng);
    let n = g.node_count();
    let s = rng.gen_range(0..n);
    let mut targets = Vec::with_capacity(k);
    while targets.len() < k {
        let pooled = if rng.gen_bool(0.6) {
            pool_target(&g, s, rng.gen_range(0..n), &mut rng)
        } else {
            None
        };
        targets.push(pooled.unwrap_or_else(|| {
            let family = random_family(&mut rng, n, 10);
            (CoverInstance::new(n, family).unwrap(), rng.gen_range(0..12))
        }));
    }
    targets
}

/// The requirements checked on an instance: 0, 1, Σw and one in between.
fn requirements(inst: &CoverInstance, seed: u64) -> Vec<usize> {
    let total = inst.total_weight();
    let mut ps = vec![0, 1.min(total), total, StdRng::seed_from_u64(seed).gen_range(0..=total)];
    ps.sort_unstable();
    ps.dedup();
    ps
}

fn assert_same_solution(
    name: &str,
    p: usize,
    got: Result<CoverSolution, raf_cover::CoverError>,
    want: Result<CoverSolution, raf_cover::CoverError>,
) {
    assert_eq!(got, want, "{name} diverged from the reference at p = {p}");
}

fn assert_same_allocation(budget: usize, got: &Allocation, want: &Allocation) {
    assert_eq!(got.chosen, want.chosen, "chosen nodes at budget {budget}");
    assert_eq!(got.per_target_covered, want.per_target_covered, "coverage at budget {budget}");
    assert_eq!(got.arm, want.arm, "winning arm at budget {budget}");
    assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "objective at budget {budget}");
    for (arm, (g, w)) in got.arm_objectives.iter().zip(&want.arm_objectives).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "arm {arm} objective at budget {budget}");
    }
}

proptest! {
    /// Every MpU solver picks the reference's sets in the reference's
    /// order, and `solve_msc` covers the same sets with the same weight.
    #[test]
    fn solvers_match_the_reference(seed in 0u64..u64::MAX) {
        let inst = random_instance(seed);
        let reference_anchor = reference::Anchor { anchors: 8 };
        let reference_portfolio = reference::Portfolio { anchor: reference_anchor };
        for p in requirements(&inst, seed) {
            assert_same_solution(
                "greedy",
                p,
                GreedyMarginal::new().solve(&inst, p),
                reference::Greedy.solve(&inst, p),
            );
            assert_same_solution(
                "anchor",
                p,
                AnchorSolver::new().solve(&inst, p),
                reference_anchor.solve(&inst, p),
            );
            assert_same_solution(
                "single anchor",
                p,
                AnchorSolver::with_anchors(1).solve(&inst, p),
                reference::Anchor { anchors: 1 }.solve(&inst, p),
            );
            assert_same_solution(
                "portfolio",
                p,
                ChlamtacPortfolio::new().solve(&inst, p),
                reference_portfolio.solve(&inst, p),
            );
            prop_assert_eq!(
                solve_msc(&ChlamtacPortfolio::new(), &inst, p),
                solve_msc(&reference_portfolio, &inst, p),
                "solve_msc at p = {}", p
            );
        }
    }

    /// `allocate_budget` returns the reference's allocation, arm and
    /// objectives bit for bit, for 1–4 targets sharing nodes at every
    /// budget 0–20.
    #[test]
    fn allocations_match_the_reference(seed in 0u64..u64::MAX, k in 1usize..=4) {
        let owned = random_targets(seed, k);
        let targets: Vec<BudgetTarget<'_>> = owned
            .iter()
            .map(|(sets, total_samples)| BudgetTarget { sets, total_samples: *total_samples })
            .collect();
        for budget in 0..=20 {
            let got = allocate_budget(&targets, budget).unwrap();
            assert_same_allocation(budget, &got, &reference::allocate_budget(&targets, budget));
        }
    }
}
