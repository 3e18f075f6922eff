//! Serving-cache equivalence property: an answer served from a **cache
//! hit** in a long-lived [`SessionContext`] is bit-identical to a cold
//! [`one_shot`] run of the same query — same invitation set, same pool
//! statistics, same cover requirement — across seeds, thread counts,
//! alphas, and graph families. Exactly, not within tolerance: pool seeds
//! derive only from `(master seed, pair)`, so the cache can never change
//! an answer, only skip resampling.
//!
//! The stage-by-stage reference is held to the same answers: no driver
//! calls [`RafAlgorithm`], but it seeds its pool with `pair_seed`, solves
//! for the same `β` (independent of the ground size) and selects through
//! the same solve stage, so a `Fixed(W)` run answers what a cold query
//! at `W` walks answers, and `raf run --budget W` is that query.
//!
//! Thread counts cover {1, 4} plus whatever `RAF_THREADS` the CI matrix
//! sets, so the parallel sampler's per-thread merge is exercised through
//! the cache path too.

use active_friending::prelude::*;
use proptest::prelude::*;
use raf_graph::{generators, Relabeling, SocialGraph};
use raf_model::sampler::threads_from_env;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The thread counts every property is checked under.
fn thread_matrix() -> Vec<usize> {
    let mut threads = vec![1usize, 4];
    let env = threads_from_env();
    if !threads.contains(&env) {
        threads.push(env);
    }
    threads
}

/// A random connected-ish social graph from the generator families.
fn random_graph(family: u8, nodes: usize, seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let builder = match family % 3 {
        0 => generators::powerlaw_cluster(nodes, 2, 0.3, &mut rng).unwrap(),
        1 => generators::erdos_renyi_gnp(nodes, 8.0 / nodes as f64, &mut rng).unwrap(),
        _ => generators::barabasi_albert(nodes, 3, &mut rng).unwrap(),
    };
    builder.build(WeightScheme::UniformByDegree).unwrap()
}

/// Picks a deterministic `(s, t)` pair that forms a valid instance, or
/// `None` when the graph has no such pair.
fn pick_pair(g: &SocialGraph) -> Option<(NodeId, NodeId)> {
    let n = g.node_count();
    for s in 0..n.min(8) {
        let s = NodeId::new(s);
        if g.degree(s) == 0 {
            continue;
        }
        for t in (0..n).rev().take(16) {
            let t = NodeId::new(t);
            if t != s && !g.has_edge(s, t) && g.degree(t) > 0 {
                return Some((s, t));
            }
        }
    }
    None
}

/// Asserts two answers are bit-identical in every field the paper's
/// analysis cares about (everything except the cache flag).
fn assert_same_answer(warm: &QueryAnswer, cold: &QueryAnswer, label: &str) {
    assert_eq!(warm.invitations, cold.invitations, "{label}: invitation sets diverged");
    assert_eq!(warm.pmax_estimate, cold.pmax_estimate, "{label}: pmax diverged");
    assert_eq!(warm.type1_count, cold.type1_count, "{label}: |B1| diverged");
    assert_eq!(warm.cover_p, cold.cover_p, "{label}: cover requirement diverged");
    assert_eq!(warm.covered, cold.covered, "{label}: covered weight diverged");
    assert_eq!(warm.walks, cold.walks, "{label}: effective walks diverged");
    assert_eq!(warm.parameters, cold.parameters, "{label}: parameter set diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cache-hit answers equal cold one-shot answers: prime the context
    /// with one alpha, then serve every alpha of the grid from the
    /// resident pool and compare each against a fresh single-query run.
    #[test]
    fn cache_hits_equal_cold_one_shots(
        seed in 0u64..400,
        family in 0u8..3,
        nodes in 60usize..150,
    ) {
        let social = random_graph(family, nodes, seed);
        let Some((s, t)) = pick_pair(&social) else { return Ok(()); };
        let csr = social.to_csr();
        for threads in thread_matrix() {
            let config = ServeConfig {
                walks: 6_000,
                seed: seed ^ 0xCAFE,
                threads,
                ..Default::default()
            };
            let mut ctx = SessionContext::new(&csr, config.clone());
            // Prime the pool with an alpha outside the tested grid.
            let prime = Query { s, t, alpha: 0.9, budget: 6_000 };
            let Ok(primed) = ctx.query(&prime) else {
                // Unreachable pair on this graph draw: nothing to compare.
                return Ok(());
            };
            prop_assert!(!primed.cache_hit);
            for alpha in [0.15, 0.3, 0.5] {
                let query = Query { s, t, alpha, budget: 6_000 };
                let warm = ctx.query(&query).unwrap();
                prop_assert!(warm.cache_hit, "alpha-only change must hit (threads={threads})");
                let cold = one_shot(&csr, config.clone(), &query).unwrap();
                prop_assert!(!cold.cache_hit);
                assert_same_answer(&warm, &cold, &format!("alpha={alpha} threads={threads}"));
            }
        }
    }

    /// The equivalence holds through a hub-BFS relabeled context too, and
    /// answers are independent of what else the cache has served.
    #[test]
    fn relabeled_and_busy_contexts_stay_equivalent(
        seed in 0u64..300,
        nodes in 60usize..120,
    ) {
        let social = random_graph(seed as u8, nodes, seed);
        let Some((s, t)) = pick_pair(&social) else { return Ok(()); };
        let plain_csr = social.to_csr();
        let relabeling = Arc::new(Relabeling::hub_bfs(&social));
        let relabeled_csr = social.to_csr_relabeled(&relabeling);
        let config = ServeConfig { walks: 5_000, seed: seed ^ 0xBEE, ..Default::default() };
        let query = Query { s, t, alpha: 0.4, budget: 5_000 };
        let Ok(cold) = one_shot(&plain_csr, config.clone(), &query) else { return Ok(()); };
        // A relabeled context, warmed up by other pairs first, must still
        // serve the bit-identical answer on its cache hit.
        let mut relabeled =
            SessionContext::with_relabeling(&relabeled_csr, relabeling, config.clone());
        for other in 0..social.node_count().min(4) {
            let other = NodeId::new(other);
            if other != s && other != t {
                let _ = relabeled.query(&Query { s: other, t, alpha: 0.4, budget: 5_000 });
            }
        }
        let miss = relabeled.query(&query).unwrap();
        prop_assert!(!miss.cache_hit);
        let hit = relabeled.query(&query).unwrap();
        prop_assert!(hit.cache_hit);
        assert_same_answer(&hit, &cold, "relabeled busy context");
        assert_same_answer(&miss, &cold, "relabeled cold path");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One pipeline: [`RafAlgorithm`] with a `Fixed(W)` budget answers
    /// exactly what a cold [`one_shot`] query at `walks: W` answers, at
    /// every α, thread count and layout. Graphs of 40 to 400 nodes put
    /// `|V_max|·ε1` on both sides of the `ε0` cap, and the ground sizes
    /// differ (`|V_max|` offline, `n` served), which moves `ε0` and `ε1`
    /// but never `β`.
    #[test]
    fn raf_runs_answer_what_serve_answers(
        seed in 0u64..400,
        family in 0u8..3,
        nodes in 40usize..400,
    ) {
        let social = random_graph(family, nodes, seed);
        let Some((s, t)) = pick_pair(&social) else { return Ok(()); };
        let plain_csr = social.to_csr();
        let relabeling = Arc::new(Relabeling::hub_bfs(&social));
        let relabeled_csr = social.to_csr_relabeled(&relabeling);
        let (Ok(plain), Ok(relabeled)) = (
            FriendingInstance::new(&plain_csr, s, t),
            FriendingInstance::relabeled(&relabeled_csr, s, t, relabeling),
        ) else {
            return Ok(());
        };
        let master = seed ^ 0xFACE;
        let walks = 6_000;
        for threads in thread_matrix() {
            let config = ServeConfig { walks, seed: master, threads, ..Default::default() };
            for alpha in [0.1, 0.2, 0.3, 0.6] {
                let query = Query { s, t, alpha, budget: walks };
                let Ok(served) = one_shot(&plain_csr, config.clone(), &query) else {
                    return Ok(());
                };
                // The paper's screening (p_max ≥ 0.01) keeps Alg. 2's
                // stopping rule short; it feeds only `l*`, never the set.
                if served.pmax_estimate < 0.01 {
                    return Ok(());
                }
                for (layout, instance) in [("plain", &plain), ("hub_bfs", &relabeled)] {
                    let label = format!("alpha={alpha} threads={threads} layout={layout}");
                    let config = RafConfig {
                        pmax_sample_cap: 100_000,
                        ..RafConfig::with_alpha(alpha)
                            .seed(master)
                            .threads(threads)
                            .budget(RealizationBudget::Fixed(walks))
                    };
                    let raf = RafAlgorithm::new(config).run(instance).unwrap();
                    prop_assert_eq!(&raf.invitations, &served.invitations, "{}", label);
                    prop_assert_eq!(raf.cover_p, served.cover_p, "{}", label);
                    prop_assert_eq!(raf.covered, served.covered, "{}", label);
                    prop_assert_eq!(raf.type1_count, served.type1_count, "{}", label);
                    prop_assert_eq!(raf.realizations_used, served.walks, "{}", label);
                    prop_assert_eq!(
                        raf.parameters.beta.to_bits(),
                        served.parameters.beta.to_bits(),
                        "{}",
                        label
                    );
                }
            }
        }
    }
}

/// Clamped budgets reuse the pool and still match a cold run of the
/// clamped query — the `(α, budget)`-only reuse the tentpole promises.
#[test]
fn clamped_budget_reuse_matches_cold_runs() {
    let social = random_graph(0, 120, 11);
    let (s, t) = pick_pair(&social).expect("generator graph has a valid pair");
    let csr = social.to_csr();
    for threads in thread_matrix() {
        let config = ServeConfig { walks: 8_000, seed: 77, threads, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, config.clone());
        let first = Query { s, t, alpha: 0.3, budget: 8_000 };
        let over = Query { s, t, alpha: 0.6, budget: u64::MAX };
        ctx.query(&first).expect("screened pair serves");
        let warm = ctx.query(&over).expect("clamped budget serves");
        assert!(warm.cache_hit, "budget above the ceiling must clamp onto the resident pool");
        let cold = one_shot(&csr, config, &over).expect("cold run serves");
        assert_same_answer(&warm, &cold, &format!("clamped budget threads={threads}"));
        assert_eq!(warm.walks, 8_000);
    }
}
