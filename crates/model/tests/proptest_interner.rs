//! Property tests for the streaming hash interner: streaming dedup must
//! be observationally identical to the legacy sort-based dedup it
//! replaced — same `(path, multiplicity)` multisets, same canonical
//! order, same `p_max` estimates — across seeds, shard splits (the
//! per-thread merge), and thread counts.

use proptest::prelude::*;
use raf_graph::{generators, CsrGraph, NodeId, WeightScheme};
use raf_model::intern::PathInterner;
use raf_model::reverse::sample_target_path;
use raf_model::sampler::{threads_from_env, walk_rng, SampleRequest};
use raf_model::FriendingInstance;

/// The legacy dedup: sort the full path multiset, run-length encode.
fn sort_dedup(mut paths: Vec<Vec<u32>>) -> Vec<(Vec<u32>, u32)> {
    paths.sort();
    let mut runs: Vec<(Vec<u32>, u32)> = Vec::new();
    for p in paths {
        match runs.last_mut() {
            Some((path, count)) if *path == p => *count += 1,
            _ => runs.push((p, 1)),
        }
    }
    runs
}

/// Canonical `(path, multiplicity)` pairs out of an interner.
fn canonical_pairs(interner: PathInterner) -> Vec<(Vec<u32>, u32)> {
    let (nodes, offsets, multiplicity) = interner.into_canonical_parts();
    offsets
        .windows(2)
        .zip(multiplicity)
        .map(|(w, m)| (nodes[w[0] as usize..w[1] as usize].to_vec(), m))
        .collect()
}

/// Random path lists with plenty of duplicates (small alphabet, short
/// paths), pre-split into shards to model the per-thread merge.
fn shards_strategy() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    let path = prop::collection::vec(0u32..12, 1..6);
    let shard = prop::collection::vec(path, 0..40);
    prop::collection::vec(shard, 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming dedup (any shard split, any insertion order) ==
    /// sort-based dedup of the flattened multiset.
    #[test]
    fn interner_matches_sort_dedup(shards in shards_strategy()) {
        let flat: Vec<Vec<u32>> = shards.iter().flatten().cloned().collect();
        let expected = sort_dedup(flat.clone());

        // Single-interner streaming (the sequential sampler shape).
        let mut single = PathInterner::new();
        for path in &flat {
            single.intern_copy(path, 1);
        }
        prop_assert_eq!(single.interned_total(), flat.len() as u64);
        prop_assert_eq!(canonical_pairs(single), expected.clone());

        // Per-shard interners merged in order (the parallel shape).
        let mut merged = PathInterner::new();
        for shard in &shards {
            let mut local = PathInterner::new();
            for path in shard {
                local.intern_copy(path, 1);
            }
            merged.absorb(&local);
        }
        prop_assert_eq!(merged.interned_total(), flat.len() as u64);
        prop_assert_eq!(canonical_pairs(merged), expected);
    }

    /// Weighted interning is equivalent to repeating unit-weight interns
    /// (the per-thread merge relies on this).
    #[test]
    fn weighted_interning_matches_repeats(
        paths in prop::collection::vec(
            (prop::collection::vec(0u32..9, 1..5), 1u32..5),
            1..40,
        ),
    ) {
        let mut weighted = PathInterner::new();
        for (path, w) in &paths {
            weighted.intern_copy(path, *w);
        }
        let mut repeated = PathInterner::new();
        for (path, w) in &paths {
            for _ in 0..*w {
                repeated.intern_copy(path, 1);
            }
        }
        prop_assert_eq!(weighted.interned_total(), repeated.interned_total());
        prop_assert_eq!(canonical_pairs(weighted), canonical_pairs(repeated));
    }

    /// Sampled pools: the streaming pool's `(path, multiplicity)` pairs
    /// and `p_max` estimate equal the legacy sort-dedup of the exact walk
    /// sequence (walk `i` drawn from `walk_rng(seed, i)`), across seeds.
    #[test]
    fn sampled_pool_matches_sort_dedup(seed in 0u64..500, l in 100u64..1_500) {
        let g: CsrGraph = generators::parallel_paths(&[1, 2, 3])
            .unwrap()
            .build(WeightScheme::UniformByDegree)
            .unwrap()
            .to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let walks: Vec<Vec<u32>> = (0..l)
            .filter_map(|i| {
                let tp = sample_target_path(&inst, &mut walk_rng(seed, i));
                tp.is_type1()
                    .then(|| tp.nodes.iter().map(|v| v.index() as u32).collect())
            })
            .collect();
        let expected = sort_dedup(walks.clone());

        let pool = SampleRequest::new(l).seed(seed).run(&inst);
        prop_assert_eq!(pool.type1_count(), walks.len());
        prop_assert_eq!(pool.pmax_estimate(), walks.len() as f64 / l as f64);
        let pool_pairs: Vec<(Vec<u32>, u32)> =
            pool.iter().map(|(p, m)| (p.to_vec(), m)).collect();
        prop_assert_eq!(pool_pairs, expected);
    }
}

/// Thread counts: every count samples a valid, reproducible pool whose
/// weighted counts are self-consistent and byte-identical to the
/// sequential pool (the CI thread matrix drives `RAF_THREADS` through
/// here).
#[test]
fn thread_counts_produce_consistent_pools() {
    let g: CsrGraph = generators::parallel_paths(&[1, 2, 2])
        .unwrap()
        .build(WeightScheme::UniformByDegree)
        .unwrap()
        .to_csr();
    let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
    let l = raf_model::sampler::CANCEL_CHECK_INTERVAL * 32;
    let sequential = SampleRequest::new(l).seed(77).run(&inst);
    for threads in [1usize, 2, 4, threads_from_env()] {
        let a = SampleRequest::new(l).seed(77).threads(threads).run(&inst);
        let b = SampleRequest::new(l).seed(77).threads(threads).run(&inst);
        assert_eq!(a, b, "threads={threads} not reproducible");
        assert_eq!(a, sequential, "threads={threads} changed the pool");
        let mult_total: u64 = (0..a.unique_count()).map(|i| u64::from(a.multiplicity(i))).sum();
        assert_eq!(mult_total as usize, a.type1_count(), "threads={threads}");
        assert_eq!(a.pmax_estimate(), a.type1_count() as f64 / l as f64);
        // Canonical order holds for every thread count.
        for w in (0..a.unique_count()).collect::<Vec<_>>().windows(2) {
            assert!(a.path(w[0]) < a.path(w[1]), "threads={threads}: order violated");
        }
    }
}
