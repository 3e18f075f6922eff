//! Streaming hash-based path interning for the arena pool.
//!
//! [`PathInterner`] replaces the sort-based dedup that pool assembly used
//! to run: instead of buffering every sampled type-1 walk, concatenating
//! the buffers and running an `O(P log P)` comparison sort over path
//! contents, walks are deduplicated **as they are sampled**. A completed
//! walk is hashed (vendored FxHash-style multiply-rotate hasher — see
//! `vendor/fxhash`) and probed against an open-addressing table of the
//! unique paths seen so far: a duplicate — the common case, walks repeat
//! 10–100,000× on these workloads — just bumps a multiplicity and never
//! touches the arena; a fresh path is copied in once. Interning is
//! therefore `O(|walk|)` expected per walk and the arena only ever holds
//! unique paths.
//!
//! The table stores arena slot ids (not paths), so per-thread interners
//! can be merged in any order with
//! [`absorb`](PathInterner::absorb) — each unique path crosses threads
//! exactly once, with its local multiplicity, which replaces the old
//! global buffer concatenation with traffic proportional to the *unique*
//! pool, typically 1–2 orders of magnitude smaller.
//!
//! Insertion order depends on walk order, so a final
//! [`into_canonical_parts`](PathInterner::into_canonical_parts) pass
//! permutes the unique slots into the pool's canonical lexicographic
//! order. Distinct paths only ever need grouping by their byte content,
//! so the permutation is computed with an in-place MSD radix sort (no
//! comparison sort over path contents anywhere in assembly).

use fxhash::hash_u32s;

/// Sentinel for an empty open-addressing table bucket.
const EMPTY: u32 = u32::MAX;

/// Initial table capacity (power of two).
const INITIAL_BUCKETS: usize = 64;

/// A streaming deduplicating arena of `u32` paths.
///
/// Unique path `i` occupies `nodes[offsets[i]..offsets[i + 1]]` in first-
/// seen order and has been interned `multiplicity[i]` times (weighted).
/// The sampler feeds each completed walk straight from its scratch
/// buffer:
///
/// ```
/// use raf_model::intern::PathInterner;
///
/// let mut interner = PathInterner::new();
/// for walk in [&[4u32, 3, 2][..], &[4, 3, 2], &[4, 1]] {
///     interner.intern_copy(walk, 1); // WalkScratch::nodes() in the sampler
/// }
/// assert_eq!(interner.unique_count(), 2);
/// assert_eq!(interner.interned_total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PathInterner {
    /// Concatenated node ids of the unique paths.
    nodes: Vec<u32>,
    /// CSR offsets; `offsets.len() == unique_count() + 1`.
    offsets: Vec<u32>,
    /// Weighted intern count per unique path.
    multiplicity: Vec<u32>,
    /// Cached hash per unique path (reused on table growth).
    hashes: Vec<u64>,
    /// Open-addressing table of arena slot ids; length is a power of two.
    table: Vec<u32>,
    /// Σ multiplicity, as a u64 (the pool's `|B¹_l|`).
    interned: u64,
}

impl Default for PathInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl PathInterner {
    /// An empty interner.
    pub fn new() -> Self {
        PathInterner {
            nodes: Vec::new(),
            offsets: vec![0],
            multiplicity: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; INITIAL_BUCKETS],
            interned: 0,
        }
    }

    /// Number of distinct paths interned so far.
    #[inline]
    pub fn unique_count(&self) -> usize {
        self.multiplicity.len()
    }

    /// Σ multiplicity: how many (weighted) paths were interned in total.
    #[inline]
    pub fn interned_total(&self) -> u64 {
        self.interned
    }

    /// Interns a path with the given weight (≥ 1): a duplicate — the
    /// common case — bumps the original's multiplicity without touching
    /// the arena; a fresh path is copied in once.
    ///
    /// # Panics
    ///
    /// Panics if the arena would overflow `u32` offsets — a hard assert,
    /// not debug-only, because an overflow would silently corrupt every
    /// later path slice.
    pub fn intern_copy(&mut self, path: &[u32], weight: u32) {
        self.intern_hashed(path, hash_u32s(path), weight);
    }

    /// [`intern_copy`](Self::intern_copy) with a precomputed hash (the
    /// merge path reuses the source interner's cached hashes).
    fn intern_hashed(&mut self, path: &[u32], hash: u64, weight: u32) {
        debug_assert!(weight >= 1, "interning with zero weight");
        debug_assert_eq!(hash, hash_u32s(path), "stale hash for path");
        match self.probe_slice(hash, path) {
            Some(slot) => self.bump(slot, weight),
            None => {
                self.nodes.extend_from_slice(path);
                assert!(self.nodes.len() <= EMPTY as usize, "path arena overflows u32 offsets");
                self.insert_tail(hash, weight);
            }
        }
    }

    /// Merges another interner into this one, preserving the other's
    /// insertion order: each of its unique paths is interned once with its
    /// accumulated multiplicity (and its already-computed hash).
    pub fn absorb(&mut self, other: &PathInterner) {
        for i in 0..other.unique_count() {
            self.intern_hashed(other.path(i), other.hashes[i], other.multiplicity[i]);
        }
    }

    /// The `i`-th unique path, in first-seen order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= unique_count()`.
    #[inline]
    pub fn path(&self, i: usize) -> &[u32] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The multiplicity of the `i`-th unique path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= unique_count()`.
    #[inline]
    pub fn multiplicity(&self, i: usize) -> u32 {
        self.multiplicity[i]
    }

    /// Iterates `(path, multiplicity)` in first-seen (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u32)> + '_ {
        (0..self.unique_count()).map(|i| (self.path(i), self.multiplicity[i]))
    }

    /// [`into_canonical_parts`](Self::into_canonical_parts) with the
    /// arena's node ids first translated through `map` (`map[id]` replaces
    /// `id`). Used by the pool assembler on relabeled snapshots: walks are
    /// interned in the snapshot's (relabeled) id space, then the *unique*
    /// paths — typically orders of magnitude fewer than the sampled walks
    /// — are mapped back to original ids here, and the canonical sort runs
    /// over the mapped contents, so the assembled pool is bit-identical to
    /// one sampled on the unrelabeled snapshot.
    ///
    /// `map` must be injective on the interned ids (a permutation table
    /// is), or distinct paths could collapse.
    ///
    /// # Panics
    ///
    /// Panics if an interned id is out of range for `map`.
    pub fn into_canonical_parts_mapped(mut self, map: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        // The probe table and cached hashes are stale after this, but
        // canonicalization only reads nodes/offsets/multiplicity.
        for id in &mut self.nodes {
            *id = map[*id as usize];
        }
        self.into_canonical_parts()
    }

    /// Decomposes into canonical `(nodes, offsets, multiplicity)` flat
    /// parts: unique paths permuted into lexicographic order (radix
    /// grouping by content — assembly never comparison-sorts paths).
    pub fn into_canonical_parts(mut self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let k = self.unique_count();
        if k <= 1 {
            self.nodes.shrink_to_fit();
            return (self.nodes, self.offsets, self.multiplicity);
        }
        let mut order: Vec<u32> = (0..k as u32).collect();
        radix_sort_paths(&mut order, |i| self.path(i as usize));
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0u32);
        let mut multiplicity = Vec::with_capacity(k);
        for &i in &order {
            nodes.extend_from_slice(self.path(i as usize));
            offsets.push(nodes.len() as u32);
            multiplicity.push(self.multiplicity[i as usize]);
        }
        (nodes, offsets, multiplicity)
    }

    #[inline]
    fn bump(&mut self, slot: usize, weight: u32) {
        self.multiplicity[slot] =
            self.multiplicity[slot].checked_add(weight).expect("path multiplicity overflows u32");
        self.interned += u64::from(weight);
    }

    /// Registers the arena tail (already appended) as a new unique path.
    fn insert_tail(&mut self, hash: u64, weight: u32) {
        let slot = self.unique_count() as u32;
        self.offsets.push(self.nodes.len() as u32);
        self.multiplicity.push(weight);
        self.hashes.push(hash);
        self.interned += u64::from(weight);
        // Grow at 3/4 load, before inserting into the table.
        if (self.unique_count() + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut bucket = hash as usize & mask;
        while self.table[bucket] != EMPTY {
            bucket = (bucket + 1) & mask;
        }
        self.table[bucket] = slot;
    }

    /// Probes for a path slice.
    fn probe_slice(&self, hash: u64, path: &[u32]) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut bucket = hash as usize & mask;
        loop {
            match self.table[bucket] {
                EMPTY => return None,
                slot => {
                    let slot = slot as usize;
                    if self.hashes[slot] == hash {
                        let s = self.offsets[slot] as usize;
                        let e = self.offsets[slot + 1] as usize;
                        if self.nodes[s..e] == *path {
                            return Some(slot);
                        }
                    }
                }
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts every slot from its cached hash.
    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let mask = new_len - 1;
        let mut table = vec![EMPTY; new_len];
        for (slot, &hash) in self.hashes.iter().enumerate() {
            let mut bucket = hash as usize & mask;
            while table[bucket] != EMPTY {
                bucket = (bucket + 1) & mask;
            }
            table[bucket] = slot as u32;
        }
        self.table = table;
    }
}

/// Number of radix buckets per level: one end-of-path bucket (shorter is
/// lexicographically smaller) plus one per byte value.
const BUCKETS: usize = 257;

/// Permutes `order` so the referenced paths are in ascending
/// lexicographic order, by MSD radix on the paths' big-endian byte
/// expansion. Explicit work-stack (no recursion: a path can be thousands
/// of nodes long) and counting passes only — no element comparisons.
fn radix_sort_paths<'a, F>(order: &mut [u32], path: F)
where
    F: Fn(u32) -> &'a [u32],
{
    /// Byte key of `p` at byte depth `d`, shifted so 0 = end-of-path.
    #[inline]
    fn key(p: &[u32], d: usize) -> usize {
        match p.get(d / 4) {
            None => 0,
            Some(&w) => 1 + ((w >> (24 - 8 * (d % 4))) & 0xff) as usize,
        }
    }

    let mut scratch = vec![0u32; order.len()];
    // (start, end, byte depth) ranges still needing a grouping pass.
    let mut work = vec![(0usize, order.len(), 0usize)];
    while let Some((start, end, depth)) = work.pop() {
        let mut counts = [0usize; BUCKETS];
        for &i in &order[start..end] {
            counts[key(path(i), depth)] += 1;
        }
        // Bucket 0 holds paths that ended: already in final position at
        // the front of the range; duplicates cannot occur (paths are
        // unique), so a fully-ended range needs no further work.
        let mut starts = [0usize; BUCKETS];
        let mut acc = 0usize;
        for (b, &c) in counts.iter().enumerate() {
            starts[b] = acc;
            acc += c;
            if c > 1 && b > 0 {
                work.push((start + starts[b], start + starts[b] + c, depth + 1));
            }
        }
        let mut cursor = starts;
        for &i in &order[start..end] {
            let b = key(path(i), depth);
            scratch[cursor[b]] = i;
            cursor[b] += 1;
        }
        order[start..end].copy_from_slice(&scratch[..end - start]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(paths: &[&[u32]]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut interner = PathInterner::new();
        for p in paths {
            interner.intern_copy(p, 1);
        }
        interner.into_canonical_parts()
    }

    fn paths_of(nodes: &[u32], offsets: &[u32]) -> Vec<Vec<u32>> {
        offsets.windows(2).map(|w| nodes[w[0] as usize..w[1] as usize].to_vec()).collect()
    }

    #[test]
    fn streaming_dedup_folds_duplicates() {
        let mut interner = PathInterner::new();
        for walk in [&[9u32, 4, 2][..], &[9, 4], &[9, 4, 2], &[9, 4, 2], &[9]] {
            interner.intern_copy(walk, 1);
        }
        assert_eq!(interner.unique_count(), 3);
        assert_eq!(interner.interned_total(), 5);
        // First-seen order, with the duplicate folded in.
        let seen: Vec<(Vec<u32>, u32)> = interner.iter().map(|(p, m)| (p.to_vec(), m)).collect();
        assert_eq!(seen, vec![(vec![9, 4, 2], 3), (vec![9, 4], 1), (vec![9], 1)]);
        // The arena holds exactly the unique nodes: no duplicate storage.
        let arena_len: usize = interner.iter().map(|(p, _)| p.len()).sum();
        assert_eq!(arena_len, 6);
    }

    #[test]
    fn canonical_parts_are_lexicographic() {
        let (nodes, offsets, mult) =
            canonical(&[&[3, 1], &[2], &[3], &[3, 0, 9], &[2, 7], &[3, 0]]);
        let paths = paths_of(&nodes, &offsets);
        let expected: Vec<Vec<u32>> =
            vec![vec![2], vec![2, 7], vec![3], vec![3, 0], vec![3, 0, 9], vec![3, 1]];
        assert_eq!(paths, expected);
        assert_eq!(mult, vec![1; 6]);
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap() as usize, nodes.len());
    }

    #[test]
    fn canonical_order_matches_slice_cmp_on_byte_boundaries() {
        // Values straddling byte boundaries of the radix decomposition.
        let raw: Vec<Vec<u32>> = vec![
            vec![0x0100],
            vec![0x00ff],
            vec![0x0100, 0],
            vec![u32::MAX],
            vec![u32::MAX - 1, 5],
            vec![0],
            vec![0, 0],
            vec![0, 1],
            vec![256, 255],
            vec![255, 256],
        ];
        let refs: Vec<&[u32]> = raw.iter().map(Vec::as_slice).collect();
        let (nodes, offsets, _) = canonical(&refs);
        let mut expected = raw.clone();
        expected.sort();
        assert_eq!(paths_of(&nodes, &offsets), expected);
    }

    #[test]
    fn weighted_merge_accumulates() {
        let mut a = PathInterner::new();
        a.intern_copy(&[5, 1], 3);
        a.intern_copy(&[5, 2], 1);
        let mut b = PathInterner::new();
        b.intern_copy(&[5, 2], 4);
        b.intern_copy(&[5, 0], 2);
        a.absorb(&b);
        assert_eq!(a.unique_count(), 3);
        assert_eq!(a.interned_total(), 10);
        let (_, _, mult) = a.into_canonical_parts();
        // Lexicographic: [5,0] → 2, [5,1] → 3, [5,2] → 5.
        assert_eq!(mult, vec![2, 3, 5]);
    }

    #[test]
    fn survives_table_growth() {
        let mut interner = PathInterner::new();
        let n = 10_000u32;
        for i in 0..n {
            interner.intern_copy(&[i / 100, i % 100, i], 1);
        }
        for i in 0..n {
            interner.intern_copy(&[i / 100, i % 100, i], 1);
        }
        assert_eq!(interner.unique_count(), n as usize);
        assert_eq!(interner.interned_total(), 2 * u64::from(n));
        let (nodes, offsets, mult) = interner.into_canonical_parts();
        assert!(mult.iter().all(|&m| m == 2));
        let paths = paths_of(&nodes, &offsets);
        assert!(paths.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
    }

    #[test]
    fn mapped_canonical_parts_translate_then_sort() {
        let mut interner = PathInterner::new();
        interner.intern_copy(&[0, 2], 2);
        interner.intern_copy(&[1], 1);
        interner.intern_copy(&[2, 0], 1);
        // map: 0→5, 1→3, 2→1.
        let (nodes, offsets, mult) = interner.into_canonical_parts_mapped(&[5, 3, 1]);
        let paths = paths_of(&nodes, &offsets);
        // Mapped paths [5,1], [3], [1,5] sort to [1,5], [3], [5,1].
        assert_eq!(paths, vec![vec![1, 5], vec![3], vec![5, 1]]);
        assert_eq!(mult, vec![1, 1, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        let interner = PathInterner::new();
        let (nodes, offsets, mult) = interner.into_canonical_parts();
        assert!(nodes.is_empty() && mult.is_empty());
        assert_eq!(offsets, vec![0]);
        let mut one = PathInterner::new();
        one.intern_copy(&[7], 2);
        let (nodes, offsets, mult) = one.into_canonical_parts();
        assert_eq!((nodes, offsets, mult), (vec![7], vec![0, 1], vec![2]));
    }

    #[test]
    fn radix_handles_long_paths_iteratively() {
        // Two paths sharing a 20k-node prefix: recursion over byte depth
        // would be ~80k frames deep; the explicit work stack must cope.
        let mut long_a: Vec<u32> = (0..20_000).collect();
        let long_b = long_a.clone();
        long_a.push(1);
        let (nodes, offsets, _) = canonical(&[&long_a, &long_b]);
        let paths = paths_of(&nodes, &offsets);
        assert_eq!(paths[0], long_b);
        assert_eq!(paths[1], long_a);
    }
}
