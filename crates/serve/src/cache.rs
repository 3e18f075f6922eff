//! The byte-budgeted LRU pool cache behind [`crate::SessionContext`].

use raf_cover::CoverInstance;
use raf_model::sampler::PathPool;
use std::collections::HashMap;
use std::sync::Arc;

/// The identity of a cached pool: the pair plus the walk parameters the
/// pool was sampled with. `α` and the raw realization budget are
/// deliberately **absent** — neither changes the sampled walks (the
/// budget only participates through the effective `walks` clamp), which
/// is exactly the reuse the cache exists to exploit. The source is part
/// of the key because backward walks terminate on the source's seed
/// frontier `N(s)`: pools for the same target under different sources
/// are different distributions.
///
/// The master seed also shapes the sampled walk multiset, but it is a
/// context-wide constant (fixed in [`crate::ServeConfig`]), so it lives
/// in the configuration rather than in every key. The thread count never
/// does: each walk is seeded by its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolKey {
    /// The source (original-space id).
    pub s: u32,
    /// The target (original-space id).
    pub t: u32,
    /// Effective walk count the pool was sampled with.
    pub walks: u64,
}

/// One resident cache entry: the sampled pool and the weighted cover
/// instance built from it. Both are `α`-independent, so a warm query
/// re-runs only the solve. `Arc`-shared so answers can keep reading a
/// pool that eviction has already dropped from the cache.
///
/// Each entry carries an integrity fingerprint of its pool, stamped at
/// construction and re-checked on every cache lookup: an entry whose
/// stored pool no longer matches its fingerprint (the
/// [`CorruptCacheEntry`](crate::FaultKind::CorruptCacheEntry) fault, or
/// a real corruption bug) is evicted and resampled instead of served.
#[derive(Debug, Clone)]
pub struct CachedPool {
    /// The sampled pool.
    pool: Arc<PathPool>,
    /// The cover instance over the pool, built once per miss.
    pub cover: Arc<CoverInstance>,
    /// FNV-1a fingerprint of the pool's summary (see
    /// [`fingerprint`](Self::fingerprint)).
    checksum: u64,
}

impl CachedPool {
    /// Builds an entry over a freshly sampled pool/cover pair, stamping
    /// its integrity fingerprint.
    pub fn new(pool: Arc<PathPool>, cover: Arc<CoverInstance>) -> Self {
        let checksum = Self::fingerprint(&pool);
        CachedPool { pool, cover, checksum }
    }

    /// The entry's pool (shared, zero-copy).
    pub fn pool(&self) -> Arc<PathPool> {
        Arc::clone(&self.pool)
    }

    /// FNV-1a over the pool's summary statistics — cheap enough to run
    /// on every lookup, and any fault that changes what the pool would
    /// answer (walk count, type-1 mass, estimate, arena size) changes at
    /// least one of them.
    fn fingerprint(pool: &PathPool) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let words = [
            pool.total_samples(),
            pool.type1_count() as u64,
            pool.pmax_estimate().to_bits(),
            pool.heap_bytes() as u64,
        ];
        let mut hash = FNV_OFFSET;
        for word in words {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }

    /// Whether the entry's pool still matches its stamped fingerprint.
    pub fn verify(&self) -> bool {
        Self::fingerprint(&self.pool) == self.checksum
    }

    /// Logical bytes this entry charges against the cache budget: the
    /// pool's arena plus the cover instance's tables.
    pub fn heap_bytes(&self) -> usize {
        self.pool.heap_bytes() + self.cover.heap_bytes()
    }
}

/// Cache counters, cumulative over the owning context's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that required sampling a fresh pool (including lookups
    /// that found a corrupt entry — see `integrity_evictions`).
    pub misses: u64,
    /// Entries dropped to fit the byte budget.
    pub evictions: u64,
    /// Inserts refused because the entry alone exceeds the whole byte
    /// budget (the entry is passed through to the caller uncached;
    /// resident entries are untouched).
    pub rejected: u64,
    /// Entries evicted because their integrity fingerprint no longer
    /// matched on lookup (each also counts as a miss: the caller
    /// resamples).
    pub integrity_evictions: u64,
}

/// An LRU cache of [`CachedPool`]s under a byte-size budget.
///
/// Recency is a vector of keys (least-recent first): touches are `O(k)`
/// in the resident entry count, which is bounded by
/// `budget / smallest-pool-size` — tiny for realistic budgets — and in
/// exchange the eviction order is trivially deterministic and
/// inspectable ([`lru_keys`](Self::lru_keys)).
///
/// An entry that alone exceeds the whole budget is **rejected** (passed
/// through to the caller uncached, counted in
/// [`CacheStats::rejected`]): admitting it would evict every resident
/// entry to cache something that still doesn't fit, turning one
/// oversized query into a whole-cache flush.
#[derive(Debug, Default)]
pub struct PoolCache {
    budget_bytes: usize,
    entries: HashMap<PoolKey, Resident>,
    /// Keys in recency order, least recent first.
    order: Vec<PoolKey>,
    bytes: usize,
    stats: CacheStats,
}

/// A resident entry plus the bytes it was last charged at. Storing the
/// charge per entry (instead of recomputing `heap_bytes()` at eviction)
/// is what makes in-place mutation safe to account: the cache always
/// credits back exactly what it debited, and
/// [`reaccount`](PoolCache::reaccount) reconciles the difference when an
/// entry's size changes under it.
#[derive(Debug)]
struct Resident {
    entry: CachedPool,
    charged: usize,
}

impl PoolCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        PoolCache { budget_bytes, ..Default::default() }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently charged by resident entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident keys in recency order, least recent first (the order
    /// eviction would take them in).
    pub fn lru_keys(&self) -> &[PoolKey] {
        &self.order
    }

    /// Looks a key up, counting a hit (and refreshing recency) or a
    /// miss. An entry that fails its integrity check is evicted and
    /// reported as a miss, so the caller transparently resamples.
    pub fn get(&mut self, key: &PoolKey) -> Option<CachedPool> {
        match self.entries.get(key) {
            Some(resident) if resident.entry.verify() => {
                self.stats.hits += 1;
                let entry = resident.entry.clone();
                self.touch(key);
                Some(entry)
            }
            Some(_) => {
                self.evict(key);
                self.stats.integrity_evictions += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Reads a resident entry without counting a hit or refreshing
    /// recency — the maintenance view used by delta repair, which walks
    /// every resident entry and must not perturb the LRU order or the
    /// hit/miss telemetry while doing so.
    pub fn peek(&self, key: &PoolKey) -> Option<&CachedPool> {
        self.entries.get(key).map(|r| &r.entry)
    }

    /// Mutable access to a resident entry for in-place repair. The
    /// borrow deliberately bypasses recency and counters; the caller
    /// **must** follow the mutation with [`reaccount`](Self::reaccount)
    /// — until then the cache's tracked bytes still reflect the
    /// pre-mutation size.
    pub fn entry_mut(&mut self, key: &PoolKey) -> Option<&mut CachedPool> {
        self.entries.get_mut(key).map(|r| &mut r.entry)
    }

    /// Reconciles the tracked byte total after a resident entry was
    /// mutated in place (via [`entry_mut`](Self::entry_mut)): re-measures
    /// the entry, adjusts the cache total by the difference, and — if the
    /// entry grew past the budget — evicts least-recent entries exactly
    /// as [`insert`](Self::insert) would, including the reaccounted entry
    /// itself if it alone no longer fits. Returns whether the key is
    /// still resident afterwards; `false` for absent keys.
    pub fn reaccount(&mut self, key: &PoolKey) -> bool {
        let Some(resident) = self.entries.get_mut(key) else {
            return false;
        };
        let fresh = resident.entry.heap_bytes();
        self.bytes = self.bytes - resident.charged + fresh;
        resident.charged = fresh;
        self.debug_check_accounting();
        while self.bytes > self.budget_bytes && self.order.len() > 1 {
            let victim = self.order.remove(0);
            let dropped = self.entries.remove(&victim).expect("order/entries in sync");
            self.bytes -= dropped.charged;
            self.stats.evictions += 1;
        }
        if self.bytes > self.budget_bytes && self.entries.contains_key(key) {
            // The mutated entry alone exceeds the budget — the in-place
            // analogue of insert's oversized rejection.
            self.evict(key);
            self.stats.rejected += 1;
        }
        self.debug_check_accounting();
        self.entries.contains_key(key)
    }

    /// Inserts an entry as most-recent and evicts least-recent entries
    /// until the budget holds. Re-inserting a resident key replaces the
    /// entry. An entry that alone exceeds the whole budget is rejected
    /// (resident entries untouched, [`CacheStats::rejected`] bumped) —
    /// the caller already holds the entry and loses nothing but reuse.
    pub fn insert(&mut self, key: PoolKey, entry: CachedPool) {
        let charged = entry.heap_bytes();
        if charged > self.budget_bytes {
            self.stats.rejected += 1;
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= old.charged;
            self.order.retain(|k| k != &key);
        }
        self.bytes += charged;
        self.entries.insert(key, Resident { entry, charged });
        self.order.push(key);
        while self.bytes > self.budget_bytes && self.order.len() > 1 {
            let victim = self.order.remove(0);
            let dropped = self.entries.remove(&victim).expect("order/entries in sync");
            self.bytes -= dropped.charged;
            self.stats.evictions += 1;
        }
        self.debug_check_accounting();
    }

    /// Drops a key outright (no counter changes) — the consistency hook
    /// the session uses to discard a possibly half-built entry after a
    /// caught panic. Returns whether the key was resident.
    pub fn remove(&mut self, key: &PoolKey) -> bool {
        self.evict(key)
    }

    /// Integrity eviction from a maintenance walk (delta repair): drops
    /// an entry whose fingerprint no longer matches, counted in
    /// [`CacheStats::integrity_evictions`] like a lookup-time detection
    /// but **without** a miss — no caller is waiting for this entry, so
    /// there is no lookup to account. Returns whether a key was dropped.
    pub fn evict_corrupt(&mut self, key: &PoolKey) -> bool {
        if self.evict(key) {
            self.stats.integrity_evictions += 1;
            true
        } else {
            false
        }
    }

    /// Fault-injection hook ([`crate::FaultKind::CorruptCacheEntry`]):
    /// invalidates the resident entry's integrity fingerprint in place,
    /// so the next [`get`](Self::get) detects corruption, evicts, and
    /// forces a resample. Returns whether the key was resident.
    pub fn corrupt_entry(&mut self, key: &PoolKey) -> bool {
        match self.entries.get_mut(key) {
            Some(resident) => {
                resident.entry.checksum ^= 1;
                true
            }
            None => false,
        }
    }

    fn evict(&mut self, key: &PoolKey) -> bool {
        match self.entries.remove(key) {
            Some(dropped) => {
                self.bytes -= dropped.charged;
                self.order.retain(|k| k != key);
                true
            }
            None => false,
        }
    }

    /// Debug-build invariant: the tracked byte total is exactly the sum
    /// of per-entry charges. Checked at every accounting boundary
    /// (insert, reaccount) — a drift here is the in-place-mutation bug
    /// this accounting scheme exists to prevent.
    fn debug_check_accounting(&self) {
        debug_assert_eq!(
            self.bytes,
            self.entries.values().map(|r| r.charged).sum::<usize>(),
            "cache byte total must equal the summed per-entry charges"
        );
    }

    fn touch(&mut self, key: &PoolKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{GraphBuilder, NodeId, WeightScheme};
    use raf_model::sampler::SampleRequest;
    use raf_model::FriendingInstance;

    fn entry(walks: u64) -> CachedPool {
        // A real pool/cover pair off a tiny line graph; `walks` scales
        // nothing here (one unique path), it only differentiates keys.
        let mut b = GraphBuilder::new();
        b.add_edges((0..4).map(|i| (i, i + 1))).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(walks).seed(3).run(&inst);
        let cover = CoverInstance::from_path_pool(g.node_count(), pool.clone()).unwrap();
        CachedPool::new(Arc::new(pool), Arc::new(cover))
    }

    fn key(s: u32) -> PoolKey {
        PoolKey { s, t: 99, walks: 1_000 }
    }

    #[test]
    fn hit_miss_counters_and_recency() {
        let mut cache = PoolCache::new(usize::MAX);
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats(), CacheStats { misses: 1, ..Default::default() });
        cache.insert(key(1), entry(500));
        cache.insert(key(2), entry(500));
        assert!(cache.get(&key(1)).is_some());
        assert_eq!(cache.stats().hits, 1);
        // The hit refreshed key(1): key(2) is now the LRU victim.
        assert_eq!(cache.lru_keys(), &[key(2), key(1)]);
    }

    #[test]
    fn evicts_in_lru_order_under_byte_budget() {
        let one = entry(500).heap_bytes();
        // Room for exactly two entries.
        let mut cache = PoolCache::new(2 * one);
        cache.insert(key(1), entry(500));
        cache.insert(key(2), entry(500));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 2 * one);
        // Third entry evicts the least-recent (key 1).
        cache.insert(key(3), entry(500));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
        // Touch key(2), then insert: key(3) — now least recent — goes.
        cache.insert(key(4), entry(500));
        assert!(cache.get(&key(3)).is_none());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(4)).is_some());
    }

    #[test]
    fn byte_accounting_is_exact() {
        let e = entry(500);
        let one = e.heap_bytes();
        assert_eq!(
            one,
            e.pool().heap_bytes() + e.cover.heap_bytes(),
            "entry bytes must be the sum of its parts"
        );
        let mut cache = PoolCache::new(10 * one);
        for s in 0..3 {
            cache.insert(key(s), entry(500));
        }
        assert_eq!(cache.bytes(), 3 * one);
        // Replacing a resident key must not double-charge.
        cache.insert(key(1), entry(500));
        assert_eq!(cache.bytes(), 3 * one);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn oversized_entry_is_rejected_not_cached() {
        // Regression: an entry larger than the whole budget used to be
        // retained while every resident entry was evicted — one oversized
        // query flushed the cache and cached nothing usable. It must pass
        // through instead, leaving residents untouched.
        let one = entry(500).heap_bytes();
        let mut cache = PoolCache::new(2 * one);
        cache.insert(key(1), entry(500));
        cache.insert(key(2), entry(500));
        let giant = {
            // Many distinct walks on a wider graph: strictly bigger than
            // the two-entry budget.
            let mut b = GraphBuilder::new();
            b.add_edges((0..40usize).map(|i| (i, i + 1))).unwrap();
            b.add_edges((1..40usize).map(|i| (i, 41))).unwrap();
            let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
            let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(41)).unwrap();
            let pool = SampleRequest::new(20_000).seed(3).run(&inst);
            let cover = CoverInstance::from_path_pool(g.node_count(), pool.clone()).unwrap();
            CachedPool::new(Arc::new(pool), Arc::new(cover))
        };
        assert!(giant.heap_bytes() > 2 * one, "fixture must exceed the budget");
        cache.insert(key(9), giant);
        // Pass-through: nothing evicted, nothing cached, counter bumped.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 2 * one);
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(9)).is_none());
    }

    #[test]
    fn nothing_fits_budget_rejects_everything() {
        let mut cache = PoolCache::new(1);
        cache.insert(key(1), entry(500));
        cache.insert(key(2), entry(500));
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().rejected, 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn corrupt_entry_is_detected_evicted_and_remissed() {
        let mut cache = PoolCache::new(usize::MAX);
        cache.insert(key(1), entry(500));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.corrupt_entry(&key(1)));
        assert!(!cache.corrupt_entry(&key(7)), "absent keys cannot be corrupted");
        // The corrupted entry is evicted on lookup and reported as a miss.
        assert!(cache.get(&key(1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.integrity_evictions, 1);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(cache.is_empty());
        // Reinsert recovers: the fresh entry verifies again.
        cache.insert(key(1), entry(500));
        assert!(cache.get(&key(1)).is_some());
    }

    #[test]
    fn evict_corrupt_counts_integrity_without_a_lookup() {
        let mut cache = PoolCache::new(usize::MAX);
        cache.insert(key(1), entry(500));
        assert!(cache.corrupt_entry(&key(1)));
        assert!(cache.evict_corrupt(&key(1)));
        assert!(!cache.evict_corrupt(&key(1)), "a dropped key cannot be evicted again");
        let stats = cache.stats();
        assert_eq!(stats.integrity_evictions, 1);
        assert_eq!((stats.hits, stats.misses), (0, 0), "maintenance evictions are not lookups");
        assert_eq!(stats.evictions, 0, "integrity evictions are not capacity evictions");
        assert!(cache.is_empty());
    }

    #[test]
    fn remove_discards_without_counting() {
        let mut cache = PoolCache::new(usize::MAX);
        cache.insert(key(1), entry(500));
        let stats_before = cache.stats();
        assert!(cache.remove(&key(1)));
        assert!(!cache.remove(&key(1)));
        assert_eq!(cache.stats(), stats_before, "remove is not an eviction");
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert!(cache.lru_keys().is_empty());
    }

    #[test]
    fn fresh_entries_verify() {
        let e = entry(500);
        assert!(e.verify());
        let clone = e.clone();
        assert!(clone.verify(), "fingerprints survive cloning");
    }

    /// A bigger entry than `entry(500)` produces, for in-place growth.
    fn wide_entry(walks: u64) -> CachedPool {
        let mut b = GraphBuilder::new();
        b.add_edges((0..12usize).map(|i| (i, i + 1))).unwrap();
        b.add_edges((2..12usize).map(|i| (i, 13))).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(13)).unwrap();
        let pool = SampleRequest::new(walks).seed(5).run(&inst);
        let cover = CoverInstance::from_path_pool(g.node_count(), pool.clone()).unwrap();
        CachedPool::new(Arc::new(pool), Arc::new(cover))
    }

    #[test]
    fn reaccount_reconciles_in_place_mutation() {
        // Regression: bytes were only adjusted at insert/evict, so
        // mutating a resident entry in place (delta repair) silently
        // skewed the tracked total — the budget then over- or
        // under-evicted forever after.
        let small = entry(500);
        let big = wide_entry(8_000);
        let (small_bytes, big_bytes) = (small.heap_bytes(), big.heap_bytes());
        assert!(big_bytes > small_bytes, "fixture: mutation must change the size");
        let mut cache = PoolCache::new(10 * big_bytes);
        cache.insert(key(1), small);
        cache.insert(key(2), entry(500));
        assert_eq!(cache.bytes(), small_bytes + entry(500).heap_bytes());

        // Mutate key(1) in place: the tracked total is stale until
        // reaccount reconciles it.
        *cache.entry_mut(&key(1)).unwrap() = big.clone();
        assert!(cache.reaccount(&key(1)), "entry still fits the budget");
        assert_eq!(cache.bytes(), big_bytes + entry(500).heap_bytes());
        // Shrink back; the credit is exact, not cumulative.
        *cache.entry_mut(&key(1)).unwrap() = entry(500);
        assert!(cache.reaccount(&key(1)));
        assert_eq!(cache.bytes(), 2 * small_bytes);
        // Absent keys are reported, not invented.
        assert!(!cache.reaccount(&key(9)));
        assert!(cache.entry_mut(&key(9)).is_none());
    }

    #[test]
    fn reaccount_enforces_the_budget_after_growth() {
        let small_bytes = entry(500).heap_bytes();
        let big = wide_entry(8_000);
        // Budget: three small entries, or the big one plus one small.
        let budget = big.heap_bytes() + small_bytes;
        let mut cache = PoolCache::new(budget);
        cache.insert(key(1), entry(500));
        cache.insert(key(2), entry(500));
        cache.insert(key(3), entry(500));
        assert_eq!(cache.len(), 3);
        // Growing key(3) in place forces the LRU victim (key 1) out.
        *cache.entry_mut(&key(3)).unwrap() = big;
        assert!(cache.reaccount(&key(3)));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.peek(&key(1)).is_none(), "LRU victim evicted");
        assert!(cache.peek(&key(2)).is_some());
        assert!(cache.bytes() <= budget);
        // Growing past the whole budget rejects the entry itself.
        let mut tiny = PoolCache::new(small_bytes);
        tiny.insert(key(1), entry(500));
        *tiny.entry_mut(&key(1)).unwrap() = wide_entry(8_000);
        assert!(!tiny.reaccount(&key(1)), "oversized mutation cannot stay resident");
        assert!(tiny.is_empty());
        assert_eq!(tiny.bytes(), 0);
        assert_eq!(tiny.stats().rejected, 1);
    }

    #[test]
    fn peek_reads_without_counting_or_touching() {
        let mut cache = PoolCache::new(usize::MAX);
        cache.insert(key(1), entry(500));
        cache.insert(key(2), entry(500));
        let stats_before = cache.stats();
        assert!(cache.peek(&key(1)).is_some());
        assert!(cache.peek(&key(9)).is_none());
        assert_eq!(cache.stats(), stats_before, "peek is not a lookup");
        assert_eq!(cache.lru_keys(), &[key(1), key(2)], "peek must not refresh recency");
    }
}
