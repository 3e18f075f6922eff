//! Batched (optionally multi-threaded) reverse sampling into a flat
//! arena pool.
//!
//! Builds the realization pool `B_l` consumed by RAF's framework (Alg. 3
//! line 2): `l` backward walks, with the type-1 paths kept. The pool is a
//! CSR-style arena — one flat `Vec<u32>` of node ids plus an offset table
//! — rather than a `Vec` of per-path `Vec`s, so sampling performs **zero
//! per-walk heap allocations**: each walk is appended in place by
//! [`crate::reverse::sample_walk_into`] and truncated away again when it
//! turns out type-0.
//!
//! Backward walks on social graphs repeat heavily, so identical paths
//! are deduplicated with multiplicities **while sampling**: each walk
//! runs in reusable stack-first scratch
//! ([`crate::reverse::WalkScratch`]) and a type-1 walk is interned into
//! a streaming hash table ([`crate::intern::PathInterner`]) the moment
//! it completes — only *unique* paths ever enter the arena, with no
//! global concatenation and no comparison sort over path contents at
//! assembly (both were `O(P)`-sized costs the interner removed; the
//! canonical lexicographic order is restored by a radix permutation
//! over the unique paths only). Estimators stay exact
//! (every count is multiplicity-weighted) while the cover instance the
//! solvers see shrinks by up to an order of magnitude.
//!
//! For large `l` the work is embarrassingly parallel. Walk `i` draws only
//! from its own RNG, [`walk_rng`]`(seed, i)`, so threads claim
//! [`CANCEL_CHECK_INTERVAL`]-walk index blocks in whatever order they get
//! to them, each dedups into a private interner, and the interners merge
//! in any order — determinism by construction, no lock on the walk path,
//! and cross-thread traffic proportional to the unique pool rather than
//! the sampled walks.

use crate::intern::PathInterner;
use crate::reverse::{sample_walk_scratch, WalkOutcome, WalkScratch};
use crate::FriendingInstance;
use raf_graph::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Node count from which the sampler runs the lockstep loop instead of
/// the scalar one: `1 << 14`, the smallest power of two from which the
/// lockstep loop won every measured cell. Both loops timed on 8 screened
/// pairs × 100k walks per cell (min of 3 reps, median of 3 rounds, 1 and
/// 2 threads; 2-vCPU Xeon, 2 MiB L2 per core), lockstep speed over
/// scalar: wiki-7k 0.79–0.80×, youtube-11k 0.83–0.85× (so both stay
/// scalar), hepth-28k 1.28–1.46×, hepph-35k 1.51–1.65×, youtube-110k
/// 1.90–2.19×. The crossover follows the walked footprint — records plus
/// neighbor slots, 1.0 MB at wiki-7k, 0.7 MB at youtube-11k, 3.5 MB at
/// hepth-28k — against L2 more than the node count. Moving the threshold
/// never changes a pool.
pub const AUTO_LOCKSTEP_NODES: usize = 1 << 14;

/// Walks per sampling block. Threads claim walk indices a block at a
/// time, and a block is where [`SampleControl`] is consulted (probe, step
/// budget, deadline) before any of its walks start. Coarse enough that an
/// uncontrolled run pays nothing measurable, fine enough that a budgeted
/// run overshoots its budget by at most one block of walks.
pub const CANCEL_CHECK_INTERVAL: u64 = 256;

/// Walks each thread keeps in flight in the lockstep loop. Swept for the
/// two-pass loop on the youtube-220k cell at two threads (8 screened
/// pairs × 100k walks, median total of 5 interleaved rounds, 2-vCPU
/// Xeon): scalar loop 657 ms; width 1 645, 2 315, 4 229, 8 231, 16 211,
/// 32 251, 64 224. The win saturates from 4 walks on, and width 16's own
/// round-to-round spread (190–223 ms) spans the differences between 4
/// and 64; 16 sits inside that plateau with room for hosts that keep
/// more misses in flight, and its scratch (~6 KiB) still fits in L1.
const COHORT_WIDTH: usize = 16;

/// Cooperative control over a pool-sampling run: the cancellation token
/// the serving layer threads through the walk loop. Every check happens
/// when a [`CANCEL_CHECK_INTERVAL`]-walk block is claimed, before any of
/// its walks start — never mid-walk and never mid-block.
///
/// `max_steps` is the *deterministic* budget: walk-steps (node advances
/// plus the terminating draw) are a pure function of the walk seeds, and
/// block `b` is admitted only while blocks `0..b` have spent fewer than
/// `max_steps` steps. A budgeted pool is therefore exactly the
/// unbudgeted pool of its own walk count, at any thread count.
/// `deadline` is the wall-clock cap layered on top — best-effort and
/// nondeterministic, for latency protection rather than reproducibility.
#[derive(Clone, Copy, Default)]
pub struct SampleControl<'a> {
    /// Walk-step budget across the run; `None` = unlimited. A budgeted
    /// run samples its blocks in index order on one thread.
    pub max_steps: Option<u64>,
    /// Wall-clock deadline; `None` = no time cap. Blocks claimed before
    /// it passes still complete.
    pub deadline: Option<std::time::Instant>,
    /// Block observer, called with each claimed block's first walk index
    /// (0, 256, 512, …) before the block's walks start — from several
    /// threads at once when the run is parallel. This is the
    /// fault-injection seam: a probe may panic (caught and isolated by
    /// the serving layer) or sleep (forcing the wall-clock path). A panic
    /// unwinds the thread that claimed the block and propagates out of
    /// [`SampleRequest::run`] once the other threads have finished. It
    /// must not affect the walks.
    pub probe: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl std::fmt::Debug for SampleControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleControl")
            .field("max_steps", &self.max_steps)
            .field("deadline", &self.deadline)
            .field("probe", &self.probe.map(|_| "…"))
            .finish()
    }
}

impl SampleControl<'_> {
    /// No limits, no probe: a controlled request behaves exactly like an
    /// uncontrolled one.
    pub const UNLIMITED: SampleControl<'static> =
        SampleControl { max_steps: None, deadline: None, probe: None };
}

/// A pool of sampled backward walks: the `B_l` of the paper, with the
/// type-1 paths `t(g)` (the `B¹_l`) stored deduplicated in a flat arena
/// and the type-0 walks tallied by outcome.
///
/// Layout: unique path `i` occupies `nodes[offsets[i]..offsets[i+1]]`
/// (walk order: `t` first, then each selected predecessor) and was
/// sampled `multiplicity[i]` times. Unique paths are sorted
/// lexicographically by node sequence, so pool contents are canonical for
/// a fixed sampled multiset of walks. All counting queries —
/// [`type1_count`](PathPool::type1_count),
/// [`coverage`](PathPool::coverage),
/// [`covered_count`](PathPool::covered_count),
/// [`pmax_estimate`](PathPool::pmax_estimate) — are multiplicity-weighted
/// and therefore exactly equal to what a duplicated per-`Vec` pool would
/// report.
///
/// Path node ids are always in the *original* id space of the instance
/// that sampled the pool: on relabeled snapshots the assembler maps the
/// unique paths back through the inverse permutation before the
/// canonical sort, so pools sampled on relabeled and unrelabeled
/// snapshots of the same graph are bit-identical. (Only the serving
/// benchmark's hub-BFS workload samples relabeled snapshots; the mapping
/// stays for it until ROADMAP item 4.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPool {
    /// Concatenated node ids of the unique type-1 paths.
    nodes: Vec<u32>,
    /// CSR offsets into `nodes`; `offsets.len() == unique_count() + 1`.
    offsets: Vec<u32>,
    /// How many sampled walks produced each unique path.
    multiplicity: Vec<u32>,
    /// Number of walks sampled in total (`l`).
    total_samples: u64,
    /// Σ multiplicity: the `|B¹_l|` of the paper.
    type1_total: u64,
    /// Type-0 walks that dangled on `ℵ0` (Lemma 2 case a).
    dangling: u64,
    /// Type-0 walks that closed a cycle (Lemma 2 case b).
    cycles: u64,
}

impl PathPool {
    /// An empty pool that observed `total_samples` walks, none type-1.
    fn empty(total_samples: u64, dangling: u64, cycles: u64) -> Self {
        PathPool {
            nodes: Vec::new(),
            offsets: vec![0],
            multiplicity: Vec::new(),
            total_samples,
            type1_total: 0,
            dangling,
            cycles,
        }
    }

    /// Reconstitutes a pool from already-canonical flat parts `(nodes,
    /// offsets, multiplicity)` plus its walk tallies, for the repair
    /// path. The caller guarantees the parts are in canonical
    /// lexicographic order with consistent offsets; debug builds re-check
    /// the invariants.
    pub(crate) fn from_canonical_parts(
        nodes: Vec<u32>,
        offsets: Vec<u32>,
        multiplicity: Vec<u32>,
        total_samples: u64,
        dangling: u64,
        cycles: u64,
    ) -> Self {
        debug_assert_eq!(offsets.len(), multiplicity.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap() as usize, nodes.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let type1_total = multiplicity.iter().map(|&m| u64::from(m)).sum();
        debug_assert!(type1_total + dangling + cycles <= total_samples || total_samples == 0);
        PathPool { nodes, offsets, multiplicity, total_samples, type1_total, dangling, cycles }
    }

    /// Assembles a pool from per-thread walk shards, merging their
    /// already-deduplicated interners (merge order never changes the
    /// result) and permuting the unique paths into canonical
    /// lexicographic order. On relabeled snapshots `original_map`
    /// translates the unique paths back to original ids before the
    /// canonical sort, so assembled pools are always in the caller's
    /// original id space.
    fn assemble(shards: Vec<WalkShard>, original_map: Option<&[u32]>) -> Self {
        let total_samples = shards.iter().map(|s| s.sampled).sum();
        let dangling = shards.iter().map(|s| s.dangling).sum();
        let cycles = shards.iter().map(|s| s.cycles).sum();
        // A single shard is consumed in place; multiple shards stream
        // their unique paths into the first — each unique path crosses
        // threads once, with its multiplicity.
        let mut shards = shards.into_iter();
        let merged = match shards.next() {
            None => return PathPool::empty(total_samples, dangling, cycles),
            Some(first) => {
                let mut merged = first.interner;
                for shard in shards {
                    merged.absorb(&shard.interner);
                }
                merged
            }
        };
        if merged.unique_count() == 0 {
            return PathPool::empty(total_samples, dangling, cycles);
        }
        let type1_total = merged.interned_total();
        let (nodes, offsets, multiplicity) = match original_map {
            None => merged.into_canonical_parts(),
            Some(map) => merged.into_canonical_parts_mapped(map),
        };
        PathPool { nodes, offsets, multiplicity, total_samples, type1_total, dangling, cycles }
    }

    /// Number of distinct type-1 paths stored in the arena.
    #[inline]
    pub fn unique_count(&self) -> usize {
        self.multiplicity.len()
    }

    /// `|B¹_l|`: the number of type-1 realizations in the pool, counting
    /// multiplicity (i.e. the number of *sampled walks* that were type-1,
    /// exactly as in the un-deduplicated pool).
    #[inline]
    pub fn type1_count(&self) -> usize {
        self.type1_total as usize
    }

    /// Number of walks sampled in total (`l`).
    #[inline]
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Type-0 walks that dangled on `ℵ0` (Lemma 2 case a).
    #[inline]
    pub fn dangling_count(&self) -> u64 {
        self.dangling
    }

    /// Type-0 walks that closed a cycle (Lemma 2 case b).
    #[inline]
    pub fn cycle_count(&self) -> u64 {
        self.cycles
    }

    /// The `i`-th unique path as raw node indices (`t` first, walk
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= unique_count()`.
    #[inline]
    pub fn path(&self, i: usize) -> &[u32] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// How many sampled walks produced unique path `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= unique_count()`.
    #[inline]
    pub fn multiplicity(&self, i: usize) -> u32 {
        self.multiplicity[i]
    }

    /// Iterates over `(path, multiplicity)` for every unique path, in the
    /// pool's canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u32)> + '_ {
        (0..self.unique_count()).map(|i| (self.path(i), self.multiplicity[i]))
    }

    /// The pool's implied `p_max` estimate `|B¹_l| / l`.
    pub fn pmax_estimate(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.type1_total as f64 / self.total_samples as f64
        }
    }

    /// Number of sampled type-1 walks covered by `I` (the `F(B_l, I)` of
    /// the paper), counting multiplicity. One pass over the arena with
    /// packed-bitset membership probes.
    pub fn covered_count(&self, invitations: &crate::InvitationSet) -> usize {
        let mut covered = 0u64;
        for (path, mult) in self.iter() {
            if path.iter().all(|&v| invitations.contains_index(v as usize)) {
                covered += u64::from(mult);
            }
        }
        covered as usize
    }

    /// Estimates `f(I)` against this pool: the fraction of all sampled
    /// walks covered by `I` (Corollary 1 applied to a fixed sample),
    /// implemented as [`covered_count`](Self::covered_count) over `l`.
    ///
    /// Evaluating many invitation sets against *one* pool is both faster
    /// than resampling per set and statistically paired (common random
    /// numbers), which is how the experiment harness compares RAF with
    /// the baselines at matched noise.
    pub fn coverage(&self, invitations: &crate::InvitationSet) -> f64 {
        if self.total_samples == 0 {
            return 0.0;
        }
        self.covered_count(invitations) as f64 / self.total_samples as f64
    }

    /// Logical heap footprint of the pool's arena in bytes: the *length*
    /// (not capacity) of the three flat tables. Deterministic for a fixed
    /// pool content regardless of allocator growth history, which is what
    /// a byte-budgeted cache needs for reproducible eviction decisions.
    pub fn heap_bytes(&self) -> usize {
        (self.nodes.len() + self.offsets.len() + self.multiplicity.len())
            * std::mem::size_of::<u32>()
    }
}

/// A typed sampling run: the one entry point every pool is sampled
/// through.
///
/// ```
/// use raf_graph::{GraphBuilder, NodeId, WeightScheme};
/// use raf_model::sampler::SampleRequest;
/// use raf_model::FriendingInstance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// b.add_edges(vec![(0, 1), (1, 2), (2, 3)])?;
/// let g = b.build(WeightScheme::UniformByDegree)?.to_csr();
/// let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3))?;
/// let pool = SampleRequest::new(10_000).seed(7).threads(2).run(&inst);
/// assert_eq!(pool.total_samples(), 10_000);
/// assert_eq!(pool, SampleRequest::new(10_000).seed(7).run(&inst));
/// # Ok(())
/// # }
/// ```
///
/// # Determinism model: one seed per walk
///
/// Walk `i`, for `i` in `0..walks`, draws only from
/// [`walk_rng`]`(seed, i)`, so the pool is a pure function of
/// `(instance, walks, seed, max_steps)`. Everything else is an execution
/// choice that never changes it: the thread count, which thread takes
/// which block, the order walks finish in, and which loop runs them. The
/// sampler picks the loop itself — scalar below [`AUTO_LOCKSTEP_NODES`]
/// nodes, lockstep from there on — and no caller can choose for it.
///
/// # Budget unit
///
/// `SampleControl::max_steps` is denominated in **walk-steps**: one unit
/// per node a walk records plus one for its terminating draw — a pure
/// function of the walk seeds, unlike wall-clock time. Walks are grouped
/// into [`CANCEL_CHECK_INTERVAL`]-walk blocks in index order, and block
/// `b` is admitted only while blocks `0..b` spent fewer than `max_steps`
/// steps, so a budgeted pool equals the unbudgeted pool of its own walk
/// count at every thread count (property-tested in
/// `tests/kernel_equivalence.rs`).
#[derive(Debug, Clone, Copy)]
pub struct SampleRequest<'a> {
    walks: u64,
    seed: u64,
    threads: usize,
    control: Option<&'a SampleControl<'a>>,
}

impl<'a> SampleRequest<'a> {
    /// A request for `walks` backward walks: one thread, seed 0, no
    /// control — refine with the builder methods.
    pub fn new(walks: u64) -> SampleRequest<'a> {
        SampleRequest { walks, seed: 0, threads: 1, control: None }
    }

    /// Replaces the walk count, keeping every other knob — how the
    /// repair path turns a cache entry's request template into a
    /// mini-request for exactly the invalidated multiplicity mass.
    pub fn with_walks(mut self, walks: u64) -> Self {
        self.walks = walks;
        self
    }

    /// Seed the per-walk RNGs derive from (see [`walk_rng`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// OS worker threads (minimum 1; never more than there are blocks to
    /// claim). Changes how fast the pool arrives, never the pool.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches cooperative control (step budget, deadline, probe).
    pub fn control(mut self, control: &'a SampleControl<'a>) -> Self {
        self.control = Some(control);
        self
    }

    /// Runs the request and assembles the pool. See the type-level docs
    /// for the determinism guarantees; a panicking probe's panic (the
    /// fault-injection seam the serving layer catches) propagates from
    /// here.
    pub fn run(&self, instance: &FriendingInstance<'_>) -> PathPool {
        self.run_loop(instance, uses_lockstep(instance.node_count()))
    }

    /// Runs the request on the lockstep loop or the scalar loop.
    fn run_loop(&self, instance: &FriendingInstance<'_>, lockstep: bool) -> PathPool {
        let unlimited = SampleControl::UNLIMITED;
        let blocks = Blocks::new(self.walks, self.control.unwrap_or(&unlimited));
        // A step budget admits blocks in index order, so it runs on one
        // thread; otherwise every thread gets at least one block.
        let threads = if blocks.control.max_steps.is_some() {
            1
        } else {
            (self.threads as u64).clamp(1, blocks.count().max(1)) as usize
        };
        let work = || {
            if lockstep {
                run_lockstep(instance, self.seed, &blocks)
            } else {
                run_scalar(instance, self.seed, &blocks)
            }
        };
        let shards: Vec<WalkShard> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut shards = vec![work()];
            for helper in helpers {
                shards.push(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            shards
        });
        PathPool::assemble(shards, instance.original_table())
    }
}

/// Whether a run over a `nodes`-node instance takes the lockstep loop
/// (see [`AUTO_LOCKSTEP_NODES`]).
fn uses_lockstep(nodes: usize) -> bool {
    nodes >= AUTO_LOCKSTEP_NODES
}

/// The RNG that walk `index` of a request seeded `seed` draws from — the
/// whole determinism model: a walk depends on these two numbers and the
/// instance, nothing else. The seed is mixed before the index is folded
/// in, so nearby seeds (`--seed 1`, `--seed 2`) draw unrelated walks
/// instead of the same walks under shifted indices.
pub fn walk_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed) ^ index)
}

/// The walk-index blocks of one run, handed out in index order to
/// whichever thread asks next, with every [`SampleControl`] check made at
/// the hand-out. Both atomics are `Relaxed`: neither publishes other
/// data — the shards come back through `join`.
struct Blocks<'c> {
    walks: u64,
    control: &'c SampleControl<'c>,
    /// First walk index of the next unclaimed block.
    next: AtomicU64,
    /// Set once a step budget or the deadline ends the run.
    stopped: AtomicBool,
}

impl<'c> Blocks<'c> {
    fn new(walks: u64, control: &'c SampleControl<'c>) -> Self {
        Blocks { walks, control, next: AtomicU64::new(0), stopped: AtomicBool::new(false) }
    }

    fn count(&self) -> u64 {
        self.walks.div_ceil(CANCEL_CHECK_INTERVAL)
    }

    /// The walk indices of the next block, for a worker whose walks so
    /// far cost `steps` walk-steps; `None` once the walks run out or the
    /// run is stopped. Budgeted runs have a single worker, so `steps` is
    /// then the spend of every earlier block.
    fn claim(&self, steps: u64) -> Option<Range<u64>> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        let start = self.next.fetch_add(CANCEL_CHECK_INTERVAL, Ordering::Relaxed);
        if start >= self.walks {
            return None;
        }
        if let Some(probe) = self.control.probe {
            probe(start);
        }
        let over_budget = self.control.max_steps.is_some_and(|budget| steps >= budget);
        if over_budget || self.control.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stopped.store(true, Ordering::Relaxed);
            return None;
        }
        Some(start..self.walks.min(start.saturating_add(CANCEL_CHECK_INTERVAL)))
    }
}

/// One thread's share of a run. A type-1 walk is interned the moment it
/// completes — a duplicate (the common case) only bumps a multiplicity
/// and never touches the arena — and a type-0 walk is only tallied.
struct WalkShard {
    interner: PathInterner,
    dangling: u64,
    cycles: u64,
    /// Walks completed.
    sampled: u64,
    /// Walk-steps spent: per walk, the nodes it recorded plus the
    /// terminating draw — the unit `SampleControl::max_steps` meters.
    steps: u64,
}

impl WalkShard {
    fn new() -> Self {
        WalkShard { interner: PathInterner::new(), dangling: 0, cycles: 0, sampled: 0, steps: 0 }
    }

    /// Books the walk in `scratch`, which ended with `outcome`.
    fn book(&mut self, scratch: &WalkScratch, outcome: WalkOutcome) {
        match outcome {
            WalkOutcome::ReachedSeed => self.interner.intern_copy(scratch.nodes(), 1),
            WalkOutcome::Dangling => self.dangling += 1,
            WalkOutcome::Cycle => self.cycles += 1,
        }
        self.sampled += 1;
        self.steps += scratch.nodes().len() as u64 + 1;
    }
}

/// The scalar loop: each walk runs to completion before the next starts.
/// Every step is a serial dependent-load chain (metadata record, then
/// neighbor slot), which is the cheapest way to walk while the walked
/// records and slots sit in L2 (see [`AUTO_LOCKSTEP_NODES`]).
fn run_scalar(instance: &FriendingInstance<'_>, seed: u64, blocks: &Blocks<'_>) -> WalkShard {
    let mut shard = WalkShard::new();
    let mut scratch = WalkScratch::new();
    while let Some(block) = blocks.claim(shard.steps) {
        for walk in block {
            let outcome = sample_walk_scratch(instance, &mut walk_rng(seed, walk), &mut scratch);
            shard.book(&scratch, outcome);
        }
    }
    shard
}

/// One in-flight walk of the lockstep cohort, between the two passes of
/// a step: after pass A it holds the neighbor slot its draw selected
/// (prefetched, not yet read); after pass B it stands on that neighbor,
/// whose metadata record is on its way into cache.
struct CohortSlot {
    scratch: WalkScratch,
    rng: StdRng,
    /// Node the walk stands on; meaningful while `walking`.
    current: u32,
    /// Neighbor-table position pass A selected; pass B reads it.
    pending: usize,
    walking: bool,
}

impl CohortSlot {
    /// Pass A of a step: draws the step's `r` and turns the walk's
    /// metadata record (prefetched by the previous pass B) into a
    /// neighbor slot, whose load starts now. `false` when the draw
    /// selects nobody and the walk dangles. The same draw as
    /// `sample_walk_scratch`: one `r` per step.
    fn select(&mut self, g: &CsrGraph) -> bool {
        let r = self.rng.gen::<f64>();
        match g.select_slot(NodeId::new(self.current as usize), r) {
            Some(slot) => {
                g.prefetch_slot(slot);
                self.pending = slot;
                true
            }
            None => false,
        }
    }

    /// Pass B of a step: reads the slot pass A selected and runs the
    /// seed and cycle checks; the walk's outcome once it ends, `None`
    /// while it goes on. A walk that goes on records the node and starts
    /// the load of its metadata record for the next pass A.
    fn advance(&mut self, instance: &FriendingInstance<'_>) -> Option<WalkOutcome> {
        let g = instance.graph();
        let next = g.neighbor_at(self.pending);
        // Seed and cycle checks commute — see sample_walk_into.
        if instance.is_seed(next) {
            return Some(WalkOutcome::ReachedSeed);
        }
        let id = next.index() as u32;
        if self.scratch.contains(id) {
            return Some(WalkOutcome::Cycle);
        }
        self.scratch.push(id);
        g.prefetch_node(next);
        self.current = id;
        None
    }
}

/// The lockstep loop: a cohort of [`COHORT_WIDTH`] walks advances one
/// step per walk per round. A round refills the freed slots, then makes
/// two passes over the cohort, so that both dependent loads of a step —
/// the walk's metadata record, then the neighbor slot selected from it —
/// land a full pass after their prefetch:
///
/// * **refill**: a slot whose walk ended takes the next walk index and
///   restarts at `t`;
/// * **pass A** ([`CohortSlot::select`]): every live walk draws `r`,
///   selects a neighbor slot from its record and prefetches the slot; a
///   walk that dangles is booked and frees its slot here;
/// * **pass B** ([`CohortSlot::advance`]): every live walk reads its
///   slot, runs the seed and cycle checks, and either ends (booked, slot
///   freed) or records the node and prefetches its record.
///
/// The scalar loop's serial latency chain thus becomes memory-level
/// parallelism across the cohort, and each walk still takes exactly the
/// scalar loop's draws. Under a step budget the cohort drains at every
/// block boundary, so the budget has seen every step of the earlier
/// blocks before it admits the next one.
fn run_lockstep(instance: &FriendingInstance<'_>, seed: u64, blocks: &Blocks<'_>) -> WalkShard {
    let drain = blocks.control.max_steps.is_some();
    let g = instance.graph();
    let t = instance.target().index() as u32;
    let mut shard = WalkShard::new();
    // Idle slots; each takes its walk's own RNG when it starts a walk.
    let mut slots: Vec<CohortSlot> = (0..COHORT_WIDTH)
        .map(|_| CohortSlot {
            scratch: WalkScratch::new(),
            rng: walk_rng(seed, 0),
            current: t,
            pending: 0,
            walking: false,
        })
        .collect();
    let mut block = 0..0;
    let mut live = 0usize;
    let mut exhausted = false;
    while !(exhausted && live == 0) {
        for slot in slots.iter_mut().filter(|slot| !slot.walking) {
            if block.is_empty() && !exhausted && !(drain && live > 0) {
                match blocks.claim(shard.steps) {
                    Some(next) => block = next,
                    None => exhausted = true,
                }
            }
            // No walk to start: the walks ran out, or the cohort drains
            // before the next block is claimed.
            let Some(walk) = block.next() else { break };
            slot.rng = walk_rng(seed, walk);
            slot.scratch.begin(t);
            slot.current = t;
            slot.walking = true;
            live += 1;
        }
        for slot in slots.iter_mut().filter(|slot| slot.walking) {
            if !slot.select(g) {
                shard.book(&slot.scratch, WalkOutcome::Dangling);
                slot.walking = false;
                live -= 1;
            }
        }
        for slot in slots.iter_mut().filter(|slot| slot.walking) {
            if let Some(outcome) = slot.advance(instance) {
                shard.book(&slot.scratch, outcome);
                slot.walking = false;
                live -= 1;
            }
        }
    }
    shard
}

/// The outcome of [`repair_pool`]: either an incrementally repaired pool
/// or a directive to resample from scratch.
#[derive(Debug, Clone)]
pub enum PoolRepair {
    /// The pool was repaired in place: stale paths dropped, their
    /// multiplicity mass re-sampled on the post-delta instance, and the
    /// arena re-canonicalized.
    Repaired {
        /// The repaired pool.
        pool: PathPool,
        /// Unique paths that were invalidated and dropped.
        stale_unique: usize,
        /// Raw walks re-sampled (the invalidated multiplicity mass).
        resampled: u64,
    },
    /// The delta touched the initiator or the target, changing the seed
    /// set or the walks' first draw site — every walk (including the
    /// untracked type-0 tallies) is stale, so the caller must resample
    /// the full pool from its pure seed on the post-delta instance.
    FullResample,
}

/// Incrementally repairs `pool` after an edge delta whose effective
/// endpoint set is `touched` (original-space ids, as reported by
/// `DeltaApplied::touched_nodes`).
///
/// Under degree-derived weight schemes churn on `{u, v}` renormalizes
/// the whole in-weight distribution at both endpoints, so exactly the
/// stored walks that *drew a step* at a touched endpoint are stale —
/// resolved through the [`EdgeWalkIndex`](crate::walk_index::EdgeWalkIndex)
/// in time proportional to the affected walks. Those paths are dropped
/// and their multiplicity mass is re-sampled on the post-delta
/// `instance` through `template` (the entry's [`SampleRequest`] with its
/// walk count replaced by the stale mass — the seed should be a *repair*
/// seed derived from the pool seed and the delta serial, keeping the
/// repaired pool a pure function of `(instance, walk history, seed)`).
/// Kept paths and re-sampled paths merge through the interner and
/// re-canonicalize, so two pools that agree as multisets still agree
/// byte-for-byte after repair.
///
/// Conservation: `total_samples` is unchanged; the stale type-1 mass
/// redistributes into the mini-pool's type-1/dangling/cycle tallies.
/// Type-0 walks are tallied but not stored, so the (typically tiny)
/// fraction of them that drew at a touched endpoint cannot be
/// identified and keeps its old classification — the documented
/// approximation, bounded by the type-0 share of the touched buckets
/// and property-tested against resample-from-scratch in
/// `tests/churn_repair.rs`.
///
/// Returns [`PoolRepair::FullResample`] when `touched` contains the
/// initiator or the target (seed-set / first-draw changes invalidate
/// walks the arena never stored).
pub fn repair_pool(
    pool: &PathPool,
    index: &crate::walk_index::EdgeWalkIndex,
    touched: &[u32],
    instance: &FriendingInstance<'_>,
    template: SampleRequest<'_>,
) -> PoolRepair {
    let s = instance.initiator_original().index() as u32;
    let t = instance.target_original().index() as u32;
    if touched.iter().any(|&v| v == s || v == t) {
        return PoolRepair::FullResample;
    }
    let invalidation = index.invalidated(pool, touched);
    if invalidation.is_empty() {
        return PoolRepair::Repaired { pool: pool.clone(), stale_unique: 0, resampled: 0 };
    }
    let mini = template.with_walks(invalidation.mass).run(instance);
    debug_assert_eq!(mini.total_samples(), invalidation.mass);
    let mut interner = PathInterner::new();
    let mut stale = invalidation.stale.iter().copied().peekable();
    for i in 0..pool.unique_count() {
        if stale.peek() == Some(&(i as u32)) {
            stale.next();
            continue;
        }
        interner.intern_copy(pool.path(i), pool.multiplicity(i));
    }
    for (path, mult) in mini.iter() {
        interner.intern_copy(path, mult);
    }
    // Both inputs are already in original id space; canonicalization
    // restores the lexicographic arena order over the merged set.
    let (nodes, offsets, multiplicity) = interner.into_canonical_parts();
    let repaired = PathPool::from_canonical_parts(
        nodes,
        offsets,
        multiplicity,
        pool.total_samples(),
        pool.dangling_count() + mini.dangling_count(),
        pool.cycle_count() + mini.cycle_count(),
    );
    debug_assert_eq!(
        repaired.type1_count() as u64 + repaired.dangling_count() + repaired.cycle_count(),
        pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(),
        "repair must conserve the walk tally"
    );
    PoolRepair::Repaired {
        pool: repaired,
        stale_unique: invalidation.stale.len(),
        resampled: invalidation.mass,
    }
}

/// Worker thread count from the `RAF_THREADS` environment variable
/// (default 1 when unset or unparsable, minimum 1).
///
/// This is the repo-wide knob CI uses to exercise the parallel sampler's
/// determinism on every push: the test suites fold this value into their
/// thread matrices, and the `raf` CLI uses it as the `--threads` default.
pub fn threads_from_env() -> usize {
    std::env::var("RAF_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .map_or(1, |t| t.max(1))
}

/// The pure per-pair pool seed: `master ⊕ splitmix64(s ‖ t)` with the
/// pair packed as `(s << 32) | t`.
///
/// This is **the** derivation shared by every layer that samples a
/// per-pair pool from one master seed: the serve cache's queries and
/// campaign targets (which `raf run` and the sweeps answer through), and
/// `RafAlgorithm` and `MaxFriending` through
/// [`FriendingInstance::pair_seed`]. So every path draws the same
/// walk stream for a pair, and serve queries share one cache entry. Node
/// ids are original ids, the ones queries name, so a pair keeps its seed
/// on every layout.
pub fn pair_seed(master: u64, s: u32, t: u32) -> u64 {
    master ^ splitmix64((u64::from(s) << 32) | u64::from(t))
}

/// SplitMix64 finalizer — decorrelates per-walk, per-pair and (in the
/// serving layer) per-repair seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk_index::EdgeWalkIndex;
    use raf_graph::{CsrGraph, EdgeDelta, GraphBuilder, NodeId, SocialGraph, WeightScheme};

    fn path_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    /// Two disjoint routes 0-1-2-3-7 and 0-4-5-6-7: seeds {1, 4}, so
    /// the stored type-1 shapes are [7,3,2] and [7,6,5].
    fn two_route_social() -> SocialGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3), (3, 7), (0, 4), (4, 5), (5, 6), (6, 7)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn repair_conserves_tallies_and_is_deterministic() {
        let social = two_route_social();
        let csr0 = social.to_csr();
        let inst0 = FriendingInstance::new(&csr0, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(8_000).seed(5).run(&inst0);
        let applied = EdgeDelta::parse("-2:3,+2:6")
            .unwrap()
            .apply(&social, WeightScheme::UniformByDegree)
            .unwrap();
        let touched = applied.touched_nodes();
        assert_eq!(touched, vec![2, 3, 6]);
        let csr1 = applied.graph.to_csr();
        let inst1 = FriendingInstance::new(&csr1, NodeId::new(0), NodeId::new(7)).unwrap();
        let index = EdgeWalkIndex::build(&pool, csr0.node_count());
        let expect_mass = index.invalidated(&pool, &touched).mass;
        assert!(expect_mass > 0, "fixture delta should invalidate stored walks");
        let template = SampleRequest::new(0).seed(0xC0FFEE);
        let repaired = match repair_pool(&pool, &index, &touched, &inst1, template) {
            PoolRepair::Repaired { pool, stale_unique, resampled } => {
                assert!(stale_unique > 0);
                assert_eq!(resampled, expect_mass);
                pool
            }
            PoolRepair::FullResample => panic!("delta avoids s/t; repair must be incremental"),
        };
        // Conservation: the walk tally is redistributed, never lost.
        assert_eq!(repaired.total_samples(), pool.total_samples());
        assert_eq!(
            repaired.type1_count() as u64 + repaired.dangling_count() + repaired.cycle_count(),
            pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(),
        );
        // Every repaired path walks real edges of the post-delta graph
        // and ends one hop from a seed.
        for (path, _) in repaired.iter() {
            for w in path.windows(2) {
                let (u, v) = (NodeId::new(w[0] as usize), NodeId::new(w[1] as usize));
                assert!(applied.graph.has_edge(u, v), "repaired path uses dead edge {w:?}");
            }
            let last = NodeId::new(*path.last().unwrap() as usize);
            assert!(
                inst1.seeds().iter().any(|&s| applied.graph.has_edge(last, s)),
                "repaired path cannot terminate into the seed set"
            );
        }
        // Purity: the same inputs repair to the byte-identical pool,
        // regardless of thread count.
        for threads in [1usize, 4] {
            let again =
                match repair_pool(&pool, &index, &touched, &inst1, template.threads(threads)) {
                    PoolRepair::Repaired { pool, .. } => pool,
                    PoolRepair::FullResample => unreachable!(),
                };
            assert_eq!(again, repaired, "repair not pure at threads={threads}");
        }
    }

    #[test]
    fn repair_noop_when_no_stored_walk_is_touched() {
        let social = two_route_social();
        let csr = social.to_csr();
        let inst = FriendingInstance::new(&csr, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(4_000).seed(2).run(&inst);
        let index = EdgeWalkIndex::build(&pool, csr.node_count());
        // Node 1 is a seed: never a draw site, so its bucket is empty.
        match repair_pool(&pool, &index, &[1], &inst, SampleRequest::new(0).seed(9)) {
            PoolRepair::Repaired { pool: p, stale_unique, resampled } => {
                assert_eq!(stale_unique, 0);
                assert_eq!(resampled, 0);
                assert_eq!(p, pool);
            }
            PoolRepair::FullResample => panic!("untouched pool must not resample"),
        }
    }

    #[test]
    fn repair_demands_full_resample_when_s_or_t_is_touched() {
        let social = two_route_social();
        let csr = social.to_csr();
        let inst = FriendingInstance::new(&csr, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(4_000).seed(2).run(&inst);
        let index = EdgeWalkIndex::build(&pool, csr.node_count());
        let template = SampleRequest::new(0).seed(9);
        // Touching the initiator changes the seed set; touching the
        // target changes every walk's first draw.
        for touched in [[0u32, 5], [7, 5]] {
            assert!(matches!(
                repair_pool(&pool, &index, &touched, &inst, template),
                PoolRepair::FullResample
            ));
        }
    }

    #[test]
    fn repair_on_relabeled_snapshot_stays_in_original_space() {
        let social = two_route_social();
        let applied = EdgeDelta::parse("-2:3")
            .unwrap()
            .apply(&social, WeightScheme::UniformByDegree)
            .unwrap();
        let touched = applied.touched_nodes();
        let plain_csr = social.to_csr();
        let plain_inst =
            FriendingInstance::new(&plain_csr, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(8_000).seed(5).run(&plain_inst);
        let index = EdgeWalkIndex::build(&pool, plain_csr.node_count());
        let template = SampleRequest::new(0).seed(0xC0FFEE);
        // Post-delta instances on the plain and hub-BFS layouts must
        // repair to bit-identical pools: paths (and the touched set) are
        // original-space, and the mini-pool inherits the sampler's
        // relabel equivariance.
        let plain1 = applied.graph.to_csr();
        let inst_plain = FriendingInstance::new(&plain1, NodeId::new(0), NodeId::new(7)).unwrap();
        let relabeling = std::sync::Arc::new(raf_graph::Relabeling::hub_bfs(&applied.graph));
        let hub_csr = applied.graph.to_csr_relabeled(&relabeling);
        let inst_hub =
            FriendingInstance::relabeled(&hub_csr, NodeId::new(0), NodeId::new(7), relabeling)
                .unwrap();
        let a = match repair_pool(&pool, &index, &touched, &inst_plain, template) {
            PoolRepair::Repaired { pool, .. } => pool,
            PoolRepair::FullResample => unreachable!(),
        };
        let b = match repair_pool(&pool, &index, &touched, &inst_hub, template) {
            PoolRepair::Repaired { pool, .. } => pool,
            PoolRepair::FullResample => unreachable!(),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn pool_counts_consistent() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(10_000).seed(3).run(&inst);
        assert_eq!(pool.total_samples(), 10_000);
        assert!(pool.type1_count() <= 10_000);
        assert_eq!(pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(), 10_000);
        // Closed form type-1 rate is 1/4 on this line.
        assert!((pool.pmax_estimate() - 0.25).abs() < 0.02);
        // The only type-1 shape on the line is [4, 3, 2]: one unique path.
        assert_eq!(pool.unique_count(), 1);
        assert_eq!(pool.path(0), &[4, 3, 2]);
        assert_eq!(pool.multiplicity(0) as usize, pool.type1_count());
    }

    #[test]
    fn parallel_matches_sequential_rate() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(40_000).seed(17).threads(4).run(&inst);
        assert_eq!(pool.total_samples(), 40_000);
        assert!((pool.pmax_estimate() - 0.25).abs() < 0.02, "rate {}", pool.pmax_estimate());
    }

    #[test]
    fn parallel_reproducible() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let a = SampleRequest::new(20_000).seed(99).threads(4).run(&inst);
        let b = SampleRequest::new(20_000).seed(99).threads(4).run(&inst);
        assert_eq!(a.type1_count(), b.type1_count());
        assert_eq!(a, b);
    }

    #[test]
    fn below_threshold_is_thread_count_independent() {
        // One seed per walk: every thread count samples the sequential
        // pool — below one block, where a single thread runs every walk
        // whatever count was asked for, and above it, however the blocks
        // fall to the threads.
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        for l in [CANCEL_CHECK_INTERVAL - 1, 9_000] {
            let seq = SampleRequest::new(l).seed(5).run(&inst);
            for threads in [2usize, 4, 8, 64] {
                let par = SampleRequest::new(l).seed(5).threads(threads).run(&inst);
                assert_eq!(par, seq, "l = {l}, threads = {threads}");
            }
        }
    }

    #[test]
    fn unlimited_control_is_bit_identical_to_uncontrolled() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        for (l, threads) in [(2_000u64, 1usize), (20_000, 4)] {
            let plain = SampleRequest::new(l).seed(42).threads(threads).run(&inst);
            let controlled = SampleRequest::new(l)
                .seed(42)
                .threads(threads)
                .control(&SampleControl::UNLIMITED)
                .run(&inst);
            assert_eq!(plain, controlled, "l={l} threads={threads}");
        }
    }

    #[test]
    fn pair_seed_is_pure_and_pair_sensitive() {
        // The derivation every layer shares: master ⊕ splitmix64(s ‖ t).
        assert_eq!(pair_seed(7, 3, 9), 7 ^ splitmix64((3u64 << 32) | 9));
        assert_eq!(pair_seed(7, 3, 9), pair_seed(7, 3, 9));
        assert_ne!(pair_seed(7, 3, 9), pair_seed(7, 9, 3), "pair order matters");
        assert_ne!(pair_seed(7, 3, 9), pair_seed(8, 3, 9), "master matters");
    }

    #[test]
    fn kernels_produce_identical_pools() {
        // Both loops draw walk i from walk_rng(seed, i) and book the same
        // steps per walk, so they sample bit-equal pools — with and
        // without a step budget, at every thread count, and under weight
        // schemes whose incoming weights sum below 1 (a draw past the
        // total selects nobody and the walk dangles).
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (2, 4), (3, 5), (5, 1)]).unwrap();
        let schemes = [
            WeightScheme::UniformByDegree,
            WeightScheme::ScaledByDegree { rho: 0.6 },
            WeightScheme::ConstantCapped { weight: 0.3 },
        ];
        let budgeted = SampleControl { max_steps: Some(7_000), ..SampleControl::UNLIMITED };
        for scheme in schemes {
            let g = b.build(scheme.clone()).unwrap().to_csr();
            let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
            for threads in [1usize, 3, 4] {
                for control in [&SampleControl::UNLIMITED, &budgeted] {
                    let request =
                        SampleRequest::new(12_000).seed(29).threads(threads).control(control);
                    let scalar = request.run_loop(&inst, false);
                    let lockstep = request.run_loop(&inst, true);
                    assert_eq!(
                        scalar, lockstep,
                        "loop divergence under {scheme:?} at threads={threads} budget={:?}",
                        control.max_steps
                    );
                    assert!(scalar.total_samples() > 0);
                }
            }
        }
    }

    #[test]
    fn loops_agree_on_walks_that_spill() {
        // G(1000, 0.05) with `s` hanging off node 0 alone, so N_s = {0}
        // and walks run long: a few percent pass SCAN_LIMIT nodes, where
        // the walk scratch spills to the heap. The random weights make
        // every table non-uniform (the guided scan) and sum below 1, so
        // long walks also dangle in pass A. Both loops must sample
        // bit-equal pools here too, with and without a step budget.
        use crate::reverse::SCAN_LIMIT;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = raf_graph::generators::erdos_renyi_gnp(1_000, 0.05, &mut rng).unwrap();
        b.add_edge(1_000, 0).unwrap();
        let uniform = b.build(WeightScheme::UniformByDegree).unwrap();
        let mut weights = std::collections::HashMap::new();
        for v in uniform.nodes() {
            let draws: Vec<f64> =
                uniform.neighbors(v).iter().map(|_| rng.gen_range(0.5..1.5)).collect();
            let total: f64 = draws.iter().sum();
            for (&u, w) in uniform.neighbors(v).iter().zip(draws) {
                weights.insert((u.index() as u32, v.index() as u32), 0.995 * w / total);
            }
        }
        let skewed = b.build(WeightScheme::Custom { weights }).unwrap();
        let budgeted = SampleControl { max_steps: Some(300_000), ..SampleControl::UNLIMITED };
        for social in [&uniform, &skewed] {
            let g = social.to_csr();
            let inst = FriendingInstance::new(&g, NodeId::new(1_000), NodeId::new(999)).unwrap();
            for threads in [1usize, 4] {
                for control in [&SampleControl::UNLIMITED, &budgeted] {
                    let request =
                        SampleRequest::new(16_000).seed(13).threads(threads).control(control);
                    let scalar = request.run_loop(&inst, false);
                    assert_eq!(
                        scalar,
                        request.run_loop(&inst, true),
                        "loop divergence at threads={threads} budget={:?}",
                        control.max_steps
                    );
                    // The pool's walks really took the rare path.
                    let mut scratch = WalkScratch::new();
                    let spilled = (0..scalar.total_samples())
                        .filter(|&walk| {
                            sample_walk_scratch(&inst, &mut walk_rng(13, walk), &mut scratch);
                            scratch.nodes().len() > SCAN_LIMIT
                        })
                        .count() as u64;
                    assert!(
                        100 * spilled > scalar.total_samples(),
                        "{spilled} of {} walks spilled at budget={:?}",
                        scalar.total_samples(),
                        control.max_steps
                    );
                    assert!(scalar.total_samples() > 4_000, "the budget left too few walks");
                }
            }
        }
    }

    #[test]
    fn isolated_target_dangles_on_both_loops() {
        // An isolated target has no in-weight: every walk's first draw
        // selects nobody, on either loop.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2)]).unwrap();
        let g = b.reserve_nodes(4).build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        for lockstep in [false, true] {
            for threads in [1usize, 4] {
                let pool =
                    SampleRequest::new(3_000).seed(8).threads(threads).run_loop(&inst, lockstep);
                assert_eq!(pool.total_samples(), 3_000, "lockstep={lockstep} threads={threads}");
                assert_eq!(pool.dangling_count(), 3_000, "lockstep={lockstep} threads={threads}");
            }
        }
    }

    #[test]
    fn walk_rng_is_pure_and_seed_sensitive() {
        let first = |seed, index| walk_rng(seed, index).gen::<u64>();
        assert_eq!(first(7, 3), first(7, 3));
        assert_ne!(first(7, 3), first(7, 4), "walks of one seed differ");
        // Neighbouring seeds share no streams: walk i of seed s is not
        // walk j of seed s' whenever s ^ i == s' ^ j.
        assert_ne!(first(1, 0), first(0, 1));
        assert_ne!(first(2, 3), first(3, 2));
    }

    #[test]
    fn step_budget_truncates_deterministically() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let control = SampleControl { max_steps: Some(3_000), ..SampleControl::UNLIMITED };
        let request = SampleRequest::new(50_000).seed(9).control(&control);
        let a = request.run(&inst);
        assert!(a.total_samples() < 50_000, "budget must actually truncate");
        assert!(a.total_samples() > 0, "a positive budget samples at least one block");
        // Truncation lands on a block boundary.
        assert_eq!(a.total_samples() % CANCEL_CHECK_INTERVAL, 0);
        for threads in [1usize, 4] {
            let b = request.threads(threads).run(&inst);
            assert_eq!(a, b, "same (seed, budget) must truncate identically at threads={threads}");
        }
        // The truncated pool is the unbudgeted pool of its own walk
        // count: resampling exactly that many walks uncontrolled is
        // identical.
        let prefix = SampleRequest::new(a.total_samples()).seed(9).threads(4).run(&inst);
        assert_eq!(a, prefix);
    }

    #[test]
    fn budget_counts_every_step_of_the_finished_blocks() {
        // A budget equal to the exact spend of the first two blocks stops
        // there on both loops: the lockstep cohort drains before it
        // claims a block, so the last walks of block 1, still in flight
        // when its indices run out, count before the budget decides.
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let mut scratch = WalkScratch::new();
        let two_blocks: u64 = (0..2 * CANCEL_CHECK_INTERVAL)
            .map(|walk| {
                sample_walk_scratch(&inst, &mut walk_rng(9, walk), &mut scratch);
                scratch.nodes().len() as u64 + 1
            })
            .sum();
        for (budget, blocks) in [(two_blocks, 2), (two_blocks + 1, 3)] {
            let control = SampleControl { max_steps: Some(budget), ..SampleControl::UNLIMITED };
            let request = SampleRequest::new(10 * CANCEL_CHECK_INTERVAL).seed(9).control(&control);
            for lockstep in [false, true] {
                for threads in [1usize, 4] {
                    let pool = request.threads(threads).run_loop(&inst, lockstep);
                    assert_eq!(
                        pool.total_samples(),
                        blocks * CANCEL_CHECK_INTERVAL,
                        "budget {budget} lockstep={lockstep} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_budget_is_monotone_in_walks() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let mut last = 0u64;
        for budget in [500u64, 2_000, 8_000, 64_000, u64::MAX] {
            let control = SampleControl { max_steps: Some(budget), ..SampleControl::UNLIMITED };
            let pool = SampleRequest::new(10_000).seed(5).control(&control).run(&inst);
            assert!(
                pool.total_samples() >= last,
                "budget {budget}: {} < {last} walks",
                pool.total_samples()
            );
            last = pool.total_samples();
        }
        assert_eq!(last, 10_000, "an unlimited budget samples every requested walk");
    }

    #[test]
    fn parallel_budget_split_is_deterministic() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let control = SampleControl { max_steps: Some(20_000), ..SampleControl::UNLIMITED };
        let request = SampleRequest::new(40_000).seed(11).threads(4).control(&control);
        let a = request.run(&inst);
        let b = request.run(&inst);
        assert_eq!(a, b);
        assert!(a.total_samples() < 40_000);
        assert_eq!(a, SampleRequest::new(a.total_samples()).seed(11).threads(4).run(&inst));
    }

    #[test]
    fn zero_budget_yields_empty_pool() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let control = SampleControl { max_steps: Some(0), ..SampleControl::UNLIMITED };
        for lockstep in [false, true] {
            let pool =
                SampleRequest::new(10_000).seed(5).control(&control).run_loop(&inst, lockstep);
            assert_eq!(pool.total_samples(), 0, "lockstep={lockstep}");
            assert_eq!(pool.unique_count(), 0, "lockstep={lockstep}");
        }
    }

    #[test]
    fn probe_sees_batch_boundaries_and_may_panic() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        for lockstep in [false, true] {
            let starts = std::sync::Mutex::new(Vec::new());
            let probe = |walk: u64| starts.lock().unwrap().push(walk);
            let control = SampleControl { probe: Some(&probe), ..SampleControl::UNLIMITED };
            let pool = SampleRequest::new(CANCEL_CHECK_INTERVAL * 3)
                .seed(5)
                .control(&control)
                .run_loop(&inst, lockstep);
            assert_eq!(pool.total_samples(), CANCEL_CHECK_INTERVAL * 3);
            assert_eq!(
                *starts.lock().unwrap(),
                [0, CANCEL_CHECK_INTERVAL, CANCEL_CHECK_INTERVAL * 2],
                "one probe call per block, with its first walk index (lockstep={lockstep})"
            );
            // A panicking probe unwinds out of the sampler (the serving
            // layer catches it), at every thread count.
            let trap = |walk: u64| {
                if walk >= CANCEL_CHECK_INTERVAL * 2 {
                    panic!("fault injection");
                }
            };
            let control = SampleControl { probe: Some(&trap), ..SampleControl::UNLIMITED };
            for threads in [1usize, 4] {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    SampleRequest::new(CANCEL_CHECK_INTERVAL * 16)
                        .seed(5)
                        .threads(threads)
                        .control(&control)
                        .run_loop(&inst, lockstep)
                }));
                let payload = result.expect_err("the probe's panic must propagate");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"fault injection"),
                    "threads={threads} lockstep={lockstep}"
                );
            }
        }
    }

    #[test]
    fn wall_clock_deadline_stops_sampling() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        // A deadline already in the past stops at the first block.
        let control = SampleControl {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..SampleControl::UNLIMITED
        };
        for lockstep in [false, true] {
            for threads in [1usize, 4] {
                let pool = SampleRequest::new(100_000)
                    .seed(5)
                    .threads(threads)
                    .control(&control)
                    .run_loop(&inst, lockstep);
                assert_eq!(pool.total_samples(), 0, "an expired deadline samples nothing");
            }
        }
    }

    #[test]
    fn auto_kernel_resolves_by_node_count() {
        assert!(!uses_lockstep(1));
        assert!(!uses_lockstep(AUTO_LOCKSTEP_NODES - 1));
        assert!(uses_lockstep(AUTO_LOCKSTEP_NODES));
        assert!(uses_lockstep(usize::MAX));
    }

    #[test]
    fn auto_switchover_preserves_pools() {
        // Either side of the threshold, the loop the sampler picks must
        // hand back the same pool as both loops run directly. The large
        // side uses a star graph (every walk terminates in one hop) so
        // building an instance past the threshold stays cheap.
        let small = path_csr(6);
        let small_inst = FriendingInstance::new(&small, NodeId::new(0), NodeId::new(5)).unwrap();
        let mut b = GraphBuilder::new();
        b.add_edges((2..AUTO_LOCKSTEP_NODES + 8).map(|i| (0, i))).unwrap();
        b.add_edge(1, 2).unwrap(); // t = 1 hangs one hop off s's neighborhood
        let star = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let star_inst = FriendingInstance::new(&star, NodeId::new(0), NodeId::new(1)).unwrap();
        for (inst, expect) in [(&small_inst, false), (&star_inst, true)] {
            assert_eq!(uses_lockstep(inst.node_count()), expect);
            let request = SampleRequest::new(6_000).seed(11);
            let auto = request.run(inst);
            for lockstep in [false, true] {
                let explicit = request.run_loop(inst, lockstep);
                assert_eq!(auto, explicit, "lockstep={lockstep} at {} nodes", inst.node_count());
            }
        }
    }

    #[test]
    fn empty_pool() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(0).seed(1).run(&inst);
        assert_eq!(pool.total_samples(), 0);
        assert_eq!(pool.pmax_estimate(), 0.0);
        assert_eq!(pool.unique_count(), 0);
        assert_eq!(pool.iter().count(), 0);
    }

    #[test]
    fn coverage_matches_independent_estimate() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let pool = SampleRequest::new(40_000).seed(21).run(&inst);
        let full = crate::InvitationSet::full(4);
        // Closed form f(V) = 1/2 on the 4-node line.
        assert!((pool.coverage(&full) - 0.5).abs() < 0.02);
        let empty = crate::InvitationSet::empty(4);
        assert_eq!(pool.coverage(&empty), 0.0);
        assert_eq!(pool.covered_count(&full), pool.type1_count());
    }

    #[test]
    fn coverage_monotone_in_invitations() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(20_000).seed(22).run(&inst);
        let small = crate::InvitationSet::from_nodes(5, [NodeId::new(4)]);
        let big = crate::InvitationSet::full(5);
        assert!(pool.coverage(&small) <= pool.coverage(&big));
    }

    #[test]
    fn all_type1_paths_contain_target() {
        let g = path_csr(6);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(5)).unwrap();
        let pool = SampleRequest::new(5_000).seed(2).run(&inst);
        assert!(pool.unique_count() > 0);
        for (path, mult) in pool.iter() {
            assert_eq!(path[0], 5);
            assert!(mult >= 1);
        }
    }

    #[test]
    fn relabeled_pool_is_bit_identical() {
        use raf_graph::Relabeling;
        use std::sync::Arc;
        // A graph with a hub, parallel routes, and non-trivial BFS order.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (2, 4), (3, 5), (5, 1)]).unwrap();
        let social = b.build(WeightScheme::UniformByDegree).unwrap();
        let plain_csr = social.to_csr();
        let r = Arc::new(Relabeling::hub_bfs(&social));
        assert!(!r.is_identity(), "fixture should actually permute");
        let relabeled_csr = social.to_csr_relabeled(&r);
        let plain = FriendingInstance::new(&plain_csr, NodeId::new(0), NodeId::new(1)).unwrap();
        let relab = FriendingInstance::relabeled(&relabeled_csr, NodeId::new(0), NodeId::new(1), r)
            .unwrap();
        for threads in [1usize, 4] {
            for lockstep in [false, true] {
                let request = SampleRequest::new(20_000).seed(33).threads(threads);
                let a = request.run_loop(&plain, lockstep);
                let b = request.run_loop(&relab, lockstep);
                assert_eq!(a, b, "threads={threads} lockstep={lockstep}");
                assert!(a.unique_count() >= 2);
            }
        }
    }

    #[test]
    fn arena_paths_are_sorted_and_distinct() {
        // Canonical order: unique paths strictly increasing
        // lexicographically.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let pool = SampleRequest::new(30_000).seed(7).run(&inst);
        assert!(pool.unique_count() >= 2, "both routes should be sampled");
        let paths: Vec<&[u32]> = (0..pool.unique_count()).map(|i| pool.path(i)).collect();
        for w in paths.windows(2) {
            assert!(w[0] < w[1], "paths out of order: {:?} !< {:?}", w[0], w[1]);
        }
        let total: u64 = (0..pool.unique_count()).map(|i| u64::from(pool.multiplicity(i))).sum();
        assert_eq!(total as usize, pool.type1_count());
    }
}
