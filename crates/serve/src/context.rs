//! The resident-graph session context and its query pipeline.

use crate::cache::{CacheStats, CachedPool, PoolCache, PoolKey};
use crate::deadline::{AdmissionPolicy, DeadlinePolicy, ShedReason};
use crate::fault::{FaultKind, FaultPlan};
use raf_core::{select_invitations, CoreError, ParameterSet};
use raf_cover::{CoverError, CoverInstance};
use raf_graph::{CsrGraph, EdgeDelta, GraphError, NodeId, Relabeling, SocialGraph, WeightScheme};
use raf_model::sampler::{
    pair_seed, repair_pool, splitmix64, PathPool, PoolRepair, SampleControl, SampleRequest,
};
use raf_model::walk_index::EdgeWalkIndex;
use raf_model::{FriendingInstance, InvitationSet, ModelError};
use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Context-wide serving knobs. Together with the resident graph these
/// fully determine every answer: the same `(config, query)` always
/// yields the same invitation set, cached or not — including degraded
/// answers, as long as truncation comes from the deterministic
/// [`DeadlinePolicy::work_budget`] (a wall-clock cap trades that
/// reproducibility for latency protection).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Walk-count ceiling per pool: a query's realization budget is
    /// clamped to this before it becomes part of the pool key.
    pub walks: u64,
    /// Slack `ε` of the parameter system (eq. 17); queries must use
    /// `α ∈ (ε, 1]`.
    pub epsilon: f64,
    /// Master seed; per-pair pool seeds are derived from it (and from
    /// nothing else but the pair), so answers never depend on query
    /// arrival order.
    pub seed: u64,
    /// Sampler threads: how fast a miss samples, never what it samples.
    pub threads: usize,
    /// Byte budget of the pool cache.
    pub cache_bytes: usize,
    /// Per-query deadlines (work budget in walk-steps, optional
    /// wall-clock cap). Exhaustion degrades the answer — see
    /// [`QueryAnswer::degraded`] — it never fails the query.
    pub deadline: DeadlinePolicy,
    /// Admission limits; queries over them are shed with
    /// [`ServeError::Overloaded`] instead of being allowed to stall the
    /// session.
    pub admission: AdmissionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            walks: 100_000,
            epsilon: 0.01,
            seed: 1,
            threads: 1,
            cache_bytes: 256 << 20,
            deadline: DeadlinePolicy::UNLIMITED,
            admission: AdmissionPolicy::OPEN,
        }
    }
}

impl ServeConfig {
    /// Checks the knobs a session needs to answer anything, before a
    /// graph is loaded.
    ///
    /// # Errors
    ///
    /// Names the first of `walks`, `epsilon`, `threads`, the work budget,
    /// the wall-clock deadline and the per-query walk cap out of range:
    /// zero walks sample an empty pool, an `ε` outside `(0, 1)` leaves no
    /// `α ∈ (ε, 1]` the parameter system accepts, and zero threads
    /// sample nothing. A zero work budget or deadline truncates every
    /// pool to no walks, so every query answers "unreachable", and a
    /// zero walk cap sheds every query with a retry hint the protocol
    /// rejects.
    pub fn validate(&self) -> Result<(), String> {
        if self.walks == 0 {
            return Err("walks must be positive".to_string());
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(format!("epsilon must lie in (0, 1), got {}", self.epsilon));
        }
        if self.threads == 0 {
            return Err("threads must be positive".to_string());
        }
        for (limit, value) in [
            ("work budget", self.deadline.work_budget),
            ("deadline", self.deadline.wall_clock_ms),
            ("max query walks", self.admission.max_query_walks),
        ] {
            if value == Some(0) {
                return Err(format!("{limit} must be positive"));
            }
        }
        Ok(())
    }
}

/// One friending query against the resident graph: find a small
/// invitation set for `s` to befriend `t` reaching `α · p_max`, sampling
/// at most `budget` realizations (clamped to the context's walk
/// ceiling). Ids are original-space even on relabeled snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// The initiator.
    pub s: NodeId,
    /// The target.
    pub t: NodeId,
    /// Approximation target `α ∈ (ε, 1]`.
    pub alpha: f64,
    /// Realization budget (walk count before clamping).
    pub budget: u64,
}

/// The answer to one [`Query`], with the intermediate quantities the
/// paper's analysis talks about plus the cache outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The invitation set `I*` (original-space ids).
    pub invitations: InvitationSet,
    /// The solved parameter set `(ε0, ε1, β)` for this query's `α`.
    pub parameters: ParameterSet,
    /// The pool's `p_max` estimate `|B¹_l| / l`.
    pub pmax_estimate: f64,
    /// Walks actually sampled into the pool: the effective budget (after
    /// the [`ServeConfig::walks`] clamp), or fewer when the deadline
    /// truncated sampling (then [`degraded`](Self::degraded) is set).
    pub walks: u64,
    /// `|B¹_l|`: type-1 realizations in the pool.
    pub type1_count: usize,
    /// The cover requirement `p = ⌈β·|B¹_l|⌉`.
    pub cover_p: usize,
    /// Sets actually covered by `I*` (≥ `cover_p`).
    pub covered: usize,
    /// Whether the pool came from the cache (`false` = freshly sampled).
    pub cache_hit: bool,
    /// Whether the pool is a deadline-truncated prefix of the requested
    /// walk count. The estimator is *anytime*: a partial pool's answer
    /// is still valid, just wider — and for a pure work-budget deadline
    /// it is bit-identical for a given `(seed, budget)`.
    pub degraded: bool,
}

/// Why a query failed structural validation before touching the graph —
/// the payload of [`ServeError::InvalidQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRejection {
    /// The realization budget was zero.
    ZeroBudget,
    /// Source and target are the same node.
    SourceIsTarget,
    /// A node id does not exist in the resident graph. Caught up front,
    /// before key construction, so invalid ids never form pool keys or
    /// pollute the cache's miss counters on their way to instance
    /// validation.
    NodeOutOfRange {
        /// The offending id.
        node: usize,
        /// Nodes in the resident graph.
        node_count: usize,
    },
    /// A campaign listed no targets.
    NoTargets,
    /// A campaign listed the same target twice.
    DuplicateTarget {
        /// The repeated node id.
        target: usize,
    },
}

impl fmt::Display for QueryRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryRejection::ZeroBudget => write!(f, "budget must be positive"),
            QueryRejection::SourceIsTarget => write!(f, "source and target coincide"),
            QueryRejection::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            QueryRejection::NoTargets => write!(f, "campaign lists no targets"),
            QueryRejection::DuplicateTarget { target } => {
                write!(f, "duplicate campaign target {target}")
            }
        }
    }
}

/// Errors from the serving layer, one variant per failure surface so
/// callers (and the line protocol) can react per class instead of
/// string-matching.
#[derive(Debug)]
pub enum ServeError {
    /// A query failed structural validation before touching the graph.
    InvalidQuery(QueryRejection),
    /// Instance construction rejected the pair.
    Instance(ModelError),
    /// The parameter system rejected `(α, ε)`.
    Parameters(CoreError),
    /// The cover solve failed.
    Solver(CoverError),
    /// The pool observed no type-1 realization: `t` is unreachable from
    /// `N(s)` within the sampled walks.
    TargetUnreachable {
        /// Walks sampled before giving up.
        samples: u64,
    },
    /// One campaign target's pool observed no type-1 realization, making
    /// the campaign as specified infeasible. Any pools sampled for the
    /// other targets stay cached — retrying without the dead target
    /// hits them.
    CampaignUnreachable {
        /// The unreachable target's node id.
        target: usize,
        /// Walks sampled into that target's pool.
        samples: u64,
    },
    /// Admission control shed the query; the payload carries a retry
    /// hint. Nothing was sampled and session state is unchanged.
    Overloaded(ShedReason),
    /// The query's pool exceeded its allocation cap; the pool was
    /// discarded, never cached.
    ResourceExhausted {
        /// Bytes the pool needed.
        needed: usize,
        /// The allocation cap it exceeded.
        cap: usize,
    },
    /// A panic escaped the query pipeline and was contained: any
    /// half-built cache entry was evicted and the session remains
    /// consistent (subsequent queries answer bit-identically to a fresh
    /// session).
    Internal {
        /// The panic message, as far as it could be recovered.
        reason: String,
    },
    /// An edge delta failed to apply to the resident graph (malformed
    /// spec, out-of-range endpoint, self-loop). The graph and every
    /// cached pool are unchanged.
    Delta(GraphError),
}

impl ServeError {
    /// A stable, short machine-readable class label (the error taxonomy
    /// as counters and logs see it).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::InvalidQuery(_) => "invalid-query",
            ServeError::Instance(_) => "invalid-pair",
            ServeError::Parameters(_) => "parameters",
            ServeError::Solver(_) => "solver",
            ServeError::TargetUnreachable { .. } => "unreachable",
            ServeError::CampaignUnreachable { .. } => "unreachable",
            ServeError::Overloaded(_) => "overloaded",
            ServeError::ResourceExhausted { .. } => "resource-exhausted",
            ServeError::Internal { .. } => "internal",
            ServeError::Delta(_) => "delta",
        }
    }

    /// Whether retrying the identical query later can succeed without
    /// changing it (back-pressure, not rejection) — the class batch
    /// drivers requeue.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::Overloaded(ShedReason::SessionSaturated { .. }))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidQuery(rejection) => write!(f, "invalid query: {rejection}"),
            ServeError::Instance(e) => write!(f, "invalid pair: {e}"),
            ServeError::Parameters(e) => write!(f, "parameter solve failed: {e}"),
            ServeError::Solver(e) => write!(f, "cover solve failed: {e}"),
            ServeError::TargetUnreachable { samples } => {
                write!(f, "target unreachable within {samples} sampled walks")
            }
            ServeError::CampaignUnreachable { target, samples } => {
                write!(f, "campaign target {target} unreachable within {samples} sampled walks")
            }
            ServeError::Overloaded(reason) => write!(f, "overloaded: {reason}"),
            ServeError::ResourceExhausted { needed, cap } => {
                write!(f, "resource exhausted: pool needs {needed} bytes, allocation cap is {cap}")
            }
            ServeError::Internal { reason } => write!(f, "internal: {reason}"),
            ServeError::Delta(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Instance(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Parameters(e)
    }
}

impl From<CoverError> for ServeError {
    fn from(e: CoverError) -> Self {
        ServeError::Solver(e)
    }
}

/// Robustness counters of a session, cumulative over its lifetime (the
/// cache has its own, see [`CacheStats`]). Only [`SessionContext::query`]
/// calls count — pool prefetches via [`SessionContext::pool`] are not
/// queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered (successfully or not).
    pub queries: u64,
    /// Queries answered from a deadline-truncated partial pool.
    pub degraded: u64,
    /// Queries shed by admission control ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Queries that tripped panic isolation ([`ServeError::Internal`]).
    pub internal: u64,
    /// Queries rejected for exceeding an allocation cap
    /// ([`ServeError::ResourceExhausted`]).
    pub resource: u64,
}

/// A serving session: one resident [`CsrGraph`] snapshot, a
/// [`PoolCache`] of sampled pools, and the configuration that makes
/// every answer a pure function of the query. The snapshot is borrowed
/// until the first [`apply_delta`](Self::apply_delta), which replaces it
/// with an owned post-delta rebuild.
///
/// Failure paths are part of the contract: a panic anywhere in the query
/// pipeline is contained to that query ([`ServeError::Internal`]), and a
/// deterministic [`FaultPlan`] can be attached
/// ([`set_fault_plan`](Self::set_fault_plan)) to exercise every failure
/// surface reproducibly. With the default (empty) plan and unlimited
/// policies, behavior is bit-identical to a context without any of this
/// machinery.
#[derive(Debug)]
pub struct SessionContext<'g> {
    csr: Cow<'g, CsrGraph>,
    /// The snapshot's permutation back to original ids, for a context
    /// built with [`with_relabeling`](Self::with_relabeling). The node
    /// set is frozen under churn, so it stays valid across deltas.
    relabeling: Option<Arc<Relabeling>>,
    config: ServeConfig,
    cache: PoolCache,
    faults: FaultPlan,
    /// Zero-based index the next `query()` call gets (fault sites are
    /// addressed by it).
    serial: u64,
    session: SessionStats,
    /// How many deltas have been applied — mixed into repair seeds so
    /// each delta's repair walks are fresh yet reproducible.
    delta_serial: u64,
}

/// What one [`SessionContext::apply_delta`] call did: the effective
/// graph change plus the fate of every pool that was resident when the
/// delta arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Edges actually added (absent before the delta).
    pub added: usize,
    /// Edges actually removed (present before the delta).
    pub removed: usize,
    /// Distinct endpoints of the effective ops.
    pub touched_nodes: usize,
    /// Resident entries repaired in place (stale walk mass re-sampled,
    /// fingerprint re-stamped, bytes re-accounted).
    pub repaired: usize,
    /// Resident entries untouched: no stored walk drew a step at a
    /// touched node.
    pub untouched: usize,
    /// Resident entries evicted instead of repaired (the delta touched
    /// the entry's `s` or `t`, or the pair became invalid): the next
    /// query resamples from the pure seed on the post-delta graph.
    pub flushed: usize,
    /// Total walk mass re-sampled across the repaired entries — the
    /// quantity repair cost scales with (compare: a flush re-samples the
    /// entry's full walk count).
    pub resampled_walks: u64,
    /// Whether the delta was a no-op (every op already satisfied); the
    /// graph and all pools are unchanged.
    pub noop: bool,
}

impl<'g> SessionContext<'g> {
    /// A context over a plain-layout snapshot.
    pub fn new(csr: &'g CsrGraph, config: ServeConfig) -> Self {
        Self::build(csr, None, config)
    }

    /// A context over a relabeled snapshot: queries take original-space
    /// ids and the relabeling maps them into (and pool contents out of)
    /// the snapshot's id space, so answers are bit-identical to a
    /// plain-layout context over the same graph. It stays for the
    /// serving benchmark's hub-BFS workload until ROADMAP item 4;
    /// `raf serve` and the experiment sweeps use [`new`](Self::new).
    pub fn with_relabeling(
        csr: &'g CsrGraph,
        relabeling: Arc<Relabeling>,
        config: ServeConfig,
    ) -> Self {
        Self::build(csr, Some(relabeling), config)
    }

    fn build(csr: &'g CsrGraph, relabeling: Option<Arc<Relabeling>>, config: ServeConfig) -> Self {
        let cache = PoolCache::new(config.cache_bytes);
        SessionContext {
            csr: Cow::Borrowed(csr),
            relabeling,
            config,
            cache,
            faults: FaultPlan::empty(),
            serial: 0,
            session: SessionStats::default(),
            delta_serial: 0,
        }
    }

    /// The snapshot queries run against: the borrowed one until the
    /// first delta, the owned post-delta rebuild after.
    pub(crate) fn active_csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Number of deltas applied to this session so far.
    pub fn deltas_applied(&self) -> u64 {
        self.delta_serial
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative robustness counters.
    pub fn session_stats(&self) -> SessionStats {
        self.session
    }

    /// Attaches a fault-injection plan (replacing any previous one).
    /// Sites are addressed by the zero-based serial of subsequent
    /// [`query`](Self::query) calls. An empty plan leaves behavior
    /// bit-identical to a plan-free context.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The attached fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of pools currently resident.
    pub fn cached_pools(&self) -> usize {
        self.cache.len()
    }

    /// Bytes currently charged by resident pools (and their cover
    /// instances) against [`ServeConfig::cache_bytes`].
    pub fn resident_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// The pool key a query resolves to: the pair plus the effective
    /// walk count (budget clamped to the context ceiling). Queries that
    /// differ only in `α` — or in budgets that clamp to the same walk
    /// count — share a key, which is the reuse the cache exploits.
    pub fn key_for(&self, query: &Query) -> Result<PoolKey, ServeError> {
        if query.budget == 0 {
            return Err(ServeError::InvalidQuery(QueryRejection::ZeroBudget));
        }
        if query.s == query.t {
            return Err(ServeError::InvalidQuery(QueryRejection::SourceIsTarget));
        }
        let node_count = self.active_csr().node_count();
        let narrow = |node: NodeId| -> Result<u32, ServeError> {
            let index = node.index();
            if index >= node_count {
                return Err(ServeError::InvalidQuery(QueryRejection::NodeOutOfRange {
                    node: index,
                    node_count,
                }));
            }
            u32::try_from(index).map_err(|_| {
                ServeError::InvalidQuery(QueryRejection::NodeOutOfRange { node: index, node_count })
            })
        };
        Ok(PoolKey {
            s: narrow(query.s)?,
            t: narrow(query.t)?,
            walks: query.budget.min(self.config.walks),
        })
    }

    /// The per-key pool seed: a pure mix of the master seed and the
    /// pair, independent of arrival order and of the walk count (the
    /// walk count differentiates keys, not seeds). Delegates to
    /// [`pair_seed`] — the one derivation shared by every layer that
    /// samples a per-pair pool — so campaign targets, single-target
    /// queries, and offline pipelines all land on the same cache keys
    /// *and* the same pool bytes.
    fn pool_seed(&self, key: &PoolKey) -> u64 {
        pair_seed(self.config.seed, key.s, key.t)
    }

    fn instance(&self, s: NodeId, t: NodeId) -> Result<FriendingInstance<'_>, ServeError> {
        let csr = self.active_csr();
        Ok(match &self.relabeling {
            None => FriendingInstance::new(csr, s, t)?,
            Some(r) => FriendingInstance::relabeled(csr, s, t, Arc::clone(r))?,
        })
    }

    /// The per-key repair seed for the current delta generation: a pure
    /// mix of the pool seed and the delta serial, so repairs draw walks
    /// disjoint from the original pool's yet fully reproducible from
    /// `(config, query history, delta history)`.
    fn repair_seed(&self, key: &PoolKey) -> u64 {
        splitmix64(self.pool_seed(key) ^ splitmix64(self.delta_serial))
    }

    pub(crate) fn check_query_cap(&self, key: &PoolKey) -> Result<(), ServeError> {
        if let Some(cap) = self.config.admission.max_query_walks {
            if key.walks > cap {
                return Err(ServeError::Overloaded(ShedReason::QueryTooLarge {
                    walks: key.walks,
                    cap,
                }));
            }
        }
        Ok(())
    }

    /// Fetches (or samples) the entry for a key, reporting whether it was
    /// a hit. A cache miss samples under the context's deadline policy
    /// (so the pool may be a deterministic truncation) and under any
    /// faults injected for this query.
    pub(crate) fn entry_for(
        &mut self,
        query: &Query,
        key: &PoolKey,
        faults: &[FaultKind],
    ) -> Result<(CachedPool, bool), ServeError> {
        if let Some(entry) = self.cache.get(key) {
            return Ok((entry, true));
        }
        let instance = self.instance(query.s, query.t)?;
        let panic_at = faults.iter().find_map(|f| match f {
            FaultKind::PanicAtWalk(w) => Some(*w),
            _ => None,
        });
        let slow_ms = faults.iter().find_map(|f| match f {
            FaultKind::SlowBatchMs(ms) => Some(*ms),
            _ => None,
        });
        let probe = move |walks: u64| {
            if let Some(ms) = slow_ms {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            if let Some(at) = panic_at {
                if walks >= at {
                    panic!("injected fault: panic at walk {at}");
                }
            }
        };
        let control = SampleControl {
            max_steps: self.config.deadline.work_budget,
            deadline: self.config.deadline.deadline_from_now(),
            probe: if panic_at.is_some() || slow_ms.is_some() { Some(&probe) } else { None },
        };
        let pool = SampleRequest::new(key.walks)
            .seed(self.pool_seed(key))
            .threads(self.config.threads)
            .control(&control)
            .run(&instance);
        if let Some(cap) = faults.iter().find_map(|f| match f {
            FaultKind::AllocCap(b) => Some(*b),
            _ => None,
        }) {
            let needed = pool.heap_bytes();
            if needed > cap {
                return Err(ServeError::ResourceExhausted { needed, cap });
            }
        }
        let cover = CoverInstance::from_path_pool_ref(self.active_csr().node_count(), &pool)?;
        let entry = CachedPool::new(Arc::new(pool), Arc::new(cover));
        self.cache.insert(*key, entry.clone());
        if faults.contains(&FaultKind::CorruptCacheEntry) {
            self.cache.corrupt_entry(key);
        }
        Ok((entry, false))
    }

    /// The cached realization pool for a pair at a walk budget — the
    /// building block `raf experiment` shares evaluation pools through.
    /// Counts a hit or miss like any query, but does not consume a query
    /// serial (fault sites address `query()` calls only).
    ///
    /// # Errors
    ///
    /// See [`ServeError`]; `α` plays no role here.
    pub fn pool(&mut self, s: NodeId, t: NodeId, budget: u64) -> Result<Arc<PathPool>, ServeError> {
        let probe = Query { s, t, alpha: 1.0, budget };
        let key = self.key_for(&probe)?;
        self.check_query_cap(&key)?;
        let (entry, _) = self.entry_for(&probe, &key, &[])?;
        Ok(entry.pool())
    }

    /// Answers one query: pool from the cache (sampling only on a true
    /// key miss), then the `α`-dependent cover phase on the resident
    /// cover instance.
    ///
    /// The whole pipeline runs behind panic isolation: a panic (injected
    /// or real) is contained to this query as [`ServeError::Internal`],
    /// any half-built cache entry is evicted, and the session stays
    /// consistent — subsequent queries answer bit-identically to a fresh
    /// session.
    ///
    /// # Errors
    ///
    /// See [`ServeError`].
    pub fn query(&mut self, query: &Query) -> Result<QueryAnswer, ServeError> {
        let serial = self.serial;
        self.serial += 1;
        self.session.queries += 1;
        let faults: Vec<FaultKind> = self.faults.for_query(serial).collect();
        let result = self.query_guarded(query, &faults);
        match &result {
            Ok(answer) if answer.degraded => self.session.degraded += 1,
            Err(ServeError::Overloaded(_)) => self.session.shed += 1,
            Err(ServeError::Internal { .. }) => self.session.internal += 1,
            Err(ServeError::ResourceExhausted { .. }) => self.session.resource += 1,
            _ => {}
        }
        result
    }

    fn query_guarded(
        &mut self,
        query: &Query,
        faults: &[FaultKind],
    ) -> Result<QueryAnswer, ServeError> {
        let key = self.key_for(query)?;
        self.check_query_cap(&key)?;
        match catch_unwind(AssertUnwindSafe(|| self.query_inner(query, &key, faults))) {
            Ok(result) => result,
            Err(payload) => {
                // The entry (if any made it in) may be half-built: evict
                // it so the next query on this key resamples from the
                // pure seed instead of trusting post-panic state.
                self.cache.remove(&key);
                Err(ServeError::Internal { reason: panic_reason(payload.as_ref()) })
            }
        }
    }

    /// The parameter set for `α` over the resident graph: `α ∈ (ε, 1]`
    /// or [`ServeError::Parameters`].
    pub(crate) fn parameters(&self, alpha: f64) -> Result<ParameterSet, ServeError> {
        Ok(ParameterSet::solve(alpha, self.config.epsilon, self.active_csr().node_count())?)
    }

    fn query_inner(
        &mut self,
        query: &Query,
        key: &PoolKey,
        faults: &[FaultKind],
    ) -> Result<QueryAnswer, ServeError> {
        // Reject a bad `α` before the lookup, so it never samples or
        // caches a pool.
        let parameters = self.parameters(query.alpha)?;
        let (entry, cache_hit) = self.entry_for(query, key, faults)?;
        let pool = entry.pool();
        let degraded = pool.total_samples() < key.walks;
        let b1 = pool.type1_count();
        if b1 == 0 {
            return Err(ServeError::TargetUnreachable { samples: pool.total_samples() });
        }
        let selection = select_invitations(&entry.cover, parameters.beta)?;
        Ok(QueryAnswer {
            invitations: selection.invitations,
            parameters,
            pmax_estimate: pool.pmax_estimate(),
            walks: pool.total_samples(),
            type1_count: b1,
            cover_p: selection.cover_p,
            covered: selection.covered,
            cache_hit,
            degraded,
        })
    }

    /// Answers a batch in order, one result per query (errors don't stop
    /// the batch — a service keeps serving).
    pub fn query_batch(&mut self, queries: &[Query]) -> Vec<Result<QueryAnswer, ServeError>> {
        queries.iter().map(|q| self.query(q)).collect()
    }

    /// Applies an edge delta to the session: rebuilds the resident
    /// snapshot from the post-delta graph (node set frozen; the original
    /// relabeling, if any, stays in force) and repairs resident cache
    /// entries **in place** instead of flushing them.
    ///
    /// Per entry, the edge→walk index resolves exactly the stored walks
    /// that drew a step at a touched endpoint; only that multiplicity
    /// mass is re-sampled (on the post-delta graph, under a repair seed
    /// mixed from the pool seed and the delta serial), the entry is
    /// re-fingerprinted, and its bytes re-accounted against the budget.
    /// Entries whose own `s` or `t` the delta touched — or whose pair is
    /// no longer a valid instance — are evicted; their next query
    /// resamples from the pure pool seed like any cold miss. A no-op
    /// delta (every op already satisfied) changes nothing.
    ///
    /// `social` is the caller's canonical edge-list graph — the same one
    /// the resident snapshot was built from — and is advanced to the
    /// post-delta graph on success, keeping the two views in lockstep
    /// across a churn stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::Delta`] if the delta does not apply (out-of-range
    /// endpoint, self-loop); the graph and all pools are unchanged.
    pub fn apply_delta(
        &mut self,
        delta: &EdgeDelta,
        social: &mut SocialGraph,
        scheme: WeightScheme,
    ) -> Result<DeltaOutcome, ServeError> {
        debug_assert_eq!(
            social.node_count(),
            self.active_csr().node_count(),
            "social graph and resident snapshot must describe the same node set"
        );
        let applied = delta.apply(social, scheme).map_err(ServeError::Delta)?;
        let touched = applied.touched_nodes();
        let mut outcome = DeltaOutcome {
            added: applied.added.len(),
            removed: applied.removed.len(),
            touched_nodes: touched.len(),
            repaired: 0,
            untouched: 0,
            flushed: 0,
            resampled_walks: 0,
            noop: applied.is_noop(),
        };
        if applied.is_noop() {
            return Ok(outcome);
        }
        self.csr = Cow::Owned(match &self.relabeling {
            None => applied.graph.to_csr(),
            Some(r) => applied.graph.to_csr_relabeled(r),
        });
        *social = applied.graph;
        self.delta_serial += 1;

        let keys: Vec<PoolKey> = self.cache.lru_keys().to_vec();
        for key in keys {
            let Some(entry) = self.cache.peek(&key) else { continue };
            // Repairing a corrupted entry would launder it: the repair
            // rebuilds the entry and restamps a fresh fingerprint, so a
            // pool that failed integrity would start serving as a valid
            // hit. Verify first; corruption found here is evicted like
            // lookup-time corruption and the next query resamples from
            // the pure per-pair seed on the post-delta graph.
            if !entry.verify() {
                self.cache.evict_corrupt(&key);
                outcome.flushed += 1;
                continue;
            }
            let old_pool = entry.pool();
            let node_count = self.active_csr().node_count();
            let index = EdgeWalkIndex::build(&old_pool, node_count);
            let repair =
                match self.instance(NodeId::new(key.s as usize), NodeId::new(key.t as usize)) {
                    Ok(instance) => {
                        let template = SampleRequest::new(0)
                            .seed(self.repair_seed(&key))
                            .threads(self.config.threads);
                        Some(repair_pool(&old_pool, &index, &touched, &instance, template))
                    }
                    // The pair is no longer a valid instance (e.g. the delta
                    // made s and t adjacent): drop the pool.
                    Err(_) => None,
                };
            match repair {
                Some(PoolRepair::Repaired { resampled: 0, .. }) => outcome.untouched += 1,
                Some(PoolRepair::Repaired { pool, resampled, .. }) => {
                    let rebuilt = CoverInstance::from_path_pool_ref(node_count, &pool)
                        .ok()
                        .map(|cover| CachedPool::new(Arc::new(pool), Arc::new(cover)));
                    match rebuilt {
                        Some(fresh) => {
                            if let Some(slot) = self.cache.entry_mut(&key) {
                                *slot = fresh;
                            }
                            if self.cache.reaccount(&key) {
                                outcome.repaired += 1;
                                outcome.resampled_walks += resampled;
                            } else {
                                // Grew past the budget: reaccount evicted it.
                                outcome.flushed += 1;
                            }
                        }
                        None => {
                            self.cache.remove(&key);
                            outcome.flushed += 1;
                        }
                    }
                }
                Some(PoolRepair::FullResample) | None => {
                    self.cache.remove(&key);
                    outcome.flushed += 1;
                }
            }
        }
        Ok(outcome)
    }
}

/// The cold reference: a fresh single-query context over the same graph
/// and configuration. A cache-hit answer from a long-lived context is
/// bit-identical to this (the equivalence the serving layer is built
/// on, property-tested in `tests/serving_equivalence.rs`) — including
/// degraded answers, because the work budget lives in the config.
///
/// # Errors
///
/// See [`ServeError`].
pub fn one_shot(
    csr: &CsrGraph,
    config: ServeConfig,
    query: &Query,
) -> Result<QueryAnswer, ServeError> {
    SessionContext::new(csr, config).query(query)
}

/// Recovers a human-readable message from a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignQuery;
    use crate::fault::FaultSite;
    use raf_graph::{GraphBuilder, WeightScheme};

    fn routes_csr() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
            .unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    fn q(alpha: f64, budget: u64) -> Query {
        Query { s: NodeId::new(0), t: NodeId::new(1), alpha, budget }
    }

    fn assert_equivalent(a: &QueryAnswer, b: &QueryAnswer) {
        // Everything except cache_hit, which legitimately differs
        // between warm and cold paths.
        assert_eq!(a.invitations, b.invitations);
        assert_eq!(a.pmax_estimate, b.pmax_estimate);
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.type1_count, b.type1_count);
        assert_eq!(a.cover_p, b.cover_p);
        assert_eq!(a.covered, b.covered);
        assert_eq!(a.degraded, b.degraded);
    }

    #[test]
    fn warm_answer_matches_cold_one_shot() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 20_000, seed: 9, ..Default::default() };
        let cold = one_shot(&csr, cfg.clone(), &q(0.4, 20_000)).unwrap();
        assert!(!cold.cache_hit);
        let mut ctx = SessionContext::new(&csr, cfg);
        // Prime with a *different* alpha, then hit with the tested one.
        let primed = ctx.query(&q(0.7, 20_000)).unwrap();
        assert!(!primed.cache_hit);
        let warm = ctx.query(&q(0.4, 20_000)).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.invitations, cold.invitations);
        assert_eq!(warm.type1_count, cold.type1_count);
        assert_eq!(warm.cover_p, cold.cover_p);
        assert_eq!(warm.pmax_estimate, cold.pmax_estimate);
        assert_eq!(ctx.stats(), CacheStats { hits: 1, misses: 1, ..Default::default() });
    }

    #[test]
    fn alpha_and_clamped_budget_share_a_key() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 3, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg);
        let a = ctx.key_for(&q(0.2, 10_000)).unwrap();
        // Bigger budget clamps to the context ceiling: same key.
        let b = ctx.key_for(&q(0.9, 1_000_000)).unwrap();
        assert_eq!(a, b);
        // A genuinely smaller budget is a different pool.
        let c = ctx.key_for(&q(0.2, 5_000)).unwrap();
        assert_ne!(a, c);
        ctx.query(&q(0.2, 10_000)).unwrap();
        let hit = ctx.query(&q(0.9, 1_000_000)).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.walks, 10_000);
        let miss = ctx.query(&q(0.2, 5_000)).unwrap();
        assert!(!miss.cache_hit);
        assert_eq!(miss.walks, 5_000);
    }

    #[test]
    fn source_is_part_of_the_key() {
        // Pools depend on the source's seed frontier N(s), so two sources
        // aiming at one target must not share a pool.
        let csr = routes_csr();
        let ctx = SessionContext::new(&csr, ServeConfig::default());
        let k0 = ctx.key_for(&q(0.3, 1_000)).unwrap();
        let k2 = ctx
            .key_for(&Query { s: NodeId::new(2), t: NodeId::new(1), alpha: 0.3, budget: 1_000 })
            .unwrap();
        assert_ne!(k0, k2);
    }

    #[test]
    fn answers_are_arrival_order_independent() {
        // Pool seeds derive from (master seed, pair) only, so a pair's
        // answer is the same whether it was queried first or after other
        // pairs populated the cache.
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 8_000, seed: 21, ..Default::default() };
        let mut fresh = SessionContext::new(&csr, cfg.clone());
        let direct = fresh.query(&q(0.5, 8_000)).unwrap();
        let mut busy = SessionContext::new(&csr, cfg);
        busy.query(&Query { s: NodeId::new(2), t: NodeId::new(1), alpha: 0.3, budget: 8_000 })
            .unwrap();
        busy.query(&Query { s: NodeId::new(0), t: NodeId::new(5), alpha: 0.3, budget: 8_000 })
            .unwrap();
        let after = busy.query(&q(0.5, 8_000)).unwrap();
        assert_eq!(direct.invitations, after.invitations);
        assert_eq!(direct.pmax_estimate, after.pmax_estimate);
    }

    #[test]
    fn relabeled_context_is_bit_identical_to_plain() {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (2, 4), (3, 5), (5, 1)]).unwrap();
        let social = b.build(WeightScheme::UniformByDegree).unwrap();
        let plain_csr = social.to_csr();
        let r = Arc::new(Relabeling::hub_bfs(&social));
        assert!(!r.is_identity());
        let relab_csr = social.to_csr_relabeled(&r);
        let cfg = ServeConfig { walks: 20_000, seed: 5, ..Default::default() };
        let mut plain = SessionContext::new(&plain_csr, cfg.clone());
        let mut relab = SessionContext::with_relabeling(&relab_csr, r, cfg);
        for alpha in [0.3, 0.6] {
            let a = plain.query(&q(alpha, 20_000)).unwrap();
            let b = relab.query(&q(alpha, 20_000)).unwrap();
            assert_eq!(a.invitations, b.invitations, "alpha={alpha}");
            assert_eq!(a.pmax_estimate, b.pmax_estimate);
            assert_eq!(a.covered, b.covered);
        }
        // Both contexts saw one miss then one hit.
        assert_eq!(plain.stats(), relab.stats());
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let csr = routes_csr();
        let mut ctx = SessionContext::new(&csr, ServeConfig::default());
        assert!(matches!(
            ctx.query(&q(0.3, 0)),
            Err(ServeError::InvalidQuery(QueryRejection::ZeroBudget))
        ));
        let same = Query { s: NodeId::new(1), t: NodeId::new(1), alpha: 0.3, budget: 100 };
        assert!(matches!(
            ctx.query(&same),
            Err(ServeError::InvalidQuery(QueryRejection::SourceIsTarget))
        ));
        // alpha must exceed epsilon: the parameter system rejects it.
        assert!(matches!(ctx.query(&q(0.001, 100)), Err(ServeError::Parameters(_))));
        // Unreachable target: a node with no inbound route from N(s).
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let island = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let mut ctx = SessionContext::new(&island, ServeConfig::default());
        let across = Query { s: NodeId::new(0), t: NodeId::new(3), alpha: 0.3, budget: 500 };
        assert!(matches!(ctx.query(&across), Err(ServeError::TargetUnreachable { .. })));
    }

    #[test]
    fn out_of_range_ids_are_rejected_before_the_cache() {
        // Out-of-graph ids used to sail through key construction and
        // count a cache miss before instance validation rejected them;
        // now they fail structural validation without touching the
        // cache. (Ids beyond u32 never get this far: the protocol
        // parser rejects them before NodeId construction, which would
        // otherwise truncate in release builds — see protocol.rs.)
        let csr = routes_csr();
        let mut ctx = SessionContext::new(&csr, ServeConfig::default());
        let plain_oob = Query { s: NodeId::new(0), t: NodeId::new(999), alpha: 0.3, budget: 5_000 };
        assert!(matches!(
            ctx.query(&plain_oob),
            Err(ServeError::InvalidQuery(QueryRejection::NodeOutOfRange {
                node: 999,
                node_count: 8
            }))
        ));
        assert_eq!(ctx.stats(), CacheStats::default(), "rejection must not touch the cache");
        let err = ctx.query(&plain_oob).unwrap_err();
        assert_eq!(err.to_string(), "invalid query: node 999 out of range (graph has 8 nodes)");
        // An `α` the parameter system rejects fails before the lookup
        // too: it neither samples nor caches the pair's pool.
        for alpha in [f64::NAN, -5.0, 1.5, 0.001] {
            assert!(
                matches!(ctx.query(&q(alpha, 5_000)), Err(ServeError::Parameters(_))),
                "alpha={alpha}"
            );
            assert_eq!(ctx.stats(), CacheStats::default(), "alpha={alpha} touched the cache");
        }
    }

    #[test]
    fn batch_keeps_serving_past_errors() {
        let csr = routes_csr();
        let mut ctx = SessionContext::new(&csr, ServeConfig::default());
        let batch = [q(0.4, 5_000), q(0.4, 0), q(0.6, 5_000), q(0.2, 5_000)];
        let answers = ctx.query_batch(&batch);
        assert_eq!(answers.len(), 4);
        assert!(answers[0].is_ok() && answers[1].is_err());
        assert!(answers[2].as_ref().unwrap().cache_hit);
        assert!(answers[3].as_ref().unwrap().cache_hit);
        let stats = ctx.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(ctx.session_stats().queries, 4);
    }

    #[test]
    fn config_validation_names_the_bad_knob() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
        let zero_walks = ServeConfig { walks: 0, ..Default::default() };
        assert_eq!(zero_walks.validate().unwrap_err(), "walks must be positive");
        for epsilon in [0.0, -0.1, 1.0, f64::NAN] {
            let bad = ServeConfig { epsilon, ..Default::default() };
            assert!(bad.validate().unwrap_err().starts_with("epsilon must lie in (0, 1)"));
        }
        let zero_threads = ServeConfig { threads: 0, ..Default::default() };
        assert_eq!(zero_threads.validate().unwrap_err(), "threads must be positive");
        // Zero limits start a session that cannot answer: an empty pool
        // for every query, or a shed whose retry hint is a zero budget.
        let zero_work = ServeConfig {
            deadline: DeadlinePolicy { work_budget: Some(0), wall_clock_ms: None },
            ..Default::default()
        };
        assert_eq!(zero_work.validate().unwrap_err(), "work budget must be positive");
        let zero_deadline = ServeConfig {
            deadline: DeadlinePolicy { work_budget: None, wall_clock_ms: Some(0) },
            ..Default::default()
        };
        assert_eq!(zero_deadline.validate().unwrap_err(), "deadline must be positive");
        let zero_cap = ServeConfig {
            admission: AdmissionPolicy { max_query_walks: Some(0), max_inflight_walks: None },
            ..Default::default()
        };
        assert_eq!(zero_cap.validate().unwrap_err(), "max query walks must be positive");
        // One walk or millisecond is a legal (if tight) limit.
        let tight = ServeConfig {
            deadline: DeadlinePolicy { work_budget: Some(1), wall_clock_ms: Some(1) },
            admission: AdmissionPolicy { max_query_walks: Some(1), max_inflight_walks: Some(0) },
            ..Default::default()
        };
        assert_eq!(tight.validate(), Ok(()));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ServeError::InvalidQuery(QueryRejection::ZeroBudget);
        assert_eq!(e.to_string(), "invalid query: budget must be positive");
        assert_eq!(e.code(), "invalid-query");
        let e = ServeError::InvalidQuery(QueryRejection::SourceIsTarget);
        assert_eq!(e.to_string(), "invalid query: source and target coincide");
        assert!(ServeError::TargetUnreachable { samples: 42 }.to_string().contains("42"));
        let e = ServeError::Internal { reason: "boom".into() };
        assert_eq!(e.to_string(), "internal: boom");
        assert_eq!(e.code(), "internal");
        let e = ServeError::ResourceExhausted { needed: 100, cap: 10 };
        assert!(e.to_string().starts_with("resource exhausted:"));
        assert!(!e.is_retryable());
        let shed = ServeError::Overloaded(ShedReason::SessionSaturated {
            inflight: 10,
            queries: 2,
            cap: 8,
        });
        assert!(shed.to_string().starts_with("overloaded:"));
        assert!(shed.is_retryable());
        let too_big = ServeError::Overloaded(ShedReason::QueryTooLarge { walks: 9, cap: 5 });
        assert!(!too_big.is_retryable(), "shrinking is on the client, not on time");
    }

    #[test]
    fn work_budget_degrades_deterministically() {
        let csr = routes_csr();
        let budgeted = ServeConfig {
            walks: 20_000,
            seed: 9,
            deadline: DeadlinePolicy { work_budget: Some(4_000), wall_clock_ms: None },
            ..Default::default()
        };
        let mut ctx = SessionContext::new(&csr, budgeted.clone());
        let first = ctx.query(&q(0.4, 20_000)).unwrap();
        assert!(first.degraded, "4k steps cannot sample 20k walks");
        assert!(!first.cache_hit);
        assert!(first.walks < 20_000 && first.walks > 0);
        // Degraded pools are cached; the hit is degraded the same way.
        let warm = ctx.query(&q(0.4, 20_000)).unwrap();
        assert!(warm.cache_hit);
        assert_equivalent(&first, &warm);
        // And a cold one-shot with the same config is bit-identical:
        // the work budget is part of the pure function.
        let cold = one_shot(&csr, budgeted, &q(0.4, 20_000)).unwrap();
        assert_equivalent(&first, &cold);
        assert_eq!(ctx.session_stats().degraded, 2);
    }

    #[test]
    fn degraded_walks_are_monotone_in_work_budget() {
        let csr = routes_csr();
        let mut last_walks = 0;
        for budget in [500u64, 2_000, 8_000, 32_000] {
            let cfg = ServeConfig {
                walks: 10_000,
                seed: 9,
                deadline: DeadlinePolicy { work_budget: Some(budget), wall_clock_ms: None },
                ..Default::default()
            };
            let answer = one_shot(&csr, cfg, &q(0.4, 10_000)).unwrap();
            assert!(answer.walks >= last_walks, "budget {budget} lost walks");
            last_walks = answer.walks;
        }
        // A generous budget is not degraded at all and matches the
        // unlimited answer exactly.
        let unlimited = one_shot(
            &csr,
            ServeConfig { walks: 10_000, seed: 9, ..Default::default() },
            &q(0.4, 10_000),
        )
        .unwrap();
        assert!(!unlimited.degraded);
        assert_eq!(last_walks, unlimited.walks);
    }

    #[test]
    fn injected_panic_is_contained_and_session_recovers() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 9, ..Default::default() };
        let mut plan = FaultPlan::empty();
        plan.push(FaultSite { query: 0, kind: FaultKind::PanicAtWalk(0) });
        let mut faulty = SessionContext::new(&csr, cfg.clone());
        faulty.set_fault_plan(plan);
        let err = faulty.query(&q(0.4, 10_000)).unwrap_err();
        assert!(matches!(&err, ServeError::Internal { reason } if reason.contains("injected")));
        assert_eq!(faulty.session_stats().internal, 1);
        assert_eq!(faulty.cached_pools(), 0, "no half-built entry may survive");
        // The session recovers: the same query now answers exactly like
        // a fresh fault-free session.
        let after = faulty.query(&q(0.4, 10_000)).unwrap();
        let fresh = one_shot(&csr, cfg, &q(0.4, 10_000)).unwrap();
        assert_equivalent(&after, &fresh);
    }

    #[test]
    fn alloc_cap_fault_rejects_without_caching() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 9, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg.clone());
        let mut plan = FaultPlan::empty();
        plan.push(FaultSite { query: 0, kind: FaultKind::AllocCap(1) });
        ctx.set_fault_plan(plan);
        let err = ctx.query(&q(0.4, 10_000)).unwrap_err();
        assert!(matches!(err, ServeError::ResourceExhausted { cap: 1, .. }));
        assert_eq!(ctx.cached_pools(), 0, "an over-cap pool must not be cached");
        assert_eq!(ctx.session_stats().resource, 1);
        let after = ctx.query(&q(0.4, 10_000)).unwrap();
        let fresh = one_shot(&csr, cfg, &q(0.4, 10_000)).unwrap();
        assert_equivalent(&after, &fresh);
    }

    #[test]
    fn corruption_fault_forces_integrity_eviction_and_resample() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 9, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg);
        let mut plan = FaultPlan::empty();
        plan.push(FaultSite { query: 0, kind: FaultKind::CorruptCacheEntry });
        ctx.set_fault_plan(plan);
        let first = ctx.query(&q(0.4, 10_000)).unwrap();
        // The corrupted entry is detected on the next lookup: evicted,
        // resampled, and — pools being pure — the answer is unchanged.
        let second = ctx.query(&q(0.4, 10_000)).unwrap();
        assert!(!second.cache_hit, "a corrupt entry must not serve as a hit");
        assert_equivalent(&first, &second);
        assert_eq!(ctx.stats().integrity_evictions, 1);
        // The resampled (clean) entry serves hits again.
        let third = ctx.query(&q(0.4, 10_000)).unwrap();
        assert!(third.cache_hit);
    }

    #[test]
    fn per_query_cap_sheds_oversized_queries() {
        let csr = routes_csr();
        let cfg = ServeConfig {
            walks: 50_000,
            admission: AdmissionPolicy { max_query_walks: Some(6_000), max_inflight_walks: None },
            ..Default::default()
        };
        let mut ctx = SessionContext::new(&csr, cfg);
        let err = ctx.query(&q(0.4, 10_000)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Overloaded(ShedReason::QueryTooLarge { walks: 10_000, cap: 6_000 })
        ));
        assert_eq!(ctx.session_stats().shed, 1);
        assert_eq!(ctx.stats(), CacheStats::default(), "shed queries never touch the cache");
        // Within the cap, business as usual.
        let ok = ctx.query(&q(0.4, 6_000)).unwrap();
        assert!(!ok.degraded);
        assert_eq!(ok.walks, 6_000);
    }

    fn routes_social() -> SocialGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1), (0, 6), (6, 7), (7, 1)])
            .unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn apply_delta_repairs_resident_pools_in_place() {
        let mut social = routes_social();
        let csr = social.to_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 9, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg);
        let before = ctx.query(&q(0.4, 10_000)).unwrap();
        // Removing (2,3) strands node 3's second route; node 3 is a draw
        // site of stored walks, but neither s=0 nor t=1 is touched.
        let outcome = ctx
            .apply_delta(
                &EdgeDelta::parse("-2:3").unwrap(),
                &mut social,
                WeightScheme::UniformByDegree,
            )
            .unwrap();
        assert_eq!((outcome.added, outcome.removed), (0, 1));
        assert!(!outcome.noop);
        assert_eq!(outcome.repaired, 1, "the resident entry must be repaired, not flushed");
        assert_eq!(outcome.flushed, 0);
        assert!(outcome.resampled_walks > 0);
        assert!(
            outcome.resampled_walks < before.walks,
            "repair must re-sample a strict subset of the pool"
        );
        assert_eq!(social.edge_count(), 8, "the caller's graph advances in lockstep");
        assert_eq!(ctx.deltas_applied(), 1);
        // The repaired entry keeps serving as a hit, at full walk count.
        let after = ctx.query(&q(0.4, 10_000)).unwrap();
        assert!(after.cache_hit);
        assert_eq!(after.walks, before.walks);
        assert!(after.type1_count > 0);
    }

    #[test]
    fn churned_sessions_answer_deterministically() {
        // Two sessions fed the same query/delta history answer
        // bit-identically: pools stay a pure function of (config, pair,
        // delta history) through repair.
        let run = || {
            let mut social = routes_social();
            let csr = social.to_csr();
            let cfg = ServeConfig { walks: 8_000, seed: 21, ..Default::default() };
            let mut ctx = SessionContext::new(&csr, cfg);
            ctx.query(&q(0.5, 8_000)).unwrap();
            ctx.apply_delta(
                &EdgeDelta::parse("-2:3,+3:6").unwrap(),
                &mut social,
                WeightScheme::UniformByDegree,
            )
            .unwrap();
            let a = ctx.query(&q(0.5, 8_000)).unwrap();
            ctx.apply_delta(
                &EdgeDelta::parse("-4:5").unwrap(),
                &mut social,
                WeightScheme::UniformByDegree,
            )
            .unwrap();
            let b = ctx.query(&q(0.3, 8_000)).unwrap();
            (a, b)
        };
        let (a1, b1) = run();
        let (a2, b2) = run();
        assert_equivalent(&a1, &a2);
        assert_equivalent(&b1, &b2);
        assert_eq!(a1.invitations, a2.invitations);
        assert_eq!(b1.invitations, b2.invitations);
    }

    #[test]
    fn noop_delta_changes_nothing() {
        let mut social = routes_social();
        let csr = social.to_csr();
        let cfg = ServeConfig { walks: 8_000, seed: 5, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg);
        let before = ctx.query(&q(0.4, 8_000)).unwrap();
        // Adding a present edge and removing an absent one are both
        // ineffective: the delta collapses to a no-op.
        let outcome = ctx
            .apply_delta(
                &EdgeDelta::parse("+0:2,-3:7").unwrap(),
                &mut social,
                WeightScheme::UniformByDegree,
            )
            .unwrap();
        assert!(outcome.noop);
        assert_eq!(outcome.touched_nodes, 0);
        assert_eq!(ctx.deltas_applied(), 0, "a no-op consumes no delta generation");
        let after = ctx.query(&q(0.4, 8_000)).unwrap();
        assert!(after.cache_hit, "pools survive a no-op untouched");
        assert_equivalent(&before, &after);
    }

    #[test]
    fn delta_touching_the_pair_flushes_to_the_pure_seed() {
        let mut social = routes_social();
        let csr = social.to_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 9, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg.clone());
        ctx.query(&q(0.4, 10_000)).unwrap();
        // (1,6) touches the target t=1: incremental repair cannot fix the
        // first-draw distribution, so the entry is flushed.
        let outcome = ctx
            .apply_delta(
                &EdgeDelta::parse("+1:6").unwrap(),
                &mut social,
                WeightScheme::UniformByDegree,
            )
            .unwrap();
        assert_eq!(outcome.flushed, 1);
        assert_eq!(outcome.repaired, 0);
        assert_eq!(ctx.cached_pools(), 0);
        // The next query cold-misses and must answer exactly like a
        // fresh session over the post-delta graph: eviction falls back
        // to the pure (config, pair) seed, never to stale state.
        let after = ctx.query(&q(0.4, 10_000)).unwrap();
        assert!(!after.cache_hit);
        let fresh = one_shot(&social.to_csr(), cfg, &q(0.4, 10_000)).unwrap();
        assert_equivalent(&after, &fresh);
    }

    #[test]
    fn invalid_delta_leaves_the_session_untouched() {
        let mut social = routes_social();
        let csr = social.to_csr();
        let mut ctx =
            SessionContext::new(&csr, ServeConfig { walks: 8_000, seed: 5, ..Default::default() });
        let before = ctx.query(&q(0.4, 8_000)).unwrap();
        let err = ctx
            .apply_delta(
                &EdgeDelta::parse("+0:999").unwrap(),
                &mut social,
                WeightScheme::UniformByDegree,
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Delta(_)));
        assert_eq!(err.code(), "delta");
        assert_eq!(social.edge_count(), 9, "the caller's graph is unchanged");
        assert_eq!(ctx.deltas_applied(), 0);
        let after = ctx.query(&q(0.4, 8_000)).unwrap();
        assert!(after.cache_hit);
        assert_equivalent(&before, &after);
    }

    #[test]
    fn relabeled_sessions_churn_bit_identically_to_plain() {
        let mut plain_social = routes_social();
        let mut relab_social = plain_social.clone();
        let plain_csr = plain_social.to_csr();
        let r = Arc::new(Relabeling::hub_bfs(&relab_social));
        assert!(!r.is_identity());
        let relab_csr = relab_social.to_csr_relabeled(&r);
        let cfg = ServeConfig { walks: 10_000, seed: 5, ..Default::default() };
        let mut plain = SessionContext::new(&plain_csr, cfg.clone());
        let mut relab = SessionContext::with_relabeling(&relab_csr, r, cfg);
        plain.query(&q(0.4, 10_000)).unwrap();
        relab.query(&q(0.4, 10_000)).unwrap();
        let delta = EdgeDelta::parse("-2:3,+3:6").unwrap();
        let po =
            plain.apply_delta(&delta, &mut plain_social, WeightScheme::UniformByDegree).unwrap();
        let ro =
            relab.apply_delta(&delta, &mut relab_social, WeightScheme::UniformByDegree).unwrap();
        assert_eq!(po, ro, "repair outcomes must agree across layouts");
        for alpha in [0.3, 0.6] {
            let a = plain.query(&q(alpha, 10_000)).unwrap();
            let b = relab.query(&q(alpha, 10_000)).unwrap();
            assert_eq!(a.invitations, b.invitations, "alpha={alpha}");
            assert_equivalent(&a, &b);
        }
    }

    fn campaign(s: usize, targets: &[usize], budget: usize) -> CampaignQuery {
        CampaignQuery {
            s: NodeId::new(s),
            targets: targets.iter().map(|&t| NodeId::new(t)).collect(),
            alpha: 0.5,
            budget,
        }
    }

    #[test]
    fn campaign_warms_and_is_warmed_by_single_queries() {
        // The cache-sharing contract, counter-verified in both
        // directions: a single query warms its pair's pool for a later
        // campaign, and a campaign's pools serve later single queries.
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 8_000, seed: 11, ..Default::default() };
        let mut ctx = SessionContext::new(&csr, cfg);
        // 1) Single query (0,1) at the ceiling: cold miss.
        let single = ctx.query(&q(0.5, 8_000)).unwrap();
        assert!(!single.cache_hit);
        // 2) Campaign over {1, 7}: target 1 hits the query's pool,
        //    target 7 misses and is sampled.
        let answer = ctx.campaign(&campaign(0, &[1, 7], 3)).unwrap();
        assert_eq!(answer.hits, 1);
        assert!(answer.targets[0].cache_hit && !answer.targets[1].cache_hit);
        let stats = ctx.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        // 3) A later single query on (0,7) hits the campaign's pool.
        let after = ctx
            .query(&Query { s: NodeId::new(0), t: NodeId::new(7), alpha: 0.3, budget: 8_000 })
            .unwrap();
        assert!(after.cache_hit, "campaign pools must serve single queries");
    }

    #[test]
    fn campaign_answers_are_target_order_invariant() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 8_000, seed: 7, ..Default::default() };
        let mut forward = SessionContext::new(&csr, cfg.clone());
        let mut backward = SessionContext::new(&csr, cfg);
        let a = forward.campaign(&campaign(0, &[1, 7], 4)).unwrap();
        let b = backward.campaign(&campaign(0, &[7, 1], 4)).unwrap();
        assert_eq!(a, b);
        assert!(a.invitations.len() <= 4);
        assert!((a.objective - a.targets.iter().map(|t| t.estimate).sum::<f64>()).abs() < 1e-12);
        // The returned allocation is never worse than either
        // independent-split arm, and the winning arm's objective is the
        // one reported.
        assert!(a.objective >= a.arm_objectives[1] && a.objective >= a.arm_objectives[2]);
        let by_name = match a.arm {
            "joint" => a.arm_objectives[0],
            "equal_split" => a.arm_objectives[1],
            _ => a.arm_objectives[2],
        };
        assert_eq!(a.objective, by_name);
    }

    #[test]
    fn campaign_rejects_structurally_without_killing_state() {
        let csr = routes_csr();
        let mut ctx =
            SessionContext::new(&csr, ServeConfig { walks: 4_000, seed: 3, ..Default::default() });
        let err = ctx.campaign(&campaign(0, &[], 3)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidQuery(QueryRejection::NoTargets)));
        let err = ctx.campaign(&campaign(0, &[1, 7, 1], 3)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidQuery(QueryRejection::DuplicateTarget { target: 1 })
        ));
        assert_eq!(err.to_string(), "invalid query: duplicate campaign target 1");
        let err = ctx.campaign(&campaign(0, &[0, 1], 3)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidQuery(QueryRejection::SourceIsTarget)));
        // A later out-of-range target fails before the valid one samples.
        let err = ctx.campaign(&campaign(0, &[1, 99], 3)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidQuery(QueryRejection::NodeOutOfRange { node: 99, node_count: 8 })
        ));
        let err = ctx.campaign(&campaign(0, &[1, 7], 0)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidQuery(QueryRejection::ZeroBudget)));
        // An α a query rejects fails the same way, before any sampling.
        for alpha in [f64::NAN, -5.0, 1.5] {
            let err = ctx.campaign(&CampaignQuery { alpha, ..campaign(0, &[1, 7], 3) });
            assert!(matches!(err, Err(ServeError::Parameters(_))), "alpha={alpha}");
        }
        assert_eq!(ctx.stats(), CacheStats::default(), "rejections must not touch the cache");
        // The session keeps serving afterwards.
        assert!(ctx.campaign(&campaign(0, &[1, 7], 3)).is_ok());
    }

    #[test]
    fn campaign_unreachable_target_is_structured_and_keeps_live_pools() {
        // Island graph: node 3 is unreachable from N(0).
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 1), (4, 3)]).unwrap();
        let csr = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let mut ctx =
            SessionContext::new(&csr, ServeConfig { walks: 2_000, seed: 5, ..Default::default() });
        let err = ctx.campaign(&campaign(0, &[1, 3], 2)).unwrap_err();
        assert!(matches!(err, ServeError::CampaignUnreachable { target: 3, .. }));
        assert_eq!(err.code(), "unreachable");
        // Target 1's pool (sampled before the failure) stays cached and
        // serves the retry without the dead target.
        let retry = ctx.campaign(&campaign(0, &[1], 2)).unwrap();
        assert_eq!(retry.hits, 1);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let csr = routes_csr();
        let cfg = ServeConfig { walks: 10_000, seed: 9, ..Default::default() };
        let mut bare = SessionContext::new(&csr, cfg.clone());
        let mut planned = SessionContext::new(&csr, cfg);
        planned.set_fault_plan(FaultPlan::empty());
        for alpha in [0.3, 0.5, 0.3] {
            let a = bare.query(&q(alpha, 10_000)).unwrap();
            let b = planned.query(&q(alpha, 10_000)).unwrap();
            assert_eq!(a.cache_hit, b.cache_hit);
            assert_equivalent(&a, &b);
        }
        assert_eq!(bare.stats(), planned.stats());
        assert_eq!(bare.session_stats(), planned.session_stats());
    }
}
