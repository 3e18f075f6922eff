//! Deterministic fault injection for the serving layer.
//!
//! A [`FaultPlan`] is a list of [`FaultSite`]s: *at query N of the
//! session, inject fault K*. Plans are data — parsed from a CLI spec
//! ([`FaultPlan::parse`], behind `raf serve --fault-plan`) or generated
//! from a seed ([`FaultPlan::from_seed`], the property-test driver) —
//! and injection is purely positional: the same plan over the same
//! query stream fires the same faults at the same walks every run, so
//! failure-path tests are as reproducible as the happy path. An empty
//! plan is free: the session is bit-identical to one with no plan at
//! all.
//!
//! The four fault kinds cover the serving layer's failure surfaces:
//! a worker panic mid-sampling ([`FaultKind::PanicAtWalk`], caught and
//! isolated as `err internal`), an allocation-cap breach
//! ([`FaultKind::AllocCap`], the resource-exhaustion path), forced slow
//! sampling ([`FaultKind::SlowBatchMs`], drives the wall-clock deadline
//! path), and cache-entry corruption ([`FaultKind::CorruptCacheEntry`],
//! drives the integrity-check eviction path).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the sampling run at every 256-walk block whose first
    /// walk index is at or past the given walk, before the block's walks
    /// start. The message names the given walk, so it is the same at
    /// every sampler thread count. Exercises panic isolation: the query
    /// must answer `err internal` and leave the session consistent.
    PanicAtWalk(u64),
    /// Cap the query's pool allocation at the given byte count; a pool
    /// larger than the cap is rejected as resource exhaustion and never
    /// cached.
    AllocCap(usize),
    /// Sleep this many milliseconds before every sampler block —
    /// forced slow sampling, which drives a wall-clock deadline into its
    /// degraded path.
    SlowBatchMs(u64),
    /// After the query completes and caches its pool, corrupt the cached
    /// entry (flip its integrity checksum). The next lookup must detect
    /// the corruption, evict, and resample.
    CorruptCacheEntry,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::PanicAtWalk(w) => write!(f, "panic:{w}"),
            FaultKind::AllocCap(b) => write!(f, "alloc:{b}"),
            FaultKind::SlowBatchMs(ms) => write!(f, "slow:{ms}"),
            FaultKind::CorruptCacheEntry => write!(f, "corrupt"),
        }
    }
}

/// A fault pinned to a position in the session's query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Zero-based index of the query (in session arrival order,
    /// counting every query — including ones that fail validation).
    pub query: u64,
    /// The fault to inject there.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults over a session's query stream.
///
/// The default plan is empty and injects nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// The empty plan (injects nothing; serving is bit-identical to a
    /// session without a plan).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The scheduled sites, in insertion order.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Adds a site to the plan.
    pub fn push(&mut self, site: FaultSite) {
        self.sites.push(site);
    }

    /// The highest query index with a scheduled fault, if any — the
    /// boundary after which the recovery property ("post-fault queries
    /// are bit-identical to a fresh session") is asserted.
    pub fn last_fault_query(&self) -> Option<u64> {
        self.sites.iter().map(|s| s.query).max()
    }

    /// The faults scheduled for one query.
    pub fn for_query(&self, query: u64) -> impl Iterator<Item = FaultKind> + '_ {
        self.sites.iter().filter(move |s| s.query == query).map(|s| s.kind)
    }

    /// Parses the CLI spec: comma-separated `kind@query[:param]` sites.
    ///
    /// * `panic@Q[:W]` — panic during query `Q`'s sampling at the first
    ///   256-walk block starting at or after walk `W` (default 0: the
    ///   first block);
    /// * `alloc@Q:BYTES` — cap query `Q`'s pool allocation at `BYTES`;
    /// * `slow@Q[:MS]` — sleep `MS` ms (default 10) before each block
    ///   of query `Q`'s sampling;
    /// * `corrupt@Q` — corrupt the cache entry query `Q` inserts.
    ///
    /// An empty spec (or one of only whitespace) is the empty plan.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed site.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::empty();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind_name, rest) = raw
                .split_once('@')
                .ok_or_else(|| format!("fault site {raw:?}: expected `kind@query[:param]`"))?;
            let (query_raw, param) = match rest.split_once(':') {
                None => (rest, None),
                Some((q, p)) => (q, Some(p)),
            };
            let query: u64 = query_raw
                .parse()
                .map_err(|_| format!("fault site {raw:?}: bad query index {query_raw:?}"))?;
            let parse_param = |default: Option<u64>| -> Result<u64, String> {
                match (param, default) {
                    (Some(p), _) => {
                        p.parse().map_err(|_| format!("fault site {raw:?}: bad parameter {p:?}"))
                    }
                    (None, Some(d)) => Ok(d),
                    (None, None) => Err(format!("fault site {raw:?}: missing parameter")),
                }
            };
            let kind = match kind_name {
                "panic" => FaultKind::PanicAtWalk(parse_param(Some(0))?),
                "alloc" => FaultKind::AllocCap(parse_param(None)? as usize),
                "slow" => FaultKind::SlowBatchMs(parse_param(Some(10))?),
                "corrupt" => {
                    if param.is_some() {
                        return Err(format!("fault site {raw:?}: corrupt takes no parameter"));
                    }
                    FaultKind::CorruptCacheEntry
                }
                other => {
                    return Err(format!(
                        "fault site {raw:?}: unknown kind {other:?} \
                         (expected panic, alloc, slow, or corrupt)"
                    ))
                }
            };
            plan.push(FaultSite { query, kind });
        }
        Ok(plan)
    }

    /// A seed-driven pseudo-random plan over a stream of `queries`
    /// queries: up to `queries` sites (possibly zero) of deterministic
    /// kinds and positions — the generator the recovery property test
    /// fans out over. Excludes [`FaultKind::SlowBatchMs`] (its purpose
    /// is driving the nondeterministic wall-clock path, which a
    /// bit-identity property cannot assert over).
    pub fn from_seed(seed: u64, queries: u64) -> Self {
        let mut plan = FaultPlan::empty();
        if queries == 0 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let sites = rng.gen_range(0..=queries.min(4));
        for _ in 0..sites {
            let query = rng.gen_range(0..queries);
            let kind = match rng.gen_range(0u8..3) {
                0 => FaultKind::PanicAtWalk(rng.gen_range(0..2_048)),
                1 => FaultKind::AllocCap(rng.gen_range(1..256) as usize),
                _ => FaultKind::CorruptCacheEntry,
            };
            plan.push(FaultSite { query, kind });
        }
        plan
    }

    /// Renders the plan back in [`parse`](Self::parse) syntax.
    pub fn to_spec(&self) -> String {
        self.sites
            .iter()
            .map(|s| match s.kind {
                FaultKind::CorruptCacheEntry => format!("corrupt@{}", s.query),
                FaultKind::PanicAtWalk(w) => format!("panic@{}:{w}", s.query),
                FaultKind::AllocCap(b) => format!("alloc@{}:{b}", s.query),
                FaultKind::SlowBatchMs(ms) => format!("slow@{}:{ms}", s.query),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse("panic@2:100, alloc@0:4096, slow@3, corrupt@1").unwrap();
        assert_eq!(
            plan.sites(),
            &[
                FaultSite { query: 2, kind: FaultKind::PanicAtWalk(100) },
                FaultSite { query: 0, kind: FaultKind::AllocCap(4096) },
                FaultSite { query: 3, kind: FaultKind::SlowBatchMs(10) },
                FaultSite { query: 1, kind: FaultKind::CorruptCacheEntry },
            ]
        );
        assert_eq!(plan.last_fault_query(), Some(3));
        let panics: Vec<FaultKind> = plan.for_query(2).collect();
        assert_eq!(panics, vec![FaultKind::PanicAtWalk(100)]);
        assert_eq!(plan.for_query(9).count(), 0);
    }

    #[test]
    fn parse_defaults_and_empties() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  , ").unwrap().is_empty());
        let plan = FaultPlan::parse("panic@5").unwrap();
        assert_eq!(plan.sites()[0].kind, FaultKind::PanicAtWalk(0));
        assert_eq!(FaultPlan::empty().last_fault_query(), None);
    }

    #[test]
    fn parse_rejects_malformed_sites() {
        assert!(FaultPlan::parse("panic").unwrap_err().contains("kind@query"));
        assert!(FaultPlan::parse("panic@x").unwrap_err().contains("query index"));
        assert!(FaultPlan::parse("alloc@1").unwrap_err().contains("missing parameter"));
        assert!(FaultPlan::parse("panic@1:zz").unwrap_err().contains("bad parameter"));
        assert!(FaultPlan::parse("corrupt@1:5").unwrap_err().contains("no parameter"));
        assert!(FaultPlan::parse("explode@1").unwrap_err().contains("unknown kind"));
    }

    #[test]
    fn spec_round_trips() {
        let spec = "panic@2:100,alloc@0:4096,slow@3:10,corrupt@1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_spec(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..50u64 {
            let a = FaultPlan::from_seed(seed, 6);
            let b = FaultPlan::from_seed(seed, 6);
            assert_eq!(a, b, "seed {seed}");
            for site in a.sites() {
                assert!(site.query < 6);
                assert!(!matches!(site.kind, FaultKind::SlowBatchMs(_)));
            }
        }
        assert!(FaultPlan::from_seed(1, 0).is_empty());
        // Some seed produces a non-empty plan (the generator is useful).
        assert!((0..50).any(|s| !FaultPlan::from_seed(s, 6).is_empty()));
    }
}
