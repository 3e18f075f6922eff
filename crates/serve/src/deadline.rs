//! Per-query resource governance: deterministic work budgets, optional
//! wall-clock deadlines, and admission control.
//!
//! The serving layer's robustness contract has two halves. **Deadlines**
//! bound how much work an *admitted* query may spend: the walk-step
//! budget of [`DeadlinePolicy`] is threaded into the sampler as a
//! cancellation token (checked before each 256-walk block, see
//! [`raf_model::sampler::SampleControl`]) and a query that exhausts it
//! degrades gracefully — the answer comes from the partial pool, marked
//! `degraded`, bit-identical for a fixed `(seed, budget)`. **Admission
//! control** bounds what enters at all: [`AdmissionPolicy`] caps the
//! work a single query may request and the work a batch window may hold
//! in flight ([`AdmissionLedger`]); queries over either limit are shed
//! with [`ShedReason`] (the `err overloaded` protocol line) instead of
//! being allowed to stall the session.

use std::fmt;

/// Per-query deadline knobs of a serving session. The default is
/// unlimited on both axes, which keeps the session bit-identical to a
/// deadline-free one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlinePolicy {
    /// Deterministic per-query work budget in walk-steps (node advances
    /// plus terminating draws). Exhaustion degrades the answer; it never
    /// fails the query. `None` = unlimited.
    pub work_budget: Option<u64>,
    /// Wall-clock cap per query in milliseconds, layered on top of the
    /// step budget for latency protection. Truncation under this cap is
    /// *not* deterministic (it depends on machine speed); reproducible
    /// tests use `work_budget` alone. `None` = no time cap.
    pub wall_clock_ms: Option<u64>,
}

impl DeadlinePolicy {
    /// No limits: queries always sample their full walk count.
    pub const UNLIMITED: DeadlinePolicy = DeadlinePolicy { work_budget: None, wall_clock_ms: None };

    /// Whether this policy can never truncate a query.
    pub fn is_unlimited(&self) -> bool {
        self.work_budget.is_none() && self.wall_clock_ms.is_none()
    }

    /// The wall-clock deadline for a query starting now, if any.
    pub(crate) fn deadline_from_now(&self) -> Option<std::time::Instant> {
        self.wall_clock_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms))
    }
}

/// Admission limits of a serving session. The default admits
/// everything, which keeps the session bit-identical to an
/// admission-free one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionPolicy {
    /// Per-query cap on *effective* walks (the budget after the walk
    /// ceiling clamp). A query over this cap is shed with
    /// [`ShedReason::QueryTooLarge`]. `None` = no per-query cap.
    pub max_query_walks: Option<u64>,
    /// Ceiling on walks reserved across an in-flight admission window
    /// (see [`AdmissionLedger`]). `None` = unbounded window.
    pub max_inflight_walks: Option<u64>,
}

impl AdmissionPolicy {
    /// Admit everything.
    pub const OPEN: AdmissionPolicy =
        AdmissionPolicy { max_query_walks: None, max_inflight_walks: None };
}

/// Why admission control shed a query — the payload of
/// [`crate::ServeError::Overloaded`]. Every variant renders with a
/// retry hint: shedding is back-pressure, not failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The query's effective walk count exceeds the per-query cap.
    /// Retrying without lowering the budget can never succeed.
    QueryTooLarge {
        /// Effective walks the query asked for.
        walks: u64,
        /// The per-query cap it exceeded.
        cap: u64,
    },
    /// Admitting the query would push the in-flight window over its
    /// walk ceiling. Retrying after the window drains will succeed.
    SessionSaturated {
        /// Walks currently reserved by admitted queries.
        inflight: u64,
        /// Queries currently holding those reservations (the retry
        /// hint: try again after this many completions).
        queries: u64,
        /// The window's walk ceiling.
        cap: u64,
    },
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueryTooLarge { walks, cap } => {
                write!(
                    f,
                    "query needs {walks} walks, per-query cap is {cap}; retry with budget <= {cap}"
                )
            }
            ShedReason::SessionSaturated { inflight, queries, cap } => {
                write!(
                    f,
                    "{inflight} walks in flight across {queries} queries, window cap is {cap}; \
                     retry after {queries} completions"
                )
            }
        }
    }
}

/// The in-flight work ledger behind batch-window admission: reservations
/// are made as queries are admitted and released as they complete, so
/// the window's outstanding work never exceeds
/// [`AdmissionPolicy::max_inflight_walks`]. Purely arithmetic — no
/// clocks, no randomness — so a batch driver replaying the same request
/// stream sheds the same queries every run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLedger {
    inflight_walks: u64,
    inflight_queries: u64,
}

impl AdmissionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks currently reserved.
    pub fn inflight_walks(&self) -> u64 {
        self.inflight_walks
    }

    /// Queries currently holding reservations.
    pub fn inflight_queries(&self) -> u64 {
        self.inflight_queries
    }

    /// Tries to reserve `walks` for one query under `policy`. On success
    /// the reservation is held until [`release`](Self::release).
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] to report to the client. The ledger is
    /// unchanged on error.
    pub fn try_reserve(&mut self, policy: &AdmissionPolicy, walks: u64) -> Result<(), ShedReason> {
        if let Some(cap) = policy.max_query_walks {
            if walks > cap {
                return Err(ShedReason::QueryTooLarge { walks, cap });
            }
        }
        if let Some(cap) = policy.max_inflight_walks {
            let total = self.inflight_walks.saturating_add(walks);
            // A window must always admit at least one query, or an
            // over-cap first query would deadlock the whole batch.
            if total > cap && self.inflight_queries > 0 {
                return Err(ShedReason::SessionSaturated {
                    inflight: self.inflight_walks,
                    queries: self.inflight_queries,
                    cap,
                });
            }
        }
        self.inflight_walks = self.inflight_walks.saturating_add(walks);
        self.inflight_queries += 1;
        Ok(())
    }

    /// Releases a reservation made by [`try_reserve`](Self::try_reserve).
    pub fn release(&mut self, walks: u64) {
        self.inflight_walks = self.inflight_walks.saturating_sub(walks);
        self.inflight_queries = self.inflight_queries.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_policies_admit_everything() {
        assert!(DeadlinePolicy::default().is_unlimited());
        assert_eq!(DeadlinePolicy::default(), DeadlinePolicy::UNLIMITED);
        let mut ledger = AdmissionLedger::new();
        for _ in 0..100 {
            ledger.try_reserve(&AdmissionPolicy::OPEN, u64::MAX / 200).unwrap();
        }
        assert_eq!(ledger.inflight_queries(), 100);
    }

    #[test]
    fn per_query_cap_sheds_oversized_queries() {
        let policy = AdmissionPolicy { max_query_walks: Some(1_000), max_inflight_walks: None };
        let mut ledger = AdmissionLedger::new();
        assert_eq!(ledger.try_reserve(&policy, 1_000), Ok(()));
        let shed = ledger.try_reserve(&policy, 1_001).unwrap_err();
        assert_eq!(shed, ShedReason::QueryTooLarge { walks: 1_001, cap: 1_000 });
        // The failed reservation left the ledger untouched.
        assert_eq!(ledger.inflight_queries(), 1);
        assert_eq!(ledger.inflight_walks(), 1_000);
    }

    #[test]
    fn window_cap_sheds_then_admits_after_release() {
        let policy = AdmissionPolicy { max_query_walks: None, max_inflight_walks: Some(5_000) };
        let mut ledger = AdmissionLedger::new();
        ledger.try_reserve(&policy, 3_000).unwrap();
        ledger.try_reserve(&policy, 2_000).unwrap();
        let shed = ledger.try_reserve(&policy, 1).unwrap_err();
        assert!(matches!(shed, ShedReason::SessionSaturated { inflight: 5_000, queries: 2, .. }));
        ledger.release(3_000);
        ledger.try_reserve(&policy, 1).unwrap();
        assert_eq!(ledger.inflight_walks(), 2_001);
        assert_eq!(ledger.inflight_queries(), 2);
    }

    #[test]
    fn first_query_is_always_admitted() {
        // An over-cap first query must not deadlock an empty window.
        let policy = AdmissionPolicy { max_query_walks: None, max_inflight_walks: Some(100) };
        let mut ledger = AdmissionLedger::new();
        assert_eq!(ledger.try_reserve(&policy, 10_000), Ok(()));
        ledger.release(10_000);
        assert_eq!(ledger, AdmissionLedger::new());
    }

    #[test]
    fn shed_reasons_carry_retry_hints() {
        let too_large = ShedReason::QueryTooLarge { walks: 9, cap: 5 }.to_string();
        assert!(too_large.contains("retry with budget <= 5"), "{too_large}");
        let saturated =
            ShedReason::SessionSaturated { inflight: 10, queries: 3, cap: 12 }.to_string();
        assert!(saturated.contains("retry after 3 completions"), "{saturated}");
    }
}
