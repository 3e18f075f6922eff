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
//! work a single query may request; a query over the cap is shed with
//! [`ShedReason`] (the `err overloaded` protocol line) instead of being
//! allowed to stall the session.

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
}

impl AdmissionPolicy {
    /// Admit everything.
    pub const OPEN: AdmissionPolicy = AdmissionPolicy { max_query_walks: None };

    /// Admits or sheds one query that needs `walks` effective walks.
    /// Purely arithmetic — no clocks, no randomness — so replaying the
    /// same request stream sheds the same queries every run.
    ///
    /// # Errors
    ///
    /// The [`ShedReason`] to report to the client.
    pub fn admit(&self, walks: u64) -> Result<(), ShedReason> {
        match self.max_query_walks {
            Some(cap) if walks > cap => Err(ShedReason::QueryTooLarge { walks, cap }),
            _ => Ok(()),
        }
    }
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_policies_admit_everything() {
        assert!(DeadlinePolicy::default().is_unlimited());
        assert_eq!(DeadlinePolicy::default(), DeadlinePolicy::UNLIMITED);
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::OPEN);
        for walks in [0, 1, u64::MAX / 200, u64::MAX] {
            assert_eq!(AdmissionPolicy::OPEN.admit(walks), Ok(()));
        }
    }

    #[test]
    fn per_query_cap_sheds_oversized_queries() {
        let policy = AdmissionPolicy { max_query_walks: Some(1_000) };
        assert_eq!(policy.admit(1_000), Ok(()));
        let shed = policy.admit(1_001).unwrap_err();
        assert_eq!(shed, ShedReason::QueryTooLarge { walks: 1_001, cap: 1_000 });
        // Admission keeps no state: a shed does not affect the next query.
        assert_eq!(policy.admit(1), Ok(()));
    }

    #[test]
    fn shed_reasons_carry_retry_hints() {
        let too_large = ShedReason::QueryTooLarge { walks: 9, cap: 5 }.to_string();
        assert!(too_large.contains("retry with budget <= 5"), "{too_large}");
    }
}
