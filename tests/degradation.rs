//! Graceful-degradation properties for deadline-bounded serving.
//!
//! A per-query work budget (walk-step units) truncates sampling to a
//! deterministic prefix of the walk indices, so a degraded answer is a
//! *smaller sample*, not a different experiment. That gives three
//! testable guarantees: (1) bit-identical output for a fixed
//! `(seed, work budget)`; (2) walks answered — and with them the
//! Hoeffding confidence half-width `sqrt(ln(2/δ)/(2l))` the estimator
//! inherits — monotonically non-worse as the budget grows; (3) a budget
//! that covers the request exactly reproduces the unlimited answer,
//! `degraded` marker gone.

use active_friending::prelude::*;
use active_friending::serve::protocol;

fn fixture_csr() -> CsrGraph {
    let mut b = GraphBuilder::new();
    b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (5, 4), (5, 3)]).unwrap();
    b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
}

fn config_with_budget(work_budget: Option<u64>) -> ServeConfig {
    ServeConfig {
        walks: 8_000,
        seed: 23,
        threads: 1,
        deadline: DeadlinePolicy { work_budget, wall_clock_ms: None },
        ..Default::default()
    }
}

fn answer_under(csr: &CsrGraph, work_budget: Option<u64>) -> (Query, QueryAnswer) {
    let query = Query { s: NodeId::new(0), t: NodeId::new(1), alpha: 0.5, budget: 8_000 };
    let mut ctx = SessionContext::new(csr, config_with_budget(work_budget));
    let answer = ctx.query(&query).expect("fixture query must answer");
    (query, answer)
}

/// The estimator's Hoeffding half-width at `walks` samples for the
/// session default δ: strictly a function of the sample count, so
/// "non-worse estimate" reduces to "no fewer walks".
fn half_width(walks: u64) -> f64 {
    (f64::ln(2.0 / 0.05) / (2.0 * walks as f64)).sqrt()
}

#[test]
fn degraded_output_is_deterministic_in_seed_and_budget() {
    let csr = fixture_csr();
    let (query, first) = answer_under(&csr, Some(1_500));
    let (_, second) = answer_under(&csr, Some(1_500));
    assert!(first.degraded, "a 1.5k-step budget must truncate an 8k-walk request");
    assert_eq!(
        protocol::format_answer(&query, &first),
        protocol::format_answer(&query, &second),
        "degraded answers must be bit-identical for a fixed (seed, work budget)",
    );
}

#[test]
fn estimates_are_monotonically_non_worse_in_the_budget() {
    let csr = fixture_csr();
    let budgets = [500u64, 2_000, 8_000, 32_000];
    let mut previous_walks = 0u64;
    for &budget in &budgets {
        let (_, answer) = answer_under(&csr, Some(budget));
        assert!(answer.walks > 0, "even the smallest budget answers from a partial pool");
        assert!(
            answer.walks >= previous_walks,
            "walks shrank as the budget grew: {} after {}",
            answer.walks,
            previous_walks,
        );
        if previous_walks > 0 {
            assert!(half_width(answer.walks) <= half_width(previous_walks));
        }
        assert_eq!(answer.degraded, answer.walks < 8_000);
        previous_walks = answer.walks;
    }
}

#[test]
fn a_covering_budget_reproduces_the_unlimited_answer() {
    let csr = fixture_csr();
    let (query, unlimited) = answer_under(&csr, None);
    assert!(!unlimited.degraded);
    assert_eq!(unlimited.walks, 8_000);
    // A budget in walk-step units large enough for every walk of the
    // request: the deadline machinery engages but never fires.
    let (_, covered) = answer_under(&csr, Some(1 << 32));
    assert_eq!(
        protocol::format_answer(&query, &covered),
        protocol::format_answer(&query, &unlimited),
        "an ample work budget must not perturb the answer",
    );
}
