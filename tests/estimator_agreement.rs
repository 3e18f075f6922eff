//! Estimator agreement: the forward Monte-Carlo simulation of Process 1
//! and the reverse (RIS-style) backward-walk estimator are two routes to
//! the same quantity `f(I)` (Lemma 1 / Corollary 1). This suite pins
//! their agreement within a seeded tolerance band on a fixture graph —
//! including on the hub-BFS relabeled CSR the serving benchmark samples —
//! guarding the whole sampling stack against silent bias from layout or
//! loader changes.

use raf_graph::{generators, NodeId, Relabeling, SocialGraph, WeightScheme};
use raf_model::acceptance::{estimate_acceptance, estimate_acceptance_forward};
use raf_model::sampler::SampleRequest;
use raf_model::{FriendingInstance, InvitationSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Fixture: three parallel routes of lengths 1, 2, 3 between s=0, t=1 —
/// small enough for tight Monte-Carlo bands, rich enough that partial
/// invitation sets have non-trivial probabilities.
fn fixture() -> SocialGraph {
    generators::parallel_paths(&[1, 2, 3]).unwrap().build(WeightScheme::UniformByDegree).unwrap()
}

/// Invitation sets probed by every agreement check: full, target-only,
/// and a partial route cover.
fn probe_sets(n: usize, t: NodeId) -> Vec<InvitationSet> {
    let mut partial = InvitationSet::empty(n);
    partial.insert(t);
    for v in 2..n.min(5) {
        partial.insert(NodeId::new(v));
    }
    vec![InvitationSet::full(n), InvitationSet::from_nodes(n, [t]), partial]
}

/// |forward − reverse| must sit inside a band that is generous against
/// Monte-Carlo noise (3-sigma at these sample sizes is ≈ 0.012) yet far
/// below any systematic bias a broken estimator would show.
const TOLERANCE: f64 = 0.02;
const SAMPLES: u64 = 30_000;

#[test]
fn forward_and_reverse_agree_on_plain_layout() {
    let social = fixture();
    let csr = social.to_csr();
    let inst = FriendingInstance::new(&csr, NodeId::new(0), NodeId::new(1)).unwrap();
    for (i, inv) in probe_sets(csr.node_count(), NodeId::new(1)).iter().enumerate() {
        let mut rng_f = StdRng::seed_from_u64(100 + i as u64);
        let mut rng_r = StdRng::seed_from_u64(200 + i as u64);
        let fwd = estimate_acceptance_forward(&inst, inv, SAMPLES, &mut rng_f).probability;
        let rev = estimate_acceptance(&inst, inv, SAMPLES, &mut rng_r).probability;
        assert!(
            (fwd - rev).abs() < TOLERANCE,
            "set {i}: forward {fwd} vs reverse {rev} beyond ±{TOLERANCE}"
        );
    }
}

#[test]
fn forward_and_reverse_agree_on_relabeled_layout() {
    let social = fixture();
    let relabeling = Arc::new(Relabeling::hub_bfs(&social));
    let csr = social.to_csr_relabeled(&relabeling);
    let inst =
        FriendingInstance::relabeled(&csr, NodeId::new(0), NodeId::new(1), relabeling).unwrap();
    for (i, inv) in probe_sets(csr.node_count(), NodeId::new(1)).iter().enumerate() {
        let mut rng_f = StdRng::seed_from_u64(300 + i as u64);
        let mut rng_r = StdRng::seed_from_u64(400 + i as u64);
        let fwd = estimate_acceptance_forward(&inst, inv, SAMPLES, &mut rng_f).probability;
        let rev = estimate_acceptance(&inst, inv, SAMPLES, &mut rng_r).probability;
        assert!(
            (fwd - rev).abs() < TOLERANCE,
            "set {i} (relabeled): forward {fwd} vs reverse {rev} beyond ±{TOLERANCE}"
        );
    }
}

#[test]
fn pool_coverage_agrees_with_forward_simulation() {
    // The deduplicated arena pool is the third estimator of the same
    // quantity (multiplicity-weighted coverage over l walks); it must sit
    // in the same band as the forward simulation — on both layouts, where
    // the two pool estimates are additionally *identical* by the
    // relabeling equivariance guarantee.
    let social = fixture();
    let plain_csr = social.to_csr();
    let relabeling = Arc::new(Relabeling::hub_bfs(&social));
    let hub_csr = social.to_csr_relabeled(&relabeling);
    let plain = FriendingInstance::new(&plain_csr, NodeId::new(0), NodeId::new(1)).unwrap();
    let hub =
        FriendingInstance::relabeled(&hub_csr, NodeId::new(0), NodeId::new(1), relabeling.clone())
            .unwrap();
    let pool_a = SampleRequest::new(SAMPLES).seed(7).run(&plain);
    let pool_b = SampleRequest::new(SAMPLES).seed(7).run(&hub);
    assert_eq!(pool_a, pool_b, "relabeled pool diverged from plain pool");
    for (i, inv) in probe_sets(plain_csr.node_count(), NodeId::new(1)).iter().enumerate() {
        let mut rng_f = StdRng::seed_from_u64(500 + i as u64);
        let fwd = estimate_acceptance_forward(&plain, inv, SAMPLES, &mut rng_f).probability;
        let pooled = pool_a.coverage(inv);
        assert_eq!(pooled, pool_b.coverage(inv));
        assert!(
            (fwd - pooled).abs() < TOLERANCE,
            "set {i}: forward {fwd} vs pool coverage {pooled} beyond ±{TOLERANCE}"
        );
    }
}

#[test]
fn pmax_estimators_agree_with_closed_form() {
    // On the 4-node line 0-1-2-3 (s=0, t=3) the type-1 probability has
    // the closed form 1/2 · 1 = … = 0.5 for f(V): t=3 selects 2 (w.p. 1),
    // 2 selects the seed 1 w.p. 1/2. Both estimators must land on it.
    let mut b = raf_graph::GraphBuilder::new();
    b.add_edges((0..3).map(|i| (i, i + 1))).unwrap();
    let social = b.build(WeightScheme::UniformByDegree).unwrap();
    let relabeling = Arc::new(Relabeling::hub_bfs(&social));
    let hub_csr = social.to_csr_relabeled(&relabeling);
    let inst =
        FriendingInstance::relabeled(&hub_csr, NodeId::new(0), NodeId::new(3), relabeling).unwrap();
    let full = InvitationSet::full(4);
    let mut rng = StdRng::seed_from_u64(21);
    let rev = estimate_acceptance(&inst, &full, 40_000, &mut rng).probability;
    assert!((rev - 0.5).abs() < 0.01, "reverse estimate {rev} vs closed form 0.5");
    let mut rng = StdRng::seed_from_u64(22);
    let fwd = estimate_acceptance_forward(&inst, &full, 40_000, &mut rng).probability;
    assert!((fwd - 0.5).abs() < 0.01, "forward estimate {fwd} vs closed form 0.5");
}
