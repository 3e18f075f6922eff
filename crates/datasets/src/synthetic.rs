//! Synthetic stand-ins calibrated to Table I.
//!
//! Each dataset maps to a generator family whose topology matches what the
//! friending model actually consumes — a heavy-tailed degree sequence with
//! the right density (see DESIGN.md §4):
//!
//! * **Wiki** → Holme–Kim powerlaw-cluster (dense, clustered votes graph);
//! * **HepTh / HepPh** → preferential attachment (citation networks);
//! * **Youtube** → sparse preferential attachment with fractional mean
//!   attachment (avg degree 5.54 is non-integer).

use crate::{Dataset, DatasetSpec};
use raf_graph::generators::{cycle_graph, erdos_renyi_gnp, grid_graph, powerlaw_cluster};
use raf_graph::{GraphBuilder, GraphError, SocialGraph, WeightScheme};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A named synthetic topology family, sized by node count — the workload
/// axis of the benchmark scenario matrix (`raf bench-json`).
///
/// Unlike the Table-I [`Dataset`] stand-ins (which are calibrated to the
/// paper's datasets), these are *structural* families: a clustered
/// heavy-tailed graph, a homogeneous random graph, and two deterministic
/// lattices, which stress the reverse sampler in qualitatively different
/// ways (hub-concentrated walks vs diffuse walks vs long thin walks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Holme–Kim powerlaw-cluster graph (`m = 2`, triad probability 0.3):
    /// heavy-tailed and clustered, the paper-like hot workload.
    PowerlawCluster,
    /// Erdős–Rényi `G(n, p)` with mean degree 8: homogeneous degrees, no
    /// clustering.
    ErdosRenyi,
    /// Near-square 4-neighbor grid: deterministic, cycle-rich walks.
    Grid,
    /// Cycle graph: deterministic, the degenerate two-route topology.
    Ring,
}

impl Topology {
    /// All families, in scenario-matrix order.
    pub const ALL: [Topology; 4] =
        [Topology::PowerlawCluster, Topology::ErdosRenyi, Topology::Grid, Topology::Ring];

    /// The snake_case scenario-name component.
    pub fn name(self) -> &'static str {
        match self {
            Topology::PowerlawCluster => "powerlaw_cluster",
            Topology::ErdosRenyi => "erdos_renyi",
            Topology::Grid => "grid",
            Topology::Ring => "ring",
        }
    }

    /// Parses [`name`](Self::name) back into a family.
    pub fn parse(name: &str) -> Option<Topology> {
        Topology::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Generates a [`Topology`] instance with (approximately, for the grid)
/// `nodes` nodes. Deterministic per `(topology, nodes, seed)`; the
/// lattices ignore the seed entirely.
///
/// # Errors
///
/// Propagates generator failures for degenerate sizes (e.g. a ring needs
/// at least 3 nodes).
pub fn generate_topology(
    topology: Topology,
    nodes: usize,
    seed: u64,
) -> Result<SocialGraph, GraphError> {
    let mut rng = StdRng::seed_from_u64(seed ^ hash_name(topology.name()));
    let builder = match topology {
        Topology::PowerlawCluster => powerlaw_cluster(nodes, 2, 0.3, &mut rng)?,
        Topology::ErdosRenyi => {
            let p = (8.0 / (nodes.max(2) - 1) as f64).min(1.0);
            erdos_renyi_gnp(nodes, p, &mut rng)?
        }
        Topology::Grid => {
            let rows = (nodes as f64).sqrt().round().max(1.0) as usize;
            let cols = nodes.div_ceil(rows);
            grid_graph(rows, cols)?
        }
        Topology::Ring => cycle_graph(nodes)?,
    };
    builder.build(WeightScheme::UniformByDegree)
}

/// Generates the synthetic stand-in for `dataset` at the given `scale`
/// (1.0 = Table I size; 0.1 = 10% of the nodes with matching density).
///
/// Deterministic per `(dataset, scale, seed)`.
///
/// Node ids are **shuffled** with a seeded permutation before the final
/// build: real SNAP files arrive in crawl order and the loader compacts
/// ids by first appearance, so on-disk ids are uncorrelated with
/// topology — whereas generator insertion order leaks it (preferential
/// attachment emits hubs first, which would make the stand-ins look
/// artificially cache-friendly and mask exactly the locality problem
/// hub-BFS relabeling exists to solve). The shuffle restores the
/// real-data property; counts, degrees, and determinism are unaffected.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `scale` is not positive
/// or asks for more than `u32::MAX` nodes (node ids are `u32`, and the
/// float → `usize` cast would saturate); propagates generator failures.
/// Small scales are raised to 50 nodes.
pub fn generate(dataset: Dataset, scale: f64, seed: u64) -> Result<SocialGraph, GraphError> {
    let spec = dataset.spec();
    let nodes = (spec.nodes as f64 * scale).round();
    if !(scale > 0.0 && nodes <= u32::MAX as f64) {
        return Err(GraphError::InvalidParameter {
            message: format!("scale {scale} must be positive and give at most 2^32 - 1 nodes"),
        });
    }
    let n = (nodes as usize).max(50);
    let mean_attach = spec.edges as f64 / spec.nodes as f64;
    let mut rng = StdRng::seed_from_u64(seed ^ hash_name(spec.name));
    let builder = match dataset {
        Dataset::Wiki => {
            // Dense + clustered: Holme–Kim with integer attachment.
            let m_attach = mean_attach.round() as usize;
            powerlaw_cluster(n, m_attach, 0.35, &mut rng)?
        }
        Dataset::HepTh | Dataset::HepPh | Dataset::Youtube => {
            preferential_attachment_fractional(n, mean_attach, &mut rng)?
        }
    };
    let mut builder = builder;
    let mut perm: Vec<usize> = (0..builder.node_count()).collect();
    perm.shuffle(&mut rng);
    builder.permute_nodes(&perm)?;
    builder.build(WeightScheme::UniformByDegree)
}

/// Preferential attachment with a fractional mean attachment count: each
/// new node attaches to `⌊m⌋` or `⌈m⌉` targets, Bernoulli-chosen so the
/// mean is exactly `m` — hitting non-integer Table I densities like
/// Youtube's 5.45 edges per node.
///
/// The inner loop is **O(attach)** per node: draws come from the
/// endpoint list (one entry per edge endpoint — constant-time sampling
/// of the live degree distribution), and distinctness is checked against
/// a generation-stamped seen array instead of the old linear
/// `chosen.contains` scan (O(attach) per draw, quadratic per node).
/// When rejection sampling stalls on a degenerate degree sequence (one
/// hub holding nearly all the mass), the remaining targets come from a
/// deterministic prefix-sum sweep of the degree distribution — exact by
/// construction (always `attach` distinct targets, debug-asserted,
/// where the old guard path re-ran a `contains`-scanning id sweep
/// inside the fill loop) and RNG-free, so the draw stream stays
/// identical whether or not the fallback fires.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `mean_attach < 1`, when
/// the attachment count would reach `n` (`⌈m⌉ ≥ n` — a dedicated
/// diagnostic naming the attachment count, where the seed-clique check
/// below reports only a node-count bound), or when the graph is too
/// small to host the seed clique.
pub fn preferential_attachment_fractional<R: Rng>(
    n: usize,
    mean_attach: f64,
    rng: &mut R,
) -> Result<GraphBuilder, GraphError> {
    if mean_attach < 1.0 {
        return Err(GraphError::InvalidParameter {
            message: format!("mean attachment {mean_attach} below 1"),
        });
    }
    let lo = mean_attach.floor() as usize;
    let hi = mean_attach.ceil() as usize;
    if hi >= n {
        return Err(GraphError::InvalidParameter {
            message: format!("attachment count {hi} must stay below the node count {n}"),
        });
    }
    let frac_hi = mean_attach - lo as f64;
    let seed_size = hi + 1;
    if n <= seed_size {
        return Err(GraphError::InvalidParameter {
            message: format!("need more than {seed_size} nodes, got {n}"),
        });
    }
    let mut b = GraphBuilder::with_capacity((n as f64 * mean_attach) as usize);
    b.reserve_nodes(n);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * (n as f64 * mean_attach) as usize);
    // degree[u] mirrors the endpoint list (the fallback's sampling
    // weights); stamp[u] == v marks u as already chosen for node v — one
    // O(1) probe replaces the old O(attach) `chosen.contains` scan, and
    // resetting is free because each node uses its own id as the stamp.
    let mut degree: Vec<u32> = vec![0; n];
    let mut stamp: Vec<u32> = vec![u32::MAX; n];
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            b.add_edge(u, v)?;
            endpoints.push(u as u32);
            endpoints.push(v as u32);
            degree[u] += 1;
            degree[v] += 1;
        }
    }
    let mut chosen: Vec<u32> = Vec::with_capacity(hi);
    for v in seed_size..n {
        let attach = if rng.gen::<f64>() < frac_hi { hi } else { lo };
        chosen.clear();
        let mark = v as u32;
        let mut guard = 0usize;
        while chosen.len() < attach {
            let u = endpoints[rng.gen_range(0..endpoints.len())] as usize;
            // Self-loop guard: endpoints only lists nodes below v today,
            // but the invariant is one refactor away from silent
            // breakage, and a stamped probe makes the guard free.
            if u != v && stamp[u] != mark {
                stamp[u] = mark;
                chosen.push(u as u32);
            }
            guard += 1;
            if guard > 100 * attach {
                fill_by_degree_prefix_sum(&degree[..v], &mut stamp, mark, attach, &mut chosen);
                break;
            }
        }
        debug_assert_eq!(chosen.len(), attach, "under-attached node {v}");
        for &u in &chosen {
            b.add_edge(u as usize, v)?;
            endpoints.push(u);
            endpoints.push(v as u32);
            degree[u as usize] += 1;
            degree[v] += 1;
        }
    }
    Ok(b)
}

/// Deterministic, exact fallback for a stalled rejection loop: picks the
/// missing attachment targets by sweeping evenly spaced quantiles of the
/// prefix-summed degree distribution over the existing nodes `0..v`
/// (every one of which has degree ≥ 1), skipping already-stamped nodes
/// by advancing to the next unstamped candidate (wrapping once).
///
/// Degree-biased like the rejection path, consumes no RNG, and always
/// fills `chosen` to exactly `attach` entries: the caller guarantees
/// `attach < v`, so at least `attach - chosen.len()` unstamped
/// candidates exist.
fn fill_by_degree_prefix_sum(
    degree: &[u32],
    stamp: &mut [u32],
    mark: u32,
    attach: usize,
    chosen: &mut Vec<u32>,
) {
    let v = degree.len();
    debug_assert!(attach < v, "cannot pick {attach} distinct targets from {v} nodes");
    let need = attach - chosen.len();
    if need == 0 {
        return;
    }
    let total: u64 = degree.iter().map(|&d| u64::from(d)).sum();
    let mut cum = 0u64;
    let mut cursor = 0usize; // candidate index, advanced with the quantiles
    for i in 0..need {
        // Mid-bucket quantile of the degree mass for the i-th pick.
        let pos = ((2 * i as u64 + 1) * total) / (2 * need as u64);
        while cursor < v && cum + u64::from(degree[cursor]) <= pos {
            cum += u64::from(degree[cursor]);
            cursor += 1;
        }
        // Next unstamped candidate at or after the quantile, wrapping.
        let mut pick = cursor.min(v - 1);
        let mut scanned = 0usize;
        while stamp[pick] == mark {
            pick += 1;
            if pick == v {
                pick = 0;
            }
            scanned += 1;
            debug_assert!(scanned <= v, "no unstamped candidate left");
        }
        stamp[pick] = mark;
        chosen.push(pick as u32);
    }
}

/// Calibration check helper: relative deviation between a generated
/// graph's statistics and the Table I spec at a given scale.
pub fn calibration_error(spec: &DatasetSpec, graph: &SocialGraph, scale: f64) -> (f64, f64) {
    let target_n = spec.nodes as f64 * scale;
    let target_m = spec.edges as f64 * scale;
    let dn = (graph.node_count() as f64 - target_n).abs() / target_n;
    let dm = (graph.edge_count() as f64 - target_m).abs() / target_m;
    (dn, dm)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a: stable across runs (unlike `DefaultHasher`).
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use raf_graph::{connected_components, DegreeHistogram};

    #[test]
    fn wiki_standin_density() {
        let g = generate(Dataset::Wiki, 0.05, 1).unwrap();
        let spec = Dataset::Wiki.spec();
        let (dn, dm) = calibration_error(&spec, &g, 0.05);
        assert!(dn < 0.05, "node deviation {dn}");
        assert!(dm < 0.10, "edge deviation {dm}");
    }

    #[test]
    fn hep_standin_density() {
        for d in [Dataset::HepTh, Dataset::HepPh] {
            let g = generate(d, 0.02, 2).unwrap();
            let (dn, dm) = calibration_error(&d.spec(), &g, 0.02);
            assert!(dn < 0.05, "{d}: node deviation {dn}");
            assert!(dm < 0.10, "{d}: edge deviation {dm}");
        }
    }

    #[test]
    fn youtube_standin_fractional_density() {
        let g = generate(Dataset::Youtube, 0.005, 3).unwrap();
        let (dn, dm) = calibration_error(&Dataset::Youtube.spec(), &g, 0.005);
        assert!(dn < 0.05, "node deviation {dn}");
        assert!(dm < 0.10, "edge deviation {dm}");
    }

    #[test]
    fn standins_are_connected_and_heavy_tailed() {
        let g = generate(Dataset::HepTh, 0.02, 4).unwrap();
        assert_eq!(connected_components(&g).count(), 1);
        let h = DegreeHistogram::compute(&g);
        let max_degree = h.counts.len() - 1;
        let mean = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(max_degree as f64 > 4.0 * mean, "no heavy tail: max {max_degree} mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(Dataset::Wiki, 0.02, 9).unwrap();
        let b = generate(Dataset::Wiki, 0.02, 9).unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_datasets_differ() {
        let a = generate(Dataset::HepTh, 0.02, 9).unwrap();
        let b = generate(Dataset::HepPh, 0.02, 9).unwrap();
        assert_ne!(a.node_count(), b.node_count());
    }

    #[test]
    fn fractional_attachment_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4_000;
        let mean = 5.45;
        let b = preferential_attachment_fractional(n, mean, &mut rng).unwrap();
        let attached = b.edge_count() as f64 - (6 * 7 / 2) as f64;
        let per_node = attached / (n as f64 - 7.0);
        assert!((per_node - mean).abs() < 0.15, "mean attachment {per_node}");
    }

    #[test]
    fn topology_names_round_trip() {
        for t in Topology::ALL {
            assert_eq!(Topology::parse(t.name()), Some(t));
        }
        assert_eq!(Topology::parse("no_such_family"), None);
    }

    #[test]
    fn topologies_generate_at_requested_scale() {
        for t in Topology::ALL {
            let g = generate_topology(t, 900, 5).unwrap();
            let n = g.node_count();
            assert!((855..=945).contains(&n), "{}: {n} nodes for a 900-node request", t.name());
            assert!(g.edge_count() > 0, "{}: no edges", t.name());
        }
    }

    #[test]
    fn topology_generation_is_deterministic() {
        for t in Topology::ALL {
            let a = generate_topology(t, 400, 9).unwrap();
            let b = generate_topology(t, 400, 9).unwrap();
            let ea: Vec<_> = a.edges().collect();
            let eb: Vec<_> = b.edges().collect();
            assert_eq!(ea, eb, "{}", t.name());
        }
    }

    #[test]
    fn lattices_have_expected_structure() {
        let ring = generate_topology(Topology::Ring, 120, 0).unwrap();
        assert_eq!(ring.node_count(), 120);
        assert_eq!(ring.edge_count(), 120);
        let grid = generate_topology(Topology::Grid, 10_000, 0).unwrap();
        assert_eq!(grid.node_count(), 10_000); // 100 × 100 exactly
        assert_eq!(connected_components(&grid).count(), 1);
    }

    #[test]
    fn topology_rejects_degenerate_sizes() {
        assert!(generate_topology(Topology::Ring, 2, 0).is_err());
    }

    #[test]
    fn rejects_unusable_scales() {
        for scale in [f64::INFINITY, f64::NAN, 0.0, -1.0, 1e300] {
            let err = generate(Dataset::Youtube, scale, 1).unwrap_err();
            assert!(matches!(err, GraphError::InvalidParameter { .. }), "scale {scale}: {err}");
        }
    }

    #[test]
    fn fractional_rejects_bad_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(preferential_attachment_fractional(100, 0.5, &mut rng).is_err());
        assert!(preferential_attachment_fractional(3, 5.0, &mut rng).is_err());
    }

    #[test]
    fn fractional_rejects_attach_count_reaching_n() {
        // n = lo + 1: a node could never find `attach` distinct earlier
        // targets — the generator must reject the parameters up front so
        // the fill loop never has to cope with an unsatisfiable request.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            preferential_attachment_fractional(6, 5.0, &mut rng),
            Err(GraphError::InvalidParameter { .. })
        ));
        // ⌈m⌉ ≥ n: the dedicated diagnostic names the attachment count.
        match preferential_attachment_fractional(4, 5.45, &mut rng) {
            Err(GraphError::InvalidParameter { message }) => {
                assert!(message.contains("attachment count 6"), "message: {message}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn smallest_valid_n_is_simple_and_fully_attached() {
        // n = seed_size + 1 = ⌈m⌉ + 2, the tightest legal instance: the
        // single non-seed node must attach to exactly ⌈m⌉ = ⌊m⌋ distinct
        // targets, with no self-loops — across seeds (and surviving the
        // id shuffle `generate` applies on top, which is where a broken
        // permutation would first manufacture a self-loop).
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let b = preferential_attachment_fractional(7, 5.0, &mut rng).unwrap();
            let g = b.build(WeightScheme::UniformByDegree).unwrap();
            assert_eq!(g.edge_count(), 6 * 5 / 2 + 5, "seed {seed}");
            for (u, v) in g.edges() {
                assert_ne!(u, v, "self-loop at seed {seed}");
            }
        }
    }

    #[test]
    fn non_seed_nodes_are_never_under_attached() {
        // Every node beyond the seed clique contributes ≥ ⌊m⌋ distinct
        // edges of its own; degree ≥ ⌊m⌋ everywhere is the observable
        // form of "the fill loop is exact".
        let mut rng = StdRng::seed_from_u64(11);
        let b = preferential_attachment_fractional(2_000, 5.45, &mut rng).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap();
        for v in g.nodes() {
            assert!(g.degree(v) >= 5, "node {v:?} under-attached: degree {}", g.degree(v));
        }
    }

    #[test]
    fn prefix_sum_fallback_is_exact_deterministic_and_degree_biased() {
        // Hub-dominated degenerate degree sequence — the shape that
        // stalls rejection sampling and trips the guard.
        let degree = [100u32, 1, 1, 1, 1];
        let run = |preseed: Option<u32>| {
            let mut stamp = vec![u32::MAX; 5];
            let mut chosen: Vec<u32> = Vec::new();
            if let Some(u) = preseed {
                stamp[u as usize] = 9;
                chosen.push(u);
            }
            fill_by_degree_prefix_sum(&degree, &mut stamp, 9, 3, &mut chosen);
            chosen
        };
        let picks = run(None);
        assert_eq!(picks.len(), 3, "fallback under-filled");
        let mut distinct = picks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "fallback repeated a target: {picks:?}");
        assert!(picks.contains(&0), "the degree-mass holder was skipped: {picks:?}");
        assert_eq!(picks, run(None), "fallback is not deterministic");
        // Resuming a partially filled pick set stays exact and distinct.
        let resumed = run(Some(0));
        assert_eq!(resumed.len(), 3);
        let mut d = resumed.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 3, "resumed fallback repeated: {resumed:?}");
    }
}
