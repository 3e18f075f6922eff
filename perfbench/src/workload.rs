//! Workload inputs: the graph, the screened pairs and campaigns, and the
//! op stream.
//!
//! The graph and the screened pairs are fixed per workload. The run seed
//! drives everything else: pool seeds, op order, the `α` and budget each
//! op carries, and the churn schedule. Seeding the graph and the pairs
//! too moved warm re-solve latency by ±20% from seed to seed —
//! reproducibly, so the spread is input, not noise — which is wider than
//! any bound a regression gate could hold.

use crate::trace::Trace;
use crate::Workload;
use raf_datasets::{sample_campaigns, sample_pairs, synthetic, Dataset, PairSamplerConfig};
use raf_graph::{CsrGraph, EdgeDelta, NodeId, Relabeling, SocialGraph};
use raf_serve::{CampaignQuery, Query};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Targets per campaign.
pub const TARGETS: usize = 3;
/// The `α` grid single-target queries sweep.
pub const ALPHAS: [f64; 3] = [0.1, 0.2, 0.3];
/// The shared-budget grid campaigns sweep.
pub const BUDGETS: [usize; 3] = [4, 8, 16];
/// Edges per churn delta.
pub const CHURN_SIZES: [usize; 3] = [1, 4, 16];
/// Screened pairs are friends of friends. Farther pairs mostly fail the
/// `p_max ≥ 0.01` screen, and screening them costs a whole-ball BFS per
/// attempt: about a second per campaign on a 1M-node graph at four hops.
const MAX_DISTANCE: u32 = 2;

/// How big one workload is at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Nodes of the youtube stand-in.
    pub nodes: usize,
    /// Walks per pool (the session's walk ceiling).
    pub walks: u64,
    /// Screened `TARGETS`-target campaigns.
    pub campaigns: usize,
    /// Screened single pairs beyond the campaigns' own.
    pub pairs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Seed of the graph and the screening.
const INPUTS_SEED: u64 = 2019;

/// SplitMix64 finalizer: derives independent streams from one seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A screened campaign in original ids, targets ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// The source.
    pub s: NodeId,
    /// The targets.
    pub targets: Vec<NodeId>,
}

/// Everything set-up builds before the session opens.
#[derive(Debug)]
pub struct World {
    /// The edge-list graph (original ids); churn advances it.
    pub graph: SocialGraph,
    /// The hub-BFS layout the session serves from.
    pub relabeling: Arc<Relabeling>,
    /// The resident snapshot.
    pub csr: CsrGraph,
    /// Screened campaigns.
    pub campaigns: Vec<Campaign>,
    /// Screened single pairs, disjoint from the campaigns' pairs.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Edges a churn delta may touch: none is incident to a campaign or
    /// pair endpoint, so deltas repair pools instead of flushing them.
    pub churnable: Vec<(usize, usize)>,
}

impl World {
    /// Loads the stand-in, lays it out and screens the workload's inputs,
    /// recording each stage as a span under set-up op `op`.
    pub fn build(shape: &Shape, trace: &mut Trace, op: usize) -> Result<World, String> {
        let seed = INPUTS_SEED;
        let scale = shape.nodes as f64 / Dataset::Youtube.spec().nodes as f64;
        let graph = trace
            .span(op, "datasets.load", || synthetic::generate(Dataset::Youtube, scale, seed))
            .map_err(|e| format!("generating the youtube stand-in: {e}"))?;
        let relabeling = Arc::new(trace.span(op, "graph.relabel", || Relabeling::hub_bfs(&graph)));
        let csr = trace.span(op, "graph.csr_build", || graph.to_csr_relabeled(&relabeling));
        let screen = |pairs: usize, stream: u64| PairSamplerConfig {
            pairs,
            max_distance: MAX_DISTANCE,
            seed: splitmix64(seed ^ stream),
            ..Default::default()
        };
        let (screened_campaigns, screened_pairs) = trace.span(op, "datasets.screen", || {
            let campaigns = sample_campaigns(&csr, &screen(shape.campaigns, 1), TARGETS);
            // Over-draw a little, so pairs that repeat a campaign pair can
            // be dropped.
            let pairs = match shape.pairs {
                0 => Vec::new(),
                wanted => sample_pairs(&csr, &screen(wanted + wanted / 8 + 2, 2)),
            };
            (campaigns, pairs)
        });
        if screened_campaigns.len() < shape.campaigns {
            return Err(format!(
                "screening found {} of {} campaigns",
                screened_campaigns.len(),
                shape.campaigns
            ));
        }
        let original = |v: u32| relabeling.original_of(NodeId::new(v as usize));
        let campaigns: Vec<Campaign> = screened_campaigns
            .iter()
            .map(|c| {
                let mut targets: Vec<NodeId> = c.targets.iter().map(|&t| original(t)).collect();
                targets.sort();
                Campaign { s: original(c.s), targets }
            })
            .collect();
        let taken: HashSet<(NodeId, NodeId)> =
            campaigns.iter().flat_map(|c| c.targets.iter().map(|&t| (c.s, t))).collect();
        let pairs: Vec<(NodeId, NodeId)> = screened_pairs
            .iter()
            .map(|p| (original(p.s), original(p.t)))
            .filter(|pair| !taken.contains(pair))
            .take(shape.pairs)
            .collect();
        if pairs.len() < shape.pairs {
            return Err(format!("screening found {} of {} pairs", pairs.len(), shape.pairs));
        }
        let endpoints: HashSet<usize> = campaigns
            .iter()
            .flat_map(|c| std::iter::once(c.s).chain(c.targets.iter().copied()))
            .chain(pairs.iter().flat_map(|&(s, t)| [s, t]))
            .map(NodeId::index)
            .collect();
        let churnable: Vec<(usize, usize)> = graph
            .edges()
            .map(|(u, v)| (u.index(), v.index()))
            .filter(|(u, v)| !endpoints.contains(u) && !endpoints.contains(v))
            .collect();
        let largest = CHURN_SIZES[CHURN_SIZES.len() - 1];
        if churnable.len() < largest {
            return Err(format!(
                "only {} churnable edges for {largest}-edge deltas",
                churnable.len()
            ));
        }
        Ok(World { graph, relabeling, csr, campaigns, pairs, churnable })
    }

    /// Every `(s, t)` pair the campaigns cover.
    pub fn campaign_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.campaigns.iter().flat_map(|c| c.targets.iter().map(move |&t| (c.s, t))).collect()
    }

    /// A digest of the inputs, to check that repeated set-ups agree.
    pub fn inputs_digest(&self) -> u64 {
        let mut fnv = crate::stats::Fnv::default();
        fnv.word(self.csr.node_count() as u64);
        fnv.word(self.csr.edge_count() as u64);
        for c in &self.campaigns {
            fnv.word(c.s.index() as u64);
            for t in &c.targets {
                fnv.word(t.index() as u64);
            }
        }
        for (s, t) in &self.pairs {
            fnv.word(s.index() as u64);
            fnv.word(t.index() as u64);
        }
        fnv.word(self.churnable.len() as u64);
        fnv.finish()
    }
}

/// One request of the closed loop.
#[derive(Debug, Clone)]
pub enum Op {
    /// A single-target query.
    Query(Query),
    /// A multi-target campaign.
    Campaign(CampaignQuery),
    /// An edge delta.
    Delta(EdgeDelta),
}

impl Op {
    /// The op's kind, as latencies and spans name it.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Query(_) => "query",
            Op::Campaign(_) => "campaign",
            Op::Delta(_) => "delta",
        }
    }
}

/// The seeded op stream, handed out one cycle at a time. Every cycle
/// sends the workload's fixed read set in a fresh order, with edge deltas
/// on fresh edges between the reads.
#[derive(Debug)]
pub struct Stream {
    rng: StdRng,
    /// The reads of one cycle.
    reads: Vec<Op>,
    churnable: Vec<(usize, usize)>,
}

impl Stream {
    /// The stream for `world`; takes the world's churnable edges.
    pub fn new(workload: Workload, world: &mut World, walks: u64, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 3));
        let query =
            |(s, t): (NodeId, NodeId), alpha: f64| Op::Query(Query { s, t, alpha, budget: walks });
        let campaign = |c: &Campaign, budget: usize| {
            Op::Campaign(CampaignQuery { s: c.s, targets: c.targets.clone(), alpha: 0.2, budget })
        };
        let reads = match workload {
            // Every warmed pair at every α, and every campaign at every
            // budget three times over: campaigns are ~40× cheaper than
            // re-solves, so this evens out their sample counts. Every
            // cycle reads the same set, so each (pair, α) and (campaign,
            // budget) is read as often on every seed: a random draw let
            // the share of the costliest campaign, and with it the tail,
            // move from seed to seed.
            Workload::Warm => {
                let mut ops: Vec<Op> = Vec::new();
                for pair in world.campaign_pairs() {
                    ops.extend(ALPHAS.iter().map(|&a| query(pair, a)));
                }
                for c in &world.campaigns {
                    for _ in 0..3 {
                        ops.extend(BUDGETS.iter().map(|&b| campaign(c, b)));
                    }
                }
                ops
            }
            // Every screened pair and campaign once, at a seeded α or
            // budget: a cycle never repeats a pool key, and each cycle
            // runs on a fresh session.
            Workload::Cold => {
                let mut ops: Vec<Op> = Vec::new();
                for &pair in &world.pairs {
                    ops.push(query(pair, ALPHAS[rng.gen_range(0..ALPHAS.len())]));
                }
                for c in &world.campaigns {
                    ops.push(campaign(c, BUDGETS[rng.gen_range(0..BUDGETS.len())]));
                }
                ops
            }
        };
        let churnable = std::mem::take(&mut world.churnable);
        Stream { rng, reads, churnable }
    }

    /// The next cycle of ops.
    pub fn next_cycle(&mut self) -> Vec<Op> {
        // Per churn size: remove a fresh edge batch, read, restore it,
        // read. The restore returns the graph to its set-up state, so
        // every cycle churns the same stationary workload, and a fresh
        // session opened between cycles serves the set-up snapshot.
        let mut reads = self.reads.clone();
        reads.shuffle(&mut self.rng);
        let mut reads = reads.into_iter();
        let per_delta = self.reads.len().div_ceil(2 * CHURN_SIZES.len());
        let mut ops = Vec::new();
        for &size in &CHURN_SIZES {
            let mut picked: BTreeSet<usize> = BTreeSet::new();
            while picked.len() < size {
                picked.insert(self.rng.gen_range(0..self.churnable.len()));
            }
            let mut removal = EdgeDelta::new();
            let mut restore = EdgeDelta::new();
            for &i in &picked {
                let (u, v) = self.churnable[i];
                removal.remove(u, v).expect("churnable edges are in range");
                restore.add(u, v).expect("churnable edges are in range");
            }
            for delta in [removal, restore] {
                ops.push(Op::Delta(delta));
                ops.extend(reads.by_ref().take(per_delta));
            }
        }
        ops
    }
}
