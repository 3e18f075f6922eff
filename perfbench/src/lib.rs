//! A closed-loop serving benchmark for `raf serve`.
//!
//! One client drives a [`raf_serve::SessionContext`] and waits for each
//! answer before sending the next request, as `raf serve` batch callers
//! do. Both workloads over hub-BFS youtube stand-ins send all three op
//! kinds — queries, campaigns, and remove/re-add edge deltas of 1, 4 and
//! 16 edges between them — and differ in where the reads' work lands:
//!
//! * `warm_youtube_220k` — every pool is warmed in set-up and every lookup
//!   hits, also after a delta repairs it, so the reads are all cover
//!   layer: `solve_msc` for single-target re-queries over an `α` grid,
//!   `allocate_budget` for campaigns over a budget grid;
//! * `cold_youtube_220k` — every read is a distinct screened pair or
//!   campaign on a fresh session, so every lookup misses and sampling
//!   dominates.
//!
//! The graph and screened pairs are fixed per workload; pool seeds, op
//! order, grid draws and the delta schedule derive from the run seed.
//! An untraced run reports end-to-end latencies, throughput, set-up time
//! and peak memory. A traced run replays each op's stages through the
//! layers' public functions on the same inputs and reports per-layer
//! costs and counts; see `README.md` for the layer map.

mod replay;
pub mod stats;
mod trace;
mod workload;

use raf_graph::{CsrGraph, Relabeling, SocialGraph, WeightScheme};
use raf_serve::{CacheStats, CampaignQuery, ServeConfig, SessionContext};
use replay::Mirror;
use stats::{median, peak_rss_mb, tail, Fnv, Stamp, Tail, TAIL_BEYOND};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trace::Trace;
use workload::{Op, Shape, Stream, World, BUDGETS};

/// Sampler threads of every session.
const SAMPLER_THREADS: usize = 2;
/// Slack `ε` of the parameter system, as `raf serve` defaults it.
const EPSILON: f64 = 0.01;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Re-solves, campaigns and deltas on warmed pools of a 220k-node
    /// graph.
    Warm,
    /// Distinct pairs and campaigns, and deltas, on a fresh 220k-node
    /// session per cycle.
    Cold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Warm, Workload::Cold];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Warm => "warm_youtube_220k",
            Workload::Cold => "cold_youtube_220k",
        }
    }

    /// Parses [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self, scale: Scale) -> Shape {
        match (self, scale) {
            (Workload::Warm, Scale::Full) => {
                Shape { nodes: 220_000, walks: 100_000, campaigns: 3, pairs: 0, setups: 5 }
            }
            (Workload::Cold, Scale::Full) => {
                Shape { nodes: 220_000, walks: 100_000, campaigns: 20, pairs: 40, setups: 7 }
            }
            (Workload::Warm, Scale::Toy) => {
                Shape { nodes: 400, walks: 4_000, campaigns: 2, pairs: 0, setups: 2 }
            }
            (Workload::Cold, Scale::Toy) => {
                Shape { nodes: 400, walks: 4_000, campaigns: 4, pairs: 8, setups: 2 }
            }
        }
    }

    /// Whether every lookup of the timed stream should hit.
    fn expects_hits(self) -> bool {
        self == Workload::Warm
    }
}

/// Graph and pool sizes: the measured sizes, or a few hundred nodes for
/// smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload names.
    Full,
    /// 400-node stand-ins with 4k-walk pools.
    Toy,
}

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Replay every op through the layers and report per-layer metrics
    /// instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A metric's name and unit. Every workload reports every metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// The name.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// Metrics of an untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    spec("query_p50_ms", "ms"),
    spec("query_tail_ms", "ms"),
    spec("campaign_p50_ms", "ms"),
    spec("campaign_tail_ms", "ms"),
    spec("delta_p50_ms", "ms"),
    spec("ops_per_s", "1/s"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("datasets.load_ms", "ms"),
    spec("datasets.screen_ms", "ms"),
    spec("graph.relabel_ms", "ms"),
    spec("graph.csr_build_ms", "ms"),
    spec("graph.delta_apply_ms", "ms"),
    spec("model.sample_ms", "ms"),
    spec("model.walks", "count/pool"),
    spec("model.walks_per_s", "1/s"),
    spec("model.type1_ratio", "ratio"),
    spec("model.unique_paths", "count"),
    spec("model.dedup_factor", "ratio"),
    spec("model.walk_index_ms", "ms"),
    spec("model.repair_ms", "ms"),
    spec("model.resampled_walks", "count/delta"),
    spec("cover.build_ms", "ms"),
    spec("cover.solve_ms", "ms"),
    spec("cover.pool_elements", "count"),
    spec("cover.universe_ratio", "ratio"),
    spec("cover.allocate_ms", "ms"),
    spec("core.params_us", "us"),
    spec("core.walks_over_lstar", "ratio"),
    spec("serve.hit_ratio", "ratio"),
    spec("serve.misses", "count/op"),
    spec("serve.evictions", "count/op"),
    spec("serve.resident_mb", "MiB"),
    spec("serve.repaired", "count/delta"),
    spec("serve.untouched", "count/delta"),
    spec("serve.flushed", "count/delta"),
    spec("serve.self_ms", "ms"),
    spec("trace.overhead_pct", "%"),
];

/// One reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name and unit.
    pub spec: MetricSpec,
    /// The value as measured.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// What produced it.
    pub stamp: Stamp,
    /// The workload run.
    pub workload: Workload,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that errored or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// FNV-1a over the answers of the first stream cycle.
    pub answers_digest: u64,
    /// Ops the digest covers.
    pub digest_ops: usize,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Percentile and sample count behind each `*_tail_ms`.
    pub tails: Vec<(&'static str, Tail)>,
}

impl Report {
    /// Whether every op answered and passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The lines a run prints to stdout; the last one is the result
    /// object.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("workload {}", self.workload.name()),
            format!("stamp {}", self.stamp.to_json()),
            format!("answers_digest {:016x} over {} ops", self.answers_digest, self.digest_ops),
        ];
        for (name, t) in &self.tails {
            lines.push(format!("tail {name} p{:.2} over {} samples", t.percentile, t.samples));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.spec.name, m.value, m.spec.unit
                )
            })
            .collect();
        lines.push(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        lines
    }
}

/// A serving session plus everything the loop needs beside it.
struct Session<'g> {
    config: ServeConfig,
    csr: &'g CsrGraph,
    relabeling: Arc<Relabeling>,
    ctx: SessionContext<'g>,
    graph: SocialGraph,
    mirror: Option<Mirror>,
    /// Cache counters of sessions already rotated out.
    closed: CacheStats,
    /// Summed repair outcomes of the timed deltas: repaired, untouched,
    /// flushed, and the number of deltas.
    repairs: [u64; 4],
}

impl<'g> Session<'g> {
    fn open(
        config: &ServeConfig,
        csr: &'g CsrGraph,
        relabeling: Arc<Relabeling>,
        graph: SocialGraph,
        traced: bool,
    ) -> Session<'g> {
        let mirror = traced.then(|| Mirror::new(Arc::clone(&relabeling), config, graph.clone()));
        Session {
            config: config.clone(),
            csr,
            ctx: SessionContext::with_relabeling(csr, Arc::clone(&relabeling), config.clone()),
            relabeling,
            graph,
            mirror,
            closed: CacheStats::default(),
            repairs: [0; 4],
        }
    }

    /// Swaps in a fresh session, so the next cycle's lookups miss again.
    fn rotate(&mut self) {
        self.closed = add_stats(self.closed, self.ctx.stats());
        self.ctx = SessionContext::with_relabeling(
            self.csr,
            Arc::clone(&self.relabeling),
            self.config.clone(),
        );
        if let Some(mirror) = &mut self.mirror {
            mirror.clear();
        }
    }

    /// Cache counters over every session this one has been.
    fn stats(&self) -> CacheStats {
        add_stats(self.closed, self.ctx.stats())
    }

    /// Warms every campaign pool, as set-up does on warm.
    fn warm(&mut self, campaigns: &[workload::Campaign], trace: &mut Trace) -> Result<(), String> {
        for c in campaigns {
            let op = Op::Campaign(CampaignQuery {
                s: c.s,
                targets: c.targets.clone(),
                alpha: 0.2,
                budget: BUDGETS[1],
            });
            self.step(&op, false, false, trace, None).1.map_err(|e| format!("warming: {e}"))?;
        }
        Ok(())
    }

    /// Sends one op, checks the answer, hashes it into `digest`, and
    /// replays it when the mirror is attached. Returns the op's latency
    /// in ms.
    fn step(
        &mut self,
        op: &Op,
        expect_hit: bool,
        timed: bool,
        trace: &mut Trace,
        digest: Option<&mut Fnv>,
    ) -> (f64, Result<(), String>) {
        // Only replayed ops count toward self time.
        let span = trace.begin(timed && self.mirror.is_some());
        let resident = self.ctx.cached_pools();
        let mut words: Vec<u64> = Vec::new();
        let start = Instant::now();
        let (ms, result) = match op {
            Op::Query(query) => {
                let answer = self.ctx.query(query);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                trace.end(span);
                let result = answer.map_err(|e| e.to_string()).and_then(|answer| {
                    check(answer.cache_hit == expect_hit, || {
                        format!("query hit={} (want {expect_hit})", answer.cache_hit)
                    })?;
                    check(!answer.degraded, || "query degraded".into())?;
                    check(answer.covered >= answer.cover_p, || {
                        format!("query covered {} < cover_p {}", answer.covered, answer.cover_p)
                    })?;
                    words.push(1);
                    words.extend(answer.invitations.iter().map(|v| v.index() as u64));
                    words.extend([answer.covered as u64, answer.cover_p as u64, answer.walks]);
                    match &mut self.mirror {
                        Some(mirror) => mirror.query(trace, span, self.csr, query, &answer),
                        None => Ok(()),
                    }
                });
                (ms, result)
            }
            Op::Campaign(query) => {
                let answer = self.ctx.campaign(query);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                trace.end(span);
                let result = answer.map_err(|e| e.to_string()).and_then(|answer| {
                    let want = if expect_hit { query.targets.len() } else { 0 };
                    check(answer.hits == want, || {
                        format!("campaign hits={} (want {want})", answer.hits)
                    })?;
                    check(answer.invitations.len() <= query.budget, || {
                        format!(
                            "campaign invited {} over budget {}",
                            answer.invitations.len(),
                            query.budget
                        )
                    })?;
                    let best =
                        answer.arm_objectives.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    check(answer.objective == best, || {
                        format!(
                            "campaign objective {} is not the best arm's {best}",
                            answer.objective
                        )
                    })?;
                    words.push(2);
                    words.extend(answer.invitations.iter().map(|v| v.index() as u64));
                    words.push(answer.objective.to_bits());
                    words.extend(answer.targets.iter().map(|t| t.covered as u64));
                    match &mut self.mirror {
                        Some(mirror) => mirror.campaign(trace, span, self.csr, query, &answer),
                        None => Ok(()),
                    }
                });
                (ms, result)
            }
            Op::Delta(delta) => {
                let outcome =
                    self.ctx.apply_delta(delta, &mut self.graph, WeightScheme::UniformByDegree);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                trace.end(span);
                let result = outcome.map_err(|e| e.to_string()).and_then(|out| {
                    check(
                        !out.noop && out.flushed == 0 && out.repaired + out.untouched == resident,
                        || format!("delta over {resident} pools: {out:?}"),
                    )?;
                    if timed {
                        self.repairs[0] += out.repaired as u64;
                        self.repairs[1] += out.untouched as u64;
                        self.repairs[2] += out.flushed as u64;
                        self.repairs[3] += 1;
                    }
                    words.push(3);
                    words.extend(
                        [out.added, out.removed, out.touched_nodes, out.repaired, out.untouched]
                            .map(|x| x as u64),
                    );
                    words.push(out.resampled_walks);
                    match &mut self.mirror {
                        Some(mirror) => mirror.delta(trace, span, delta, &out),
                        None => Ok(()),
                    }
                });
                (ms, result)
            }
        };
        if let Some(digest) = digest {
            for w in words {
                digest.word(w);
            }
            // A failed op still moves the digest.
            digest.word(u64::from(result.is_err()));
        }
        (ms, result)
    }
}

fn check(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

fn add_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        rejected: a.rejected + b.rejected,
        integrity_evictions: a.integrity_evictions + b.integrity_evictions,
    }
}

/// Runs one workload: set up `setups` times (the last set-up serves),
/// then drive the closed loop for `seconds`, always finishing at least
/// one full stream cycle so the answer digest covers the same ops on
/// every run of a seed.
///
/// A traced run spends the first half of `seconds` replaying every op
/// and the second half untraced; the throughput ratio of the halves is
/// the trace overhead.
///
/// # Errors
///
/// A set-up that cannot produce the workload's inputs (empty screening,
/// a failed warm-up, set-ups that disagree), or a run that ends with too
/// few samples for a metric.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    let workload = config.workload;
    let shape = workload.shape(config.scale);
    let serve = ServeConfig {
        walks: shape.walks,
        epsilon: EPSILON,
        seed: config.seed,
        threads: SAMPLER_THREADS,
        ..ServeConfig::default()
    };
    let mut trace = Trace::new(config.trace);
    let mut setup_s: Vec<f64> = Vec::with_capacity(shape.setups);
    let mut inputs: Option<u64> = None;
    let mut set_up = |trace: &mut Trace| -> Result<(Instant, usize, World, Stream), String> {
        let start = Instant::now();
        let op = trace.begin(false);
        let mut world = World::build(&shape, trace, op)?;
        let digest = world.inputs_digest();
        if inputs.replace(digest).is_some_and(|previous| previous != digest) {
            return Err("repeated set-ups built different inputs".into());
        }
        let stream = Stream::new(workload, &mut world, shape.walks, config.seed);
        Ok((start, op, world, stream))
    };

    // Every set-up but the last is timed and dropped.
    for _ in 1..shape.setups {
        let (start, op, world, _stream) = set_up(&mut trace)?;
        let World { graph, relabeling, csr, campaigns, .. } = world;
        let mut session = Session::open(&serve, &csr, relabeling, graph, false);
        if workload.expects_hits() {
            session.warm(&campaigns, &mut trace)?;
        }
        trace.end(op);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (start, op, world, mut stream) = set_up(&mut trace)?;
    let World { graph, relabeling, csr, campaigns, .. } = world;
    let mut session = Session::open(&serve, &csr, relabeling, graph, config.trace);
    if workload.expects_hits() {
        session.warm(&campaigns, &mut trace)?;
    }
    trace.end(op);
    setup_s.push(start.elapsed().as_secs_f64());

    // The timed loop: untraced, or traced then untraced.
    let phases: &[(bool, f64)] = if config.trace {
        &[(true, config.seconds / 2.0), (false, config.seconds / 2.0)]
    } else {
        &[(false, config.seconds)]
    };
    let before = session.stats();
    let mut latencies: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed, mut failures) = (0u64, 0u64, Vec::new());
    let mut digest = Fnv::default();
    let mut rates: Vec<f64> = Vec::new();
    // Serving counters and ops sent at the end of the traced phase.
    let mut traced_counters: Option<(CacheStats, [u64; 4], u64)> = None;
    let mut cycle = stream.next_cycle();
    let mut next = 0usize;
    let digest_ops = cycle.len();
    // Op kinds with a tail metric. Deltas are too few per run for one.
    let tailed = ["query", "campaign"];
    for (phase, &(traced, seconds)) in phases.iter().enumerate() {
        let last = phase + 1 == phases.len();
        if !traced {
            session.mirror = None;
        }
        let start = Instant::now();
        let mut ops = 0u64;
        // Every phase runs at least a cycle, so it sends every op kind;
        // the last also runs until every tailed op kind has a tail.
        let short = |latencies: &BTreeMap<&str, Vec<f64>>, ops: u64| {
            ops < digest_ops as u64
                || (last
                    && tailed.iter().any(|k| latencies.get(k).map_or(0, Vec::len) <= TAIL_BEYOND))
        };
        while start.elapsed().as_secs_f64() < seconds || short(&latencies, ops) {
            if next == cycle.len() {
                cycle = stream.next_cycle();
                next = 0;
                if workload == Workload::Cold {
                    session.rotate();
                }
            }
            let op = &cycle[next];
            let hash = (attempted < digest_ops as u64).then_some(&mut digest);
            let (ms, result) = session.step(op, workload.expects_hits(), true, &mut trace, hash);
            next += 1;
            attempted += 1;
            ops += 1;
            match result {
                Ok(()) => latencies.entry(op.kind()).or_default().push(ms),
                Err(e) => {
                    failed += 1;
                    if failures.len() < 8 {
                        failures.push(format!("{} #{attempted}: {e}", op.kind()));
                    }
                }
            }
        }
        rates.push(ops as f64 / start.elapsed().as_secs_f64());
        if traced {
            traced_counters = Some((session.stats(), session.repairs, ops));
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut tails: Vec<(&'static str, Tail)> = Vec::new();
    let mut push = |name: &'static str, value: f64| {
        let spec = *END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        metrics.push(Metric { spec, value });
    };
    if config.trace {
        let ms = |name: &str| trace.span_median_ms(name);
        for (metric, span) in [
            ("datasets.load_ms", "datasets.load"),
            ("datasets.screen_ms", "datasets.screen"),
            ("graph.relabel_ms", "graph.relabel"),
            ("graph.csr_build_ms", "graph.csr_build"),
            ("graph.delta_apply_ms", "graph.delta_apply"),
            ("model.sample_ms", "model.sample"),
            ("cover.build_ms", "cover.build"),
            ("cover.solve_ms", "cover.solve"),
            ("cover.allocate_ms", "cover.allocate"),
        ] {
            if let Some(value) = ms(span) {
                push(metric, value);
            }
        }
        if let Some(value) = ms("core.params") {
            push("core.params_us", value * 1e3);
        }
        let walks = trace.counter("model.walks");
        if walks > 0 {
            let (type1, unique) = (trace.counter("model.type1"), trace.counter("model.unique"));
            let pools = trace.span_count("model.sample");
            push("model.walks", walks as f64 / pools as f64);
            push("model.walks_per_s", walks as f64 / trace.span_total_s("model.sample"));
            push("model.type1_ratio", type1 as f64 / walks as f64);
            if let Some(value) = trace.value_median("model.unique_paths") {
                push("model.unique_paths", value);
            }
            push("model.dedup_factor", type1 as f64 / unique.max(1) as f64);
        }
        for (metric, span) in
            [("model.walk_index_ms", "model.walk_index"), ("model.repair_ms", "model.repair")]
        {
            if let Some(value) = trace.per_op_median_ms(span) {
                push(metric, value);
            }
        }
        let deltas = trace.span_count("graph.delta_apply");
        if deltas > 0 {
            push(
                "model.resampled_walks",
                trace.counter("model.resampled_walks") as f64 / deltas as f64,
            );
        }
        for name in ["cover.pool_elements", "cover.universe_ratio", "core.walks_over_lstar"] {
            if let Some(value) = trace.value_median(name) {
                push(name, value);
            }
        }
        let (stats, repairs, ops) = traced_counters.expect("a traced run has a traced phase");
        let (hits, misses) = (stats.hits - before.hits, stats.misses - before.misses);
        push("serve.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        push("serve.misses", misses as f64 / ops as f64);
        push("serve.evictions", (stats.evictions - before.evictions) as f64 / ops as f64);
        push("serve.resident_mb", session.ctx.resident_bytes() as f64 / (1u64 << 20) as f64);
        let deltas = repairs[3].max(1) as f64;
        push("serve.repaired", repairs[0] as f64 / deltas);
        push("serve.untouched", repairs[1] as f64 / deltas);
        push("serve.flushed", repairs[2] as f64 / deltas);
        if let Some(value) = trace.mean_self_ms() {
            push("serve.self_ms", value);
        }
        push("trace.overhead_pct", 100.0 * (rates[1] / rates[0] - 1.0));
    } else {
        for kind in tailed {
            let samples = latencies.get(kind).map(Vec::as_slice).unwrap_or_default();
            let (Some(p50), Some(t)) = (median(samples), tail(samples)) else {
                return Err(format!("{} {kind} samples are too few for a tail", samples.len()));
            };
            let (p50_name, tail_name) = match kind {
                "query" => ("query_p50_ms", "query_tail_ms"),
                _ => ("campaign_p50_ms", "campaign_tail_ms"),
            };
            push(p50_name, p50);
            push(tail_name, t.value);
            tails.push((tail_name, t));
        }
        let deltas = latencies.get("delta").map(Vec::as_slice).unwrap_or_default();
        push("delta_p50_ms", median(deltas).ok_or("the run applied no delta")?);
        push("ops_per_s", rates[0]);
        push("setup_s", median(&setup_s).expect("at least one set-up ran"));
        push("peak_rss_mb", peak_rss_mb().ok_or("peak RSS is unavailable")?);
    }
    let declared = if config.trace { PER_LAYER } else { END_TO_END };
    for spec in declared {
        if !metrics.iter().any(|m| m.spec.name == spec.name) {
            return Err(format!("the run measured no {}", spec.name));
        }
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite", bad.spec.name));
    }
    Ok(Report {
        stamp: Stamp::collect(config.seed, SAMPLER_THREADS),
        workload,
        attempted,
        failed,
        failures,
        answers_digest: digest.finish(),
        digest_ops,
        metrics,
        tails,
    })
}
