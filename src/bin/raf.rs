//! `raf` — run the active-friending toolkit on your own SNAP edge list.
//!
//! ```text
//! raf stats --graph network.txt
//! raf pmax  --graph network.txt --s 3 --t 99 [--samples 50000] [--seed 1]
//! raf vmax  --graph network.txt --s 3 --t 99
//! raf run   --graph network.txt --s 3 --t 99 --alpha 0.3
//!           [--epsilon 0.01] [--budget 50000] [--seed 1] [--threads 1]
//! raf max   --graph network.txt --s 3 --t 99 --k 10
//!           [--realizations 50000] [--seed 1] [--threads 1]
//! raf serve --graph network.txt [--requests batch.txt] [--walks 100000]
//!           [--seed 1] [--threads 1] [--cache-mb 256]
//!           [--work-budget N] [--deadline-ms N] [--max-query-walks N]
//!           [--max-inflight-walks N] [--retries N] [--fault-plan SPEC]
//! raf bench-json [--out BENCH_sampling.json] [--scenario NAME]
//!           [--list-scenarios] [--quick] [--check-regression]
//!           [--topology powerlaw_cluster] [--nodes N] [--walks N]
//!           [--seed 7] [--threads N] [--reps N]
//! raf experiment [--dataset all] [--quick] [--targets K]
//!           [--budgets 4,8,16] [--pairs N] [--out-csv FILE]
//! ```
//!
//! The graph file is a SNAP-style edge list (whitespace-separated ids,
//! `#` comments); weights follow the paper's `w(u,v) = 1/|N_v|`.
//! `--threads` defaults to the `RAF_THREADS` environment variable. A
//! flag the subcommand does not read is an error.

use active_friending::cli::{wants_help, CliArgs, CommandSpec};
use active_friending::prelude::*;
use raf_core::{MaxFriending, MaxFriendingConfig};
use raf_graph::io::{read_edge_list_path, EdgeListOptions};
use rand::SeedableRng;
use std::path::Path;
use std::process::ExitCode;

/// Every subcommand and the flags it reads; [`CliArgs::parse`] rejects
/// any other flag before a graph loads.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec { name: "stats", flags: &["graph"], switches: &[] },
    CommandSpec { name: "pmax", flags: &["graph", "s", "t", "samples", "seed"], switches: &[] },
    CommandSpec { name: "vmax", flags: &["graph", "s", "t"], switches: &[] },
    CommandSpec {
        name: "run",
        flags: &["graph", "s", "t", "alpha", "epsilon", "budget", "seed", "threads"],
        switches: &[],
    },
    CommandSpec {
        name: "max",
        flags: &["graph", "s", "t", "k", "realizations", "seed", "threads"],
        switches: &[],
    },
    CommandSpec {
        name: "serve",
        flags: &[
            "graph",
            "requests",
            "walks",
            "seed",
            "threads",
            "cache-mb",
            "epsilon",
            "work-budget",
            "deadline-ms",
            "max-query-walks",
            "max-inflight-walks",
            "retries",
            "fault-plan",
        ],
        switches: &[],
    },
    CommandSpec {
        name: "bench-json",
        flags: &[
            "out", "scenario", "topology", "nodes", "walks", "seed", "threads", "reps", "beta",
        ],
        switches: &["list-scenarios", "quick", "check-regression"],
    },
    CommandSpec {
        name: "experiment",
        flags: &[
            "dataset",
            "alphas",
            "budgets",
            "pairs",
            "scale",
            "eval-samples",
            "seed",
            "threads",
            "data-dir",
            "out-csv",
            "out-json",
            "targets",
        ],
        switches: &["quick"],
    },
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--help` anywhere is a help request: it is in no subcommand's
    // spec, so letting it reach the parser would reject it.
    if wants_help(&raw) {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match CliArgs::parse(raw, COMMANDS) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    match args.command.as_str() {
        "stats" => cmd_stats(args),
        "pmax" => cmd_pmax(args),
        "vmax" => cmd_vmax(args),
        "run" => cmd_run(args),
        "max" => cmd_max(args),
        "bench-json" => cmd_bench_json(args),
        "experiment" => cmd_experiment(args),
        "serve" => cmd_serve(args),
        other => unreachable!("CliArgs::parse admits only COMMANDS, not {other:?}"),
    }
}

fn load_graph(args: &CliArgs) -> Result<CsrGraph, Box<dyn std::error::Error>> {
    let path = args.require("graph")?;
    let builder = read_edge_list_path(Path::new(path), &EdgeListOptions::default())?;
    let graph = builder.build(WeightScheme::UniformByDegree)?;
    Ok(graph.to_csr())
}

fn load_instance<'g>(
    args: &CliArgs,
    csr: &'g CsrGraph,
) -> Result<FriendingInstance<'g>, Box<dyn std::error::Error>> {
    let s: usize = args.require_typed("s")?;
    let t: usize = args.require_typed("t")?;
    Ok(FriendingInstance::new(csr, NodeId::new(s), NodeId::new(t))?)
}

fn cmd_stats(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.require("graph")?;
    let builder = read_edge_list_path(Path::new(path), &EdgeListOptions::default())?;
    let graph = builder.build(WeightScheme::UniformByDegree)?;
    println!("{}", GraphMetrics::compute(&graph));
    Ok(())
}

fn cmd_pmax(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let samples: u64 = args.get_or("samples", 50_000)?;
    if samples == 0 {
        return Err("--samples must be positive".into());
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let est = estimate_pmax_fixed(&instance, samples, &mut rng);
    println!("pmax ≈ {:.6}  (type-1: {} / {})", est.pmax, est.type1, est.samples);
    Ok(())
}

fn cmd_vmax(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let vm = vmax_exact(&instance);
    println!("|V_max| = {}", vm.len());
    let ids: Vec<String> = vm.iter().map(|v| v.index().to_string()).collect();
    println!("{}", ids.join(" "));
    Ok(())
}

fn cmd_run(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let alpha: f64 = args.require_typed("alpha")?;
    let config = RafConfig {
        alpha,
        epsilon: args.get_or("epsilon", 0.01)?,
        budget: RealizationBudget::Capped(args.get_or("budget", 50_000)?),
        seed: args.get_or("seed", 1)?,
        threads: args.get_or("threads", threads_from_env())?,
        ..Default::default()
    };
    let result = RafAlgorithm::new(config).run(&instance)?;
    println!(
        "|I*| = {}  (pool |B1| = {}, p = {}, beta = {:.4}, pmax* = {:.4})",
        result.invitation_size(),
        result.type1_count,
        result.cover_p,
        result.parameters.beta,
        result.pmax_estimate,
    );
    let ids: Vec<String> = result.invitations.iter().map(|v| v.index().to_string()).collect();
    println!("{}", ids.join(" "));
    Ok(())
}

fn cmd_max(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    let config = MaxFriendingConfig {
        budget: args.require_typed("k")?,
        realizations: args.get_or("realizations", 50_000)?,
        seed: args.get_or("seed", 1)?,
        threads: args.get_or("threads", threads_from_env())?,
    };
    if config.budget == 0 {
        return Err("--k must be positive".into());
    }
    if config.realizations == 0 {
        return Err("--realizations must be positive".into());
    }
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let result = MaxFriending::new(config).run(&instance);
    println!(
        "|I| = {}  estimated f(I) ≈ {:.6}",
        result.invitations.len(),
        result.estimated_probability
    );
    let ids: Vec<String> = result.invitations.iter().map(|v| v.index().to_string()).collect();
    println!("{}", ids.join(" "));
    Ok(())
}

/// Times the Alg. 3 pipeline (sample, then solve the cover) over the
/// scenario matrix and **appends** one stamped entry per scenario to the
/// history file (`BENCH_sampling.json`, the repo's perf trajectory
/// record). With `--check-regression`, fails when any counted field of a
/// new entry (graph, pool and cost counts, see
/// [`raf_bench::history::COUNTED_FIELDS`]) differs from the last
/// committed entry of the same `(scenario, profile)`; timings against
/// that entry are printed and advisory. Every cell's knobs are validated
/// before any cell runs. Runs whose `--walks`/`--reps`/`--seed`/`--beta`/
/// `--threads` deviate from the profile's standard knobs are recorded
/// under the `custom` profile lineage so they can never become a
/// `full`/`quick` baseline.
fn cmd_bench_json(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    use raf_bench::history::{gate_counts, parse_json, BenchHistory, CountGate, Stamp};
    use raf_bench::sampling::{
        find_scenario, quick_matrix, run_sampling_bench, scenario_config, scenario_matrix,
        BenchProfile, SamplingBenchConfig, Scenario, Workload,
    };
    use raf_datasets::synthetic::Topology;

    if args.is_set("list-scenarios") {
        for s in scenario_matrix() {
            println!("{}", s.name());
        }
        return Ok(());
    }
    let profile = if args.is_set("quick") { BenchProfile::Quick } else { BenchProfile::Full };
    let check = args.is_set("check-regression");
    let out = args.get("out").unwrap_or("BENCH_sampling.json").to_string();

    // Only the axes that *define* a cell trigger the custom-cell path.
    // `--threads` used to be a trigger too, which made
    // `bench-json --quick --threads 8` silently collapse the whole quick
    // matrix into one powerlaw cell; it is now a matrix-wide knob
    // override (recorded under the custom lineage), like `--walks`.
    let custom_cell = ["topology", "nodes"].iter().any(|f| args.get(f).is_some());
    let scenarios: Vec<Scenario> = if let Some(name) = args.get("scenario") {
        if custom_cell {
            // A named scenario pins topology/nodes; silently ignoring
            // the conflicting flags would record a measurement the user
            // did not ask for.
            return Err(
                "--scenario conflicts with --topology/--nodes (drop --scenario to benchmark a \
                 custom cell)"
                    .into(),
            );
        }
        vec![find_scenario(name)
            .ok_or_else(|| format!("unknown scenario {name:?} (try --list-scenarios)"))?]
    } else if custom_cell {
        // Custom one-off cell (back-compatible with the pre-matrix CLI).
        let topology = match args.get("topology") {
            None => Topology::PowerlawCluster,
            Some(raw) => Topology::parse(raw).ok_or_else(|| format!("unknown topology {raw:?}"))?,
        };
        vec![Scenario {
            workload: Workload::Synthetic(topology),
            nodes: args.get_or("nodes", 10_000)?,
            threads: args.get_or("threads", threads_from_env())?,
        }]
    } else if profile == BenchProfile::Quick {
        quick_matrix()
    } else {
        scenario_matrix()
    };

    let mut configs: Vec<SamplingBenchConfig> = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let mut config = scenario_config(scenario, profile);
        config.walks = args.get_or("walks", config.walks)?;
        config.reps = args.get_or("reps", config.reps)?;
        config.seed = args.get_or("seed", config.seed)?;
        config.beta = args.get_or("beta", config.beta)?;
        config.threads = args.get_or("threads", config.threads)?;
        config.validate().map_err(|e| format!("bench-json: {e}"))?;
        // A measurement that deviates from the profile's standard knobs
        // must not become the full/quick baseline: record it under the
        // "custom" lineage so it can never poison the regression gate.
        if config != scenario_config(scenario, profile) {
            config.profile = "custom";
        }
        configs.push(config);
    }

    let mut history = match std::fs::read_to_string(&out) {
        Ok(text) => BenchHistory::from_text(&text).map_err(|e| format!("{out}: {e}"))?,
        // Only a genuinely absent file starts a fresh history; any other
        // read error must not end in overwriting the committed record.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BenchHistory::default(),
        Err(e) => return Err(format!("{out}: {e}").into()),
    };
    let stamp = Stamp::collect();
    let mut changed: Vec<String> = Vec::new();
    for config in configs {
        let name = config.scenario().name();
        let lineage = config.profile;
        eprintln!(
            "benchmarking {name} [{lineage}]: {} nodes, {} walks, {} thread(s), {} rep(s)…",
            config.nodes, config.walks, config.threads, config.reps
        );
        let report = run_sampling_bench(config);
        let arena_ms = report.arena_total_ns() as f64 / 1e6;
        println!(
            "{name}: arena {arena_ms:.1} ms (type-1 {} → {} unique, dedup {:.1}x, cost {})",
            report.type1,
            report.unique_paths,
            report.dedup_factor(),
            report.arena_cost,
        );
        let entry = parse_json(&report.to_json(&stamp)).map_err(|e| format!("entry JSON: {e}"))?;
        if check {
            let baseline = history.last_for(&name, lineage);
            match gate_counts(baseline, &entry) {
                CountGate::Skipped(reason) => {
                    println!("{name}: {lineage} gate skipped: {reason}");
                }
                CountGate::Equal => println!("{name}: counts equal the {lineage} baseline"),
                CountGate::Changed(changes) => {
                    for change in &changes {
                        println!("{name}: count changed: {change}");
                    }
                    changed.push(name.clone());
                }
            }
            if let Some(base) = baseline.and_then(|b| b.path_f64(&["arena_ns", "total"])) {
                println!(
                    "{name}: advisory timing: arena {arena_ms:.1} ms vs baseline {:.1} ms",
                    base / 1e6
                );
            }
        }
        history.push(entry);
    }
    std::fs::write(&out, history.to_text())?;
    println!("wrote {out} ({} entries)", history.entries.len());
    if !changed.is_empty() {
        return Err(format!(
            "counted fields differ from the committed baseline in {} (listed above); if the \
             change is intended, commit the entries this run appended to {out}",
            changed.join(", ")
        )
        .into());
    }
    Ok(())
}

/// Splits raw request bytes into lines with `str::lines` semantics —
/// `\n` separators, optional trailing `\r` stripped, no phantom empty
/// line after a trailing newline — without requiring the file to be
/// valid UTF-8 (a garbage line must produce an `err parse` response,
/// not kill the whole batch).
fn byte_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if lines.last() == Some(&&b""[..]) {
        lines.pop();
    }
    lines.into_iter().map(|l| l.strip_suffix(b"\r").unwrap_or(l))
}

/// The query-serving session (`raf serve`): load a SNAP edge list once,
/// keep it resident behind a [`SessionContext`], and answer
/// `s t alpha [budget]` request lines — from `--requests FILE` in batch
/// mode, from stdin otherwise — one `ok`/`err` response line each (see
/// `raf_serve::protocol`). A `campaign s t1,t2,... alpha budget` line
/// allocates one shared invitation budget across several targets,
/// answering from (and populating) the same pool cache single-target
/// queries use. Queries on the same pair share one sampled pool; the
/// cache summary goes to stderr on exit. The graph serves from the
/// plain CSR layout, in the file's (compacted) node ids.
///
/// Robustness knobs: `--work-budget`/`--deadline-ms` degrade over-limit
/// answers instead of failing them; `--max-query-walks` and
/// `--max-inflight-walks` shed oversized / over-admitted queries with a
/// retry hint (batch mode retries saturation sheds itself, in rounds, up
/// to `--retries` times); `--fault-plan` injects deterministic faults
/// for recovery testing (see `FaultPlan::parse` for the spec grammar).
fn cmd_serve(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    use active_friending::serve::protocol;
    use std::io::{BufRead, Write};

    let path = args.require("graph")?;
    let cache_mb: usize = args.get_or("cache-mb", 256)?;
    let config = ServeConfig {
        walks: args.get_or("walks", 100_000)?,
        epsilon: args.get_or("epsilon", 0.01)?,
        seed: args.get_or("seed", 1)?,
        threads: args.get_or("threads", threads_from_env())?,
        cache_bytes: cache_mb
            .checked_mul(1 << 20)
            .ok_or_else(|| format!("--cache-mb {cache_mb} overflows the cache's byte count"))?,
        deadline: DeadlinePolicy {
            work_budget: args.get_typed("work-budget")?,
            wall_clock_ms: args.get_typed("deadline-ms")?,
        },
        admission: AdmissionPolicy {
            max_query_walks: args.get_typed("max-query-walks")?,
            max_inflight_walks: args.get_typed("max-inflight-walks")?,
        },
    };
    config.validate().map_err(|e| format!("serve: {e}"))?;
    let fault_plan = match args.get("fault-plan") {
        None => FaultPlan::empty(),
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?,
    };
    let retries: u32 = args.get_or("retries", 2)?;
    let default_budget = config.walks;
    let admission = config.admission;
    let builder = read_edge_list_path(Path::new(path), &EdgeListOptions::default())?;
    let mut social = builder.build(WeightScheme::UniformByDegree)?;
    let csr = social.to_csr();
    let mut ctx = SessionContext::new(&csr, config);
    ctx.set_fault_plan(fault_plan);
    eprintln!(
        "serving {} ({} nodes, {} edges); requests: s t alpha [budget] | campaign s t1,t2,... \
         alpha budget",
        path,
        csr.node_count(),
        csr.edge_count()
    );

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // Saturation sheds happen in the batch driver's admission window,
    // outside the context, so they are tallied here and folded into the
    // session's shed count on exit.
    let mut saturated_sheds = 0u64;
    let run_query = |ctx: &mut SessionContext<'_>, query: &Query| -> String {
        match ctx.query(query) {
            Ok(answer) => protocol::format_answer(query, &answer),
            Err(e) => protocol::format_error(query, &e),
        }
    };
    let run_delta = |ctx: &mut SessionContext<'_>,
                     social: &mut raf_graph::SocialGraph,
                     delta: &raf_graph::EdgeDelta|
     -> String {
        match ctx.apply_delta(delta, social, WeightScheme::UniformByDegree) {
            Ok(outcome) => protocol::format_delta_outcome(&outcome),
            Err(e) => protocol::format_delta_error(&e),
        }
    };
    let run_campaign = |ctx: &mut SessionContext<'_>, campaign: &CampaignQuery| -> String {
        match ctx.campaign(campaign) {
            Ok(answer) => protocol::format_campaign_answer(campaign, &answer),
            Err(e) => protocol::format_campaign_error(campaign, &e),
        }
    };
    if let Some(requests) = args.get("requests") {
        // Batch mode: parse every line up front, answer in admission
        // rounds, and print responses in request order. A round models
        // one admission window: reservations accumulate in the ledger
        // until the round ends, so --max-inflight-walks caps how much
        // sampling work a single window may admit. Saturation sheds
        // (retryable by contract) are deferred to the next round — the
        // deterministic analogue of client backoff-and-retry — for up to
        // --retries extra rounds; per-query-cap sheds are permanent and
        // fail immediately. `delta` lines are churn barriers: queries
        // before one are fully answered (retries included) before the
        // delta applies, so every query sees exactly the graph its
        // position in the file implies.
        enum Slot {
            /// Response line ready (answered, failed, or parse error).
            Done(String),
            /// Parsed query still waiting for admission.
            Pending(Query),
            /// A multi-target campaign waiting for its segment's first
            /// round.
            Campaign(CampaignQuery),
            /// A churn barrier waiting to be applied.
            Churn(raf_graph::EdgeDelta),
            /// Blank/comment line: no response.
            Skip,
        }
        let bytes = std::fs::read(requests)?;
        let mut slots: Vec<Slot> = byte_lines(&bytes)
            .map(|line| match protocol::parse_line_bytes(line, default_budget) {
                Ok(None) => Slot::Skip,
                Ok(Some(protocol::Request::Query(query))) => Slot::Pending(query),
                Ok(Some(protocol::Request::Campaign(campaign))) => Slot::Campaign(campaign),
                Ok(Some(protocol::Request::Delta(delta))) => Slot::Churn(delta),
                Err(message) => Slot::Done(format!("err parse: {message}")),
            })
            .collect();
        let mut start = 0usize;
        while start < slots.len() {
            if let Slot::Churn(_) = &slots[start] {
                let Slot::Churn(delta) = std::mem::replace(&mut slots[start], Slot::Skip) else {
                    unreachable!("just matched Churn");
                };
                slots[start] = Slot::Done(run_delta(&mut ctx, &mut social, &delta));
                start += 1;
                continue;
            }
            // The query segment up to the next churn barrier (or EOF),
            // answered in admission rounds exactly as before.
            let end = slots[start..]
                .iter()
                .position(|s| matches!(s, Slot::Churn(_)))
                .map_or(slots.len(), |p| start + p);
            let mut round = 0u32;
            loop {
                let mut ledger = AdmissionLedger::new();
                let mut deferred = 0usize;
                for slot in &mut slots[start..end] {
                    if let Slot::Campaign(campaign) = slot {
                        // Campaigns bypass the admission ledger: their
                        // fan-out is bounded at parse time
                        // (MAX_CAMPAIGN_TARGETS) and the per-query walk
                        // cap still applies to every per-target pool
                        // inside the context, so a campaign can never
                        // admit more work than the same targets issued
                        // as individual query lines.
                        if round == 0 {
                            *slot = Slot::Done(run_campaign(&mut ctx, campaign));
                        }
                        continue;
                    }
                    let Slot::Pending(query) = slot else { continue };
                    let walks = query.budget.min(default_budget);
                    match ledger.try_reserve(&admission, walks) {
                        Ok(())
                        // The context enforces the per-query cap itself (and
                        // counts the shed in its session stats), so a
                        // too-large query goes through it for the answer —
                        // retrying could never admit it anyway.
                        | Err(ShedReason::QueryTooLarge { .. }) => {
                            // Admitted reservations are held until the
                            // window closes: the ledger drains only when the
                            // round does.
                            *slot = Slot::Done(run_query(&mut ctx, query));
                        }
                        Err(ShedReason::SessionSaturated { .. }) if round < retries => {
                            deferred += 1;
                        }
                        Err(shed) => {
                            saturated_sheds += 1;
                            *slot = Slot::Done(protocol::format_error(
                                query,
                                &ServeError::Overloaded(shed),
                            ));
                        }
                    }
                }
                if deferred == 0 {
                    break;
                }
                round += 1;
            }
            start = end;
        }
        for slot in &slots {
            if let Slot::Done(response) = slot {
                writeln!(out, "{response}")?;
            }
        }
    } else {
        // Interactive mode: serve stdin until EOF, flushing per line so
        // a driving process sees each answer immediately. One query is
        // in flight at a time, so the window cap is moot here; the
        // per-query cap still applies inside the context. Lines are read
        // as raw bytes — a non-UTF-8 line answers `err parse`, it does
        // not end the session. `delta` lines apply churn at their
        // position in the stream.
        let stdin = std::io::stdin();
        let mut reader = stdin.lock();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if reader.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            match protocol::parse_line_bytes(line, default_budget) {
                Ok(None) => {}
                Ok(Some(protocol::Request::Query(query))) => {
                    let response = run_query(&mut ctx, &query);
                    writeln!(out, "{response}")?;
                }
                Ok(Some(protocol::Request::Campaign(campaign))) => {
                    let response = run_campaign(&mut ctx, &campaign);
                    writeln!(out, "{response}")?;
                }
                Ok(Some(protocol::Request::Delta(delta))) => {
                    let response = run_delta(&mut ctx, &mut social, &delta);
                    writeln!(out, "{response}")?;
                }
                Err(message) => writeln!(out, "err parse: {message}")?,
            }
            out.flush()?;
        }
    }
    let stats = ctx.stats();
    eprintln!(
        "session: {} hits, {} misses, {} evictions; {} pool(s) resident, {:.1} MiB",
        stats.hits,
        stats.misses,
        stats.evictions,
        ctx.cached_pools(),
        ctx.resident_bytes() as f64 / (1 << 20) as f64,
    );
    let session = ctx.session_stats();
    eprintln!(
        "robustness: {} degraded, {} shed, {} internal, {} resource-capped; \
         cache: {} oversized rejected, {} integrity evictions",
        session.degraded,
        session.shed + saturated_sheds,
        session.internal,
        session.resource,
        stats.rejected,
        stats.integrity_evictions,
    );
    Ok(())
}

/// Runs the Table-I dataset sweep (`raf experiment`): every selected
/// dataset × an α grid × a realization-budget grid, RAF vs the HD/SP
/// baselines at matched invitation-set size, reported as a
/// schema-versioned CSV (always) and JSON (with `--out-json`). Datasets
/// load into the plain CSR layout, so screened pairs carry the file's
/// node ids. Real SNAP files in `--data-dir` override the synthetic
/// stand-ins. Deterministic for fixed flags and `--seed`; `--threads`
/// never changes the output.
fn cmd_experiment(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    use raf_bench::experiments::sweep::{self, SweepConfig};

    if args.get("targets").is_some() {
        return cmd_experiment_campaign(args);
    }
    let mut config =
        if args.is_set("quick") { SweepConfig::quick() } else { SweepConfig::default() };
    if let Some(datasets) = parse_datasets(args)? {
        config.datasets = datasets;
    }
    if let Some(raw) = args.get("alphas") {
        config.alphas = parse_grid::<f64>("alphas", raw)?;
    }
    if let Some(raw) = args.get("budgets") {
        config.budgets = parse_grid::<u64>("budgets", raw)?;
    }
    config.pairs = args.get_or("pairs", config.pairs)?;
    config.scale = args.get_or("scale", config.scale)?;
    config.eval_samples = args.get_or("eval-samples", config.eval_samples)?;
    config.seed = args.get_or("seed", config.seed)?;
    config.threads = args.get_or("threads", threads_from_env())?;
    if let Some(dir) = args.get("data-dir") {
        config.data_dir = std::path::PathBuf::from(dir);
    }
    config.validate()?;

    let report = sweep::run(&config);
    for &dataset in &config.datasets {
        sweep::print(dataset, &report.rows);
    }
    let csv_path = args.get("out-csv").unwrap_or("EXPERIMENT_table1.csv");
    report.to_csv().write_to_path(Path::new(csv_path))?;
    println!("wrote {csv_path} ({} rows, schema {})", report.rows.len(), sweep::CSV_SCHEMA);
    if let Some(json_path) = args.get("out-json") {
        let mut text = report.to_json().render();
        text.push('\n');
        std::fs::write(json_path, text)?;
        println!("wrote {json_path} (schema_version {})", report.schema_version);
    }
    Ok(())
}

/// The `raf experiment --targets k` flavour: the multi-target campaign
/// sweep — screened campaigns (one source, `k` targets) × a shared
/// invitation-budget grid per dataset, the joint greedy allocation
/// against the independent equal/proportional splits. `--budgets` is the
/// *invitation*-budget grid here (small integers, not realization
/// counts), `--pairs` is the campaign count, and `--eval-samples` is the
/// per-target pool walk count; `--alphas` has no effect on allocation
/// (the campaign objective is α-independent) and is rejected to avoid
/// silently ignoring it.
fn cmd_experiment_campaign(args: &CliArgs) -> Result<(), Box<dyn std::error::Error>> {
    use raf_bench::experiments::campaign::{self, CampaignSweepConfig};

    if args.get("alphas").is_some() {
        return Err(
            "--alphas has no effect on campaign allocation (drop it, or drop --targets)".into()
        );
    }
    let mut config = if args.is_set("quick") {
        CampaignSweepConfig::quick()
    } else {
        CampaignSweepConfig::default()
    };
    config.targets = args.require_typed("targets")?;
    if let Some(datasets) = parse_datasets(args)? {
        config.datasets = datasets;
    }
    if let Some(raw) = args.get("budgets") {
        config.budgets = parse_grid::<usize>("budgets", raw)?;
    }
    config.campaigns = args.get_or("pairs", config.campaigns)?;
    config.scale = args.get_or("scale", config.scale)?;
    config.walks = args.get_or("eval-samples", config.walks)?;
    config.seed = args.get_or("seed", config.seed)?;
    config.threads = args.get_or("threads", threads_from_env())?;
    if let Some(dir) = args.get("data-dir") {
        config.data_dir = std::path::PathBuf::from(dir);
    }
    config.validate()?;

    let report = campaign::run(&config);
    for &dataset in &config.datasets {
        campaign::print(dataset, &report.rows);
    }
    let csv_path = args.get("out-csv").unwrap_or("EXPERIMENT_campaign.csv");
    report.to_csv().write_to_path(Path::new(csv_path))?;
    println!(
        "wrote {csv_path} ({} rows, schema {})",
        report.rows.len(),
        campaign::CAMPAIGN_CSV_SCHEMA
    );
    if let Some(json_path) = args.get("out-json") {
        let mut text = report.to_json().render();
        text.push('\n');
        std::fs::write(json_path, text)?;
        println!("wrote {json_path} (schema_version {})", report.schema_version);
    }
    Ok(())
}

/// Parses `--dataset` into a dataset list (`None` means "keep the
/// config's default"; `all` selects every Table-I dataset).
fn parse_datasets(
    args: &CliArgs,
) -> Result<Option<Vec<raf_datasets::Dataset>>, Box<dyn std::error::Error>> {
    use raf_datasets::Dataset;
    let Some(name) = args.get("dataset") else {
        return Ok(None);
    };
    if name == "all" {
        return Ok(None);
    }
    let dataset = match name.to_ascii_lowercase().as_str() {
        "wiki" => Dataset::Wiki,
        "hepth" => Dataset::HepTh,
        "hepph" => Dataset::HepPh,
        "youtube" => Dataset::Youtube,
        other => {
            return Err(format!(
                "unknown dataset {other:?} (expected wiki, hepth, hepph, youtube, or all)"
            )
            .into())
        }
    };
    Ok(Some(vec![dataset]))
}

/// Parses a comma-separated grid flag (e.g. `--alphas 0.1,0.2,0.3`).
fn parse_grid<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
) -> Result<Vec<T>, Box<dyn std::error::Error>> {
    let values: Result<Vec<T>, _> = raw.split(',').map(|s| s.trim().parse::<T>()).collect();
    match values {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("invalid value {raw:?} for --{flag} (comma-separated numbers)").into()),
    }
}

/// The `raf --help` text.
const USAGE: &str = "raf — active friending toolkit (ICDCS 2019 reproduction)

USAGE:
  raf stats --graph <edge-list>
  raf pmax  --graph <edge-list> --s <id> --t <id> [--samples N] [--seed N]
  raf vmax  --graph <edge-list> --s <id> --t <id>
  raf run   --graph <edge-list> --s <id> --t <id> --alpha A
            [--epsilon E] [--budget N] [--seed N] [--threads N]
  raf max   --graph <edge-list> --s <id> --t <id> --k BUDGET
            [--realizations N] [--seed N] [--threads N]
  raf serve --graph <edge-list> [--requests FILE] [--walks N]
            [--seed N] [--threads N] [--cache-mb N] [--epsilon E]
            [--work-budget N] [--deadline-ms N]
            [--max-query-walks N] [--max-inflight-walks N]
            [--retries N] [--fault-plan SPEC]
  raf bench-json [--out FILE] [--scenario NAME] [--list-scenarios]
            [--quick] [--check-regression]
            [--topology NAME] [--nodes N] [--walks N] [--seed N]
            [--threads N] [--reps N] [--beta B]
  raf experiment [--dataset wiki|hepth|hepph|youtube|all] [--quick]
            [--alphas A,B,...] [--budgets N,M,...] [--pairs N]
            [--scale F] [--eval-samples N] [--seed N] [--threads N]
            [--data-dir DIR] [--out-csv FILE] [--out-json FILE]
            [--targets K]

A flag the command does not read is an error.

serve keeps the graph resident and answers `s t alpha [budget]` request
lines — one per line from --requests FILE (batch) or stdin
(interactive) — as `ok`/`err` response lines on stdout. Queries on the
same (s, t) pair share one sampled realization pool through an LRU
cache (--cache-mb, default 256), so repeat queries that differ only in
alpha or budget skip sampling entirely; the hit/miss summary prints to
stderr on exit. A request line `campaign s t1,t2,... alpha budget`
allocates one shared invitation budget across up to 16 targets by
greedy marginal gain over the targets' pools — the same per-target
pools single queries cache, so campaigns warm queries and vice versa —
answering `ok campaign ... arm=... objective=...` (structured `err` on
duplicate/unreachable targets, a zero budget, or an alpha a query would
reject, never killing the session). --work-budget caps the walk steps a
query may spend (exhaustion returns a partial-pool answer tagged
` degraded=1`, still deterministic in the seed); --deadline-ms adds a
wall-clock cap (answers then depend on timing). --max-query-walks sheds any query
whose walk budget exceeds the cap; --max-inflight-walks caps the walks
admitted per batch window — batch mode retries saturation sheds in up
to --retries (default 2) extra rounds, deterministically, before
answering `err ... overloaded`. --fault-plan injects deterministic
faults (`panic@Q[:W]`, `alloc@Q:BYTES`, `slow@Q[:MS]`, `corrupt@Q`,
comma-separated; Q indexes queries in execution order; a panic fires at
the first 256-walk block starting at or after walk W) to exercise the
recovery paths; an empty plan leaves output bit-identical. Answers
never depend on --threads: each walk is seeded by its index. A request
line `delta <+u:v|-u:v>[,...]` mutates the resident graph in place:
cached pools whose walks never touched a churned endpoint are kept,
the rest are repaired by resampling exactly the invalidated walk mass
(`ok delta ... repaired=R resampled=W`); queries after a delta see the
post-churn graph, and batch mode applies each delta as a barrier at
its position in the file.

bench-json times sampling plus the cover solve and appends one stamped
history entry per scenario to FILE (default BENCH_sampling.json).
Without --scenario it runs the whole matrix (--quick: the CI-sized
slice, which skips the 1M-node cell). --check-regression fails when a
scenario's graph, pool or cost counts differ from the last committed
entry of the same scenario and profile; these counts do not depend on
timing or threads. Timings against that entry are
printed and advisory. To accept an intended count change, commit the
entries the failing run appended. --walks, --threads and --reps must be
positive. Only --topology and --nodes define a custom one-off cell;
--walks/--seed/--threads/--reps/--beta override knobs matrix-wide and
reroute the runs to the `custom' lineage.

experiment runs the Table-I sweep (RAF vs HD/SP over an alpha × budget
grid per dataset) and writes a schema-versioned CSV (default
EXPERIMENT_table1.csv; --out-json adds the JSON flavour). With
--targets K it instead sweeps multi-target campaigns (K targets per
screened source, joint vs equal vs proportional budget splits over a
--budgets grid; --alphas does not apply) and writes
EXPERIMENT_campaign.csv. Real SNAP files in --data-dir (default data/)
override the synthetic stand-ins. --threads defaults to the
RAF_THREADS environment variable.";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--flag` names in a piece of text.
    fn flags_in(text: &str) -> BTreeSet<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| rest.split(|c: char| !(c.is_ascii_lowercase() || c == '-')).next().unwrap())
            .filter(|flag| !flag.is_empty())
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_declared_flags() {
        // Each command's synopsis in USAGE runs from its `raf NAME` line
        // to the next command's; it must name every flag the command
        // declares and nothing else.
        let synopsis = USAGE.split("USAGE:").nth(1).unwrap().split("\n\n").next().unwrap();
        let blocks: Vec<&str> = synopsis.split("\n  raf ").skip(1).collect();
        assert_eq!(blocks.len(), COMMANDS.len());
        for spec in COMMANDS {
            let block = blocks
                .iter()
                .find(|b| b.split_whitespace().next() == Some(spec.name))
                .unwrap_or_else(|| panic!("USAGE lacks raf {}", spec.name));
            let declared: BTreeSet<&str> =
                spec.flags.iter().chain(spec.switches).copied().collect();
            assert_eq!(flags_in(block), declared, "raf {}", spec.name);
        }
    }
}
