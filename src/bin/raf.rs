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
//!           [--fault-plan SPEC]
//! raf bench-json [--out BENCH_sampling.json] [--scenario NAME]
//!           [--list-scenarios] [--quick] [--check-regression]
//!           [--topology powerlaw_cluster] [--nodes N] [--walks N]
//!           [--seed 7] [--threads N] [--reps N]
//! raf experiment [--dataset all] [--quick] [--ratio | --targets K]
//!           [--alphas 0.1,0.3] [--budgets 4000,8000] [--pairs N]
//!           [--out-csv FILE] [--out-json FILE]
//! ```
//!
//! The graph file is a SNAP-style edge list (whitespace-separated ids,
//! `#` comments); weights follow the paper's `w(u,v) = 1/|N_v|`.
//! `--threads` defaults to the `RAF_THREADS` environment variable. A
//! flag the subcommand does not read is an error. Every command writes
//! stdout through one lock and ends with one `error:` line and exit code
//! 1 when it cannot, for instance when the reader of a pipe has gone.

use active_friending::cli::{wants_help, CliArgs, CommandSpec};
use active_friending::prelude::*;
use raf_core::{MaxFriending, MaxFriendingConfig};
use raf_graph::io::{read_edge_list_path, EdgeListOptions};
use std::io::Write;
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
        switches: &["quick", "ratio"],
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
    let out = &mut std::io::stdout().lock();
    match args.command.as_str() {
        "stats" => cmd_stats(args, out),
        "pmax" => cmd_pmax(args, out),
        "vmax" => cmd_vmax(args, out),
        "run" => cmd_run(args, out),
        "max" => cmd_max(args, out),
        "bench-json" => cmd_bench_json(args, out),
        "experiment" => cmd_experiment(args, out),
        "serve" => cmd_serve(args, out),
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

fn cmd_stats(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.require("graph")?;
    let builder = read_edge_list_path(Path::new(path), &EdgeListOptions::default())?;
    let graph = builder.build(WeightScheme::UniformByDegree)?;
    writeln!(out, "{}", GraphMetrics::compute(&graph))?;
    Ok(())
}

/// The pool estimate `|B1| / samples` of `p_max`, sampled from the
/// pair's walk streams: the `pmax` that `raf run --budget samples` and
/// `raf serve --walks samples` print for the same pair and seed.
fn cmd_pmax(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let samples: u64 = args.get_or("samples", 50_000)?;
    if samples == 0 {
        return Err("--samples must be positive".into());
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let pool = SampleRequest::new(samples).seed(instance.pair_seed(seed)).run(&instance);
    writeln!(
        out,
        "pmax ≈ {:.6}  (type-1: {} / {})",
        pool.pmax_estimate(),
        pool.type1_count(),
        pool.total_samples()
    )?;
    Ok(())
}

fn cmd_vmax(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let vm = vmax_exact(&instance);
    writeln!(out, "|V_max| = {}", vm.len())?;
    let ids: Vec<String> = vm.iter().map(|v| v.index().to_string()).collect();
    writeln!(out, "{}", ids.join(" "))?;
    Ok(())
}

/// One RAF answer: a cold `raf serve` query at `--walks = --budget`, so
/// it prints the `p` and set a served query answers, and its `pmax` is
/// the pool's estimate `|B1| / budget`.
fn cmd_run(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    let budget: u64 = args.get_or("budget", 50_000)?;
    if budget == 0 {
        return Err("realization budget must be positive".into());
    }
    let config = ServeConfig {
        walks: budget,
        epsilon: args.get_or("epsilon", 0.01)?,
        seed: args.get_or("seed", 1)?,
        threads: args.get_or("threads", threads_from_env())?,
        ..Default::default()
    };
    config.validate().map_err(|e| format!("run: {e}"))?;
    let csr = load_graph(args)?;
    let query = Query {
        s: NodeId::new(args.require_typed("s")?),
        t: NodeId::new(args.require_typed("t")?),
        alpha: args.require_typed("alpha")?,
        budget,
    };
    let answer = one_shot(&csr, config, &query)?;
    writeln!(
        out,
        "|I*| = {}  (pool |B1| = {}, p = {}, beta = {:.4}, pmax = {:.4})",
        answer.invitations.len(),
        answer.type1_count,
        answer.cover_p,
        answer.parameters.beta,
        answer.pmax_estimate,
    )?;
    let ids: Vec<String> = answer.invitations.iter().map(|v| v.index().to_string()).collect();
    writeln!(out, "{}", ids.join(" "))?;
    Ok(())
}

fn cmd_max(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
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
    if config.threads == 0 {
        return Err("--threads must be positive".into());
    }
    let csr = load_graph(args)?;
    let instance = load_instance(args, &csr)?;
    let result = MaxFriending::new(config).run(&instance);
    writeln!(
        out,
        "|I| = {}  estimated f(I) ≈ {:.6}",
        result.invitations.len(),
        result.estimated_probability
    )?;
    let ids: Vec<String> = result.invitations.iter().map(|v| v.index().to_string()).collect();
    writeln!(out, "{}", ids.join(" "))?;
    Ok(())
}

/// Times the Alg. 3 pipeline (sample, then solve the cover) over the
/// scenario matrix and **appends** one stamped entry per scenario to the
/// history file (`BENCH_sampling.json`, the repo's perf trajectory
/// record). With `--check-regression`, fails when any counted field of a
/// new entry (graph, pool and cost counts and the pool digest, see
/// [`raf_bench::history::COUNTED_FIELDS`]) differs from the last
/// committed entry of the same `(scenario, profile)`, on every field that
/// entry carries; timings against that entry are printed and advisory.
/// Every cell's knobs are validated
/// before any cell runs. Runs whose `--walks`/`--reps`/`--seed`/`--beta`/
/// `--threads` deviate from the profile's standard knobs are recorded
/// under the `custom` profile lineage so they can never become a
/// `full`/`quick` baseline.
fn cmd_bench_json(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    use raf_bench::history::{gate_counts, parse_json, BenchHistory, CountGate, Stamp};
    use raf_bench::sampling::{
        find_scenario, quick_matrix, run_sampling_bench, scenario_config, scenario_matrix,
        BenchProfile, SamplingBenchConfig, Scenario, Workload,
    };
    use raf_datasets::synthetic::Topology;

    if args.is_set("list-scenarios") {
        for s in scenario_matrix() {
            writeln!(out, "{}", s.name())?;
        }
        return Ok(());
    }
    let profile = if args.is_set("quick") { BenchProfile::Quick } else { BenchProfile::Full };
    let check = args.is_set("check-regression");
    let file = args.get("out").unwrap_or("BENCH_sampling.json").to_string();

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

    let mut history = match std::fs::read_to_string(&file) {
        Ok(text) => BenchHistory::from_text(&text).map_err(|e| format!("{file}: {e}"))?,
        // Only a genuinely absent file starts a fresh history; any other
        // read error must not end in overwriting the committed record.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BenchHistory::default(),
        Err(e) => return Err(format!("{file}: {e}").into()),
    };
    let stamp = Stamp::collect(Path::new(&file));
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
        writeln!(
            out,
            "{name}: arena {arena_ms:.1} ms (type-1 {} → {} unique, dedup {:.1}x, cost {})",
            report.type1,
            report.unique_paths,
            report.dedup_factor(),
            report.arena_cost,
        )?;
        let entry = parse_json(&report.to_json(&stamp)).map_err(|e| format!("entry JSON: {e}"))?;
        if check {
            let baseline = history.last_for(&name, lineage);
            match gate_counts(baseline, &entry) {
                CountGate::Skipped(reason) => {
                    writeln!(out, "{name}: {lineage} gate skipped: {reason}")?;
                }
                CountGate::Compared { changes, predates } => {
                    if !predates.is_empty() {
                        writeln!(
                            out,
                            "{name}: {lineage} baseline predates {}, not compared",
                            predates.join(", ")
                        )?;
                    }
                    if changes.is_empty() {
                        writeln!(out, "{name}: counts equal the {lineage} baseline")?;
                    } else {
                        for change in &changes {
                            writeln!(out, "{name}: count changed: {change}")?;
                        }
                        changed.push(name.clone());
                    }
                }
            }
            if let Some(base) = baseline.and_then(|b| b.path_f64(&["arena_ns", "total"])) {
                writeln!(
                    out,
                    "{name}: advisory timing: arena {arena_ms:.1} ms vs baseline {:.1} ms",
                    base / 1e6
                )?;
            }
        }
        history.push(entry);
    }
    std::fs::write(&file, history.to_text())?;
    writeln!(out, "wrote {file} ({} entries)", history.entries.len())?;
    if !changed.is_empty() {
        return Err(format!(
            "counted fields differ from the committed baseline in {} (listed above); if the \
             change is intended, commit the entries this run appended to {file}",
            changed.join(", ")
        )
        .into());
    }
    Ok(())
}

/// The query-serving session (`raf serve`): load a SNAP edge list once,
/// keep it resident behind a [`SessionContext`], and answer
/// `s t alpha [budget]` request lines — from `--requests FILE`, or from
/// stdin by default — one `ok`/`err` response line each, in request
/// order (see `raf_serve::protocol`). Both sources run the same loop,
/// which flushes after every line so a driving process sees each answer
/// immediately. A `campaign s t1,t2,... alpha budget` line allocates one
/// shared invitation budget across several targets, answering from (and
/// populating) the same pool cache single-target queries use, and a
/// `delta` line applies churn at its position in the stream. Queries on
/// the same pair share one sampled pool; the cache summary goes to
/// stderr on exit. The graph serves from the plain CSR layout, in the
/// file's (compacted) node ids.
///
/// Robustness knobs: `--work-budget`/`--deadline-ms` degrade over-limit
/// answers instead of failing them; `--max-query-walks` sheds oversized
/// queries with a retry hint; `--fault-plan` injects deterministic
/// faults for recovery testing (see `FaultPlan::parse` for the spec
/// grammar).
fn cmd_serve(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    use active_friending::serve::protocol::{self, Request};
    use std::io::{BufRead, BufReader};

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
        admission: AdmissionPolicy { max_query_walks: args.get_typed("max-query-walks")? },
    };
    config.validate().map_err(|e| format!("serve: {e}"))?;
    let fault_plan = match args.get("fault-plan") {
        None => FaultPlan::empty(),
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?,
    };
    let default_budget = config.walks;
    let mut requests: Box<dyn BufRead> = match args.get("requests") {
        Some(file) => {
            Box::new(BufReader::new(std::fs::File::open(file).map_err(|e| format!("{file}: {e}"))?))
        }
        None => Box::new(std::io::stdin().lock()),
    };
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

    // Lines are read as raw bytes: a non-UTF-8 line answers `err parse`,
    // it does not end the session.
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if requests.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let response = match protocol::parse_line_bytes(line, default_budget) {
            Ok(None) => continue,
            Ok(Some(Request::Query(query))) => match ctx.query(&query) {
                Ok(answer) => protocol::format_answer(&query, &answer),
                Err(e) => protocol::format_error(&query, &e),
            },
            Ok(Some(Request::Campaign(campaign))) => match ctx.campaign(&campaign) {
                Ok(answer) => protocol::format_campaign_answer(&campaign, &answer),
                Err(e) => protocol::format_campaign_error(&campaign, &e),
            },
            Ok(Some(Request::Delta(delta))) => {
                match ctx.apply_delta(&delta, &mut social, WeightScheme::UniformByDegree) {
                    Ok(outcome) => protocol::format_delta_outcome(&outcome),
                    Err(e) => protocol::format_delta_error(&e),
                }
            }
            Err(message) => format!("err parse: {message}"),
        };
        writeln!(out, "{response}")?;
        out.flush()?;
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
        session.shed,
        session.internal,
        session.resource,
        stats.rejected,
        stats.integrity_evictions,
    );
    Ok(())
}

/// Runs one of the three `raf experiment` forms, each a
/// schema-versioned CSV (always) and JSON (with `--out-json`):
///
/// - the Table-I sweep (default): every selected dataset × an α grid × a
///   realization-budget grid, RAF vs the HD/SP baselines at matched
///   invitation-set size, with `V_max` beside RAF (Tables I–II and
///   Figs. 3 and 6);
/// - `--ratio`: HD and SP grown until they match RAF on the sweep's
///   pairs and pools, binned into the five-bin curve (Figs. 4–5);
/// - `--targets k`: the multi-target campaign sweep, screened campaigns
///   (one source, `k` targets) × an invitation-budget grid, the joint
///   greedy allocation against the equal/proportional splits. There
///   `--budgets` is the *invitation*-budget grid (small integers, not
///   realization counts), `--pairs` the campaign count and
///   `--eval-samples` the per-target pool walk count; `--alphas` has no
///   effect on allocation (the campaign objective is α-independent) and
///   is rejected rather than silently ignored.
///
/// Datasets load into the plain CSR layout, so screened pairs carry the
/// file's node ids. Real SNAP files in `--data-dir` override the
/// synthetic stand-ins. Deterministic for fixed flags and `--seed`;
/// `--threads` never changes the output.
fn cmd_experiment(args: &CliArgs, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    use raf_bench::experiments::campaign::{self, CampaignSweepConfig};
    use raf_bench::experiments::fig45;
    use raf_bench::experiments::sweep::{self, SweepConfig};

    let targets: Option<usize> = args.get_typed("targets")?;
    let ratio = args.is_set("ratio");
    if ratio && targets.is_some() {
        return Err("--ratio and --targets select different experiment forms (drop one)".into());
    }
    // The flags every form reads; `None` keeps the form's default.
    let quick = args.is_set("quick");
    let datasets = parse_datasets(args)?;
    let pairs: Option<usize> = args.get_typed("pairs")?;
    let scale: Option<f64> = args.get_typed("scale")?;
    let eval_samples: Option<u64> = args.get_typed("eval-samples")?;
    let seed: Option<u64> = args.get_typed("seed")?;
    let threads = args.get_or("threads", threads_from_env())?;
    let data_dir = args.get("data-dir").map(std::path::PathBuf::from);

    if let Some(targets) = targets {
        if args.get("alphas").is_some() {
            return Err(
                "--alphas has no effect on campaign allocation (drop it, or drop --targets)".into(),
            );
        }
        let defaults =
            if quick { CampaignSweepConfig::quick() } else { CampaignSweepConfig::default() };
        let config = CampaignSweepConfig {
            datasets: datasets.unwrap_or(defaults.datasets),
            targets,
            budgets: parse_grid(args, "budgets")?.unwrap_or(defaults.budgets),
            campaigns: pairs.unwrap_or(defaults.campaigns),
            scale: scale.unwrap_or(defaults.scale),
            walks: eval_samples.unwrap_or(defaults.walks),
            seed: seed.unwrap_or(defaults.seed),
            threads,
            data_dir: data_dir.unwrap_or(defaults.data_dir),
        };
        config.validate()?;
        let report = campaign::run(&config);
        for &dataset in &config.datasets {
            campaign::print(out, dataset, &report.rows)?;
        }
        return write_report(
            args,
            out,
            "EXPERIMENT_campaign.csv",
            campaign::CAMPAIGN_CSV_SCHEMA,
            report.to_csv(),
            report.schema_version,
            report.to_json(),
        );
    }

    let defaults = if quick { SweepConfig::quick() } else { SweepConfig::default() };
    let config = SweepConfig {
        datasets: datasets.unwrap_or(defaults.datasets),
        alphas: parse_grid(args, "alphas")?.unwrap_or(defaults.alphas),
        budgets: parse_grid(args, "budgets")?.unwrap_or(defaults.budgets),
        pairs: pairs.unwrap_or(defaults.pairs),
        scale: scale.unwrap_or(defaults.scale),
        eval_samples: eval_samples.unwrap_or(defaults.eval_samples),
        seed: seed.unwrap_or(defaults.seed),
        threads,
        data_dir: data_dir.unwrap_or(defaults.data_dir),
    };
    config.validate()?;
    if ratio {
        let report = fig45::run(&config);
        for &dataset in &config.datasets {
            fig45::print(out, dataset, &report.rows)?;
        }
        return write_report(
            args,
            out,
            "EXPERIMENT_ratio.csv",
            fig45::RATIO_CSV_SCHEMA,
            report.to_csv(),
            report.schema_version,
            report.to_json(),
        );
    }
    let report = sweep::run(&config);
    for &dataset in &config.datasets {
        sweep::print(out, dataset, &report.rows)?;
    }
    write_report(
        args,
        out,
        "EXPERIMENT_table1.csv",
        sweep::CSV_SCHEMA,
        report.to_csv(),
        report.schema_version,
        report.to_json(),
    )
}

/// Writes an experiment report: the CSV to `--out-csv` (default
/// `default_csv`) and, with `--out-json`, the JSON, each with a `wrote`
/// line naming its schema.
fn write_report(
    args: &CliArgs,
    out: &mut impl Write,
    default_csv: &str,
    schema: &str,
    csv: raf_bench::csv::CsvTable,
    schema_version: u64,
    json: raf_bench::history::JsonValue,
) -> Result<(), Box<dyn std::error::Error>> {
    let csv_path = args.get("out-csv").unwrap_or(default_csv);
    csv.write_to_path(Path::new(csv_path))?;
    writeln!(out, "wrote {csv_path} ({} rows, schema {schema})", csv.len())?;
    if let Some(json_path) = args.get("out-json") {
        let mut text = json.render();
        text.push('\n');
        std::fs::write(json_path, text)?;
        writeln!(out, "wrote {json_path} (schema_version {schema_version})")?;
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

/// Parses a comma-separated grid flag (e.g. `--alphas 0.1,0.2,0.3`);
/// `None` when the flag is absent.
fn parse_grid<T: std::str::FromStr>(
    args: &CliArgs,
    flag: &str,
) -> Result<Option<Vec<T>>, Box<dyn std::error::Error>> {
    let Some(raw) = args.get(flag) else {
        return Ok(None);
    };
    match raw.split(',').map(|s| s.trim().parse::<T>()).collect::<Result<Vec<T>, _>>() {
        Ok(v) if !v.is_empty() => Ok(Some(v)),
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
            [--max-query-walks N] [--fault-plan SPEC]
  raf bench-json [--out FILE] [--scenario NAME] [--list-scenarios]
            [--quick] [--check-regression]
            [--topology NAME] [--nodes N] [--walks N] [--seed N]
            [--threads N] [--reps N] [--beta B]
  raf experiment [--dataset wiki|hepth|hepph|youtube|all] [--quick]
            [--alphas A,B,...] [--budgets N,M,...] [--pairs N]
            [--scale F] [--eval-samples N] [--seed N] [--threads N]
            [--data-dir DIR] [--out-csv FILE] [--out-json FILE]
            [--ratio | --targets K]

A flag the command does not read is an error.

run answers one query as a fresh `raf serve --walks W` session answers
the line `s t alpha W`, with W = --budget: it samples exactly W walks
from the pair's seed, then prints |I*|, the pool's |B1|, the cover
requirement p, beta and the pool's p_max estimate, and on a second line
the invitation set. The two commands never disagree. pmax samples the
same pair's walks, so `pmax --samples W` prints the p_max estimate that
run and serve print at W walks.

serve keeps the graph resident and answers `s t alpha [budget]` request
lines — one per line from --requests FILE, or from stdin by default —
as `ok`/`err` response lines on stdout, in request order, flushed per
line; a file and stdin run the same loop. Queries on the
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
whose walk budget exceeds the cap, answering `err ... overloaded` with
a retry hint. --fault-plan injects deterministic
faults (`panic@Q[:W]`, `alloc@Q:BYTES`, `slow@Q[:MS]`, `corrupt@Q`,
comma-separated; Q indexes queries in request order; a panic fires at
the first 256-walk block starting at or after walk W) to exercise the
recovery paths; an empty plan leaves output bit-identical. Answers
never depend on --threads: each walk is seeded by its index. A request
line `delta <+u:v|-u:v>[,...]` mutates the resident graph in place:
cached pools whose walks never touched a churned endpoint are kept,
the rest are repaired by resampling exactly the invalidated walk mass
(`ok delta ... repaired=R resampled=W`); a delta applies at its
position in the stream, so queries after it see the post-churn graph.

bench-json times sampling plus the cover solve and appends one stamped
history entry per scenario to FILE (default BENCH_sampling.json).
Without --scenario it runs the whole matrix (--quick: the CI-sized
slice, which skips the 1M-node cell). --check-regression fails when a
scenario's graph, pool or cost counts, or the digest of its pool's
paths, differ from the last committed entry of the same scenario and
profile; these counts do not depend on timing or threads. Fields that
entry predates are named and not compared. Timings against that entry are
printed and advisory. To accept an intended count change, commit the
entries the failing run appended. --walks, --threads and --reps must be
positive. Only --topology and --nodes define a custom one-off cell;
--walks/--seed/--threads/--reps/--beta override knobs matrix-wide and
reroute the runs to the `custom' lineage.

experiment answers the paper's evaluation (Sec. IV). By default it runs
the Table-I sweep: RAF vs HD/SP at matched size over an alpha × budget
grid per dataset, with |V_max| beside |I_RAF|, written to a
schema-versioned CSV (default EXPERIMENT_table1.csv; --out-json adds the
JSON flavour). Its nodes/edges/source columns are Table I (--scale 1 is
Table I size), one budget over --alphas 0.05,...,0.35 is Fig. 3, the
vmax and vmax_ratio columns of the alpha 0.1 rows are Table II, and the
budget axis of --alphas 0.3 --pairs 1 is Fig. 6. With --ratio it grows
HD and SP until they match RAF on the sweep's pairs and pools and bins
the size ratios (Figs. 4-5; the paper's panels are --alphas 0.3
--budgets 30000), written to EXPERIMENT_ratio.csv. With --targets K it
instead sweeps multi-target campaigns (K targets per screened source,
joint vs equal vs proportional budget splits over a --budgets grid;
--alphas does not apply) and writes EXPERIMENT_campaign.csv. Real SNAP
files in --data-dir (default data/) override the synthetic stand-ins.
--threads defaults to the RAF_THREADS environment variable. A sweep
cell's RAF answer is what `raf run --budget B` answers at its budget B.";

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
