//! Subcommand implementations.

use std::collections::HashMap;
use std::fmt::Write as _;

use ard_core::{Adversary, Discovery, Network, Variant};
use ard_lower_bounds::{tree_adversary, uf_reduction};
use ard_netsim::explore::{
    explore, explore_fork, fixtures, ExploreConfig, ExploreReport, ReduceMode,
};
use ard_netsim::shrink::shrink;
use ard_netsim::{NodeId, RandomScheduler, ReplayScheduler, Schedule, Scheduler};
use ard_overlay::{bootstrap, Key};
use ard_union_find::{alpha, OpSequence};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec;

/// A CLI failure: bad usage or a bad specification.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<spec::ParseSpecError> for CliError {
    fn from(e: spec::ParseSpecError) -> Self {
        CliError(e.to_string())
    }
}

fn usage() -> String {
    "\
usage: ard <command> [--flag value]...

commands:
  discover   run resource discovery
             --topology SPEC (default random:n=64,extra=128)
             --variant oblivious|bounded|adhoc (default adhoc)
             --scheduler fifo|lifo|random[:SEED]|bounded:D[,SEED] (default random)
             --max-steps N override the livelock step budget
             --trace N     print the first N trace events
             --dot PATH    write the final state as Graphviz DOT
             --stats       print per-node / per-link traffic hot spots
             --faults drop=P,dup=P,crash=N[,seed=S]
                           run under fault injection: lossy/duplicating
                           links and N crash/restart events, with every
                           node wrapped in the reliable-delivery layer
             --byzantine f=K[,seed=S][,class=C]
                           run with K seeded Byzantine nodes (classes:
                           equivocate, fabricate, silence, stale-restart;
                           default all) and report which guarantees
                           survive instead of asserting them
             --churn rate=R[,seed=S]
                           withhold ⌈R·n⌉ initial wake-ups and replay them
                           as scheduled joins, with as many departures
             --record PATH write the recorded schedule (faults, forgeries
                           and churn included) for `ard replay`
             --sweep T     run T independent trials (scheduler seeds S,
                           S+1, …; needs --scheduler random[:S]), one
                           summary line each
             --jobs N      with --sweep: run trials on N worker threads
                           (same output as 1)
  adversary  run the Theorem 1 subtree-freezing adversary
             --levels I    tree depth (default 8)
  reduction  run the Theorem 2 union-find reduction
             --sets N --finds M [--adversarial] [--seed S]
  overlay    discover, bootstrap a DHT ring and serve lookups
             --n N --lookups K [--seed S]
  baselines  compare against name-dropper / law-siu / flooding
             --n N [--seed S]
             --seeds T     run T independent trials (seeds S, S+3, S+6, …)
             --jobs N      run trials on N worker threads (same output as 1)
  explore    search interleavings for requirement/budget violations
             --topology SPEC (default random:n=16,extra=24)
             --variant oblivious|bounded|adhoc (default adhoc)
             --system discovery|racy:K|fragile:K|equiv:K (default
                           discovery; racy:K / fragile:K / equiv:K are
                           fixtures with a planted race / fault-dependent
                           / equivocation-dependent bug among K clients)
             --budget N    schedules to try: half random walks, half
                           branch-point DFS (default 64)
             --walks W     random walks to run before the DFS phase; the
                           remaining budget goes to DFS (default half;
                           --walks 0 makes the search pure DFS)
             --depth D     DFS branch-point depth (default 4)
             --seed S      base seed for the random walks (default 0)
             --faults drop=P,dup=P,crash=N[,seed=S]
                           inject faults into every candidate schedule, so
                           drops/dups/crashes join the search space
             --byzantine f=K[,seed=S][,class=C]
                           attach a Byzantine plan to every candidate
                           schedule, so forgeries/silence/stale restarts
                           join the search space
             --churn rate=R[,seed=S]
                           attach join/leave churn to every candidate
                           schedule
             --out PATH    file for the minimized failing schedule
                           (default ard-failure.schedule)
             --jobs N      worker threads for the random walks (the DFS
                           runs sequentially); results are byte-identical
                           at any value (default 1)
             --reduce [sleep|none]
                           dynamic partial-order reduction of the DFS
                           phase: sleep sets + terminal-state dedup prune
                           interleavings that only reorder independent
                           events (bare --reduce means sleep; default none)
             --stats       print reduction counters (sleep-pruned,
                           state-deduped)
             --check-snapshots
                           debug, fixtures only: re-execute every
                           checkpoint-forked DFS run from scratch and
                           panic on divergence
  replay     re-execute a recorded schedule file byte-for-byte
             ard replay <file> [--shrink [--out PATH]]
             --shrink      ddmin-minimize the replayed failure and write
                           the 1-minimal schedule (default <file>.min)
  help       print this text
"
    .to_string()
}

/// The flags each command reads; [`parse_flags`] rejects any other.
const COMMAND_FLAGS: &[(&str, &[&str])] = &[
    (
        "discover",
        &[
            "topology", "variant", "scheduler", "max-steps", "trace", "dot", "stats", "faults",
            "byzantine", "churn", "record", "sweep", "jobs",
        ],
    ),
    ("adversary", &["levels"]),
    ("reduction", &["sets", "finds", "adversarial", "seed"]),
    ("overlay", &["n", "lookups", "seed"]),
    ("baselines", &["n", "seed", "seeds", "jobs"]),
    (
        "explore",
        &[
            "topology", "variant", "system", "budget", "walks", "depth", "seed", "faults",
            "byzantine", "churn", "out", "jobs", "reduce", "stats", "check-snapshots",
        ],
    ),
    ("replay", &["shrink", "out"]),
];

/// Parses `--key value` pairs, rejecting any flag `command` does not read.
fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let known = COMMAND_FLAGS
        .iter()
        .find(|(name, _)| *name == command)
        .map_or(&[][..], |(_, flags)| flags);
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError(format!("expected --flag, got `{}`", args[i])))?;
        if !known.contains(&key) {
            return Err(CliError(format!("{command} does not take --{key}")));
        }
        if key == "adversarial"
            || key == "stats"
            || key == "check-snapshots"
            || key == "shrink"
        {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if key == "reduce" {
            // Optional value: bare `--reduce` means sleep-set reduction;
            // `--reduce none` turns it off explicitly.
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    flags.insert(key.to_string(), value.clone());
                    i += 2;
                }
                _ => {
                    flags.insert(key.to_string(), "sleep".to_string());
                    i += 1;
                }
            }
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn flag_usize(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("--{key}: `{v}` is not a number"))),
    }
}

fn flag_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError(format!("--{key}: `{v}` is not a number"))),
    }
}

/// Executes a full command line (without the program name) and returns the
/// report text.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, bad flags or bad specs.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(usage());
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "discover" => discover(parse_flags("discover", rest)?),
        "adversary" => adversary(parse_flags("adversary", rest)?),
        "reduction" => reduction(parse_flags("reduction", rest)?),
        "overlay" => overlay(parse_flags("overlay", rest)?),
        "baselines" => baselines(parse_flags("baselines", rest)?),
        "explore" => explore_cmd(parse_flags("explore", rest)?),
        "replay" => replay_cmd(rest),
        other => Err(CliError(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// Parses `--faults` / `--byzantine` / `--churn` into the run's adversary.
fn adversary_flags(flags: &HashMap<String, String>, n: usize) -> Result<Adversary, CliError> {
    Adversary::parse(
        flags.get("faults").map(String::as_str),
        flags.get("byzantine").map(String::as_str),
        flags.get("churn").map(String::as_str),
        n,
    )
    .map_err(|e| CliError(format!("invalid specification: {e}")))
}

/// Renders a guarantee verdict: `survives` or the failure it degraded to.
fn verdict(check: &Result<(), String>) -> String {
    match check {
        Ok(()) => "survives".to_string(),
        Err(reason) => format!("FAILS: {reason}"),
    }
}

/// Runs one discovery under the adversary the flags describe. Honest and
/// faulty runs fail on a broken requirement or budget; Byzantine and churn
/// runs report which guarantees survive instead. `--record` writes the
/// recorded schedule, injected events included, for `ard replay`.
fn discover(flags: HashMap<String, String>) -> Result<String, CliError> {
    let topology = flags
        .get("topology")
        .map(String::as_str)
        .unwrap_or("random:n=64,extra=128");
    let variant = spec::parse_variant(flags.get("variant").map(String::as_str).unwrap_or("adhoc"))?;
    let graph = spec::parse_topology(topology)?;
    let sched = spec::parse_scheduler(
        flags
            .get("scheduler")
            .map(String::as_str)
            .unwrap_or("random"),
    )?;
    let trace_limit = flag_usize(&flags, "trace", 0)?;
    let want_stats = flags.contains_key("stats");
    let adversary = adversary_flags(&flags, graph.len())?;

    let unsupported: &[&str] = match adversary {
        Adversary::Honest => &[],
        Adversary::Faults(_) => &["trace", "stats", "dot"],
        Adversary::Byzantine { .. } => &["sweep", "trace", "stats", "dot", "max-steps", "jobs"],
    };
    if let Some(flag) = unsupported.iter().find(|flag| flags.contains_key(**flag)) {
        return Err(CliError(format!(
            "--{flag} is not supported together with --faults/--byzantine/--churn"
        )));
    }
    if flags.contains_key("sweep") {
        if trace_limit > 0
            || want_stats
            || flags.contains_key("dot")
            || flags.contains_key("faults")
            || flags.contains_key("record")
            || flags.contains_key("max-steps")
        {
            return Err(CliError(
                "--sweep runs summary trials only: drop --trace/--stats/--dot/--faults/--record/--max-steps"
                    .into(),
            ));
        }
        return discover_sweep(&flags, topology, variant, &graph);
    }
    if flags.contains_key("jobs") {
        return Err(CliError("--jobs needs --sweep".into()));
    }

    let n = graph.len();
    let mut net = Network::new(&graph, variant, &adversary);
    if let Network::Bare(d) = &mut net {
        if trace_limit > 0 || want_stats {
            d.runner_mut().enable_trace();
        }
    }
    let budget = match flags.get("max-steps") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| CliError(format!("--max-steps: `{v}` is not a number")))?,
        None => adversary.step_budget(n),
    };
    let result = match flags.get("record") {
        Some(path) => {
            let (result, mut schedule) = net.record(&adversary, sched, budget);
            schedule.set_meta("topology", topology.to_string());
            std::fs::write(path, schedule.to_text())
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            result
        }
        None => net.run(&adversary, adversary.scheduler(sched, n).as_mut(), budget),
    };
    let report = result.map_err(|e| CliError(format!("simulation failed: {e}")))?;
    let outcome = &report.outcome;

    let mut out = String::new();
    writeln!(
        out,
        "topology  : {topology} ({} nodes, {} edges)",
        graph.len(),
        graph.edge_count()
    )
    .unwrap();
    writeln!(out, "variant   : {variant}").unwrap();
    let meta = adversary.meta();
    let meta_value = |key: &str| {
        meta.iter()
            .find(|(k, _)| *k == key)
            .map_or("(none)".to_string(), |(_, v)| v.clone())
    };
    match &adversary {
        Adversary::Honest => {}
        Adversary::Faults(_) => writeln!(out, "faults    : {}", meta_value("faults")).unwrap(),
        Adversary::Byzantine { .. } => {
            writeln!(out, "byzantine : {}", meta_value("byzantine")).unwrap();
            writeln!(out, "churn     : {}", meta_value("churn")).unwrap();
            if !report.traitors.is_empty() {
                writeln!(out, "traitors  : {:?}", report.traitors).unwrap();
            }
            if !report.joined.is_empty() || !report.left.is_empty() {
                writeln!(
                    out,
                    "membership: {:?} joined, {:?} left",
                    report.joined, report.left
                )
                .unwrap();
            }
        }
    }
    writeln!(out, "leaders   : {:?}", outcome.leaders).unwrap();
    writeln!(out, "steps     : {}", outcome.steps).unwrap();
    match &adversary {
        Adversary::Honest => writeln!(out, "requirements: satisfied").unwrap(),
        Adversary::Faults(_) => {
            let f = outcome.metrics.faults();
            writeln!(
                out,
                "injected  : {} drops, {} duplicates, {} crashes, {} restarts",
                f.drops, f.duplicates, f.crashes, f.restarts
            )
            .unwrap();
            writeln!(
                out,
                "recovery  : {} retransmits, {} acks, {} timer ticks",
                outcome.metrics.kind("retransmit").messages,
                outcome.metrics.kind("rd-ack").messages,
                f.ticks
            )
            .unwrap();
            writeln!(out, "requirements: satisfied (budgets checked net of overhead)").unwrap();
        }
        Adversary::Byzantine { .. } => {
            let b = outcome.metrics.byzantine();
            writeln!(
                out,
                "injected  : {} forgeries ({} no-op), {} silenced sends, {} stale restarts",
                b.forged, b.forge_noops, b.silenced, b.stale_restarts
            )
            .unwrap();
            writeln!(
                out,
                "churned   : {} joins, {} leaves, {} events discarded after leave",
                b.joins, b.leaves, b.leave_discards
            )
            .unwrap();
            writeln!(out, "single leader   : {}", verdict(&report.single_leader)).unwrap();
            writeln!(out, "leader knows all: {}", verdict(&report.leader_knows_all)).unwrap();
            writeln!(out, "budget lemmas   : {}", verdict(&report.budgets)).unwrap();
        }
    }
    write!(out, "{}", outcome.metrics).unwrap();
    if let Network::Bare(d) = &net {
        if trace_limit > 0 {
            writeln!(out, "trace:").unwrap();
            write!(
                out,
                "{}",
                d.runner().trace().expect("enabled").render(trace_limit)
            )
            .unwrap();
        }
        if want_stats {
            let stats = d.runner().trace().expect("enabled").stats();
            writeln!(out, "traffic hot spots:").unwrap();
            for (node, count) in stats.top_senders(5) {
                writeln!(out, "  {node:<6} sent {count} messages").unwrap();
            }
            if let Some(((src, dst), count)) = stats.busiest_link() {
                writeln!(out, "  busiest link: {src} → {dst} ({count} messages)").unwrap();
            }
        }
        if let Some(path) = flags.get("dot") {
            std::fs::write(path, d.to_dot())
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            writeln!(out, "dot       : written to {path}").unwrap();
        }
    }
    if let Some(path) = flags.get("record") {
        writeln!(
            out,
            "schedule  : written to {path} (re-run with `ard replay {path}`)"
        )
        .unwrap();
    }
    Ok(out)
}

/// Runs `--sweep T` independent discovery trials over consecutive scheduler
/// seeds, one summary line each. Trials execute on `--jobs` worker threads
/// but are merged back in seed order, so the report is byte-identical at
/// any job count.
fn discover_sweep(
    flags: &HashMap<String, String>,
    topology: &str,
    variant: Variant,
    graph: &ard_graph::KnowledgeGraph,
) -> Result<String, CliError> {
    let trials = flag_usize(flags, "sweep", 0)?;
    let jobs = flag_usize(flags, "jobs", 1)?;
    if trials == 0 {
        return Err(CliError("--sweep must be ≥ 1".into()));
    }
    if jobs == 0 {
        return Err(CliError("--jobs must be ≥ 1".into()));
    }
    let sched_spec = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("random");
    let base = match sched_spec.strip_prefix("random") {
        Some("") => 0,
        Some(rest) => rest
            .strip_prefix(':')
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| {
                CliError(format!("--sweep: bad scheduler seed in `{sched_spec}`"))
            })?,
        None => {
            return Err(CliError(
                "--sweep varies the seed, so it needs --scheduler random[:SEED]".into(),
            ))
        }
    };

    let seeds: Vec<u64> = (0..trials as u64).map(|i| base.wrapping_add(i)).collect();
    let lines = ard_netsim::par::parallel_map(jobs, seeds, |seed| -> Result<String, CliError> {
        let outcome = ard_core::run(
            graph,
            variant,
            &Adversary::Honest,
            &mut RandomScheduler::seeded(seed),
        )
        .map_err(|e| CliError(format!("seed {seed}: simulation failed: {e}")))?
        .outcome;
        Ok(format!(
            "seed {seed:>4}: leaders {:?}, {} steps, {} msgs, {} bits",
            outcome.leaders,
            outcome.steps,
            outcome.metrics.total_messages(),
            outcome.metrics.total_bits()
        ))
    });

    let mut out = String::new();
    writeln!(
        out,
        "topology  : {topology} ({} nodes, {} edges)",
        graph.len(),
        graph.edge_count()
    )
    .unwrap();
    writeln!(out, "variant   : {variant}").unwrap();
    writeln!(out, "sweep     : {trials} trials, scheduler seeds {base}..={}", base.wrapping_add(trials as u64 - 1)).unwrap();
    for line in lines {
        writeln!(out, "  {}", line?).unwrap();
    }
    writeln!(out, "requirements: satisfied in every trial").unwrap();
    Ok(out)
}

fn adversary(flags: HashMap<String, String>) -> Result<String, CliError> {
    let levels = flag_usize(&flags, "levels", 8)? as u32;
    if !(2..=16).contains(&levels) {
        return Err(CliError("--levels must be in 2..=16".into()));
    }
    let r = tree_adversary::run(levels);
    Ok(format!(
        "T({levels}): n = {}\nforced messages : {}\nTheorem 1 bound : {}\nratio           : {:.2}\n",
        r.n,
        r.messages,
        r.bound,
        r.messages as f64 / r.bound as f64
    ))
}

fn reduction(flags: HashMap<String, String>) -> Result<String, CliError> {
    let sets = flag_usize(&flags, "sets", 64)?;
    let finds = flag_usize(&flags, "finds", 32)?;
    let seed = flag_u64(&flags, "seed", 0)?;
    if sets == 0 {
        return Err(CliError("--sets must be ≥ 1".into()));
    }
    let seq = if flags.contains_key("adversarial") {
        OpSequence::adversarial_deep(sets, finds)
    } else {
        OpSequence::random(sets, finds, seed)
    };
    let out = uf_reduction::run(&seq);
    Ok(format!(
        "union-find reduction: {} sets, {} unions, {} finds\nnetwork size N : {}\nmessages       : {}\nN·α(N,N)       : {}\nmsgs/N         : {:.2}\n",
        seq.n(),
        seq.union_count(),
        seq.find_count(),
        out.network_size,
        out.messages,
        out.n_alpha,
        out.messages as f64 / out.network_size as f64
    ))
}

fn overlay(flags: HashMap<String, String>) -> Result<String, CliError> {
    let n = flag_usize(&flags, "n", 64)?;
    let lookups = flag_usize(&flags, "lookups", 100)?;
    let seed = flag_u64(&flags, "seed", 0)?;
    if n == 0 {
        return Err(CliError("--n must be ≥ 1".into()));
    }
    let graph = ard_graph::gen::random_weakly_connected(n, 2 * n, seed);
    let mut d = Discovery::new(&graph, Variant::AdHoc);
    let mut sched = RandomScheduler::seeded(seed + 1);
    let outcome = d.run_all(&mut sched).map_err(|e| CliError(e.to_string()))?;
    let leader = outcome.leaders[0];
    let members: Vec<NodeId> = d.runner().node(leader).done().iter().copied().collect();
    let mut ring = bootstrap(&members);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let mut hops = 0u64;
    let mut worst = 0u32;
    for _ in 0..lookups {
        let key = Key::new(rng.gen());
        let from = members[rng.gen_range(0..members.len())];
        let r = ring
            .lookup_blocking(from, key, &mut sched)
            .map_err(|e| CliError(e.to_string()))?;
        hops += u64::from(r.hops);
        worst = worst.max(r.hops);
    }
    Ok(format!(
        "discovery : {} members in {} messages\noverlay   : {} lookups, avg {:.2} hops, worst {worst} (log2 n = {:.1})\ntraffic   : {} messages / {} bits\n",
        members.len(),
        outcome.metrics.total_messages(),
        lookups,
        hops as f64 / lookups.max(1) as f64,
        (n as f64).log2(),
        ring.runner().metrics().total_messages(),
        ring.runner().metrics().total_bits()
    ))
}

fn baselines(flags: HashMap<String, String>) -> Result<String, CliError> {
    let n = flag_usize(&flags, "n", 64)?;
    let seed = flag_u64(&flags, "seed", 0)?;
    let seeds = flag_usize(&flags, "seeds", 1)?;
    let jobs = flag_usize(&flags, "jobs", 1)?;
    if seeds == 0 {
        return Err(CliError("--seeds must be ≥ 1".into()));
    }
    if jobs == 0 {
        return Err(CliError("--jobs must be ≥ 1".into()));
    }
    // Each trial owns its graph seed and its seeded schedulers (base seed,
    // +1, +2 internally — hence the stride of 3), so trials parallelize
    // freely; merging reports in seed order makes the output independent of
    // the job count.
    let trial_seeds: Vec<u64> = (0..seeds as u64).map(|i| seed + 3 * i).collect();
    let reports = ard_netsim::par::parallel_map(jobs, trial_seeds, |s| baseline_trial(n, s));
    if seeds == 1 {
        return reports.into_iter().next().unwrap();
    }
    let mut out = String::new();
    for (i, report) in reports.into_iter().enumerate() {
        writeln!(out, "=== trial {} (seed {}) ===", i + 1, seed + 3 * i as u64).unwrap();
        out.push_str(&report?);
    }
    Ok(out)
}

fn baseline_trial(n: usize, seed: u64) -> Result<String, CliError> {
    let graph = ard_graph::gen::random_weakly_connected(n, 2 * n, seed);
    let mut out = String::new();
    writeln!(
        out,
        "random graph: {} nodes, {} edges",
        graph.len(),
        graph.edge_count()
    )
    .unwrap();
    for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
        let mut d = Discovery::new(&graph, variant);
        let o = d
            .run_all(&mut RandomScheduler::seeded(seed + 1))
            .map_err(|e| CliError(e.to_string()))?;
        writeln!(
            out,
            "{:<28} {:>9} msgs {:>12} bits",
            format!("abraham-dolev {variant}"),
            o.metrics.total_messages(),
            o.metrics.total_bits()
        )
        .unwrap();
    }
    let nd = ard_baselines::name_dropper::run(&graph, seed);
    writeln!(
        out,
        "{:<28} {:>9} msgs {:>12} bits",
        "name-dropper",
        nd.metrics().total_messages(),
        nd.metrics().total_bits()
    )
    .unwrap();
    let ls = ard_baselines::law_siu::run(&graph, seed);
    writeln!(
        out,
        "{:<28} {:>9} msgs {:>12} bits",
        "law-siu push-pull",
        ls.metrics().total_messages(),
        ls.metrics().total_bits()
    )
    .unwrap();
    if n <= 192 {
        let mut sched = RandomScheduler::seeded(seed + 2);
        let (fl, _) = ard_baselines::flood::run(&graph, &mut sched, 100_000_000)
            .map_err(|e| CliError(e.to_string()))?;
        writeln!(
            out,
            "{:<28} {:>9} msgs {:>12} bits",
            "flooding",
            fl.metrics().total_messages(),
            fl.metrics().total_bits()
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "{:<28} (skipped: infeasible above ~192 nodes)",
            "flooding"
        )
        .unwrap();
    }
    let alpha_nn = alpha(n as u64, n as u64);
    writeln!(out, "(α(n,n) = {alpha_nn})").unwrap();
    Ok(out)
}

/// The system an `explore`/`replay` invocation drives: the discovery
/// protocol under an [`Adversary`], or one of the planted-bug demo
/// fixtures.
enum System {
    Discovery {
        topology: String,
        variant: Variant,
        adversary: Adversary,
    },
    Racy {
        clients: usize,
    },
    Fragile {
        clients: usize,
    },
    Equiv {
        candidates: usize,
    },
}

impl System {
    /// Reconstructs the system a schedule file was recorded against, from
    /// its metadata.
    fn from_schedule(schedule: &Schedule) -> Result<Self, CliError> {
        if let Some(spec) = schedule.meta("system") {
            return Self::parse_fixture(spec);
        }
        let topology = schedule
            .meta("topology")
            .ok_or_else(|| CliError("schedule has neither `system` nor `topology` meta".into()))?;
        let variant = spec::parse_variant(
            schedule
                .meta("variant")
                .ok_or_else(|| CliError("schedule has no `variant` meta".into()))?,
        )?;
        let n = spec::parse_topology(topology)?.len();
        Ok(System::Discovery {
            topology: topology.to_string(),
            variant,
            adversary: Adversary::from_schedule(schedule, n).map_err(CliError)?,
        })
    }

    fn parse_fixture(spec: &str) -> Result<Self, CliError> {
        let (kind, clients) = spec.split_once(':').ok_or_else(|| {
            CliError(format!(
                "unknown system `{spec}` (try discovery, racy:K, fragile:K, equiv:K)"
            ))
        })?;
        let clients = clients
            .parse::<usize>()
            .map_err(|_| CliError(format!("{kind}: `{clients}` is not a client count")))?;
        if clients == 0 {
            return Err(CliError(format!("{kind} needs at least one client")));
        }
        match kind {
            "racy" => Ok(System::Racy { clients }),
            "fragile" => Ok(System::Fragile { clients }),
            "equiv" => {
                if clients < 2 {
                    return Err(CliError(
                        "equiv needs at least two candidates (a second leader needs a second candidate)".into(),
                    ));
                }
                Ok(System::Equiv { candidates: clients })
            }
            other => Err(CliError(format!(
                "unknown system `{other}` (try discovery, racy:K, fragile:K, equiv:K)"
            ))),
        }
    }

    /// Number of nodes in the system — the domain crash events draw from.
    fn node_count(&self) -> Result<usize, CliError> {
        match self {
            System::Discovery { topology, .. } => Ok(spec::parse_topology(topology)?.len()),
            // The fixtures are one hub/coordinator/voter plus K clients.
            System::Racy { clients } | System::Fragile { clients } => Ok(clients + 1),
            System::Equiv { candidates } => Ok(candidates + 1),
        }
    }

    /// Stamps the metadata replay needs to rebuild this system.
    fn stamp(&self, schedule: &mut Schedule) {
        match self {
            System::Discovery {
                topology,
                variant,
                adversary,
            } => {
                schedule.set_meta("topology", topology.clone());
                schedule.set_meta("variant", variant.to_string());
                adversary.stamp(schedule);
            }
            System::Racy { clients } => {
                schedule.set_meta("system", format!("racy:{clients}"));
            }
            System::Fragile { clients } => {
                schedule.set_meta("system", format!("fragile:{clients}"));
            }
            System::Equiv { candidates } => {
                schedule.set_meta("system", format!("equiv:{candidates}"));
            }
        }
    }

    /// The property closure shared by explore, shrink and replay: build the
    /// system from scratch, run it under `sched`, return `Err` on any
    /// violation. Injected events, if any, come from the scheduler (a
    /// fault-wrapped explorer or a replayed schedule), never from here.
    fn run_one(&self, sched: &mut dyn Scheduler) -> Result<(), String> {
        match self {
            System::Discovery {
                topology,
                variant,
                adversary,
            } => {
                let graph = spec::parse_topology(topology).map_err(|e| e.to_string())?;
                ard_core::run(&graph, *variant, adversary, sched)?.check()
            }
            System::Racy { clients } => fixtures::run_racy(*clients, sched),
            System::Fragile { clients } => fixtures::run_fragile(*clients, sched),
            System::Equiv { candidates } => fixtures::run_equiv(*candidates, sched),
        }
    }

    /// Runs an exploration over this system. The fixtures go through the
    /// checkpoint/fork path (their runs are cloneable); discovery runs
    /// through the run-to-completion closure contract.
    fn explore(&self, config: &ExploreConfig) -> ExploreReport {
        match self {
            System::Racy { clients } => explore_fork(config, &fixtures::RacySystem::new(*clients)),
            System::Fragile { clients } => {
                explore_fork(config, &fixtures::FragileSystem::new(*clients))
            }
            System::Equiv { candidates } => {
                explore_fork(config, &fixtures::EquivSystem::new(*candidates))
            }
            System::Discovery { .. } => {
                explore(config, || |sched: &mut dyn Scheduler| self.run_one(sched))
            }
        }
    }
}

fn explore_cmd(flags: HashMap<String, String>) -> Result<String, CliError> {
    let budget = flag_u64(&flags, "budget", 64)?;
    let walks = flag_u64(&flags, "walks", budget / 2)?;
    if walks > budget {
        return Err(CliError(format!(
            "--walks {walks} exceeds the --budget of {budget}"
        )));
    }
    let depth = flag_usize(&flags, "depth", 4)?;
    let seed = flag_u64(&flags, "seed", 0)?;
    let jobs = flag_usize(&flags, "jobs", 1)?;
    if jobs == 0 {
        return Err(CliError("--jobs must be ≥ 1".into()));
    }
    let out_path = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("ard-failure.schedule");
    let system = match flags.get("system").map(String::as_str) {
        None | Some("discovery") => {
            let topology = flags
                .get("topology")
                .map(String::as_str)
                .unwrap_or("random:n=16,extra=24");
            let variant = spec::parse_variant(
                flags.get("variant").map(String::as_str).unwrap_or("adhoc"),
            )?;
            // Parse eagerly so bad specs fail before any exploration.
            let n = spec::parse_topology(topology)?.len();
            System::Discovery {
                topology: topology.to_string(),
                variant,
                adversary: adversary_flags(&flags, n)?,
            }
        }
        Some(other) => System::parse_fixture(other)?,
    };
    if flags.contains_key("check-snapshots") && matches!(system, System::Discovery { .. }) {
        // Only forkable systems resume runs from snapshots; discovery runs
        // from scratch, so there would be nothing to check.
        return Err(CliError(
            "--check-snapshots checks checkpoint-forked runs, which only the fixtures \
             have: use --system racy:K, fragile:K or equiv:K"
                .into(),
        ));
    }
    let n = system.node_count()?;
    // The plans every candidate schedule carries: the discovery system's
    // own adversary, or the flags' plans over a fixture's nodes.
    let adversary = match &system {
        System::Discovery { adversary, .. } => adversary.clone(),
        _ => adversary_flags(&flags, n)?,
    };
    let reduce = match flags.get("reduce").map(String::as_str) {
        None | Some("none") => ReduceMode::None,
        Some("sleep") => ReduceMode::Sleep,
        Some(other) => {
            return Err(CliError(format!(
                "--reduce takes `sleep` or `none`, got `{other}`"
            )))
        }
    };

    let config = ExploreConfig {
        random_walks: walks,
        dfs_budget: budget - walks,
        dfs_depth: depth,
        seed,
        fault: match &adversary {
            Adversary::Faults(plan) => Some(plan.clone()),
            _ => None,
        },
        byzantine: match &adversary {
            Adversary::Byzantine { plan, .. } => plan.clone().map(|plan| (plan, n)),
            _ => None,
        },
        churn: match &adversary {
            Adversary::Byzantine { churn, .. } => churn.clone().map(|plan| (plan, n)),
            _ => None,
        },
        jobs,
        verify_snapshots: flags.contains_key("check-snapshots"),
        reduce,
    };
    let report = system.explore(&config);
    let mut out = String::new();
    writeln!(
        out,
        "explored  : {} schedules ({} random walks, {} dfs, depth {depth})",
        report.runs, report.random_walks, report.dfs_runs
    )
    .unwrap();
    match &adversary {
        Adversary::Faults(plan) => writeln!(
            out,
            "faults    : drop={}, dup={}, crash={} (seed {})",
            plan.drop,
            plan.dup,
            plan.crashes.len(),
            plan.seed
        )
        .unwrap(),
        _ => {
            for (key, value) in adversary.meta() {
                writeln!(out, "{key:<9} : {value}").unwrap();
            }
        }
    }
    if flags.contains_key("stats") {
        writeln!(
            out,
            "reduction : mode={reduce}, sleep-pruned={}, state-deduped={}",
            report.sleep_pruned, report.digest_deduped
        )
        .unwrap();
    }
    let Some(failure) = report.failure else {
        writeln!(out, "result    : no violation found").unwrap();
        writeln!(out, "stopped   : {}", report.stop).unwrap();
        return Ok(out);
    };
    writeln!(out, "violation : {}", failure.reason).unwrap();
    writeln!(
        out,
        "found by  : {} (run {} of the exploration)",
        failure.origin,
        failure.run_index + 1
    )
    .unwrap();
    let shrunk = shrink(&failure.schedule, || {
        |sched: &mut dyn Scheduler| system.run_one(sched)
    });
    writeln!(
        out,
        "shrunk    : {} → {} choices ({} candidate runs)",
        shrunk.original_len,
        shrunk.schedule.len(),
        shrunk.attempts
    )
    .unwrap();
    let mut schedule = shrunk.schedule;
    system.stamp(&mut schedule);
    std::fs::write(out_path, schedule.to_text())
        .map_err(|e| CliError(format!("cannot write {out_path}: {e}")))?;
    writeln!(out, "replay    : {out_path} (re-run with `ard replay {out_path}`)").unwrap();
    Ok(out)
}

fn replay_cmd(args: &[String]) -> Result<String, CliError> {
    let Some((path, rest)) = args.split_first() else {
        return Err(CliError("replay needs a schedule file: ard replay <file>".into()));
    };
    if path.starts_with("--") {
        return Err(CliError("replay needs a schedule file: ard replay <file>".into()));
    }
    let flags = parse_flags("replay", rest)?;
    let want_shrink = flags.contains_key("shrink");
    if !want_shrink && flags.contains_key("out") {
        return Err(CliError("--out needs --shrink".into()));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let schedule = Schedule::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
    let system = System::from_schedule(&schedule)?;
    schedule
        .check_nodes(system.node_count()?)
        .map_err(|e| CliError(format!("{path}: {e}")))?;

    let mut out = String::new();
    writeln!(out, "schedule  : {} choices from {path}", schedule.len()).unwrap();
    for (k, v) in schedule.meta_iter() {
        writeln!(out, "meta      : {k} = {v}").unwrap();
    }
    let mut replay = ReplayScheduler::strict(&schedule);
    let reproduced = match system.run_one(&mut replay) {
        Err(reason) => {
            writeln!(out, "result    : violation reproduced: {reason}").unwrap();
            true
        }
        Ok(()) => {
            writeln!(out, "result    : schedule replayed cleanly (no violation)").unwrap();
            false
        }
    };
    if replay.leftover() > 0 {
        writeln!(
            out,
            "note      : {} events still pending (schedule is a truncation)",
            replay.leftover()
        )
        .unwrap();
    }
    if want_shrink {
        if !reproduced {
            return Err(CliError(
                "--shrink needs a failing schedule, but the replay found no violation".into(),
            ));
        }
        let shrunk = shrink(&schedule, || {
            |sched: &mut dyn Scheduler| system.run_one(sched)
        });
        writeln!(
            out,
            "shrunk    : {} → {} choices ({} candidate runs)",
            shrunk.original_len,
            shrunk.schedule.len(),
            shrunk.attempts
        )
        .unwrap();
        let default_out = format!("{path}.min");
        let out_path = flags.get("out").map(String::as_str).unwrap_or(&default_out);
        std::fs::write(out_path, shrunk.schedule.to_text())
            .map_err(|e| CliError(format!("cannot write {out_path}: {e}")))?;
        writeln!(
            out,
            "written   : {out_path} (re-run with `ard replay {out_path}`)"
        )
        .unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(run(&[]).unwrap().contains("usage:"));
        assert!(run_line("help").unwrap().contains("commands:"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run_line("launch").unwrap_err();
        assert!(err.0.contains("unknown command"));
        assert!(err.0.contains("usage:"));
    }

    #[test]
    fn discover_runs_and_reports() {
        let out =
            run_line("discover --topology ring:12 --variant bounded --scheduler fifo").unwrap();
        assert!(out.contains("requirements: satisfied"));
        assert!(out.contains("leaders"));
    }

    #[test]
    fn discover_with_trace() {
        let out = run_line("discover --topology path:4 --scheduler fifo --trace 5").unwrap();
        assert!(out.contains("trace:"));
        assert!(out.contains("wake"));
    }

    #[test]
    fn discover_with_stats() {
        let out = run_line("discover --topology ring:8 --scheduler fifo --stats").unwrap();
        assert!(out.contains("traffic hot spots:"));
        assert!(out.contains("busiest link:"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for line in [
            "discover --topology ring:8 --shards 2",
            "discover --topology ring:8 --turbo 9",
        ] {
            let err = run_line(line).unwrap_err();
            assert!(err.0.contains("discover does not take --"), "{line}: {}", err.0);
        }
        for line in [
            "adversary --levels 4 --seed 1",
            "reduction --sets 16 --check",
            "overlay --n 24 --jobs 2",
            "baselines --n 24 --lookups 3",
            "explore --system racy:3 --scheduler fifo",
        ] {
            assert!(run_line(line).is_err(), "{line} was accepted");
        }
        let err = run_line("replay some.schedule --shrink --jobs 2").unwrap_err();
        assert!(err.0.contains("replay does not take --jobs"), "{}", err.0);
        // A known flag with a malformed value still errors, through the
        // core adversary parser.
        for line in [
            "discover --topology ring:8 --byzantine f=1,class=bribe",
            "explore --system equiv:2 --byzantine f=1,class=bribe",
        ] {
            let err = run_line(line).unwrap_err();
            assert!(err.0.contains("unknown byzantine class `bribe`"), "{line}: {}", err.0);
        }
    }

    #[test]
    fn discover_max_steps_caps_the_run() {
        let err = run_line("discover --topology ring:12 --scheduler fifo --max-steps 3").unwrap_err();
        assert!(err.0.contains("simulation failed"), "{}", err.0);
        let ok = run_line("discover --topology ring:12 --scheduler fifo --max-steps 100000").unwrap();
        assert!(ok.contains("requirements: satisfied"));
    }

    #[test]
    fn discover_rejects_bad_spec() {
        assert!(run_line("discover --topology blob:9").is_err());
        assert!(run_line("discover --variant mystery").is_err());
        assert!(run_line("discover --scheduler psychic").is_err());
    }

    #[test]
    fn adversary_reports_bound() {
        let out = run_line("adversary --levels 4").unwrap();
        assert!(out.contains("Theorem 1 bound : 30"));
        assert!(run_line("adversary --levels 1").is_err());
    }

    #[test]
    fn reduction_runs() {
        let out = run_line("reduction --sets 16 --finds 8").unwrap();
        assert!(out.contains("network size N : 39"));
        let out = run_line("reduction --sets 16 --finds 4 --adversarial").unwrap();
        assert!(out.contains("union-find reduction"));
    }

    #[test]
    fn overlay_runs() {
        let out = run_line("overlay --n 24 --lookups 10").unwrap();
        assert!(out.contains("24 members"));
        assert!(out.contains("10 lookups"));
    }

    #[test]
    fn baselines_run() {
        let out = run_line("baselines --n 24").unwrap();
        assert!(out.contains("name-dropper"));
        assert!(out.contains("law-siu"));
        assert!(out.contains("flooding"));
    }

    #[test]
    fn baselines_jobs_do_not_change_output() {
        let parallel = run_line("baselines --n 16 --seeds 3 --jobs 4").unwrap();
        let sequential = run_line("baselines --n 16 --seeds 3 --jobs 1").unwrap();
        assert_eq!(parallel, sequential);
        assert!(parallel.contains("=== trial 3 (seed 6) ==="));
        assert!(run_line("baselines --n 16 --jobs 0").is_err());
        assert!(run_line("baselines --n 16 --seeds 0").is_err());
    }

    #[test]
    fn flag_parsing_rejects_orphans() {
        assert!(run_line("discover --topology").is_err());
        assert!(run_line("discover topology ring:5").is_err());
    }

    #[test]
    fn explore_discovery_reports_no_violation() {
        let out =
            run_line("explore --topology path:6 --variant oblivious --budget 8 --depth 2").unwrap();
        assert!(out.contains("explored  : 8 schedules (4 random walks, 4 dfs"));
        assert!(out.contains("no violation found"));
    }

    #[test]
    fn explore_finds_shrinks_and_writes_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-racy.schedule");
        let path = path.to_str().unwrap().to_string();
        let report =
            run_line(&format!("explore --system racy:3 --budget 32 --out {path}")).unwrap();
        assert!(report.contains("violation : lease granted to highest-id client"));
        assert!(report.contains("found by  :"));
        assert!(report.contains("shrunk    :"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("violation reproduced: lease granted"));
        assert!(replayed.contains("meta      : system = racy:3"));
    }

    #[test]
    fn explore_same_flags_same_stdout() {
        let line = "explore --topology ring:6 --variant adhoc --budget 6 --depth 2 --seed 7";
        assert_eq!(run_line(line).unwrap(), run_line(line).unwrap());
    }

    #[test]
    fn explore_reports_why_it_stopped() {
        let out =
            run_line("explore --topology path:6 --variant oblivious --budget 8 --depth 2").unwrap();
        assert!(
            out.contains("stopped   : frontier exhausted")
                || out.contains("stopped   : budget exhausted"),
            "{out}"
        );
    }

    #[test]
    fn explore_reduce_finds_the_same_race_and_prints_stats() {
        let path = std::env::temp_dir().join("ard-cli-test-reduce.schedule");
        let path = path.to_str().unwrap().to_string();
        let reduced = run_line(&format!(
            "explore --system racy:3 --budget 32 --depth 7 --reduce --stats --out {path}"
        ))
        .unwrap();
        assert!(reduced.contains("violation : lease granted to highest-id client"));
        assert!(reduced.contains("reduction : mode=sleep, sleep-pruned="), "{reduced}");
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("violation reproduced: lease granted"));
        // `--reduce none` is the explicit off switch and changes nothing
        // about the default output.
        let off = run_line("explore --system racy:3 --budget 32 --depth 7 --reduce none --stats")
            .unwrap();
        assert!(off.contains("reduction : mode=none, sleep-pruned=0, state-deduped=0"), "{off}");
        assert!(run_line("explore --system racy:3 --reduce bogus").is_err());
    }

    #[test]
    fn explore_walks_controls_the_phase_split() {
        let path = std::env::temp_dir().join("ard-cli-test-walks.schedule");
        let path = path.to_str().unwrap().to_string();
        let pure_dfs = run_line(&format!(
            "explore --system racy:3 --budget 32 --walks 0 --depth 7 --out {path}"
        ))
        .unwrap();
        assert!(pure_dfs.contains("(0 random walks,"), "{pure_dfs}");
        assert!(pure_dfs.contains("violation : lease granted to highest-id client"));
        let pure_walks =
            run_line("explore --topology path:4 --variant oblivious --budget 8 --walks 8").unwrap();
        assert!(pure_walks.contains("(8 random walks, 0 dfs,"), "{pure_walks}");
        let err = run_line("explore --system racy:3 --budget 8 --walks 9").unwrap_err();
        assert!(err.0.contains("exceeds the --budget"), "{}", err.0);
    }

    #[test]
    fn replay_same_file_same_stdout() {
        let graph = spec::parse_topology("ring:8").unwrap();
        let (result, mut schedule) = ard_core::record(
            &graph,
            Variant::AdHoc,
            &Adversary::Honest,
            RandomScheduler::seeded(3),
        );
        result.unwrap();
        schedule.set_meta("topology", "ring:8");
        let path = std::env::temp_dir().join("ard-cli-test-ring.schedule");
        std::fs::write(&path, schedule.to_text()).unwrap();
        let line = format!("replay {}", path.display());
        let a = run_line(&line).unwrap();
        assert_eq!(a, run_line(&line).unwrap());
        assert!(a.contains("result    : schedule replayed cleanly"));
        assert!(a.contains("meta      : variant = ad-hoc"));
    }

    #[test]
    fn replay_rejects_a_choice_outside_the_network() {
        let path = std::env::temp_dir().join("ard-cli-test-phantom.schedule");
        let header = "ard-schedule v2\nmeta topology ring:12\nmeta variant ad-hoc\n";
        for (body, named) in [
            ("c 100\n", "choice 1 (`c 100`) names node 100"),
            ("c 50\n", "choice 1 (`c 50`) names node 50"),
            ("w 0\nd 3 12\n", "choice 2 (`d 3 12`) names node 12"),
        ] {
            std::fs::write(&path, format!("{header}{body}")).unwrap();
            let err = run_line(&format!("replay {}", path.display())).unwrap_err();
            assert!(err.0.contains(named), "{}", err.0);
            assert!(err.0.contains("outside the 12-node network"), "{}", err.0);
        }
        // An id past the id space is a parse error, not a panic.
        std::fs::write(&path, format!("{header}c 99999999999\n")).unwrap();
        let err = run_line(&format!("replay {}", path.display())).unwrap_err();
        assert!(err.0.contains("`99999999999` is not a node index"), "{}", err.0);
        // A `nodes` meta that disagrees with the topology is rejected too.
        std::fs::write(&path, format!("{header}meta nodes 13\nw 0\n")).unwrap();
        let err = run_line(&format!("replay {}", path.display())).unwrap_err();
        assert!(err.0.contains("`nodes 13` disagrees with the 12-node network"), "{}", err.0);
        // Fixtures check against their own node count (hub plus clients).
        std::fs::write(&path, "ard-schedule v1\nmeta system racy:3\nw 4\n").unwrap();
        let err = run_line(&format!("replay {}", path.display())).unwrap_err();
        assert!(err.0.contains("choice 1 (`w 4`) names node 4, outside the 4-node network"), "{}", err.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn discover_faulty_records_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-faulty.schedule");
        let path = path.to_str().unwrap().to_string();
        let out = run_line(&format!(
            "discover --topology ring:10 --variant bounded --scheduler random:3 \
             --faults drop=0.1,dup=0.05,seed=5 --record {path}"
        ))
        .unwrap();
        assert!(out.contains("faults    : drop=0.1,dup=0.05,crash=0,seed=5"));
        assert!(out.contains("injected  :"));
        assert!(out.contains("requirements: satisfied"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : faults = drop=0.1,dup=0.05,crash=0,seed=5"));
        assert!(replayed.contains("result    : schedule replayed cleanly"));
    }

    #[test]
    fn discover_honest_records_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-honest.schedule");
        let path = path.to_str().unwrap().to_string();
        let plain = run_line("discover --topology ring:8 --scheduler random:3").unwrap();
        let out = run_line(&format!(
            "discover --topology ring:8 --scheduler random:3 --record {path}"
        ))
        .unwrap();
        // Recording adds one closing line and changes nothing else.
        assert_eq!(
            out,
            format!("{plain}schedule  : written to {path} (re-run with `ard replay {path}`)\n")
        );
        let leaders = out.lines().find(|l| l.starts_with("leaders   :")).unwrap();
        let schedule = Schedule::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let graph = spec::parse_topology("ring:8").unwrap();
        let replayed = ard_core::replay(&graph, Variant::AdHoc, &schedule).unwrap();
        assert_eq!(leaders, format!("leaders   : {:?}", replayed.outcome.leaders));
        let cli_replay = run_line(&format!("replay {path}")).unwrap();
        assert!(cli_replay.contains("meta      : topology = ring:8"), "{cli_replay}");
        assert!(cli_replay.contains("result    : schedule replayed cleanly"), "{cli_replay}");
    }

    #[test]
    fn discover_faulty_with_crashes_still_satisfies_requirements() {
        let out = run_line(
            "discover --topology random:n=12,extra=18,seed=2 --scheduler random:7 \
             --faults drop=0.05,crash=2,seed=11",
        )
        .unwrap();
        assert!(out.contains("2 crashes, 2 restarts"));
        assert!(out.contains("requirements: satisfied"));
    }

    #[test]
    fn discover_rejects_bad_fault_flags() {
        assert!(run_line("discover --topology ring:6 --faults drop=1.5").is_err());
        assert!(run_line("discover --topology ring:6 --faults mangle=1").is_err());
        assert!(run_line("discover --topology ring:6 --record /nonexistent/out.schedule").is_err());
        assert!(run_line("discover --topology ring:6 --faults drop=0.1 --stats").is_err());
    }

    #[test]
    fn explore_with_faults_finds_the_fragile_bug() {
        let path = std::env::temp_dir().join("ard-cli-test-fragile.schedule");
        let path = path.to_str().unwrap().to_string();
        let report = run_line(&format!(
            "explore --system fragile:1 --budget 128 --faults drop=0.25,seed=1 --out {path}"
        ))
        .unwrap();
        assert!(report.contains("faults    : drop=0.25"));
        assert!(report.contains("violation :"), "{report}");
        assert!(report.contains("shrunk    :"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : system = fragile:1"));
        assert!(replayed.contains("violation reproduced"), "{replayed}");
    }

    #[test]
    fn discover_byzantine_reports_survival_and_records_a_replayable_schedule() {
        let path = std::env::temp_dir().join("ard-cli-test-byzantine.schedule");
        let path = path.to_str().unwrap().to_string();
        let line = format!(
            "discover --topology ring:12 --scheduler random:5 \
             --byzantine f=2,seed=7 --churn rate=0.2,seed=11 --record {path}"
        );
        let out = run_line(&line).unwrap();
        assert!(out.contains("byzantine : f=2,seed=7,classes=equivocate+fabricate+silence+stale-restart"));
        assert!(out.contains("churn     : rate=0.2,seed=11"));
        assert!(out.contains("traitors  : [n1, n5]"));
        assert!(out.contains("single leader   :"), "{out}");
        assert!(out.contains("leader knows all:"), "{out}");
        assert!(out.contains("budget lemmas   :"), "{out}");
        assert_eq!(run_line(&line).unwrap(), out, "byzantine discover must be deterministic");
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : byzantine = f=2,seed=7,classes="));
        assert!(replayed.contains("meta      : churn = rate=0.2,seed=11"));
    }

    #[test]
    fn discover_byzantine_survives_on_a_quiet_seed() {
        // Only silence injected, no churn: the bare protocol rides it out.
        let out = run_line(
            "discover --topology ring:8 --scheduler random:2 --byzantine f=1,seed=4,class=silence",
        )
        .unwrap();
        assert!(out.contains("byzantine : f=1,seed=4,classes=silence"));
        assert!(out.contains("single leader   : survives"), "{out}");
    }

    #[test]
    fn explore_equiv_finds_and_shrinks_the_equivocation() {
        let path = std::env::temp_dir().join("ard-cli-test-equiv.schedule");
        let path = path.to_str().unwrap().to_string();
        let report = run_line(&format!(
            "explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate --budget 64 --out {path}"
        ))
        .unwrap();
        assert!(report.contains("byzantine : f=1,seed=3,classes=equivocate"));
        assert!(report.contains("violation : forged endorsements elected 2 leaders"), "{report}");
        assert!(report.contains("shrunk    :"));
        let replayed = run_line(&format!("replay {path}")).unwrap();
        assert!(replayed.contains("meta      : system = equiv:3"));
        assert!(replayed.contains("violation reproduced: forged endorsements elected 2 leaders"));
    }

    #[test]
    fn equiv_is_clean_without_a_byzantine_plan() {
        let out = run_line("explore --system equiv:3 --budget 32").unwrap();
        assert!(out.contains("no violation found"), "{out}");
    }

    #[test]
    fn byzantine_flags_reject_bad_combinations() {
        // Byzantine runs use the bare protocol; link faults need Reliable.
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --faults drop=0.1").is_err());
        assert!(run_line("explore --system equiv:2 --byzantine f=1 --faults drop=0.1").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --stats").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --sweep 3").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1 --trace 5").is_err());
        // Bad specs fail loudly.
        assert!(run_line("discover --topology ring:6 --byzantine seed=3").is_err());
        assert!(run_line("discover --topology ring:6 --byzantine f=1,class=bribe").is_err());
        assert!(run_line("discover --topology ring:6 --churn rate=0.9").is_err());
        assert!(run_line("explore --system equiv:1").is_err());
    }

    #[test]
    fn explore_jobs_do_not_change_output() {
        let path = std::env::temp_dir().join("ard-cli-test-parallel.schedule");
        let path = path.to_str().unwrap().to_string();
        let line = |jobs: usize| {
            format!("explore --system racy:3 --budget 32 --jobs {jobs} --out {path}")
        };
        let sequential = run_line(&line(1)).unwrap();
        for jobs in [2, 4] {
            assert_eq!(run_line(&line(jobs)).unwrap(), sequential, "jobs={jobs}");
        }
        assert!(!sequential.contains("jobs"), "job count must not leak into output");
        assert!(run_line("explore --system racy:2 --jobs 0").is_err());
    }

    #[test]
    fn explore_check_snapshots_output_is_unchanged() {
        let path = std::env::temp_dir().join("ard-cli-test-snap.schedule");
        let path = path.to_str().unwrap().to_string();
        let plain =
            run_line(&format!("explore --system racy:2 --budget 48 --depth 5 --out {path}"))
                .unwrap();
        let checked = run_line(&format!(
            "explore --system racy:2 --budget 48 --depth 5 --check-snapshots --jobs 2 --out {path}"
        ))
        .unwrap();
        assert_eq!(plain, checked);
    }

    #[test]
    fn explore_check_snapshots_needs_a_fixture() {
        // Discovery runs never fork from snapshots, so the flag would
        // check nothing: it is rejected, naming the systems that fork.
        for line in [
            "explore --budget 4 --check-snapshots",
            "explore --system discovery --topology ring:6 --budget 4 --check-snapshots",
        ] {
            let err = run_line(line).unwrap_err();
            assert!(err.0.contains("--check-snapshots"), "{line}: {}", err.0);
            assert!(
                err.0.contains("racy:K, fragile:K or equiv:K"),
                "{line}: {}",
                err.0
            );
        }
    }

    #[test]
    fn replay_shrink_minimizes_and_writes() {
        use ard_netsim::explore::{explore, ExploreConfig};
        // An *unshrunk* failing schedule, as the explorer first found it.
        let report = explore(&ExploreConfig::default(), || {
            |s: &mut dyn Scheduler| fixtures::run_racy(3, s)
        });
        let mut schedule = report.failure.expect("explorer finds the race").schedule;
        schedule.set_meta("system", "racy:3");
        let path = std::env::temp_dir().join("ard-cli-test-replay-shrink.schedule");
        std::fs::write(&path, schedule.to_text()).unwrap();
        let path = path.to_str().unwrap().to_string();

        let default_out = run_line(&format!("replay {path} --shrink")).unwrap();
        assert!(default_out.contains("violation reproduced"));
        assert!(default_out.contains("shrunk    :"));
        assert!(default_out.contains("written   :"));
        assert_eq!(
            run_line(&format!("replay {path} --shrink --out {path}.min")).unwrap(),
            default_out
        );
        let replayed = run_line(&format!("replay {path}.min")).unwrap();
        assert!(replayed.contains("violation reproduced"));
        assert!(replayed.contains("meta      : shrunk-from ="));

        // Flag hygiene: --out without --shrink, unknown flags, and
        // shrinking a passing schedule are all loud errors.
        assert!(run_line(&format!("replay {path} --out {path}.min")).is_err());
        assert!(run_line(&format!("replay {path} --jobs 2")).is_err());
        assert!(run_line(&format!("replay {path} --turbo 9")).is_err());
    }

    #[test]
    fn replay_shrink_rejects_a_passing_schedule() {
        let graph = spec::parse_topology("ring:6").unwrap();
        let (result, mut schedule) = ard_core::record(
            &graph,
            Variant::AdHoc,
            &Adversary::Honest,
            RandomScheduler::seeded(2),
        );
        result.unwrap();
        schedule.set_meta("topology", "ring:6");
        let path = std::env::temp_dir().join("ard-cli-test-clean-shrink.schedule");
        std::fs::write(&path, schedule.to_text()).unwrap();
        let err = run_line(&format!("replay {} --shrink", path.display())).unwrap_err();
        assert!(err.0.contains("no violation"));
    }

    #[test]
    fn discover_sweep_jobs_do_not_change_output() {
        let line = |jobs: usize| {
            format!("discover --topology ring:10 --scheduler random:5 --sweep 3 --jobs {jobs}")
        };
        let sequential = run_line(&line(1)).unwrap();
        assert!(sequential.contains("sweep     : 3 trials, scheduler seeds 5..=7"));
        assert!(sequential.contains("requirements: satisfied in every trial"));
        for jobs in [2, 4] {
            assert_eq!(run_line(&line(jobs)).unwrap(), sequential, "jobs={jobs}");
        }
        assert!(run_line("discover --topology ring:6 --sweep 2 --stats").is_err());
        assert!(run_line("discover --topology ring:6 --jobs 2").is_err());
        assert!(run_line("discover --topology ring:6 --scheduler fifo --sweep 2").is_err());
        assert!(run_line("discover --topology ring:6 --sweep 0").is_err());
    }

    #[test]
    fn explore_and_replay_reject_bad_input() {
        assert!(run_line("explore --system racy:0").is_err());
        assert!(run_line("explore --system warp").is_err());
        assert!(run_line("explore --topology blob:5").is_err());
        assert!(run_line("replay").is_err());
        assert!(run_line("replay --flag").is_err());
        assert!(run_line("replay /nonexistent/ard.schedule").is_err());
    }
}
