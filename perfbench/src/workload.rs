//! The four workloads and the measurement loop.
//!
//! Every input — graphs, scheduler seeds, fault plans, explorer seed —
//! derives from the one workload seed through [`sub_seed`], so a seed
//! repeats every count exactly. A run measures closed-loop iterations
//! (the next starts when the previous one has finished) until `seconds`
//! have passed, at least one, and reports medians over them.

use std::sync::Mutex;
use std::time::Instant;

use ard_core::Variant;
use ard_graph::{gen, KnowledgeGraph};
use ard_netsim::explore::{explore, ExploreConfig, ExploreReport, ReduceMode, StopReason};
use ard_netsim::{FaultPlan, Scheduler};

use crate::calib;
use crate::net::{variant_index, Bare, Job, Record, Sched, Traced, Wrapped, VARIANTS};
use crate::report::{median, ratio, Report};
use crate::span::{self, Totals};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["fifo-65k", "random-4k", "faulty-16k", "explore-32"];

/// The explorer configuration of `explore-32`: Ad-hoc, budget 8000 (half
/// random walks, half DFS), depth 10, sleep-set reduction, two workers.
fn explore_config(seed: u64) -> ExploreConfig {
    ExploreConfig {
        random_walks: 4000,
        dfs_budget: 4000,
        dfs_depth: 10,
        seed: sub_seed(seed, 4, 0),
        jobs: 2,
        reduce: ReduceMode::Sleep,
        ..ExploreConfig::default()
    }
}

/// Derives the `i`-th seed of `stream` from the workload seed (splitmix64).
fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// G(n, 3n): `gen::random_weakly_connected(n, 2n, seed)`.
fn graph(n: usize, seed: u64) -> KnowledgeGraph {
    gen::random_weakly_connected(n, 2 * n, seed)
}

/// The graphs of a discovery workload and the discoveries run on them.
struct Plan {
    graphs: Vec<KnowledgeGraph>,
    /// `(graph index, variant, scheduling)`.
    runs: Vec<(usize, Variant, Sched)>,
}

impl Plan {
    /// Generates the inputs of `workload` (the graph part of set-up).
    fn generate(workload: &str, seed: u64) -> Plan {
        match workload {
            "fifo-65k" => Plan {
                graphs: vec![graph(65_536, sub_seed(seed, 1, 0))],
                runs: VARIANTS.iter().map(|&v| (0, v, Sched::Fifo)).collect(),
            },
            "random-4k" => Plan {
                graphs: (0..16).map(|i| graph(4096, sub_seed(seed, 1, i))).collect(),
                runs: (0..16)
                    .flat_map(|g| {
                        VARIANTS.iter().map(move |&v| {
                            let k = 3 * g as u64 + variant_index(v) as u64;
                            (g, v, Sched::Random(sub_seed(seed, 2, k)))
                        })
                    })
                    .collect(),
            },
            "faulty-16k" => {
                let n = 16_384;
                Plan {
                    graphs: vec![graph(n, sub_seed(seed, 1, 0))],
                    runs: VARIANTS
                        .iter()
                        .map(|&v| {
                            let k = variant_index(v) as u64;
                            let plan = FaultPlan::new(sub_seed(seed, 3, k))
                                .with_drop(0.05)
                                .with_dup(0.02)
                                .with_spread_crashes(4, n);
                            (0, v, Sched::Faulty(sub_seed(seed, 2, k), plan))
                        })
                        .collect(),
                }
            }
            other => unreachable!("not a discovery workload: {other}"),
        }
    }

    fn jobs(&self, keep_text: bool) -> Vec<Job<'_>> {
        self.runs
            .iter()
            .map(|(g, variant, sched)| Job {
                graph: &self.graphs[*g],
                variant: *variant,
                sched: sched.clone(),
                keep_text,
            })
            .collect()
    }
}

/// Sums over the discoveries of one iteration.
#[derive(Clone, Debug, Default, PartialEq)]
struct Counts {
    runs: u64,
    failed: u64,
    n: u64,
    steps: u64,
    msgs: u64,
    bits: u64,
    depth: u64,
}

impl Counts {
    fn add(&mut self, rec: &Record) {
        self.runs += 1;
        self.failed += u64::from(rec.failure.is_some());
        self.n += rec.n;
        self.steps += rec.steps;
        self.msgs += rec.msgs;
        self.bits += rec.bits;
        self.depth += rec.depth;
    }
}

/// One untraced iteration's measurements.
struct Iter {
    setup_s: f64,
    wall_s: f64,
    run_s: f64,
    counts: Counts,
}

/// Prints a failed operation to standard error.
fn report_failure(what: &str, failure: &str) {
    eprintln!("perfbench: {what}: {failure}");
}

/// One untraced iteration of a discovery workload. Set-up is graph
/// generation plus network construction (`Discovery::new` /
/// `FaultyDiscovery::new`); the timed section is each `run_all` plus the
/// correctness gate. Each network is built just before its run and dropped
/// (untimed) right after, so only one is alive at a time.
fn bare_iteration(workload: &str, seed: u64, keep_text: bool) -> (Iter, Vec<Record>) {
    let t = Instant::now();
    let plan = Plan::generate(workload, seed);
    let mut setup_s = t.elapsed().as_secs_f64();
    let mut wall_s = 0.0;
    let mut records = Vec::with_capacity(plan.runs.len());
    for job in plan.jobs(keep_text) {
        let t = Instant::now();
        let mut net = Bare::build(&job);
        setup_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        records.push(net.run(&job));
        wall_s += t.elapsed().as_secs_f64();
    }

    let mut counts = Counts::default();
    for rec in &records {
        counts.add(rec);
        if let Some(f) = &rec.failure {
            report_failure(workload, f);
        }
    }
    let run_s = records.iter().map(|r| r.run_s).sum();
    (
        Iter {
            setup_s,
            wall_s,
            run_s,
            counts,
        },
        records,
    )
}

/// Extra set-up-only repetitions of a discovery workload, on top of the
/// one each measured iteration performs.
const SETUP_REPEATS: usize = 4;

/// Set-up of a discovery workload on its own: graph generation plus the
/// construction of every network (each dropped, untimed, before the next).
fn discovery_setup(workload: &str, seed: u64) -> f64 {
    let t = Instant::now();
    let plan = Plan::generate(workload, seed);
    let mut setup_s = t.elapsed().as_secs_f64();
    for job in plan.jobs(false) {
        let t = Instant::now();
        let net = Bare::build(&job);
        setup_s += t.elapsed().as_secs_f64();
        drop(net);
    }
    setup_s
}

/// Prints a run's samples of `name` to standard error (the result line
/// carries only their median).
fn samples(name: &str, values: impl Iterator<Item = f64>) {
    let v: Vec<String> = values.map(|x| format!("{x:.6}")).collect();
    eprintln!("perfbench: {} samples of {name}: {}", v.len(), v.join(" "));
}

/// Repeats `step` until `seconds` have passed (at least once), timing the
/// calibration kernel before the first iteration and after every one. Each
/// result comes with the factor that normalises its times: the reference
/// over the mean kernel time on either side of it.
fn closed_loop<T>(seconds: f64, mut step: impl FnMut() -> T) -> Vec<(T, f64)> {
    let start = Instant::now();
    let mut kernel = vec![calib::speed_s()];
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(step());
        kernel.push(calib::speed_s());
    }
    samples("kernel_s", kernel.iter().copied());
    out.into_iter()
        .zip(kernel.windows(2))
        .map(|(t, k)| (t, 2.0 * calib::REFERENCE_S / (k[0] + k[1])))
        .collect()
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `workload` untraced and reports the end-to-end metrics.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Report {
    if workload == "explore-32" {
        return explore_end_to_end(seed, seconds);
    }
    // Set-up is short next to a run: sample it a few more times on its own.
    let mut setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| discovery_setup(workload, seed))
        .collect();
    let f = calib::factor();
    setup.iter_mut().for_each(|s| *s *= f);
    let iters = closed_loop(seconds, || bare_iteration(workload, seed, false).0);
    setup.extend(iters.iter().map(|(it, f)| it.setup_s * f));
    samples("wall_s", iters.iter().map(|(it, _)| it.wall_s));
    let mut report = Report::default();
    for (it, _) in &iters {
        report.attempted += it.counts.runs;
        report.failed += it.counts.failed;
    }
    // Same seed, same inputs: every iteration must count the same.
    if iters.iter().any(|(it, _)| it.counts != iters[0].0.counts) {
        report.fail("count metrics differ between iterations of one seed");
    }
    let c = &iters[0].0.counts;
    let med =
        |g: &dyn Fn(&Iter, f64) -> f64| median(iters.iter().map(|(it, f)| g(it, *f)).collect());
    report.metric("setup_s", median(setup), "s");
    report.metric("wall_s", med(&|it, f| it.wall_s * f), "s");
    report.metric(
        "events_per_s",
        med(&|it, f| ratio(it.counts.steps as f64, it.run_s * f)),
        "1/s",
    );
    report.metric(
        "runs_per_s",
        med(&|it, f| ratio(it.counts.runs as f64, it.wall_s * f)),
        "1/s",
    );
    count_metrics(&mut report, c);
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report
}

fn count_metrics(report: &mut Report, c: &Counts) {
    report.metric("msgs_per_node", ratio(c.msgs as f64, c.n as f64), "count");
    report.metric("bits_per_node", ratio(c.bits as f64, c.n as f64), "count");
    report.metric(
        "causal_depth",
        ratio(c.depth as f64, c.runs as f64),
        "count",
    );
}

/// Accumulates the traced run of a discovery workload.
#[derive(Default)]
struct Layers {
    iterations: u64,
    totals: Totals,
    span_ns: u64,
    steps: u64,
    n: u64,
    discoveries: u64,
    gen_s: Vec<f64>,
    build_s: Vec<f64>,
    run_s: [Vec<f64>; 3],
    requirements_s: f64,
    budgets_s: f64,
    pending_max: u64,
    max_link_queue: u64,
    knowledge_bytes: u64,
    payload_bytes_sent: u64,
    payload_peak_bytes: u64,
    retransmits: u64,
    acks: u64,
    ticks: u64,
    deliveries: u64,
    reliable: bool,
    traced_wall_s: f64,
    untraced_wall_s: f64,
}

impl Layers {
    fn add(&mut self, job: &Job<'_>, rec: &Record, traced: &Traced) {
        self.totals.add(&traced.totals);
        self.span_ns += traced.span_ns;
        self.steps += rec.steps;
        self.n += rec.n;
        self.discoveries += 1;
        self.run_s[variant_index(job.variant)].push(rec.run_s);
        self.requirements_s += rec.requirements_s;
        self.budgets_s += rec.budgets_s;
        self.pending_max = self.pending_max.max(traced.pending_max);
        self.max_link_queue = self.max_link_queue.max(rec.max_link_queue);
        self.knowledge_bytes += rec.knowledge_bytes;
        self.payload_bytes_sent += rec.payload_bytes_sent;
        self.payload_peak_bytes = self.payload_peak_bytes.max(rec.payload_peak_bytes);
        self.retransmits += rec.retransmits;
        self.acks += rec.acks;
        self.ticks += rec.ticks;
        if matches!(job.sched, Sched::Faulty(..)) {
            self.reliable = true;
            self.deliveries += rec.deliveries;
        }
    }
}

/// Compares a traced discovery with its untraced twin: the wrappers must
/// be invisible to the program.
fn same_run(bare: &Record, traced: &Record) -> Result<(), String> {
    if bare.steps != traced.steps {
        return Err(format!(
            "traced run took {} steps, untraced {}",
            traced.steps, bare.steps
        ));
    }
    if bare.metrics_text != traced.metrics_text {
        return Err(format!(
            "traced metrics differ from untraced:\n{}\nvs\n{}",
            traced.metrics_text, bare.metrics_text
        ));
    }
    Ok(())
}

/// Runs `workload` traced and reports the per-layer metrics.
pub fn per_layer(workload: &str, seed: u64, seconds: f64) -> Report {
    if workload == "explore-32" {
        return explore_per_layer(seed, seconds);
    }
    let mut report = Report::default();
    let mut layers = Layers::default();
    let kernel_before = calib::speed_s();
    let start = Instant::now();
    while layers.iterations == 0 || start.elapsed().as_secs_f64() < seconds {
        // The untraced twin: the reference for the equality gate and the
        // denominator of the tracing overhead.
        let (bare, bare_records) = bare_iteration(workload, seed, true);
        layers.untraced_wall_s += bare.wall_s;
        report.attempted += bare.counts.runs;
        report.failed += bare.counts.failed;

        let t = Instant::now();
        let plan = Plan::generate(workload, seed);
        layers
            .gen_s
            .push(t.elapsed().as_secs_f64() / plan.graphs.len() as f64);
        let mut traced_records = Vec::with_capacity(plan.runs.len());
        for job in plan.jobs(true) {
            let t = Instant::now();
            let mut net = Wrapped::build(&job);
            layers.build_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (rec, traced) = net.run(&job);
            layers.traced_wall_s += t.elapsed().as_secs_f64();
            layers.add(&job, &rec, &traced);
            traced_records.push(rec);
        }
        for (b, t) in bare_records.iter().zip(&traced_records) {
            report.attempted += 1;
            if let Some(f) = &t.failure {
                report_failure(workload, f);
                report.failed += 1;
            } else if let Err(e) = same_run(b, t) {
                report.fail(&e);
            }
        }
        layers.iterations += 1;
    }
    discovery_layer_metrics(&mut report, &layers);
    explore_layer_metrics(&mut report, None);
    report.metric(
        "trace_overhead_ratio",
        ratio(layers.traced_wall_s, layers.untraced_wall_s),
        "ratio",
    );
    host_metric(&mut report, kernel_before);
    report
}

/// The layer metrics every traced run reports; a layer the workload does
/// not run reads 0.
fn discovery_layer_metrics(report: &mut Report, l: &Layers) {
    let t = &l.totals;
    let per_iter = |x: u64| ratio(x as f64, l.iterations as f64);
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let span = l.span_ns as f64;
    let mean_ns = |layer: usize| ratio(t.self_ns[layer] as f64, t.calls[layer] as f64);

    report.metric("graph.gen_s", mean(&l.gen_s), "s");
    report.metric("driver.build_s", mean(&l.build_s), "s");
    for (i, name) in ["oblivious", "bounded", "adhoc"].iter().enumerate() {
        report.metric(&format!("driver.{name}.run_s"), mean(&l.run_s[i]), "s");
    }

    report.metric("node.wake.ns", mean_ns(span::NODE_WAKE), "ns");
    report.metric(
        "node.wake.count",
        per_iter(t.calls[span::NODE_WAKE]),
        "count",
    );
    for (i, (_, name)) in span::NODE_KINDS.iter().enumerate().take(9) {
        let layer = span::NODE_KIND0 + i;
        report.metric(&format!("node.{name}.ns"), mean_ns(layer), "ns");
        report.metric(
            &format!("node.{name}.count"),
            per_iter(t.calls[layer]),
            "count",
        );
    }
    let node_ns = t.ns(Totals::node_layers());
    report.metric("node.share", ratio(node_ns as f64, span), "ratio");

    let (rel_ns, rel_steps, useful) = if l.reliable {
        let delivered = t.count(span::NODE_KIND0..span::LAYERS);
        (
            t.self_ns[span::RELIABLE] as f64,
            l.steps as f64,
            ratio(delivered as f64, l.deliveries as f64),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    report.metric("reliable.self_ns_per_event", ratio(rel_ns, rel_steps), "ns");
    report.metric("reliable.retransmits", per_iter(l.retransmits), "count");
    report.metric("reliable.acks", per_iter(l.acks), "count");
    report.metric("reliable.ticks", per_iter(l.ticks), "count");
    report.metric("reliable.useful_ratio", useful, "ratio");

    report.metric("scheduler.choose.ns", mean_ns(span::SCHED_CHOOSE), "ns");
    report.metric("scheduler.note_send.ns", mean_ns(span::SCHED_SEND), "ns");
    report.metric("scheduler.note_wake.ns", mean_ns(span::SCHED_WAKE), "ns");
    report.metric(
        "scheduler.choose.count",
        per_iter(t.calls[span::SCHED_CHOOSE]),
        "count",
    );
    report.metric("scheduler.pending_max", l.pending_max as f64, "count");
    let sched_ns = t.ns(Totals::sched_layers());
    report.metric("scheduler.share", ratio(sched_ns as f64, span), "ratio");

    let engine_ns = t.self_ns[span::ENGINE] as f64;
    report.metric(
        "runner.self_ns_per_event",
        ratio(engine_ns, l.steps as f64),
        "ns",
    );
    report.metric("runner.share", ratio(engine_ns, span), "ratio");
    report.metric("runner.max_link_queue", l.max_link_queue as f64, "count");
    report.metric(
        "runner.knowledge_bytes_per_node",
        ratio(l.knowledge_bytes as f64, l.n as f64),
        "B",
    );
    report.metric(
        "runner.payload_bytes_per_event",
        ratio(l.payload_bytes_sent as f64, l.steps as f64),
        "B",
    );
    report.metric(
        "runner.payload_peak_bytes",
        l.payload_peak_bytes as f64,
        "B",
    );

    // Self-time accounting: node + reliable + scheduler + engine self time
    // must make up the run span read outside the tracker. What is left is
    // time no layer claims (the tracker's own boundary cost); a handler or
    // scheduler call made outside a run span drives it negative.
    let attributed = t.ns(Totals::inner_layers()) as f64;
    let residual = ratio(span - attributed, span);
    report.metric("accounting.residual_ratio", residual, "ratio");
    if residual.abs() > 0.01 {
        report.fail(&format!(
            "layer self times leave {:.2}% of the run span unattributed",
            residual * 100.0
        ));
    }

    report.metric(
        "check.requirements_s",
        ratio(l.requirements_s, l.discoveries as f64),
        "s",
    );
    report.metric(
        "check.budgets_s",
        ratio(l.budgets_s, l.discoveries as f64),
        "s",
    );
}

/// Sums over every candidate run of one exploration (the explorer's
/// speculative runs included: at a fixed job count the set of executed
/// candidates is deterministic).
#[derive(Clone, Debug, Default, PartialEq)]
struct ExploreCounts {
    calls: u64,
    counts: Counts,
    /// Wrapping sum of per-candidate `Metrics` Display hashes (0 unless
    /// the candidates kept their text).
    text_hash: u64,
}

/// One exploration's results.
#[derive(Default)]
struct Exploration {
    report: ExploreReport,
    counts: ExploreCounts,
    wall_s: f64,
    /// Seconds inside `run_all`, summed over candidates (all workers).
    run_s: f64,
    /// Traced only: time inside the candidate closure, summed over
    /// candidates (all workers).
    closure_ns: u64,
}

impl Exploration {
    /// The explorer's own outputs, which tracing must not change.
    fn signature(&self) -> (u64, u64, u64, u64, StopReason, bool, &ExploreCounts) {
        let r = &self.report;
        (
            r.runs,
            r.random_walks,
            r.sleep_pruned,
            r.digest_deduped,
            r.stop,
            r.failure.is_some(),
            &self.counts,
        )
    }

    fn add(&mut self, rec: &Record) {
        self.counts.calls += 1;
        self.counts.counts.add(rec);
        self.counts.text_hash = self.counts.text_hash.wrapping_add(fnv(&rec.metrics_text));
        self.run_s += rec.run_s;
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn verdict(rec: &Record) -> Result<(), String> {
    match &rec.failure {
        Some(f) => Err(f.clone()),
        None => Ok(()),
    }
}

/// One exploration of `explore-32`. Untraced, the candidate closure is the
/// one `ard explore --system discovery` runs — `Discovery::new`, `run_all`,
/// `check_requirements`, `budgets::check_all` — plus the counting. Traced
/// (`layers` given), the network and the explorer's scheduler are wrapped,
/// the closure's phases are timed and every candidate's layers land in
/// `layers`. `keep_text` feeds each candidate's `Metrics` Display into the
/// signature, for the traced-equals-untraced gate.
fn exploration(
    g: &KnowledgeGraph,
    config: &ExploreConfig,
    layers: Option<&Mutex<Layers>>,
    keep_text: bool,
) -> Exploration {
    let acc = Mutex::new(Exploration::default());
    let job = Job {
        graph: g,
        variant: Variant::AdHoc,
        sched: Sched::Fifo,
        keep_text,
    };
    let t = Instant::now();
    let report = match layers {
        Some(layers) => explore(config, || {
            |sched: &mut dyn Scheduler| {
                let t = Instant::now();
                let mut net = Wrapped::build(&job);
                let build_s = t.elapsed().as_secs_f64();
                let (rec, spans) = net.run_with(&job, sched);
                let closure_ns = t.elapsed().as_nanos() as u64;
                let mut acc = acc.lock().expect("exploration accumulator");
                acc.add(&rec);
                acc.closure_ns += closure_ns;
                let mut layers = layers.lock().expect("layer accumulator");
                layers.build_s.push(build_s);
                layers.add(&job, &rec, &spans);
                verdict(&rec)
            }
        }),
        None => explore(config, || {
            |sched: &mut dyn Scheduler| {
                let rec = Bare::build(&job).run_with(&job, sched);
                acc.lock().expect("exploration accumulator").add(&rec);
                verdict(&rec)
            }
        }),
    };
    let wall_s = t.elapsed().as_secs_f64();
    let mut e = acc.into_inner().expect("exploration accumulator");
    e.report = report;
    e.wall_s = wall_s;
    e
}

/// Checks an exploration: no violation, and the search stopped because
/// its budget ran out.
fn explore_gate(report: &mut Report, e: &Exploration) {
    report.attempted += e.report.runs;
    if let Some(f) = &e.report.failure {
        report_failure("explore-32", &f.reason);
        report.failed += 1;
    } else if e.report.stop != StopReason::BudgetExhausted {
        report.fail(&format!("exploration stopped early: {}", e.report.stop));
    }
}

/// Set-up of `explore-32`: the graph, and the candidate network once.
fn explore_setup(seed: u64) -> KnowledgeGraph {
    let g = graph(32, sub_seed(seed, 1, 0));
    drop(ard_core::Discovery::new(&g, Variant::AdHoc));
    g
}

/// Set-up of `explore-32` takes microseconds: it is timed in blocks of
/// [`SETUP_BLOCK`] repetitions (one clock read per block), and the blocks
/// repeat until their median is steady.
const SETUP_BLOCK: u32 = 64;

fn explore_setup_samples(seed: u64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 1000 && (samples.len() < 50 || start.elapsed().as_secs_f64() < 0.5) {
        let t = Instant::now();
        for _ in 0..SETUP_BLOCK {
            std::hint::black_box(explore_setup(seed));
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(SETUP_BLOCK));
    }
    samples
}

fn explore_end_to_end(seed: u64, seconds: f64) -> Report {
    let f = calib::factor();
    let setup: Vec<f64> = explore_setup_samples(seed).iter().map(|s| s * f).collect();
    let g = explore_setup(seed);
    let config = explore_config(seed);
    let runs = closed_loop(seconds, || exploration(&g, &config, None, false));
    samples("wall_s", runs.iter().map(|(e, _)| e.wall_s));
    let mut report = Report::default();
    for (e, _) in &runs {
        explore_gate(&mut report, e);
    }
    if runs
        .iter()
        .any(|(e, _)| e.signature() != runs[0].0.signature())
    {
        report.fail("count metrics differ between explorations of one seed");
    }
    let med =
        |g: &dyn Fn(&Exploration, f64) -> f64| median(runs.iter().map(|(e, f)| g(e, *f)).collect());
    report.metric("setup_s", median(setup), "s");
    report.metric("wall_s", med(&|e, f| e.wall_s * f), "s");
    report.metric(
        "events_per_s",
        med(&|e, f| ratio(e.counts.counts.steps as f64, e.run_s * f)),
        "1/s",
    );
    report.metric(
        "runs_per_s",
        med(&|e, f| ratio(e.report.runs as f64, e.wall_s * f)),
        "1/s",
    );
    count_metrics(&mut report, &runs[0].0.counts.counts);
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report
}

fn explore_per_layer(seed: u64, seconds: f64) -> Report {
    let t = Instant::now();
    let g = graph(32, sub_seed(seed, 1, 0));
    let gen_s = t.elapsed().as_secs_f64();
    let config = explore_config(seed);
    let mut report = Report::default();
    let layers = Mutex::new(Layers::default());
    let mut explorer = ExplorerLayers::default();
    let mut untraced_wall_s = 0.0;
    let kernel_before = calib::speed_s();
    let start = Instant::now();
    while explorer.iterations == 0 || start.elapsed().as_secs_f64() < seconds {
        let bare = exploration(&g, &config, None, true);
        let traced = exploration(&g, &config, Some(&layers), true);
        explore_gate(&mut report, &bare);
        explore_gate(&mut report, &traced);
        if bare.signature() != traced.signature() {
            report.fail("traced exploration differs from the untraced one");
        }
        untraced_wall_s += bare.wall_s;
        explorer.iterations += 1;
        explorer.wall_s += traced.wall_s;
        explorer.closure_ns += traced.closure_ns;
        explorer.last = traced;
    }
    let mut layers = layers.into_inner().expect("layer accumulator");
    layers.iterations = explorer.iterations;
    layers.gen_s = vec![gen_s];
    discovery_layer_metrics(&mut report, &layers);
    explore_layer_metrics(&mut report, Some((&explorer, &layers, config.jobs)));
    report.metric(
        "trace_overhead_ratio",
        ratio(explorer.wall_s, untraced_wall_s),
        "ratio",
    );
    host_metric(&mut report, kernel_before);
    report
}

/// The calibration kernel's time around a traced run: the per-layer times
/// are raw, and this says how fast the host was while they were taken.
fn host_metric(report: &mut Report, kernel_before: f64) {
    let kernel_s = (kernel_before + calib::speed_s()) / 2.0;
    report.metric("host.kernel_s", kernel_s, "s");
}

/// The traced explorations of one run.
#[derive(Default)]
struct ExplorerLayers {
    iterations: u64,
    /// Wall-clock of the traced explorations, summed.
    wall_s: f64,
    /// Time inside candidate closures, summed over workers.
    closure_ns: u64,
    /// The last traced exploration (every one has the same signature).
    last: Exploration,
}

/// The explorer's layer metrics; all 0 on the discovery workloads.
fn explore_layer_metrics(report: &mut Report, e: Option<(&ExplorerLayers, &Layers, usize)>) {
    let (runs, pruned, deduped, calls, build, run, check, self_per_run, busy) = match e {
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        Some((e, l, jobs)) => {
            let r = &e.last.report;
            let all_runs = (r.runs * e.iterations) as f64;
            let all_calls = l.discoveries as f64;
            let run_s: f64 = l.run_s.iter().flatten().sum();
            let capacity_ns = e.wall_s * 1e9 * jobs as f64;
            let closure_ns = e.closure_ns as f64;
            (
                r.runs as f64,
                r.sleep_pruned as f64,
                r.digest_deduped as f64,
                e.last.counts.calls as f64,
                ratio(l.build_s.iter().sum::<f64>() * 1e9, all_calls),
                ratio(run_s * 1e9, all_calls),
                ratio((l.requirements_s + l.budgets_s) * 1e9, all_calls),
                ratio(capacity_ns - closure_ns, all_runs),
                ratio(closure_ns, capacity_ns),
            )
        }
    };
    report.metric("explore.runs", runs, "count");
    report.metric("explore.sleep_pruned", pruned, "count");
    report.metric("explore.state_deduped", deduped, "count");
    report.metric("explore.candidate_calls", calls, "count");
    report.metric("explore.useful_ratio", ratio(runs, calls), "ratio");
    report.metric("explore.candidate.build_ns", build, "ns");
    report.metric("explore.candidate.run_ns", run, "ns");
    report.metric("explore.candidate.check_ns", check, "ns");
    report.metric("explore.self_ns_per_run", self_per_run, "ns");
    report.metric("par.busy_ratio", busy, "ratio");
}
