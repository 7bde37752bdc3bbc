//! One discovery, built and run either bare — through the program's own
//! entry points, exactly as `ard discover` and the tests drive it — or
//! wrapped in the timing layers of [`crate::timed`].
//!
//! Both paths end in the same correctness gate: the paper's requirements
//! (`check_requirements`) and the §5 budgets (`budgets::check_all`, or
//! `check_all_faulty` net of the reliable layer's overhead), plus the
//! reliable layer's own quiescence condition on faulty runs.

use std::time::Instant;

use ard_core::node::ArdNode;
use ard_core::{
    budgets, invariants, AsArdNode, Config, Discovery, FaultyDiscovery, Reliable, Variant,
};
use ard_graph::{components, KnowledgeGraph};
use ard_netsim::{
    FaultPlan, FaultScheduler, FifoScheduler, Protocol, RandomScheduler, Runner, Scheduler,
};

use crate::span::{self, Totals, ENGINE};
use crate::timed::{Role, Timed, TimedScheduler};

/// The three problem variants, in report order.
pub const VARIANTS: [Variant; 3] = [Variant::Oblivious, Variant::Bounded, Variant::AdHoc];

/// Index of `variant` in [`VARIANTS`].
pub fn variant_index(variant: Variant) -> usize {
    VARIANTS
        .iter()
        .position(|&v| v == variant)
        .expect("known variant")
}

/// How a discovery is scheduled.
#[derive(Clone, Debug)]
pub enum Sched {
    /// `FifoScheduler` — the default path.
    Fifo,
    /// `RandomScheduler` with this seed.
    Random(u64),
    /// `FaultScheduler` under this plan over a `RandomScheduler` with this
    /// seed; nodes are wrapped in `Reliable`.
    Faulty(u64, FaultPlan),
}

impl Sched {
    fn scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            Sched::Fifo => Box::new(FifoScheduler::new()),
            Sched::Random(seed) => Box::new(RandomScheduler::seeded(*seed)),
            Sched::Faulty(seed, plan) => Box::new(FaultScheduler::new(
                RandomScheduler::seeded(*seed),
                Some(plan.clone()),
            )),
        }
    }
}

/// One discovery to run: a graph, a variant and a schedule.
#[derive(Clone, Debug)]
pub struct Job<'g> {
    /// The knowledge graph.
    pub graph: &'g KnowledgeGraph,
    /// The problem variant.
    pub variant: Variant,
    /// The scheduling.
    pub sched: Sched,
    /// Keep the `Metrics` Display text in the [`Record`] (the traced run
    /// compares it byte for byte; the explorer's hot loop skips it).
    pub keep_text: bool,
}

/// What one finished discovery reports to the gate and the metrics.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Nodes in the graph.
    pub n: u64,
    /// `Runner::steps_executed` after the run.
    pub steps: u64,
    /// `Metrics` Display, for the traced-equals-untraced check (empty
    /// unless [`Job::keep_text`]).
    pub metrics_text: String,
    /// `Metrics::total_messages`.
    pub msgs: u64,
    /// `Metrics::total_bits`.
    pub bits: u64,
    /// `Metrics::max_causal_depth`.
    pub depth: u64,
    /// Seconds inside `enqueue_wake_all` + `Runner::run`.
    pub run_s: f64,
    /// Seconds in the requirement checks.
    pub requirements_s: f64,
    /// Seconds in the budget checks.
    pub budgets_s: f64,
    /// First violated requirement or budget, or the livelock.
    pub failure: Option<String>,
    /// `Metrics::max_link_queue`.
    pub max_link_queue: u64,
    /// `Runner::knowledge_bytes`.
    pub knowledge_bytes: u64,
    /// `Runner::payload_bytes_sent`.
    pub payload_bytes_sent: u64,
    /// `Runner::payload_peak_bytes`.
    pub payload_peak_bytes: u64,
    /// Messages metered as `retransmit`.
    pub retransmits: u64,
    /// Messages metered as `rd-ack`.
    pub acks: u64,
    /// Timer ticks delivered.
    pub ticks: u64,
    /// All deliveries, of any kind.
    pub deliveries: u64,
}

fn record<P: Protocol>(job: &Job<'_>, runner: &Runner<P>, run_s: f64) -> Record {
    let m = runner.metrics();
    Record {
        n: runner.len() as u64,
        steps: runner.steps_executed(),
        metrics_text: if job.keep_text {
            m.to_string()
        } else {
            String::new()
        },
        msgs: m.total_messages(),
        bits: m.total_bits(),
        depth: m.max_causal_depth(),
        run_s,
        max_link_queue: m.max_link_queue() as u64,
        knowledge_bytes: runner.knowledge_bytes() as u64,
        payload_bytes_sent: runner.payload_bytes_sent(),
        payload_peak_bytes: runner.payload_peak_bytes(),
        retransmits: m.kind("retransmit").messages,
        acks: m.kind("rd-ack").messages,
        ticks: m.faults().ticks,
        deliveries: m.deliveries(),
        ..Record::default()
    }
}

impl Record {
    /// Runs the requirement check, then (if it passed) the budget check,
    /// timing each and keeping the first failure.
    fn gate(
        &mut self,
        requirements: impl FnOnce() -> Result<(), String>,
        budgets: impl FnOnce() -> Result<(), String>,
    ) {
        let t = Instant::now();
        let req = requirements();
        self.requirements_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bud = if req.is_ok() { budgets() } else { Ok(()) };
        self.budgets_s = t.elapsed().as_secs_f64();
        self.failure = req.and(bud).err();
    }
}

fn check_budgets(job: &Job<'_>, metrics: &ard_netsim::Metrics) -> Result<(), String> {
    let (n, e0) = (job.graph.len() as u64, job.graph.edge_count() as u64);
    match job.sched {
        Sched::Faulty(..) => budgets::check_all_faulty(metrics, n, e0, job.variant),
        _ => budgets::check_all(metrics, n, e0, job.variant),
    }
}

/// A network built through the program's own entry points.
pub enum Bare {
    /// `Discovery::new`.
    Plain(Discovery),
    /// `FaultyDiscovery::new`.
    Faulty(FaultyDiscovery),
}

impl Bare {
    /// Builds the network `job` runs on.
    pub fn build(job: &Job<'_>) -> Bare {
        match job.sched {
            Sched::Faulty(..) => Bare::Faulty(FaultyDiscovery::new(job.graph, job.variant)),
            _ => Bare::Plain(Discovery::new(job.graph, job.variant)),
        }
    }

    /// Runs to quiescence with `run_all` and checks the result.
    pub fn run(&mut self, job: &Job<'_>) -> Record {
        let mut sched = job.sched.scheduler();
        self.run_with(job, &mut *sched)
    }

    /// [`run`](Bare::run) under a caller-supplied scheduler (the explorer's).
    pub fn run_with(&mut self, job: &Job<'_>, sched: &mut dyn Scheduler) -> Record {
        match self {
            Bare::Plain(d) => {
                let t = Instant::now();
                let result = d.run_all(sched);
                let run_s = t.elapsed().as_secs_f64();
                let mut rec = record(job, d.runner(), run_s);
                match result {
                    Ok(outcome) => rec.gate(
                        || d.check_requirements(job.graph),
                        || check_budgets(job, &outcome.metrics),
                    ),
                    Err(e) => rec.failure = Some(e.to_string()),
                }
                rec
            }
            Bare::Faulty(fd) => {
                let t = Instant::now();
                let result = fd.run_all(sched);
                let run_s = t.elapsed().as_secs_f64();
                let mut rec = record(job, fd.runner(), run_s);
                match result {
                    Ok(outcome) => rec.gate(
                        || fd.check_requirements(),
                        || check_budgets(job, &outcome.metrics),
                    ),
                    Err(e) => rec.failure = Some(e),
                }
                rec
            }
        }
    }

    /// `Runner::state_digest` of the network.
    pub fn state_digest(&self) -> u64 {
        match self {
            Bare::Plain(d) => d.runner().state_digest(),
            Bare::Faulty(fd) => fd.runner().state_digest(),
        }
    }
}

/// The protocol nodes of `graph`, built as `Discovery::new` builds them.
fn ard_nodes(graph: &KnowledgeGraph, variant: Variant) -> Vec<ArdNode> {
    let config = Config::paper();
    let mut nodes: Vec<ArdNode> = graph
        .ids()
        .map(|id| ArdNode::new(id, graph.out_edges(id).iter().copied(), variant, config))
        .collect();
    if variant == Variant::Bounded {
        for component in components::weakly_connected_components(graph) {
            for &v in &component {
                nodes[v.index()].set_component_size(component.len());
            }
        }
    }
    nodes
}

/// `Discovery::default_step_budget` (×100 under faults, as
/// `FaultyDiscovery::step_budget`): only a livelocking run reaches it.
fn step_budget(n: usize, faulty: bool) -> u64 {
    let n = n as u64;
    let base = 200 * n * (64 - n.leading_zeros() as u64 + 1) + 10_000;
    if faulty {
        100 * base
    } else {
        base
    }
}

/// A network whose nodes are wrapped in [`Timed`] (and, under faults,
/// `Timed<Reliable<Timed<ArdNode>>>`, so the reliable layer's self time is
/// the outer span minus the inner one).
pub enum Wrapped {
    /// Fault-free.
    Plain(Runner<Timed<ArdNode>>),
    /// Reliable-wrapped.
    Faulty(Runner<Timed<Reliable<Timed<ArdNode>>>>),
}

/// What a traced run measured besides its [`Record`].
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Self time per layer, accumulated over the run span.
    pub totals: Totals,
    /// Wall-clock of the run span, read outside the tracker.
    pub span_ns: u64,
    /// `TimedScheduler::pending_max`.
    pub pending_max: u64,
}

impl Wrapped {
    /// Builds the network `job` runs on, from the same nodes
    /// `Discovery::new` / `FaultyDiscovery::new` would build.
    pub fn build(job: &Job<'_>) -> Wrapped {
        let nodes = ard_nodes(job.graph, job.variant);
        let graph = job.graph;
        match job.sched {
            Sched::Faulty(..) => Wrapped::Faulty(Runner::with_topology(
                nodes
                    .into_iter()
                    .map(|n| Timed::new(Reliable::new(Timed::new(n, Role::Node)), Role::Reliable))
                    .collect(),
                |id| graph.out_edges(id),
            )),
            _ => Wrapped::Plain(Runner::with_topology(
                nodes
                    .into_iter()
                    .map(|n| Timed::new(n, Role::Node))
                    .collect(),
                |id| graph.out_edges(id),
            )),
        }
    }

    /// Runs to quiescence under a timed scheduler and checks the result.
    pub fn run(&mut self, job: &Job<'_>) -> (Record, Traced) {
        let mut sched = job.sched.scheduler();
        self.run_with(job, &mut *sched)
    }

    /// [`run`](Wrapped::run) under a caller-supplied scheduler.
    pub fn run_with(&mut self, job: &Job<'_>, inner: &mut dyn Scheduler) -> (Record, Traced) {
        let mut sched = TimedScheduler::new(inner);
        let mut traced = Traced::default();
        let graph = job.graph;
        let rec = match self {
            Wrapped::Plain(runner) => {
                let (result, run_s, span_ns) =
                    drive(runner, &mut sched, step_budget(graph.len(), false));
                traced.span_ns = span_ns;
                let mut rec = record(job, runner, run_s);
                match result {
                    Ok(()) => rec.gate(
                        || invariants::check_requirements(runner, graph, job.variant),
                        || check_budgets(job, runner.metrics()),
                    ),
                    Err(e) => rec.failure = Some(e),
                }
                rec
            }
            Wrapped::Faulty(runner) => {
                let (result, run_s, span_ns) =
                    drive(runner, &mut sched, step_budget(graph.len(), true));
                traced.span_ns = span_ns;
                let mut rec = record(job, runner, run_s);
                match result {
                    Ok(()) => rec.gate(
                        || {
                            // `FaultyDiscovery::check_requirements`: no
                            // transmission may still await an ack.
                            if let Some(node) =
                                runner.nodes().find(|n| n.inner().unacked_len() != 0)
                            {
                                return Err(format!(
                                    "{} quiesced with {} unacknowledged transmissions",
                                    node.ard().id(),
                                    node.inner().unacked_len()
                                ));
                            }
                            invariants::check_requirements(runner, graph, job.variant)
                        },
                        || check_budgets(job, runner.metrics()),
                    ),
                    Err(e) => rec.failure = Some(e),
                }
                rec
            }
        };
        traced.pending_max = sched.pending_max() as u64;
        traced.totals = span::take();
        (rec, traced)
    }

    /// `Runner::state_digest` of the network.
    pub fn state_digest(&self) -> u64 {
        match self {
            Wrapped::Plain(r) => r.state_digest(),
            Wrapped::Faulty(r) => r.state_digest(),
        }
    }
}

/// `run_all` on a raw runner inside the [`ENGINE`] span: returns the
/// result, the seconds inside it and the span's wall-clock read outside
/// the tracker (the accounting check compares the two).
fn drive<P: Protocol>(
    runner: &mut Runner<P>,
    sched: &mut dyn Scheduler,
    budget: u64,
) -> (Result<(), String>, f64, u64) {
    span::take();
    let outer = Instant::now();
    span::enter(ENGINE);
    runner.enqueue_wake_all(sched);
    let result = runner
        .run(sched, budget)
        .map(drop)
        .map_err(|e| e.to_string());
    span::exit();
    let elapsed = outer.elapsed();
    (result, elapsed.as_secs_f64(), elapsed.as_nanos() as u64)
}
