//! One run pipeline for honest, faulty and Byzantine/churn discovery.
//!
//! An [`Adversary`] says which system a schedule describes and what must
//! hold at its end:
//!
//! * [`Adversary::Honest`] — the paper's model: bare [`ArdNode`]s on
//!   reliable FIFO links. A run fails on a broken §1.2 requirement or §5
//!   budget.
//! * [`Adversary::Faults`] — lossy and duplicating links plus crash/restart
//!   churn ([`FaultPlan`]), every node wrapped in the [`Reliable`]
//!   envelope. A run fails on a broken requirement, a transmission still
//!   awaiting its ack, or a budget broken net of the envelope's metered
//!   overhead.
//! * [`Adversary::Byzantine`] — traitors ([`ByzantinePlan`]: equivocation,
//!   fabricated ids, selective silence, stale restarts) and/or join/leave
//!   churn ([`ChurnPlan`], the paper's §6 joins plus departures) on the
//!   bare protocol built with [`Config::byzantine`]. No [`Reliable`]
//!   envelope: it cannot defend forged content (it would dutifully ack a
//!   lie), and silence is exactly a targeted loss the paper's model does
//!   not cover. The guarantees are evaluated over the honest survivors and
//!   *reported*, not asserted: degradation is the measurement.
//!
//! [`run`] executes one discovery under a scheduler that already carries
//! the adversary's events. [`record`] wraps an inner scheduler with the
//! adversary's injection and a recorder. [`replay`] reads the adversary
//! back from the schedule's metadata ([`Adversary::from_schedule`], the one
//! strict parser) and re-executes the choices strictly. Every injected
//! event is an explicit choice, so replay needs no plan and no RNG and is
//! byte-exact.

use std::collections::BTreeSet;
use std::str::FromStr;

use ard_graph::KnowledgeGraph;
use ard_netsim::{
    ByzantinePlan, ChurnPlan, FaultPlan, FaultScheduler, NodeId, RecordingScheduler,
    ReplayScheduler, Schedule, Scheduler,
};

use crate::driver::step_budget;
use crate::faulty::FAULTY_BUDGET_FACTOR;
use crate::{budgets, invariants};
#[cfg(doc)]
use crate::{node::ArdNode, Reliable};
use crate::{Config, Discovery, FaultyDiscovery, Outcome, Variant};

/// Who, besides the asynchronous scheduler, acts against a discovery run.
#[derive(Clone, Debug)]
pub enum Adversary {
    /// Nobody: the paper's model.
    Honest,
    /// Link faults and crash/restart churn, survived by the [`Reliable`]
    /// envelope.
    Faults(FaultPlan),
    /// Byzantine nodes and/or membership churn on the bare protocol. With
    /// both plans absent the run is honest apart from the node
    /// configuration, and its recording equals the honest one.
    Byzantine {
        /// The traitors and their fault classes.
        plan: Option<ByzantinePlan>,
        /// Joins (withheld initial wakes) and permanent departures.
        churn: Option<ChurnPlan>,
    },
}

impl Adversary {
    /// Parses the `faults`, `byzantine` and `churn` specifications — the
    /// values of the CLI flags and of the schedule metadata alike — for an
    /// `n`-node network:
    ///
    /// ```text
    /// faults    := drop=P | dup=P | crash=N | seed=S   (comma-separated)
    /// byzantine := f=K | seed=S | class=C | classes=C+C+…   (comma-separated;
    ///              C ∈ equivocate, fabricate, silence, stale-restart, all)
    /// churn     := rate=R | seed=S   (comma-separated, 0 ≤ R ≤ 0.5)
    /// ```
    ///
    /// Probabilities lie in `[0, 1)` (the paper's link model: any loss rate
    /// strictly below one); `crash=N` spreads `N` crash/restart events over
    /// the nodes and the run. A Byzantine plan needs `f`; without a class
    /// restriction every class is armed. A churn plan needs `rate`.
    ///
    /// # Errors
    ///
    /// Names the offending key and value, or the conflict when link faults
    /// meet a Byzantine or churn plan (the bare protocol cannot absorb
    /// link faults).
    ///
    /// # Example
    ///
    /// ```
    /// use ard_core::Adversary;
    ///
    /// let adversary = Adversary::parse(None, Some("f=1,seed=3,class=equivocate"), None, 8);
    /// assert!(matches!(adversary, Ok(Adversary::Byzantine { plan: Some(_), churn: None })));
    /// assert!(Adversary::parse(None, Some("f=two"), None, 8).is_err());
    /// assert!(Adversary::parse(Some("drop=0.1"), None, Some("rate=0.1"), 8).is_err());
    /// ```
    pub fn parse(
        faults: Option<&str>,
        byzantine: Option<&str>,
        churn: Option<&str>,
        n: usize,
    ) -> Result<Self, String> {
        fn field<T>(
            key: &str,
            spec: Option<&str>,
            parse: impl Fn(&str) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            spec.map(|s| parse(s).map_err(|e| format!("{key} `{s}`: {e}")))
                .transpose()
        }
        let faults = field("faults", faults, |s| parse_faults(s, n))?;
        let plan = field("byzantine", byzantine, parse_byzantine)?;
        let churn = field("churn", churn, parse_churn)?;
        match (faults, plan.is_some() || churn.is_some()) {
            (None, false) => Ok(Adversary::Honest),
            (Some(plan), false) => Ok(Adversary::Faults(plan)),
            (None, true) => Ok(Adversary::Byzantine { plan, churn }),
            (Some(_), true) => Err(
                "byzantine/churn plans run the bare protocol (no reliable-delivery layer), \
                 which cannot absorb link faults: drop the faults"
                    .into(),
            ),
        }
    }

    /// Reads the adversary a schedule was recorded against back from its
    /// `faults` / `byzantine` / `churn` metadata ([`Adversary::parse`]).
    ///
    /// # Errors
    ///
    /// Names the metadata key whose value does not parse.
    pub fn from_schedule(schedule: &Schedule, n: usize) -> Result<Self, String> {
        Self::parse(
            schedule.meta("faults"),
            schedule.meta("byzantine"),
            schedule.meta("churn"),
            n,
        )
        .map_err(|e| format!("schedule metadata: {e}"))
    }

    /// The canonical metadata of this adversary, in key order: what
    /// [`Adversary::from_schedule`] reads back. The fault plan round-trips
    /// its rates, seed and crash count, the Byzantine plan its traitor
    /// count, seed and classes, and the churn plan its rate and seed —
    /// everything replay needs to rebuild the network and withhold the
    /// joiners' wakes.
    pub fn meta(&self) -> Vec<(&'static str, String)> {
        match self {
            Adversary::Honest => Vec::new(),
            Adversary::Faults(plan) => vec![(
                "faults",
                format!(
                    "drop={},dup={},crash={},seed={}",
                    plan.drop,
                    plan.dup,
                    plan.crashes.len(),
                    plan.seed
                ),
            )],
            Adversary::Byzantine { plan, churn } => {
                let plan = plan.as_ref().map(|plan| {
                    let classes: Vec<&str> = [
                        (plan.equivocate, "equivocate"),
                        (plan.fabricate, "fabricate"),
                        (plan.silence, "silence"),
                        (plan.stale_restart, "stale-restart"),
                    ]
                    .into_iter()
                    .filter_map(|(armed, class)| armed.then_some(class))
                    .collect();
                    let classes = classes.join("+");
                    (
                        "byzantine",
                        format!("f={},seed={},classes={classes}", plan.f, plan.seed),
                    )
                });
                let churn = churn
                    .as_ref()
                    .map(|c| ("churn", format!("rate={},seed={}", c.rate, c.seed)));
                plan.into_iter().chain(churn).collect()
            }
        }
    }

    /// Writes [`Adversary::meta`] into `schedule`.
    pub fn stamp(&self, schedule: &mut Schedule) {
        for (key, value) in self.meta() {
            schedule.set_meta(key, value);
        }
    }

    /// `inner` with this adversary's events injected: bare for honest
    /// runs, wrapped in a [`FaultScheduler`] carrying the plans otherwise.
    pub fn scheduler<'a, S: Scheduler + 'a>(&self, inner: S, n: usize) -> Box<dyn Scheduler + 'a> {
        match self {
            Adversary::Honest => Box::new(inner),
            Adversary::Faults(plan) => Box::new(FaultScheduler::new(inner, Some(plan.clone()))),
            Adversary::Byzantine { plan, churn } => Box::new(
                FaultScheduler::new(inner, None)
                    .with_byzantine(plan.clone(), n)
                    .with_churn(churn.clone(), n),
            ),
        }
    }

    /// The step budget of an `n`-node run under this adversary: the
    /// fault-free budget of [`Discovery::default_step_budget`], ×100 under
    /// link faults (retransmissions) and ×10 under Byzantine plans (forged
    /// traffic and its honest echoes are bounded by the plan's finite
    /// timeline). Hitting it means livelock.
    pub fn step_budget(&self, n: usize) -> u64 {
        let factor = match self {
            Adversary::Honest => 1,
            Adversary::Faults(_) => FAULTY_BUDGET_FACTOR,
            Adversary::Byzantine { .. } => 10,
        };
        factor * step_budget(n)
    }
}

/// What a run produced: the shared [`Outcome`] plus the adversary's checks.
///
/// Honest and faulty runs that break a requirement or a budget are errors
/// of [`run`], so their reports carry no traitors, no churn and only
/// passing verdicts. Byzantine runs always report; the three verdicts are
/// the run's row of the guarantee-survival matrix.
#[derive(Clone, Debug)]
pub struct Report {
    /// Leaders, steps and metrics, fault and Byzantine counters included.
    /// `leader_of` is empty on Byzantine runs: forged messages may leave
    /// pointer chains that cycle.
    pub outcome: Outcome,
    /// The Byzantine plan's traitors, in id order.
    pub traitors: Vec<NodeId>,
    /// Nodes whose initial wake the churn plan withheld (they joined via
    /// explicit `Join` events), in draw order.
    pub joined: Vec<NodeId>,
    /// Nodes that permanently left, in draw order.
    pub left: Vec<NodeId>,
    /// Requirement 1 over the honest survivors
    /// ([`invariants::check_survivor_single_leader`]).
    pub single_leader: Result<(), String>,
    /// Requirement 2 over the honest survivors
    /// ([`invariants::check_survivor_leader_knows_all`]).
    pub leader_knows_all: Result<(), String>,
    /// The §5 budget lemmas net of forged traffic
    /// ([`budgets::check_all_byzantine`]).
    pub budgets: Result<(), String>,
}

impl Report {
    fn passed(outcome: Outcome) -> Self {
        Report {
            outcome,
            traitors: Vec::new(),
            joined: Vec::new(),
            left: Vec::new(),
            single_leader: Ok(()),
            leader_knows_all: Ok(()),
            budgets: Ok(()),
        }
    }

    /// `Ok` if every guarantee survived, else the first violation — the
    /// property exploration, shrinking and replay check.
    ///
    /// # Errors
    ///
    /// Returns the first failed verdict.
    pub fn check(&self) -> Result<(), String> {
        self.single_leader.clone()?;
        self.leader_knows_all.clone()?;
        self.budgets.clone()
    }
}

/// The network a run executes on.
#[derive(Debug)]
pub enum Network {
    /// Bare nodes: honest runs, and Byzantine runs under
    /// [`Config::byzantine`].
    Bare(Discovery),
    /// Nodes wrapped in the [`Reliable`] envelope: runs under link faults.
    Reliable(FaultyDiscovery),
}

impl Network {
    /// Builds the network `adversary` runs on.
    pub fn new(graph: &KnowledgeGraph, variant: Variant, adversary: &Adversary) -> Self {
        match adversary {
            Adversary::Honest => Network::Bare(Discovery::new(graph, variant)),
            Adversary::Faults(_) => Network::Reliable(FaultyDiscovery::new(graph, variant)),
            Adversary::Byzantine { .. } => {
                Network::Bare(Discovery::with_config(graph, variant, Config::byzantine()))
            }
        }
    }

    /// Wakes every node except the churn plan's joiners, runs to quiescence
    /// within `budget` steps and checks the result (see [`run`]).
    ///
    /// # Errors
    ///
    /// Returns the livelock or, on honest and faulty runs, the broken
    /// requirement or budget.
    pub fn run(
        &mut self,
        adversary: &Adversary,
        sched: &mut dyn Scheduler,
        budget: u64,
    ) -> Result<Report, String> {
        let d = match self {
            Network::Reliable(fd) => {
                let outcome = fd.run_within(sched, budget)?;
                fd.check_requirements()?;
                fd.check_budgets()?;
                return Ok(Report::passed(outcome));
            }
            Network::Bare(d) => d,
        };
        let n = d.runner().len();
        let (plan, joined, left) = match adversary {
            Adversary::Byzantine { plan, churn } => (
                plan.as_ref(),
                churn.as_ref().map(|c| c.joiners(n)).unwrap_or_default(),
                churn.as_ref().map(|c| c.leavers(n)).unwrap_or_default(),
            ),
            _ => (None, Vec::new(), Vec::new()),
        };
        let withheld: BTreeSet<NodeId> = joined.iter().copied().collect();
        for id in (0..n).map(NodeId::new) {
            if !withheld.contains(&id) {
                d.runner_mut().enqueue_wake(id, sched);
            }
        }
        let steps = d
            .runner_mut()
            .run(sched, budget)
            .map_err(|e| e.to_string())?;
        let (graph, variant) = (d.graph(), d.variant());
        let (nodes, e0) = (n as u64, graph.edge_count() as u64);
        if !matches!(adversary, Adversary::Byzantine { .. }) {
            let mut outcome = d.outcome();
            outcome.steps = steps;
            d.check_requirements(graph)?;
            budgets::check_all(&outcome.metrics, nodes, e0, variant)?;
            return Ok(Report::passed(outcome));
        }
        let mut traitors = plan.map(|p| p.byzantine_nodes(n)).unwrap_or_default();
        traitors.sort_unstable();
        let excluded: BTreeSet<NodeId> = traitors.iter().chain(&left).copied().collect();
        let metrics = d.runner().metrics().clone();
        Ok(Report {
            single_leader: invariants::check_survivor_single_leader(d.runner(), graph, &excluded),
            leader_knows_all: invariants::check_survivor_leader_knows_all(
                d.runner(),
                graph,
                &excluded,
            ),
            budgets: budgets::check_all_byzantine(&metrics, nodes, e0, variant),
            outcome: Outcome {
                leaders: d.leaders(),
                leader_of: Vec::new(),
                steps,
                metrics,
            },
            traitors,
            joined,
            left,
        })
    }

    /// [`run`](Network::run) under `inner` with the adversary's events
    /// injected, recording every choice. Returns the schedule — stamped with
    /// `nodes`, `variant` and [`Adversary::meta`] — also when the run
    /// fails: a failing prefix is still worth replaying.
    pub fn record<S: Scheduler>(
        &mut self,
        adversary: &Adversary,
        inner: S,
        budget: u64,
    ) -> (Result<Report, String>, Schedule) {
        let (n, variant) = match self {
            Network::Bare(d) => (d.runner().len(), d.variant()),
            Network::Reliable(fd) => (fd.runner().len(), fd.variant()),
        };
        let mut sched = RecordingScheduler::new(adversary.scheduler(inner, n));
        let result = self.run(adversary, &mut sched, budget);
        let mut schedule = sched.into_schedule();
        schedule.set_meta("nodes", n.to_string());
        schedule.set_meta("variant", variant.to_string());
        adversary.stamp(&mut schedule);
        (result, schedule)
    }
}

/// Runs discovery on `graph` under `adversary`: builds the network
/// ([`Network::new`]), withholds the churn joiners' initial wakes (they
/// come online through the plan's `Join` events, §6's "joining = waking"),
/// runs to quiescence within [`Adversary::step_budget`] and checks the
/// adversary's guarantees.
///
/// `sched` supplies every choice, injected events included: wrap an inner
/// scheduler with [`Adversary::scheduler`] (as [`record`] does), or pass a
/// replaying or exploring scheduler that already carries them.
///
/// # Errors
///
/// Returns the livelock or, on honest and faulty runs, the first broken
/// requirement or budget. Byzantine runs report their verdicts instead.
///
/// # Example
///
/// ```
/// use ard_core::{run, Adversary, Variant};
/// use ard_graph::gen;
/// use ard_netsim::RandomScheduler;
///
/// let graph = gen::ring(8);
/// let adversary = Adversary::Honest;
/// let mut sched = adversary.scheduler(RandomScheduler::seeded(1), graph.len());
/// let report = run(&graph, Variant::AdHoc, &adversary, &mut sched).unwrap();
/// assert_eq!(report.outcome.leaders.len(), 1);
/// ```
pub fn run(
    graph: &KnowledgeGraph,
    variant: Variant,
    adversary: &Adversary,
    sched: &mut dyn Scheduler,
) -> Result<Report, String> {
    let budget = adversary.step_budget(graph.len());
    Network::new(graph, variant, adversary).run(adversary, sched, budget)
}

/// [`run`] under `inner` with the adversary's events injected, recording
/// the complete choice sequence — every drop, duplicate, crash, forgery,
/// silence, join and leave included — into a replayable [`Schedule`] (see
/// [`Network::record`]). An honest recording wraps `inner` alone, with no
/// fault machinery.
pub fn record<S: Scheduler>(
    graph: &KnowledgeGraph,
    variant: Variant,
    adversary: &Adversary,
    inner: S,
) -> (Result<Report, String>, Schedule) {
    let budget = adversary.step_budget(graph.len());
    Network::new(graph, variant, adversary).record(adversary, inner, budget)
}

/// Re-executes a recorded schedule against a freshly built network: the
/// adversary comes from the schedule's metadata, the choices from a strict
/// [`ReplayScheduler`], which panics with a divergence diagnostic if the
/// schedule was recorded against a different system.
///
/// # Errors
///
/// Returns malformed metadata, or the run's own error exactly as the
/// recording produced it.
pub fn replay(
    graph: &KnowledgeGraph,
    variant: Variant,
    schedule: &Schedule,
) -> Result<Report, String> {
    let adversary = Adversary::from_schedule(schedule, graph.len())?;
    run(
        graph,
        variant,
        &adversary,
        &mut ReplayScheduler::strict(schedule),
    )
}

/// Parses `key=value,key=value` into pairs.
fn parse_kv(s: &str) -> Result<Vec<(&str, &str)>, String> {
    s.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))
        })
        .collect()
}

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{what}: `{s}` is not a number"))
}

fn parse_prob(s: &str, what: &str) -> Result<f64, String> {
    let p: f64 = s
        .parse()
        .map_err(|_| format!("{what}: `{s}` is not a probability"))?;
    if !(0.0..1.0).contains(&p) {
        return Err(format!("{what} probability must be in [0, 1), got `{s}`"));
    }
    Ok(p)
}

fn parse_faults(spec: &str, n: usize) -> Result<FaultPlan, String> {
    let (mut drop, mut dup, mut crash, mut seed) = (0.0, 0.0, 0usize, 0u64);
    for (k, v) in parse_kv(spec)? {
        match k {
            "drop" => drop = parse_prob(v, "drop")?,
            "dup" => dup = parse_prob(v, "dup")?,
            "crash" => crash = parse_num(v, "crash")?,
            "seed" => seed = parse_num(v, "seed")?,
            other => {
                return Err(format!(
                    "unknown fault key `{other}` (drop, dup, crash, seed)"
                ))
            }
        }
    }
    if crash > 0 && n == 0 {
        return Err("crash needs a non-empty network".into());
    }
    Ok(FaultPlan::new(seed)
        .with_drop(drop)
        .with_dup(dup)
        .with_spread_crashes(crash, n))
}

fn parse_byzantine(spec: &str) -> Result<ByzantinePlan, String> {
    let (mut f, mut seed, mut classes) = (None, 0u64, None);
    for (k, v) in parse_kv(spec)? {
        match k {
            "f" => f = Some(parse_num(v, "f")?),
            "seed" => seed = parse_num(v, "seed")?,
            "class" | "classes" => classes = Some(v),
            other => return Err(format!("unknown byzantine key `{other}` (f, seed, class)")),
        }
    }
    let mut plan = ByzantinePlan::new(seed, f.ok_or("needs f=<count>")?);
    if let Some(classes) = classes {
        let armed = |class| classes.split('+').any(|c| c == class || c == "all");
        if let Some(bad) = classes
            .split('+')
            .find(|c| !["equivocate", "fabricate", "silence", "stale-restart", "all"].contains(c))
        {
            return Err(format!(
                "unknown byzantine class `{bad}` (equivocate, fabricate, silence, stale-restart, all)"
            ));
        }
        plan.equivocate = armed("equivocate");
        plan.fabricate = armed("fabricate");
        plan.silence = armed("silence");
        plan.stale_restart = armed("stale-restart");
    }
    Ok(plan)
}

fn parse_churn(spec: &str) -> Result<ChurnPlan, String> {
    let (mut rate, mut seed) = (None, 0u64);
    for (k, v) in parse_kv(spec)? {
        match k {
            "rate" => rate = Some(parse_num::<f64>(v, "rate")?),
            "seed" => seed = parse_num(v, "seed")?,
            other => return Err(format!("unknown churn key `{other}` (rate, seed)")),
        }
    }
    let rate = rate.ok_or("needs rate=<fraction>")?;
    if !(0.0..=0.5).contains(&rate) {
        return Err(format!(
            "churn rate must be in [0, 0.5] (joiners and leavers are disjoint), got `{rate}`"
        ));
    }
    Ok(ChurnPlan::new(seed, rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ard_graph::gen;
    use ard_netsim::RandomScheduler;

    #[test]
    fn recorded_run_replays_to_identical_outcome() {
        let graph = gen::random_weakly_connected(12, 20, 6);
        let (result, schedule) = record(
            &graph,
            Variant::AdHoc,
            &Adversary::Honest,
            RandomScheduler::seeded(5),
        );
        let recorded = result.unwrap().outcome;
        assert_eq!(schedule.meta("nodes"), Some("12"));
        assert_eq!(schedule.meta("variant"), Some("ad-hoc"));
        assert_eq!(schedule.len() as u64, recorded.steps);

        let replayed = replay(&graph, Variant::AdHoc, &schedule).unwrap().outcome;
        assert_eq!(replayed.leaders, recorded.leaders);
        assert_eq!(replayed.leader_of, recorded.leader_of);
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics)
        );
    }

    #[test]
    #[should_panic(expected = "replay divergence")]
    fn replaying_against_a_different_network_diverges() {
        let graph = gen::path(6);
        let (result, schedule) = record(
            &graph,
            Variant::Oblivious,
            &Adversary::Honest,
            RandomScheduler::seeded(1),
        );
        result.unwrap();
        // A different topology enables different choices: strict replay
        // must detect the mismatch rather than execute nonsense.
        let _ = replay(&gen::star_in(6), Variant::Oblivious, &schedule);
    }

    #[test]
    fn vacuous_byzantine_run_matches_honest_recording_byte_for_byte() {
        // With no plans attached, the Byzantine harness must be invisible:
        // the recorded schedule equals an honest recording of the same
        // inner scheduler, stays in format v1, and every guarantee holds.
        let graph = gen::random_weakly_connected(10, 16, 3);
        let vacuous = Adversary::Byzantine {
            plan: None,
            churn: None,
        };
        let (result, schedule) = record(
            &graph,
            Variant::Oblivious,
            &vacuous,
            RandomScheduler::seeded(42),
        );
        let report = result.unwrap();
        assert!(report.check().is_ok(), "honest run must satisfy everything");
        assert_eq!(report.outcome.metrics.byzantine().forged, 0);

        let (honest_result, honest_schedule) = record(
            &graph,
            Variant::Oblivious,
            &Adversary::Honest,
            RandomScheduler::seeded(42),
        );
        honest_result.unwrap();
        assert_eq!(schedule.to_text(), honest_schedule.to_text());
        assert!(schedule.to_text().starts_with("ard-schedule v1"));
    }

    #[test]
    fn byzantine_run_records_and_replays_byte_exactly() {
        let graph = gen::random_weakly_connected(12, 20, 5);
        let adversary = Adversary::Byzantine {
            plan: Some(ByzantinePlan::new(7, 2)),
            churn: None,
        };
        let (result, schedule) = record(
            &graph,
            Variant::Oblivious,
            &adversary,
            RandomScheduler::seeded(9),
        );
        let recorded = result.unwrap();
        assert!(
            recorded.outcome.metrics.byzantine().forged > 0,
            "plan injected no forgeries"
        );
        assert_eq!(recorded.traitors.len(), 2);
        assert!(schedule.to_text().starts_with("ard-schedule v2"));
        assert_eq!(
            schedule.meta("byzantine"),
            Some("f=2,seed=7,classes=equivocate+fabricate+silence+stale-restart")
        );

        let replayed = replay(&graph, Variant::Oblivious, &schedule).unwrap();
        assert_eq!(replayed.outcome.steps, recorded.outcome.steps);
        assert_eq!(replayed.outcome.leaders, recorded.outcome.leaders);
        assert_eq!(replayed.traitors, recorded.traitors);
        assert_eq!(
            format!("{}", replayed.outcome.metrics),
            format!("{}", recorded.outcome.metrics)
        );
        assert_eq!(replayed.single_leader, recorded.single_leader);
        assert_eq!(replayed.leader_knows_all, recorded.leader_knows_all);
        assert_eq!(replayed.budgets, recorded.budgets);

        // The round-trip through text is also exact.
        let reparsed = Schedule::parse(&schedule.to_text()).unwrap();
        assert_eq!(reparsed.choices(), schedule.choices());
    }

    #[test]
    fn churn_run_joins_and_leaves_and_replays() {
        let graph = gen::random_weakly_connected(16, 32, 2);
        let adversary = Adversary::Byzantine {
            plan: None,
            churn: Some(ChurnPlan::new(11, 0.2)),
        };
        let (result, schedule) = record(
            &graph,
            Variant::AdHoc,
            &adversary,
            RandomScheduler::seeded(4),
        );
        let recorded = result.unwrap();
        let counts = recorded.outcome.metrics.byzantine();
        assert!(counts.joins > 0, "no joins fired");
        assert!(counts.leaves > 0, "no leaves fired");
        assert_eq!(recorded.joined.len(), 4); // ceil(0.2 * 16)
        assert_eq!(recorded.left.len(), 4);
        assert_eq!(schedule.meta("churn"), Some("rate=0.2,seed=11"));

        let replayed = replay(&graph, Variant::AdHoc, &schedule).unwrap();
        assert_eq!(replayed.outcome.steps, recorded.outcome.steps);
        assert_eq!(replayed.outcome.leaders, recorded.outcome.leaders);
        assert_eq!(replayed.left, recorded.left);
        assert_eq!(
            format!("{}", replayed.outcome.metrics),
            format!("{}", recorded.outcome.metrics)
        );
    }

    #[test]
    fn stale_restart_can_break_single_leader() {
        // The amnesia class resurrects conquered nodes as phase-1 leaders;
        // across enough seeds at least one run must end with an extra
        // honest leader — the violation the matrix pins as a witness.
        let graph = gen::ring(8);
        let broke = (0..40u64).any(|seed| {
            let adversary = Adversary::Byzantine {
                plan: Some(ByzantinePlan::new(seed, 1).only("stale-restart")),
                churn: None,
            };
            let (result, _) = record(
                &graph,
                Variant::Oblivious,
                &adversary,
                RandomScheduler::seeded(seed ^ 0xCAFE),
            );
            result.map(|r| r.single_leader.is_err()).unwrap_or(true)
        });
        assert!(broke, "no seed broke single-leader via stale restarts");
    }

    /// Replay reads its metadata with the strict parser: a malformed
    /// `byzantine` or `churn` value is an error naming the key, never a
    /// silently different run (a dropped traitor set or churn plan would
    /// change the verdicts and the withheld wakes).
    #[test]
    fn malformed_replay_metadata_is_an_error() {
        let graph = gen::ring(12);
        let adversary = Adversary::Byzantine {
            plan: Some(ByzantinePlan::new(7, 2)),
            churn: Some(ChurnPlan::new(11, 0.2)),
        };
        let (result, schedule) = record(
            &graph,
            Variant::AdHoc,
            &adversary,
            RandomScheduler::seeded(5),
        );
        let recorded = result.unwrap();
        assert_eq!(recorded.traitors, [NodeId::new(1), NodeId::new(5)]);
        let replayed = replay(&graph, Variant::AdHoc, &schedule).unwrap();
        assert_eq!(replayed.traitors, recorded.traitors);
        assert_eq!(replayed.joined, recorded.joined);

        for (key, value, needle) in [
            (
                "byzantine",
                "f=two,seed=7,classes=equivocate",
                "f: `two` is not a number",
            ),
            ("churn", "rate=oops,seed=11", "rate: `oops` is not a number"),
        ] {
            let mut bad = schedule.clone();
            bad.set_meta(key, value);
            let err = replay(&graph, Variant::AdHoc, &bad).unwrap_err();
            assert!(err.contains(&format!("{key} `{value}`")), "{err}");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn meta_round_trips_through_the_parser() {
        let adversaries = [
            Adversary::Honest,
            Adversary::Faults(FaultPlan::new(9).with_drop(0.15).with_spread_crashes(2, 12)),
            Adversary::Byzantine {
                plan: Some(ByzantinePlan::new(13, 3).only("silence")),
                churn: Some(ChurnPlan::new(5, 0.25)),
            },
        ];
        for adversary in adversaries {
            let mut schedule = Schedule::default();
            adversary.stamp(&mut schedule);
            let parsed = Adversary::from_schedule(&schedule, 12).unwrap();
            assert_eq!(parsed.meta(), adversary.meta());
        }
        let mut both = Schedule::default();
        both.set_meta("faults", "drop=0.1");
        both.set_meta("churn", "rate=0.1");
        assert!(Adversary::from_schedule(&both, 12).is_err());
    }

    #[test]
    fn faults_parse() {
        let plan = parse_faults("drop=0.1,dup=0.05,crash=3,seed=9", 12).unwrap();
        assert_eq!(plan.drop, 0.1);
        assert_eq!(plan.dup, 0.05);
        assert_eq!(plan.crashes.len(), 3);
        assert_eq!(plan.seed, 9);
        assert!(parse_faults("drop=0.2", 8).unwrap().crashes.is_empty());
        assert!(parse_faults("", 8).unwrap().is_vacuous());
    }

    #[test]
    fn fault_errors_are_descriptive() {
        assert!(parse_faults("drop=1.0", 8)
            .unwrap_err()
            .contains("must be in [0, 1)"));
        assert!(parse_faults("dup=-0.1", 8).is_err());
        assert!(parse_faults("drop=x", 8)
            .unwrap_err()
            .contains("not a probability"));
        assert!(parse_faults("mangle=0.5", 8)
            .unwrap_err()
            .contains("unknown fault key"));
        assert!(parse_faults("crash=1", 0).is_err());
    }

    #[test]
    fn byzantine_plans_parse() {
        let plan = parse_byzantine("f=2,seed=7").unwrap();
        assert_eq!((plan.f, plan.seed), (2, 7));
        assert!(plan.equivocate && plan.fabricate && plan.silence && plan.stale_restart);
        let plan = parse_byzantine("f=1,seed=3,class=equivocate").unwrap();
        assert!(plan.equivocate && !plan.fabricate && !plan.silence && !plan.stale_restart);
        // The canonical schedule-metadata form goes through the same
        // parser.
        let plan = parse_byzantine("f=2,seed=7,classes=silence+stale-restart").unwrap();
        assert!(!plan.equivocate && !plan.fabricate && plan.silence && plan.stale_restart);
        assert!(parse_byzantine("f=1,classes=all").unwrap().equivocate);
        assert!(parse_byzantine("seed=3").unwrap_err().contains("needs f="));
        assert!(parse_byzantine("f=1,class=sneaky")
            .unwrap_err()
            .contains("unknown byzantine class"));
        assert!(parse_byzantine("f=1,mode=loud")
            .unwrap_err()
            .contains("unknown byzantine key"));
    }

    #[test]
    fn churn_plans_parse() {
        let plan = parse_churn("rate=0.25,seed=5").unwrap();
        assert_eq!((plan.rate, plan.seed), (0.25, 5));
        assert_eq!(parse_churn("rate=0").unwrap().seed, 0);
        assert!(parse_churn("seed=5").unwrap_err().contains("needs rate="));
        assert!(parse_churn("rate=0.7")
            .unwrap_err()
            .contains("must be in [0, 0.5]"));
        assert!(parse_churn("rate=0.1,burst=2")
            .unwrap_err()
            .contains("unknown churn key"));
    }
}
