//! Systematic interleaving exploration.
//!
//! The paper's guarantees are quantified over *every* asynchronous schedule
//! (finite but unbounded delays); a handful of seeded random runs samples
//! that space thinly. This module searches it deliberately, in the style of
//! deterministic-simulation testing: a caller-supplied **system factory**
//! builds a fresh run of the system under test for each candidate schedule,
//! drives it against a scheduler the explorer controls and reports whether
//! the run satisfied its properties; the explorer tries many schedules — a
//! bounded **random walk** over seeds plus a depth-bounded **branch-point
//! DFS** that systematically enumerates which pending event fires at each
//! of the first few steps — and, on the first failure, hands back the exact
//! [`Schedule`] so the failure replays forever (and can be
//! [shrunk](crate::shrink)).
//!
//! Two things make the search fast without changing its answers:
//!
//! * **Parallel walks** — [`ExploreConfig::jobs`] fans the random walks
//!   out over `std::thread::scope` workers and merges them back in walk
//!   order, so reports, counters and failing schedules are byte-identical
//!   at any job count. The DFS that follows runs sequentially.
//! * **Checkpoint/fork** — systems that implement [`ForkSystem`] (cloneable
//!   state, steppable runs) let the DFS snapshot a run at each branch point
//!   and *fork* a sibling from the deepest cached checkpoint instead of
//!   re-executing the shared prefix from scratch ([`explore_fork`]). The
//!   closure contract of [`explore`] is the from-scratch baseline; the
//!   paranoid [`ExploreConfig::verify_snapshots`] debug flag re-executes
//!   every forked run from scratch as well and panics on any divergence.
//!
//! A third lever, **dynamic partial-order reduction**
//! ([`ExploreConfig::reduce`]), *does* change which schedules run — it
//! prunes interleavings that provably reach states another explored
//! interleaving already covers, so deep searches finish in a fraction of
//! the runs without losing violations. Two mechanisms compose (see
//! `docs/testing.md`):
//!
//! * **Sleep sets** over the dynamic independence relation: each executed
//!   choice's [`Footprint`] (node states read/written, link queues
//!   mutated) is recorded by the runner; sibling branches whose choices
//!   commute with everything separating them are explored once, not once
//!   per order.
//! * **Branch-state dedup**: a canonical [`StateDigest`] of the full run
//!   state (node state, knowledge, in-flight queues, metrics) is taken at
//!   every branch point; a branch node whose (depth, state, pending-set)
//!   key was already expanded is not expanded again.
//!
//! Reduction defaults to [`ReduceMode::None`], which is byte-for-byte the
//! unreduced search.
//!
//! # Example
//!
//! ```
//! use ard_netsim::explore::{explore, ExploreConfig};
//! use ard_netsim::Scheduler;
//!
//! // A "system" whose property always holds: the explorer finds nothing.
//! let report = explore(&ExploreConfig::default(), || |sched: &mut dyn Scheduler| {
//!     let mut r = ard_netsim::explore::fixtures::racy_network(2);
//!     r.enqueue_wake_all(sched);
//!     r.run(sched, 1_000).map_err(|e| e.to_string())?;
//!     Ok(()) // ignore the planted bug: pretend all is well
//! });
//! assert!(report.failure.is_none());
//! assert!(report.runs > 0);
//! ```

use std::collections::HashMap;

use crate::fault::{ByzantinePlan, ChurnPlan, FaultPlan, FaultScheduler};
use crate::par;
use crate::record::{RecordingScheduler, Schedule};
use crate::scheduler::{Choice, Footprint, RandomScheduler, Scheduler, SendToken, StateDigest};
use crate::NodeId;

/// Budget and shape of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Number of random-walk schedules to try first (per-walk seeds are
    /// derived from `seed` by splitmix-style mixing, so adjacent base
    /// seeds never share walks).
    pub random_walks: u64,
    /// Maximum number of DFS schedules to try after the walks.
    pub dfs_budget: u64,
    /// Branch-point depth: the DFS enumerates every combination of "which
    /// pending event fires" for the first `dfs_depth` steps (later steps
    /// fall back to oldest-first).
    pub dfs_depth: usize,
    /// Base seed for the random-walk phase.
    pub seed: u64,
    /// Optional fault plan: every candidate schedule runs under a
    /// [`FaultScheduler`] injecting these faults, so fault choices join
    /// the search space (the random-walk phase re-seeds the fault RNG per
    /// walk; the DFS phase keeps the plan's own seed).
    pub fault: Option<FaultPlan>,
    /// Optional Byzantine plan plus the node count its timeline is sized
    /// for: every candidate schedule runs with the plan attached, so
    /// forgeries, selective silence and stale restarts join the search
    /// space. Unlike `fault`, the plan keeps its own seed in both phases —
    /// callers typically derive property checks (excluded-node sets) from
    /// the plan, which must match the plan the runs actually execute.
    pub byzantine: Option<(ByzantinePlan, usize)>,
    /// Optional churn plan plus the node count its timeline is sized for.
    /// The system factory is responsible for withholding the initial
    /// wake-ups of the plan's joiners, exactly as a driver would.
    pub churn: Option<(ChurnPlan, usize)>,
    /// Worker threads for the random-walk phase (the DFS phase runs on
    /// the caller's thread). Results are byte-identical at any value; `1`
    /// (the default) runs every walk inline too.
    pub jobs: usize,
    /// Debug flag: additionally re-execute every checkpoint-forked DFS run
    /// from scratch and panic if the forked run diverges in result,
    /// recorded schedule or branch counts. Only [`explore_fork`] systems
    /// fork; the closure contract of [`explore`] always runs from scratch.
    pub verify_snapshots: bool,
    /// Partial-order reduction applied to the DFS phase (the random-walk
    /// phase is sampling, not enumeration, and is never reduced). The
    /// default, [`ReduceMode::None`], reproduces the unreduced search
    /// byte for byte.
    pub reduce: ReduceMode,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            random_walks: 32,
            dfs_budget: 32,
            dfs_depth: 4,
            seed: 0,
            fault: None,
            byzantine: None,
            churn: None,
            jobs: 1,
            verify_snapshots: false,
            reduce: ReduceMode::None,
        }
    }
}

/// Partial-order reduction mode for the DFS phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReduceMode {
    /// Full enumeration — every decision path through the branch window is
    /// its own run. The default; all existing reports and schedules are
    /// unchanged under it.
    #[default]
    None,
    /// Sleep-set pruning over the dynamic footprint-derived independence
    /// relation, plus branch-state dedup on canonical state digests.
    /// Prunes only interleavings whose reachable states another explored
    /// interleaving covers; under a fault/Byzantine/churn plan the dedup
    /// arm switches off (timeline state is not captured by the digest) and
    /// sleep sets degrade gracefully via the fault layer's
    /// [`Footprint::everything`] widening.
    Sleep,
}

impl std::fmt::Display for ReduceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceMode::None => write!(f, "none"),
            ReduceMode::Sleep => write!(f, "sleep"),
        }
    }
}

/// Why an exploration stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopReason {
    /// Every candidate schedule (within the depth window, after any
    /// reduction) was executed: the search is *complete*, and a clean
    /// report means no violation exists in the explored space.
    #[default]
    FrontierExhausted,
    /// [`ExploreConfig::dfs_budget`] ran out with candidate prefixes still
    /// unexplored: a clean report only covers the schedules that ran.
    BudgetExhausted,
    /// The search stopped at its first property violation.
    Violation,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::FrontierExhausted => write!(f, "frontier exhausted"),
            StopReason::BudgetExhausted => write!(f, "budget exhausted"),
            StopReason::Violation => write!(f, "violation found"),
        }
    }
}

/// Attaches the config's Byzantine and churn plans (when present) to a
/// freshly built fault scheduler — the one place all three scheduler
/// construction sites share.
fn attach_plans<S: Scheduler>(config: &ExploreConfig, sched: FaultScheduler<S>) -> FaultScheduler<S> {
    let sched = match &config.byzantine {
        Some((plan, n)) => sched.with_byzantine(Some(plan.clone()), *n),
        None => sched,
    };
    match &config.churn {
        Some((plan, n)) => sched.with_churn(Some(plan.clone()), *n),
        None => sched,
    }
}

/// Derives the seed of walk `i` from the configured base seed.
///
/// The obvious `base + i` collides across adjacent user seeds (a sweep
/// over bases 0, 1, 2… re-runs almost every walk); instead each walk takes
/// one output of the splitmix64 stream starting at `base`, whose finalizer
/// scatters consecutive states across the whole 64-bit space.
fn walk_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a failing schedule came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Found by the random-walk phase, under this seed.
    RandomWalk {
        /// The (mixed) seed of the failing walk.
        seed: u64,
    },
    /// Found by the DFS phase, with this branch-decision prefix.
    Dfs {
        /// Pending-event index chosen at each of the first steps.
        prefix: Vec<usize>,
    },
}

impl std::fmt::Display for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Origin::RandomWalk { seed } => write!(f, "random-walk seed={seed}"),
            Origin::Dfs { prefix } => {
                let p: Vec<String> = prefix.iter().map(usize::to_string).collect();
                write!(f, "dfs prefix=[{}]", p.join(","))
            }
        }
    }
}

/// A property violation found during exploration.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// The exact schedule that produced the violation (strict-replayable).
    pub schedule: Schedule,
    /// The property-check failure message.
    pub reason: String,
    /// 0-based index of the failing run within the exploration.
    pub run_index: u64,
    /// Which search phase found it.
    pub origin: Origin,
}

/// Summary of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Total schedules executed.
    pub runs: u64,
    /// Schedules executed by the random-walk phase.
    pub random_walks: u64,
    /// Schedules executed by the DFS phase.
    pub dfs_runs: u64,
    /// The first violation found, if any (the exploration stops there).
    pub failure: Option<ExploreFailure>,
    /// Why the search ended. Identical at every job count, like every
    /// other field.
    pub stop: StopReason,
    /// Sibling branches pruned by sleep sets (each would have been the
    /// root of its own DFS subtree). Zero under [`ReduceMode::None`].
    pub sleep_pruned: u64,
    /// Sibling branches pruned because their branch node's
    /// (depth, state-digest, pending-set) key was already expanded. Zero
    /// under [`ReduceMode::None`] or whenever a fault/Byzantine/churn plan
    /// disables the dedup arm.
    pub digest_deduped: u64,
}

/// Arrival-ordered pending set with `O(log n)` order-statistic removal.
///
/// Choices live in an append-only slab in arrival order; a Fenwick tree
/// over liveness bits answers "remove the `i`-th oldest live entry" by
/// binary-lifting descent instead of the `O(n)` shift a `VecDeque::remove`
/// pays. Removal tombstones the slot; the slab compacts (preserving
/// arrival order) once dead slots dominate, keeping memory proportional to
/// the live count.
#[derive(Clone, Debug, Default)]
struct PendingRing {
    /// Arrival-ordered slab; `None` marks a removed entry.
    slots: Vec<Option<Choice>>,
    /// 1-based Fenwick tree over liveness: `fen[i-1]` counts the live
    /// slots in `(i - lowbit(i), i]`.
    fen: Vec<u32>,
    live: usize,
}

impl PendingRing {
    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn push(&mut self, choice: Choice) {
        self.slots.push(Some(choice));
        self.live += 1;
        // Appending node `n` to a Fenwick tree: its value is the live
        // count over (n - lowbit(n), n], which is 1 (the new entry) plus
        // the already-computed sums of the nodes tiling the rest of that
        // range.
        let n = self.slots.len();
        let lo = n - (n & n.wrapping_neg());
        let mut v = 1u32;
        let mut m = n - 1;
        while m > lo {
            v += self.fen[m - 1];
            m -= m & m.wrapping_neg();
        }
        self.fen.push(v);
    }

    /// The live choices in arrival order (oldest first).
    fn live_choices(&self) -> impl Iterator<Item = &Choice> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Removes and returns the `rank`-th oldest live choice (0-based).
    fn take(&mut self, rank: usize) -> Choice {
        debug_assert!(rank < self.live, "rank {rank} out of {} live", self.live);
        // Binary-lifting descent: find the largest prefix with live-count
        // < rank + 1; the next slot is the answer.
        let mut remaining = (rank + 1) as u32;
        let mut pos = 0usize;
        let mut step = 1usize << self.fen.len().ilog2();
        while step > 0 {
            let next = pos + step;
            if next <= self.fen.len() && self.fen[next - 1] < remaining {
                remaining -= self.fen[next - 1];
                pos = next;
            }
            step >>= 1;
        }
        self.remove_slot(pos)
    }

    /// Removes the choice with the smallest [`Choice::sort_key`] among the
    /// `k` oldest live entries, ties to the oldest — one step of the
    /// canonical round-based drain the reduced DFS uses past its branch
    /// window.
    fn take_min_of_oldest(&mut self, k: usize) -> Choice {
        debug_assert!(k >= 1 && k <= self.live);
        let mut best: Option<(usize, (u8, u32, u32, u32))> = None;
        let mut seen = 0usize;
        for (pos, slot) in self.slots.iter().enumerate() {
            let Some(choice) = slot else { continue };
            let key = choice.sort_key();
            let better = match &best {
                None => true,
                Some((_, best_key)) => key < *best_key,
            };
            if better {
                best = Some((pos, key));
            }
            seen += 1;
            if seen >= k {
                break;
            }
        }
        let (pos, _) = best.expect("take_min_of_oldest on an empty round");
        self.remove_slot(pos)
    }

    /// Tombstones the live entry at slab position `pos` and returns it.
    fn remove_slot(&mut self, pos: usize) -> Choice {
        let choice = self.slots[pos]
            .take()
            .expect("removal targets a live slot");
        let mut i = pos + 1;
        while i <= self.fen.len() {
            self.fen[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
        self.live -= 1;
        if self.slots.len() >= 64 && self.live * 2 < self.slots.len() {
            self.compact();
        }
        choice
    }

    /// Drops tombstones, preserving arrival order, and rebuilds the
    /// (now all-live) Fenwick tree, where node `i` covers `lowbit(i)` ones.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.fen.clear();
        for i in 1..=self.slots.len() {
            self.fen.push((i & i.wrapping_neg()) as u32);
        }
    }
}

/// A deterministic scheduler steered by a branch-decision prefix.
///
/// Pending events are kept in arrival order. At step `i` the scheduler
/// fires the event at index `prefix[i]` (clamped to the pending count);
/// past the prefix it fires the oldest pending event, i.e. degenerates to
/// global FIFO. While running it records how many events were pending at
/// each of the first `depth` steps — the branching factors the DFS driver
/// uses to enumerate sibling schedules.
///
/// Cloning captures the full state (pending events, position on the
/// decision path, branch counts) — a clone is a checkpoint the DFS can
/// later resume with a deeper prefix via [`DfsScheduler::set_prefix`].
///
/// In **reduce mode** ([`DfsScheduler::reduced`]) the scheduler
/// additionally records, at every branch point, the pending choices, the
/// runner's pre-decision state digest and the footprint of the steps the
/// decision executed — the observations the engine's sleep-set and dedup
/// logic runs on — and past the branch window it drains pending events in
/// a canonical order (a function of the pending *set*, not arrival order),
/// so interleaving-equivalent prefixes converge to identical terminal
/// states.
#[derive(Clone, Debug)]
pub struct DfsScheduler {
    pending: PendingRing,
    prefix: Vec<usize>,
    depth: usize,
    step: usize,
    branch_counts: Vec<usize>,
    /// Reduce mode: record [`BranchObs`] and drain the tail canonically.
    reduce: bool,
    branch_obs: Vec<BranchObs>,
    /// The most recent runner state digest reported before a `choose`.
    last_digest: u64,
    /// Live entries left in the current canonical-drain round; `0` starts
    /// a new round on the next tail decision.
    round_live: usize,
}

/// Everything the reduction engine needs to know about one branch-point
/// decision, recorded by a reduce-mode [`DfsScheduler`] as the run
/// executes.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct BranchObs {
    /// The pending choices at the decision, in arrival (rank) order — the
    /// enabled set the DFS enumerates children over.
    pub pending: Vec<Choice>,
    /// Canonical runner state digest immediately before the decision.
    pub digest: u64,
    /// Merged exact footprints of every step executed from this decision
    /// up to (exclusive) the next one: the decided choice itself plus any
    /// steps a fault layer served in between (those arrive pre-widened to
    /// [`Footprint::everything`]).
    pub fp: Footprint,
}

impl DfsScheduler {
    /// A scheduler following `prefix`, recording branch counts for the
    /// first `depth` steps.
    pub fn new(prefix: Vec<usize>, depth: usize) -> Self {
        DfsScheduler {
            pending: PendingRing::default(),
            prefix,
            depth,
            step: 0,
            branch_counts: Vec::new(),
            reduce: false,
            branch_obs: Vec::new(),
            last_digest: 0,
            round_live: 0,
        }
    }

    /// A scheduler like [`DfsScheduler::new`] that also records the
    /// per-branch observations partial-order reduction needs and drains
    /// canonically past the branch window.
    pub fn reduced(prefix: Vec<usize>, depth: usize) -> Self {
        DfsScheduler {
            reduce: true,
            ..Self::new(prefix, depth)
        }
    }

    /// Pending-event counts observed at each of the first `depth` steps.
    pub fn branch_counts(&self) -> &[usize] {
        &self.branch_counts
    }

    /// The reduce-mode branch observations (empty outside reduce mode).
    pub(crate) fn branch_obs(&self) -> &[BranchObs] {
        &self.branch_obs
    }

    /// Number of scheduling decisions made so far — the run's position on
    /// its branch-decision path.
    pub fn decisions(&self) -> usize {
        self.step
    }

    /// Retargets the branch-decision prefix without touching any other
    /// state. This is how a checkpoint cloned at decision `d` is pointed
    /// at a deeper sibling prefix before resuming: the first `d` decisions
    /// of the new prefix must match the path already taken.
    pub fn set_prefix(&mut self, prefix: Vec<usize>) {
        self.prefix = prefix;
    }
}

impl Scheduler for DfsScheduler {
    fn note_wake(&mut self, node: NodeId) {
        self.pending.push(Choice::Wake(node));
    }
    fn note_send(&mut self, token: SendToken) {
        self.pending.push(Choice::Deliver {
            src: token.src,
            dst: token.dst,
        });
    }
    fn note_tick(&mut self, node: NodeId) {
        self.pending.push(Choice::Tick(node));
    }
    fn choose(&mut self) -> Option<Choice> {
        if self.pending.is_empty() {
            return None;
        }
        if self.step >= self.depth && self.reduce {
            // Canonical tail: past the branch window, drain in rounds. A
            // round snapshots the pending count at its start and serves
            // those entries smallest-sort-key first; events arriving
            // during a round wait for the next one (fair — a tick cascade
            // cannot starve older events). The order is a function of the
            // pending set and the arrivals it generates, not of the
            // arrival order the branch decisions happened to produce, so
            // equivalent prefixes converge to identical terminal states.
            if self.round_live == 0 {
                self.round_live = self.pending.len();
            }
            let k = self.round_live;
            self.round_live -= 1;
            self.step += 1;
            return Some(self.pending.take_min_of_oldest(k));
        }
        if self.step < self.depth {
            self.branch_counts.push(self.pending.len());
            if self.reduce {
                self.branch_obs.push(BranchObs {
                    pending: self.pending.live_choices().copied().collect(),
                    digest: self.last_digest,
                    fp: Footprint::new(),
                });
            }
        }
        let want = self.prefix.get(self.step).copied().unwrap_or(0);
        let idx = want.min(self.pending.len() - 1);
        self.step += 1;
        Some(self.pending.take(idx))
    }
    fn pending(&self) -> usize {
        self.pending.len()
    }
    fn wants_footprints(&self) -> bool {
        self.reduce
    }
    fn note_footprint(&mut self, _choice: Choice, footprint: &Footprint) {
        // Attribute the executed step to the decision currently in flight:
        // after decision `j` executes, `step == j + 1`, and any
        // fault-layer-served steps before decision `j + 1` still land
        // here. Steps outside the branch window (or before the first
        // decision) have no observation to extend.
        if let Some(obs) = self.step.checked_sub(1).and_then(|j| self.branch_obs.get_mut(j)) {
            obs.fp.merge(footprint);
        }
    }
    fn wants_state_digest(&self) -> bool {
        self.reduce && self.step < self.depth
    }
    fn note_state_digest(&mut self, digest: u64) {
        self.last_digest = digest;
    }
}

/// A system under exploration that supports **checkpoint/fork** prefix
/// reuse: instead of a run-to-completion closure, the system exposes a
/// steppable, cloneable run, so the DFS can snapshot it at a branch point
/// and fork siblings from the snapshot rather than re-executing the shared
/// prefix. Protocols get this for free from their existing `Clone`able
/// state (see [`fixtures::RacySystem`]).
pub trait ForkSystem: Sync {
    /// Builds a fresh run: constructs the system and enqueues its initial
    /// events (wake-ups) into `sched`, without executing anything yet.
    fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun>;
}

/// One in-flight run of a [`ForkSystem`].
pub trait ForkRun {
    /// Deep-copies the run state — the snapshot the DFS forks from.
    fn fork(&self) -> Box<dyn ForkRun>;

    /// Executes at most one scheduler choice. `Ok(true)` means one event
    /// executed, `Ok(false)` means the run is complete (quiescent or out
    /// of budget with nothing pending), `Err` means it failed mid-run
    /// (e.g. a livelock report).
    fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String>;

    /// The property check applied once a run completes.
    ///
    /// # Errors
    ///
    /// Returns the violation description as `Err`.
    fn check(&mut self) -> Result<(), String>;

    /// The canonical digest of the run's current state (see
    /// [`Runner::state_digest`](crate::Runner::state_digest)), if the
    /// system exposes one. The reduced explorer stamps it on failing
    /// schedules as `terminal-digest` meta; the default `None` keeps
    /// digest-less systems working, at the cost of that meta.
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// Drives a [`ForkSystem`] run to completion under `sched` and applies its
/// property check — the run-to-completion equivalent of the `run_one`
/// closures passed to [`explore`].
///
/// # Errors
///
/// Returns the violation description (or a mid-run failure such as a
/// livelock report) as `Err`.
pub fn run_fork_system(system: &dyn ForkSystem, sched: &mut dyn Scheduler) -> Result<(), String> {
    let mut run = system.spawn(sched);
    let result = loop {
        match run.step(sched) {
            Ok(true) => {}
            Ok(false) => break run.check(),
            Err(err) => break Err(err),
        }
    };
    // Report the terminal digest even when the run failed: the shrinker
    // and the replay tooling read it off a recording wrapper to compare
    // terminal states of minimized schedules.
    if sched.wants_terminal_digest() {
        if let Some(digest) = run.state_digest() {
            sched.note_terminal_digest(digest);
        }
    }
    result
}

/// One candidate run from scratch, to completion, property check
/// included — what both entry points hand the engine. A run that exposes
/// its terminal state digest reports it to the (recording) scheduler.
type RunFull<'a> = dyn Fn(&mut dyn Scheduler) -> Result<(), String> + Sync + 'a;

/// Searches schedules for a property violation.
///
/// `factory` builds one `run_one` closure per candidate schedule; each
/// closure must construct the system under test *from scratch*, drive it
/// with the given scheduler and return `Err(reason)` on any property
/// violation (requirements, budgets, livelock, a fixture invariant, …).
/// Determinism of the runs given the choice sequence is what makes the
/// returned schedule replayable. The factory is shared across worker
/// threads (hence `Sync`); with [`ExploreConfig::jobs`] `> 1` the random
/// walks execute in parallel, but their outcomes are consumed in walk
/// order, so the report, counters and any failing schedule are
/// byte-identical at every job count.
///
/// The search runs `config.random_walks` seeded random schedules, then up
/// to `config.dfs_budget` DFS schedules enumerating the first
/// `config.dfs_depth` branch points, and stops at the first failure. Every
/// run is recorded, so the failing schedule comes back verbatim with
/// `origin` and `reason` metadata attached.
///
/// Systems with cloneable state can use [`explore_fork`] instead, which
/// additionally reuses shared DFS prefixes via checkpoint/fork.
pub fn explore<F, R>(config: &ExploreConfig, factory: F) -> ExploreReport
where
    F: Fn() -> R + Sync,
    R: FnMut(&mut dyn Scheduler) -> Result<(), String>,
{
    explore_engine(
        config,
        &|sched: &mut dyn Scheduler| {
            let mut run_one = factory();
            run_one(sched)
        },
        None,
    )
}

/// [`explore`] for [`ForkSystem`] implementors: identical search order and
/// results, but the DFS phase forks each run from the deepest cached
/// branch-point snapshot instead of re-executing its shared prefix from
/// scratch.
pub fn explore_fork(config: &ExploreConfig, system: &dyn ForkSystem) -> ExploreReport {
    explore_engine(
        config,
        &|sched: &mut dyn Scheduler| run_fork_system(system, sched),
        Some(system),
    )
}

/// Outcome of one executed DFS candidate prefix.
struct PrefixOutcome {
    result: Result<(), String>,
    schedule: Schedule,
    branch_counts: Vec<usize>,
    /// Reduce-mode branch observations (empty otherwise).
    branch_obs: Vec<BranchObs>,
    /// Terminal state digest, when the execution path captured one
    /// (reduce mode only — the walk is free, the digest is not).
    terminal_digest: Option<u64>,
}

/// Canonical digest of a branch node's pending *set*: sorted sort keys, so
/// arrival-order differences between equivalent prefixes don't split the
/// dedup key.
fn pending_set_hash(pending: &[Choice]) -> u64 {
    let mut keys: Vec<(u8, u32, u32, u32)> = pending.iter().map(Choice::sort_key).collect();
    keys.sort_unstable();
    let mut d = StateDigest::new();
    d.mix(keys.len() as u64);
    for (tag, a, b, c) in keys {
        d.mix(u64::from(tag));
        d.mix(u64::from(a));
        d.mix(u64::from(b));
        d.mix(u64::from(c));
    }
    d.finish()
}

/// Whether every choice in `a` also appears in `b` (multiset-insensitive —
/// sleep sets never hold duplicates worth distinguishing).
fn sleep_subset(a: &[Choice], b: &[Choice]) -> bool {
    a.iter().all(|u| b.contains(u))
}

/// A branch-point snapshot: the forkable run plus its full scheduler
/// stack, cloned immediately before the decision that completes the key's
/// decision path.
struct Checkpoint {
    run: Box<dyn ForkRun>,
    sched: RecordingScheduler<FaultScheduler<DfsScheduler>>,
}

/// The search itself. `run_full` executes a candidate from scratch;
/// `fork`, when the system has one, lets the DFS fork runs from
/// checkpoints instead.
fn explore_engine(
    config: &ExploreConfig,
    run_full: &RunFull<'_>,
    fork: Option<&dyn ForkSystem>,
) -> ExploreReport {
    let jobs = config.jobs.max(1);
    let mut report = ExploreReport::default();

    // Phase 1: bounded random walk over mixed seeds. The fault wrapper is
    // applied unconditionally (it is transparent without a plan); with a
    // plan, each walk also re-seeds the fault RNG so the walk phase
    // explores fault placements, not just interleavings. Walks execute in
    // index-ordered batches: workers run a batch in parallel, the merge
    // consumes it in order and stops at the first failure, exactly like
    // the sequential loop (walks of the batch past a failure are dropped).
    let mut next_walk = 0u64;
    while next_walk < config.random_walks {
        let remaining = config.random_walks - next_walk;
        let batch = if jobs <= 1 {
            1
        } else {
            remaining.min(jobs as u64 * 4)
        };
        let indices: Vec<u64> = (next_walk..next_walk + batch).collect();
        let outcomes = par::parallel_map(jobs, indices, |i| {
            let seed = walk_seed(config.seed, i);
            let fault_seed = config.fault.as_ref().map_or(0, |p| p.seed ^ seed);
            let mut sched = RecordingScheduler::new(attach_plans(
                config,
                FaultScheduler::seeded(
                    RandomScheduler::seeded(seed),
                    config.fault.clone(),
                    fault_seed,
                ),
            ));
            let result = run_full(&mut sched);
            let digest = sched.terminal_digest();
            (seed, result, digest, sched.into_schedule())
        });
        for (seed, result, digest, schedule) in outcomes {
            report.random_walks += 1;
            report.runs += 1;
            if let Err(reason) = result {
                report.stop = StopReason::Violation;
                report.failure = Some(failure(
                    schedule,
                    reason,
                    report.runs - 1,
                    Origin::RandomWalk { seed },
                    if config.reduce == ReduceMode::Sleep { digest } else { None },
                ));
                return report;
            }
        }
        next_walk += batch;
    }

    // Phase 2: depth-bounded branch-point DFS. A run with prefix `p`
    // implicitly decides index 0 at every step past `p`, so the children
    // enqueued after running `p` are exactly the prefixes
    // `p + [0]*k + [i]` (`i ≥ 1`, within the observed branching factor):
    // every decision path through the first `dfs_depth` steps is generated
    // exactly once. Each popped prefix runs inline: one run per popped
    // prefix, none wasted at a failure or at budget exhaustion.
    let reduce = config.reduce == ReduceMode::Sleep;
    // Branch-state dedup matches nodes purely on (depth, runner state,
    // pending set). Fault, Byzantine and churn plans carry extra run state
    // the digest cannot see (RNG positions, timeline cursors), so with any
    // plan attached the dedup arm switches off; sleep sets stay on and
    // degrade via the fault layer's footprint widening.
    let dedup = reduce
        && config.fault.is_none()
        && config.byzantine.is_none()
        && config.churn.is_none();
    // Branch nodes already expanded, by dedup key; the values are the
    // sleep sets they were expanded under (an equivalent node is covered
    // only by an expansion that slept no *more* than it would).
    let mut seen: HashMap<(usize, u64, u64), Vec<Vec<Choice>>> = HashMap::new();

    let mut checkpoints: HashMap<Vec<usize>, Checkpoint> = HashMap::new();
    // Stack entries pair each candidate prefix with the sleep set of the
    // branch node it starts from (always empty outside reduce mode, and
    // irrelevant to *executing* the prefix — only child generation reads
    // it).
    let mut stack: Vec<(Vec<usize>, Vec<Choice>)> = vec![(Vec::new(), Vec::new())];
    while report.dfs_runs < config.dfs_budget {
        let Some((prefix, sleep0)) = stack.pop() else { break };
        let outcome = run_prefix(run_full, fork, config, &prefix, &mut checkpoints);
        report.dfs_runs += 1;
        report.runs += 1;
        if let Err(reason) = outcome.result {
            report.stop = StopReason::Violation;
            report.failure = Some(failure(
                outcome.schedule,
                reason,
                report.runs - 1,
                Origin::Dfs { prefix },
                if reduce { outcome.terminal_digest } else { None },
            ));
            return report;
        }
        let counts = &outcome.branch_counts;
        if !reduce {
            // Reverse push order so the stack pops children in
            // lexicographic (earliest-position, smallest-index) order.
            for j in (prefix.len()..counts.len()).rev() {
                for i in (1..counts[j]).rev() {
                    let mut child = Vec::with_capacity(j + 1);
                    child.extend_from_slice(&prefix);
                    child.resize(j, 0);
                    child.push(i);
                    stack.push((child, Vec::new()));
                }
            }
            continue;
        }
        // Reduced child generation: walk this run's leftmost branch path,
        // evolving the sleep set along each executed edge (Godefroid-style
        // — a slept choice is one whose subtree an earlier sibling's
        // subtree provably covers).
        let obs = &outcome.branch_obs;
        debug_assert_eq!(obs.len(), counts.len(), "one observation per branch");
        let mut sleep = sleep0;
        let mut children: Vec<(Vec<usize>, Vec<Choice>)> = Vec::new();
        'walk: for j in prefix.len()..counts.len() {
            let ob = &obs[j];
            let siblings = counts[j].saturating_sub(1) as u64;
            let deeper = |from: usize| -> u64 {
                (from..counts.len()).map(|jj| counts[jj].saturating_sub(1) as u64).sum()
            };
            if dedup {
                let key = (j, ob.digest, pending_set_hash(&ob.pending));
                let entry = seen.entry(key).or_default();
                if entry.iter().any(|s| sleep_subset(s, &sleep)) {
                    // An equivalent branch node (same depth, same runner
                    // state, same pending set) was already expanded while
                    // sleeping a subset of what this one would: its
                    // subtree covers everything reachable from here.
                    report.digest_deduped += siblings + deeper(j + 1);
                    break 'walk;
                }
                entry.push(sleep.clone());
            }
            // The choice this run executed at the branch (rank 0 — the
            // leftmost continuation) and its alternatives.
            let c0 = ob.pending[0];
            let c0_slept = sleep.contains(&c0);
            let mut done: Vec<Choice> = vec![c0];
            for i in 1..counts[j] {
                let ci = ob.pending[i];
                if sleep.contains(&ci) || done.contains(&ci) {
                    report.sleep_pruned += 1;
                    continue;
                }
                // The sibling's subtree starts by executing `ci`; it
                // inherits every slept-or-already-explored choice that
                // commutes with `ci` (may-footprints on both sides — the
                // sibling hasn't executed, so no exact footprint exists).
                let ci_fp = Footprint::may(ci);
                let child_sleep: Vec<Choice> = sleep
                    .iter()
                    .chain(done.iter())
                    .filter(|u| !Footprint::may(**u).conflicts(&ci_fp))
                    .copied()
                    .collect();
                let mut child = Vec::with_capacity(j + 1);
                child.extend_from_slice(&prefix);
                child.resize(j, 0);
                child.push(i);
                children.push((child, child_sleep));
                done.push(ci);
            }
            if c0_slept {
                // The whole leftmost subtree below this node is covered
                // elsewhere (this run itself already executed, harmlessly);
                // its deeper branch nodes need no children of their own.
                report.sleep_pruned += deeper(j + 1);
                break 'walk;
            }
            // Advance along the executed edge: survivors are the slept
            // choices that commute with everything this decision actually
            // touched (its exact footprint, plus any fault-layer steps
            // merged in pre-widened).
            sleep.retain(|u| !Footprint::may(*u).conflicts(&ob.fp));
        }
        // Reverse push order so the stack pops children in lexicographic
        // (earliest-position, smallest-index) order.
        for child in children.into_iter().rev() {
            stack.push(child);
        }
    }
    if report.failure.is_none() {
        report.stop = if stack.is_empty() {
            StopReason::FrontierExhausted
        } else {
            StopReason::BudgetExhausted
        };
    }
    report
}

/// Executes one DFS candidate prefix and returns its outcome.
///
/// Forkable systems resume from the deepest cached checkpoint on the
/// prefix's decision path; everything else runs from scratch. Either way
/// the outcome is identical — which `config.verify_snapshots`
/// double-checks by also running every forked prefix from scratch.
fn run_prefix(
    run_full: &RunFull<'_>,
    fork: Option<&dyn ForkSystem>,
    config: &ExploreConfig,
    prefix: &[usize],
    checkpoints: &mut HashMap<Vec<usize>, Checkpoint>,
) -> PrefixOutcome {
    let Some(system) = fork else {
        return run_prefix_scratch(run_full, config, prefix);
    };
    let out = run_prefix_forked(system, config, prefix, checkpoints);
    if config.verify_snapshots {
        let scratch = run_prefix_scratch(run_full, config, prefix);
        assert!(
            scratch.result == out.result
                && scratch.schedule == out.schedule
                && scratch.branch_counts == out.branch_counts
                && scratch.branch_obs == out.branch_obs
                && scratch.terminal_digest == out.terminal_digest,
            "snapshot/replay divergence at dfs prefix {prefix:?}:\n\
             resumed:  {:?} / {:?} / {:?} / {}\n\
             scratch:  {:?} / {:?} / {:?} / {}",
            out.result,
            out.branch_counts,
            out.terminal_digest,
            out.schedule.to_text(),
            scratch.result,
            scratch.branch_counts,
            scratch.terminal_digest,
            scratch.schedule.to_text(),
        );
    }
    out
}

/// The scheduler stack every DFS run executes under: the prefix-following
/// DFS scheduler inside the fault layer, recorded.
fn dfs_sched(
    config: &ExploreConfig,
    prefix: &[usize],
) -> RecordingScheduler<FaultScheduler<DfsScheduler>> {
    let dfs = if config.reduce == ReduceMode::Sleep {
        DfsScheduler::reduced(prefix.to_vec(), config.dfs_depth)
    } else {
        DfsScheduler::new(prefix.to_vec(), config.dfs_depth)
    };
    RecordingScheduler::new(attach_plans(
        config,
        FaultScheduler::new(dfs, config.fault.clone()),
    ))
}

/// Packages a finished DFS run's scheduler stack as its outcome.
fn prefix_outcome(
    result: Result<(), String>,
    sched: RecordingScheduler<FaultScheduler<DfsScheduler>>,
    terminal_digest: Option<u64>,
) -> PrefixOutcome {
    let (fault_sched, schedule) = sched.into_parts();
    PrefixOutcome {
        result,
        schedule,
        branch_counts: fault_sched.inner().branch_counts().to_vec(),
        branch_obs: fault_sched.inner().branch_obs().to_vec(),
        terminal_digest,
    }
}

/// The from-scratch execution path for one DFS prefix.
fn run_prefix_scratch(
    run_full: &RunFull<'_>,
    config: &ExploreConfig,
    prefix: &[usize],
) -> PrefixOutcome {
    let mut sched = dfs_sched(config, prefix);
    let result = run_full(&mut sched);
    let terminal_digest = if config.reduce == ReduceMode::Sleep {
        sched.terminal_digest()
    } else {
        None
    };
    prefix_outcome(result, sched, terminal_digest)
}

/// The checkpoint/fork execution path for one DFS prefix.
///
/// The run starts from the deepest checkpoint whose key is a proper prefix
/// of this run's decision path, and snapshots every new branch point it
/// passes (decision positions in `[prefix.len(), depth)` with more than
/// one pending event — exactly the positions children fork at).
fn run_prefix_forked(
    system: &dyn ForkSystem,
    config: &ExploreConfig,
    prefix: &[usize],
    checkpoints: &mut HashMap<Vec<usize>, Checkpoint>,
) -> PrefixOutcome {
    let depth = config.dfs_depth;
    // A run with prefix `p` at decision `d ≥ p.len()` sits on decision
    // path `p ++ [0] * (d - p.len())`: that path is the checkpoint key.
    let key_for = |d: usize| -> Vec<usize> {
        let mut key = prefix.to_vec();
        key.resize(d, 0);
        key
    };

    let resumed = (0..prefix.len()).rev().find_map(|cut| {
        let cp = checkpoints.get(&prefix[..cut])?;
        let mut sched = cp.sched.clone();
        sched.inner_mut().inner_mut().set_prefix(prefix.to_vec());
        Some((cp.run.fork(), sched))
    });
    let (mut run, mut sched) = resumed.unwrap_or_else(|| {
        let mut sched = dfs_sched(config, prefix);
        (system.spawn(&mut sched), sched)
    });

    let result = loop {
        let d = sched.inner().inner().decisions();
        // Snapshot *before* the step that would complete decision path
        // `key_for(d)`: a sibling resuming here replays that decision
        // under its own prefix. Only positions children can fork at
        // (within this run's new suffix, under the depth, with an actual
        // branch) are worth keeping, and only the first run through a
        // given path stores it.
        let mut snapshot = None;
        if d >= prefix.len() && d < depth && sched.inner().inner().pending() > 1 {
            let key = key_for(d);
            if !checkpoints.contains_key(&key) {
                snapshot = Some((
                    key,
                    Checkpoint {
                        run: run.fork(),
                        sched: sched.clone(),
                    },
                ));
            }
        }
        match run.step(&mut sched) {
            Err(reason) => break Err(reason),
            Ok(false) => break run.check(),
            Ok(true) => {
                if let Some((key, checkpoint)) = snapshot {
                    // Only keep the snapshot if this step really consumed
                    // a DFS decision (the choice could have been served by
                    // the fault layer instead).
                    if sched.inner().inner().decisions() == d + 1 {
                        checkpoints.insert(key, checkpoint);
                    }
                }
            }
        }
    };
    let terminal_digest = if config.reduce == ReduceMode::Sleep {
        run.state_digest()
    } else {
        None
    };
    prefix_outcome(result, sched, terminal_digest)
}

fn failure(
    mut schedule: Schedule,
    reason: String,
    run_index: u64,
    origin: Origin,
    terminal_digest: Option<u64>,
) -> ExploreFailure {
    schedule.set_meta("origin", origin.to_string());
    schedule.set_meta("reason", reason.replace('\n', " "));
    if let Some(digest) = terminal_digest {
        schedule.set_meta("terminal-digest", format!("{digest:016x}"));
    }
    ExploreFailure {
        schedule,
        reason,
        run_index,
        origin,
    }
}

pub mod fixtures {
    //! Deliberately buggy protocols for exercising the explorer and
    //! shrinker — test fixtures, not part of the discovery reproduction.
    //!
    //! [`RacyNode`] plants a classic ordering bug: clients race their
    //! requests to a coordinator that implicitly assumes the lowest-id
    //! client's request always arrives first. Benign schedules (global
    //! FIFO over index-ordered wake-ups) never violate the assumption;
    //! an adversarial schedule that wakes the highest-id client early and
    //! rushes its message through does — which is exactly the kind of
    //! corner [`explore`](super::explore) exists to find and
    //! [`shrink`](crate::shrink) to minimize.
    //!
    //! Both fixtures are exposed two ways: as `run_one`-style closures
    //! ([`run_racy`], [`run_fragile`]) and as checkpointable
    //! [`ForkSystem`]s ([`RacySystem`], [`FragileSystem`]) whose runs the
    //! explorer's DFS can snapshot and fork. The closure forms are thin
    //! wrappers over the fork forms, so both execute identically.

    use super::{ForkRun, ForkSystem};
    use crate::envelope::Envelope;
    use crate::runner::{LivelockError, Protocol, Runner};
    use crate::scheduler::{Scheduler, StateDigest};
    use crate::{Context, NodeId};

    /// The step budget both fixtures run under before declaring a
    /// livelock, matching the original `Runner::run(sched, 10_000)` call.
    const FIXTURE_STEP_BUDGET: u64 = 10_000;

    /// One bounded step of a fixture run: mirrors `Runner::run`'s loop —
    /// `Ok(true)` after executing an event, `Ok(false)` at quiescence (or
    /// at an exhausted budget with nothing pending), and the exact
    /// livelock error `Runner::run` would produce otherwise.
    fn fixture_step<P: Protocol>(
        runner: &mut Runner<P>,
        steps: &mut u64,
        sched: &mut dyn Scheduler,
    ) -> Result<bool, String> {
        if *steps >= FIXTURE_STEP_BUDGET {
            return if sched.pending() == 0 {
                Ok(false)
            } else {
                Err(format!(
                    "fixture livelocked: {}",
                    LivelockError {
                        steps: *steps,
                        pending: sched.pending(),
                    }
                ))
            };
        }
        if runner.step(sched) {
            *steps += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// The fixture's only message: a client's request for the lease.
    #[derive(Clone, Debug)]
    pub struct Request;

    impl Envelope for Request {
        fn kind(&self) -> &'static str {
            "request"
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            0
        }
    }

    /// One node of the planted-bug network: node 0 is the coordinator,
    /// every other node a client that requests a lease on wake-up.
    ///
    /// The planted bug: the coordinator grants the lease to the *first*
    /// request it receives, written against the (wrong) assumption that
    /// requests arrive in client-id order — so a schedule in which the
    /// highest-id client's request arrives first hands the lease to a
    /// client the coordinator's bookkeeping believes cannot hold it.
    #[derive(Clone, Debug)]
    pub enum RacyNode {
        /// The coordinator: remembers who was granted the lease.
        Coordinator {
            /// First requester, once a request arrived.
            granted: Option<NodeId>,
        },
        /// A client: knows the coordinator's id.
        Client,
    }

    impl Protocol for RacyNode {
        type Message = Request;

        fn on_wake(&mut self, ctx: &mut Context<'_, Request>) {
            if matches!(self, RacyNode::Client) {
                ctx.send(NodeId::new(0), Request);
            }
        }

        fn on_message(&mut self, from: NodeId, _msg: Request, _ctx: &mut Context<'_, Request>) {
            if let RacyNode::Coordinator { granted } = self {
                granted.get_or_insert(from);
            }
        }

        fn digest_state(&self, d: &mut StateDigest) {
            match self {
                RacyNode::Coordinator { granted } => {
                    d.mix(1);
                    d.mix(granted.map_or(u64::MAX, |g| g.index() as u64));
                }
                RacyNode::Client => d.mix(2),
            }
        }
    }

    /// Builds the fixture network: one coordinator plus `clients` clients,
    /// each client initially knowing only the coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0`.
    pub fn racy_network(clients: usize) -> Runner<RacyNode> {
        assert!(clients >= 1, "the race needs at least one client");
        let mut nodes = vec![RacyNode::Coordinator { granted: None }];
        let mut knowledge = vec![vec![]];
        for _ in 0..clients {
            nodes.push(RacyNode::Client);
            knowledge.push(vec![NodeId::new(0)]);
        }
        Runner::new(nodes, knowledge)
    }

    /// The fixture's property check: the lease must not sit with the
    /// highest-id client (the coordinator's bookkeeping assumes it never
    /// can). Returns a failure description when the planted bug fired.
    pub fn racy_violation(runner: &Runner<RacyNode>) -> Option<String> {
        let highest = NodeId::new(runner.len() - 1);
        match runner.node(NodeId::new(0)) {
            RacyNode::Coordinator {
                granted: Some(winner),
            } if *winner == highest => Some(format!(
                "lease granted to highest-id client {winner}: its request outran every other"
            )),
            _ => None,
        }
    }

    /// The racy fixture as a checkpointable [`ForkSystem`]: exploring it
    /// via [`explore_fork`](super::explore_fork) lets the DFS fork runs at
    /// cached branch points instead of replaying shared prefixes.
    #[derive(Clone, Copy, Debug)]
    pub struct RacySystem {
        clients: usize,
        tolerant: bool,
        spin: u32,
    }

    impl RacySystem {
        /// The standard fixture: `clients` racing clients, planted bug
        /// armed.
        pub fn new(clients: usize) -> Self {
            RacySystem {
                clients,
                tolerant: false,
                spin: 0,
            }
        }

        /// Benchmark mode: identical network and schedules, but the
        /// planted violation is ignored, so a deep exhaustive search runs
        /// to its full budget instead of stopping at the first race.
        pub fn tolerant(clients: usize) -> Self {
            RacySystem {
                clients,
                tolerant: true,
                spin: 0,
            }
        }

        /// Attaches `spin` rounds of deterministic mixing work to every
        /// executed event, modeling protocols whose handlers do real
        /// computation (knowledge-set merges, signature checks, …). The
        /// work feeds an accumulator carried in the run state, so it is
        /// identical however the run is reached — from scratch or resumed
        /// from a forked checkpoint — and the scheduler choices are
        /// untouched. This is the knob the explorer benchmark uses to
        /// weight prefix re-execution.
        pub fn spin(mut self, spin: u32) -> Self {
            self.spin = spin;
            self
        }
    }

    struct RacyRun {
        runner: Runner<RacyNode>,
        steps: u64,
        tolerant: bool,
        spin: u32,
        acc: u64,
    }

    impl ForkSystem for RacySystem {
        fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun> {
            let mut runner = racy_network(self.clients);
            runner.enqueue_wake_all(sched);
            Box::new(RacyRun {
                runner,
                steps: 0,
                tolerant: self.tolerant,
                spin: self.spin,
                acc: 0,
            })
        }
    }

    impl ForkRun for RacyRun {
        fn fork(&self) -> Box<dyn ForkRun> {
            Box::new(RacyRun {
                runner: self.runner.clone(),
                steps: self.steps,
                tolerant: self.tolerant,
                spin: self.spin,
                acc: self.acc,
            })
        }
        fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
            let stepped = fixture_step(&mut self.runner, &mut self.steps, sched)?;
            if stepped && self.spin > 0 {
                let mut z = self.acc ^ self.steps;
                for _ in 0..self.spin {
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                }
                self.acc = std::hint::black_box(z);
            }
            Ok(stepped)
        }
        fn state_digest(&self) -> Option<u64> {
            Some(self.runner.state_digest())
        }
        fn check(&mut self) -> Result<(), String> {
            if self.tolerant {
                return Ok(());
            }
            match racy_violation(&self.runner) {
                Some(reason) => Err(reason),
                None => Ok(()),
            }
        }
    }

    /// Runs the fixture under `sched` to quiescence (or a small step
    /// budget) and applies [`racy_violation`] — the `run_one` closure the
    /// explorer and shrinker tests use.
    ///
    /// # Errors
    ///
    /// Returns the violation description (or a livelock report) as `Err`.
    pub fn run_racy(clients: usize, sched: &mut dyn Scheduler) -> Result<(), String> {
        super::run_fork_system(&RacySystem::new(clients), sched)
    }

    /// Messages of the *fragile* fixture: a hub's ping and a client's pong.
    #[derive(Clone, Debug)]
    pub enum PingPong {
        /// Hub → client.
        Ping,
        /// Client → hub.
        Pong,
    }

    impl Envelope for PingPong {
        fn kind(&self) -> &'static str {
            match self {
                PingPong::Ping => "ping",
                PingPong::Pong => "pong",
            }
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            1
        }
    }

    /// One node of the planted *fault-dependent* bug network: node 0 is a
    /// hub that pings every client once on wake-up and counts pongs;
    /// clients pong every ping.
    ///
    /// The planted bug: the hub assumes the network is lossless and
    /// crash-free — with no faults every ping begets a pong and the
    /// invariant `pongs == clients` holds at quiescence under *any*
    /// schedule, but a single dropped message (or a delivery discarded by
    /// a crashed client) silences a client forever. This is the fixture
    /// the explorer's fault search exists to break.
    #[derive(Clone, Debug)]
    pub enum FragileNode {
        /// The hub: counts the pongs it has heard.
        Hub {
            /// Pongs received so far.
            pongs: usize,
            /// Clients it pinged.
            clients: usize,
        },
        /// A client: pongs every ping.
        Client,
    }

    impl Protocol for FragileNode {
        type Message = PingPong;

        fn on_wake(&mut self, ctx: &mut Context<'_, PingPong>) {
            if let FragileNode::Hub { clients, .. } = self {
                for c in 1..=*clients {
                    ctx.send(NodeId::new(c), PingPong::Ping);
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: PingPong, ctx: &mut Context<'_, PingPong>) {
            match (self, msg) {
                (FragileNode::Client, PingPong::Ping) => ctx.send(from, PingPong::Pong),
                (FragileNode::Hub { pongs, .. }, PingPong::Pong) => *pongs += 1,
                _ => {}
            }
        }

        fn digest_state(&self, d: &mut StateDigest) {
            match self {
                FragileNode::Hub { pongs, clients } => {
                    d.mix(1);
                    d.mix(*pongs as u64);
                    d.mix(*clients as u64);
                }
                FragileNode::Client => d.mix(2),
            }
        }
    }

    /// Builds the fragile network: one hub plus `clients` clients, with
    /// mutual knowledge between the hub and each client.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0`.
    pub fn fragile_network(clients: usize) -> Runner<FragileNode> {
        assert!(clients >= 1, "the fragile hub needs at least one client");
        let mut nodes = vec![FragileNode::Hub { pongs: 0, clients }];
        let mut knowledge = vec![(1..=clients).map(NodeId::new).collect::<Vec<_>>()];
        for _ in 0..clients {
            nodes.push(FragileNode::Client);
            knowledge.push(vec![NodeId::new(0)]);
        }
        Runner::new(nodes, knowledge)
    }

    /// The fragile fixture as a checkpointable [`ForkSystem`]; see
    /// [`RacySystem`].
    #[derive(Clone, Copy, Debug)]
    pub struct FragileSystem {
        clients: usize,
    }

    impl FragileSystem {
        /// The fixture with `clients` clients behind the fragile hub.
        pub fn new(clients: usize) -> Self {
            FragileSystem { clients }
        }
    }

    struct FragileRun {
        runner: Runner<FragileNode>,
        steps: u64,
    }

    impl ForkSystem for FragileSystem {
        fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun> {
            let mut runner = fragile_network(self.clients);
            runner.enqueue_wake_all(sched);
            Box::new(FragileRun { runner, steps: 0 })
        }
    }

    impl ForkRun for FragileRun {
        fn fork(&self) -> Box<dyn ForkRun> {
            Box::new(FragileRun {
                runner: self.runner.clone(),
                steps: self.steps,
            })
        }
        fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
            fixture_step(&mut self.runner, &mut self.steps, sched)
        }
        fn state_digest(&self) -> Option<u64> {
            Some(self.runner.state_digest())
        }
        fn check(&mut self) -> Result<(), String> {
            // A violation is only declared against a *complete* state —
            // hub awake, no messages in flight — so schedule shrinking
            // cannot fake a failure by merely truncating deliveries.
            if !self.runner.links_empty() || !self.runner.is_awake(NodeId::new(0)) {
                return Ok(());
            }
            match self.runner.node(NodeId::new(0)) {
                FragileNode::Hub { pongs, clients } if pongs < clients => Err(format!(
                    "fragile hub heard only {pongs} of {clients} pongs: a fault silenced a client"
                )),
                _ => Ok(()),
            }
        }
    }

    /// Runs the fragile fixture under `sched` and checks its (fault-naive)
    /// invariant. A violation is only declared against a *complete* state
    /// — hub awake, no messages in flight — so schedule shrinking cannot
    /// fake a failure by merely truncating deliveries.
    ///
    /// # Errors
    ///
    /// Returns the violation description (or a livelock report) as `Err`.
    pub fn run_fragile(clients: usize, sched: &mut dyn Scheduler) -> Result<(), String> {
        super::run_fork_system(&FragileSystem::new(clients), sched)
    }

    /// The *equiv* fixture's only message: an endorsement making its
    /// receiver a leader. Forgeable — a Byzantine sender can mint
    /// endorsements the voter never issued, whatever the salt flavor.
    #[derive(Clone, Debug)]
    pub struct Endorse;

    impl Envelope for Endorse {
        fn kind(&self) -> &'static str {
            "endorse"
        }
        fn for_each_carried_id(&self, _f: &mut dyn FnMut(NodeId)) {}
        fn aux_bits(&self) -> u64 {
            0
        }
        fn forge(_src: NodeId, _dst: NodeId, _salt: u32) -> Option<Self> {
            Some(Endorse)
        }
    }

    /// One node of the planted *equivocation-dependent* bug network: node 0
    /// is a voter that endorses exactly one candidate (node 1) on wake-up;
    /// every other node is a candidate that declares itself leader on
    /// receiving an endorsement.
    ///
    /// The planted bug: candidates trust endorsements without
    /// authentication. Under every honest schedule — any interleaving, any
    /// link faults — at most candidate 1 ever leads, so single-leadership
    /// holds. A Byzantine equivocator forging endorsements to other
    /// candidates elects a second leader: the violation *requires* a
    /// [`Choice::Forge`](crate::Choice::Forge) in the schedule, which is
    /// exactly what the explorer's Byzantine search exists to inject.
    #[derive(Clone, Debug)]
    pub enum EquivNode {
        /// The voter: endorses candidate 1 once, on wake-up.
        Voter,
        /// A candidate: leads as soon as anyone endorses it.
        Candidate {
            /// Whether an endorsement arrived.
            leader: bool,
        },
    }

    impl Protocol for EquivNode {
        type Message = Endorse;

        fn on_wake(&mut self, ctx: &mut Context<'_, Endorse>) {
            if matches!(self, EquivNode::Voter) {
                ctx.send(NodeId::new(1), Endorse);
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Endorse, _ctx: &mut Context<'_, Endorse>) {
            if let EquivNode::Candidate { leader } = self {
                *leader = true;
            }
        }

        fn digest_state(&self, d: &mut StateDigest) {
            match self {
                EquivNode::Voter => d.mix(1),
                EquivNode::Candidate { leader } => {
                    d.mix(2);
                    d.mix(u64::from(*leader));
                }
            }
        }
    }

    /// Builds the equiv network: one voter plus `candidates` candidates,
    /// with mutual voter ↔ candidate knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `candidates < 2` (a second leader needs a second
    /// candidate).
    pub fn equiv_network(candidates: usize) -> Runner<EquivNode> {
        assert!(candidates >= 2, "equivocation needs at least two candidates");
        let mut nodes = vec![EquivNode::Voter];
        let mut knowledge = vec![(1..=candidates).map(NodeId::new).collect::<Vec<_>>()];
        for _ in 0..candidates {
            nodes.push(EquivNode::Candidate { leader: false });
            knowledge.push(vec![NodeId::new(0)]);
        }
        Runner::new(nodes, knowledge)
    }

    /// The equiv fixture's property check: at most one candidate may lead.
    /// Returns a failure description when forged endorsements elected a
    /// second leader.
    pub fn equiv_violation(runner: &Runner<EquivNode>) -> Option<String> {
        let leaders: Vec<NodeId> = (1..runner.len())
            .map(NodeId::new)
            .filter(|&c| matches!(runner.node(c), EquivNode::Candidate { leader: true }))
            .collect();
        if leaders.len() >= 2 {
            let ids: Vec<String> = leaders.iter().map(ToString::to_string).collect();
            Some(format!(
                "forged endorsements elected {} leaders ({}): the voter endorsed only candidate 1",
                leaders.len(),
                ids.join(", ")
            ))
        } else {
            None
        }
    }

    /// The equiv fixture as a checkpointable [`ForkSystem`]; see
    /// [`RacySystem`].
    #[derive(Clone, Copy, Debug)]
    pub struct EquivSystem {
        candidates: usize,
    }

    impl EquivSystem {
        /// The fixture with `candidates` candidates behind the voter.
        pub fn new(candidates: usize) -> Self {
            EquivSystem { candidates }
        }
    }

    struct EquivRun {
        runner: Runner<EquivNode>,
        steps: u64,
    }

    impl ForkSystem for EquivSystem {
        fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun> {
            let mut runner = equiv_network(self.candidates);
            runner.enqueue_wake_all(sched);
            Box::new(EquivRun { runner, steps: 0 })
        }
    }

    impl ForkRun for EquivRun {
        fn fork(&self) -> Box<dyn ForkRun> {
            Box::new(EquivRun {
                runner: self.runner.clone(),
                steps: self.steps,
            })
        }
        fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
            fixture_step(&mut self.runner, &mut self.steps, sched)
        }
        fn state_digest(&self) -> Option<u64> {
            Some(self.runner.state_digest())
        }
        fn check(&mut self) -> Result<(), String> {
            // A violation is only declared against a *complete* state —
            // voter awake, no messages in flight — so shrinking cannot
            // fake one by truncating the voter's own endorsement.
            if !self.runner.links_empty() || !self.runner.is_awake(NodeId::new(0)) {
                return Ok(());
            }
            match equiv_violation(&self.runner) {
                Some(reason) => Err(reason),
                None => Ok(()),
            }
        }
    }

    /// Runs the equiv fixture under `sched` and checks single-leadership.
    /// Honest schedules always pass; breaking it takes a Byzantine plan
    /// (see [`ExploreConfig::byzantine`](super::ExploreConfig::byzantine)).
    ///
    /// # Errors
    ///
    /// Returns the violation description (or a livelock report) as `Err`.
    pub fn run_equiv(candidates: usize, sched: &mut dyn Scheduler) -> Result<(), String> {
        super::run_fork_system(&EquivSystem::new(candidates), sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ReplayScheduler;
    use crate::FifoScheduler;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    #[test]
    fn fixture_is_clean_under_fifo() {
        let mut sched = FifoScheduler::new();
        assert!(fixtures::run_racy(3, &mut sched).is_ok());
    }

    #[test]
    fn dfs_scheduler_degenerates_to_fifo_beyond_prefix() {
        let mut s = DfsScheduler::new(vec![], 2);
        for i in 0..4 {
            s.note_wake(NodeId::new(i));
        }
        for i in 0..4 {
            assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(i))));
        }
        assert_eq!(s.branch_counts(), &[4, 3]);
    }

    #[test]
    fn dfs_scheduler_follows_and_clamps_the_prefix() {
        let mut s = DfsScheduler::new(vec![2, 99], 4);
        for i in 0..3 {
            s.note_wake(NodeId::new(i));
        }
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(2))));
        // Index 99 clamps to the last pending event.
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(1))));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
    }

    /// The pre-ring `DfsScheduler` pending storage: a `VecDeque` removed
    /// from by index. The ring must be observationally identical to this.
    struct ModelDfs {
        pending: VecDeque<Choice>,
        prefix: Vec<usize>,
        depth: usize,
        step: usize,
        branch_counts: Vec<usize>,
    }

    impl ModelDfs {
        fn choose(&mut self) -> Option<Choice> {
            if self.pending.is_empty() {
                return None;
            }
            if self.step < self.depth {
                self.branch_counts.push(self.pending.len());
            }
            let want = self.prefix.get(self.step).copied().unwrap_or(0);
            let idx = want.min(self.pending.len() - 1);
            self.step += 1;
            self.pending.remove(idx)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Satellite: the Fenwick ring keeps the exact "i-th oldest live
        /// event" semantics of the old `VecDeque::remove(idx)` storage,
        /// including across compactions, for arbitrary push/choose
        /// interleavings and prefixes.
        #[test]
        fn ring_matches_the_vecdeque_model(
            prefix in proptest::collection::vec(0usize..6, 0..8),
            depth in 0usize..8,
            ops in proptest::collection::vec((0usize..3, 0usize..200), 1..300),
        ) {
            let mut ring = DfsScheduler::new(prefix.clone(), depth);
            let mut model = ModelDfs {
                pending: VecDeque::new(),
                prefix,
                depth,
                step: 0,
                branch_counts: Vec::new(),
            };
            for (op, arg) in ops {
                if op == 0 {
                    // A batch of pushes, ids distinct per arrival index so
                    // ordering mistakes are visible.
                    for k in 0..(arg % 5) + 1 {
                        let id = NodeId::new(arg + k);
                        ring.note_wake(id);
                        model.pending.push_back(Choice::Wake(id));
                    }
                } else {
                    proptest::prop_assert_eq!(ring.choose(), model.choose());
                }
            }
            // Drain both completely.
            loop {
                let (a, b) = (ring.choose(), model.choose());
                proptest::prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            proptest::prop_assert_eq!(ring.branch_counts(), model.branch_counts.as_slice());
        }
    }

    #[test]
    fn walk_seeds_never_collide_across_adjacent_bases() {
        // The old `base + i` scheme made walk i of base b identical to
        // walk i - 1 of base b + 1; mixed seeds must all be distinct.
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for i in 0..64u64 {
                assert!(
                    seen.insert(walk_seed(base, i)),
                    "walk seed collision at base={base} i={i}"
                );
            }
        }
    }

    #[test]
    fn random_walk_finds_the_planted_race() {
        let config = ExploreConfig {
            random_walks: 64,
            dfs_budget: 0,
            dfs_depth: 0,
            seed: 0,
            fault: None,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_racy(4, sched)
        });
        let failure = report.failure.expect("walk should find the race");
        assert!(matches!(failure.origin, Origin::RandomWalk { .. }));
        assert!(failure.reason.contains("highest-id client"));
        assert_eq!(failure.schedule.meta("reason"), Some(failure.reason.as_str()));
    }

    #[test]
    fn dfs_alone_finds_the_planted_race() {
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 128,
            dfs_depth: 4,
            seed: 0,
            fault: None,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_racy(2, sched)
        });
        let failure = report.failure.expect("dfs should find the race");
        assert!(matches!(failure.origin, Origin::Dfs { .. }));
    }

    #[test]
    fn found_schedules_replay_to_the_same_failure() {
        let config = ExploreConfig::default();
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_racy(4, sched)
        });
        let failure = report.failure.expect("should find the race");
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let err = fixtures::run_racy(4, &mut replay).unwrap_err();
        assert_eq!(err, failure.reason);
        assert_eq!(replay.leftover(), 0, "recorded run was complete");
    }

    #[test]
    fn exploration_respects_its_budget_and_counts_runs() {
        let config = ExploreConfig {
            random_walks: 3,
            dfs_budget: 5,
            dfs_depth: 3,
            seed: 9,
            fault: None,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            // Never fails: drain the schedule against a trivial system.
            let mut r = fixtures::racy_network(2);
            r.enqueue_wake_all(sched);
            r.run(sched, 1_000).map_err(|e| e.to_string())?;
            Ok(())
        });
        assert!(report.failure.is_none());
        assert_eq!(report.random_walks, 3);
        assert!(report.dfs_runs <= 5);
        assert_eq!(report.runs, report.random_walks + report.dfs_runs);
    }

    #[test]
    fn fragile_fixture_is_clean_without_faults() {
        // Even a full exploration finds nothing: the fixture only breaks
        // when a fault silences a client.
        let report = explore(&ExploreConfig::default(), || {
            |sched: &mut dyn Scheduler| fixtures::run_fragile(3, sched)
        });
        assert!(report.failure.is_none());
    }

    #[test]
    fn fault_search_finds_and_shrinks_the_planted_fragile_bug() {
        let config = ExploreConfig {
            random_walks: 64,
            dfs_budget: 0,
            dfs_depth: 0,
            seed: 0,
            fault: Some(FaultPlan::new(1).with_drop(0.25)),
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_fragile(1, sched)
        });
        let failure = report.failure.expect("fault search should silence the client");
        assert!(failure.reason.contains("pongs"));

        // Strict replay without any fault machinery — the injected faults
        // are ordinary recorded choices.
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let err = fixtures::run_fragile(1, &mut replay).unwrap_err();
        assert_eq!(err, failure.reason);

        // The shrinker minimizes it to the essence: the hub's wake plus the
        // fault that silences its client (a dropped ping, or a delivered
        // ping whose pong is dropped).
        let result = crate::shrink::shrink(&failure.schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
        });
        assert!(
            (2..=3).contains(&result.schedule.len()),
            "expected a 2-3 choice witness, got:\n{}",
            result.schedule.to_text()
        );
        let mut replay = ReplayScheduler::strict(&result.schedule);
        assert_eq!(
            fixtures::run_fragile(1, &mut replay).unwrap_err(),
            result.reason
        );
    }

    #[test]
    fn equiv_fixture_is_clean_without_a_byzantine_plan() {
        // A full exploration — interleavings alone, no forgeries — finds
        // nothing: only the endorsed candidate ever leads.
        let report = explore(&ExploreConfig::default(), || {
            |sched: &mut dyn Scheduler| fixtures::run_equiv(3, sched)
        });
        assert!(report.failure.is_none());
    }

    #[test]
    fn byzantine_search_finds_and_shrinks_the_planted_equivocation() {
        use crate::fault::ByzantinePlan;
        // Seed 3 makes candidate 3 the equivocator, forging endorsements
        // to candidates 1 and 2 — two leaders once both deliver.
        let config = ExploreConfig {
            random_walks: 64,
            dfs_budget: 64,
            dfs_depth: 4,
            seed: 0,
            byzantine: Some((ByzantinePlan::new(3, 1).only("equivocate"), 4)),
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_equiv(3, sched)
        });
        let failure = report.failure.expect("byzantine search should split leadership");
        assert!(failure.reason.contains("forged endorsements"));

        // Strict replay without any Byzantine machinery — the forgeries
        // are ordinary recorded choices.
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let err = fixtures::run_equiv(3, &mut replay).unwrap_err();
        assert_eq!(err, failure.reason);

        // ddmin strips the honest bulk; what remains is the voter's wake,
        // its endorsement, one forgery and the deliveries that elect the
        // second leader.
        let result = crate::shrink::shrink(&failure.schedule, || {
            |sched: &mut dyn Scheduler| fixtures::run_equiv(3, sched)
        });
        assert!(
            result.schedule.len() <= 6,
            "expected a <= 6 choice witness, got:\n{}",
            result.schedule.to_text()
        );
        assert!(
            result
                .schedule
                .choices()
                .iter()
                .any(|c| matches!(c, Choice::Forge { .. })),
            "the minimized witness must keep a forgery"
        );
        let mut replay = ReplayScheduler::strict(&result.schedule);
        assert_eq!(
            fixtures::run_equiv(3, &mut replay).unwrap_err(),
            result.reason
        );
    }

    #[test]
    fn byzantine_fork_exploration_matches_the_closure_contract() {
        use crate::fault::ByzantinePlan;
        // Checkpoint/fork must clone the Byzantine scheduler state
        // faithfully: both paths make the identical search.
        let config = ExploreConfig {
            random_walks: 8,
            dfs_budget: 64,
            dfs_depth: 5,
            seed: 3,
            byzantine: Some((ByzantinePlan::new(5, 1), 4)),
            ..ExploreConfig::default()
        };
        let closure = explore(&config, || |sched: &mut dyn Scheduler| {
            fixtures::run_equiv(3, sched)
        });
        let forked = explore_fork(&config, &fixtures::EquivSystem::new(3));
        assert_eq!(report_fingerprint(&closure), report_fingerprint(&forked));
    }

    #[test]
    fn dfs_enumerates_distinct_interleavings() {
        // Every DFS run on a benign system produces a distinct choice
        // sequence: the prefix enumeration never repeats a decision path.
        let seen = Mutex::new(Vec::<Vec<Choice>>::new());
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 40,
            dfs_depth: 3,
            seed: 0,
            fault: None,
            ..ExploreConfig::default()
        };
        let report = explore(&config, || |sched: &mut dyn Scheduler| {
            let mut recorder = RecordingScheduler::new(&mut *sched);
            let mut r = fixtures::racy_network(2);
            r.enqueue_wake_all(&mut recorder);
            r.run(&mut recorder, 1_000).map_err(|e| e.to_string())?;
            seen.lock().expect("seen lock").push(recorder.recorded().to_vec());
            Ok(())
        });
        assert!(report.failure.is_none());
        let seen = seen.into_inner().expect("seen lock");
        assert!(seen.len() > 5, "expected a real enumeration");
        for a in 0..seen.len() {
            for b in a + 1..seen.len() {
                assert_ne!(seen[a], seen[b], "schedules {a} and {b} coincide");
            }
        }
    }

    /// Renders a report (counters + failing schedule text) for byte-level
    /// comparison across engine configurations.
    fn report_fingerprint(report: &ExploreReport) -> String {
        let failure = report.failure.as_ref().map_or_else(
            || "none".to_string(),
            |f| {
                format!(
                    "run {} origin {} reason {}\n{}",
                    f.run_index,
                    f.origin,
                    f.reason,
                    f.schedule.to_text()
                )
            },
        );
        format!(
            "runs {} walks {} dfs {} stop {} sleep-pruned {} deduped {} failure {}",
            report.runs,
            report.random_walks,
            report.dfs_runs,
            report.stop,
            report.sleep_pruned,
            report.digest_deduped,
            failure
        )
    }

    #[test]
    fn fork_exploration_matches_the_closure_contract() {
        // The checkpointing fork path and the plain closure path must make
        // identical searches — same counters, same failure, same schedule.
        for (walks, dfs, depth) in [(8, 64, 5), (0, 96, 6)] {
            let config = ExploreConfig {
                random_walks: walks,
                dfs_budget: dfs,
                dfs_depth: depth,
                seed: 3,
                fault: None,
                ..ExploreConfig::default()
            };
            let closure = explore(&config, || |sched: &mut dyn Scheduler| {
                fixtures::run_racy(3, sched)
            });
            let forked = explore_fork(&config, &fixtures::RacySystem::new(3));
            assert_eq!(report_fingerprint(&closure), report_fingerprint(&forked));
        }
    }

    #[test]
    fn checkpointing_changes_nothing_and_verifies_against_scratch() {
        let base = ExploreConfig {
            random_walks: 0,
            dfs_budget: 128,
            dfs_depth: 6,
            seed: 0,
            fault: None,
            ..ExploreConfig::default()
        };
        // The closure contract over the same system is the from-scratch
        // baseline the forked search must match.
        let system = fixtures::RacySystem::new(3);
        let scratch = explore(&base, || {
            |sched: &mut dyn Scheduler| run_fork_system(&system, sched)
        });
        let forked = explore_fork(&base, &system);
        // verify_snapshots re-executes every resumed run from scratch and
        // panics on divergence — running it is the equivalence check.
        let checked = explore_fork(
            &ExploreConfig {
                verify_snapshots: true,
                ..base
            },
            &system,
        );
        assert_eq!(report_fingerprint(&scratch), report_fingerprint(&forked));
        assert_eq!(report_fingerprint(&scratch), report_fingerprint(&checked));
    }

    #[test]
    fn reduced_search_still_finds_the_race_and_stamps_the_digest() {
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 256,
            dfs_depth: 5,
            seed: 0,
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let report = explore_fork(&config, &fixtures::RacySystem::new(3));
        let failure = report.failure.expect("reduced dfs should find the race");
        assert!(matches!(failure.origin, Origin::Dfs { .. }));
        assert_eq!(report.stop, StopReason::Violation);
        let digest = failure
            .schedule
            .meta("terminal-digest")
            .expect("reduced failures carry the terminal digest");
        assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
        // The stamped digest is the replayed run's actual terminal state.
        let mut replay = ReplayScheduler::strict(&failure.schedule);
        let mut runner = fixtures::racy_network(3);
        runner.enqueue_wake_all(&mut replay);
        while runner.step(&mut replay) {}
        assert_eq!(format!("{:016x}", runner.state_digest()), digest);
    }

    #[test]
    fn reduction_prunes_commuting_interleavings_without_losing_violations() {
        // Tolerant fixture: no violation either way, so both searches run
        // to completion and the run counts compare directly.
        let base = ExploreConfig {
            random_walks: 0,
            dfs_budget: 4_000,
            dfs_depth: 7,
            seed: 0,
            ..ExploreConfig::default()
        };
        let full = explore_fork(&base, &fixtures::RacySystem::tolerant(3));
        let reduced = explore_fork(
            &ExploreConfig {
                reduce: ReduceMode::Sleep,
                ..base.clone()
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert!(full.failure.is_none() && reduced.failure.is_none());
        assert_eq!(full.stop, StopReason::FrontierExhausted, "{}", full.dfs_runs);
        assert_eq!(reduced.stop, StopReason::FrontierExhausted);
        assert!(
            reduced.dfs_runs * 2 <= full.dfs_runs,
            "reduction should at least halve the search: {} vs {}",
            reduced.dfs_runs,
            full.dfs_runs
        );
        assert!(reduced.sleep_pruned > 0, "sleep sets should fire");
        assert_eq!(full.sleep_pruned, 0);
        assert_eq!(full.digest_deduped, 0);

        // And on the armed fixture the reduced search still finds the bug.
        let armed = explore_fork(
            &ExploreConfig {
                reduce: ReduceMode::Sleep,
                ..base
            },
            &fixtures::RacySystem::new(3),
        );
        assert!(armed.failure.is_some(), "reduction must not hide the race");
    }

    #[test]
    fn stop_reason_distinguishes_budget_from_frontier() {
        let base = ExploreConfig {
            random_walks: 0,
            dfs_depth: 5,
            seed: 0,
            ..ExploreConfig::default()
        };
        let starved = explore_fork(
            &ExploreConfig {
                dfs_budget: 3,
                ..base.clone()
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert_eq!(starved.stop, StopReason::BudgetExhausted);
        let done = explore_fork(
            &ExploreConfig {
                dfs_budget: 100_000,
                ..base
            },
            &fixtures::RacySystem::tolerant(3),
        );
        assert_eq!(done.stop, StopReason::FrontierExhausted);
        assert!(done.dfs_runs < 100_000);
    }

    #[test]
    fn reduced_checkpointing_changes_nothing_and_verifies_against_scratch() {
        let base = ExploreConfig {
            random_walks: 0,
            dfs_budget: 256,
            dfs_depth: 6,
            seed: 0,
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let system = fixtures::RacySystem::tolerant(3);
        let scratch = explore(&base, || {
            |sched: &mut dyn Scheduler| run_fork_system(&system, sched)
        });
        let forked = explore_fork(&base, &system);
        // verify_snapshots also re-runs every resumed run from scratch and
        // panics on any divergence, including in the reduce-mode branch
        // observations and terminal digests.
        let checked = explore_fork(
            &ExploreConfig {
                verify_snapshots: true,
                ..base
            },
            &system,
        );
        assert_eq!(report_fingerprint(&scratch), report_fingerprint(&forked));
        assert_eq!(report_fingerprint(&scratch), report_fingerprint(&checked));
    }

    #[test]
    fn reduced_parallel_jobs_leave_the_report_byte_identical() {
        for system in [fixtures::RacySystem::new(4), fixtures::RacySystem::tolerant(4)] {
            let base = ExploreConfig {
                random_walks: 8,
                dfs_budget: 200,
                dfs_depth: 6,
                seed: 1,
                reduce: ReduceMode::Sleep,
                ..ExploreConfig::default()
            };
            let sequential = explore_fork(&base, &system);
            for jobs in [2, 4, 8] {
                let parallel = explore_fork(
                    &ExploreConfig {
                        jobs,
                        ..base.clone()
                    },
                    &system,
                );
                assert_eq!(
                    report_fingerprint(&sequential),
                    report_fingerprint(&parallel),
                    "jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn reduced_fault_search_still_finds_the_crash_fragile_bug() {
        // With a fault plan the dedup arm is off and the fault layer
        // widens footprints, but the reduced search must still reach the
        // planted crash-dependent violation.
        let config = ExploreConfig {
            random_walks: 0,
            dfs_budget: 512,
            dfs_depth: 5,
            seed: 0,
            fault: Some(FaultPlan::new(1).with_crash(NodeId::new(0), 2, 2)),
            reduce: ReduceMode::Sleep,
            ..ExploreConfig::default()
        };
        let report = explore_fork(&config, &fixtures::FragileSystem::new(1));
        let failure = report.failure.expect("crash search should silence the client");
        assert!(failure.reason.contains("pongs"));
        assert_eq!(report.digest_deduped, 0, "dedup is off under a fault plan");
    }

    #[test]
    fn canonical_tail_drains_rounds_by_sort_key() {
        // Beyond the branch window a reduced scheduler serves the round's
        // events smallest-sort-key first (Wake(1) before Tick(0) — wakes
        // order before ticks), and arrivals wait for the next round.
        let mut s = DfsScheduler::reduced(vec![], 0);
        s.note_tick(NodeId::new(0));
        s.note_wake(NodeId::new(2));
        s.note_wake(NodeId::new(1));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(1))));
        // Mid-round arrival: joins the *next* round even though its key
        // sorts before the tick.
        s.note_wake(NodeId::new(0));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(2))));
        assert_eq!(s.choose(), Some(Choice::Tick(NodeId::new(0))));
        assert_eq!(s.choose(), Some(Choice::Wake(NodeId::new(0))));
        assert_eq!(s.choose(), None);
    }

    #[test]
    fn parallel_jobs_leave_the_report_byte_identical() {
        for fault in [None, Some(FaultPlan::new(1).with_drop(0.25))] {
            let base = ExploreConfig {
                random_walks: 24,
                dfs_budget: 48,
                dfs_depth: 5,
                seed: 1,
                fault,
                ..ExploreConfig::default()
            };
            let sequential = explore_fork(&base, &fixtures::RacySystem::new(3));
            for jobs in [2, 4, 8] {
                let parallel = explore_fork(
                    &ExploreConfig {
                        jobs,
                        ..base.clone()
                    },
                    &fixtures::RacySystem::new(3),
                );
                assert_eq!(
                    report_fingerprint(&sequential),
                    report_fingerprint(&parallel),
                    "jobs={jobs}"
                );
            }
        }
    }
}
