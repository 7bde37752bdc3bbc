//! Determinism contract of the parallel explorer.
//!
//! The explorer's `--jobs` knob (parallel random walks) and the
//! checkpoint/fork prefix reuse of its sequential DFS must never change
//! *what* is found — only how fast. These tests pin that contract end to
//! end: explorations at `jobs = 1` and `jobs ∈ {2, 4, 8}`, and forked
//! against from-scratch runs, must produce byte-identical reports, failing
//! schedules (text form, metadata included) and counters, on clean and
//! fault-injected configurations alike — including the exact
//! configuration that regenerates the corpus crash witness. And no job
//! count may run a candidate the report does not count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asynchronous_resource_discovery::netsim::explore::{
    explore, explore_fork, fixtures, run_fork_system, ExploreConfig, ExploreReport, ForkRun,
    ForkSystem, StopReason,
};
use asynchronous_resource_discovery::netsim::shrink::shrink;
use asynchronous_resource_discovery::netsim::{
    FaultPlan, NodeId, ReplayScheduler, Schedule, Scheduler,
};

use proptest::prelude::*;

/// Renders everything observable about a report: counters plus the full
/// schedule text (choices + metadata) and provenance of any failure.
fn fingerprint(report: &ExploreReport) -> String {
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
        "runs {} walks {} dfs {} failure {}",
        report.runs, report.random_walks, report.dfs_runs, failure
    )
}

fn racy_config(seed: u64, walks: u64, dfs: u64, depth: usize) -> ExploreConfig {
    ExploreConfig {
        random_walks: walks,
        dfs_budget: dfs,
        dfs_depth: depth,
        seed,
        fault: None,
        ..ExploreConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exploring the planted-race fixture finds the same thing at any job
    /// count, on closure and checkpoint/fork paths alike.
    #[test]
    fn explore_is_byte_identical_at_any_job_count(
        clients in 2usize..5,
        seed in 0u64..32,
        walks in 0u64..24,
        dfs in 8u64..48,
        depth in 3usize..6,
    ) {
        let base = racy_config(seed, walks, dfs, depth);
        let sequential = explore_fork(&base, &fixtures::RacySystem::new(clients));
        let closure = explore(&base, || {
            |sched: &mut dyn Scheduler| fixtures::run_racy(clients, sched)
        });
        prop_assert_eq!(fingerprint(&sequential), fingerprint(&closure));
        for jobs in [2usize, 4, 8] {
            let config = ExploreConfig { jobs, ..base.clone() };
            let parallel = explore_fork(&config, &fixtures::RacySystem::new(clients));
            prop_assert_eq!(fingerprint(&sequential), fingerprint(&parallel), "jobs={}", jobs);
        }
    }

    /// Same contract under fault injection (the fragile fixture only
    /// breaks when a fault fires, so this exercises the fault layer's
    /// seeding in both search phases).
    #[test]
    fn faulty_explore_is_byte_identical_at_any_job_count(
        seed in 0u64..16,
        walks in 16u64..48,
    ) {
        let base = ExploreConfig {
            random_walks: walks,
            dfs_budget: 16,
            dfs_depth: 4,
            seed,
            fault: Some(FaultPlan::new(1).with_drop(0.25)),
            ..ExploreConfig::default()
        };
        let sequential = explore_fork(&base, &fixtures::FragileSystem::new(2));
        for jobs in [2usize, 4, 8] {
            let config = ExploreConfig { jobs, ..base.clone() };
            let parallel = explore_fork(&config, &fixtures::FragileSystem::new(2));
            prop_assert_eq!(fingerprint(&sequential), fingerprint(&parallel), "jobs={}", jobs);
        }
    }
}

/// The exact configuration `regenerate_fault_corpus` uses to produce the
/// checked-in crash witness: a crash/restart plan searched by random
/// walks. The parallel walks must find the identical witness, and ddmin
/// must shrink it to the checked-in one.
#[test]
fn corpus_crash_witness_search_is_job_count_invariant() {
    let base = ExploreConfig {
        random_walks: 256,
        dfs_budget: 0,
        dfs_depth: 0,
        seed: 0,
        fault: Some(FaultPlan::new(1).with_crash(NodeId::new(0), 2, 2)),
        ..ExploreConfig::default()
    };
    let sequential = explore(&base, || {
        |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
    });
    let failure = sequential
        .failure
        .as_ref()
        .expect("the crash plan must break the fragile fixture");
    for jobs in [2usize, 4, 8] {
        let config = ExploreConfig { jobs, ..base.clone() };
        let parallel = explore(&config, || {
            |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
        });
        assert_eq!(fingerprint(&sequential), fingerprint(&parallel), "jobs={jobs}");
    }
    let minimized = shrink(&failure.schedule, || {
        |sched: &mut dyn Scheduler| fixtures::run_fragile(1, sched)
    })
    .schedule;
    let pinned = std::fs::read_to_string("tests/corpus/fragile-crash-minimized.schedule")
        .expect("the corpus crash witness is checked in");
    let pinned = Schedule::parse(&pinned).expect("the corpus crash witness parses");
    // The pinned file's `origin` meta predates the current walk-seed
    // mixing; the choices and the failure they produce are what it pins.
    assert_eq!(minimized.choices(), pinned.choices());
    for key in ["reason", "shrunk-from"] {
        assert_eq!(minimized.meta(key), pinned.meta(key), "meta {key}");
    }
}

/// Checkpoint/fork prefix reuse is transparent: the forked search, the
/// same search through the from-scratch closure contract, and the forked
/// search with snapshot verification all produce the same exploration,
/// and the failing schedule still strict-replays to the same failure.
#[test]
fn checkpointing_is_transparent_and_schedules_replay() {
    let base = ExploreConfig {
        random_walks: 0,
        dfs_budget: 96,
        dfs_depth: 6,
        seed: 0,
        fault: None,
        jobs: 4,
        ..ExploreConfig::default()
    };
    let system = fixtures::RacySystem::new(3);
    let scratch = explore(&base, || {
        |sched: &mut dyn Scheduler| run_fork_system(&system, sched)
    });
    let forked = explore_fork(&base, &system);
    let verified = explore_fork(
        &ExploreConfig {
            verify_snapshots: true,
            ..base
        },
        &system,
    );
    assert_eq!(fingerprint(&scratch), fingerprint(&forked));
    assert_eq!(fingerprint(&scratch), fingerprint(&verified));

    let failure = forked.failure.expect("depth-6 dfs finds the race");
    let mut replay = ReplayScheduler::strict(&failure.schedule);
    let err = fixtures::run_racy(3, &mut replay).unwrap_err();
    assert_eq!(err, failure.reason);
}

/// A [`ForkSystem`] wrapper that counts finished candidate runs (a run
/// finishes once, when it completes or fails; checkpoints forked off it
/// only finish as the runs resumed from them).
struct CountingSystem {
    inner: fixtures::RacySystem,
    finished: Arc<AtomicU64>,
}

struct CountingRun {
    inner: Box<dyn ForkRun>,
    finished: Arc<AtomicU64>,
}

impl ForkSystem for CountingSystem {
    fn spawn(&self, sched: &mut dyn Scheduler) -> Box<dyn ForkRun> {
        Box::new(CountingRun {
            inner: self.inner.spawn(sched),
            finished: Arc::clone(&self.finished),
        })
    }
}

impl ForkRun for CountingRun {
    fn fork(&self) -> Box<dyn ForkRun> {
        Box::new(CountingRun {
            inner: self.inner.fork(),
            finished: Arc::clone(&self.finished),
        })
    }
    fn step(&mut self, sched: &mut dyn Scheduler) -> Result<bool, String> {
        let stepped = self.inner.step(sched);
        if !matches!(stepped, Ok(true)) {
            self.finished.fetch_add(1, Ordering::Relaxed);
        }
        stepped
    }
    fn check(&mut self) -> Result<(), String> {
        self.inner.check()
    }
    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// The explorer runs exactly the candidates its report counts: a clean
/// search that exhausts its budget, with walks and DFS, executes
/// `report.runs` candidates at every job count — no speculative run is
/// thrown away — on the closure and checkpoint/fork paths alike.
#[test]
fn explorer_runs_each_candidate_exactly_once() {
    let config = ExploreConfig {
        random_walks: 24,
        dfs_budget: 200,
        dfs_depth: 8,
        seed: 5,
        ..ExploreConfig::default()
    };
    let tolerant = fixtures::RacySystem::tolerant(4);
    for jobs in [1usize, 2, 4] {
        let config = ExploreConfig {
            jobs,
            ..config.clone()
        };

        let calls = AtomicU64::new(0);
        let report = explore(&config, || {
            calls.fetch_add(1, Ordering::Relaxed);
            |sched: &mut dyn Scheduler| run_fork_system(&tolerant, sched)
        });
        assert!(report.failure.is_none(), "jobs={jobs}");
        assert_eq!(report.stop, StopReason::BudgetExhausted, "jobs={jobs}");
        assert_eq!(report.runs, 224, "jobs={jobs}");
        assert_eq!(calls.into_inner(), report.runs, "jobs={jobs}: explore");

        let system = CountingSystem {
            inner: fixtures::RacySystem::tolerant(4),
            finished: Arc::new(AtomicU64::new(0)),
        };
        let forked = explore_fork(&config, &system);
        assert_eq!(forked.runs, report.runs, "jobs={jobs}");
        assert_eq!(
            system.finished.load(Ordering::Relaxed),
            forked.runs,
            "jobs={jobs}: explore_fork"
        );
    }
}
