//! The timing wrappers must be invisible to the program: a wrapped run and
//! a bare run of the same inputs agree on every step, metric and state
//! digest, and the explorer reaches the same report through them.

use ard_core::Variant;
use ard_graph::{gen, KnowledgeGraph};
use ard_netsim::explore::{explore, ExploreConfig, ExploreReport, ReduceMode};
use ard_netsim::{Choice, FaultPlan, NodeId, Scheduler, SendToken};
use ard_perfbench::net::{Bare, Job, Sched, Wrapped, VARIANTS};
use ard_perfbench::report::Report;
use ard_perfbench::span::{self, Totals, ENGINE, NODE_WAKE, SCHED_CHOOSE};
use ard_perfbench::timed::TimedScheduler;

fn scheds(n: usize) -> Vec<Sched> {
    vec![
        Sched::Fifo,
        Sched::Random(7),
        Sched::Faulty(
            5,
            FaultPlan::new(3)
                .with_drop(0.05)
                .with_dup(0.02)
                .with_spread_crashes(4, n),
        ),
    ]
}

#[test]
fn wrapped_runs_match_bare_runs() {
    for n in [16, 64] {
        let graph = gen::random_weakly_connected(n, 2 * n, 11);
        for &variant in &VARIANTS {
            for sched in scheds(n) {
                let job = Job {
                    graph: &graph,
                    variant,
                    sched: sched.clone(),
                    keep_text: true,
                };
                let mut bare = Bare::build(&job);
                let b = bare.run(&job);
                let mut wrapped = Wrapped::build(&job);
                let (w, traced) = wrapped.run(&job);
                let what = format!("n={n} {variant} {sched:?}");
                assert_eq!(b.failure, None, "{what}");
                assert_eq!(w.failure, None, "{what}");
                assert_eq!(b.steps, w.steps, "{what}: steps");
                assert_eq!(b.metrics_text, w.metrics_text, "{what}: metrics");
                assert_eq!(
                    bare.state_digest(),
                    wrapped.state_digest(),
                    "{what}: digest"
                );
                // Every node woke inside the run span, and the layers
                // account for the whole span.
                assert_eq!(traced.totals.calls[NODE_WAKE], n as u64, "{what}");
                let attributed = traced.totals.ns(Totals::inner_layers());
                assert!(
                    attributed <= traced.span_ns,
                    "{what}: {attributed} > {}",
                    traced.span_ns
                );
            }
        }
    }
}

/// A reduced search small enough for a test that still prunes by sleep
/// sets and dedups by state digest.
fn small_search() -> (KnowledgeGraph, ExploreConfig) {
    let config = ExploreConfig {
        random_walks: 40,
        dfs_budget: 400,
        dfs_depth: 8,
        seed: 9,
        reduce: ReduceMode::Sleep,
        ..ExploreConfig::default()
    };
    (gen::random_weakly_connected(6, 12, 1), config)
}

fn explore_with(graph: &KnowledgeGraph, jobs: usize, wrapped: bool) -> ExploreReport {
    let config = ExploreConfig {
        jobs,
        ..small_search().1
    };
    let job = Job {
        graph,
        variant: Variant::AdHoc,
        sched: Sched::Fifo,
        keep_text: false,
    };
    explore(&config, || {
        |sched: &mut dyn Scheduler| {
            let rec = if wrapped {
                Wrapped::build(&job).run_with(&job, sched).0
            } else {
                Bare::build(&job).run_with(&job, sched)
            };
            rec.failure.map_or(Ok(()), Err)
        }
    })
}

fn summary(r: &ExploreReport) -> (u64, u64, u64, u64, String, bool) {
    (
        r.runs,
        r.random_walks,
        r.sleep_pruned,
        r.digest_deduped,
        r.stop.to_string(),
        r.failure.is_some(),
    )
}

#[test]
fn wrapped_exploration_matches_bare_exploration() {
    let graph = small_search().0;
    for jobs in [1, 2] {
        let bare = explore_with(&graph, jobs, false);
        let wrapped = explore_with(&graph, jobs, true);
        assert!(bare.failure.is_none());
        assert!(
            bare.sleep_pruned > 0,
            "the fixture must exercise sleep sets"
        );
        assert!(
            bare.digest_deduped > 0,
            "the fixture must exercise state dedup"
        );
        assert_eq!(summary(&bare), summary(&wrapped), "jobs={jobs}");
    }
}

/// A scheduler wrapper that forwards only the required methods, falling
/// back to the trait defaults for the explorer hooks.
struct Forgetful<'a>(&'a mut dyn Scheduler);

impl Scheduler for Forgetful<'_> {
    fn note_wake(&mut self, node: NodeId) {
        self.0.note_wake(node);
    }
    fn note_send(&mut self, token: SendToken) {
        self.0.note_send(token);
    }
    fn note_tick(&mut self, node: NodeId) {
        self.0.note_tick(node);
    }
    fn choose(&mut self) -> Option<Choice> {
        self.0.choose()
    }
    fn pending(&self) -> usize {
        self.0.pending()
    }
}

#[test]
fn a_wrapper_without_the_explorer_hooks_changes_the_search() {
    // The check above has teeth: dropping the footprint/digest forwards
    // changes what the reduced search prunes.
    let (graph, config) = small_search();
    let bare = explore_with(&graph, 1, false);
    let job = Job {
        graph: &graph,
        variant: Variant::AdHoc,
        sched: Sched::Fifo,
        keep_text: false,
    };
    let forgetful = explore(&config, || {
        |sched: &mut dyn Scheduler| {
            let mut s = Forgetful(sched);
            Bare::build(&job)
                .run_with(&job, &mut s)
                .failure
                .map_or(Ok(()), Err)
        }
    });
    assert_ne!(summary(&bare), summary(&forgetful), "{:?}", summary(&bare));
}

#[test]
fn self_times_add_up_to_the_enclosing_span() {
    span::take();
    let t = std::time::Instant::now();
    span::enter(ENGINE);
    for _ in 0..100 {
        span::span(SCHED_CHOOSE, || {
            span::span(NODE_WAKE, || std::hint::black_box((0..200).sum::<u64>()));
        });
    }
    span::exit();
    let outer = t.elapsed().as_nanos() as u64;
    let totals = span::take();
    assert_eq!(totals.calls[SCHED_CHOOSE], 100);
    assert_eq!(totals.calls[NODE_WAKE], 100);
    assert_eq!(totals.calls[ENGINE], 1);
    let inner = totals.ns(Totals::inner_layers());
    assert!(inner <= outer, "{inner} > {outer}");
    assert_eq!(span::take(), Totals::default(), "take() resets");
}

#[test]
fn timed_scheduler_tracks_the_pending_peak() {
    let mut s = TimedScheduler::new(ard_netsim::FifoScheduler::new());
    for i in 0..5 {
        s.note_wake(NodeId::new(i));
    }
    while s.choose().is_some() {}
    assert_eq!(s.pending_max(), 5);
    span::take();
}

#[test]
fn result_line_has_the_contract_keys() {
    let mut r = Report {
        attempted: 3,
        ..Report::default()
    };
    r.metric("wall_s", 1.25, "s");
    r.metric("setup_s", 0.5, "s");
    assert!(r.correct());
    assert_eq!(
        r.json(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
         {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
    r.fail("boom");
    assert!(!r.correct());
}
