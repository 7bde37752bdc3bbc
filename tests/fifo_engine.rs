//! Equivalence contract of the FIFO event loop.
//!
//! `Runner::run` executes a bare `FifoScheduler` in its inline FIFO loop;
//! any wrapper around the scheduler (here a `RecordingScheduler`) hides the
//! queue and keeps the per-event engine. The loop must never change *what*
//! a FIFO run produces. These tests pin that end to end against the real
//! protocol, on every variant: steps, leaders, `leader_of`, metrics (value
//! and `Display` text), trace and `state_digest` must match; the schedule
//! the loop executed (read back from its trace) must equal the per-event
//! recording and replay strictly to the same run; a capped run must stop
//! at the same step with the same pending events and resume to the same
//! end; and Ad-hoc probes and dynamic additions after a loop run must
//! behave as they do after a per-event run.

use asynchronous_resource_discovery::core::{record, Adversary, Discovery, Outcome, Variant};
use asynchronous_resource_discovery::graph::{gen, KnowledgeGraph};
use asynchronous_resource_discovery::netsim::trace::TraceEvent;
use asynchronous_resource_discovery::netsim::{
    Choice, FifoScheduler, NodeId, RecordingScheduler, ReplayScheduler, Schedule, Scheduler,
};

use proptest::prelude::*;

const VARIANTS: [Variant; 3] = [Variant::Oblivious, Variant::Bounded, Variant::AdHoc];

/// A traced discovery network over `graph`.
fn traced(graph: &KnowledgeGraph, variant: Variant) -> Discovery {
    let mut d = Discovery::new(graph, variant);
    d.runner_mut().enable_trace();
    d
}

/// Asserts the two networks are in the same observable state.
fn assert_same(fifo_loop: &Discovery, per_event: &Discovery) {
    let (a, b) = (fifo_loop.outcome(), per_event.outcome());
    assert_eq!(a.leaders, b.leaders, "leaders");
    assert_eq!(a.leader_of, b.leader_of, "leader_of");
    assert_eq!(a.metrics, b.metrics, "metrics");
    assert_eq!(a.metrics.to_string(), b.metrics.to_string(), "metrics text");
    let (ra, rb) = (fifo_loop.runner(), per_event.runner());
    assert_eq!(ra.steps_executed(), rb.steps_executed(), "steps");
    assert_eq!(ra.trace().unwrap().events(), rb.trace().unwrap().events(), "trace");
    assert_eq!(ra.payload_peak_bytes(), rb.payload_peak_bytes(), "payload peak");
    assert_eq!(ra.state_digest(), rb.state_digest(), "state digest");
}

/// Runs discovery over `graph` in the FIFO loop (a bare `FifoScheduler`).
fn run_loop(graph: &KnowledgeGraph, variant: Variant) -> (Discovery, Outcome) {
    let mut fifo_loop = traced(graph, variant);
    let outcome = fifo_loop.run_all(&mut FifoScheduler::new()).unwrap();
    (fifo_loop, outcome)
}

/// The schedule a loop run executed, read back from its trace: each step
/// opens with the wake-up or delivery the scheduler chose (a delivery's
/// message-triggered wake-up shares its step). This holds for `run_all`
/// under FIFO, where every wake-up token is consumed before the first
/// delivery; the step count check below catches any step that left no
/// trace.
fn loop_schedule(fifo_loop: &Discovery, variant: Variant) -> Schedule {
    let mut choices = Vec::new();
    let mut last_step = None;
    for event in fifo_loop.runner().trace().unwrap().events() {
        let (choice, step) = match *event {
            TraceEvent::Wake { node, step } => (Choice::Wake(node), step),
            TraceEvent::Deliver { src, dst, step, .. } => (Choice::Deliver { src, dst }, step),
            _ => continue,
        };
        if last_step != Some(step) {
            choices.push(choice);
            last_step = Some(step);
        }
    }
    assert_eq!(
        choices.len() as u64,
        fifo_loop.runner().steps_executed(),
        "{variant}: every loop step is a traced wake-up or delivery"
    );
    let mut schedule = Schedule::new(choices);
    schedule.set_meta("nodes", fifo_loop.runner().len().to_string());
    schedule.set_meta("variant", variant.to_string());
    schedule
}

/// Runs discovery in the FIFO loop and on the per-event engine and asserts
/// every observable matches.
fn assert_loop_matches(graph: &KnowledgeGraph, variant: Variant) {
    let (fifo_loop, loop_outcome) = run_loop(graph, variant);

    let mut per_event = traced(graph, variant);
    let per_event_outcome = per_event
        .run_all(&mut RecordingScheduler::new(FifoScheduler::new()))
        .unwrap();

    assert_eq!(loop_outcome.steps, per_event_outcome.steps, "{variant}: steps");
    assert_same(&fifo_loop, &per_event);
    fifo_loop.check_requirements(graph).unwrap();
}

/// Asserts the schedule the loop executed is the one the per-event engine
/// records, choice for choice and as serialized text.
fn assert_loop_schedule_matches_recording(graph: &KnowledgeGraph, variant: Variant) {
    let (fifo_loop, _) = run_loop(graph, variant);
    let executed = loop_schedule(&fifo_loop, variant);

    let (result, recorded) = record(graph, variant, &Adversary::Honest, FifoScheduler::new());
    result.unwrap();

    assert_eq!(executed.choices(), recorded.choices(), "{variant}: schedule");
    assert_eq!(executed.to_text(), recorded.to_text(), "{variant}: schedule text");
}

/// Asserts strict replay of the schedule the loop executed reproduces the
/// loop run.
fn assert_loop_schedule_replays(graph: &KnowledgeGraph, variant: Variant) {
    let (fifo_loop, loop_outcome) = run_loop(graph, variant);
    let schedule = loop_schedule(&fifo_loop, variant);

    let mut replayed = traced(graph, variant);
    let replay_outcome = replayed
        .run_all(&mut ReplayScheduler::strict(&schedule))
        .unwrap();
    assert_eq!(replay_outcome.steps, loop_outcome.steps, "{variant}: replay steps");
    assert_eq!(replay_outcome.metrics, loop_outcome.metrics, "{variant}: replay metrics");
    assert_same(&fifo_loop, &replayed);
}

#[test]
fn fifo_loop_is_byte_identical_across_variants() {
    let graph = gen::random_weakly_connected(48, 96, 7);
    for variant in VARIANTS {
        assert_loop_matches(&graph, variant);
    }
}

#[test]
fn fifo_loop_schedule_matches_per_event_recording() {
    let graph = gen::random_weakly_connected(40, 80, 3);
    for variant in VARIANTS {
        assert_loop_schedule_matches_recording(&graph, variant);
    }
}

#[test]
fn fifo_loop_schedule_replays_to_the_same_run() {
    let graph = gen::random_weakly_connected(24, 48, 11);
    for variant in VARIANTS {
        assert_loop_schedule_replays(&graph, variant);
    }
}

#[test]
fn fifo_loop_terminal_state_digest_matches_per_event() {
    let graph = gen::random_weakly_connected(40, 80, 13);
    let mut fifo_loop = Discovery::new(&graph, Variant::AdHoc);
    fifo_loop.run_all(&mut FifoScheduler::new()).unwrap();
    let mut per_event = Discovery::new(&graph, Variant::AdHoc);
    per_event
        .run_all(&mut RecordingScheduler::new(FifoScheduler::new()))
        .unwrap();
    assert_eq!(
        fifo_loop.runner().state_digest(),
        per_event.runner().state_digest()
    );
}

#[test]
fn fifo_loop_cutoff_matches_and_resumes() {
    let graph = gen::random_weakly_connected(32, 64, 5);
    for variant in VARIANTS {
        let mut loop_sched = FifoScheduler::new();
        let mut fifo_loop = traced(&graph, variant);
        fifo_loop.enqueue_wake_all(&mut loop_sched);
        let loop_err = fifo_loop.runner_mut().run(&mut loop_sched, 40).unwrap_err();

        let mut event_sched = RecordingScheduler::new(FifoScheduler::new());
        let mut per_event = traced(&graph, variant);
        per_event.enqueue_wake_all(&mut event_sched);
        let event_err = per_event.runner_mut().run(&mut event_sched, 40).unwrap_err();

        assert_eq!(loop_err, event_err, "{variant}: cutoff");
        assert_eq!(loop_sched.pending(), event_sched.pending(), "{variant}: pending");
        assert_same(&fifo_loop, &per_event);

        // The loop hands its leftover events back, so resuming it (in the
        // loop again) finishes exactly the run the per-event engine does.
        let budget = fifo_loop.default_step_budget();
        let loop_rest = fifo_loop.runner_mut().run(&mut loop_sched, budget).unwrap();
        let event_rest = per_event.runner_mut().run(&mut event_sched, budget).unwrap();
        assert_eq!(loop_rest, event_rest, "{variant}: resumed steps");
        assert_same(&fifo_loop, &per_event);
    }
}

#[test]
fn fifo_loop_probes_and_dynamic_additions_match() {
    let graph = gen::random_weakly_connected(24, 40, 9);
    let mut loop_sched = FifoScheduler::new();
    let mut fifo_loop = traced(&graph, Variant::AdHoc);
    fifo_loop.run_all(&mut loop_sched).unwrap();
    let mut event_sched = RecordingScheduler::new(FifoScheduler::new());
    let mut per_event = traced(&graph, Variant::AdHoc);
    per_event.run_all(&mut event_sched).unwrap();

    for v in [0, 5, 23] {
        let node = NodeId::new(v);
        let got = fifo_loop.probe_blocking(node, &mut loop_sched).unwrap();
        let want = per_event.probe_blocking(node, &mut event_sched).unwrap();
        assert_eq!(got, want, "probe from {node}");
        assert_same(&fifo_loop, &per_event);
    }

    let a = fifo_loop.add_node(vec![NodeId::new(3)], &mut loop_sched);
    let b = per_event.add_node(vec![NodeId::new(3)], &mut event_sched);
    assert_eq!(a, b);
    fifo_loop.add_link(NodeId::new(7), a, &mut loop_sched);
    per_event.add_link(NodeId::new(7), b, &mut event_sched);
    fifo_loop.run(&mut loop_sched).unwrap();
    per_event.run(&mut event_sched).unwrap();
    assert_same(&fifo_loop, &per_event);
    fifo_loop.check_requirements(fifo_loop.graph()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topologies and sizes: the contract is not shape-specific.
    #[test]
    fn fifo_loop_matches_on_random_topologies(
        n in 2usize..40,
        extra_per_node in 0usize..3,
        seed in 0u64..1000,
    ) {
        let graph = gen::random_weakly_connected(n, n * extra_per_node, seed);
        for variant in VARIANTS {
            assert_loop_matches(&graph, variant);
            assert_loop_schedule_matches_recording(&graph, variant);
            assert_loop_schedule_replays(&graph, variant);
        }
    }
}
