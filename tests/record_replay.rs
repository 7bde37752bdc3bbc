//! Acceptance: the record→replay round-trip is *exact*. For every scheduler
//! family and n ∈ {8, 32}, a recorded run and its strict replay on a fresh
//! network produce identical `Metrics` totals (compared via the rendered
//! metrics table, which covers every counter) and identical `Trace` event
//! sequences. This is the property that makes a checked-in schedule file a
//! faithful reproduction of the execution that produced it.

use asynchronous_resource_discovery::core::{replay, Adversary, Network, Variant};
use asynchronous_resource_discovery::graph::gen;
use asynchronous_resource_discovery::netsim::{
    BoundedDelayScheduler, FifoScheduler, LifoScheduler, RandomScheduler, ReplayScheduler,
    Schedule, Scheduler,
};

fn family(n: usize) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("fifo", Box::new(FifoScheduler::new())),
        ("lifo", Box::new(LifoScheduler::new())),
        ("random", Box::new(RandomScheduler::seeded(n as u64))),
        (
            "bounded:3",
            Box::new(BoundedDelayScheduler::new(3, n as u64 + 1)),
        ),
        (
            "bounded:9",
            Box::new(BoundedDelayScheduler::new(9, n as u64 + 2)),
        ),
    ]
}

fn record_then_replay(n: usize, label: &str, sched: Box<dyn Scheduler>, variant: Variant) {
    let graph = gen::random_weakly_connected(n, 2 * n, 17);
    let adversary = Adversary::Honest;
    let mut original = Network::new(&graph, variant, &adversary);
    trace(&mut original);
    let budget = adversary.step_budget(n);
    let (result, schedule) = original.record(&adversary, sched, budget);
    let recorded = result
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"))
        .outcome;
    assert_eq!(
        schedule.len() as u64, recorded.steps,
        "{label} n={n}: one recorded choice per executed step"
    );

    // The text format must carry the schedule losslessly.
    let reparsed = Schedule::parse(&schedule.to_text())
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
    assert_eq!(reparsed, schedule, "{label} n={n}: text round-trip");

    // `replay` reads the adversary back from the metadata and checks the
    // requirements and budgets; a traced network replays the same choices
    // so the event sequences can be compared too.
    let replayed = replay(&graph, variant, &reparsed)
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"))
        .outcome;
    let mut fresh = Network::new(&graph, variant, &adversary);
    trace(&mut fresh);
    let traced = fresh
        .run(&adversary, &mut ReplayScheduler::strict(&reparsed), budget)
        .unwrap_or_else(|e| panic!("{label} n={n}: {e}"))
        .outcome;

    for replayed in [&replayed, &traced] {
        assert_eq!(replayed.steps, recorded.steps, "{label} n={n}: steps");
        assert_eq!(replayed.leaders, recorded.leaders, "{label} n={n}: leaders");
        assert_eq!(
            replayed.leader_of, recorded.leader_of,
            "{label} n={n}: leader_of"
        );
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics),
            "{label} n={n}: full metrics table"
        );
    }
    let (Network::Bare(original), Network::Bare(fresh)) = (&original, &fresh) else {
        unreachable!("honest runs use bare nodes");
    };
    assert_eq!(
        fresh.runner().trace().unwrap().events(),
        original.runner().trace().unwrap().events(),
        "{label} n={n}: trace event sequence"
    );
}

fn trace(net: &mut Network) {
    if let Network::Bare(d) = net {
        d.runner_mut().enable_trace();
    }
}

#[test]
fn round_trip_is_exact_for_every_scheduler_family() {
    for n in [8usize, 32] {
        for (label, sched) in family(n) {
            record_then_replay(n, label, sched, Variant::AdHoc);
        }
    }
}

#[test]
fn round_trip_holds_across_variants() {
    for variant in [Variant::Oblivious, Variant::Bounded] {
        record_then_replay(8, "random", Box::new(RandomScheduler::seeded(99)), variant);
        record_then_replay(
            32,
            "bounded:5",
            Box::new(BoundedDelayScheduler::new(5, 4)),
            variant,
        );
    }
}
