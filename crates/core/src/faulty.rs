//! The network a discovery runs on under fault injection.
//!
//! [`FaultyDiscovery`] is the chaos-tier sibling of
//! [`Discovery`](crate::Discovery): the same network of [`ArdNode`]s, but
//! every node wrapped in the [`Reliable`] delivery envelope so the run
//! survives the message drops, duplications and node crash/restarts
//! injected by [`ard_netsim::fault::FaultScheduler`]. The run pipeline
//! ([`run`](crate::run()) under
//! [`Adversary::Faults`](crate::Adversary::Faults)) builds it, records the
//! injected faults as explicit choices and replays them without any fault
//! machinery.

use ard_graph::KnowledgeGraph;
use ard_netsim::{Runner, Scheduler};

use crate::budgets;
use crate::driver::{ard_nodes, step_budget};
use crate::invariants;
use crate::node::{ArdNode, AsArdNode};
use crate::reliable::Reliable;
use crate::{Config, Outcome, Variant};

/// A [`Discovery`](crate::Discovery) network with every node wrapped in
/// the [`Reliable`] envelope, ready to run under a fault-injecting
/// scheduler.
pub struct FaultyDiscovery {
    runner: Runner<Reliable<ArdNode>>,
    graph: KnowledgeGraph,
    variant: Variant,
}

impl FaultyDiscovery {
    /// Builds the network with the paper's configuration.
    pub fn new(graph: &KnowledgeGraph, variant: Variant) -> Self {
        let nodes = ard_nodes(graph, variant, Config::paper());
        FaultyDiscovery {
            runner: Runner::with_topology(nodes.into_iter().map(Reliable::new).collect(), |id| {
                graph.out_edges(id)
            }),
            graph: graph.clone(),
            variant,
        }
    }

    /// The underlying simulator.
    pub fn runner(&self) -> &Runner<Reliable<ArdNode>> {
        &self.runner
    }

    /// The problem variant in force.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Wakes every node and runs to quiescence within the faulty step
    /// budget ([`Adversary::step_budget`](crate::Adversary::step_budget)).
    ///
    /// # Errors
    ///
    /// Returns the livelock description if the step budget is exhausted.
    pub fn run_all(&mut self, sched: &mut dyn Scheduler) -> Result<Outcome, String> {
        self.run_within(sched, FAULTY_BUDGET_FACTOR * step_budget(self.runner.len()))
    }

    /// [`run_all`](FaultyDiscovery::run_all) within an explicit step budget.
    pub(crate) fn run_within(
        &mut self,
        sched: &mut dyn Scheduler,
        budget: u64,
    ) -> Result<Outcome, String> {
        self.runner.enqueue_wake_all(sched);
        let steps = self.runner.run(sched, budget).map_err(|e| e.to_string())?;
        Ok(Outcome {
            leaders: self
                .runner
                .nodes()
                .map(AsArdNode::ard)
                .filter(|n| n.is_leader())
                .map(ArdNode::id)
                .collect(),
            leader_of: self
                .runner
                .ids()
                .map(|v| {
                    invariants::resolve_leader(&self.runner, v)
                        .unwrap_or_else(|e| panic!("faulty run broke the forest invariant: {e}"))
                })
                .collect(),
            steps,
            metrics: self.runner.metrics().clone(),
        })
    }

    /// Checks the paper's §1.2 requirements plus the reliable layer's own
    /// quiescence condition (no transmission still awaiting an ack).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_requirements(&self) -> Result<(), String> {
        for node in self.runner.nodes() {
            if node.unacked_len() != 0 {
                return Err(format!(
                    "{} quiesced with {} unacknowledged transmissions",
                    node.ard().id(),
                    node.unacked_len()
                ));
            }
        }
        invariants::check_requirements(&self.runner, &self.graph, self.variant)
    }

    /// Checks the §5 budgets net of the reliable layer's metered overhead
    /// ([`budgets::check_all_faulty`]).
    pub(crate) fn check_budgets(&self) -> Result<(), String> {
        budgets::check_all_faulty(
            self.runner.metrics(),
            self.graph.len() as u64,
            self.graph.edge_count() as u64,
            self.variant,
        )
    }
}

/// Faulty runs get 100× the fault-free step budget: retransmission traffic
/// under heavy loss can exceed the fault-free step count by a large
/// factor, but a correct run still terminates far below this.
pub(crate) const FAULTY_BUDGET_FACTOR: u64 = 100;

impl std::fmt::Debug for FaultyDiscovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyDiscovery")
            .field("variant", &self.variant)
            .field("nodes", &self.runner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, replay, Adversary};
    use ard_graph::gen;
    use ard_netsim::{FaultPlan, NodeId, RandomScheduler, Schedule};

    #[test]
    fn lossy_run_completes_and_checks() {
        let graph = gen::random_weakly_connected(12, 20, 3);
        let plan = FaultPlan::new(9).with_drop(0.15).with_dup(0.05);
        let (result, schedule) = record(
            &graph,
            Variant::Oblivious,
            &Adversary::Faults(plan),
            RandomScheduler::seeded(3),
        );
        let outcome = result.unwrap().outcome;
        assert_eq!(outcome.leaders.len(), 1);
        assert!(outcome.metrics.faults().drops > 0, "plan injected no drops");
        assert!(
            outcome.metrics.kind("retransmit").messages > 0,
            "drops must force retransmissions"
        );
        assert_eq!(
            schedule.meta("faults"),
            Some("drop=0.15,dup=0.05,crash=0,seed=9")
        );
    }

    #[test]
    fn faulty_schedule_replays_byte_exactly() {
        let graph = gen::random_weakly_connected(10, 16, 7);
        let plan = FaultPlan::new(4)
            .with_drop(0.2)
            .with_crash(NodeId::new(3), 30, 20);
        let (result, schedule) = record(
            &graph,
            Variant::AdHoc,
            &Adversary::Faults(plan),
            RandomScheduler::seeded(1),
        );
        let recorded = result.unwrap().outcome;
        assert!(recorded.metrics.faults().crashes >= 1);

        let replayed = replay(&graph, Variant::AdHoc, &schedule).unwrap().outcome;
        assert_eq!(replayed.steps, recorded.steps);
        assert_eq!(replayed.steps, schedule.len() as u64);
        assert_eq!(replayed.leaders, recorded.leaders);
        assert_eq!(replayed.leader_of, recorded.leader_of);
        assert_eq!(
            format!("{}", replayed.metrics),
            format!("{}", recorded.metrics)
        );
        // The round-trip through text is also exact.
        let reparsed = Schedule::parse(&schedule.to_text()).unwrap();
        assert_eq!(reparsed.choices(), schedule.choices());
    }

    #[test]
    fn vacuous_plan_behaves_like_reliable_network() {
        let graph = gen::random_weakly_connected(8, 12, 2);
        let (result, _schedule) = record(
            &graph,
            Variant::Bounded,
            &Adversary::Faults(FaultPlan::new(0)),
            RandomScheduler::seeded(5),
        );
        let metrics = result.unwrap().outcome.metrics;
        let faults = metrics.faults();
        // Ticks still fire (the retransmission timer), but nothing is
        // dropped, duplicated or crashed.
        assert_eq!(faults.drops, 0);
        assert_eq!(faults.duplicates, 0);
        assert_eq!(faults.crashes, 0);
        assert!(faults.ticks > 0);
        // Every logical message still costs one ack. (A few spurious
        // retransmissions are possible even without faults: the scheduler
        // may fire ticks faster than it delivers acks.)
        assert!(metrics.kind("rd-ack").messages > 0);
    }

    #[test]
    fn faulty_budgets_hold() {
        let graph = gen::random_weakly_connected(24, 48, 5);
        for variant in [Variant::Oblivious, Variant::Bounded, Variant::AdHoc] {
            let plan = FaultPlan::new(11).with_drop(0.1).with_dup(0.05);
            let (result, _) = record(
                &graph,
                variant,
                &Adversary::Faults(plan),
                RandomScheduler::seeded(6),
            );
            let outcome = result.unwrap_or_else(|e| panic!("{variant}: {e}")).outcome;
            crate::budgets::check_all_faulty(
                &outcome.metrics,
                graph.len() as u64,
                graph.edge_count() as u64,
                variant,
            )
            .unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }
}
