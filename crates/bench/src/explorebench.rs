//! Explorer-throughput measurement: DFS schedules/sec of the
//! interleaving explorer on a pinned planted-race workload.
//!
//! The workload is the racy fixture in benchmark (violation-tolerant)
//! mode — six clients racing a coordinator, every run 13 scheduler
//! choices long — explored by branch-point DFS at depth 13, so the search
//! runs to its full budget instead of stopping at the first race. Each
//! event carries [`EXPLORE_SPIN`] rounds of deterministic per-event
//! compute (the fixture's `spin` knob), weighting the workload like a
//! protocol whose handlers do real work; that is what makes prefix
//! *re-execution* the dominant cost checkpoint/fork exists to remove. The
//! measurement has two rows: *scratch*, the closure contract
//! ([`explore`] over [`run_fork_system`]), which re-executes every prefix
//! and is the baseline; and *checkpoint*, [`explore_fork`], which forks
//! each run from a cached branch-point snapshot. Both rows find the same
//! result (the explorer guarantees it; [`measure`] asserts it), so they
//! measure pure engine cost. This is the metric `BENCH_explore.json`
//! records; regenerate it with `scripts/bench.sh` (or
//! `tables --bench-explore`).

use std::time::Instant;

use ard_netsim::explore::{
    explore, explore_fork, fixtures, run_fork_system, ExploreConfig, ExploreReport, ReduceMode,
};
use ard_netsim::Scheduler;

/// DFS budget of the pinned workload (number of schedules executed).
pub const EXPLORE_BUDGET: u64 = 2_000;

/// Racing clients in the pinned workload: runs are `2 * 6 + 1 = 13`
/// scheduler choices long.
pub const EXPLORE_CLIENTS: usize = 6;

/// DFS branch-point depth of the pinned workload — the full run length,
/// so every decision of every schedule is in the search space.
pub const EXPLORE_DEPTH: usize = 13;

/// Per-event compute weight of the pinned workload (mixing rounds).
pub const EXPLORE_SPIN: u32 = 40_000;

/// Run cap of the reduction comparison: generous enough for the reduced
/// search to drain its whole frontier at depth 13, and the honest lower
/// bound on the full search's interleaving count when it runs out.
pub const REDUCTION_BUDGET: u64 = 100_000;

/// Per-event compute weight of the reduction comparison. The reduction
/// metric is search-space *size*, not handler cost, so the workload runs
/// light — the scratch and checkpoint rows measure re-execution cost.
pub const REDUCTION_SPIN: u32 = 10;

/// The two ways the pinned workload is executed.
pub const EXPLORE_MODES: [&str; 2] = ["scratch", "checkpoint"];

/// One measured row of the explorer benchmark.
#[derive(Clone, Debug)]
pub struct ExplorePoint {
    /// `"scratch"` (closure contract, the baseline) or `"checkpoint"`
    /// (checkpoint/fork prefix reuse).
    pub mode: &'static str,
    /// Schedules executed (identical across the rows).
    pub runs: u64,
    /// Best wall-clock seconds over the measured repetitions.
    pub secs: f64,
    /// `runs / secs` for the best repetition.
    pub runs_per_sec: f64,
    /// Wall-clock speedup vs the scratch row.
    pub speedup: f64,
}

/// Runs the pinned workload once and returns its report.
pub fn run_workload(budget: u64, checkpoint: bool) -> ExploreReport {
    run_workload_spin(budget, checkpoint, EXPLORE_SPIN)
}

/// [`run_workload`] with an explicit per-event compute weight (the unit
/// tests use a light one so debug builds stay fast).
pub fn run_workload_spin(budget: u64, checkpoint: bool, spin: u32) -> ExploreReport {
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: budget,
        dfs_depth: EXPLORE_DEPTH,
        ..ExploreConfig::default()
    };
    let system = fixtures::RacySystem::tolerant(EXPLORE_CLIENTS).spin(spin);
    if checkpoint {
        explore_fork(&config, &system)
    } else {
        explore(&config, || {
            |sched: &mut dyn Scheduler| run_fork_system(&system, sched)
        })
    }
}

/// Measures both rows at the given budget, taking the best of `reps`
/// repetitions per row.
///
/// # Panics
///
/// Panics if the rows' reports diverge — the explorer's
/// same-results-either-way contract failing is a bug worth stopping a
/// benchmark run for.
pub fn measure(budget: u64, reps: u32) -> Vec<ExplorePoint> {
    measure_spin(budget, reps, EXPLORE_SPIN)
}

/// [`measure`] with an explicit per-event compute weight.
///
/// # Panics
///
/// Panics on result divergence, as [`measure`] does.
pub fn measure_spin(budget: u64, reps: u32, spin: u32) -> Vec<ExplorePoint> {
    let mut points: Vec<ExplorePoint> = Vec::new();
    for mode in EXPLORE_MODES {
        let mut best_secs = f64::INFINITY;
        let mut runs = 0u64;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let report = run_workload_spin(budget, mode == "checkpoint", spin);
            let secs = start.elapsed().as_secs_f64();
            assert!(
                report.failure.is_none() && points.iter().all(|p| p.runs == report.runs),
                "explorer results diverged in the {mode} row"
            );
            runs = report.runs;
            best_secs = best_secs.min(secs);
        }
        let baseline_secs = points.first().map_or(best_secs, |p| p.secs);
        points.push(ExplorePoint {
            mode,
            runs,
            secs: best_secs,
            runs_per_sec: runs as f64 / best_secs,
            speedup: baseline_secs / best_secs,
        });
    }
    points
}

/// Reduced-vs-full comparison on the pinned depth-13 workload: the number
/// of interleavings each mode executes before stopping, at the same cap.
#[derive(Clone, Debug)]
pub struct ReductionPoint {
    /// DFS branch-point depth of the comparison (the full run length).
    pub depth: usize,
    /// Run cap both modes were given.
    pub budget: u64,
    /// Interleavings the unreduced DFS executed.
    pub full_runs: u64,
    /// Why the unreduced DFS stopped (`budget exhausted` means
    /// `full_runs` is a lower bound on the true interleaving count).
    pub full_stop: String,
    /// Wall-clock seconds of the unreduced search.
    pub full_secs: f64,
    /// Interleavings the sleep-set-reduced DFS executed.
    pub reduced_runs: u64,
    /// Why the reduced DFS stopped (`frontier exhausted` means the
    /// reduced search covered every equivalence class).
    pub reduced_stop: String,
    /// Wall-clock seconds of the reduced search.
    pub reduced_secs: f64,
    /// Sibling branches skipped by sleep sets.
    pub sleep_pruned: u64,
    /// Branches cut by terminal/branch state-hash dedup.
    pub digest_deduped: u64,
    /// `full_runs / reduced_runs` — at least this many times fewer
    /// interleavings explored under reduction.
    pub ratio: f64,
}

/// Measures [`ReductionPoint`] on the pinned workload at `budget` runs per
/// mode.
///
/// The budget must be generous — large enough for the *reduced* search to
/// drain its frontier (`reduced_stop` = `frontier exhausted`); the full
/// search is expected to hit it, making `full_runs` a lower bound and
/// `ratio` an "at least this much" figure.
///
/// # Panics
///
/// Panics if either mode reports a violation — the tolerant workload has
/// none, so the two modes' violation sets must both be empty.
pub fn measure_reduction(budget: u64, spin: u32) -> ReductionPoint {
    measure_reduction_spec(budget, spin, EXPLORE_CLIENTS, EXPLORE_DEPTH)
}

/// [`measure_reduction`] with explicit client count and DFS depth (the
/// unit tests use a small workload whose frontiers drain in debug builds).
///
/// # Panics
///
/// Panics on a violation, as [`measure_reduction`] does.
pub fn measure_reduction_spec(budget: u64, spin: u32, clients: usize, depth: usize) -> ReductionPoint {
    let config = ExploreConfig {
        random_walks: 0,
        dfs_budget: budget,
        dfs_depth: depth,
        ..ExploreConfig::default()
    };
    let system = fixtures::RacySystem::tolerant(clients).spin(spin);
    let start = Instant::now();
    let full = explore_fork(&config, &system);
    let full_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let reduced = explore_fork(
        &ExploreConfig {
            reduce: ReduceMode::Sleep,
            ..config
        },
        &system,
    );
    let reduced_secs = start.elapsed().as_secs_f64();
    assert!(
        full.failure.is_none() && reduced.failure.is_none(),
        "the tolerant workload has no violations; the modes' violation sets must match"
    );
    ReductionPoint {
        depth,
        budget,
        full_runs: full.runs,
        full_stop: full.stop.to_string(),
        full_secs,
        reduced_runs: reduced.runs,
        reduced_stop: reduced.stop.to_string(),
        reduced_secs,
        sleep_pruned: reduced.sleep_pruned,
        digest_deduped: reduced.digest_deduped,
        ratio: full.runs as f64 / reduced.runs.max(1) as f64,
    }
}

/// Renders the points as the `BENCH_explore.json` document.
pub fn to_json(points: &[ExplorePoint], reduction: &ReductionPoint) -> String {
    let mut out = String::from(
        "{\n  \"metric\": \"explore_runs_per_sec\",\n  \"workload\": \"dfs depth 13 over racy:6 (tolerant, spin 40000), baseline scratch\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"runs\": {}, \"secs\": {:.6}, \"runs_per_sec\": {:.0}, \"speedup\": {:.2}}}{}\n",
            p.mode,
            p.runs,
            p.secs,
            p.runs_per_sec,
            p.speedup,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let r = reduction;
    out.push_str(&format!(
        "  \"reduction\": {{\n    \"workload\": \"dfs depth {} over racy:{} (tolerant, spin {}), budget {} per mode\",\n    \"full_runs\": {},\n    \"full_stop\": \"{}\",\n    \"full_secs\": {:.6},\n    \"reduced_runs\": {},\n    \"reduced_stop\": \"{}\",\n    \"reduced_secs\": {:.6},\n    \"sleep_pruned\": {},\n    \"digest_deduped\": {},\n    \"ratio\": {:.1}\n  }}\n",
        r.depth,
        EXPLORE_CLIENTS,
        REDUCTION_SPIN,
        r.budget,
        r.full_runs,
        r.full_stop,
        r.full_secs,
        r.reduced_runs,
        r.reduced_stop,
        r.reduced_secs,
        r.sleep_pruned,
        r.digest_deduped,
        r.ratio,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_covers_both_rows_and_agrees_with_the_baseline() {
        let points = measure_spin(64, 1, 10);
        assert_eq!(points.len(), EXPLORE_MODES.len());
        let runs = points[0].runs;
        for p in &points {
            assert_eq!(p.runs, runs);
            assert!(p.runs_per_sec > 0.0);
            assert!(p.speedup > 0.0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let points = measure_spin(32, 1, 10);
        let reduction = measure_reduction_spec(10_000, 10, 3, 7);
        let json = to_json(&points, &reduction);
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        for mode in EXPLORE_MODES {
            let row = format!("{{\"mode\": \"{mode}\"");
            assert!(json.contains(&row), "{mode} row:\n{json}");
        }
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
        assert!(json.contains("\"reduction\""), "reduction section:\n{json}");
        assert!(json.contains("\"ratio\""), "ratio recorded:\n{json}");
    }

    #[test]
    fn reduction_explores_fewer_interleavings_with_no_violations() {
        let r = measure_reduction_spec(10_000, 10, 3, 7);
        assert_eq!(r.depth, 7);
        assert!(
            r.reduced_runs < r.full_runs,
            "reduced {} !< full {}",
            r.reduced_runs,
            r.full_runs
        );
        assert!(r.sleep_pruned > 0);
        assert!(r.ratio > 1.0);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = run_workload_spin(48, false, 10);
        let b = run_workload_spin(48, true, 10);
        assert_eq!(a.runs, b.runs);
        assert!(a.failure.is_none() && b.failure.is_none());
    }
}
