//! Criterion explorer bench: DFS schedules/sec on the pinned planted-race
//! workload, the wall-clock companion to `BENCH_explore.json` (regenerate
//! that with `scripts/bench.sh`).
//!
//! Each iteration runs one full exploration — branch-point DFS at depth 13
//! over the violation-tolerant racy fixture — once from scratch (the
//! closure contract) and once with checkpoint/fork prefix reuse.
//! Throughput is reported in explored schedules per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ard_bench::explorebench::{run_workload, EXPLORE_MODES};

fn bench_explore(c: &mut Criterion) {
    let budget = 400;
    let runs = run_workload(budget, false).runs;
    let mut group = c.benchmark_group("explore_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(runs));
    for mode in EXPLORE_MODES {
        let checkpoint = mode == "checkpoint";
        group.bench_function(mode, |b| {
            b.iter(|| std::hint::black_box(run_workload(budget, checkpoint).runs));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
