//! Regenerates the paper's evaluation artifacts as empirical tables.
//!
//! ```text
//! cargo run --release -p ard-bench --bin tables            # everything
//! cargo run --release -p ard-bench --bin tables -- --exp e5
//! cargo run --release -p ard-bench --bin tables -- --quick # small sweeps
//! cargo run --release -p ard-bench --bin tables -- --jobs 4
//! cargo run --release -p ard-bench --bin tables -- --list
//! cargo run --release -p ard-bench --bin tables -- --bench-throughput BENCH_throughput.json
//! cargo run --release -p ard-bench --bin tables -- --bench-explore BENCH_explore.json
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut exp: Option<String> = None;
    let mut list = false;
    let mut jobs = 1usize;
    let mut throughput_path: Option<String> = None;
    let mut explore_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--exp" => {
                i += 1;
                match args.get(i) {
                    Some(id) => exp = Some(id.clone()),
                    None => {
                        eprintln!("--exp needs an id (e1..e10, f1, a1..a3)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("--jobs needs a thread count >= 1");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--bench-throughput" => {
                // Optional path operand; defaults to BENCH_throughput.json.
                let next = args.get(i + 1);
                let path = match next {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_throughput.json".to_string(),
                };
                throughput_path = Some(path);
            }
            "--bench-explore" => {
                // Optional path operand; defaults to BENCH_explore.json.
                let next = args.get(i + 1);
                let path = match next {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_explore.json".to_string(),
                };
                explore_path = Some(path);
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: tables [--quick] [--list] [--exp <id>] [--jobs N] [--bench-throughput [PATH]] [--bench-explore [PATH]]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    // Trials merge in seed order, so any job count gives identical output.
    ard_bench::parallel::set_jobs(jobs);

    if let Some(path) = throughput_path {
        // --quick keeps the dense-knowledge grid (n ≤ 4096) and skips the
        // large tail: seconds instead of minutes.
        let sizes: Vec<usize> = if quick {
            ard_bench::throughput::THROUGHPUT_SIZES
                .into_iter()
                .filter(|&n| n <= 4096)
                .collect()
        } else {
            ard_bench::throughput::THROUGHPUT_SIZES.to_vec()
        };
        let points = ard_bench::throughput::measure(&sizes, 3);
        for p in &points {
            println!(
                "n={:<7} {:<7} {:>9} events in {:>8.3}s  ->  {:>12.0} events/s  ({:>7.1} knowledge B/node, {:>6.1} payload B/event, peak {} B)",
                p.n, p.scheduler, p.events, p.secs, p.events_per_sec, p.knowledge_bytes_per_node,
                p.payload_bytes_per_event, p.payload_peak_bytes
            );
        }
        let json = ard_bench::throughput::to_json(&points);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return ExitCode::SUCCESS;
    }

    if let Some(path) = explore_path {
        let budget = if quick {
            ard_bench::explorebench::EXPLORE_BUDGET / 10
        } else {
            ard_bench::explorebench::EXPLORE_BUDGET
        };
        let points = ard_bench::explorebench::measure(budget, 3);
        for p in &points {
            println!(
                "{:<10} {:>7} runs in {:>8.3}s  ->  {:>10.0} runs/s  ({:>5.2}x)",
                p.mode, p.runs, p.secs, p.runs_per_sec, p.speedup
            );
        }
        let reduction_budget = if quick {
            ard_bench::explorebench::REDUCTION_BUDGET / 10
        } else {
            ard_bench::explorebench::REDUCTION_BUDGET
        };
        let r = ard_bench::explorebench::measure_reduction(
            reduction_budget,
            ard_bench::explorebench::REDUCTION_SPIN,
        );
        println!(
            "reduction depth={}: full {} runs ({}) in {:.3}s | reduced {} runs ({}) in {:.3}s | pruned={} deduped={} | >={:.1}x fewer",
            r.depth,
            r.full_runs,
            r.full_stop,
            r.full_secs,
            r.reduced_runs,
            r.reduced_stop,
            r.reduced_secs,
            r.sleep_pruned,
            r.digest_deduped,
            r.ratio
        );
        let json = ard_bench::explorebench::to_json(&points, &r);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
        return ExitCode::SUCCESS;
    }

    if list {
        for t in ard_bench::all_tables(true) {
            println!("{:4}  {}", t.id, t.title);
        }
        return ExitCode::SUCCESS;
    }

    match exp {
        Some(id) => match ard_bench::table_by_id(&id, quick) {
            Some(t) => println!("{t}"),
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                return ExitCode::FAILURE;
            }
        },
        None => {
            for t in ard_bench::all_tables(quick) {
                println!("{t}");
            }
        }
    }
    ExitCode::SUCCESS
}
