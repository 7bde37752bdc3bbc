//! Scoped worker-pool parallel map with input-order merging.
//!
//! Apply a `Sync` function to every item of a batch, on up to `jobs`
//! `std::thread::scope` workers, and hand the results back **in the order
//! the items went in** — so a caller that consumes them in that order gets
//! byte-identical output at any job count. The explorer runs its random
//! walks through it; the bench harness's trial sweeps and the CLI's
//! multi-seed commands use it too.
//!
//! With `jobs <= 1` (or a single item) no thread is spawned at all: the
//! map runs inline on the caller's thread, so sequential users pay nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item of `items` on up to `jobs` worker threads,
/// returning the results in input order.
///
/// Work is claimed dynamically (an atomic cursor over the batch), so
/// uneven item costs balance across workers, but each result lands in the
/// slot of its input index — the output is the same `Vec` a sequential
/// `map` would produce, regardless of `jobs` or thread timing.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= work.len() {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot lock")
                    .take()
                    .expect("each work item is claimed exactly once");
                let result = f(item);
                *slots[i].lock().expect("result slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every claimed item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [0, 1, 2, 4, 8] {
            let got = parallel_map(jobs, items.clone(), |x| x * x + 1);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_batches_work() {
        let empty: Vec<u32> = parallel_map(4, Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(4, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_item_costs_still_merge_in_order() {
        // Later items finish first; order must come from the input.
        let items: Vec<u64> = (0..32).collect();
        let got = parallel_map(4, items, |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x
        });
        assert_eq!(got, (0..32).collect::<Vec<u64>>());
    }
}
