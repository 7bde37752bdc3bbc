//! The process-wide worker count of the experiment sweeps.
//!
//! Experiment sweeps repeat independent trials (each trial owns its topology
//! seed and its seeded [`RandomScheduler`](ard_netsim::RandomScheduler)), so
//! they parallelize trivially over [`ard_netsim::par::parallel_map`], which
//! hands results back **in input order**. Because every trial is
//! deterministic in its inputs and the merge order is the input order, the
//! output is byte-for-byte identical whatever the job count — `--jobs N`
//! only changes wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The process-wide worker count used by [`map_configured`] (set from the
/// `--jobs` CLI flag). Defaults to 1 (fully sequential).
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker count used by [`map_configured`]. Values are clamped to
/// at least 1. Changing this never changes any experiment's output, only how
/// many trials run concurrently.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The currently configured worker count.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

/// [`ard_netsim::par::parallel_map`] with the process-wide [`jobs`] worker
/// count.
pub fn map_configured<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    ard_netsim::par::parallel_map(jobs(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_jobs_clamps_to_one() {
        let before = jobs();
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(before);
    }
}
