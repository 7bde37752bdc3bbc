//! Host-speed calibration.
//!
//! The benchmark host's speed drifts by tens of percent over tens of
//! seconds, whatever runs on it. The end-to-end times are therefore
//! *host-normalised*: each measured time is scaled by [`REFERENCE_S`] over
//! the time a fixed kernel takes right around it, i.e. reported as the
//! time it would take on a host where the kernel takes [`REFERENCE_S`].
//! The kernel uses only the standard library, so no change to the program
//! can change its time, and a slower program still reads slower.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::report::median;

/// The kernel's typical time on the two-core host the bounds were set on.
pub const REFERENCE_S: f64 = 0.025;

/// Runs the kernel once and returns its seconds: ordered-set churn and
/// scattered reads/writes over a small table — the kinds of work the
/// discovery code does. The table is small (256 KiB) so that the kernel
/// adds nothing measurable to the process's peak RSS.
fn kernel_s() -> f64 {
    let t = Instant::now();
    let mut table = vec![1u64; 1 << 15];
    let mut set = BTreeSet::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..150_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (x >> 40) as u32 % 8192;
        if !set.insert(k) {
            set.remove(&k);
        }
        let j = (x >> 20) as usize % table.len();
        table[j] = table[j].wrapping_add(i);
        acc = acc.wrapping_add(table[(j * 7) % table.len()]);
    }
    std::hint::black_box((acc, set.len()));
    t.elapsed().as_secs_f64()
}

/// The host's current speed: the median of three kernel runs, in seconds.
pub fn speed_s() -> f64 {
    median((0..3).map(|_| kernel_s()).collect())
}

/// The factor that normalises a time measured just now.
pub fn factor() -> f64 {
    REFERENCE_S / speed_s()
}
