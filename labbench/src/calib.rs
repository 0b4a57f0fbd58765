//! Host-speed calibration. The machine the benchmark runs on may be shared,
//! and its speed drifts by tens of percent within minutes. A fixed
//! reference kernel, timed in processes interleaved with the passes, tracks
//! that drift. The timed metrics are scaled by how much slower or faster the
//! kernel ran than its nominal time.
//!
//! The kernel uses the standard library only, so no change to the lab's
//! crates can speed it up or slow it down.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::sys::median;

/// The kernel's time at nominal host speed, in seconds: about its median
/// on the 2-vCPU Intel Xeon virtual machine the baselines in `METRICS.md`
/// were measured on. A calibrated time is in seconds at this speed.
pub const NOMINAL_S: f64 = 0.055;

/// One round of ordered-map, hash-map, allocation and sort work, the kinds
/// of work the simulator and the lab's reports do.
fn maps(next: &mut impl FnMut() -> u64) -> u64 {
    const N: u64 = 4096;
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut sorted: Vec<u64> = Vec::with_capacity(N as usize);
    for i in 0..N {
        let k = next();
        ordered.insert(k % 100_000, i);
        hashed.insert(k % 50_000, vec![i; (k % 8) as usize]);
        sorted.push(k);
    }
    sorted.sort_unstable();
    let mut acc = 0u64;
    for i in 0..N {
        let k = next();
        acc = acc.wrapping_add(ordered.range(k % 100_000..).next().map_or(0, |e| *e.1));
        acc = acc.wrapping_add(hashed.get(&(k % 50_000)).map_or(0, |v| v.len() as u64));
        acc ^= sorted[(k % N) as usize].rotate_left((i % 63) as u32);
    }
    acc
}

/// Random read-modify-writes over a freshly touched array larger than the
/// processor's caches, the memory traffic of long simulations with deep
/// event queues.
fn memory(next: &mut impl FnMut() -> u64) -> u64 {
    const WORDS: usize = 32 << 20 >> 3;
    let mut words: Vec<u64> = (0..WORDS as u64).collect();
    let mut acc = 0u64;
    for _ in 0..700_000 {
        let i = (next() % WORDS as u64) as usize;
        acc = acc.wrapping_add(words[i]);
        words[i] = acc;
    }
    acc
}

/// Runs the reference kernel once and returns its wall time in seconds.
pub fn reference_s() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let started = Instant::now();
    let mut acc = memory(&mut next);
    for _ in 0..8 {
        acc ^= maps(&mut next);
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// `measured` seconds scaled to nominal host speed, given the median
/// reference time `reference` taken under the same conditions.
pub fn calibrated(measured: f64, reference: f64) -> f64 {
    measured * NOMINAL_S / reference
}

/// Each pass's `measured` seconds scaled by the median kernel time around
/// it, where `after[i]` holds the kernel times taken right after pass `i`
/// (and so right before pass `i + 1`). Scaling each pass by its neighbours
/// follows drift within a run as well as between runs.
pub fn per_pass(measured: &[f64], after: &[Vec<f64>]) -> Vec<f64> {
    assert_eq!(
        measured.len(),
        after.len(),
        "one kernel sample set per pass"
    );
    measured
        .iter()
        .enumerate()
        .map(|(i, &m)| calibrated(m, median(&after[i.saturating_sub(1)..=i].concat())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_host_speed() {
        assert_eq!(calibrated(2.0, NOMINAL_S), 2.0);
        assert_eq!(calibrated(2.0, 2.0 * NOMINAL_S), 1.0);
    }

    #[test]
    fn each_pass_is_scaled_by_the_samples_around_it() {
        let n = NOMINAL_S;
        let after = vec![vec![n, n], vec![3.0 * n, 3.0 * n], vec![n]];
        // Pass 0 sees [n, n]; pass 1 sees [n, n, 3n, 3n]; pass 2 sees
        // [3n, 3n, n].
        let got = per_pass(&[1.0, 2.0, 3.0], &after);
        for (g, want) in got.iter().zip([1.0, 1.0, 1.0]) {
            assert!((g - want).abs() < 1e-12, "{got:?}");
        }
    }

    #[test]
    fn reference_kernel_takes_time() {
        assert!(reference_s() > 0.0);
    }
}
