//! Process resource readings and the order statistics the report uses.

use std::time::Duration;

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// (seconds, microseconds) followed by fourteen `long` counters, the first
/// of which is the peak resident set size in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux, and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

/// User plus system CPU time of the whole process (every thread, finished
/// ones included) so far.
pub fn cpu_time() -> Duration {
    let u = rusage();
    let micros = (u.utime[0] + u.stime[0]) * 1_000_000 + u.utime[1] + u.stime[1];
    Duration::from_micros(u64::try_from(micros).expect("CPU time is never negative"))
}

/// Peak resident set size of the process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    rusage().counters[0] as f64 * 1024.0 / 1e6
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples above it, as `(percentile, value)`; `None` when the sample has
/// fewer than eleven values.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    // Percentiles in per-mille, so the "ten beyond" test is exact.
    [999u64, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&p| values.len() as u64 * (1000 - p) / 1000 >= 10)
        .map(|p| (p as f64 / 10.0, quantile(values, p as f64 / 1000.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).map(|t| t.0), Some(99.0));
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(supported_tail(&v).map(|t| t.0), Some(50.0));
        assert_eq!(supported_tail(&[1.0; 10]), None);
    }

    #[test]
    fn resource_readings_move_forward() {
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
        assert!(peak_rss_mb() > 0.0);
    }
}
