//! Minimal in-tree micro-benchmark harness.
//!
//! The workspace builds fully offline, so the bench targets cannot pull
//! in an external benchmarking framework; this module provides the
//! small part actually needed: a calibrated timing loop around
//! [`std::time::Instant`] reporting the median of several samples
//! (median, unlike mean, is robust to scheduler noise spikes).
//!
//! Used by the `harness = false` bench targets (`cargo bench`); not a
//! statistics suite — for rigorous comparisons run the samples through
//! your own analysis.

use std::time::{Duration, Instant};

/// Samples per benchmark; the reported time is their median.
pub const SAMPLES: usize = 15;

/// Minimum wall-clock per sample the calibration loop aims for.
/// Batches grow until one batch takes at least this long, so
/// per-iteration costs below the `Instant` resolution still measure.
const MIN_SAMPLE: Duration = Duration::from_millis(2);

/// Times `iters` calls of `f` (results routed through
/// [`std::hint::black_box`] so the work is not optimised away).
fn time_batch<R>(f: &mut impl FnMut() -> R, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed()
}

/// Median of a sample set (mean of the middle two for even sizes).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Simulated MIPS: millions of simulated instructions retired per
/// wall-clock second — the simulator-throughput metric tracked by
/// `BENCH_uarch.json` (instructions are simulated, seconds are host
/// time; `ns` is the wall-clock of one run retiring `sim_instructions`).
pub fn sim_mips(sim_instructions: u64, wall_ns: f64) -> f64 {
    if wall_ns <= 0.0 {
        0.0
    } else {
        sim_instructions as f64 * 1e3 / wall_ns
    }
}

/// Renders nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// One measurement: median/min/max per-iteration time over
/// [`SAMPLES`] batches.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Median per-iteration nanoseconds.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Iterations per sample (after calibration).
    pub iters: u64,
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<40} {:>12}   [{} .. {}]   ({} iters x {} samples)",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.max_ns),
            self.iters,
            SAMPLES
        )
    }
}

/// Measures `f` without printing: calibrates a batch size so one batch
/// takes at least `MIN_SAMPLE`, then times [`SAMPLES`] batches.
pub fn measure<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    let mut iters = 1u64;
    loop {
        let t = time_batch(&mut f, iters);
        if t >= MIN_SAMPLE || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| time_batch(&mut f, iters).as_nanos() as f64 / iters as f64)
        .collect();
    let median_ns = median(&mut samples);
    Measurement {
        name: name.to_string(),
        median_ns,
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
        iters,
    }
}

/// Measures `f` and prints one result line — the bench targets' main
/// entry point.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> Measurement {
    let m = measure(name, f);
    println!("{m}");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn sim_mips_is_instructions_per_wall_second() {
        // 2_000_000 simulated instructions in 1 ms of wall time
        // -> 2e6 / 1e-3 s = 2e9 inst/s = 2000 MIPS.
        assert!((sim_mips(2_000_000, 1e6) - 2000.0).abs() < 1e-9);
        assert_eq!(sim_mips(1000, 0.0), 0.0);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2.5e9), "2.50 s");
    }

    #[test]
    fn measure_times_real_work() {
        let mut acc = 0u64;
        let m = measure("spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.iters >= 1);
        assert!(m.name == "spin");
    }
}
