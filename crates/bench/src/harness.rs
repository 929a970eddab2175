//! A minimal wall-clock benchmark harness.
//!
//! The workspace must build with no network access, so the benches under
//! `benches/` use this internal harness instead of an external framework.
//! Each `[[bench]]` target is a plain `fn main()` (`harness = false`)
//! that times closures through [`Harness::bench`] and prints one line per
//! measurement: median, minimum, and maximum over the sample count.
//!
//! Sample count defaults to 10 and can be overridden with the
//! `LILY_BENCH_SAMPLES` environment variable.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs and reports timed closures.
#[derive(Debug, Clone)]
pub struct Harness {
    samples: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness with the default (or `LILY_BENCH_SAMPLES`-overridden)
    /// sample count.
    pub fn new() -> Self {
        let samples = std::env::var("LILY_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(10);
        Self { samples }
    }

    /// A harness taking exactly `samples` measurements per benchmark.
    pub fn with_samples(samples: usize) -> Self {
        Self { samples: samples.max(1) }
    }

    /// Times `f` (after one untimed warmup call) and prints a
    /// `group/id: median [min .. max]` line. Returns the median.
    pub fn bench<T>(&self, group: &str, id: &str, mut f: impl FnMut() -> T) -> Duration {
        black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        println!(
            "{group}/{id}: {} [{} .. {}] ({} samples)",
            fmt_duration(median),
            fmt_duration(times[0]),
            fmt_duration(*times.last().expect("non-empty")),
            self.samples,
        );
        median
    }
}

/// Human-readable duration with an SI-style unit chosen by magnitude.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_a_plausible_median() {
        let h = Harness::with_samples(3);
        let mut runs = 0u32;
        let d = h.bench("test", "count", || {
            runs += 1;
            runs
        });
        assert_eq!(runs, 4); // warmup + 3 samples
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn formats_cover_all_ranges() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
