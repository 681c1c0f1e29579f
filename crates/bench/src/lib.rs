//! Micro-benchmark harness for the WHISPER benches (`ablations`,
//! `suite_throughput`).
//!
//! The build environment vendors no external crates, so this crate
//! provides the small slice of the `criterion` API the benches use —
//! `Criterion::benchmark_group`, per-group `sample_size` /
//! `warm_up_time` / `measurement_time`, `bench_function` with a
//! `Bencher::iter` timing loop, and the `criterion_group!` /
//! `criterion_main!` macros. Each benchmark reports min / median / max
//! time per iteration over the configured samples.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Entry point handed to each `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        eprintln!("\nbenchmark group: {name}");
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 20,
            warm_up: Duration::from_millis(500),
            measurement: Duration::from_secs(2),
        }
    }
}

/// A named group of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.as_ref();
        // Warm-up: run single iterations until the warm-up budget is
        // spent, using the observed mean to size the measurement
        // samples.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut warm_elapsed = Duration::ZERO;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            warm_iters += b.iters;
            warm_elapsed += b.elapsed;
        }
        let mean = warm_elapsed
            .checked_div(warm_iters as u32)
            .unwrap_or(Duration::from_nanos(1))
            .max(Duration::from_nanos(1));

        // Size each sample so the whole measurement phase roughly fits
        // the configured budget.
        let per_sample = self.measurement / self.sample_size as u32;
        let iters = (per_sample.as_nanos() / mean.as_nanos().max(1))
            .max(1)
            .min(u64::MAX as u128) as u64;

        let mut per_iter: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_iter.push(b.elapsed.checked_div(b.iters as u32).unwrap_or_default());
        }
        per_iter.sort_unstable();
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let max = per_iter[per_iter.len() - 1];
        eprintln!(
            "  {}/{id:<14} time: [{} {} {}]  ({} samples x {iters} iters)",
            self.name,
            fmt_duration(min),
            fmt_duration(median),
            fmt_duration(max),
            self.sample_size,
        );
        self
    }

    pub fn finish(self) {}
}

/// Timing handle passed to the benchmark closure; `iter` runs the
/// workload `iters` times and records the elapsed wall-clock.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} \u{b5}s", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Build a function that runs each benchmark target with a fresh
/// [`Criterion`] — the signature `criterion_group!(name, target, ...)`
/// expects.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Build `main` from one or more `criterion_group!` functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_reports_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("self_test");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(5));
        let mut calls = 0u64;
        group.bench_function("counter", |b| {
            b.iter(|| {
                calls += 1;
                calls
            });
        });
        group.finish();
        assert!(calls > 0, "benchmark closure never ran");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.00 \u{b5}s");
        assert_eq!(fmt_duration(Duration::from_millis(7)), "7.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
