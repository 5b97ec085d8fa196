//! Minimal, dependency-free stand-in for the slice of `criterion` the
//! bench suite uses: `Criterion::bench_function`, benchmark groups with
//! `sample_size` / `bench_with_input`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros (`harness = false`).
//!
//! The build environment cannot reach crates.io, so instead of criterion's
//! statistical machinery this harness runs a short warm-up, then times a
//! capped number of iterations one by one and reports the mean, median
//! and min–max spread of the wall-clock time per iteration. Good enough to
//! spot regressions beyond the printed spread and to keep `cargo bench`
//! runnable; not a statistics engine.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark: a function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: function_name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self, group: Option<&str>) -> String {
        let mut s = String::new();
        if let Some(g) = group {
            s.push_str(g);
            s.push('/');
        }
        s.push_str(&self.name);
        if let Some(p) = &self.parameter {
            s.push('/');
            s.push_str(p);
        }
        s
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            name,
            parameter: None,
        }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    /// Wall-clock time of each timed call.
    times: Vec<Duration>,
}

impl Bencher {
    fn new(iters: u64) -> Self {
        Bencher {
            iters,
            times: Vec::with_capacity(iters as usize),
        }
    }

    /// Times `iters` calls of `routine` one by one, guarding results with
    /// [`black_box`] so the work is not optimized away.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.times.clear();
        for _ in 0..self.iters {
            let start = Instant::now();
            black_box(routine());
            self.times.push(start.elapsed());
        }
    }
}

/// Mean, median, min and max of per-iteration times, in microseconds.
fn summarize(times: &[Duration]) -> [f64; 4] {
    let mut us: Vec<f64> = times.iter().map(|t| t.as_secs_f64() * 1e6).collect();
    if us.is_empty() {
        return [0.0; 4];
    }
    us.sort_by(f64::total_cmp);
    let mid = us.len() / 2;
    let median = if us.len() % 2 == 1 {
        us[mid]
    } else {
        (us[mid - 1] + us[mid]) / 2.0
    };
    let mean = us.iter().sum::<f64>() / us.len() as f64;
    [mean, median, us[0], us[us.len() - 1]]
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, f: &mut F) {
    // One warm-up call also tells us how expensive an iteration is, so the
    // measured batch can be capped to keep full `cargo bench` runs short.
    let mut b = Bencher::new(1);
    f(&mut b);
    let per_iter = b
        .times
        .iter()
        .sum::<Duration>()
        .max(Duration::from_nanos(1));
    // RESPECT_BENCH_BUDGET_MS caps the measured batch per benchmark
    // (default 200 ms); CI smoke runs set it low so benches stay honest
    // without stalling the pipeline.
    let budget_ms = std::env::var("RESPECT_BENCH_BUDGET_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(200);
    let budget = Duration::from_millis(budget_ms);
    let iters = (budget.as_nanos() / per_iter.as_nanos()).clamp(1, sample_size as u128) as u64;

    let mut b = Bencher::new(iters);
    f(&mut b);
    let [mean, median, min, max] = summarize(&b.times);
    println!(
        "bench: {label:<50} {mean:>12.3} µs/iter (n={iters}, median {median:.3}, \
         min–max {min:.3}–{max:.3})"
    );
}

/// Top-level harness handle; the `criterion_main!`-generated `main`
/// constructs one and passes it to every registered group function.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        run_one(&id.into().render(None), self.default_sample_size, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 20,
        }
    }
}

/// A named set of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &id.into().render(Some(&self.name)),
            self.sample_size,
            &mut f,
        );
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&id.render(Some(&self.name)), self.sample_size, &mut |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// Registers a group of benchmark functions under one name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes harness flags (e.g. `--bench`); accept and
            // ignore them like any external harness must.
            let _args: Vec<String> = std::env::args().collect();
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn summarize_reports_mean_median_and_spread() {
        let us = |v: &[u64]| {
            v.iter()
                .map(|&x| Duration::from_micros(x))
                .collect::<Vec<_>>()
        };
        assert_eq!(summarize(&us(&[4, 1, 10])), [5.0, 4.0, 1.0, 10.0]);
        assert_eq!(summarize(&us(&[3, 1, 2, 6])), [3.0, 2.5, 1.0, 6.0]);
        assert_eq!(summarize(&[]), [0.0; 4]);
    }

    #[test]
    fn bencher_times_every_iteration() {
        let mut b = Bencher::new(5);
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!((calls, b.times.len()), (5, 5));
    }

    #[test]
    fn group_renders_ids() {
        let id = BenchmarkId::new("solver", 4);
        assert_eq!(id.render(Some("fig3")), "fig3/solver/4");
        let bare: BenchmarkId = "embed".into();
        assert_eq!(bare.render(None), "embed");
    }
}
