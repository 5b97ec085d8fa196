//! Metric names, output checks, small statistics, and JSON output.

use std::fmt::Write as _;

/// End-to-end metrics of every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_s", "s")];

/// Per-layer metrics of every traced run: `(name, unit)`. A layer a
/// workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    // offline-zoo figures
    ("train_graphs_per_s", "graphs/s"),
    ("deploy_ms_p50", "ms"),
    ("deploy_ms_p90", "ms"),
    ("deploy_samples", "count"),
    ("baseline_solve_s", "s"),
    ("optimality_gap_pct", "%"),
    ("speedup_vs_compiler", "x"),
    // offline-zoo layers
    ("graph.sample_ms", "ms"),
    ("core.teacher_dataset_s", "s"),
    ("core.train_run_s", "s"),
    ("core.train_batches", "count"),
    ("core.final_reward", "ratio"),
    ("core.embed_ms", "ms"),
    ("core.decode_ms_p50", "ms"),
    ("core.decode_ms_p90", "ms"),
    ("sched.pack_ms", "ms"),
    ("sched.repair_ms", "ms"),
    ("tpu.compile_ms", "ms"),
    ("sched.exact.solve_ms", "ms"),
    ("sched.ilp.solve_ms", "ms"),
    ("sched.anneal.solve_ms", "ms"),
    ("sched.greedy.solve_ms", "ms"),
    ("sched.hu.solve_ms", "ms"),
    ("sched.force.solve_ms", "ms"),
    ("sched.op-balanced.solve_ms", "ms"),
    ("sched.param-balanced.solve_ms", "ms"),
    ("sched.profiling.solve_ms", "ms"),
    ("sched.exact.states_explored", "count"),
    ("sched.ilp.nodes_explored", "count"),
    // fleet-diurnal and sim-contended figures
    ("sim_requests_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("sim_mean_latency_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("shed_pct", "%"),
    // fleet-diurnal layers
    ("serve.fleet_s", "s"),
    ("serve.events", "count"),
    ("serve.mean_batch", "req/job"),
    ("serve.admit_ratio", "ratio"),
    ("serve.swaps", "count"),
    ("serve.scale_events", "count"),
    ("serve.device_busy_frac", "ratio"),
    ("serve.bus_busy_frac", "ratio"),
    // sim-contended layers
    ("tpu.sim_run_s", "s"),
    ("tpu.sim_events", "count"),
    ("tpu.bus_busy_frac", "ratio"),
    // every workload
    ("trace.overhead_pct", "%"),
    ("failed_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Metric name (one of [`PER_LAYER`]).
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
    /// Whether the value is a deterministic function of the seed (a
    /// count or a simulated-time result) rather than a host timing.
    pub exact: bool,
}

impl Figure {
    /// A host timing or a ratio of host timings.
    pub fn timed(name: impl Into<String>, value: f64) -> Self {
        Self::new(name.into(), value, false)
    }

    /// A deterministic function of the seed.
    pub fn exact(name: impl Into<String>, value: f64) -> Self {
        Self::new(name.into(), value, true)
    }

    fn new(name: String, value: f64, exact: bool) -> Self {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("{name} is not a per-layer metric"), |(_, u)| *u);
        Figure {
            name,
            unit,
            value,
            exact,
        }
    }
}

/// Counts of checked operations and the descriptions of those that
/// failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Descriptions of the failed ones.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; records `what()` if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one fallible operation; records its error.
    pub fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Failed share of attempted operations, in percent.
    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Whether `a` and `b` agree within `rel` relative to `max(1, |b|)`.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs().max(1.0)
}

/// Median (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank `q`-quantile: the `ceil(q·n)`-th smallest sample; 0
/// when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Escapes `s` for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite number as JSON with all its digits (non-finite values,
/// which JSON cannot carry, become `null`).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed() == 0,
        checks.attempted,
        checks.failed()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = result_line(&c, &[("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn per_layer_names_are_unique() {
        for (i, (a, _)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|(b, _)| a != b), "{a}");
        }
    }
}
