//! Reference benchmark of the RESPECT workspace.
//!
//! Three workloads, each driving the library's public entry points from
//! this package's own code:
//!
//! * [`zoo`] (`offline-zoo`): train a policy, deploy the Fig. 5 model zoo
//!   and held-out synthetic graphs with RESPECT, and solve the same
//!   instances with the baseline schedulers;
//! * [`fleet`] (`fleet-diurnal`): one routed, autoscaled `serve_fleet`
//!   run of 256 tenants under diurnal load;
//! * [`simc`] (`sim-contended`): one `sim::run` of a few tenants sharing
//!   a contended USB bus.
//!
//! An untraced run times whole rounds of a workload; a traced run also
//! records spans around each layer call (see [`trace`]) and derives the
//! per-layer numbers from them.

pub mod fleet;
pub mod report;
pub mod simc;
pub mod trace;
pub mod zoo;

use std::time::Instant;

use respect_tpu::compile::CompiledPipeline;
use respect_tpu::device::DeviceSpec;
use respect_tpu::exec;
use respect_tpu::sim::{self, SimConfig, Workload};

use report::{close, Checks, Figure};
use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["offline-zoo", "fleet-diurnal", "sim-contended"];

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The reference size.
    Full,
    /// A seconds-scale size for tests.
    Reduced,
}

/// How to run one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Wall-clock seconds to keep measuring rounds for (at least one
    /// round always runs).
    pub seconds: f64,
    /// Also run traced rounds and derive the per-layer numbers.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Output checks.
    pub checks: Checks,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each untraced round.
    pub work_s: Vec<f64>,
    /// Wall seconds of each traced round.
    pub traced_work_s: Vec<f64>,
    /// Workload figures, plus per-layer figures in a traced run.
    pub figures: Vec<Figure>,
    /// The spans of the traced run (empty when untraced).
    pub tracer: Tracer,
    /// A digest of the generated inputs.
    pub input_digest: u64,
}

impl RunResult {
    fn new(trace: bool) -> Self {
        RunResult {
            checks: Checks::default(),
            setup_s: Vec::new(),
            work_s: Vec::new(),
            traced_work_s: Vec::new(),
            figures: Vec::new(),
            tracer: if trace { Tracer::on() } else { Tracer::off() },
            input_digest: 0,
        }
    }

    /// Adds the figures every traced run reports: the tracing overhead
    /// (median traced round against median untraced round).
    fn finish(mut self) -> Self {
        if self.tracer.enabled() {
            let plain = report::median(&self.work_s);
            let traced = report::median(&self.traced_work_s);
            self.figures.push(Figure::timed(
                "trace.overhead_pct",
                100.0 * (traced - plain) / plain,
            ));
        }
        let failed_pct = self.checks.failed_pct();
        self.figures.push(Figure::exact("failed_pct", failed_pct));
        self
    }

    /// The figure named `name`, if reported.
    pub fn figure(&self, name: &str) -> Option<f64> {
        self.figures
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.value)
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown workload or a failed set-up.
pub fn run(name: &str, opts: &Options) -> Result<RunResult, String> {
    let result = match name {
        "offline-zoo" => zoo::run(opts),
        "fleet-diurnal" => fleet::run(opts),
        "sim-contended" => simc::run(opts),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }?;
    Ok(result.finish())
}

/// Whether another round should run: always the first, then while
/// fewer than `opts.seconds` have passed since `started` and fewer than
/// `max` rounds have run.
pub(crate) fn keep_going(opts: &Options, started: Instant, done: usize, max: usize) -> bool {
    done == 0 || (done < max && started.elapsed().as_secs_f64() < opts.seconds)
}

/// Stream `stream` of the workload seed (SplitMix64), so that each
/// generated input has its own independent seed.
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the `Debug` rendering of generated inputs.
pub(crate) fn digest(inputs: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{inputs:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The untimed differential check: a closed-loop, uncontended
/// `sim::run` of `pipeline` must match the independent closed-form
/// `exec::analytic` within 1e-9.
pub(crate) fn analytic_check(pipeline: &CompiledPipeline, spec: &DeviceSpec, checks: &mut Checks) {
    const INFERENCES: usize = 1_000;
    let des = checks.ok(
        sim::run(
            &[Workload::closed_loop(pipeline.clone(), INFERENCES)],
            spec,
            &SimConfig::uncontended(),
        ),
        "analytic check: sim::run",
    );
    let analytic = checks.ok(
        exec::analytic(pipeline, spec, INFERENCES),
        "analytic check: exec::analytic",
    );
    if let (Some(des), Some(a)) = (des, analytic) {
        let t = &des.tenants[0];
        checks.check(
            close(t.total_s, a.total_s, 1e-9)
                && close(t.first_latency_s, a.first_latency_s, 1e-9)
                && close(t.throughput_ips, a.throughput_ips, 1e-9),
            || {
                format!(
                    "sim::run disagrees with exec::analytic: total {} vs {}, first {} vs {}",
                    t.total_s, a.total_s, t.first_latency_s, a.first_latency_s
                )
            },
        );
    }
}

/// Per-name medians over the per-layer figures of several traced
/// rounds (deterministic figures are equal in every round).
pub(crate) fn median_figures(rounds: Vec<Vec<Figure>>) -> Vec<Figure> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|f| {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.iter().find(|g| g.name == f.name).map(|g| g.value))
                .collect();
            Figure {
                value: report::median(&values),
                ..f.clone()
            }
        })
        .collect()
}
