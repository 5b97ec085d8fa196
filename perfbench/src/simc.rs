//! `sim-contended`: one `sim::run` call of three tenants on one
//! contended USB bus.
//!
//! ResNet50, DenseNet121 and Xception, each op-balanced over 4 stages,
//! share one device chain and its bus. Arrivals are seeded Poisson
//! streams at a fixed share of each tenant's closed-loop throughput under
//! contention, measured in set-up. The pending-event set stays small and
//! bus phases interleave heavily; no serve, nn, or sched work runs in
//! the timed part.

use std::time::Instant;

use respect_graph::models;
use respect_sched::registry::BuildOptions;
use respect_tpu::compile;
use respect_tpu::device::DeviceSpec;
use respect_tpu::sim::{self, Arrivals, SimConfig, SimReport, Workload};

use crate::report::{median, Checks, Figure};
use crate::trace::Tracer;
use crate::{analytic_check, derive_seed, digest, keep_going, Options, RunResult, Scale};

const STAGES: usize = 4;
/// Offered load as a share of each tenant's contended closed-loop
/// throughput.
const LOAD: f64 = 0.7;

struct Size {
    requests: usize,
    capacity_requests: usize,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                requests: 300_000,
                capacity_requests: 100_000,
            },
            Scale::Reduced => Size {
                requests: 2_000,
                capacity_requests: 500,
            },
        }
    }
}

fn setup(opts: &Options, size: &Size) -> Result<Vec<Workload>, String> {
    let spec = DeviceSpec::coral();
    let partitioner = respect::deploy::registry(&spec)
        .build(
            "op-balanced",
            &BuildOptions::default().with_cost_model(spec.cost_model()),
        )
        .map_err(|e| e.to_string())?;
    let pipelines = [
        models::resnet50(),
        models::densenet121(),
        models::xception(),
    ]
    .iter()
    .map(|dag| {
        partitioner
            .schedule(dag, STAGES)
            .and_then(|s| compile::compile(dag, &s, &spec))
    })
    .collect::<Result<Vec<_>, _>>()
    .map_err(|e| format!("deploying the sim models: {e}"))?;
    let closed: Vec<Workload> = pipelines
        .iter()
        .map(|p| Workload::closed_loop(p.clone(), size.capacity_requests))
        .collect();
    let capacity = sim::run(&closed, &spec, &SimConfig::contended())
        .map_err(|e| format!("capacity run: {e}"))?;
    Ok(pipelines
        .into_iter()
        .zip(&capacity.tenants)
        .enumerate()
        .map(|(i, (p, cap))| {
            Workload::new(p, size.requests)
                .with_arrivals(Arrivals::Poisson {
                    rate: LOAD * cap.throughput_ips,
                    seed: derive_seed(opts.seed, 10 + i as u64),
                })
                .with_warmup(size.requests / 10)
        })
        .collect())
}

/// One `sim::run` call, checked: every tenant completes every request,
/// and the report equals `first`'s.
fn round(
    workloads: &[Workload],
    tracer: &mut Tracer,
    checks: &mut Checks,
    first: Option<&SimReport>,
) -> (f64, Option<SimReport>) {
    let spec = DeviceSpec::coral();
    let started = Instant::now();
    let report = tracer.span("tpu.sim_run", None, |_| {
        sim::run(workloads, &spec, &SimConfig::contended())
    });
    let report = checks.ok(report, "sim::run");
    if let Some(r) = &report {
        for (i, (t, w)) in r.tenants.iter().zip(workloads).enumerate() {
            checks.check(
                t.requests == w.requests
                    && t.measured_inferences == w.requests - w.warmup
                    && t.mean_latency_s > 0.0,
                || {
                    format!(
                        "tenant {i}: {} of {} requests, {} measured, mean latency {}",
                        t.requests, w.requests, t.measured_inferences, t.mean_latency_s
                    )
                },
            );
        }
        if let Some(first) = first {
            checks.check(r == first, || {
                "two sim::run calls on the same inputs disagree".to_string()
            });
        }
    }
    (started.elapsed().as_secs_f64(), report)
}

/// Runs `sim-contended`.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let size = Size::of(opts.scale);
    let mut res = RunResult::new(opts.trace);
    let mut first: Option<SimReport> = None;
    let mut traced = Vec::new();
    let started = Instant::now();
    while keep_going(opts, started, res.work_s.len(), usize::MAX) {
        // a set-up before every round spreads the set-up samples over the
        // whole run, as the rounds are
        let t = Instant::now();
        let workloads = setup(opts, &size)?;
        res.setup_s.push(t.elapsed().as_secs_f64());
        if first.is_none() {
            let arrivals: Vec<Arrivals> = workloads.iter().map(|w| w.arrivals).collect();
            res.input_digest = digest(&arrivals);
            analytic_check(
                &workloads[0].pipeline,
                &DeviceSpec::coral(),
                &mut res.checks,
            );
        }
        let (wall, report) = round(
            &workloads,
            &mut Tracer::off(),
            &mut res.checks,
            first.as_ref(),
        );
        res.work_s.push(wall);
        if first.is_none() {
            first = report;
        }
        if opts.trace {
            let mark = res.tracer.mark();
            let (wall, report) =
                round(&workloads, &mut res.tracer, &mut res.checks, first.as_ref());
            res.traced_work_s.push(wall);
            if let Some(r) = &report {
                traced.push(vec![
                    Figure::timed("tpu.sim_run_s", res.tracer.self_s(mark, "tpu.sim_run")),
                    Figure::exact("tpu.sim_events", r.events as f64),
                    Figure::exact("tpu.bus_busy_frac", r.bus_busy_s / r.makespan_s),
                ]);
            }
        }
    }

    let Some(r) = first else {
        return Ok(res);
    };
    let work_s = median(&res.work_s);
    let requests: usize = r.tenants.iter().map(|t| t.requests).sum();
    let measured: usize = r.tenants.iter().map(|t| t.measured_inferences).sum();
    let latency_sum: f64 = r
        .tenants
        .iter()
        .map(|t| t.mean_latency_s * t.measured_inferences as f64)
        .sum();
    res.figures = vec![
        Figure::timed("sim_requests_per_s", requests as f64 / work_s),
        Figure::timed("events_per_s", r.events as f64 / work_s),
        Figure::exact("sim_mean_latency_ms", 1e3 * latency_sum / measured as f64),
    ];
    res.figures.extend(crate::median_figures(traced));
    Ok(res)
}
