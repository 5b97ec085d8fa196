//! `fleet-diurnal`: one routed, autoscaled `serve_fleet` call.
//!
//! Eight chains, each on its own contended bus, behind the
//! join-shortest-backlog router with autoscaling; 256 tenants share three
//! op-balanced 6-stage pipelines (DenseNet121, ResNet50, Xception), so
//! the serve timing cache is shared. Arrivals are open-loop and diurnal
//! in simulated time, at a fixed share of the fleet capacity measured in
//! set-up; batching is 8 requests / 5 ms, admission is `SloDelay` 50 ms,
//! and one tenant in 16 carries a `Repartitioner`. Every pending-event
//! set holds at least one arrival per tenant.

use std::time::Instant;

use respect_graph::{models, Dag};
use respect_sched::registry::BuildOptions;
use respect_serve::{
    serve_fleet, AdmissionPolicy, AutoscalePolicy, BatchPolicy, FleetConfig, FleetReport,
    Repartitioner, RouterPolicy, ServeTenant,
};
use respect_tpu::compile::{self, CompiledPipeline};
use respect_tpu::device::DeviceSpec;
use respect_tpu::sim::Arrivals;

use crate::report::{median, Checks, Figure};
use crate::trace::Tracer;
use crate::{analytic_check, derive_seed, digest, keep_going, Options, RunResult, Scale};

const STAGES: usize = 6;
/// Cycle-mean offered load as a share of the measured fleet capacity.
/// The diurnal crest reaches `LOAD · (1 + AMPLITUDE)` = 0.9, so the
/// simulated backlog does not grow.
const LOAD: f64 = 0.6;
const AMPLITUDE: f64 = 0.5;
/// Diurnal cycles per run.
const CYCLES: f64 = 2.0;

struct Size {
    tenants: usize,
    requests: usize,
    chains: usize,
    capacity_requests: usize,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                tenants: 256,
                requests: 1_000,
                chains: 8,
                capacity_requests: 40_000,
            },
            Scale::Reduced => Size {
                tenants: 16,
                requests: 40,
                chains: 2,
                capacity_requests: 200,
            },
        }
    }
}

struct Inputs {
    tenants: Vec<ServeTenant>,
    cfg: FleetConfig,
    pipeline: CompiledPipeline,
}

fn setup(opts: &Options, size: &Size) -> Result<Inputs, String> {
    let spec = DeviceSpec::coral();
    let model = spec.cost_model();
    let dags: [Dag; 3] = [
        models::densenet121(),
        models::resnet50(),
        models::xception(),
    ];
    let partitioner = respect::deploy::registry(&spec)
        .build(
            "op-balanced",
            &BuildOptions::default().with_cost_model(model),
        )
        .map_err(|e| e.to_string())?;
    let pipelines = dags
        .iter()
        .map(|dag| {
            partitioner
                .schedule(dag, STAGES)
                .and_then(|s| compile::compile(dag, &s, &spec))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("deploying the fleet models: {e}"))?;

    // one chain serving one closed-loop, unbatched tenant per model: at
    // a few requests per second per tenant, batches rarely fill
    let closed: Vec<ServeTenant> = pipelines
        .iter()
        .map(|p| {
            ServeTenant::new(p.clone(), size.capacity_requests)
                .with_warmup(size.capacity_requests / 10)
        })
        .collect();
    let chain_capacity: f64 = serve_fleet(
        &closed,
        &FleetConfig::homogeneous(1, spec).with_contended_bus(),
    )
    .map_err(|e| format!("capacity run: {e}"))?
    .tenants
    .iter()
    .map(|t| t.throughput_ips)
    .sum();

    let rate = LOAD * size.chains as f64 * chain_capacity / size.tenants as f64;
    let period_s = size.requests as f64 / rate / CYCLES;
    let tenants = (0..size.tenants)
        .map(|i| {
            let m = i % dags.len();
            let tenant = ServeTenant::new(pipelines[m].clone(), size.requests)
                .with_arrivals(Arrivals::Diurnal {
                    mean_rate: rate,
                    amplitude: AMPLITUDE,
                    period_s,
                    seed: derive_seed(opts.seed, 10 + i as u64),
                })
                .with_warmup(size.requests / 10)
                .with_batcher(BatchPolicy::new(8, 5e-3))
                .with_admission(AdmissionPolicy::SloDelay { target_s: 0.050 });
            if i % 16 == 0 {
                tenant.with_repartitioner(Repartitioner::new(dags[m].clone(), model))
            } else {
                tenant
            }
        })
        .collect();
    // scale up well below the 50 ms admission target, or shedding hides
    // the backlog the autoscaler reacts to
    let cfg = FleetConfig::homogeneous(size.chains, spec)
        .with_router(RouterPolicy::JoinShortestBacklog)
        .with_contended_bus()
        .with_autoscale(
            AutoscalePolicy::new()
                .with_scale_up_s(0.015)
                .with_scale_down_s(0.002)
                .with_check_jobs(8),
        );
    Ok(Inputs {
        tenants,
        cfg,
        pipeline: pipelines[0].clone(),
    })
}

/// One `serve_fleet` call, checked: every tenant's offered requests are
/// admitted or shed, and the report equals `first`'s.
fn round(
    inp: &Inputs,
    tracer: &mut Tracer,
    checks: &mut Checks,
    first: Option<&FleetReport>,
) -> (f64, Option<FleetReport>) {
    let started = Instant::now();
    let report = tracer.span("serve.fleet", None, |_| serve_fleet(&inp.tenants, &inp.cfg));
    let report = checks.ok(report, "serve_fleet");
    if let Some(r) = &report {
        for (i, (t, tenant)) in r.tenants.iter().zip(&inp.tenants).enumerate() {
            checks.check(
                t.offered == t.admitted + t.shed && t.offered == tenant.requests,
                || {
                    format!(
                        "tenant {i}: offered {} != admitted {} + shed {} (requests {})",
                        t.offered, t.admitted, t.shed, tenant.requests
                    )
                },
            );
        }
        if let Some(first) = first {
            checks.check(r == first, || {
                "two serve_fleet calls on the same inputs disagree".to_string()
            });
        }
    }
    (started.elapsed().as_secs_f64(), report)
}

fn layer_figures(tracer: &Tracer, mark: usize, r: &FleetReport) -> Vec<Figure> {
    let admitted = r.admitted() as f64;
    let jobs: usize = r.tenants.iter().map(|t| t.jobs).sum();
    let powered_s: f64 = r.chains.iter().map(|c| c.powered_s).sum();
    let busy_s: f64 = r.chains.iter().map(|c| c.busy_s).sum();
    let bus_busy_s: f64 = r.chains.iter().map(|c| c.bus_busy_s).sum();
    vec![
        Figure::timed("serve.fleet_s", tracer.self_s(mark, "serve.fleet")),
        Figure::exact("serve.events", r.events as f64),
        Figure::exact("serve.mean_batch", admitted / jobs as f64),
        Figure::exact("serve.admit_ratio", admitted / r.offered() as f64),
        Figure::exact("serve.swaps", r.total_swaps() as f64),
        Figure::exact("serve.scale_events", r.scale_events.len() as f64),
        Figure::exact(
            "serve.device_busy_frac",
            busy_s / (STAGES as f64 * powered_s),
        ),
        Figure::exact("serve.bus_busy_frac", bus_busy_s / powered_s),
    ]
}

/// Runs `fleet-diurnal`.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let size = Size::of(opts.scale);
    let mut res = RunResult::new(opts.trace);
    let mut first: Option<FleetReport> = None;
    let mut traced = Vec::new();
    let started = Instant::now();
    while keep_going(opts, started, res.work_s.len(), usize::MAX) {
        // a set-up before every round spreads the set-up samples over the
        // whole run, as the rounds are
        let t = Instant::now();
        let inp = setup(opts, &size)?;
        res.setup_s.push(t.elapsed().as_secs_f64());
        if first.is_none() {
            let arrivals: Vec<Arrivals> = inp.tenants.iter().map(|t| t.arrivals).collect();
            res.input_digest = digest(&arrivals);
            analytic_check(&inp.pipeline, &DeviceSpec::coral(), &mut res.checks);
        }
        let (wall, report) = round(&inp, &mut Tracer::off(), &mut res.checks, first.as_ref());
        res.work_s.push(wall);
        if first.is_none() {
            first = report;
        }
        if opts.trace {
            let mark = res.tracer.mark();
            let (wall, report) = round(&inp, &mut res.tracer, &mut res.checks, first.as_ref());
            res.traced_work_s.push(wall);
            if let Some(r) = &report {
                traced.push(layer_figures(&res.tracer, mark, r));
            }
        }
    }

    let Some(r) = first else {
        return Ok(res);
    };
    let work_s = median(&res.work_s);
    let measured: u64 = r.tenants.iter().map(|t| t.measured_requests as u64).sum();
    let latency_sum: f64 = r
        .tenants
        .iter()
        .map(|t| t.mean_latency_s * t.measured_requests as f64)
        .sum();
    res.figures = vec![
        Figure::timed("sim_requests_per_s", r.offered() as f64 / work_s),
        Figure::timed("events_per_s", r.events as f64 / work_s),
        Figure::exact("sim_mean_latency_ms", 1e3 * latency_sum / measured as f64),
        Figure::exact("sim_p99_ms", 1e3 * r.p99_s()),
        Figure::exact("shed_pct", 100.0 * r.shed() as f64 / r.offered() as f64),
    ];
    res.figures.extend(crate::median_figures(traced));
    Ok(res)
}
