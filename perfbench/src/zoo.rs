//! `offline-zoo`: the paper's own path (Figs. 3–5).
//!
//! Set-up samples held-out synthetic graphs, builds the Fig. 5 models,
//! and builds the teacher dataset with `Trainer::new`. A round trains the
//! policy with `Trainer::run`, deploys every instance with RESPECT
//! (`schedule`, then `compile`), and solves every instance with the
//! baseline schedulers. Quality figures (gap to the exact optimum, Fig. 4
//! speed-up over the compiler) are computed once per run, untimed.
//!
//! The untraced round calls `RespectScheduler::schedule`; the traced
//! round calls `embed`, `PtrNetPolicy::decode`, `legalize_sequence`,
//! `pack::pack` and `repair` in `schedule`'s own order, and checks that
//! the result is the same schedule.

use std::time::{Duration, Instant};

use respect_core::dataset::DatasetConfig;
use respect_core::scheduler::legalize_sequence;
use respect_core::{embed, DecodeMode, PolicyConfig, RespectScheduler, TrainConfig, Trainer};
use respect_graph::{models, Dag, SyntheticConfig, SyntheticSampler};
use respect_sched::exact::{ExactScheduler, ExactSolution};
use respect_sched::ilp::IlpScheduler;
use respect_sched::registry::BuildOptions;
use respect_sched::repair::{repair, RepairConfig};
use respect_sched::{pack, Schedule, ScheduleError, Scheduler};
use respect_tpu::compile::{self, CompiledPipeline};
use respect_tpu::device::DeviceSpec;
use respect_tpu::{exec, EdgeTpuCompiler};

use crate::report::{geomean, median, quantile, Checks, Figure};
use crate::trace::Tracer;
use crate::{analytic_check, derive_seed, digest, keep_going, Options, RunResult, Scale};

/// Baselines built through the scheduler registry: `(registry name,
/// span name)`. `exact` and `ilp` are called through `solve`, which
/// reports optimality and search effort.
const REGISTRY_BASELINES: [(&str, &str); 7] = [
    ("anneal", "sched.anneal.solve"),
    ("greedy", "sched.greedy.solve"),
    ("hu", "sched.hu.solve"),
    ("force", "sched.force.solve"),
    ("op-balanced", "sched.op-balanced.solve"),
    ("param-balanced", "sched.param-balanced.solve"),
    ("profiling", "sched.profiling.solve"),
];

/// Safety net for the ILP; its instances are chosen to be proven optimal
/// in about a second, and a timeout fails the `ilp == exact` check.
const ILP_BUDGET: Duration = Duration::from_secs(30);

/// Rounds per run at most; a round takes about 15 s.
const MAX_ROUNDS: usize = 3;

/// Inferences per Fig. 4 simulation.
const FIG4_INFERENCES: usize = 1_000;

struct Size {
    train_graphs: usize,
    /// Nodes per training and held-out graph. The paper uses 30; at 30
    /// nodes the exact teacher's solve time is heavy-tailed across seeds
    /// (1.8–6.9 s for 75 solves), at 20 it is steady.
    graph_nodes: usize,
    degrees: &'static [usize],
    epochs: usize,
    batch: usize,
    hidden: usize,
    /// Held-out graphs; with the zoo this gives 36 + 75 = 111 deploy
    /// samples, 11 of them beyond p90.
    heldout_graphs: usize,
    stages: &'static [usize],
    /// The zoo instances the ILP proves optimal in about a second
    /// (ResNet50@6 alone takes 21 s).
    ilp: &'static [(&'static str, usize)],
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                train_graphs: 256,
                graph_nodes: 20,
                degrees: &[2, 3, 4, 5, 6],
                epochs: 3,
                batch: 16,
                hidden: 32,
                heldout_graphs: 25,
                stages: &[4, 5, 6],
                ilp: &[("Xception", 4), ("Xception", 5), ("ResNet50", 4)],
            },
            // the full-scale graph distribution, fewer graphs and models
            Scale::Reduced => Size {
                train_graphs: 16,
                graph_nodes: 20,
                degrees: &[2, 3, 4, 5, 6],
                epochs: 1,
                batch: 4,
                hidden: 8,
                heldout_graphs: 10,
                stages: &[4, 6],
                ilp: &[("Xception", 4)],
            },
        }
    }

    fn models(&self, scale: Scale) -> Vec<(&'static str, Dag)> {
        match scale {
            Scale::Full => models::fig5(),
            Scale::Reduced => vec![("Xception", models::xception())],
        }
    }

    fn train_config(&self, seed: u64, spec: &DeviceSpec) -> TrainConfig {
        let mut dataset = DatasetConfig::paper_scaled(self.train_graphs, 4);
        dataset.num_nodes = self.graph_nodes;
        dataset.degrees = self.degrees.to_vec();
        dataset.seed = derive_seed(seed, 2);
        let mut policy = PolicyConfig::small(self.hidden);
        policy.seed = derive_seed(seed, 1);
        let mut cfg = TrainConfig::laptop();
        cfg.policy = policy;
        cfg.dataset = dataset;
        cfg.cost_model = spec.cost_model();
        cfg.epochs = self.epochs;
        cfg.batch_size = self.batch;
        cfg.seed = derive_seed(seed, 3);
        cfg.num_threads = 1;
        cfg
    }
}

/// One graph at one stage count.
#[derive(Debug)]
struct Instance {
    name: String,
    dag: usize,
    stages: usize,
    /// A Fig. 5 model (rather than a held-out synthetic graph).
    zoo: bool,
    /// Solved with `ilp` too.
    ilp: bool,
}

#[derive(Debug)]
struct Inputs {
    dags: Vec<Dag>,
    instances: Vec<Instance>,
    train: TrainConfig,
}

fn setup(opts: &Options, size: &Size, tracer: &mut Tracer) -> Result<(Inputs, Trainer), String> {
    let spec = DeviceSpec::coral();
    let mut dags = Vec::new();
    let mut instances = Vec::new();
    for (name, dag) in size.models(opts.scale) {
        for &stages in size.stages {
            instances.push(Instance {
                name: format!("{name}@{stages}"),
                dag: dags.len(),
                stages,
                zoo: true,
                ilp: size.ilp.contains(&(name, stages)),
            });
        }
        dags.push(dag);
    }
    let heldout: Vec<Dag> = tracer.span("graph.sample", None, |_| {
        (0..size.heldout_graphs)
            .map(|i| {
                let cfg = SyntheticConfig {
                    num_nodes: size.graph_nodes,
                    max_in_degree: size.degrees[i % size.degrees.len()],
                    ..SyntheticConfig::default()
                };
                SyntheticSampler::new(cfg, derive_seed(opts.seed, 100 + i as u64)).sample()
            })
            .collect()
    });
    for (i, dag) in heldout.into_iter().enumerate() {
        for &stages in size.stages {
            instances.push(Instance {
                name: format!("heldout{i}@{stages}"),
                dag: dags.len(),
                stages,
                zoo: false,
                ilp: false,
            });
        }
        dags.push(dag);
    }
    let train = size.train_config(opts.seed, &spec);
    let trainer = tracer
        .span("core.teacher_dataset", None, |_| {
            Trainer::new(train.clone())
        })
        .map_err(|e| format!("teacher dataset: {e}"))?;
    Ok((
        Inputs {
            dags,
            instances,
            train,
        },
        trainer,
    ))
}

fn timed_setup(
    opts: &Options,
    size: &Size,
    res: &mut RunResult,
) -> Result<(Inputs, Trainer), String> {
    let t = Instant::now();
    let out = setup(opts, size, &mut res.tracer)?;
    res.setup_s.push(t.elapsed().as_secs_f64());
    Ok(out)
}

/// What one round produced.
struct Round {
    wall_s: f64,
    train_s: f64,
    batches: usize,
    final_reward: f64,
    deploy_s: Vec<f64>,
    /// RESPECT's schedule and pipeline per instance.
    deployed: Vec<Option<(Schedule, CompiledPipeline)>>,
    /// Summed solve seconds of every baseline.
    baseline_s: f64,
    exact: Vec<Option<ExactSolution>>,
    ilp_nodes: u64,
}

impl Round {
    fn states_explored(&self) -> u64 {
        self.exact.iter().flatten().map(|e| e.states_explored).sum()
    }
}

/// Deploys instance `i` the way `RespectScheduler::schedule` does, one
/// layer call at a time.
fn deploy_traced(
    respect: &RespectScheduler,
    dag: &Dag,
    stages: usize,
    i: u32,
    tr: &mut Tracer,
) -> Result<(Schedule, CompiledPipeline), ScheduleError> {
    let spec = DeviceSpec::coral();
    let policy = respect.policy();
    tr.span("zoo.deploy", Some(i), |tr| {
        let feats = tr.span("core.embed", Some(i), |_| {
            embed(dag, &policy.config().embedding)
        });
        let pi = tr.span("core.decode", Some(i), |_| {
            policy.decode(dag, &feats, &mut DecodeMode::Greedy)
        });
        let pi = tr.span("core.legalize", Some(i), |_| legalize_sequence(dag, &pi));
        let (packed, _) = tr.span("sched.pack", Some(i), |_| {
            pack::pack(dag, &pi, stages, respect.cost_model())
        });
        let schedule = tr.span("sched.repair", Some(i), |_| {
            repair(dag, packed.stage_of(), stages, RepairConfig::default())
        })?;
        let pipeline = tr.span("tpu.compile", Some(i), |_| {
            compile::compile(dag, &schedule, &spec)
        })?;
        Ok((schedule, pipeline))
    })
}

/// One round: train, deploy every instance, solve every instance with
/// every baseline. With an enabled `tracer`, every layer call is a span.
/// Returns the trained scheduler too.
fn round(
    inp: &Inputs,
    mut trainer: Trainer,
    opts: &Options,
    size: &Size,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (Round, RespectScheduler) {
    let spec = DeviceSpec::coral();
    let model = spec.cost_model();
    let started = Instant::now();

    let t = Instant::now();
    let trained = tracer.span("core.train_run", None, |_| trainer.run());
    let train_s = t.elapsed().as_secs_f64();
    checks.ok(trained, "Trainer::run");
    let rewards = &trainer.report().batch_rewards;
    let batches = rewards.len();
    let final_reward = rewards.last().copied().unwrap_or(f64::NAN);
    let expected_batches = size.epochs * size.train_graphs.div_ceil(size.batch);
    checks.check(
        batches == expected_batches && final_reward.is_finite(),
        || format!("training ran {batches} batches (expected {expected_batches}), final reward {final_reward}"),
    );
    let respect = RespectScheduler::new(trainer.into_policy()).with_cost_model(model);

    let mut deploy_s = Vec::with_capacity(inp.instances.len());
    let mut deployed = Vec::with_capacity(inp.instances.len());
    for (i, inst) in inp.instances.iter().enumerate() {
        let dag = &inp.dags[inst.dag];
        let t = Instant::now();
        let out = if tracer.enabled() {
            deploy_traced(&respect, dag, inst.stages, i as u32, tracer)
        } else {
            respect
                .schedule(dag, inst.stages)
                .and_then(|s| compile::compile(dag, &s, &spec).map(|p| (s, p)))
        };
        deploy_s.push(t.elapsed().as_secs_f64());
        let out = checks.ok(out, &format!("RESPECT deploy of {}", inst.name));
        if let Some((s, _)) = &out {
            checks.check(s.is_valid(dag), || {
                format!("RESPECT schedule of {} is invalid", inst.name)
            });
        }
        deployed.push(out);
    }

    let registry = respect::deploy::registry(&spec);
    let build = BuildOptions::default()
        .with_cost_model(model)
        .with_seed(derive_seed(opts.seed, 4));
    let mut baseline_s = 0.0;
    for (name, span) in REGISTRY_BASELINES {
        let Some(scheduler) = checks.ok(registry.build(name, &build), name) else {
            continue;
        };
        for (i, inst) in inp.instances.iter().enumerate() {
            let dag = &inp.dags[inst.dag];
            let t = Instant::now();
            let out = tracer.span(span, Some(i as u32), |_| {
                scheduler.schedule(dag, inst.stages)
            });
            baseline_s += t.elapsed().as_secs_f64();
            if let Some(s) = checks.ok(out, &format!("{name} on {}", inst.name)) {
                checks.check(s.is_valid(dag), || {
                    format!("{name} schedule of {} is invalid", inst.name)
                });
            }
        }
    }

    let exact_solver = ExactScheduler::new(model);
    let mut exact = Vec::with_capacity(inp.instances.len());
    for (i, inst) in inp.instances.iter().enumerate() {
        let dag = &inp.dags[inst.dag];
        let t = Instant::now();
        let out = tracer.span("sched.exact.solve", Some(i as u32), |_| {
            exact_solver.solve(dag, inst.stages)
        });
        baseline_s += t.elapsed().as_secs_f64();
        let out = checks.ok(out, &format!("exact on {}", inst.name));
        if let Some(sol) = &out {
            checks.check(sol.proven_optimal && sol.schedule.is_valid(dag), || {
                format!("exact did not prove a valid optimum on {}", inst.name)
            });
            if let Some((s, _)) = &deployed[i] {
                let ours = model.objective(dag, s);
                checks.check(ours >= sol.objective * (1.0 - 1e-12), || {
                    format!(
                        "RESPECT objective {ours} beats the proven optimum {} on {}",
                        sol.objective, inst.name
                    )
                });
            }
        }
        exact.push(out);
    }

    let ilp_solver = IlpScheduler::new(model).with_time_budget(ILP_BUDGET);
    let mut ilp_nodes = 0;
    for (i, inst) in inp
        .instances
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.ilp)
    {
        let dag = &inp.dags[inst.dag];
        let t = Instant::now();
        let out = tracer.span("sched.ilp.solve", Some(i as u32), |_| {
            ilp_solver.solve(dag, inst.stages)
        });
        baseline_s += t.elapsed().as_secs_f64();
        let Some(sol) = checks.ok(out, &format!("ilp on {}", inst.name)) else {
            continue;
        };
        ilp_nodes += sol.nodes_explored;
        if let Some(ex) = &exact[i] {
            checks.check(
                sol.proven_optimal
                    && sol.schedule.is_valid(dag)
                    && crate::report::close(sol.objective, ex.objective, 1e-12),
                || {
                    format!(
                        "ilp objective {} (proven {}) differs from exact {} on {}",
                        sol.objective, sol.proven_optimal, ex.objective, inst.name
                    )
                },
            );
        }
    }

    let out = Round {
        wall_s: started.elapsed().as_secs_f64(),
        train_s,
        batches,
        final_reward,
        deploy_s,
        deployed,
        baseline_s,
        exact,
        ilp_nodes,
    };
    (out, respect)
}

/// Untimed: the traced round's layer-by-layer deploys must equal
/// `RespectScheduler::schedule` with the same policy.
fn check_decomposition(
    inp: &Inputs,
    traced: &Round,
    respect: &RespectScheduler,
    checks: &mut Checks,
) {
    for (inst, deployed) in inp.instances.iter().zip(&traced.deployed) {
        let Some((s, _)) = deployed else { continue };
        let dag = &inp.dags[inst.dag];
        if let Some(reference) = checks.ok(respect.schedule(dag, inst.stages), &inst.name) {
            checks.check(*s == reference, || {
                format!(
                    "layer-by-layer deploy of {} differs from RespectScheduler::schedule",
                    inst.name
                )
            });
        }
    }
}

/// The untimed quality figures of a round: geometric-mean gap to the
/// exact optimum over every instance, and the Fig. 4 speed-up over the
/// compiler over the zoo instances.
fn quality(inp: &Inputs, r: &Round, checks: &mut Checks) -> (f64, f64) {
    let spec = DeviceSpec::coral();
    let model = spec.cost_model();
    let compiler = EdgeTpuCompiler::fast(spec);
    let mut gaps = Vec::new();
    let mut speedups = Vec::new();
    for (i, inst) in inp.instances.iter().enumerate() {
        let dag = &inp.dags[inst.dag];
        let (Some((s, ours)), Some(ex)) = (&r.deployed[i], &r.exact[i]) else {
            continue;
        };
        gaps.push(model.objective(dag, s) / ex.objective);
        if !inst.zoo {
            continue;
        }
        let base = checks.ok(
            compiler.compile_full(dag, inst.stages),
            &format!("compiler on {}", inst.name),
        );
        let base = base.and_then(|c| {
            checks.ok(
                exec::simulate(&c.pipeline, &spec, FIG4_INFERENCES),
                &format!("simulate compiler pipeline of {}", inst.name),
            )
        });
        let mine = checks.ok(
            exec::simulate(ours, &spec, FIG4_INFERENCES),
            &format!("simulate RESPECT pipeline of {}", inst.name),
        );
        if let (Some(b), Some(m)) = (base, mine) {
            speedups.push(b.avg_inference_s() / m.avg_inference_s());
        }
    }
    (100.0 * (geomean(&gaps) - 1.0), geomean(&speedups))
}

/// Per-layer figures of the traced round whose spans start at `mark`.
fn layer_figures(tracer: &Tracer, mark: usize, r: &Round) -> Vec<Figure> {
    let ms = |name: &str| tracer.self_s(mark, name) * 1e3;
    let decode = tracer.durations_s(mark, "core.decode");
    let mut figs = vec![
        Figure::timed("core.train_run_s", tracer.self_s(mark, "core.train_run")),
        Figure::exact("core.train_batches", r.batches as f64),
        Figure::exact("core.final_reward", r.final_reward),
        Figure::timed("core.embed_ms", ms("core.embed")),
        Figure::timed("core.decode_ms_p50", quantile(&decode, 0.5) * 1e3),
        Figure::timed("core.decode_ms_p90", quantile(&decode, 0.9) * 1e3),
        Figure::timed("sched.pack_ms", ms("sched.pack")),
        Figure::timed("sched.repair_ms", ms("sched.repair")),
        Figure::timed("tpu.compile_ms", ms("tpu.compile")),
        Figure::timed("sched.exact.solve_ms", ms("sched.exact.solve")),
        Figure::timed("sched.ilp.solve_ms", ms("sched.ilp.solve")),
        Figure::exact("sched.exact.states_explored", r.states_explored() as f64),
        Figure::exact("sched.ilp.nodes_explored", r.ilp_nodes as f64),
    ];
    for (_, span) in REGISTRY_BASELINES {
        figs.push(Figure::timed(format!("{span}_ms"), ms(span)));
    }
    figs
}

/// Runs `offline-zoo`.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let size = Size::of(opts.scale);
    let mut res = RunResult::new(opts.trace);
    let mut inputs: Option<Inputs> = None;
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    while keep_going(opts, started, rounds.len(), MAX_ROUNDS) {
        // every round trains a fresh policy, so every round gets its own
        // set-up; the inputs of all set-ups are the same
        let (inp, trainer) = timed_setup(opts, &size, &mut res)?;
        let inp = inputs.get_or_insert(inp);
        let (r, _) = round(
            inp,
            trainer,
            opts,
            &size,
            &mut res.checks,
            &mut Tracer::off(),
        );
        res.work_s.push(r.wall_s);
        if opts.trace {
            let (_, trainer) = timed_setup(opts, &size, &mut res)?;
            let mark = res.tracer.mark();
            let (t, respect) = round(inp, trainer, opts, &size, &mut res.checks, &mut res.tracer);
            res.traced_work_s.push(t.wall_s);
            traced.push(layer_figures(&res.tracer, mark, &t));
            check_decomposition(inp, &t, &respect, &mut res.checks);
        }
        rounds.push(r);
    }
    let inp = inputs.ok_or("no round ran")?;
    res.input_digest = digest(&(
        &inp.train,
        &inp.dags[inp.dags.len() - size.heldout_graphs..],
    ));

    let first = &rounds[0];
    let (gap_pct, speedup) = quality(&inp, first, &mut res.checks);
    if let Some((_, pipeline)) = first.deployed.iter().flatten().next() {
        analytic_check(pipeline, &DeviceSpec::coral(), &mut res.checks);
    }
    let graphs_trained = (size.train_graphs * size.epochs) as f64;
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let deploy_ms = |q: f64| per_round(&|r: &Round| quantile(&r.deploy_s, q) * 1e3);
    res.figures = vec![
        Figure::timed(
            "train_graphs_per_s",
            graphs_trained / per_round(&|r: &Round| r.train_s),
        ),
        Figure::timed("deploy_ms_p50", deploy_ms(0.5)),
        Figure::timed("deploy_ms_p90", deploy_ms(0.9)),
        Figure::exact("deploy_samples", inp.instances.len() as f64),
        Figure::timed("baseline_solve_s", per_round(&|r: &Round| r.baseline_s)),
        Figure::exact("optimality_gap_pct", gap_pct),
        Figure::exact("speedup_vs_compiler", speedup),
    ];
    if opts.trace {
        let sample = res.tracer.durations_s(0, "graph.sample");
        let teacher = res.tracer.durations_s(0, "core.teacher_dataset");
        res.figures
            .push(Figure::timed("graph.sample_ms", median(&sample) * 1e3));
        res.figures
            .push(Figure::timed("core.teacher_dataset_s", median(&teacher)));
        res.figures.extend(crate::median_figures(traced));
    }
    Ok(res)
}
