//! Microbenchmarks of the building blocks: embedding, policy decode,
//! packing DP, exact solve on training-scale graphs, the ILP-style
//! branch-and-bound, and the pipelined executor.
//!
//! Run with `RESPECT_BENCH_BUDGET_MS=20` for a CI smoke pass.

use criterion::{criterion_group, criterion_main, Criterion};
use respect_bench::{bench_policy, PolicyScale};
use respect_core::embedding::{embed, EmbeddingConfig};
use respect_core::DecodeMode;
use respect_graph::{models, SyntheticConfig, SyntheticSampler};
use respect_sched::exact::ExactScheduler;
use respect_sched::ilp::IlpScheduler;
use respect_sched::Scheduler;
use respect_sched::{pack, CostModel};
use respect_tpu::device::DeviceSpec;
use respect_tpu::{compile, exec};

fn bench_micro(c: &mut Criterion) {
    let dag = models::resnet50();
    let cfg = EmbeddingConfig::default();
    let model = CostModel::coral();

    c.bench_function("embed/resnet50", |b| b.iter(|| embed(&dag, &cfg)));

    let policy = bench_policy(PolicyScale::Quick);
    let feats = embed(&dag, &policy.config().embedding);
    c.bench_function("decode/resnet50", |b| {
        b.iter(|| policy.decode(&dag, &feats, &mut DecodeMode::Greedy))
    });

    c.bench_function("pack_default/resnet50/4", |b| {
        b.iter(|| pack::pack_default(&dag, 4, &model))
    });

    let densenet = models::densenet201();
    c.bench_function("pack_default/densenet201/6", |b| {
        b.iter(|| pack::pack_default(&densenet, 6, &model))
    });

    // the device's cost model, under which the search is deep (~1.9 M nodes)
    let xception = models::xception();
    let ilp = IlpScheduler::new(DeviceSpec::coral().cost_model());
    c.bench_function("ilp/xception/4", |b| {
        b.iter(|| ilp.solve(&xception, 4).unwrap().nodes_explored)
    });

    let synth = SyntheticSampler::new(SyntheticConfig::paper(3), 9).sample();
    let solver = ExactScheduler::new(model).with_warmstart_moves(200);
    c.bench_function("exact/synthetic30/4", |b| {
        b.iter(|| solver.schedule(&synth, 4).unwrap())
    });

    let spec = DeviceSpec::coral();
    let schedule = respect_sched::balanced::ParamBalanced::new()
        .schedule(&dag, 4)
        .unwrap();
    let pipeline = compile::compile(&dag, &schedule, &spec).unwrap();
    c.bench_function("simulate/resnet50/4/1000", |b| {
        b.iter(|| exec::simulate(&pipeline, &spec, 1_000).unwrap().total_s)
    });
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
