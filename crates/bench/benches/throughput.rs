//! Throughput benchmarks of the two hottest loops in the codebase:
//!
//! * **training rollouts** — serial per-graph decoding (one tape op per
//!   LSTM/attention step per graph) vs. the batched engine
//!   (`rollout_batch` / `decode_batch`: one op per step for the whole
//!   minibatch). Reported per full batch; divide the batch size by the
//!   time per iteration for graphs/sec. The `16x20/h32` row is the
//!   reference benchmark's `offline-zoo` training shape (16-graph batches
//!   of 20-node graphs, hidden size 32). A zoo-scale row decodes
//!   ResNet152 (|V| = 517) greedily, where the frontier-only attention's
//!   `O(frontier · h)` step shows against the graph size.
//! * **local-search cost evaluation** — full `stage_costs` re-aggregation
//!   per proposed move vs. the `IncrementalEvaluator`'s
//!   `O(deg(v) + k)` update, over an identical scripted move sequence.
//!   Divide the move count by the time per iteration for moves/sec.
//!
//! Run with `RESPECT_BENCH_BUDGET_MS=20` for a CI smoke pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use respect_core::{embed, DecodeMode, PolicyConfig, PtrNetPolicy};
use respect_graph::{models, Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_nn::{Matrix, Tape};
use respect_sched::anneal::Annealing;
use respect_sched::{CostModel, IncrementalEvaluator, Schedule, Scheduler};

const BATCH: usize = 32;
const MOVES: usize = 512;

fn training_batch(policy: &PtrNetPolicy) -> Vec<(Dag, Matrix)> {
    (0..BATCH)
        .map(|i| {
            let dag = SyntheticSampler::new(SyntheticConfig::paper(2 + i % 5), i as u64).sample();
            let feats = embed(&dag, &policy.config().embedding);
            (dag, feats)
        })
        .collect()
}

fn bench_rollout(c: &mut Criterion) {
    let policy = PtrNetPolicy::new(PolicyConfig::small(64));
    let batch = training_batch(&policy);
    let refs: Vec<(&Dag, &Matrix)> = batch.iter().map(|(d, f)| (d, f)).collect();

    let mut group = c.benchmark_group("rollout");
    group.sample_size(20);
    group.bench_function(format!("serial/{BATCH}x30"), |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let bindings = policy.bind(&mut tape);
            for (g, (dag, feats)) in refs.iter().enumerate() {
                let mut mode = DecodeMode::sample_seeded(g as u64);
                black_box(policy.rollout(&mut tape, &bindings, dag, feats, &mut mode));
            }
        })
    });
    group.bench_function(format!("batched/{BATCH}x30"), |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let bindings = policy.bind(&mut tape);
            let mut modes: Vec<DecodeMode> = (0..BATCH)
                .map(|g| DecodeMode::sample_seeded(g as u64))
                .collect();
            black_box(policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes));
        })
    });
    // the offline-zoo training shape
    let small = PtrNetPolicy::new(PolicyConfig::small(32));
    let zoo: Vec<(Dag, Matrix)> = (0..16)
        .map(|i| {
            let config = SyntheticConfig {
                num_nodes: 20,
                ..SyntheticConfig::paper(2 + i % 5)
            };
            let dag = SyntheticSampler::new(config, 100 + i as u64).sample();
            let feats = embed(&dag, &small.config().embedding);
            (dag, feats)
        })
        .collect();
    let zoo_refs: Vec<(&Dag, &Matrix)> = zoo.iter().map(|(d, f)| (d, f)).collect();
    group.bench_function("batched/16x20/h32", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let bindings = small.bind(&mut tape);
            let mut modes: Vec<DecodeMode> = (0..16)
                .map(|g| DecodeMode::sample_seeded(g as u64))
                .collect();
            black_box(small.rollout_batch(&mut tape, &bindings, &zoo_refs, &mut modes));
        })
    });
    group.finish();

    let mut group = c.benchmark_group("decode");
    group.sample_size(20);
    group.bench_function(format!("serial/{BATCH}x30"), |b| {
        b.iter(|| {
            for (dag, feats) in &refs {
                black_box(policy.decode(dag, feats, &mut DecodeMode::Greedy));
            }
        })
    });
    group.bench_function(format!("batched/{BATCH}x30"), |b| {
        b.iter(|| {
            let mut modes: Vec<DecodeMode> = (0..BATCH).map(|_| DecodeMode::Greedy).collect();
            black_box(policy.decode_batch(&refs, &mut modes));
        })
    });
    let policy = PtrNetPolicy::new(PolicyConfig::small(32));
    let dag = models::resnet152();
    let feats = embed(&dag, &policy.config().embedding);
    group.bench_function(format!("greedy/resnet152/{}", dag.len()), |b| {
        b.iter(|| black_box(policy.decode(&dag, &feats, &mut DecodeMode::Greedy)))
    });
    group.finish();
}

/// Deterministic xorshift so the scripted move sequence is stable without
/// pulling an RNG into the bench.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_cost_eval(c: &mut Criterion) {
    let dag = models::resnet50();
    let model = CostModel::coral();
    let stages = 4usize;
    let mut seed = 0x5eed_f00du64;
    let init: Vec<usize> = (0..dag.len())
        .map(|_| (xorshift(&mut seed) % stages as u64) as usize)
        .collect();
    let schedule = Schedule::new(init, stages).unwrap();
    let moves: Vec<(NodeId, usize)> = (0..MOVES)
        .map(|_| {
            let v = NodeId((xorshift(&mut seed) % dag.len() as u64) as u32);
            let to = (xorshift(&mut seed) % stages as u64) as usize;
            (v, to)
        })
        .collect();

    let mut group = c.benchmark_group("cost_eval");
    group.sample_size(20);
    group.bench_function(format!("full_recompute/resnet50/{MOVES}mv"), |b| {
        b.iter(|| {
            // the pre-incremental local-search loop: every proposal
            // materializes a schedule and re-aggregates all stages
            let mut stage_of = schedule.stage_of().to_vec();
            let mut acc = 0.0f64;
            for &(v, to) in &moves {
                stage_of[v.index()] = to;
                let s = Schedule::new(stage_of.clone(), stages).unwrap();
                acc += model.objective(&dag, &s);
            }
            acc
        })
    });
    group.bench_function(format!("incremental/resnet50/{MOVES}mv"), |b| {
        b.iter(|| {
            let mut eval = IncrementalEvaluator::new(&dag, model, &schedule);
            let mut acc = 0.0f64;
            for &(v, to) in &moves {
                eval.move_node(v, to);
                acc += eval.bottleneck();
            }
            acc
        })
    });
    group.finish();

    // end-to-end: the annealer itself (cuts + swaps on the incremental
    // evaluator)
    let mut group = c.benchmark_group("anneal");
    group.sample_size(10);
    group.bench_function("resnet50/4/2000mv", |b| {
        let annealer = Annealing::new(model).with_iterations(2_000);
        b.iter(|| annealer.schedule(&dag, 4).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_rollout, bench_cost_eval);
criterion_main!(benches);
