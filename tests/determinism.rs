//! Determinism regression: training is a pure function of its config.
//!
//! Future parallelism work (batched rollouts, async data generation,
//! multi-threaded training) must not silently change results for a fixed
//! seed. Two independent trainings with the same `TrainConfig` must
//! produce byte-identical parameters and, downstream, identical schedules
//! on a fixed synthetic DAG.

use respect::core::dataset::DatasetConfig;
use respect::core::{train_policy, Baseline, PolicyConfig, RespectScheduler, TrainConfig};
use respect::graph::{SyntheticConfig, SyntheticSampler};
use respect::sched::Scheduler as _;

#[test]
fn same_seed_trains_identical_policies_and_schedules() {
    let cfg = TrainConfig::smoke_test();
    let a = train_policy(&cfg).expect("first training run");
    let b = train_policy(&cfg).expect("second training run");
    assert_eq!(
        a.params(),
        b.params(),
        "same config + seed must yield identical weights"
    );

    let dag = SyntheticSampler::new(SyntheticConfig::paper(4), 0xD5EED).sample();
    let sched_a = RespectScheduler::new(a);
    let sched_b = RespectScheduler::new(b);
    for stages in [2usize, 4] {
        let s_a = sched_a.schedule(&dag, stages).expect("schedule a");
        let s_b = sched_b.schedule(&dag, stages).expect("schedule b");
        assert_eq!(s_a, s_b, "{stages}-stage schedules diverged");
    }
}

#[test]
fn different_seeds_are_actually_different() {
    // guards against the trap where determinism holds because the seed is
    // ignored entirely
    let cfg_a = TrainConfig::smoke_test();
    let mut cfg_b = TrainConfig::smoke_test();
    cfg_b.seed = cfg_a.seed.wrapping_add(1);
    let a = train_policy(&cfg_a).expect("training a");
    let b = train_policy(&cfg_b).expect("training b");
    assert_ne!(
        a.params(),
        b.params(),
        "changing the seed must change the trained weights"
    );
}

/// FNV-1a over every parameter's name and the bits of its entries, in
/// the policy's parameter order.
fn weight_digest(policy: &respect::core::PtrNetPolicy) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, m) in policy.params().iter() {
        eat(name.as_bytes());
        for x in m.as_slice() {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

#[test]
fn trained_weights_match_golden_digest() {
    // The offline-zoo training shape at test scale: self-critic baseline,
    // 16-graph batches of 20-node graphs, two epochs. Any change to the
    // rollout tape, its backward pass or the matmul kernels that moves a
    // single bit of a gradient moves this digest. So would a libm whose
    // `exp`, `ln` or `tanh` rounds differently.
    let mut cfg = TrainConfig::smoke_test();
    cfg.policy = PolicyConfig::small(16);
    cfg.dataset = DatasetConfig {
        graphs: 32,
        num_nodes: 20,
        degrees: vec![2, 3, 4, 5, 6],
        num_stages: 4,
        seed: 0xda7a,
    };
    cfg.baseline = Baseline::GreedyRollout;
    cfg.batch_size = 16;
    cfg.epochs = 2;
    cfg.learning_rate = 1e-3;
    let policy = train_policy(&cfg).expect("training");
    assert_eq!(
        weight_digest(&policy),
        0x0604_24dc_9ad6_9366,
        "trained weights moved"
    );
}
