//! Determinism guard for the batched decode paths: batching is a pure
//! performance optimization, so [`PtrNetPolicy::rollout_batch`] and
//! [`PtrNetPolicy::decode_batch`] must emit exactly the sequences and
//! log-probabilities the serial paths emit for the same seeds — on
//! training-scale teacher graphs, across batch sizes, and run-to-run.

use respect_core::dataset::{DatasetConfig, TeacherDataset};
use respect_core::{embed, DecodeMode, PolicyConfig, PtrNetPolicy};
use respect_nn::{Matrix, Tape};
use respect_sched::CostModel;

fn fixture() -> (PtrNetPolicy, Vec<(respect_graph::Dag, Matrix)>) {
    let policy = PtrNetPolicy::new(PolicyConfig::small(24));
    let cfg = DatasetConfig {
        graphs: 8,
        num_nodes: 14,
        degrees: vec![2, 3, 4],
        num_stages: 3,
        seed: 0xbeef,
    };
    let ds = TeacherDataset::generate(&cfg, &CostModel::coral()).unwrap();
    let items = ds
        .examples
        .into_iter()
        .map(|ex| {
            let feats = embed(&ex.dag, &policy.config().embedding);
            (ex.dag, feats)
        })
        .collect();
    (policy, items)
}

#[test]
fn batched_rollout_reproduces_serial_rollout_on_teacher_graphs() {
    let (policy, items) = fixture();
    let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
    for batch_size in [1, 3, 8] {
        let batch_refs = &refs[..batch_size];
        let mut modes: Vec<DecodeMode> = (0..batch_size)
            .map(|g| DecodeMode::sample_seeded(0x5eed + g as u64))
            .collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, batch_refs, &mut modes);
        for (g, (dag, feats)) in items[..batch_size].iter().enumerate() {
            let mut t = Tape::new();
            let b = policy.bind(&mut t);
            let serial = policy.rollout(
                &mut t,
                &b,
                dag,
                feats,
                &mut DecodeMode::sample_seeded(0x5eed + g as u64),
            );
            assert_eq!(
                batch.sequences[g], serial.sequence,
                "batch={batch_size} lane={g}: sampled sequences diverged"
            );
            assert_eq!(
                tape.value(batch.log_probs).get(0, g).to_bits(),
                t.value(serial.log_prob).get(0, 0).to_bits(),
                "batch={batch_size} lane={g}: log-probs diverged"
            );
        }
    }
}

#[test]
fn batched_decode_reproduces_serial_decode_on_teacher_graphs() {
    let (policy, items) = fixture();
    let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
    let mut greedy: Vec<DecodeMode> = (0..refs.len()).map(|_| DecodeMode::Greedy).collect();
    let batched = policy.decode_batch(&refs, &mut greedy);
    for (g, (dag, feats)) in items.iter().enumerate() {
        let serial = policy.decode(dag, feats, &mut DecodeMode::Greedy);
        assert_eq!(batched[g], serial, "greedy lane {g}");
    }
}

#[test]
fn batched_rollout_is_reproducible_run_to_run() {
    let (policy, items) = fixture();
    let refs: Vec<(&respect_graph::Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
    let run = || {
        let mut modes: Vec<DecodeMode> = (0..refs.len())
            .map(|g| DecodeMode::sample_seeded(42 + g as u64))
            .collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes);
        let lps: Vec<u32> = (0..refs.len())
            .map(|g| tape.value(batch.log_probs).get(0, g).to_bits())
            .collect();
        (batch.sequences, lps)
    };
    assert_eq!(run(), run(), "same seeds must reproduce bitwise");
}

#[test]
fn one_lane_rollout_batch_matches_serial_rollout_gradients_bitwise() {
    // The batched rollout attends over each lane's ready frontier while the
    // serial rollout attends densely under a mask; every gradient must
    // still agree bit for bit, with and without dependency masking.
    let cfg = DatasetConfig {
        graphs: 20,
        num_nodes: 12,
        degrees: vec![2, 3, 4, 5, 6],
        num_stages: 3,
        seed: 0xfeed,
    };
    let ds = TeacherDataset::generate(&cfg, &CostModel::coral()).unwrap();
    for dependency_masking in [true, false] {
        let policy = PtrNetPolicy::new(PolicyConfig {
            dependency_masking,
            ..PolicyConfig::small(16)
        });
        for (k, ex) in ds.examples.iter().enumerate() {
            let feats = embed(&ex.dag, &policy.config().embedding);
            let seed = 0xabc + k as u64;
            let what = format!("graph {k}, dependency_masking={dependency_masking}");

            let mut tb = Tape::new();
            let bb = policy.bind(&mut tb);
            let mut modes = [DecodeMode::sample_seeded(seed)];
            let batch = policy.rollout_batch(&mut tb, &bb, &[(&ex.dag, &feats)], &mut modes);
            let loss = tb.sum(batch.log_probs);
            tb.backward(loss);

            let mut ts = Tape::new();
            let bs = policy.bind(&mut ts);
            let mut mode = DecodeMode::sample_seeded(seed);
            let serial = policy.rollout(&mut ts, &bs, &ex.dag, &feats, &mut mode);
            let loss = ts.sum(serial.log_prob);
            ts.backward(loss);

            assert_eq!(batch.sequences[0], serial.sequence, "{what}: sequence");
            assert_eq!(
                tb.value(batch.log_probs).get(0, 0).to_bits(),
                ts.value(serial.log_prob).get(0, 0).to_bits(),
                "{what}: log-prob"
            );
            let names = policy.params().iter().map(|(name, _)| name);
            for ((name, gb), gs) in names.zip(bb.grads(&tb)).zip(bs.grads(&ts)) {
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&gb), bits(&gs), "{what}: gradient of {name}");
            }
        }
    }
}
