//! Reduced-scale determinism: for one seed, every deterministic figure
//! and every count repeats bitwise; a second seed changes the generated
//! inputs.

use perfbench::{run, Options, RunResult, Scale, WORKLOADS};

fn options(seed: u64) -> Options {
    Options {
        seed,
        seconds: 0.0,
        trace: true,
        scale: Scale::Reduced,
    }
}

/// The deterministic figures and the check counts, bit for bit.
fn deterministic(res: &RunResult) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = res
        .figures
        .iter()
        .filter(|f| f.exact)
        .map(|f| (f.name.clone(), f.value.to_bits()))
        .collect();
    out.push(("checks.attempted".to_string(), res.checks.attempted));
    out.push(("checks.failed".to_string(), res.checks.failed()));
    out
}

fn repeats_bitwise(workload: &str) {
    let a = run(workload, &options(7)).expect("first run");
    let b = run(workload, &options(7)).expect("second run");
    assert!(a.checks.failures.is_empty(), "{:?}", a.checks.failures);
    assert_eq!(a.input_digest, b.input_digest, "{workload}: inputs differ");
    let differing: Vec<String> = deterministic(&a)
        .into_iter()
        .zip(deterministic(&b))
        .filter(|(x, y)| x != y)
        .map(|(x, _)| x.0)
        .collect();
    assert!(
        differing.is_empty(),
        "{workload}: two runs of one seed differ in {differing:?}"
    );
}

#[test]
fn offline_zoo_repeats_bitwise() {
    repeats_bitwise("offline-zoo");
}

#[test]
fn fleet_diurnal_repeats_bitwise() {
    repeats_bitwise("fleet-diurnal");
}

#[test]
fn sim_contended_repeats_bitwise() {
    repeats_bitwise("sim-contended");
}

#[test]
fn a_second_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        let a = run(workload, &options(7)).expect("seed 7");
        let b = run(workload, &options(8)).expect("seed 8");
        assert_ne!(a.input_digest, b.input_digest, "{workload}");
    }
}

#[test]
fn traced_runs_report_every_layer_of_their_workload() {
    let expect: [(&str, &[&str]); 3] = [
        (
            "offline-zoo",
            &[
                "core.teacher_dataset_s",
                "core.decode_ms_p90",
                "sched.ilp.nodes_explored",
                "sched.profiling.solve_ms",
                "optimality_gap_pct",
            ],
        ),
        (
            "fleet-diurnal",
            &["serve.fleet_s", "serve.events", "sim_p99_ms", "shed_pct"],
        ),
        (
            "sim-contended",
            &["tpu.sim_run_s", "tpu.sim_events", "events_per_s"],
        ),
    ];
    for (workload, names) in expect {
        let res = run(workload, &options(3)).expect(workload);
        for name in names.iter().chain(&["trace.overhead_pct", "failed_pct"]) {
            assert!(res.figure(name).is_some(), "{workload} lacks {name}");
        }
    }
}
