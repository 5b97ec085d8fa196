//! `BENCHMARK.json` lists exactly the workloads and metrics this package
//! reports, with the same units.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    for name in WORKLOADS {
        assert!(
            compact.contains(&format!("\"name\":\"{name}\",\"why\":")),
            "{name}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "{name} [{unit}]"
        );
    }
    let names = compact.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
