//! Synthetic training dataset with exact-teacher labels.
//!
//! The paper trains on 1 M random 30-node graphs, 200 000 per degree class
//! `deg(V) ∈ {2..6}`, labelled by the deterministic exact scheduler
//! (Sec. III, "Synthetic training dataset"). [`TeacherDataset::generate`]
//! reproduces that pipeline at a configurable scale: sample a graph, run
//! the exact solver, and keep the optimal schedule plus the teacher
//! sequence `γ` it induces.

use respect_graph::{Dag, NodeId, SyntheticConfig, SyntheticSampler};
use respect_sched::exact::ExactScheduler;
use respect_sched::{CostModel, Schedule};

use crate::train::TrainError;

/// One labelled training example.
#[derive(Debug, Clone)]
pub struct TeacherExample {
    /// The synthetic computational graph.
    pub dag: Dag,
    /// The exact-optimal schedule (the label `S` of Eq. 2).
    pub teacher: Schedule,
    /// The teacher sequence `γ` (stage-major topological order).
    pub gamma: Vec<NodeId>,
}

/// A collection of labelled synthetic graphs.
#[derive(Debug, Clone, Default)]
pub struct TeacherDataset {
    /// The labelled examples.
    pub examples: Vec<TeacherExample>,
}

/// Configuration of dataset generation.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Total number of graphs (spread evenly over the degree classes).
    pub graphs: usize,
    /// Nodes per graph (the paper uses 30).
    pub num_nodes: usize,
    /// Degree classes to sample from (the paper uses 2..=6).
    pub degrees: Vec<usize>,
    /// Pipeline stages the teacher schedules for.
    pub num_stages: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetConfig {
    /// The paper's distribution at a configurable graph count.
    pub fn paper_scaled(graphs: usize, num_stages: usize) -> Self {
        DatasetConfig {
            graphs,
            num_nodes: 30,
            degrees: vec![2, 3, 4, 5, 6],
            num_stages,
            seed: 0xda7a,
        }
    }

    /// A tiny preset for tests and doctests.
    pub fn smoke_test() -> Self {
        DatasetConfig {
            graphs: 4,
            num_nodes: 10,
            degrees: vec![2, 3],
            num_stages: 3,
            seed: 0xda7a,
        }
    }
}

impl TeacherDataset {
    /// Generates `config.graphs` labelled examples.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidDegrees`] if `config.degrees` is empty or
    /// holds a zero; otherwise propagates solver errors (zero stages).
    pub fn generate(config: &DatasetConfig, model: &CostModel) -> Result<Self, TrainError> {
        if config.degrees.is_empty() || config.degrees.contains(&0) {
            return Err(TrainError::InvalidDegrees {
                degrees: config.degrees.clone(),
            });
        }
        let solver = ExactScheduler::new(*model).with_warmstart_moves(200);
        let mut samplers: Vec<SyntheticSampler> = config
            .degrees
            .iter()
            .enumerate()
            .map(|(i, &deg)| {
                let cfg = SyntheticConfig {
                    num_nodes: config.num_nodes,
                    max_in_degree: deg,
                    ..SyntheticConfig::default()
                };
                SyntheticSampler::new(cfg, config.seed.wrapping_add(i as u64))
            })
            .collect();
        let mut examples = Vec::with_capacity(config.graphs);
        for i in 0..config.graphs {
            let sampler = &mut samplers[i % config.degrees.len()];
            let dag = sampler.sample();
            let sol = solver.solve(&dag, config.num_stages)?;
            let gamma = sol.schedule.to_sequence(&dag);
            examples.push(TeacherExample {
                dag,
                teacher: sol.schedule,
                gamma,
            });
        }
        Ok(TeacherDataset { examples })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::topo;

    #[test]
    fn generates_requested_count_with_valid_labels() {
        let cfg = DatasetConfig::smoke_test();
        let model = CostModel::coral();
        let ds = TeacherDataset::generate(&cfg, &model).unwrap();
        assert_eq!(ds.len(), 4);
        for ex in &ds.examples {
            assert_eq!(ex.dag.len(), cfg.num_nodes);
            assert!(ex.teacher.is_valid(&ex.dag));
            assert!(topo::is_topological_order(&ex.dag, &ex.gamma));
            // gamma is stage-sorted
            let stages: Vec<_> = ex.gamma.iter().map(|&v| ex.teacher.stage(v)).collect();
            let mut sorted = stages.clone();
            sorted.sort_unstable();
            assert_eq!(stages, sorted);
        }
    }

    #[test]
    fn degree_classes_rotate() {
        let cfg = DatasetConfig {
            graphs: 4,
            num_nodes: 12,
            degrees: vec![2, 6],
            num_stages: 2,
            seed: 9,
        };
        let ds = TeacherDataset::generate(&cfg, &CostModel::coral()).unwrap();
        let high_degree_present = ds.examples.iter().any(|ex| ex.dag.max_in_degree() > 2);
        assert!(high_degree_present, "degree-6 class must appear");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DatasetConfig::smoke_test();
        let model = CostModel::coral();
        let a = TeacherDataset::generate(&cfg, &model).unwrap();
        let b = TeacherDataset::generate(&cfg, &model).unwrap();
        assert_eq!(a.examples.len(), b.examples.len());
        for (x, y) in a.examples.iter().zip(&b.examples) {
            assert_eq!(x.dag, y.dag);
            assert_eq!(x.teacher, y.teacher);
        }
    }

    #[test]
    fn paper_scaled_matches_setup() {
        let cfg = DatasetConfig::paper_scaled(100, 4);
        assert_eq!(cfg.num_nodes, 30);
        assert_eq!(cfg.degrees, vec![2, 3, 4, 5, 6]);
    }
}
