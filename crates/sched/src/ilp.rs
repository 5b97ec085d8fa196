//! Generic ILP-style branch-and-bound — the paper's exact baseline.
//!
//! The paper solves the scheduling ILP with IBM CPLEX (Sec. IV): binary
//! variables `x[v][k]` assign node `v` to stage `k`, precedence forces
//! `stage(u) ≤ stage(v)` along edges, and the objective minimizes the
//! bottleneck stage cost. This module reproduces that *solver behaviour*:
//! a depth-first branch-and-bound over the assignment tree in topological
//! order, with greedy dives for incumbents and bottleneck-bound pruning —
//! but **without** the order-ideal memoization that makes
//! [`crate::exact`] polynomial on narrow graphs. Like any practical ILP
//! run it takes a time limit; within the limit the result is provably
//! optimal, otherwise the incumbent is returned (anytime behaviour).
//!
//! The search walks the default order by *position*: it reads node
//! resources and `(pred position, output_bytes)` lists from a flat
//! [`SequenceTable`], computes a choice's added communication as
//! `out_total - same_stage_out` (of the candidate stages `k ≥ k_min`,
//! only `k_min` can hold a predecessor), and keeps every open depth's
//! sorted choices on one shared stack instead of a `Vec` per node. The
//! search tree is that of the node-id formulation kept as a test-only
//! reference: same branching order, same schedule, objective and
//! [`IlpSolution::nodes_explored`].
//!
//! Use [`crate::exact::ExactScheduler`] when you want the optimum fast;
//! use this solver when you want the *solving-time profile* of the
//! paper's CPLEX baseline (Fig. 3).

use std::time::{Duration, Instant};

use respect_graph::Dag;

use crate::cost::CostModel;
use crate::order::{self, SequenceTable};
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// Result of an ILP-style solve.
#[derive(Debug, Clone)]
pub struct IlpSolution {
    /// Best schedule found.
    pub schedule: Schedule,
    /// Its bottleneck objective.
    pub objective: f64,
    /// Whether the search tree was exhausted (proof of optimality).
    pub proven_optimal: bool,
    /// Branch-and-bound nodes visited.
    pub nodes_explored: u64,
}

/// Generic branch-and-bound scheduler (CPLEX stand-in).
#[derive(Debug, Clone)]
#[must_use]
pub struct IlpScheduler {
    model: CostModel,
    /// Wall-clock limit, as passed to any practical ILP solver.
    pub time_budget: Option<Duration>,
}

impl IlpScheduler {
    /// Creates a solver with no time limit.
    pub fn new(model: CostModel) -> Self {
        IlpScheduler {
            model,
            time_budget: None,
        }
    }

    /// Sets the time limit.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

impl Default for IlpScheduler {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl IlpScheduler {
    /// Runs the branch-and-bound.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoStages`] for `num_stages == 0`.
    pub fn solve(&self, dag: &Dag, num_stages: usize) -> Result<IlpSolution, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let n = dag.len();
        let sequence = order::default_order(dag);
        let table = SequenceTable::new(dag, &sequence);
        let start = Instant::now();

        let mut search = Search {
            model: &self.model,
            table: &table,
            num_stages,
            stage_at: vec![0; n],
            params: vec![0; num_stages],
            macs: vec![0; num_stages],
            comm_in: vec![0; num_stages],
            choices: Vec::new(),
            incumbent: f64::INFINITY,
            best: vec![0; n],
            has_best: false,
            nodes: 0,
            deadline: self.time_budget.and_then(|b| start.checked_add(b)),
            timed_out: false,
        };
        search.dfs(0, 0.0);

        let mut stage_of = vec![0; n];
        if search.has_best {
            for (&v, &k) in sequence.iter().zip(&search.best) {
                stage_of[v.index()] = k;
            }
        }
        // otherwise the budget expired before the first dive completed
        // (enormous graphs): fall back to everything-on-one-stage
        let schedule = Schedule::new(stage_of, num_stages)?;
        debug_assert!(schedule.is_valid(dag));
        Ok(IlpSolution {
            objective: self.model.objective(dag, &schedule),
            schedule,
            proven_optimal: !search.timed_out,
            nodes_explored: search.nodes,
        })
    }
}

/// The branch-and-bound state, indexed by position in the default order.
struct Search<'a> {
    model: &'a CostModel,
    table: &'a SequenceTable,
    num_stages: usize,
    /// Stage of each assigned position.
    stage_at: Vec<usize>,
    params: Vec<u64>,
    macs: Vec<u64>,
    comm_in: Vec<u64>,
    /// `(bottleneck, stage, comm_add)` choices of every open depth, the
    /// deepest on top; a depth truncates its own on return.
    choices: Vec<(f64, usize, u64)>,
    incumbent: f64,
    best: Vec<usize>,
    has_best: bool,
    nodes: u64,
    deadline: Option<Instant>,
    timed_out: bool,
}

impl Search<'_> {
    fn dfs(&mut self, idx: usize, bottleneck: f64) {
        self.nodes += 1;
        if self.nodes.is_multiple_of(4096) {
            if let Some(deadline) = self.deadline {
                if Instant::now() > deadline {
                    self.timed_out = true;
                }
            }
        }
        if self.timed_out {
            return;
        }
        if idx == self.table.len() {
            if bottleneck < self.incumbent {
                self.incumbent = bottleneck;
                self.best.copy_from_slice(&self.stage_at);
                self.has_best = true;
            }
            return;
        }
        let preds = self.table.preds(idx);
        let k_min = preds
            .iter()
            .map(|&(p, _)| self.stage_at[p])
            .max()
            .unwrap_or(0);
        // only predecessors on `k_min` itself can share a later choice's
        // stage; every other stage pays for all incoming tensors
        let (mut out_total, mut same_stage_out) = (0u64, 0u64);
        for &(p, bytes) in preds {
            out_total += bytes;
            if self.stage_at[p] == k_min {
                same_stage_out += bytes;
            }
        }
        let (param_bytes, macs) = (self.table.param_bytes[idx], self.table.macs[idx]);
        // evaluate all stage choices, branch best-first (greedy dives
        // produce strong incumbents early, like MIP solvers)
        let first = self.choices.len();
        for k in k_min..self.num_stages {
            let comm_add = if k == k_min {
                out_total - same_stage_out
            } else {
                out_total
            };
            let cost = self.model.stage_cost(
                self.params[k] + param_bytes,
                self.macs[k] + macs,
                self.comm_in[k] + comm_add,
            );
            let nb = bottleneck.max(cost);
            if nb < self.incumbent {
                self.choices.push((nb, k, comm_add));
            }
        }
        self.choices[first..].sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
        for c in first..self.choices.len() {
            let (nb, k, comm_add) = self.choices[c];
            if nb >= self.incumbent || self.timed_out {
                continue; // incumbent may have tightened
            }
            self.stage_at[idx] = k;
            self.params[k] += param_bytes;
            self.macs[k] += macs;
            self.comm_in[k] += comm_add;
            self.dfs(idx + 1, nb);
            self.params[k] -= param_bytes;
            self.macs[k] -= macs;
            self.comm_in[k] -= comm_add;
        }
        self.choices.truncate(first);
    }
}

impl Scheduler for IlpScheduler {
    fn name(&self) -> &str {
        "exact (ILP)"
    }

    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        Ok(self.solve(dag, num_stages)?.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::exact::ExactScheduler;
    use respect_graph::{NodeId, SyntheticConfig, SyntheticSampler};

    /// The node-id DFS with a choice `Vec` per branch-and-bound node,
    /// kept as the oracle of [`IlpScheduler::solve`]: returns the stage
    /// assignment, its bottleneck and the node count of an unbudgeted
    /// search.
    fn reference_solve(dag: &Dag, num_stages: usize, model: &CostModel) -> (Vec<usize>, f64, u64) {
        struct Ctx<'a> {
            dag: &'a Dag,
            model: &'a CostModel,
            sequence: &'a [NodeId],
            num_stages: usize,
            stage_of: Vec<usize>,
            params: Vec<u64>,
            macs: Vec<u64>,
            comm_in: Vec<u64>,
            incumbent: f64,
            best: Vec<usize>,
            nodes: u64,
        }

        impl Ctx<'_> {
            fn dfs(&mut self, idx: usize, bottleneck: f64) {
                self.nodes += 1;
                if idx == self.sequence.len() {
                    if bottleneck < self.incumbent {
                        self.incumbent = bottleneck;
                        self.best.copy_from_slice(&self.stage_of);
                    }
                    return;
                }
                let v = self.sequence[idx];
                let k_min = self
                    .dag
                    .preds(v)
                    .iter()
                    .map(|&p| self.stage_of[p.index()])
                    .max()
                    .unwrap_or(0);
                let node = self.dag.node(v);
                let mut choices: Vec<(f64, usize, u64)> = Vec::new();
                for k in k_min..self.num_stages {
                    let mut comm_add = 0u64;
                    for &p in self.dag.preds(v) {
                        if self.stage_of[p.index()] != k {
                            comm_add += self.dag.node(p).output_bytes;
                        }
                    }
                    let cost = self.model.stage_cost(
                        self.params[k] + node.param_bytes,
                        self.macs[k] + node.macs,
                        self.comm_in[k] + comm_add,
                    );
                    let nb = bottleneck.max(cost);
                    if nb < self.incumbent {
                        choices.push((nb, k, comm_add));
                    }
                }
                choices.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
                for (nb, k, comm_add) in choices {
                    if nb >= self.incumbent {
                        continue;
                    }
                    self.stage_of[v.index()] = k;
                    self.params[k] += node.param_bytes;
                    self.macs[k] += node.macs;
                    self.comm_in[k] += comm_add;
                    self.dfs(idx + 1, nb);
                    self.params[k] -= node.param_bytes;
                    self.macs[k] -= node.macs;
                    self.comm_in[k] -= comm_add;
                }
                self.stage_of[v.index()] = 0;
            }
        }

        let n = dag.len();
        let sequence = order::default_order(dag);
        let mut ctx = Ctx {
            dag,
            model,
            sequence: &sequence,
            num_stages,
            stage_of: vec![0; n],
            params: vec![0; num_stages],
            macs: vec![0; num_stages],
            comm_in: vec![0; num_stages],
            incumbent: f64::INFINITY,
            best: vec![0; n],
            nodes: 0,
        };
        ctx.dfs(0, 0.0);
        (ctx.best, ctx.incumbent, ctx.nodes)
    }

    fn tiny_model() -> CostModel {
        CostModel {
            sec_per_mac: 1e-3,
            sec_per_byte: 1.0,
            cache_bytes: 4,
        }
    }

    fn small_dag(seed: u64, nodes: usize) -> respect_graph::Dag {
        let cfg = SyntheticConfig {
            num_nodes: nodes,
            max_in_degree: 3,
            param_bytes_range: (1, 64),
            output_bytes_range: (1, 16),
            ..SyntheticConfig::default()
        };
        SyntheticSampler::new(cfg, seed).sample()
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let model = tiny_model();
        let solver = IlpScheduler::new(model);
        for seed in 0..5 {
            let dag = small_dag(seed, 8);
            for k in [2, 3] {
                let sol = solver.solve(&dag, k).unwrap();
                assert!(sol.proven_optimal);
                let expected = brute::optimal_objective(&dag, k, &model);
                assert!(
                    (sol.objective - expected).abs() <= 1e-9 * expected.max(1e-12),
                    "seed {seed} k={k}: {} vs {expected}",
                    sol.objective
                );
            }
        }
    }

    #[test]
    fn agrees_with_structured_exact_solver() {
        let model = CostModel::coral();
        let ilp = IlpScheduler::new(model);
        let exact = ExactScheduler::new(model).with_warmstart_moves(100);
        let dag = small_dag(11, 14);
        for k in [2, 3] {
            let a = ilp.solve(&dag, k).unwrap();
            let b = exact.solve(&dag, k).unwrap();
            assert!(a.proven_optimal && b.proven_optimal);
            assert!(
                (a.objective - b.objective).abs() <= 1e-9 * a.objective.max(1e-12),
                "k={k}: ilp {} vs exact {}",
                a.objective,
                b.objective
            );
        }
    }

    #[test]
    fn paper_scale_graph_solves_or_times_out_gracefully() {
        let model = CostModel::coral();
        let dag = SyntheticSampler::new(SyntheticConfig::paper(3), 5).sample();
        let ilp = IlpScheduler::new(model)
            .with_time_budget(Duration::from_secs(5))
            .solve(&dag, 4)
            .unwrap();
        assert!(ilp.schedule.is_valid(&dag));
        if ilp.proven_optimal {
            // when it proves, it must agree with the structured solver
            let exact = ExactScheduler::new(model).solve(&dag, 4).unwrap();
            assert!(
                (ilp.objective - exact.objective).abs() <= 1e-9 * exact.objective.max(1e-12),
                "ilp {} vs exact {}",
                ilp.objective,
                exact.objective
            );
        }
        assert!(ilp.nodes_explored > 0);
    }

    #[test]
    fn budget_yields_anytime_incumbent() {
        let model = CostModel::coral();
        let dag = small_dag(7, 60);
        let sol = IlpScheduler::new(model)
            .with_time_budget(Duration::from_millis(50))
            .solve(&dag, 4)
            .unwrap();
        assert!(sol.schedule.is_valid(&dag));
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn zero_stages_is_an_error() {
        let dag = small_dag(1, 4);
        assert!(matches!(
            IlpScheduler::new(tiny_model()).solve(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn position_search_matches_reference_dfs() {
        for (seed, nodes) in (8..=16).enumerate() {
            let dag = small_dag(100 + seed as u64, nodes);
            for (model, stages) in [
                (tiny_model(), 2),
                (tiny_model(), 3),
                (CostModel::coral(), 4),
            ] {
                let sol = IlpScheduler::new(model).solve(&dag, stages).unwrap();
                let (stage_of, objective, nodes_explored) = reference_solve(&dag, stages, &model);
                assert!(sol.proven_optimal);
                assert_eq!(
                    sol.schedule.stage_of(),
                    stage_of.as_slice(),
                    "{nodes} nodes"
                );
                assert_eq!(
                    sol.objective.to_bits(),
                    objective.to_bits(),
                    "{nodes} nodes"
                );
                assert_eq!(sol.nodes_explored, nodes_explored, "{nodes} nodes");
            }
        }
    }

    #[test]
    fn unbounded_time_budget_is_no_deadline() {
        let dag = small_dag(5, 10);
        let sol = IlpScheduler::new(tiny_model())
            .with_time_budget(Duration::MAX)
            .solve(&dag, 3)
            .unwrap();
        assert!(sol.proven_optimal);
        assert!(sol.schedule.is_valid(&dag));
    }
}
