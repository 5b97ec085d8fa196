//! Exact pipeline scheduling — the stand-in for the paper's CPLEX ILP.
//!
//! Any valid pipeline schedule is a chain of order ideals (down-closed
//! node sets) `∅ = D_0 ⊆ D_1 ⊆ … ⊆ D_K = V`: stage `k` executes
//! `D_{k+1} \ D_k`, and `stage(u) ≤ stage(v)` holds for every edge exactly
//! when each `D` is down-closed. The solver runs a stage-by-stage dynamic
//! program over boundary ideals with branch-and-bound pruning:
//!
//! * segments are grown node-by-node in a canonical order (increasing
//!   position in a fixed topological order), so every ideal extension is
//!   enumerated exactly once;
//! * the [`CostModel`] segment cost is monotone
//!   nondecreasing under growth, so a segment whose cost reaches the
//!   incumbent bound is pruned with all its extensions;
//! * an even-split lower bound on the remaining nodes prunes boundaries
//!   that cannot beat the incumbent;
//! * the incumbent starts at the packing-DP solution (optionally tightened
//!   by simulated annealing), so the search only explores strictly
//!   improving regions;
//! * boundaries are expanded by bottleneck, ties broken by [`NodeSet`]
//!   order, so a solve (schedule, objective and state count) repeats
//!   exactly.
//!
//! The result is provably optimal unless the optional time budget expires,
//! in which case the incumbent is returned with
//! [`ExactSolution::proven_optimal`] `= false` (mirroring an ILP solver's
//! time-limited anytime behaviour). The budget is checked between
//! boundaries and every 4,096 states inside one boundary's enumeration.
//! Tests certify optimality against exhaustive enumeration on small
//! graphs.
//!
//! The enumeration allocates only when a state enters the next frontier:
//! candidates and woken nodes live on two reusable stacks, a completed
//! graph is detected by a count test (`|boundary| + |segment| == |V|`),
//! and `boundary ∪ segment` is built in a scratch set. None of this
//! touches the search tree: every schedule, objective and
//! [`ExactSolution::states_explored`] is what a per-state-allocating
//! enumeration yields, and `tests/solver_agreement.rs` pins the state
//! count on the Fig. 5 zoo.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use respect_graph::{Dag, NodeId};

use crate::anneal::Annealing;
use crate::cost::{CostModel, SegmentAccumulator};
use crate::order;
use crate::pack;
use crate::schedule::{Schedule, ScheduleError};
use crate::Scheduler;

/// Dense bitset over node ids. The derived order compares the words
/// lexicographically; the solver uses it only as a deterministic tie-break.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeSet {
    words: Box<[u64]>,
}

impl NodeSet {
    /// Empty set sized for `n` nodes.
    pub fn empty(n: usize) -> Self {
        NodeSet {
            words: vec![0u64; n.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }

    /// Inserts `v`.
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        self.words[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Removes `v`.
    #[inline]
    pub fn remove(&mut self, v: NodeId) {
        self.words[v.index() / 64] &= !(1 << (v.index() % 64));
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Overwrites `self` with `a ∪ b` (all three of the same universe).
    fn assign_union(&mut self, a: &NodeSet, b: &NodeSet) {
        for ((w, x), y) in self
            .words
            .iter_mut()
            .zip(a.words.iter())
            .zip(b.words.iter())
        {
            *w = x | y;
        }
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(NodeId((wi * 64) as u32 + b))
                }
            })
        })
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its bottleneck objective under the solver's cost model.
    pub objective: f64,
    /// `true` when the search completed (the schedule is provably
    /// optimal); `false` when the time budget expired first.
    pub proven_optimal: bool,
    /// Segment states explored, a proxy for ILP branch count.
    pub states_explored: u64,
}

/// Exact branch-and-bound scheduler. See the [module docs](self).
#[derive(Debug, Clone)]
#[must_use]
pub struct ExactScheduler {
    model: CostModel,
    /// Optional wall-clock budget; on expiry the incumbent is returned.
    pub time_budget: Option<Duration>,
    /// Simulated-annealing move budget for tightening the initial upper
    /// bound (0 disables the warm start).
    pub warmstart_moves: usize,
    /// Cold start: begin with an infinite incumbent bound, so the search
    /// must discover its own incumbents — the behaviour of a generic
    /// exact solver (e.g. an ILP) without heuristic priming. Runtime
    /// grows sharply with graph size, which is what the paper's Fig. 3
    /// measures for the CPLEX baseline.
    pub cold_start: bool,
}

impl ExactScheduler {
    /// Creates an exact scheduler with no time budget and a small
    /// annealing warm start.
    pub fn new(model: CostModel) -> Self {
        ExactScheduler {
            model,
            time_budget: None,
            warmstart_moves: 1_000,
            cold_start: false,
        }
    }

    /// Disables all heuristic priming (see [`Self::cold_start`]).
    pub fn cold(model: CostModel) -> Self {
        ExactScheduler {
            model,
            time_budget: None,
            warmstart_moves: 0,
            cold_start: true,
        }
    }

    /// Sets a wall-clock budget (anytime behaviour).
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Overrides the annealing warm-start move budget.
    pub fn with_warmstart_moves(mut self, moves: usize) -> Self {
        self.warmstart_moves = moves;
        self
    }

    /// The configured wall-clock budget, if any.
    #[must_use]
    pub fn time_budget(&self) -> Option<Duration> {
        self.time_budget
    }
}

impl Default for ExactScheduler {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl ExactScheduler {
    /// The cost model being optimized.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Runs the exact search.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoStages`] for `num_stages == 0`.
    pub fn solve(&self, dag: &Dag, num_stages: usize) -> Result<ExactSolution, ScheduleError> {
        if num_stages == 0 {
            return Err(ScheduleError::NoStages);
        }
        let n = dag.len();
        let topo = order::default_order(dag);
        let pos = order::positions(dag, &topo);
        let start_time = Instant::now();

        // ---- incumbent -----------------------------------------------------
        let (mut best, mut ub) = pack::pack_default(dag, num_stages, &self.model);
        if self.cold_start {
            // keep `best` only as a validity fallback for budget expiry;
            // the bound starts unprimed, as in a bare exact solver.
            ub = f64::INFINITY;
        } else if self.warmstart_moves > 0 && num_stages > 1 {
            let annealed = Annealing::new(self.model)
                .with_iterations(self.warmstart_moves)
                .schedule(dag, num_stages)?;
            let obj = self.model.objective(dag, &annealed);
            if obj < ub {
                ub = obj;
                best = annealed;
            }
        }

        let mut frontier: HashMap<NodeSet, Entry> = HashMap::new();
        frontier.insert(
            NodeSet::empty(n),
            Entry {
                bottleneck: 0.0,
                covered_params: 0,
                covered_macs: 0,
            },
        );
        let mut search = Search {
            dag,
            model: &self.model,
            pos: &pos,
            num_stages,
            total_params: dag.total_param_bytes(),
            total_macs: dag.total_macs(),
            ready: Vec::new(),
            indeg_rem: vec![0; n],
            seg: NodeSet::empty(n),
            seg_len: 0,
            candidates: Vec::new(),
            woken: Vec::new(),
            scratch: NodeSet::empty(n),
            ub,
            best,
            next: HashMap::new(),
            parent_of: vec![HashMap::new(); num_stages + 1],
            states: 0,
            deadline: self.time_budget.and_then(|b| start_time.checked_add(b)),
            timed_out: false,
        };

        'stages: for k in 1..=num_stages {
            let mut boundaries: Vec<(&NodeSet, &Entry)> = frontier.iter().collect();
            // expand promising boundaries first so ub tightens early; ties
            // break by boundary (descending), not by hash-map iteration order,
            // so a solve repeats exactly
            boundaries.sort_by(|a, b| {
                let by_bottleneck = a.1.bottleneck.partial_cmp(&b.1.bottleneck);
                by_bottleneck.expect("finite").then_with(|| b.0.cmp(a.0))
            });
            for (boundary, entry) in boundaries {
                if entry.bottleneck >= search.ub {
                    continue;
                }
                if search.deadline.is_some_and(|d| Instant::now() > d) {
                    search.timed_out = true;
                    break 'stages;
                }
                let at = Boundary {
                    set: boundary,
                    len: boundary.count(),
                    k,
                    entry,
                };
                search.enter(boundary);
                search.extend(&at, SegmentAccumulator::new(), usize::MAX);
                if search.timed_out {
                    break 'stages;
                }
            }
            frontier = std::mem::take(&mut search.next);
            if frontier.is_empty() {
                break;
            }
        }

        let best = search.best;
        debug_assert!(best.is_valid(dag));
        Ok(ExactSolution {
            objective: self.model.objective(dag, &best),
            schedule: best,
            proven_optimal: !search.timed_out,
            states_explored: search.states,
        })
    }
}

/// What the frontier keeps per boundary: the best bottleneck reaching
/// it and the resources it covers.
struct Entry {
    bottleneck: f64,
    covered_params: u64,
    covered_macs: u64,
}

/// The boundary whose segments (stage `k - 1`) are being enumerated.
struct Boundary<'a> {
    set: &'a NodeSet,
    /// `|set|`, so a segment completes the graph when `len + |seg| == n`.
    len: usize,
    k: usize,
    entry: &'a Entry,
}

/// Segment enumeration state. The candidate and woken-node lists of
/// every open depth share one stack each (the deepest on top, truncated
/// on return), so a state allocates only when it enters the frontier.
struct Search<'a> {
    dag: &'a Dag,
    model: &'a CostModel,
    pos: &'a [usize],
    num_stages: usize,
    total_params: u64,
    total_macs: u64,
    /// Ready set of the residual graph beyond boundary and segment.
    ready: Vec<NodeId>,
    indeg_rem: Vec<u32>,
    seg: NodeSet,
    seg_len: usize,
    candidates: Vec<NodeId>,
    woken: Vec<NodeId>,
    /// Holds `boundary ∪ seg` while it is looked up in `next`.
    scratch: NodeSet,
    ub: f64,
    best: Schedule,
    /// Frontier of the next stage.
    next: HashMap<NodeSet, Entry>,
    /// `parent_of[k]`: boundary after stage k -> boundary after stage k-1.
    parent_of: Vec<HashMap<NodeSet, NodeSet>>,
    states: u64,
    deadline: Option<Instant>,
    timed_out: bool,
}

impl Search<'_> {
    /// Resets the ready set and residual in-degrees to the graph beyond
    /// `boundary`.
    fn enter(&mut self, boundary: &NodeSet) {
        self.ready.clear();
        for v in self.dag.node_ids() {
            if boundary.contains(v) {
                continue;
            }
            let d = self
                .dag
                .preds(v)
                .iter()
                .filter(|&&p| !boundary.contains(p))
                .count() as u32;
            self.indeg_rem[v.index()] = d;
            if d == 0 {
                self.ready.push(v);
            }
        }
    }

    /// Grows the segment beyond `at` by every ready node after position
    /// `last_pos` in turn (canonical order: each ideal extension once),
    /// recording completions and new boundaries, then recursing.
    fn extend(&mut self, at: &Boundary<'_>, acc: SegmentAccumulator, last_pos: usize) {
        let first = self.candidates.len();
        for &v in &self.ready {
            if last_pos == usize::MAX || self.pos[v.index()] > last_pos {
                self.candidates.push(v);
            }
        }
        for c in first..self.candidates.len() {
            let v = self.candidates[c];
            let mut acc2 = acc;
            acc2.push(self.dag, v, |p| at.set.contains(p));
            let cost = acc2.cost(self.model);
            self.states += 1;
            if self.states.is_multiple_of(4096) && self.deadline.is_some_and(|d| Instant::now() > d)
            {
                self.timed_out = true;
                break;
            }
            if cost >= self.ub {
                continue; // monotone: no extension can recover
            }
            let nb = at.entry.bottleneck.max(cost);

            // apply v
            let slot = self.ready.iter().position(|&r| r == v).expect("ready");
            self.ready.swap_remove(slot);
            self.seg.insert(v);
            self.seg_len += 1;
            let woken_from = self.woken.len();
            for &s in self.dag.succs(v) {
                self.indeg_rem[s.index()] -= 1;
                if self.indeg_rem[s.index()] == 0 {
                    self.ready.push(s);
                    self.woken.push(s);
                }
            }

            if at.len + self.seg_len == self.dag.len() {
                if nb < self.ub {
                    self.ub = nb;
                    self.best = self.reconstruct(at);
                }
            } else if at.k < self.num_stages {
                // lower bound for the remainder
                let covered_params = at.entry.covered_params + acc2.param_bytes;
                let covered_macs = at.entry.covered_macs + acc2.macs;
                let m = (self.num_stages - at.k) as u64;
                let spill = ((self.total_params - covered_params) / m)
                    .saturating_sub(self.model.cache_bytes);
                let lb_rest = self.model.sec_per_mac
                    * ((self.total_macs - covered_macs) / m) as f64
                    + self.model.sec_per_byte * spill as f64;
                if nb.max(lb_rest) < self.ub {
                    self.scratch.assign_union(at.set, &self.seg);
                    let insert = match self.next.get(&self.scratch) {
                        Some(e) => nb < e.bottleneck,
                        None => true,
                    };
                    if insert {
                        let d2 = self.scratch.clone();
                        self.next.insert(
                            d2.clone(),
                            Entry {
                                bottleneck: nb,
                                covered_params,
                                covered_macs,
                            },
                        );
                        self.parent_of[at.k].insert(d2, at.set.clone());
                    }
                }
            }

            self.extend(at, acc2, self.pos[v.index()]);

            // undo v
            for w in (woken_from..self.woken.len()).rev() {
                let s = self.woken[w];
                let wslot = self.ready.iter().position(|&r| r == s).expect("woken");
                self.ready.swap_remove(wslot);
            }
            self.woken.truncate(woken_from);
            for &s in self.dag.succs(v) {
                self.indeg_rem[s.index()] += 1;
            }
            self.seg.remove(v);
            self.seg_len -= 1;
            self.ready.push(v);
            if self.timed_out {
                break;
            }
        }
        self.candidates.truncate(first);
    }

    /// The schedule that puts the current segment on stage `at.k - 1`
    /// and walks `parent_of` back for the stages before it.
    fn reconstruct(&self, at: &Boundary<'_>) -> Schedule {
        let mut stage_of = vec![0usize; self.dag.len()];
        for u in self.seg.iter() {
            stage_of[u.index()] = at.k - 1;
        }
        let mut cur = at.set;
        for j in (1..at.k).rev() {
            let parent = self.parent_of[j].get(cur).expect("chain");
            for u in cur.iter() {
                if !parent.contains(u) {
                    stage_of[u.index()] = j - 1;
                }
            }
            cur = parent;
        }
        Schedule::new(stage_of, self.num_stages).expect("stages in range")
    }
}

impl Scheduler for ExactScheduler {
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
    use respect_graph::{DagBuilder, OpKind, OpNode, SyntheticConfig, SyntheticSampler};

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
    fn nodeset_basic_operations() {
        let mut s = NodeSet::empty(130);
        assert_eq!(s.count(), 0);
        s.insert(NodeId(0));
        s.insert(NodeId(64));
        s.insert(NodeId(129));
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(63)));
        assert_eq!(s.count(), 3);
        let ids: Vec<_> = s.iter().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(64), NodeId(129)]);
        s.remove(NodeId(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let model = tiny_model();
        let solver = ExactScheduler::new(model).with_warmstart_moves(200);
        for seed in 0..6 {
            let dag = small_dag(seed, 8);
            for k in [2, 3] {
                let sol = solver.solve(&dag, k).unwrap();
                assert!(sol.proven_optimal);
                assert!(sol.schedule.is_valid(&dag));
                let brute_obj = brute::optimal_objective(&dag, k, &model);
                assert!(
                    (sol.objective - brute_obj).abs() <= 1e-9 * brute_obj.max(1e-12),
                    "seed {seed} k={k}: exact {} vs brute {brute_obj}",
                    sol.objective
                );
            }
        }
    }

    #[test]
    fn never_worse_than_packing_dp() {
        let model = CostModel::coral();
        let solver = ExactScheduler::new(model).with_warmstart_moves(0);
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 99);
        for _ in 0..3 {
            let dag = sampler.sample();
            for k in [2, 4] {
                let sol = solver.solve(&dag, k).unwrap();
                let (_, dp) = pack::pack_default(&dag, k, &model);
                assert!(sol.objective <= dp + 1e-12);
            }
        }
    }

    #[test]
    fn single_stage_is_whole_graph() {
        let dag = small_dag(1, 6);
        let model = tiny_model();
        let sol = ExactScheduler::new(model).solve(&dag, 1).unwrap();
        assert!(sol.schedule.stage_of().iter().all(|&s| s == 0));
        assert!(sol.proven_optimal);
    }

    #[test]
    fn finds_obvious_chain_split() {
        // two heavy nodes separated by a light chain: optimal 2-way split
        // puts one heavy node per side.
        let mut b = DagBuilder::new();
        let weights = [100u64, 1, 1, 100];
        let ids: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                b.add_node(
                    OpNode::new(format!("n{i}"), OpKind::Conv2d)
                        .with_params(w)
                        .with_output(1),
                )
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let dag = b.build().unwrap();
        let model = CostModel {
            sec_per_mac: 0.0,
            sec_per_byte: 1.0,
            cache_bytes: 0,
        };
        let sol = ExactScheduler::new(model).solve(&dag, 2).unwrap();
        // best split: {n0,n1} | {n2,n3} or {n0,n1,n2} | {n3}: bottleneck 102
        assert!((sol.objective - 102.0).abs() < 1e-9, "{}", sol.objective);
        assert!(sol.proven_optimal);
    }

    #[test]
    fn cold_start_matches_warm_start_optimum() {
        let model = tiny_model();
        for seed in 0..3 {
            let dag = small_dag(seed, 8);
            let warm = ExactScheduler::new(model).solve(&dag, 3).unwrap();
            let cold = ExactScheduler::cold(model).solve(&dag, 3).unwrap();
            assert!(warm.proven_optimal && cold.proven_optimal);
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-9 * warm.objective.max(1e-12),
                "seed {seed}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            // the cold search does strictly more work
            assert!(cold.states_explored >= warm.states_explored);
        }
    }

    #[test]
    fn time_budget_returns_incumbent() {
        let dag = small_dag(3, 30);
        let model = CostModel::coral();
        let solver = ExactScheduler::new(model)
            .with_time_budget(Duration::from_nanos(1))
            .with_warmstart_moves(0);
        let sol = solver.solve(&dag, 4).unwrap();
        assert!(!sol.proven_optimal);
        assert!(sol.schedule.is_valid(&dag));
        // incumbent equals packing DP
        let (_, dp) = pack::pack_default(&dag, 4, &model);
        assert!(sol.objective <= dp + 1e-12);
    }

    #[test]
    fn zero_stages_is_an_error() {
        let dag = small_dag(4, 5);
        assert!(matches!(
            ExactScheduler::new(tiny_model()).solve(&dag, 0),
            Err(ScheduleError::NoStages)
        ));
    }

    #[test]
    fn paper_scale_synthetic_graphs_solve_quickly() {
        // training teacher must handle 30-node graphs fast
        let model = CostModel::coral();
        let solver = ExactScheduler::new(model).with_warmstart_moves(300);
        for deg in [2, 4, 6] {
            let dag = SyntheticSampler::new(SyntheticConfig::paper(deg), 7).sample();
            let sol = solver.solve(&dag, 4).unwrap();
            assert!(sol.proven_optimal, "deg {deg}");
            assert!(sol.schedule.is_valid(&dag));
        }
    }

    #[test]
    fn repeated_solves_are_bitwise_identical() {
        // teacher-style instances: bottleneck ties between frontier
        // boundaries are common, and each solve's maps hash differently
        let solver = ExactScheduler::new(CostModel::coral()).with_warmstart_moves(200);
        for seed in 0..60u64 {
            let cfg = SyntheticConfig {
                num_nodes: 20,
                ..SyntheticConfig::paper(2 + seed as usize % 5)
            };
            let dag = SyntheticSampler::new(cfg, seed).sample();
            let a = solver.solve(&dag, 4).unwrap();
            let b = solver.solve(&dag, 4).unwrap();
            assert_eq!(a.schedule, b.schedule, "seed {seed}: schedule");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "seed {seed}");
            assert_eq!(a.states_explored, b.states_explored, "seed {seed}: states");
        }
    }

    #[test]
    fn time_budget_holds_inside_one_boundary() {
        // a cold start enumerates every ideal of this graph from the empty
        // boundary; the budget must cut that enumeration, not wait for it
        let cfg = SyntheticConfig {
            num_nodes: 60,
            ..SyntheticConfig::default()
        };
        let dag = SyntheticSampler::new(cfg, 3).sample();
        // the Coral device's cost model (10% sustained MAC utilization)
        let model = CostModel {
            sec_per_mac: 1.0 / (0.10 * 2.0e12),
            ..CostModel::coral()
        };
        let solver = ExactScheduler::cold(model).with_time_budget(Duration::from_millis(50));
        for stages in [4, 6] {
            let started = Instant::now();
            let sol = solver.solve(&dag, stages).unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "{stages} stages took {:?}",
                started.elapsed()
            );
            assert!(!sol.proven_optimal);
            assert!(sol.schedule.is_valid(&dag));
            assert_eq!(
                sol.objective.to_bits(),
                solver.model().objective(&dag, &sol.schedule).to_bits()
            );
        }
    }

    #[test]
    fn unbounded_time_budget_is_no_deadline() {
        let dag = small_dag(5, 10);
        let sol = ExactScheduler::new(tiny_model())
            .with_time_budget(Duration::MAX)
            .solve(&dag, 3)
            .unwrap();
        assert!(sol.proven_optimal);
        assert!(sol.schedule.is_valid(&dag));
    }
}
