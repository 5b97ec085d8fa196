//! The paper's `ρ`: mapping a node sequence onto pipeline stages.
//!
//! Equation (2) of the paper writes `S' = ρ(π(i), s_k)`: a deterministic
//! procedure that turns the sequence emitted by the RL agent (or by the
//! exact method's `γ`) into a stage assignment for the specific Edge TPU
//! system. We realize `ρ` as the *optimal* contiguous packing of the
//! fixed sequence into `num_stages` segments under the
//! [`CostModel`] bottleneck objective — a dynamic program
//! `f[k][i] = min_j max(f[k-1][j], cost(j, i))` whose worst case is
//! `O(num_stages · |V| · (|V| + |E|))`. For a fixed sequence this is
//! exact; the hard combinatorial choice (which sequence) is what the
//! exact solver searches and the RL agent predicts.
//!
//! # Bound pruning
//!
//! Before the DP, bisection over greedy threshold packings of the same
//! sequence yields an upper bound `ub ≥ OPT` in `O((|V| + |E|) · log)`.
//! Layer `k` then uses `ub_k = min(ub, f[k-1][n])` (more stages never
//! hurt, so `OPT ≤ f[k-1][n]`): it skips every start `j` whose
//! `f[k-1][j] > ub_k` and stops growing a segment once its cost exceeds
//! `ub_k`. This is exact. For a fixed start the segment cost never
//! decreases as the segment grows (the [`SegmentAccumulator`]
//! monotonicity), so every entry whose true value is `≤ ub_k` keeps its
//! value and its first-`j` choice, and the reconstruction path only
//! visits such entries (each is `≤ OPT`). The comparisons are strict, so
//! ties resolve as in the unpruned DP: same schedule, same objective
//! bits. A cost model with a negative or non-finite constant may not be
//! monotone and runs unpruned.
//!
//! [`SegmentAccumulator`]: crate::cost::SegmentAccumulator

use respect_graph::{Dag, NodeId};

use crate::cost::CostModel;
use crate::order::{self, SequenceTable};
use crate::schedule::Schedule;

/// Bisection steps of the greedy upper bound; each is one
/// `O(|V| + |E|)` pass. The bound only steers pruning, never the result.
const BOUND_STEPS: usize = 12;

/// Optimally packs `order` into `num_stages` contiguous segments,
/// minimizing the bottleneck stage cost. Returns the schedule and its
/// objective value.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the graph's nodes or
/// `num_stages == 0`.
pub fn pack(dag: &Dag, order: &[NodeId], num_stages: usize, model: &CostModel) -> (Schedule, f64) {
    assert!(num_stages > 0, "at least one stage");
    let table = SequenceTable::new(dag, order);
    let n = table.len();
    let k_max = num_stages;
    let width = n + 1;
    let monotone = [model.sec_per_mac, model.sec_per_byte]
        .iter()
        .all(|c| c.is_finite() && *c >= 0.0);
    let ub = if monotone {
        upper_bound(&table, num_stages, model)
    } else {
        f64::INFINITY
    };

    // f[k * width + i]: min bottleneck scheduling order[0..i] into k stages.
    let mut f = vec![f64::INFINITY; (k_max + 1) * width];
    let mut choice = vec![usize::MAX; (k_max + 1) * width];
    f[0] = 0.0;
    for k in 1..=k_max {
        let (prev, cur) = f.split_at_mut(k * width);
        let prev = &prev[(k - 1) * width..];
        let cur = &mut cur[..width];
        let choice = &mut choice[k * width..(k + 1) * width];
        let ub_k = if monotone {
            ub.min(prev[n])
        } else {
            f64::INFINITY
        };
        for j in 0..=n {
            let base = prev[j];
            if !base.is_finite() || base > ub_k {
                continue;
            }
            // empty segment: stage k holds nothing
            if base < cur[j] {
                cur[j] = base;
                choice[j] = j;
            }
            let (mut params, mut macs, mut cut) = (0u64, 0u64, 0u64);
            for i in j + 1..=n {
                params += table.param_bytes[i - 1];
                macs += table.macs[i - 1];
                for &(p, bytes) in table.preds(i - 1) {
                    if p < j {
                        cut += bytes;
                    }
                }
                let cost = model.stage_cost(params, macs, cut);
                if cost > ub_k {
                    break; // monotone: longer segments cost at least as much
                }
                let cand = base.max(cost);
                if cand < cur[i] {
                    cur[i] = cand;
                    choice[i] = j;
                }
            }
        }
    }

    // Reconstruct cut positions.
    let mut cuts = vec![0usize; k_max - 1];
    let mut i = n;
    for k in (1..=k_max).rev() {
        let j = choice[k * width + i];
        debug_assert_ne!(j, usize::MAX, "DP must reach every suffix");
        if k >= 2 {
            cuts[k - 2] = j;
        }
        i = j;
    }
    let schedule = Schedule::from_cuts(order, &cuts, num_stages);
    (schedule, f[k_max * width + n])
}

/// An upper bound on the optimal packing of `table` into `num_stages`
/// segments: the best objective among greedy threshold packings, with
/// the threshold bisected between zero and the one-stage cost.
fn upper_bound(table: &SequenceTable, num_stages: usize, model: &CostModel) -> f64 {
    let mut best = greedy_packing(table, 1, model, f64::INFINITY).unwrap_or(f64::INFINITY);
    let mut lo = 0.0;
    for _ in 0..BOUND_STEPS {
        let mid = 0.5 * (lo + best);
        match greedy_packing(table, num_stages, model, mid) {
            Some(obj) => best = best.min(obj),
            None => lo = mid,
        }
    }
    best
}

/// Packs `table` left to right, closing a segment before it would cost
/// more than `threshold`. Returns the packing's objective, or `None` if
/// it needs more than `num_stages` segments or one node alone exceeds
/// the threshold. Segment costs are computed exactly as the DP computes
/// them, so the result is the objective of a valid contiguous packing.
fn greedy_packing(
    table: &SequenceTable,
    num_stages: usize,
    model: &CostModel,
    threshold: f64,
) -> Option<f64> {
    let (mut start, mut segments) = (0, 1);
    let (mut params, mut macs, mut cut) = (0u64, 0u64, 0u64);
    let (mut seg_cost, mut worst) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < table.len() {
        let cut_add: u64 = table
            .preds(i)
            .iter()
            .filter(|&&(p, _)| p < start)
            .map(|&(_, bytes)| bytes)
            .sum();
        let cost = model.stage_cost(
            params + table.param_bytes[i],
            macs + table.macs[i],
            cut + cut_add,
        );
        if cost <= threshold {
            params += table.param_bytes[i];
            macs += table.macs[i];
            cut += cut_add;
            seg_cost = cost;
            i += 1;
        } else if i == start || segments == num_stages {
            return None;
        } else {
            worst = worst.max(seg_cost);
            segments += 1;
            start = i;
            (params, macs, cut) = (0, 0, 0);
        }
    }
    Some(worst.max(seg_cost))
}

/// Convenience: `pack` on the deterministic default order.
pub fn pack_default(dag: &Dag, num_stages: usize, model: &CostModel) -> (Schedule, f64) {
    let order = order::default_order(dag);
    pack(dag, &order, num_stages, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SegmentAccumulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use respect_graph::{models, DagBuilder, OpKind, OpNode, SyntheticConfig, SyntheticSampler};

    /// The unpruned DP over `SegmentAccumulator`, kept as the oracle of
    /// the bound-pruned [`pack`].
    fn reference_pack(
        dag: &Dag,
        order: &[NodeId],
        num_stages: usize,
        model: &CostModel,
    ) -> (Schedule, f64) {
        let n = order.len();
        let pos = order::positions(dag, order);
        let k_max = num_stages;
        let mut f = vec![vec![f64::INFINITY; n + 1]; k_max + 1];
        let mut choice = vec![vec![usize::MAX; n + 1]; k_max + 1];
        f[0][0] = 0.0;
        for k in 1..=k_max {
            for j in 0..=n {
                let base = f[k - 1][j];
                if !base.is_finite() {
                    continue;
                }
                if base < f[k][j] {
                    f[k][j] = base;
                    choice[k][j] = j;
                }
                let mut acc = SegmentAccumulator::new();
                for i in j + 1..=n {
                    acc.push(dag, order[i - 1], |p| pos[p.index()] < j);
                    let cand = base.max(acc.cost(model));
                    if cand < f[k][i] {
                        f[k][i] = cand;
                        choice[k][i] = j;
                    }
                }
            }
        }
        let mut cuts = vec![0usize; k_max - 1];
        let mut i = n;
        for k in (1..=k_max).rev() {
            let j = choice[k][i];
            if k >= 2 {
                cuts[k - 2] = j;
            }
            i = j;
        }
        (Schedule::from_cuts(order, &cuts, num_stages), f[k_max][n])
    }

    fn assert_matches_reference(
        label: &str,
        dag: &Dag,
        order: &[NodeId],
        stages: usize,
        model: &CostModel,
    ) {
        let (got, got_obj) = pack(dag, order, stages, model);
        let (want, want_obj) = reference_pack(dag, order, stages, model);
        assert_eq!(got.stage_of(), want.stage_of(), "{label}@{stages}");
        assert_eq!(got_obj.to_bits(), want_obj.to_bits(), "{label}@{stages}");
    }

    fn chain_with_params(params: &[u64]) -> Dag {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = params
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                b.add_node(
                    OpNode::new(format!("n{i}"), OpKind::Conv2d)
                        .with_params(p)
                        .with_output(1),
                )
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.build().unwrap()
    }

    /// Cache 0 so every parameter byte costs; comm negligible.
    fn mem_only_model() -> CostModel {
        CostModel {
            sec_per_mac: 0.0,
            sec_per_byte: 1.0,
            cache_bytes: 0,
        }
    }

    #[test]
    fn packs_balanced_chain_optimally() {
        // 1,1,1,1 into 2 stages: bottleneck 2 (2+2 split)
        let dag = chain_with_params(&[1, 1, 1, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, obj) = pack(&dag, &order, 2, &mem_only_model());
        assert!(s.is_valid(&dag));
        // +1 byte of cut traffic for the edge crossing the cut
        assert!((obj - 3.0).abs() < 1e-12, "obj={obj}");
        assert_eq!(s.stage_of(), &[0, 0, 1, 1]);
    }

    #[test]
    fn pack_beats_naive_split_on_skewed_chain() {
        // 10,1,1,1: naive halves give max(11, 2); optimal = 10 + cut
        let dag = chain_with_params(&[10, 1, 1, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, obj) = pack(&dag, &order, 2, &mem_only_model());
        assert_eq!(s.stage_of(), &[0, 1, 1, 1]);
        assert!((obj - 10.0).abs() < 1e-12);
    }

    #[test]
    fn objective_matches_cost_model_recomputation() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 17);
        let model = CostModel::coral();
        for _ in 0..10 {
            let dag = sampler.sample();
            let order = order::default_order(&dag);
            for k in 1..=4 {
                let (s, obj) = pack(&dag, &order, k, &model);
                assert!(s.is_valid(&dag));
                let recomputed = model.objective(&dag, &s);
                assert!(
                    (obj - recomputed).abs() <= 1e-9 * obj.max(1e-30),
                    "k={k}: dp {obj} vs recompute {recomputed}"
                );
            }
        }
    }

    #[test]
    fn pack_is_optimal_for_fixed_order_by_enumeration() {
        // exhaustively check all cut placements on small chains
        let dag = chain_with_params(&[5, 3, 8, 2, 7, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        let model = mem_only_model();
        let (_, obj) = pack(&dag, &order, 3, &model);
        let n = order.len();
        let mut best = f64::INFINITY;
        for c1 in 0..=n {
            for c2 in c1..=n {
                let s = Schedule::from_cuts(&order, &[c1, c2], 3);
                best = best.min(model.objective(&dag, &s));
            }
        }
        assert!((obj - best).abs() < 1e-12, "dp {obj} vs brute {best}");
    }

    #[test]
    fn more_stages_never_hurt() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(2), 23);
        let dag = sampler.sample();
        let model = CostModel::coral();
        let order = order::default_order(&dag);
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let (_, obj) = pack(&dag, &order, k, &model);
            assert!(obj <= prev + 1e-12, "k={k}: {obj} > {prev}");
            prev = obj;
        }
    }

    #[test]
    fn single_stage_cost_is_whole_graph() {
        let dag = chain_with_params(&[4, 4]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, obj) = pack(&dag, &order, 1, &mem_only_model());
        assert_eq!(s.num_stages(), 1);
        assert!((obj - 8.0).abs() < 1e-12);
    }

    #[test]
    fn handles_more_stages_than_nodes() {
        let dag = chain_with_params(&[2, 2]);
        let order: Vec<_> = dag.node_ids().collect();
        let (s, _) = pack(&dag, &order, 5, &mem_only_model());
        assert!(s.is_valid(&dag));
        assert_eq!(s.num_stages(), 5);
    }

    #[test]
    fn pack_default_works_on_real_models() {
        let dag = models::xception();
        let model = CostModel::coral();
        let (s, obj) = pack_default(&dag, 4, &model);
        assert!(s.is_valid(&dag));
        assert!(obj > 0.0);
        assert!(obj >= model.lower_bound(&dag, 4) - 1e-15);
    }

    #[test]
    fn better_orders_can_beat_default() {
        // randomized orders should never beat pack on *their own* order's
        // optimum being worse than picking the best of many.
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(4), 31);
        let dag = sampler.sample();
        let model = CostModel::coral();
        let (_, base) = pack_default(&dag, 4, &model);
        let mut rng = StdRng::seed_from_u64(7);
        let best_random = (0..50)
            .map(|_| {
                let o = order::random_topo_order(&dag, &mut rng);
                pack(&dag, &o, 4, &model).1
            })
            .fold(f64::INFINITY, f64::min);
        // sanity: the search space matters — orders differ in quality
        assert!(best_random.is_finite() && base.is_finite());
    }

    #[test]
    fn pruned_dp_matches_reference_on_the_zoo() {
        let model = CostModel::coral();
        for (name, dag) in models::fig5() {
            let order = order::default_order(&dag);
            for stages in 1..=8 {
                assert_matches_reference(name, &dag, &order, stages, &model);
            }
        }
    }

    #[test]
    fn pruned_dp_matches_reference_on_random_orders() {
        let model = CostModel::coral();
        let mut rng = StdRng::seed_from_u64(41);
        for (seed, nodes) in [10, 17, 30, 60, 120, 200].into_iter().enumerate() {
            let cfg = SyntheticConfig {
                num_nodes: nodes,
                max_in_degree: 2 + seed % 3,
                ..SyntheticConfig::default()
            };
            let dag = SyntheticSampler::new(cfg, seed as u64).sample();
            for _ in 0..3 {
                let order = order::random_topo_order(&dag, &mut rng);
                for stages in [1, 2, 3, 4, 6, 8] {
                    assert_matches_reference("coral", &dag, &order, stages, &model);
                    assert_matches_reference("mem", &dag, &order, stages, &mem_only_model());
                }
            }
        }
    }

    #[test]
    fn pruned_dp_matches_reference_on_edge_cases() {
        // more stages than nodes
        let dag = chain_with_params(&[3, 1, 2]);
        let order: Vec<_> = dag.node_ids().collect();
        for stages in [4, 5, 9] {
            assert_matches_reference("short", &dag, &order, stages, &mem_only_model());
        }
        // one node
        let one = chain_with_params(&[7]);
        for stages in 1..=3 {
            assert_matches_reference("one", &one, &[NodeId(0)], stages, &CostModel::coral());
        }
        // cache-0 model on a real graph
        let dag = models::resnet50();
        let order = order::default_order(&dag);
        for stages in [2, 5] {
            assert_matches_reference(
                "uncached",
                &dag,
                &order,
                stages,
                &CostModel::coral_uncached(),
            );
        }
        // zero outputs and equal weights: many packings tie
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..12)
            .map(|i| b.add_node(OpNode::new(format!("z{i}"), OpKind::Conv2d).with_params(4)))
            .collect();
        for w in ids.windows(3) {
            b.add_edge(w[0], w[1]).unwrap();
            b.add_edge(w[0], w[2]).unwrap();
        }
        let ties = b.build().unwrap();
        let order = order::default_order(&ties);
        for stages in 1..=6 {
            assert_matches_reference("ties", &ties, &order, stages, &mem_only_model());
        }
        // a model whose cost is not monotone runs unpruned
        let negative = CostModel {
            sec_per_mac: 1e-9,
            sec_per_byte: -1.0,
            cache_bytes: 0,
        };
        let dag = chain_with_params(&[5, 3, 8, 2, 7, 1]);
        let order: Vec<_> = dag.node_ids().collect();
        assert_matches_reference("negative", &dag, &order, 3, &negative);
    }
}
