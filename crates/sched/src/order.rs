//! Node-sequence helpers: the solution space of the paper is a
//! dependency-respecting node sequence `π` (Sec. III-B) plus the packing
//! `ρ`; this module provides deterministic and randomized sequences and
//! position bookkeeping.

use rand::Rng;

use respect_graph::{topo, Dag, NodeId};

/// Deterministic default execution order (Kahn, smallest ready id first) —
/// the order the commercial compiler consumes the flattened model in.
pub fn default_order(dag: &Dag) -> Vec<NodeId> {
    topo::topo_order(dag)
}

/// A uniformly random topological order (random ready-node tie breaking).
///
/// Used by simulated annealing restarts and training-data augmentation.
pub fn random_topo_order(dag: &Dag, rng: &mut impl Rng) -> Vec<NodeId> {
    let n = dag.len();
    let mut indeg: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
    let mut ready: Vec<NodeId> = dag.node_ids().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let i = rng.gen_range(0..ready.len());
        let v = ready.swap_remove(i);
        order.push(v);
        for &s in dag.succs(v) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

/// Position of every node inside `order` (`pos[v.index()]`).
///
/// # Panics
///
/// Panics if `order` is not a permutation of the graph's nodes.
pub fn positions(dag: &Dag, order: &[NodeId]) -> Vec<usize> {
    assert_eq!(order.len(), dag.len(), "order must cover every node");
    let mut pos = vec![usize::MAX; dag.len()];
    for (i, &v) in order.iter().enumerate() {
        assert!(pos[v.index()] == usize::MAX, "duplicate node in order");
        pos[v.index()] = i;
    }
    pos
}

/// The resources of a `(dag, order)` pair laid out by sequence position:
/// per-position `param_bytes` and `macs`, plus each position's
/// predecessors as a CSR list of `(pred position, pred output_bytes)`.
///
/// Shared by the packing DP and the ILP-style search, whose inner loops
/// then sum integers over flat arrays instead of chasing node ids.
#[derive(Debug, Clone)]
pub struct SequenceTable {
    /// Parameter bytes of the node at each position.
    pub param_bytes: Vec<u64>,
    /// MACs of the node at each position.
    pub macs: Vec<u64>,
    pred_start: Vec<usize>,
    preds: Vec<(usize, u64)>,
}

impl SequenceTable {
    /// Builds the table of `order` over `dag`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the graph's nodes.
    pub fn new(dag: &Dag, order: &[NodeId]) -> Self {
        let pos = positions(dag, order);
        let mut table = SequenceTable {
            param_bytes: Vec::with_capacity(order.len()),
            macs: Vec::with_capacity(order.len()),
            pred_start: Vec::with_capacity(order.len() + 1),
            preds: Vec::with_capacity(dag.edge_count()),
        };
        table.pred_start.push(0);
        for &v in order {
            let node = dag.node(v);
            table.param_bytes.push(node.param_bytes);
            table.macs.push(node.macs);
            table.preds.extend(
                dag.preds(v)
                    .iter()
                    .map(|&p| (pos[p.index()], dag.node(p).output_bytes)),
            );
            table.pred_start.push(table.preds.len());
        }
        table
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.param_bytes.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.param_bytes.is_empty()
    }

    /// `(pred position, pred output_bytes)` of every predecessor of the
    /// node at position `i`, in the graph's predecessor order.
    #[inline]
    pub fn preds(&self, i: usize) -> &[(usize, u64)] {
        &self.preds[self.pred_start[i]..self.pred_start[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use respect_graph::{SyntheticConfig, SyntheticSampler};

    #[test]
    fn random_orders_are_topological() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(4), 9);
        let dag = sampler.sample();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let order = random_topo_order(&dag, &mut rng);
            assert!(topo::is_topological_order(&dag, &order));
        }
    }

    #[test]
    fn random_orders_vary() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(2), 9);
        let dag = sampler.sample();
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_topo_order(&dag, &mut rng);
        let b = random_topo_order(&dag, &mut rng);
        assert_ne!(a, b, "two draws should differ on a 30-node graph");
    }

    #[test]
    fn positions_invert_order() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 5);
        let dag = sampler.sample();
        let order = default_order(&dag);
        let pos = positions(&dag, &order);
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(pos[v.index()], i);
        }
    }

    #[test]
    fn sequence_table_mirrors_the_graph() {
        let dag = SyntheticSampler::new(SyntheticConfig::paper(4), 11).sample();
        let mut rng = StdRng::seed_from_u64(3);
        let order = random_topo_order(&dag, &mut rng);
        let pos = positions(&dag, &order);
        let table = SequenceTable::new(&dag, &order);
        assert_eq!(table.len(), dag.len());
        for (i, &v) in order.iter().enumerate() {
            let node = dag.node(v);
            assert_eq!(table.param_bytes[i], node.param_bytes);
            assert_eq!(table.macs[i], node.macs);
            let want: Vec<_> = dag
                .preds(v)
                .iter()
                .map(|&p| (pos[p.index()], dag.node(p).output_bytes))
                .collect();
            assert_eq!(table.preds(i), want.as_slice());
            assert!(table.preds(i).iter().all(|&(p, _)| p < i));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn positions_reject_duplicates() {
        let mut sampler = SyntheticSampler::new(SyntheticConfig::paper(3), 5);
        let dag = sampler.sample();
        let mut order = default_order(&dag);
        order[1] = order[0];
        let _ = positions(&dag, &order);
    }
}
