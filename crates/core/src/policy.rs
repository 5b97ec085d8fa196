//! The LSTM-PtrNet RL agent (paper, Sec. III-B, Fig. 1b, Algorithm 1).
//!
//! Architecture:
//!
//! * a linear projection lifts each node's embedding column to the hidden
//!   dimension;
//! * an **encoder LSTM** digests the projected queue `q` into contexts
//!   `{Ctext_i}` (its final state seeds the decoder);
//! * a **decoder LSTM** runs one step per output position: its hidden
//!   state is refined by a **glimpse** attention over the context matrix,
//!   then a **pointer** head produces logits over candidate nodes;
//! * logits of nodes already emitted are masked to −∞ (Algorithm 1); with
//!   [`PolicyConfig::dependency_masking`] (default), nodes whose parents
//!   have not been emitted are masked too, so `π` is always a valid
//!   topological order and post-inference dependency repair becomes a
//!   safeguard rather than a necessity;
//! * the first decoder input `dec0` is a trainable parameter, exactly as
//!   in the paper.
//!
//! Two execution paths share the same weights: a tape-based rollout for
//! REINFORCE training, and a gradient-free [`PtrNetPolicy::decode`] used
//! at deployment (this is what Fig. 3 times as RESPECT's solving time).
//! Training runs [`PtrNetPolicy::rollout_batch`]; the serial, densely
//! masked [`PtrNetPolicy::rollout`] is its reference implementation.
//!
//! Both batched paths attend over each graph's **ready frontier** only:
//! the nodes the mask leaves open, in ascending index order. A masked
//! node's softmax weight, its log-softmax gradient and every gradient
//! behind them are exactly `0.0`, and dropping an exact-zero term from an
//! in-order `f32` sum leaves the sum's bits unchanged. So skipping masked
//! nodes keeps every choice, log-probability and gradient bit-identical
//! to attending over all `n` nodes, at `O(frontier · h)` per step instead
//! of `O(n · h)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use respect_graph::{Dag, NodeId};
use respect_nn::attention::AttentionSpec;
use respect_nn::lstm::LstmSpec;
use respect_nn::tape::{softmax_in_place, Tape, Var};
use respect_nn::{init, Bindings, Matrix, Params};

use crate::embedding::EmbeddingConfig;

/// Hyperparameters of the pointer-network policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// LSTM hidden size (the paper uses 256 cells).
    pub hidden: usize,
    /// Node-embedding layout.
    pub embedding: EmbeddingConfig,
    /// Mask nodes whose parents were not emitted yet (guarantees `π` is a
    /// topological order). The paper instead relies on post-inference
    /// repair; disable to reproduce that behaviour.
    pub dependency_masking: bool,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl PolicyConfig {
    /// The paper's configuration: 256 LSTM cells.
    pub fn paper() -> Self {
        PolicyConfig {
            hidden: 256,
            embedding: EmbeddingConfig::default(),
            dependency_masking: true,
            seed: 0x7e5c,
        }
    }

    /// A small configuration for tests and laptop-scale training.
    pub fn small(hidden: usize) -> Self {
        PolicyConfig {
            hidden,
            ..Self::paper()
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// How the decoder picks the next node.
#[derive(Debug)]
pub enum DecodeMode {
    /// Highest-probability node (deterministic).
    Greedy,
    /// Sample from the pointer distribution (training exploration).
    Sample(StdRng),
}

impl DecodeMode {
    /// A sampling mode seeded for reproducibility.
    pub fn sample_seeded(seed: u64) -> Self {
        DecodeMode::Sample(StdRng::seed_from_u64(seed))
    }
}

/// A differentiable decode: the emitted sequence plus the summed
/// log-probability of its choices on the tape.
#[derive(Debug)]
pub struct Rollout {
    /// Emitted node sequence `π`.
    pub sequence: Vec<NodeId>,
    /// `Σ_t log p(π(t) | π(<t), G)` as a tape scalar.
    pub log_prob: Var,
}

/// A differentiable batched decode over `B` equal-sized graphs.
#[derive(Debug)]
pub struct BatchRollout {
    /// Emitted node sequence `π` per graph, in input order.
    pub sequences: Vec<Vec<NodeId>>,
    /// Per-graph summed log-probabilities as a `[1, B]` tape row; column
    /// `g` is `Σ_t log p(π_g(t) | π_g(<t), G_g)`.
    pub log_probs: Var,
}

/// The LSTM pointer network with its trainable parameters.
#[derive(Debug, Clone)]
pub struct PtrNetPolicy {
    config: PolicyConfig,
    params: Params,
}

impl PtrNetPolicy {
    /// Creates a policy with freshly initialized weights.
    pub fn new(config: PolicyConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden;
        let feat = config.embedding.feature_dim();
        let mut params = Params::new();
        params.insert("proj.w", init::xavier_uniform(h, feat, &mut rng));
        LstmSpec::new("enc", h, h).register(&mut params, &mut rng);
        LstmSpec::new("dec", h, h).register(&mut params, &mut rng);
        AttentionSpec::new("glimpse", h).register(&mut params, &mut rng);
        AttentionSpec::new("pointer", h).register(&mut params, &mut rng);
        params.insert("dec0", init::uniform(h, 1, 0.05, &mut rng));
        PtrNetPolicy { config, params }
    }

    /// Restores a policy from its configuration and saved weights.
    ///
    /// # Panics
    ///
    /// Panics if `params` is missing any registered weight (checked on
    /// first use).
    pub fn from_parts(config: PolicyConfig, params: Params) -> Self {
        PtrNetPolicy { config, params }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The trainable parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable access for optimizers.
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn mask_init(&self, dag: &Dag) -> MaskState {
        MaskState::new(dag, self.config.dependency_masking)
    }

    /// Binds the policy's parameters onto a tape. Bind **once** per tape
    /// and share the bindings across a batch of rollouts so gradients
    /// accumulate into the same leaves.
    pub fn bind(&self, tape: &mut Tape) -> Bindings {
        self.params.bind(tape)
    }

    /// Differentiable rollout on `tape` using parameters bound by
    /// [`bind`](PtrNetPolicy::bind).
    ///
    /// # Panics
    ///
    /// Panics if `features` does not match `dag` and the embedding config.
    pub fn rollout(
        &self,
        tape: &mut Tape,
        bindings: &Bindings,
        dag: &Dag,
        features: &Matrix,
        mode: &mut DecodeMode,
    ) -> Rollout {
        let n = dag.len();
        assert_eq!(
            features.shape(),
            (self.config.embedding.feature_dim(), n),
            "feature matrix shape"
        );
        let enc = LstmSpec::new("enc", self.config.hidden, self.config.hidden).bind(bindings);
        let dec = LstmSpec::new("dec", self.config.hidden, self.config.hidden).bind(bindings);
        let glimpse = AttentionSpec::new("glimpse", self.config.hidden).bind(bindings);
        let pointer = AttentionSpec::new("pointer", self.config.hidden).bind(bindings);
        let proj_w = bindings.var("proj.w");

        // project embeddings and encode
        let feats = tape.leaf(features.clone());
        let projected = tape.matmul(proj_w, feats); // [h, n]
        let xs: Vec<Var> = (0..n).map(|i| tape.slice_col(projected, i)).collect();
        let s0 = enc.zero_state(tape);
        let (hs, enc_last) = enc.run(tape, &xs, s0);
        let context = tape.concat_cols(&hs); // [h, n]
        let proj_g = glimpse.project_context(tape, context);
        let proj_p = pointer.project_context(tape, context);

        // decode with pointing
        let mut mask = self.mask_init(dag);
        let mut state = enc_last;
        let mut d = bindings.var("dec0");
        let mut sequence = Vec::with_capacity(n);
        let mut log_prob_total: Option<Var> = None;
        for _ in 0..n {
            state = dec.step(tape, d, state);
            let g = glimpse.glimpse(tape, context, proj_g, state.h, mask.as_slice());
            let scores = pointer.scores(tape, proj_p, g);
            let logp = tape.log_softmax_masked(scores, mask.as_slice());
            let lane = mask.ready.iter().map(|&i| tape.value(logp).get(i, 0));
            let idx = mask.ready[pick_logp(mode, lane.collect())];
            let lp = tape.pick(logp, idx);
            log_prob_total = Some(match log_prob_total {
                None => lp,
                Some(acc) => tape.add(acc, lp),
            });
            let v = NodeId(idx as u32);
            sequence.push(v);
            mask.emit(dag, v);
            d = xs[idx];
        }
        Rollout {
            sequence,
            log_prob: log_prob_total.expect("graphs are nonempty"),
        }
    }

    /// Differentiable **batched** rollout: decodes `B` equal-sized graphs
    /// in lock step, one set of tape ops per decoding step for the whole
    /// batch instead of one per graph. Both attentions score only each
    /// lane's ready frontier: its columns are gathered lane-major into one
    /// `[h, F]` matrix, so cross-lane gradient sums (e.g. of the score
    /// vector `v`) keep the order a dense `[h, B·n]` matrix would give
    /// them. Each graph consumes its own [`DecodeMode`] (`modes[g]`), so
    /// per-graph results — sequences, log-probabilities and gradients
    /// alike — are identical to `B` serial
    /// [`rollout`](PtrNetPolicy::rollout) calls with the same modes (the
    /// determinism tests pin this).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, graphs differ in node count, feature
    /// matrices do not match the embedding config, or
    /// `modes.len() != items.len()`.
    pub fn rollout_batch(
        &self,
        tape: &mut Tape,
        bindings: &Bindings,
        items: &[(&Dag, &Matrix)],
        modes: &mut [DecodeMode],
    ) -> BatchRollout {
        let b = items.len();
        assert!(b > 0, "batch must be nonempty");
        assert_eq!(modes.len(), b, "one decode mode per graph");
        let n = items[0].0.len();
        let feat = self.config.embedding.feature_dim();
        for (dag, features) in items {
            assert_eq!(dag.len(), n, "batched graphs must be equal-sized");
            assert_eq!(features.shape(), (feat, n), "feature matrix shape");
        }
        let enc = LstmSpec::new("enc", self.config.hidden, self.config.hidden).bind(bindings);
        let dec = LstmSpec::new("dec", self.config.hidden, self.config.hidden).bind(bindings);
        let glimpse = AttentionSpec::new("glimpse", self.config.hidden).bind(bindings);
        let pointer = AttentionSpec::new("pointer", self.config.hidden).bind(bindings);
        let proj_w = bindings.var("proj.w");

        // stack features graph-major ([feat, B*n]; graph g owns columns
        // g*n..(g+1)*n) and project the whole batch in one matmul
        let mut stacked = Matrix::zeros(feat, b * n);
        for (g, (_, features)) in items.iter().enumerate() {
            for r in 0..feat {
                for i in 0..n {
                    stacked.set(r, g * n + i, features.get(r, i));
                }
            }
        }
        let feats = tape.leaf(stacked);
        let projected = tape.matmul(proj_w, feats); // [h, B*n]

        // encode all graphs in lock step: step t consumes node t of every
        // graph as one [h, B] input column block
        let s0 = enc.zero_state_batch(tape, b);
        let mut state = s0;
        let mut hs = Vec::with_capacity(n);
        for t in 0..n {
            let cols: Vec<usize> = (0..b).map(|g| g * n + t).collect();
            let x = tape.gather_cols(projected, &cols);
            state = enc.step_batch(tape, x, state);
            hs.push(state.h);
        }
        let enc_last = state;
        // hs concatenated is time-major ([h, n*B], column t*B + g); regroup
        // graph-major so attention sees per-graph context blocks
        let time_major = tape.concat_cols(&hs);
        let perm: Vec<usize> = (0..b * n).map(|c| (c % n) * b + c / n).collect();
        let context = tape.gather_cols(time_major, &perm); // [h, B*n]
        let proj_g = glimpse.project_context(tape, context);
        let proj_p = pointer.project_context(tape, context);

        // decode with pointing, one batched step per output position; both
        // attentions run over each lane's ready frontier only, its columns
        // `cols` lane-major with lane offsets `seg`
        let mut masks: Vec<MaskState> = items.iter().map(|(dag, _)| self.mask_init(dag)).collect();
        let dec0 = bindings.var("dec0");
        let mut d = tape.concat_cols(&vec![dec0; b]); // [h, B]
        let mut state = enc_last;
        let mut sequences = vec![Vec::with_capacity(n); b];
        let mut log_prob_total: Option<Var> = None;
        let (mut cols, mut seg) = (Vec::new(), Vec::with_capacity(b + 1));
        for _ in 0..n {
            state = dec.step_batch(tape, d, state);
            cols.clear();
            seg.clear();
            seg.push(0);
            for (g, mask) in masks.iter().enumerate() {
                cols.extend(mask.ready.iter().map(|&i| g * n + i));
                seg.push(cols.len());
            }
            let g = glimpse.frontier_glimpse(tape, context, proj_g, state.h, &cols, &seg);
            let scores = pointer.frontier_scores(tape, proj_p, g, &cols, &seg);
            let logp = tape.log_softmax_segments(scores, &seg); // [1, F]
            let mut picks = Vec::with_capacity(b);
            let mut next_cols = Vec::with_capacity(b);
            for (g, mode) in modes.iter_mut().enumerate() {
                let lane = &tape.value(logp).as_slice()[seg[g]..seg[g + 1]];
                let k = pick_logp(mode, lane.to_vec());
                picks.push(seg[g] + k);
                let idx = masks[g].ready[k];
                let v = NodeId(idx as u32);
                sequences[g].push(v);
                masks[g].emit(items[g].0, v);
                next_cols.push(g * n + idx);
            }
            let lp = tape.gather_cols(logp, &picks); // [1, B]
            log_prob_total = Some(match log_prob_total {
                None => lp,
                Some(acc) => tape.add(acc, lp),
            });
            d = tape.gather_cols(projected, &next_cols);
        }
        BatchRollout {
            sequences,
            log_probs: log_prob_total.expect("graphs are nonempty"),
        }
    }

    /// Gradient-free greedy/sampled decode for deployment (fast path): the
    /// one-lane call of [`decode_batch`](PtrNetPolicy::decode_batch).
    pub fn decode(&self, dag: &Dag, features: &Matrix, mode: &mut DecodeMode) -> Vec<NodeId> {
        let mut lanes = self.decode_batch(&[(dag, features)], std::slice::from_mut(mode));
        lanes.pop().expect("one lane")
    }

    /// Gradient-free **batched** decode: `B` equal-sized graphs run in lock
    /// step, sharing each step's LSTM and attention-query matmuls. Both
    /// attentions score only a lane's ready frontier (its unmasked nodes in
    /// ascending order): a masked node's softmax weight is exactly `0.0`, so
    /// skipping it leaves every glimpse, score and choice bit-identical to
    /// attending over all `n` nodes, at `O(frontier · h)` per step instead of
    /// `O(n · h)`. Per-graph results match `B` serial
    /// [`decode`](PtrNetPolicy::decode) calls with the same modes.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, graphs differ in node count, feature
    /// matrices do not match the embedding config, or
    /// `modes.len() != items.len()`.
    pub fn decode_batch(
        &self,
        items: &[(&Dag, &Matrix)],
        modes: &mut [DecodeMode],
    ) -> Vec<Vec<NodeId>> {
        let b = items.len();
        assert!(b > 0, "batch must be nonempty");
        assert_eq!(modes.len(), b, "one decode mode per graph");
        let n = items[0].0.len();
        let feat = self.config.embedding.feature_dim();
        for (dag, features) in items {
            assert_eq!(dag.len(), n, "batched graphs must be equal-sized");
            assert_eq!(features.shape(), (feat, n), "feature matrix shape");
        }
        let h = self.config.hidden;
        let p = |name: &str| self.params.get(name).expect("registered weight");
        let (w_enc, b_enc, w_dec, b_dec) = (p("enc.w"), p("enc.b"), p("dec.w"), p("dec.b"));
        let glimpse = RawAttention::new(&self.params, "glimpse");
        let pointer = RawAttention::new(&self.params, "pointer");

        // lanes side by side (lane g owns columns g*n..(g+1)*n), projected at once
        let stacked: Vec<f32> = items
            .iter()
            .flat_map(|(_, f)| f.transpose().into_vec())
            .collect();
        let proj = p("proj.w").matmul(&Matrix::from_vec(b * n, feat, stacked).transpose());

        // encoder, all graphs in lock step; the context is kept node-major
        // ([B*n, h], row g*n + i) so each candidate's entries are contiguous
        let (mut hx, mut cx) = (Matrix::zeros(h, b), Matrix::zeros(h, b));
        let mut context = Matrix::zeros(b * n, h);
        for t in 0..n {
            let cols: Vec<usize> = (0..b).map(|g| g * n + t).collect();
            (hx, cx) = lstm_step_raw(w_enc, b_enc, &proj.gather_cols(&cols), &hx, &cx, h);
            let lanes = hx.transpose();
            for g in 0..b {
                context.as_mut_slice()[(g * n + t) * h..][..h].copy_from_slice(row(&lanes, g));
            }
        }
        // `context @ w_refᵀ` is `(w_ref @ context)ᵀ` bit for bit: the same
        // products, summed in the same order
        let g_ref = context.matmul_tb(glimpse.w_ref);
        let p_ref = context.matmul_tb(pointer.w_ref);

        // decoder
        let mut masks: Vec<MaskState> = items.iter().map(|(dag, _)| self.mask_init(dag)).collect();
        let mut d = p("dec0").gather_cols(&vec![0; b]);
        let mut sequences = vec![Vec::with_capacity(n); b];
        let mut gl = Matrix::zeros(b, h); // glimpses, lane-major
        let mut scores = Vec::with_capacity(n);
        for _ in 0..n {
            (hx, cx) = lstm_step_raw(w_dec, b_dec, &d, &hx, &cx, h);
            // glimpse: the softmax-weighted mix of the frontier's contexts
            let q = glimpse.query(&hx.transpose());
            for (g, mask) in masks.iter().enumerate() {
                glimpse.frontier_scores(&g_ref, &q, g, &mask.ready, &mut scores);
                softmax_in_place(&mut scores);
                let mix = &mut gl.as_mut_slice()[g * h..(g + 1) * h];
                mix.fill(0.0);
                for (&i, &w) in mask.ready.iter().zip(&scores) {
                    for (m, &c) in mix.iter_mut().zip(row(&context, g * n + i)) {
                        *m += c * w;
                    }
                }
            }
            // pointer
            let q = pointer.query(&gl);
            let mut next_cols = Vec::with_capacity(b);
            for (g, mode) in modes.iter_mut().enumerate() {
                let ready = &masks[g].ready;
                pointer.frontier_scores(&p_ref, &q, g, ready, &mut scores);
                let idx = ready[mode.pick(&mut scores, softmax_in_place)];
                let v = NodeId(idx as u32);
                sequences[g].push(v);
                masks[g].emit(items[g].0, v);
                next_cols.push(g * n + idx);
            }
            d = proj.gather_cols(&next_cols);
        }
        sequences
    }
}

/// Visited/ready mask bookkeeping shared by both decode paths.
/// `masked[i] = visited[i] || (dependency && pending_parents[i] > 0)`, and
/// `ready` lists the unmasked nodes in ascending index order.
#[derive(Debug)]
struct MaskState {
    visited: Vec<bool>,
    pending_parents: Vec<usize>,
    dependency: bool,
    masked: Vec<bool>,
    ready: Vec<usize>,
}

impl MaskState {
    fn new(dag: &Dag, dependency: bool) -> Self {
        let pending: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        let masked: Vec<bool> = if dependency {
            pending.iter().map(|&d| d > 0).collect()
        } else {
            vec![false; dag.len()]
        };
        MaskState {
            visited: vec![false; dag.len()],
            pending_parents: pending,
            dependency,
            ready: (0..dag.len()).filter(|&i| !masked[i]).collect(),
            masked,
        }
    }

    fn as_slice(&self) -> &[bool] {
        &self.masked
    }

    fn emit(&mut self, dag: &Dag, v: NodeId) {
        self.visited[v.index()] = true;
        self.masked[v.index()] = true;
        self.ready.retain(|&i| i != v.index());
        if self.dependency {
            for &s in dag.succs(v) {
                self.pending_parents[s.index()] -= 1;
                if self.pending_parents[s.index()] == 0 && !self.visited[s.index()] {
                    self.masked[s.index()] = false;
                    let slot = self.ready.partition_point(|&i| i < s.index());
                    self.ready.insert(slot, s.index());
                }
            }
        }
    }
}

impl DecodeMode {
    /// Picks a position in `values`, the candidates' scores in ascending
    /// node order: the first maximum when greedy, else a draw from the
    /// probabilities `to_probs` turns them into.
    fn pick(&mut self, values: &mut [f32], to_probs: fn(&mut [f32])) -> usize {
        assert!(!values.is_empty(), "at least one unmasked candidate");
        match self {
            DecodeMode::Greedy => {
                (0..values.len()).fold(0, |best, k| if values[k] > values[best] { k } else { best })
            }
            DecodeMode::Sample(rng) => {
                to_probs(values);
                let total: f32 = values.iter().sum();
                let mut r = rng.gen_range(0.0..1.0f32) * total;
                for (k, &p) in values.iter().enumerate() {
                    r -= p;
                    if r <= 0.0 {
                        return k;
                    }
                }
                values.len() - 1
            }
        }
    }
}

/// Picks a position among the candidates' normalized log-probabilities
/// `logp`, in ascending node order (the tape rollouts' choice).
fn pick_logp(mode: &mut DecodeMode, mut logp: Vec<f32>) -> usize {
    mode.pick(&mut logp, |lp| lp.iter_mut().for_each(|x| *x = x.exp()))
}

/// Row `i` of a row-major matrix.
fn row(m: &Matrix, i: usize) -> &[f32] {
    &m.as_slice()[i * m.cols()..(i + 1) * m.cols()]
}

/// One raw LSTM step over `B` lanes (`x`, `h`, `c` are `[·, B]`; the bias
/// broadcasts per column). With `B = 1` this is the serial decode step.
fn lstm_step_raw(
    w: &Matrix,
    b: &Matrix,
    x: &Matrix,
    h: &Matrix,
    c: &Matrix,
    hidden: usize,
) -> (Matrix, Matrix) {
    let cols = x.cols();
    // row-major, so stacking `x` over `h` concatenates their data
    let data = [x.as_slice(), h.as_slice()].concat();
    let xin = Matrix::from_vec(x.rows() + h.rows(), cols, data);
    let mut z = w.matmul(&xin);
    for r in 0..z.rows() {
        let bv = b.get(r, 0);
        for cc in 0..cols {
            z.set(r, cc, z.get(r, cc) + bv);
        }
    }
    let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
    let mut nh = Matrix::zeros(hidden, cols);
    let mut nc = Matrix::zeros(hidden, cols);
    for r in 0..hidden {
        for cc in 0..cols {
            let i = sig(z.get(r, cc));
            let f = sig(z.get(hidden + r, cc));
            let g = z.get(2 * hidden + r, cc).tanh();
            let o = sig(z.get(3 * hidden + r, cc));
            let cv = f * c.get(r, cc) + i * g;
            nc.set(r, cc, cv);
            nh.set(r, cc, o * cv.tanh());
        }
    }
    (nh, nc)
}

/// One additive-attention head's weights, looked up once per decode call.
struct RawAttention<'a> {
    w_ref: &'a Matrix,
    w_q: &'a Matrix,
    v: &'a Matrix,
    b: &'a Matrix,
}

impl<'a> RawAttention<'a> {
    fn new(params: &'a Params, head: &str) -> Self {
        let name = |w: &str| format!("{head}.{w}");
        let p = |w: &str| params.get(&name(w)).expect("registered weight");
        RawAttention {
            w_ref: p("w_ref"),
            w_q: p("w_q"),
            v: p("v"),
            b: p("b"),
        }
    }

    /// The projected queries `w_q @ q + b` for lane-major queries `q`
    /// (`[B, h]`, one row per lane); `q @ w_qᵀ` is `(w_q @ qᵀ)ᵀ` bit for bit.
    fn query(&self, q: &Matrix) -> Matrix {
        let mut qp = q.matmul_tb(self.w_q);
        for row in qp.as_mut_slice().chunks_mut(self.b.len()) {
            for (x, &bv) in row.iter_mut().zip(self.b.as_slice()) {
                *x += bv;
            }
        }
        qp
    }

    /// Writes `u_i = Σ_r v_r · tanh(refs[g*n + i, r] + q[g, r])`, summed in
    /// ascending `r`, for each candidate `i` in `ready` of lane `g` into
    /// `out`. `refs` is the node-major projected context (`[B*n, h]`), `q`
    /// the lane-major queries (`[B, h]`).
    fn frontier_scores(
        &self,
        refs: &Matrix,
        q: &Matrix,
        g: usize,
        ready: &[usize],
        out: &mut Vec<f32>,
    ) {
        let (n, q, v) = (refs.rows() / q.rows(), row(q, g), self.v.as_slice());
        out.clear();
        for &i in ready {
            let mut acc = 0.0f32;
            for ((&p, &qr), &vr) in row(refs, g * n + i).iter().zip(q).zip(v) {
                acc += vr * (p + qr).tanh();
            }
            out.push(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{embed, EmbeddingConfig};
    use respect_graph::models::{densenet121, inception_resnet_v2, resnet50, xception};
    use respect_graph::{topo, SyntheticConfig, SyntheticSampler};
    use respect_nn::tape::masked_softmax;

    fn test_policy() -> PtrNetPolicy {
        PtrNetPolicy::new(PolicyConfig {
            hidden: 16,
            embedding: EmbeddingConfig { max_parents: 2 },
            dependency_masking: true,
            seed: 11,
        })
    }

    fn synthetic(num_nodes: usize, deg: usize, seed: u64) -> Dag {
        let config = SyntheticConfig {
            num_nodes,
            ..SyntheticConfig::paper(deg)
        };
        SyntheticSampler::new(config, seed).sample()
    }

    fn fixture() -> (PtrNetPolicy, Dag, Matrix) {
        let policy = test_policy();
        let dag = synthetic(10, 2, 5);
        let feats = embed(&dag, &policy.config.embedding);
        (policy, dag, feats)
    }

    /// The dense decode the frontier-only kernel replaced: both attentions
    /// score all `n` nodes, masked ones included, and softmaxes run over the
    /// mask. The differential tests pin `decode` and `decode_batch` to it.
    fn dense_decode(
        policy: &PtrNetPolicy,
        dag: &Dag,
        feats: &Matrix,
        mode: &mut DecodeMode,
    ) -> Vec<NodeId> {
        let (n, h) = (dag.len(), policy.config.hidden);
        let p = |name: &str| policy.params.get(name).expect("registered weight");
        let proj = p("proj.w").matmul(feats); // [h, n]
        let (mut hx, mut cx) = (Matrix::zeros(h, 1), Matrix::zeros(h, 1));
        let mut context = Matrix::zeros(h, n);
        for i in 0..n {
            let (nh, nc) =
                lstm_step_raw(p("enc.w"), p("enc.b"), &proj.gather_cols(&[i]), &hx, &cx, h);
            for r in 0..h {
                context.set(r, i, nh.get(r, 0));
            }
            (hx, cx) = (nh, nc);
        }
        let attend = |head: &str, q: &Matrix| {
            let refs = p(&format!("{head}.w_ref")).matmul(&context);
            let qp = p(&format!("{head}.w_q")).matmul(q);
            let (v, b) = (p(&format!("{head}.v")), p(&format!("{head}.b")));
            let mut u = Matrix::zeros(n, 1);
            for r in 0..h {
                for i in 0..n {
                    let t = (refs.get(r, i) + (qp.get(r, 0) + b.get(r, 0))).tanh();
                    u.set(i, 0, u.get(i, 0) + v.get(r, 0) * t);
                }
            }
            u
        };
        let mut mask = policy.mask_init(dag);
        let mut d = p("dec0").clone();
        let mut sequence = Vec::with_capacity(n);
        for _ in 0..n {
            (hx, cx) = lstm_step_raw(p("dec.w"), p("dec.b"), &d, &hx, &cx, h);
            let gprobs = masked_softmax(&attend("glimpse", &hx), mask.as_slice());
            let mut u = attend("pointer", &context.matmul(&gprobs));
            if let DecodeMode::Sample(_) = mode {
                u = masked_softmax(&u, mask.as_slice());
            }
            let open: Vec<usize> = (0..n).filter(|&i| !mask.as_slice()[i]).collect();
            let mut values: Vec<f32> = open.iter().map(|&i| u.get(i, 0)).collect();
            let v = NodeId(open[mode.pick(&mut values, |_| {})] as u32);
            sequence.push(v);
            mask.emit(dag, v);
            d = proj.gather_cols(&[v.index()]);
        }
        sequence
    }

    /// Asserts single-lane and batched decode reproduce [`dense_decode`]
    /// on `dags` (batched in one call) for every mode `mode(lane)` yields.
    fn assert_matches_dense(
        policy: &PtrNetPolicy,
        dags: &[Dag],
        mode: impl Fn(usize) -> DecodeMode,
    ) {
        let emb = policy.config.embedding;
        let feats: Vec<Matrix> = dags.iter().map(|d| embed(d, &emb)).collect();
        let refs: Vec<(&Dag, &Matrix)> = dags.iter().zip(&feats).collect();
        let mut modes: Vec<DecodeMode> = (0..dags.len()).map(&mode).collect();
        let batched = policy.decode_batch(&refs, &mut modes);
        for (g, (dag, f)) in refs.iter().enumerate() {
            let dense = dense_decode(policy, dag, f, &mut mode(g));
            assert_eq!(policy.decode(dag, f, &mut mode(g)), dense, "lane {g}");
            assert_eq!(batched[g], dense, "batched lane {g}");
        }
    }

    #[test]
    fn frontier_decode_matches_dense_decode_on_synthetic_graphs() {
        let (policy, _, _) = fixture();
        for dependency_masking in [true, false] {
            let config = PolicyConfig {
                dependency_masking,
                ..policy.config
            };
            let policy = PtrNetPolicy::from_parts(config, policy.params.clone());
            for (k, num_nodes) in [10, 23, 64, 200].into_iter().enumerate() {
                let dags: Vec<Dag> = (0..3)
                    .map(|lane| synthetic(num_nodes, 2 + (k + lane) % 5, (100 * k + lane) as u64))
                    .collect();
                assert_matches_dense(&policy, &dags, |_| DecodeMode::Greedy);
                for seed in [1u64, 2, 3] {
                    assert_matches_dense(&policy, &dags, |g| {
                        DecodeMode::sample_seeded(seed * 31 + g as u64)
                    });
                }
            }
        }
    }

    #[test]
    fn frontier_decode_matches_dense_decode_on_zoo_models() {
        let (policy, _, _) = fixture();
        for dag in [xception(), resnet50(), densenet121(), inception_resnet_v2()] {
            assert_matches_dense(&policy, &[dag], |_| DecodeMode::Greedy);
        }
    }

    #[test]
    fn greedy_decode_is_a_topological_permutation() {
        let (policy, dag, feats) = fixture();
        let seq = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        assert!(topo::is_topological_order(&dag, &seq));
    }

    #[test]
    fn sampled_decode_is_valid_and_varies() {
        let (policy, dag, feats) = fixture();
        let a = policy.decode(&dag, &feats, &mut DecodeMode::sample_seeded(1));
        let b = policy.decode(&dag, &feats, &mut DecodeMode::sample_seeded(2));
        assert!(topo::is_topological_order(&dag, &a));
        assert!(topo::is_topological_order(&dag, &b));
        // with 10 nodes two seeds almost surely differ
        assert_ne!(a, b);
    }

    #[test]
    fn rollout_matches_decode_in_greedy_mode() {
        let (policy, dag, feats) = fixture();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let rollout = policy.rollout(&mut tape, &bindings, &dag, &feats, &mut DecodeMode::Greedy);
        let raw = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        assert_eq!(rollout.sequence, raw, "tape and raw paths must agree");
    }

    #[test]
    fn rollout_log_prob_is_negative_and_differentiable() {
        let (policy, dag, feats) = fixture();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let rollout = policy.rollout(&mut tape, &bindings, &dag, &feats, &mut DecodeMode::Greedy);
        let lp = tape.value(rollout.log_prob).get(0, 0);
        assert!(lp < 0.0, "log prob of a 10-step decode must be < 0");
        let loss = tape.scale(rollout.log_prob, -1.0);
        tape.backward(loss);
        let g = bindings.grads(&tape);
        let total: f32 = g.iter().map(|m| m.max_abs()).sum();
        assert!(total > 0.0, "gradients must reach the parameters");
    }

    #[test]
    fn without_dependency_masking_sequence_is_a_permutation() {
        let (policy, dag, feats) = fixture();
        let config = PolicyConfig {
            dependency_masking: false,
            ..*policy.config()
        };
        let policy = PtrNetPolicy::new(config);
        let seq = policy.decode(&dag, &feats, &mut DecodeMode::Greedy);
        let mut sorted: Vec<_> = seq.iter().map(|v| v.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..dag.len()).collect::<Vec<_>>());
    }

    #[test]
    fn generalizes_to_larger_graphs_than_trained_shape() {
        let (policy, _, _) = fixture();
        let big = synthetic(60, 3, 9);
        let feats = embed(&big, &policy.config().embedding);
        let seq = policy.decode(&big, &feats, &mut DecodeMode::Greedy);
        assert!(topo::is_topological_order(&big, &seq));
    }

    fn batch_fixture(count: usize) -> (PtrNetPolicy, Vec<(Dag, Matrix)>) {
        let policy = test_policy();
        let items = (0..count)
            .map(|i| {
                let dag = synthetic(10, 2 + i % 3, 40 + i as u64);
                let feats = embed(&dag, &policy.config.embedding);
                (dag, feats)
            })
            .collect();
        (policy, items)
    }

    #[test]
    fn decode_batch_matches_serial_decode() {
        let (policy, items) = batch_fixture(4);
        let dags: Vec<Dag> = items.into_iter().map(|(dag, _)| dag).collect();
        assert_matches_dense(&policy, &dags, |_| DecodeMode::Greedy);
        assert_matches_dense(&policy, &dags, |g| {
            DecodeMode::sample_seeded(100 + g as u64)
        });
    }

    #[test]
    fn rollout_batch_matches_serial_rollout() {
        let (policy, items) = batch_fixture(3);
        let refs: Vec<(&Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
        let mut modes: Vec<DecodeMode> = (0..3)
            .map(|g| DecodeMode::sample_seeded(7 + g as u64))
            .collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes);
        assert_eq!(tape.value(batch.log_probs).shape(), (1, 3));
        for (g, (dag, feats)) in items.iter().enumerate() {
            let mut t = Tape::new();
            let b = policy.bind(&mut t);
            let serial = policy.rollout(
                &mut t,
                &b,
                dag,
                feats,
                &mut DecodeMode::sample_seeded(7 + g as u64),
            );
            assert_eq!(batch.sequences[g], serial.sequence, "lane {g} sequence");
            let lp_batch = tape.value(batch.log_probs).get(0, g);
            let lp_serial = t.value(serial.log_prob).get(0, 0);
            assert_eq!(
                lp_batch.to_bits(),
                lp_serial.to_bits(),
                "lane {g} log-prob: batched {lp_batch} vs serial {lp_serial}"
            );
        }
    }

    #[test]
    fn rollout_batch_gradients_flow() {
        let (policy, items) = batch_fixture(2);
        let refs: Vec<(&Dag, &Matrix)> = items.iter().map(|(d, f)| (d, f)).collect();
        let mut modes: Vec<DecodeMode> = (0..2).map(|_| DecodeMode::Greedy).collect();
        let mut tape = Tape::new();
        let bindings = policy.bind(&mut tape);
        let batch = policy.rollout_batch(&mut tape, &bindings, &refs, &mut modes);
        let loss0 = tape.sum(batch.log_probs);
        let loss = tape.scale(loss0, -1.0);
        tape.backward(loss);
        let g = bindings.grads(&tape);
        let total: f32 = g.iter().map(|m| m.max_abs()).sum();
        assert!(total > 0.0, "gradients must reach the parameters");
    }

    #[test]
    fn deterministic_weights_per_seed() {
        let a = PtrNetPolicy::new(PolicyConfig::small(8));
        let b = PtrNetPolicy::new(PolicyConfig::small(8));
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn paper_config_uses_256_cells() {
        let c = PolicyConfig::paper();
        assert_eq!(c.hidden, 256);
        assert!(c.dependency_masking);
    }
}
