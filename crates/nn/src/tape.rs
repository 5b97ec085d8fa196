//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records every operation of a forward pass; [`Tape::backward`]
//! walks the tape in reverse, accumulating gradients. The op set is exactly
//! what an LSTM pointer network needs: affine maps, gate nonlinearities,
//! row slicing/concatenation for fused LSTM gates, masked (log-)softmax for
//! pointer decoding with visited-node masking (paper, Algorithm 1: "logits
//! of the nodes that appeared in the solution are set to −∞"), and scalar
//! reductions for the REINFORCE loss.
//!
//! Batched rollouts use the lane-segment ops instead of masks: each lane
//! gathers only its unmasked columns, so masked nodes never enter the
//! attention ops (see the batched-primitives section below).
//!
//! Gradients are checked against central finite differences in this
//! module's tests, op by op and through a full LSTM + attention chain.

use crate::tensor::Matrix;

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Large negative logit standing in for −∞; keeps softmax NaN-free.
pub const NEG_INF_LOGIT: f32 = -1.0e9;

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    MatMulTA(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    AddColBroadcast(Var, Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    ConcatRows(Var, Var),
    ConcatCols(Vec<Var>),
    SliceCol(Var, usize),
    SliceRows(Var, usize, usize),
    Transpose(Var),
    Sum(Var),
    SoftmaxMaskedCol(Var, Vec<bool>),
    LogSoftmaxMaskedCol(Var, Vec<bool>),
    Pick(Var, usize),
    // batched primitives (lane columns and lane segments)
    GatherCols(Var, Vec<usize>),
    AddSegmentBroadcast(Var, Var, Vec<usize>),
    SoftmaxSegments(Var, Vec<usize>),
    LogSoftmaxSegments(Var, Vec<usize>),
    SegmentMatVec(Var, Var, Vec<usize>),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    op: Op,
}

/// Autodiff tape. See the [module docs](self) and the crate-level example.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Matrix>,
    grads_valid: bool,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.grads_valid = false;
        let id = Var(self.nodes.len());
        self.nodes.push(Node { value, op });
        id
    }

    /// Records an input value (parameter or constant). Gradients are
    /// accumulated for every leaf; the caller decides which ones to use.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`backward`](Tape::backward) target w.r.t.
    /// `v`.
    ///
    /// # Panics
    ///
    /// Panics if `backward` has not been called since the last recorded op.
    pub fn grad(&self, v: Var) -> &Matrix {
        assert!(self.grads_valid, "call backward() before grad()");
        &self.grads[v.0]
    }

    // --- differentiable ops ------------------------------------------------

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a, b))
    }

    /// `aᵀ @ b` (used for pointer scores `vᵀ tanh(...)`).
    pub fn matmul_ta(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.matmul_ta(&self.nodes[b.0].value);
        self.push(v, Op::MatMulTA(a, b))
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise `a * b` (Hadamard).
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(v, Op::MulElem(a, b))
    }

    /// `a * k` for a constant scalar `k` (no gradient flows into `k`).
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * k);
        self.push(v, Op::Scale(a, k))
    }

    /// Adds column vector `v` to every column of `m` (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics unless `v` is `(m.rows, 1)`.
    pub fn add_col_broadcast(&mut self, m: Var, v: Var) -> Var {
        let (mm, vv) = (&self.nodes[m.0].value, &self.nodes[v.0].value);
        assert_eq!(vv.shape(), (mm.rows(), 1), "broadcast vector shape");
        let mut out = mm.clone();
        for r in 0..out.rows() {
            let b = vv.get(r, 0);
            for c in 0..out.cols() {
                out.set(r, c, out.get(r, c) + b);
            }
        }
        self.push(out, Op::AddColBroadcast(m, v))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Stacks `a` on top of `b` (same column count).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.cols(), bv.cols(), "concat column mismatch");
        let mut data = Vec::with_capacity(av.len() + bv.len());
        data.extend_from_slice(av.as_slice());
        data.extend_from_slice(bv.as_slice());
        let v = Matrix::from_vec(av.rows() + bv.rows(), av.cols(), data);
        self.push(v, Op::ConcatRows(a, b))
    }

    /// Concatenates column vectors (or equal-height matrices) side by
    /// side — e.g. assembling the encoder context matrix `C` from
    /// per-step hidden states.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is empty or heights differ.
    pub fn concat_cols(&mut self, cols: &[Var]) -> Var {
        assert!(!cols.is_empty(), "concat_cols needs at least one column");
        let rows = self.nodes[cols[0].0].value.rows();
        let total_cols: usize = cols
            .iter()
            .map(|&c| {
                let m = &self.nodes[c.0].value;
                assert_eq!(m.rows(), rows, "column height mismatch");
                m.cols()
            })
            .sum();
        let mut out = Matrix::zeros(rows, total_cols);
        let mut at = 0;
        for &c in cols {
            let m = &self.nodes[c.0].value;
            for r in 0..rows {
                for cc in 0..m.cols() {
                    out.set(r, at + cc, m.get(r, cc));
                }
            }
            at += m.cols();
        }
        self.push(out, Op::ConcatCols(cols.to_vec()))
    }

    /// Column `col` of `a` as a column vector (e.g. extracting one node's
    /// projected embedding from the `[h, n]` projection matrix).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn slice_col(&mut self, a: Var, col: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert!(col < av.cols(), "column out of range");
        let mut out = Matrix::zeros(av.rows(), 1);
        for r in 0..av.rows() {
            out.set(r, 0, av.get(r, col));
        }
        self.push(out, Op::SliceCol(a, col))
    }

    /// Rows `start..start + len` of `a` (LSTM gate splitting).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `a`'s rows.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert!(start + len <= av.rows(), "row slice out of range");
        let cols = av.cols();
        let data = av.as_slice()[start * cols..(start + len) * cols].to_vec();
        let v = Matrix::from_vec(len, cols, data);
        self.push(v, Op::SliceRows(a, start, len))
    }

    /// Transposed copy of `a`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Sum of all elements, as a `(1, 1)` scalar.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.sum()]);
        self.push(v, Op::Sum(a))
    }

    /// Masked softmax over a column vector; `mask[i] == true` excludes
    /// entry `i` (its probability is exactly 0).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column vector of `mask.len()` rows, or if
    /// every entry is masked.
    pub fn softmax_masked(&mut self, a: Var, mask: &[bool]) -> Var {
        let v = masked_softmax(&self.nodes[a.0].value, mask);
        self.push(v, Op::SoftmaxMaskedCol(a, mask.to_vec()))
    }

    /// Masked log-softmax over a column vector; masked entries get
    /// [`NEG_INF_LOGIT`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`softmax_masked`](Tape::softmax_masked).
    pub fn log_softmax_masked(&mut self, a: Var, mask: &[bool]) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.cols(), 1, "log_softmax on column vectors");
        assert_eq!(av.rows(), mask.len(), "mask length");
        let lse = masked_log_sum_exp(av, mask);
        let mut out = Matrix::zeros(av.rows(), 1);
        for (i, &masked) in mask.iter().enumerate() {
            let y = if masked {
                NEG_INF_LOGIT
            } else {
                av.get(i, 0) - lse
            };
            out.set(i, 0, y);
        }
        self.push(out, Op::LogSoftmaxMaskedCol(a, mask.to_vec()))
    }

    /// Element `i` of a column vector, as a `(1, 1)` scalar.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column vector or `i` is out of range.
    pub fn pick(&mut self, a: Var, i: usize) -> Var {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.cols(), 1, "pick on column vectors");
        let v = Matrix::from_vec(1, 1, vec![av.get(i, 0)]);
        self.push(v, Op::Pick(a, i))
    }

    // --- batched primitives ------------------------------------------------
    //
    // A batch of `B` lanes (graphs) is laid out either as `[h, B]`, one
    // state column per lane, or as lane **segments**: the columns of an
    // `[h, F]` (or `[1, F]`) matrix grouped lane-major, lane `g` owning
    // columns `seg[g]..seg[g + 1]` (`seg` has `B + 1` nondecreasing
    // offsets from `0` to `F`). The rollout's segments are each lane's
    // ready frontier. Per-lane arithmetic matches the unbatched ops
    // exactly (same terms, same accumulation order), so a batched rollout
    // reproduces the serial one bit for bit.

    /// Gathers columns `cols[j]` of `a` into a new `[rows, cols.len()]`
    /// matrix (e.g. one node embedding per batch lane); the forward
    /// kernel is [`Matrix::gather_cols`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_cols(&mut self, a: Var, cols: &[usize]) -> Var {
        let out = self.nodes[a.0].value.gather_cols(cols);
        self.push(out, Op::GatherCols(a, cols.to_vec()))
    }

    /// Adds column `g` of `q` (`[h, B]`) to every column of segment `g` of
    /// `m` (`[h, F]`) — the segmented form of
    /// [`add_col_broadcast`](Tape::add_col_broadcast).
    ///
    /// # Panics
    ///
    /// Panics unless heights match and `seg` segments `m` into `q.cols()`
    /// lanes.
    pub fn add_segment_broadcast(&mut self, m: Var, q: Var, seg: &[usize]) -> Var {
        let (mm, qq) = (&self.nodes[m.0].value, &self.nodes[q.0].value);
        assert_eq!(mm.rows(), qq.rows(), "broadcast height mismatch");
        assert_eq!(seg.len(), qq.cols() + 1, "one segment per lane");
        check_segments(seg, mm.cols());
        let mut out = mm.clone();
        let f = out.cols();
        for (r, orow) in out.as_mut_slice().chunks_exact_mut(f.max(1)).enumerate() {
            for (g, lane) in seg.windows(2).enumerate() {
                let b = qq.get(r, g);
                for o in &mut orow[lane[0]..lane[1]] {
                    *o += b;
                }
            }
        }
        self.push(out, Op::AddSegmentBroadcast(m, q, seg.to_vec()))
    }

    /// Softmax over each segment of the row `a` (`[1, F]`); each segment
    /// reproduces [`softmax_masked`](Tape::softmax_masked) at its lane's
    /// unmasked entries bit for bit.
    ///
    /// # Panics
    ///
    /// Panics unless `a` is a row that `seg` segments, or if a segment is
    /// empty.
    pub fn softmax_segments(&mut self, a: Var, seg: &[usize]) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        check_row_segments(&out, seg);
        for lane in seg.windows(2) {
            softmax_in_place(&mut out.as_mut_slice()[lane[0]..lane[1]]);
        }
        self.push(out, Op::SoftmaxSegments(a, seg.to_vec()))
    }

    /// Log-softmax over each segment of the row `a` (`[1, F]`); the
    /// segmented form of [`log_softmax_masked`](Tape::log_softmax_masked).
    ///
    /// # Panics
    ///
    /// Same conditions as [`softmax_segments`](Tape::softmax_segments).
    pub fn log_softmax_segments(&mut self, a: Var, seg: &[usize]) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        check_row_segments(&out, seg);
        for lane in seg.windows(2) {
            let x = &mut out.as_mut_slice()[lane[0]..lane[1]];
            let lse = log_sum_exp(x);
            for e in x {
                *e -= lse;
            }
        }
        self.push(out, Op::LogSoftmaxSegments(a, seg.to_vec()))
    }

    /// Per-segment matrix-vector product (the batched glimpse
    /// contraction): with `c` `[h, F]` and weights `p` `[1, F]`, returns
    /// `[h, B]` whose column `g` is `Σ_j c[:, j] · p[0, j]` over segment
    /// `g`, summed in ascending `j` like [`Matrix::matmul`]'s column-vector
    /// path.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is a row that `seg` segments and `c` has as many
    /// columns.
    pub fn segment_matvec(&mut self, c: Var, p: Var, seg: &[usize]) -> Var {
        let (cv, pv) = (&self.nodes[c.0].value, &self.nodes[p.0].value);
        check_row_segments(pv, seg);
        assert_eq!(cv.cols(), pv.cols(), "segment matvec width mismatch");
        let (h, f, b) = (cv.rows(), cv.cols(), seg.len() - 1);
        let pw = pv.as_slice();
        let mut out = Matrix::zeros(h, b);
        for (r, crow) in cv.as_slice().chunks_exact(f.max(1)).enumerate() {
            for (g, lane) in seg.windows(2).enumerate() {
                let mut acc = 0.0f32;
                for j in lane[0]..lane[1] {
                    acc += crow[j] * pw[j];
                }
                out.set(r, g, acc);
            }
        }
        self.push(out, Op::SegmentMatVec(c, p, seg.to_vec()))
    }

    // --- backward ----------------------------------------------------------

    /// Runs reverse-mode accumulation from scalar `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `(1, 1)`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "scalar loss");
        // nodes are read-only from here on: borrow them beside the grads
        let Tape {
            nodes,
            grads,
            grads_valid,
        } = self;
        *grads = nodes
            .iter()
            .map(|n| Matrix::zeros(n.value.rows(), n.value.cols()))
            .collect();
        grads[loss.0].set(0, 0, 1.0);
        for idx in (0..nodes.len()).rev() {
            let g = std::mem::replace(&mut grads[idx], Matrix::zeros(0, 0));
            if g.max_abs() == 0.0 {
                grads[idx] = g;
                continue;
            }
            match nodes[idx].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = g.matmul_tb(&nodes[b.0].value);
                    let db = nodes[a.0].value.matmul_ta(&g);
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::MatMulTA(a, b) => {
                    // C = Aᵀ B: dA = B gᵀ, dB = A g.
                    let da = nodes[b.0].value.matmul_tb(&g);
                    let db = nodes[a.0].value.matmul(&g);
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::Add(a, b) => {
                    grads[a.0].add_assign(&g);
                    grads[b.0].add_assign(&g);
                }
                Op::Sub(a, b) => {
                    grads[a.0].add_assign(&g);
                    let neg = g.map(|x| -x);
                    grads[b.0].add_assign(&neg);
                }
                Op::MulElem(a, b) => {
                    let da = g.zip(&nodes[b.0].value, |x, y| x * y);
                    let db = g.zip(&nodes[a.0].value, |x, y| x * y);
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::Scale(a, k) => {
                    let da = g.map(|x| x * k);
                    grads[a.0].add_assign(&da);
                }
                Op::AddColBroadcast(m, v) => {
                    grads[m.0].add_assign(&g);
                    let mut dv = Matrix::zeros(g.rows(), 1);
                    for r in 0..g.rows() {
                        let mut s = 0.0;
                        for c in 0..g.cols() {
                            s += g.get(r, c);
                        }
                        dv.set(r, 0, s);
                    }
                    grads[v.0].add_assign(&dv);
                }
                Op::Sigmoid(a) => {
                    let y = &nodes[idx].value;
                    let da = g.zip(y, |gi, yi| gi * yi * (1.0 - yi));
                    grads[a.0].add_assign(&da);
                }
                Op::Tanh(a) => {
                    let y = &nodes[idx].value;
                    let da = g.zip(y, |gi, yi| gi * (1.0 - yi * yi));
                    grads[a.0].add_assign(&da);
                }
                Op::Relu(a) => {
                    let y = &nodes[idx].value;
                    let da = g.zip(y, |gi, yi| if yi > 0.0 { gi } else { 0.0 });
                    grads[a.0].add_assign(&da);
                }
                Op::ConcatRows(a, b) => {
                    let ra = nodes[a.0].value.rows();
                    let cols = g.cols();
                    let (top, bot) = g.as_slice().split_at(ra * cols);
                    let da = Matrix::from_vec(ra, cols, top.to_vec());
                    let db = Matrix::from_vec(g.rows() - ra, cols, bot.to_vec());
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::ConcatCols(ref cols) => {
                    let mut at = 0;
                    for &c in cols {
                        let m_cols = nodes[c.0].value.cols();
                        let rows = g.rows();
                        let mut dc = Matrix::zeros(rows, m_cols);
                        for r in 0..rows {
                            for cc in 0..m_cols {
                                dc.set(r, cc, g.get(r, at + cc));
                            }
                        }
                        grads[c.0].add_assign(&dc);
                        at += m_cols;
                    }
                }
                Op::SliceCol(a, col) => {
                    let ga = &mut grads[a.0];
                    for r in 0..g.rows() {
                        let cur = ga.get(r, col);
                        ga.set(r, col, cur + g.get(r, 0));
                    }
                }
                Op::SliceRows(a, start, len) => {
                    let cols = g.cols();
                    let ga = &mut grads[a.0];
                    for r in 0..len {
                        for c in 0..cols {
                            let cur = ga.get(start + r, c);
                            ga.set(start + r, c, cur + g.get(r, c));
                        }
                    }
                }
                Op::Transpose(a) => {
                    let da = g.transpose();
                    grads[a.0].add_assign(&da);
                }
                Op::Sum(a) => {
                    let s = g.get(0, 0);
                    let shape = nodes[a.0].value.shape();
                    let da = Matrix::full(shape.0, shape.1, s);
                    grads[a.0].add_assign(&da);
                }
                Op::SoftmaxMaskedCol(a, ref mask) => {
                    let y = &nodes[idx].value;
                    let dot: f32 = (0..y.rows())
                        .filter(|&i| !mask[i])
                        .map(|i| g.get(i, 0) * y.get(i, 0))
                        .sum();
                    let mut da = Matrix::zeros(y.rows(), 1);
                    for (i, &masked) in mask.iter().enumerate() {
                        if !masked {
                            da.set(i, 0, y.get(i, 0) * (g.get(i, 0) - dot));
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::LogSoftmaxMaskedCol(a, ref mask) => {
                    let y = &nodes[idx].value;
                    let gsum: f32 = (0..y.rows())
                        .filter(|&i| !mask[i])
                        .map(|i| g.get(i, 0))
                        .sum();
                    let mut da = Matrix::zeros(y.rows(), 1);
                    for (i, &masked) in mask.iter().enumerate() {
                        if !masked {
                            da.set(i, 0, g.get(i, 0) - y.get(i, 0).exp() * gsum);
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::Pick(a, i) => {
                    let s = g.get(0, 0);
                    let cur = grads[a.0].get(i, 0);
                    grads[a.0].set(i, 0, cur + s);
                }
                Op::GatherCols(a, ref cols) => {
                    let ga = &mut grads[a.0];
                    for (j, &c) in cols.iter().enumerate() {
                        for r in 0..g.rows() {
                            let cur = ga.get(r, c);
                            ga.set(r, c, cur + g.get(r, j));
                        }
                    }
                }
                Op::AddSegmentBroadcast(m, q, ref seg) => {
                    grads[m.0].add_assign(&g);
                    let mut dq = Matrix::zeros(g.rows(), seg.len() - 1);
                    for r in 0..g.rows() {
                        for (lane, w) in seg.windows(2).enumerate() {
                            let mut s = 0.0;
                            for j in w[0]..w[1] {
                                s += g.get(r, j);
                            }
                            dq.set(r, lane, s);
                        }
                    }
                    grads[q.0].add_assign(&dq);
                }
                Op::SoftmaxSegments(a, ref seg) => {
                    let y = nodes[idx].value.as_slice();
                    let (gs, mut da) = (g.as_slice(), Matrix::zeros(1, y.len()));
                    for w in seg.windows(2) {
                        let lane = w[0]..w[1];
                        let dot: f32 = lane.clone().map(|j| gs[j] * y[j]).sum();
                        for j in lane {
                            da.as_mut_slice()[j] = y[j] * (gs[j] - dot);
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::LogSoftmaxSegments(a, ref seg) => {
                    let y = nodes[idx].value.as_slice();
                    let (gs, mut da) = (g.as_slice(), Matrix::zeros(1, y.len()));
                    for w in seg.windows(2) {
                        let lane = w[0]..w[1];
                        let gsum: f32 = gs[lane.clone()].iter().sum();
                        for j in lane {
                            da.as_mut_slice()[j] = gs[j] - y[j].exp() * gsum;
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::SegmentMatVec(c, p, ref seg) => {
                    let (cv, pw) = (&nodes[c.0].value, nodes[p.0].value.as_slice());
                    let (h, f) = cv.shape();
                    let mut dc = Matrix::zeros(h, f);
                    let mut dp = Matrix::zeros(1, f);
                    for (lane, w) in seg.windows(2).enumerate() {
                        for r in 0..h {
                            let gr = g.get(r, lane);
                            let drow = &mut dc.as_mut_slice()[r * f..][w[0]..w[1]];
                            for (d, &pj) in drow.iter_mut().zip(&pw[w[0]..w[1]]) {
                                *d = gr * pj;
                            }
                        }
                        for j in w[0]..w[1] {
                            let mut s = 0.0;
                            for r in 0..h {
                                s += cv.get(r, j) * g.get(r, lane);
                            }
                            dp.set(0, j, s);
                        }
                    }
                    grads[c.0].add_assign(&dc);
                    grads[p.0].add_assign(&dp);
                }
            }
            grads[idx] = g;
        }
        *grads_valid = true;
    }
}

/// Masked softmax over a column vector (the tape op's forward kernel).
///
/// # Panics
///
/// Panics if `x` is not a column vector matching `mask`, or if every entry
/// is masked.
pub fn masked_softmax(x: &Matrix, mask: &[bool]) -> Matrix {
    assert_eq!(x.cols(), 1, "softmax on column vectors");
    assert_eq!(x.rows(), mask.len(), "mask length");
    assert!(mask.iter().any(|&m| !m), "all entries masked");
    let mx = (0..x.rows())
        .filter(|&i| !mask[i])
        .map(|i| x.get(i, 0))
        .fold(f32::NEG_INFINITY, f32::max);
    let mut out = Matrix::zeros(x.rows(), 1);
    let mut z = 0.0;
    for (i, &masked) in mask.iter().enumerate() {
        if !masked {
            let e = (x.get(i, 0) - mx).exp();
            out.set(i, 0, e);
            z += e;
        }
    }
    for i in 0..x.rows() {
        out.set(i, 0, out.get(i, 0) / z);
    }
    out
}

/// In-place softmax of a slice, reduced in slice order: bit for bit
/// [`masked_softmax`]'s values at the unmasked entries when `x` holds
/// exactly those entries in order.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn softmax_in_place(x: &mut [f32]) {
    assert!(!x.is_empty(), "all entries masked");
    let mx = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for e in x.iter_mut() {
        *e = (*e - mx).exp();
        z += *e;
    }
    for e in x.iter_mut() {
        *e /= z;
    }
}

/// `log Σ exp(x)` reduced in slice order, as the masked log-softmax
/// reduces its unmasked entries.
fn log_sum_exp(x: &[f32]) -> f32 {
    assert!(!x.is_empty(), "all entries masked");
    let mx = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = x.iter().map(|&v| (v - mx).exp()).sum();
    mx + z.ln()
}

/// Asserts `seg` splits `width` columns into ordered lane segments.
fn check_segments(seg: &[usize], width: usize) {
    assert_eq!(seg.first(), Some(&0), "segments start at column 0");
    assert_eq!(seg.last(), Some(&width), "segments cover every column");
    assert!(seg.windows(2).all(|w| w[0] <= w[1]), "segments are ordered");
}

/// Asserts `x` is a row that `seg` splits into nonempty lane segments.
fn check_row_segments(x: &Matrix, seg: &[usize]) {
    assert_eq!(x.rows(), 1, "segment ops take a row vector");
    check_segments(seg, x.cols());
    assert!(seg.windows(2).all(|w| w[0] < w[1]), "all entries masked");
}

fn masked_log_sum_exp(x: &Matrix, mask: &[bool]) -> f32 {
    assert!(mask.iter().any(|&m| !m), "all entries masked");
    let mx = (0..x.rows())
        .filter(|&i| !mask[i])
        .map(|i| x.get(i, 0))
        .fold(f32::NEG_INFINITY, f32::max);
    let z: f32 = (0..x.rows())
        .filter(|&i| !mask[i])
        .map(|i| (x.get(i, 0) - mx).exp())
        .sum();
    mx + z.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks d loss / d leaf against central finite differences.
    fn finite_diff_check(build: impl Fn(&mut Tape, Var) -> Var, input: Matrix, tol: f32) {
        let eps = 1e-3f32;
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).clone();

        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f = |m: Matrix| {
                let mut t = Tape::new();
                let v = t.leaf(m);
                let l = build(&mut t, v);
                t.value(l).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "element {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn test_input(n: usize) -> Matrix {
        Matrix::from_vec(n, 1, (0..n).map(|i| 0.3 * i as f32 - 0.7).collect())
    }

    #[test]
    fn grad_tanh() {
        finite_diff_check(
            |t, x| {
                let y = t.tanh(x);
                t.sum(y)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid() {
        finite_diff_check(
            |t, x| {
                let y = t.sigmoid(x);
                t.sum(y)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_relu() {
        // offset inputs away from the kink at 0
        let input = Matrix::from_vec(4, 1, vec![-1.3, -0.4, 0.6, 1.9]);
        finite_diff_check(
            |t, x| {
                let y = t.relu(x);
                t.sum(y)
            },
            input,
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        let w = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect());
        finite_diff_check(
            move |t, x| {
                let wv = t.leaf(w.clone());
                let y = t.matmul(wv, x);
                let y2 = t.tanh(y);
                t.sum(y2)
            },
            test_input(4),
            1e-2,
        );
        // and gradient w.r.t. the matrix side
        let xfix = test_input(4);
        finite_diff_check(
            move |t, w| {
                let xv = t.leaf(xfix.clone());
                let y = t.matmul(w, xv);
                t.sum(y)
            },
            Matrix::from_vec(2, 4, (0..8).map(|i| 0.2 * i as f32 - 0.6).collect()),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_ta() {
        let b = Matrix::from_vec(4, 2, (0..8).map(|i| 0.15 * i as f32 - 0.4).collect());
        finite_diff_check(
            move |t, a| {
                let bv = t.leaf(b.clone());
                let c = t.matmul_ta(a, bv);
                let c2 = t.tanh(c);
                t.sum(c2)
            },
            Matrix::from_vec(4, 3, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
            1e-2,
        );
    }

    #[test]
    fn grad_add_sub_mul_scale() {
        finite_diff_check(
            |t, x| {
                let a = t.scale(x, 1.7);
                let b = t.mul_elem(a, x);
                let c = t.sub(b, x);
                let d = t.add(c, x);
                t.sum(d)
            },
            test_input(5),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice_transpose() {
        finite_diff_check(
            |t, x| {
                let c = t.concat_rows(x, x);
                let s = t.slice_rows(c, 2, 4);
                let tr = t.transpose(s);
                let tr2 = t.transpose(tr);
                let y = t.tanh(tr2);
                t.sum(y)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_cols() {
        finite_diff_check(
            |t, x| {
                let y = t.scale(x, 2.0);
                let m = t.concat_cols(&[x, y, x]);
                let m2 = t.tanh(m);
                t.sum(m2)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn concat_cols_layout() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::col_from_slice(&[1.0, 2.0]));
        let b = t.leaf(Matrix::col_from_slice(&[3.0, 4.0]));
        let c = t.concat_cols(&[a, b]);
        let v = t.value(c);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.get(0, 1), 3.0);
        assert_eq!(v.get(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn concat_cols_empty_panics() {
        let mut t = Tape::new();
        let _ = t.concat_cols(&[]);
    }

    #[test]
    fn grad_slice_col() {
        finite_diff_check(
            |t, x| {
                let m = t.concat_cols(&[x, x]);
                let c = t.slice_col(m, 1);
                let y = t.tanh(c);
                t.sum(y)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_add_col_broadcast() {
        let m = Matrix::from_vec(3, 2, (0..6).map(|i| 0.1 * i as f32).collect());
        finite_diff_check(
            move |t, v| {
                let mv = t.leaf(m.clone());
                let y = t.add_col_broadcast(mv, v);
                let y2 = t.tanh(y);
                t.sum(y2)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_masked() {
        let mask = vec![false, true, false, false];
        finite_diff_check(
            move |t, x| {
                let y = t.softmax_masked(x, &mask);
                let w = t.leaf(Matrix::col_from_slice(&[0.3, 0.0, -0.8, 1.2]));
                let p = t.mul_elem(y, w);
                t.sum(p)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn grad_log_softmax_masked_via_pick() {
        let mask = vec![false, false, true, false];
        finite_diff_check(
            move |t, x| {
                let y = t.log_softmax_masked(x, &mask);
                t.pick(y, 3)
            },
            test_input(4),
            1e-2,
        );
    }

    #[test]
    fn softmax_masked_sums_to_one_and_zeroes_masked() {
        let x = Matrix::col_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let y = masked_softmax(&x, &[false, true, false, true]);
        assert_eq!(y.get(1, 0), 0.0);
        assert_eq!(y.get(3, 0), 0.0);
        assert!((y.sum() - 1.0).abs() < 1e-6);
        assert!(y.get(2, 0) > y.get(0, 0));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = Matrix::col_from_slice(&[0.5, -1.0, 2.0]);
        let mask = [false, false, false];
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let ls = t.log_softmax_masked(xv, &mask);
        let sm = masked_softmax(&x, &mask);
        for i in 0..3 {
            assert!((t.value(ls).get(i, 0).exp() - sm.get(i, 0)).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "all entries masked")]
    fn softmax_all_masked_panics() {
        let x = Matrix::col_from_slice(&[1.0, 2.0]);
        let _ = masked_softmax(&x, &[true, true]);
    }

    #[test]
    #[should_panic(expected = "call backward")]
    fn grad_before_backward_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(1, 1));
        let _ = t.grad(x);
    }

    #[test]
    fn gradient_accumulates_across_reuse() {
        // loss = sum(x + x) => dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::col_from_slice(&[1.0, 2.0]));
        let y = t.add(x, x);
        let l = t.sum(y);
        t.backward(l);
        assert_eq!(t.grad(x).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn grad_gather_cols() {
        finite_diff_check(
            |t, x| {
                let m = t.concat_cols(&[x, x, x]);
                let gathered = t.gather_cols(m, &[2, 0]);
                let y = t.tanh(gathered);
                t.sum(y)
            },
            test_input(3),
            1e-2,
        );
    }

    #[test]
    fn grad_add_segment_broadcast() {
        let m = Matrix::from_vec(2, 5, (0..10).map(|i| 0.1 * i as f32 - 0.5).collect());
        finite_diff_check(
            move |t, q| {
                let mv = t.leaf(m.clone());
                let q2 = t.scale(q, -0.5);
                let qm = t.concat_cols(&[q, q2]); // [2, 2] query block
                let y = t.add_segment_broadcast(mv, qm, &[0, 3, 5]);
                let y2 = t.tanh(y);
                t.sum(y2)
            },
            Matrix::col_from_slice(&[0.4, -0.2]),
            1e-2,
        );
    }

    #[test]
    fn grad_segment_matvec_both_sides() {
        let seg = [0, 2, 5];
        let p = Matrix::from_vec(1, 5, vec![0.2, 0.8, 0.3, 0.1, 0.6]);
        finite_diff_check(
            move |t, c| {
                let pv = t.leaf(p.clone());
                let g = t.segment_matvec(c, pv, &seg);
                let y = t.tanh(g);
                t.sum(y)
            },
            Matrix::from_vec(2, 5, (0..10).map(|i| 0.07 * i as f32 - 0.3).collect()),
            1e-2,
        );
        let c = Matrix::from_vec(2, 5, (0..10).map(|i| 0.07 * i as f32 - 0.3).collect());
        finite_diff_check(
            move |t, p| {
                let cv = t.leaf(c.clone());
                let row = t.transpose(p); // [1, 5]
                let g = t.segment_matvec(cv, row, &seg);
                let y = t.tanh(g);
                t.sum(y)
            },
            test_input(5),
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_segments() {
        finite_diff_check(
            |t, x| {
                let row = t.transpose(x); // [1, 5]
                let y = t.softmax_segments(row, &[0, 3, 5]);
                let w = t.leaf(Matrix::from_vec(1, 5, vec![0.3, -0.1, 0.7, -0.8, 1.2]));
                let p = t.mul_elem(y, w);
                t.sum(p)
            },
            test_input(5),
            1e-2,
        );
    }

    #[test]
    fn grad_log_softmax_segments() {
        finite_diff_check(
            |t, x| {
                let row = t.transpose(x); // [1, 5]
                let y = t.log_softmax_segments(row, &[0, 2, 5]);
                let picked = t.gather_cols(y, &[1, 2]); // one pick per lane
                t.sum(picked)
            },
            test_input(5),
            1e-2,
        );
    }

    #[test]
    fn batched_softmax_columns_match_unbatched() {
        let a = Matrix::col_from_slice(&[0.4, -1.2, 2.0, 0.1]);
        let b = Matrix::col_from_slice(&[1.5, 0.0, -0.7, 0.9]);
        let mask_a = [false, true, false, false];
        let mask_b = [false, false, false, true];
        // lane segments hold each column's unmasked entries in order
        let open = |x: &Matrix, mask: &[bool]| -> Vec<f32> {
            (0..4).filter(|&i| !mask[i]).map(|i| x.get(i, 0)).collect()
        };
        let row = [open(&a, &mask_a), open(&b, &mask_b)].concat();
        let seg = [0, 3, 6];
        let mut t = Tape::new();
        let rv = t.leaf(Matrix::from_vec(1, 6, row));
        let sm = t.softmax_segments(rv, &seg);
        let ls = t.log_softmax_segments(rv, &seg);
        for (lane, (x, mask)) in [(&a, &mask_a), (&b, &mask_b)].into_iter().enumerate() {
            let xv = t.leaf(x.clone());
            let want_sm = masked_softmax(x, mask);
            let want_ls = t.log_softmax_masked(xv, mask);
            let unmasked = (0..4).filter(|&i| !mask[i]);
            for (j, i) in (seg[lane]..seg[lane + 1]).zip(unmasked) {
                let got = (t.value(sm).get(0, j), t.value(ls).get(0, j));
                assert_eq!(got.0.to_bits(), want_sm.get(i, 0).to_bits());
                assert_eq!(got.1.to_bits(), t.value(want_ls).get(i, 0).to_bits());
            }
        }
    }

    #[test]
    fn segment_matvec_matches_per_lane_matmul() {
        let c = Matrix::from_vec(2, 5, (0..10).map(|i| 0.3 * i as f32 - 1.0).collect());
        let p = Matrix::from_vec(1, 5, vec![0.2, 0.5, 0.3, 0.1, 0.6]);
        let seg = [0, 2, 5];
        let mut t = Tape::new();
        let cv = t.leaf(c.clone());
        let pv = t.leaf(p.clone());
        let out = t.segment_matvec(cv, pv, &seg);
        for lane in 0..2 {
            let cols: Vec<usize> = (seg[lane]..seg[lane + 1]).collect();
            let block = c.gather_cols(&cols);
            let weights = p.gather_cols(&cols).transpose();
            let expect = block.matmul(&weights);
            for r in 0..2 {
                assert_eq!(
                    t.value(out).get(r, lane).to_bits(),
                    expect.get(r, 0).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "all entries masked")]
    fn softmax_segments_rejects_an_empty_lane() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let _ = t.softmax_segments(x, &[0, 2, 2]);
    }

    #[test]
    fn full_lstm_attention_chain_gradcheck() {
        // One LSTM-like gate computation + additive attention scores,
        // differentiated w.r.t. the input vector.
        let hidden = 3;
        let wmat = Matrix::from_vec(
            4 * hidden,
            2 * hidden,
            (0..4 * hidden * 2 * hidden)
                .map(|i| ((i * 37) % 19) as f32 * 0.02 - 0.2)
                .collect(),
        );
        let ctx = Matrix::from_vec(
            hidden,
            4,
            (0..hidden * 4).map(|i| 0.1 * i as f32 - 0.5).collect(),
        );
        finite_diff_check(
            move |t, x| {
                let w = t.leaf(wmat.clone());
                let h0 = t.leaf(Matrix::zeros(hidden, 1));
                let xin = t.concat_rows(x, h0);
                let z = t.matmul(w, xin);
                let i = t.slice_rows(z, 0, hidden);
                let f = t.slice_rows(z, hidden, hidden);
                let g = t.slice_rows(z, 2 * hidden, hidden);
                let o = t.slice_rows(z, 3 * hidden, hidden);
                let ig = t.sigmoid(i);
                let fg = t.sigmoid(f);
                let gg = t.tanh(g);
                let og = t.sigmoid(o);
                let c = t.mul_elem(ig, gg);
                let _ = fg;
                let ct = t.tanh(c);
                let h = t.mul_elem(og, ct);
                // attention scores over 4 context columns
                let cmat = t.leaf(ctx.clone());
                let scores_row = t.matmul_ta(h, cmat);
                let scores = t.transpose(scores_row);
                let probs = t.softmax_masked(scores, &[false; 4]);
                let glimpse = t.matmul(cmat, probs);
                let y = t.tanh(glimpse);
                t.sum(y)
            },
            test_input(3),
            2e-2,
        );
    }
}
