//! Dense row-major `f32` matrix used by the autodiff tape.
//!
//! Column vectors are `(n, 1)` matrices; scalars are `(1, 1)`. The
//! operations here are the *non*-differentiable building blocks; the
//! differentiable graph lives in [`crate::tape`].

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Column vector from a slice.
    pub fn col_from_slice(v: &[f32]) -> Self {
        Matrix::from_vec(v.len(), 1, v.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow the row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// `self @ other`.
    ///
    /// A column-vector `other` takes a dot-product path (it dominates LSTM
    /// inference); wider products run the blocked kernel, which
    /// skips terms whose left factor is `0.0`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if n == 1 {
            let mut out = Matrix::zeros(m, 1);
            let x = other.data.as_slice();
            for i in 0..m {
                let row = &self.data[i * k..(i + 1) * k];
                let mut acc = 0.0f32;
                for (a, b) in row.iter().zip(x) {
                    acc += a * b;
                }
                out.data[i] = acc;
            }
            return out;
        }
        gemm::<true>(m, k, n, |i, p| self.data[i * k + p], &other.data)
    }

    /// `selfᵀ @ other` without materializing the transpose; skips terms
    /// whose left factor is `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_ta(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_ta row dimension");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        gemm::<true>(m, k, n, |i, p| self.data[p * m + i], &other.data)
    }

    /// `self @ otherᵀ`. `other` is transposed once up front so the blocked
    /// kernel reads it row by row; a single row `self` skips that copy and
    /// runs as the matrix-vector product `other @ selfᵀ`, whose dot
    /// products sum the same terms in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_tb(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_tb col dimension");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        if m == 1 {
            let col = Matrix::from_vec(k, 1, self.data.clone());
            return Matrix::from_vec(1, n, other.matmul(&col).data);
        }
        gemm::<false>(
            m,
            k,
            n,
            |i, p| self.data[i * k + p],
            &other.transpose().data,
        )
    }

    /// Gathers columns `cols[j]` into a new `[rows, cols.len()]` matrix.
    /// Shared forward kernel of the batched tape op and the gradient-free
    /// batched decode (their bitwise agreement depends on sharing it).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_cols(&self, cols: &[usize]) -> Matrix {
        assert!(
            cols.iter().all(|&c| c < self.cols),
            "gather column out of range"
        );
        let mut out = Matrix::zeros(self.rows, cols.len());
        for (orow, row) in out
            .data
            .chunks_exact_mut(cols.len().max(1))
            .zip(self.data.chunks_exact(self.cols.max(1)))
        {
            for (o, &c) in orow.iter_mut().zip(cols) {
                *o = row[c];
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Elementwise binary zip.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element (0 for empty matrices).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

/// Output columns one [`gemm`] block accumulates in a local array.
const BLOCK: usize = 16;

/// The blocked matmul kernel: `out[i, j] = Σ_p a(i, p) · other[p, j]` for
/// an `[m, k]` left operand read through `a` and a row-major `[k, n]`
/// right operand `other`.
///
/// Each output is summed from `0.0` over ascending `p`, so it equals a
/// plain triple loop's result bit for bit (the tests keep such loops as
/// oracles). A block of [`BLOCK`] outputs of one row stays in a local
/// array, which the compiler keeps in registers, for the whole `p` loop.
/// With `SKIP_ZERO`, terms whose `a(i, p)` is `0.0` are skipped.
fn gemm<const SKIP_ZERO: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    other: &[f32],
) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return out;
    }
    for (i, orow) in out.data.chunks_exact_mut(n).enumerate() {
        let mut blocks = orow.chunks_exact_mut(BLOCK);
        for (bi, oblock) in blocks.by_ref().enumerate() {
            let j0 = bi * BLOCK;
            let mut acc = [0.0f32; BLOCK];
            for p in 0..k {
                let x = a(i, p);
                if SKIP_ZERO && x == 0.0 {
                    continue;
                }
                let brow: &[f32; BLOCK] = other[p * n + j0..][..BLOCK]
                    .try_into()
                    .expect("block width");
                for (o, &b) in acc.iter_mut().zip(brow) {
                    *o += x * b;
                }
            }
            oblock.copy_from_slice(&acc);
        }
        let tail = blocks.into_remainder();
        if tail.is_empty() {
            continue;
        }
        let j0 = n - tail.len();
        for p in 0..k {
            let x = a(i, p);
            if SKIP_ZERO && x == 0.0 {
                continue;
            }
            for (o, &b) in tail.iter_mut().zip(&other[p * n + j0..(p + 1) * n]) {
                *o += x * b;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_ta_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 4., 2., 5., 3., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(a.matmul_ta(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_tb_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_tb(&b), a.matmul(&b.transpose()));
    }

    /// The naive `i`-`p`-`j` loop `matmul` and `matmul_ta` ran before the
    /// blocked kernel; `a(i, p)` reads the left operand.
    fn naive_ipj(m: usize, k: usize, b: &Matrix, a: impl Fn(usize, usize) -> f32) -> Matrix {
        let n = b.cols;
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let x = a(i, p);
                if x == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.data[i * n + j] += x * b.data[p * n + j];
                }
            }
        }
        out
    }

    /// The naive dot-product loop `matmul_tb` ran before the blocked kernel.
    fn naive_matmul_tb(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows, a.cols, b.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data[i * k + p] * b.data[j * k + p];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Deterministic test data with roughly one entry in four exactly
    /// zero (half of those `-0.0`), exercising the zero skip.
    fn odd_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((state >> 11) % 20_000) as f32 / 7_000.0 - 1.4,
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (e, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {e}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_kernels_match_naive_loops_bitwise() {
        let shapes = [
            (1, 1, 1),
            (3, 5, 1),
            (1, 7, 2),
            (7, 13, 17),
            (16, 16, 16),
            (5, 3, 33),
            (4, 0, 3),
            (9, 31, 47),
            (128, 64, 16),
        ];
        for (s, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = 10 * s as u64;
            let a = odd_matrix(m, k, seed + 1);
            let b = odd_matrix(k, n, seed + 2);
            let what = format!("matmul [{m},{k}]@[{k},{n}]");
            let want = naive_ipj(m, k, &b, |i, p| a.data[i * k + p]);
            assert_bits_eq(&a.matmul(&b), &want, &what);

            let at = odd_matrix(k, m, seed + 3);
            let what = format!("matmul_ta [{k},{m}]ᵀ@[{k},{n}]");
            let want = naive_ipj(m, k, &b, |i, p| at.data[p * m + i]);
            assert_bits_eq(&at.matmul_ta(&b), &want, &what);

            let bt = odd_matrix(n, k, seed + 4);
            let what = format!("matmul_tb [{m},{k}]·[{n},{k}]ᵀ");
            assert_bits_eq(&a.matmul_tb(&bt), &naive_matmul_tb(&a, &bt), &what);
        }
    }

    #[test]
    fn gather_cols_copies_requested_columns() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let g = m.gather_cols(&[2, 0, 2]);
        assert_eq!(g.shape(), (2, 3));
        assert_eq!(g.as_slice(), &[3., 1., 3., 6., 4., 6.]);
        assert_eq!(m.gather_cols(&[]).shape(), (2, 0));
    }

    #[test]
    #[should_panic(expected = "gather column out of range")]
    fn gather_cols_out_of_range_panics() {
        Matrix::zeros(2, 3).gather_cols(&[3]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn sum_and_max_abs() {
        let m = Matrix::from_vec(1, 3, vec![-4.0, 1.0, 2.0]);
        assert_eq!(m.sum(), -1.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    proptest! {
        #[test]
        fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((seed.wrapping_mul(i as u64 + 1) % 97) as f32) - 48.0)
                .collect();
            let m = Matrix::from_vec(rows, cols, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity_preserves(n in 1usize..6, seed in 0u64..1000) {
            let mut id = Matrix::zeros(n, n);
            for i in 0..n { id.set(i, i, 1.0); }
            let data: Vec<f32> = (0..n * n)
                .map(|i| ((seed.wrapping_mul(i as u64 + 3) % 23) as f32) / 7.0)
                .collect();
            let m = Matrix::from_vec(n, n, data);
            prop_assert_eq!(m.matmul(&id), m.clone());
            prop_assert_eq!(id.matmul(&m), m);
        }

        #[test]
        fn matmul_is_linear_in_first_arg(n in 1usize..5, s in 0u64..100) {
            let gen = |off: u64| -> Matrix {
                Matrix::from_vec(n, n, (0..n*n)
                    .map(|i| ((s.wrapping_mul(i as u64 + off) % 13) as f32) - 6.0)
                    .collect())
            };
            let (a, b, c) = (gen(1), gen(2), gen(3));
            let lhs = {
                let mut ab = a.clone();
                ab.add_assign(&b);
                ab.matmul(&c)
            };
            let mut rhs = a.matmul(&c);
            rhs.add_assign(&b.matmul(&c));
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
