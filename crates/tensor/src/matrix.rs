//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the only dense container in the workspace: embedding tables,
//! propagated layer representations, MLP weights and gradients are all
//! `Matrix` values. Operations are deliberately BLAS-free; the inner loops
//! live in [`crate::kernels`], which provides naive / cache-blocked / AVX2
//! implementations selected by `LRGCN_KERNEL` — all bitwise identical for
//! finite inputs (see that module's determinism contract).
//!
//! The three matmul kernels and the elementwise maps fan out across rows via
//! [`crate::par`]; results are bitwise identical to serial execution for any
//! thread count (each output row is produced by one thread running the same
//! per-row kernel). The `*_with_threads` variants take an explicit thread
//! count; the plain methods use the globally configured one.

use crate::kernels;
use crate::par;
use lrgcn_obs::registry::{self, Counter, Gauge};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows x cols` matrix of `f32` in row-major layout.
///
/// Every construction (including clones) and every drop updates the
/// `tensor.matrix.bytes` gauge in [`lrgcn_obs`], so the peak resident
/// dense-matrix footprint of a run is observable; `Clone` and `Drop` are
/// therefore implemented by hand rather than derived.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self::from_vec(self.rows, self.cols, self.data.clone())
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        registry::gauge_sub(Gauge::MatrixBytes, (self.data.len() * 4) as u64);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// All-`v` matrix.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Self::from_vec(rows, cols, vec![v; rows * cols])
    }

    /// Builds from a row-major buffer. Every `Matrix` is created through
    /// here (or a constructor delegating here), which is what keeps the
    /// alloc counter and byte gauge exact.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        registry::add(Counter::MatrixAllocs, 1);
        registry::gauge_add(Gauge::MatrixBytes, (data.len() * 4) as u64);
        Self { rows, cols, data }
    }

    /// Builds a single-row matrix.
    pub fn row_vector(data: Vec<f32>) -> Self {
        Self::from_vec(1, data.len(), data)
    }

    /// Builds a single-column matrix.
    pub fn col_vector(data: Vec<f32>) -> Self {
        Self::from_vec(data.len(), 1, data)
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the raw buffer. The buffer leaves the
    /// byte gauge here; `Drop` then sees an empty matrix and subtracts
    /// nothing.
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        registry::gauge_sub(Gauge::MatrixBytes, (data.len() * 4) as u64);
        data
    }

    /// Borrow of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self * other` — plain dense matmul, `i-k-j` loop order, row-parallel.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with_threads(other, par::effective_threads())
    }

    /// [`Self::matmul`] with an explicit thread count. Bitwise identical for
    /// any `threads` ≥ 1: output rows are partitioned across threads and
    /// each row runs the same per-row kernel with the serial `k`-ascending
    /// accumulation order per cell.
    pub fn matmul_with_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        registry::add(Counter::MatmulCalls, 1);
        registry::add(Counter::MatmulCells, (self.rows * other.cols) as u64);
        let _span = lrgcn_obs::trace::span("matmul", "kernel");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let ocols = other.cols;
        if ocols == 0 || self.cols == 0 {
            return out;
        }
        let kern = kernels::active_kernel();
        kernels::count_dispatch(kern);
        par::par_row_chunks_mut(&mut out.data, ocols, threads, |start_row, block| {
            let rows = block.len() / ocols;
            let a_block = &self.data[start_row * self.cols..(start_row + rows) * self.cols];
            kernels::matmul_block(kern, a_block, self.cols, &other.data, ocols, block);
        });
        out
    }

    /// `self^T * other` without materializing the transpose; row-parallel.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_with_threads(other, par::effective_threads())
    }

    /// [`Self::matmul_tn`] with an explicit thread count. Parallel over
    /// *output* rows `i`: every thread scans all `k` in ascending order and
    /// accumulates only into its own rows, so each output cell sees the
    /// exact serial accumulation order.
    pub fn matmul_tn_with_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {:?}^T x {:?}",
            self.shape(),
            other.shape()
        );
        registry::add(Counter::MatmulCalls, 1);
        registry::add(Counter::MatmulCells, (self.cols * other.cols) as u64);
        let _span = lrgcn_obs::trace::span("matmul_tn", "kernel");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let ocols = other.cols;
        if ocols == 0 || self.rows == 0 {
            return out;
        }
        let kern = kernels::active_kernel();
        kernels::count_dispatch(kern);
        par::par_row_chunks_mut(&mut out.data, ocols, threads, |start_row, block| {
            kernels::matmul_tn_block(
                kern,
                &self.data,
                self.rows,
                self.cols,
                start_row,
                &other.data,
                ocols,
                block,
            );
        });
        out
    }

    /// `self * other^T` without materializing the transpose; row-parallel.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_with_threads(other, par::effective_threads())
    }

    /// [`Self::matmul_nt`] with an explicit thread count. Each output cell
    /// is one [`dot`]-ordered chain (the blocked and simd kernels keep
    /// several chains in flight, side by side), so any row partitioning is
    /// trivially bitwise identical to serial.
    pub fn matmul_nt_with_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        self.matmul_nt_rows(&other.data, other.rows, threads)
    }

    /// [`Self::matmul_nt_with_threads`] against a borrowed right operand:
    /// `other` is `other_rows` row-major rows of `self.cols()` floats — a
    /// row range of a larger table (the item block of a node matrix)
    /// scored in place, without copying it into a `Matrix` first.
    ///
    /// # Panics
    /// Panics if `other.len() != other_rows * self.cols()`.
    pub fn matmul_nt_rows(&self, other: &[f32], other_rows: usize, threads: usize) -> Matrix {
        assert_eq!(
            other.len(),
            other_rows * self.cols,
            "matmul_nt shape mismatch: {:?} x ({other_rows}, {})^T",
            self.shape(),
            self.cols
        );
        registry::add(Counter::MatmulCalls, 1);
        registry::add(Counter::MatmulCells, (self.rows * other_rows) as u64);
        let _span = lrgcn_obs::trace::span("matmul_nt", "kernel");
        let mut out = Matrix::zeros(self.rows, other_rows);
        let ocols = other_rows;
        if ocols == 0 {
            return out;
        }
        let kern = kernels::active_kernel();
        kernels::count_dispatch(kern);
        par::par_row_chunks_mut(&mut out.data, ocols, threads, |start_row, block| {
            let rows = block.len() / ocols;
            let a_block = &self.data[start_row * self.cols..(start_row + rows) * self.cols];
            kernels::matmul_nt_block(kern, a_block, self.cols, other, ocols, block);
        });
        out
    }

    /// The materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise map into a new matrix; row-parallel (each element is
    /// independent, so the result is bitwise identical for any thread
    /// count).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        registry::add(Counter::MapCalls, 1);
        registry::add(Counter::MapElems, self.data.len() as u64);
        let mut out = Matrix::zeros(self.rows, self.cols);
        if self.cols == 0 {
            return out;
        }
        par::par_row_chunks_mut(
            &mut out.data,
            self.cols,
            par::effective_threads(),
            |start_row, block| {
                let off = start_row * self.cols;
                let src = &self.data[off..off + block.len()];
                kernels::map_slice(src, block, &f);
            },
        );
        out
    }

    /// In-place elementwise map; row-parallel like [`Self::map`].
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        registry::add(Counter::MapCalls, 1);
        registry::add(Counter::MapElems, self.data.len() as u64);
        if self.cols == 0 {
            return;
        }
        par::par_row_chunks_mut(
            &mut self.data,
            self.cols,
            par::effective_threads(),
            |_start_row, block| {
                kernels::map_slice_inplace(block, &f);
            },
        );
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        kernels::add_slices(&mut self.data, &other.data);
    }

    /// `self += s * other` (axpy).
    pub fn add_scaled(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        kernels::axpy(&mut self.data, s, &other.data);
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        kernels::sub_slices(&mut self.data, &other.data);
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f32) {
        kernels::scale_slice(&mut self.data, s);
    }

    /// New matrix `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// New matrix `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// New matrix with rows `indices` of `self`, in order (may repeat).
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        registry::add(Counter::GatherCalls, 1);
        registry::add(Counter::GatherRows, indices.len() as u64);
        let _span = lrgcn_obs::trace::span("gather", "kernel");
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (o, &i) in indices.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i as usize));
        }
        out
    }

    /// New matrix holding rows `start..end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "row slice out of bounds");
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Per-row maximum values as a column vector.
    pub fn row_max(&self) -> Matrix {
        let data = (0..self.rows)
            .map(|r| self.row(r).iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x)))
            .collect();
        Matrix::col_vector(data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum of squares of all elements (squared Frobenius norm).
    pub fn sq_frobenius(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.sq_frobenius().sqrt()
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Euclidean norm of row `r`.
    pub fn row_norm(&self, r: usize) -> f32 {
        dot(self.row(r), self.row(r)).sqrt()
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Approximate equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of zero matrices");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols: row count mismatch"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                orow[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }
}

/// Dot product of two equal-length slices — a single sequential add chain
/// in every kernel mode (see [`crate::kernels`] for why).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernels::dot(a, b)
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    fn b() -> Matrix {
        Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    }

    #[test]
    fn matmul_reference() {
        let c = a().matmul(&b());
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let at = a().transpose();
        assert!(a().matmul_tn(&a()).approx_eq(&at.matmul(&a()), 1e-5));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let bt = b().transpose();
        assert!(a().matmul_nt(&bt).approx_eq(&a().matmul(&b()), 1e-5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = a();
        assert!(Matrix::identity(2).matmul(&m).approx_eq(&m, 0.0));
        assert!(m.matmul(&Matrix::identity(3)).approx_eq(&m, 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = a().matmul(&a());
    }

    #[test]
    fn transpose_involution() {
        assert_eq!(a().transpose().transpose(), a());
    }

    #[test]
    fn elementwise_and_axpy() {
        let mut m = a();
        m.add_scaled(&a(), 2.0);
        assert_eq!(m.data()[0], 3.0);
        m.scale(0.5);
        assert_eq!(m.data()[5], 9.0);
        let d = a().sub(&a());
        assert_eq!(d.sum(), 0.0);
    }

    #[test]
    fn gather_rows_repeats_and_orders() {
        let g = a().gather_rows(&[1, 0, 1]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let m = a();
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.sq_frobenius(), 91.0);
        assert_eq!(m.max_abs(), 6.0);
        assert!((m.row_norm(0) - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn concat_cols_layout() {
        let c = Matrix::concat_cols(&[&a(), &a()]);
        assert_eq!(c.shape(), (2, 6));
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = a();
        assert!(!m.has_non_finite());
        m[(0, 0)] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn byte_gauge_balances_alloc_and_drop() {
        use lrgcn_obs::registry::{gauge_current, Gauge};
        // Other tests allocate concurrently, so assert on the *net* effect
        // of a large allocation that dwarfs their noise.
        let big = 1 << 22; // 4M elements = 16 MiB
        let before = gauge_current(Gauge::MatrixBytes);
        let m = Matrix::zeros(big, 1);
        let held = gauge_current(Gauge::MatrixBytes);
        assert!(held >= before + (big * 4 - (1 << 20)) as u64);
        let v = m.into_vec();
        assert_eq!(v.len(), big);
        drop(v);
        // into_vec released the bytes; dropping the Vec is invisible to the
        // gauge, and the Matrix's Drop must not double-subtract.
        let after = gauge_current(Gauge::MatrixBytes);
        assert!(after + (1 << 20) < held);
    }

    #[test]
    fn clone_accounts_like_a_fresh_allocation() {
        use lrgcn_obs::registry::{get, Counter};
        let m = Matrix::zeros(8, 8);
        let allocs_before = get(Counter::MatrixAllocs);
        let c = m.clone();
        assert!(get(Counter::MatrixAllocs) > allocs_before);
        assert_eq!(c, m);
    }

    #[test]
    fn kernel_counters_advance() {
        use lrgcn_obs::registry::{get, Counter};
        let (mm0, gc0, mp0) = (
            get(Counter::MatmulCalls),
            get(Counter::GatherCalls),
            get(Counter::MapCalls),
        );
        let _ = a().matmul(&b());
        let _ = a().gather_rows(&[0, 1]);
        let _ = a().map(|x| x + 1.0);
        assert!(get(Counter::MatmulCalls) > mm0);
        assert!(get(Counter::GatherCalls) > gc0);
        assert!(get(Counter::MapCalls) > mp0);
    }

    #[test]
    fn map_and_inplace_agree() {
        let m = a();
        let doubled = m.map(|x| 2.0 * x);
        let mut m2 = m.clone();
        m2.map_inplace(|x| 2.0 * x);
        assert_eq!(doubled, m2);
    }
}
