//! Compressed Sparse Row (CSR) matrices over `f32`.
//!
//! The CSR matrix is the workhorse of every GCN in this workspace: the
//! (normalized) adjacency matrix `Â` is stored in CSR form and the hot kernel
//! of all propagation steps is [`Csr::spmm_into`], a sparse × dense product.
//! The representation is deliberately minimal — three flat vectors — which
//! keeps construction cheap enough to rebuild the pruned adjacency every
//! epoch (see [`crate::dropout`]).

use crate::kernels;
use std::fmt;

/// A sparse matrix in Compressed Sparse Row format.
///
/// ```
/// use lrgcn_graph::Csr;
/// // [[0, 2], [1, 0]]
/// let m = Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 1.0)]);
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(0, 1), 2.0);
/// // Â·X — the propagation kernel behind every GCN layer here:
/// assert_eq!(m.spmm(&[10.0, 20.0], 1), vec![40.0, 10.0]);
/// ```
///
/// Invariants (checked by [`Csr::validate`], upheld by all constructors):
/// * `indptr.len() == n_rows + 1`, `indptr[0] == 0`, `indptr` is
///   non-decreasing and `indptr[n_rows] == indices.len() == values.len()`;
/// * within each row, column `indices` are strictly increasing (no
///   duplicates) and `< n_cols`.
#[derive(Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Csr({}x{}, nnz={})",
            self.n_rows,
            self.n_cols,
            self.nnz()
        )
    }
}

impl Csr {
    /// Builds a CSR matrix from coordinate-format triplets.
    ///
    /// Duplicate `(row, col)` entries are summed, matching the convention of
    /// scipy's `coo_matrix.tocsr()`. Entries may arrive in any order.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Self {
        lrgcn_obs::registry::add(lrgcn_obs::Counter::CsrBuilds, 1);
        let _t = lrgcn_obs::timer::scoped(lrgcn_obs::Hist::CsrBuild);
        let _span = lrgcn_obs::trace::span("csr_build", "kernel");
        let mut entries: Vec<(u32, u32, f32)> = triplets.into_iter().collect();
        for &(r, c, _) in &entries {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "coordinate ({r},{c}) out of bounds for {n_rows}x{n_cols} matrix"
            );
        }
        entries.sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let mut indptr = vec![0usize; n_rows + 1];
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // Same row (indptr for this row already started) and same col:
                // accumulate duplicates.
                if last_c == c && indices.len() > indptr[r as usize] {
                    *values.last_mut().expect("non-empty") += v;
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // Fill gaps for empty rows: make indptr cumulative.
        for i in 1..=n_rows {
            if indptr[i] < indptr[i - 1] {
                indptr[i] = indptr[i - 1];
            }
        }
        let csr = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(csr.validate().is_ok(), "{:?}", csr.validate());
        csr
    }

    /// Builds a CSR matrix directly from its raw parts.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, String> {
        let csr = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        csr.validate()?;
        Ok(csr)
    }

    /// The `n_rows x n_cols` matrix with no stored entries.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            indptr: vec![0; n_rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// This matrix with `extra` empty rows and `extra` columns appended.
    pub fn with_empty_rows(&self, extra: usize) -> Self {
        let mut indptr = Vec::with_capacity(self.indptr.len() + extra);
        indptr.extend_from_slice(&self.indptr);
        indptr.resize(self.indptr.len() + extra, self.nnz());
        Self {
            n_rows: self.n_rows + extra,
            n_cols: self.n_cols + extra,
            indptr,
            indices: self.indices.clone(),
            values: self.values.clone(),
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Checks every representation invariant; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.n_rows + 1 {
            return Err(format!(
                "indptr length {} != n_rows + 1 = {}",
                self.indptr.len(),
                self.n_rows + 1
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        if *self.indptr.last().expect("non-empty indptr") != self.indices.len() {
            return Err("indptr does not terminate at nnz".into());
        }
        if self.indices.len() != self.values.len() {
            return Err("indices/values length mismatch".into());
        }
        for r in 0..self.n_rows {
            let (s, e) = (self.indptr[r], self.indptr[r + 1]);
            if s > e {
                return Err(format!("indptr decreasing at row {r}"));
            }
            for k in s..e {
                if self.indices[k] as usize >= self.n_cols {
                    return Err(format!("column {} out of bounds in row {r}", self.indices[k]));
                }
                if k > s && self.indices[k] <= self.indices[k - 1] {
                    return Err(format!("columns not strictly increasing in row {r}"));
                }
            }
        }
        Ok(())
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The `(column, value)` pairs of row `r`, in increasing column order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        self.indices[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Number of stored entries in row `r` (the out-degree when the matrix is
    /// a 0/1 adjacency).
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Value at `(r, c)`, or 0.0 if not stored. O(log row_nnz).
    pub fn get(&self, r: usize, c: u32) -> f32 {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        match self.indices[s..e].binary_search(&c) {
            Ok(k) => self.values[s + k],
            Err(_) => 0.0,
        }
    }

    /// Row sums of the matrix (the weighted out-degree vector).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.n_rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Column sums of the matrix (the weighted in-degree vector).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.n_cols];
        for k in 0..self.nnz() {
            sums[self.indices[k] as usize] += self.values[k];
        }
        sums
    }

    /// The transposed matrix, built in O(nnz + n_cols).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.n_cols {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = counts;
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                let slot = next[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        let t = Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            values,
        };
        debug_assert!(t.validate().is_ok());
        t
    }

    /// Whether the matrix equals its transpose up to `tol` on every entry.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Sparse × dense product: `out = self * dense`, where `dense` is a
    /// row-major `n_cols x width` buffer and `out` a row-major
    /// `n_rows x width` buffer. This is the propagation kernel `Â·X`.
    ///
    /// Dispatches through [`crate::kernels`] (naive / column-blocked /
    /// AVX2); all modes accumulate each output cell in CSR nnz order, so
    /// results are bitwise identical across `LRGCN_KERNEL` values.
    ///
    /// # Panics
    /// Panics if the buffer shapes do not line up.
    pub fn spmm_into(&self, dense: &[f32], width: usize, out: &mut [f32]) {
        assert_eq!(dense.len(), self.n_cols * width, "dense operand shape");
        assert_eq!(out.len(), self.n_rows * width, "output shape");
        let kernel = kernels::active_kernel();
        kernels::count_dispatch(kernel);
        kernels::spmm_block(
            kernel,
            &self.indptr,
            &self.indices,
            &self.values,
            0,
            dense,
            width,
            out,
        );
    }

    /// Allocating wrapper over [`Csr::spmm_into`].
    pub fn spmm(&self, dense: &[f32], width: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.n_rows * width];
        self.spmm_into(dense, width, &mut out);
        out
    }

    /// Multi-threaded [`Csr::spmm_into`]: output rows are split into
    /// contiguous chunks, one scoped thread per chunk. Row-parallelism is
    /// race-free because each output row depends only on its own CSR row.
    /// Falls back to the serial kernel for `threads <= 1` or tiny inputs.
    pub fn spmm_into_parallel(&self, dense: &[f32], width: usize, out: &mut [f32], threads: usize) {
        assert_eq!(dense.len(), self.n_cols * width, "dense operand shape");
        assert_eq!(out.len(), self.n_rows * width, "output shape");
        if threads <= 1 || self.n_rows < 2 * threads {
            self.spmm_into(dense, width, out);
            return;
        }
        let kernel = kernels::active_kernel();
        kernels::count_dispatch(kernel);
        let rows_per = self.n_rows.div_ceil(threads);
        let mut slices: Vec<(usize, &mut [f32])> = Vec::with_capacity(threads);
        let mut rest = out;
        let mut row0 = 0usize;
        while row0 < self.n_rows {
            let take = rows_per.min(self.n_rows - row0);
            let (head, tail) = rest.split_at_mut(take * width);
            slices.push((row0, head));
            rest = tail;
            row0 += take;
        }
        std::thread::scope(|scope| {
            for (start, chunk) in slices {
                scope.spawn(move || {
                    kernels::spmm_block(
                        kernel,
                        &self.indptr,
                        &self.indices,
                        &self.values,
                        start,
                        dense,
                        width,
                        chunk,
                    );
                });
            }
        });
    }

    /// Sparse × sparse product (SpGEMM) via row-wise merge with a dense
    /// accumulator. Used to build co-occurrence graphs like `RᵀR` without
    /// densifying. Output rows keep the CSR invariants (sorted, deduped).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_sparse(&self, other: &Csr) -> Csr {
        assert_eq!(
            self.n_cols, other.n_rows,
            "matmul_sparse shape mismatch: {self:?} x {other:?}"
        );
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        // Dense accumulator + touched list (Gustavson's algorithm).
        let mut acc = vec![0.0f32; other.n_cols];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..self.n_rows {
            for (k, va) in self.row(r) {
                for (c, vb) in other.row(k as usize) {
                    if acc[c as usize] == 0.0 && !touched.contains(&c) {
                        touched.push(c);
                    }
                    acc[c as usize] += va * vb;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                // Keep exact zeros out (cancellation) to preserve sparsity.
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
                acc[c as usize] = 0.0;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        let out = Csr {
            n_rows: self.n_rows,
            n_cols: other.n_cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(out.validate().is_ok());
        out
    }

    /// Removes the diagonal of a square matrix (e.g. self-co-occurrence).
    pub fn without_diagonal(&self) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "diagonal requires square matrix");
        Csr::from_coo(
            self.n_rows,
            self.n_cols,
            (0..self.n_rows).flat_map(|r| {
                self.row(r)
                    .filter(move |&(c, _)| c as usize != r)
                    .map(move |(c, v)| (r as u32, c, v))
            }),
        )
    }

    /// Sparse matrix–vector product `self * x`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.n_cols);
        (0..self.n_rows)
            .map(|r| self.row(r).map(|(c, v)| v * x[c as usize]).sum())
            .collect()
    }

    /// Returns `D_r^{-1/2} * self * D_c^{-1/2}` where `D_r`/`D_c` are the
    /// diagonal row-/column-sum matrices of `self`. Zero-degree rows/columns
    /// are left untouched (their scaling factor is defined as 0, matching the
    /// convention of LightGCN's implementation).
    pub fn sym_normalized(&self) -> Csr {
        let inv_sqrt = |s: Vec<f32>| -> Vec<f32> {
            s.into_iter()
                .map(|d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
                .collect()
        };
        let ri = inv_sqrt(self.row_sums());
        let ci = inv_sqrt(self.col_sums());
        let mut out = self.clone();
        for (r, &scale_r) in ri.iter().enumerate() {
            let (s, e) = (out.indptr[r], out.indptr[r + 1]);
            for k in s..e {
                out.values[k] *= scale_r * ci[out.indices[k] as usize];
            }
        }
        out
    }

    /// Returns `self + I` (square matrices only), used by the vanilla-GCN
    /// re-normalization trick `Â = D̂^{-1/2}(A + I)D̂^{-1/2}`.
    pub fn add_identity(&self) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "add_identity requires square matrix");
        let triplets = (0..self.n_rows)
            .flat_map(|r| self.row(r).map(move |(c, v)| (r as u32, c, v)))
            .chain((0..self.n_rows as u32).map(|i| (i, i, 1.0)));
        Csr::from_coo(self.n_rows, self.n_cols, triplets)
    }

    /// Scales every stored value by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Converts to a dense row-major buffer. Intended for tests and tiny
    /// matrices only.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut d = vec![0.0; self.n_rows * self.n_cols];
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                d[r * self.n_cols + c as usize] = v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1 0 2]
        //  [0 0 0]
        //  [3 4 0]]
        Csr::from_coo(3, 3, vec![(0, 0, 1.0), (2, 1, 4.0), (0, 2, 2.0), (2, 0, 3.0)])
    }

    #[test]
    fn from_coo_sorts_and_indexes() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 0), 3.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (0, 1, 2.5), (1, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_coo_rejects_out_of_bounds() {
        let _ = Csr::from_coo(2, 2, vec![(0, 2, 1.0)]);
    }

    #[test]
    fn with_empty_rows_appends_empty_rows_and_columns() {
        let m = sample().with_empty_rows(2);
        assert_eq!((m.n_rows(), m.n_cols(), m.nnz()), (5, 5, 4));
        assert!(m.validate().is_ok());
        assert_eq!((m.row_nnz(3), m.row_nnz(4)), (0, 0));
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(m.spmm(&x, 1), vec![7.0, 0.0, 11.0, 0.0, 0.0]);
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // Decreasing indptr.
        assert!(Csr::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // Duplicate column in a row.
        assert!(Csr::from_parts(1, 2, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // Column out of bounds.
        assert!(Csr::from_parts(1, 2, vec![0, 1], vec![2], vec![1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2
        let y = m.spmm(&x, 2);
        // Row 0: 1*[1,2] + 2*[5,6] = [11,14]; row 1: 0; row 2: 3*[1,2]+4*[3,4]=[15,22]
        assert_eq!(y, vec![11.0, 14.0, 0.0, 0.0, 15.0, 22.0]);
    }

    #[test]
    fn parallel_spmm_matches_serial() {
        // A larger random-ish matrix exercised across thread counts.
        let triplets: Vec<(u32, u32, f32)> = (0..500)
            .map(|k| (((k * 37) % 97) as u32, ((k * 53) % 61) as u32, (k % 7) as f32 - 3.0))
            .collect();
        let m = Csr::from_coo(97, 61, triplets);
        let x: Vec<f32> = (0..61 * 8).map(|i| (i % 13) as f32 * 0.25 - 1.0).collect();
        let serial = m.spmm(&x, 8);
        for threads in [1usize, 2, 3, 8, 64] {
            let mut out = vec![0.0f32; 97 * 8];
            m.spmm_into_parallel(&x, 8, &mut out, threads);
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        let a = sample(); // 3x3
        let b = Csr::from_coo(3, 2, vec![(0, 0, 2.0), (1, 1, -1.0), (2, 0, 0.5), (2, 1, 3.0)]);
        let c = a.matmul_sparse(&b);
        assert_eq!(c.n_rows(), 3);
        assert_eq!(c.n_cols(), 2);
        // Dense reference: A (3x3) * B (3x2).
        let da = a.to_dense();
        let db = b.to_dense();
        for r in 0..3 {
            for col in 0..2usize {
                let expect: f32 = (0..3).map(|k| da[r * 3 + k] * db[k * 2 + col]).sum();
                assert!(
                    (c.get(r, col as u32) - expect).abs() < 1e-5,
                    "({r},{col}): {} vs {expect}",
                    c.get(r, col as u32)
                );
            }
        }
    }

    #[test]
    fn spgemm_identity_is_noop() {
        let m = sample();
        assert_eq!(Csr::identity(3).matmul_sparse(&m), m);
        assert_eq!(m.matmul_sparse(&Csr::identity(3)), m);
    }

    #[test]
    fn spgemm_builds_cooccurrence() {
        // R: 3 users x 2 items; RᵀR counts co-interactions.
        let r = Csr::from_coo(3, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]);
        let cooc = r.transpose().matmul_sparse(&r);
        assert_eq!(cooc.get(0, 0), 2.0); // item 0 degree
        assert_eq!(cooc.get(1, 1), 2.0);
        assert_eq!(cooc.get(0, 1), 1.0); // co-occur via user 0
        assert_eq!(cooc.get(1, 0), 1.0);
        let off = cooc.without_diagonal();
        assert_eq!(off.get(0, 0), 0.0);
        assert_eq!(off.get(0, 1), 1.0);
        assert_eq!(off.nnz(), 2);
    }

    #[test]
    fn spgemm_drops_exact_cancellations() {
        // [1, -1] * [[1],[1]] = [0]: the zero must not be stored.
        let a = Csr::from_coo(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)]);
        let b = Csr::from_coo(2, 1, vec![(0, 0, 1.0), (1, 0, 1.0)]);
        let c = a.matmul_sparse(&b);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn spmv_matches_spmm_width_one() {
        let m = sample();
        let x = vec![1.0, -1.0, 2.0];
        assert_eq!(m.spmv(&x), m.spmm(&x, 1));
    }

    #[test]
    fn identity_is_noop_under_spmm() {
        let i = Csr::identity(4);
        let x: Vec<f32> = (0..12).map(|v| v as f32).collect();
        assert_eq!(i.spmm(&x, 3), x);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn sym_normalized_rows_of_symmetric_adjacency() {
        // Path graph 0-1-2: degrees 1,2,1.
        let a = Csr::from_coo(
            3,
            3,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        );
        let n = a.sym_normalized();
        let inv = 1.0 / 2.0f32.sqrt();
        assert!((n.get(0, 1) - inv).abs() < 1e-6);
        assert!((n.get(1, 0) - inv).abs() < 1e-6);
        assert!((n.get(1, 2) - inv).abs() < 1e-6);
        assert!(n.is_symmetric(1e-6));
    }

    #[test]
    fn sym_normalized_handles_isolated_nodes() {
        let a = Csr::from_coo(3, 3, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let n = a.sym_normalized();
        assert_eq!(n.row_nnz(2), 0);
        assert_eq!(n.get(0, 1), 1.0);
    }

    #[test]
    fn add_identity_adds_diagonal() {
        let m = sample();
        let mi = m.add_identity();
        assert_eq!(mi.get(0, 0), 2.0);
        assert_eq!(mi.get(1, 1), 1.0);
        assert_eq!(mi.get(2, 2), 1.0);
        assert_eq!(mi.get(2, 1), 4.0);
        assert_eq!(mi.nnz(), m.nnz() + 2); // (0,0) merged, (1,1) & (2,2) new
    }

    #[test]
    fn to_dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d, vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn symmetric_detection() {
        let sym = Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 2.0)]);
        assert!(sym.is_symmetric(0.0));
        let asym = Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 1.0)]);
        assert!(!asym.is_symmetric(1e-6));
        let rect = Csr::zeros(2, 3);
        assert!(!rect.is_symmetric(0.0));
    }

    #[test]
    fn empty_rows_in_middle_are_preserved() {
        let m = Csr::from_coo(5, 2, vec![(0, 0, 1.0), (4, 1, 1.0)]);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.row_nnz(3), 0);
        assert_eq!(m.get(4, 1), 1.0);
    }
}
