//! The dense micro-kernels behind [`crate::matrix::Matrix`], plus the
//! workspace-wide kernel-mode selection re-exported from
//! [`lrgcn_graph::kernels`].
//!
//! This module is the canonical dispatch surface for hot loops: dense
//! matmuls (all three transpose variants), the elementwise maps, and — via
//! the re-exports — the sparse propagation kernel in `lrgcn-graph`. Every
//! kernel exists in three implementations selected by [`Kernel`]
//! (`LRGCN_KERNEL={naive,blocked,simd}`, see [`active_kernel`]):
//!
//! * `naive` — the original scalar loops, byte-for-byte the historical
//!   reference (including its per-scalar zero skip);
//! * `blocked` — register-tiled loops (output stripes of [`TILE`] floats
//!   accumulated in a local array across the whole `k` loop) written so
//!   LLVM autovectorizes them; the per-scalar zero skip is replaced by a
//!   per-block density check so genuinely sparse operands (e.g. a
//!   Multi-VAE input batch) still skip, while dense embedding blocks run
//!   straight-line code;
//! * `simd` — the same structure with explicit AVX2 intrinsics (separate
//!   multiply and add, never FMA), behind runtime feature detection.
//!
//! ## Determinism contract
//!
//! Every output cell is accumulated by a single accumulator, from `+0.0`,
//! in ascending `k` order in all three modes, so for finite inputs the
//! kernels are bitwise identical to each other and to serial execution —
//! the property `tests/kernel_equality.rs` pins. [`dot`] is the one kernel
//! that stays scalar in every mode: its value is a *single* sequential
//! dependent add chain, and splitting that chain across lanes would
//! reassociate it. The `matmul_nt` kernels vectorize *across* chains
//! instead: `blocked` keeps eight scalar chains in flight, and `simd` puts
//! sixteen B rows (items) on the AVX2 lanes — a panel of B rows is
//! transposed once into a `kk`-major scratch so that lane `j` of one
//! broadcast-multiply-then-add is exactly step `kk` of cell `j`'s scalar
//! chain. Transposing only moves values, so no chain's operands or order
//! change.

pub use lrgcn_graph::kernels::{
    active_kernel, count_dispatch, set_kernel, simd_available, spmm_block, Kernel, TILE,
};

/// Rows per register tile in `matmul_tn` and the AVX2 `matmul_nt`: four
/// output rows share each streamed B row (or packed B panel line).
const MR: usize = 4;

/// Operands with at least this fraction of zeros take the zero-skipping
/// scalar path in the blocked/simd kernels ("genuinely sparse": 7/8 zeros,
/// where skipping beats straight-line tiles even with the branch).
fn is_sparse(block: &[f32]) -> bool {
    let nz = block.iter().filter(|&&x| x != 0.0).count();
    nz * 8 < block.len()
}

// ---------------------------------------------------------------------------
// matmul (A · B)
// ---------------------------------------------------------------------------

/// Computes a contiguous row block of `out = A · B`.
///
/// `a_block` holds the A rows matching `out_block` (`k` columns each), `b`
/// is the full `k x n` right operand, and `out_block` must arrive
/// **zero-filled** (the kernels accumulate from zero).
pub fn matmul_block(kernel: Kernel, a_block: &[f32], k: usize, b: &[f32], n: usize, out_block: &mut [f32]) {
    if k == 0 || n == 0 || out_block.is_empty() {
        return;
    }
    match kernel {
        Kernel::Naive => matmul_block_naive(a_block, k, b, n, out_block),
        _ if is_sparse(a_block) => matmul_block_naive(a_block, k, b, n, out_block),
        Kernel::Blocked => {
            for (arow, orow) in a_block.chunks_exact(k).zip(out_block.chunks_exact_mut(n)) {
                matmul_row_blocked(arow, b, n, orow);
            }
        }
        Kernel::Simd => {
            for (arow, orow) in a_block.chunks_exact(k).zip(out_block.chunks_exact_mut(n)) {
                #[cfg(target_arch = "x86_64")]
                // Safety: Kernel::Simd is only resolved when AVX2 was
                // detected at runtime.
                unsafe {
                    matmul_row_avx2(arow, b, n, orow)
                }
                #[cfg(not(target_arch = "x86_64"))]
                matmul_row_blocked(arow, b, n, orow);
            }
        }
    }
}

/// Reference: the original `i-k-j` loop with its per-scalar zero skip.
fn matmul_block_naive(a_block: &[f32], k: usize, b: &[f32], n: usize, out_block: &mut [f32]) {
    for (arow, orow) in a_block.chunks_exact(k).zip(out_block.chunks_exact_mut(n)) {
        for (kk, &a) in arow.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let brow = &b[kk * n..kk * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += a * bv;
            }
        }
    }
}

/// One output row, register-tiled: a [`TILE`]-wide stripe of the row lives
/// in a local accumulator array across the whole `k` loop, so the output
/// is written once instead of loaded/stored once per `k`.
fn matmul_row_blocked(arow: &[f32], b: &[f32], n: usize, orow: &mut [f32]) {
    let mut j = 0;
    while j + TILE <= n {
        let mut acc = [0.0f32; TILE];
        for (kk, &a) in arow.iter().enumerate() {
            let brow = &b[kk * n + j..kk * n + j + TILE];
            for (s, &bv) in acc.iter_mut().zip(brow) {
                *s += a * bv;
            }
        }
        orow[j..j + TILE].copy_from_slice(&acc);
        j += TILE;
    }
    if j < n {
        let tail = n - j;
        let mut acc = [0.0f32; TILE];
        for (kk, &a) in arow.iter().enumerate() {
            let brow = &b[kk * n + j..kk * n + n];
            for (s, &bv) in acc[..tail].iter_mut().zip(brow) {
                *s += a * bv;
            }
        }
        orow[j..].copy_from_slice(&acc[..tail]);
    }
}

/// AVX2 variant of [`matmul_row_blocked`]: 4 × 8-lane accumulators per
/// stripe, broadcast-multiply-add (separate mul and add — no FMA).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_row_avx2(arow: &[f32], b: &[f32], n: usize, orow: &mut [f32]) {
    use std::arch::x86_64::*;
    let bp = b.as_ptr();
    let mut j = 0;
    while j + TILE <= n {
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for (kk, &a) in arow.iter().enumerate() {
            let av = _mm256_set1_ps(a);
            let base = bp.add(kk * n + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(av, _mm256_loadu_ps(base)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(av, _mm256_loadu_ps(base.add(8))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(av, _mm256_loadu_ps(base.add(16))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(av, _mm256_loadu_ps(base.add(24))));
        }
        let op = orow.as_mut_ptr().add(j);
        _mm256_storeu_ps(op, a0);
        _mm256_storeu_ps(op.add(8), a1);
        _mm256_storeu_ps(op.add(16), a2);
        _mm256_storeu_ps(op.add(24), a3);
        j += TILE;
    }
    while j + 8 <= n {
        let mut a0 = _mm256_setzero_ps();
        for (kk, &a) in arow.iter().enumerate() {
            let base = bp.add(kk * n + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(a), _mm256_loadu_ps(base)));
        }
        _mm256_storeu_ps(orow.as_mut_ptr().add(j), a0);
        j += 8;
    }
    if j < n {
        let tail = n - j;
        let mut acc = [0.0f32; 8];
        for (kk, &a) in arow.iter().enumerate() {
            let brow = &b[kk * n + j..kk * n + n];
            for (s, &bv) in acc[..tail].iter_mut().zip(brow) {
                *s += a * bv;
            }
        }
        orow[j..].copy_from_slice(&acc[..tail]);
    }
}

// ---------------------------------------------------------------------------
// matmul_tn (Aᵀ · B)
// ---------------------------------------------------------------------------

/// Computes a contiguous row block of `out = Aᵀ · B` without materializing
/// the transpose.
///
/// `a` is the full `a_rows x a_cols` left operand, `b` the full
/// `a_rows x n` right operand; `out_block` covers output rows (= A
/// columns) `start_col ..` and must arrive **zero-filled**.
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_block(
    kernel: Kernel,
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    start_col: usize,
    b: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    if a_rows == 0 || n == 0 || out_block.is_empty() {
        return;
    }
    let block_rows = out_block.len() / n;
    let dense = match kernel {
        Kernel::Naive => false,
        // Density of this block's share of A (its columns, strided scan).
        _ => {
            let mut nz = 0usize;
            for kk in 0..a_rows {
                let arow = &a[kk * a_cols + start_col..kk * a_cols + start_col + block_rows];
                nz += arow.iter().filter(|&&x| x != 0.0).count();
            }
            nz * 8 >= a_rows * block_rows
        }
    };
    if !dense {
        matmul_tn_block_naive(a, a_rows, a_cols, start_col, b, n, out_block);
        return;
    }
    // Register tile: MR output rows × an 8/16-wide B stripe, k innermost,
    // so each streamed B row feeds MR output rows at once.
    let mut i = 0;
    while i + MR <= block_rows {
        let rows = &mut out_block[i * n..(i + MR) * n];
        matmul_tn_rows_tile(kernel, a, a_rows, a_cols, start_col + i, b, n, rows);
        i += MR;
    }
    while i < block_rows {
        let orow = &mut out_block[i * n..(i + 1) * n];
        matmul_tn_row(kernel, a, a_rows, a_cols, start_col + i, b, n, orow);
        i += 1;
    }
}

/// Reference: the original `k`-outer loop with its per-scalar zero skip.
fn matmul_tn_block_naive(
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    start_col: usize,
    b: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    for kk in 0..a_rows {
        let arow = &a[kk * a_cols..(kk + 1) * a_cols];
        let brow = &b[kk * n..kk * n + n];
        for (bi, orow) in out_block.chunks_exact_mut(n).enumerate() {
            let av = arow[start_col + bi];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `MR` output rows × 16-wide stripes, accumulators in registers.
#[allow(clippy::too_many_arguments)]
fn matmul_tn_rows_tile(
    kernel: Kernel,
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    col0: usize,
    b: &[f32],
    n: usize,
    out4: &mut [f32],
) {
    const NR: usize = 16;
    let mut j = 0;
    while j + NR <= n {
        let mut acc = [[0.0f32; NR]; MR];
        for kk in 0..a_rows {
            let a4 = &a[kk * a_cols + col0..kk * a_cols + col0 + MR];
            let brow = &b[kk * n + j..kk * n + j + NR];
            for (accr, &av) in acc.iter_mut().zip(a4) {
                for (s, &bv) in accr.iter_mut().zip(brow) {
                    *s += av * bv;
                }
            }
        }
        for (mi, accr) in acc.iter().enumerate() {
            out4[mi * n + j..mi * n + j + NR].copy_from_slice(accr);
        }
        j += NR;
    }
    if j < n {
        let tail = n - j;
        let mut acc = [[0.0f32; NR]; MR];
        for kk in 0..a_rows {
            let a4 = &a[kk * a_cols + col0..kk * a_cols + col0 + MR];
            let brow = &b[kk * n + j..kk * n + n];
            for (accr, &av) in acc.iter_mut().zip(a4) {
                for (s, &bv) in accr[..tail].iter_mut().zip(brow) {
                    *s += av * bv;
                }
            }
        }
        for (mi, accr) in acc.iter().enumerate() {
            out4[mi * n + j..mi * n + n].copy_from_slice(&accr[..tail]);
        }
    }
    // `kernel` only distinguishes naive from tiled here: the tile body is
    // already a pure mul-then-add pattern LLVM vectorizes, and an
    // intrinsics variant would be structurally identical.
    let _ = kernel;
}

/// Single leftover output row (block height not a multiple of `MR`).
#[allow(clippy::too_many_arguments)]
fn matmul_tn_row(
    kernel: Kernel,
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    col: usize,
    b: &[f32],
    n: usize,
    orow: &mut [f32],
) {
    let _ = kernel;
    let mut j = 0;
    while j < n {
        let tile = TILE.min(n - j);
        let mut acc = [0.0f32; TILE];
        for kk in 0..a_rows {
            let av = a[kk * a_cols + col];
            let brow = &b[kk * n + j..kk * n + j + tile];
            for (s, &bv) in acc[..tile].iter_mut().zip(brow) {
                *s += av * bv;
            }
        }
        orow[j..j + tile].copy_from_slice(&acc[..tile]);
        j += tile;
    }
}

// ---------------------------------------------------------------------------
// matmul_nt (A · Bᵀ)
// ---------------------------------------------------------------------------

/// Computes a contiguous row block of `out = A · Bᵀ`.
///
/// `a_block` holds the A rows matching `out_block` (`k` columns each), `b`
/// the full right operand in row-major `n_brows x k` layout. Each output
/// cell is the [`dot`] of an A row and a B row. `blocked` runs eight cells
/// per pass as scalar chains; `simd` rides sixteen B rows on the AVX2
/// lanes ([`matmul_nt_avx2`]); every chain stays in exact `k` order.
pub fn matmul_nt_block(
    kernel: Kernel,
    a_block: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    if n == 0 || out_block.is_empty() {
        return;
    }
    if k == 0 {
        out_block.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Simd && simd_available() {
        // SAFETY: AVX2 was detected just above; the function checks its
        // operand lengths itself.
        unsafe { matmul_nt_avx2(a_block, k, b, n, out_block) };
        return;
    }
    for (arow, orow) in a_block.chunks_exact(k).zip(out_block.chunks_exact_mut(n)) {
        match kernel {
            Kernel::Naive => {
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = dot(arow, &b[j * k..j * k + k]);
                }
            }
            Kernel::Blocked | Kernel::Simd => matmul_nt_row_blocked(arow, k, b, orow),
        }
    }
}

/// Eight B rows per pass; each output cell keeps its own scalar
/// accumulator through the shared `k` loop.
fn matmul_nt_row_blocked(arow: &[f32], k: usize, b: &[f32], orow: &mut [f32]) {
    let n = orow.len();
    let mut j = 0;
    while j + 8 <= n {
        let mut acc = [0.0f32; 8];
        let rows: [&[f32]; 8] = std::array::from_fn(|t| &b[(j + t) * k..(j + t) * k + k]);
        for (kk, &av) in arow.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += av * row[kk];
            }
        }
        orow[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    for (jj, o) in orow.iter_mut().enumerate().skip(j) {
        *o = dot(arow, &b[jj * k..jj * k + k]);
    }
}

/// B rows per panel in [`matmul_nt_avx2`]: two `ymm` registers of cells.
#[cfg(target_arch = "x86_64")]
const NT_NR: usize = 16;

/// A rows per cache block in [`matmul_nt_avx2`]: 256 rows of a 64-wide
/// operand are 64 KiB, so the block stays in L2 while every panel of B
/// walks over it.
#[cfg(target_arch = "x86_64")]
const NT_MC: usize = 256;

/// One `kk` of a transposed B panel: element `t` belongs to the panel's
/// B row `t`. A cache line, aligned, so a tile reads it in two loads.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
#[repr(align(64))]
struct PanelLine([f32; NT_NR]);

/// AVX2 `A · Bᵀ` with the B rows on the lanes. Per panel of [`NT_NR`] B
/// rows: transpose it once into `kk`-major [`PanelLine`]s, then walk the A
/// rows of the current block over it with an `MR x NT_NR` register tile
/// (eight accumulators, four broadcast A values and two panel loads per
/// `kk`); leftover A rows use a one-row tile and the `n % NT_NR` leftover
/// B rows the scalar [`dot`].
///
/// Lane `j` of a tile performs exactly cell `j`'s scalar sequence: its
/// accumulator starts at `+0.0` and takes one `_mm256_mul_ps` then one
/// `_mm256_add_ps` (never FMA) per `kk`, ascending — the same products in
/// the same order as [`dot`], so the result is bitwise equal to `naive`.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_nt_avx2(a_block: &[f32], k: usize, b: &[f32], n: usize, out_block: &mut [f32]) {
    let m = out_block.len() / n;
    assert!(
        out_block.len() == m * n && a_block.len() == m * k && b.len() >= n * k,
        "matmul_nt operand lengths: a {} b {} out {} for {m} x {k} x {n}",
        a_block.len(),
        b.len(),
        out_block.len(),
    );
    let full = n - n % NT_NR;
    let mut panel = vec![PanelLine([0.0; NT_NR]); k];
    let ap = a_block.as_ptr();
    let op = out_block.as_mut_ptr();
    for i0 in (0..m).step_by(NT_MC) {
        let i_end = (i0 + NT_MC).min(m);
        for j0 in (0..full).step_by(NT_NR) {
            nt_pack_panel(&b[j0 * k..(j0 + NT_NR) * k], k, &mut panel);
            let mut i = i0;
            // SAFETY: rows `i..i + R` lie below `m` and columns
            // `j0..j0 + NT_NR` below `n`, so with the lengths asserted
            // above every A read stays inside `a_block` and every store
            // inside `out_block`.
            while i + MR <= i_end {
                nt_tile::<MR>(ap.add(i * k), k, &panel, op.add(i * n + j0), n);
                i += MR;
            }
            while i < i_end {
                nt_tile::<1>(ap.add(i * k), k, &panel, op.add(i * n + j0), n);
                i += 1;
            }
        }
    }
    if full < n {
        for (arow, orow) in a_block.chunks_exact(k).zip(out_block.chunks_exact_mut(n)) {
            for (j, o) in orow.iter_mut().enumerate().skip(full) {
                *o = dot(arow, &b[j * k..j * k + k]);
            }
        }
    }
}

/// Transposes [`NT_NR`] consecutive B rows (`rows`, `k` floats each) into
/// `panel[kk].0[t] = rows[t * k + kk]`: 8 x 8 blocks in registers, scalar
/// for the `k % 8` tail. Pure data movement.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nt_pack_panel(rows: &[f32], k: usize, panel: &mut [PanelLine]) {
    use std::arch::x86_64::*;
    assert!(rows.len() == NT_NR * k && panel.len() == k, "panel shape");
    let k8 = k - k % 8;
    for half in 0..NT_NR / 8 {
        let src = rows.as_ptr().add(half * 8 * k);
        for kk in (0..k8).step_by(8) {
            // SAFETY: row `t < 8` of this half starts at `src + t * k` and
            // `kk + 8 <= k`, inside `rows` by the assert above.
            let at = src.add(kk);
            let r: [__m256; 8] = [
                _mm256_loadu_ps(at),
                _mm256_loadu_ps(at.add(k)),
                _mm256_loadu_ps(at.add(2 * k)),
                _mm256_loadu_ps(at.add(3 * k)),
                _mm256_loadu_ps(at.add(4 * k)),
                _mm256_loadu_ps(at.add(5 * k)),
                _mm256_loadu_ps(at.add(6 * k)),
                _mm256_loadu_ps(at.add(7 * k)),
            ];
            // Pairs of rows interleaved, then pairs of pairs: `q[c]` holds
            // column `c` of rows 0..4 in its low half and column `c + 4`
            // in its high half (`q[4 + c]` the same for rows 4..8).
            let u: [__m256; 8] = [
                _mm256_unpacklo_ps(r[0], r[1]),
                _mm256_unpackhi_ps(r[0], r[1]),
                _mm256_unpacklo_ps(r[2], r[3]),
                _mm256_unpackhi_ps(r[2], r[3]),
                _mm256_unpacklo_ps(r[4], r[5]),
                _mm256_unpackhi_ps(r[4], r[5]),
                _mm256_unpacklo_ps(r[6], r[7]),
                _mm256_unpackhi_ps(r[6], r[7]),
            ];
            let q: [__m256; 8] = [
                _mm256_shuffle_ps::<0x44>(u[0], u[2]),
                _mm256_shuffle_ps::<0xEE>(u[0], u[2]),
                _mm256_shuffle_ps::<0x44>(u[1], u[3]),
                _mm256_shuffle_ps::<0xEE>(u[1], u[3]),
                _mm256_shuffle_ps::<0x44>(u[4], u[6]),
                _mm256_shuffle_ps::<0xEE>(u[4], u[6]),
                _mm256_shuffle_ps::<0x44>(u[5], u[7]),
                _mm256_shuffle_ps::<0xEE>(u[5], u[7]),
            ];
            for c in 0..4 {
                let lo = _mm256_permute2f128_ps::<0x20>(q[c], q[4 + c]);
                let hi = _mm256_permute2f128_ps::<0x31>(q[c], q[4 + c]);
                _mm256_store_ps(panel[kk + c].0.as_mut_ptr().add(half * 8), lo);
                _mm256_store_ps(panel[kk + c + 4].0.as_mut_ptr().add(half * 8), hi);
            }
        }
    }
    for (kk, line) in panel.iter_mut().enumerate().skip(k8) {
        for (t, v) in line.0.iter_mut().enumerate() {
            *v = rows[t * k + kk];
        }
    }
}

/// `R` A rows against one packed panel: `out[r][..NT_NR] = a[r] · panelᵀ`,
/// accumulators in registers across the whole `k` loop.
///
/// # Safety
/// The CPU must support AVX2; `a` must be valid for reads of `R` rows of
/// `k` floats (stride `k`) and `out` for writes of [`NT_NR`] floats in each
/// of `R` rows of stride `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn nt_tile<const R: usize>(
    a: *const f32,
    k: usize,
    panel: &[PanelLine],
    out: *mut f32,
    n: usize,
) {
    use std::arch::x86_64::*;
    let mut lo = [_mm256_setzero_ps(); R];
    let mut hi = [_mm256_setzero_ps(); R];
    for (kk, line) in panel.iter().enumerate() {
        let p0 = _mm256_load_ps(line.0.as_ptr());
        let p1 = _mm256_load_ps(line.0.as_ptr().add(8));
        for r in 0..R {
            let av = _mm256_set1_ps(*a.add(r * k + kk));
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, p0));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, p1));
        }
    }
    for r in 0..R {
        _mm256_storeu_ps(out.add(r * n), lo[r]);
        _mm256_storeu_ps(out.add(r * n + 8), hi[r]);
    }
}

// ---------------------------------------------------------------------------
// centroid distances (IVF k-means assignment)
// ---------------------------------------------------------------------------

/// Computes a contiguous row block of squared-distance surrogates to a
/// centroid table: `out[r][j] = half_cnorm[j] - x_r · c_j`, where
/// `half_cnorm[j] = ½‖c_j‖²`. Minimizing this over `j` is equivalent to
/// minimizing `‖x_r - c_j‖²` (the constant `½‖x_r‖²` term is dropped), so
/// the argmin is the nearest centroid. The dots run through
/// [`matmul_nt_block`], which is bitwise-identical across kernel modes and
/// thread counts; the elementwise flip afterwards is order-free per cell,
/// so the whole surrogate inherits the determinism contract.
pub fn centroid_scores_block(
    kernel: Kernel,
    x_block: &[f32],
    k: usize,
    centroids: &[f32],
    n_centroids: usize,
    half_cnorm: &[f32],
    out_block: &mut [f32],
) {
    debug_assert_eq!(half_cnorm.len(), n_centroids);
    matmul_nt_block(kernel, x_block, k, centroids, n_centroids, out_block);
    for orow in out_block.chunks_exact_mut(n_centroids) {
        for (o, &h) in orow.iter_mut().zip(half_cnorm) {
            *o = h - *o;
        }
    }
}

/// Index of the minimum value in `scores`, breaking ties toward the lowest
/// index (strict `<` keeps the first minimum seen). This is the assignment
/// rule for the IVF k-means quantizer: combined with the deterministic
/// surrogate from [`centroid_scores_block`], assignments are
/// bitwise-reproducible at any thread count. Returns 0 for an empty slice.
pub fn argmin_first(scores: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::INFINITY;
    for (j, &s) in scores.iter().enumerate() {
        if s < best_v {
            best_v = s;
            best = j;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// dot + elementwise
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices — a single sequential add chain
/// from `+0.0`, identical in every kernel mode (see the module docs for
/// why it cannot be vectorized without changing the result). The fold is
/// written out because `Iterator::sum` starts from `-0.0`: a row pair whose
/// products are all `-0.0` would then differ in sign from the same cell of
/// a tiled `matmul_nt`, whose accumulators start at `+0.0`.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0, |s, (x, y)| s + x * y)
}

/// `y[i] += x[i]`. Elementwise kernels are order-free per element, so one
/// implementation serves every mode; the plain loops autovectorize.
pub fn add_slices(y: &mut [f32], x: &[f32]) {
    for (a, b) in y.iter_mut().zip(x) {
        *a += b;
    }
}

/// `y[i] += s * x[i]` (axpy).
pub fn axpy(y: &mut [f32], s: f32, x: &[f32]) {
    for (a, b) in y.iter_mut().zip(x) {
        *a += s * b;
    }
}

/// `y[i] -= x[i]`.
pub fn sub_slices(y: &mut [f32], x: &[f32]) {
    for (a, b) in y.iter_mut().zip(x) {
        *a -= b;
    }
}

/// `y[i] *= s`.
pub fn scale_slice(y: &mut [f32], s: f32) {
    for a in y.iter_mut() {
        *a *= s;
    }
}

/// `dst[i] = f(src[i])`.
pub fn map_slice(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in dst.iter_mut().zip(src) {
        *o = f(x);
    }
}

/// `dst[i] = f(dst[i])`.
pub fn map_slice_inplace(dst: &mut [f32], f: impl Fn(f32) -> f32) {
    for x in dst.iter_mut() {
        *x = f(*x);
    }
}
