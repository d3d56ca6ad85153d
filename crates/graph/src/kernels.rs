//! Kernel-implementation selection and the sparse propagation micro-kernels.
//!
//! Every hot loop in the workspace (dense matmuls in `lrgcn-tensor`, the
//! CSR propagation kernel here) is implemented three times behind the
//! [`Kernel`] enum:
//!
//! * [`Kernel::Naive`] — the original scalar reference loops, kept verbatim
//!   as the bitwise ground truth;
//! * [`Kernel::Blocked`] — cache-blocked, register-tiled loops written so
//!   LLVM can autovectorize them;
//! * [`Kernel::Simd`] — explicit AVX2 intrinsics (`std::arch`), selected
//!   only when the CPU reports the feature at runtime.
//!
//! ## Determinism contract
//!
//! All three implementations compute **every output cell with the same
//! single-accumulator, ascending-index accumulation order**. Tiling changes
//! *which* cells are in flight together (independent accumulators), never
//! the order of adds within one cell, and the SIMD paths use separate
//! multiply and add instructions (no FMA), which are lane-wise identical to
//! the scalar ops. Where a kernel's cells do not lie side by side in memory
//! — `matmul_nt` in `lrgcn-tensor`, whose cells along an output row are
//! dots with *different* B rows — the AVX2 path first transposes a panel of
//! sixteen B rows so that they do; that moves values without touching
//! them, and lane `j` then runs cell `j`'s scalar chain (from `+0.0`,
//! multiply then add, ascending `k`). For finite inputs the three kernels
//! are therefore bitwise identical — the golden-trajectory, grad-check and
//! thread-equality suites pass unchanged under every `LRGCN_KERNEL` value.
//! (The one caveat: the naive reference skips zero multipliers, so a
//! non-finite value multiplied by zero would produce NaN only in the tiled
//! paths. Training data is guarded finite by the divergence sentinel.)
//!
//! ## Mode resolution
//!
//! The active kernel is resolved once, in priority order: `LRGCN_KERNEL`
//! environment variable (`naive` / `blocked` / `simd`) → [`set_kernel`]
//! override (the CLI `--kernel` flag) → the fastest supported default
//! (`simd` when AVX2 is detected, else `blocked`). Requesting `simd` on a
//! machine without AVX2 falls back to `blocked` with a warning.

use lrgcn_obs::registry::{self, Counter};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which implementation of the hot kernels to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Scalar reference loops (the bitwise ground truth).
    Naive,
    /// Cache-blocked, register-tiled, autovectorization-friendly loops.
    Blocked,
    /// Explicit AVX2 intrinsics; requires runtime CPU support.
    Simd,
}

impl Kernel {
    /// All kernels, in escalation order.
    pub const ALL: [Kernel; 3] = [Kernel::Naive, Kernel::Blocked, Kernel::Simd];

    /// The name accepted by `LRGCN_KERNEL` and printed in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Naive => "naive",
            Kernel::Blocked => "blocked",
            Kernel::Simd => "simd",
        }
    }

    /// Parses a `LRGCN_KERNEL` / `--kernel` value.
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(Kernel::Naive),
            "blocked" => Some(Kernel::Blocked),
            "simd" => Some(Kernel::Simd),
            _ => None,
        }
    }
}

/// Resolved kernel; `0` means "not resolved yet", otherwise discriminant+1.
static KERNEL: AtomicUsize = AtomicUsize::new(0);

/// Whether the explicit-SIMD kernels can run on this CPU (AVX2 detected at
/// runtime; always `false` off x86-64).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Downgrades `simd` to `blocked` when the CPU cannot run it.
fn supported(k: Kernel) -> Kernel {
    if k == Kernel::Simd && !simd_available() {
        eprintln!("warning: LRGCN_KERNEL=simd requested but AVX2 is unavailable; using blocked");
        Kernel::Blocked
    } else {
        k
    }
}

/// The kernel implementation all hot loops dispatch to (cached after the
/// first call; see the module docs for the resolution order).
pub fn active_kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        1 => Kernel::Naive,
        2 => Kernel::Blocked,
        3 => Kernel::Simd,
        _ => {
            let resolved = resolve_default();
            // Racing first calls resolve identically; any store may win.
            KERNEL.store(resolved as usize + 1, Ordering::Relaxed);
            resolved
        }
    }
}

fn resolve_default() -> Kernel {
    if let Ok(s) = std::env::var("LRGCN_KERNEL") {
        match Kernel::parse(&s) {
            Some(k) => return supported(k),
            None => eprintln!(
                "warning: ignoring invalid LRGCN_KERNEL={s:?} (want naive|blocked|simd)"
            ),
        }
    }
    if simd_available() {
        Kernel::Simd
    } else {
        Kernel::Blocked
    }
}

/// Overrides the active kernel (the CLI `--kernel` flag). `simd` is
/// downgraded to `blocked` when unsupported.
pub fn set_kernel(k: Kernel) {
    KERNEL.store(supported(k) as usize + 1, Ordering::Relaxed);
}

/// Records one kernel dispatch in the metrics registry. Called once per
/// public kernel entry point (not per row), so counter overhead stays off
/// the hot path.
#[inline]
pub fn count_dispatch(k: Kernel) {
    registry::add(
        match k {
            Kernel::Naive => Counter::KernelNaive,
            Kernel::Blocked => Counter::KernelBlocked,
            Kernel::Simd => Counter::KernelSimd,
        },
        1,
    );
}

// ---------------------------------------------------------------------------
// SpMM row kernels
// ---------------------------------------------------------------------------

/// Width of the widest column tile: 32 floats = 4 AVX2 lanes = half a
/// typical L1 set, small enough that a tile's accumulators live in
/// registers.
pub const TILE: usize = 32;

/// Computes a contiguous block of output rows of `out = csr * dense`.
///
/// `out_block` covers rows `start_row ..` of the product and is overwritten.
/// Per output cell the accumulation order is the CSR nnz order in all three
/// modes, so results are bitwise identical across kernels and across any
/// row partitioning.
#[allow(clippy::too_many_arguments)]
pub fn spmm_block(
    kernel: Kernel,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    start_row: usize,
    dense: &[f32],
    width: usize,
    out_block: &mut [f32],
) {
    if width == 0 || out_block.is_empty() {
        return;
    }
    debug_assert_eq!(out_block.len() % width, 0);
    for (local, orow) in out_block.chunks_exact_mut(width).enumerate() {
        let r = start_row + local;
        let (s, e) = (indptr[r], indptr[r + 1]);
        let (cols, vals) = (&indices[s..e], &values[s..e]);
        match kernel {
            Kernel::Naive => spmm_row_naive(cols, vals, dense, width, orow),
            Kernel::Blocked => spmm_row_blocked(cols, vals, dense, width, orow),
            Kernel::Simd => {
                #[cfg(target_arch = "x86_64")]
                // Safety: Kernel::Simd is only resolved when AVX2 was
                // detected at runtime (see `supported`).
                unsafe {
                    spmm_row_avx2(cols, vals, dense, width, orow)
                }
                #[cfg(not(target_arch = "x86_64"))]
                spmm_row_blocked(cols, vals, dense, width, orow)
            }
        }
    }
}

/// Reference kernel: the original axpy-per-nonzero loop.
fn spmm_row_naive(cols: &[u32], vals: &[f32], dense: &[f32], width: usize, orow: &mut [f32]) {
    orow.fill(0.0);
    for (&c, &v) in cols.iter().zip(vals) {
        let drow = &dense[c as usize * width..(c as usize + 1) * width];
        for (o, d) in orow.iter_mut().zip(drow) {
            *o += v * d;
        }
    }
}

/// Column-blocked kernel: each `TILE`-wide stripe of the output row is
/// accumulated in a register-resident array across all nonzeros, so the
/// output is written once instead of once per nonzero.
fn spmm_row_blocked(cols: &[u32], vals: &[f32], dense: &[f32], width: usize, orow: &mut [f32]) {
    let mut j = 0;
    while j + TILE <= width {
        let mut acc = [0.0f32; TILE];
        for (&c, &v) in cols.iter().zip(vals) {
            let d = &dense[c as usize * width + j..c as usize * width + j + TILE];
            for (a, &dv) in acc.iter_mut().zip(d) {
                *a += v * dv;
            }
        }
        orow[j..j + TILE].copy_from_slice(&acc);
        j += TILE;
    }
    if j < width {
        let tail = width - j;
        let mut acc = [0.0f32; TILE];
        for (&c, &v) in cols.iter().zip(vals) {
            let d = &dense[c as usize * width + j..c as usize * width + width];
            for (a, &dv) in acc[..tail].iter_mut().zip(d) {
                *a += v * dv;
            }
        }
        orow[j..].copy_from_slice(&acc[..tail]);
    }
}

/// AVX2 kernel: same stripe structure as [`spmm_row_blocked`] with explicit
/// 8-lane multiply-then-add (no FMA — lane-wise identical to scalar).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn spmm_row_avx2(cols: &[u32], vals: &[f32], dense: &[f32], width: usize, orow: &mut [f32]) {
    use std::arch::x86_64::*;
    let dp = dense.as_ptr();
    let mut j = 0;
    while j + TILE <= width {
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for (&c, &v) in cols.iter().zip(vals) {
            let base = dp.add(c as usize * width + j);
            let vv = _mm256_set1_ps(v);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vv, _mm256_loadu_ps(base)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vv, _mm256_loadu_ps(base.add(8))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vv, _mm256_loadu_ps(base.add(16))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vv, _mm256_loadu_ps(base.add(24))));
        }
        let op = orow.as_mut_ptr().add(j);
        _mm256_storeu_ps(op, a0);
        _mm256_storeu_ps(op.add(8), a1);
        _mm256_storeu_ps(op.add(16), a2);
        _mm256_storeu_ps(op.add(24), a3);
        j += TILE;
    }
    while j + 8 <= width {
        let mut a0 = _mm256_setzero_ps();
        for (&c, &v) in cols.iter().zip(vals) {
            let base = dp.add(c as usize * width + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(v), _mm256_loadu_ps(base)));
        }
        _mm256_storeu_ps(orow.as_mut_ptr().add(j), a0);
        j += 8;
    }
    if j < width {
        let tail = width - j;
        let mut acc = [0.0f32; 8];
        for (&c, &v) in cols.iter().zip(vals) {
            let d = &dense[c as usize * width + j..c as usize * width + width];
            for (a, &dv) in acc[..tail].iter_mut().zip(d) {
                *a += v * dv;
            }
        }
        orow[j..].copy_from_slice(&acc[..tail]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse(" Blocked "), Some(Kernel::Blocked));
        assert_eq!(Kernel::parse("fast"), None);
    }

    #[test]
    fn set_kernel_overrides() {
        let before = active_kernel();
        set_kernel(Kernel::Naive);
        assert_eq!(active_kernel(), Kernel::Naive);
        set_kernel(Kernel::Blocked);
        assert_eq!(active_kernel(), Kernel::Blocked);
        set_kernel(before);
    }

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        // splitmix64-derived pseudo-random floats in [-1, 1).
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    #[test]
    fn spmm_kernels_are_bitwise_equal() {
        // A small ragged CSR: rows with 0, 1 and many nonzeros.
        let n_rows = 5;
        let n_cols = 7;
        let indptr = vec![0usize, 3, 3, 4, 9, 12];
        let indices = vec![0u32, 2, 6, 5, 0, 1, 2, 3, 4, 1, 3, 6];
        let values = pseudo(indices.len(), 11);
        for width in [0usize, 1, 3, 8, 31, 32, 33, 64, 70] {
            let dense = pseudo(n_cols * width, 100 + width as u64);
            let mut reference = vec![f32::NAN; n_rows * width];
            spmm_block(
                Kernel::Naive,
                &indptr,
                &indices,
                &values,
                0,
                &dense,
                width,
                &mut reference,
            );
            for k in [Kernel::Blocked, Kernel::Simd] {
                if k == Kernel::Simd && !simd_available() {
                    continue;
                }
                let mut out = vec![f32::NAN; n_rows * width];
                spmm_block(k, &indptr, &indices, &values, 0, &dense, width, &mut out);
                if width == 0 {
                    continue; // nothing written; buffers are empty
                }
                assert!(
                    out.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "spmm kernel {k:?} drifted from naive at width {width}"
                );
            }
        }
    }
}
