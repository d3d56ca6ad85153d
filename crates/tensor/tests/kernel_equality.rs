//! Property tests pinning the kernel-dispatch determinism contract:
//! the blocked and SIMD kernels must be **bitwise** equal to the naive
//! scalar reference for every matmul variant, across shapes that exercise
//! tile boundaries (non-multiple-of-tile dims, empty, 1×N), sparsity
//! dispatch, and thread counts.

use lrgcn_tensor::kernels::{simd_available, Kernel};
use lrgcn_tensor::matrix::dot;
use lrgcn_tensor::Matrix;
use std::sync::Mutex;

/// The kernel override is process-global, so tests that sweep it must not
/// interleave. (A poisoned lock just means another test already failed.)
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// splitmix64-derived pseudo-random floats in [-1, 1).
fn pseudo(n: usize, seed: u64) -> Vec<f32> {
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

/// Same distribution with ~95% of entries zeroed: exercises the sparse
/// dispatch path in the blocked/simd kernels.
fn sparse(n: usize, seed: u64) -> Vec<f32> {
    let mut v = pseudo(n, seed);
    let mut s = seed ^ 0xdead_beef;
    for x in v.iter_mut() {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        if s % 100 < 95 {
            *x = 0.0;
        }
    }
    v
}

fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} drifted ({x} vs {y})"
        );
    }
}

fn kernels_under_test() -> Vec<Kernel> {
    let mut ks = vec![Kernel::Blocked];
    if simd_available() {
        ks.push(Kernel::Simd);
    }
    ks
}

/// Shapes chosen to hit: empty operands, single rows/cols, exact tile
/// multiples (32), every tail tier (8-wide, scalar), odd sizes, and the
/// degenerate boundaries of the dispatch paths — `k = 0` (no shared dim:
/// the kernels must produce a well-defined all-zero product), `n = 0`
/// (empty right operand), and single-row/single-column operands that keep
/// every tile loop in its tail case. The last six are the edges of the
/// AVX2 `matmul_nt` panel kernel: one full 16-row B panel under a one-row
/// tile with and without a `k % 8` tail, a 4-row tile over `k = 8 + 1`,
/// panels plus a `n % 16` remainder under 4 + 4 + 1 A rows, `k = 64 + 1`
/// with one panel and 15 leftover B rows, and more A rows than one
/// 256-row cache block.
const SHAPES: [(usize, usize, usize); 21] = [
    (0, 3, 4),
    (1, 1, 1),
    (1, 64, 33),
    (3, 5, 7),
    (4, 64, 64),
    (5, 2, 32),
    (7, 13, 41),
    (8, 64, 96),
    (2, 31, 70),
    (6, 17, 9),
    (3, 0, 5),
    (4, 7, 0),
    (0, 0, 0),
    (1, 40, 1),
    (9, 1, 9),
    (1, 64, 16),
    (1, 7, 16),
    (4, 9, 16),
    (9, 64, 50),
    (5, 65, 31),
    (260, 8, 17),
];

#[test]
fn matmul_kernels_bitwise_match_naive() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (round, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (dense_a, tag) in [(true, "dense"), (false, "sparse")] {
            let seed = 1000 + round as u64;
            let a_data = if dense_a {
                pseudo(m * k, seed)
            } else {
                sparse(m * k, seed)
            };
            let a = Matrix::from_vec(m, k, a_data);
            let b = Matrix::from_vec(k, n, pseudo(k * n, seed + 500));
            lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
            let reference = a.matmul_with_threads(&b, 1);
            for kern in kernels_under_test() {
                lrgcn_tensor::kernels::set_kernel(kern);
                for threads in [1usize, 3] {
                    let got = a.matmul_with_threads(&b, threads);
                    assert_bitwise_eq(
                        &reference,
                        &got,
                        &format!("matmul {m}x{k}x{n} {tag} {kern:?} t={threads}"),
                    );
                }
            }
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}

#[test]
fn matmul_tn_kernels_bitwise_match_naive() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (round, &(m, k, n)) in SHAPES.iter().enumerate() {
        // tn: A is k x m (shared dim is A's rows), out is m x n.
        for (dense_a, tag) in [(true, "dense"), (false, "sparse")] {
            let seed = 2000 + round as u64;
            let a_data = if dense_a {
                pseudo(k * m, seed)
            } else {
                sparse(k * m, seed)
            };
            let a = Matrix::from_vec(k, m, a_data);
            let b = Matrix::from_vec(k, n, pseudo(k * n, seed + 500));
            lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
            let reference = a.matmul_tn_with_threads(&b, 1);
            for kern in kernels_under_test() {
                lrgcn_tensor::kernels::set_kernel(kern);
                for threads in [1usize, 3] {
                    let got = a.matmul_tn_with_threads(&b, threads);
                    assert_bitwise_eq(
                        &reference,
                        &got,
                        &format!("matmul_tn {k}x{m} x {k}x{n} {tag} {kern:?} t={threads}"),
                    );
                }
            }
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}

#[test]
fn matmul_nt_kernels_bitwise_match_naive() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (round, &(m, k, n)) in SHAPES.iter().enumerate() {
        // nt: B is n x k, out is m x n.
        let seed = 3000 + round as u64;
        let a = Matrix::from_vec(m, k, pseudo(m * k, seed));
        let b = Matrix::from_vec(n, k, pseudo(n * k, seed + 500));
        lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
        let reference = a.matmul_nt_with_threads(&b, 1);
        for kern in kernels_under_test() {
            lrgcn_tensor::kernels::set_kernel(kern);
            for threads in [1usize, 3] {
                let got = a.matmul_nt_with_threads(&b, threads);
                assert_bitwise_eq(
                    &reference,
                    &got,
                    &format!("matmul_nt {m}x{k} x {n}x{k}^T {kern:?} t={threads}"),
                );
            }
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}

/// Values where a lane-wise kernel could plausibly part from the scalar
/// chain: signed zeros (a chain of `-0.0` products keeps the sign of its
/// starting accumulator), denormals (no flush-to-zero on either path) and
/// ordinary values whose products underflow into them.
fn edge_values(n: usize, seed: u64) -> Vec<f32> {
    const ALPHABET: [f32; 10] = [
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-20,
        -1.0e-20,
        0.75,
        -1.5,
    ];
    // `pseudo` is uniform on [-1, 1): five alphabet slots per unit.
    pseudo(n, seed)
        .iter()
        .map(|&p| ALPHABET[((p + 1.0) * 5.0) as usize % ALPHABET.len()])
        .collect()
}

#[test]
fn matmul_nt_signed_zeros_and_denormals_bitwise_match_naive() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // 4 + 1 A rows over two panels and a 5-row remainder; k has an 8-block
    // and a tail.
    let (m, k, n) = (5, 13, 37);
    let mut a_data = edge_values(m * k, 91);
    let mut b_data = edge_values(n * k, 92);
    // Row 0 of A against rows 0 (a panel lane) and 36 (the `dot`
    // remainder) of B: every product is `-0.0`, the one chain whose result
    // shows the sign of the accumulator it started from.
    a_data[..k].fill(-0.0);
    b_data[..k].fill(2.0);
    b_data[36 * k..].fill(3.0);
    let a = Matrix::from_vec(m, k, a_data);
    let b = Matrix::from_vec(n, k, b_data);
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
    let reference = a.matmul_nt_with_threads(&b, 1);
    assert_eq!(
        reference[(0, 0)].to_bits(),
        0.0f32.to_bits(),
        "chains start at +0.0"
    );
    assert!(
        reference.data().iter().any(|x| x.is_subnormal()),
        "the case must produce denormal cells"
    );
    for kern in kernels_under_test() {
        lrgcn_tensor::kernels::set_kernel(kern);
        for threads in [1usize, 3] {
            let got = a.matmul_nt_with_threads(&b, threads);
            assert_bitwise_eq(
                &reference,
                &got,
                &format!("matmul_nt edge values {kern:?} t={threads}"),
            );
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}

#[test]
fn nt_blocked_cells_equal_plain_dot_chains() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The nt speedup keeps eight cells in flight, but each cell must still
    // be the plain sequential dot of its row pair.
    let (m, k, n) = (3, 37, 19);
    let a = Matrix::from_vec(m, k, pseudo(m * k, 42));
    let b = Matrix::from_vec(n, k, pseudo(n * k, 43));
    for kern in kernels_under_test() {
        lrgcn_tensor::kernels::set_kernel(kern);
        let got = a.matmul_nt_with_threads(&b, 1);
        for i in 0..m {
            for j in 0..n {
                let want = dot(a.row(i), b.row(j));
                assert_eq!(got[(i, j)].to_bits(), want.to_bits(), "cell ({i},{j})");
            }
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}

#[test]
fn all_zero_blocks_stay_bitwise_equal_across_kernels() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Fully-zero operands push the blocked/simd block-density dispatch
    // (nz*8 < len) to its extreme: every block takes the sparse branch.
    // The result must still be bitwise-identical to naive — all +0.0, no
    // stray -0.0 from a vectorized path.
    let (m, k, n) = (6, 40, 35);
    let zero_a = Matrix::zeros(m, k);
    let zero_b = Matrix::zeros(k, n);
    let dense_a = Matrix::from_vec(m, k, pseudo(m * k, 77));
    let dense_b = Matrix::from_vec(k, n, pseudo(k * n, 78));
    let cases: [(&Matrix, &Matrix, &str); 3] = [
        (&zero_a, &dense_b, "zero_a"),
        (&dense_a, &zero_b, "zero_b"),
        (&zero_a, &zero_b, "zero_both"),
    ];
    for (a, b, tag) in cases {
        lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
        let reference = a.matmul_with_threads(b, 1);
        for kern in kernels_under_test() {
            lrgcn_tensor::kernels::set_kernel(kern);
            for threads in [1usize, 3] {
                let got = a.matmul_with_threads(b, threads);
                assert_bitwise_eq(&reference, &got, &format!("matmul {tag} {kern:?} t={threads}"));
            }
        }
    }
    // Same boundary for the nt variant (B stored row-major n x k).
    let zero_bt = Matrix::zeros(n, k);
    let dense_bt = Matrix::from_vec(n, k, pseudo(n * k, 79));
    let nt_cases: [(&Matrix, &Matrix, &str); 2] =
        [(&zero_a, &dense_bt, "zero_a"), (&dense_a, &zero_bt, "zero_b")];
    for (a, b, tag) in nt_cases {
        lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
        let reference = a.matmul_nt_with_threads(b, 1);
        for kern in kernels_under_test() {
            lrgcn_tensor::kernels::set_kernel(kern);
            let got = a.matmul_nt_with_threads(b, 1);
            assert_bitwise_eq(&reference, &got, &format!("matmul_nt {tag} {kern:?}"));
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}

#[test]
fn spmm_kernels_bitwise_match_naive_through_csr() {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use lrgcn_graph::Csr;
    // Ragged sparse matrix covering empty rows and long rows.
    let triplets: Vec<(u32, u32, f32)> = (0..200u32)
        .map(|e| {
            let r = (e * 7) % 23;
            let c = (e * 13) % 17;
            (r, c, ((e % 11) as f32 - 5.0) * 0.25)
        })
        .collect();
    let csr = Csr::from_coo(23, 17, triplets);
    for width in [1usize, 8, 31, 32, 33, 64, 70] {
        let dense = pseudo(17 * width, width as u64);
        lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
        let reference = csr.spmm(&dense, width);
        for kern in kernels_under_test() {
            lrgcn_tensor::kernels::set_kernel(kern);
            let serial = csr.spmm(&dense, width);
            let mut parallel = vec![0.0f32; 23 * width];
            csr.spmm_into_parallel(&dense, width, &mut parallel, 4);
            for (what, got) in [("serial", &serial), ("parallel", &parallel)] {
                assert!(
                    got.iter()
                        .zip(&reference)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "spmm {what} {kern:?} width={width} drifted from naive"
                );
            }
        }
    }
    lrgcn_tensor::kernels::set_kernel(Kernel::Naive);
}
