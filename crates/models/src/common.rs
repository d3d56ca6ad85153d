//! Shared building blocks for the GCN-family models.

use lrgcn_data::{BprBatch, Dataset};
use lrgcn_tensor::tape::{SharedCsr, Tape, Var};
use lrgcn_tensor::{par, Matrix};
use std::rc::Rc;

/// Mean readout over layer embeddings (LightGCN, Eq. 3 with a mean).
pub fn mean_readout(tape: &mut Tape, layers: &[Var]) -> Var {
    assert!(!layers.is_empty(), "mean readout of zero layers");
    let mut acc = layers[0];
    for &l in &layers[1..] {
        acc = tape.add(acc, l);
    }
    tape.mul_scalar(acc, 1.0 / layers.len() as f32)
}

/// Sum readout over layer embeddings (LayerGCN, Eq. 9).
pub fn sum_readout(tape: &mut Tape, layers: &[Var]) -> Var {
    assert!(!layers.is_empty(), "sum readout of zero layers");
    let mut acc = layers[0];
    for &l in &layers[1..] {
        acc = tape.add(acc, l);
    }
    acc
}

/// Shared index vector handed to `Tape::gather`.
pub type SharedIndices = Rc<Vec<u32>>;

/// Batch index vectors in the unified node-id space (`item += n_users`).
pub fn batch_node_indices(
    batch: &BprBatch,
    n_users: usize,
) -> (SharedIndices, SharedIndices, SharedIndices) {
    let off = n_users as u32;
    (
        Rc::new(batch.users.clone()),
        Rc::new(batch.pos_items.iter().map(|&i| i + off).collect()),
        Rc::new(batch.neg_items.iter().map(|&i| i + off).collect()),
    )
}

/// BPR loss (Eq. 11–12) on a final node-embedding matrix `final_x`
/// (`N x T`, users first). `ego` is the ego-layer table the L2 penalty
/// applies to (the paper regularizes `X^0`); the penalty is computed on the
/// *batch's* ego rows, normalized by batch size, which is the standard
/// LightGCN-style implementation of Eq. 12.
pub fn bpr_loss(
    tape: &mut Tape,
    final_x: Var,
    ego: Var,
    n_users: usize,
    batch: &BprBatch,
    lambda: f32,
) -> Var {
    bpr_loss_at(tape, final_x, ego, batch_node_indices(batch, n_users), lambda)
}

/// [`bpr_loss`] with the batch's users, positives and negatives given as
/// row indices into `final_x` and `ego`, for tables that hold only some
/// nodes, in any row order.
pub fn bpr_loss_at(
    tape: &mut Tape,
    final_x: Var,
    ego: Var,
    (u_idx, i_idx, j_idx): (SharedIndices, SharedIndices, SharedIndices),
    lambda: f32,
) -> Var {
    let batch_len = u_idx.len();
    let eu = tape.gather(final_x, Rc::clone(&u_idx));
    let ei = tape.gather(final_x, Rc::clone(&i_idx));
    let ej = tape.gather(final_x, Rc::clone(&j_idx));
    let pos = tape.row_dot(eu, ei);
    let neg = tape.row_dot(eu, ej);
    let diff = tape.sub(neg, pos);
    // -ln sigmoid(pos - neg) = softplus(neg - pos).
    let sp = tape.softplus(diff);
    let bpr = tape.mean_all(sp);
    if lambda > 0.0 {
        let e0u = tape.gather(ego, u_idx);
        let e0i = tape.gather(ego, i_idx);
        let e0j = tape.gather(ego, j_idx);
        let ru = tape.sq_frobenius(e0u);
        let ri = tape.sq_frobenius(e0i);
        let rj = tape.sq_frobenius(e0j);
        let r1 = tape.add(ru, ri);
        let r2 = tape.add(r1, rj);
        let reg = tape.mul_scalar(r2, lambda / batch_len.max(1) as f32);
        tape.add(bpr, reg)
    } else {
        bpr
    }
}

/// Splits an `N x T` node matrix into `(user block, item block)`.
pub fn split_user_item(final_x: &Matrix, n_users: usize) -> (Matrix, Matrix) {
    (
        final_x.slice_rows(0, n_users),
        final_x.slice_rows(n_users, final_x.rows()),
    )
}

/// Scores `users x n_items` by dot product from a final node matrix
/// (Eq. 10), against the item rows where they lie in `final_x`.
pub fn score_from_final(final_x: &Matrix, n_users: usize, users: &[u32]) -> Matrix {
    let items = &final_x.data()[n_users * final_x.cols()..];
    let u = final_x.gather_rows(users);
    u.matmul_nt_rows(items, final_x.rows() - n_users, par::effective_threads())
}

/// LightGCN-style propagation with plain matrices (no tape) — used at
/// inference where no gradients are needed. Returns all layers.
pub fn propagate_matrix(adj: &lrgcn_graph::Csr, x0: &Matrix, layers: usize) -> Vec<Matrix> {
    let mut out = Vec::with_capacity(layers + 1);
    out.push(x0.clone());
    let width = x0.cols();
    for l in 0..layers {
        let prev = &out[l];
        let next = adj.spmm(prev.data(), width);
        out.push(Matrix::from_vec(adj.n_rows(), width, next));
    }
    out
}

/// The inference-time full normalized adjacency of a dataset's training
/// graph, wrapped for the tape.
pub fn full_adjacency(ds: &Dataset) -> SharedCsr {
    SharedCsr::new(ds.train().norm_adjacency())
}

// ---------------------------------------------------------------------------
// Diagnostics helpers (read-only, serial, f64-accumulated)
// ---------------------------------------------------------------------------
//
// These feed `Recommender::diagnostics`. They deliberately run serially over
// rows with f64 accumulators: the matrices involved are one embedding table
// per layer, so the cost is a few passes over N x T floats — negligible next
// to an epoch — and the result is bitwise identical at every thread count.

/// Mean row-cosine between two equal-shaped matrices.
pub fn mean_row_cosine(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "cosine of mismatched shapes");
    if a.rows() == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for r in 0..a.rows() {
        let (ra, rb) = (a.row(r), b.row(r));
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for (&x, &y) in ra.iter().zip(rb) {
            dot += x as f64 * y as f64;
            na += x as f64 * x as f64;
            nb += y as f64 * y as f64;
        }
        total += dot / (na.sqrt() * nb.sqrt() + 1e-12);
    }
    total / a.rows() as f64
}

/// The over-smoothing probe shared by the GCN-family models: mean
/// row-cosine between each consecutive pair in a layer chain
/// `[X^0, X^1, ..., X^L]`. A chain collapsing toward indistinguishable
/// embeddings (the paper's Figs. 1/5 pathology) shows values rising
/// toward 1 with depth.
pub fn consecutive_smoothness(chain: &[Matrix]) -> Vec<f64> {
    chain
        .windows(2)
        .map(|w| mean_row_cosine(&w[0], &w[1]))
        .collect()
}

/// Mean L2 norm over the rows of a matrix (embedding-drift probe).
pub fn mean_row_l2(m: &Matrix) -> f64 {
    if m.rows() == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for r in 0..m.rows() {
        total += m
            .row(r)
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>()
            .sqrt();
    }
    total / m.rows() as f64
}

/// Squared Frobenius norm of a gradient matrix, accumulated in f64.
/// Per-batch squared norms sum across an epoch; the square root of the
/// total is the epoch's gradient norm for that parameter group.
pub fn grad_sq_norm(g: &Matrix) -> f64 {
    g.data().iter().map(|&x| x as f64 * x as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egogcn::Propagation;
    use lrgcn_graph::Csr;

    #[test]
    fn readouts_match_hand_computation() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let m = mean_readout(&mut t, &[a, b]);
        assert_eq!(t.value(m).data(), &[2.0, 3.0]);
        let s = sum_readout(&mut t, &[a, b]);
        assert_eq!(t.value(s).data(), &[4.0, 6.0]);
    }

    #[test]
    fn light_chain_depth() {
        let adj = SharedCsr::new(Csr::identity(3));
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 2, 1.5));
        let (layers, _) = Propagation::Light.chain(&mut t, &adj, x, 3);
        assert_eq!(layers.len(), 4);
        // Identity adjacency: all layers equal X0.
        for &l in &layers {
            assert!(t.value(l).approx_eq(&Matrix::full(3, 2, 1.5), 0.0));
        }
    }

    #[test]
    fn score_from_final_is_dot_product() {
        // 1 user, 2 items, T=2.
        let f = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = score_from_final(&f, 1, &[0]);
        assert_eq!(s.shape(), (1, 2));
        assert_eq!(s.data(), &[11.0, 17.0]); // [1,2]·[3,4], [1,2]·[5,6]
    }

    #[test]
    fn batch_indices_offset_items() {
        let b = BprBatch {
            users: vec![0, 1],
            pos_items: vec![2, 0],
            neg_items: vec![1, 1],
        };
        let (u, i, j) = batch_node_indices(&b, 10);
        assert_eq!(&*u, &vec![0, 1]);
        assert_eq!(&*i, &vec![12, 10]);
        assert_eq!(&*j, &vec![11, 11]);
    }

    #[test]
    fn bpr_loss_decreases_for_better_separation() {
        let mk = |gap: f32| -> f32 {
            let mut t = Tape::new();
            // 1 user at row 0; items at rows 1, 2.
            let x = t.leaf(Matrix::from_vec(3, 1, vec![1.0, gap, 0.0]));
            let b = BprBatch {
                users: vec![0],
                pos_items: vec![0],
                neg_items: vec![1],
            };
            let l = bpr_loss(&mut t, x, x, 1, &b, 0.0);
            t.scalar(l)
        };
        assert!(mk(3.0) < mk(0.5));
    }

    #[test]
    fn smoothness_of_identical_layers_is_one() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let sims = consecutive_smoothness(&[a.clone(), a.clone(), a]);
        assert_eq!(sims.len(), 2);
        for s in sims {
            assert!((s - 1.0).abs() < 1e-9, "self-cosine {s} != 1");
        }
    }

    #[test]
    fn smoothness_of_orthogonal_rows_is_zero() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let sims = consecutive_smoothness(&[a, b]);
        assert!(sims[0].abs() < 1e-9, "orthogonal cosine {} != 0", sims[0]);
    }

    #[test]
    fn row_l2_and_grad_norm_match_hand_computation() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((mean_row_l2(&m) - 2.5).abs() < 1e-9); // (5 + 0) / 2
        assert!((grad_sq_norm(&m) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn propagate_matrix_matches_tape() {
        let adj = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]);
        let x0 = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let plain = propagate_matrix(&adj, &x0, 2);
        let shared = SharedCsr::new(adj);
        let mut t = Tape::new();
        let xv = t.leaf(x0);
        let (taped, _) = Propagation::Light.chain(&mut t, &shared, xv, 2);
        for (p, &v) in plain.iter().zip(&taped) {
            assert!(p.approx_eq(t.value(v), 1e-6));
        }
    }
}
