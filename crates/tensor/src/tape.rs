//! Tape-based reverse-mode automatic differentiation.
//!
//! Every training step in this workspace builds a fresh [`Tape`], records a
//! computation over [`Matrix`] values, calls [`Tape::backward`] on a scalar
//! loss, and reads gradients back for the optimizer. Nodes store an op
//! enum (not closures), which keeps the tape a plain data structure: parents
//! always precede children, so backward is a single reverse sweep with a
//! `match` per node.
//!
//! The op set is exactly what the paper's ten models need: dense/sparse
//! matmuls, row gathering (embedding lookup), row-wise dot, cosine and L2
//! normalisation, LayerGCN's fused layer refinement ([`Tape::refine`],
//! Eq. 6–8), broadcasts, standard nonlinearities and reductions. Every
//! backward rule is verified against central finite differences by the
//! tests in [`crate::grad_check`]; `refine` is also checked bit for bit
//! against the composed `row_cosine → add_scalar → mul_row_broadcast` it
//! replaces (`tests/refine_bitwise.rs`).

use crate::matrix::{dot, Matrix};
use crate::par;
use lrgcn_graph::Csr;
use std::rc::Rc;
use std::sync::Arc;

/// Handle to a node on a [`Tape`]. Only valid for the tape that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// A sparse matrix shared with the tape, with its transpose precomputed for
/// the backward pass. For symmetric matrices (every normalized adjacency in
/// this workspace) the transpose shares the same allocation. `Arc`-backed so
/// models holding one are `Send + Sync` and can be scored from the parallel
/// evaluation workers.
#[derive(Clone)]
pub struct SharedCsr {
    fwd: Arc<Csr>,
    bwd: Arc<Csr>,
}

impl SharedCsr {
    /// Wraps a sparse matrix, computing (or aliasing) its transpose.
    pub fn new(m: Csr) -> Self {
        if m.is_symmetric(0.0) {
            let fwd = Arc::new(m);
            Self {
                bwd: Arc::clone(&fwd),
                fwd,
            }
        } else {
            let bwd = Arc::new(m.transpose());
            Self {
                fwd: Arc::new(m),
                bwd,
            }
        }
    }

    pub fn matrix(&self) -> &Csr {
        &self.fwd
    }

    pub fn transpose(&self) -> &Csr {
        &self.bwd
    }

    /// Applies `f` to the matrix and to its transpose. `f` must commute
    /// with transposition, as a symmetric relabelling or appending empty
    /// rows and columns does; a symmetric matrix is mapped once and its
    /// transpose stays an alias.
    pub fn map(&self, f: impl Fn(&Csr) -> Csr) -> Self {
        let fwd = Arc::new(f(&self.fwd));
        let bwd = if Arc::ptr_eq(&self.fwd, &self.bwd) {
            Arc::clone(&fwd)
        } else {
            Arc::new(f(&self.bwd))
        };
        Self { fwd, bwd }
    }
}

/// The operation that produced a tape node.
enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Elementwise product.
    Mul(Var, Var),
    // The scalar is only needed in the forward pass (d(x+s)/dx = 1), but is
    // kept for debuggability of recorded tapes.
    AddScalar(Var, #[allow(dead_code)] f32),
    MulScalar(Var, f32),
    /// `A * B`.
    MatMul(Var, Var),
    /// `A^T * B`.
    MatMulTN(Var, Var),
    /// `A * B^T`.
    MatMulNT(Var, Var),
    /// `S * A` for sparse `S`.
    SpMM(SharedCsr, Var),
    /// Row lookup (embedding gather); repeated indices accumulate on backward.
    Gather(Var, Rc<Vec<u32>>),
    /// Horizontal concatenation.
    ConcatCols(Vec<Var>),
    Sigmoid(Var),
    /// `ln(1 + e^x)`, computed stably.
    Softplus(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Tanh(Var),
    Exp(Var),
    /// `ln(max(x, eps))`.
    Ln(Var, f32),
    /// Per-row dot product: `(n,t),(n,t) -> (n,1)`.
    RowDot(Var, Var),
    /// Per-row cosine similarity with `eps` clamp (Eq. 8): `(n,t),(n,t) -> (n,1)`.
    RowCosine(Var, Var, f32),
    /// Rows scaled to unit L2 norm (`eps`-clamped).
    RowL2Normalize(Var, f32),
    /// `(n,t) * (n,1)` broadcast over columns.
    MulRowBroadcast(Var, Var),
    /// LayerGCN's refinement `p ⊙_rows (cos(p, x0) + ε)` (Eq. 6–8), with
    /// the cosine's `eps` clamp. `stats` keeps each row's `p·x0`, `|p|²`,
    /// `|x0|²` and scale `cos + ε` for the backward.
    Refine {
        p: Var,
        x0: Var,
        cos_eps: f32,
        stats: Vec<[f32; 4]>,
    },
    /// `(n,t) + (1,t)` broadcast over rows (bias add).
    AddColBroadcast(Var, Var),
    /// `(n,t) - (n,1)` broadcast over columns (e.g. log-softmax shift).
    SubRowBroadcast(Var, Var),
    /// Multiply every element by a `(1,1)` scalar node.
    MulScalarVar(Var, Var),
    /// `1 / max(x, eps)` elementwise.
    Recip(Var, f32),
    /// Elementwise product with a constant mask (inverted dropout).
    Dropout(Var, Rc<Vec<f32>>),
    /// Sum of all elements `-> (1,1)`.
    Sum(Var),
    /// Mean of all elements `-> (1,1)`.
    MeanAll(Var),
    /// Per-row sum: `(n,t) -> (n,1)`.
    RowSum(Var),
    /// Squared Frobenius norm `-> (1,1)`.
    SqFrobenius(Var),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A reverse-mode autodiff tape over [`Matrix`] values.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        debug_assert!(!value.has_non_finite(), "non-finite value entering tape");
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn child_needs_grad(&self, parents: &[Var]) -> bool {
        parents.iter().any(|&Var(p)| self.nodes[p].needs_grad)
    }

    /// Registers a differentiable leaf (a parameter).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Registers a non-differentiable constant input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if backward reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Takes ownership of a node's gradient (useful to avoid a clone before
    /// the optimizer step).
    pub fn take_grad(&mut self, v: Var) -> Option<Matrix> {
        self.nodes[v.0].grad.take()
    }

    // ----- op builders ------------------------------------------------------

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::Add(a, b), ng)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::Sub(a, b), ng)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let mut value = va.clone();
        for (x, y) in value.data_mut().iter_mut().zip(vb.data()) {
            *x *= y;
        }
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::Mul(a, b), ng)
    }

    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|x| x + s);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::AddScalar(a, s), ng)
    }

    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|x| x * s);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::MulScalar(a, s), ng)
    }

    pub fn neg(&mut self, a: Var) -> Var {
        self.mul_scalar(a, -1.0)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::MatMul(a, b), ng)
    }

    /// `A^T * B`.
    pub fn matmul_tn(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_tn(self.value(b));
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::MatMulTN(a, b), ng)
    }

    /// `A * B^T`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_nt(self.value(b));
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::MatMulNT(a, b), ng)
    }

    /// Sparse-dense product `S * A` — the GCN propagation step. Fans out
    /// across row blocks (bitwise identical to serial for any thread
    /// count, see [`Csr::spmm_into_parallel`]).
    pub fn spmm(&mut self, s: &SharedCsr, a: Var) -> Var {
        let va = self.value(a);
        let width = va.cols();
        lrgcn_obs::registry::add(lrgcn_obs::Counter::SpmmCalls, 1);
        lrgcn_obs::registry::add(
            lrgcn_obs::Counter::SpmmMacs,
            (s.matrix().nnz() * width) as u64,
        );
        let _span = lrgcn_obs::trace::span("spmm", "kernel");
        let mut out = vec![0.0; s.matrix().n_rows() * width];
        s.matrix()
            .spmm_into_parallel(va.data(), width, &mut out, par::effective_threads());
        let value = Matrix::from_vec(s.matrix().n_rows(), width, out);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::SpMM(s.clone(), a), ng)
    }

    /// Embedding lookup: selects `indices` rows of `a`.
    pub fn gather(&mut self, a: Var, indices: Rc<Vec<u32>>) -> Var {
        let value = self.value(a).gather_rows(&indices);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Gather(a, indices), ng)
    }

    /// Horizontal concatenation of equally-tall matrices.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::concat_cols(&mats);
        let ng = self.child_needs_grad(parts);
        self.push(value, Op::ConcatCols(parts.to_vec()), ng)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(sigmoid);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Sigmoid(a), ng)
    }

    /// Numerically stable `ln(1 + e^x)`; note `-ln(sigmoid(x)) = softplus(-x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.value(a).map(softplus);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Softplus(a), ng)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Relu(a), ng)
    }

    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let value = self.value(a).map(|x| if x > 0.0 { x } else { slope * x });
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::LeakyRelu(a, slope), ng)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Tanh(a), ng)
    }

    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::exp);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Exp(a), ng)
    }

    /// `ln(max(x, eps))` — the clamp keeps log-likelihood losses finite.
    pub fn ln(&mut self, a: Var, eps: f32) -> Var {
        let value = self.value(a).map(|x| x.max(eps).ln());
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Ln(a, eps), ng)
    }

    /// Per-row dot product, producing an `(n, 1)` column. This is the
    /// interaction score `r̂_ui = x_u · x_i` of Eq. 10 evaluated batch-wise.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "row_dot shape mismatch");
        let data: Vec<f32> = (0..va.rows()).map(|r| dot(va.row(r), vb.row(r))).collect();
        let value = Matrix::col_vector(data);
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::RowDot(a, b), ng)
    }

    /// Per-row cosine similarity (Eq. 8):
    /// `sim_r = (a_r · b_r) / max(|a_r| |b_r|, eps)`, producing `(n, 1)`.
    pub fn row_cosine(&mut self, a: Var, b: Var, eps: f32) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "row_cosine shape mismatch");
        let data: Vec<f32> = (0..va.rows())
            .map(|r| {
                let (ar, br) = (va.row(r), vb.row(r));
                dot(ar, br) / (dot(ar, ar).sqrt() * dot(br, br).sqrt()).max(eps)
            })
            .collect();
        let value = Matrix::col_vector(data);
        let ng = self.child_needs_grad(&[a, b]);
        self.push(value, Op::RowCosine(a, b, eps), ng)
    }

    /// Scales each row to unit L2 norm (`eps`-clamped denominator).
    pub fn row_l2_normalize(&mut self, a: Var, eps: f32) -> Var {
        let va = self.value(a);
        let mut value = va.clone();
        for r in 0..value.rows() {
            let n = va.row_norm(r).max(eps);
            for x in value.row_mut(r) {
                *x /= n;
            }
        }
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::RowL2Normalize(a, eps), ng)
    }

    /// Broadcast multiply: `(n,t) * (n,1)` — LayerGCN's refinement scaling
    /// `X^{l+1} = (a^{l+1} + ε) ⊙ X^{l+1}` (Eq. 6).
    pub fn mul_row_broadcast(&mut self, a: Var, s: Var) -> Var {
        let (va, vs) = (self.value(a), self.value(s));
        assert_eq!(vs.cols(), 1, "broadcast operand must be a column");
        assert_eq!(va.rows(), vs.rows(), "broadcast row mismatch");
        let mut value = va.clone();
        for r in 0..value.rows() {
            let f = vs[(r, 0)];
            for x in value.row_mut(r) {
                *x *= f;
            }
        }
        let ng = self.child_needs_grad(&[a, s]);
        self.push(value, Op::MulRowBroadcast(a, s), ng)
    }

    /// LayerGCN's layer refinement (Eq. 6–8) as one op:
    /// `refined_r = p_r · (sim_r + epsilon)` with
    /// `sim_r = (p_r · x0_r) / max(|p_r| |x0_r|, cos_eps)`. Returns the
    /// refined layer and the similarities as a constant `(n, 1)` node.
    ///
    /// Bitwise the composed `row_cosine → add_scalar → mul_row_broadcast`,
    /// forward and backward: each row's three sums are sequential chains in
    /// [`dot`]'s order, and every element uses the composed ops' expression
    /// (DESIGN.md §10, "Fused refinement"). The similarities carry no
    /// gradient.
    pub fn refine(&mut self, p: Var, x0: Var, epsilon: f32, cos_eps: f32) -> (Var, Var) {
        assert_ne!(p, x0, "refine needs two distinct nodes");
        let (vp, vx) = (self.value(p), self.value(x0));
        assert_eq!(vp.shape(), vx.shape(), "refine shape mismatch");
        let (n, t) = vp.shape();
        let mut out = Vec::with_capacity(n * t);
        let mut sims = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        for r in 0..n {
            let (pr, xr) = (vp.row(r), vx.row(r));
            // Three independent chains, each in `dot`'s order.
            let (mut d, mut pp, mut xx) = (0.0f32, 0.0f32, 0.0f32);
            for (&a, &b) in pr.iter().zip(xr) {
                d += a * b;
                pp += a * a;
                xx += b * b;
            }
            let sim = d / (pp.sqrt() * xx.sqrt()).max(cos_eps);
            let f = sim + epsilon;
            out.extend(pr.iter().map(|&a| a * f));
            sims.push(sim);
            stats.push([d, pp, xx, f]);
        }
        let value = Matrix::from_vec(n, t, out);
        let ng = self.child_needs_grad(&[p, x0]);
        let refined = self.push(
            value,
            Op::Refine {
                p,
                x0,
                cos_eps,
                stats,
            },
            ng,
        );
        let sims = self.constant(Matrix::col_vector(sims));
        (refined, sims)
    }

    /// Broadcast add of a `(1,t)` bias row onto every row of `(n,t)`.
    pub fn add_col_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(bias));
        assert_eq!(vb.rows(), 1, "bias must be a single row");
        assert_eq!(va.cols(), vb.cols(), "bias width mismatch");
        let mut value = va.clone();
        for r in 0..value.rows() {
            for (x, b) in value.row_mut(r).iter_mut().zip(vb.row(0)) {
                *x += b;
            }
        }
        let ng = self.child_needs_grad(&[a, bias]);
        self.push(value, Op::AddColBroadcast(a, bias), ng)
    }

    /// Broadcast subtract of an `(n,1)` column from every column of `(n,t)`
    /// — the shift inside a row-wise log-softmax.
    pub fn sub_row_broadcast(&mut self, a: Var, s: Var) -> Var {
        let (va, vs) = (self.value(a), self.value(s));
        assert_eq!(vs.cols(), 1, "broadcast operand must be a column");
        assert_eq!(va.rows(), vs.rows(), "broadcast row mismatch");
        let mut value = va.clone();
        for r in 0..value.rows() {
            let f = vs[(r, 0)];
            for x in value.row_mut(r) {
                *x -= f;
            }
        }
        let ng = self.child_needs_grad(&[a, s]);
        self.push(value, Op::SubRowBroadcast(a, s), ng)
    }

    /// Multiplies every element of `a` by the `(1,1)` node `s`.
    pub fn mul_scalar_var(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.value(s).shape(), (1, 1), "scalar operand must be (1,1)");
        let f = self.value(s).data()[0];
        let value = self.value(a).map(|x| x * f);
        let ng = self.child_needs_grad(&[a, s]);
        self.push(value, Op::MulScalarVar(a, s), ng)
    }

    /// Elementwise reciprocal `1 / max(x, eps)`.
    pub fn recip(&mut self, a: Var, eps: f32) -> Var {
        assert!(eps > 0.0, "recip eps must be positive");
        let value = self.value(a).map(|x| 1.0 / x.max(eps));
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Recip(a, eps), ng)
    }

    /// Row-wise softmax composed from primitive ops (differentiable).
    /// Rows are shifted by their (constant) max for stability.
    pub fn row_softmax(&mut self, a: Var) -> Var {
        let row_max = self.value(a).row_max();
        let shift = self.constant(row_max);
        let shifted = self.sub_row_broadcast(a, shift);
        let e = self.exp(shifted);
        let z = self.row_sum(e);
        let zr = self.recip(z, 1e-30);
        self.mul_row_broadcast(e, zr)
    }

    /// Row-wise log-softmax composed from primitive ops (differentiable),
    /// max-shifted for stability.
    pub fn row_log_softmax(&mut self, a: Var) -> Var {
        let row_max = self.value(a).row_max();
        let shift = self.constant(row_max);
        let shifted = self.sub_row_broadcast(a, shift);
        let e = self.exp(shifted);
        let z = self.row_sum(e);
        let lz = self.ln(z, 1e-30);
        self.sub_row_broadcast(shifted, lz)
    }

    /// Inverted dropout with a caller-supplied mask whose entries are either
    /// `0` or `1/(1-p)`. The mask is treated as a constant.
    pub fn dropout(&mut self, a: Var, mask: Rc<Vec<f32>>) -> Var {
        let va = self.value(a);
        assert_eq!(va.len(), mask.len(), "dropout mask length mismatch");
        let mut value = va.clone();
        for (x, m) in value.data_mut().iter_mut().zip(mask.iter()) {
            *x *= m;
        }
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Dropout(a, mask), ng)
    }

    /// Sum of all elements, as a `(1,1)` matrix.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::Sum(a), ng)
    }

    /// Mean of all elements, as a `(1,1)` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::MeanAll(a), ng)
    }

    /// Per-row sum, producing `(n,1)`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let data: Vec<f32> = (0..va.rows()).map(|r| va.row(r).iter().sum()).collect();
        let value = Matrix::col_vector(data);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::RowSum(a), ng)
    }

    /// Squared Frobenius norm, as a `(1,1)` matrix — the `‖X‖²` of Eq. 12.
    pub fn sq_frobenius(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sq_frobenius()]);
        let ng = self.child_needs_grad(&[a]);
        self.push(value, Op::SqFrobenius(a), ng)
    }

    /// Scalar value of a `(1,1)` node — typically the loss.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar node");
        m.data()[0]
    }

    // ----- backward ---------------------------------------------------------

    /// Runs the reverse sweep from scalar node `loss`, accumulating gradients
    /// into every node with `needs_grad`.
    ///
    /// # Panics
    /// Panics if `loss` is not `(1,1)`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward from non-scalar"
        );
        let (r, c) = self.nodes[loss.0].value.shape();
        self.nodes[loss.0].grad = Some(Matrix::full(r, c, 1.0));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            // Take the grad and the op out while the node's parents
            // accumulate, and put them back after. A node never accumulates
            // into itself (parents precede children), so nothing is lost.
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            self.backprop_node(i, &g, &op);
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(g);
        }
    }

    fn accum(&mut self, v: Var, delta: Matrix) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    fn backprop_node(&mut self, i: usize, g: &Matrix, op: &Op) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accum(*a, g.clone());
                self.accum(*b, g.clone());
            }
            Op::Sub(a, b) => {
                self.accum(*a, g.clone());
                let mut n = g.clone();
                n.scale(-1.0);
                self.accum(*b, n);
            }
            Op::Mul(a, b) => {
                let mut da = g.clone();
                for (x, y) in da.data_mut().iter_mut().zip(self.value(*b).data()) {
                    *x *= y;
                }
                let mut db = g.clone();
                for (x, y) in db.data_mut().iter_mut().zip(self.value(*a).data()) {
                    *x *= y;
                }
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::AddScalar(a, _) => self.accum(*a, g.clone()),
            Op::MulScalar(a, s) => {
                let mut da = g.clone();
                da.scale(*s);
                self.accum(*a, da);
            }
            Op::MatMul(a, b) => {
                let da = g.matmul_nt(self.value(*b)); // dC B^T
                let db = self.value(*a).matmul_tn(g); // A^T dC
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::MatMulTN(a, b) => {
                // C = A^T B: dA = B dC^T, dB = A dC.
                let da = self.value(*b).matmul_nt(g);
                let db = self.value(*a).matmul(g);
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::MatMulNT(a, b) => {
                // C = A B^T: dA = dC B, dB = dC^T A.
                let da = g.matmul(self.value(*b));
                let db = g.matmul_tn(self.value(*a));
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::SpMM(s, a) => {
                // C = S A: dA = S^T dC. Row-parallel like the forward.
                let width = g.cols();
                lrgcn_obs::registry::add(lrgcn_obs::Counter::SpmmCalls, 1);
                lrgcn_obs::registry::add(
                    lrgcn_obs::Counter::SpmmMacs,
                    (s.transpose().nnz() * width) as u64,
                );
                let _span = lrgcn_obs::trace::span("spmm_bwd", "kernel");
                let mut da = vec![0.0; s.transpose().n_rows() * width];
                s.transpose()
                    .spmm_into_parallel(g.data(), width, &mut da, par::effective_threads());
                self.accum(*a, Matrix::from_vec(s.transpose().n_rows(), width, da));
            }
            Op::Gather(a, idx) => {
                let (rows, cols) = self.value(*a).shape();
                let mut da = Matrix::zeros(rows, cols);
                for (r, &src) in idx.iter().enumerate() {
                    let grow = g.row(r);
                    let drow = da.row_mut(src as usize);
                    for (d, x) in drow.iter_mut().zip(grow) {
                        *d += x;
                    }
                }
                self.accum(*a, da);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let w = self.value(p).cols();
                    let rows = g.rows();
                    let mut dp = Matrix::zeros(rows, w);
                    for r in 0..rows {
                        dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + w]);
                    }
                    off += w;
                    self.accum(p, dp);
                }
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                let mut da = g.clone();
                for (x, &yy) in da.data_mut().iter_mut().zip(y.data()) {
                    *x *= yy * (1.0 - yy);
                }
                self.accum(*a, da);
            }
            Op::Softplus(a) => {
                let mut da = g.clone();
                for (x, &xx) in da.data_mut().iter_mut().zip(self.value(*a).data()) {
                    *x *= sigmoid(xx);
                }
                self.accum(*a, da);
            }
            Op::Relu(a) => {
                let mut da = g.clone();
                for (x, &xx) in da.data_mut().iter_mut().zip(self.value(*a).data()) {
                    if xx <= 0.0 {
                        *x = 0.0;
                    }
                }
                self.accum(*a, da);
            }
            Op::LeakyRelu(a, slope) => {
                let mut da = g.clone();
                for (x, &xx) in da.data_mut().iter_mut().zip(self.value(*a).data()) {
                    if xx <= 0.0 {
                        *x *= slope;
                    }
                }
                self.accum(*a, da);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                let mut da = g.clone();
                for (x, &yy) in da.data_mut().iter_mut().zip(y.data()) {
                    *x *= 1.0 - yy * yy;
                }
                self.accum(*a, da);
            }
            Op::Exp(a) => {
                let y = &self.nodes[i].value;
                let mut da = g.clone();
                for (x, &yy) in da.data_mut().iter_mut().zip(y.data()) {
                    *x *= yy;
                }
                self.accum(*a, da);
            }
            Op::Ln(a, eps) => {
                let mut da = g.clone();
                for (x, &xx) in da.data_mut().iter_mut().zip(self.value(*a).data()) {
                    // Zero slope inside the clamp region, 1/x outside.
                    *x = if xx > *eps { *x / xx } else { 0.0 };
                }
                self.accum(*a, da);
            }
            Op::RowDot(a, b) => {
                let (va, vb) = (self.value(*a), self.value(*b));
                let mut da = Matrix::zeros(va.rows(), va.cols());
                let mut db = Matrix::zeros(vb.rows(), vb.cols());
                for r in 0..va.rows() {
                    let gr = g[(r, 0)];
                    for (d, &bv) in da.row_mut(r).iter_mut().zip(vb.row(r)) {
                        *d = gr * bv;
                    }
                    for (d, &av) in db.row_mut(r).iter_mut().zip(va.row(r)) {
                        *d = gr * av;
                    }
                }
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::RowCosine(a, b, eps) => {
                let (va, vb) = (self.value(*a), self.value(*b));
                let mut da = Matrix::zeros(va.rows(), va.cols());
                let mut db = Matrix::zeros(vb.rows(), vb.cols());
                for r in 0..va.rows() {
                    let gr = g[(r, 0)];
                    if gr == 0.0 {
                        continue;
                    }
                    let (ar, br) = (va.row(r), vb.row(r));
                    let na2 = dot(ar, ar);
                    let nb2 = dot(br, br);
                    let (na, nb) = (na2.sqrt(), nb2.sqrt());
                    let prod = na * nb;
                    let d = dot(ar, br);
                    if prod > *eps {
                        // cos = d / (na nb);
                        // dcos/da = b/(na nb) - cos * a / na^2.
                        let cos = d / prod;
                        for (k, (dar, dbr)) in
                            da.row_mut(r).iter_mut().zip(db.row_mut(r)).enumerate()
                        {
                            *dar = gr * (br[k] / prod - cos * ar[k] / na2);
                            *dbr = gr * (ar[k] / prod - cos * br[k] / nb2);
                        }
                    } else {
                        // Denominator clamped at eps (a constant): d(cos)/da = b/eps.
                        for (k, (dar, dbr)) in
                            da.row_mut(r).iter_mut().zip(db.row_mut(r)).enumerate()
                        {
                            *dar = gr * br[k] / *eps;
                            *dbr = gr * ar[k] / *eps;
                        }
                    }
                }
                self.accum(*a, da);
                self.accum(*b, db);
            }
            Op::RowL2Normalize(a, eps) => {
                let va = self.value(*a);
                let y = &self.nodes[i].value;
                let mut da = Matrix::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    let n = va.row_norm(r).max(*eps);
                    let gy = dot(g.row(r), y.row(r));
                    let clamped = va.row_norm(r) < *eps;
                    for (k, d) in da.row_mut(r).iter_mut().enumerate() {
                        // If the norm is clamped the denominator is constant.
                        *d = if clamped {
                            g[(r, k)] / n
                        } else {
                            (g[(r, k)] - gy * y[(r, k)]) / n
                        };
                    }
                }
                self.accum(*a, da);
            }
            Op::MulRowBroadcast(a, s) => {
                let (va, vs) = (self.value(*a), self.value(*s));
                let mut da = g.clone();
                let mut ds = Matrix::zeros(vs.rows(), 1);
                for r in 0..va.rows() {
                    let f = vs[(r, 0)];
                    for x in da.row_mut(r) {
                        *x *= f;
                    }
                    ds[(r, 0)] = dot(g.row(r), va.row(r));
                }
                self.accum(*a, da);
                self.accum(*s, ds);
            }
            Op::Refine {
                p,
                x0,
                cos_eps,
                stats,
            } => self.refine_backward(g, *p, *x0, *cos_eps, stats),
            Op::AddColBroadcast(a, bias) => {
                self.accum(*a, g.clone());
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (d, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *d += x;
                    }
                }
                self.accum(*bias, db);
            }
            Op::SubRowBroadcast(a, s) => {
                self.accum(*a, g.clone());
                let mut ds = Matrix::zeros(g.rows(), 1);
                for r in 0..g.rows() {
                    ds[(r, 0)] = -g.row(r).iter().sum::<f32>();
                }
                self.accum(*s, ds);
            }
            Op::MulScalarVar(a, s) => {
                let f = self.value(*s).data()[0];
                let mut da = g.clone();
                da.scale(f);
                self.accum(*a, da);
                let ds = Matrix::from_vec(
                    1,
                    1,
                    vec![g
                        .data()
                        .iter()
                        .zip(self.value(*a).data())
                        .map(|(x, y)| x * y)
                        .sum()],
                );
                self.accum(*s, ds);
            }
            Op::Recip(a, eps) => {
                let mut da = g.clone();
                for (x, &xx) in da.data_mut().iter_mut().zip(self.value(*a).data()) {
                    // d(1/x)/dx = -1/x^2 outside the clamp; zero inside.
                    *x = if xx > *eps { -*x / (xx * xx) } else { 0.0 };
                }
                self.accum(*a, da);
            }
            Op::Dropout(a, mask) => {
                let mut da = g.clone();
                for (x, m) in da.data_mut().iter_mut().zip(mask.iter()) {
                    *x *= m;
                }
                self.accum(*a, da);
            }
            Op::Sum(a) => {
                let (r, c) = self.value(*a).shape();
                self.accum(*a, Matrix::full(r, c, g.data()[0]));
            }
            Op::MeanAll(a) => {
                let (r, c) = self.value(*a).shape();
                let n = (r * c).max(1) as f32;
                self.accum(*a, Matrix::full(r, c, g.data()[0] / n));
            }
            Op::RowSum(a) => {
                let (r, c) = self.value(*a).shape();
                let mut da = Matrix::zeros(r, c);
                for rr in 0..r {
                    let gr = g[(rr, 0)];
                    for d in da.row_mut(rr) {
                        *d = gr;
                    }
                }
                self.accum(*a, da);
            }
            Op::SqFrobenius(a) => {
                let mut da = self.value(*a).clone();
                da.scale(2.0 * g.data()[0]);
                self.accum(*a, da);
            }
        }
    }

    /// The backward of [`Tape::refine`], written straight into the grads of
    /// `p` and `x0`. Per element it computes what the composed ops would
    /// accumulate, in their order: into `p` first `g · f`
    /// (`MulRowBroadcast`), then the cosine's term (`RowCosine`, `+0.0` on a
    /// row whose `ds` is zero); into `x0` the cosine's term alone.
    fn refine_backward(&mut self, g: &Matrix, p: Var, x0: Var, cos_eps: f32, stats: &[[f32; 4]]) {
        let (want_p, want_x) = (self.nodes[p.0].needs_grad, self.nodes[x0.0].needs_grad);
        let (n, t) = g.shape();
        // A node with no grad yet takes the first term as is, as `accum`
        // would; the zeros are only placeholders.
        let take = |node: &mut Node, want: bool| -> (Option<Matrix>, bool) {
            match node.grad.take() {
                Some(m) => (Some(m), false),
                None if want => (Some(Matrix::zeros(n, t)), true),
                None => (None, false),
            }
        };
        let (mut gp, fresh_p) = take(&mut self.nodes[p.0], want_p);
        let (mut gx, fresh_x) = take(&mut self.nodes[x0.0], want_x);
        let (vp, vx) = (&self.nodes[p.0].value, &self.nodes[x0.0].value);
        for (r, &[d, pp, xx, f]) in stats.iter().enumerate() {
            let (gr, pr, xr) = (g.row(r), vp.row(r), vx.row(r));
            let ds = dot(gr, pr);
            let prod = pp.sqrt() * xx.sqrt();
            let cos = d / prod;
            // The cosine's terms for element k; `RowCosine` skips a row
            // whose incoming grad is zero, leaving its zeros.
            let dcos = |k: usize| -> (f32, f32) {
                if ds == 0.0 {
                    (0.0, 0.0)
                } else if prod > cos_eps {
                    (
                        ds * (xr[k] / prod - cos * pr[k] / pp),
                        ds * (pr[k] / prod - cos * xr[k] / xx),
                    )
                } else {
                    (ds * xr[k] / cos_eps, ds * pr[k] / cos_eps)
                }
            };
            if let Some(gp) = gp.as_mut() {
                for (k, o) in gp.row_mut(r).iter_mut().enumerate() {
                    let gf = gr[k] * f;
                    let acc = if fresh_p { gf } else { *o + gf };
                    *o = acc + dcos(k).0;
                }
            }
            if let Some(gx) = gx.as_mut() {
                for (k, o) in gx.row_mut(r).iter_mut().enumerate() {
                    let dx = dcos(k).1;
                    *o = if fresh_x { dx } else { *o + dx };
                }
            }
        }
        self.nodes[p.0].grad = gp;
        self.nodes[x0.0].grad = gx;
    }
}

/// Numerically stable logistic function.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `ln(1 + e^x)`.
pub fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_stability_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-6);
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for x in [-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            assert!((softplus(x) - (1.0 + x.exp()).ln()).abs() < 1e-5);
        }
        assert!((softplus(80.0) - 80.0).abs() < 1e-3);
        assert!(softplus(-80.0) >= 0.0);
    }

    #[test]
    fn forward_add_mul_chain() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![4.0, 5.0]));
        let c = t.add(a, b);
        let d = t.mul(c, c);
        assert_eq!(t.value(d).data(), &[36.0, 64.0]);
    }

    #[test]
    fn backward_through_sum_of_product() {
        // L = sum((a+b) ⊙ (a+b)): dL/da = 2(a+b).
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let b = t.leaf(Matrix::from_vec(1, 2, vec![4.0, 5.0]));
        let c = t.add(a, b);
        let d = t.mul(c, c);
        let l = t.sum(d);
        t.backward(l);
        assert_eq!(t.grad(a).expect("grad a").data(), &[12.0, 16.0]);
        assert_eq!(t.grad(b).expect("grad b").data(), &[12.0, 16.0]);
    }

    #[test]
    fn constant_receives_no_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let k = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let p = t.mul(a, k);
        let l = t.sum(p);
        t.backward(l);
        assert!(t.grad(k).is_none());
        assert_eq!(t.grad(a).expect("grad").data(), &[3.0]);
    }

    #[test]
    fn matmul_grad_shapes() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(3, 4));
        let b = t.leaf(Matrix::zeros(4, 2));
        let c = t.matmul(a, b);
        let l = t.sum(c);
        t.backward(l);
        assert_eq!(t.grad(a).expect("da").shape(), (3, 4));
        assert_eq!(t.grad(b).expect("db").shape(), (4, 2));
    }

    #[test]
    fn gather_scatter_accumulates_repeats() {
        let mut t = Tape::new();
        let e = t.leaf(Matrix::from_vec(3, 2, vec![1.0; 6]));
        let g = t.gather(e, Rc::new(vec![1, 1, 2]));
        let l = t.sum(g);
        t.backward(l);
        let de = t.grad(e).expect("de");
        assert_eq!(de.row(0), &[0.0, 0.0]);
        assert_eq!(de.row(1), &[2.0, 2.0]);
        assert_eq!(de.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn spmm_forward_and_backward_with_symmetric_matrix() {
        // S = [[0,1],[1,0]] (symmetric swap).
        let s = SharedCsr::new(Csr::from_coo(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]));
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let y = t.spmm(&s, x);
        assert_eq!(t.value(y).data(), &[3.0, 4.0, 1.0, 2.0]);
        // L = sum(first row of Y) picks row 1 of X.
        let m = t.constant(Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.0, 0.0]));
        let masked = t.mul(y, m);
        let l = t.sum(masked);
        t.backward(l);
        let dx = t.grad(x).expect("dx");
        assert_eq!(dx.row(0), &[0.0, 0.0]);
        assert_eq!(dx.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn row_dot_is_batch_score() {
        let mut t = Tape::new();
        let u = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let v = t.leaf(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let s = t.row_dot(u, v);
        assert_eq!(t.value(s).data(), &[17.0, 53.0]);
    }

    #[test]
    fn row_cosine_of_parallel_and_orthogonal_rows() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 2, vec![2.0, 0.0, 3.0, 0.0]));
        let c = t.row_cosine(a, b, 1e-8);
        let v = t.value(c);
        assert!((v[(0, 0)] - 1.0).abs() < 1e-6);
        assert!(v[(1, 0)].abs() < 1e-6);
    }

    #[test]
    fn row_cosine_zero_vector_clamps_not_nan() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(1, 3));
        let b = t.leaf(Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]));
        let c = t.row_cosine(a, b, 1e-8);
        assert_eq!(t.value(c)[(0, 0)], 0.0);
        let l = t.sum(c);
        t.backward(l);
        assert!(!t.grad(a).expect("da").has_non_finite());
    }

    #[test]
    fn row_l2_normalize_unit_norms() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.1]));
        let n = t.row_l2_normalize(a, 1e-12);
        let v = t.value(n);
        assert!((v.row_norm(0) - 1.0).abs() < 1e-6);
        assert!((v.row_norm(1) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn broadcasts() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let s = t.leaf(Matrix::col_vector(vec![2.0, -1.0]));
        let m = t.mul_row_broadcast(a, s);
        assert_eq!(t.value(m).data(), &[2.0, 4.0, -3.0, -4.0]);
        let bias = t.leaf(Matrix::row_vector(vec![10.0, 20.0]));
        let p = t.add_col_broadcast(a, bias);
        assert_eq!(t.value(p).data(), &[11.0, 22.0, 13.0, 24.0]);
        let lm = t.sum(m);
        let lp = t.sum(p);
        let l = t.add(lm, lp);
        t.backward(l);
        // ds_r = sum of row r of A (m is the only path through s).
        assert_eq!(t.grad(s).expect("ds").data(), &[3.0, 7.0]);
        // dbias sums over rows (p is the only path through bias).
        assert_eq!(t.grad(bias).expect("dbias").data(), &[2.0, 2.0]);
    }

    #[test]
    fn concat_splits_grads() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(1, 1, vec![3.0]));
        let c = t.concat_cols(&[a, b]);
        assert_eq!(t.value(c).data(), &[1.0, 2.0, 3.0]);
        let w = t.constant(Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]));
        let p = t.mul(c, w);
        let l = t.sum(p);
        t.backward(l);
        assert_eq!(t.grad(a).expect("da").data(), &[10.0, 20.0]);
        assert_eq!(t.grad(b).expect("db").data(), &[30.0]);
    }

    #[test]
    fn mean_and_frobenius_backward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]));
        let l = t.mean_all(a);
        t.backward(l);
        assert_eq!(t.grad(a).expect("da").data(), &[0.25; 4]);

        let mut t2 = Tape::new();
        let a2 = t2.leaf(Matrix::from_vec(1, 2, vec![3.0, -5.0]));
        let l2 = t2.sq_frobenius(a2);
        assert_eq!(t2.scalar(l2), 34.0);
        t2.backward(l2);
        assert_eq!(t2.grad(a2).expect("da").data(), &[6.0, -10.0]);
    }

    #[test]
    fn diamond_pattern_accumulates_both_paths() {
        // L = sum(a ⊙ a + a): dL/da = 2a + 1.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![3.0, -1.0]));
        let sq = t.mul(a, a);
        let s = t.add(sq, a);
        let l = t.sum(s);
        t.backward(l);
        assert_eq!(t.grad(a).expect("da").data(), &[7.0, -1.0]);
    }

    #[test]
    fn bpr_style_loss_is_positive_and_finite() {
        // softplus(neg - pos) with pos > neg should be small but positive.
        let mut t = Tape::new();
        let pos = t.leaf(Matrix::col_vector(vec![5.0, 2.0]));
        let neg = t.leaf(Matrix::col_vector(vec![1.0, 1.0]));
        let diff = t.sub(neg, pos);
        let sp = t.softplus(diff);
        let l = t.mean_all(sp);
        let lv = t.scalar(l);
        assert!(lv > 0.0 && lv < 0.5);
        t.backward(l);
        // Gradient on pos must be negative (increasing pos lowers loss).
        assert!(t.grad(pos).expect("dpos").data().iter().all(|&x| x < 0.0));
    }

    #[test]
    fn take_grad_removes_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let l = t.sq_frobenius(a);
        t.backward(l);
        let g = t.take_grad(a).expect("grad");
        assert_eq!(g.data(), &[4.0]);
        assert!(t.grad(a).is_none());
    }

    #[test]
    #[should_panic(expected = "backward from non-scalar")]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        t.backward(a);
    }
}
