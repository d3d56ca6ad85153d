//! `Tape::refine` is bitwise the composed chain it replaces,
//! `row_cosine → add_scalar → mul_row_broadcast`: the refined layer, the
//! similarities, and the gradients reaching `p` and `x0`, on generated
//! inputs. The cases cover rows whose incoming `ds` is exactly zero (a zero
//! upstream row, a `-0.0` one, one orthogonal to `p`), rows whose
//! `|p|·|x0|` falls under the cosine clamp (zero and tiny rows), negative
//! ε, a `p` that already holds a gradient, and `x0` feeding the SpMM of a
//! multi-layer chain, so its gradient sums terms from both ops.

use lrgcn_graph::Csr;
use lrgcn_tensor::tape::{SharedCsr, Tape, Var};
use lrgcn_tensor::Matrix;
use rand::{Rng, SplitMix64};

const EPSILONS: [f32; 6] = [1e-8, 0.0, 0.1, -1e-4, -0.3, -2.0];
const COS_EPS: [f32; 3] = [1e-8, 1e-3, 0.5];

fn below(g: &mut SplitMix64, n: usize) -> usize {
    (g.next_u64() % n as u64) as usize
}

/// Uniform in [-1, 1).
fn unit(g: &mut SplitMix64) -> f32 {
    (g.next_u32() >> 8) as f32 / (1u32 << 23) as f32 - 1.0
}

/// An `n × t` matrix whose rows are drawn from a mix of shapes: dense,
/// zero, tiny (under any clamp here once multiplied by another row), or
/// with equal first two entries (so an upstream row `[c, -c, 0, …]` is
/// orthogonal to it).
fn rows(g: &mut SplitMix64, n: usize, t: usize) -> Matrix {
    let mut m = Matrix::zeros(n, t);
    for r in 0..n {
        let kind = below(g, 6);
        for x in m.row_mut(r) {
            *x = match kind {
                0 => 0.0,
                1 => unit(g) * 1e-6,
                _ => unit(g),
            };
        }
        if kind == 2 && t >= 2 {
            m.row_mut(r)[1] = m.row_mut(r)[0];
        }
    }
    m
}

/// Upstream weights: dense rows, `+0.0` and `-0.0` rows, and `[c, -c, 0, …]`
/// rows, which give `ds == 0` exactly against a row with equal first two
/// entries.
fn upstream(g: &mut SplitMix64, n: usize, t: usize) -> Matrix {
    let mut m = Matrix::zeros(n, t);
    for r in 0..n {
        let kind = below(g, 5);
        let c = unit(g);
        for (k, x) in m.row_mut(r).iter_mut().enumerate() {
            *x = match (kind, k) {
                (0, _) => 0.0,
                (1, _) => -0.0,
                (2, 0) => c,
                (2, 1) => -c,
                (2, _) => 0.0,
                _ => unit(g),
            };
        }
    }
    m
}

/// A random `n × n` adjacency in which some rows and columns stay empty.
fn adjacency(g: &mut SplitMix64, n: usize) -> SharedCsr {
    let mut coo = Vec::new();
    for r in 0..n as u32 {
        if below(g, 4) == 0 {
            continue;
        }
        for c in 0..n as u32 {
            if below(g, 3) == 0 {
                coo.push((r, c, unit(g) * 0.5));
            }
        }
    }
    SharedCsr::new(Csr::from_coo(n, n, coo))
}

fn refine(t: &mut Tape, fused: bool, p: Var, x0: Var, eps: f32, cos_eps: f32) -> (Var, Var) {
    if fused {
        t.refine(p, x0, eps, cos_eps)
    } else {
        let sim = t.row_cosine(p, x0, cos_eps);
        let sim_eps = t.add_scalar(sim, eps);
        (t.mul_row_broadcast(p, sim_eps), sim)
    }
}

/// `sum(a ⊙ w)`, added onto `loss` if there is one.
fn weigh(t: &mut Tape, loss: Option<Var>, a: Var, w: &Matrix) -> Var {
    let w = t.constant(w.clone());
    let aw = t.mul(a, w);
    let s = t.sum(aw);
    match loss {
        Some(l) => t.add(l, s),
        None => s,
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Every value and gradient a case exposes, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    refined: Vec<Vec<u32>>,
    sims: Vec<Vec<u32>>,
    grad_p: Vec<Vec<u32>>,
    grad_x0: Vec<u32>,
}

fn outcome(t: &Tape, refined: &[Var], sims: &[Var], props: &[Var], x0: Var) -> Outcome {
    let grad = |v: Var| bits(t.grad(v).expect("reached by the loss"));
    Outcome {
        refined: refined.iter().map(|&v| bits(t.value(v))).collect(),
        sims: sims.iter().map(|&v| bits(t.value(v))).collect(),
        grad_p: props.iter().map(|&v| grad(v)).collect(),
        grad_x0: grad(x0),
    }
}

/// One refinement of two leaves. With `prior`, `p` and `x0` also feed later
/// terms of the loss, so each already holds a gradient when the refinement's
/// backward runs.
fn single(
    fused: bool,
    inputs: (&Matrix, &Matrix, &Matrix),
    prior: Option<(&Matrix, &Matrix)>,
    eps: f32,
    cos_eps: f32,
) -> Outcome {
    let (p, x0, w) = inputs;
    let mut t = Tape::new();
    let (p, x0) = (t.leaf(p.clone()), t.leaf(x0.clone()));
    let (refined, sim) = refine(&mut t, fused, p, x0, eps, cos_eps);
    let mut loss = weigh(&mut t, None, refined, w);
    if let Some((vp, vx)) = prior {
        loss = weigh(&mut t, Some(loss), p, vp);
        loss = weigh(&mut t, Some(loss), x0, vx);
    }
    t.backward(loss);
    outcome(&t, &[refined], &[sim], &[p], x0)
}

/// LayerGCN's chain: `x0` feeds the first SpMM and every refinement, and
/// each refined layer feeds the next SpMM and the loss.
fn chain(
    fused: bool,
    adj: &SharedCsr,
    x0: &Matrix,
    ws: &[Matrix],
    eps: f32,
    cos_eps: f32,
) -> Outcome {
    let mut t = Tape::new();
    let x0 = t.leaf(x0.clone());
    let (mut h, mut loss) = (x0, None);
    let (mut layers, mut sims, mut props) = (Vec::new(), Vec::new(), Vec::new());
    for w in ws {
        let prop = t.spmm(adj, h);
        let (refined, sim) = refine(&mut t, fused, prop, x0, eps, cos_eps);
        loss = Some(weigh(&mut t, loss, refined, w));
        h = refined;
        layers.push(refined);
        sims.push(sim);
        props.push(prop);
    }
    t.backward(loss.expect("at least one layer"));
    outcome(&t, &layers, &sims, &props, x0)
}

#[test]
fn refine_is_bitwise_the_composed_ops() {
    let mut g = SplitMix64::new(0x04ef_12e5);
    let mut zero_ds_rows = 0;
    for case in 0..300 {
        let (n, t) = (1 + below(&mut g, 9), 1 + below(&mut g, 9));
        let eps = EPSILONS[below(&mut g, EPSILONS.len())];
        let cos_eps = COS_EPS[below(&mut g, COS_EPS.len())];
        let (p, x0, w) = (
            rows(&mut g, n, t),
            rows(&mut g, n, t),
            upstream(&mut g, n, t),
        );
        zero_ds_rows += (0..n)
            .filter(|&r| {
                p.row(r)
                    .iter()
                    .zip(w.row(r))
                    .fold(0.0, |s, (a, b)| s + a * b)
                    == 0.0
            })
            .count();
        let (vp, vx) = (upstream(&mut g, n, t), upstream(&mut g, n, t));
        for prior in [None, Some((&vp, &vx))] {
            assert_eq!(
                single(true, (&p, &x0, &w), prior, eps, cos_eps),
                single(false, (&p, &x0, &w), prior, eps, cos_eps),
                "case {case}: {n}×{t}, ε {eps}, clamp {cos_eps}, prior {}",
                prior.is_some()
            );
        }

        let adj = adjacency(&mut g, n);
        let ws: Vec<Matrix> = (0..1 + below(&mut g, 4))
            .map(|_| upstream(&mut g, n, t))
            .collect();
        assert_eq!(
            chain(true, &adj, &x0, &ws, eps, cos_eps),
            chain(false, &adj, &x0, &ws, eps, cos_eps),
            "case {case}: {}-layer chain, {n}×{t}, ε {eps}, clamp {cos_eps}",
            ws.len()
        );
    }
    assert!(zero_ds_rows > 100, "{zero_ds_rows} rows with ds == 0");
}

#[test]
fn refine_similarities_carry_no_gradient() {
    let mut t = Tape::new();
    let p = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, -0.5, 0.25]));
    let x0 = t.leaf(Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 1.0]));
    let (refined, sims) = t.refine(p, x0, 1e-8, 1e-8);
    let s = t.sum(sims);
    let r = t.sum(refined);
    let loss = t.add(r, s);
    t.backward(loss);
    assert!(t.grad(sims).is_none());
    assert!(t.grad(p).is_some() && t.grad(x0).is_some());
}
