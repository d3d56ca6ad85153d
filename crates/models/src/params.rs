//! One parameter set per model: its named tables, one Adam optimiser, and
//! the epoch's loss and gradient-norm bookkeeping.
//!
//! Every model trains by the same recipe: put its parameters on a fresh
//! tape with [`Params::leaves`], build its own forward pass and loss, then
//! [`Params::step`] — backward, one Adam step over every parameter the loss
//! reached, and each group's gradient norm. [`Params::end_epoch`] closes
//! the epoch. Snapshots, checkpoint entries and optimizer state derive from
//! the declared parameters here, once.

use crate::checkpoint::{model_tag, require_entry};
use crate::common::{grad_sq_norm, mean_row_l2};
use crate::traits::{EpochStats, ModelDiagnostics, OptimState};
use lrgcn_tensor::tape::{Tape, Var};
use lrgcn_tensor::{Adam, Matrix, Param};

/// A named group of parameters: one table, or one per layer.
struct Group {
    name: &'static str,
    /// `(checkpoint entry name, parameter)`.
    params: Vec<(String, Param)>,
    /// Sum of the squared gradient norms of this epoch's steps.
    grad_sq: f64,
}

/// A model's learnable parameters and their optimiser. Groups are
/// addressed by declaration index; the first declared table is the
/// model's primary embedding table.
pub(crate) struct Params {
    groups: Vec<Group>,
    adam: Adam,
    loss_sum: f64,
    n_steps: usize,
    /// Per-group gradient norms of the last finished epoch.
    grad_groups: Vec<(String, f64)>,
}

/// The tape leaves of one forward pass, by group; a group left off the
/// tape has none.
pub(crate) struct Leaves(Vec<Vec<Var>>);

impl Leaves {
    /// The leaves of a group of tables.
    pub fn group(&self, g: usize) -> &[Var] {
        &self.0[g]
    }
}

/// The leaf of a one-table group.
impl std::ops::Index<usize> for Leaves {
    type Output = Var;
    fn index(&self, g: usize) -> &Var {
        &self.0[g][0]
    }
}

impl Params {
    pub fn new(learning_rate: f32) -> Self {
        Self {
            groups: Vec::new(),
            adam: Adam::new(learning_rate),
            loss_sum: 0.0,
            n_steps: 0,
            grad_groups: Vec::new(),
        }
    }

    /// Declares a one-table group; its checkpoint entry is `name`.
    pub fn with(self, name: &'static str, value: Matrix) -> Self {
        self.group(name, vec![(name.to_string(), value)])
    }

    /// Declares a group of tables, with entries `name.0`, `name.1`, ….
    pub fn with_list(self, name: &'static str, values: Vec<Matrix>) -> Self {
        let named = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("{name}.{i}"), v))
            .collect();
        self.group(name, named)
    }

    fn group(mut self, name: &'static str, values: Vec<(String, Matrix)>) -> Self {
        let params = values
            .into_iter()
            .map(|(n, v)| (n, Param::new(v)))
            .collect();
        self.groups.push(Group {
            name,
            params,
            grad_sq: 0.0,
        });
        self
    }

    fn params(&self) -> impl Iterator<Item = &(String, Param)> {
        self.groups.iter().flat_map(|g| &g.params)
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut (String, Param)> {
        self.groups.iter_mut().flat_map(|g| &mut g.params)
    }

    /// The value of a one-table group.
    pub fn value(&self, g: usize) -> &Matrix {
        self.groups[g].params[0].1.value()
    }

    /// Replaces the value of a one-table group (moments kept if the shape
    /// is unchanged).
    pub fn set_value(&mut self, g: usize, value: Matrix) {
        self.groups[g].params[0].1.set_value(value);
    }

    /// Every parameter as a differentiable leaf of `tape`.
    pub fn leaves(&self, tape: &mut Tape) -> Leaves {
        self.leaves_of(tape, &(0..self.groups.len()).collect::<Vec<_>>())
    }

    /// The parameters of `groups` only as leaves of `tape`; the others get
    /// no gradient and so no step.
    pub fn leaves_of(&self, tape: &mut Tape, groups: &[usize]) -> Leaves {
        let mut vars = vec![Vec::new(); self.groups.len()];
        for &g in groups {
            vars[g] = self.groups[g]
                .params
                .iter()
                .map(|(_, p)| tape.leaf(p.value().clone()))
                .collect();
        }
        Leaves(vars)
    }

    /// One training step on `loss`: counted into the epoch's mean loss,
    /// then [`Params::descend`].
    pub fn step(&mut self, tape: &mut Tape, loss: Var, on: &Leaves) {
        self.loss_sum += tape.scalar(loss) as f64;
        self.n_steps += 1;
        self.descend(tape, loss, on);
    }

    /// Backward from `loss`, then one Adam step over every leaf of `on` the
    /// loss reached, adding each gradient's squared norm to its group. The
    /// loss is not counted into the epoch's mean (an auxiliary objective).
    pub fn descend(&mut self, tape: &mut Tape, loss: Var, on: &Leaves) {
        tape.backward(loss);
        self.adam.begin_step();
        for (group, vars) in self.groups.iter_mut().zip(&on.0) {
            for ((_, p), &v) in group.params.iter_mut().zip(vars) {
                if let Some(g) = tape.take_grad(v) {
                    group.grad_sq += grad_sq_norm(&g);
                    self.adam.update(p, &g);
                }
            }
        }
    }

    /// Closes the epoch: its mean step loss, and each group's gradient norm
    /// (the L2 norm of all its gradients this epoch) for diagnostics.
    pub fn end_epoch(&mut self) -> EpochStats {
        self.grad_groups = self
            .groups
            .iter_mut()
            .map(|g| (g.name.to_string(), std::mem::take(&mut g.grad_sq).sqrt()))
            .collect();
        let n = std::mem::take(&mut self.n_steps);
        let total = std::mem::take(&mut self.loss_sum);
        EpochStats {
            loss: if n > 0 { total / n as f64 } else { 0.0 },
            n_batches: n,
        }
    }

    /// A model's diagnostics around its own probes: the mean row L2 of the
    /// primary table and the last epoch's gradient norms.
    pub fn diagnostics(&self, smoothness: Vec<f64>, layer_weights: Vec<f64>) -> ModelDiagnostics {
        ModelDiagnostics {
            smoothness,
            embedding_l2: mean_row_l2(self.value(0)),
            grad_norm: ModelDiagnostics::grad_norm_of(&self.grad_groups),
            grad_groups: self.grad_groups.clone(),
            layer_weights,
        }
    }

    pub fn n_parameters(&self) -> usize {
        self.params().map(|(_, p)| p.value().len()).sum()
    }

    /// Every parameter value, in declaration order.
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params().map(|(_, p)| p.value().clone()).collect()
    }

    /// Restores values captured by [`Params::snapshot`].
    ///
    /// # Panics
    /// On an arity or shape mismatch.
    pub fn restore(&mut self, values: Vec<Matrix>) {
        assert_eq!(
            values.len(),
            self.params().count(),
            "snapshot arity mismatch"
        );
        for ((_, p), v) in self.params_mut().zip(values) {
            assert_eq!(v.shape(), p.value().shape(), "snapshot shape mismatch");
            p.set_value(v);
        }
    }

    /// Every parameter as a named checkpoint entry.
    pub fn entries(&self) -> Vec<(String, Matrix)> {
        self.params()
            .map(|(n, p)| (n.clone(), p.value().clone()))
            .collect()
    }

    /// Loads every parameter from `entries`. Entries tagged for another
    /// model family than `tag` are refused; untagged files predate the
    /// family marker and are accepted. Nothing changes on an error.
    pub fn load_entries(&mut self, entries: &[(String, Matrix)], tag: &str) -> Result<(), String> {
        if let Some(found) = model_tag(entries) {
            if found != tag {
                return Err(format!(
                    "checkpoint is tagged {found:?} but this model is {tag:?}"
                ));
            }
        }
        let mut values = Vec::new();
        for (name, p) in self.params() {
            let m = require_entry(entries, name)?;
            if m.shape() != p.value().shape() {
                return Err(format!(
                    "{name} shape {:?} does not match model {:?}",
                    m.shape(),
                    p.value().shape()
                ));
            }
            values.push(m.clone());
        }
        for ((_, p), v) in self.params_mut().zip(values) {
            p.set_value(v);
        }
        Ok(())
    }

    /// The Adam step counter, learning rate and every parameter's moments.
    pub fn optim_state(&self) -> OptimState {
        OptimState {
            step: self.adam.steps(),
            lr: self.adam.lr,
            moments: self
                .params()
                .map(|(n, p)| (n.clone(), p.adam_m().clone(), p.adam_v().clone()))
                .collect(),
        }
    }

    /// Restores state captured by [`Params::optim_state`].
    pub fn load_optim_state(&mut self, state: &OptimState) -> Result<(), String> {
        for (name, p) in self.params_mut() {
            let (_, m, v) = state
                .moments
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("optimizer state missing {name:?} moments"))?;
            p.set_adam_state(m.clone(), v.clone())?;
        }
        self.adam.set_steps(state.step);
        self.adam.lr = state.lr;
        Ok(())
    }

    pub fn set_learning_rate(&mut self, lr: f32) {
        self.adam.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgcn_tensor::Adam;

    fn two_groups() -> Params {
        Params::new(0.1)
            .with("a", Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, 0.5]))
            .with_list(
                "w",
                vec![Matrix::full(1, 2, 0.25), Matrix::full(2, 1, -1.0)],
            )
    }

    /// `‖a‖² + Σ w.0 + Σ w.1` over whichever groups are on the tape.
    fn loss(tape: &mut Tape, on: &Leaves) -> Var {
        let mut terms = Vec::new();
        if let Some(&a) = on.group(0).first() {
            terms.push(tape.sq_frobenius(a));
        }
        for &w in on.group(1) {
            terms.push(tape.sum(w));
        }
        terms
            .into_iter()
            .reduce(|x, y| tape.add(x, y))
            .expect("a term")
    }

    #[test]
    fn step_is_bitwise_the_hand_written_adam_loop() {
        let mut params = two_groups();
        let mut hand: Vec<Param> = params.params().map(|(_, p)| p.clone()).collect();
        let mut adam = Adam::new(0.1);
        let mut grad_sq = [0.0f64; 2];
        for _ in 0..3 {
            let mut tape = Tape::new();
            let on = params.leaves(&mut tape);
            let l = loss(&mut tape, &on);
            params.step(&mut tape, l, &on);

            let mut tape = Tape::new();
            let vars: Vec<Var> = hand.iter().map(|p| tape.leaf(p.value().clone())).collect();
            let on = Leaves(vec![vec![vars[0]], vars[1..].to_vec()]);
            let l = loss(&mut tape, &on);
            tape.backward(l);
            adam.begin_step();
            for (i, (p, &v)) in hand.iter_mut().zip(&vars).enumerate() {
                if let Some(g) = tape.take_grad(v) {
                    grad_sq[i.min(1)] += grad_sq_norm(&g);
                    adam.update(p, &g);
                }
            }
        }
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (got, want) in params.snapshot().iter().zip(&hand) {
            assert_eq!(bits(got), bits(want.value()));
        }
        let stats = params.end_epoch();
        assert_eq!(stats.n_batches, 3);
        let want = [("a", grad_sq[0].sqrt()), ("w", grad_sq[1].sqrt())];
        let want: Vec<(String, f64)> = want.iter().map(|&(n, g)| (n.into(), g)).collect();
        assert_eq!(params.grad_groups, want);
        assert_eq!(params.end_epoch().n_batches, 0, "end_epoch resets the counts");
        assert_eq!(params.grad_groups, [("a".into(), 0.0), ("w".into(), 0.0)]);
    }

    #[test]
    fn groups_off_the_tape_do_not_step_and_descend_is_not_counted() {
        let mut params = two_groups();
        let before = params.snapshot();
        let mut tape = Tape::new();
        let on = params.leaves_of(&mut tape, &[1]);
        let l = loss(&mut tape, &on);
        params.descend(&mut tape, l, &on);
        let after = params.snapshot();
        assert_eq!(after[0], before[0], "group a was off the tape");
        assert_ne!(after[1], before[1]);
        let stats = params.end_epoch();
        assert_eq!((stats.n_batches, stats.loss), (0, 0.0));
        assert_eq!(params.grad_groups[0].1, 0.0);
        assert!(params.grad_groups[1].1 > 0.0);
    }

    #[test]
    fn entries_and_optimizer_state_resume_exactly() {
        let mut a = two_groups();
        let mut tape = Tape::new();
        let on = a.leaves(&mut tape);
        let l = loss(&mut tape, &on);
        a.step(&mut tape, l, &on);
        let entries = a.entries();
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "w.0", "w.1"]);

        let mut b = two_groups();
        b.load_entries(&entries, "any")
            .expect("untagged entries load");
        b.load_optim_state(&a.optim_state()).expect("moments load");
        for p in [&mut a, &mut b] {
            let mut tape = Tape::new();
            let on = p.leaves(&mut tape);
            let l = loss(&mut tape, &on);
            p.step(&mut tape, l, &on);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.optim_state().step, 2);
    }

    #[test]
    fn bad_entries_are_refused_and_change_nothing() {
        let mut p = two_groups();
        let before = p.snapshot();
        let mut entries = p.entries();
        entries.insert(
            0,
            (
                format!("{}other", crate::MODEL_TAG_PREFIX),
                Matrix::zeros(0, 0),
            ),
        );
        let err = p
            .load_entries(&entries, "mine")
            .expect_err("another family");
        assert!(err.contains("other") && err.contains("mine"), "{err}");
        let mut wrong = p.entries();
        wrong[2].1 = Matrix::zeros(3, 3);
        wrong[0].1 = Matrix::zeros(2, 2);
        assert!(p.load_entries(&wrong, "mine").is_err());
        assert!(
            p.load_entries(&wrong[..1], "mine").is_err(),
            "missing entries"
        );
        assert_eq!(p.snapshot(), before);
    }

    #[test]
    #[should_panic(expected = "snapshot arity mismatch")]
    fn restore_checks_arity() {
        let mut p = two_groups();
        let mut values = p.snapshot();
        values.pop();
        p.restore(values);
    }
}
