//! Plain SGD with momentum and weight decay — the first-order baseline
//! (Eq. 1 of the paper).

use crate::layer::Param;
use spdkfac_tensor::Matrix;

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + (g + λ·w)`, `w ← w − α·v`.
///
/// # Example
///
/// ```
/// use spdkfac_nn::optim::Sgd;
/// use spdkfac_nn::Param;
/// use spdkfac_tensor::Matrix;
///
/// let mut p = Param::new(Matrix::from_rows(&[&[1.0]]));
/// p.grad = Matrix::from_rows(&[&[0.5]]);
/// let mut sgd = Sgd::new(0.1, 0.0, 0.0);
/// sgd.step(&mut [&mut p]);
/// assert!((p.value[(0, 0)] - 0.95).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates an optimizer with learning rate `lr`, momentum `momentum`
    /// and L2 weight decay `weight_decay`.
    pub fn new(lr: f64, momentum: f64, weight_decay: f64) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Updates the learning rate (e.g. for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// The momentum buffers, positionally matching the parameter list of
    /// the last [`Sgd::step`] call; empty before the first step. Exposed
    /// for checkpointing (elastic state handoff).
    pub fn velocity(&self) -> &[Matrix] {
        &self.velocity
    }

    /// Restores momentum buffers from a checkpoint. An empty `velocity`
    /// resets to the pre-first-step state (buffers re-zero lazily);
    /// otherwise shapes must match the parameters of the next `step`, which
    /// the step's own assertions enforce positionally.
    pub fn set_velocity(&mut self, velocity: Vec<Matrix>) {
        self.velocity = velocity;
    }

    /// Applies one update to `params` using their `grad` fields.
    ///
    /// The parameter list must be identical (same order and shapes) on every
    /// call, since momentum state is positional.
    ///
    /// # Panics
    ///
    /// Panics if the parameter count or shapes change between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.init_velocity(params);
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "Sgd::step: parameter count changed"
        );
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            let Param { value, grad } = &mut **p;
            momentum_step(value, v, grad, self.momentum, self.weight_decay, self.lr);
        }
    }

    /// Applies an update with externally-supplied update directions (used by
    /// the K-FAC optimizers, which precondition gradients before momentum).
    ///
    /// # Panics
    ///
    /// Panics if counts or shapes mismatch.
    pub fn step_with_directions(&mut self, params: &mut [&mut Param], directions: &[Matrix]) {
        assert_eq!(params.len(), directions.len(), "direction count mismatch");
        self.init_velocity(params);
        for ((p, v), d) in params
            .iter_mut()
            .zip(self.velocity.iter_mut())
            .zip(directions.iter())
        {
            momentum_step(
                &mut p.value,
                v,
                d,
                self.momentum,
                self.weight_decay,
                self.lr,
            );
        }
    }

    /// Zeroed momentum buffers on the first step.
    fn init_velocity(&mut self, params: &[&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
    }
}

/// `v ← μ·v + (d + λ·w)`, `w ← w − α·v` in one pass over the three
/// buffers: per element the operations, and their rounding, of
/// `v.scale(μ)`, `v.axpy(1, d)`, `v.axpy(λ, w)` and `w.axpy(−α, v)`.
fn momentum_step(w: &mut Matrix, v: &mut Matrix, d: &Matrix, mu: f64, wd: f64, lr: f64) {
    assert_eq!(w.shape(), v.shape(), "Sgd: parameter shape changed");
    assert_eq!(d.shape(), v.shape(), "Sgd: direction shape mismatch");
    let neg_lr = -lr;
    let elems = w
        .as_mut_slice()
        .iter_mut()
        .zip(v.as_mut_slice())
        .zip(d.as_slice());
    for ((wi, vi), &di) in elems {
        *vi *= mu;
        *vi += 1.0 * di;
        if wd != 0.0 {
            *vi += wd * *wi;
        }
        *wi += neg_lr * *vi;
    }
}

/// A learning-rate schedule: linear warmup followed by step decay — the
/// shape large-batch CNN training (the paper's workload) uses.
///
/// # Example
///
/// ```
/// use spdkfac_nn::optim::LrSchedule;
///
/// let s = LrSchedule::new(0.1).warmup(10).step_decay(100, 0.1);
/// assert!(s.lr_at(0) < 0.011);      // warmup starts near base/warmup
/// assert_eq!(s.lr_at(10), 0.1);     // warmed up
/// assert!((s.lr_at(150) - 0.01).abs() < 1e-12); // one decay step
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    base: f64,
    warmup_steps: usize,
    decay_every: Option<usize>,
    decay_gamma: f64,
}

impl LrSchedule {
    /// Constant schedule at `base`.
    pub fn new(base: f64) -> Self {
        LrSchedule {
            base,
            warmup_steps: 0,
            decay_every: None,
            decay_gamma: 1.0,
        }
    }

    /// Adds linear warmup over the first `steps` steps.
    pub fn warmup(mut self, steps: usize) -> Self {
        self.warmup_steps = steps;
        self
    }

    /// Multiplies the rate by `gamma` every `every` post-warmup steps.
    pub fn step_decay(mut self, every: usize, gamma: f64) -> Self {
        assert!(every > 0, "decay interval must be positive");
        self.decay_every = Some(every);
        self.decay_gamma = gamma;
        self
    }

    /// Learning rate at `step` (0-based).
    pub fn lr_at(&self, step: usize) -> f64 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            return self.base * (step + 1) as f64 / self.warmup_steps as f64;
        }
        match self.decay_every {
            None => self.base,
            Some(every) => {
                let post = step - self.warmup_steps;
                self.base * self.decay_gamma.powi((post / every) as i32)
            }
        }
    }

    /// Applies the schedule to an optimizer for the given step.
    pub fn apply(&self, sgd: &mut Sgd, step: usize) {
        sgd.set_lr(self.lr_at(step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: f64) -> Param {
        let mut p = Param::new(Matrix::from_rows(&[&[v]]));
        p.grad = Matrix::from_rows(&[&[1.0]]);
        p
    }

    #[test]
    fn vanilla_sgd_step() {
        let mut p = param(1.0);
        let mut opt = Sgd::new(0.5, 0.0, 0.0);
        opt.step(&mut [&mut p]);
        assert!((p.value[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(0.0);
        let mut opt = Sgd::new(1.0, 0.5, 0.0);
        opt.step(&mut [&mut p]); // v=1, w=-1
        p.grad = Matrix::from_rows(&[&[1.0]]);
        opt.step(&mut [&mut p]); // v=1.5, w=-2.5
        assert!((p.value[(0, 0)] + 2.5).abs() < 1e-12);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut p = param(10.0);
        p.grad = Matrix::from_rows(&[&[0.0]]);
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value[(0, 0)] - (10.0 - 0.1 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn directions_bypass_grad() {
        let mut p = param(0.0);
        p.grad = Matrix::from_rows(&[&[100.0]]); // ignored
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        opt.step_with_directions(&mut [&mut p], &[Matrix::from_rows(&[&[2.0]])]);
        assert!((p.value[(0, 0)] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_warmup_is_linear() {
        let s = LrSchedule::new(1.0).warmup(4);
        assert!((s.lr_at(0) - 0.25).abs() < 1e-12);
        assert!((s.lr_at(1) - 0.5).abs() < 1e-12);
        assert!((s.lr_at(3) - 1.0).abs() < 1e-12);
        assert!((s.lr_at(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_decay_compounds() {
        let s = LrSchedule::new(0.8).step_decay(10, 0.5);
        assert!((s.lr_at(9) - 0.8).abs() < 1e-12);
        assert!((s.lr_at(10) - 0.4).abs() < 1e-12);
        assert!((s.lr_at(25) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn schedule_applies_to_sgd() {
        let mut sgd = Sgd::new(0.0, 0.0, 0.0);
        let s = LrSchedule::new(0.3);
        s.apply(&mut sgd, 7);
        assert_eq!(sgd.lr(), 0.3);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut p1 = param(0.0);
        let mut p2 = param(0.0);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step(&mut [&mut p1, &mut p2]);
        opt.step(&mut [&mut p1]);
    }
}
