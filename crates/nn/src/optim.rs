//! Optimizers and the paper's learning-rate schedule.
//!
//! The paper trains with learning rate 0.001 decayed to 60 % every 20 epochs
//! ([`StepDecay`]). The optimizer is not named in the paper; we provide both
//! [`Adam`] (used by default) and [`Sgd`] with momentum.

use crate::layers::{Grads, Params};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A first-order optimizer over a [`Params`] implementor's parameters.
pub trait Optimizer {
    /// Applies one update step from `grads`, one gradient per parameter in
    /// visit order.
    fn step(&mut self, model: &mut dyn Params, grads: &Grads);

    /// Sets the learning rate.
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates SGD with the given rate and momentum.
    pub fn new(lr: f32, momentum: f32) -> Sgd {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Params, grads: &Grads) {
        let mut idx = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        let grads = grads.tensors();
        model.visit_params(&mut |p| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.shape()));
            }
            let v = &mut velocity[idx];
            let grad = &grads[idx];
            assert_eq!(grad.shape(), p.value.shape(), "gradient shape");
            for ((vi, gi), wi) in v
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(p.value.data_mut())
            {
                *vi = momentum * *vi + gi;
                *wi -= lr * *vi;
            }
            idx += 1;
        });
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Params, grads: &Grads) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let mut idx = 0usize;
        let m = &mut self.m;
        let v = &mut self.v;
        let grads = grads.tensors();
        model.visit_params(&mut |p| {
            if m.len() <= idx {
                m.push(Tensor::zeros(p.value.shape()));
                v.push(Tensor::zeros(p.value.shape()));
            }
            let (mi, vi) = (&mut m[idx], &mut v[idx]);
            let grad = &grads[idx];
            assert_eq!(grad.shape(), p.value.shape(), "gradient shape");
            for (((mm, vv), g), w) in mi
                .data_mut()
                .iter_mut()
                .zip(vi.data_mut())
                .zip(grad.data())
                .zip(p.value.data_mut())
            {
                *mm = b1 * *mm + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let mhat = *mm / bc1;
                let vhat = *vv / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Step learning-rate decay: `lr(epoch) = initial * factor^(epoch / every)`
/// (paper: initial 0.001, factor 0.6, every 20 epochs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepDecay {
    /// Initial rate.
    pub initial: f32,
    /// Multiplicative factor per period.
    pub factor: f32,
    /// Period length in epochs.
    pub every: usize,
}

impl StepDecay {
    /// The paper's schedule.
    pub fn paper() -> StepDecay {
        StepDecay {
            initial: 1e-3,
            factor: 0.6,
            every: 20,
        }
    }

    /// Learning rate at the given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.initial * self.factor.powi((epoch / self.every.max(1)) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::layers::{Grads, Layer, Linear};
    use crate::loss::softmax_regression;

    /// A toy matching problem: pick the candidate whose feature matches a
    /// pattern; both optimizers must drive the loss down.
    fn train_toy(optimizer: &mut dyn Optimizer) -> (f32, f32) {
        let mut init = Initializer::new(42);
        let mut model = Linear::new(4, 1, &mut init);
        let mut grads = Grads::zeros(&mut model);
        let make_batch = |t: usize| {
            let mut data = vec![0.0f32; 4 * 4];
            for j in 0..4 {
                data[j * 4 + j] = if j == t { 1.0 } else { 0.3 };
                data[j * 4 + (j + 1) % 4] = 0.1;
            }
            Tensor::from_vec(&[4, 4], data)
        };
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..200 {
            let t = step % 4;
            let x = make_batch(t);
            let (y, tape) = model.forward(x);
            let (loss, grad) = softmax_regression(&y, t);
            let mut folds = Vec::new();
            model.backward(tape, grad, &[4], &mut folds);
            grads.fill_zero();
            grads.fold(&[folds], 1);
            optimizer.step(&mut model, &grads);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        (first, last)
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut opt = Sgd::new(0.05, 0.9);
        let (first, last) = train_toy(&mut opt);
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt = Adam::new(0.05);
        let (first, last) = train_toy(&mut opt);
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn step_decay_matches_paper() {
        let sched = StepDecay::paper();
        assert!((sched.lr_at(0) - 1e-3).abs() < 1e-9);
        assert!((sched.lr_at(19) - 1e-3).abs() < 1e-9);
        assert!((sched.lr_at(20) - 0.6e-3).abs() < 1e-9);
        assert!((sched.lr_at(40) - 0.36e-3).abs() < 1e-9);
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Adam::new(0.01);
        opt.set_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
    }
}
