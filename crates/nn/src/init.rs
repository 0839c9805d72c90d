//! Weight initialisation.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic weight initialiser.
#[derive(Debug)]
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// Creates an initialiser from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: StdRng::seed_from_u64(seed ^ 0x1417),
        }
    }

    /// He-uniform initialisation for a layer with `fan_in` inputs — the
    /// standard choice under (leaky-)ReLU activations.
    pub(crate) fn he_uniform(&mut self, shape: &[usize], fan_in: usize) -> Tensor {
        let bound = (6.0 / fan_in.max(1) as f64).sqrt() as f32;
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| self.rng.gen_range(-bound..bound)).collect();
        Tensor::from_vec(shape, data)
    }

    /// Uniform in `[-bound, bound]`.
    pub fn uniform(&mut self, shape: &[usize], bound: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| self.rng.gen_range(-bound..bound)).collect();
        Tensor::from_vec(shape, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Initializer::new(3);
        let mut b = Initializer::new(3);
        assert_eq!(a.he_uniform(&[4, 4], 4), b.he_uniform(&[4, 4], 4));
    }

    #[test]
    fn he_bound_scales_with_fan_in() {
        let mut init = Initializer::new(1);
        let wide = init.he_uniform(&[1000], 10_000);
        let narrow = init.he_uniform(&[1000], 10);
        let max = |t: &Tensor| t.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max(&wide) < max(&narrow));
    }
}
