//! A minimal CPU deep-learning framework for the `deepsplit` project.
//!
//! The DAC'19 paper builds its attack network in TensorFlow; the Rust
//! ecosystem offers no equivalent, so this crate implements the necessary
//! subset from scratch:
//!
//! * [`tensor`] — dense `f32` tensors with the matmul variants backprop needs.
//! * [`layers`] — `Linear`, `Conv2d` (im2col), `LeakyRelu`, residual MLP
//!   blocks, global average pooling, each with an `&self` inference pass and
//!   a caching training pass with a hand-derived backward pass (validated
//!   against finite differences in the test suite).
//! * [`loss`] — the paper's softmax regression loss (Eq. 6) and the two-class
//!   baseline (Eq. 3) it ablates against.
//! * [`optim`] — SGD/Adam plus the paper's step-decay schedule
//!   (0.001 decayed to 60 % every 20 epochs).
//! * [`init`] — deterministic He initialisation.
//! * [`parallel`] — `std::thread`-based data parallelism for CPU training.
//!
//! # Example
//!
//! ```
//! use deepsplit_nn::init::Initializer;
//! use deepsplit_nn::layers::{Layer, Linear, Params};
//! use deepsplit_nn::loss::softmax_regression;
//! use deepsplit_nn::optim::{Adam, Optimizer};
//! use deepsplit_nn::tensor::Tensor;
//!
//! let mut init = Initializer::new(1);
//! let mut model = Linear::new(8, 1, &mut init);
//! let mut opt = Adam::new(1e-2);
//! let x = Tensor::zeros(&[4, 8]);
//! let scores = model.forward(&x);
//! let (_loss, grad) = softmax_regression(&scores, 0);
//! model.zero_grad();
//! model.backward(&grad);
//! opt.step(&mut model);
//! ```

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod parallel;
pub mod tensor;

pub use init::Initializer;
pub use layers::{
    add_grads, export_grads, scale_grads, Conv2d, GlobalAvgPool, Layer, LeakyRelu, Linear,
    MlpStack, ParamRef, Params, ResBlock,
};
pub use loss::{softmax_regression, two_class};
pub use optim::{Adam, Optimizer, Sgd, StepDecay};
pub use tensor::Tensor;
