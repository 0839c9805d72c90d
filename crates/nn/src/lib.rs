//! A minimal CPU deep-learning framework for the `deepsplit` project.
//!
//! The DAC'19 paper builds its attack network in TensorFlow; the Rust
//! ecosystem offers no equivalent, so this crate implements the necessary
//! subset from scratch:
//!
//! * [`tensor`] — dense `f32` tensors with the matmul variants backprop needs.
//! * [`layers`] — `Linear`, `Conv2d` (im2col), `LeakyRelu`, residual MLP
//!   blocks, global average pooling. Every pass takes `&self`: inference,
//!   a training pass that returns a tape, and a hand-derived backward pass
//!   over that tape (validated against finite differences in the test
//!   suite) whose weight gradients fold into a `Grads` buffer.
//! * [`loss`] — the paper's softmax regression loss (Eq. 6) and the two-class
//!   baseline (Eq. 3) it ablates against.
//! * [`optim`] — SGD/Adam plus the paper's step-decay schedule
//!   (0.001 decayed to 60 % every 20 epochs).
//! * [`init`] — deterministic He initialisation.
//! * [`parallel`] — `std::thread`-based data parallelism for CPU training.
//!
//! # Example
//!
//! One training step on a batch of two queries, stacked into one pass: the
//! gradient is the same bits as running the queries one by one.
//!
//! ```
//! use deepsplit_nn::init::Initializer;
//! use deepsplit_nn::layers::{Grads, Layer, Linear};
//! use deepsplit_nn::loss::softmax_regression;
//! use deepsplit_nn::optim::{Adam, Optimizer};
//! use deepsplit_nn::tensor::Tensor;
//!
//! let mut init = Initializer::new(1);
//! let mut model = Linear::new(8, 1, &mut init);
//! let mut grads = Grads::zeros(&mut model);
//! let mut opt = Adam::new(1e-2);
//! // Two queries of 4 and 3 candidates, stacked as rows; the first
//! // candidate of each is the right one.
//! let x = init.uniform(&[7 * 8], 1.0).reshape(&[7, 8]);
//! let (scores, tape) = model.forward(x);
//! let mut grad = Vec::new();
//! for (start, n) in [(0, 4), (4, 3)] {
//!     let query = Tensor::from_vec(&[n, 1], scores.data()[start..start + n].to_vec());
//!     let (_loss, g) = softmax_regression(&query, 0);
//!     grad.extend_from_slice(g.data());
//! }
//! let mut folds = Vec::new();
//! model.backward(tape, Tensor::from_vec(&[7, 1], grad), &[4, 3], &mut folds);
//! grads.fold(&[folds], 1);
//! grads.scale(0.5);
//! opt.step(&mut model, &grads);
//! ```

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod parallel;
pub mod tensor;

pub use init::Initializer;
pub use layers::{
    Conv2d, Fold, GlobalAvgPool, Grads, Layer, LeakyRelu, Linear, MlpStack, ParamRef, Params,
    ResBlock,
};
pub use loss::{softmax_regression, two_class};
pub use optim::{Adam, Optimizer, Sgd, StepDecay};
pub use tensor::Tensor;
