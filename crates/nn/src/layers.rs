//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer is stateless: all three passes take `&self`, so one model
//! serves any number of concurrent inference and training calls without a
//! clone.
//!
//! * [`Layer::infer`] returns the layer's output and keeps nothing.
//! * [`Layer::forward`] returns the same output bits, and a tape of what
//!   [`Layer::backward`] needs.
//! * [`Layer::backward`] consumes the tape and returns the gradient with
//!   respect to the input. Each weight layer hands its input rows and
//!   output gradient to the fold as a [`Fold`]; [`Grads::fold`] then adds
//!   them into a [`Grads`] buffer, which the optimizer reads.
//!
//! The fold sums each weight gradient one query segment at a time
//! ([`Tensor::fold_t_matmul`]), so a batch stacked into one pass gives the
//! bits of its queries run one by one.
//!
//! The set of layers is exactly what the DAC'19 network (paper Table 2) needs:
//! dense ([`Linear`]), 3×3 convolution ([`Conv2d`], stride 1 or 3), leaky ReLU
//! ([`LeakyRelu`]), residual MLP blocks ([`ResBlock`]), and global average
//! pooling ([`GlobalAvgPool`]) to bridge the conv tower into dense layers.

use crate::init::Initializer;
use crate::parallel::for_each_mut;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Mutable view of one parameter tensor.
pub struct ParamRef<'a> {
    /// Parameter values.
    pub value: &'a mut Tensor,
}

/// Anything holding trainable parameters (layers and composite models).
pub trait Params {
    /// Visits every parameter in a stable order: the order of the forward
    /// pass, and for each weight layer its weight, then its bias.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>));

    /// Number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }
}

/// A differentiable single-input layer.
pub trait Layer: Params {
    /// What [`Layer::forward`] keeps for [`Layer::backward`].
    type Tape;

    /// Inference pass: the layer's output, keeping nothing.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Training pass: the output [`Layer::infer`] gives, and its tape. It
    /// takes the input by value, so a tape that keeps it moves it rather
    /// than copying it.
    fn forward(&self, x: Tensor) -> (Tensor, Self::Tape);

    /// Backward pass through the `forward` call that made `tape`: returns
    /// the gradient with respect to the input. `segments` splits the
    /// input's first dimension (rows, or images for 4-D inputs) into
    /// queries. Each weight layer pushes one [`Fold`] onto `folds`, in
    /// backward order: the reverse of [`Params::visit_params`] order.
    fn backward(
        &self,
        tape: Self::Tape,
        grad_out: Tensor,
        segments: &[usize],
        folds: &mut Vec<Fold>,
    ) -> Tensor;
}

/// One weight layer's share of a gradient, as [`Layer::backward`] hands it
/// over: its input rows `x` and output gradient `g`, and the rows of each
/// query segment. It folds into the weight as `Σ_s x[s]ᵀ · g[s]` and into
/// the bias as `Σ_r g[r]`.
#[derive(Debug)]
pub struct Fold {
    x: Tensor,
    g: Tensor,
    segments: Vec<usize>,
}

impl Fold {
    /// Adds this share into a weight gradient and a bias gradient: the
    /// weight's segment by segment ([`Tensor::fold_t_matmul`]), the bias's
    /// row by row.
    fn add_into(&self, gw: &mut Tensor, gb: &mut Tensor) {
        gw.fold_t_matmul(&self.x, &self.g, &self.segments);
        let cols = self.g.dims2().1;
        assert_eq!(gb.shape(), [cols], "bias gradient shape");
        for row in self.g.data().chunks_exact(cols.max(1)) {
            for (acc, v) in gb.data_mut().iter_mut().zip(row) {
                *acc += v;
            }
        }
    }
}

/// Gradients of a model's parameters, in [`Params::visit_params`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct Grads {
    tensors: Vec<Tensor>,
}

impl Grads {
    /// Zero gradients shaped like `model`'s parameters.
    pub fn zeros(model: &mut dyn Params) -> Grads {
        let mut tensors = Vec::new();
        model.visit_params(&mut |p| tensors.push(Tensor::zeros(p.value.shape())));
        Grads { tensors }
    }

    /// One gradient per parameter, in visit order.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Sets every gradient to zero.
    pub fn fill_zero(&mut self) {
        self.tensors.iter_mut().for_each(Tensor::fill_zero);
    }

    /// Multiplies every gradient by `s` (e.g. `1 / batch`).
    pub fn scale(&mut self, s: f32) {
        self.tensors.iter_mut().for_each(|t| t.scale(s));
    }

    /// Adds the folds of a batch's chunks, chunk after chunk in batch
    /// order. `chunks[c]` holds what chunk `c`'s backward pass pushed, in
    /// backward order. The parameters are split across `threads`, and each
    /// one's sum runs in batch order on one thread, so the result is the
    /// same bits at every thread count.
    ///
    /// # Panics
    ///
    /// Panics unless every chunk holds one fold per weight layer.
    pub fn fold(&mut self, chunks: &[Vec<Fold>], threads: usize) {
        let layers = self.tensors.len() / 2;
        for folds in chunks {
            assert_eq!(folds.len(), layers, "one fold per weight layer");
        }
        // Every weight layer owns two parameters, its weight and its bias.
        let mut pairs: Vec<(usize, &mut [Tensor])> =
            self.tensors.chunks_exact_mut(2).enumerate().collect();
        for_each_mut(&mut pairs, threads, |(layer, pair)| {
            let [gw, gb] = pair else {
                unreachable!("chunks_exact_mut(2) yields pairs")
            };
            for folds in chunks {
                folds[layers - 1 - *layer].add_into(gw, gb);
            }
        });
    }
}

/// Adds the bias `b` (`[cols]`) to every row of `y` (`[rows, cols]`).
fn add_bias(y: &mut Tensor, b: &Tensor) {
    let cols = y.dims2().1;
    for row in y.data_mut().chunks_exact_mut(cols.max(1)) {
        for (v, bc) in row.iter_mut().zip(b.data()) {
            *v += bc;
        }
    }
}

/// Fully connected layer `y = x W + b` with `x: [rows, in]`, `W: [in, out]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
}

impl Linear {
    /// Creates a dense layer with He-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Linear {
        Linear {
            w: init.he_uniform(&[in_dim, out_dim], in_dim),
            b: Tensor::zeros(&[out_dim]),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef { value: &mut self.w });
        f(ParamRef { value: &mut self.b });
    }
}

impl Layer for Linear {
    /// The input.
    type Tape = Tensor;

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        add_bias(&mut y, &self.b);
        y
    }

    fn forward(&self, x: Tensor) -> (Tensor, Tensor) {
        (self.infer(&x), x)
    }

    fn backward(
        &self,
        x: Tensor,
        grad_out: Tensor,
        segments: &[usize],
        folds: &mut Vec<Fold>,
    ) -> Tensor {
        // gx = g Wᵀ; the fold adds xᵀ g and the rows of g.
        let gx = grad_out.matmul_t(&self.w);
        folds.push(Fold {
            x,
            g: grad_out,
            segments: segments.to_vec(),
        });
        gx
    }
}

/// Leaky rectified linear unit `y = max(αx, x)` (the paper uses α = 0.01).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeakyRelu {
    /// Negative-side slope.
    pub alpha: f32,
}

impl LeakyRelu {
    /// Creates an LReLU with the paper's slope of 0.01.
    pub fn new() -> LeakyRelu {
        LeakyRelu { alpha: 0.01 }
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        LeakyRelu::new()
    }
}

impl Params for LeakyRelu {
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamRef<'_>)) {}
}

impl Layer for LeakyRelu {
    /// Whether each input was positive.
    type Tape = Vec<bool>;

    fn infer(&self, x: &Tensor) -> Tensor {
        let alpha = self.alpha;
        x.map(|v| if v > 0.0 { v } else { alpha * v })
    }

    fn forward(&self, mut x: Tensor) -> (Tensor, Vec<bool>) {
        let alpha = self.alpha;
        let positive = x
            .data_mut()
            .iter_mut()
            .map(|v| {
                let positive = *v > 0.0;
                *v = if positive { *v } else { alpha * *v };
                positive
            })
            .collect();
        (x, positive)
    }

    fn backward(
        &self,
        positive: Vec<bool>,
        mut grad_out: Tensor,
        _: &[usize],
        _: &mut Vec<Fold>,
    ) -> Tensor {
        assert_eq!(positive.len(), grad_out.numel(), "LReLU gradient shape");
        let alpha = self.alpha;
        for (g, pos) in grad_out.data_mut().iter_mut().zip(positive) {
            *g = if pos { *g } else { alpha * *g };
        }
        grad_out
    }
}

/// 3×3 convolution with `same` padding and configurable stride, NCHW layout,
/// implemented as im2col + matmul.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Kernel `[C*k*k, OC]` as a matmul-ready matrix.
    w: Tensor,
    b: Tensor,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
}

/// What [`Conv2d::forward`] keeps: the im2col matrix of its input and the
/// input's shape.
#[derive(Debug)]
pub struct ConvTape {
    col: Tensor,
    in_shape: [usize; 4],
}

impl Conv2d {
    /// Creates a `k×k` convolution (`in_ch → out_ch`) with the given stride.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        init: &mut Initializer,
    ) -> Conv2d {
        let fan_in = in_ch * k * k;
        Conv2d {
            w: init.he_uniform(&[fan_in, out_ch], fan_in),
            b: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            k,
            stride,
        }
    }

    /// Output spatial size for an input of side `n` ("same" padding).
    pub fn out_size(&self, n: usize) -> usize {
        n.div_ceil(self.stride)
    }

    /// Padding used on each side for "same" behaviour.
    fn pad(&self) -> usize {
        self.k / 2
    }

    /// im2col: `(n, c, h, w)` → `(n*oh*ow, c*k*k)`.
    fn im2col(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.dims4();
        assert_eq!(c, self.in_ch, "channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let k = self.k;
        let pad = self.pad() as isize;
        let stride = self.stride as isize;
        let cols = c * k * k;
        let mut out = vec![0.0f32; n * oh * ow * cols];
        let xd = x.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * cols;
                    for ch in 0..c {
                        let base = (b * c + ch) * h * w;
                        for ky in 0..k {
                            let iy = oy as isize * stride + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize * stride + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out[row + (ch * k + ky) * k + kx] =
                                    xd[base + iy as usize * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[n * oh * ow, cols], out)
    }

    /// col2im: scatter-add of `(n*oh*ow, c*k*k)` back to `(n, c, h, w)`.
    fn col2im(&self, col: &Tensor, in_shape: [usize; 4]) -> Tensor {
        let [n, c, h, w] = in_shape;
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let k = self.k;
        let pad = self.pad() as isize;
        let stride = self.stride as isize;
        let cols = c * k * k;
        let mut out = Tensor::zeros(&[n, c, h, w]);
        let od = out.data_mut();
        let cd = col.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * cols;
                    for ch in 0..c {
                        let base = (b * c + ch) * h * w;
                        for ky in 0..k {
                            let iy = oy as isize * stride + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize * stride + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                od[base + iy as usize * w + ix as usize] +=
                                    cd[row + (ch * k + ky) * k + kx];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The output `(n, oc, oh, ow)` for the im2col matrix `col` of an input
    /// shaped `(n, c, h, w)`.
    fn convolve(&self, col: &Tensor, (n, _, h, w): (usize, usize, usize, usize)) -> Tensor {
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let mut y = col.matmul(&self.w); // (n*oh*ow, oc)
        add_bias(&mut y, &self.b);
        // (n*oh*ow, oc) → (n, oc, oh, ow)
        let oc = self.out_ch;
        let mut out = vec![0.0f32; n * oc * oh * ow];
        let yd = y.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * oc;
                    for c in 0..oc {
                        out[((b * oc + c) * oh + oy) * ow + ox] = yd[row + c];
                    }
                }
            }
        }
        Tensor::from_vec(&[n, oc, oh, ow], out)
    }
}

impl Params for Conv2d {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef { value: &mut self.w });
        f(ParamRef { value: &mut self.b });
    }
}

impl Layer for Conv2d {
    type Tape = ConvTape;

    fn infer(&self, x: &Tensor) -> Tensor {
        self.convolve(&self.im2col(x), x.dims4())
    }

    fn forward(&self, x: Tensor) -> (Tensor, ConvTape) {
        let (n, _, h, w) = x.dims4();
        let col = self.im2col(&x);
        let y = self.convolve(&col, x.dims4());
        let in_shape = [n, self.in_ch, h, w];
        (y, ConvTape { col, in_shape })
    }

    fn backward(
        &self,
        tape: ConvTape,
        grad_out: Tensor,
        segments: &[usize],
        folds: &mut Vec<Fold>,
    ) -> Tensor {
        let (n, oc, oh, ow) = grad_out.dims4();
        assert_eq!(oc, self.out_ch);
        // (n, oc, oh, ow) → (n*oh*ow, oc)
        let mut g = vec![0.0f32; n * oh * ow * oc];
        let gd = grad_out.data();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * oc;
                    for c in 0..oc {
                        g[row + c] = gd[((b * oc + c) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        let g = Tensor::from_vec(&[n * oh * ow, oc], g);
        let gcol = g.matmul_t(&self.w);
        // An image is oh·ow rows of the im2col matrix.
        folds.push(Fold {
            x: tape.col,
            g,
            segments: segments.iter().map(|&s| s * oh * ow).collect(),
        });
        self.col2im(&gcol, tape.in_shape)
    }
}

/// Residual MLP block (paper Fig. 4): the output is the sum of the input and
/// three LReLU-activated dense layers of the same width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResBlock {
    fc: [Linear; 3],
    act: [LeakyRelu; 3],
}

impl ResBlock {
    /// Creates a residual block of the given width.
    pub fn new(dim: usize, init: &mut Initializer) -> ResBlock {
        ResBlock {
            fc: [
                Linear::new(dim, dim, init),
                Linear::new(dim, dim, init),
                Linear::new(dim, dim, init),
            ],
            act: [LeakyRelu::new(), LeakyRelu::new(), LeakyRelu::new()],
        }
    }
}

impl Params for ResBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for fc in &mut self.fc {
            fc.visit_params(f);
        }
    }
}

impl Layer for ResBlock {
    /// The tapes of each dense layer and its activation. The first dense
    /// layer's tape is the block's input.
    type Tape = Vec<(Tensor, Vec<bool>)>;

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (fc, act) in self.fc.iter().zip(&self.act) {
            h = act.infer(&fc.infer(&h));
        }
        h.add_assign(x);
        h
    }

    fn forward(&self, x: Tensor) -> (Tensor, Self::Tape) {
        let mut h = x;
        let mut tape = Vec::with_capacity(3);
        for (fc, act) in self.fc.iter().zip(&self.act) {
            let (y, fc_tape) = fc.forward(h);
            let act_tape;
            (h, act_tape) = act.forward(y);
            tape.push((fc_tape, act_tape));
        }
        h.add_assign(&tape[0].0);
        (h, tape)
    }

    fn backward(
        &self,
        tape: Self::Tape,
        grad_out: Tensor,
        segments: &[usize],
        folds: &mut Vec<Fold>,
    ) -> Tensor {
        let mut g = grad_out.clone();
        for (i, (fc_tape, act_tape)) in tape.into_iter().enumerate().rev() {
            g = self.act[i].backward(act_tape, g, segments, folds);
            g = self.fc[i].backward(fc_tape, g, segments, folds);
        }
        g.add_assign(&grad_out); // skip connection
        g
    }
}

/// Global average pooling `(n, c, h, w)` → `(n, c)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalAvgPool {}

impl GlobalAvgPool {
    /// Creates the pool.
    pub fn new() -> GlobalAvgPool {
        GlobalAvgPool::default()
    }
}

impl Params for GlobalAvgPool {
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamRef<'_>)) {}
}

impl Layer for GlobalAvgPool {
    /// The input's shape.
    type Tape = [usize; 4];

    fn infer(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.dims4();
        let mut out = Tensor::zeros(&[n, c]);
        let xd = x.data();
        let od = out.data_mut();
        let inv = 1.0 / (h * w) as f32;
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * h * w;
                let s: f32 = xd[base..base + h * w].iter().sum();
                od[b * c + ch] = s * inv;
            }
        }
        out
    }

    fn forward(&self, x: Tensor) -> (Tensor, [usize; 4]) {
        let (n, c, h, w) = x.dims4();
        (self.infer(&x), [n, c, h, w])
    }

    fn backward(
        &self,
        [n, c, h, w]: [usize; 4],
        grad_out: Tensor,
        _: &[usize],
        _: &mut Vec<Fold>,
    ) -> Tensor {
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        let inv = 1.0 / (h * w) as f32;
        let gd = grad_out.data();
        let gxd = gx.data_mut();
        for b in 0..n {
            for ch in 0..c {
                let g = gd[b * c + ch] * inv;
                let base = (b * c + ch) * h * w;
                for v in &mut gxd[base..base + h * w] {
                    *v = g;
                }
            }
        }
        gx
    }
}

/// A stack of `Linear`+`LReLU` pairs (used for the plain dense parts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpStack {
    layers: Vec<Linear>,
    acts: Vec<LeakyRelu>,
    /// Whether the final layer is followed by an activation.
    pub activate_last: bool,
}

impl MlpStack {
    /// Builds a stack with the given layer widths, e.g. `[27, 128]` for the
    /// paper's `fc1`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], activate_last: bool, init: &mut Initializer) -> MlpStack {
        assert!(widths.len() >= 2, "need at least in/out widths");
        let mut layers = Vec::new();
        let mut acts = Vec::new();
        for w in widths.windows(2) {
            layers.push(Linear::new(w[0], w[1], init));
            acts.push(LeakyRelu::new());
        }
        MlpStack {
            layers,
            acts,
            activate_last,
        }
    }
}

impl Params for MlpStack {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

impl Layer for MlpStack {
    /// Per layer, its tape and its activation's (none after an
    /// unactivated last layer).
    type Tape = Vec<(Tensor, Option<Vec<bool>>)>;

    fn infer(&self, x: &Tensor) -> Tensor {
        let n = self.layers.len();
        let mut h = x.clone();
        for i in 0..n {
            h = self.layers[i].infer(&h);
            if i + 1 < n || self.activate_last {
                h = self.acts[i].infer(&h);
            }
        }
        h
    }

    fn forward(&self, x: Tensor) -> (Tensor, Self::Tape) {
        let n = self.layers.len();
        let mut h = x;
        let mut tape = Vec::with_capacity(n);
        for i in 0..n {
            let fc_tape;
            (h, fc_tape) = self.layers[i].forward(h);
            let mut act_tape = None;
            if i + 1 < n || self.activate_last {
                let (y, t) = self.acts[i].forward(h);
                (h, act_tape) = (y, Some(t));
            }
            tape.push((fc_tape, act_tape));
        }
        (h, tape)
    }

    fn backward(
        &self,
        tape: Self::Tape,
        grad_out: Tensor,
        segments: &[usize],
        folds: &mut Vec<Fold>,
    ) -> Tensor {
        let mut g = grad_out;
        for (i, (fc_tape, act_tape)) in tape.into_iter().enumerate().rev() {
            if let Some(t) = act_tape {
                g = self.acts[i].backward(t, g, segments, folds);
            }
            g = self.layers[i].backward(fc_tape, g, segments, folds);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward and backward passes of `x` as one query, with output
    /// gradient `dy(y)`: folds the parameter gradients into `grads` and
    /// returns the input gradient.
    fn backprop<L: Layer>(
        layer: &L,
        x: &Tensor,
        dy: impl Fn(f32) -> f32,
        grads: &mut Grads,
    ) -> Tensor {
        let (y, tape) = layer.forward(x.clone());
        let mut folds = Vec::new();
        let gx = layer.backward(tape, y.map(dy), &[x.shape()[0]], &mut folds);
        grads.fold(&[folds], 1);
        gx
    }

    /// Finite-difference gradient check of a layer's parameter and input
    /// gradients against backprop.
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor, eps: f32, tol: f32) {
        // Loss = sum of outputs (gradient of loss wrt output = ones).
        let mut grads = Grads::zeros(layer);
        let gx = backprop(layer, x, |_| 1.0, &mut grads);

        // Input gradient check on a few coordinates.
        for idx in [0, x.numel() / 2, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = layer.infer(&xp).sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = layer.infer(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gx.data()[idx];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }

        // Parameter gradient check on the first parameter tensor (skipped for
        // parameterless layers).
        let Some(first) = grads.tensors().first() else {
            return;
        };
        for idx in [0, first.numel() / 2] {
            let probe = |delta: f32, layer: &mut L| -> f32 {
                let mut first = true;
                layer.visit_params(&mut |p| {
                    if first {
                        p.value.data_mut()[idx] += delta;
                        first = false;
                    }
                });
                let out = layer.infer(x).sum();
                let mut first = true;
                layer.visit_params(&mut |p| {
                    if first {
                        p.value.data_mut()[idx] -= delta;
                        first = false;
                    }
                });
                out
            };
            let fp = probe(eps, layer);
            let fm = probe(-eps, layer);
            let num = (fp - fm) / (2.0 * eps);
            let ana = first.data()[idx];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "param grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn linear_gradients() {
        let mut init = Initializer::new(7);
        let mut layer = Linear::new(5, 4, &mut init);
        let x = init.uniform(&[3, 5], 1.0).reshape(&[3, 5]);
        grad_check(&mut layer, &x, 1e-2, 1e-2);
    }

    #[test]
    fn conv_gradients() {
        let mut init = Initializer::new(7);
        let mut layer = Conv2d::new(2, 3, 3, 1, &mut init);
        let x = init.uniform(&[2 * 2 * 5 * 5], 1.0).reshape(&[2, 2, 5, 5]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn strided_conv_gradients() {
        let mut init = Initializer::new(9);
        let mut layer = Conv2d::new(2, 2, 3, 3, &mut init);
        let x = init.uniform(&[2 * 9 * 9], 1.0).reshape(&[1, 2, 9, 9]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn resblock_gradients() {
        let mut init = Initializer::new(11);
        let mut layer = ResBlock::new(6, &mut init);
        let x = init.uniform(&[4 * 6], 1.0).reshape(&[4, 6]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn pool_gradients() {
        let mut layer = GlobalAvgPool::new();
        let mut init = Initializer::new(13);
        let x = init.uniform(&[2 * 3 * 4 * 4], 1.0).reshape(&[2, 3, 4, 4]);
        grad_check(&mut layer, &x, 1e-2, 1e-3);
    }

    #[test]
    fn mlp_stack_gradients() {
        let mut init = Initializer::new(15);
        let mut layer = MlpStack::new(&[4, 8, 3], true, &mut init);
        let x = init.uniform(&[2 * 4], 1.0).reshape(&[2, 4]);
        grad_check(&mut layer, &x, 1e-2, 2e-2);
    }

    #[test]
    fn conv_same_padding_shapes() {
        let mut init = Initializer::new(1);
        let conv = Conv2d::new(1, 4, 3, 1, &mut init);
        let x = Tensor::zeros(&[1, 1, 99, 99]);
        assert_eq!(conv.infer(&x).shape(), &[1, 4, 99, 99]);
        let conv3 = Conv2d::new(1, 4, 3, 3, &mut init);
        assert_eq!(conv3.infer(&x).shape(), &[1, 4, 33, 33]);
        // The paper's tower: 99 → 33 → 11 → 4.
        let x = Tensor::zeros(&[1, 1, 11, 11]);
        assert_eq!(conv3.infer(&x).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn resblock_is_residual() {
        let mut init = Initializer::new(3);
        let mut block = ResBlock::new(4, &mut init);
        // Zero all parameters: output must equal input exactly.
        block.visit_params(&mut |p| p.value.fill_zero());
        let x = Tensor::from_vec(&[1, 4], vec![1., -2., 3., -4.]);
        let y = block.infer(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn leaky_relu_values() {
        let act = LeakyRelu::new();
        let x = Tensor::from_vec(&[4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = act.infer(&x);
        assert_eq!(y.data(), &[-0.02, -0.005, 0.5, 2.0]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn grad_bits(g: &Grads) -> Vec<Vec<u32>> {
        g.tensors().iter().map(bits).collect()
    }

    /// `infer` and `forward` return the same bits. The parameters are
    /// shifted first so that no bias is zero.
    fn assert_infer_is_forward<L: Layer>(name: &str, layer: &mut L, x: &Tensor) {
        layer.visit_params(&mut |p| p.value.map_inplace(|v| v + 0.125));
        let (trained, _) = layer.forward(x.clone());
        let inferred = layer.infer(x);
        assert_eq!(trained.shape(), inferred.shape(), "{name}");
        assert!(
            bits(&trained) == bits(&inferred),
            "{name}: infer differs from forward"
        );
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut init = Initializer::new(21);
        // Mixed signs so every LReLU branch is taken.
        let rows = init.uniform(&[5 * 6], 1.0).reshape(&[5, 6]);
        let image = init
            .uniform(&[2 * 3 * 10 * 10], 1.0)
            .reshape(&[2, 3, 10, 10]);
        assert_infer_is_forward("Linear", &mut Linear::new(6, 4, &mut init), &rows);
        assert_infer_is_forward("LeakyRelu", &mut LeakyRelu::new(), &rows);
        assert_infer_is_forward("ResBlock", &mut ResBlock::new(6, &mut init), &rows);
        assert_infer_is_forward("GlobalAvgPool", &mut GlobalAvgPool::new(), &image);
        assert_infer_is_forward(
            "MlpStack",
            &mut MlpStack::new(&[6, 8, 3], false, &mut init),
            &rows,
        );
        for stride in [1, 3] {
            let mut conv = Conv2d::new(3, 5, 3, stride, &mut init);
            assert_infer_is_forward(&format!("Conv2d stride {stride}"), &mut conv, &image);
        }
    }

    /// Stacks tensors along their first dimension.
    fn stack(parts: &[Tensor]) -> Tensor {
        let mut shape = parts[0].shape().to_vec();
        shape[0] = parts.iter().map(|p| p.shape()[0]).sum();
        Tensor::from_vec(
            &shape,
            parts.iter().flat_map(|p| p.data()).copied().collect(),
        )
    }

    /// Queries run one by one, each folded in turn, give the bits of the
    /// same queries stacked into chunks, at any thread count.
    fn assert_stacked_is_per_query<L: Layer>(name: &str, layer: &mut L, queries: &[Tensor]) {
        let dy = |v: f32| 0.75 * v - 0.25;
        let mut want = Grads::zeros(layer);
        let want_gx: Vec<Tensor> = queries
            .iter()
            .map(|q| backprop(layer, q, dy, &mut want))
            .collect();
        let (head, tail) = queries.split_at(queries.len() / 2);
        for threads in [1, 2, 3] {
            let mut grads = Grads::zeros(layer);
            let mut chunks = Vec::new();
            let mut gx = Vec::new();
            for chunk in [head, tail] {
                let segments: Vec<usize> = chunk.iter().map(|q| q.shape()[0]).collect();
                let (y, tape) = layer.forward(stack(chunk));
                let mut folds = Vec::new();
                gx.push(layer.backward(tape, y.map(dy), &segments, &mut folds));
                chunks.push(folds);
            }
            grads.fold(&chunks, threads);
            assert!(
                bits(&stack(&gx)) == bits(&stack(&want_gx)),
                "{name}: input gradients differ at {threads} threads"
            );
            assert!(
                grad_bits(&grads) == grad_bits(&want),
                "{name}: parameter gradients differ at {threads} threads"
            );
        }
    }

    #[test]
    fn stacked_backward_matches_per_query_bitwise() {
        let mut init = Initializer::new(23);
        let rows: Vec<Tensor> = [3, 1, 5, 2]
            .iter()
            .map(|&n| init.uniform(&[n * 6], 1.0).reshape(&[n, 6]))
            .collect();
        let images: Vec<Tensor> = [2, 1, 3]
            .iter()
            .map(|&n| init.uniform(&[n * 3 * 7 * 7], 1.0).reshape(&[n, 3, 7, 7]))
            .collect();
        assert_stacked_is_per_query("Linear", &mut Linear::new(6, 4, &mut init), &rows);
        assert_stacked_is_per_query("ResBlock", &mut ResBlock::new(6, &mut init), &rows);
        assert_stacked_is_per_query(
            "MlpStack",
            &mut MlpStack::new(&[6, 8, 3], true, &mut init),
            &rows,
        );
        for stride in [1, 3] {
            let mut conv = Conv2d::new(3, 4, 3, stride, &mut init);
            assert_stacked_is_per_query(&format!("Conv2d stride {stride}"), &mut conv, &images);
        }
    }

    #[test]
    fn param_counts() {
        let mut init = Initializer::new(1);
        let mut lin = Linear::new(27, 128, &mut init);
        assert_eq!(lin.num_params(), 27 * 128 + 128);
        let mut block = ResBlock::new(128, &mut init);
        assert_eq!(block.num_params(), 3 * (128 * 128 + 128));
    }
}
