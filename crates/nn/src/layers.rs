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
//! The two training passes take every buffer from a [`Workspace`] and give
//! back what they no longer need, and [`Grads::fold`] gives back the
//! folds' buffers; a loop that keeps its workspaces allocates them once.
//! [`Layer::infer`] allocates its own.
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
use crate::parallel::for_each_run;
use crate::tensor::{Scratch, Tensor};
use crate::workspace::Workspace;

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

    /// Visits every parameter read-only, in [`Params::visit_params`] order.
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor));

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

    /// Training pass: the output [`Layer::infer`] gives, and its tape,
    /// both from `ws`. It takes the input by value: a tape that keeps it
    /// moves it rather than copying it, and a layer that does not gives it
    /// back to `ws`.
    fn forward(&self, x: Tensor, ws: &mut Workspace) -> (Tensor, Self::Tape);

    /// Backward pass through the `forward` call that made `tape`: returns
    /// the gradient with respect to the input, from `ws`, and gives back
    /// what it no longer needs. `segments` splits the input's first
    /// dimension (rows, or images for 4-D inputs) into queries. Each weight
    /// layer pushes one [`Fold`] onto `ws`, in backward order: the reverse
    /// of [`Params::visit_params`] order.
    fn backward(
        &self,
        tape: Self::Tape,
        grad_out: Tensor,
        segments: &[usize],
        ws: &mut Workspace,
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
    fn add_into(&self, gw: &mut Tensor, gb: &mut Tensor, scratch: &mut Scratch) {
        gw.fold_t_matmul(&self.x, &self.g, &self.segments, scratch);
        let cols = self.g.dims2().1;
        assert_eq!(gb.shape(), [cols], "bias gradient shape");
        for row in self.g.data().chunks_exact(cols.max(1)) {
            for (acc, v) in gb.data_mut().iter_mut().zip(row) {
                *acc += v;
            }
        }
    }

    /// The fold's buffers: `x`, `g` and the segments.
    pub(crate) fn into_parts(self) -> (Tensor, Tensor, Vec<usize>) {
        (self.x, self.g, self.segments)
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
    /// order, and gives their buffers back. Chunk `c` is what workspace
    /// `c`'s backward pass pushed, in backward order; a workspace with no
    /// folds holds no chunk. The parameters are split across one thread
    /// per workspace, each working in its workspace's scratch, and each
    /// parameter's sum runs in batch order on one thread, so the result is
    /// the same bits at every thread count.
    ///
    /// # Panics
    ///
    /// Panics unless every chunk holds one fold per weight layer.
    pub fn fold(&mut self, workspaces: &mut [Workspace]) {
        let layers = self.tensors.len() / 2;
        let (chunks, mut scratches): (Vec<&[Fold]>, Vec<&mut Scratch>) = workspaces
            .iter_mut()
            .map(|ws| (&ws.folds[..], &mut ws.scratch))
            .unzip();
        for folds in chunks.iter().filter(|folds| !folds.is_empty()) {
            assert_eq!(folds.len(), layers, "one fold per weight layer");
        }
        // Every weight layer owns two parameters, its weight and its bias.
        for_each_run(
            &mut self.tensors,
            2,
            &mut scratches,
            |first, run, scratch| {
                for (at, pair) in run.chunks_exact_mut(2).enumerate() {
                    let [gw, gb] = pair else {
                        unreachable!("chunks_exact_mut(2) yields pairs")
                    };
                    let layer = first / 2 + at;
                    for folds in chunks.iter().filter(|folds| !folds.is_empty()) {
                        folds[layers - 1 - layer].add_into(gw, gb, scratch);
                    }
                }
            },
        );
        workspaces.iter_mut().for_each(Workspace::reclaim_folds);
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
#[derive(Debug, Clone)]
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

    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.w);
        f(&self.b);
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

    fn forward(&self, x: Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
        let mut y = ws.tensor(&[x.dims2().0, self.out_dim()]);
        x.matmul_into(&self.w, &mut y, ws.scratch());
        add_bias(&mut y, &self.b);
        (y, x)
    }

    fn backward(
        &self,
        x: Tensor,
        grad_out: Tensor,
        segments: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        // gx = g Wᵀ; the fold adds xᵀ g and the rows of g.
        let mut gx = ws.tensor(&[grad_out.dims2().0, self.in_dim()]);
        grad_out.matmul_t_into(&self.w, &mut gx, ws.scratch());
        let segments = ws.list(segments.iter().copied());
        ws.push_fold(Fold {
            x,
            g: grad_out,
            segments,
        });
        gx
    }
}

/// Leaky rectified linear unit `y = max(αx, x)` (the paper uses α = 0.01).
#[derive(Debug, Clone)]
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

    fn for_each_param(&self, _f: &mut dyn FnMut(&Tensor)) {}
}

impl Layer for LeakyRelu {
    /// Whether each input was positive.
    type Tape = Vec<bool>;

    fn infer(&self, x: &Tensor) -> Tensor {
        let alpha = self.alpha;
        x.map(|v| if v > 0.0 { v } else { alpha * v })
    }

    fn forward(&self, mut x: Tensor, ws: &mut Workspace) -> (Tensor, Vec<bool>) {
        let alpha = self.alpha;
        let mut positive = ws.mask(x.numel());
        positive.resize(x.numel(), false);
        for (v, p) in x.data_mut().iter_mut().zip(&mut positive) {
            *p = *v > 0.0;
            *v = if *p { *v } else { alpha * *v };
        }
        (x, positive)
    }

    fn backward(
        &self,
        positive: Vec<bool>,
        mut grad_out: Tensor,
        _: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        assert_eq!(positive.len(), grad_out.numel(), "LReLU gradient shape");
        let alpha = self.alpha;
        for (g, &pos) in grad_out.data_mut().iter_mut().zip(&positive) {
            *g = if pos { *g } else { alpha * *g };
        }
        ws.give_mask(positive);
        grad_out
    }
}

/// 3×3 convolution with `same` padding and configurable stride, NCHW layout,
/// implemented as im2col + matmul.
#[derive(Debug, Clone)]
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

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Output spatial size for an input of side `n` ("same" padding).
    pub(crate) fn out_size(&self, n: usize) -> usize {
        n.div_ceil(self.stride)
    }

    /// Padding used on each side for "same" behaviour.
    fn pad(&self) -> usize {
        self.k / 2
    }

    /// The im2col matrix `(n*oh*ow, c*k*k)` of `x` (`(n, c, h, w)`), written
    /// into `out`, which holds zeros: padding stays zero.
    fn im2col_into(&self, x: &Tensor, out: &mut [f32]) {
        let (n, c, h, w) = x.dims4();
        assert_eq!(c, self.in_ch, "channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let k = self.k;
        let pad = self.pad() as isize;
        let stride = self.stride as isize;
        let cols = c * k * k;
        assert_eq!(out.len(), n * oh * ow * cols, "im2col size");
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
    }

    /// col2im: scatter-add of `col` (`(n*oh*ow, c*k*k)`) into `out`
    /// (`(n, c, h, w)`, zeros).
    fn col2im_into(&self, col: &Tensor, out: &mut Tensor) {
        let (n, c, h, w) = out.dims4();
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let k = self.k;
        let pad = self.pad() as isize;
        let stride = self.stride as isize;
        let cols = c * k * k;
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
    }

    /// The output shape `(n, oc, oh, ow)` for an input shaped `(n, c, h, w)`.
    fn out_shape(&self, (n, _, h, w): (usize, usize, usize, usize)) -> [usize; 4] {
        [n, self.out_ch, self.out_size(h), self.out_size(w)]
    }

    /// Adds the bias to `y` (`(n*oh*ow, oc)`, the product of the im2col
    /// matrix and the kernel) and writes it into `out` as `(n, oc, oh, ow)`.
    fn bias_to_nchw(&self, y: &mut Tensor, out: &mut Tensor) {
        add_bias(y, &self.b);
        let (n, oc, oh, ow) = out.dims4();
        let (yd, od) = (y.data(), out.data_mut());
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * oc;
                    for c in 0..oc {
                        od[((b * oc + c) * oh + oy) * ow + ox] = yd[row + c];
                    }
                }
            }
        }
    }
}

impl Params for Conv2d {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef { value: &mut self.w });
        f(ParamRef { value: &mut self.b });
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.w);
        f(&self.b);
    }
}

impl Layer for Conv2d {
    type Tape = ConvTape;

    fn infer(&self, x: &Tensor) -> Tensor {
        let [n, oc, oh, ow] = self.out_shape(x.dims4());
        let mut col = Tensor::zeros(&[n * oh * ow, self.w.shape()[0]]);
        self.im2col_into(x, col.data_mut());
        let mut y = col.matmul(&self.w);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        self.bias_to_nchw(&mut y, &mut out);
        out
    }

    fn forward(&self, x: Tensor, ws: &mut Workspace) -> (Tensor, ConvTape) {
        let (n, _, h, w) = x.dims4();
        let [_, oc, oh, ow] = self.out_shape(x.dims4());
        let mut col = ws.zeros(&[n * oh * ow, self.w.shape()[0]]);
        self.im2col_into(&x, col.data_mut());
        ws.give(x);
        let mut y = ws.tensor(&[n * oh * ow, oc]);
        col.matmul_into(&self.w, &mut y, ws.scratch());
        let mut out = ws.tensor(&[n, oc, oh, ow]);
        self.bias_to_nchw(&mut y, &mut out);
        ws.give(y);
        let in_shape = [n, self.in_ch, h, w];
        (out, ConvTape { col, in_shape })
    }

    fn backward(
        &self,
        tape: ConvTape,
        grad_out: Tensor,
        segments: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let (n, oc, oh, ow) = grad_out.dims4();
        assert_eq!(oc, self.out_ch);
        // (n, oc, oh, ow) → (n*oh*ow, oc)
        let mut g = ws.tensor(&[n * oh * ow, oc]);
        let (gd, rows) = (grad_out.data(), g.data_mut());
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * oc;
                    for c in 0..oc {
                        rows[row + c] = gd[((b * oc + c) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        ws.give(grad_out);
        let mut gcol = ws.tensor(&[n * oh * ow, self.w.shape()[0]]);
        g.matmul_t_into(&self.w, &mut gcol, ws.scratch());
        // An image is oh·ow rows of the im2col matrix.
        let segments = ws.list(segments.iter().map(|&s| s * oh * ow));
        ws.push_fold(Fold {
            x: tape.col,
            g,
            segments,
        });
        let mut gx = ws.zeros(&tape.in_shape);
        self.col2im_into(&gcol, &mut gx);
        ws.give(gcol);
        gx
    }
}

/// Residual MLP block (paper Fig. 4): the output is the sum of the input and
/// three LReLU-activated dense layers of the same width.
#[derive(Debug, Clone)]
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

    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        for fc in &self.fc {
            fc.for_each_param(f);
        }
    }
}

impl Layer for ResBlock {
    /// The tapes of each dense layer and its activation. The first dense
    /// layer's tape is the block's input.
    type Tape = [(Tensor, Vec<bool>); 3];

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (fc, act) in self.fc.iter().zip(&self.act) {
            h = act.infer(&fc.infer(&h));
        }
        h.add_assign(x);
        h
    }

    fn forward(&self, x: Tensor, ws: &mut Workspace) -> (Tensor, Self::Tape) {
        let mut h = x;
        let tape: Self::Tape = std::array::from_fn(|i| {
            let (y, fc_tape) = self.fc[i].forward(std::mem::take(&mut h), ws);
            let act_tape;
            (h, act_tape) = self.act[i].forward(y, ws);
            (fc_tape, act_tape)
        });
        h.add_assign(&tape[0].0);
        (h, tape)
    }

    fn backward(
        &self,
        tape: Self::Tape,
        grad_out: Tensor,
        segments: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let mut g = ws.copy_of(&grad_out);
        for (i, (fc_tape, act_tape)) in tape.into_iter().enumerate().rev() {
            g = self.act[i].backward(act_tape, g, segments, ws);
            g = self.fc[i].backward(fc_tape, g, segments, ws);
        }
        g.add_assign(&grad_out); // skip connection
        ws.give(grad_out);
        g
    }
}

/// Global average pooling `(n, c, h, w)` → `(n, c)`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {}

impl GlobalAvgPool {
    /// Creates the pool.
    pub fn new() -> GlobalAvgPool {
        GlobalAvgPool::default()
    }
}

impl Params for GlobalAvgPool {
    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamRef<'_>)) {}

    fn for_each_param(&self, _f: &mut dyn FnMut(&Tensor)) {}
}

impl Layer for GlobalAvgPool {
    /// The input's shape.
    type Tape = [usize; 4];

    fn infer(&self, x: &Tensor) -> Tensor {
        let (n, c, _, _) = x.dims4();
        let mut out = Tensor::zeros(&[n, c]);
        pool_into(x, out.data_mut());
        out
    }

    fn forward(&self, x: Tensor, ws: &mut Workspace) -> (Tensor, [usize; 4]) {
        let (n, c, h, w) = x.dims4();
        let mut out = ws.tensor(&[n, c]);
        pool_into(&x, out.data_mut());
        ws.give(x);
        (out, [n, c, h, w])
    }

    fn backward(
        &self,
        [n, c, h, w]: [usize; 4],
        grad_out: Tensor,
        _: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let mut gx = ws.tensor(&[n, c, h, w]);
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
        ws.give(grad_out);
        gx
    }
}

/// Writes the mean of each `(image, channel)` plane of `x` into `out`.
fn pool_into(x: &Tensor, out: &mut [f32]) {
    let (n, c, h, w) = x.dims4();
    let xd = x.data();
    let inv = 1.0 / (h * w) as f32;
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            let s: f32 = xd[base..base + h * w].iter().sum();
            out[b * c + ch] = s * inv;
        }
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
        let mut ws = [Workspace::new()];
        let (y, tape) = layer.forward(x.clone(), &mut ws[0]);
        let gx = layer.backward(tape, y.map(dy), &[x.shape()[0]], &mut ws[0]);
        grads.fold(&mut ws);
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
        let (trained, _) = layer.forward(x.clone(), &mut Workspace::new());
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
    /// same queries stacked into chunks, at any thread count, in
    /// workspaces that earlier passes left dirty.
    fn assert_stacked_is_per_query<L: Layer>(name: &str, layer: &mut L, queries: &[Tensor]) {
        let dy = |v: f32| 0.75 * v - 0.25;
        let mut want = Grads::zeros(layer);
        let want_gx: Vec<Tensor> = queries
            .iter()
            .map(|q| backprop(layer, q, dy, &mut want))
            .collect();
        let (head, tail) = queries.split_at(queries.len() / 2);
        for threads in [1, 2, 3] {
            let mut workspaces: Vec<Workspace> = (0..threads).map(|_| Workspace::new()).collect();
            let mut grads = Grads::zeros(layer);
            for _ in 0..2 {
                grads.fill_zero();
                let mut gx = Vec::new();
                // As training does: at most one chunk per workspace between
                // folds.
                for group in [head, tail].chunks(threads) {
                    for (chunk, ws) in group.iter().zip(&mut workspaces) {
                        let segments: Vec<usize> = chunk.iter().map(|q| q.shape()[0]).collect();
                        let (y, tape) = layer.forward(stack(chunk), ws);
                        gx.push(layer.backward(tape, y.map(dy), &segments, ws));
                    }
                    grads.fold(&mut workspaces);
                }
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

    /// Both visitors see the same parameters in the same order.
    #[test]
    fn read_only_visit_matches_visit_params() {
        let mut init = Initializer::new(5);
        let mut block = ResBlock::new(8, &mut init);
        let mut visited = Vec::new();
        block.visit_params(&mut |p| visited.push(p.value.clone()));
        let mut seen = Vec::new();
        block.for_each_param(&mut |t| seen.push(t.clone()));
        assert_eq!(seen, visited);
    }
}
