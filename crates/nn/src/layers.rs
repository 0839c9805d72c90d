//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer has two passes over the same arithmetic:
//!
//! * [`Layer::infer`] takes `&self` and caches nothing, so one model serves
//!   any number of concurrent inference calls without a clone;
//! * [`Layer::forward`] takes `&mut self` and caches what [`Layer::backward`]
//!   needs. `backward` consumes that cache and accumulates parameter
//!   gradients locally; the optimizer then visits all parameters through
//!   [`Params::visit_params`].
//!
//! `forward` computes its output with the same code as `infer`, so the two
//! return the same bits.
//!
//! The set of layers is exactly what the DAC'19 network (paper Table 2) needs:
//! dense ([`Linear`]), 3×3 convolution ([`Conv2d`], stride 1 or 3), leaky ReLU
//! ([`LeakyRelu`]), residual MLP blocks ([`ResBlock`]), and global average
//! pooling ([`GlobalAvgPool`]) to bridge the conv tower into dense layers.

use crate::init::Initializer;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Mutable view of one parameter tensor and its gradient.
pub struct ParamRef<'a> {
    /// Parameter values.
    pub value: &'a mut Tensor,
    /// Accumulated gradient.
    pub grad: &'a mut Tensor,
}

/// Anything holding trainable parameters (layers and composite models).
pub trait Params {
    /// Visits every `(value, gradient)` parameter pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>));

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }

    /// Number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }
}

/// A differentiable single-input layer.
pub trait Layer: Params {
    /// Inference pass: the layer's output, caching nothing.
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Training pass: the same output as [`Layer::infer`], with the
    /// activations [`Layer::backward`] needs cached.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass for the most recent `forward` call. Returns the
    /// gradient with respect to the input and accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass preceded it.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
}

/// Snapshots all gradients of a model in visit order (for data-parallel
/// gradient exchange between worker clones).
pub fn export_grads(model: &mut dyn Params) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

/// Adds `grads` (in visit order) into the model's gradients.
///
/// # Panics
///
/// Panics if the gradient count or shapes do not match.
pub fn add_grads(model: &mut dyn Params, grads: &[Tensor]) {
    let mut i = 0;
    model.visit_params(&mut |p| {
        p.grad.add_assign(&grads[i]);
        i += 1;
    });
    assert_eq!(i, grads.len(), "gradient count mismatch");
}

/// Multiplies all gradients by `s` (e.g. `1 / batch` after accumulation).
pub fn scale_grads(model: &mut dyn Params, s: f32) {
    model.visit_params(&mut |p| p.grad.scale(s));
}

/// Adds the bias `b` (`[cols]`) to every row of `y` (`[rows, cols]`).
fn add_bias(y: &mut Tensor, b: &Tensor) {
    let (rows, cols) = y.dims2();
    let (yd, b) = (y.data_mut(), b.data());
    for r in 0..rows {
        for c in 0..cols {
            yd[r * cols + c] += b[c];
        }
    }
}

/// Fully connected layer `y = x W + b` with `x: [rows, in]`, `W: [in, out]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Tensor,
    b: Tensor,
    #[serde(skip)]
    gw: Tensor,
    #[serde(skip)]
    gb: Tensor,
    #[serde(skip)]
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Creates a dense layer with He-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut Initializer) -> Linear {
        Linear {
            w: init.he_uniform(&[in_dim, out_dim], in_dim),
            b: Tensor::zeros(&[out_dim]),
            gw: Tensor::zeros(&[in_dim, out_dim]),
            gb: Tensor::zeros(&[out_dim]),
            cache_x: None,
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

    fn ensure_grads(&mut self) {
        if self.gw.numel() != self.w.numel() {
            self.gw = Tensor::zeros(self.w.shape());
        }
        if self.gb.numel() != self.b.numel() {
            self.gb = Tensor::zeros(self.b.shape());
        }
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        self.ensure_grads();
        f(ParamRef {
            value: &mut self.w,
            grad: &mut self.gw,
        });
        f(ParamRef {
            value: &mut self.b,
            grad: &mut self.gb,
        });
    }
}

impl Layer for Linear {
    fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        add_bias(&mut y, &self.b);
        y
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_x = Some(x.clone());
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.ensure_grads();
        let x = self.cache_x.as_ref().expect("backward without forward");
        // gw += xᵀ g; gb += Σ rows g; gx = g Wᵀ
        self.gw.add_assign(&x.t_matmul(grad_out));
        let (rows, out) = grad_out.dims2();
        let gd = grad_out.data();
        let gb = self.gb.data_mut();
        for r in 0..rows {
            for c in 0..out {
                gb[c] += gd[r * out + c];
            }
        }
        grad_out.matmul_t(&self.w)
    }
}

/// Leaky rectified linear unit `y = max(αx, x)` (the paper uses α = 0.01).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeakyRelu {
    /// Negative-side slope.
    pub alpha: f32,
    #[serde(skip)]
    cache_x: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates an LReLU with the paper's slope of 0.01.
    pub fn new() -> LeakyRelu {
        LeakyRelu {
            alpha: 0.01,
            cache_x: None,
        }
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
    fn infer(&self, x: &Tensor) -> Tensor {
        let alpha = self.alpha;
        x.map(|v| if v > 0.0 { v } else { alpha * v })
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_x = Some(x.clone());
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let alpha = self.alpha;
        let x = self.cache_x.as_ref().expect("backward without forward");
        x.zip_map(grad_out, |xv, g| if xv > 0.0 { g } else { alpha * g })
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
    #[serde(skip)]
    gw: Tensor,
    #[serde(skip)]
    gb: Tensor,
    #[serde(skip)]
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
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
            gw: Tensor::zeros(&[fan_in, out_ch]),
            gb: Tensor::zeros(&[out_ch]),
            cache: None,
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

    fn ensure_grads(&mut self) {
        if self.gw.numel() != self.w.numel() {
            self.gw = Tensor::zeros(self.w.shape());
        }
        if self.gb.numel() != self.b.numel() {
            self.gb = Tensor::zeros(self.b.shape());
        }
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
        self.ensure_grads();
        f(ParamRef {
            value: &mut self.w,
            grad: &mut self.gw,
        });
        f(ParamRef {
            value: &mut self.b,
            grad: &mut self.gb,
        });
    }
}

impl Layer for Conv2d {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.convolve(&self.im2col(x), x.dims4())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (n, _, h, w) = x.dims4();
        let col = self.im2col(x);
        let y = self.convolve(&col, x.dims4());
        self.cache = Some(ConvCache {
            col,
            in_shape: [n, self.in_ch, h, w],
        });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.ensure_grads();
        let cache = self.cache.as_ref().expect("backward without forward");
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
        self.gw.add_assign(&cache.col.t_matmul(&g));
        {
            let gb = self.gb.data_mut();
            let gdd = g.data();
            for r in 0..n * oh * ow {
                for c in 0..oc {
                    gb[c] += gdd[r * oc + c];
                }
            }
        }
        let gcol = g.matmul_t(&self.w);
        self.col2im(&gcol, cache.in_shape)
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
    fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (fc, act) in self.fc.iter().zip(&self.act) {
            h = act.infer(&fc.infer(&h));
        }
        h.add_assign(x);
        h
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (fc, act) in self.fc.iter_mut().zip(&mut self.act) {
            h = act.forward(&fc.forward(&h));
        }
        h.add_assign(x);
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for i in (0..3).rev() {
            g = self.act[i].backward(&g);
            g = self.fc[i].backward(&g);
        }
        g.add_assign(grad_out); // skip connection
        g
    }
}

/// Global average pooling `(n, c, h, w)` → `(n, c)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalAvgPool {
    #[serde(skip)]
    cache_shape: Option<[usize; 4]>,
}

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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.dims4();
        self.cache_shape = Some([n, c, h, w]);
        self.infer(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self.cache_shape.expect("backward without forward");
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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let n = self.layers.len();
        let mut h = x.clone();
        for i in 0..n {
            h = self.layers[i].forward(&h);
            if i + 1 < n || self.activate_last {
                h = self.acts[i].forward(&h);
            }
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let n = self.layers.len();
        let mut g = grad_out.clone();
        for i in (0..n).rev() {
            if i + 1 < n || self.activate_last {
                g = self.acts[i].backward(&g);
            }
            g = self.layers[i].backward(&g);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check of a layer's parameter and input
    /// gradients against backprop.
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor, eps: f32, tol: f32) {
        // Loss = sum of outputs (gradient of loss wrt output = ones).
        let y = layer.forward(x);
        let ones = y.map(|_| 1.0);
        layer.zero_grad();
        let gx = layer.backward(&ones);

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
        let mut grads: Vec<f32> = Vec::new();
        layer.visit_params(&mut |p| {
            if grads.is_empty() {
                grads = p.grad.data().to_vec();
            }
        });
        if grads.is_empty() {
            return;
        }
        for idx in [0, grads.len() / 2] {
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
            let ana = grads[idx];
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

    /// `infer` and `forward` return the same bits. The parameters are
    /// shifted first so that no bias is zero.
    fn assert_infer_is_forward<L: Layer>(name: &str, layer: &mut L, x: &Tensor) {
        layer.visit_params(&mut |p| p.value.map_inplace(|v| v + 0.125));
        let trained = layer.forward(x);
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

    #[test]
    fn param_counts() {
        let mut init = Initializer::new(1);
        let mut lin = Linear::new(27, 128, &mut init);
        assert_eq!(lin.num_params(), 27 * 128 + 128);
        let mut block = ResBlock::new(128, &mut init);
        assert_eq!(block.num_params(), 3 * (128 * 128 + 128));
    }
}
