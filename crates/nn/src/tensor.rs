//! A minimal dense `f32` tensor.
//!
//! The paper trains with TensorFlow on a GPU; in this reproduction the whole
//! deep-learning stack is rebuilt on the CPU. [`Tensor`] is a contiguous
//! row-major buffer with just the operations the DAC'19 network needs:
//! matrix multiplication (three transpose variants, used by dense layers and
//! im2col convolution), element-wise maps, reductions and concatenation.
//!
//! # Accumulation contract
//!
//! All three matrix products run one register-blocked kernel, compiled
//! three times: for the baseline instruction set, for AVX2 and for
//! AVX-512F, picked per call by runtime CPU detection, AVX-512F first. Every
//! build computes every output the same way:
//!
//! * it starts at `+0.0`;
//! * it adds `a * b` over the inner index in ascending order, rounding the
//!   product and then the sum (no fused multiply-add);
//! * the blocking groups rows and columns of the output, never the inner
//!   index, so no sum is split or reassociated.
//!
//! The blocking is one source for the three builds; only the register tile
//! differs. The baseline and AVX2 builds sum it in loops over arrays that
//! the compiler vectorizes, and Rust never fuses a multiply and an add into
//! an FMA, whatever CPU features a build enables. The AVX-512 build holds
//! each 16-column row of a tile in one 512-bit register and updates it with
//! `_mm512_mul_ps`, then `_mm512_add_ps`, inner index after inner index in
//! ascending order: the same two roundings in the same order. Left to the
//! compiler, AVX-512 code generation vectorizes those loops across the
//! tile's rows with gathers and scatters: the same bits, over ten times
//! slower. A build that enables AVX-512F at compile time (`-C
//! target-cpu=native` on such a CPU) runs the AVX-512 build too.
//!
//! [`Tensor::fold_t_matmul`] adds a weight gradient `Σ_s x[s]ᵀ · g[s]` over
//! row segments `s` (one per query) into a buffer, on the same kernel. Each
//! segment's sum `S_s` follows the rules above, over that segment's rows
//! only, and is then added into the buffer; segments are added in order.
//! That is `gw.add_assign(&x[s].t_matmul(&g[s]))` for each segment in turn,
//! so a batch's gradient is the same bits whether its queries run one by
//! one or stacked. Across several segments the kernel keeps each output
//! tile's running sum in registers: it loads the tile of `gw` once, adds
//! `S_0`, `S_1`, … to it in segment order and stores it once, which is
//! `((gw + S_0) + S_1) + …`, the same additions in the same order. A single
//! segment's `S_0` is added into `gw` as it is stored.
//!
//! The outputs are therefore the same bits on every x86-64 CPU and at every
//! optimisation level. Trained weights inherit that, and they must: the
//! model store is content-addressed, so a model trained on one machine is
//! served wherever its fingerprint matches. A kernel change that moves a bit
//! is a change to every stored model.

use std::fmt;

/// A dense row-major `f32` tensor.
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        } else {
            write!(f, " [{:.4}, {:.4}, …]", self.data[0], self.data[1])?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            shape.iter().product::<usize>(),
            "reshape mismatch"
        );
        self.shape = shape.to_vec();
        self
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    #[cfg(test)]
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[cfg(test)]
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Sets all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Matrix product `self (m×k) × other (k×n) → (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        product(gemm, Product::AB, self, other)
    }

    /// `selfᵀ (k×m) × other (k×n) → (m×n)` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching first dimensions.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        product(gemm, Product::AtB, self, other)
    }

    /// `self (m×k) × otherᵀ (n×k) → (m×n)`; the kernel transposes `other`
    /// block by block as it copies it into its working buffer.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with matching second dimensions.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        product(gemm, Product::ABt, self, other)
    }

    /// [`Tensor::matmul`] into `out`, whose buffer is reused: `out` takes
    /// the product's shape and every value is overwritten. `scratch` is the
    /// kernel's working buffer. The same bits as [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics as [`Tensor::matmul`] does.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor, scratch: &mut Scratch) {
        product_into(Product::AB, self, other, out, scratch);
    }

    /// [`Tensor::matmul_t`] into `out`, as [`Tensor::matmul_into`] does.
    ///
    /// # Panics
    ///
    /// Panics as [`Tensor::matmul_t`] does.
    pub(crate) fn matmul_t_into(&self, other: &Tensor, out: &mut Tensor, scratch: &mut Scratch) {
        product_into(Product::ABt, self, other, out, scratch);
    }

    /// `self += Σ_s x[s]ᵀ · g[s]`, where `x[s]` and `g[s]` are the `s`-th
    /// runs of `segments[s]` rows of `x` (`[k, m]`) and `g` (`[k, n]`) and
    /// `self` is `[m, n]`. Each segment's product is summed from `+0.0` over
    /// its rows in ascending order and then added into `self`, segment
    /// after segment: the same bits as `self.add_assign(&x[s].t_matmul(&g[s]))`
    /// for each segment in turn, with nothing copied but one 16-column
    /// block of `g` at a time into `scratch`.
    ///
    /// # Panics
    ///
    /// Panics unless `x` and `g` are 2-D with as many rows as `segments`
    /// sums to, and `self` is `[m, n]`.
    pub fn fold_t_matmul(
        &mut self,
        x: &Tensor,
        g: &Tensor,
        segments: &[usize],
        scratch: &mut Scratch,
    ) {
        fold(gemm, self, x, g, segments, &mut scratch.panel);
    }

    /// Concatenates 2-D tensors along the second (feature) axis.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or the list is empty.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = parts[0].dims2().0;
        let total: usize = parts.iter().map(|p| p.dims2().1).sum();
        let mut out = Tensor::zeros(&[rows, total]);
        Tensor::concat_cols_into(parts, &mut out);
        out
    }

    /// [`Tensor::concat_cols`] into `out`, a 2-D tensor of the parts' rows
    /// and total width, whose values are all overwritten.
    ///
    /// # Panics
    ///
    /// Panics if row counts or the total width differ from `out`'s.
    pub fn concat_cols_into(parts: &[&Tensor], out: &mut Tensor) {
        let (rows, total) = out.dims2();
        let widths: usize = parts.iter().map(|p| p.dims2().1).sum();
        assert_eq!(widths, total, "concat width mismatch");
        for r in 0..rows {
            let mut at = 0;
            for p in parts {
                let (pr, pc) = p.dims2();
                assert_eq!(pr, rows, "concat row mismatch");
                out.data[r * total + at..r * total + at + pc]
                    .copy_from_slice(&p.data[r * pc..(r + 1) * pc]);
                at += pc;
            }
        }
    }

    /// Splits the gradient of a [`Tensor::concat_cols`] back into parts with
    /// the given column widths.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to the tensor's column count.
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        let rows = self.dims2().0;
        let mut outs: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(&[rows, w])).collect();
        self.split_cols_into(&mut outs.iter_mut().collect::<Vec<_>>());
        outs
    }

    /// [`Tensor::split_cols`] into `outs`, 2-D tensors of this tensor's
    /// rows whose widths give the split, and whose values are all
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to the tensor's column count, or a
    /// part's rows differ.
    pub fn split_cols_into(&self, outs: &mut [&mut Tensor]) {
        let (rows, cols) = self.dims2();
        let widths: usize = outs.iter().map(|o| o.dims2().1).sum();
        assert_eq!(widths, cols, "split widths mismatch");
        for r in 0..rows {
            let mut at = 0;
            for out in outs.iter_mut() {
                let (or, w) = out.dims2();
                assert_eq!(or, rows, "split row mismatch");
                out.data[r * w..(r + 1) * w]
                    .copy_from_slice(&self.data[r * cols + at..r * cols + at + w]);
                at += w;
            }
        }
    }

    /// Interprets the tensor as 2-D.
    ///
    /// # Panics
    ///
    /// Panics unless the rank is exactly 2.
    pub fn dims2(&self) -> (usize, usize) {
        assert_eq!(
            self.shape.len(),
            2,
            "expected 2-D tensor, got {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1])
    }

    /// Interprets the tensor as 4-D `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics unless the rank is exactly 4.
    pub(crate) fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.shape.len(),
            4,
            "expected 4-D tensor, got {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }

    /// Gives the tensor `shape`, keeping its buffers: values it already
    /// held stay (stale), new ones are zero. Allocates only when `shape`
    /// holds more values than the buffer has room for.
    pub(crate) fn reuse_as(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// How many values the tensor's buffer has room for.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// An empty tensor whose buffers have room for `values` values of up
    /// to four dimensions.
    pub(crate) fn with_capacity(values: usize) -> Tensor {
        Tensor {
            shape: Vec::with_capacity(4),
            data: Vec::with_capacity(values),
        }
    }
}

/// The working buffer of the matrix products: the panel each block of B is
/// copied into. A product allocates one unless it is given a `Scratch`,
/// which keeps the largest panel it has held.
#[derive(Debug, Default)]
pub struct Scratch {
    panel: Panel,
}

// ------------------------------------------------------------------ kernels

/// The three matrix products [`Tensor`] offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Product {
    /// `x · y`.
    AB,
    /// `xᵀ · y`.
    AtB,
    /// `x · yᵀ`.
    ABt,
}

/// One `(m×k) · (k×n)` product as the kernel sees it. `a` holds `A` row-major
/// (`[m, k]`), or `Aᵀ` (`[k, m]`) when `a_t`; likewise `b` holds `B` (`[k, n]`),
/// or `Bᵀ` (`[n, k]`) when `b_t`. Without `fold` the kernel stores `A · B`;
/// with it, the kernel adds `A[s] · B[s]` over runs `s` of `fold[s]` inner
/// indices into `out`, one run after another.
#[derive(Debug, Clone, Copy)]
struct Gemm<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    a_t: bool,
    b: &'a [f32],
    b_t: bool,
    fold: Option<&'a [usize]>,
}

/// Computes `which` of `x` and `y` with `kernel`.
fn product(kernel: Kernel, which: Product, x: &Tensor, y: &Tensor) -> Tensor {
    let (a_t, b_t, mismatch) = match which {
        Product::AB => (false, false, "matmul inner dimension mismatch"),
        Product::AtB => (true, false, "t_matmul dimension mismatch"),
        Product::ABt => (false, true, "matmul_t dimension mismatch"),
    };
    let (xr, xc) = x.dims2();
    let (yr, yc) = y.dims2();
    let (m, k) = if a_t { (xc, xr) } else { (xr, xc) };
    let (k2, n) = if b_t { (yc, yr) } else { (yr, yc) };
    assert_eq!(k, k2, "{mismatch}");
    let g = Gemm {
        m,
        k,
        n,
        a: &x.data,
        a_t,
        b: &y.data,
        b_t,
        fold: None,
    };
    let mut out = vec![0.0f32; m * n];
    kernel(&g, &mut out, &mut Panel::new());
    Tensor::from_vec(&[m, n], out)
}

/// [`product`] on the dispatched kernel into `out`'s reused buffer.
fn product_into(which: Product, x: &Tensor, y: &Tensor, out: &mut Tensor, scratch: &mut Scratch) {
    let (a_t, b_t) = match which {
        Product::AB => (false, false),
        Product::AtB => (true, false),
        Product::ABt => (false, true),
    };
    let (xr, xc) = x.dims2();
    let (yr, yc) = y.dims2();
    let (m, k) = if a_t { (xc, xr) } else { (xr, xc) };
    let (k2, n) = if b_t { (yc, yr) } else { (yr, yc) };
    assert_eq!(k, k2, "{which:?} dimension mismatch");
    out.reuse_as(&[m, n]);
    let g = Gemm {
        m,
        k,
        n,
        a: &x.data,
        a_t,
        b: &y.data,
        b_t,
        fold: None,
    };
    gemm(&g, &mut out.data, &mut scratch.panel);
}

/// Adds `xᵀ · y` over the row runs `segments` into `acc` with `kernel`.
fn fold(
    kernel: Kernel,
    acc: &mut Tensor,
    x: &Tensor,
    y: &Tensor,
    segments: &[usize],
    panel: &mut Panel,
) {
    let (k, m) = x.dims2();
    let (k2, n) = y.dims2();
    assert_eq!(k, k2, "fold_t_matmul dimension mismatch");
    assert_eq!(
        segments.iter().sum::<usize>(),
        k,
        "fold segments must cover the rows"
    );
    assert_eq!(acc.shape, [m, n], "fold_t_matmul output shape");
    let g = Gemm {
        m,
        k,
        n,
        a: &x.data,
        a_t: true,
        b: &y.data,
        b_t: false,
        fold: Some(segments),
    };
    kernel(&g, &mut acc.data, panel);
}

/// A kernel build: `out = A · B`, or the fold `g` asks for, with `panel`
/// as its working buffer.
type Kernel = fn(&Gemm, &mut [f32], &mut Panel);

/// The kernel's working buffer; see [`gemm_core`].
type Panel = Vec<[f32; NR]>;

/// `out = A · B`, or the fold `g` asks for, with the fastest kernel build
/// this CPU runs.
fn gemm(g: &Gemm, out: &mut [f32], panel: &mut Panel) {
    #[cfg(target_arch = "x86_64")]
    if gemm_avx512(g, out, panel) || gemm_avx2(g, out, panel) {
        return;
    }
    gemm_portable(g, out, panel);
}

/// The kernel built for AVX-512F, with [`Avx512`] tiles. Returns `false`,
/// leaving `out` untouched, when the CPU lacks AVX-512F.
#[cfg(target_arch = "x86_64")]
fn gemm_avx512(g: &Gemm, out: &mut [f32], panel: &mut Panel) -> bool {
    // Never inlined, so that `ci/kernel-gathers.sh` finds this build by
    // name in a build for `x86-64-v4`, where its caller could inline it.
    #[target_feature(enable = "avx512f")]
    #[inline(never)]
    fn build(t: Avx512, g: &Gemm, out: &mut [f32], panel: &mut Panel) {
        gemm_core(t, g, out, panel);
    }
    let Some(t) = Avx512::detect() else {
        return false;
    };
    // SAFETY: `build` needs nothing but AVX-512F, and `detect` found it.
    unsafe { build(t, g, out, panel) };
    true
}

/// The kernel built for AVX2, with [`Loops`] tiles. Returns `false`, leaving
/// `out` untouched, when the CPU lacks AVX2.
#[cfg(target_arch = "x86_64")]
fn gemm_avx2(g: &Gemm, out: &mut [f32], panel: &mut Panel) -> bool {
    #[target_feature(enable = "avx2")]
    fn build(g: &Gemm, out: &mut [f32], panel: &mut Panel) {
        gemm_core(Loops, g, out, panel);
    }
    if !std::is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: `build` needs nothing but AVX2, and the check above found it.
    unsafe { build(g, out, panel) };
    true
}

/// The kernel built for the baseline instruction set, with [`Loops`] tiles.
fn gemm_portable(g: &Gemm, out: &mut [f32], panel: &mut Panel) {
    gemm_core(Loops, g, out, panel);
}

/// Rows of the register tile when A is stored row-major: each row of the
/// tile reads its own row of A.
const MR: usize = 4;
/// Rows of the register tile when A is stored transposed (`t_matmul` and
/// the fold). A tile's values of one inner index are then adjacent in A,
/// and a taller tile spreads each fold segment's fixed cost (the add into
/// the running sums, the loop exit) over more rows.
const MR_T: usize = 6;
/// Columns of the register tile: two AVX2 vectors, or one AVX-512 vector.
const NR: usize = 16;

/// How a kernel build sums one register tile: `R` rows of a block of `NR`
/// output columns, over the inner indices a panel holds, each sum started
/// at `+0.0` and taken by the module's accumulation contract.
trait Tile: Copy {
    /// The sums for A stored row-major, over every inner index: rows
    /// `i..i + R` of A, each read along.
    fn sum<const R: usize>(self, g: &Gemm, i: usize, panel: &[[f32; NR]]) -> [[f32; NR]; R];

    /// The sums for A stored transposed, over the inner indices `first..`
    /// that `panel` holds: the tile's `R` values of an inner index are
    /// adjacent in A.
    fn sum_t<const R: usize>(
        self,
        g: &Gemm,
        i: usize,
        first: usize,
        panel: &[[f32; NR]],
    ) -> [[f32; NR]; R];
}

/// Tiles as loops over arrays, which the compiler vectorizes for the build's
/// instruction set: the portable and AVX2 builds.
#[derive(Debug, Clone, Copy)]
struct Loops;

impl Tile for Loops {
    #[inline(always)]
    fn sum<const R: usize>(self, g: &Gemm, i: usize, panel: &[[f32; NR]]) -> [[f32; NR]; R] {
        let k = g.k;
        assert_eq!(panel.len(), k, "one panel row per inner index");
        let rows: [&[f32]; R] = std::array::from_fn(|r| &g.a[(i + r) * k..][..k]);
        let mut acc = [[0.0f32; NR]; R];
        for p in 0..k {
            let bp = &panel[p];
            for r in 0..R {
                let av = rows[r][p];
                for c in 0..NR {
                    acc[r][c] += av * bp[c];
                }
            }
        }
        acc
    }

    #[inline(always)]
    fn sum_t<const R: usize>(
        self,
        g: &Gemm,
        i: usize,
        first: usize,
        panel: &[[f32; NR]],
    ) -> [[f32; NR]; R] {
        let mut acc = [[0.0f32; NR]; R];
        for (p, bp) in (first..).zip(panel) {
            let a: &[f32; R] = g.a[p * g.m + i..].first_chunk().expect("R rows of A");
            for r in 0..R {
                for c in 0..NR {
                    acc[r][c] += a[r] * bp[c];
                }
            }
        }
        acc
    }
}

#[cfg(target_arch = "x86_64")]
use avx512::Avx512;

/// The AVX-512 tiles, in a module of their own so that no code makes an
/// [`Avx512`] but [`Avx512::detect`].
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Gemm, Tile, NR};
    use std::arch::x86_64::*;

    /// Tiles with each row in one AVX-512 register, updated as
    /// `_mm512_add_ps(acc, _mm512_mul_ps(a, b))`: a separate multiply and
    /// add, like the [`Loops`](super::Loops) tiles, so the same bits.
    /// Written with intrinsics because the compiler vectorizes those loops
    /// across the tile's rows for AVX-512, with a gather or scatter per step.
    ///
    /// A value exists only where [`Avx512::detect`] found AVX-512F.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Avx512(());

    impl Avx512 {
        /// The tiles, if this CPU has AVX-512F.
        pub(super) fn detect() -> Option<Avx512> {
            std::is_x86_feature_detected!("avx512f").then_some(Avx512(()))
        }
    }

    impl Tile for Avx512 {
        #[inline(always)]
        fn sum<const R: usize>(self, g: &Gemm, i: usize, panel: &[[f32; NR]]) -> [[f32; NR]; R] {
            let k = g.k;
            assert_eq!(panel.len(), k, "one panel row per inner index");
            let rows: [&[f32]; R] = std::array::from_fn(|r| &g.a[(i + r) * k..][..k]);
            // SAFETY: `self` exists only where AVX-512F was detected (see
            // `detect`), and each load or store moves one `[f32; NR]` row:
            // 64 bytes.
            unsafe {
                let mut acc = [_mm512_setzero_ps(); R];
                for (p, bp) in panel.iter().enumerate() {
                    let b = _mm512_loadu_ps(bp.as_ptr());
                    for r in 0..R {
                        let a = _mm512_set1_ps(rows[r][p]);
                        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(a, b));
                    }
                }
                let mut sums = [[0.0f32; NR]; R];
                for (row, v) in sums.iter_mut().zip(acc) {
                    _mm512_storeu_ps(row.as_mut_ptr(), v);
                }
                sums
            }
        }

        #[inline(always)]
        fn sum_t<const R: usize>(
            self,
            g: &Gemm,
            i: usize,
            first: usize,
            panel: &[[f32; NR]],
        ) -> [[f32; NR]; R] {
            // SAFETY: `self` exists only where AVX-512F was detected, and
            // each load or store moves one `[f32; NR]` row: 64 bytes.
            unsafe {
                let mut acc = [_mm512_setzero_ps(); R];
                for (p, bp) in (first..).zip(panel) {
                    let a: &[f32; R] = g.a[p * g.m + i..].first_chunk().expect("R rows of A");
                    let b = _mm512_loadu_ps(bp.as_ptr());
                    for r in 0..R {
                        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(_mm512_set1_ps(a[r]), b));
                    }
                }
                let mut sums = [[0.0f32; NR]; R];
                for (row, v) in sums.iter_mut().zip(acc) {
                    _mm512_storeu_ps(row.as_mut_ptr(), v);
                }
                sums
            }
        }
    }
}

/// Register-blocked `out = A · B` (row-major `[m, n]`), or the fold `g`
/// asks for, with the tiles `t` of the build it is compiled into.
///
/// `out` is computed in blocks of `NR` columns. Each block of B is copied
/// into a row-major panel, transposed if B is stored transposed (a copy
/// only moves values), then the block of `out` is computed in tiles of `MR`
/// rows (`MR_T` when A is stored transposed), then 4, 2 and 1 for the last
/// rows. A product sums each tile in registers over the whole inner
/// dimension and stores it. A fold of one run sums each tile the same way
/// and adds it into `out`. A fold of more runs loads each tile of `out`
/// into registers once, adds the tile's sums over each run of `segments` to
/// it, run after run, and stores it once. Tiles never split a run, so every
/// output is the module's ascending sum wherever its tile falls. The panel
/// grows to the inner dimension and is kept.
#[inline(always)]
fn gemm_core<T: Tile>(t: T, g: &Gemm, out: &mut [f32], panel: &mut Panel) {
    let Gemm { m, k, n, .. } = *g;
    assert_eq!(g.a.len(), m * k, "gemm A size");
    assert_eq!(g.b.len(), k * n, "gemm B size");
    assert_eq!(out.len(), m * n, "gemm output size");
    assert!(
        g.fold.is_none() || (g.a_t && !g.b_t),
        "a fold reads A transposed and B as stored"
    );
    if panel.len() < k {
        panel.resize(k, [0.0; NR]);
    }
    let panel = &mut panel[..k];
    for j in (0..n).step_by(NR) {
        copy_block(g, j, panel);
        if g.a_t {
            block_rows::<T, MR_T>(t, g, j, panel, out);
        } else {
            block_rows::<T, MR>(t, g, j, panel, out);
        }
    }
}

/// Copies the block of B at column `j` into `panel`, one row per inner
/// index. Columns a last, narrower block lacks keep stale values in the
/// panel; their sums are dropped.
#[inline(always)]
fn copy_block(g: &Gemm, j: usize, panel: &mut [[f32; NR]]) {
    let (k, n) = (g.k, g.n);
    let cols = NR.min(n - j);
    if g.b_t {
        // Rows `j..` of the stored `[n, k]` become the panel's columns, one
        // value per step, four panel rows at a time. The opaque reference
        // to each four rows keeps the compiler from vectorizing the loop
        // into a scatter across panel rows, as AVX-512 code generation
        // otherwise does. Four rows, not one, because a reference per row
        // costs `matmul_t` a quarter of its speed at 12 rows.
        for c in 0..cols {
            let column = &g.b[(j + c) * k..][..k];
            let mut rows = panel.chunks_exact_mut(4);
            let mut values = column.chunks_exact(4);
            for (dst, v) in (&mut rows).zip(&mut values) {
                let dst = std::hint::black_box(dst);
                for q in 0..4 {
                    dst[q][c] = v[q];
                }
            }
            for (dst, &v) in rows.into_remainder().iter_mut().zip(values.remainder()) {
                std::hint::black_box(&mut *dst)[c] = v;
            }
        }
    } else {
        let stored = g.b.chunks_exact(n);
        if cols == NR {
            // A fixed-size copy compiles to vector moves; one of a run-time
            // length calls `memcpy` per row.
            for (dst, row) in panel.iter_mut().zip(stored) {
                *dst = *row[j..].first_chunk().expect("a full block");
            }
        } else {
            for (dst, row) in panel.iter_mut().zip(stored) {
                dst[..cols].copy_from_slice(&row[j..]);
            }
        }
    }
}

/// The block of `out` at column `j`, in tiles of `TR` rows, then 4, 2 and 1
/// for the last rows.
#[inline(always)]
fn block_rows<T: Tile, const TR: usize>(
    t: T,
    g: &Gemm,
    j: usize,
    panel: &[[f32; NR]],
    out: &mut [f32],
) {
    let m = g.m;
    let mut i = 0;
    while i + TR <= m {
        gemm_tile::<T, TR>(t, g, i, j, panel, out);
        i += TR;
    }
    if TR > 4 && i + 4 <= m {
        gemm_tile::<T, 4>(t, g, i, j, panel, out);
        i += 4;
    }
    if i + 2 <= m {
        gemm_tile::<T, 2>(t, g, i, j, panel, out);
        i += 2;
    }
    if i < m {
        gemm_tile::<T, 1>(t, g, i, j, panel, out);
    }
}

/// Rows `i..i + R` of the block of `out` at column `j`: stored, or with a
/// fold the sums over each run added to them, run after run.
#[inline(always)]
fn gemm_tile<T: Tile, const R: usize>(
    t: T,
    g: &Gemm,
    i: usize,
    j: usize,
    panel: &[[f32; NR]],
    out: &mut [f32],
) {
    let cols = NR.min(g.n - j);
    // With `add`, the sums are added into `out` as they are stored.
    let (acc, add) = match g.fold {
        None if g.a_t => (t.sum_t::<R>(g, i, 0, panel), false),
        None => (t.sum::<R>(g, i, panel), false),
        // A fold of one run, as every fold of an image model's training
        // chunk is, is that run's product added into `out`. Held in
        // registers like a fold of many runs, it ran up to a third slower
        // in the AVX2 build.
        Some([_]) => (t.sum_t::<R>(g, i, 0, panel), true),
        Some(segments) => {
            let mut run = [[0.0f32; NR]; R];
            for (r, sums) in run.iter_mut().enumerate() {
                let row = &out[(i + r) * g.n + j..][..cols];
                match row.first_chunk::<NR>() {
                    Some(full) => *sums = *full,
                    None => sums[..cols].copy_from_slice(row),
                }
            }
            let mut first = 0;
            for &len in segments {
                let s = t.sum_t::<R>(g, i, first, &panel[first..first + len]);
                for r in 0..R {
                    for c in 0..NR {
                        run[r][c] += s[r][c];
                    }
                }
                first += len;
            }
            (run, false)
        }
    };
    for (r, sums) in acc.iter().enumerate() {
        let row = &mut out[(i + r) * g.n + j..][..cols];
        // A full row is stored with a fixed-size copy, as in `copy_block`.
        match (add, row.first_chunk_mut::<NR>()) {
            (false, Some(full)) => *full = *sums,
            (false, None) => row.copy_from_slice(&sums[..cols]),
            (true, Some(full)) => {
                for c in 0..NR {
                    full[c] += sums[c];
                }
            }
            (true, None) => {
                for (o, s) in row.iter_mut().zip(sums) {
                    *o += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_basic() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 4., 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.5 - 2.0).collect());
        let direct = a.matmul(&b);
        // aᵀᵀ b via t_matmul with explicitly transposed a.
        let mut at = Tensor::zeros(&[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                at.data_mut()[j * 2 + i] = a.data()[i * 3 + j];
            }
        }
        assert_eq!(bits(&direct), bits(&at.t_matmul(&b)));
        // a b = a (bᵀ)ᵀ via matmul_t.
        let mut bt = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                bt.data_mut()[j * 3 + i] = b.data()[i * 4 + j];
            }
        }
        assert_eq!(bits(&direct), bits(&a.matmul_t(&bt)));
    }

    // The loops the blocked kernel replaced, kept as its bitwise reference.
    // They skip `a == 0.0` terms and the kernel does not. For finite inputs
    // that changes no bit: a zero term adds ±0.0, and a sum that starts at
    // +0.0 never becomes −0.0 (x + (−x) rounds to +0.0), so adding ±0.0
    // leaves it as it was.

    fn ref_matmul(x: &Tensor, y: &Tensor) -> Tensor {
        let (m, k) = x.dims2();
        let n = y.dims2().1;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &x.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &y.data[p * n..(p + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    fn ref_t_matmul(x: &Tensor, y: &Tensor) -> Tensor {
        let (k, m) = x.dims2();
        let n = y.dims2().1;
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &x.data[p * m..(p + 1) * m];
            let b_row = &y.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    fn ref_matmul_t(x: &Tensor, y: &Tensor) -> Tensor {
        let (m, k) = x.dims2();
        let n = y.dims2().0;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &x.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in o_row.iter_mut().enumerate() {
                let b_row = &y.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Every kernel build this CPU runs: the portable one, and AVX2 and
    /// AVX-512 if present.
    fn kernel_builds() -> Vec<(&'static str, Kernel)> {
        let mut builds: Vec<(&'static str, Kernel)> = vec![("portable", gemm_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                builds.push(("avx2", |g, out, panel| assert!(gemm_avx2(g, out, panel))));
            } else {
                eprintln!("this CPU lacks AVX2: the AVX2 kernel is not tested");
            }
            if std::is_x86_feature_detected!("avx512f") {
                builds.push(("avx512", |g, out, panel| {
                    assert!(gemm_avx512(g, out, panel))
                }));
            } else {
                eprintln!("this CPU lacks AVX-512F: the AVX-512 kernel is not tested");
            }
        }
        builds
    }

    /// Normal values mixed with +0.0, −0.0 and subnormals of either sign.
    fn awkward(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (state >> 33) as u32;
                let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                match r % 10 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => sign * f32::from_bits(1 + (r >> 8) % 0x007f_ffff),
                    _ => sign * (r >> 8) as f32 / (1u32 << 23) as f32 * 2.0,
                }
            })
            .collect()
    }

    /// Checks every product at `(m, k, n)` on every kernel build against the
    /// reference loops, bit for bit.
    fn assert_bitwise(m: usize, k: usize, n: usize) {
        let seed = (m * 31 + k) as u64 * 31 + n as u64;
        let cases = [
            (Product::AB, [m, k], [k, n]),
            (Product::AtB, [k, m], [k, n]),
            (Product::ABt, [m, k], [n, k]),
        ];
        for (which, xs, ys) in cases {
            let x = Tensor::from_vec(&xs, awkward(m * k, seed));
            let y = Tensor::from_vec(&ys, awkward(k * n, seed + 1));
            let want = match which {
                Product::AB => ref_matmul(&x, &y),
                Product::AtB => ref_t_matmul(&x, &y),
                Product::ABt => ref_matmul_t(&x, &y),
            };
            for (build, kernel) in kernel_builds() {
                let got = product(kernel, which, &x, &y);
                assert_eq!(got.shape(), want.shape());
                assert!(
                    bits(&got) == bits(&want),
                    "{build} {which:?} at m={m} k={k} n={n} differs from the reference"
                );
            }
        }
    }

    #[test]
    fn kernels_match_reference_bitwise_at_tile_edges() {
        for m in [
            1,
            MR - 1,
            MR,
            MR + 1,
            MR_T - 1,
            MR_T,
            MR_T + 1,
            2 * MR_T + 5,
        ] {
            for n in [1, NR - 1, NR, NR + 1] {
                for k in [1, NR - 1, NR, NR + 1] {
                    assert_bitwise(m, k, n);
                }
            }
        }
    }

    #[test]
    fn kernels_match_reference_bitwise_at_model_shapes() {
        assert_bitwise(12, 27, 128);
        assert_bitwise(8, 128, 128);
        assert_bitwise(2601, 162, 16);
    }

    /// The `_into` products overwrite a dirty output of another shape and
    /// reuse one scratch across shapes, with the bits of the allocating
    /// products.
    #[test]
    fn into_products_match_allocating_products_bitwise() {
        let mut scratch = Scratch::default();
        let mut out = Tensor::from_vec(&[3, 3], vec![f32::NAN; 9]);
        for (m, k, n) in [(5, 7, 17), (2, 40, 3), (9, 1, 33)] {
            let seed = (m * 31 + k) as u64 * 31 + n as u64;
            let x = Tensor::from_vec(&[m, k], awkward(m * k, seed));
            let y = Tensor::from_vec(&[k, n], awkward(k * n, seed + 1));
            let yt = Tensor::from_vec(&[n, k], awkward(k * n, seed + 2));
            x.matmul_into(&y, &mut out, &mut scratch);
            assert_eq!(out.shape(), &[m, n]);
            assert!(
                bits(&out) == bits(&x.matmul(&y)),
                "matmul_into at {m}x{k}x{n}"
            );
            x.matmul_t_into(&yt, &mut out, &mut scratch);
            assert!(
                bits(&out) == bits(&x.matmul_t(&yt)),
                "matmul_t_into at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn kernels_handle_empty_dimensions() {
        for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0)] {
            assert_bitwise(m, k, n);
        }
    }

    /// The fold's reference: `t_matmul` of each segment's rows, added into
    /// `start` segment by segment.
    fn ref_fold(start: &Tensor, x: &Tensor, y: &Tensor, segments: &[usize]) -> Tensor {
        let (m, n) = (x.dims2().1, y.dims2().1);
        let mut acc = start.clone();
        let mut at = 0;
        for &len in segments {
            let xs = Tensor::from_vec(&[len, m], x.data[at * m..(at + len) * m].to_vec());
            let ys = Tensor::from_vec(&[len, n], y.data[at * n..(at + len) * n].to_vec());
            acc.add_assign(&xs.t_matmul(&ys));
            at += len;
        }
        acc
    }

    /// Checks the fold of `[k, m]ᵀ · [k, n]` over `segments` into an
    /// awkward `[m, n]` start on every kernel build, bit for bit.
    fn assert_fold_bitwise(m: usize, n: usize, segments: &[usize]) {
        let k: usize = segments.iter().sum();
        let seed = ((m * 31 + n) * 31 + k) as u64 * 31 + segments.len() as u64;
        let x = Tensor::from_vec(&[k, m], awkward(k * m, seed));
        let y = Tensor::from_vec(&[k, n], awkward(k * n, seed + 1));
        let start = Tensor::from_vec(&[m, n], awkward(m * n, seed + 2));
        let want = ref_fold(&start, &x, &y, segments);
        for (build, kernel) in kernel_builds() {
            let mut got = start.clone();
            // A panel left dirty and too short by an earlier product.
            let mut panel = vec![[f32::NAN; NR]; 1];
            fold(kernel, &mut got, &x, &y, segments, &mut panel);
            assert!(
                bits(&got) == bits(&want),
                "{build} fold at m={m} n={n} segments={segments:?} differs from the reference"
            );
        }
    }

    #[test]
    fn fold_matches_per_segment_products_at_tile_edges() {
        let segmentations: [&[usize]; 6] = [
            &[1],
            &[NR + 1],
            &[3, 1, 5],
            &[1; 7],
            &[MR, NR - 1, 2],
            &[0, 2, 0, 1],
        ];
        for m in [1, 3, MR, MR + 1, MR_T - 1, MR_T, MR_T + 1, 2 * MR_T + 5] {
            for n in [1, NR - 1, NR, NR + 1] {
                for segments in segmentations {
                    assert_fold_bitwise(m, n, segments);
                }
            }
        }
    }

    #[test]
    fn fold_matches_per_segment_products_at_model_shapes() {
        // A stacked batch of 16 queries into a 128×128 dense layer, and
        // conv1's im2col rows of two queries at the fast image profile.
        let queries: Vec<usize> = (0..16).map(|q| 8 + q % 8).collect();
        assert_fold_bitwise(128, 128, &queries);
        assert_fold_bitwise(27, 128, &queries);
        assert_fold_bitwise(32, 1, &queries);
        assert_fold_bitwise(162, 16, &[9 * 289, 16 * 289]);
        // An image model's training chunk holds one query, so each of its
        // folds has one segment: the dense head's, and a conv's im2col rows.
        assert_fold_bitwise(128, 128, &[11]);
        assert_fold_bitwise(144, 16, &[16 * 289]);
    }

    #[test]
    fn fold_handles_empty_dimensions() {
        assert_fold_bitwise(0, 4, &[2, 3]);
        assert_fold_bitwise(3, 0, &[2, 3]);
        assert_fold_bitwise(3, 4, &[]);
        assert_fold_bitwise(3, 4, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "fold segments must cover the rows")]
    fn fold_rejects_segments_that_miss_rows() {
        let x = Tensor::zeros(&[3, 2]);
        Tensor::zeros(&[2, 2]).fold_t_matmul(&x, &x, &[1, 1], &mut Scratch::default());
    }

    #[test]
    fn concat_split_round_trip() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.data(), &[1., 2., 5., 6., 7., 3., 4., 8., 9., 10.]);
        let parts = c.split_cols(&[2, 3]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![10., 20., 30.]);
        a.axpy(0.1, &b);
        assert_eq!(a.data(), &[2., 4., 6.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1., 2., 3.]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }
}
