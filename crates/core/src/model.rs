//! The paper's hybrid neural network (§4.2, Fig. 4, Table 2).
//!
//! One *query* is a sink fragment with `n` candidate VPPs:
//!
//! * the **vector part** maps the `[n, 27]` candidate features through
//!   `fc1 (27×128)` and four residual blocks (`fc2 [128×128]×12`);
//! * the **image part** pushes the sink image and the `n` source images
//!   through a *shared* conv tower (`conv1..conv4`, each `[3×3, C]×3` with a
//!   stride-3 first layer from `conv2` on: 99 → 33 → 11 → 4), global average
//!   pooling, `fc3 (128×256)` and `fc4 (256×128)`; the sink embedding is
//!   computed once and concatenated with every source embedding, then
//!   `fc5 (256×128)` fuses each pair;
//! * the **merged part** concatenates vector and image outputs
//!   (`fc5 (256×128)`), runs three more residual blocks (`fc2 [128×128]×9`),
//!   `fc6 (128×32)` and `fc7 (32×1)` to produce one score per candidate —
//!   or `32×2` scores for the two-class ablation.
//!
//! Every dense/conv layer is followed by LReLU (`max(0.01x, x)`), as in the
//! paper.

use deepsplit_nn::init::Initializer;
use deepsplit_nn::layers::{
    Conv2d, ConvTape, GlobalAvgPool, Layer, LeakyRelu, Linear, ParamRef, Params, ResBlock,
};
use deepsplit_nn::tensor::Tensor;
use deepsplit_nn::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Residual blocks of the vector part.
const VEC_BLOCKS: usize = 4;
/// Residual blocks of the merged part.
const MERGED_BLOCKS: usize = 3;
/// Convolutions of the image tower: four stages of three.
const CONVS: usize = 12;

/// The tapes of a dense layer and the activation after it.
type DenseTape = (Tensor, Vec<bool>);

/// The tape of a residual block.
type BlockTape = <ResBlock as Layer>::Tape;

/// `act(fc(x))` for training: the output and both tapes.
fn dense(fc: &Linear, act: &LeakyRelu, x: Tensor, ws: &mut Workspace) -> (Tensor, DenseTape) {
    let (y, fc_tape) = fc.forward(x, ws);
    let (h, act_tape) = act.forward(y, ws);
    (h, (fc_tape, act_tape))
}

/// Backward pass through [`dense`].
fn dense_back(
    fc: &Linear,
    act: &LeakyRelu,
    (fc_tape, act_tape): DenseTape,
    g: Tensor,
    segments: &[usize],
    ws: &mut Workspace,
) -> Tensor {
    let g = act.backward(act_tape, g, segments, ws);
    fc.backward(fc_tape, g, segments, ws)
}

/// Training pass through the `N` residual blocks in order.
fn blocks_forward<const N: usize>(
    blocks: &[ResBlock],
    x: Tensor,
    ws: &mut Workspace,
) -> (Tensor, [BlockTape; N]) {
    assert_eq!(blocks.len(), N, "residual block count");
    let mut h = x;
    let tapes = std::array::from_fn(|i| {
        let tape;
        (h, tape) = blocks[i].forward(std::mem::take(&mut h), ws);
        tape
    });
    (h, tapes)
}

/// Backward pass through [`blocks_forward`].
fn blocks_back<const N: usize>(
    blocks: &[ResBlock],
    tapes: [BlockTape; N],
    g: Tensor,
    segments: &[usize],
    ws: &mut Workspace,
) -> Tensor {
    blocks
        .iter()
        .zip(tapes)
        .rev()
        .fold(g, |g, (b, tape)| b.backward(tape, g, segments, ws))
}

/// Which feature families the model consumes (Fig. 5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Vector features only.
    VecOnly,
    /// Vector and image features (the full paper model).
    VecImg,
}

/// Output head: the paper's softmax regression (one score per VPP) or the
/// two-class baseline (connect / non-connect scores per VPP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// Softmax regression over the candidate group (paper Eq. 6).
    SoftmaxRegression,
    /// Independent two-class classification (paper Eq. 3).
    TwoClass,
}

/// The shared convolutional tower of the image part.
#[derive(Debug, Clone)]
pub(crate) struct ConvTower {
    convs: Vec<Conv2d>,
    acts: Vec<LeakyRelu>,
    pool: GlobalAvgPool,
    fc3: Linear,
    act3: LeakyRelu,
    fc4: Linear,
    act4: LeakyRelu,
}

impl ConvTower {
    /// Builds the tower for images with `channels` input planes.
    pub fn new(channels: usize, init: &mut Initializer) -> ConvTower {
        let mut convs = Vec::new();
        let mut acts = Vec::new();
        let stages: [(usize, usize); 4] = [(channels, 16), (16, 32), (32, 64), (64, 128)];
        for (stage, &(cin, cout)) in stages.iter().enumerate() {
            for k in 0..3 {
                let stride = if stage > 0 && k == 0 { 3 } else { 1 };
                let in_ch = if k == 0 { cin } else { cout };
                convs.push(Conv2d::new(in_ch, cout, 3, stride, init));
                acts.push(LeakyRelu::new());
            }
        }
        ConvTower {
            convs,
            acts,
            pool: GlobalAvgPool::new(),
            fc3: Linear::new(128, 256, init),
            act3: LeakyRelu::new(),
            fc4: Linear::new(256, 128, init),
            act4: LeakyRelu::new(),
        }
    }

    /// Embeds a batch of images `[k, C, H, W]` into `[k, 128]`.
    pub fn infer(&self, imgs: &Tensor) -> Tensor {
        let mut h = imgs.clone();
        for (conv, act) in self.convs.iter().zip(&self.acts) {
            h = act.infer(&conv.infer(&h));
        }
        let h = self.pool.infer(&h);
        let h = self.act3.infer(&self.fc3.infer(&h));
        self.act4.infer(&self.fc4.infer(&h))
    }

    /// [`ConvTower::infer`] for training: the same embeddings, and the
    /// tape [`ConvTower::backward`] needs, from `ws`.
    ///
    /// # Panics
    ///
    /// Panics unless the tower has the Table 2 layer count.
    pub fn forward(&self, imgs: Tensor, ws: &mut Workspace) -> (Tensor, TowerTape) {
        assert_eq!(self.convs.len(), CONVS, "convolution count");
        let mut h = imgs;
        let convs = std::array::from_fn(|i| {
            let (y, conv_tape) = self.convs[i].forward(std::mem::take(&mut h), ws);
            let act_tape;
            (h, act_tape) = self.acts[i].forward(y, ws);
            (conv_tape, act_tape)
        });
        let (h, pool) = self.pool.forward(h, ws);
        let (h, fc3) = dense(&self.fc3, &self.act3, h, ws);
        let (h, fc4) = dense(&self.fc4, &self.act4, h, ws);
        let tape = TowerTape {
            convs,
            pool,
            fc3,
            fc4,
        };
        (h, tape)
    }

    /// Backpropagates `[k, 128]` embedding gradients through the tower.
    /// `segments` splits the `k` images into queries.
    pub fn backward(&self, tape: TowerTape, grad: Tensor, segments: &[usize], ws: &mut Workspace) {
        let g = dense_back(&self.fc4, &self.act4, tape.fc4, grad, segments, ws);
        let g = dense_back(&self.fc3, &self.act3, tape.fc3, g, segments, ws);
        let g = self.pool.backward(tape.pool, g, segments, ws);
        let layers = self.convs.iter().zip(&self.acts).zip(tape.convs);
        let g = layers
            .rev()
            .fold(g, |g, ((conv, act), (conv_tape, act_tape))| {
                let g = act.backward(act_tape, g, segments, ws);
                conv.backward(conv_tape, g, segments, ws)
            });
        ws.give(g);
    }

    /// Layer shape description for the Table 2 printout.
    pub(crate) fn describe(&self, px: usize) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        let mut side = px;
        for stage in 0..4 {
            let ch = [16, 32, 64, 128][stage];
            if stage > 0 {
                side = side.div_ceil(3);
            }
            rows.push((
                format!("conv{}", stage + 1),
                format!("[3x3, {ch}] x 3 -> {side}x{side}x{ch}"),
            ));
        }
        rows.push(("fc3".into(), "128 x 256".into()));
        rows.push(("fc4".into(), "256 x 128".into()));
        rows
    }
}

impl Params for ConvTower {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for c in &mut self.convs {
            c.visit_params(f);
        }
        self.fc3.visit_params(f);
        self.fc4.visit_params(f);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        for c in &self.convs {
            c.for_each_param(f);
        }
        self.fc3.for_each_param(f);
        self.fc4.for_each_param(f);
    }
}

/// What [`ConvTower::forward`] keeps for [`ConvTower::backward`].
#[derive(Debug)]
pub(crate) struct TowerTape {
    convs: [(ConvTape, Vec<bool>); CONVS],
    pool: [usize; 4],
    fc3: DenseTape,
    fc4: DenseTape,
}

/// What [`AttackModel::forward`] keeps for [`AttackModel::backward`]: every
/// layer's tape, and the candidate rows of each query.
#[derive(Debug)]
pub struct ModelTape {
    rows: Vec<usize>,
    fc1: DenseTape,
    vec_blocks: [BlockTape; VEC_BLOCKS],
    image: Option<(TowerTape, DenseTape)>,
    fc5: DenseTape,
    merged_blocks: [BlockTape; MERGED_BLOCKS],
    fc6: DenseTape,
    fc7: Tensor,
}

/// The complete attack network.
#[derive(Debug, Clone)]
pub struct AttackModel {
    /// Feature families consumed.
    pub kind: ModelKind,
    /// Output head / loss formulation.
    pub loss: LossKind,
    // Vector part.
    fc1: Linear,
    act1: LeakyRelu,
    vec_blocks: Vec<ResBlock>,
    // Image part.
    tower: Option<ConvTower>,
    fc5_img: Option<Linear>,
    act5_img: LeakyRelu,
    // Merged part.
    fc5: Linear,
    act5: LeakyRelu,
    merged_blocks: Vec<ResBlock>,
    fc6: Linear,
    act6: LeakyRelu,
    fc7: Linear,
}

impl AttackModel {
    /// Builds the model. `image_channels` is required for [`ModelKind::VecImg`]
    /// (3 scales × 2m planes; see `AttackConfig::image_channels`).
    pub fn new(kind: ModelKind, loss: LossKind, image_channels: usize, seed: u64) -> AttackModel {
        let mut init = Initializer::new(seed);
        let vec_dim = crate::vector_features::VECTOR_DIM;
        let (tower, fc5_img) = match kind {
            ModelKind::VecImg => (
                Some(ConvTower::new(image_channels, &mut init)),
                Some(Linear::new(256, 128, &mut init)),
            ),
            ModelKind::VecOnly => (None, None),
        };
        let merged_in = match kind {
            ModelKind::VecImg => 256,
            ModelKind::VecOnly => 128,
        };
        let out_dim = match loss {
            LossKind::SoftmaxRegression => 1,
            LossKind::TwoClass => 2,
        };
        AttackModel {
            kind,
            loss,
            fc1: Linear::new(vec_dim, 128, &mut init),
            act1: LeakyRelu::new(),
            vec_blocks: (0..VEC_BLOCKS)
                .map(|_| ResBlock::new(128, &mut init))
                .collect(),
            tower,
            fc5_img,
            act5_img: LeakyRelu::new(),
            fc5: Linear::new(merged_in, 128, &mut init),
            act5: LeakyRelu::new(),
            merged_blocks: (0..MERGED_BLOCKS)
                .map(|_| ResBlock::new(128, &mut init))
                .collect(),
            fc6: Linear::new(128, 32, &mut init),
            act6: LeakyRelu::new(),
            fc7: Linear::new(32, out_dim, &mut init),
        }
    }

    /// Embeds a batch of images `[k, C, H, W]` into `[k, 128]` for
    /// inference.
    ///
    /// # Panics
    ///
    /// Panics for [`ModelKind::VecOnly`] models.
    pub(crate) fn embed(&self, imgs: &Tensor) -> Tensor {
        self.tower
            .as_ref()
            .expect("VecOnly model has no image tower")
            .infer(imgs)
    }

    /// The image channels the tower takes (0 without one).
    pub(crate) fn image_channels(&self) -> usize {
        self.tower
            .as_ref()
            .and_then(|t| t.convs.first())
            .map_or(0, Conv2d::in_channels)
    }

    /// Scores stacked candidate rows for inference: vector features
    /// `[r, 27]` and, for `VecImg`, embedding pairs `[r, 256]` (each row's
    /// source embedding, then its sink's; see [`embedding_pairs`]). Returns
    /// `[r, 1]` or `[r, 2]` scores.
    ///
    /// Every output row depends only on its own input rows, so rows of any
    /// number of queries may share one call.
    ///
    /// # Panics
    ///
    /// Panics if a `VecImg` model gets no pairs, or a pair count that is
    /// not the row count.
    pub fn score_rows(&self, vectors: &Tensor, pairs: Option<&Tensor>) -> Tensor {
        let mut v = self.act1.infer(&self.fc1.infer(vectors));
        for b in &self.vec_blocks {
            v = b.infer(&v);
        }
        let merged_in = match (self.kind, pairs) {
            (ModelKind::VecOnly, _) => v,
            (ModelKind::VecImg, Some(pairs)) => {
                assert_eq!(pairs.dims2().0, v.dims2().0, "one pair per candidate");
                let f = self.fc5_img.as_ref().expect("VecImg has fc5_img");
                let h = self.act5_img.infer(&f.infer(pairs));
                Tensor::concat_cols(&[&v, &h])
            }
            (ModelKind::VecImg, None) => panic!("VecImg model requires image embeddings"),
        };
        let mut h = self.act5.infer(&self.fc5.infer(&merged_in));
        for b in &self.merged_blocks {
            h = b.infer(&h);
        }
        let h = self.act6.infer(&self.fc6.infer(&h));
        self.fc7.infer(&h)
    }

    /// Training forward pass over a chunk of whole queries, stacked:
    /// `rows[i]` is query `i`'s candidate count, `vectors` is `[Σ rows, 27]`
    /// and, for `VecImg`, `images` is `[Σ (rows + 1), C, H, W]` with each
    /// query's **sink image first**. The inputs are taken by value: the
    /// tape keeps `vectors`. Returns the scores
    /// [`AttackModel::score_rows`] gives the same rows, and the tape
    /// [`AttackModel::backward`] needs, all from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if a `VecImg` model gets no images, or the row or image
    /// counts do not match `rows`.
    pub fn forward(
        &self,
        vectors: Tensor,
        images: Option<Tensor>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> (Tensor, ModelTape) {
        let candidates: usize = rows.iter().sum();
        assert_eq!(
            vectors.dims2().0,
            candidates,
            "one vector row per candidate"
        );
        // Vector part.
        let (v, fc1) = dense(&self.fc1, &self.act1, vectors, ws);
        let (v, vec_blocks) = blocks_forward(&self.vec_blocks, v, ws);
        // Image part (pair fusion).
        let (merged_in, image) = match (self.kind, &self.tower, &self.fc5_img) {
            (ModelKind::VecOnly, ..) => (v, None),
            (ModelKind::VecImg, Some(tower), Some(fc5_img)) => {
                let imgs = images.expect("VecImg model requires images");
                let (emb, tower_tape) = tower.forward(imgs, ws);
                let (embedded, d) = emb.dims2();
                assert_eq!(
                    embedded,
                    candidates + rows.len(),
                    "one image per candidate, plus the sink's"
                );
                // Each query's sink embedding (its first row) is paired
                // with every one of its sources.
                let mut first = 0;
                let sources = rows.iter().flat_map(|&n| {
                    let sink = first;
                    first += n + 1;
                    (sink + 1..=sink + n).map(move |src| (src, sink))
                });
                let mut pairs = ws.tensor(&[candidates, 2 * d]);
                write_pairs(&emb, sources, &mut pairs);
                ws.give(emb);
                let (h, fc5_img_tape) = dense(fc5_img, &self.act5_img, pairs, ws);
                let mut merged = ws.tensor(&[candidates, v.dims2().1 + h.dims2().1]);
                Tensor::concat_cols_into(&[&v, &h], &mut merged);
                ws.give(v);
                ws.give(h);
                (merged, Some((tower_tape, fc5_img_tape)))
            }
            (ModelKind::VecImg, ..) => unreachable!("VecImg model has a tower and fc5_img"),
        };
        // Merged part.
        let (h, fc5) = dense(&self.fc5, &self.act5, merged_in, ws);
        let (h, merged_blocks) = blocks_forward(&self.merged_blocks, h, ws);
        let (h, fc6) = dense(&self.fc6, &self.act6, h, ws);
        let (scores, fc7) = self.fc7.forward(h, ws);
        let tape = ModelTape {
            rows: ws.list(rows.iter().copied()),
            fc1,
            vec_blocks,
            image,
            fc5,
            merged_blocks,
            fc6,
            fc7,
        };
        (scores, tape)
    }

    /// Backward pass through the [`AttackModel::forward`] call that made
    /// `tape`, for score gradients `[Σ rows, out]`. Pushes every weight
    /// layer's fold onto `ws` in backward order, ready for
    /// [`deepsplit_nn::layers::Grads::fold`]: each weight gradient sums its
    /// queries one at a time, in order. Gives back to `ws` every buffer the
    /// folds do not hold.
    pub fn backward(&self, tape: ModelTape, grad_scores: Tensor, ws: &mut Workspace) {
        let ModelTape {
            rows,
            fc1,
            vec_blocks,
            image,
            fc5,
            merged_blocks,
            fc6,
            fc7,
        } = tape;
        let g = self.fc7.backward(fc7, grad_scores, &rows, ws);
        let g = dense_back(&self.fc6, &self.act6, fc6, g, &rows, ws);
        let g = blocks_back(&self.merged_blocks, merged_blocks, g, &rows, ws);
        let g = dense_back(&self.fc5, &self.act5, fc5, g, &rows, ws);
        let g_vec = match (image, &self.tower, &self.fc5_img) {
            (None, ..) => g,
            (Some((tower_tape, fc5_img_tape)), Some(tower), Some(fc5_img)) => {
                let candidates = g.dims2().0;
                let mut g_vec = ws.tensor(&[candidates, 128]);
                let mut g_img = ws.tensor(&[candidates, 128]);
                g.split_cols_into(&mut [&mut g_vec, &mut g_img]);
                ws.give(g);
                let g_pairs = dense_back(fc5_img, &self.act5_img, fc5_img_tape, g_img, &rows, ws);
                // Pair row `r` holds the gradient of its source embedding
                // (part 0), then of its sink's (part 1).
                let half = |r: usize, part: usize| &g_pairs.data()[(2 * r + part) * 128..][..128];
                // The tower saw [sink; sources] per query: stack gradients
                // the same way. A sink embedding was broadcast to each of
                // its query's pairs, so its gradient sums their rows.
                let mut stacked = ws.tensor(&[candidates + rows.len(), 128]);
                let mut out = stacked.data_mut().chunks_exact_mut(128);
                let mut first = 0;
                for &n in rows.iter() {
                    let sink = out.next().expect("a row per sink");
                    sink.fill(0.0);
                    for r in first..first + n {
                        for (s, v) in sink.iter_mut().zip(half(r, 1)) {
                            *s += v;
                        }
                    }
                    for r in first..first + n {
                        let source = out.next().expect("a row per source");
                        source.copy_from_slice(half(r, 0));
                    }
                    first += n;
                }
                ws.give(g_pairs);
                let images = ws.list(rows.iter().map(|n| n + 1));
                tower.backward(tower_tape, stacked, &images, ws);
                ws.give_list(images);
                g_vec
            }
            (Some(_), ..) => unreachable!("an image tape comes from a VecImg model"),
        };
        let g = blocks_back(&self.vec_blocks, vec_blocks, g_vec, &rows, ws);
        let g = dense_back(&self.fc1, &self.act1, fc1, g, &rows, ws);
        ws.give(g);
        ws.give_list(rows);
    }

    /// Ranking probability per candidate (implements paper Eq. 2).
    pub(crate) fn candidate_scores(&self, raw: &Tensor) -> Vec<f32> {
        match self.loss {
            LossKind::SoftmaxRegression => raw.data().to_vec(),
            LossKind::TwoClass => deepsplit_nn::loss::two_class_probabilities(raw),
        }
    }

    /// Table 2 style description of the realised architecture.
    pub fn describe(&self, image_px: usize) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        let vd = crate::vector_features::VECTOR_DIM;
        rows.push(("Vector".into(), "fc1".into(), format!("{vd} x 128")));
        rows.push(("Vector".into(), "fc2".into(), "[128 x 128] x 12".into()));
        if let Some(t) = &self.tower {
            for (name, shape) in t.describe(image_px) {
                rows.push(("Image".into(), name, shape));
            }
            rows.push(("Image".into(), "fc5".into(), "256 x 128".into()));
        }
        let in5 = self.fc5.in_dim();
        rows.push(("Merged".into(), "fc5".into(), format!("{in5} x 128")));
        rows.push(("Merged".into(), "fc2".into(), "[128 x 128] x 9".into()));
        rows.push(("Merged".into(), "fc6".into(), "128 x 32".into()));
        let out = self.fc7.out_dim();
        rows.push(("Merged".into(), "fc7".into(), format!("32 x {out}")));
        rows
    }
}

impl Params for AttackModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        self.fc1.visit_params(f);
        for b in &mut self.vec_blocks {
            b.visit_params(f);
        }
        if let Some(t) = &mut self.tower {
            t.visit_params(f);
        }
        if let Some(l) = &mut self.fc5_img {
            l.visit_params(f);
        }
        self.fc5.visit_params(f);
        for b in &mut self.merged_blocks {
            b.visit_params(f);
        }
        self.fc6.visit_params(f);
        self.fc7.visit_params(f);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        self.fc1.for_each_param(f);
        for b in &self.vec_blocks {
            b.for_each_param(f);
        }
        if let Some(t) = &self.tower {
            t.for_each_param(f);
        }
        if let Some(l) = &self.fc5_img {
            l.for_each_param(f);
        }
        self.fc5.for_each_param(f);
        for b in &self.merged_blocks {
            b.for_each_param(f);
        }
        self.fc6.for_each_param(f);
        self.fc7.for_each_param(f);
    }
}

/// The image part's fusion input: one `[source | sink]` row per
/// `(source, sink)` pair of row indices into the embedding `table`
/// (`[k, d]`), stacked into `[pairs, 2d]`.
///
/// # Panics
///
/// Panics if an index is out of range.
pub fn embedding_pairs(table: &Tensor, pairs: impl IntoIterator<Item = (usize, usize)>) -> Tensor {
    let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
    let mut out = Tensor::zeros(&[pairs.len(), 2 * table.dims2().1]);
    write_pairs(table, pairs, &mut out);
    out
}

/// Writes the [`embedding_pairs`] rows of `pairs` into `out`, one per row.
///
/// # Panics
///
/// Panics if an index is out of range, or `out` is not `[pairs, 2d]`.
fn write_pairs(table: &Tensor, pairs: impl IntoIterator<Item = (usize, usize)>, out: &mut Tensor) {
    let (_, d) = table.dims2();
    let row = |r: usize| &table.data()[r * d..(r + 1) * d];
    let (rows, width) = out.dims2();
    assert_eq!(width, 2 * d, "a pair is two embeddings");
    let mut written = 0;
    for (pair, (src, sink)) in out.data_mut().chunks_exact_mut(2 * d).zip(pairs) {
        pair[..d].copy_from_slice(row(src));
        pair[d..].copy_from_slice(row(sink));
        written += 1;
    }
    assert_eq!(written, rows, "one pair per row");
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_nn::layers::{Grads, Params};
    use deepsplit_nn::loss::softmax_regression;
    use deepsplit_nn::optim::Adam;
    use deepsplit_nn::workspace::Workspace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const VD: usize = crate::vector_features::VECTOR_DIM;

    fn rand_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn vec_only_shapes() {
        let model = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let x = rand_tensor(&[5, VD], &mut rng);
        let y = model.score_rows(&x, None);
        assert_eq!(y.shape(), &[5, 1]);
    }

    #[test]
    fn vec_img_shapes() {
        let model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 6, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 4;
        let x = rand_tensor(&[n, VD], &mut rng);
        let emb = model.embed(&rand_tensor(&[n + 1, 6, 9, 9], &mut rng));
        let pairs = embedding_pairs(&emb, (1..=n).map(|src| (src, 0)));
        let y = model.score_rows(&x, Some(&pairs));
        assert_eq!(y.shape(), &[n, 1]);
    }

    #[test]
    fn two_class_head_shapes() {
        let model = AttackModel::new(ModelKind::VecOnly, LossKind::TwoClass, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let x = rand_tensor(&[3, VD], &mut rng);
        let y = model.score_rows(&x, None);
        assert_eq!(y.shape(), &[3, 2]);
        let probs = model.candidate_scores(&y);
        assert_eq!(probs.len(), 3);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    /// Forward and backward passes of one query, its gradients folded into
    /// `grads`. Returns the loss.
    fn backprop(
        model: &AttackModel,
        x: &Tensor,
        imgs: Option<&Tensor>,
        target: usize,
        grads: &mut Grads,
    ) -> f32 {
        let mut ws = [Workspace::new()];
        let (y, tape) = model.forward(x.clone(), imgs.cloned(), &[x.dims2().0], &mut ws[0]);
        let (loss, grad) = softmax_regression(&y, target);
        model.backward(tape, grad, &mut ws[0]);
        grads.fold(&mut ws);
        loss
    }

    #[test]
    fn training_reduces_loss_vec_only() {
        let mut model = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, 3);
        let mut grads = Grads::zeros(&mut model);
        let mut opt = Adam::new(1e-3);
        let mut rng = StdRng::seed_from_u64(3);
        // Fixed toy task: target candidate has a distinctive feature pattern.
        let make = |t: usize, rng: &mut StdRng| {
            let mut x = Tensor::zeros(&[6, VD]);
            for j in 0..6 {
                for k in 0..VD {
                    x.data_mut()[j * VD + k] = rng.gen_range(-0.1..0.1);
                }
                x.data_mut()[j * VD] = if j == t { 1.0 } else { -1.0 };
            }
            x
        };
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let t = step % 6;
            let x = make(t, &mut rng);
            grads.fill_zero();
            let loss = backprop(&model, &x, None, t, &mut grads);
            opt.step(&mut model, &grads);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn image_embeddings_flow_gradients() {
        let mut model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 2, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3;
        let x = rand_tensor(&[n, VD], &mut rng);
        let imgs = rand_tensor(&[n + 1, 2, 9, 9], &mut rng);
        let mut grads = Grads::zeros(&mut model);
        backprop(&model, &x, Some(&imgs), 1, &mut grads);
        let grads = grads.tensors();
        let nonzero = grads
            .iter()
            .filter(|g| g.data().iter().any(|&x| x != 0.0))
            .count();
        // Every parameter group should receive gradient signal.
        assert!(
            nonzero > grads.len() / 2,
            "{nonzero}/{} gradient tensors non-zero",
            grads.len()
        );
    }

    #[test]
    fn clone_train_produces_same_grads() {
        // A clone and its original, computing the same sample, produce
        // identical gradients: the passes read the model and write only
        // the gradient buffer.
        let mut a = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, 7);
        let b = a.clone();
        let mut rng = StdRng::seed_from_u64(9);
        let x = rand_tensor(&[4, VD], &mut rng);
        let mut ga = Grads::zeros(&mut a);
        let mut gb = ga.clone();
        backprop(&a, &x, None, 2, &mut ga);
        backprop(&b, &x, None, 2, &mut gb);
        assert_eq!(ga, gb);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Queries run one by one, each folded in turn, give the bits of the
    /// same queries stacked into one chunk: the scores, and every weight's
    /// gradient.
    #[test]
    fn stacked_chunk_matches_per_query_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let rows = [3, 1, 4];
        for (kind, loss) in [
            (ModelKind::VecOnly, LossKind::SoftmaxRegression),
            (ModelKind::VecOnly, LossKind::TwoClass),
            (ModelKind::VecImg, LossKind::SoftmaxRegression),
        ] {
            let mut model = AttackModel::new(kind, loss, 2, 13);
            let images = kind == ModelKind::VecImg;
            let queries: Vec<(Tensor, Option<Tensor>)> = rows
                .iter()
                .map(|&n| {
                    let x = rand_tensor(&[n, VD], &mut rng);
                    (x, images.then(|| rand_tensor(&[n + 1, 2, 9, 9], &mut rng)))
                })
                .collect();
            let dy = |v: f32| 0.5 * v - 0.125;
            let mut want = Grads::zeros(&mut model);
            let mut want_scores = Vec::new();
            let mut ws = [Workspace::new()];
            for (x, imgs) in &queries {
                let (y, tape) = model.forward(x.clone(), imgs.clone(), &[x.dims2().0], &mut ws[0]);
                want_scores.extend(bits(&y));
                model.backward(tape, y.map(dy), &mut ws[0]);
                want.fold(&mut ws);
            }
            let stack = |parts: Vec<&Tensor>| {
                let mut shape = parts[0].shape().to_vec();
                shape[0] = parts.iter().map(|p| p.shape()[0]).sum();
                Tensor::from_vec(
                    &shape,
                    parts.iter().flat_map(|p| p.data()).copied().collect(),
                )
            };
            let x = stack(queries.iter().map(|(x, _)| x).collect());
            let imgs = images.then(|| stack(queries.iter().flat_map(|(_, i)| i).collect()));
            // In the workspace the per-query passes left dirty.
            let (y, tape) = model.forward(x, imgs, &rows, &mut ws[0]);
            assert!(bits(&y) == want_scores, "{kind:?} {loss:?}: scores differ");
            let mut got = Grads::zeros(&mut model);
            model.backward(tape, y.map(dy), &mut ws[0]);
            got.fold(&mut ws);
            for (g, w) in got.tensors().iter().zip(want.tensors()) {
                assert!(bits(g) == bits(w), "{kind:?} {loss:?}: gradients differ");
            }
        }
    }

    #[test]
    fn describe_matches_table2() {
        let model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 18, 1);
        let rows = model.describe(99);
        let find = |name: &str| rows.iter().find(|(_, n, _)| n == name).cloned();
        assert_eq!(find("fc1").unwrap().2, "27 x 128");
        assert!(find("conv1").unwrap().2.contains("99x99x16"));
        assert!(find("conv2").unwrap().2.contains("33x33x32"));
        assert!(find("conv3").unwrap().2.contains("11x11x64"));
        assert!(find("conv4").unwrap().2.contains("4x4x128"));
        assert_eq!(find("fc6").unwrap().2, "128 x 32");
        assert_eq!(find("fc7").unwrap().2, "32 x 1");
    }

    #[test]
    fn param_count_nontrivial() {
        let mut model = AttackModel::new(ModelKind::VecImg, LossKind::SoftmaxRegression, 18, 1);
        let n = model.num_params();
        // 21 dense 128×128 blocks alone exceed 340k parameters.
        assert!(n > 400_000, "{n} params");
    }
}
