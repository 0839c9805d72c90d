//! Training loop (paper §4.3 / §5): softmax-regression (or two-class) loss,
//! Adam, learning rate 0.001 decayed to 60 % every 20 epochs.
//!
//! Training is batch-major. A mini-batch's queries are stacked into chunks
//! of whole queries, and each chunk runs one forward and one backward pass;
//! the chunks of a batch run on separate threads against the one model,
//! which nothing clones. Each weight gradient is then folded over the
//! chunks in batch order, one query segment at a time
//! ([`deepsplit_nn::layers::Grads::fold`]), and losses are summed query by
//! query in batch order. Every layer but that fold works row by row, so the
//! trained bits, and the reported losses, are those of running the batch's
//! queries one by one: the same at every thread count and chunk split.
//!
//! Training is allocation-steady. Each worker thread keeps one
//! [`Workspace`] for the whole call, which supplies every buffer of its
//! passes, and its first pass reserves them for the largest chunk any
//! batch will stack, so after the first batch no pass allocates a buffer
//! that grows with the batch.
//!
//! A trained model is stored as a blob ([`TrainedAttack::to_blob`]): a
//! small header, then every weight as raw little-endian `f32`.

use crate::attack::{chunk_queries, MAX_CHUNK_ROWS};
use crate::config::AttackConfig;
use crate::dataset::{fit_normalizer, PreparedDesign};
use crate::fingerprint::CorpusFingerprint;
use crate::model::{AttackModel, LossKind, ModelKind};
use crate::store::ModelStore;
use crate::vector_features::{Normalizer, VECTOR_DIM};
use crate::PIPELINE_VERSION;
use deepsplit_nn::layers::{Grads, Params};
use deepsplit_nn::loss::{softmax_regression_into, two_class_into};
use deepsplit_nn::optim::{Adam, StepDecay};
use deepsplit_nn::parallel::for_each_run;
use deepsplit_nn::workspace::Workspace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A trained attack: model plus the feature normaliser fitted on the
/// training designs.
#[derive(Debug, Clone)]
pub struct TrainedAttack {
    /// The network.
    pub model: AttackModel,
    /// Feature normalisation fitted on training data.
    pub normalizer: Normalizer,
    /// The configuration it was trained under.
    pub config: AttackConfig,
}

impl TrainedAttack {
    /// The model blob: what the model stores keep. In order, [`BLOB_MAGIC`],
    /// [`BLOB_FORMAT`] and [`PIPELINE_VERSION`] (little-endian `u32`), the
    /// header's length (`u32`) and the header, JSON of the config, the
    /// normaliser, the model and loss kinds, the image channels and every
    /// parameter's shape; then every parameter as raw little-endian `f32`,
    /// in [`Params::visit_params`] order. [`TrainedAttack::from_blob`]
    /// restores every bit.
    ///
    /// # Panics
    ///
    /// Panics if the header cannot be serialised.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut shapes = Vec::new();
        let mut values = 0;
        self.model.for_each_param(&mut |t| {
            shapes.push(t.shape().to_vec());
            values += t.numel();
        });
        let header = BlobHeader {
            config: self.config.clone(),
            normalizer: self.normalizer.clone(),
            kind: self.model.kind,
            loss: self.model.loss,
            image_channels: self.model.image_channels(),
            shapes,
        };
        let header = serde_json::to_string(&header).expect("serialise blob header");
        let mut blob = Vec::with_capacity(BLOB_PREFIX + header.len() + 4 * values);
        blob.extend_from_slice(&BLOB_MAGIC);
        blob.extend_from_slice(&BLOB_FORMAT.to_le_bytes());
        blob.extend_from_slice(&PIPELINE_VERSION.to_le_bytes());
        blob.extend_from_slice(&(header.len() as u32).to_le_bytes());
        blob.extend_from_slice(header.as_bytes());
        self.model.for_each_param(&mut |t| {
            for v in t.data() {
                blob.extend_from_slice(&v.to_le_bytes());
            }
        });
        blob
    }

    /// Checks that `bytes` are a blob this build reads, without decoding
    /// the weights: the magic number, both versions, the header, and that
    /// the weights fill the rest exactly.
    ///
    /// # Errors
    ///
    /// Returns what [`TrainedAttack::from_blob`] would, but for a header
    /// whose shapes are not the model's.
    pub fn check_blob(bytes: &[u8]) -> Result<(), BlobError> {
        let (header, weights) = split_blob(bytes)?;
        weights_fit(&header.shapes, weights)
    }

    /// Restores a trained attack from its [`TrainedAttack::to_blob`] bytes.
    ///
    /// # Errors
    ///
    /// Returns why the bytes are not a blob this build reads: another
    /// magic number, format or pipeline version, a header that is too
    /// long, nested too deep or does not describe the model, or weights
    /// that do not fill the rest of the bytes exactly (a torn or padded
    /// blob). Arbitrary bytes never panic, and the header's length is
    /// checked before anything is allocated for it.
    pub fn from_blob(bytes: &[u8]) -> Result<TrainedAttack, BlobError> {
        let (header, weights) = split_blob(bytes)?;
        weights_fit(&header.shapes, weights)?;
        let BlobHeader {
            config,
            normalizer,
            kind,
            loss,
            image_channels,
            shapes,
        } = header;
        if image_channels > MAX_IMAGE_CHANNELS
            || (kind == ModelKind::VecOnly) != (image_channels == 0)
        {
            return Err(BlobError::Header(format!(
                "{image_channels} image channels for a {kind:?} model"
            )));
        }
        let mut model = AttackModel::new(kind, loss, image_channels, 0);
        let mut built = Vec::new();
        model.for_each_param(&mut |t| built.push(t.shape().to_vec()));
        if built != shapes {
            return Err(BlobError::Header(
                "parameter shapes are not those of the model".to_string(),
            ));
        }
        let mut floats = weights
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        model.visit_params(&mut |p| {
            for (v, w) in p.value.data_mut().iter_mut().zip(&mut floats) {
                *v = w;
            }
        });
        Ok(TrainedAttack {
            model,
            normalizer,
            config,
        })
    }
}

/// The first bytes of every model blob.
pub const BLOB_MAGIC: [u8; 8] = *b"DSPLTMDL";

/// The version of the blob layout [`TrainedAttack::to_blob`] writes. Bump
/// it when the layout changes; a blob of another version reads as a miss.
pub const BLOB_FORMAT: u32 = 1;

/// Magic number, format version, pipeline version and header length.
const BLOB_PREFIX: usize = 8 + 3 * 4;

/// The longest header a blob may declare. A real one is a few kB.
const MAX_BLOB_HEADER: usize = 64 * 1024;

/// The most image channels a blob may declare: more than any layer stack
/// renders.
pub const MAX_IMAGE_CHANNELS: usize = 1024;

/// What a blob's header records besides the weights.
#[derive(Debug, Serialize, Deserialize)]
struct BlobHeader {
    config: AttackConfig,
    normalizer: Normalizer,
    kind: ModelKind,
    loss: LossKind,
    image_channels: usize,
    shapes: Vec<Vec<usize>>,
}

/// Why bytes are not a blob this build reads; see
/// [`TrainedAttack::from_blob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The bytes do not start with [`BLOB_MAGIC`].
    Magic,
    /// Another blob format version.
    Format(u32),
    /// Written by another [`PIPELINE_VERSION`].
    Pipeline(u32),
    /// The header is too long, not JSON of a blob header, or describes no
    /// model of this build.
    Header(String),
    /// The weights do not fill the blob exactly: it is torn or padded.
    Length {
        /// Bytes the header's shapes call for.
        expected: usize,
        /// Bytes after the header.
        found: usize,
    },
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::Magic => write!(f, "not a model blob (no magic number)"),
            BlobError::Format(v) => {
                write!(f, "blob format {v}, this build reads format {BLOB_FORMAT}")
            }
            BlobError::Pipeline(v) => write!(
                f,
                "blob of pipeline version {v}, this build is version {PIPELINE_VERSION}"
            ),
            BlobError::Header(why) => write!(f, "bad blob header: {why}"),
            BlobError::Length { expected, found } => {
                write!(
                    f,
                    "blob weights are {found} bytes, the header calls for {expected}"
                )
            }
        }
    }
}

impl std::error::Error for BlobError {}

/// Checks a blob's prefix and parses its header: the header, and the bytes
/// after it.
fn split_blob(bytes: &[u8]) -> Result<(BlobHeader, &[u8]), BlobError> {
    let (magic, rest) = bytes.split_first_chunk::<8>().ok_or(BlobError::Magic)?;
    if *magic != BLOB_MAGIC {
        return Err(BlobError::Magic);
    }
    let mut words = [0u32; 3];
    let mut rest = rest;
    for word in &mut words {
        let (le, tail) = rest
            .split_first_chunk::<4>()
            .ok_or_else(|| BlobError::Header("truncated before the header".to_string()))?;
        *word = u32::from_le_bytes(*le);
        rest = tail;
    }
    let [format, pipeline, header_len] = words;
    if format != BLOB_FORMAT {
        return Err(BlobError::Format(format));
    }
    if pipeline != PIPELINE_VERSION {
        return Err(BlobError::Pipeline(pipeline));
    }
    let header_len = header_len as usize;
    if header_len > MAX_BLOB_HEADER || header_len > rest.len() {
        return Err(BlobError::Header(format!(
            "{header_len} header bytes, at most {MAX_BLOB_HEADER} and what the blob holds"
        )));
    }
    let (header, weights) = rest.split_at(header_len);
    let header = std::str::from_utf8(header)
        .map_err(|e| BlobError::Header(e.to_string()))
        .and_then(|text| {
            serde_json::from_str(text).map_err(|e| BlobError::Header(e.to_string()))
        })?;
    Ok((header, weights))
}

/// Checks that `weights` hold exactly the `f32`s of parameters of `shapes`.
fn weights_fit(shapes: &[Vec<usize>], weights: &[u8]) -> Result<(), BlobError> {
    let mut values = Some(0usize);
    for shape in shapes {
        let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        values = values.zip(numel).and_then(|(v, n)| v.checked_add(n));
    }
    let expected = values.and_then(|v| v.checked_mul(4));
    if expected == Some(weights.len()) {
        Ok(())
    } else {
        Err(BlobError::Length {
            expected: expected.unwrap_or(usize::MAX),
            found: weights.len(),
        })
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Number of trainable queries (sink fragments with a covered positive).
    pub trainable_queries: usize,
    /// Total queries across the training designs.
    pub total_queries: usize,
}

/// Trains the attack network on the given prepared designs, with
/// `config.threads` worker threads.
///
/// Only queries whose positive VPP survived candidate selection are trainable
/// (the paper notes the prediction is "definitely wrong" otherwise); the rest
/// still count at evaluation time.
///
/// # Panics
///
/// Panics if no design provides a trainable query, or if image channel counts
/// disagree across designs.
pub fn train(designs: &[PreparedDesign], config: &AttackConfig) -> (TrainedAttack, TrainReport) {
    train_with_threads(designs, config, config.effective_threads())
}

/// [`train`] with an explicit worker-thread count, whatever `config.threads`
/// says. The weights and the report are the same bits at every thread
/// count; the returned [`TrainedAttack`] records `config` as given, so a
/// caller that stores models can record one canonical config however many
/// threads trained it.
///
/// # Panics
///
/// Panics as [`train`] does.
pub fn train_with_threads(
    designs: &[PreparedDesign],
    config: &AttackConfig,
    threads: usize,
) -> (TrainedAttack, TrainReport) {
    let normalizer = fit_normalizer(designs);
    let channels = designs.iter().map(|d| d.channels).max().unwrap_or(0);
    for d in designs {
        assert!(
            d.channels == channels || d.channels == 0,
            "image channel mismatch across designs"
        );
    }
    let kind = if config.use_images {
        ModelKind::VecImg
    } else {
        ModelKind::VecOnly
    };
    let loss_kind = if config.two_class {
        LossKind::TwoClass
    } else {
        LossKind::SoftmaxRegression
    };
    let mut model = AttackModel::new(kind, loss_kind, channels, config.seed);

    // Trainable query index: (design, query).
    let mut queries: Vec<(usize, usize)> = Vec::new();
    let mut total = 0usize;
    for (di, d) in designs.iter().enumerate() {
        for qi in 0..d.num_queries() {
            total += 1;
            if d.target(qi).is_some() && d.sets[qi].candidates.len() >= 2 {
                queries.push((di, qi));
            }
        }
    }
    assert!(!queries.is_empty(), "no trainable queries");

    let schedule = StepDecay {
        initial: config.learning_rate as f32,
        factor: config.lr_decay as f32,
        every: config.lr_decay_every,
    };
    let mut opt = Adam::new(schedule.initial);
    let seed = config.seed ^ 0x7ea1;
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = threads.max(1);
    let mut grads = Grads::zeros(&mut model);
    let corpus = Corpus {
        designs,
        normalizer: &normalizer,
        kind,
        loss: loss_kind,
    };
    // A chunk's widest product: its candidate rows, or for image models
    // the im2col rows of conv1, one per pixel of every image.
    let pixels = config.image_px * config.image_px;
    let chunk_rows = |&(di, qi): &(usize, usize)| {
        let n = designs[di].sets[qi].candidates.len();
        match kind {
            ModelKind::VecOnly => n,
            ModelKind::VecImg => (n + 1) * pixels,
        }
    };
    let batch_size = config.batch_size.max(1);
    let chunks_of = |batch: &[(usize, usize)]| -> Vec<Range<usize>> {
        let rows: Vec<usize> = batch.iter().map(chunk_rows).collect();
        chunk_queries(&rows, threads, MAX_CHUNK_ROWS)
    };
    // The largest chunk the run will stack. The shuffles only depend on
    // the seed, so they are replayed here first.
    let mut peak = ChunkSize::default();
    let mut order = queries.clone();
    let mut replay = StdRng::seed_from_u64(seed);
    for _ in 0..config.epochs {
        order.shuffle(&mut replay);
        for batch in order.chunks(batch_size) {
            for range in chunks_of(batch) {
                peak = peak.max(corpus.size_of(&batch[range]));
            }
        }
    }
    let mut report = TrainReport {
        epoch_loss: Vec::with_capacity(config.epochs),
        trainable_queries: queries.len(),
        total_queries: total,
    };

    // One workspace per worker thread, and the chunk each one runs.
    let mut workspaces: Vec<Workspace> = (0..threads).map(|_| Workspace::new()).collect();
    let mut jobs: Vec<Job> = (0..threads)
        .map(|_| Job {
            range: 0..0,
            losses: Vec::with_capacity(batch_size),
        })
        .collect();
    for epoch in 0..config.epochs {
        // Telemetry only: the span/event stream never feeds content-addressed
        // state, and is a no-op unless a binary installed a trace recorder.
        let _epoch_span = deepsplit_obs::span("train_epoch");
        opt.set_lr(schedule.lr_at(epoch));
        queries.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        for batch in queries.chunks(batch_size) {
            let chunks = chunks_of(batch);
            grads.fill_zero();
            let mut batch_loss = 0.0f64;
            // One group of chunks at a time, so that at most `threads`
            // chunks' tapes are alive at once.
            for group in chunks.chunks(threads) {
                let jobs = &mut jobs[..group.len()];
                for (job, range) in jobs.iter_mut().zip(group) {
                    job.range = range.clone();
                }
                for_each_run(jobs, 1, &mut workspaces, |_, run, ws| {
                    for job in run {
                        let chunk = &batch[job.range.clone()];
                        corpus.backprop(&model, chunk, &peak, ws, &mut job.losses);
                    }
                });
                grads.fold(&mut workspaces);
                for loss in jobs.iter().flat_map(|job| &job.losses) {
                    batch_loss += *loss as f64;
                }
            }
            grads.scale(1.0 / batch.len() as f32);
            opt.step(&mut model, &grads);
            epoch_loss += batch_loss;
        }
        let mean_loss = (epoch_loss / queries.len() as f64) as f32;
        deepsplit_obs::event("epoch_loss", Some(f64::from(mean_loss)));
        report.epoch_loss.push(mean_loss);
    }

    (
        TrainedAttack {
            model,
            normalizer,
            config: config.clone(),
        },
        report,
    )
}

/// A chunk of a batch for a worker: its queries' range in the batch, and
/// their losses once its passes ran.
struct Job {
    range: Range<usize>,
    losses: Vec<f32>,
}

/// What a chunk stacks: candidate rows, images and queries.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkSize {
    rows: usize,
    images: usize,
    queries: usize,
}

impl ChunkSize {
    fn max(self, other: ChunkSize) -> ChunkSize {
        ChunkSize {
            rows: self.rows.max(other.rows),
            images: self.images.max(other.images),
            queries: self.queries.max(other.queries),
        }
    }

    /// The headrooms of a pass over this chunk that reserve for `peak`:
    /// for buffers, which grow with rows or images, and for lists, which
    /// grow with queries (see [`Workspace::begin`]).
    fn headroom(self, peak: ChunkSize) -> (f64, f64) {
        let ratio = |peak: usize, this: usize| peak as f64 / this.max(1) as f64;
        (
            ratio(peak.rows, self.rows).max(ratio(peak.images, self.images)),
            ratio(peak.queries, self.queries),
        )
    }
}

/// The training queries' inputs, as one chunk's passes read them.
struct Corpus<'a> {
    designs: &'a [PreparedDesign],
    normalizer: &'a Normalizer,
    kind: ModelKind,
    loss: LossKind,
}

impl Corpus<'_> {
    /// What `chunk` stacks.
    fn size_of(&self, chunk: &[(usize, usize)]) -> ChunkSize {
        let rows = chunk
            .iter()
            .map(|&(di, qi)| self.designs[di].sets[qi].candidates.len())
            .sum();
        let images = match self.kind {
            ModelKind::VecOnly => 0,
            ModelKind::VecImg => rows + chunk.len(),
        };
        ChunkSize {
            rows,
            images,
            queries: chunk.len(),
        }
    }

    /// Forward and backward passes of one chunk of whole queries, stacked,
    /// in `ws`, which reserves for a chunk of `peak`: sets `losses` to each
    /// query's loss, and leaves the folds of its weight gradients in `ws`.
    fn backprop(
        &self,
        model: &AttackModel,
        chunk: &[(usize, usize)],
        peak: &ChunkSize,
        ws: &mut Workspace,
        losses: &mut Vec<f32>,
    ) {
        let size = self.size_of(chunk);
        let (headroom, list_headroom) = size.headroom(*peak);
        ws.begin(headroom, list_headroom);
        let rows = ws.list(
            chunk
                .iter()
                .map(|&(di, qi)| self.designs[di].sets[qi].candidates.len()),
        );
        let mut vectors = ws.tensor(&[size.rows, VECTOR_DIM]);
        let mut at = 0;
        for (&(di, qi), &n) in chunk.iter().zip(&rows) {
            let out = &mut vectors.data_mut()[at * VECTOR_DIM..(at + n) * VECTOR_DIM];
            self.designs[di].write_vectors(qi, self.normalizer, out);
            at += n;
        }
        let images = (self.kind == ModelKind::VecImg).then(|| {
            let mut parts = chunk
                .iter()
                .flat_map(|&(di, qi)| self.designs[di].image_parts(qi))
                .peekable();
            let mut shape = parts.peek().expect("a chunk has images").shape().to_vec();
            shape[0] = size.images;
            let mut images = ws.tensor(&shape);
            let per = images.numel() / size.images;
            for (dst, part) in images.data_mut().chunks_exact_mut(per).zip(parts) {
                dst.copy_from_slice(part.data());
            }
            images
        });
        let (scores, tape) = model.forward(vectors, images, &rows, ws);
        let width = scores.dims2().1;
        let mut grad = ws.tensor(scores.shape());
        losses.clear();
        let mut at = 0;
        for (&(di, qi), &n) in chunk.iter().zip(&rows) {
            let span = at * width..(at + n) * width;
            let query = &scores.data()[span.clone()];
            let g = &mut grad.data_mut()[span];
            let target = self.designs[di].target(qi).expect("trainable query");
            losses.push(match self.loss {
                LossKind::SoftmaxRegression => softmax_regression_into(query, target, g),
                LossKind::TwoClass => two_class_into(query, target, g),
            });
            at += n;
        }
        ws.give(scores);
        model.backward(tape, grad, ws);
        ws.give_list(rows);
    }
}

/// Content-addressed training: returns the model stored under `key` when the
/// store has one, otherwise builds the corpus (the closure runs only on a
/// miss — a hit skips corpus preparation entirely), trains on `threads`
/// worker threads ([`train_with_threads`]), and stores the result. The
/// stored bytes are the same at every thread count.
///
/// `Some(report)` is returned only when training actually ran, so
/// `report.is_none()` (equivalently, the store's hit counter) witnesses that
/// a cell performed zero training epochs.
///
/// # Panics
///
/// Panics as [`train`] does when training runs.
pub fn train_or_load<F>(
    key: &CorpusFingerprint,
    store: &dyn ModelStore,
    config: &AttackConfig,
    threads: usize,
    corpus: F,
) -> (TrainedAttack, Option<TrainReport>)
where
    F: FnOnce() -> Vec<PreparedDesign>,
{
    if let Some(model) = store.load(key) {
        return (model, None);
    }
    let designs = corpus();
    let (trained, report) = train_with_threads(&designs, config, threads);
    store.save(key, &trained);
    (trained, Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryModelStore;
    use deepsplit_layout::design::{Design, ImplementConfig};
    use deepsplit_layout::geom::Layer;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn prepared(bench: Benchmark, seed: u64, config: &AttackConfig) -> PreparedDesign {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(bench, 0.4, seed, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        PreparedDesign::prepare(&d, Layer(3), config)
    }

    fn tiny_config(use_images: bool) -> AttackConfig {
        AttackConfig {
            use_images,
            epochs: 3,
            candidates: 8,
            image_px: 9,
            image_scales_um: vec![0.2, 0.6],
            batch_size: 8,
            threads: 2,
            ..AttackConfig::fast()
        }
    }

    #[test]
    fn training_loss_decreases_vec_only() {
        let config = tiny_config(false);
        let designs = vec![
            prepared(Benchmark::C432, 1, &config),
            prepared(Benchmark::C880, 2, &config),
        ];
        let (trained, report) = train(&designs, &config);
        assert_eq!(report.epoch_loss.len(), 3);
        assert!(
            report.epoch_loss.last().unwrap() < report.epoch_loss.first().unwrap(),
            "loss should fall: {:?}",
            report.epoch_loss
        );
        assert!(report.trainable_queries > 0);
        let _ = trained;
    }

    #[test]
    fn training_with_images_runs() {
        let config = tiny_config(true);
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (trained, report) = train(&designs, &config);
        assert!(report.epoch_loss.iter().all(|l| l.is_finite()));
        assert_eq!(trained.model.kind, crate::model::ModelKind::VecImg);
    }

    #[test]
    fn two_class_training_runs() {
        let config = AttackConfig {
            two_class: true,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (trained, report) = train(&designs, &config);
        assert_eq!(trained.model.loss, LossKind::TwoClass);
        assert!(report.epoch_loss.iter().all(|l| l.is_finite()));
    }

    fn weight_bits(t: &TrainedAttack) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        t.model
            .for_each_param(&mut |p| bits.push(p.data().iter().map(|v| v.to_bits()).collect()));
        bits
    }

    /// A blob restores every weight bit, the normaliser and the config, for
    /// each model kind and head.
    #[test]
    fn blob_round_trips_every_weight_bit() {
        for (case, config) in [
            ("VecOnly", tiny_config(false)),
            ("VecImg", tiny_config(true)),
            (
                "TwoClass",
                AttackConfig {
                    two_class: true,
                    ..tiny_config(false)
                },
            ),
        ] {
            let config = AttackConfig {
                epochs: 1,
                ..config
            };
            let designs = vec![prepared(Benchmark::C432, 1, &config)];
            let (trained, _) = train(&designs, &config);
            let blob = trained.to_blob();
            assert_eq!(TrainedAttack::check_blob(&blob), Ok(()), "{case}");
            let back = TrainedAttack::from_blob(&blob).expect("a blob decodes");
            let bits = weight_bits(&trained);
            assert!(
                !bits.is_empty() && weight_bits(&back) == bits,
                "{case}: weights"
            );
            assert_eq!(back.model.kind, trained.model.kind, "{case}");
            assert_eq!(back.model.loss, trained.model.loss, "{case}");
            assert_eq!(back.normalizer, trained.normalizer, "{case}");
            assert_eq!(back.config, trained.config, "{case}");
            assert!(back.to_blob() == blob, "{case}: re-encoding moves bytes");
        }
    }

    /// Arbitrary bytes, torn blobs and blobs with any one header byte
    /// flipped decode to an error, never a panic; a declared header
    /// length past the bound is refused before it is read.
    #[test]
    fn from_blob_refuses_bad_bytes_without_panicking() {
        let blob = crate::store::conformance::model(3).to_blob();
        let header_end =
            BLOB_PREFIX + u32::from_le_bytes(blob[16..20].try_into().unwrap()) as usize;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut noise = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect()
        };
        for len in [0, 1, 7, 8, 19, 20, 64, 4096] {
            assert!(
                TrainedAttack::from_blob(&noise(len)).is_err(),
                "{len} noise bytes"
            );
        }
        for cut in (0..header_end + 8).chain([blob.len() - 4, blob.len() - 1]) {
            assert!(
                TrainedAttack::from_blob(&blob[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        for at in 0..header_end {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = blob.clone();
                bad[at] ^= flip;
                // A flip inside a number of the header may still decode; it
                // must never panic.
                let _ = TrainedAttack::from_blob(&bad);
            }
        }
        let mut huge = blob[..BLOB_PREFIX].to_vec();
        huge[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            TrainedAttack::from_blob(&huge),
            Err(BlobError::Header(_))
        ));
        let mut deep = blob[..16].to_vec();
        let nested = "[".repeat(4096);
        deep.extend_from_slice(&(nested.len() as u32).to_le_bytes());
        deep.extend_from_slice(nested.as_bytes());
        assert!(matches!(
            TrainedAttack::from_blob(&deep),
            Err(BlobError::Header(_))
        ));
    }

    #[test]
    fn train_or_load_skips_training_on_hit() {
        let config = AttackConfig {
            epochs: 2,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let store = MemoryModelStore::new();
        let key = CorpusFingerprint([41, 42]);

        let (cold, report) = train_or_load(&key, &store, &config, 2, move || designs);
        assert!(report.is_some(), "cold run must train");

        // Warm run: the corpus closure must not even be called.
        let (warm, report) = train_or_load(&key, &store, &config, 2, || {
            panic!("cache hit must not rebuild the corpus")
        });
        assert!(report.is_none(), "warm run must not train");
        assert_eq!(store.counters().hits, 1);
        assert_eq!(store.counters().misses, 1);
        // The cached model carries the same weights: identical blobs.
        assert!(cold.to_blob() == warm.to_blob());
    }

    /// Pins the trained bits. The model store is content-addressed, so a
    /// change to the kernels' numerics or the gradient order must show up
    /// here rather than as a store silently serving stale weights. Every
    /// thread count trains the pinned bits; a blob also records
    /// `config.threads`, so the other counts compare the weights and the
    /// normaliser alone.
    #[test]
    fn trained_weights_are_pinned() {
        let two_class = AttackConfig {
            two_class: true,
            ..tiny_config(false)
        };
        for (case, base, pinned) in [
            (
                "VecOnly",
                tiny_config(false),
                "3b2bc1d80e751fb194b333fd07bf0dbf",
            ),
            (
                "VecImg",
                tiny_config(true),
                "e7dd81ae13b065a7a94e7440a43415e9",
            ),
            ("TwoClass", two_class, "069bde0f9700e9b6c8911ca506da58e0"),
        ] {
            let config = AttackConfig {
                epochs: 2,
                threads: 1,
                ..base
            };
            let designs = vec![prepared(Benchmark::C432, 1, &config)];
            let (trained, _) = train(&designs, &config);
            let mut h = crate::fingerprint::StableHasher::new();
            h.write_bytes(&trained.to_blob());
            assert_eq!(
                h.finish().to_hex(),
                pinned,
                "{case}: the trained bits moved. If that is meant, bump \
                 PIPELINE_VERSION, so that stores filled before the change \
                 miss instead of serving the old weights, and pin the new digest"
            );
            for threads in [2, 3] {
                let (other, _) = train_with_threads(&designs, &config, threads);
                assert!(
                    weight_bits(&other) == weight_bits(&trained)
                        && other.normalizer == trained.normalizer,
                    "{case}: {threads} threads train other weights"
                );
            }
        }
    }

    /// Chunk edges move with the thread count; no trained bit and no
    /// reported loss may move with them.
    #[test]
    fn training_is_thread_count_invariant() {
        let config = AttackConfig {
            epochs: 2,
            ..tiny_config(false)
        };
        let designs = vec![
            prepared(Benchmark::C432, 1, &config),
            prepared(Benchmark::C880, 2, &config),
        ];
        let (one, one_report) = train_with_threads(&designs, &config, 1);
        let model = weight_bits(&one);
        for threads in [2, 3, 7] {
            let (many, report) = train_with_threads(&designs, &config, threads);
            assert!(
                weight_bits(&many) == model,
                "{threads} threads train other weights"
            );
            let bits =
                |r: &TrainReport| r.epoch_loss.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&report), bits(&one_report), "{threads} threads");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let config = AttackConfig {
            epochs: 2,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (_, r1) = train(&designs, &config);
        let (_, r2) = train(&designs, &config);
        assert_eq!(r1.epoch_loss, r2.epoch_loss);
    }
}
