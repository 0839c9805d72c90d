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

use crate::attack::{chunk_queries, MAX_CHUNK_ROWS};
use crate::config::AttackConfig;
use crate::dataset::{fit_normalizer, stack_batch, PreparedDesign};
use crate::fingerprint::CorpusFingerprint;
use crate::model::{AttackModel, LossKind, ModelKind};
use crate::store::ModelStore;
use crate::vector_features::{Normalizer, VECTOR_DIM};
use deepsplit_nn::layers::{Fold, Grads};
use deepsplit_nn::loss::{softmax_regression, two_class};
use deepsplit_nn::optim::{Adam, Optimizer, StepDecay};
use deepsplit_nn::parallel::parallel_map;
use deepsplit_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A trained attack: model plus the feature normaliser fitted on the
/// training designs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedAttack {
    /// The network.
    pub model: AttackModel,
    /// Feature normalisation fitted on training data.
    pub normalizer: Normalizer,
    /// The configuration it was trained under.
    pub config: AttackConfig,
}

impl TrainedAttack {
    /// Serialises the trained attack to JSON.
    ///
    /// # Errors
    ///
    /// Returns any serde error.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores a trained attack from JSON.
    ///
    /// # Errors
    ///
    /// Returns any serde error.
    pub fn from_json(s: &str) -> serde_json::Result<TrainedAttack> {
        serde_json::from_str(s)
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7ea1);
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
    let mut report = TrainReport {
        epoch_loss: Vec::with_capacity(config.epochs),
        trainable_queries: queries.len(),
        total_queries: total,
    };

    for epoch in 0..config.epochs {
        // Telemetry only: the span/event stream never feeds content-addressed
        // state, and is a no-op unless a binary installed a trace recorder.
        let _epoch_span = deepsplit_obs::span("train_epoch");
        opt.set_lr(schedule.lr_at(epoch));
        queries.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        for batch in queries.chunks(config.batch_size.max(1)) {
            let rows: Vec<usize> = batch.iter().map(chunk_rows).collect();
            let chunks: Vec<&[(usize, usize)]> = chunk_queries(&rows, threads, MAX_CHUNK_ROWS)
                .into_iter()
                .map(|range| &batch[range])
                .collect();
            grads.fill_zero();
            let mut batch_loss = 0.0f64;
            // One group of chunks at a time, so that at most `threads`
            // chunks' tapes are alive at once.
            for group in chunks.chunks(threads) {
                let passes = parallel_map(group, threads, |chunk| corpus.backprop(&model, chunk));
                let (losses, folds): (Vec<Vec<f32>>, Vec<Vec<Fold>>) = passes.into_iter().unzip();
                grads.fold(&folds, threads);
                for loss in losses.into_iter().flatten() {
                    batch_loss += loss as f64;
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

/// The training queries' inputs, as one chunk's passes read them.
struct Corpus<'a> {
    designs: &'a [PreparedDesign],
    normalizer: &'a Normalizer,
    kind: ModelKind,
    loss: LossKind,
}

impl Corpus<'_> {
    /// Forward and backward passes of one chunk of whole queries, stacked:
    /// each query's loss, and the folds of its weight gradients.
    fn backprop(&self, model: &AttackModel, chunk: &[(usize, usize)]) -> (Vec<f32>, Vec<Fold>) {
        let rows: Vec<usize> = chunk
            .iter()
            .map(|&(di, qi)| self.designs[di].sets[qi].candidates.len())
            .collect();
        let mut vectors = Vec::new();
        for &(di, qi) in chunk {
            let v = self.designs[di].vectors(qi, self.normalizer);
            vectors.extend_from_slice(v.data());
        }
        let vectors = Tensor::from_vec(&[rows.iter().sum(), VECTOR_DIM], vectors);
        let images = (self.kind == ModelKind::VecImg).then(|| {
            let parts: Vec<&Tensor> = chunk
                .iter()
                .flat_map(|&(di, qi)| self.designs[di].image_parts(qi))
                .collect();
            stack_batch(&parts)
        });
        let (scores, tape) = model.forward(vectors, images, &rows);
        let width = scores.dims2().1;
        let mut grad = Vec::with_capacity(scores.numel());
        let mut losses = Vec::with_capacity(chunk.len());
        let mut at = 0;
        for (&(di, qi), &n) in chunk.iter().zip(&rows) {
            let query = &scores.data()[at * width..(at + n) * width];
            let query = Tensor::from_vec(&[n, width], query.to_vec());
            let target = self.designs[di].target(qi).expect("trainable query");
            let (loss, g) = match self.loss {
                LossKind::SoftmaxRegression => softmax_regression(&query, target),
                LossKind::TwoClass => two_class(&query, target),
            };
            losses.push(loss);
            grad.extend_from_slice(g.data());
            at += n;
        }
        let grad = Tensor::from_vec(scores.shape(), grad);
        (losses, model.backward(tape, grad))
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

    #[test]
    fn serialization_round_trip() {
        let config = AttackConfig {
            epochs: 1,
            ..tiny_config(false)
        };
        let designs = vec![prepared(Benchmark::C432, 1, &config)];
        let (trained, _) = train(&designs, &config);
        let json = trained.to_json().unwrap();
        let back = TrainedAttack::from_json(&json).unwrap();
        assert_eq!(back.config, trained.config);
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
        // The cached model carries the same weights: identical JSON encoding.
        assert_eq!(cold.to_json().unwrap(), warm.to_json().unwrap());
    }

    /// Pins the trained bits. The model store is content-addressed, so a
    /// change to the kernels' numerics or the gradient order must show up
    /// here rather than as a store silently serving stale weights. Every
    /// thread count trains the pinned bits; `to_json` also records
    /// `config.threads`, so the other counts compare the model and the
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
                "f6c131567cefb99aa558a1d333f468d8",
            ),
            (
                "VecImg",
                tiny_config(true),
                "1643c63ee65e109539f8edef05c71c3f",
            ),
            ("TwoClass", two_class, "c04dedb435d3f04b6e010984edfff345"),
        ] {
            let config = AttackConfig {
                epochs: 2,
                threads: 1,
                ..base
            };
            let designs = vec![prepared(Benchmark::C432, 1, &config)];
            let (trained, _) = train(&designs, &config);
            let mut h = crate::fingerprint::StableHasher::new();
            h.write_str(&trained.to_json().unwrap());
            assert_eq!(h.finish().to_hex(), pinned, "{case}");
            let weights = |t: &TrainedAttack| {
                let model = serde_json::to_string(&t.model).unwrap();
                (model, serde_json::to_string(&t.normalizer).unwrap())
            };
            for threads in [2, 3] {
                let (other, _) = train_with_threads(&designs, &config, threads);
                assert!(
                    weights(&other) == weights(&trained),
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
        let model = serde_json::to_string(&one.model).unwrap();
        for threads in [2, 3, 7] {
            let (many, report) = train_with_threads(&designs, &config, threads);
            assert!(
                serde_json::to_string(&many.model).unwrap() == model,
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
