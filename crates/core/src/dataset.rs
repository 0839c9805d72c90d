//! Query assembly: turning a split design into the model's input batches.
//!
//! A *query* (one training/inference sample) is a sink fragment with its `n`
//! candidate VPPs: an `[n, 27]` vector-feature tensor plus, for the full
//! model, an `[n+1, C, px, px]` image stack (sink image first, then one image
//! per candidate source, all rendered around the respective virtual pins).
//!
//! Images are pre-rendered once per design and shared across queries — the
//! same source virtual pin appears in many sink fragments' candidate lists,
//! and the paper itself exploits the sharing ("the image-based features of
//! the sink fragment are the same in the batch, so we only process them
//! once").

use crate::candidates::{select_candidates, CandidateSet};
use crate::config::AttackConfig;
use crate::image_features::ImageExtractor;
use crate::vector_features::{vpp_features, Normalizer, VECTOR_DIM};
use deepsplit_layout::design::Design;
use deepsplit_layout::geom::{Layer, Point};
use deepsplit_layout::split::{split_design, SplitView};
use deepsplit_nn::parallel::parallel_map;
use deepsplit_nn::tensor::Tensor;
use std::collections::HashMap;

/// Identifies a rendered image: `(fragment index, virtual pin)`.
pub type ImageKey = (u32, Point);

/// A design prepared for training or attack: split view, candidates, raw
/// features and pre-rendered images.
#[derive(Debug)]
pub struct PreparedDesign {
    /// Design name.
    pub name: String,
    /// The split view (owns fragments and ground truth).
    pub view: SplitView,
    /// Candidate sets, one per sink fragment.
    pub sets: Vec<CandidateSet>,
    /// Raw (un-normalised) vector features per set, per candidate.
    pub raw_features: Vec<Vec<[f32; VECTOR_DIM]>>,
    /// Rendered images by key (empty when images are disabled).
    pub images: HashMap<ImageKey, Tensor>,
    /// Per set: the sink image key and one key per candidate.
    pub image_keys: Vec<(ImageKey, Vec<ImageKey>)>,
    /// Image channel count (0 when images are disabled).
    pub channels: usize,
}

impl PreparedDesign {
    /// Prepares `design` split after `split_layer` under `config`.
    ///
    /// This runs the whole attacker-side feature pipeline: fragment
    /// extraction, candidate selection (§4.1), vector features (§3.1) and
    /// image rendering (§3.2).
    pub fn prepare(design: &Design, split_layer: Layer, config: &AttackConfig) -> PreparedDesign {
        let view = split_design(design, split_layer);
        Self::from_view(design, view, config)
    }

    /// Like [`PreparedDesign::prepare`] for an existing split view.
    pub fn from_view(design: &Design, view: SplitView, config: &AttackConfig) -> PreparedDesign {
        let sets = select_candidates(&view, config);
        let nl = &design.netlist;
        let lib = &design.library;
        let threads = config.effective_threads();

        let raw_features: Vec<Vec<[f32; VECTOR_DIM]>> = parallel_map(&sets, threads, |set| {
            set.candidates
                .iter()
                .map(|c| vpp_features(&view, set.sink, c, nl, lib))
                .collect()
        });

        let (images, image_keys, channels) = if config.use_images {
            let extractor = ImageExtractor::new(&view, config);
            let mut keys: Vec<(ImageKey, Vec<ImageKey>)> = Vec::with_capacity(sets.len());
            let mut unique: Vec<ImageKey> = Vec::new();
            let mut seen: HashMap<ImageKey, ()> = HashMap::new();
            for set in &sets {
                let sink_frag = view.fragment(set.sink);
                let sink_vp = sink_frag.virtual_pins.first().copied().unwrap_or_default();
                let sink_key = (set.sink.0, sink_vp);
                let cand_keys: Vec<ImageKey> = set
                    .candidates
                    .iter()
                    .map(|c| (c.source.0, c.source_vp))
                    .collect();
                for k in std::iter::once(sink_key).chain(cand_keys.iter().copied()) {
                    if seen.insert(k, ()).is_none() {
                        unique.push(k);
                    }
                }
                keys.push((sink_key, cand_keys));
            }
            let rendered = parallel_map(&unique, threads, |&(frag, vp)| {
                extractor.render(deepsplit_layout::split::FragId(frag), vp)
            });
            let images: HashMap<ImageKey, Tensor> = unique.into_iter().zip(rendered).collect();
            let channels = extractor.channels();
            (images, keys, channels)
        } else {
            (HashMap::new(), Vec::new(), 0)
        };

        PreparedDesign {
            name: design.netlist.name.clone(),
            view,
            sets,
            raw_features,
            images,
            image_keys,
            channels,
        }
    }

    /// Number of queries (sink fragments).
    pub fn num_queries(&self) -> usize {
        self.sets.len()
    }

    /// Assembles the normalised vector tensor `[n, 27]` of query `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn vectors(&self, i: usize, norm: &Normalizer) -> Tensor {
        self.stacked_vectors(&[i], norm)
    }

    /// The normalised vector rows of `queries`, stacked in order into
    /// `[Σ nᵢ, 27]`.
    ///
    /// # Panics
    ///
    /// Panics if a query index is out of range.
    pub(crate) fn stacked_vectors(&self, queries: &[usize], norm: &Normalizer) -> Tensor {
        let rows: usize = queries.iter().map(|&i| self.raw_features[i].len()).sum();
        let mut data = Vec::with_capacity(rows * VECTOR_DIM);
        for f in queries.iter().flat_map(|&i| &self.raw_features[i]) {
            let mut row = *f;
            norm.apply(&mut row);
            data.extend_from_slice(&row);
        }
        Tensor::from_vec(&[rows, VECTOR_DIM], data)
    }

    /// Assembles the image stack `[n+1, C, px, px]` of query `i` (sink image
    /// first), or `None` when images are disabled.
    pub fn images(&self, i: usize) -> Option<Tensor> {
        (self.channels > 0).then(|| stack_batch(&self.image_parts(i).collect::<Vec<_>>()))
    }

    /// The `[1, C, px, px]` images of query `i`, sink first.
    ///
    /// # Panics
    ///
    /// Panics if images are disabled or `i` is out of range.
    pub(crate) fn image_parts(&self, i: usize) -> impl Iterator<Item = &Tensor> {
        let (sink_key, cand_keys) = &self.image_keys[i];
        std::iter::once(sink_key)
            .chain(cand_keys)
            .map(|k| &self.images[k])
    }

    /// The training target (index of the positive VPP) of query `i`.
    pub fn target(&self, i: usize) -> Option<usize> {
        self.sets[i].positive
    }

    /// Randomly keeps at most `max_queries` queries (seeded), dropping images
    /// no longer referenced. Used to cap per-design training cost on large
    /// designs; attack-side preparations should not be truncated.
    pub fn truncate_queries(&mut self, max_queries: usize, seed: u64) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        if self.sets.len() <= max_queries {
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7acc);
        let mut order: Vec<usize> = (0..self.sets.len()).collect();
        order.shuffle(&mut rng);
        order.truncate(max_queries);
        order.sort_unstable();
        self.sets = order.iter().map(|&i| self.sets[i].clone()).collect();
        self.raw_features = order
            .iter()
            .map(|&i| self.raw_features[i].clone())
            .collect();
        if self.channels > 0 {
            self.image_keys = order.iter().map(|&i| self.image_keys[i].clone()).collect();
            let mut used: HashMap<ImageKey, ()> = HashMap::new();
            for (sk, cks) in &self.image_keys {
                used.insert(*sk, ());
                for k in cks {
                    used.insert(*k, ());
                }
            }
            self.images.retain(|k, _| used.contains_key(k));
        }
    }
}

/// Stacks `[1, C, H, W]` tensors into `[k, C, H, W]`.
///
/// # Panics
///
/// Panics if shapes differ or the list is empty.
pub fn stack_batch(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "stack of nothing");
    let shape = parts[0].shape().to_vec();
    assert_eq!(shape[0], 1, "expected unit batch dim");
    let per = parts[0].numel();
    let mut data = Vec::with_capacity(per * parts.len());
    for p in parts {
        assert_eq!(p.shape(), &shape[..], "stack shape mismatch");
        data.extend_from_slice(p.data());
    }
    let mut out_shape = shape;
    out_shape[0] = parts.len();
    Tensor::from_vec(&out_shape, data)
}

/// Fits the feature normaliser over all candidates of the given designs
/// (training designs only, per standard protocol).
pub fn fit_normalizer(designs: &[PreparedDesign]) -> Normalizer {
    let rows = designs.iter().flat_map(|d| d.raw_features.iter().flatten());
    Normalizer::fit(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::design::ImplementConfig;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn prepared(use_images: bool) -> PreparedDesign {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.4, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let config = AttackConfig {
            use_images,
            ..AttackConfig::fast()
        };
        PreparedDesign::prepare(&d, Layer(3), &config)
    }

    #[test]
    fn queries_cover_all_sinks() {
        let p = prepared(false);
        assert_eq!(p.num_queries(), p.view.sinks.len());
        assert_eq!(p.raw_features.len(), p.sets.len());
    }

    #[test]
    fn vector_tensors_normalised() {
        let p = prepared(false);
        let norm = fit_normalizer(std::slice::from_ref(&p));
        for i in 0..p.num_queries().min(5) {
            let t = p.vectors(i, &norm);
            assert_eq!(t.shape()[1], VECTOR_DIM);
            assert!(t.data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn image_stacks_have_sink_first() {
        let p = prepared(true);
        let config = AttackConfig::fast();
        for i in 0..p.num_queries().min(3) {
            let imgs = p.images(i).expect("images enabled");
            let n = p.sets[i].candidates.len();
            assert_eq!(imgs.shape()[0], n + 1);
            assert_eq!(imgs.shape()[1], p.channels);
            assert_eq!(imgs.shape()[2], config.image_px);
        }
    }

    #[test]
    fn images_shared_across_queries() {
        let p = prepared(true);
        // Unique images must be far fewer than total references when sinks
        // share candidate sources.
        let total_refs: usize = p.image_keys.iter().map(|(_, c)| 1 + c.len()).sum();
        assert!(p.images.len() <= total_refs);
    }

    #[test]
    fn vec_only_has_no_images() {
        let p = prepared(false);
        assert!(p.images(0).is_none());
        assert_eq!(p.channels, 0);
    }

    #[test]
    fn stack_batch_shapes() {
        let a = Tensor::zeros(&[1, 2, 3, 3]);
        let b = Tensor::zeros(&[1, 2, 3, 3]);
        let s = stack_batch(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2, 3, 3]);
    }
}
