//! Property-based tests for the attack core: candidate-selection invariants,
//! feature determinism and normalisation, and model algebraic properties.

use deepsplit_core::candidates::{select_candidates, split_distances};
use deepsplit_core::config::AttackConfig;
use deepsplit_core::model::{AttackModel, LossKind, ModelKind};
use deepsplit_core::train::{TrainedAttack, BLOB_FORMAT, BLOB_MAGIC};
use deepsplit_core::vector_features::{Normalizer, VECTOR_DIM};
use deepsplit_core::PIPELINE_VERSION;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_layout::split::split_design;
use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_nn::tensor::Tensor;
use proptest::prelude::*;

/// One shared design (implementing per proptest case would dominate runtime).
fn design() -> &'static Design {
    use std::sync::OnceLock;
    static DESIGN: OnceLock<Design> = OnceLock::new();
    DESIGN.get_or_init(|| {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C880, 0.5, 77, &lib);
        Design::implement(nl, lib, &ImplementConfig::default())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Candidate sets respect `n`, uniqueness and distance ordering for any
    /// candidate budget and split layer.
    #[test]
    fn candidate_invariants(n in 2usize..32, layer in 1u8..4) {
        let view = split_design(design(), Layer(layer));
        let config = AttackConfig { candidates: n, ..AttackConfig::fast() };
        let sets = select_candidates(&view, &config);
        prop_assert_eq!(sets.len(), view.sinks.len());
        for set in &sets {
            prop_assert!(set.candidates.len() <= n);
            let mut seen = std::collections::HashSet::new();
            let mut last = (i64::MIN, i64::MIN);
            for c in &set.candidates {
                prop_assert!(seen.insert(c.source), "duplicate source");
                let d = split_distances(&view, c.sink_vp, c.source_vp);
                prop_assert!(d >= last, "not sorted");
                last = d;
            }
            if let Some(p) = set.positive {
                prop_assert!(p < set.candidates.len());
            }
        }
    }

    /// Larger candidate budgets never reduce positive coverage.
    #[test]
    fn coverage_monotone_in_n(small in 2usize..10, extra in 1usize..20) {
        let view = split_design(design(), Layer(3));
        let a = AttackConfig { candidates: small, ..AttackConfig::fast() };
        let b = AttackConfig { candidates: small + extra, ..AttackConfig::fast() };
        let cov_a = deepsplit_core::candidates::positive_coverage(&view, &select_candidates(&view, &a));
        let cov_b = deepsplit_core::candidates::positive_coverage(&view, &select_candidates(&view, &b));
        prop_assert!(cov_b >= cov_a - 1e-12);
    }

    /// The normaliser is an affine bijection: apply ∘ unapply = identity in
    /// distribution (checked as: standardised data has |mean| < tolerance).
    #[test]
    fn normalizer_centres_data(rows in proptest::collection::vec(
        proptest::collection::vec(-10.0f32..10.0, VECTOR_DIM), 4..40
    )) {
        let arrays: Vec<[f32; VECTOR_DIM]> = rows
            .iter()
            .map(|r| {
                let mut a = [0.0f32; VECTOR_DIM];
                a.copy_from_slice(r);
                a
            })
            .collect();
        let norm = Normalizer::fit(arrays.iter());
        let mut mean = vec![0.0f64; VECTOR_DIM];
        for a in &arrays {
            let mut x = *a;
            norm.apply(&mut x);
            for (i, v) in x.iter().enumerate() {
                mean[i] += *v as f64;
            }
        }
        for m in &mean {
            prop_assert!((m / arrays.len() as f64).abs() < 1e-2);
        }
    }

    /// Model scoring is a pure function: same input, same scores; and the
    /// output shape always matches the head.
    #[test]
    fn model_scoring_pure(seed in any::<u64>(), n in 2usize..12) {
        let model = AttackModel::new(ModelKind::VecOnly, LossKind::SoftmaxRegression, 0, seed);
        let x = Tensor::from_vec(
            &[n, VECTOR_DIM],
            (0..n * VECTOR_DIM).map(|i| ((i * 37 + 11) % 97) as f32 / 97.0 - 0.5).collect(),
        );
        let a = model.score_rows(&x, None);
        let b = model.score_rows(&x, None);
        prop_assert_eq!(a.clone(), b);
        prop_assert_eq!(a.shape(), &[n, 1]);
    }

    /// `from_blob` answers arbitrary bytes with an error, never a panic:
    /// bare, and behind a valid prefix that declares any header length.
    #[test]
    fn from_blob_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        header_len in 0u32..600,
    ) {
        prop_assert!(TrainedAttack::from_blob(&bytes).is_err());
        let mut blob = BLOB_MAGIC.to_vec();
        for word in [BLOB_FORMAT, PIPELINE_VERSION, header_len] {
            blob.extend_from_slice(&word.to_le_bytes());
        }
        blob.extend_from_slice(&bytes);
        prop_assert!(TrainedAttack::from_blob(&blob).is_err());
    }

    /// Candidate score ranking is invariant to the two-class probability
    /// transform (monotone in s⁺ - s⁻).
    #[test]
    fn two_class_ranking_monotone(scores in proptest::collection::vec(-4.0f32..4.0, 4..24)) {
        let n = scores.len() / 2;
        prop_assume!(n >= 2);
        let t = Tensor::from_vec(&[n, 2], scores[..n * 2].to_vec());
        let probs = deepsplit_nn::loss::two_class_probabilities(&t);
        let margins: Vec<f32> = (0..n).map(|j| t.data()[j * 2 + 1] - t.data()[j * 2]).collect();
        let best_prob = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        let best_margin = margins
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        prop_assert_eq!(best_prob, best_margin);
    }
}
