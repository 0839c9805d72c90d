//! Inference: attacking a split layout with a trained model.
//!
//! The image tower embeddings are computed once per unique virtual-pin image
//! and reused across queries (source fragments appear in many candidate
//! lists). The candidate rows of many sink fragments are then stacked and
//! scored in one forward pass per chunk of whole queries, and each sink's
//! argmax VPP is selected (paper Eq. 2). The model is only read, never
//! cloned.
//!
//! Stacking keeps every score's bits. Under the accumulation contract of
//! `deepsplit_nn::tensor`, each output row of a matrix product depends only
//! on its own input row; bias, LReLU, the residual add and column
//! concatenation work row by row too. So a candidate scores the same bits
//! alone, in its own query, or stacked with any others, and the result is
//! the same at every thread count and chunk split.

use crate::dataset::{stack_batch, ImageKey, PreparedDesign};
use crate::model::{embedding_pairs, AttackModel, ModelKind};
use crate::train::TrainedAttack;
use deepsplit_flow::metrics::Assignment;
use deepsplit_layout::split::FragId;
use deepsplit_nn::parallel::parallel_map;
use deepsplit_nn::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Most candidate rows one stacked forward pass takes (unless one query
/// alone has more). Each row holds a few kB of activations, so this bounds
/// inference memory on large designs, and training's tapes.
pub(crate) const MAX_CHUNK_ROWS: usize = 1024;

/// Images embedded per tower pass.
const EMBED_BATCH: usize = 8;

/// Result of attacking one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Chosen source fragment per sink fragment.
    pub assignment: Assignment,
    /// Wall-clock inference time (embedding + scoring).
    pub inference: Duration,
}

/// Scores every sink fragment of `prepared` and picks the best candidate VPP.
pub fn attack(trained: &TrainedAttack, prepared: &PreparedDesign) -> AttackOutcome {
    attack_with_threads(trained, prepared, trained.config.effective_threads())
}

/// [`attack`] with an explicit worker-thread count: the top-1 of
/// [`attack_ranked`].
///
/// Inference is thread-count invariant (see the module doc), as training
/// is, so a sweep may run a cached model with however many threads its
/// scheduler has to spare.
pub fn attack_with_threads(
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    threads: usize,
) -> AttackOutcome {
    let ranked = attack_ranked(trained, prepared, 1, threads);
    AttackOutcome {
        assignment: ranked.assignment(),
        inference: ranked.inference,
    }
}

/// Raw per-candidate scores of every query with candidates, in query order:
/// logits for the softmax-regression head, independent probabilities for
/// the two-class head. This is the argmax input — pass it through
/// [`confidence_distribution`] before reporting values as probabilities.
fn score_queries(
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    threads: usize,
) -> Vec<(usize, Vec<f32>)> {
    let threads = threads.max(1);
    let model = &trained.model;
    let use_images = model.kind == ModelKind::VecImg && prepared.channels > 0;
    let embeddings = use_images.then(|| embed_unique_images(model, prepared, threads));
    let queries: Vec<usize> = (0..prepared.num_queries())
        .filter(|&qi| !prepared.sets[qi].candidates.is_empty())
        .collect();
    let rows: Vec<usize> = queries
        .iter()
        .map(|&qi| prepared.sets[qi].candidates.len())
        .collect();
    let chunks: Vec<&[usize]> = chunk_queries(&rows, threads, MAX_CHUNK_ROWS)
        .into_iter()
        .map(|range| &queries[range])
        .collect();
    let scored = parallel_map(&chunks, threads, |chunk| {
        let vectors = prepared.stacked_vectors(chunk, &trained.normalizer);
        let pairs = embeddings.as_ref().map(|(row_of, table)| {
            let table_rows = chunk.iter().flat_map(|&qi| {
                let (sink, sources) = &prepared.image_keys[qi];
                sources.iter().map(|src| (row_of[src], row_of[sink]))
            });
            embedding_pairs(table, table_rows)
        });
        let scores = model.candidate_scores(&model.score_rows(&vectors, pairs.as_ref()));
        let mut at = 0;
        chunk
            .iter()
            .map(|&qi| {
                let n = prepared.sets[qi].candidates.len();
                at += n;
                (qi, scores[at - n..at].to_vec())
            })
            .collect::<Vec<_>>()
    });
    scored.into_iter().flatten().collect()
}

/// Splits queries of `rows[i]` candidate rows each into runs of whole
/// queries: at most `threads` runs of about equal row counts, each closed
/// early rather than grow past `cap` rows (a query of more rows than `cap`
/// runs alone).
pub(crate) fn chunk_queries(rows: &[usize], threads: usize, cap: usize) -> Vec<Range<usize>> {
    let share = rows.iter().sum::<usize>().div_ceil(threads.max(1)).max(1);
    let mut chunks = Vec::new();
    let (mut start, mut filled) = (0, 0);
    for (i, &n) in rows.iter().enumerate() {
        if filled > 0 && filled + n > cap {
            chunks.push(start..i);
            (start, filled) = (i, 0);
        }
        filled += n;
        if filled >= share {
            chunks.push(start..i + 1);
            (start, filled) = (i + 1, 0);
        }
    }
    if start < rows.len() {
        chunks.push(start..rows.len());
    }
    chunks
}

/// Phase 1 of inference: embeds every unique virtual-pin image once, in
/// batches over `threads` workers. Returns each image's row in the
/// `[images, 128]` embedding table, and the table.
fn embed_unique_images(
    model: &AttackModel,
    prepared: &PreparedDesign,
    threads: usize,
) -> (HashMap<ImageKey, usize>, Tensor) {
    // Sorted so the table's layout is identical run to run regardless of
    // HashMap seed.
    // splint::allow(D1, "keys are sorted on the next line before any use")
    let mut keys: Vec<ImageKey> = prepared.images.keys().copied().collect();
    keys.sort_unstable();
    let batches: Vec<&[ImageKey]> = keys.chunks(EMBED_BATCH).collect();
    let embedded = parallel_map(&batches, threads, |batch| {
        let imgs: Vec<&Tensor> = batch.iter().map(|k| &prepared.images[k]).collect();
        model.embed(&stack_batch(&imgs))
    });
    let width = embedded.first().map_or(0, |e| e.dims2().1);
    let table: Vec<f32> = embedded.iter().flat_map(|e| e.data()).copied().collect();
    let table = Tensor::from_vec(&[keys.len(), width], table);
    let row_of = keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
    (row_of, table)
}

/// Turns the model's per-candidate scores into a probability distribution
/// over the candidate list (paper Eq. 2). Softmax-regression scores are raw
/// logits, so they pass through a (numerically stable) softmax; two-class
/// scores are already per-candidate probabilities and are normalised to sum
/// to one. Both transforms are strictly monotone, so the ranking they induce
/// is exactly the raw argmax ranking.
fn confidence_distribution(loss: crate::model::LossKind, scores: &[f32]) -> Vec<f32> {
    match loss {
        crate::model::LossKind::SoftmaxRegression => deepsplit_nn::loss::softmax(scores),
        crate::model::LossKind::TwoClass => {
            let sum: f32 = scores.iter().sum();
            if sum > 0.0 {
                scores.iter().map(|&p| p / sum).collect()
            } else {
                vec![1.0 / scores.len().max(1) as f32; scores.len()]
            }
        }
    }
}

/// One sink fragment's scored candidate list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedQuery {
    /// The sink fragment being resolved.
    pub sink: FragId,
    /// Its broken-pin count `cᵢ` — the weight it carries in CCR (Eq. 1).
    pub sink_pins: usize,
    /// `(candidate source, softmax confidence)`, best first; ties broken
    /// toward the earlier candidate-list position, matching [`attack`]'s
    /// argmax exactly.
    pub ranked: Vec<(FragId, f32)>,
}

/// Result of ranked inference: everything [`attack`] computes, but keeping
/// the full per-candidate confidence distribution instead of only the
/// argmax — the payload an inference service returns to its callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedOutcome {
    /// One entry per sink fragment with at least one candidate, in sink
    /// order.
    pub queries: Vec<RankedQuery>,
    /// Wall-clock inference time (embedding + scoring).
    pub inference: Duration,
}

impl RankedOutcome {
    /// The top-1 assignment — identical to what [`attack`] returns for the
    /// same model and design.
    pub fn assignment(&self) -> Assignment {
        self.queries
            .iter()
            .filter(|q| !q.ranked.is_empty())
            .map(|q| (q.sink, q.ranked[0].0))
            .collect()
    }
}

/// Ranked inference: scores every sink fragment's candidates and keeps the
/// `top_k` best per sink (`0` = all), sorted by descending confidence.
///
/// The ordering is total and deterministic: the first entry of each query
/// is the argmax of the raw scores, ties going to the earlier candidate,
/// and the result is thread-count invariant like the rest of inference.
pub fn attack_ranked(
    trained: &TrainedAttack,
    prepared: &PreparedDesign,
    top_k: usize,
    threads: usize,
) -> RankedOutcome {
    let start = Instant::now();
    let queries = score_queries(trained, prepared, threads)
        .into_iter()
        .map(|(qi, scores)| {
            let set = &prepared.sets[qi];
            let probs = confidence_distribution(trained.model.loss, &scores);
            // Sort on the RAW scores with candidate-list position as the
            // tie-break. Sorting on the normalised probabilities instead
            // could disagree with the argmax on candidates whose distinct
            // scores round to one probability.
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            if top_k > 0 {
                order.truncate(top_k);
            }
            RankedQuery {
                sink: set.sink,
                sink_pins: prepared.view.fragment(set.sink).sink_count,
                ranked: order
                    .into_iter()
                    .map(|i| (set.candidates[i].source, probs[i]))
                    .collect(),
            }
        })
        .collect();
    RankedOutcome {
        queries,
        inference: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use crate::train::train;
    use deepsplit_flow::metrics::ccr;
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

    fn tiny(use_images: bool) -> AttackConfig {
        AttackConfig {
            use_images,
            epochs: 6,
            candidates: 8,
            image_px: 9,
            image_scales_um: vec![0.2, 0.6],
            batch_size: 8,
            threads: 2,
            ..AttackConfig::fast()
        }
    }

    #[test]
    fn attack_assigns_every_sink_with_candidates() {
        let config = tiny(false);
        let train_d = vec![prepared(Benchmark::C880, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let outcome = attack(&trained, &victim);
        let with_cands = victim
            .sets
            .iter()
            .filter(|s| !s.candidates.is_empty())
            .count();
        assert_eq!(outcome.assignment.len(), with_cands);
    }

    #[test]
    fn trained_attack_beats_chance() {
        let config = tiny(false);
        let train_d = vec![
            prepared(Benchmark::C880, 3, &config),
            prepared(Benchmark::C1355, 5, &config),
        ];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let outcome = attack(&trained, &victim);
        let score = ccr(&victim.view, &outcome.assignment);
        let chance = 1.0 / victim.view.num_source_fragments().max(1) as f64;
        assert!(score > 2.0 * chance, "CCR {score} vs chance {chance}");
    }

    #[test]
    fn image_model_attack_runs() {
        let config = tiny(true);
        let train_d = vec![prepared(Benchmark::C432, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C880, 4, &config);
        let outcome = attack(&trained, &victim);
        assert!(!outcome.assignment.is_empty());
        assert!(outcome.inference > Duration::ZERO);
    }

    #[test]
    fn attack_is_deterministic() {
        let config = tiny(false);
        let train_d = vec![prepared(Benchmark::C880, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let a = attack(&trained, &victim);
        let b = attack(&trained, &victim);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn ranked_top1_matches_argmax_attack() {
        for use_images in [false, true] {
            let config = AttackConfig {
                epochs: 2,
                ..tiny(use_images)
            };
            let train_d = vec![prepared(Benchmark::C880, 3, &config)];
            let (trained, _) = train(&train_d, &config);
            let victim = prepared(Benchmark::C432, 4, &config);
            let plain = attack(&trained, &victim);
            let ranked = attack_ranked(&trained, &victim, 0, 3);
            assert_eq!(
                ranked.assignment(),
                plain.assignment,
                "images={use_images}: ranked top-1 must reproduce the argmax"
            );
            for q in &ranked.queries {
                assert!(q.sink_pins > 0, "sink weight must be positive");
                let mut last = f32::INFINITY;
                let mut sum = 0.0f32;
                for &(_, p) in &q.ranked {
                    assert!((0.0..=1.0).contains(&p), "confidence {p} outside [0, 1]");
                    assert!(p <= last, "confidences must be sorted descending");
                    last = p;
                    sum += p;
                }
                assert!(
                    (sum - 1.0).abs() < 1e-3,
                    "untruncated softmax confidences must sum to 1, got {sum}"
                );
            }
        }
    }

    #[test]
    fn ranked_truncates_to_top_k() {
        let config = tiny(false);
        let train_d = vec![prepared(Benchmark::C880, 3, &config)];
        let (trained, _) = train(&train_d, &config);
        let victim = prepared(Benchmark::C432, 4, &config);
        let full = attack_ranked(&trained, &victim, 0, 2);
        let top2 = attack_ranked(&trained, &victim, 2, 2);
        assert_eq!(full.queries.len(), top2.queries.len());
        for (f, t) in full.queries.iter().zip(&top2.queries) {
            assert!(t.ranked.len() <= 2);
            assert_eq!(
                &f.ranked[..t.ranked.len()],
                &t.ranked[..],
                "top-k must be a prefix of the full ranking"
            );
        }
        // Thread-count invariance extends to the full ranking (the wall
        // clock obviously varies, the queries must not).
        assert_eq!(full.queries, attack_ranked(&trained, &victim, 0, 7).queries);
    }

    /// The per-query path inference took before candidates were stacked:
    /// one forward pass per sink fragment, here the training pass on a
    /// one-query chunk. Raw scores of every query with candidates, in query
    /// order.
    fn reference_scores(
        trained: &TrainedAttack,
        prepared: &PreparedDesign,
    ) -> Vec<(usize, Vec<f32>)> {
        let model = &trained.model;
        let use_images = model.kind == ModelKind::VecImg && prepared.channels > 0;
        (0..prepared.num_queries())
            .filter(|&qi| !prepared.sets[qi].candidates.is_empty())
            .map(|qi| {
                let vectors = prepared.vectors(qi, &trained.normalizer);
                let images = prepared.images(qi).filter(|_| use_images);
                let n = vectors.dims2().0;
                let (raw, _) = model.forward(vectors, images, &[n]);
                (qi, model.candidate_scores(&raw))
            })
            .collect()
    }

    /// The argmax rule of the per-query path: the highest raw score, ties
    /// to the earlier candidate.
    fn reference_argmax(prepared: &PreparedDesign, scored: &[(usize, Vec<f32>)]) -> Assignment {
        scored
            .iter()
            .map(|(qi, scores)| {
                let best = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let set = &prepared.sets[*qi];
                (set.sink, set.candidates[best].source)
            })
            .collect()
    }

    /// Drops the candidates of every fifth query, so that some queries have
    /// none and chunks must skip them.
    fn empty_some_queries(prepared: &mut PreparedDesign) {
        for qi in (0..prepared.num_queries()).step_by(5) {
            prepared.sets[qi].candidates.clear();
            prepared.sets[qi].positive = None;
            prepared.raw_features[qi].clear();
            if let Some((_, sources)) = prepared.image_keys.get_mut(qi) {
                sources.clear();
            }
        }
    }

    #[test]
    fn stacked_scores_match_per_query_reference_bitwise() {
        for use_images in [false, true] {
            for two_class in [false, true] {
                let config = AttackConfig {
                    epochs: 1,
                    two_class,
                    ..tiny(use_images)
                };
                let train_d = vec![prepared(Benchmark::C880, 3, &config)];
                let (trained, _) = train(&train_d, &config);
                for (bench, seed) in [(Benchmark::C432, 4), (Benchmark::C1355, 5)] {
                    let mut victim = prepared(bench, seed, &config);
                    empty_some_queries(&mut victim);
                    let case = format!("images={use_images} two_class={two_class} {bench:?}");
                    let reference = reference_scores(&trained, &victim);
                    assert!(
                        reference.len() < victim.num_queries(),
                        "{case}: no empty query"
                    );
                    let want = reference_argmax(&victim, &reference);
                    for threads in [1, 2, 3, 7] {
                        let ranked = attack_ranked(&trained, &victim, 0, threads);
                        assert_eq!(ranked.queries.len(), reference.len(), "{case}");
                        for (q, (qi, scores)) in ranked.queries.iter().zip(&reference) {
                            let set = &victim.sets[*qi];
                            assert_eq!(q.sink, set.sink, "{case}");
                            let probs = confidence_distribution(trained.model.loss, scores);
                            for &(source, p) in &q.ranked {
                                let i = set
                                    .candidates
                                    .iter()
                                    .position(|c| c.source == source)
                                    .expect("a ranked source is a candidate");
                                assert_eq!(
                                    p.to_bits(),
                                    probs[i].to_bits(),
                                    "{case} threads={threads}: confidence bits differ"
                                );
                            }
                        }
                        assert_eq!(ranked.assignment(), want, "{case} threads={threads}");
                        let top1 = attack_with_threads(&trained, &victim, threads);
                        assert_eq!(top1.assignment, want, "{case} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunks_hold_whole_queries_within_the_cap() {
        let rows: Vec<usize> = (0..40).map(|i| 1 + (i * 7) % 9).collect();
        let total: usize = rows.iter().sum();
        for threads in [1, 2, 3, 7, 64] {
            for cap in [1, 5, 9, 30, total] {
                let chunks = chunk_queries(&rows, threads, cap);
                // Contiguous, non-empty runs covering every query once.
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next);
                    assert!(c.end > c.start);
                    next = c.end;
                    let filled: usize = rows[c.clone()].iter().sum();
                    assert!(
                        filled <= cap || c.len() == 1,
                        "{filled} rows over cap {cap}"
                    );
                }
                assert_eq!(next, rows.len());
                if cap == total {
                    assert!(
                        chunks.len() <= threads,
                        "{} chunks for {threads}",
                        chunks.len()
                    );
                }
            }
        }
        assert!(chunk_queries(&[], 3, 8).is_empty());
    }

    #[test]
    fn inference_is_thread_count_invariant() {
        // The model-store contract depends on this: a cached model evaluated
        // with a different thread budget must reproduce identical scores.
        for use_images in [false, true] {
            let config = AttackConfig {
                epochs: 2,
                ..tiny(use_images)
            };
            let train_d = vec![prepared(Benchmark::C880, 3, &config)];
            let (trained, _) = train(&train_d, &config);
            let victim = prepared(Benchmark::C432, 4, &config);
            let one = attack_with_threads(&trained, &victim, 1);
            let many = attack_with_threads(&trained, &victim, 7);
            assert_eq!(one.assignment, many.assignment, "images={use_images}");
        }
    }
}
