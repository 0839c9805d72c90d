//! The matrix lifecycle: shard selection → resume → model resolution →
//! attack evaluation → artifact publication.
//!
//! Execution is split into two phases with different economics:
//!
//! 1. **Model resolution.** Every pending cell's corpus fingerprint is
//!    computed; one model per *unique* fingerprint is resolved through the
//!    [`ModelStore`] — loaded on a hit, trained (and stored) on a miss.
//!    Cells sharing a corpus share one training run, and repeated sweeps
//!    against a disk store skip training entirely. Training gives the same
//!    bits at every thread count, so the thread budget left over by the
//!    fan-out ([`split_budget`]) flows into each model's training, and a
//!    stored model is the same bytes whatever the matrix shape, shard
//!    count or machine.
//! 2. **Attack evaluation.** Each cell defends its victim and runs all
//!    three attackers with the resolved model. Inference is thread-count
//!    invariant too, so the budget left over by this fan-out flows into
//!    per-cell inference.
//!
//! Both phases preserve cell order, so a run is bit-deterministic for a
//! fixed spec: cold, warm (cached), resumed and sharded-then-merged runs
//! all produce identical [`EvalOutcome`]s.

use crate::artifacts::{self, CellTimings, EngineError};
use crate::pareto::ParetoFront;
use deepsplit_core::fingerprint::CorpusFingerprint;
use deepsplit_core::store::{MemoryModelStore, ModelStore, StoreCounters};
use deepsplit_core::train::{self, TrainedAttack};
use deepsplit_defense::eval::{
    attack_cell, corpus_fingerprint, defended_corpus, EvalBase, EvalOutcome,
};
use deepsplit_defense::service::canonical_train_eval;
use deepsplit_defense::sweep::{Cell, SweepConfig};
use deepsplit_netlist::benchmarks::Benchmark;
use deepsplit_nn::parallel::{default_threads, parallel_map, split_budget};
use deepsplit_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Full configuration of one engine invocation.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The matrix spec, including the shard this process evaluates.
    pub sweep: SweepConfig,
    /// Where to publish per-cell artifacts (and to look for resumable ones).
    pub artifacts_dir: Option<PathBuf>,
    /// Reuse matching artifacts from `artifacts_dir` instead of
    /// re-evaluating their cells.
    pub resume: bool,
    /// Collect per-cell wall-clock breakdowns ([`CellTimings`]): stamped
    /// into artifacts and returned in [`MatrixRun::timings`]. Telemetry
    /// only — never hashed into the protocol fingerprint and never part of
    /// the `--json` report, so a timed run's gated outputs are
    /// byte-identical to an untimed one's.
    pub record_timings: bool,
}

impl EngineConfig {
    /// Plain in-process run of `sweep`: no artifacts, no resume, no timings.
    pub fn new(sweep: SweepConfig) -> EngineConfig {
        EngineConfig {
            sweep,
            artifacts_dir: None,
            resume: false,
            record_timings: false,
        }
    }
}

/// One evaluated cell, tagged with its global matrix index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Index into [`SweepConfig::cells`].
    pub index: usize,
    /// The cell's evaluation result.
    pub outcome: EvalOutcome,
}

/// What one engine invocation did — the cache-effectiveness ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cells in the full matrix.
    pub cells_total: usize,
    /// Cells assigned to this shard.
    pub cells_in_shard: usize,
    /// Cells reloaded from artifacts instead of evaluated.
    pub cells_resumed: usize,
    /// Models actually trained (unique corpus fingerprints missing from the
    /// store).
    pub models_trained: usize,
    /// Training epochs performed — `0` on a fully warm store.
    pub epochs_trained: usize,
    /// Store hit/miss/save counters accumulated by this run.
    pub store: StoreCounters,
}

impl RunStats {
    /// One-line human/CI-greppable summary.
    pub fn summary(&self) -> String {
        format!(
            "cells: {}/{} in shard, {} resumed; store: {} hits, {} misses; trained {} models ({} epochs)",
            self.cells_in_shard,
            self.cells_total,
            self.cells_resumed,
            self.store.hits,
            self.store.misses,
            self.models_trained,
            self.epochs_trained,
        )
    }
}

/// The outcome of one engine invocation: this shard's cells (in global cell
/// order) plus the run ledger.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Evaluated (or resumed) cells, sorted by global index.
    pub cells: Vec<CellResult>,
    /// What it cost.
    pub stats: RunStats,
    /// Per-cell wall-clock breakdowns (global index → timings), sorted by
    /// index. Populated only for freshly evaluated cells of a run with
    /// [`EngineConfig::record_timings`]; resumed cells cost nothing and
    /// report nothing.
    pub timings: Vec<(usize, CellTimings)>,
}

impl MatrixRun {
    /// Whether this run covers the whole matrix (single-shard run).
    pub fn is_full(&self) -> bool {
        self.cells.len() == self.stats.cells_total
    }

    /// The outcomes in cell order.
    pub fn outcomes(&self) -> Vec<EvalOutcome> {
        self.cells.iter().map(|c| c.outcome.clone()).collect()
    }

    /// Renders the `--timings` summary table: one row per timed cell plus a
    /// phase-total footer. Empty string when no timings were recorded.
    pub fn render_timings(&self) -> String {
        if self.timings.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6}  {:<10} {:>5}  {:<10} {:>10}  {:>10}  {:>10}  {:>10}\n",
            "cell",
            "benchmark",
            "layer",
            "defense",
            "corpus_ms",
            "train_ms",
            "attack_ms",
            "publish_ms"
        ));
        let mut total = CellTimings::default();
        for (index, t) in &self.timings {
            let labels = self
                .cells
                .iter()
                .find(|c| c.index == *index)
                .map(|c| {
                    (
                        c.outcome.benchmark.clone(),
                        c.outcome.split_layer,
                        c.outcome.defense.kind.name().to_string(),
                    )
                })
                .unwrap_or_else(|| ("?".to_string(), 0, "?".to_string()));
            out.push_str(&format!(
                "{:>6}  {:<10} {:>5}  {:<10} {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}\n",
                index,
                labels.0,
                labels.1,
                labels.2,
                t.corpus_ms,
                t.train_ms,
                t.attack_ms,
                t.publish_ms
            ));
            total.corpus_ms += t.corpus_ms;
            total.train_ms += t.train_ms;
            total.attack_ms += t.attack_ms;
            total.publish_ms += t.publish_ms;
        }
        out.push_str(&format!(
            "{:>6}  {:<10} {:>5}  {:<10} {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}\n",
            "total", "", "", "", total.corpus_ms, total.train_ms, total.attack_ms, total.publish_ms
        ));
        out
    }
}

/// The stable `--json` regression artifact: full matrix results plus their
/// CCR-vs-overhead Pareto fronts. Byte-identical across cold, cached,
/// resumed and sharded-then-merged runs of the same spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// Every cell, in [`SweepConfig::cells`] order.
    pub results: Vec<EvalOutcome>,
    /// Per-`(benchmark, layer)` Pareto fronts over the results.
    pub pareto: ParetoFront,
}

impl MatrixReport {
    /// Builds the report (computing the Pareto fronts) from full results.
    pub fn new(results: Vec<EvalOutcome>) -> MatrixReport {
        let pareto = ParetoFront::compute(&results);
        MatrixReport { results, pareto }
    }

    /// The canonical pretty-JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError::Serialize`] when the report cannot be
    /// encoded.
    pub fn to_json(&self) -> Result<String, EngineError> {
        serde_json::to_string_pretty(self).map_err(|source| EngineError::Serialize {
            what: "matrix report",
            source,
        })
    }

    /// Parses [`MatrixReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns any serde error.
    pub fn from_json(s: &str) -> serde_json::Result<MatrixReport> {
        serde_json::from_str(s)
    }
}

/// Runs `config`'s shard of the matrix through `store`.
///
/// # Errors
///
/// Returns an [`EngineError`] naming the path involved when the artifacts
/// directory cannot be created or a completed cell's artifact cannot be
/// published — a sharded worker dying on I/O should say *which* path to
/// fix, not unwind the whole process with a bare panic.
///
/// # Panics
///
/// Panics on an invalid shard spec and on an empty training corpus (as
/// [`EvalBase::build`]).
pub fn run(config: &EngineConfig, store: &dyn ModelStore) -> Result<MatrixRun, EngineError> {
    let cells_total = config.sweep.cells().len();
    let selected = config.sweep.shard_cells();
    let cells_in_shard = selected.len();
    let threads = if config.sweep.threads == 0 {
        default_threads()
    } else {
        config.sweep.threads
    };

    if let Some(dir) = &config.artifacts_dir {
        std::fs::create_dir_all(dir).map_err(|source| EngineError::CreateArtifactsDir {
            path: dir.clone(),
            source,
        })?;
    }
    let protocol = artifacts::protocol_fingerprint(&config.sweep);

    // Resume whatever matching artifacts already exist.
    let mut results: Vec<CellResult> = Vec::with_capacity(cells_in_shard);
    let mut pending: Vec<(usize, Cell)> = Vec::new();
    for (index, cell) in selected {
        let prior = match &config.artifacts_dir {
            Some(dir) if config.resume => {
                artifacts::load_artifact(dir, index, cells_total, protocol, &cell)
            }
            _ => None,
        };
        match prior {
            Some(outcome) => results.push(CellResult { index, outcome }),
            None => pending.push((index, cell)),
        }
    }
    let cells_resumed = results.len();
    let counters_before = store.counters();

    // Canonical training config: it records one thread whatever trains the
    // model, so a stored blob is the same bytes at every thread budget. The
    // same canonicalisation is used by the serving layer, so sweep shards
    // and `POST /attack` requests resolve identical cells to identical
    // store keys and blobs.
    let train_eval = canonical_train_eval(&config.sweep.eval);

    // One base implementation per benchmark still pending.
    let mut benches: Vec<Benchmark> = Vec::new();
    for (_, cell) in &pending {
        if !benches.contains(&cell.0) {
            benches.push(cell.0);
        }
    }
    let bases: Vec<EvalBase> = parallel_map(&benches, threads.min(benches.len().max(1)), |&b| {
        EvalBase::build(b, &config.sweep.eval)
    });
    let base_of = |bench: Benchmark| -> &EvalBase {
        bases
            .iter()
            .find(|b| b.benchmark == bench)
            // splint::allow(P1, "bases are built from exactly the benchmarks of `pending` above; a miss is a driver bug that must abort the sweep")
            .expect("base built for every pending benchmark")
    };

    // Phase 1: resolve one model per unique corpus fingerprint.
    let mut fps: Vec<CorpusFingerprint> = Vec::with_capacity(pending.len());
    let mut unique: Vec<(CorpusFingerprint, Cell)> = Vec::new();
    for (_, cell) in &pending {
        let fp = corpus_fingerprint(cell.0, cell.1, &cell.2, &train_eval);
        if !unique.iter().any(|(seen, _)| *seen == fp) {
            unique.push((fp, cell.clone()));
        }
        fps.push(fp);
    }
    let record_timings = config.record_timings;
    // (fingerprint, model, epochs-if-trained, (corpus_ms, train_ms)).
    type Resolved = (CorpusFingerprint, TrainedAttack, Option<usize>, (f64, f64));
    let resolve_plan = split_budget(unique.len(), threads);
    let resolved: Vec<Resolved> = parallel_map(&unique, resolve_plan.outer, |(fp, cell)| {
        let fp = *fp;
        let base = base_of(cell.0);
        let _resolve_span = obs::span("engine.resolve");
        let corpus_ms = std::cell::Cell::new(0.0);
        let resolve_started = record_timings.then(Instant::now);
        let (model, report) =
            train::train_or_load(&fp, store, &train_eval.attack, resolve_plan.inner, || {
                let _span = obs::span("engine.corpus");
                let started = record_timings.then(Instant::now);
                let corpus = defended_corpus(base, cell.1, &cell.2, &train_eval);
                if let Some(s) = started {
                    corpus_ms.set(s.elapsed().as_secs_f64() * 1000.0);
                }
                corpus
            });
        let resolve_ms = resolve_started
            .map(|s| s.elapsed().as_secs_f64() * 1000.0)
            .unwrap_or(0.0);
        // Training cost only exists when this run actually trained;
        // on a store hit `resolve_ms` is just the load, not training.
        let train_ms = if report.is_some() {
            (resolve_ms - corpus_ms.get()).max(0.0)
        } else {
            0.0
        };
        let phase1 = (corpus_ms.get(), train_ms);
        (fp, model, report.map(|r| r.epoch_loss.len()), phase1)
    });
    let models_trained = resolved.iter().filter(|(_, _, e, _)| e.is_some()).count();
    let epochs_trained = resolved.iter().filter_map(|(_, _, e, _)| *e).sum();
    // Phase-1 cost lands on the first cell per unique fingerprint (lookups
    // only — splint D1 bans iterating these maps).
    let phase1_of: HashMap<CorpusFingerprint, (f64, f64)> = resolved
        .iter()
        .map(|(fp, _, _, phase1)| (*fp, *phase1))
        .collect();
    let models: HashMap<CorpusFingerprint, TrainedAttack> = resolved
        .into_iter()
        .map(|(fp, model, _, _)| (fp, model))
        .collect();

    // Phase 2: attack every pending cell, spending the spare thread budget
    // on per-cell inference.
    let plan = split_budget(pending.len(), threads);
    // Phase-1 cost is attributed to the first cell per unique fingerprint —
    // the cell whose corpus the training run actually materialised.
    let mut seen_fps: Vec<CorpusFingerprint> = Vec::new();
    let jobs: Vec<(usize, Cell, CorpusFingerprint, bool)> = pending
        .into_iter()
        .zip(fps)
        .map(|((index, cell), fp)| {
            let first = !seen_fps.contains(&fp);
            if first {
                seen_fps.push(fp);
            }
            (index, cell, fp, first)
        })
        .collect();
    let fresh: Vec<Result<(CellResult, Option<CellTimings>), EngineError>> =
        parallel_map(&jobs, plan.outer, |(index, cell, fp, first)| {
            let base = base_of(cell.0);
            let model = models
                .get(fp)
                .ok_or(EngineError::MissingModel { cell: *index })?;
            let attack_started = record_timings.then(Instant::now);
            let outcome = {
                let _span = obs::span("engine.attack");
                attack_cell(base, cell.1, &cell.2, &config.sweep.eval, model, plan.inner)
            };
            let attack_ms = attack_started
                .map(|s| s.elapsed().as_secs_f64() * 1000.0)
                .unwrap_or(0.0);
            let mut timings = record_timings.then(|| {
                let (corpus_ms, train_ms) = if *first {
                    phase1_of.get(fp).copied().unwrap_or((0.0, 0.0))
                } else {
                    (0.0, 0.0)
                };
                CellTimings {
                    corpus_ms,
                    train_ms,
                    attack_ms,
                    publish_ms: 0.0,
                }
            });
            if let Some(dir) = &config.artifacts_dir {
                let publish_started = record_timings.then(Instant::now);
                {
                    let _span = obs::span("engine.publish");
                    artifacts::write_artifact(
                        dir,
                        *index,
                        cells_total,
                        protocol,
                        &outcome,
                        timings,
                    )?;
                }
                if let (Some(t), Some(s)) = (timings.as_mut(), publish_started) {
                    t.publish_ms = s.elapsed().as_secs_f64() * 1000.0;
                }
            }
            Ok((
                CellResult {
                    index: *index,
                    outcome,
                },
                timings,
            ))
        });
    let mut timings: Vec<(usize, CellTimings)> = Vec::new();
    for cell in fresh {
        let (result, timing) = cell?;
        if let Some(t) = timing {
            timings.push((result.index, t));
        }
        results.push(result);
    }
    results.sort_by_key(|c| c.index);
    timings.sort_by_key(|(index, _)| *index);

    let counters_after = store.counters();
    Ok(MatrixRun {
        cells: results,
        timings,
        stats: RunStats {
            cells_total,
            cells_in_shard,
            cells_resumed,
            models_trained,
            epochs_trained,
            store: StoreCounters {
                hits: counters_after.hits - counters_before.hits,
                misses: counters_after.misses - counters_before.misses,
                saves: counters_after.saves - counters_before.saves,
            },
        },
    })
}

/// Convenience single-process sweep: runs `config`'s shard against a fresh
/// in-memory store (cells sharing a corpus still share one training run)
/// and returns the outcomes in cell order.
pub fn sweep(config: &SweepConfig) -> Vec<EvalOutcome> {
    let store = MemoryModelStore::new();
    run(&EngineConfig::new(config.clone()), &store)
        // splint::allow(P1, "an in-memory sweep writes no artifacts, so the only run() error sources cannot fire")
        .expect("in-memory sweep writes no artifacts, so it cannot fail on I/O")
        .outcomes()
}
