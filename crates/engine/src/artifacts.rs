//! Resumable per-cell JSON artifacts.
//!
//! Every completed cell is published as `cell-<index>.json` in the run's
//! artifact directory (atomically: temp file + rename, so concurrent shards
//! may share one directory). A `--resume` run reloads whatever is already
//! there instead of re-evaluating, and the merge step reassembles the full
//! matrix from any combination of shard runs.

use deepsplit_core::fingerprint::{CorpusFingerprint, StableHasher};
use deepsplit_core::store::try_atomic_publish;
use deepsplit_defense::eval::EvalOutcome;
use deepsplit_defense::sweep::{Cell, SweepConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Why an engine invocation failed. Every variant names the path (or value)
/// involved, so a worker failing deep inside a sharded sweep reports *what*
/// broke — not just that something panicked somewhere.
#[derive(Debug)]
pub enum EngineError {
    /// The artifacts directory could not be created.
    CreateArtifactsDir {
        /// The directory that was being created.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A completed cell's artifact could not be published.
    WriteArtifact {
        /// The artifact file that was being written.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A report or artifact could not be serialised.
    Serialize {
        /// What was being serialised.
        what: &'static str,
        /// The underlying serde error.
        source: serde_json::Error,
    },
    /// A cell referenced a corpus fingerprint phase 1 never resolved — a
    /// driver bug, surfaced as an error instead of a worker panic.
    MissingModel {
        /// Matrix index of the affected cell.
        cell: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CreateArtifactsDir { path, source } => {
                write!(f, "create artifacts directory {}: {source}", path.display())
            }
            EngineError::WriteArtifact { path, source } => {
                write!(f, "write cell artifact {}: {source}", path.display())
            }
            EngineError::Serialize { what, source } => {
                write!(f, "serialise {what}: {source}")
            }
            EngineError::MissingModel { cell } => {
                write!(
                    f,
                    "cell {cell}: no resolved model for its corpus fingerprint"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::CreateArtifactsDir { source, .. }
            | EngineError::WriteArtifact { source, .. } => Some(source),
            EngineError::Serialize { source, .. } => Some(source),
            EngineError::MissingModel { .. } => None,
        }
    }
}

/// The on-disk form of one completed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellArtifact {
    /// Global index in [`SweepConfig::cells`].
    pub index: usize,
    /// Total cell count of the matrix the artifact belongs to.
    pub total: usize,
    /// The evaluation protocol the result was produced under
    /// ([`protocol_fingerprint`]); cell coordinates alone don't pin the
    /// scores.
    pub protocol: CorpusFingerprint,
    /// The cell's evaluation result.
    pub outcome: EvalOutcome,
}

/// Stable identity of everything a cell's scores depend on *beyond* its
/// coordinates: the full evaluation protocol and the defense seed. Resuming
/// or merging only accepts artifacts stamped with the same protocol, so a
/// re-run with, say, `--images` (same matrix shape, different scores) can
/// never silently reuse vector-only results.
///
/// The attack thread count is canonicalised out: engine results are
/// thread-invariant (training is pinned, inference is order-preserving), so
/// a different thread budget must not orphan artifacts.
pub fn protocol_fingerprint(config: &SweepConfig) -> CorpusFingerprint {
    let mut eval = config.eval.clone();
    eval.attack.threads = 0;
    let mut h = StableHasher::new();
    h.write_str(&serde_json::to_string(&eval).expect("serialise eval config"));
    h.write_u64(config.defense_seed);
    h.finish()
}

fn artifact_name(index: usize) -> String {
    format!("cell-{index:06}.json")
}

/// The artifact path of cell `index`.
pub(crate) fn artifact_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(artifact_name(index))
}

/// Atomically publishes one completed cell (via
/// [`deepsplit_core::store::try_atomic_publish`]).
///
/// # Errors
///
/// Returns an [`EngineError`] naming the artifact path when serialisation or
/// the write fails — losing resume state silently would make an interrupted
/// run unrecoverable, and a bare panic would not say *which* path to fix.
pub(crate) fn write_artifact(
    dir: &Path,
    index: usize,
    total: usize,
    protocol: CorpusFingerprint,
    outcome: &EvalOutcome,
) -> Result<(), EngineError> {
    let artifact = CellArtifact {
        index,
        total,
        protocol,
        outcome: outcome.clone(),
    };
    let json =
        serde_json::to_string_pretty(&artifact).map_err(|source| EngineError::Serialize {
            what: "cell artifact",
            source,
        })?;
    try_atomic_publish(dir, &artifact_name(index), &json).map_err(|source| {
        EngineError::WriteArtifact {
            path: artifact_path(dir, index),
            source,
        }
    })
}

/// Loads cell `index` if a valid artifact for exactly this
/// `(matrix, protocol, cell)` exists. A missing, unparsable or mismatched
/// artifact (different matrix size, evaluation protocol, benchmark, layer,
/// defense kind or strength — e.g. left over from a differently-configured
/// sweep in the same directory) returns `None`, and the cell is simply
/// re-evaluated.
pub(crate) fn load_artifact(
    dir: &Path,
    index: usize,
    total: usize,
    protocol: CorpusFingerprint,
    cell: &Cell,
) -> Option<EvalOutcome> {
    let json = std::fs::read_to_string(artifact_path(dir, index)).ok()?;
    let artifact: CellArtifact = serde_json::from_str(&json).ok()?;
    let (bench, layer, defense) = cell;
    let matches = artifact.index == index
        && artifact.total == total
        && artifact.protocol == protocol
        && artifact.outcome.benchmark == bench.name()
        && artifact.outcome.split_layer == layer.0
        && artifact.outcome.defense.kind == defense.kind
        && artifact.outcome.defense.strength.to_bits() == defense.strength.to_bits();
    matches.then_some(artifact.outcome)
}

/// Reassembles the full matrix from `dir`, in cell order.
///
/// # Errors
///
/// Lists every missing or mismatched cell, so an operator can see which
/// shard still has to run (or re-run) before the merge can succeed.
pub fn merge_artifacts(
    dir: &Path,
    cells: &[Cell],
    protocol: CorpusFingerprint,
) -> Result<Vec<EvalOutcome>, String> {
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut missing = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        match load_artifact(dir, index, cells.len(), protocol, cell) {
            Some(outcome) => outcomes.push(outcome),
            None => missing.push(index),
        }
    }
    if missing.is_empty() {
        Ok(outcomes)
    } else {
        Err(format!(
            "{} of {} cells missing or mismatched in {}: {:?}",
            missing.len(),
            cells.len(),
            dir.display(),
            missing
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_defense::eval::AttackScores;
    use deepsplit_defense::{DefenseConfig, DefenseKind, DefenseStats};
    use deepsplit_layout::geom::Layer;
    use deepsplit_netlist::benchmarks::Benchmark;

    fn outcome(bench: &str, layer: u8, kind: DefenseKind, strength: f64) -> EvalOutcome {
        EvalOutcome {
            benchmark: bench.to_string(),
            split_layer: layer,
            defense: DefenseStats {
                kind,
                strength,
                swapped_cells: 0,
                lifted_nets: 0,
                decoy_vias: 0,
                detoured_nets: 0,
                equalized_cells: 0,
                camo_cells: 0,
                base_wirelength: 100,
                defended_wirelength: 110,
                base_vias: 10,
                defended_vias: 12,
                base_beol_wirelength: 50,
                defended_beol_wirelength: 60,
            },
            scores: AttackScores {
                sink_fragments: 4,
                source_fragments: 5,
                dl_ccr: 0.25,
                flow_ccr: Some(0.5),
                proximity_ccr: 0.4,
                chance_ccr: 0.2,
                recovery: 0.75,
            },
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deepsplit-artifacts-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn artifact_round_trip_and_validation() {
        let dir = tempdir("roundtrip");
        let protocol = CorpusFingerprint([7, 8]);
        let cell: Cell = (
            Benchmark::C432,
            Layer(3),
            DefenseConfig {
                kind: DefenseKind::Lift,
                strength: 1.0,
                seed: 11,
            },
        );
        let out = outcome("c432", 3, DefenseKind::Lift, 1.0);
        write_artifact(&dir, 1, 2, protocol, &out).expect("write artifact");
        assert_eq!(load_artifact(&dir, 1, 2, protocol, &cell), Some(out));
        // Wrong matrix size, protocol, layer or defense → not resumable.
        assert_eq!(load_artifact(&dir, 1, 3, protocol, &cell), None);
        assert_eq!(
            load_artifact(&dir, 1, 2, CorpusFingerprint([7, 9]), &cell),
            None,
            "a changed evaluation protocol must invalidate the artifact"
        );
        let other = (Benchmark::C432, Layer(1), cell.2.clone());
        assert_eq!(load_artifact(&dir, 1, 2, protocol, &other), None);
        let weaker = (
            Benchmark::C432,
            Layer(3),
            DefenseConfig {
                strength: 0.5,
                ..cell.2.clone()
            },
        );
        assert_eq!(load_artifact(&dir, 1, 2, protocol, &weaker), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The fast sweep's protocol. It must only ever move on purpose: a moved
    /// protocol orphans every artifact an interrupted run left behind.
    #[test]
    fn fast_sweep_protocol_fingerprint_is_pinned() {
        assert_eq!(
            protocol_fingerprint(&SweepConfig::fast()).to_hex(),
            "fd598fe3ab10db3e5c704d1436577f00"
        );
    }

    #[test]
    fn protocol_fingerprint_tracks_eval_and_seed_but_not_threads() {
        let config = SweepConfig::fast();
        let base = protocol_fingerprint(&config);

        let mut images = config.clone();
        images.eval.attack.use_images = true;
        assert_ne!(base, protocol_fingerprint(&images));

        let mut seed = config.clone();
        seed.defense_seed += 1;
        assert_ne!(base, protocol_fingerprint(&seed));

        // Results are thread-invariant, so the budget must not orphan
        // artifacts.
        let mut threads = config.clone();
        threads.eval.attack.threads = 7;
        threads.threads = 3;
        assert_eq!(base, protocol_fingerprint(&threads));
    }

    /// Cell 1 as a run with `--timings` published it before the timings
    /// left the artifact: the same fields plus a `timings` block.
    const TIMED_ARTIFACT: &str = r#"{
  "index": 1,
  "total": 2,
  "protocol": "00000000000000070000000000000008",
  "outcome": {
    "benchmark": "c432",
    "split_layer": 3,
    "defense": {
      "kind": "Lift",
      "strength": 1.0,
      "swapped_cells": 0,
      "lifted_nets": 0,
      "decoy_vias": 0,
      "detoured_nets": 0,
      "equalized_cells": 0,
      "camo_cells": 0,
      "base_wirelength": 100,
      "defended_wirelength": 110,
      "base_vias": 10,
      "defended_vias": 12,
      "base_beol_wirelength": 50,
      "defended_beol_wirelength": 60
    },
    "scores": {
      "sink_fragments": 4,
      "source_fragments": 5,
      "dl_ccr": 0.25,
      "flow_ccr": 0.5,
      "proximity_ccr": 0.4,
      "chance_ccr": 0.2,
      "recovery": 0.75
    }
  },
  "timings": {
    "corpus_ms": 12.5,
    "train_ms": 800.0,
    "attack_ms": 40.0,
    "publish_ms": 0.0
  }
}"#;

    #[test]
    fn artifacts_with_a_timings_block_still_resume_and_merge() {
        let dir = tempdir("timed");
        let protocol = CorpusFingerprint([7, 8]);
        let cells: Vec<Cell> = vec![
            (Benchmark::C432, Layer(3), DefenseConfig::none()),
            (
                Benchmark::C432,
                Layer(3),
                DefenseConfig {
                    kind: DefenseKind::Lift,
                    strength: 1.0,
                    seed: 11,
                },
            ),
        ];
        std::fs::write(artifact_path(&dir, 1), TIMED_ARTIFACT).expect("write timed artifact");
        let lifted = outcome("c432", 3, DefenseKind::Lift, 1.0);
        assert_eq!(
            load_artifact(&dir, 1, 2, protocol, &cells[1]),
            Some(lifted.clone())
        );
        let baseline = outcome("c432", 3, DefenseKind::None, 0.0);
        write_artifact(&dir, 0, 2, protocol, &baseline).expect("write artifact");
        assert_eq!(
            merge_artifacts(&dir, &cells, protocol).unwrap(),
            vec![baseline, lifted]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_reports_missing_cells() {
        let dir = tempdir("merge");
        let cells: Vec<Cell> = vec![
            (Benchmark::C432, Layer(3), DefenseConfig::none()),
            (
                Benchmark::C432,
                Layer(3),
                DefenseConfig {
                    kind: DefenseKind::Lift,
                    strength: 1.0,
                    seed: 11,
                },
            ),
        ];
        let protocol = CorpusFingerprint([3, 4]);
        let baseline = outcome("c432", 3, DefenseKind::None, 0.0);
        write_artifact(&dir, 0, 2, protocol, &baseline).expect("write artifact");
        let err = merge_artifacts(&dir, &cells, protocol).unwrap_err();
        assert!(err.contains("[1]"), "must name the missing cell: {err}");
        let lifted = outcome("c432", 3, DefenseKind::Lift, 1.0);
        write_artifact(&dir, 1, 2, protocol, &lifted).expect("write artifact");
        assert_eq!(
            merge_artifacts(&dir, &cells, protocol).unwrap(),
            vec![baseline, lifted]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
