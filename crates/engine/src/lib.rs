//! # deepsplit-engine
//!
//! The sweep **engine**: owns the full lifecycle of the attack-vs-defense
//! matrix that `deepsplit-defense` specifies — production-scale execution of
//! the defense × strength × benchmark × split-layer grid.
//!
//! * **Content-addressed model store** — every cell's training corpus gets a
//!   stable 128-bit fingerprint ([`deepsplit_core::fingerprint`]); trained
//!   models are cached in memory or on disk keyed by that fingerprint
//!   ([`deepsplit_core::store`]), so cells sharing a corpus — and entire
//!   repeated sweeps — skip training.
//! * **Shard-aware execution** — the matrix partitions across processes or
//!   machines via [`deepsplit_defense::sweep::SweepConfig::shard`];
//!   completed cells publish resumable
//!   JSON artifacts ([`artifacts`]), and [`merge_artifacts`] reassembles the
//!   full matrix from any combination of shard runs.
//! * **Pareto regression artifacts** — [`MatrixReport`] pairs the full
//!   results with their CCR-vs-PPA-overhead fronts ([`pareto`]), stable and
//!   byte-identical across cold, cached, resumed and sharded runs.
//! * **One clock** — each phase runs in a `deepsplit_obs` span:
//!   `engine.resolve` per unique corpus, `engine.corpus` inside it when the
//!   model trains, then `engine.attack` and (with artifacts)
//!   `engine.publish` per cell. `defense_matrix --timings` totals them by
//!   name and `--trace` keeps them on a timeline; no time reaches a report
//!   or an artifact.
//!
//! ```no_run
//! use deepsplit_core::store::DiskModelStore;
//! use deepsplit_defense::sweep::SweepConfig;
//! use deepsplit_engine::{run, EngineConfig, MatrixReport};
//!
//! let mut config = EngineConfig::new(SweepConfig::fast());
//! config.sweep.shard = (0, 2); // this process: every even cell
//! config.artifacts_dir = Some("matrix-artifacts".into());
//! config.resume = true;        // pick up where an interrupted run stopped
//!
//! let store = DiskModelStore::open("model-store").unwrap();
//! let shard = run(&config, &store).expect("artifact directory is writable");
//! eprintln!("{}", shard.stats.summary());
//!
//! // Once every shard has run (possibly on other machines):
//! let full = deepsplit_engine::merge_artifacts(
//!     std::path::Path::new("matrix-artifacts"),
//!     &config.sweep.cells(),
//!     deepsplit_engine::artifacts::protocol_fingerprint(&config.sweep),
//! )
//! .unwrap();
//! println!("{}", MatrixReport::new(full).to_json().expect("serialise report"));
//! ```

pub mod artifacts;
pub mod pareto;
pub mod run;

pub use artifacts::{merge_artifacts, protocol_fingerprint, CellArtifact, EngineError};
pub use pareto::{ParetoFront, ParetoGroup, ParetoPoint};
pub use run::{run, sweep, CellResult, EngineConfig, MatrixReport, MatrixRun, RunStats};

// The engine's key abstractions live in `deepsplit-core` so `core::train`
// can thread the store through training; re-exported here for callers that
// only know the engine.
pub use deepsplit_core::fingerprint::CorpusFingerprint;
pub use deepsplit_core::store::{DiskModelStore, MemoryModelStore, ModelStore, StoreCounters};
