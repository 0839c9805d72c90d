//! The DAC'19 deep-learning attack on split manufacturing.
//!
//! This crate is the paper's primary contribution, built on the substrates in
//! `deepsplit-netlist` (cell library + benchmarks), `deepsplit-layout`
//! (place & route + FEOL/BEOL split), `deepsplit-nn` (the CPU deep-learning
//! framework) and `deepsplit-flow` (the baselines it is compared against):
//!
//! * [`candidates`] — candidate VPP selection with the direction /
//!   non-duplication / distance criteria (§4.1, Table 1, Fig. 3).
//! * [`vector_features`] — the 27 vector features (§3.1).
//! * [`image_features`] — three-scale layout rasters with 2m layer-bit planes
//!   (§3.2, Fig. 2).
//! * [`model`] — the hybrid CNN + residual-MLP network (§4.2, Fig. 4,
//!   Table 2) with softmax-regression and two-class heads.
//! * [`dataset`] — query assembly and image sharing.
//! * [`mod@train`] — Adam + the paper's LR schedule, data-parallel on CPU.
//! * [`mod@attack`] — inference with image-embedding reuse; produces the
//!   assignment evaluated by CCR (Eq. 1).
//! * [`fingerprint`] — stable 128-bit content addresses for training corpora.
//! * [`store`] — content-addressed [`TrainedAttack`] caches (memory / disk /
//!   remote HTTP) keyed by corpus fingerprint, so repeated sweeps skip
//!   re-training. They keep versioned binary blobs
//!   ([`TrainedAttack::to_blob`]).
//! * [`httpc`] — the minimal HTTP/1.1 client behind [`RemoteModelStore`],
//!   shared with the `deepsplit-serve` integration tests and load generator,
//!   and the bounded message reader it shares with the `deepsplit-serve`
//!   server.
//!
//! # Example: train on one design, attack another
//!
//! ```no_run
//! use deepsplit_core::config::AttackConfig;
//! use deepsplit_core::dataset::PreparedDesign;
//! use deepsplit_core::{attack, train};
//! use deepsplit_flow::metrics::ccr;
//! use deepsplit_layout::design::{Design, ImplementConfig};
//! use deepsplit_layout::geom::Layer;
//! use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
//! use deepsplit_netlist::library::CellLibrary;
//!
//! let lib = CellLibrary::nangate45();
//! let config = AttackConfig::fast();
//!
//! let trainer = Design::implement(generate_with(Benchmark::C880, 1.0, 1, &lib),
//!                                 lib.clone(), &ImplementConfig::default());
//! let victim = Design::implement(generate_with(Benchmark::C432, 1.0, 2, &lib),
//!                                lib.clone(), &ImplementConfig::default());
//!
//! let train_data = vec![PreparedDesign::prepare(&trainer, Layer(3), &config)];
//! let (trained, _report) = train::train(&train_data, &config);
//!
//! let victim_data = PreparedDesign::prepare(&victim, Layer(3), &config);
//! let outcome = attack::attack(&trained, &victim_data);
//! println!("CCR = {:.2} %", 100.0 * ccr(&victim_data.view, &outcome.assignment));
//! ```

/// The version of everything that decides a trained model's bits, written
/// into every model blob ([`TrainedAttack::to_blob`]). A blob of another
/// version reads as a store miss, so a store filled by another build never
/// serves stale weights.
///
/// Bump it with any change that moves a trained bit or a stored model's
/// meaning: the netlist generator, placement and routing (the layout),
/// candidate selection or the vector and image features, and the numerics
/// of `deepsplit-nn` (kernels, summation order, layers, losses,
/// optimizer), or of training itself. `train::tests::trained_weights_are_pinned`
/// fails on such a change; the fingerprints of the training corpora do not
/// carry this version.
pub const PIPELINE_VERSION: u32 = 1;

pub mod attack;
pub mod candidates;
pub mod config;
pub mod dataset;
pub mod fingerprint;
pub mod httpc;
pub mod image_features;
pub mod model;
pub mod recover;
pub mod store;
pub mod sync;
pub mod train;
pub mod vector_features;

pub use attack::{
    attack, attack_ranked, attack_with_threads, AttackOutcome, RankedOutcome, RankedQuery,
};
pub use candidates::{select_candidates, Candidate, CandidateSet};
pub use config::AttackConfig;
pub use dataset::PreparedDesign;
pub use fingerprint::{CorpusFingerprint, StableHasher};
pub use model::{AttackModel, LossKind, ModelKind};
pub use recover::{functional_recovery, reconstruct};
pub use store::{DiskModelStore, MemoryModelStore, ModelStore, RemoteModelStore, StoreCounters};
pub use sync::lock_or_recover;
pub use train::{train, train_or_load, train_with_threads, BlobError, TrainReport, TrainedAttack};
pub use vector_features::{Normalizer, VECTOR_DIM};
