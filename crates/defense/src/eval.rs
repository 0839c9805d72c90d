//! One cell of the attack-vs-defense matrix: implement a benchmark, defend
//! it, re-train the DL attack on an *equally defended* corpus, and run all
//! three attackers against the defended victim.
//!
//! The adaptive-attacker protocol matters: the DAC'19 threat model grants the
//! attacker a training database generated "in a similar manner" to the victim
//! layout, so a defense is only as good as its CCR against a model that has
//! seen the defense during training. Evaluating a defended layout against an
//! undefended model would overstate every defense.

use crate::{apply, DefenseConfig, DefenseStats};
use deepsplit_core::attack::attack_with_threads;
use deepsplit_core::config::AttackConfig;
use deepsplit_core::dataset::PreparedDesign;
use deepsplit_core::fingerprint::{CorpusFingerprint, StableHasher};
use deepsplit_core::recover::functional_recovery;
use deepsplit_core::train;
use deepsplit_core::train::TrainedAttack;
use deepsplit_flow::attack::{network_flow_attack, FlowAttackConfig, FlowOutcome};
use deepsplit_flow::metrics::ccr;
use deepsplit_flow::proximity::proximity_attack;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::{self, Benchmark};
use deepsplit_netlist::library::CellLibrary;
use serde::{Deserialize, Serialize};

/// Evaluation-protocol configuration shared by every matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// DL attack settings (images, candidates, epochs, …).
    pub attack: AttackConfig,
    /// Physical-implementation settings for victim and corpus layouts.
    pub implement: ImplementConfig,
    /// Network-flow baseline settings.
    pub flow: FlowAttackConfig,
    /// Corpus benchmarks the attack re-trains on (a benchmark equal to the
    /// victim is skipped — the attacker trains on *other* designs).
    pub train_benchmarks: Vec<Benchmark>,
    /// Generator scale factor for all layouts.
    pub scale: f64,
    /// Seed base for corpus layouts (corpus design `i` uses `train_seed + i`).
    pub train_seed: u64,
    /// Seed for the victim layout (distinct from every corpus seed).
    pub victim_seed: u64,
    /// Per-corpus-design cap on training queries.
    pub train_query_cap: usize,
    /// Random-simulation rounds for functional recovery.
    pub recovery_rounds: usize,
}

impl EvalConfig {
    /// CPU-friendly protocol: vector features only, small corpus, scaled-down
    /// layouts. The defense ordering this produces matches the full protocol;
    /// absolute CCRs are a few points below the image model's.
    pub fn fast() -> EvalConfig {
        EvalConfig {
            attack: AttackConfig {
                use_images: false,
                candidates: 12,
                epochs: 10,
                batch_size: 16,
                ..AttackConfig::fast()
            },
            implement: ImplementConfig::default(),
            flow: FlowAttackConfig::default(),
            train_benchmarks: vec![Benchmark::C880, Benchmark::C1355],
            scale: 0.5,
            train_seed: 7101,
            victim_seed: 9202,
            train_query_cap: 250,
            recovery_rounds: 16,
        }
    }
}

/// The attacker-side numbers of one defended (or baseline) layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackScores {
    /// Broken sink fragments (`#Sk`).
    pub sink_fragments: usize,
    /// Source fragments offered to the matching (`#Sc`, including any decoys).
    pub source_fragments: usize,
    /// DL attack CCR in `[0, 1]`.
    pub dl_ccr: f64,
    /// Network-flow CCR; `None` = timed out.
    pub flow_ccr: Option<f64>,
    /// Naïve proximity CCR.
    pub proximity_ccr: f64,
    /// Random-guess CCR floor (`1 / #Sc`).
    pub chance_ccr: f64,
    /// Functional agreement of the netlist rebuilt from the DL assignment.
    pub recovery: f64,
}

/// One matrix cell: what the defense cost and what every attacker scored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Victim benchmark name.
    pub benchmark: String,
    /// Split layer (`3` = split after M3).
    pub split_layer: u8,
    /// Defense ledger (kind, strength, swaps/lifts/decoys, PPA overhead).
    pub defense: DefenseStats,
    /// Attack results against the defended victim.
    pub scores: AttackScores,
}

/// The defense-independent base implementations shared by every matrix cell
/// of one victim benchmark: the undefended victim layout and the attacker's
/// undefended corpus layouts. Place-and-route dominates cell cost, so the
/// sweep builds one of these per benchmark instead of re-implementing the
/// same layouts for every defense × strength × layer cell.
#[derive(Debug, Clone)]
pub struct EvalBase {
    /// Victim benchmark.
    pub benchmark: Benchmark,
    /// Undefended victim implementation.
    pub victim: Design,
    /// Undefended corpus implementations (victim benchmark excluded).
    pub corpus: Vec<Design>,
}

impl EvalBase {
    /// Implements the victim and corpus layouts once under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.train_benchmarks` leaves an empty corpus after
    /// excluding the victim benchmark — the adaptive attacker needs
    /// something to train on.
    pub fn build(bench: Benchmark, cfg: &EvalConfig) -> EvalBase {
        let lib = CellLibrary::nangate45();
        let victim_nl = benchmarks::generate_with(bench, cfg.scale, cfg.victim_seed, &lib);
        let victim = Design::implement(victim_nl, lib.clone(), &cfg.implement);
        let corpus: Vec<Design> = cfg
            .train_benchmarks
            .iter()
            .filter(|&&tb| tb != bench)
            .enumerate()
            .map(|(i, &tb)| {
                let nl = benchmarks::generate_with(tb, cfg.scale, cfg.train_seed + i as u64, &lib);
                Design::implement(nl, lib.clone(), &cfg.implement)
            })
            .collect();
        assert!(
            !corpus.is_empty(),
            "empty training corpus: train_benchmarks must contain a benchmark other than the victim"
        );
        EvalBase {
            benchmark: bench,
            victim,
            corpus,
        }
    }
}

/// Evaluates one `(benchmark, split layer, defense)` cell under `cfg`,
/// implementing the base layouts from scratch. Sweeps over many cells of the
/// same benchmark should build an [`EvalBase`] once and call
/// [`evaluate_base`] instead.
///
/// # Panics
///
/// Panics as [`EvalBase::build`] does.
pub fn evaluate(
    bench: Benchmark,
    split_layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
) -> EvalOutcome {
    evaluate_base(&EvalBase::build(bench, cfg), split_layer, defense, cfg)
}

/// Evaluates one cell against pre-implemented base layouts: trains on the
/// defended corpus, then runs every attacker. Orchestrated sweeps (the
/// `deepsplit-engine` crate) call the two phases separately so a model-store
/// hit can skip [`defended_corpus`] and training entirely.
pub fn evaluate_base(
    base: &EvalBase,
    split_layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
) -> EvalOutcome {
    let corpus = defended_corpus(base, split_layer, defense, cfg);
    let (trained, _) = train::train(&corpus, &cfg.attack);
    attack_cell(
        base,
        split_layer,
        defense,
        cfg,
        &trained,
        cfg.attack.effective_threads(),
    )
}

/// Training phase of one cell: the adaptive attacker's corpus, carrying the
/// same defense as the victim, prepared for [`deepsplit_core::train::train`].
pub fn defended_corpus(
    base: &EvalBase,
    split_layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
) -> Vec<PreparedDesign> {
    base.corpus
        .iter()
        .map(|d| {
            let dd = apply(d, &cfg.implement, split_layer, defense);
            let mut p = PreparedDesign::prepare(&dd.design, split_layer, &cfg.attack);
            p.truncate_queries(cfg.train_query_cap, cfg.train_seed);
            p
        })
        .collect()
}

/// Content address of the corpus a cell's model is trained on: everything
/// that shapes the trained weights — the attack configuration, the
/// physical-implementation settings, the defense, the split layer, and the
/// exact `(benchmark, seed)` corpus list after victim exclusion.
///
/// The thread count is hashed as 1, whatever `cfg` says: training gives the
/// same bits at every thread count, so it cannot key a model. Hashing it as
/// 1 keeps the keys of stores filled when training was pinned to one
/// thread.
///
/// Equal fingerprints train bit-identical models, so this keys the
/// [`deepsplit_core::store::ModelStore`]: cells of *different* victims that
/// share a corpus (same defense, strength and layer, same surviving training
/// designs) resolve to one training run.
pub fn corpus_fingerprint(
    victim: Benchmark,
    split_layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
) -> CorpusFingerprint {
    let mut attack = cfg.attack.clone();
    attack.threads = 1;
    let json = |label: &str, s: serde_json::Result<String>| -> String {
        s.unwrap_or_else(|e| panic!("serialise {label} for fingerprint: {e}"))
    };
    let mut h = StableHasher::new();
    h.write_str(&json("attack config", serde_json::to_string(&attack)));
    h.write_str(&json(
        "implement config",
        serde_json::to_string(&cfg.implement),
    ));
    h.write_str(&json("defense config", serde_json::to_string(defense)));
    h.write_u64(u64::from(split_layer.0));
    h.write_f64(cfg.scale);
    h.write_u64(cfg.train_seed);
    h.write_usize(cfg.train_query_cap);
    for (i, tb) in cfg
        .train_benchmarks
        .iter()
        .filter(|&&tb| tb != victim)
        .enumerate()
    {
        h.write_str(tb.name());
        h.write_u64(cfg.train_seed + i as u64);
    }
    h.finish()
}

/// Attack phase of one cell: defends the victim and runs the trained DL
/// attack plus the network-flow, proximity and functional-recovery
/// evaluations, with `threads` workers for DL inference.
///
/// Inference is thread-count invariant, so `threads` is a scheduling choice
/// (see [`deepsplit_nn::parallel::split_budget`]), not part of the result.
pub fn attack_cell(
    base: &EvalBase,
    split_layer: Layer,
    defense: &DefenseConfig,
    cfg: &EvalConfig,
    trained: &TrainedAttack,
    threads: usize,
) -> EvalOutcome {
    let defended = apply(&base.victim, &cfg.implement, split_layer, defense);
    let victim = PreparedDesign::prepare(&defended.design, split_layer, &cfg.attack);
    let outcome = attack_with_threads(trained, &victim, threads);
    let dl_ccr = ccr(&victim.view, &outcome.assignment);

    let proximity_ccr = ccr(&victim.view, &proximity_attack(&victim.view));
    let flow_ccr = match network_flow_attack(
        &victim.view,
        &defended.design.netlist,
        &defended.design.library,
        &cfg.flow,
    ) {
        FlowOutcome::Completed(a) => Some(ccr(&victim.view, &a)),
        FlowOutcome::TimedOut => None,
    };
    let recovery = functional_recovery(
        &defended.design,
        &victim.view,
        &outcome.assignment,
        cfg.recovery_rounds,
        cfg.victim_seed,
    );

    EvalOutcome {
        benchmark: base.benchmark.name().to_string(),
        split_layer: split_layer.0,
        defense: defended.stats,
        scores: AttackScores {
            sink_fragments: victim.view.num_sink_fragments(),
            source_fragments: victim.view.num_source_fragments(),
            dl_ccr,
            flow_ccr,
            proximity_ccr,
            chance_ccr: 1.0 / victim.view.num_source_fragments().max(1) as f64,
            recovery,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefenseKind;

    fn tiny() -> EvalConfig {
        EvalConfig {
            attack: AttackConfig {
                use_images: false,
                candidates: 8,
                epochs: 6,
                batch_size: 16,
                threads: 2,
                ..AttackConfig::fast()
            },
            scale: 0.4,
            train_benchmarks: vec![Benchmark::C880],
            recovery_rounds: 8,
            ..EvalConfig::fast()
        }
    }

    #[test]
    fn baseline_cell_reports_consistent_scores() {
        let out = evaluate(Benchmark::C432, Layer(3), &DefenseConfig::none(), &tiny());
        assert_eq!(out.benchmark, "c432");
        assert_eq!(out.split_layer, 3);
        assert_eq!(out.defense.kind, DefenseKind::None);
        assert_eq!(out.defense.cost_overhead_pct(), 0.0);
        let s = &out.scores;
        assert!(s.sink_fragments > 0 && s.source_fragments > 0);
        for v in [s.dl_ccr, s.proximity_ccr, s.chance_ccr, s.recovery] {
            assert!((0.0..=1.0).contains(&v), "score {v} outside [0, 1]");
        }
        if let Some(f) = s.flow_ccr {
            assert!((0.0..=1.0).contains(&f));
        }
        // The trained attack must beat chance on an undefended layout.
        assert!(s.dl_ccr > 2.0 * s.chance_ccr);
    }

    /// Pins the store keys of two default-sweep cells, c432/M3 undefended
    /// and lifted at 0.5. A key that moves orphans every stored model, so
    /// it must only ever move on purpose.
    #[test]
    fn store_keys_are_pinned() {
        let eval = crate::service::canonical_train_eval(&EvalConfig::fast());
        let lift = DefenseConfig {
            kind: DefenseKind::Lift,
            strength: 0.5,
            seed: 11,
        };
        for (defense, pinned) in [
            (DefenseConfig::none(), "2c86b60226a51efb2e3340772983ec49"),
            (lift, "421d322e63886d4c9148b35f7238519a"),
        ] {
            let fp = corpus_fingerprint(Benchmark::C432, Layer(3), &defense, &eval);
            assert_eq!(fp.to_hex(), pinned, "{:?}", defense.kind);
        }
    }

    #[test]
    fn fingerprint_tracks_everything_that_shapes_the_model() {
        let cfg = tiny();
        let lift = DefenseConfig {
            kind: DefenseKind::Lift,
            strength: 1.0,
            seed: 11,
        };
        let base = corpus_fingerprint(Benchmark::C432, Layer(3), &DefenseConfig::none(), &cfg);
        assert_ne!(
            base,
            corpus_fingerprint(Benchmark::C432, Layer(3), &lift, &cfg),
            "defense must change the fingerprint"
        );
        // Every defense kind — including the follow-on defenses — keys a
        // distinct corpus, so no two kinds can ever share a cached model.
        let mut kind_prints: Vec<CorpusFingerprint> = DefenseKind::all()
            .into_iter()
            .map(|kind| {
                let defense = DefenseConfig {
                    kind,
                    strength: 1.0,
                    seed: 11,
                };
                corpus_fingerprint(Benchmark::C432, Layer(3), &defense, &cfg)
            })
            .collect();
        kind_prints.sort();
        kind_prints.dedup();
        assert_eq!(
            kind_prints.len(),
            DefenseKind::all().len(),
            "every defense kind must produce a unique fingerprint"
        );
        assert_ne!(
            base,
            corpus_fingerprint(Benchmark::C432, Layer(2), &DefenseConfig::none(), &cfg),
            "split layer must change the fingerprint"
        );
        let mut more_epochs = cfg.clone();
        more_epochs.attack.epochs += 1;
        assert_ne!(
            base,
            corpus_fingerprint(
                Benchmark::C432,
                Layer(3),
                &DefenseConfig::none(),
                &more_epochs
            ),
            "attack config must change the fingerprint"
        );
        let mut threads = cfg.clone();
        threads.attack.threads = 5;
        assert_eq!(
            base,
            corpus_fingerprint(Benchmark::C432, Layer(3), &DefenseConfig::none(), &threads),
            "training thread count shapes no weight, so it must not be keyed"
        );
        // Victims outside the training list leave the corpus — and therefore
        // the model — unchanged: the fingerprints coincide and one training
        // run serves both cells.
        assert_eq!(
            base,
            corpus_fingerprint(Benchmark::C1908, Layer(3), &DefenseConfig::none(), &cfg)
        );
        // A victim inside the training list shrinks the corpus.
        assert_ne!(
            base,
            corpus_fingerprint(Benchmark::C880, Layer(3), &DefenseConfig::none(), &cfg)
        );
    }

    #[test]
    #[should_panic(expected = "empty training corpus")]
    fn victim_benchmark_is_excluded_from_corpus() {
        // Training on the victim itself would leak, so the victim is dropped
        // from the corpus — leaving nothing here, which must fail loudly
        // rather than silently train on the layout under attack.
        let mut cfg = tiny();
        cfg.train_benchmarks = vec![Benchmark::C432];
        evaluate(Benchmark::C432, Layer(3), &DefenseConfig::none(), &cfg);
    }
}
