//! Wire types of the attack-inference service.
//!
//! The `deepsplit-serve` crate exposes the attack as an online adversary: a
//! client POSTs a serialized FEOL cell spec ([`AttackRequest`] — which
//! victim, where it was split, what defense it carries and under which
//! evaluation protocol) and receives ranked candidate matches with
//! CCR-style confidences ([`AttackResponse`]). The types live here, next to
//! [`DefenseConfig`] and [`EvalConfig`], so the defense harness, the sweep
//! engine and the HTTP layer all speak the same schema — the serve crate
//! adds transport, not vocabulary.
//!
//! Model identity is shared with the sweep engine through
//! [`canonical_train_eval`]: both record and fingerprint the same canonical
//! config, so a model trained by a `defense_matrix` shard and one trained by
//! the server for the same cell resolve to the *same* [`CorpusFingerprint`]
//! and store the same bytes — a sweep can warm the cache an online service
//! then answers from, and vice versa.

use crate::eval::{corpus_fingerprint, EvalConfig};
use crate::DefenseConfig;
use deepsplit_core::attack::RankedOutcome;
use deepsplit_core::fingerprint::CorpusFingerprint;
use deepsplit_flow::attack::FlowOutcome;
use deepsplit_layout::geom::Layer;
use deepsplit_layout::split::SplitView;
use deepsplit_netlist::benchmarks::Benchmark;
use serde::{Deserialize, Serialize};

/// The training-time evaluation protocol of a cell: `eval` with the attack
/// thread count set to one. Training gives the same weights at every
/// thread count, but a stored model records its config, so a cacheable
/// model records this canonical one and trains on whatever threads its
/// resolver has (`deepsplit_core::train::train_with_threads`): its blob is
/// then the same bytes whichever machine, sweep shape or server trained
/// it. Every component that fingerprints or trains a model goes through
/// this one definition.
pub fn canonical_train_eval(eval: &EvalConfig) -> EvalConfig {
    let mut train_eval = eval.clone();
    train_eval.attack.threads = 1;
    train_eval
}

/// Most training epochs a request may ask for (the paper trains 60).
pub const MAX_EPOCHS: usize = 100;
/// Most candidate VPPs per sink a request may ask for (the paper uses 31).
/// At least two are needed: a query with one candidate trains nothing.
pub const MAX_CANDIDATES: usize = 64;
/// Largest mini-batch a request may ask for (the paper uses 16).
pub const MAX_BATCH_SIZE: usize = 64;
/// Largest image side a request may ask for, in pixels (the paper uses 99).
pub const MAX_IMAGE_PX: usize = 128;
/// Most image scales a request may list: as many as `AttackConfig::{paper,
/// fast}` and every request profile of the repo use. Each scale adds `2m`
/// channels to every rendered image of an `m`-layer FEOL.
pub const MAX_IMAGE_SCALES: usize = 3;
/// Pixel sizes a request may ask for, in µm (the paper uses 0.05–0.2). The
/// lower end is one database unit, so a pixel never rounds to zero; the
/// upper end keeps `um(scale) · image_px` far inside `i64`.
pub(crate) const IMAGE_SCALE_RANGE_UM: std::ops::RangeInclusive<f64> = 0.001..=10.0;
/// Most training benchmarks a request may list: as many as there are
/// benchmarks, so every corpus of the repo and a leave-one-out corpus over
/// `Benchmark::all()` fit. A cold resolve builds and trains on each.
pub const MAX_TRAIN_BENCHMARKS: usize = 16;
/// Most placer sweeps a request may ask for (the default placer runs 24).
/// Each sweep moves every cell of every layout the request builds.
pub(crate) const MAX_PLACER_ITERATIONS: usize = 100;
/// Most annealing moves per cell a request may ask for (the default placer
/// makes 12): a layout makes this many times its cell count.
pub(crate) const MAX_ANNEAL_MOVES_PER_CELL: usize = 64;
/// Most tracks a request's router may shift a trunk (the default shifts up
/// to 6): every trunk of every layout probes up to twice this many tracks.
pub(crate) const MAX_TRACK_SHIFT: i64 = 32;
/// Most rip-up rounds a request's network-flow baseline may run (the default
/// runs 4); each round solves a min-cost flow over the victim.
pub(crate) const MAX_FLOW_ITERATIONS: usize = 16;

/// A serialized FEOL cell spec: what `POST /attack` accepts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackRequest {
    /// Victim benchmark name (see `Benchmark::from_name`).
    pub benchmark: String,
    /// Split layer (`3` = split after M3).
    pub split_layer: u8,
    /// The defense the victim carries (and the corpus is re-trained under —
    /// the adaptive-attacker protocol).
    pub defense: DefenseConfig,
    /// Evaluation protocol: attack settings, implementation settings, corpus
    /// benchmarks and seeds.
    pub eval: EvalConfig,
    /// Ranked candidates returned per sink fragment (`0` = all).
    pub top_k: usize,
    /// Also run the network-flow baseline against the victim (slower).
    pub include_flow: bool,
    /// Self-reported client identity, used as the detection key by servers
    /// running the query-stream adversary detector (absent → the peer IP).
    /// Optional and absent on the wire by default, so pre-existing clients
    /// are unaffected.
    pub client: Option<String>,
}

impl AttackRequest {
    /// A fast-profile request for `benchmark`, undefended, split after M3.
    pub fn fast(benchmark: Benchmark) -> AttackRequest {
        AttackRequest {
            benchmark: benchmark.name().to_string(),
            split_layer: 3,
            defense: DefenseConfig::none(),
            eval: EvalConfig::fast(),
            top_k: 5,
            include_flow: false,
            client: None,
        }
    }

    /// The victim benchmark, if the name is known.
    pub fn victim(&self) -> Option<Benchmark> {
        Benchmark::from_name(&self.benchmark)
    }

    /// The split layer as the layout crate's type.
    pub fn layer(&self) -> Layer {
        Layer(self.split_layer)
    }

    /// Checks everything a server should refuse with `400 Bad Request`
    /// instead of panicking mid-evaluation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let victim = self
            .victim()
            .ok_or_else(|| format!("unknown benchmark `{}`", self.benchmark))?;
        within("defense strength", self.defense.strength, 0.0..=1.0)?;
        let layers = self.eval.implement.router.num_layers;
        if self.split_layer < 1 || self.split_layer >= layers {
            return Err(format!(
                "split layer M{} must leave at least one BEOL layer (router has {layers} layers)",
                self.split_layer
            ));
        }
        let listed = self.eval.train_benchmarks.len();
        if listed > MAX_TRAIN_BENCHMARKS {
            return Err(format!(
                "{listed} train_benchmarks, at most {MAX_TRAIN_BENCHMARKS}"
            ));
        }
        if !self.eval.train_benchmarks.iter().any(|&tb| tb != victim) {
            return Err(format!(
                "empty training corpus: train_benchmarks must contain a benchmark other than `{}`",
                self.benchmark
            ));
        }
        // A NaN/zero/negative/huge scale parses fine but panics (or OOMs)
        // deep inside placement — reject it at the boundary instead.
        within("eval scale", self.eval.scale, 0.01..=100.0)?;
        // The knobs that set what a cold resolve trains: too few candidates
        // leave no trainable query, and the rest bound its cost.
        let attack = &self.eval.attack;
        within("attack epochs", attack.epochs, 1..=MAX_EPOCHS)?;
        within("attack candidates", attack.candidates, 2..=MAX_CANDIDATES)?;
        within("attack batch_size", attack.batch_size, 1..=MAX_BATCH_SIZE)?;
        within("attack image_px", attack.image_px, 1..=MAX_IMAGE_PX)?;
        within(
            "attack image_scales_um length",
            attack.image_scales_um.len(),
            1..=MAX_IMAGE_SCALES,
        )?;
        // `contains` is false for NaN and the infinities too.
        let scales = &IMAGE_SCALE_RANGE_UM;
        if let Some(bad) = attack.image_scales_um.iter().find(|s| !scales.contains(s)) {
            return Err(format!(
                "attack image_scales_um entry {bad} outside [{}, {}] µm",
                scales.start(),
                scales.end()
            ));
        }
        // The loop counts of the layouts the request builds and of the flow
        // baseline it may run.
        let placer = &self.eval.implement.placer;
        within(
            "placer iterations",
            placer.iterations,
            0..=MAX_PLACER_ITERATIONS,
        )?;
        within(
            "placer anneal_moves_per_cell",
            placer.anneal_moves_per_cell,
            0..=MAX_ANNEAL_MOVES_PER_CELL,
        )?;
        let shift = self.eval.implement.router.max_track_shift;
        within("router max_track_shift", shift, 0..=MAX_TRACK_SHIFT)?;
        let rounds = self.eval.flow.max_iterations;
        within("flow max_iterations", rounds, 0..=MAX_FLOW_ITERATIONS)?;
        // The layout knobs a layout build asserts on or divides by: out of
        // range, they would answer 500 from deep inside the build.
        let implement = &self.eval.implement;
        let utilization = implement.utilization;
        if !(utilization > 0.0 && utilization <= 1.0) {
            return Err(format!("utilization {utilization} outside (0, 1]"));
        }
        if !(implement.aspect > 0.0 && implement.aspect.is_finite()) {
            return Err(format!(
                "aspect {} must be positive and finite",
                implement.aspect
            ));
        }
        let router = &implement.router;
        if router.track_pitch < 1 {
            return Err(format!(
                "router track_pitch {} must be at least 1",
                router.track_pitch
            ));
        }
        if let Some(pattern) = router.forced_pattern {
            within("router forced_pattern", pattern, 0..=3)?;
        }
        if router.layer_thresholds.is_empty() {
            return Err("router layer_thresholds must not be empty".to_string());
        }
        Ok(())
    }

    /// The content address of the model this request resolves to — the same
    /// fingerprint a `defense_matrix` sweep computes for the equivalent
    /// cell, via [`canonical_train_eval`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name; call [`AttackRequest::validate`]
    /// first.
    pub fn fingerprint(&self) -> CorpusFingerprint {
        let victim = self.victim().expect("validated benchmark name");
        corpus_fingerprint(
            victim,
            self.layer(),
            &self.defense,
            &canonical_train_eval(&self.eval),
        )
    }
}

/// `Err` naming `knob` when `value` lies outside `range`; `contains` is false
/// for a NaN too.
fn within<T: PartialOrd + std::fmt::Display>(
    knob: &str,
    value: T,
    range: std::ops::RangeInclusive<T>,
) -> Result<(), String> {
    if range.contains(&value) {
        Ok(())
    } else {
        Err(format!(
            "{knob} {value} outside [{}, {}]",
            range.start(),
            range.end()
        ))
    }
}

/// One ranked candidate source for a sink fragment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedMatch {
    /// Candidate source fragment id.
    pub source: u32,
    /// Probability that this candidate is the correct connection
    /// (paper Eq. 2), normalised over the sink's full candidate list.
    pub confidence: f64,
    /// Whether this candidate is the ground-truth source (the server
    /// generated the victim, so it knows).
    pub correct: bool,
}

/// A sink fragment's ranked candidate list, best first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkRanking {
    /// Sink fragment id.
    pub sink: u32,
    /// Broken-pin count `cᵢ` — this sink's weight in CCR (Eq. 1).
    pub sink_pins: usize,
    /// Candidates, sorted by descending confidence.
    pub candidates: Vec<RankedMatch>,
}

/// What `POST /attack` returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackResponse {
    /// Victim benchmark name.
    pub benchmark: String,
    /// Split layer.
    pub split_layer: u8,
    /// Hex content address of the model that produced the rankings.
    pub fingerprint: String,
    /// Whether the model came from a cache (store or in-process LRU) instead
    /// of being trained for this request.
    pub model_cached: bool,
    /// Training epochs this request paid for (`0` on any cache hit).
    pub trained_epochs: usize,
    /// Actual DL CCR of the top-1 assignment against ground truth.
    pub dl_ccr: f64,
    /// The model's own pin-weighted confidence in its top-1 picks over the
    /// same denominator as `dl_ccr` (sinks without candidates count as zero
    /// confidence) — the CCR it *expects* to score.
    pub expected_ccr: f64,
    /// Random-guess CCR floor.
    pub chance_ccr: f64,
    /// Naïve proximity-attack CCR (cheap baseline, always included).
    pub proximity_ccr: f64,
    /// Network-flow baseline verdict, when requested.
    pub flow: Option<FlowOutcome>,
    /// Model inference wall-clock in milliseconds (embedding + scoring).
    pub inference_ms: f64,
    /// Model resolution wall-clock in milliseconds (LRU / store lookup, or
    /// the full training run on a cold fingerprint — compare against
    /// `model_cached` to tell which).
    pub resolve_ms: f64,
    /// Per-sink rankings.
    pub rankings: Vec<SinkRanking>,
}

/// Converts a ranked inference outcome into wire rankings, marking each
/// candidate against the split view's ground truth.
pub fn rankings_of(outcome: &RankedOutcome, view: &SplitView) -> Vec<SinkRanking> {
    outcome
        .queries
        .iter()
        .map(|q| {
            let truth = view.truth.get(&q.sink);
            SinkRanking {
                sink: q.sink.0,
                sink_pins: q.sink_pins,
                candidates: q
                    .ranked
                    .iter()
                    .map(|&(source, confidence)| RankedMatch {
                        source: source.0,
                        confidence: f64::from(confidence),
                        correct: truth == Some(&source),
                    })
                    .collect(),
            }
        })
        .collect()
}

/// The model's pin-weighted confidence in its own top-1 picks:
/// `Σ cᵢ · p(top-1ᵢ) / total_sink_pins` — "CCR as the model expects it",
/// before ground truth weighs in.
///
/// `total_sink_pins` is the broken-pin count over *all* sink fragments
/// (`Σ cᵢ` of the split view), not just the ranked ones: sinks without
/// candidates never appear in `rankings` but still count as wrong in
/// [`deepsplit_flow::metrics::ccr`], so they must drag this estimate down
/// the same way for the two numbers to be comparable. Passing a total
/// smaller than the ranked pins is forgiven (the ranked sum is used).
pub fn expected_ccr(rankings: &[SinkRanking], total_sink_pins: usize) -> f64 {
    let mut weighted = 0.0;
    let mut ranked_pins = 0usize;
    for r in rankings {
        ranked_pins += r.sink_pins;
        if let Some(top) = r.candidates.first() {
            weighted += r.sink_pins as f64 * top.confidence;
        }
    }
    let total = total_sink_pins.max(ranked_pins);
    if total == 0 {
        0.0
    } else {
        weighted / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefenseKind;
    use deepsplit_core::config::AttackConfig;
    use deepsplit_layout::design::ImplementConfig;
    use deepsplit_layout::split::FragId;

    #[test]
    fn requests_round_trip_through_json() {
        let mut req = AttackRequest::fast(Benchmark::C432);
        req.defense = DefenseConfig {
            kind: DefenseKind::Lift,
            strength: 0.5,
            seed: 11,
        };
        req.include_flow = true;
        req.client = Some("alice".to_string());
        let json = serde_json::to_string(&req).expect("serialise request");
        let back: AttackRequest = serde_json::from_str(&json).expect("parse request");
        assert_eq!(back, req);

        // A request that predates the `client` field still parses: absent
        // optional fields deserialise to `None`.
        let legacy = json
            .replace(",\"client\":\"alice\"", "")
            .replace("\"client\":\"alice\",", "");
        assert!(!legacy.contains("client"));
        let back: AttackRequest = serde_json::from_str(&legacy).expect("parse legacy request");
        assert_eq!(back.client, None);
    }

    #[test]
    fn enum_and_newtype_encodings_are_pinned() {
        // Unit variants are bare strings, a newtype variant is a one-entry
        // object and a newtype struct is its field: the wire bytes a
        // response's `flow` and a request's `defense.kind` carry.
        for (outcome, json) in [
            (FlowOutcome::TimedOut, "\"TimedOut\""),
            (
                FlowOutcome::Completed(vec![(FragId(3), FragId(7))]),
                "{\"Completed\":[[3,7]]}",
            ),
        ] {
            assert_eq!(serde_json::to_string(&outcome).expect("serialise"), json);
            let back: FlowOutcome = serde_json::from_str(json).expect("parse");
            assert_eq!(back, outcome);
        }
        let lift = serde_json::to_string(&DefenseKind::Lift).expect("serialise");
        assert_eq!(lift, "\"Lift\"");
        let back: DefenseKind = serde_json::from_str(&lift).expect("parse");
        assert_eq!(back, DefenseKind::Lift);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let good = AttackRequest::fast(Benchmark::C432);
        assert_eq!(good.validate(), Ok(()));
        let mut paper = good.clone();
        paper.eval.attack = AttackConfig::paper();
        assert_eq!(paper.validate(), Ok(()));
        let mut fast = good.clone();
        fast.eval.attack = AttackConfig::fast();
        assert_eq!(fast.validate(), Ok(()));
        // The scale bounds themselves are admitted.
        let mut edges = good.clone();
        edges.eval.attack.image_scales_um =
            vec![*IMAGE_SCALE_RANGE_UM.start(), *IMAGE_SCALE_RANGE_UM.end()];
        assert_eq!(edges.validate(), Ok(()));
        // So are the loop-count bounds, and the fast placer's counts.
        edges.eval.implement.placer.iterations = MAX_PLACER_ITERATIONS;
        edges.eval.implement.placer.anneal_moves_per_cell = MAX_ANNEAL_MOVES_PER_CELL;
        edges.eval.implement.router.max_track_shift = MAX_TRACK_SHIFT;
        edges.eval.flow.max_iterations = MAX_FLOW_ITERATIONS;
        edges.eval.implement.utilization = 1.0;
        edges.eval.implement.router.track_pitch = 1;
        edges.eval.implement.router.forced_pattern = Some(3);
        assert_eq!(edges.validate(), Ok(()));
        edges.eval.implement = ImplementConfig::fast();
        assert_eq!(edges.validate(), Ok(()));

        let refused_eval = |set: fn(&mut EvalConfig)| {
            let mut bad = good.clone();
            set(&mut bad.eval);
            bad.validate().unwrap_err()
        };
        let refused = |set: fn(&mut AttackConfig)| {
            let mut bad = good.clone();
            set(&mut bad.eval.attack);
            bad.validate().unwrap_err()
        };
        for (problem, knob) in [
            (refused(|a| a.candidates = 1), "candidates"),
            (refused(|a| a.candidates = MAX_CANDIDATES + 1), "candidates"),
            (refused(|a| a.epochs = 0), "epochs"),
            (refused(|a| a.epochs = MAX_EPOCHS + 1), "epochs"),
            (refused(|a| a.batch_size = 0), "batch_size"),
            (refused(|a| a.batch_size = MAX_BATCH_SIZE + 1), "batch_size"),
            (refused(|a| a.image_px = 0), "image_px"),
            (refused(|a| a.image_px = MAX_IMAGE_PX + 1), "image_px"),
            (refused(|a| a.image_scales_um.clear()), "image_scales_um"),
            (
                refused(|a| a.image_scales_um = vec![0.1; MAX_IMAGE_SCALES + 1]),
                "image_scales_um",
            ),
            (refused(|a| a.image_scales_um[1] = 0.0), "image_scales_um"),
            (refused(|a| a.image_scales_um[1] = -0.1), "image_scales_um"),
            (
                refused(|a| a.image_scales_um[0] = 0.0004),
                "image_scales_um",
            ),
            (refused(|a| a.image_scales_um[2] = 10.5), "image_scales_um"),
            (
                refused(|a| a.image_scales_um[2] = f64::NAN),
                "image_scales_um",
            ),
            (
                refused(|a| a.image_scales_um[2] = f64::INFINITY),
                "image_scales_um",
            ),
            (
                refused_eval(|e| e.implement.placer.iterations = MAX_PLACER_ITERATIONS + 1),
                "placer iterations",
            ),
            (
                refused_eval(|e| e.implement.placer.iterations = 1_000_000_000_000),
                "placer iterations",
            ),
            (
                refused_eval(|e| {
                    e.implement.placer.anneal_moves_per_cell = MAX_ANNEAL_MOVES_PER_CELL + 1
                }),
                "anneal_moves_per_cell",
            ),
            (
                refused_eval(|e| e.implement.router.max_track_shift = MAX_TRACK_SHIFT + 1),
                "max_track_shift",
            ),
            (
                refused_eval(|e| e.implement.router.max_track_shift = -1),
                "max_track_shift",
            ),
            (
                refused_eval(|e| e.flow.max_iterations = MAX_FLOW_ITERATIONS + 1),
                "flow max_iterations",
            ),
            (
                refused_eval(|e| e.implement.router.track_pitch = 0),
                "track_pitch",
            ),
            (
                refused_eval(|e| e.implement.router.track_pitch = -200),
                "track_pitch",
            ),
            (
                refused_eval(|e| e.implement.utilization = 0.0),
                "utilization",
            ),
            (
                refused_eval(|e| e.implement.utilization = 1.5),
                "utilization",
            ),
            (
                refused_eval(|e| e.implement.utilization = f64::NAN),
                "utilization",
            ),
            (refused_eval(|e| e.implement.aspect = 0.0), "aspect"),
            (refused_eval(|e| e.implement.aspect = -1.0), "aspect"),
            (
                refused_eval(|e| e.implement.aspect = f64::INFINITY),
                "aspect",
            ),
            (refused_eval(|e| e.implement.aspect = f64::NAN), "aspect"),
            (
                refused_eval(|e| e.implement.router.forced_pattern = Some(4)),
                "forced_pattern",
            ),
            (
                refused_eval(|e| e.implement.router.forced_pattern = Some(9)),
                "forced_pattern",
            ),
            (
                refused_eval(|e| e.implement.router.layer_thresholds.clear()),
                "layer_thresholds",
            ),
        ] {
            assert!(problem.contains(knob), "{knob}: {problem}");
        }

        let mut bad = good.clone();
        bad.benchmark = "c999".into();
        assert!(bad.validate().unwrap_err().contains("unknown benchmark"));

        let mut bad = good.clone();
        bad.defense.strength = 1.5;
        assert!(bad.validate().unwrap_err().contains("outside [0, 1]"));

        let mut bad = good.clone();
        bad.split_layer = 0;
        assert!(bad.validate().unwrap_err().contains("BEOL"));
        bad.split_layer = 250;
        assert!(bad.validate().unwrap_err().contains("BEOL"));

        let mut bad = good.clone();
        bad.benchmark = Benchmark::C880.name().into();
        bad.eval.train_benchmarks = vec![Benchmark::C880];
        assert!(bad
            .validate()
            .unwrap_err()
            .contains("empty training corpus"));

        // The corpus list is bounded: a leave-one-out corpus over every
        // benchmark fits, as does one of MAX_TRAIN_BENCHMARKS entries.
        assert_eq!(MAX_TRAIN_BENCHMARKS, Benchmark::all().len());
        let mut loo = good.clone();
        loo.eval.train_benchmarks = Benchmark::all()
            .into_iter()
            .filter(|&b| b != Benchmark::C432)
            .collect();
        assert_eq!(loo.validate(), Ok(()));
        let mut at_bound = good.clone();
        at_bound.eval.train_benchmarks = vec![Benchmark::C880; MAX_TRAIN_BENCHMARKS];
        assert_eq!(at_bound.validate(), Ok(()));
        let mut past = good.clone();
        past.eval.train_benchmarks = vec![Benchmark::C880; MAX_TRAIN_BENCHMARKS + 1];
        assert!(past.validate().unwrap_err().contains("train_benchmarks"));
    }

    #[test]
    fn fingerprint_matches_the_engine_convention() {
        // The request fingerprint must equal what the engine computes for
        // the same cell: corpus_fingerprint over the canonical eval.
        let req = AttackRequest::fast(Benchmark::C432);
        let direct = corpus_fingerprint(
            Benchmark::C432,
            Layer(3),
            &DefenseConfig::none(),
            &canonical_train_eval(&req.eval),
        );
        assert_eq!(req.fingerprint(), direct);

        // And it is thread-budget independent.
        let mut threads = req.clone();
        threads.eval.attack.threads = 7;
        assert_eq!(threads.fingerprint(), req.fingerprint());
    }

    #[test]
    fn expected_ccr_is_pin_weighted() {
        let rankings = vec![
            SinkRanking {
                sink: 0,
                sink_pins: 3,
                candidates: vec![RankedMatch {
                    source: 9,
                    confidence: 1.0,
                    correct: true,
                }],
            },
            SinkRanking {
                sink: 1,
                sink_pins: 1,
                candidates: vec![RankedMatch {
                    source: 4,
                    confidence: 0.0,
                    correct: false,
                }],
            },
        ];
        assert!((expected_ccr(&rankings, 4) - 0.75).abs() < 1e-12);
        // Sinks that never made it into the rankings (no candidates) dilute
        // the estimate exactly as they dilute the real CCR.
        assert!((expected_ccr(&rankings, 6) - 0.5).abs() < 1e-12);
        // An understated total falls back to the ranked pins.
        assert!((expected_ccr(&rankings, 0) - 0.75).abs() < 1e-12);
        assert_eq!(expected_ccr(&[], 0), 0.0);
    }
}
