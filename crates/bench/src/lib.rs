//! Experiment harness: shared plumbing for regenerating every table and
//! figure of the DAC'19 paper.
//!
//! The binaries in `src/bin` print the artefacts:
//!
//! * `table1` — VPP preference truth table (paper Table 1),
//! * `table2` — realised network configuration (paper Table 2),
//! * `table3` — CCR + runtime versus the network-flow attack, M1 and M3
//!   splits (paper Table 3),
//! * `figure2` — image-feature dump for one virtual pin (paper Fig. 2),
//! * `figure5` — loss/feature ablation (paper Fig. 5),
//! * `stats` — benchmark-suite statistics.
//!
//! Beside them, `defense_matrix` runs the attack-vs-defense matrix and
//! `attack_server` serves the attack; its load generator and detection
//! artifact send the red-team traffic of [`redteam`].
//!
//! Profiles scale the experiment to the machine: `fast` (default) caps design
//! sizes and uses reduced image resolution; `medium` runs the mid-sized
//! designs at full size; `paper` uses the paper's exact parameters
//! (99×99 images, n = 31, full-size designs — expect very long CPU runtimes).

pub mod redteam;

use deepsplit_core::config::AttackConfig;
use deepsplit_core::dataset::PreparedDesign;
use deepsplit_core::{attack, train};
use deepsplit_flow::attack::{network_flow_attack, FlowAttackConfig, FlowOutcome};
use deepsplit_flow::metrics::{ccr, Assignment};
use deepsplit_flow::proximity::proximity_attack;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_netlist::benchmarks::{self, Benchmark};
use deepsplit_netlist::library::CellLibrary;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Experiment profile: how large and how accurate a run is.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Human-readable name recorded in reports.
    pub name: String,
    /// Cap on generated gate count (designs above it are scaled down).
    pub max_gates: usize,
    /// Attack configuration (images, candidates, epochs, …).
    pub attack: AttackConfig,
    /// Per-design cap on training queries.
    pub train_query_cap: usize,
    /// Wall-clock budget for the network-flow baseline per design
    /// (the paper used 100 000 s; `N/A` on timeout).
    pub flow_timeout: Duration,
    /// Seed for training layouts.
    pub train_seed: u64,
    /// Seed for attacked layouts (distinct: the attacker trains on *other*
    /// layouts generated in a similar manner, per the threat model).
    pub attack_seed: u64,
}

impl Profile {
    /// Default CPU-friendly profile.
    pub fn fast() -> Profile {
        Profile {
            name: "fast".into(),
            max_gates: 3000,
            attack: AttackConfig {
                candidates: 19,
                image_px: 13,
                image_scales_um: vec![0.1, 0.3, 0.9],
                epochs: 14,
                batch_size: 24,
                ..AttackConfig::paper()
            },
            train_query_cap: 300,
            flow_timeout: Duration::from_secs(120),
            train_seed: 1001,
            attack_seed: 2002,
        }
    }

    /// Mid-size profile: full-size designs up to ~10 k gates, larger images.
    pub fn medium() -> Profile {
        Profile {
            name: "medium".into(),
            max_gates: 10_000,
            attack: AttackConfig {
                candidates: 23,
                image_px: 25,
                image_scales_um: vec![0.05, 0.2, 0.8],
                epochs: 16,
                batch_size: 24,
                ..AttackConfig::paper()
            },
            train_query_cap: 400,
            flow_timeout: Duration::from_secs(600),
            train_seed: 1001,
            attack_seed: 2002,
        }
    }

    /// The paper's parameters (very slow on CPU; provided for completeness).
    pub fn paper() -> Profile {
        Profile {
            name: "paper".into(),
            max_gates: usize::MAX,
            attack: AttackConfig::paper(),
            train_query_cap: usize::MAX,
            flow_timeout: Duration::from_secs(100_000),
            train_seed: 1001,
            attack_seed: 2002,
        }
    }

    /// Parses `--paper-scale` / `--medium` / `--fast` from CLI args.
    pub fn from_args(args: &[String]) -> Profile {
        if args.iter().any(|a| a == "--paper-scale") {
            Profile::paper()
        } else if args.iter().any(|a| a == "--medium") {
            Profile::medium()
        } else {
            Profile::fast()
        }
    }

    /// Generation scale factor for a benchmark under this profile.
    pub fn scale_for(&self, bench: Benchmark) -> f64 {
        let gates = bench.config().num_gates;
        if gates <= self.max_gates {
            1.0
        } else {
            self.max_gates as f64 / gates as f64
        }
    }
}

/// Shared `--flag value` parsing for the bench binaries, so
/// `defense_matrix`, `attack_server` and friends cannot drift apart on CLI
/// conventions.
pub mod cli {
    /// The value following `flag`, if present.
    pub fn value_arg(args: &[String], flag: &str) -> Option<String> {
        let pos = args.iter().position(|a| a == flag)?;
        args.get(pos + 1).cloned()
    }

    /// The comma-separated list following `flag`, if present.
    pub fn list_arg(args: &[String], flag: &str) -> Option<Vec<String>> {
        Some(
            value_arg(args, flag)?
                .split(',')
                .map(str::to_string)
                .collect(),
        )
    }

    /// The value following `flag` parsed as a `usize`, or `default` when
    /// the flag is absent.
    ///
    /// # Panics
    ///
    /// Panics (with the flag and offending value named) when the value does
    /// not parse — CLI misconfigurations should fail loudly up front.
    pub fn usize_arg(args: &[String], flag: &str, default: usize) -> usize {
        value_arg(args, flag)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("bad {flag} value `{v}`"))
            })
            .unwrap_or(default)
    }
}

/// Parses a `--designs c432,b13` CLI filter.
pub fn design_filter(args: &[String]) -> Option<Vec<Benchmark>> {
    let pos = args.iter().position(|a| a == "--designs")?;
    let list = args.get(pos + 1)?;
    Some(list.split(',').filter_map(Benchmark::from_name).collect())
}

/// Implements one benchmark layout under a profile.
pub fn implement_benchmark(profile: &Profile, bench: Benchmark, seed: u64) -> Design {
    let lib = CellLibrary::nangate45();
    let scale = profile.scale_for(bench);
    let nl = benchmarks::generate_with(bench, scale, seed, &lib);
    let implement = if nl.num_instances() > 20_000 {
        ImplementConfig::fast()
    } else {
        ImplementConfig::default()
    };
    Design::implement(nl, lib, &implement)
}

/// One Table 3 row for one split layer.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Cell {
    /// Sink-fragment count (`#Sk`).
    pub sk: usize,
    /// Source-fragment count (`#Sc`).
    pub sc: usize,
    /// Network-flow CCR in percent; `None` = timed out (`N/A`).
    pub flow_ccr: Option<f64>,
    /// Our CCR in percent.
    pub ours_ccr: f64,
    /// Naïve proximity CCR in percent (extra diagnostic, not in the paper).
    pub proximity_ccr: f64,
    /// Network-flow runtime in seconds; `None` = timed out.
    pub flow_runtime_s: Option<f64>,
    /// Our runtime in seconds (feature extraction + inference).
    pub ours_runtime_s: f64,
}

/// A full Table 3 row (both split layers).
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Design name.
    pub design: String,
    /// Metal-1 split results.
    pub m1: Table3Cell,
    /// Metal-3 split results.
    pub m3: Table3Cell,
}

/// The complete Table 3 artefact.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Report {
    /// Profile used.
    pub profile: String,
    /// Per-design rows.
    pub rows: Vec<Table3Row>,
    /// Epoch losses of the two trained models (M1, M3).
    pub train_loss: [Vec<f32>; 2],
}

/// Trains the attack for one split layer over the paper's training designs.
pub(crate) fn train_for_layer(profile: &Profile, layer: Layer) -> train::TrainedAttack {
    train_for_layer_with_report(profile, layer).0
}

/// Like [`train_for_layer`] but also returns the report.
pub(crate) fn train_for_layer_with_report(
    profile: &Profile,
    layer: Layer,
) -> (train::TrainedAttack, train::TrainReport) {
    let mut prepared = Vec::new();
    for (i, bench) in Benchmark::training_set().into_iter().enumerate() {
        let design = implement_benchmark(profile, bench, profile.train_seed + i as u64);
        let mut p = PreparedDesign::prepare(&design, layer, &profile.attack);
        p.truncate_queries(profile.train_query_cap, profile.train_seed);
        prepared.push(p);
    }
    train::train(&prepared, &profile.attack)
}

/// Attacks one design with all three attacks; returns the Table 3 cell.
pub(crate) fn attack_design(
    profile: &Profile,
    trained: &train::TrainedAttack,
    design: &Design,
    layer: Layer,
) -> Table3Cell {
    // Ours: preparation (feature extraction) + inference, as in the paper.
    let t0 = Instant::now();
    let prepared = PreparedDesign::prepare(design, layer, &profile.attack);
    let outcome = attack::attack(trained, &prepared);
    let ours_runtime = t0.elapsed();
    let ours_ccr = 100.0 * ccr(&prepared.view, &outcome.assignment);

    // Baselines operate on the same split view.
    let view = &prepared.view;
    let prox: Assignment = proximity_attack(view);
    let proximity_ccr = 100.0 * ccr(view, &prox);

    let flow_config = FlowAttackConfig {
        timeout: Some(profile.flow_timeout),
        ..FlowAttackConfig::default()
    };
    let t1 = Instant::now();
    let flow = network_flow_attack(view, &design.netlist, &design.library, &flow_config);
    let flow_runtime = t1.elapsed();
    let (flow_ccr, flow_runtime_s) = match flow {
        FlowOutcome::Completed(a) => (
            Some(100.0 * ccr(view, &a)),
            Some(flow_runtime.as_secs_f64()),
        ),
        FlowOutcome::TimedOut => (None, None),
    };

    Table3Cell {
        sk: view.num_sink_fragments(),
        sc: view.num_source_fragments(),
        flow_ccr,
        ours_ccr,
        proximity_ccr,
        flow_runtime_s,
        ours_runtime_s: ours_runtime.as_secs_f64(),
    }
}

/// Regenerates Table 3 for the given designs (default: all sixteen).
pub fn run_table3(profile: &Profile, designs: Option<Vec<Benchmark>>) -> Table3Report {
    let designs = designs.unwrap_or_else(|| Benchmark::all().to_vec());
    let (trained_m1, rep1) = train_for_layer_with_report(profile, Layer(1));
    let (trained_m3, rep3) = train_for_layer_with_report(profile, Layer(3));
    let mut rows = Vec::new();
    for (i, bench) in designs.iter().enumerate() {
        let design = implement_benchmark(profile, *bench, profile.attack_seed + i as u64);
        let m1 = attack_design(profile, &trained_m1, &design, Layer(1));
        let m3 = attack_design(profile, &trained_m3, &design, Layer(3));
        rows.push(Table3Row {
            design: bench.name().to_string(),
            m1,
            m3,
        });
    }
    Table3Report {
        profile: profile.name.clone(),
        rows,
        train_loss: [rep1.epoch_loss, rep3.epoch_loss],
    }
}

/// Averages of a Table 3 report, excluding designs where the flow attack
/// timed out (as the paper does "for fairness").
pub fn table3_averages(cells: impl Iterator<Item = Table3Cell> + Clone) -> (f64, f64, f64, f64) {
    let both: Vec<Table3Cell> = cells.clone().filter(|c| c.flow_ccr.is_some()).collect();
    let n = both.len().max(1) as f64;
    let flow_ccr = both.iter().filter_map(|c| c.flow_ccr).sum::<f64>() / n;
    let ours_ccr = both.iter().map(|c| c.ours_ccr).sum::<f64>() / n;
    let flow_rt = both.iter().filter_map(|c| c.flow_runtime_s).sum::<f64>() / n;
    let ours_rt = both.iter().map(|c| c.ours_runtime_s).sum::<f64>() / n;
    (flow_ccr, ours_ccr, flow_rt, ours_rt)
}

/// One Figure 5 series entry.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Point {
    /// Setting name (`Two-class`, `Vec`, `Vec & Img`).
    pub setting: String,
    /// Average CCR in percent over the attacked designs.
    pub avg_ccr: f64,
    /// Average inference time in seconds.
    pub avg_inference_s: f64,
}

/// The complete Figure 5 artefact.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Report {
    /// Profile used.
    pub profile: String,
    /// The three ablation points.
    pub points: Vec<Fig5Point>,
}

/// Regenerates Figure 5: two-class vs softmax-regression (vector only) vs
/// softmax-regression with images, all splitting on M3.
pub fn run_figure5(profile: &Profile, designs: Option<Vec<Benchmark>>) -> Fig5Report {
    let layer = Layer(3);
    let victims: Vec<Benchmark> = designs.unwrap_or_else(|| Benchmark::validation_set().to_vec());
    let settings: [(&str, bool, bool); 3] = [
        ("Two-class", false, true),
        ("Vec", false, false),
        ("Vec & Img", true, false),
    ];
    // Implement victims once.
    let victim_designs: Vec<Design> = victims
        .iter()
        .enumerate()
        .map(|(i, b)| implement_benchmark(profile, *b, profile.attack_seed + 100 + i as u64))
        .collect();
    let mut points = Vec::new();
    for (name, use_images, two_class) in settings {
        let config = AttackConfig {
            use_images,
            two_class,
            ..profile.attack.clone()
        };
        let sub_profile = Profile {
            attack: config.clone(),
            ..profile.clone()
        };
        let trained = train_for_layer(&sub_profile, layer);
        let mut ccr_sum = 0.0;
        let mut time_sum = 0.0;
        for design in &victim_designs {
            let t0 = Instant::now();
            let prepared = PreparedDesign::prepare(design, layer, &config);
            let outcome = attack::attack(&trained, &prepared);
            time_sum += t0.elapsed().as_secs_f64();
            ccr_sum += 100.0 * ccr(&prepared.view, &outcome.assignment);
        }
        points.push(Fig5Point {
            setting: name.to_string(),
            avg_ccr: ccr_sum / victim_designs.len().max(1) as f64,
            avg_inference_s: time_sum / victim_designs.len().max(1) as f64,
        });
    }
    Fig5Report {
        profile: profile.name.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_scaling() {
        let p = Profile::fast();
        assert_eq!(p.scale_for(Benchmark::C432), 1.0);
        assert!(p.scale_for(Benchmark::B18) < 0.1);
        let paper = Profile::paper();
        assert_eq!(paper.scale_for(Benchmark::B18), 1.0);
    }

    #[test]
    fn design_filter_parses() {
        let args: Vec<String> = ["x", "--designs", "c432,b13"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = design_filter(&args).unwrap();
        assert_eq!(f, vec![Benchmark::C432, Benchmark::B13]);
        assert!(design_filter(&["x".to_string()]).is_none());
    }

    #[test]
    fn averages_skip_timeouts() {
        let done = Table3Cell {
            sk: 1,
            sc: 1,
            flow_ccr: Some(50.0),
            ours_ccr: 60.0,
            proximity_ccr: 40.0,
            flow_runtime_s: Some(10.0),
            ours_runtime_s: 1.0,
        };
        let na = Table3Cell {
            flow_ccr: None,
            flow_runtime_s: None,
            ..done.clone()
        };
        let cells = vec![done, na];
        let (f, o, fr, or) = table3_averages(cells.into_iter());
        assert_eq!(f, 50.0);
        assert_eq!(o, 60.0);
        assert_eq!(fr, 10.0);
        assert_eq!(or, 1.0);
    }
}
