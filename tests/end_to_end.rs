//! Cross-crate integration: generator → placement → routing → split →
//! candidates → features → training → attack → CCR, exercising every crate in
//! one flow.

use deepsplit::prelude::*;

fn tiny_config() -> AttackConfig {
    AttackConfig {
        use_images: false,
        epochs: 6,
        candidates: 10,
        batch_size: 16,
        threads: 4,
        ..AttackConfig::fast()
    }
}

fn implement(bench: Benchmark, scale: f64, seed: u64) -> Design {
    let lib = CellLibrary::nangate45();
    let nl = benchmarks::generate_with(bench, scale, seed, &lib);
    Design::implement(nl, lib, &ImplementConfig::default())
}

#[test]
fn full_pipeline_beats_chance_at_m3() {
    let config = tiny_config();
    let train_designs = [
        implement(Benchmark::C880, 0.6, 1),
        implement(Benchmark::C1908, 0.6, 2),
    ];
    let train_data: Vec<PreparedDesign> = train_designs
        .iter()
        .map(|d| PreparedDesign::prepare(d, Layer(3), &config))
        .collect();
    let (trained, report) = train::train(&train_data, &config);
    assert!(report.epoch_loss.iter().all(|l| l.is_finite()));

    let victim_design = implement(Benchmark::C432, 0.6, 3);
    let victim = PreparedDesign::prepare(&victim_design, Layer(3), &config);
    let outcome = attack::attack(&trained, &victim);
    let score = ccr(&victim.view, &outcome.assignment);
    let chance = 1.0 / victim.view.num_source_fragments().max(1) as f64;
    assert!(score > 2.0 * chance, "DL CCR {score} vs chance {chance}");
}

#[test]
fn all_three_attacks_produce_full_assignments() {
    let config = tiny_config();
    let design = implement(Benchmark::C880, 0.5, 4);
    let victim = PreparedDesign::prepare(&design, Layer(3), &config);
    let view = &victim.view;

    let train_data = vec![PreparedDesign::prepare(
        &implement(Benchmark::C1355, 0.5, 5),
        Layer(3),
        &config,
    )];
    let (trained, _) = train::train(&train_data, &config);
    let dl = attack::attack(&trained, &victim).assignment;
    let prox = proximity_attack(view);
    let flow = network_flow_attack(
        view,
        &design.netlist,
        &design.library,
        &FlowAttackConfig::default(),
    );
    let flow = flow.assignment().expect("no timeout configured").clone();

    for (name, a) in [("dl", &dl), ("prox", &prox), ("flow", &flow)] {
        assert_eq!(a.len(), view.sinks.len(), "{name} incomplete assignment");
        // Assignments must point at real source fragments.
        for (_, src) in a {
            assert!(view.sources.contains(src), "{name} picked a non-source");
        }
    }
}

#[test]
fn ccr_monotone_under_oracle_improvement() {
    // Replacing wrong picks with the truth can only raise CCR.
    let config = tiny_config();
    let design = implement(Benchmark::C432, 0.5, 6);
    let victim = PreparedDesign::prepare(&design, Layer(3), &config);
    let view = &victim.view;
    let prox = proximity_attack(view);
    let base = ccr(view, &prox);
    let mut improved = prox.clone();
    for (sink, src) in improved.iter_mut() {
        if let Some(&truth) = view.truth.get(sink) {
            if truth != *src {
                *src = truth;
                break;
            }
        }
    }
    assert!(ccr(view, &improved) >= base);
}

#[test]
fn trained_model_serialises_and_attacks_identically() {
    let config = tiny_config();
    let train_data = vec![PreparedDesign::prepare(
        &implement(Benchmark::C880, 0.4, 7),
        Layer(3),
        &config,
    )];
    let (trained, _) = train::train(&train_data, &config);

    let victim_design = implement(Benchmark::C432, 0.4, 8);
    let victim = PreparedDesign::prepare(&victim_design, Layer(3), &config);
    let a = attack::attack(&trained, &victim).assignment;

    let blob = trained.to_blob();
    let restored = deepsplit::core::TrainedAttack::from_blob(&blob).expect("restore");
    let b = attack::attack(&restored, &victim).assignment;
    assert_eq!(a, b, "restored model must reproduce the attack exactly");
}

#[test]
fn m1_split_is_harder_than_m3() {
    // The paper's strongest structural result: CCR at M1 is far below M3
    // because almost every net is broken. Verify with the proximity attack
    // (deterministic, no training noise).
    let design = implement(Benchmark::C1908, 0.8, 9);
    let m1 = split_design(&design, Layer(1));
    let m3 = split_design(&design, Layer(3));
    let ccr_m1 = ccr(&m1, &proximity_attack(&m1));
    let ccr_m3 = ccr(&m3, &proximity_attack(&m3));
    assert!(
        ccr_m3 > ccr_m1,
        "M3 should be easier: M1 {ccr_m1:.3} vs M3 {ccr_m3:.3}"
    );
}
