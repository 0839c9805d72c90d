//! Ablation benches beyond the paper's figures, probing design choices of
//! this reproduction:
//!
//! * candidate-count sweep (`n` of §4.1) — cost of candidate selection per `n`;
//! * image-resolution sweep — rendering cost per pixel budget;
//! * flow-attack capacitance-slack sweep — the relaxation toward the naïve
//!   proximity attack;
//! * physical-design substrate costs (placement, routing, splitting).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deepsplit_bench::{implement_benchmark, Profile};
use deepsplit_core::candidates::select_candidates;
use deepsplit_core::config::AttackConfig;
use deepsplit_core::image_features::ImageExtractor;
use deepsplit_flow::attack::{network_flow_attack, FlowAttackConfig};
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::floorplan::Floorplan;
use deepsplit_layout::geom::Layer;
use deepsplit_layout::place::{place, PlacerConfig};
use deepsplit_layout::route::{route, RouterConfig};
use deepsplit_layout::split::split_design;
use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
use deepsplit_netlist::library::CellLibrary;

fn bench_candidate_sweep(c: &mut Criterion) {
    let profile = Profile::fast();
    let design = implement_benchmark(&profile, Benchmark::C880, 90);
    let view = split_design(&design, Layer(3));
    let mut group = c.benchmark_group("candidate_count_sweep");
    group.sample_size(10);
    for n in [7usize, 15, 31] {
        let config = AttackConfig {
            candidates: n,
            ..profile.attack.clone()
        };
        group.bench_with_input(BenchmarkId::new("select", n), &view, |b, view| {
            b.iter(|| select_candidates(view, &config))
        });
    }
    group.finish();
}

fn bench_image_resolution(c: &mut Criterion) {
    let profile = Profile::fast();
    let design = implement_benchmark(&profile, Benchmark::C432, 91);
    let view = split_design(&design, Layer(3));
    let sink = view.sinks[0];
    let vp = view.fragment(sink).virtual_pins[0];
    let mut group = c.benchmark_group("image_resolution_sweep");
    group.sample_size(10);
    for px in [9usize, 17, 33, 99] {
        let config = AttackConfig {
            image_px: px,
            ..AttackConfig::paper()
        };
        let extractor = ImageExtractor::new(&view, &config);
        group.bench_with_input(BenchmarkId::new("render", px), &extractor, |b, ex| {
            b.iter(|| ex.render(sink, vp))
        });
    }
    group.finish();
}

fn bench_flow_slack(c: &mut Criterion) {
    let profile = Profile::fast();
    let design = implement_benchmark(&profile, Benchmark::C432, 92);
    let view = split_design(&design, Layer(3));
    let mut group = c.benchmark_group("flow_cap_slack_sweep");
    group.sample_size(10);
    for slack in [0.0f64, 0.25, 1e6] {
        let config = FlowAttackConfig {
            cap_slack: slack,
            ..FlowAttackConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("flow", format!("{slack}")),
            &view,
            |b, view| {
                b.iter(|| network_flow_attack(view, &design.netlist, &design.library, &config))
            },
        );
    }
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let lib = CellLibrary::nangate45();
    let nl = generate_with(Benchmark::C880, 1.0, 93, &lib);
    let fp = Floorplan::for_netlist(&nl, &lib, 0.7, 1.0);
    let mut group = c.benchmark_group("physical_design_substrate");
    group.sample_size(10);
    group.bench_function("placement_c880", |b| {
        b.iter(|| place(&nl, &lib, &fp, &PlacerConfig::default()))
    });
    let placement = place(&nl, &lib, &fp, &PlacerConfig::default());
    group.bench_function("routing_c880", |b| {
        b.iter(|| route(&nl, &lib, &fp, &placement, &RouterConfig::default()))
    });
    let design = Design::implement(nl.clone(), lib.clone(), &ImplementConfig::default());
    group.bench_function("split_m3_c880", |b| {
        b.iter(|| split_design(&design, Layer(3)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_candidate_sweep,
    bench_image_resolution,
    bench_flow_slack,
    bench_substrate
);
criterion_main!(benches);
