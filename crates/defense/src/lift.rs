//! Targeted wire lifting: promote selected nets' trunks *above* the split
//! layer with a zero escape fraction, generalising the global `escape_frac`
//! knob of `examples/defense_sweep.rs` into per-net, budgeted lifting.
//!
//! A lifted net leaves almost nothing in the FEOL: pin-access jogs on M1/M2
//! and bare via stacks up to the split cut. Its virtual pins sit directly
//! over the pins with no directional wire extension — the hint both the
//! paper's direction criterion (§4.1) and the distance features (§3.1) feed
//! on. The budget (`strength`) spends itself on the *leakiest* nets first:
//! crossing nets ranked by how much FEOL wirelength they expose.

use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_layout::route::{self, NetRoute, RouterConfig};
use deepsplit_netlist::netlist::NetId;
use std::collections::HashSet;

/// Nets whose routes cross `split_layer` (cut via at the split layer or any
/// geometry above it) — the candidates of the matching problem, and therefore
/// the only nets worth lifting.
pub fn crossing_nets(routes: &[NetRoute], split_layer: Layer) -> Vec<NetId> {
    let m = split_layer.0;
    routes
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.vias.iter().any(|v| v.lower.0 >= m) || r.segments.iter().any(|s| s.layer.0 > m)
        })
        .map(|(i, _)| NetId(i as u32))
        .collect()
}

/// FEOL wirelength a net exposes below/at the split layer — the leakage proxy
/// the lifting budget is ranked by.
fn feol_exposure(route: &NetRoute, split_layer: Layer) -> i64 {
    route
        .segments
        .iter()
        .filter(|s| s.layer.0 <= split_layer.0)
        .map(|s| s.len())
        .sum()
}

/// The router configuration a lifted net is re-implemented with: every trunk
/// pair sits strictly above the split layer (respecting preferred-direction
/// parity) and the escape fraction is zero, so no FEOL wire extends toward
/// the BEOL continuation.
///
/// # Panics
///
/// Panics unless the stack has at least two layers above the split — lifting
/// needs both a horizontal and a vertical trunk layer up there, and clamping
/// into the split would emit trunks against their layers' preferred
/// direction.
pub fn lift_router_config(base: &RouterConfig, split_layer: Layer) -> RouterConfig {
    let m = split_layer.0;
    assert!(
        m + 2 <= base.num_layers,
        "lifting needs an H and a V layer above the split (split M{m}, {} layers)",
        base.num_layers
    );
    // Lowest horizontal (odd) and vertical (even) layers above the split.
    let h = if (m + 1).is_multiple_of(2) {
        m + 2
    } else {
        m + 1
    };
    let v = if (m + 1).is_multiple_of(2) {
        m + 1
    } else {
        m + 2
    };
    RouterConfig {
        layer_thresholds: vec![(f64::INFINITY, (h, v))],
        escape_frac: 0.0,
        ..base.clone()
    }
}

/// Lifts the top `strength` fraction of crossing nets (leakiest first) and
/// re-routes the design. Returns the number of lifted nets.
///
/// # Panics
///
/// Panics if fewer than two layers sit above the split (see
/// [`lift_router_config`]).
pub(crate) fn lift_nets(
    design: &mut Design,
    implement: &ImplementConfig,
    split_layer: Layer,
    strength: f64,
) -> usize {
    assert!(
        split_layer.0 + 2 <= implement.router.num_layers,
        "lifting needs an H and a V layer above the split (split M{}, {} layers)",
        split_layer.0,
        implement.router.num_layers
    );
    let mut crossing = crossing_nets(&design.routes, split_layer);
    if crossing.is_empty() {
        return 0;
    }
    // Leakiest first; net id tie-break keeps the order deterministic.
    crossing.sort_by_key(|&nid| {
        (
            -feol_exposure(&design.routes[nid.0 as usize], split_layer),
            nid,
        )
    });
    let budget = (strength * crossing.len() as f64).round() as usize;
    if budget == 0 {
        return 0;
    }
    crossing.truncate(budget);
    let lifted: HashSet<NetId> = crossing.iter().copied().collect();

    let lift_config = lift_router_config(&implement.router, split_layer);
    let (routes, stats) = route::route_with(
        &design.netlist,
        &design.library,
        &design.floorplan,
        &design.placement,
        &implement.router,
        |nid| {
            if lifted.contains(&nid) {
                Some(lift_config.clone())
            } else {
                None
            }
        },
    );
    design.routes = routes;
    design.route_stats = stats;
    lifted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::split::split_design;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn base() -> (Design, ImplementConfig) {
        let lib = CellLibrary::nangate45();
        let implement = ImplementConfig::default();
        let nl = generate_with(Benchmark::C880, 0.5, 31, &lib);
        (Design::implement(nl, lib, &implement), implement)
    }

    #[test]
    fn lift_config_sits_above_split() {
        let base = RouterConfig::default();
        for m in 1..=4u8 {
            let cfg = lift_router_config(&base, Layer(m));
            let (_, (h, v)) = cfg.layer_thresholds[0];
            assert!(
                h > m && v > m,
                "M{m}: trunks ({h}, {v}) must clear the split"
            );
            assert_eq!(h % 2, 1, "horizontal trunk layer must be odd");
            assert_eq!(v % 2, 0, "vertical trunk layer must be even");
            assert_eq!(cfg.escape_frac, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "lifting needs an H and a V layer")]
    fn lift_config_rejects_split_with_one_beol_layer() {
        // Only M6 sits above an M5 split on the default 6-layer stack; a
        // clamped config would put horizontal trunks on the vertical layer.
        lift_router_config(&RouterConfig::default(), Layer(5));
    }

    #[test]
    fn full_lift_strips_split_layer_extensions() {
        let (mut design, implement) = base();
        let layer = Layer(3);
        let before = split_design(&design, layer);
        let lifted = lift_nets(&mut design, &implement, layer, 1.0);
        assert!(lifted > 0);
        let after = split_design(&design, layer);
        // Lifted FEOL fragments are (near-)bare via stacks: the split-layer
        // wirelength the *matching problem* exposes (complete nets never
        // enter it) collapses.
        let split_wl = |view: &deepsplit_layout::split::SplitView| -> i64 {
            view.fragments
                .iter()
                .filter(|f| f.kind != deepsplit_layout::split::FragKind::Complete)
                .flat_map(|f| &f.segments)
                .filter(|s| s.layer == layer)
                .map(|s| s.len())
                .sum()
        };
        let wl_before = split_wl(&before);
        let wl_after = split_wl(&after);
        eprintln!("split-layer matching wirelength: {wl_before} -> {wl_after}");
        assert!(
            wl_after < wl_before / 4,
            "lifting must strip split-layer wire: {wl_before} -> {wl_after}"
        );
        // The matching problem still exists (nets still cross).
        assert!(after.num_sink_fragments() > 0);
    }

    #[test]
    fn lifting_pays_in_beol_usage() {
        // Zeroing the escape fraction also deletes ladder-escape vias, so the
        // raw via count can *drop*; the honest price of lifting in this
        // router is upper-layer consumption — wire the fab must now route
        // above the split, where track supply is scarcest.
        let (mut design, implement) = base();
        let layer = Layer(3);
        let beol_wl = |d: &Design| -> i64 {
            d.route_stats.wirelength_per_layer[layer.0 as usize..]
                .iter()
                .sum()
        };
        let before = beol_wl(&design);
        lift_nets(&mut design, &implement, layer, 1.0);
        let after = beol_wl(&design);
        eprintln!("BEOL wirelength: {before} -> {after}");
        assert!(
            after > before,
            "promoted trunks must consume more above-split wire: {before} -> {after}"
        );
    }

    #[test]
    fn budget_scales_with_strength() {
        let (design, implement) = base();
        let crossing = crossing_nets(&design.routes, Layer(3)).len();
        let mut half = design.clone();
        let lifted_half = lift_nets(&mut half, &implement, Layer(3), 0.5);
        let mut full = design.clone();
        let lifted_full = lift_nets(&mut full, &implement, Layer(3), 1.0);
        assert!(lifted_half < lifted_full);
        assert_eq!(lifted_full, crossing);
    }
}
