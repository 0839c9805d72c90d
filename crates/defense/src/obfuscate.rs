//! Routing obfuscation: randomized detour shapes for nets below the split,
//! so FEOL trunk headings stop predicting the BEOL continuation.
//!
//! The paper's direction criterion (§4.1) and the distance features (§3.1)
//! both read the same tell: a FEOL fragment's wire *extends toward* the place
//! its BEOL continuation lands, because the router walks the shortest L/Z
//! toward the destination. This defense re-routes a budgeted fraction of the
//! crossing nets with a per-net [`RouterConfig`] override (the
//! `route_with` hook) that forces a **Z pattern with an overshooting
//! midpoint**: the trunk first heads *past* (or away from) the true
//! destination, folds back, and only then crosses the split. The virtual pin
//! moves with the detour and the surviving FEOL escape points somewhere the
//! BEOL never goes.
//!
//! The knob (`strength`) is the fraction of crossing nets detoured; the PPA
//! price is the extra wirelength of every overshoot, booked by
//! `DefenseStats`. Detours are deterministic for a fixed seed.

use crate::lift::crossing_nets;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_layout::route::{self, RouterConfig};
use deepsplit_netlist::netlist::NetId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Overshoot band the midpoint fraction is drawn from: far enough past the
/// endpoint that the detour survives track snapping, short enough that the
/// wirelength price stays in the tens of percent.
const OVERSHOOT_LO: f64 = 1.2;
const OVERSHOOT_HI: f64 = 1.6;

/// The randomized detour assigned to one net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetourShape {
    /// Forced pattern candidate: `2` (horizontal Z) or `3` (vertical Z).
    pub pattern: u8,
    /// Z-midpoint fraction; outside `[0, 1]`, so the trunk overshoots.
    pub z_mid_frac: f64,
}

/// The per-net detour assignments of one obfuscation pass — a reusable
/// override layer for [`route::route_with`] that composes with other
/// defenses' overrides via [`route::compose_overrides`].
#[derive(Debug, Clone, Default)]
pub struct ObfuscationPlan {
    shapes: HashMap<NetId, DetourShape>,
}

impl ObfuscationPlan {
    /// Number of nets the plan detours.
    pub(crate) fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the plan detours nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The shape assigned to `nid`, if any.
    pub fn shape(&self, nid: NetId) -> Option<DetourShape> {
        self.shapes.get(&nid).copied()
    }

    /// The router override for `nid`, layered on `base` (which may itself be
    /// another defense's per-net config — e.g. a lifted net's): only the
    /// detour fields change, everything else is inherited.
    pub fn apply_to(&self, nid: NetId, base: &RouterConfig) -> Option<RouterConfig> {
        self.shapes.get(&nid).map(|shape| RouterConfig {
            forced_pattern: Some(shape.pattern),
            z_mid_frac: shape.z_mid_frac,
            ..base.clone()
        })
    }
}

/// Plans detours for a `strength` fraction of the nets crossing
/// `split_layer`, deterministically for a fixed seed.
pub fn plan_obfuscation(
    design: &Design,
    split_layer: Layer,
    strength: f64,
    seed: u64,
) -> ObfuscationPlan {
    let crossing = crossing_nets(&design.routes, split_layer);
    let budget = (strength * crossing.len() as f64).round() as usize;
    if budget == 0 {
        return ObfuscationPlan::default();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bf0_5ca7);
    // Deterministic budget draw (same recipe as the decoy defense): shuffle a
    // copy, keep the prefix, restore id order so per-net draws are
    // independent of the shuffle.
    let mut picked = crossing;
    picked.shuffle(&mut rng);
    picked.truncate(budget);
    picked.sort_unstable();

    let mut shapes = HashMap::with_capacity(picked.len());
    for nid in picked {
        let pattern = if rng.gen_bool(0.5) { 2 } else { 3 };
        let magnitude = rng.gen_range(OVERSHOOT_LO..=OVERSHOOT_HI);
        // Overshoot past the far end, or back out behind the near end.
        let z_mid_frac = if rng.gen_bool(0.5) {
            magnitude
        } else {
            1.0 - magnitude
        };
        shapes.insert(
            nid,
            DetourShape {
                pattern,
                z_mid_frac,
            },
        );
    }
    ObfuscationPlan { shapes }
}

/// Detours a `strength` fraction of crossing nets and re-routes the design.
/// Returns the number of detoured nets.
pub(crate) fn obfuscate_routes(
    design: &mut Design,
    implement: &ImplementConfig,
    split_layer: Layer,
    strength: f64,
    seed: u64,
) -> usize {
    let plan = plan_obfuscation(design, split_layer, strength, seed);
    if plan.is_empty() {
        return 0;
    }
    let (routes, stats) = route::route_with(
        &design.netlist,
        &design.library,
        &design.floorplan,
        &design.placement,
        &implement.router,
        |nid| plan.apply_to(nid, &implement.router),
    );
    design.routes = routes;
    design.route_stats = stats;
    plan.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::split::{audit, split_design};
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn base() -> (Design, ImplementConfig) {
        let lib = CellLibrary::nangate45();
        let implement = ImplementConfig::default();
        let nl = generate_with(Benchmark::C880, 0.5, 17, &lib);
        (Design::implement(nl, lib, &implement), implement)
    }

    #[test]
    fn zero_strength_is_identity() {
        let (mut design, implement) = base();
        let before = design.routes.clone();
        assert_eq!(
            obfuscate_routes(&mut design, &implement, Layer(3), 0.0, 7),
            0
        );
        assert_eq!(design.routes, before);
    }

    #[test]
    fn detours_cost_wirelength_and_stay_structurally_sound() {
        let (mut design, implement) = base();
        let layer = Layer(3);
        let wl_before = design.total_wirelength();
        let detoured = obfuscate_routes(&mut design, &implement, layer, 1.0, 7);
        assert!(detoured > 0);
        assert!(
            design.total_wirelength() > wl_before,
            "overshooting detours must lengthen routes"
        );
        let view = split_design(&design, layer);
        let problems = audit(&view, &design);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(view.num_sink_fragments() > 0, "nets must still cross");
    }

    #[test]
    fn budget_scales_with_strength_over_crossing_nets() {
        let (design, implement) = base();
        let crossing = crossing_nets(&design.routes, Layer(3)).len();
        let mut half = design.clone();
        let mut full = design.clone();
        let d_half = obfuscate_routes(&mut half, &implement, Layer(3), 0.5, 7);
        let d_full = obfuscate_routes(&mut full, &implement, Layer(3), 1.0, 7);
        assert!(d_half < d_full);
        assert_eq!(d_full, crossing, "full strength detours every crossing net");
    }

    #[test]
    fn obfuscation_is_deterministic() {
        let (design, implement) = base();
        let mut a = design.clone();
        let mut b = design.clone();
        obfuscate_routes(&mut a, &implement, Layer(3), 0.7, 23);
        obfuscate_routes(&mut b, &implement, Layer(3), 0.7, 23);
        assert_eq!(a.routes, b.routes);
    }

    #[test]
    fn plan_layers_detour_fields_onto_any_base_config() {
        let (design, _) = base();
        let plan = plan_obfuscation(&design, Layer(3), 1.0, 7);
        assert!(!plan.is_empty());
        let lifted_base = RouterConfig {
            escape_frac: 0.0,
            layer_thresholds: vec![(f64::INFINITY, (5, 4))],
            ..RouterConfig::default()
        };
        let nid = *plan.shapes.keys().next().unwrap();
        let merged = plan.apply_to(nid, &lifted_base).unwrap();
        assert_eq!(merged.escape_frac, 0.0, "base fields inherited");
        assert_eq!(merged.layer_thresholds, lifted_base.layer_thresholds);
        assert!(merged.forced_pattern.is_some(), "detour fields layered on");
        assert!(
            merged.z_mid_frac > 1.0 || merged.z_mid_frac < 0.0,
            "midpoint must overshoot"
        );
    }
}
