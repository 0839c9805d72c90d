//! Placement perturbation: break the "connected cells sit close together"
//! assumption behind the 27 vector features and every proximity-style attack.
//!
//! The perturbation swaps randomly chosen pairs of *equal-width* core cells —
//! legality is preserved by construction (same rows, same spans, no overlap
//! introduced), so no re-legalisation pass is needed — and then re-routes the
//! whole design against the perturbed placement. Pads stay pinned to the
//! perimeter. `strength` scales the number of swap rounds from zero to one
//! attempted swap per movable cell; wirelength (and therefore timing)
//! degrades accordingly, which is exactly the defense's PPA price.

use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::route;
use deepsplit_netlist::netlist::InstId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Perturbs `design`'s placement in place and re-routes it. Returns the
/// number of cells that changed position (two per accepted swap).
pub(crate) fn perturb_placement(
    design: &mut Design,
    implement: &ImplementConfig,
    strength: f64,
    seed: u64,
) -> usize {
    let moved = swap_cells(design, strength, seed);
    if moved > 0 {
        let (routes, stats) = route::route(
            &design.netlist,
            &design.library,
            &design.floorplan,
            &design.placement,
            &implement.router,
        );
        design.routes = routes;
        design.route_stats = stats;
    }
    moved
}

/// Swaps cell positions without re-routing — the routes are stale until the
/// caller re-routes. A building block for defenses that batch several layout
/// edits before paying for one route pass; note that anything ranking nets by
/// routed exposure (e.g. wire lifting) must rank on post-swap routes, which
/// is why [`crate::apply`] re-routes between perturbation and lifting.
pub(crate) fn swap_cells(design: &mut Design, strength: f64, seed: u64) -> usize {
    let nl = &design.netlist;
    let lib = &design.library;
    let movable: Vec<usize> = nl
        .instances()
        .filter(|(_, inst)| !lib.cell(inst.cell).function.is_pad())
        .map(|(id, _)| id.0 as usize)
        .collect();
    if movable.len() < 2 {
        return 0;
    }

    let attempts = (strength * movable.len() as f64).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdef_e45e);
    let width_of = |i: usize| lib.cell(nl.instance(InstId(i as u32)).cell).width_sites;
    let before_origins = design.placement.origins.clone();
    let before_rows = design.placement.rows.clone();

    for _ in 0..attempts {
        let a = movable[rng.gen_range(0..movable.len())];
        let b = movable[rng.gen_range(0..movable.len())];
        // Equal widths keep the row packing legal without re-legalisation.
        if a == b || width_of(a) != width_of(b) {
            continue;
        }
        design.placement.origins.swap(a, b);
        design.placement.rows.swap(a, b);
    }
    // Count against the snapshot, not the swap log: repeated draws of the
    // same pair cancel out and leave those cells exactly where they started.
    movable
        .iter()
        .filter(|&&i| {
            design.placement.origins[i] != before_origins[i]
                || design.placement.rows[i] != before_rows[i]
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::geom::Layer;
    use deepsplit_layout::split::{audit, split_design};
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn base() -> (Design, ImplementConfig) {
        let lib = CellLibrary::nangate45();
        let implement = ImplementConfig::default();
        let nl = generate_with(Benchmark::C432, 0.5, 21, &lib);
        (Design::implement(nl, lib, &implement), implement)
    }

    #[test]
    fn zero_strength_is_identity() {
        let (mut design, implement) = base();
        let before = design.placement.clone();
        let moved = perturb_placement(&mut design, &implement, 0.0, 7);
        assert_eq!(moved, 0);
        assert_eq!(design.placement, before);
    }

    #[test]
    fn perturbed_placement_stays_legal() {
        let (mut design, implement) = base();
        let moved = perturb_placement(&mut design, &implement, 1.0, 7);
        assert!(moved > 0);
        crate::test_util::assert_placement_legal(&design);
    }

    #[test]
    fn perturbation_costs_wirelength_and_reroutes() {
        let (mut design, implement) = base();
        let wl_before = design.total_wirelength();
        perturb_placement(&mut design, &implement, 1.0, 7);
        let wl_after = design.total_wirelength();
        assert!(
            wl_after > wl_before,
            "swapping optimised cells must lengthen routes ({wl_before} -> {wl_after})"
        );
        let view = split_design(&design, Layer(3));
        assert!(audit(&view, &design).is_empty());
    }

    #[test]
    fn hpwl_degrades_monotonically_in_expectation() {
        let (design, implement) = base();
        let mut weak = design.clone();
        let mut strong = design.clone();
        perturb_placement(&mut weak, &implement, 0.2, 7);
        perturb_placement(&mut strong, &implement, 1.0, 7);
        assert!(strong.hpwl() > design.hpwl());
        assert!(strong.hpwl() >= weak.hpwl());
    }
}
