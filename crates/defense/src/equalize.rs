//! Virtual-pin density equalization: placement-level smoothing that spreads
//! split-layer crossings across the die until the image-feature channel
//! loses contrast.
//!
//! The image features (paper §3.2) rasterise each virtual pin's FEOL
//! neighbourhood; congested regions — many crossings packed into few bins —
//! light up as high-contrast density that localises a fragment and shortlists
//! its continuations. This defense measures the per-bin density of split
//! crossings and repeatedly swaps equal-width cells out of the densest bins
//! into the sparsest ones (legality preserved by construction, exactly as the
//! perturbation defense does), re-routing after every pass so the next
//! measurement sees the crossings where they actually moved.
//!
//! `strength` scales the number of cells relocated per pass; the PPA price is
//! the wirelength of the stretched nets. The loop stops early once the
//! density contrast (coefficient of variation over bins) drops below a flat
//! target, so weak layouts are not churned for nothing.

use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::Layer;
use deepsplit_layout::route;
use deepsplit_netlist::netlist::InstId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Bin grid edge: the die splits into `DENSITY_BINS × DENSITY_BINS` bins.
pub(crate) const DENSITY_BINS: usize = 8;

/// Density contrast below which the smoothing loop declares victory at zero
/// strength; the threshold scales down linearly with `strength`, so a
/// full-strength pass keeps flattening until its swap budget is spent.
const TARGET_CV: f64 = 0.35;

/// Smoothing passes at full strength (each pass re-routes the design).
const MAX_PASSES: usize = 3;

/// Per-bin count of split-layer crossings (cut vias at `split_layer`), over a
/// `bins × bins` grid spanning the **core** (vias routed into the pad margin
/// clamp to the nearest core bin). Row-major, index `by * bins + bx`. The
/// core grid keeps the histogram aligned with where cells can actually move,
/// so smoothing never chases contrast into the empty pad ring.
pub(crate) fn virtual_pin_bins(design: &Design, split_layer: Layer, bins: usize) -> Vec<usize> {
    let core = design.floorplan.core;
    let w = core.width().max(1);
    let h = core.height().max(1);
    let mut counts = vec![0usize; bins * bins];
    for r in &design.routes {
        for v in r.vias.iter().filter(|v| v.lower == split_layer) {
            let bx = ((v.at.x - core.lo.x).clamp(0, w - 1) as usize * bins) / w as usize;
            let by = ((v.at.y - core.lo.y).clamp(0, h - 1) as usize * bins) / h as usize;
            counts[by * bins + bx] += 1;
        }
    }
    counts
}

/// Coefficient of variation (σ / µ) of a bin histogram — the contrast the
/// image channel sees. `0.0` for an empty histogram.
pub(crate) fn density_cv(counts: &[usize]) -> f64 {
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n.max(1.0);
    if mean <= 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Bin index of a cell center on the same grid as [`virtual_pin_bins`].
fn bin_of(design: &Design, id: InstId, bins: usize) -> usize {
    let core = design.floorplan.core;
    let w = core.width().max(1);
    let h = core.height().max(1);
    let c = design
        .placement
        .center(id, &design.netlist, &design.library, &design.floorplan);
    let bx = ((c.x - core.lo.x).clamp(0, w - 1) as usize * bins) / w as usize;
    let by = ((c.y - core.lo.y).clamp(0, h - 1) as usize * bins) / h as usize;
    by * bins + bx
}

/// Smooths virtual-pin density by swapping equal-width cells from the
/// densest bins into the sparsest, re-routing after every pass. Returns the
/// number of cells that ended up displaced.
pub(crate) fn equalize_pin_density(
    design: &mut Design,
    implement: &ImplementConfig,
    split_layer: Layer,
    strength: f64,
    seed: u64,
) -> usize {
    let movable: Vec<InstId> = design
        .netlist
        .instances()
        .filter(|(_, inst)| !design.library.cell(inst.cell).function.is_pad())
        .map(|(id, _)| id)
        .collect();
    let swaps_per_pass = (strength * movable.len() as f64 / MAX_PASSES as f64).round() as usize;
    if swaps_per_pass == 0 || movable.len() < 2 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe9a1_12e5);
    let before_origins = design.placement.origins.clone();
    let before_rows = design.placement.rows.clone();
    let width_of = |design: &Design, id: InstId| {
        design
            .library
            .cell(design.netlist.instance(id).cell)
            .width_sites
    };

    // The strength knob sets the contrast the defender will tolerate: weak
    // settings stop at a lenient target, full strength accepts none and
    // smooths until the per-pass swap budgets run out.
    let target_cv = (1.0 - strength) * TARGET_CV;
    for _ in 0..MAX_PASSES {
        let counts = virtual_pin_bins(design, split_layer, DENSITY_BINS);
        if density_cv(&counts) <= target_cv {
            break;
        }
        // Bin the movable cells once, then split the bins into a dense
        // quarter (swap sources) and a sparse quarter (destinations). Both
        // sides keep only bins that actually hold movable cells — a
        // low-count bin nobody can move into is not a destination.
        let mut cells_by_bin: Vec<Vec<InstId>> = vec![Vec::new(); counts.len()];
        for &id in &movable {
            cells_by_bin[bin_of(design, id, DENSITY_BINS)].push(id);
        }
        let mut order: Vec<usize> = (0..counts.len())
            .filter(|&b| !cells_by_bin[b].is_empty())
            .collect();
        order.sort_by_key(|&b| std::cmp::Reverse(counts[b]));
        let quarter = (counts.len() / 4).max(1).min(order.len() / 2);
        if quarter == 0 {
            break;
        }
        let dense_pool: Vec<InstId> = order[..quarter]
            .iter()
            .flat_map(|&b| cells_by_bin[b].iter().copied())
            .collect();
        // Sparse pool grouped by width so a swap partner is found in O(1).
        let mut sparse_pool: HashMap<u32, Vec<InstId>> = HashMap::new();
        for &b in order.iter().rev().take(quarter) {
            for &id in &cells_by_bin[b] {
                sparse_pool
                    .entry(width_of(design, id))
                    .or_default()
                    .push(id);
            }
        }
        if dense_pool.is_empty() || sparse_pool.is_empty() {
            break;
        }

        // Each cell participates in at most one swap per pass: the pools are
        // measured once, so without this a swapped-out cell could be drawn
        // again and shuffled laterally (sparse-to-sparse), spending budget —
        // and inflating the displacement ledger — without flattening
        // anything.
        let mut used: HashSet<InstId> = HashSet::new();
        let mut swapped = false;
        for _ in 0..swaps_per_pass {
            let a = dense_pool[rng.gen_range(0..dense_pool.len())];
            let Some(partners) = sparse_pool.get(&width_of(design, a)) else {
                continue;
            };
            let b = partners[rng.gen_range(0..partners.len())];
            if a == b || used.contains(&a) || used.contains(&b) {
                continue;
            }
            used.insert(a);
            used.insert(b);
            design.placement.origins.swap(a.0 as usize, b.0 as usize);
            design.placement.rows.swap(a.0 as usize, b.0 as usize);
            swapped = true;
        }
        if !swapped {
            break;
        }
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

    // Count displacement against the snapshot: repeated swaps of one pair
    // cancel out, exactly as in the perturbation defense.
    movable
        .iter()
        .filter(|&&id| {
            design.placement.origins[id.0 as usize] != before_origins[id.0 as usize]
                || design.placement.rows[id.0 as usize] != before_rows[id.0 as usize]
        })
        .count()
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
        let nl = generate_with(Benchmark::C880, 0.5, 29, &lib);
        (Design::implement(nl, lib, &implement), implement)
    }

    #[test]
    fn zero_strength_is_identity() {
        let (mut design, implement) = base();
        let before = design.placement.clone();
        assert_eq!(
            equalize_pin_density(&mut design, &implement, Layer(3), 0.0, 7),
            0
        );
        assert_eq!(design.placement, before);
    }

    #[test]
    fn full_strength_reduces_density_contrast() {
        let (mut design, implement) = base();
        let layer = Layer(3);
        let cv_before = density_cv(&virtual_pin_bins(&design, layer, DENSITY_BINS));
        let moved = equalize_pin_density(&mut design, &implement, layer, 1.0, 7);
        assert!(moved > 0);
        let cv_after = density_cv(&virtual_pin_bins(&design, layer, DENSITY_BINS));
        assert!(
            cv_after < cv_before,
            "smoothing must flatten the histogram: CV {cv_before:.3} -> {cv_after:.3}"
        );
        let view = split_design(&design, layer);
        let problems = audit(&view, &design);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn equalized_placement_stays_legal() {
        let (mut design, implement) = base();
        equalize_pin_density(&mut design, &implement, Layer(3), 1.0, 7);
        crate::test_util::assert_placement_legal(&design);
    }

    #[test]
    fn equalization_is_deterministic() {
        let (design, implement) = base();
        let mut a = design.clone();
        let mut b = design.clone();
        equalize_pin_density(&mut a, &implement, Layer(3), 0.8, 41);
        equalize_pin_density(&mut b, &implement, Layer(3), 0.8, 41);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.routes, b.routes);
    }

    #[test]
    fn cv_of_uniform_histogram_is_zero() {
        assert_eq!(density_cv(&[4, 4, 4, 4]), 0.0);
        assert_eq!(density_cv(&[]), 0.0);
        assert!(density_cv(&[0, 0, 0, 16]) > 1.0);
    }
}
