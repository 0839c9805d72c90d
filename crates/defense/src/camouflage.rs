//! Netlist-level camouflage: dummy cells driving decoy stubs with realistic
//! electrical load, so decoys survive the capacitance screening of the
//! network-flow attack.
//!
//! The geometry-only decoy defense fabricates fake source fragments out of
//! bare via stacks — and the network-flow baseline strips them, because a
//! fragment with no driver gets no load budget (its super-source edge
//! capacity collapses to the minimum). This defense plants real
//! [`deepsplit_netlist::camo`] cell pairs into free placement sites: each
//! pair's inverter genuinely *drives* a net terminated by a flip-flop pin,
//! and a decoy stub grown on that net (the same shape the decoy defense
//! uses) turns its fragment into a fake source backed by a real
//! `max_load_ff` budget. The library lookup every attacker performs now
//! vouches for the decoy.
//!
//! `strength` scales the number of pairs toward one fake source per real
//! source fragment; the PPA price is the pair's cell area, wiring and stub
//! vias. Pairs are functionally invisible (closed toggle registers) and the
//! insertion is deterministic for a fixed seed.

use crate::decoy;
use deepsplit_layout::design::{Design, ImplementConfig};
use deepsplit_layout::geom::{Layer, Point};
use deepsplit_layout::route;
use deepsplit_layout::split::split_design;
use deepsplit_netlist::camo::{add_camo_pair, camo_pair_width_sites};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// What one camouflage pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CamoOutcome {
    /// Dummy cells added (two per pair).
    pub cells: usize,
    /// Dummy cut vias terminating the pairs' decoy stubs.
    pub decoy_vias: usize,
}

/// A free placement slot wide enough for one camouflage pair.
#[derive(Debug, Clone, Copy)]
struct Slot {
    row: usize,
    x: i64,
}

/// All pair-sized free slots, in deterministic `(row, x)` order.
fn free_slots(design: &Design, pair_sites: usize) -> Vec<Slot> {
    let fp = &design.floorplan;
    let pair_width = pair_sites as i64 * fp.site_width;
    // Occupied spans per row.
    let mut spans: Vec<Vec<(i64, i64)>> = vec![Vec::new(); fp.num_rows];
    for (id, inst) in design.netlist.instances() {
        let spec = design.library.cell(inst.cell);
        if spec.function.is_pad() {
            continue;
        }
        let row = design.placement.rows[id.0 as usize];
        if row >= fp.num_rows {
            continue;
        }
        let o = design.placement.origins[id.0 as usize];
        spans[row].push((o.x, o.x + spec.width_sites as i64 * fp.site_width));
    }
    let mut slots = Vec::new();
    for (row, row_spans) in spans.iter_mut().enumerate() {
        row_spans.sort_unstable();
        let mut cursor = fp.core.lo.x;
        let mut gaps: Vec<(i64, i64)> = Vec::new();
        for &(lo, hi) in row_spans.iter() {
            if lo > cursor {
                gaps.push((cursor, lo));
            }
            cursor = cursor.max(hi);
        }
        if cursor < fp.core.hi.x {
            gaps.push((cursor, fp.core.hi.x));
        }
        for (lo, hi) in gaps {
            let mut x = lo;
            while x + pair_width <= hi {
                slots.push(Slot { row, x });
                x += pair_width;
            }
        }
    }
    slots
}

/// Inserts camouflage pairs into `design`: netlist surgery, placement into
/// free sites, a full re-route, and a decoy stub on every pair's net.
/// Returns the cells-and-vias ledger.
pub(crate) fn insert_camouflage(
    design: &mut Design,
    implement: &ImplementConfig,
    split_layer: Layer,
    strength: f64,
    seed: u64,
) -> CamoOutcome {
    // Budget: up to one fake source per real source fragment at this layer.
    let real_sources = split_design(design, split_layer).num_source_fragments();
    let budget = (strength * real_sources as f64).round() as usize;
    if budget == 0 {
        return CamoOutcome::default();
    }
    let pair_sites = camo_pair_width_sites(&design.library);
    let mut slots = free_slots(design, pair_sites);
    if slots.is_empty() {
        return CamoOutcome::default();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca30_f1a6);
    slots.shuffle(&mut rng);
    slots.truncate(budget);

    // Netlist surgery + placement: the inverter sits at the slot origin, the
    // flip-flop packs right next to it (equal row), so the pair's net is a
    // short FEOL-only wire the stub can anchor on.
    let fp = design.floorplan.clone();
    let lib = design.library.clone();
    let inv_width = {
        let inv = lib.find_id("INV_X1").expect("INV_X1 in library");
        lib.cell(inv).width_sites as i64 * fp.site_width
    };
    let mut pairs = Vec::with_capacity(slots.len());
    for (tag, slot) in slots.iter().enumerate() {
        let pair = add_camo_pair(&mut design.netlist, &lib, tag);
        let y = fp.row_y(slot.row);
        design.placement.origins.push(Point::new(slot.x, y));
        design.placement.rows.push(slot.row);
        design
            .placement
            .origins
            .push(Point::new(slot.x + inv_width, y));
        design.placement.rows.push(slot.row);
        pairs.push(pair);
    }

    // Re-route the whole design — the new nets need geometry and the router
    // statistics vectors must cover them.
    let (routes, stats) = route::route(
        &design.netlist,
        &design.library,
        &design.floorplan,
        &design.placement,
        &implement.router,
    );
    design.routes = routes;
    design.route_stats = stats;

    // Grow the decoy stub that makes each pair's fragment a fake source.
    let die = design.floorplan.die;
    let mut decoy_vias = 0;
    for pair in &pairs {
        let route = &mut design.routes[pair.decoy_net.0 as usize];
        if decoy::grow_stub(route, split_layer, die, &mut rng) {
            decoy_vias += 1;
        }
    }
    CamoOutcome {
        cells: 2 * pairs.len(),
        decoy_vias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::split::{audit, FragKind};
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn base() -> (Design, ImplementConfig) {
        let lib = CellLibrary::nangate45();
        let implement = ImplementConfig::default();
        let nl = generate_with(Benchmark::C432, 0.5, 37, &lib);
        (Design::implement(nl, lib, &implement), implement)
    }

    #[test]
    fn zero_strength_is_identity() {
        let (mut design, implement) = base();
        let before = design.netlist.num_instances();
        let out = insert_camouflage(&mut design, &implement, Layer(3), 0.0, 7);
        assert_eq!(out, CamoOutcome::default());
        assert_eq!(design.netlist.num_instances(), before);
    }

    #[test]
    fn camouflage_fabricates_driver_backed_fake_sources() {
        let (mut design, implement) = base();
        let layer = Layer(3);
        let before = split_design(&design, layer);
        let out = insert_camouflage(&mut design, &implement, layer, 1.0, 7);
        assert!(out.cells > 0 && out.decoy_vias > 0);
        assert!(design.netlist.validate_with(&design.library).is_ok());

        let after = split_design(&design, layer);
        let problems = audit(&after, &design);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(
            after.num_source_fragments() > before.num_source_fragments(),
            "camouflage must add fake sources ({} -> {})",
            before.num_source_fragments(),
            after.num_source_fragments()
        );
        // Unlike geometry-only decoys, every fake source has a real driver
        // behind it — the property that defeats capacitance screening.
        for &src in &after.sources {
            assert!(
                deepsplit_layout::electrical::driver_spec(
                    &after,
                    src,
                    &design.netlist,
                    &design.library
                )
                .is_some(),
                "source fragment {src:?} has no driver spec"
            );
        }
        // The matching problem itself is unchanged: no new broken sinks.
        assert_eq!(
            after.num_sink_fragments(),
            before.num_sink_fragments(),
            "camouflage must not break additional real nets"
        );
    }

    #[test]
    fn camouflaged_placement_stays_legal() {
        let (mut design, implement) = base();
        insert_camouflage(&mut design, &implement, Layer(3), 1.0, 7);
        crate::test_util::assert_placement_legal(&design);
    }

    #[test]
    fn camouflage_is_deterministic() {
        let (design, implement) = base();
        let mut a = design.clone();
        let mut b = design.clone();
        insert_camouflage(&mut a, &implement, Layer(3), 0.8, 51);
        insert_camouflage(&mut b, &implement, Layer(3), 0.8, 51);
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn fake_sources_are_complete_fragments_without_the_stub() {
        // The camo net itself never crosses: driver and load pack side by
        // side, so only the grown stub makes the fragment look split.
        let (mut design, implement) = base();
        let layer = Layer(3);
        insert_camouflage(&mut design, &implement, layer, 1.0, 7);
        let view = split_design(&design, layer);
        let fake_sources = view
            .fragments
            .iter()
            .filter(|f| {
                f.kind == FragKind::Source
                    && design.netlist.net(f.net).name.starts_with("camo_net_")
            })
            .count();
        assert!(
            fake_sources > 0,
            "camo nets must surface as source fragments"
        );
    }
}
