//! Decoy insertion: dummy cut-via stubs and split-layer detours that inflate
//! the candidate lists `select_candidates` builds and poison the directional
//! hints the selection criteria (§4.1) rely on.
//!
//! A decoy is a via stack grown from a real FEOL wire endpoint up to the
//! split layer, optionally walked sideways by a short detour segment in the
//! split layer, and terminated with a *dummy* cut via. To the attacker every
//! cut via is a virtual pin, so each decoy:
//!
//! * adds a fake virtual pin to a real fragment (more VPPs per candidate
//!   list, diluted distance ranking),
//! * points its detour in an arbitrary direction (poisoned direction
//!   criterion — the BEOL continues nowhere),
//! * when grown on a net that never crossed the split layer, fabricates an
//!   entire fake *source* fragment that enters every nearby sink's candidate
//!   list without ever being the answer.
//!
//! The netlist is untouched — decoys are pure layout geometry, so the BEOL
//! fab simply leaves the dummy cuts unconnected. The PPA price is the stub
//! vias and detour wirelength, booked by `DefenseStats`.

use deepsplit_layout::design::Design;
use deepsplit_layout::geom::{Dir, Layer, Point, Rect, Segment, Via};
use deepsplit_layout::route::NetRoute;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Maximum detour length in routing-track units of 400 dbu (0.4 µm).
const DETOUR_STEP_DBU: i64 = 400;
const DETOUR_MAX_STEPS: i64 = 5;

/// Inserts dummy cut-via stubs (with random short detours) on a `strength`
/// fraction of the nets that own FEOL geometry. Returns the number of decoy
/// cut vias inserted.
///
/// Decoys are deterministic for a fixed seed and never merge or detach
/// existing fragments: every stub is anchored at an existing wire endpoint of
/// its own net and only *adds* geometry.
pub(crate) fn insert_decoys(
    design: &mut Design,
    split_layer: Layer,
    strength: f64,
    seed: u64,
) -> usize {
    let m = split_layer.0;
    let die = design.floorplan.die;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0_15e5);

    // Nets with FEOL wire to anchor a stub on, in id order for determinism.
    let eligible: Vec<usize> = design
        .routes
        .iter()
        .enumerate()
        .filter(|(_, r)| r.segments.iter().any(|s| s.layer.0 <= m && !s.is_empty()))
        .map(|(i, _)| i)
        .collect();
    let budget = (strength * eligible.len() as f64).round() as usize;
    if budget == 0 {
        return 0;
    }

    // Deterministic budget draw: shuffle a copy, keep the prefix, restore id
    // order so the insertion sequence is independent of the shuffle.
    let mut picked = eligible;
    picked.shuffle(&mut rng);
    picked.truncate(budget);
    picked.sort_unstable();

    let mut inserted = 0;
    for nid in picked {
        if grow_stub(&mut design.routes[nid], split_layer, die, &mut rng) {
            inserted += 1;
        }
    }
    inserted
}

/// Grows one decoy stub on `route`: a via stack from a random FEOL wire
/// endpoint up to `split_layer`, a short random detour in the split layer's
/// preferred direction (clamped to `die`), and a terminating dummy cut via.
/// Returns whether a stub was added — `false` when the route has no FEOL
/// wire to anchor on or the stub would collide with the net's own cut vias.
///
/// Shared by the geometry-only decoy defense above and the netlist-level
/// camouflage defense, whose dummy cells drive the same stub shape with a
/// realistic load behind it.
pub(crate) fn grow_stub(
    route: &mut NetRoute,
    split_layer: Layer,
    die: Rect,
    rng: &mut StdRng,
) -> bool {
    let m = split_layer.0;
    // Anchor candidates: FEOL segment endpoints (sorted + deduped).
    let mut anchors: Vec<(Point, u8)> = route
        .segments
        .iter()
        .filter(|s| s.layer.0 <= m && !s.is_empty())
        .flat_map(|s| [(s.a, s.layer.0), (s.b, s.layer.0)])
        .collect();
    anchors.sort_unstable();
    anchors.dedup();
    if anchors.is_empty() {
        return false;
    }
    let (anchor, anchor_layer) = anchors[rng.gen_range(0..anchors.len())];

    // Short detour in the split layer's preferred direction, random sign,
    // clamped to the die so image features stay in frame.
    let steps = rng.gen_range(1..=DETOUR_MAX_STEPS);
    let delta = steps * DETOUR_STEP_DBU * if rng.gen_bool(0.5) { 1 } else { -1 };
    let mut tip = anchor;
    match split_layer.dir() {
        Dir::H => tip.x = (anchor.x + delta).clamp(die.lo.x, die.hi.x),
        Dir::V => tip.y = (anchor.y + delta).clamp(die.lo.y, die.hi.y),
    }

    // A decoy pin colliding with a real cut via of the same net would be
    // absorbed into the existing virtual pin; retreat to the anchor, and
    // skip the net entirely if that collides too.
    let existing: HashSet<Via> = route.vias.iter().copied().collect();
    let cut_at = |p: Point| Via {
        lower: split_layer,
        at: p,
    };
    let tip = if existing.contains(&cut_at(tip)) {
        anchor
    } else {
        tip
    };
    if existing.contains(&cut_at(tip)) {
        return false;
    }

    // Stub stack from the anchor layer up to the split layer…
    for l in anchor_layer..m {
        let v = Via {
            lower: Layer(l),
            at: anchor,
        };
        if !existing.contains(&v) {
            route.vias.push(v);
        }
    }
    // …the detour in the split layer…
    if tip != anchor {
        route.segments.push(Segment::new(split_layer, anchor, tip));
    }
    // …and the dummy cut via the attacker mistakes for a virtual pin.
    route.vias.push(cut_at(tip));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::design::ImplementConfig;
    use deepsplit_layout::split::{audit, split_design};
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn base() -> Design {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.5, 41, &lib);
        Design::implement(nl, lib, &ImplementConfig::default())
    }

    #[test]
    fn zero_strength_inserts_nothing() {
        let mut design = base();
        let before = design.routes.clone();
        assert_eq!(insert_decoys(&mut design, Layer(3), 0.0, 7), 0);
        assert_eq!(design.routes, before);
    }

    #[test]
    fn decoys_add_virtual_pins_without_breaking_the_split() {
        let mut design = base();
        let layer = Layer(3);
        let before = split_design(&design, layer);
        let vp_count = |v: &deepsplit_layout::split::SplitView| -> usize {
            v.fragments.iter().map(|f| f.virtual_pins.len()).sum()
        };
        let inserted = insert_decoys(&mut design, layer, 1.0, 7);
        assert!(inserted > 0);
        let after = split_design(&design, layer);
        assert!(
            vp_count(&after) >= vp_count(&before) + inserted / 2,
            "decoys must surface as extra virtual pins"
        );
        assert!(audit(&after, &design).is_empty());
        // Ground truth is untouched: every pre-existing sink still resolves.
        assert!(after.truth.len() >= before.truth.len());
    }

    #[test]
    fn decoys_can_fabricate_fake_sources() {
        let mut design = base();
        let layer = Layer(3);
        let before = split_design(&design, layer).num_source_fragments();
        insert_decoys(&mut design, layer, 1.0, 7);
        let after = split_design(&design, layer).num_source_fragments();
        assert!(
            after > before,
            "full-strength decoys must promote complete nets into fake sources ({before} -> {after})"
        );
    }

    #[test]
    fn decoys_are_deterministic() {
        let mut a = base();
        let mut b = base();
        insert_decoys(&mut a, Layer(3), 0.7, 99);
        insert_decoys(&mut b, Layer(3), 0.7, 99);
        assert_eq!(a.routes, b.routes);
    }
}
