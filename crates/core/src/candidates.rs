//! Candidate VPP selection (paper §4.1).
//!
//! Considering all `#Sk × #Sc` virtual pin pairs would swamp training with
//! negatives (the imbalance problem of §1) and blow up inference time, so the
//! paper selects `n` candidates per sink fragment with three criteria:
//!
//! 1. **Direction** — a looser rule than the network-flow attack's: virtual
//!    pin `p` *prefers* `q` when `q` lies on the opposite side of one of the
//!    wire segments directly connected to `p` (the BEOL continuation naturally
//!    extends past the end of the FEOL wire). A VPP is dropped only when
//!    *neither* pin prefers the other (Table 1 / Fig. 3).
//! 2. **Non-duplication** — per (sink fragment, source fragment) pair only the
//!    VPP with the shortest distance in the split layer's non-preferred
//!    routing direction survives (net lengths are bounded by timing closure).
//! 3. **Distance** — if more than `n` VPPs remain, keep the `n` shortest in
//!    the non-preferred direction, tie-broken by the preferred direction.

use crate::config::AttackConfig;
use deepsplit_flow::proximity::SpatialGrid;
use deepsplit_layout::geom::Point;
use deepsplit_layout::split::{FragId, SplitView};
use std::collections::HashMap;

/// One candidate VPP for a sink fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate source fragment.
    pub source: FragId,
    /// The sink-side virtual pin of the pair.
    pub sink_vp: Point,
    /// The source-side virtual pin of the pair.
    pub source_vp: Point,
}

/// The selected candidates of one sink fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    /// The sink fragment.
    pub sink: FragId,
    /// Up to `n` candidates, sorted by the distance criterion.
    pub candidates: Vec<Candidate>,
    /// Index of the ground-truth positive VPP within `candidates`, when the
    /// selection kept it (`None` ⇒ the attack cannot get this sink right, as
    /// the paper notes).
    pub positive: Option<usize>,
}

/// Directions in which the fragment's wires extend away from a virtual pin.
///
/// Split-layer segments touching the pin take priority (the paper's Fig. 3
/// case); when the pin sits atop a bare via stack, the wires arriving at the
/// stack on lower layers carry the same directional hint and are used
/// instead. An empty list means no wire terminates at the pin at all, in
/// which case the pin prefers every direction.
fn vp_extension_dirs(view: &SplitView, frag: FragId, vp: Point) -> Vec<(i64, i64)> {
    let split = view.split_layer;
    let mut split_dirs = Vec::new();
    let mut lower_dirs = Vec::new();
    for s in &view.fragment(frag).segments {
        if s.is_empty() {
            continue;
        }
        let dir = if s.a == vp {
            ((s.b.x - s.a.x).signum(), (s.b.y - s.a.y).signum())
        } else if s.b == vp {
            ((s.a.x - s.b.x).signum(), (s.a.y - s.b.y).signum())
        } else {
            continue;
        };
        if s.layer == split {
            split_dirs.push(dir);
        } else {
            lower_dirs.push(dir);
        }
    }
    if split_dirs.is_empty() {
        lower_dirs
    } else {
        split_dirs
    }
}

/// Whether virtual pin `p` of fragment `pf` prefers `q` (paper §4.1): true
/// when `q` is on the opposite side of some wire segment directly connected
/// to `p`, or when `p` has no split-layer wire at all.
pub fn prefers(view: &SplitView, pf: FragId, p: Point, q: Point) -> bool {
    let dirs = vp_extension_dirs(view, pf, p);
    if dirs.is_empty() {
        return true;
    }
    let d = (q.x - p.x, q.y - p.y);
    dirs.iter().any(|&(ex, ey)| {
        // The wire extends from p in direction (ex, ey); q is "on the opposite
        // side" when its offset from p points away from the wire body.
        let dot = d.0 * ex + d.1 * ey;
        dot <= 0
    })
}

/// Distance of a VPP along the split layer's *non-preferred* and *preferred*
/// routing directions: `(non_preferred, preferred)`.
pub fn split_distances(view: &SplitView, a: Point, b: Point) -> (i64, i64) {
    let pref = view.split_layer.dir();
    let dp = (a.along(pref) - b.along(pref)).abs();
    let dn = (a.along(pref.flip()) - b.along(pref.flip())).abs();
    (dn, dp)
}

/// Builds the spatial pre-filter index over all source virtual pins.
fn source_vp_index(view: &SplitView) -> (SpatialGrid, Vec<(FragId, Point)>) {
    let mut labelled = Vec::new();
    for &src in &view.sources {
        for &vp in &view.fragment(src).virtual_pins {
            labelled.push((src, vp));
        }
    }
    let n = labelled.len().max(1);
    let cell = ((view.die.half_perimeter() / 2) as f64 / (n as f64).sqrt()).max(1000.0) as i64;
    let grid = SpatialGrid::build(
        labelled
            .iter()
            .enumerate()
            .map(|(i, &(_, p))| (p, i as u32)),
        cell,
    );
    (grid, labelled)
}

/// Selects candidate VPPs for every sink fragment of a view.
pub fn select_candidates(view: &SplitView, config: &AttackConfig) -> Vec<CandidateSet> {
    let (grid, labelled) = source_vp_index(view);
    let pool = config.prefilter_pool.max(config.candidates * 2);
    view.sinks
        .iter()
        .map(|&sink| select_for_sink(view, sink, config, &grid, &labelled, pool))
        .collect()
}

fn select_for_sink(
    view: &SplitView,
    sink: FragId,
    config: &AttackConfig,
    grid: &SpatialGrid,
    labelled: &[(FragId, Point)],
    pool: usize,
) -> CandidateSet {
    let frag = view.fragment(sink);
    // Gather the pre-filter pool of nearby source VPs for every sink VP.
    let mut raw: Vec<Candidate> = Vec::new();
    for &svp in &frag.virtual_pins {
        for (label, _) in grid.k_nearest(svp, pool) {
            let (src, cvp) = labelled[label as usize];
            raw.push(Candidate {
                source: src,
                sink_vp: svp,
                source_vp: cvp,
            });
        }
    }

    // 1. Direction criterion: drop VPPs where neither pin prefers the other.
    raw.retain(|c| {
        prefers(view, sink, c.sink_vp, c.source_vp)
            || prefers(view, c.source, c.source_vp, c.sink_vp)
    });

    // 2. Non-duplication: shortest non-preferred distance per source fragment.
    let mut best: HashMap<FragId, (i64, i64, Candidate)> = HashMap::new();
    for c in raw {
        let (dn, dp) = split_distances(view, c.sink_vp, c.source_vp);
        match best.get(&c.source) {
            Some(&(bn, bp, _)) if (bn, bp) <= (dn, dp) => {}
            _ => {
                best.insert(c.source, (dn, dp, c));
            }
        }
    }

    // 3. Distance criterion: keep the n closest by (non-preferred, preferred).
    let mut list: Vec<(i64, i64, Candidate)> = best.into_values().collect();
    list.sort_by_key(|&(dn, dp, c)| (dn, dp, c.source));
    list.truncate(config.candidates);
    let candidates: Vec<Candidate> = list.into_iter().map(|(_, _, c)| c).collect();

    let positive = view
        .truth
        .get(&sink)
        .and_then(|&src| candidates.iter().position(|c| c.source == src));

    CandidateSet {
        sink,
        candidates,
        positive,
    }
}

/// The share of sink fragments whose positive VPP survives candidate
/// selection — the ceiling on attack CCR (weighted by sink count).
pub fn positive_coverage(view: &SplitView, sets: &[CandidateSet]) -> f64 {
    let mut covered = 0usize;
    let mut total = 0usize;
    for set in sets {
        let c = view.fragment(set.sink).sink_count;
        total += c;
        if set.positive.is_some() {
            covered += c;
        }
    }
    if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    }
}

/// Reproduces the paper's Table 1: the four Sk/Sc preference combinations and
/// the resulting direction-criterion verdicts. Returns rows of
/// `(sk_prefers_sc, sc_prefers_sk, candidate)`.
pub fn table1_rows() -> [(bool, bool, bool); 4] {
    // (Sk prefers Sc, Sc prefers Sk) → candidate iff either preference holds.
    [
        (true, false, true),   // Sk A – Sc A
        (true, true, true),    // Sk A – Sc B
        (false, false, false), // Sk B – Sc A (the excluded pair of Fig. 3)
        (true, true, true),    // Sk B – Sc B
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_layout::design::{Design, ImplementConfig};
    use deepsplit_layout::geom::Layer;
    use deepsplit_layout::split::split_design;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn m3_view() -> SplitView {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.6, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        split_design(&d, Layer(3))
    }

    #[test]
    fn candidate_sets_bounded_by_n() {
        let v = m3_view();
        let config = AttackConfig {
            candidates: 7,
            ..AttackConfig::fast()
        };
        let sets = select_candidates(&v, &config);
        assert_eq!(sets.len(), v.sinks.len());
        for s in &sets {
            assert!(s.candidates.len() <= 7);
            assert!(!s.candidates.is_empty(), "every sink needs candidates");
        }
    }

    #[test]
    fn positive_usually_covered() {
        let v = m3_view();
        let sets = select_candidates(&v, &AttackConfig::fast());
        let cov = positive_coverage(&v, &sets);
        assert!(cov > 0.5, "positive coverage only {cov}");
    }

    #[test]
    fn candidates_sorted_by_nonpreferred_distance() {
        let v = m3_view();
        let sets = select_candidates(&v, &AttackConfig::fast());
        for s in &sets {
            let dists: Vec<(i64, i64)> = s
                .candidates
                .iter()
                .map(|c| split_distances(&v, c.sink_vp, c.source_vp))
                .collect();
            for w in dists.windows(2) {
                assert!(w[0] <= w[1], "not sorted: {:?}", dists);
            }
        }
    }

    #[test]
    fn non_duplication_unique_sources() {
        let v = m3_view();
        let sets = select_candidates(&v, &AttackConfig::fast());
        for s in &sets {
            let mut seen = std::collections::HashSet::new();
            for c in &s.candidates {
                assert!(seen.insert(c.source), "duplicate source in candidates");
            }
        }
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1_rows();
        // Paper Table 1: only the Sk B – Sc A row fails the criterion.
        assert!(rows[0].2);
        assert!(rows[1].2);
        assert!(!rows[2].2);
        assert!(rows[3].2);
        for (sk, sc, cand) in rows {
            assert_eq!(cand, sk || sc, "criterion is the OR of preferences");
        }
    }

    #[test]
    fn bare_via_prefers_everything() {
        let v = m3_view();
        // Find a fragment without split-layer wires; its VP must prefer any q.
        for &sid in v.sources.iter().chain(&v.sinks) {
            let frag = v.fragment(sid);
            let has_split_wire = frag.segments.iter().any(|s| s.layer == v.split_layer);
            if !has_split_wire {
                let vp = frag.virtual_pins[0];
                assert!(prefers(&v, sid, vp, Point::new(vp.x + 5000, vp.y)));
                assert!(prefers(&v, sid, vp, Point::new(vp.x - 5000, vp.y)));
                return;
            }
        }
    }

    #[test]
    fn direction_criterion_excludes_wrong_side() {
        let v = m3_view();
        // For a VP with exactly one split-layer extension, a query point
        // further along the extension direction is not preferred.
        for &sid in &v.sinks {
            let frag = v.fragment(sid);
            for &vp in &frag.virtual_pins {
                let dirs = super::vp_extension_dirs(&v, sid, vp);
                if dirs.len() == 1 {
                    let (ex, ey) = dirs[0];
                    let along = Point::new(vp.x + ex * 9000, vp.y + ey * 9000);
                    let opposite = Point::new(vp.x - ex * 9000, vp.y - ey * 9000);
                    assert!(!prefers(&v, sid, vp, along));
                    assert!(prefers(&v, sid, vp, opposite));
                    return;
                }
            }
        }
    }
}
