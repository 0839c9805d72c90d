//! The naïve proximity attack (Rajendran et al., DATE'13) and the spatial
//! index shared with the network-flow attack.
//!
//! The naïve attack connects every sink fragment to the *closest* source
//! fragment, exploiting only placement proximity. It performs reasonably on
//! hierarchical designs but poorly on flat layouts — it is the floor the other
//! attacks are measured against, and the network-flow attack provably reduces
//! to it when capacitance constraints are loose.

use crate::metrics::Assignment;
use deepsplit_layout::geom::Point;
use deepsplit_layout::split::{FragId, SplitView};
use std::collections::{BTreeMap, HashMap};

/// A uniform-grid spatial index over labelled points.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: i64,
    buckets: HashMap<(i64, i64), Vec<(Point, u32)>>,
    len: usize,
}

impl SpatialGrid {
    /// Builds an index with the given cell size (dbu).
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0`.
    pub fn build(points: impl IntoIterator<Item = (Point, u32)>, cell: i64) -> SpatialGrid {
        assert!(cell > 0, "cell size must be positive");
        let mut buckets: HashMap<(i64, i64), Vec<(Point, u32)>> = HashMap::new();
        let mut len = 0;
        for (p, id) in points {
            buckets
                .entry((p.x.div_euclid(cell), p.y.div_euclid(cell)))
                .or_default()
                .push((p, id));
            len += 1;
        }
        SpatialGrid { cell, buckets, len }
    }

    /// Whether the index is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `k` nearest points to `q` by Manhattan distance, as
    /// `(label, distance)` sorted ascending. Ties broken by label for
    /// determinism.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<(u32, i64)> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let (cx, cy) = (q.x.div_euclid(self.cell), q.y.div_euclid(self.cell));
        let mut found: Vec<(i64, u32)> = Vec::new(); // (dist, label)
        let mut ring = 0i64;
        loop {
            // Scan the cells of this ring.
            let mut scanned_any = false;
            for dx in -ring..=ring {
                for dy in [-(ring - dx.abs()), ring - dx.abs()] {
                    if dx.abs() + dy.abs() != ring {
                        continue;
                    }
                    if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy)) {
                        scanned_any = true;
                        for &(p, id) in bucket {
                            found.push((q.manhattan(p), id));
                        }
                    }
                    if dy == 0 {
                        break; // avoid double-scanning the dy = ±0 cell
                    }
                }
            }
            let _ = scanned_any;
            // Stop once the kth best cannot be beaten by farther rings: any
            // point in ring r is at Manhattan distance ≥ (r-1) * cell.
            if found.len() >= k {
                found.sort_unstable();
                let kth = found[k - 1].0;
                if (ring - 1).max(0) * self.cell > kth {
                    break;
                }
            }
            ring += 1;
            // All buckets exhausted: the farthest possible ring is bounded.
            if ring * self.cell > 4 * self.span() + 2 * self.cell {
                break;
            }
        }
        found.sort_unstable();
        found.truncate(k);
        found.into_iter().map(|(d, id)| (id, d)).collect()
    }

    /// The nearest point to `q`, as `(label, distance)`.
    pub fn nearest(&self, q: Point) -> Option<(u32, i64)> {
        self.k_nearest(q, 1).into_iter().next()
    }

    /// Coordinate span covered by the index (for ring termination).
    fn span(&self) -> i64 {
        let mut lo = (i64::MAX, i64::MAX);
        let mut hi = (i64::MIN, i64::MIN);
        // splint::allow(D1, "min/max fold over bucket coordinates is order-independent")
        for &(bx, by) in self.buckets.keys() {
            lo = (lo.0.min(bx), lo.1.min(by));
            hi = (hi.0.max(bx), hi.1.max(by));
        }
        ((hi.0 - lo.0).max(hi.1 - lo.1) + 1) * self.cell
    }
}

/// Builds the source-virtual-pin index of a split view. Labels are indices
/// into `view.sources`.
pub(crate) fn source_pin_index(view: &SplitView) -> SpatialGrid {
    let die = view.die;
    let n = view.sources.len().max(1);
    // Cell size ≈ die span / sqrt(n) keeps a few points per bucket.
    let cell = ((die.half_perimeter() / 2) as f64 / (n as f64).sqrt()).max(1000.0) as i64;
    let pts = view.sources.iter().enumerate().flat_map(|(idx, &src)| {
        view.fragment(src)
            .virtual_pins
            .iter()
            .map(move |&p| (p, idx as u32))
    });
    SpatialGrid::build(pts, cell)
}

/// The naïve proximity attack: each sink fragment picks the source fragment
/// with the closest virtual pin to any of its own virtual pins.
pub fn proximity_attack(view: &SplitView) -> Assignment {
    let index = source_pin_index(view);
    let mut out = Assignment::new();
    for &sink in &view.sinks {
        let frag = view.fragment(sink);
        let mut best: Option<(i64, u32)> = None;
        for &vp in &frag.virtual_pins {
            if let Some((label, d)) = index.nearest(vp) {
                if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                    best = Some((d, label));
                }
            }
        }
        if let Some((_, label)) = best {
            out.push((sink, view.sources[label as usize]));
        }
    }
    out
}

/// Like [`proximity_attack`] but returns the `k` best candidate sources per
/// sink (deduplicated, sorted by distance) — the candidate generator for the
/// network-flow attack.
pub(crate) fn candidate_sources(view: &SplitView, k: usize) -> HashMap<FragId, Vec<(FragId, i64)>> {
    let index = source_pin_index(view);
    let mut out = HashMap::new();
    for &sink in &view.sinks {
        let frag = view.fragment(sink);
        let mut best_per_source: BTreeMap<u32, i64> = BTreeMap::new();
        for &vp in &frag.virtual_pins {
            for (label, d) in index.k_nearest(vp, k) {
                best_per_source
                    .entry(label)
                    .and_modify(|cur| *cur = (*cur).min(d))
                    .or_insert(d);
            }
        }
        let mut cands: Vec<(FragId, i64)> = best_per_source
            .into_iter()
            .map(|(label, d)| (view.sources[label as usize], d))
            .collect();
        cands.sort_by_key(|&(id, d)| (d, id));
        cands.truncate(k);
        out.insert(sink, cands);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ccr;
    use deepsplit_layout::design::{Design, ImplementConfig};
    use deepsplit_layout::geom::Layer;
    use deepsplit_layout::split::split_design;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    #[test]
    fn grid_nearest_is_exact() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pts: Vec<(Point, u32)> = (0..200)
            .map(|i| {
                (
                    Point::new(rng.gen_range(0..100_000), rng.gen_range(0..100_000)),
                    i,
                )
            })
            .collect();
        let grid = SpatialGrid::build(pts.iter().copied(), 7000);
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(0..100_000), rng.gen_range(0..100_000));
            let (id, d) = grid.nearest(q).unwrap();
            let brute = pts.iter().map(|&(p, i)| (q.manhattan(p), i)).min().unwrap();
            assert_eq!(d, brute.0, "distance mismatch");
            // Allow equal-distance ties.
            let brute_d = brute.0;
            let tied: Vec<u32> = pts
                .iter()
                .filter(|&&(p, _)| q.manhattan(p) == brute_d)
                .map(|&(_, i)| i)
                .collect();
            assert!(tied.contains(&id));
        }
    }

    #[test]
    fn k_nearest_sorted_and_exact() {
        let pts: Vec<(Point, u32)> = (0..20).map(|i| (Point::new(i * 10, 0), i as u32)).collect();
        let grid = SpatialGrid::build(pts, 25);
        let got = grid.k_nearest(Point::new(0, 0), 5);
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], (0, 0));
        assert_eq!(got[1], (1, 10));
        assert_eq!(got[4], (4, 40));
    }

    #[test]
    fn proximity_attack_beats_chance() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.5, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let v = split_design(&d, Layer(3));
        let a = proximity_attack(&v);
        let score = ccr(&v, &a);
        let chance = 1.0 / v.num_source_fragments().max(1) as f64;
        assert!(
            score > 2.0 * chance,
            "proximity CCR {score} should beat chance {chance}"
        );
    }

    #[test]
    fn assignment_covers_all_sinks() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C880, 0.3, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let v = split_design(&d, Layer(1));
        let a = proximity_attack(&v);
        assert_eq!(a.len(), v.sinks.len());
    }

    #[test]
    fn candidates_include_nearest() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.3, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let v = split_design(&d, Layer(1));
        let prox = proximity_attack(&v);
        let cands = candidate_sources(&v, 8);
        for (sink, src) in prox {
            let c = &cands[&sink];
            assert!(
                c.iter().any(|&(s, _)| s == src),
                "nearest source missing from candidates"
            );
        }
    }
}
