//! Row-based standard-cell placement.
//!
//! The attack's core assumption is that "physical design tools place
//! components close to each other when they are connected" — so the placer
//! must genuinely minimise wirelength. We use the classic recipe:
//!
//! 1. pads pinned around the core boundary,
//! 2. seeded random initial placement,
//! 3. iterated net-centroid averaging (a Jacobi sweep of the quadratic
//!    wirelength system, the same objective class as analytic placers),
//! 4. row legalisation by Tetris packing,
//! 5. optional simulated-annealing refinement of the legal placement.

use crate::floorplan::Floorplan;
use crate::geom::Point;
use deepsplit_netlist::library::{CellFunction, CellLibrary};
use deepsplit_netlist::netlist::{InstId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Placement configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacerConfig {
    /// Number of centroid-averaging sweeps.
    pub iterations: usize,
    /// Fraction of the new position taken from the centroid target per sweep.
    pub damping: f64,
    /// Simulated-annealing moves per cell (0 disables refinement).
    pub anneal_moves_per_cell: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            iterations: 24,
            damping: 0.8,
            anneal_moves_per_cell: 12,
            seed: 1,
        }
    }
}

/// A legal placement: cell origins (lower-left) plus the row of each cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Lower-left origin of every instance (pads included), indexed by
    /// instance id.
    pub origins: Vec<Point>,
    /// Row index of each core cell (`usize::MAX` for pads).
    pub rows: Vec<usize>,
}

impl Placement {
    /// Center point of instance `id` given its cell width.
    pub fn center(&self, id: InstId, nl: &Netlist, lib: &CellLibrary, fp: &Floorplan) -> Point {
        let spec = lib.cell(nl.instance(id).cell);
        let o = self.origins[id.0 as usize];
        Point::new(
            o.x + spec.width_sites as i64 * fp.site_width / 2,
            o.y + fp.row_height / 2,
        )
    }
}

/// Location of a specific pin in the layout (all pins sit on M1).
pub(crate) fn pin_position(
    nl: &Netlist,
    lib: &CellLibrary,
    fp: &Floorplan,
    placement: &Placement,
    inst: InstId,
    pin: u8,
) -> Point {
    let spec = lib.cell(nl.instance(inst).cell);
    let o = placement.origins[inst.0 as usize];
    let w = spec.width_sites as i64 * fp.site_width;
    let n = spec.pins.len() as i64;
    // Pins spread evenly across the cell width, alternating between 1/3 and
    // 2/3 of the row height (approximating real pin shapes).
    let x = o.x + w * (pin as i64 + 1) / (n + 1);
    let y = o.y
        + if pin.is_multiple_of(2) {
            fp.row_height / 3
        } else {
            2 * fp.row_height / 3
        };
    Point::new(x, y)
}

/// Places `nl` into `fp`.
///
/// # Panics
///
/// Panics if the floorplan cannot fit the netlist (see
/// [`Floorplan::capacity_sites`]).
pub fn place(nl: &Netlist, lib: &CellLibrary, fp: &Floorplan, config: &PlacerConfig) -> Placement {
    let n = nl.num_instances();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0091_ace5);
    let mut pos: Vec<(f64, f64)> = Vec::with_capacity(n);
    let mut is_pad = vec![false; n];

    // Pads around the boundary: inputs on left/top, outputs on right/bottom.
    let mut pads_in = Vec::new();
    let mut pads_out = Vec::new();
    for (id, inst) in nl.instances() {
        match lib.cell(inst.cell).function {
            CellFunction::PadIn => {
                is_pad[id.0 as usize] = true;
                pads_in.push(id);
            }
            CellFunction::PadOut => {
                is_pad[id.0 as usize] = true;
                pads_out.push(id);
            }
            _ => {}
        }
    }

    // Initial random positions for core cells; fixed perimeter slots for pads.
    for &pad in &is_pad {
        if pad {
            pos.push((0.0, 0.0)); // set below
        } else {
            let x = fp.core.lo.x as f64 + rng.gen::<f64>() * fp.core.width() as f64;
            let y = fp.core.lo.y as f64 + rng.gen::<f64>() * fp.core.height() as f64;
            pos.push((x, y));
        }
    }
    place_pads_on_perimeter(&pads_in, &pads_out, fp, &mut pos);

    // Net-centroid sweeps. Each sweep: compute every net's centroid over its
    // pin owners, then move every movable cell toward the mean of its nets'
    // centroids.
    let mut net_centroid: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); nl.num_nets()];
    let mut cell_acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); n];
    for sweep in 0..config.iterations {
        for c in net_centroid.iter_mut() {
            *c = (0.0, 0.0, 0.0);
        }
        for (nid, net) in nl.nets() {
            let mut acc = (0.0f64, 0.0f64, 0.0f64);
            if let Some(d) = net.driver {
                let p = pos[d.inst.0 as usize];
                acc = (acc.0 + p.0, acc.1 + p.1, acc.2 + 1.0);
            }
            for s in &net.sinks {
                let p = pos[s.inst.0 as usize];
                acc = (acc.0 + p.0, acc.1 + p.1, acc.2 + 1.0);
            }
            net_centroid[nid.0 as usize] = acc;
        }
        for a in cell_acc.iter_mut() {
            *a = (0.0, 0.0, 0.0);
        }
        for (nid, net) in nl.nets() {
            // Weight small nets higher: they bind cells more tightly, like the
            // 1/(p-1) net model in quadratic placement.
            let k = net_centroid[nid.0 as usize].2;
            if k < 2.0 {
                continue;
            }
            let w = 1.0 / (k - 1.0);
            let (cx, cy, _) = net_centroid[nid.0 as usize];
            let mut visit = |inst: InstId| {
                let me = pos[inst.0 as usize];
                // Centroid of the *other* pins of the net.
                let ox = (cx - me.0) / (k - 1.0);
                let oy = (cy - me.1) / (k - 1.0);
                let a = &mut cell_acc[inst.0 as usize];
                a.0 += w * ox;
                a.1 += w * oy;
                a.2 += w;
            };
            if let Some(d) = net.driver {
                visit(d.inst);
            }
            for s in &net.sinks {
                visit(s.inst);
            }
        }
        let jitter = fp.row_height as f64 * 0.5 * (1.0 - sweep as f64 / config.iterations as f64);
        for i in 0..n {
            if is_pad[i] || cell_acc[i].2 == 0.0 {
                continue;
            }
            let tx = cell_acc[i].0 / cell_acc[i].2;
            let ty = cell_acc[i].1 / cell_acc[i].2;
            let d = config.damping;
            pos[i].0 = (1.0 - d) * pos[i].0 + d * tx + rng.gen_range(-jitter..=jitter);
            pos[i].1 = (1.0 - d) * pos[i].1 + d * ty + rng.gen_range(-jitter..=jitter);
            pos[i].0 = pos[i]
                .0
                .clamp(fp.core.lo.x as f64, fp.core.hi.x as f64 - 1.0);
            pos[i].1 = pos[i]
                .1
                .clamp(fp.core.lo.y as f64, fp.core.hi.y as f64 - 1.0);
        }
    }

    let mut placement = legalize(nl, lib, fp, &pos, &is_pad);
    if config.anneal_moves_per_cell > 0 {
        anneal(nl, lib, fp, &mut placement, &is_pad, config, &mut rng);
    }
    placement
}

/// Distributes pads evenly along the four die edges.
fn place_pads_on_perimeter(
    pads_in: &[InstId],
    pads_out: &[InstId],
    fp: &Floorplan,
    pos: &mut [(f64, f64)],
) {
    let w = fp.die.width() as f64;
    let h = fp.die.height() as f64;
    let set = |pos: &mut [(f64, f64)], id: InstId, t: f64| {
        // Walk the perimeter: t in [0,1) → position on the ring.
        let peri = 2.0 * (w + h);
        let d = t * peri;
        let (x, y) = if d < w {
            (d, 0.0)
        } else if d < w + h {
            (w, d - w)
        } else if d < 2.0 * w + h {
            (2.0 * w + h - d, h)
        } else {
            (0.0, peri - d)
        };
        pos[id.0 as usize] = (
            x.clamp(0.0, w - 1.0) + fp.die.lo.x as f64,
            y.clamp(0.0, h - 1.0) + fp.die.lo.y as f64,
        );
    };
    let total = pads_in.len() + pads_out.len();
    if total == 0 {
        return;
    }
    // Interleave inputs and outputs around the ring in id order.
    for (k, &id) in pads_in.iter().enumerate() {
        set(pos, id, k as f64 / total as f64);
    }
    for (k, &id) in pads_out.iter().enumerate() {
        set(pos, id, (pads_in.len() + k) as f64 / total as f64);
    }
}

/// Tetris legalisation: rows are filled bottom-up in y order; within a row
/// cells pack left-to-right in x order.
fn legalize(
    nl: &Netlist,
    lib: &CellLibrary,
    fp: &Floorplan,
    pos: &[(f64, f64)],
    is_pad: &[bool],
) -> Placement {
    let n = nl.num_instances();
    let mut order: Vec<usize> = (0..n).filter(|&i| !is_pad[i]).collect();
    order.sort_by(|&a, &b| {
        pos[a]
            .1
            .total_cmp(&pos[b].1)
            .then(pos[a].0.total_cmp(&pos[b].0))
    });

    let row_capacity = fp.sites_per_row;
    let total_sites: usize = order
        .iter()
        .map(|&i| lib.cell(nl.instance(InstId(i as u32)).cell).width_sites as usize)
        .sum();
    assert!(
        total_sites <= fp.capacity_sites(),
        "floorplan too small: {total_sites} sites needed, {} available",
        fp.capacity_sites()
    );

    // Assign cells to rows proportionally to demand.
    let width_of = |i: usize| lib.cell(nl.instance(InstId(i as u32)).cell).width_sites as usize;
    let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); fp.num_rows];
    let mut used_sites = vec![0usize; fp.num_rows];
    {
        let mut row = 0usize;
        for &i in &order {
            let w = width_of(i);
            if used_sites[row] + w > row_capacity && row + 1 < fp.num_rows {
                row += 1;
            }
            rows_of[row].push(i);
            used_sites[row] += w;
        }
    }
    // Width granularity can overfill the final row; rebalance any overflow
    // into rows that still have space (nearest first).
    for r in 0..fp.num_rows {
        while used_sites[r] > row_capacity {
            let i = rows_of[r].pop().expect("overfull row has cells");
            used_sites[r] -= width_of(i);
            let w = width_of(i);
            let target = (0..fp.num_rows)
                .filter(|&t| used_sites[t] + w <= row_capacity)
                .min_by_key(|&t| (t as i64 - r as i64).abs())
                .expect("total capacity checked above");
            rows_of[target].push(i);
            used_sites[target] += w;
        }
    }

    let mut origins = vec![Point::new(0, 0); n];
    let mut rows = vec![usize::MAX; n];
    for (r, cells) in rows_of.iter_mut().enumerate() {
        cells.sort_by(|&a, &b| pos[a].0.total_cmp(&pos[b].0));
        let y = fp.row_y(r);
        // Left-to-right pass at desired positions.
        let mut xs: Vec<i64> = Vec::with_capacity(cells.len());
        let mut cursor = fp.core.lo.x;
        for &i in cells.iter() {
            let w = width_of(i) as i64 * fp.site_width;
            let desired = (pos[i].0 as i64 - w / 2).max(cursor);
            let snapped = ((desired - fp.core.lo.x) / fp.site_width) * fp.site_width + fp.core.lo.x;
            let x = snapped.max(cursor);
            xs.push(x);
            cursor = x + w;
        }
        // Right-to-left clamp keeps everything inside the core without
        // reintroducing overlaps (total row width fits by construction).
        let mut limit = fp.core.hi.x;
        for (k, &i) in cells.iter().enumerate().rev() {
            let w = width_of(i) as i64 * fp.site_width;
            xs[k] = xs[k].min(limit - w);
            limit = xs[k];
        }
        for (k, &i) in cells.iter().enumerate() {
            origins[i] = Point::new(xs[k], y);
            rows[i] = r;
        }
    }

    // Pads keep their perimeter positions (snapped to integers).
    for i in 0..n {
        if is_pad[i] {
            origins[i] = Point::new(pos[i].0 as i64, pos[i].1 as i64);
        }
    }
    Placement { origins, rows }
}

/// Half-perimeter wirelength of the whole placement, in dbu.
pub fn hpwl(nl: &Netlist, lib: &CellLibrary, fp: &Floorplan, placement: &Placement) -> i64 {
    let mut total = 0i64;
    for (_, net) in nl.nets() {
        let mut lo = Point::new(i64::MAX, i64::MAX);
        let mut hi = Point::new(i64::MIN, i64::MIN);
        let mut any = false;
        let mut visit = |inst: InstId, pin: u8| {
            let p = pin_position(nl, lib, fp, placement, inst, pin);
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
        };
        if let Some(d) = net.driver {
            visit(d.inst, d.pin);
            any = true;
        }
        for s in &net.sinks {
            visit(s.inst, s.pin);
            any = true;
        }
        if any {
            total += (hi.x - lo.x) + (hi.y - lo.y);
        }
    }
    total
}

/// Pairwise-swap simulated annealing on the legal placement.
fn anneal(
    nl: &Netlist,
    lib: &CellLibrary,
    fp: &Floorplan,
    placement: &mut Placement,
    is_pad: &[bool],
    config: &PlacerConfig,
    rng: &mut StdRng,
) {
    let movable: Vec<usize> = (0..nl.num_instances()).filter(|&i| !is_pad[i]).collect();
    if movable.len() < 2 {
        return;
    }
    // Precompute per-instance net membership for incremental HPWL deltas.
    let mut nets_of: Vec<Vec<u32>> = vec![Vec::new(); nl.num_instances()];
    for (nid, net) in nl.nets() {
        if let Some(d) = net.driver {
            nets_of[d.inst.0 as usize].push(nid.0);
        }
        for s in &net.sinks {
            nets_of[s.inst.0 as usize].push(nid.0);
        }
    }
    for v in nets_of.iter_mut() {
        v.sort_unstable();
        v.dedup();
    }

    let net_hpwl = |placement: &Placement, nid: u32| -> i64 {
        let net = nl.net(deepsplit_netlist::netlist::NetId(nid));
        let mut lo = Point::new(i64::MAX, i64::MAX);
        let mut hi = Point::new(i64::MIN, i64::MIN);
        let mut visit = |inst: InstId, pin: u8| {
            let p = pin_position(nl, lib, fp, placement, inst, pin);
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
        };
        if let Some(d) = net.driver {
            visit(d.inst, d.pin);
        }
        for s in &net.sinks {
            visit(s.inst, s.pin);
        }
        (hi.x - lo.x) + (hi.y - lo.y)
    };

    let moves = config.anneal_moves_per_cell * movable.len();
    let mut temp = fp.row_height as f64 * 4.0;
    let cooling = 0.999_f64.powf(1.0_f64.max(4000.0 / moves as f64));
    for _ in 0..moves {
        let a = movable[rng.gen_range(0..movable.len())];
        let b = movable[rng.gen_range(0..movable.len())];
        if a == b {
            continue;
        }
        // Swapping requires equal widths to stay legal; otherwise skip.
        let wa = lib.cell(nl.instance(InstId(a as u32)).cell).width_sites;
        let wb = lib.cell(nl.instance(InstId(b as u32)).cell).width_sites;
        if wa != wb {
            continue;
        }
        let affected: Vec<u32> = nets_of[a]
            .iter()
            .chain(nets_of[b].iter())
            .copied()
            .collect();
        let before: i64 = affected.iter().map(|&nid| net_hpwl(placement, nid)).sum();
        placement.origins.swap(a, b);
        placement.rows.swap(a, b);
        let after: i64 = affected.iter().map(|&nid| net_hpwl(placement, nid)).sum();
        let delta = (after - before) as f64;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp.max(1.0)).exp();
        if !accept {
            placement.origins.swap(a, b);
            placement.rows.swap(a, b);
        }
        temp *= cooling;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};

    fn setup(bench: Benchmark, scale: f64) -> (CellLibrary, Netlist, Floorplan) {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(bench, scale, 7, &lib);
        let fp = Floorplan::for_netlist(&nl, &lib, 0.7, 1.0);
        (lib, nl, fp)
    }

    #[test]
    fn placement_is_legal() {
        let (lib, nl, fp) = setup(Benchmark::C432, 1.0);
        let p = place(&nl, &lib, &fp, &PlacerConfig::default());
        // No core cell overlaps another in the same row.
        let mut by_row: std::collections::HashMap<usize, Vec<(i64, i64)>> = Default::default();
        for (id, inst) in nl.instances() {
            if lib.cell(inst.cell).function.is_pad() {
                continue;
            }
            let o = p.origins[id.0 as usize];
            let w = lib.cell(inst.cell).width_sites as i64 * fp.site_width;
            assert!(
                o.x >= fp.core.lo.x && o.x + w <= fp.core.hi.x,
                "cell in core x"
            );
            by_row
                .entry(p.rows[id.0 as usize])
                .or_default()
                .push((o.x, o.x + w));
        }
        for (_, mut spans) in by_row {
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn placement_beats_random_hpwl() {
        let (lib, nl, fp) = setup(Benchmark::C880, 0.5);
        let good = place(&nl, &lib, &fp, &PlacerConfig::default());
        let bad = place(
            &nl,
            &lib,
            &fp,
            &PlacerConfig {
                iterations: 0,
                anneal_moves_per_cell: 0,
                ..Default::default()
            },
        );
        let h_good = hpwl(&nl, &lib, &fp, &good);
        let h_bad = hpwl(&nl, &lib, &fp, &bad);
        assert!(
            (h_good as f64) < 0.7 * h_bad as f64,
            "optimised {h_good} should clearly beat random {h_bad}"
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let (lib, nl, fp) = setup(Benchmark::C432, 0.5);
        let config = PlacerConfig::default();
        let a = place(&nl, &lib, &fp, &config);
        let b = place(&nl, &lib, &fp, &config);
        assert_eq!(a.origins, b.origins);
    }

    #[test]
    fn pads_on_perimeter() {
        let (lib, nl, fp) = setup(Benchmark::C432, 0.5);
        let p = place(&nl, &lib, &fp, &PlacerConfig::default());
        for id in nl.primary_inputs(&lib) {
            let o = p.origins[id.0 as usize];
            let on_edge = o.x <= fp.core.lo.x
                || o.x >= fp.core.hi.x - fp.site_width
                || o.y <= fp.core.lo.y
                || o.y >= fp.core.hi.y - fp.row_height;
            assert!(on_edge, "pad {} at {} not on perimeter", id.0, o);
        }
    }

    #[test]
    fn pin_positions_inside_cell() {
        let (lib, nl, fp) = setup(Benchmark::C432, 0.3);
        let p = place(&nl, &lib, &fp, &PlacerConfig::default());
        for (id, inst) in nl.instances() {
            let spec = lib.cell(inst.cell);
            let o = p.origins[id.0 as usize];
            let w = spec.width_sites as i64 * fp.site_width;
            for pin in 0..spec.pins.len() {
                let pt = pin_position(&nl, &lib, &fp, &p, id, pin as u8);
                assert!(pt.x >= o.x && pt.x <= o.x + w, "pin x inside cell");
                assert!(
                    pt.y >= o.y && pt.y <= o.y + fp.row_height,
                    "pin y inside cell"
                );
            }
        }
    }
}
