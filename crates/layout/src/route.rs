//! Preferred-direction pattern routing.
//!
//! The router reproduces the structural policies of a commercial detailed
//! router that the attack exploits:
//!
//! * wires run in each layer's **preferred direction** (M1/M3/M5 horizontal,
//!   M2/M4/M6 vertical) — the paper's candidate selection and distance
//!   features are defined in these terms;
//! * connections decompose into minimum-spanning-tree edges routed as L/Z
//!   patterns with a trunk-layer pair chosen by **length** (short nets stay on
//!   M1/M2, long nets are promoted to the upper layers) — this is what makes a
//!   net cross the split layer;
//! * trunks are assigned to **tracks** with occupancy-driven shifting, and
//!   persistent congestion promotes the trunk to the next layer pair — so
//!   congested regions leak into the image features just as in real layouts.

use crate::floorplan::Floorplan;
use crate::geom::{Dir, Layer, Point, Rect, Segment, Via, DBU_PER_UM};
use crate::place::{pin_position, Placement};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_netlist::netlist::{NetId, Netlist};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Router configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// `(max_len_um, (h_layer, v_layer))` trunk-pair thresholds, ascending by
    /// length; the last entry is the fallback for the longest nets.
    pub layer_thresholds: Vec<(f64, (u8, u8))>,
    /// Routing track pitch in dbu.
    pub track_pitch: i64,
    /// Maximum number of tracks a trunk may shift to find free space.
    pub max_track_shift: i64,
    /// Overlap fraction above which a trunk is promoted one layer pair up.
    pub promote_overlap: f64,
    /// Number of metal layers available.
    pub num_layers: u8,
    /// Fraction of each trunk *end* kept on the next-lower same-direction
    /// layer ("layer ladder"): a long M5 trunk becomes M3 escapes around an M5
    /// middle, recursively down to M1/M2. This reproduces the gradual climb of
    /// real routes — FEOL fragments extend toward their BEOL destination,
    /// which is precisely the leakage proximity attacks exploit.
    pub escape_frac: f64,
    /// Minimum move length (µm) for ladder splitting.
    pub ladder_min_um: f64,
    /// Fraction along the connection span where Z patterns place their mid
    /// trunk (`0.5` = halfway, the classic Z). Values outside `[0, 1]`
    /// overshoot an endpoint, producing **detour** shapes whose trunks head
    /// *away* from the destination before folding back — the knob the
    /// routing-obfuscation defense randomises per net so FEOL headings stop
    /// predicting the BEOL continuation. Midpoints are clamped to the die.
    pub z_mid_frac: f64,
    /// When set, only this pattern candidate is considered (`0` = H-first L,
    /// `1` = V-first L, `2` = horizontal Z, `3` = vertical Z); `None` picks
    /// the cheapest of all four as usual. Forcing a Z pattern guarantees
    /// `z_mid_frac` detours actually appear instead of being out-costed.
    pub forced_pattern: Option<u8>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            layer_thresholds: vec![
                (3.0, (1, 2)),
                (10.0, (3, 2)),
                (25.0, (3, 4)),
                (60.0, (5, 4)),
                (f64::INFINITY, (5, 6)),
            ],
            track_pitch: 200,
            max_track_shift: 6,
            promote_overlap: 0.35,
            num_layers: 6,
            escape_frac: 0.45,
            ladder_min_um: 1.5,
            z_mid_frac: 0.5,
            forced_pattern: None,
        }
    }
}

/// The routed geometry of one net.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetRoute {
    /// Wire segments (axis-parallel, possibly zero-length free).
    pub segments: Vec<Segment>,
    /// Vias.
    pub vias: Vec<Via>,
}

impl NetRoute {
    /// Total wirelength in dbu.
    pub(crate) fn wirelength(&self) -> i64 {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Highest metal layer used (0 when unrouted).
    #[cfg(test)]
    fn max_layer(&self) -> u8 {
        let seg = self.segments.iter().map(|s| s.layer.0).max().unwrap_or(0);
        let via = self.vias.iter().map(|v| v.lower.0 + 1).max().unwrap_or(0);
        seg.max(via)
    }
}

/// Routing statistics for reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteStats {
    /// Wirelength per layer in dbu (index 0 = M1).
    pub wirelength_per_layer: Vec<i64>,
    /// Number of vias per cut (index 0 = V12).
    pub vias_per_cut: Vec<usize>,
    /// Number of trunks that could not find a conflict-free track.
    pub overflows: usize,
}

/// Occupancy map: `(layer, track coordinate)` → sorted disjoint-ish intervals.
#[derive(Debug, Default)]
struct Occupancy {
    map: HashMap<(u8, i64), Vec<(i64, i64)>>,
}

impl Occupancy {
    /// Total overlap length of `(lo, hi)` with existing intervals.
    fn overlap(&self, layer: u8, coord: i64, lo: i64, hi: i64) -> i64 {
        let Some(spans) = self.map.get(&(layer, coord)) else {
            return 0;
        };
        let mut total = 0;
        for &(a, b) in spans {
            let l = lo.max(a);
            let h = hi.min(b);
            if l < h {
                total += h - l;
            }
        }
        total
    }

    fn insert(&mut self, layer: u8, coord: i64, lo: i64, hi: i64) {
        self.map
            .entry((layer, coord))
            .or_default()
            .push((lo.min(hi), lo.max(hi)));
    }
}

/// One move of a route path: from the previous point to `to`, on `layer`.
#[derive(Debug, Clone, Copy)]
struct Move {
    to: Point,
    layer: Layer,
}

/// Routes every net of a placed netlist.
pub fn route(
    nl: &Netlist,
    lib: &CellLibrary,
    fp: &Floorplan,
    placement: &Placement,
    config: &RouterConfig,
) -> (Vec<NetRoute>, RouteStats) {
    route_with(nl, lib, fp, placement, config, |_| None)
}

/// Like [`route`], but `net_override` may supply a per-net [`RouterConfig`]
/// (returning `None` keeps the base config). This is the hook targeted
/// defenses use to re-implement selected nets — e.g. wire lifting promotes a
/// net's trunks above the split layer with zero escape fraction.
///
/// Overrides share the base occupancy map and must not use more layers than
/// `config.num_layers` (statistics vectors are sized by the base config).
pub fn route_with(
    nl: &Netlist,
    lib: &CellLibrary,
    fp: &Floorplan,
    placement: &Placement,
    config: &RouterConfig,
    net_override: impl Fn(NetId) -> Option<RouterConfig>,
) -> (Vec<NetRoute>, RouteStats) {
    let mut occ = Occupancy::default();
    let mut routes = vec![NetRoute::default(); nl.num_nets()];
    let mut stats = RouteStats {
        wirelength_per_layer: vec![0; config.num_layers as usize],
        vias_per_cut: vec![0; config.num_layers.saturating_sub(1) as usize],
        overflows: 0,
    };

    // Route nets in increasing HPWL order (short nets get first choice of
    // tracks, as in rip-up-free global routing).
    let mut order: Vec<(i64, NetId)> = nl
        .nets()
        .map(|(nid, net)| {
            let pts = net_pins(nl, lib, fp, placement, nid);
            let mut lo = Point::new(i64::MAX, i64::MAX);
            let mut hi = Point::new(i64::MIN, i64::MIN);
            for p in &pts {
                lo.x = lo.x.min(p.x);
                lo.y = lo.y.min(p.y);
                hi.x = hi.x.max(p.x);
                hi.y = hi.y.max(p.y);
            }
            let _ = net;
            ((hi.x - lo.x) + (hi.y - lo.y), nid)
        })
        .collect();
    order.sort();

    for (_, nid) in order {
        let pts = net_pins(nl, lib, fp, placement, nid);
        if pts.len() < 2 {
            continue;
        }
        let override_config = net_override(nid);
        let net_config = override_config.as_ref().unwrap_or(config);
        assert!(
            net_config.num_layers <= config.num_layers,
            "per-net override must not add layers"
        );
        assert!(
            net_config.forced_pattern.is_none_or(|p| p < 4),
            "forced_pattern must index one of the four candidates"
        );
        let edges = mst_edges(&pts);
        let mut route_acc = NetRoute::default();
        for (i, j) in edges {
            route_two_pin(
                pts[i],
                pts[j],
                net_config,
                fp.die,
                &mut occ,
                &mut route_acc,
                &mut stats,
            );
        }
        routes[nid.0 as usize] = route_acc;
    }

    let geometry = recompute_stats(&routes, config.num_layers);
    stats.wirelength_per_layer = geometry.wirelength_per_layer;
    stats.vias_per_cut = geometry.vias_per_cut;
    (routes, stats)
}

/// Stacks two per-net override layers for [`route_with`]: `outer` sees the
/// configuration `inner` produced for a net (or `base` when `inner` passed)
/// and may refine it further; when `outer` passes, `inner`'s choice stands.
///
/// This is how defenses that each install per-net overrides compose — e.g.
/// wire lifting supplies the above-split trunk layers while routing
/// obfuscation forces a detour shape on the *same* net, without either
/// defense knowing about the other.
pub fn compose_overrides<'a>(
    base: &'a RouterConfig,
    inner: impl Fn(NetId) -> Option<RouterConfig> + 'a,
    outer: impl Fn(NetId, &RouterConfig) -> Option<RouterConfig> + 'a,
) -> impl Fn(NetId) -> Option<RouterConfig> + 'a {
    move |nid| {
        let lower = inner(nid);
        let effective = lower.as_ref().unwrap_or(base);
        outer(nid, effective).or(lower)
    }
}

/// Rebuilds the geometry statistics of a set of routes (used after a defense
/// edits routes in place; `overflows` is not derivable from geometry and is
/// left at zero).
pub fn recompute_stats(routes: &[NetRoute], num_layers: u8) -> RouteStats {
    let mut stats = RouteStats {
        wirelength_per_layer: vec![0; num_layers as usize],
        vias_per_cut: vec![0; num_layers.saturating_sub(1) as usize],
        overflows: 0,
    };
    for r in routes {
        for s in &r.segments {
            stats.wirelength_per_layer[(s.layer.0 - 1) as usize] += s.len();
        }
        for v in &r.vias {
            stats.vias_per_cut[(v.lower.0 - 1) as usize] += 1;
        }
    }
    stats
}

/// All pin positions of a net, driver first.
pub(crate) fn net_pins(
    nl: &Netlist,
    lib: &CellLibrary,
    fp: &Floorplan,
    placement: &Placement,
    nid: NetId,
) -> Vec<Point> {
    let net = nl.net(nid);
    let mut pts = Vec::with_capacity(1 + net.sinks.len());
    if let Some(d) = net.driver {
        pts.push(pin_position(nl, lib, fp, placement, d.inst, d.pin));
    }
    for s in &net.sinks {
        pts.push(pin_position(nl, lib, fp, placement, s.inst, s.pin));
    }
    pts
}

/// Prim MST over points (small fanouts; O(p²) is fine post-buffering).
fn mst_edges(pts: &[Point]) -> Vec<(usize, usize)> {
    let n = pts.len();
    let mut in_tree = vec![false; n];
    let mut dist = vec![i64::MAX; n];
    let mut parent = vec![0usize; n];
    in_tree[0] = true;
    for k in 1..n {
        dist[k] = pts[0].manhattan(pts[k]);
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut bd = i64::MAX;
        for k in 0..n {
            if !in_tree[k] && dist[k] < bd {
                bd = dist[k];
                best = k;
            }
        }
        edges.push((parent[best], best));
        in_tree[best] = true;
        for k in 0..n {
            if !in_tree[k] {
                let d = pts[best].manhattan(pts[k]);
                if d < dist[k] {
                    dist[k] = d;
                    parent[k] = best;
                }
            }
        }
    }
    edges
}

/// Picks the trunk layer pair for a connection of length `len_dbu`.
fn trunk_pair(config: &RouterConfig, len_dbu: i64, promote: usize) -> (Layer, Layer) {
    let len_um = len_dbu as f64 / DBU_PER_UM as f64;
    let mut idx = config
        .layer_thresholds
        .iter()
        .position(|&(max, _)| len_um < max)
        .unwrap_or(config.layer_thresholds.len() - 1);
    idx = (idx + promote).min(config.layer_thresholds.len() - 1);
    let (_, (h, v)) = config.layer_thresholds[idx];
    let h = h.min(config.num_layers);
    let v = v.min(config.num_layers);
    (Layer(h), Layer(v))
}

/// A committed trunk record: `(layer, track coordinate, span lo, span hi)`.
type Trunk = (u8, i64, i64, i64);

/// A candidate pattern: move path, trunk commitments, total overlap cost.
type Pattern = (Vec<Move>, Vec<Trunk>, i64);

/// Routes one two-pin connection, committing its trunks to the occupancy map.
fn route_two_pin(
    a: Point,
    b: Point,
    config: &RouterConfig,
    die: Rect,
    occ: &mut Occupancy,
    out: &mut NetRoute,
    stats: &mut RouteStats,
) {
    let len = a.manhattan(b);
    // Try the length-based pair first; promote on persistent congestion.
    let mut chosen: Option<(Vec<Move>, Vec<Trunk>)> = None;
    for promote in 0..2 {
        let (h, v) = trunk_pair(config, len, promote);
        let (path, trunks, cost) = best_pattern(a, b, h, v, config, die, occ);
        let overlap_frac = if len == 0 {
            0.0
        } else {
            cost as f64 / len as f64
        };
        if overlap_frac <= config.promote_overlap || promote == 1 {
            if promote == 1 && overlap_frac > config.promote_overlap {
                stats.overflows += 1;
            }
            chosen = Some((path, trunks));
            break;
        }
    }
    let (path, trunks) = chosen.expect("pattern always found");
    for (layer, coord, lo, hi) in trunks {
        occ.insert(layer, coord, lo, hi);
    }
    emit_path(a, &path, out);
}

/// Evaluates the four L/Z pattern candidates and returns the best path with
/// its trunk commitments and cost.
fn best_pattern(
    a: Point,
    b: Point,
    h: Layer,
    v: Layer,
    config: &RouterConfig,
    die: Rect,
    occ: &Occupancy,
) -> Pattern {
    // Candidate trunk coordinates (before track search):
    // H-first L: horizontal trunk at a.y, vertical trunk at b.x
    // V-first L: vertical trunk at a.x, horizontal trunk at b.y
    // H Z: horizontal trunks at a.y/b.y with vertical mid at z_mid_frac
    // V Z: vertical trunks at a.x/b.x with horizontal mid at z_mid_frac
    let mut best: Option<Pattern> = None;
    let candidates = [
        PatternKind::HFirst,
        PatternKind::VFirst,
        PatternKind::ZHorizontal,
        PatternKind::ZVertical,
    ];
    for (index, kind) in candidates.into_iter().enumerate() {
        if let Some(forced) = config.forced_pattern {
            if forced as usize != index {
                continue;
            }
        }
        let cand = build_pattern(a, b, (h, v), kind, config, die, occ);
        let better = match &best {
            None => true,
            Some((_, _, c)) => cand.2 < *c,
        };
        if better {
            best = Some(cand);
        }
    }
    best.expect("at least one candidate")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatternKind {
    HFirst,
    VFirst,
    ZHorizontal,
    ZVertical,
}

/// Midpoint of a Z trunk at `frac` along `a → b`, clamped to `(lo, hi)`.
/// `0.5` reproduces the legacy integer midpoint exactly; other values (and
/// overshoots outside `[0, 1]`) interpolate.
fn z_mid(a: i64, b: i64, frac: f64, lo: i64, hi: i64) -> i64 {
    let mid = if frac == 0.5 {
        (a + b) / 2
    } else {
        a + ((b - a) as f64 * frac).round() as i64
    };
    mid.clamp(lo, hi)
}

/// Builds one candidate pattern: a move path from `a` to `b` on the
/// `(h, v)` trunk-layer pair, plus trunk occupancy records and the total
/// overlap cost.
fn build_pattern(
    a: Point,
    b: Point,
    (h, v): (Layer, Layer),
    kind: PatternKind,
    config: &RouterConfig,
    die: Rect,
    occ: &Occupancy,
) -> Pattern {
    let mut trunks: Vec<Trunk> = Vec::new();
    let mut cost = 0i64;
    let mut moves: Vec<Move> = Vec::new();
    let mut cur = a;

    let h_trunk = |y_desired: i64, x0: i64, x1: i64, cost: &mut i64, trunks: &mut Vec<_>| -> i64 {
        let (y, c) = find_track(occ, h.0, y_desired, x0.min(x1), x0.max(x1), config);
        *cost += c;
        trunks.push((h.0, y, x0.min(x1), x0.max(x1)));
        y
    };
    let v_trunk = |x_desired: i64, y0: i64, y1: i64, cost: &mut i64, trunks: &mut Vec<_>| -> i64 {
        let (x, c) = find_track(occ, v.0, x_desired, y0.min(y1), y0.max(y1), config);
        *cost += c;
        trunks.push((v.0, x, y0.min(y1), y0.max(y1)));
        x
    };

    // Pin-access jogs stay on the base layers (M1 horizontal, M2 vertical);
    // trunks climb the layer ladder with FEOL escapes at both ends.
    let h_base = Layer(1);
    let v_base = Layer(2);
    match kind {
        PatternKind::HFirst => {
            // access up, H trunk at ~a.y, V trunk at ~b.x, access down
            let ty = h_trunk(a.y, a.x, b.x, &mut cost, &mut trunks);
            let tx = v_trunk(b.x, ty, b.y, &mut cost, &mut trunks);
            push_move(&mut moves, &mut cur, Point::new(a.x, ty), v_base);
            push_ladder(&mut moves, &mut cur, Point::new(tx, ty), h, config);
            push_ladder(&mut moves, &mut cur, Point::new(tx, b.y), v, config);
            push_move(&mut moves, &mut cur, b, h_base);
        }
        PatternKind::VFirst => {
            let tx = v_trunk(a.x, a.y, b.y, &mut cost, &mut trunks);
            let ty = h_trunk(b.y, tx, b.x, &mut cost, &mut trunks);
            push_move(&mut moves, &mut cur, Point::new(tx, a.y), h_base);
            push_ladder(&mut moves, &mut cur, Point::new(tx, ty), v, config);
            push_ladder(&mut moves, &mut cur, Point::new(b.x, ty), h, config);
            push_move(&mut moves, &mut cur, b, v_base);
        }
        PatternKind::ZHorizontal => {
            let xm = z_mid(a.x, b.x, config.z_mid_frac, die.lo.x, die.hi.x);
            let ty0 = h_trunk(a.y, a.x, xm, &mut cost, &mut trunks);
            let tx = v_trunk(xm, ty0, b.y, &mut cost, &mut trunks);
            let ty1 = h_trunk(b.y, tx, b.x, &mut cost, &mut trunks);
            push_move(&mut moves, &mut cur, Point::new(a.x, ty0), v_base);
            push_ladder(&mut moves, &mut cur, Point::new(tx, ty0), h, config);
            push_ladder(&mut moves, &mut cur, Point::new(tx, ty1), v, config);
            push_ladder(&mut moves, &mut cur, Point::new(b.x, ty1), h, config);
            push_move(&mut moves, &mut cur, b, v_base);
        }
        PatternKind::ZVertical => {
            let ym = z_mid(a.y, b.y, config.z_mid_frac, die.lo.y, die.hi.y);
            let tx0 = v_trunk(a.x, a.y, ym, &mut cost, &mut trunks);
            let ty = h_trunk(ym, tx0, b.x, &mut cost, &mut trunks);
            let tx1 = v_trunk(b.x, ty, b.y, &mut cost, &mut trunks);
            push_move(&mut moves, &mut cur, Point::new(tx0, a.y), h_base);
            push_ladder(&mut moves, &mut cur, Point::new(tx0, ty), v, config);
            push_ladder(&mut moves, &mut cur, Point::new(tx1, ty), h, config);
            push_ladder(&mut moves, &mut cur, Point::new(tx1, b.y), v, config);
            push_move(&mut moves, &mut cur, b, h_base);
        }
    }
    (moves, trunks, cost)
}

/// Linear interpolation along an axis-parallel span.
fn lerp(a: Point, b: Point, t: f64) -> Point {
    Point::new(
        a.x + ((b.x - a.x) as f64 * t).round() as i64,
        a.y + ((b.y - a.y) as f64 * t).round() as i64,
    )
}

/// Pushes a trunk move, recursively keeping `escape_frac` of each end on the
/// next-lower same-direction layer (M5 → M3 → M1 / M6 → M4 → M2). This gives
/// FEOL fragments that *extend toward* their BEOL continuation — the layout
/// leakage at the heart of every proximity-style attack.
fn push_ladder(
    moves: &mut Vec<Move>,
    cur: &mut Point,
    to: Point,
    layer: Layer,
    config: &RouterConfig,
) {
    if *cur == to {
        return;
    }
    let len = cur.manhattan(to);
    if layer.0 <= 2 || len < crate::geom::um(config.ladder_min_um) {
        push_move(moves, cur, to, layer);
        return;
    }
    let f = config.escape_frac.clamp(0.0, 0.49);
    let lower = Layer(layer.0 - 2);
    let p1 = lerp(*cur, to, f);
    let p2 = lerp(*cur, to, 1.0 - f);
    push_ladder(moves, cur, p1, lower, config);
    push_move(moves, cur, p2, layer);
    push_ladder(moves, cur, to, lower, config);
}

/// Appends a move if it advances the path; decomposes any accidental diagonal
/// into an L (cannot normally happen, defensive).
fn push_move(moves: &mut Vec<Move>, cur: &mut Point, to: Point, layer: Layer) {
    if *cur == to {
        return;
    }
    if cur.x != to.x && cur.y != to.y {
        let corner = match layer.dir() {
            Dir::H => Point::new(to.x, cur.y),
            Dir::V => Point::new(cur.x, to.y),
        };
        moves.push(Move { to: corner, layer });
        moves.push(Move { to, layer });
    } else {
        moves.push(Move { to, layer });
    }
    *cur = to;
}

/// Finds the least-overlapping track near `desired` on `layer` for span
/// `(lo, hi)`; returns `(coordinate, overlap_cost)`.
fn find_track(
    occ: &Occupancy,
    layer: u8,
    desired: i64,
    lo: i64,
    hi: i64,
    config: &RouterConfig,
) -> (i64, i64) {
    if lo == hi {
        return (desired, 0);
    }
    let pitch = config.track_pitch;
    let snapped = (desired + pitch / 2).div_euclid(pitch) * pitch;
    let mut best = (snapped, i64::MAX);
    for k in 0..=config.max_track_shift {
        for sign in [1i64, -1] {
            if k == 0 && sign < 0 {
                continue;
            }
            let coord = snapped + sign * k * pitch;
            let cost = occ.overlap(layer, coord, lo, hi);
            if cost == 0 {
                return (coord, 0);
            }
            if cost < best.1 {
                best = (coord, cost);
            }
        }
    }
    best
}

/// Converts a move path into segments and vias, including the via stacks from
/// the M1 pins up to the first/last segment layers.
fn emit_path(start: Point, moves: &[Move], out: &mut NetRoute) {
    let mut cur = start;
    let mut cur_layer: Option<Layer> = None;
    let mut first_layer: Option<Layer> = None;
    for mv in moves {
        if mv.to == cur {
            continue;
        }
        // Layer change at the junction point.
        if let Some(prev) = cur_layer {
            if prev != mv.layer {
                via_stack(cur, prev, mv.layer, out);
            }
        }
        out.segments.push(Segment::new(mv.layer, cur, mv.to));
        if first_layer.is_none() {
            first_layer = Some(mv.layer);
        }
        cur_layer = Some(mv.layer);
        cur = mv.to;
    }
    // Pin access stacks: pins live on M1.
    if let Some(fl) = first_layer {
        via_stack(start, Layer(1), fl, out);
    }
    if let Some(ll) = cur_layer {
        via_stack(cur, ll, Layer(1), out);
    }
}

/// Emits vias connecting `from` to `to` at `at` (inclusive of all cuts).
fn via_stack(at: Point, from: Layer, to: Layer, out: &mut NetRoute) {
    let (lo, hi) = if from.0 <= to.0 {
        (from.0, to.0)
    } else {
        (to.0, from.0)
    };
    for l in lo..hi {
        out.vias.push(Via {
            lower: Layer(l),
            at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::place::{place, PlacerConfig};
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};

    fn routed(
        bench: Benchmark,
        scale: f64,
    ) -> (
        CellLibrary,
        Netlist,
        Floorplan,
        Placement,
        Vec<NetRoute>,
        RouteStats,
    ) {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(bench, scale, 5, &lib);
        let fp = Floorplan::for_netlist(&nl, &lib, 0.7, 1.0);
        let pl = place(&nl, &lib, &fp, &PlacerConfig::default());
        let (routes, stats) = route(&nl, &lib, &fp, &pl, &RouterConfig::default());
        (lib, nl, fp, pl, routes, stats)
    }

    /// Union-find connectivity check: every pin of the net must be reachable
    /// through segments (same-layer shared points and contained endpoints) and
    /// vias.
    fn net_is_connected(pins: &[Point], r: &NetRoute) -> bool {
        // Nodes: (point, layer).
        let mut nodes: Vec<(Point, u8)> = Vec::new();
        let mut index = HashMap::new();
        let id_of = |nodes: &mut Vec<(Point, u8)>,
                     index: &mut HashMap<(Point, u8), usize>,
                     p: Point,
                     l: u8|
         -> usize {
            *index.entry((p, l)).or_insert_with(|| {
                nodes.push((p, l));
                nodes.len() - 1
            })
        };
        let mut edges = Vec::new();
        for s in &r.segments {
            let a = id_of(&mut nodes, &mut index, s.a, s.layer.0);
            let b = id_of(&mut nodes, &mut index, s.b, s.layer.0);
            edges.push((a, b));
        }
        for v in &r.vias {
            let a = id_of(&mut nodes, &mut index, v.at, v.lower.0);
            let b = id_of(&mut nodes, &mut index, v.at, v.lower.0 + 1);
            edges.push((a, b));
        }
        let pin_ids: Vec<usize> = pins
            .iter()
            .map(|&p| id_of(&mut nodes, &mut index, p, 1))
            .collect();
        // Points lying in the middle of same-layer segments also connect.
        for s in &r.segments {
            for (k, &(p, l)) in nodes.clone().iter().enumerate() {
                if l == s.layer.0 && s.contains_point(p) {
                    let a = id_of(&mut nodes, &mut index, s.a, s.layer.0);
                    edges.push((a, k));
                }
            }
        }
        let mut uf: Vec<usize> = (0..nodes.len()).collect();
        fn find(uf: &mut Vec<usize>, x: usize) -> usize {
            if uf[x] != x {
                let r = find(uf, uf[x]);
                uf[x] = r;
            }
            uf[x]
        }
        for (a, b) in edges {
            let ra = find(&mut uf, a);
            let rb = find(&mut uf, b);
            uf[ra] = rb;
        }
        let root = find(&mut uf, pin_ids[0]);
        pin_ids.iter().all(|&p| find(&mut uf, p) == root)
    }

    #[test]
    fn all_nets_connected() {
        let (lib, nl, fp, pl, routes, _) = routed(Benchmark::C432, 0.5);
        for (nid, _) in nl.nets() {
            let pins = net_pins(&nl, &lib, &fp, &pl, nid);
            if pins.len() < 2 {
                continue;
            }
            assert!(
                net_is_connected(&pins, &routes[nid.0 as usize]),
                "net {} disconnected",
                nl.net(nid).name
            );
        }
    }

    #[test]
    fn segments_respect_preferred_direction() {
        let (_, _, _, _, routes, _) = routed(Benchmark::C432, 0.3);
        for r in &routes {
            for s in &r.segments {
                if s.is_empty() {
                    continue;
                }
                assert_eq!(
                    s.dir(),
                    s.layer.dir(),
                    "segment {s:?} off preferred direction"
                );
            }
        }
    }

    #[test]
    fn long_nets_use_higher_layers() {
        let (lib, nl, fp, pl, routes, _) = routed(Benchmark::C880, 0.5);
        let mut short_max = Vec::new();
        let mut long_max = Vec::new();
        for (nid, _) in nl.nets() {
            let pins = net_pins(&nl, &lib, &fp, &pl, nid);
            if pins.len() < 2 {
                continue;
            }
            let hp = {
                let xs: Vec<i64> = pins.iter().map(|p| p.x).collect();
                let ys: Vec<i64> = pins.iter().map(|p| p.y).collect();
                (xs.iter().max().unwrap() - xs.iter().min().unwrap())
                    + (ys.iter().max().unwrap() - ys.iter().min().unwrap())
            };
            let ml = routes[nid.0 as usize].max_layer();
            if hp < crate::geom::um(3.0) {
                short_max.push(ml);
            } else if hp > crate::geom::um(25.0) {
                long_max.push(ml);
            }
        }
        let avg = |v: &[u8]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
        assert!(
            long_max.is_empty() || short_max.is_empty() || avg(&long_max) > avg(&short_max),
            "long nets should use higher layers ({:?} vs {:?})",
            avg(&long_max),
            avg(&short_max)
        );
    }

    #[test]
    fn stats_account_all_geometry() {
        let (_, _, _, _, routes, stats) = routed(Benchmark::C432, 0.3);
        let seg_total: i64 = routes.iter().map(|r| r.wirelength()).sum();
        let stat_total: i64 = stats.wirelength_per_layer.iter().sum();
        assert_eq!(seg_total, stat_total);
        let via_total: usize = routes.iter().map(|r| r.vias.len()).sum();
        let stat_vias: usize = stats.vias_per_cut.iter().sum();
        assert_eq!(via_total, stat_vias);
    }

    #[test]
    fn trunk_pair_thresholds() {
        let config = RouterConfig::default();
        let (h, v) = trunk_pair(&config, crate::geom::um(1.0), 0);
        assert_eq!((h.0, v.0), (1, 2));
        let (h, v) = trunk_pair(&config, crate::geom::um(100.0), 0);
        assert_eq!((h.0, v.0), (5, 6));
        let (h, v) = trunk_pair(&config, crate::geom::um(1.0), 1);
        assert_eq!((h.0, v.0), (3, 2), "promotion moves one pair up");
    }

    #[test]
    fn forced_z_pattern_with_overshoot_detours_but_stays_connected() {
        let (lib, nl, fp, pl, base_routes, _) = routed(Benchmark::C432, 0.4);
        let detour_config = RouterConfig {
            forced_pattern: Some(2),
            z_mid_frac: 1.4,
            ..RouterConfig::default()
        };
        let (routes, _) = route_with(&nl, &lib, &fp, &pl, &RouterConfig::default(), |_| {
            Some(detour_config.clone())
        });
        let base_wl: i64 = base_routes.iter().map(|r| r.wirelength()).sum();
        let detour_wl: i64 = routes.iter().map(|r| r.wirelength()).sum();
        assert!(
            detour_wl > base_wl,
            "overshooting Z mids must lengthen routes ({base_wl} -> {detour_wl})"
        );
        for (nid, _) in nl.nets() {
            let pins = net_pins(&nl, &lib, &fp, &pl, nid);
            if pins.len() < 2 {
                continue;
            }
            let r = &routes[nid.0 as usize];
            assert!(
                net_is_connected(&pins, r),
                "net {} disconnected under detour routing",
                nl.net(nid).name
            );
            // Overshoots are clamped to the die; only the track search may
            // shift a trunk a bounded number of pitches past it.
            let slack = (detour_config.max_track_shift + 1) * detour_config.track_pitch;
            for s in &r.segments {
                for p in [s.a, s.b] {
                    assert!(
                        p.x >= fp.die.lo.x - slack
                            && p.x <= fp.die.hi.x + slack
                            && p.y >= fp.die.lo.y - slack
                            && p.y <= fp.die.hi.y + slack,
                        "segment endpoint {p} beyond the die + track-shift slack"
                    );
                }
            }
        }
    }

    #[test]
    fn default_z_mid_reproduces_legacy_midpoint() {
        // The fast path must be bit-identical to the pre-knob integer
        // midpoint, including the truncation direction for descending spans.
        for (a, b) in [(1i64, 4i64), (4, 1), (0, 7), (7, 0)] {
            assert_eq!(z_mid(a, b, 0.5, i64::MIN, i64::MAX), (a + b) / 2);
        }
        assert_eq!(z_mid(0, 10, 1.5, 0, 12), 12, "overshoot clamps to bounds");
        assert_eq!(z_mid(0, 10, -0.5, -3, 12), -3);
    }

    #[test]
    fn composed_overrides_apply_both_layers() {
        let base = RouterConfig::default();
        let lift_like = RouterConfig {
            escape_frac: 0.0,
            ..RouterConfig::default()
        };
        let inner = |nid: NetId| nid.0.is_multiple_of(2).then(|| lift_like.clone());
        let outer = |nid: NetId, cfg: &RouterConfig| {
            (nid.0 < 2).then(|| RouterConfig {
                forced_pattern: Some(3),
                ..cfg.clone()
            })
        };
        let merged = compose_overrides(&base, inner, outer);
        // Net 0: both layers — lift's escape_frac AND the forced pattern.
        let both = merged(NetId(0)).unwrap();
        assert_eq!(both.escape_frac, 0.0);
        assert_eq!(both.forced_pattern, Some(3));
        // Net 1: outer only, layered on the base config.
        let outer_only = merged(NetId(1)).unwrap();
        assert_eq!(outer_only.escape_frac, base.escape_frac);
        assert_eq!(outer_only.forced_pattern, Some(3));
        // Net 2: inner only survives when outer passes.
        let inner_only = merged(NetId(2)).unwrap();
        assert_eq!(inner_only.escape_frac, 0.0);
        assert_eq!(inner_only.forced_pattern, None);
        // Net 3: neither layer → no override.
        assert_eq!(merged(NetId(3)), None);
    }

    #[test]
    fn find_track_avoids_occupied() {
        let config = RouterConfig::default();
        let mut occ = Occupancy::default();
        occ.insert(1, 0, 0, 10_000);
        let (coord, cost) = find_track(&occ, 1, 0, 0, 10_000, &config);
        assert_ne!(coord, 0, "must shift off the occupied track");
        assert_eq!(cost, 0);
    }
}
