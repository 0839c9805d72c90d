//! Split manufacturing: FEOL/BEOL separation and fragment extraction.
//!
//! Splitting after layer `L` removes every wire above `L` and every via whose
//! cut is at or above `L`. What remains of each net decomposes into connected
//! **wiring fragments** (paper §2.2):
//!
//! * a **source fragment** contains the net's driver pin,
//! * **sink fragments** contain sink pins but no driver,
//! * **through fragments** hold only wire (for example an M3 trunk between two
//!   cut vias when splitting on M3 — visible in the paper's Fig. 1),
//! * **complete fragments** belong to nets that never crossed the split layer
//!   and are therefore not part of the matching problem.
//!
//! Every place the routing crossed `L → L+1` becomes a **virtual pin** in the
//! split layer. The attacker must map each sink fragment's virtual pins to a
//! source fragment's virtual pins (a *virtual pin pair*, VPP).

use crate::design::Design;
use crate::geom::{Layer, Point, Rect, Segment, Via};
use deepsplit_netlist::library::PinDir;
use deepsplit_netlist::netlist::{NetId, PinRef};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a fragment within a [`SplitView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FragId(pub u32);

/// Role of a fragment in the matching problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FragKind {
    /// Contains the driver pin and at least one virtual pin.
    Source,
    /// Contains sink pins, no driver, and at least one virtual pin.
    Sink,
    /// FEOL-only wire between virtual pins (no cell pins).
    Through,
    /// The net never crossed the split layer; nothing to recover.
    Complete,
}

/// A cell pin contained in a fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragPin {
    /// The netlist pin.
    pub pin: PinRef,
    /// Its layout location (on M1).
    pub at: Point,
    /// Whether this is the driving pin of its net.
    pub is_driver: bool,
}

/// One FEOL wiring fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Ground-truth net (label only — not attacker-visible input).
    pub net: NetId,
    /// Fragment role.
    pub kind: FragKind,
    /// FEOL wire segments of this fragment.
    pub segments: Vec<Segment>,
    /// FEOL vias of this fragment (cuts strictly below the split layer).
    pub vias: Vec<Via>,
    /// Cell pins inside the fragment.
    pub pins: Vec<FragPin>,
    /// Number of sink pins in the fragment (the paper's `c_i`).
    pub sink_count: usize,
    /// Virtual-pin locations in the split layer.
    pub virtual_pins: Vec<Point>,
}

impl Fragment {
    /// Wirelength per FEOL layer in dbu; index 0 = M1.
    pub fn wirelength_per_layer(&self, feol_layers: u8) -> Vec<i64> {
        let mut wl = vec![0i64; feol_layers as usize];
        for s in &self.segments {
            wl[(s.layer.0 - 1) as usize] += s.len();
        }
        wl
    }

    /// Via count per FEOL cut in dbu; index 0 = V12. With `feol_layers = m`
    /// there are `m - 1` FEOL cuts (the `m → m+1` cut is the virtual pins).
    pub fn vias_per_cut(&self, feol_layers: u8) -> Vec<usize> {
        let mut vc = vec![0usize; feol_layers.saturating_sub(1) as usize];
        for v in &self.vias {
            vc[(v.lower.0 - 1) as usize] += 1;
        }
        vc
    }

    /// Bounding box over all fragment geometry.
    pub fn bbox(&self) -> Rect {
        let mut r: Option<Rect> = None;
        let mut push = |p: Point| match &mut r {
            None => r = Some(Rect::new(p, p)),
            Some(r) => r.expand_to(p),
        };
        for s in &self.segments {
            push(s.a);
            push(s.b);
        }
        for v in &self.vias {
            push(v.at);
        }
        for p in &self.pins {
            push(p.at);
        }
        for &vp in &self.virtual_pins {
            push(vp);
        }
        r.unwrap_or_default()
    }
}

/// The attacker's view of a split layout, with ground-truth labels available
/// for training.
#[derive(Debug, Clone)]
pub struct SplitView {
    /// The split layer (topmost FEOL layer).
    pub split_layer: Layer,
    /// Die bounding box (chip width/height for feature normalisation).
    pub die: Rect,
    /// All fragments of all nets.
    pub fragments: Vec<Fragment>,
    /// Fragments of kind [`FragKind::Source`].
    pub sources: Vec<FragId>,
    /// Fragments of kind [`FragKind::Sink`].
    pub sinks: Vec<FragId>,
    /// Ground truth: sink fragment → its net's source fragment.
    pub truth: HashMap<FragId, FragId>,
}

impl SplitView {
    /// Looks a fragment up.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fragment(&self, id: FragId) -> &Fragment {
        &self.fragments[id.0 as usize]
    }

    /// Number of broken sink fragments (`#Sk` in Table 3).
    pub fn num_sink_fragments(&self) -> usize {
        self.sinks.len()
    }

    /// Number of source fragments offering connections (`#Sc` in Table 3).
    pub fn num_source_fragments(&self) -> usize {
        self.sources.len()
    }

    /// Total number of broken sink pins (the CCR denominator).
    pub fn total_broken_sinks(&self) -> usize {
        self.sinks
            .iter()
            .map(|&f| self.fragment(f).sink_count)
            .sum()
    }
}

/// Node key during fragment extraction: a location on a layer.
type NodeKey = (Point, u8);

/// Splits a design after `split_layer`, extracting fragments and ground truth.
///
/// # Panics
///
/// Panics if `split_layer` is not below the top of the metal stack (there must
/// be at least one BEOL layer).
pub fn split_design(design: &Design, split_layer: Layer) -> SplitView {
    assert!(
        split_layer.0 >= 1 && split_layer.0 < design.num_layers(),
        "split layer must leave at least one BEOL layer"
    );
    let nl = &design.netlist;
    let _lib = &design.library;
    let m = split_layer.0;

    let mut fragments: Vec<Fragment> = Vec::new();
    let mut sources = Vec::new();
    let mut sinks = Vec::new();
    let mut truth = HashMap::new();

    for (nid, net) in nl.nets() {
        let route = &design.routes[nid.0 as usize];

        // FEOL geometry of this net.
        let feol_segments: Vec<Segment> = route
            .segments
            .iter()
            .filter(|s| s.layer.0 <= m && !s.is_empty())
            .copied()
            .collect();
        let feol_vias: Vec<Via> = route
            .vias
            .iter()
            .filter(|v| v.lower.0 < m)
            .copied()
            .collect();
        let cut_vias: Vec<Via> = route
            .vias
            .iter()
            .filter(|v| v.lower.0 == m)
            .copied()
            .collect();

        // Cell pins with layout positions.
        let mut pins: Vec<FragPin> = Vec::new();
        if let Some(d) = net.driver {
            pins.push(FragPin {
                pin: d,
                at: design.pin_position(d.inst, d.pin),
                is_driver: true,
            });
        }
        for s in &net.sinks {
            pins.push(FragPin {
                pin: *s,
                at: design.pin_position(s.inst, s.pin),
                is_driver: false,
            });
        }

        // Build union-find over (point, layer) nodes.
        let mut index: HashMap<NodeKey, usize> = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        let node_of =
            |index: &mut HashMap<NodeKey, usize>, parent: &mut Vec<usize>, key: NodeKey| -> usize {
                *index.entry(key).or_insert_with(|| {
                    parent.push(parent.len());
                    parent.len() - 1
                })
            };
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        };

        // Segments connect their endpoints on their layer.
        let mut seg_node: Vec<usize> = Vec::with_capacity(feol_segments.len());
        for s in &feol_segments {
            let a = node_of(&mut index, &mut parent, (s.a, s.layer.0));
            let b = node_of(&mut index, &mut parent, (s.b, s.layer.0));
            union(&mut parent, a, b);
            seg_node.push(a);
        }
        // FEOL vias connect adjacent layers at a point.
        let mut via_node: Vec<usize> = Vec::with_capacity(feol_vias.len());
        for v in &feol_vias {
            let a = node_of(&mut index, &mut parent, (v.at, v.lower.0));
            let b = node_of(&mut index, &mut parent, (v.at, v.lower.0 + 1));
            union(&mut parent, a, b);
            via_node.push(a);
        }
        // Cut vias touch the FEOL at the split layer.
        let mut cut_node: Vec<usize> = Vec::with_capacity(cut_vias.len());
        for v in &cut_vias {
            let n = node_of(&mut index, &mut parent, (v.at, m));
            cut_node.push(n);
        }
        // Pins sit on M1.
        let mut pin_node: Vec<usize> = Vec::with_capacity(pins.len());
        for p in &pins {
            let n = node_of(&mut index, &mut parent, (p.at, 1));
            pin_node.push(n);
        }
        // T-junctions: a node lying in the interior of a same-layer segment
        // joins that segment's component.
        let keys: Vec<(NodeKey, usize)> = index.iter().map(|(&k, &v)| (k, v)).collect();
        for (si, s) in feol_segments.iter().enumerate() {
            for &((p, l), node) in &keys {
                if l == s.layer.0 && p != s.a && p != s.b && s.contains_point(p) {
                    union(&mut parent, seg_node[si], node);
                }
            }
        }

        // Collect components into fragments.
        let crossed = !cut_vias.is_empty();
        let mut comp_frag: HashMap<usize, usize> = HashMap::new();
        let mut net_frag_ids: Vec<usize> = Vec::new();
        let frag_for = |parent: &mut Vec<usize>,
                        comp_frag: &mut HashMap<usize, usize>,
                        fragments: &mut Vec<Fragment>,
                        net_frag_ids: &mut Vec<usize>,
                        node: usize|
         -> usize {
            let root = find(parent, node);
            *comp_frag.entry(root).or_insert_with(|| {
                fragments.push(Fragment {
                    net: nid,
                    kind: FragKind::Complete,
                    segments: Vec::new(),
                    vias: Vec::new(),
                    pins: Vec::new(),
                    sink_count: 0,
                    virtual_pins: Vec::new(),
                });
                net_frag_ids.push(fragments.len() - 1);
                fragments.len() - 1
            })
        };

        for (si, s) in feol_segments.iter().enumerate() {
            let f = frag_for(
                &mut parent,
                &mut comp_frag,
                &mut fragments,
                &mut net_frag_ids,
                seg_node[si],
            );
            fragments[f].segments.push(*s);
        }
        for (vi, v) in feol_vias.iter().enumerate() {
            let f = frag_for(
                &mut parent,
                &mut comp_frag,
                &mut fragments,
                &mut net_frag_ids,
                via_node[vi],
            );
            fragments[f].vias.push(*v);
        }
        for (ci, v) in cut_vias.iter().enumerate() {
            let f = frag_for(
                &mut parent,
                &mut comp_frag,
                &mut fragments,
                &mut net_frag_ids,
                cut_node[ci],
            );
            fragments[f].virtual_pins.push(v.at);
        }
        let mut source_frag: Option<usize> = None;
        for (pi, p) in pins.iter().enumerate() {
            let f = frag_for(
                &mut parent,
                &mut comp_frag,
                &mut fragments,
                &mut net_frag_ids,
                pin_node[pi],
            );
            fragments[f].pins.push(*p);
            if p.is_driver {
                source_frag = Some(f);
            } else {
                fragments[f].sink_count += 1;
            }
        }

        // Classify the net's fragments.
        for &f in &net_frag_ids {
            let frag = &mut fragments[f];
            let has_driver = frag.pins.iter().any(|p| p.is_driver);
            frag.kind = if !crossed {
                FragKind::Complete
            } else if has_driver {
                if frag.virtual_pins.is_empty() {
                    // Driver never reaches the split layer (all its sinks were
                    // reconnected in FEOL); treat as complete.
                    FragKind::Complete
                } else {
                    FragKind::Source
                }
            } else if frag.sink_count > 0 {
                FragKind::Sink
            } else {
                FragKind::Through
            };
        }
        let src_id = source_frag.map(|f| FragId(f as u32));
        for &f in &net_frag_ids {
            match fragments[f].kind {
                FragKind::Source => sources.push(FragId(f as u32)),
                FragKind::Sink => {
                    let sid = FragId(f as u32);
                    sinks.push(sid);
                    if let Some(src) = src_id {
                        if fragments[src.0 as usize].kind == FragKind::Source {
                            truth.insert(sid, src);
                        }
                    }
                }
                _ => {}
            }
        }

        // Sort geometry for deterministic downstream behaviour.
        for &f in &net_frag_ids {
            fragments[f].segments.sort_by_key(|s| (s.layer, s.a, s.b));
            fragments[f].vias.sort_by_key(|v| (v.lower, v.at));
            fragments[f].virtual_pins.sort();
        }
    }

    SplitView {
        split_layer,
        die: design.floorplan.die,
        fragments,
        sources,
        sinks,
        truth,
    }
}

/// Checks the paper's structural claims about a split view; used by tests and
/// debug assertions. Returns a list of human-readable violations.
pub fn audit(view: &SplitView, design: &Design) -> Vec<String> {
    let mut problems = Vec::new();
    for &sid in &view.sinks {
        let frag = view.fragment(sid);
        if frag.virtual_pins.is_empty() {
            problems.push(format!(
                "sink fragment {} of net {} has no virtual pin",
                sid.0, frag.net.0
            ));
        }
        if !view.truth.contains_key(&sid) {
            problems.push(format!(
                "sink fragment {} of net {} has no ground-truth source",
                sid.0, frag.net.0
            ));
        }
    }
    for &sid in &view.sources {
        let frag = view.fragment(sid);
        if frag.virtual_pins.is_empty() {
            problems.push(format!("source fragment {} has no virtual pin", sid.0));
        }
        if !frag.pins.iter().any(|p| p.is_driver) {
            problems.push(format!("source fragment {} has no driver", sid.0));
        }
    }
    // Every broken sink pin must be accounted for.
    let broken: usize = view
        .sinks
        .iter()
        .map(|&f| view.fragment(f).sink_count)
        .sum();
    let total_sinks: usize = design.netlist.nets().map(|(_, n)| n.sinks.len()).sum();
    if broken > total_sinks {
        problems.push(format!(
            "{broken} broken sinks exceed {total_sinks} total sinks"
        ));
    }
    let _ = PinDir::Input; // silence unused import when compiled without debug
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Design, ImplementConfig};
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn design(bench: Benchmark, scale: f64) -> Design {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(bench, scale, 5, &lib);
        Design::implement(nl, lib, &ImplementConfig::default())
    }

    #[test]
    fn split_m1_yields_fragments() {
        let d = design(Benchmark::C432, 1.0);
        let view = split_design(&d, Layer(1));
        assert!(view.num_sink_fragments() > 0, "M1 split must break nets");
        assert!(view.num_source_fragments() > 0);
        assert!(view.num_source_fragments() <= view.num_sink_fragments() + view.sources.len());
        let problems = audit(&view, &d);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn split_m3_breaks_fewer_nets_than_m1() {
        let d = design(Benchmark::C880, 1.0);
        let m1 = split_design(&d, Layer(1));
        let m3 = split_design(&d, Layer(3));
        assert!(
            m3.num_sink_fragments() < m1.num_sink_fragments(),
            "M3 {} vs M1 {}",
            m3.num_sink_fragments(),
            m1.num_sink_fragments()
        );
        assert!(m3.num_sink_fragments() > 0, "some nets must cross M3");
        let problems = audit(&m3, &d);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn truth_maps_to_same_net() {
        let d = design(Benchmark::C432, 0.5);
        let view = split_design(&d, Layer(3));
        for (&sink, &source) in &view.truth {
            assert_eq!(view.fragment(sink).net, view.fragment(source).net);
            assert_eq!(view.fragment(source).kind, FragKind::Source);
            assert_eq!(view.fragment(sink).kind, FragKind::Sink);
        }
    }

    #[test]
    fn fragment_geometry_within_feol() {
        let d = design(Benchmark::C432, 0.5);
        let view = split_design(&d, Layer(3));
        for frag in &view.fragments {
            for s in &frag.segments {
                assert!(s.layer.0 <= 3);
            }
            for v in &frag.vias {
                assert!(v.lower.0 < 3);
            }
        }
    }

    #[test]
    fn wirelength_and_via_features_consistent() {
        let d = design(Benchmark::C432, 0.5);
        let view = split_design(&d, Layer(3));
        for frag in &view.fragments {
            let wl = frag.wirelength_per_layer(3);
            assert_eq!(wl.len(), 3);
            let total: i64 = wl.iter().sum();
            let direct: i64 = frag.segments.iter().map(|s| s.len()).sum();
            assert_eq!(total, direct);
            let vc = frag.vias_per_cut(3);
            assert_eq!(vc.iter().sum::<usize>(), frag.vias.len());
        }
    }

    #[test]
    fn complete_nets_not_in_matching() {
        let d = design(Benchmark::C432, 0.5);
        let view = split_design(&d, Layer(3));
        for frag in &view.fragments {
            if frag.kind == FragKind::Complete {
                assert!(!view.sinks.contains(&FragId(
                    view.fragments
                        .iter()
                        .position(|f| std::ptr::eq(f, frag))
                        .unwrap() as u32
                )));
            }
        }
    }

    #[test]
    fn sink_counts_bounded_by_netlist() {
        let d = design(Benchmark::C880, 0.5);
        let view = split_design(&d, Layer(1));
        let broken = view.total_broken_sinks();
        let total: usize = d.netlist.nets().map(|(_, n)| n.sinks.len()).sum();
        assert!(broken <= total);
        assert!(broken > 0);
    }
}
