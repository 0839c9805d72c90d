//! Image-based features (paper §3.2).
//!
//! For each virtual pin the local FEOL routing is rasterised into a square
//! image at three scales (paper: 99×99 pixels at 0.05/0.1/0.2 µm per pixel,
//! Fig. 2(a)). Each pixel holds `2m` *layer bits* for an `m`-layer FEOL
//! (Fig. 2(b)): the more-significant `m` bits mark wires of the virtual pin's
//! **own** fragment per layer, the less-significant `m` bits mark wires of
//! **all other** fragments; vias set the bits of both layers they join.
//! Higher metal layers sit in more-significant bits because wiring closer to
//! the BEOL carries more information about the missing connection.
//!
//! For the network input the bit planes become channels:
//! `channel = scale_index * 2m + plane`, with planes ordered
//! `[other M1 … other Mm, own M1 … own Mm]` (ascending significance).

use crate::config::AttackConfig;
use deepsplit_layout::geom::{um, Point, Segment};
use deepsplit_layout::split::{FragId, SplitView};
use deepsplit_nn::tensor::Tensor;
use std::collections::HashMap;

/// Bucketed segment index: cell → (fragment, segment).
type SegIndex = HashMap<(i64, i64), Vec<(u32, Segment)>>;
/// Bucketed via index: cell → (fragment, lower layer, point).
type ViaIndex = HashMap<(i64, i64), Vec<(u32, u8, Point)>>;

/// Rasteriser for virtual-pin neighbourhood images.
///
/// Holds a spatial index over all FEOL geometry of a split view; one instance
/// serves every image of that view.
#[derive(Debug)]
pub struct ImageExtractor {
    px: usize,
    scales_dbu: Vec<i64>,
    feol_layers: u8,
    seg_index: SegIndex,
    via_index: ViaIndex,
    bucket: i64,
}

impl ImageExtractor {
    /// Builds the extractor for a view under the given configuration.
    pub fn new(view: &SplitView, config: &AttackConfig) -> ImageExtractor {
        let px = config.image_px;
        let scales_dbu: Vec<i64> = config.image_scales_um.iter().map(|&s| um(s)).collect();
        // Bucket size: the largest image window, so any window overlaps a
        // bounded number of buckets.
        let max_window = scales_dbu.iter().max().copied().unwrap_or(um(0.2)) * px as i64;
        let bucket = max_window.max(um(1.0));
        let mut seg_index: SegIndex = HashMap::new();
        let mut via_index: ViaIndex = HashMap::new();
        for (fi, frag) in view.fragments.iter().enumerate() {
            for s in &frag.segments {
                // Insert into every bucket the segment touches.
                let (ax, ay) = (s.a.x.min(s.b.x), s.a.y.min(s.b.y));
                let (bx, by) = (s.a.x.max(s.b.x), s.a.y.max(s.b.y));
                for cx in ax.div_euclid(bucket)..=bx.div_euclid(bucket) {
                    for cy in ay.div_euclid(bucket)..=by.div_euclid(bucket) {
                        seg_index.entry((cx, cy)).or_default().push((fi as u32, *s));
                    }
                }
            }
            for v in &frag.vias {
                let key = (v.at.x.div_euclid(bucket), v.at.y.div_euclid(bucket));
                via_index
                    .entry(key)
                    .or_default()
                    .push((fi as u32, v.lower.0, v.at));
            }
        }
        ImageExtractor {
            px,
            scales_dbu,
            feol_layers: view.split_layer.0,
            seg_index,
            via_index,
            bucket,
        }
    }

    /// Number of channels per image.
    pub(crate) fn channels(&self) -> usize {
        self.scales_dbu.len() * 2 * self.feol_layers as usize
    }

    /// Image side length in pixels.
    pub fn side(&self) -> usize {
        self.px
    }

    /// Renders the image stack for virtual pin `vp` of fragment `frag` as a
    /// `[1, C, px, px]` tensor.
    pub fn render(&self, frag: FragId, vp: Point) -> Tensor {
        let c = self.channels();
        let px = self.px;
        let mut out = Tensor::zeros(&[1, c, px, px]);
        let m = self.feol_layers as usize;
        for (si, &scale) in self.scales_dbu.iter().enumerate() {
            let window = scale * px as i64;
            let origin = Point::new(vp.x - window / 2, vp.y - window / 2);
            let chan_base = si * 2 * m;
            self.raster_scale(frag, origin, scale, chan_base, &mut out);
        }
        out
    }

    fn raster_scale(
        &self,
        own: FragId,
        origin: Point,
        scale: i64,
        chan_base: usize,
        out: &mut Tensor,
    ) {
        let px = self.px as i64;
        let m = self.feol_layers as usize;
        let window = scale * px;
        let lo = origin;
        let hi = Point::new(origin.x + window, origin.y + window);
        let data = out.data_mut();
        let plane = |is_own: bool, layer: u8| -> usize {
            // [other M1..Mm, own M1..Mm], ascending significance.
            chan_base
                + if is_own {
                    m + layer as usize - 1
                } else {
                    layer as usize - 1
                }
        };
        let mut mark = |chan: usize, x: i64, y: i64| {
            if x < 0 || y < 0 || x >= px || y >= px {
                return;
            }
            // NCHW with N = 1: index = ((chan) * px + row) * px + col.
            // Row 0 is the bottom of the window (y ascending).
            data[(chan * px as usize + y as usize) * px as usize + x as usize] = 1.0;
        };

        for bx in lo.x.div_euclid(self.bucket)..=hi.x.div_euclid(self.bucket) {
            for by in lo.y.div_euclid(self.bucket)..=hi.y.div_euclid(self.bucket) {
                if let Some(segs) = self.seg_index.get(&(bx, by)) {
                    for &(fi, s) in segs {
                        let chan = plane(FragId(fi) == own, s.layer.0);
                        // Clip to the window and walk the covered pixels.
                        let (ax, ay) = ((s.a.x.min(s.b.x)).max(lo.x), (s.a.y.min(s.b.y)).max(lo.y));
                        let (cx, cy) = (
                            (s.a.x.max(s.b.x)).min(hi.x - 1),
                            (s.a.y.max(s.b.y)).min(hi.y - 1),
                        );
                        if ax > cx || ay > cy {
                            continue;
                        }
                        let (px0, py0) = ((ax - lo.x) / scale, (ay - lo.y) / scale);
                        let (px1, py1) = ((cx - lo.x) / scale, (cy - lo.y) / scale);
                        for x in px0..=px1 {
                            for y in py0..=py1 {
                                mark(chan, x, y);
                            }
                        }
                    }
                }
                if let Some(vias) = self.via_index.get(&(bx, by)) {
                    for &(fi, lower, at) in vias {
                        if at.x < lo.x || at.x >= hi.x || at.y < lo.y || at.y >= hi.y {
                            continue;
                        }
                        let is_own = FragId(fi) == own;
                        let (x, y) = ((at.x - lo.x) / scale, (at.y - lo.y) / scale);
                        // A via joins two layers: both bits are set (Fig. 2b).
                        mark(plane(is_own, lower), x, y);
                        if lower < self.feol_layers {
                            mark(plane(is_own, lower + 1), x, y);
                        }
                    }
                }
            }
        }
    }
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
        let nl = generate_with(Benchmark::C432, 0.4, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        split_design(&d, Layer(3))
    }

    #[test]
    fn image_shape_matches_config() {
        let v = m3_view();
        let config = AttackConfig::fast();
        let ex = ImageExtractor::new(&v, &config);
        assert_eq!(ex.channels(), config.image_channels(3));
        let sink = v.sinks[0];
        let vp = v.fragment(sink).virtual_pins[0];
        let img = ex.render(sink, vp);
        assert_eq!(
            img.shape(),
            &[1, ex.channels(), config.image_px, config.image_px]
        );
    }

    #[test]
    fn images_are_binary() {
        let v = m3_view();
        let ex = ImageExtractor::new(&v, &AttackConfig::fast());
        let sink = v.sinks[0];
        let vp = v.fragment(sink).virtual_pins[0];
        let img = ex.render(sink, vp);
        assert!(img.data().iter().all(|&x| x == 0.0 || x == 1.0));
        assert!(img.sum() > 0.0, "neighbourhood must contain wires");
    }

    #[test]
    fn own_fragment_marks_own_planes() {
        let v = m3_view();
        let config = AttackConfig::fast();
        let ex = ImageExtractor::new(&v, &config);
        // A sink fragment with split-layer wire must light its own planes.
        for &sink in &v.sinks {
            let frag = v.fragment(sink);
            if frag.segments.is_empty() {
                continue;
            }
            let vp = frag.virtual_pins[0];
            let img = ex.render(sink, vp);
            let m = 3usize;
            let px = config.image_px;
            // Own planes of scale 0 are channels m..2m.
            let own_sum: f32 = (m..2 * m)
                .map(|c| {
                    img.data()[(c * px * px)..((c + 1) * px * px)]
                        .iter()
                        .sum::<f32>()
                })
                .sum();
            assert!(own_sum > 0.0, "own fragment invisible in own planes");
            return;
        }
    }

    #[test]
    fn different_scales_cover_different_extents() {
        let v = m3_view();
        let config = AttackConfig {
            image_px: 15,
            image_scales_um: vec![0.05, 0.8],
            ..AttackConfig::fast()
        };
        let ex = ImageExtractor::new(&v, &config);
        let sink = v.sinks[0];
        let vp = v.fragment(sink).virtual_pins[0];
        let img = ex.render(sink, vp);
        let m = 3;
        let px = 15;
        let per_scale: Vec<f32> = (0..2)
            .map(|si| {
                let base = si * 2 * m;
                (base..base + 2 * m)
                    .map(|c| {
                        img.data()[(c * px * px)..((c + 1) * px * px)]
                            .iter()
                            .sum::<f32>()
                    })
                    .sum()
            })
            .collect();
        // The coarse scale sees a wider window, so it generally captures at
        // least as much geometry mass as the fine scale misses; both finite.
        assert!(per_scale.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn render_is_deterministic() {
        let v = m3_view();
        let ex = ImageExtractor::new(&v, &AttackConfig::fast());
        let sink = v.sinks[0];
        let vp = v.fragment(sink).virtual_pins[0];
        assert_eq!(ex.render(sink, vp), ex.render(sink, vp));
    }

    #[test]
    fn center_pixel_shows_own_wire_when_vp_on_wire() {
        let v = m3_view();
        let config = AttackConfig::fast();
        let ex = ImageExtractor::new(&v, &config);
        let px = config.image_px;
        // Find a VP where some wire of its own fragment terminates (on any
        // FEOL layer — via stacks carry the wires of lower layers).
        for &sid in v.sinks.iter().chain(&v.sources) {
            let frag = v.fragment(sid);
            let found = frag.virtual_pins.iter().find_map(|&vp| {
                frag.segments
                    .iter()
                    .find(|s| !s.is_empty() && (s.a == vp || s.b == vp))
                    .map(|s| (vp, s.layer.0))
            });
            let Some((vp, layer)) = found else { continue };
            let img = ex.render(sid, vp);
            // Own plane of `layer`, scale 0: channel m + (layer - 1).
            let m = 3usize;
            let chan = m + (layer as usize - 1);
            let center = (chan * px + px / 2) * px + px / 2;
            assert_eq!(
                img.data()[center],
                1.0,
                "wire at VP missing from centre pixel"
            );
            return;
        }
        panic!("no VP terminating any fragment segment found");
    }
}
