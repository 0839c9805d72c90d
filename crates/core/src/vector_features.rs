//! Vector-based features (paper §3.1) — 27 scalars per VPP, matching the
//! paper's `fc1: 27 × 128` input width.
//!
//! Reconstruction of the 27 dimensions (the paper lists the feature families
//! but not the exact ordering; this table is the mapping used here):
//!
//! | # | feature |
//! |---|---------|
//! | 0–2 | signed distance along preferred / non-preferred direction / their sum |
//! | 3–5 | unsigned variants of 0–2 |
//! | 6–8 | 0–2 normalised by chip width / height / half-perimeter |
//! | 9–11 | 3–5 normalised likewise |
//! | 12 | load-capacitance upper bound (driver max load, fF) |
//! | 13 | load-capacitance lower bound (sink pins + both fragments' wire cap, fF) |
//! | 14 | number of sinks in the sink fragment |
//! | 15–17 | source-fragment wirelength in M1/M2/M3 (µm) |
//! | 18–20 | sink-fragment wirelength in M1/M2/M3 (µm) |
//! | 21–22 | source-fragment via count in V12/V23 |
//! | 23–24 | sink-fragment via count in V12/V23 |
//! | 25 | driver delay lower bound (ps) |
//! | 26 | number of virtual pins of the source fragment |
//!
//! For split layers below M3 the unused wirelength/via slots are zero, keeping
//! the input width fixed at 27 as in Table 2.

use crate::candidates::Candidate;
use deepsplit_layout::electrical;
use deepsplit_layout::geom::to_um;
use deepsplit_layout::split::{FragId, SplitView};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_netlist::netlist::Netlist;
use serde::{Deserialize, Serialize};

/// Number of vector features per VPP (paper Table 2: `fc1 27 × 128`).
pub const VECTOR_DIM: usize = 27;

/// Extracts the 27 vector features of one candidate VPP.
pub(crate) fn vpp_features(
    view: &SplitView,
    sink: FragId,
    cand: &Candidate,
    nl: &Netlist,
    lib: &CellLibrary,
) -> [f32; VECTOR_DIM] {
    let mut f = [0.0f32; VECTOR_DIM];
    let pref = view.split_layer.dir();
    let npref = pref.flip();

    // Distances (signed from sink VP to source VP; µm).
    let dp = to_um(cand.source_vp.along(pref) - cand.sink_vp.along(pref)) as f32;
    let dn = to_um(cand.source_vp.along(npref) - cand.sink_vp.along(npref)) as f32;
    f[0] = dp;
    f[1] = dn;
    f[2] = dp + dn;
    f[3] = dp.abs();
    f[4] = dn.abs();
    f[5] = dp.abs() + dn.abs();
    let w = to_um(view.die.width()).max(1e-9) as f32;
    let h = to_um(view.die.height()).max(1e-9) as f32;
    let hp = w + h;
    f[6] = dp / w;
    f[7] = dn / h;
    f[8] = (dp + dn) / hp;
    f[9] = dp.abs() / w;
    f[10] = dn.abs() / h;
    f[11] = (dp.abs() + dn.abs()) / hp;

    // Load-capacitance bounds and sink count (§3.1.2).
    let bounds = electrical::load_bounds(view, cand.source, sink, nl, lib);
    f[12] = bounds.upper_ff as f32;
    f[13] = bounds.lower_ff as f32;
    f[14] = view.fragment(sink).sink_count as f32;

    // Per-layer wirelengths and via counts (§3.1.3), padded to 3 layers.
    let m = view.split_layer.0;
    let src_wl = view.fragment(cand.source).wirelength_per_layer(m);
    let snk_wl = view.fragment(sink).wirelength_per_layer(m);
    for l in 0..3usize.min(src_wl.len()) {
        f[15 + l] = to_um(src_wl[l]) as f32;
    }
    for l in 0..3usize.min(snk_wl.len()) {
        f[18 + l] = to_um(snk_wl[l]) as f32;
    }
    let src_vias = view.fragment(cand.source).vias_per_cut(m);
    let snk_vias = view.fragment(sink).vias_per_cut(m);
    for l in 0..2usize.min(src_vias.len()) {
        f[21 + l] = src_vias[l] as f32;
    }
    for l in 0..2usize.min(snk_vias.len()) {
        f[23 + l] = snk_vias[l] as f32;
    }

    // Driver delay lower bound (§3.1.4).
    f[25] = electrical::driver_delay_ps(view, cand.source, sink, nl, lib) as f32;
    // Source-fragment virtual-pin count.
    f[26] = view.fragment(cand.source).virtual_pins.len() as f32;
    f
}

/// Feature standardisation fitted on the training set (zero mean, unit
/// variance per dimension; constant dimensions pass through).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Fits a normaliser over rows of feature vectors.
    pub fn fit<'a>(rows: impl IntoIterator<Item = &'a [f32; VECTOR_DIM]>) -> Normalizer {
        let mut mean = vec![0.0f64; VECTOR_DIM];
        let mut sq = vec![0.0f64; VECTOR_DIM];
        let mut n = 0usize;
        for row in rows {
            for (i, &x) in row.iter().enumerate() {
                mean[i] += x as f64;
                sq[i] += (x as f64) * (x as f64);
            }
            n += 1;
        }
        let n = n.max(1) as f64;
        let mut std = vec![1.0f32; VECTOR_DIM];
        for i in 0..VECTOR_DIM {
            mean[i] /= n;
            let var = (sq[i] / n - mean[i] * mean[i]).max(0.0);
            std[i] = if var > 1e-12 { var.sqrt() as f32 } else { 1.0 };
        }
        Normalizer {
            mean: mean.into_iter().map(|m| m as f32).collect(),
            std,
        }
    }

    /// Applies the normalisation in place.
    pub fn apply(&self, row: &mut [f32; VECTOR_DIM]) {
        for (x, (m, s)) in row.iter_mut().zip(self.mean.iter().zip(&self.std)) {
            *x = (*x - m) / s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::select_candidates;
    use crate::config::AttackConfig;
    use deepsplit_layout::design::{Design, ImplementConfig};
    use deepsplit_layout::geom::Layer;
    use deepsplit_layout::split::split_design;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn setup() -> (Design, SplitView) {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.5, 3, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let v = split_design(&d, Layer(3));
        (d, v)
    }

    #[test]
    fn features_have_fixed_width_and_are_finite() {
        let (d, v) = setup();
        let sets = select_candidates(&v, &AttackConfig::fast());
        for set in &sets {
            for c in &set.candidates {
                let f = vpp_features(&v, set.sink, c, &d.netlist, &d.library);
                assert_eq!(f.len(), VECTOR_DIM);
                assert!(f.iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn signed_and_unsigned_consistent() {
        let (d, v) = setup();
        let sets = select_candidates(&v, &AttackConfig::fast());
        let set = sets.iter().find(|s| !s.candidates.is_empty()).unwrap();
        let f = vpp_features(&v, set.sink, &set.candidates[0], &d.netlist, &d.library);
        assert!((f[3] - f[0].abs()).abs() < 1e-6);
        assert!((f[4] - f[1].abs()).abs() < 1e-6);
        assert!((f[5] - (f[3] + f[4])).abs() < 1e-6);
    }

    #[test]
    fn ratio_features_match_raw() {
        let (d, v) = setup();
        let sets = select_candidates(&v, &AttackConfig::fast());
        let set = sets.iter().find(|s| !s.candidates.is_empty()).unwrap();
        let f = vpp_features(&v, set.sink, &set.candidates[0], &d.netlist, &d.library);
        let w = to_um(v.die.width()) as f32;
        assert!((f[6] * w - f[0]).abs() < 1e-4);
    }

    #[test]
    fn bounds_ordered_sensibly() {
        let (d, v) = setup();
        let sets = select_candidates(&v, &AttackConfig::fast());
        for set in sets.iter().take(10) {
            for c in &set.candidates {
                let f = vpp_features(&v, set.sink, c, &d.netlist, &d.library);
                assert!(f[12] > 0.0, "upper bound positive");
                assert!(f[13] >= 0.0, "lower bound non-negative");
                assert!(f[14] >= 1.0, "sink fragments hold sinks");
            }
        }
    }

    #[test]
    fn normalizer_standardises() {
        let (d, v) = setup();
        let sets = select_candidates(&v, &AttackConfig::fast());
        let rows: Vec<[f32; VECTOR_DIM]> = sets
            .iter()
            .flat_map(|s| {
                s.candidates
                    .iter()
                    .map(|c| vpp_features(&v, s.sink, c, &d.netlist, &d.library))
                    .collect::<Vec<_>>()
            })
            .collect();
        let norm = Normalizer::fit(rows.iter());
        let mut acc = vec![0.0f64; VECTOR_DIM];
        let mut count = 0;
        for row in &rows {
            let mut r = *row;
            norm.apply(&mut r);
            for (i, &x) in r.iter().enumerate() {
                acc[i] += x as f64;
            }
            count += 1;
        }
        for a in &acc {
            assert!(
                (a / count as f64).abs() < 1e-3,
                "mean not ~0 after normalisation"
            );
        }
    }
}
