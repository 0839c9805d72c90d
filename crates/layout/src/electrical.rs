//! Electrical estimates over split layouts: load-capacitance bounds and driver
//! delay (paper §3.1.2 and §3.1.4).
//!
//! On an incomplete (FEOL-only) layout the true load of a driver is unknown;
//! the paper bounds it from both sides:
//!
//! * **upper bound** — the driver's maximum load capacitance from the library
//!   (the attacker has the cell library);
//! * **lower bound** — the pin capacitance of the sinks inside the candidate
//!   sink fragment plus the wire capacitance of the two fragments involved.
//!
//! Driver delay is likewise a lower bound computed from the linear library
//! delay model over the lower-bound load.

use crate::geom::to_um;
use crate::split::{FragId, SplitView};
use deepsplit_netlist::library::CellLibrary;
use deepsplit_netlist::netlist::Netlist;

/// Wire capacitance per micrometre of routed wire, in fF/µm. A typical 45 nm
/// mid-stack value (0.2 fF/µm) — used uniformly across layers.
pub(crate) const WIRE_CAP_FF_PER_UM: f64 = 0.2;

/// Load-capacitance bounds for one VPP, in fF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBounds {
    /// Maximum load capacitance of the source fragment's driver.
    pub upper_ff: f64,
    /// Sink-pin capacitance within the sink fragment plus wire capacitance of
    /// both fragments.
    pub lower_ff: f64,
}

/// Computes the wire capacitance of a fragment, in fF.
pub fn fragment_wire_cap_ff(view: &SplitView, frag: FragId) -> f64 {
    let f = view.fragment(frag);
    let wl_um: f64 = f.segments.iter().map(|s| to_um(s.len())).sum();
    wl_um * WIRE_CAP_FF_PER_UM
}

/// Sum of sink-pin input capacitances inside a fragment, in fF.
pub fn fragment_pin_cap_ff(view: &SplitView, frag: FragId, nl: &Netlist, lib: &CellLibrary) -> f64 {
    view.fragment(frag)
        .pins
        .iter()
        .filter(|p| !p.is_driver)
        .map(|p| {
            let inst = nl.instance(p.pin.inst);
            lib.cell(inst.cell).pins[p.pin.pin as usize].cap_ff
        })
        .sum()
}

/// Load bounds for the VPP `(source, sink)` (paper §3.1.2).
pub fn load_bounds(
    view: &SplitView,
    source: FragId,
    sink: FragId,
    nl: &Netlist,
    lib: &CellLibrary,
) -> LoadBounds {
    let driver = driver_spec(view, source, nl, lib);
    let upper_ff = driver.map(|d| d.max_load_ff).unwrap_or(0.0);
    let lower_ff = fragment_pin_cap_ff(view, sink, nl, lib)
        + fragment_wire_cap_ff(view, source)
        + fragment_wire_cap_ff(view, sink);
    LoadBounds { upper_ff, lower_ff }
}

/// The driver cell spec of a source fragment.
pub fn driver_spec<'l>(
    view: &SplitView,
    source: FragId,
    nl: &Netlist,
    lib: &'l CellLibrary,
) -> Option<&'l deepsplit_netlist::library::CellSpec> {
    view.fragment(source)
        .pins
        .iter()
        .find(|p| p.is_driver)
        .map(|p| lib.cell(nl.instance(p.pin.inst).cell))
}

/// Lower-bound driver delay in ps for the VPP `(source, sink)` (§3.1.4): the
/// library delay model evaluated at the lower-bound load. Timing paths over a
/// split layout can only be partial, so this underestimates the true delay —
/// the paper notes the feature grows more meaningful for higher split layers.
pub fn driver_delay_ps(
    view: &SplitView,
    source: FragId,
    sink: FragId,
    nl: &Netlist,
    lib: &CellLibrary,
) -> f64 {
    let bounds = load_bounds(view, source, sink, nl, lib);
    match driver_spec(view, source, nl, lib) {
        Some(spec) => spec.delay_ps(bounds.lower_ff),
        None => 0.0,
    }
}

/// Whether a VPP satisfies the load-capacitance feasibility check used by the
/// network-flow baseline: the already-known lower bound must not exceed the
/// driver's maximum by more than `slack` (≥ 0, fraction of the maximum).
#[cfg(test)]
fn capacitance_feasible(
    view: &SplitView,
    source: FragId,
    sink: FragId,
    nl: &Netlist,
    lib: &CellLibrary,
    slack: f64,
) -> bool {
    let b = load_bounds(view, source, sink, nl, lib);
    b.lower_ff <= b.upper_ff * (1.0 + slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Design, ImplementConfig};
    use crate::geom::Layer;
    use crate::split::split_design;
    use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
    use deepsplit_netlist::library::CellLibrary;

    fn split_view() -> (Design, SplitView) {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.5, 5, &lib);
        let d = Design::implement(nl, lib, &ImplementConfig::default());
        let v = split_design(&d, Layer(1));
        (d, v)
    }

    #[test]
    fn bounds_are_ordered_for_true_pairs() {
        let (d, v) = split_view();
        let mut checked = 0;
        for (&sink, &source) in &v.truth {
            let b = load_bounds(&v, source, sink, &d.netlist, &d.library);
            assert!(b.upper_ff > 0.0);
            assert!(b.lower_ff >= 0.0);
            // True connections in a sized design should be feasible.
            assert!(
                capacitance_feasible(&v, source, sink, &d.netlist, &d.library, 0.5),
                "true VPP infeasible: {b:?}"
            );
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn delay_positive_and_monotone_in_load() {
        let (d, v) = split_view();
        let (&sink, &source) = v.truth.iter().next().unwrap();
        let delay = driver_delay_ps(&v, source, sink, &d.netlist, &d.library);
        assert!(delay > 0.0);
    }

    #[test]
    fn wire_cap_scales_with_length() {
        let (_, v) = split_view();
        // Fragment with more wire has more capacitance.
        let mut caps: Vec<(i64, f64)> = v
            .sinks
            .iter()
            .map(|&f| {
                let wl: i64 = v.fragment(f).segments.iter().map(|s| s.len()).sum();
                (wl, fragment_wire_cap_ff(&v, f))
            })
            .collect();
        caps.sort_by_key(|c| c.0);
        if caps.len() >= 2 {
            let (first, last) = (caps[0], caps[caps.len() - 1]);
            assert!(last.1 >= first.1);
        }
    }
}
