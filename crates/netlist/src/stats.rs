//! Netlist statistics used to sanity-check generated benchmarks and to report
//! design characteristics alongside experiment results.

use crate::library::CellLibrary;
use crate::netlist::Netlist;
use std::collections::BTreeMap;
use std::fmt;

/// Summary statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Design name.
    pub name: String,
    /// Number of combinational gates (excludes pads and flip-flops).
    pub num_gates: usize,
    /// Number of flip-flops.
    pub num_ffs: usize,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Total number of sink pins over all nets.
    pub num_sink_pins: usize,
    /// Mean net fanout.
    pub avg_fanout: f64,
    /// Maximum net fanout.
    pub max_fanout: usize,
    /// Histogram of fanout → net count.
    pub fanout_histogram: BTreeMap<usize, usize>,
    /// Combinational logic depth.
    pub logic_depth: usize,
    /// Total cell area in µm².
    pub cell_area_um2: f64,
}

impl NetlistStats {
    /// Computes statistics for `nl` against `lib`.
    pub fn compute(nl: &Netlist, lib: &CellLibrary) -> Self {
        let mut num_gates = 0;
        let mut num_ffs = 0;
        let mut num_inputs = 0;
        let mut num_outputs = 0;
        let mut cell_area_um2 = 0.0;
        for (_, inst) in nl.instances() {
            let spec = lib.cell(inst.cell);
            cell_area_um2 += spec.width_um(lib) * lib.row_height_um;
            match spec.function {
                crate::library::CellFunction::PadIn => num_inputs += 1,
                crate::library::CellFunction::PadOut => num_outputs += 1,
                crate::library::CellFunction::Dff => num_ffs += 1,
                _ => num_gates += 1,
            }
        }
        let mut fanout_histogram = BTreeMap::new();
        let mut num_sink_pins = 0;
        let mut max_fanout = 0;
        for (_, net) in nl.nets() {
            let f = net.fanout();
            *fanout_histogram.entry(f).or_insert(0) += 1;
            num_sink_pins += f;
            max_fanout = max_fanout.max(f);
        }
        let num_nets = nl.num_nets();
        NetlistStats {
            name: nl.name.clone(),
            num_gates,
            num_ffs,
            num_inputs,
            num_outputs,
            num_nets,
            num_sink_pins,
            avg_fanout: if num_nets == 0 {
                0.0
            } else {
                num_sink_pins as f64 / num_nets as f64
            },
            max_fanout,
            fanout_histogram,
            logic_depth: nl.logic_depth(lib),
            cell_area_um2,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates, {} FFs, {} PIs, {} POs, {} nets, depth {}, avg fanout {:.2}, area {:.1} um2",
            self.name,
            self.num_gates,
            self.num_ffs,
            self.num_inputs,
            self.num_outputs,
            self.num_nets,
            self.logic_depth,
            self.avg_fanout,
            self.cell_area_um2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{generate_with, Benchmark};
    use crate::library::CellLibrary;

    #[test]
    fn stats_match_preset() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 1.0, 1, &lib);
        let stats = NetlistStats::compute(&nl, &lib);
        assert_eq!(stats.num_inputs, 36);
        // Observation pads may add a few outputs beyond the preset's 7.
        assert!(stats.num_outputs >= 7);
        assert!(stats.num_gates >= 160, "buffering only adds gates");
        assert!(stats.avg_fanout >= 1.0);
        assert!(stats.cell_area_um2 > 0.0);
    }

    #[test]
    fn histogram_sums_to_net_count() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C880, 0.5, 1, &lib);
        let stats = NetlistStats::compute(&nl, &lib);
        let total: usize = stats.fanout_histogram.values().sum();
        assert_eq!(total, stats.num_nets);
    }

    #[test]
    fn display_is_nonempty() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::B13, 0.5, 1, &lib);
        let stats = NetlistStats::compute(&nl, &lib);
        assert!(!format!("{stats}").is_empty());
    }
}
