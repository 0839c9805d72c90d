//! Two-valued functional simulation.
//!
//! Used as test machinery: the Verilog round-trip and the generator are
//! validated by checking that simulation results are preserved/deterministic.
//! The attack itself never simulates, but a downstream user reconstructing a
//! netlist from a split layout will want to verify functional equivalence —
//! this module provides that check for recovered netlists.

use crate::library::{CellFunction, CellLibrary, PinDir};
use crate::netlist::{InstId, Netlist};
use std::collections::HashMap;

/// A functional simulator over a netlist.
///
/// # Example
///
/// ```
/// use deepsplit_netlist::benchmarks::{generate_with, Benchmark};
/// use deepsplit_netlist::library::CellLibrary;
/// use deepsplit_netlist::sim::Simulator;
///
/// let lib = CellLibrary::nangate45();
/// let nl = generate_with(Benchmark::C432, 0.5, 1, &lib);
/// let mut sim = Simulator::new(&nl, &lib);
/// let inputs = vec![false; sim.num_inputs()];
/// let out_a = sim.eval(&inputs).to_vec();
/// let out_b = sim.eval(&inputs).to_vec();
/// assert_eq!(out_a, out_b);
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    nl: &'a Netlist,
    lib: &'a CellLibrary,
    order: Vec<InstId>,
    inputs: Vec<InstId>,
    outputs: Vec<InstId>,
    ffs: Vec<InstId>,
    /// Current value of every net.
    net_values: Vec<bool>,
    /// Current flip-flop state, aligned with `ffs`.
    ff_state: Vec<bool>,
    /// Scratch buffer holding the last primary-output vector.
    out_buffer: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator; flip-flops start at 0.
    pub fn new(nl: &'a Netlist, lib: &'a CellLibrary) -> Self {
        let order = nl.topo_order(lib);
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut ffs = Vec::new();
        for (id, inst) in nl.instances() {
            match lib.cell(inst.cell).function {
                CellFunction::PadIn => inputs.push(id),
                CellFunction::PadOut => outputs.push(id),
                CellFunction::Dff => ffs.push(id),
                _ => {}
            }
        }
        let ff_count = ffs.len();
        Simulator {
            nl,
            lib,
            order,
            inputs,
            outputs,
            ffs,
            net_values: vec![false; nl.num_nets()],
            ff_state: vec![false; ff_count],
            out_buffer: Vec::new(),
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of flip-flops.
    #[cfg(test)]
    pub(crate) fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Evaluates the combinational logic for `input_values` (aligned with the
    /// netlist's primary inputs in id order) and returns the primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from [`Simulator::num_inputs`].
    pub fn eval(&mut self, input_values: &[bool]) -> &[bool] {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "input width mismatch"
        );
        // Drive input pads and FF outputs.
        for (k, &pad) in self.inputs.iter().enumerate() {
            if let Some(net) = self.nl.instance(pad).pin_nets[0] {
                self.net_values[net.0 as usize] = input_values[k];
            }
        }
        for (k, &ff) in self.ffs.iter().enumerate() {
            if let Some(net) = self.nl.instance(ff).pin_nets[1] {
                self.net_values[net.0 as usize] = self.ff_state[k];
            }
        }
        // Evaluate gates in topological order.
        for &id in &self.order {
            let inst = self.nl.instance(id);
            let spec = self.lib.cell(inst.cell);
            if spec.function.is_pad() || spec.function.is_sequential() {
                continue;
            }
            let mut ins = [false; 4];
            let mut n = 0;
            for (p, pin) in spec.pins.iter().enumerate() {
                if pin.dir == PinDir::Input {
                    let net = inst.pin_nets[p].expect("validated netlist");
                    ins[n] = self.net_values[net.0 as usize];
                    n += 1;
                }
            }
            let out = eval_function(spec.function, &ins[..n]);
            let out_pin = spec.output_pin().expect("gate output");
            let net = inst.pin_nets[out_pin].expect("validated netlist");
            self.net_values[net.0 as usize] = out;
        }
        // Collect primary outputs into a scratch buffer stored at the end of
        // net_values? Keep a dedicated vec for clarity.
        self.collect_outputs()
    }

    fn collect_outputs(&mut self) -> &[bool] {
        // Store outputs contiguously in a buffer owned by the simulator.
        let outs: Vec<bool> = self
            .outputs
            .iter()
            .map(|&pad| {
                let net = self.nl.instance(pad).pin_nets[0].expect("PO connected");
                self.net_values[net.0 as usize]
            })
            .collect();
        self.out_buffer = outs;
        &self.out_buffer
    }

    /// Clocks all flip-flops: latches each D input into state.
    pub fn step(&mut self) {
        let next: Vec<bool> = self
            .ffs
            .iter()
            .map(|&ff| {
                let net = self.nl.instance(ff).pin_nets[0].expect("D connected");
                self.net_values[net.0 as usize]
            })
            .collect();
        self.ff_state = next;
    }
}

/// Evaluates one library function over its ordered input pins.
pub(crate) fn eval_function(function: CellFunction, ins: &[bool]) -> bool {
    match function {
        CellFunction::Inv => !ins[0],
        CellFunction::Buf => ins[0],
        CellFunction::Nand(_) => !ins.iter().all(|&b| b),
        CellFunction::Nor(_) => !ins.iter().any(|&b| b),
        CellFunction::And(_) => ins.iter().all(|&b| b),
        CellFunction::Or(_) => ins.iter().any(|&b| b),
        CellFunction::Xor2 => ins[0] ^ ins[1],
        CellFunction::Xnor2 => !(ins[0] ^ ins[1]),
        // Pin order (A, B1, B2): ZN = !(A | (B1 & B2))
        CellFunction::Aoi21 => !(ins[0] | (ins[1] & ins[2])),
        // Pin order (A, B1, B2): ZN = !(A & (B1 | B2))
        CellFunction::Oai21 => !(ins[0] & (ins[1] | ins[2])),
        // Pin order (A, B, S): Z = S ? B : A
        CellFunction::Mux2 => {
            if ins[2] {
                ins[1]
            } else {
                ins[0]
            }
        }
        CellFunction::Dff | CellFunction::PadIn | CellFunction::PadOut => {
            unreachable!("not a combinational function")
        }
    }
}

/// Compares two netlists by simulating `rounds` random patterns; returns the
/// fraction of output bits that agree. Pads are matched by instance name.
pub fn functional_agreement(
    a: &Netlist,
    b: &Netlist,
    lib: &CellLibrary,
    rounds: usize,
    seed: u64,
) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim_a = Simulator::new(a, lib);
    let mut sim_b = Simulator::new(b, lib);
    if sim_a.num_inputs() != sim_b.num_inputs() {
        return 0.0;
    }
    // Map output pad names of a → index in b's outputs.
    let b_out_names: HashMap<&str, usize> = sim_b
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &id)| (b.instance(id).name.as_str(), i))
        .collect();
    let mut agree = 0usize;
    let mut total = 0usize;
    for _ in 0..rounds {
        let pattern: Vec<bool> = (0..sim_a.num_inputs()).map(|_| rng.gen()).collect();
        let oa = sim_a.eval(&pattern).to_vec();
        let ob = sim_b.eval(&pattern).to_vec();
        sim_a.step();
        sim_b.step();
        for (i, &id) in sim_a.outputs.clone().iter().enumerate() {
            let name = a.instance(id).name.as_str();
            if let Some(&j) = b_out_names.get(name) {
                total += 1;
                if oa[i] == ob[j] {
                    agree += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        agree as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{generate_with, Benchmark};

    #[test]
    fn eval_is_deterministic() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::C432, 0.5, 9, &lib);
        let mut sim = Simulator::new(&nl, &lib);
        let pattern = vec![true; sim.num_inputs()];
        let a = sim.eval(&pattern).to_vec();
        let b = sim.eval(&pattern).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn identical_netlists_agree_fully() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::B13, 0.5, 9, &lib);
        let agreement = functional_agreement(&nl, &nl, &lib, 16, 1);
        assert!((agreement - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_netlists_disagree() {
        let lib = CellLibrary::nangate45();
        let a = generate_with(Benchmark::C880, 0.5, 1, &lib);
        let b = generate_with(Benchmark::C880, 0.5, 2, &lib);
        let agreement = functional_agreement(&a, &b, &lib, 16, 1);
        assert!(agreement < 1.0);
    }

    #[test]
    fn gate_functions() {
        use CellFunction::*;
        assert!(!eval_function(Inv, &[true]));
        assert!(eval_function(Nand(2), &[true, false]));
        assert!(!eval_function(Nand(2), &[true, true]));
        assert!(!eval_function(Nor(2), &[true, false]));
        assert!(eval_function(Xor2, &[true, false]));
        assert!(!eval_function(Xnor2, &[true, false]));
        assert!(!eval_function(Aoi21, &[true, false, false]));
        assert!(eval_function(Aoi21, &[false, true, false]));
        assert!(!eval_function(Aoi21, &[false, true, true]));
        assert!(eval_function(Oai21, &[false, true, true]));
        assert!(!eval_function(Oai21, &[true, true, false]));
        assert!(eval_function(Mux2, &[false, true, true]));
        assert!(!eval_function(Mux2, &[false, true, false]));
    }

    #[test]
    fn sequential_step_latches_state() {
        let lib = CellLibrary::nangate45();
        let nl = generate_with(Benchmark::B13, 0.5, 4, &lib);
        let mut sim = Simulator::new(&nl, &lib);
        assert!(sim.num_ffs() > 0);
        let pattern: Vec<bool> = (0..sim.num_inputs()).map(|i| i % 2 == 0).collect();
        sim.eval(&pattern);
        let before = sim.ff_state.clone();
        sim.step();
        // After enough random steps the state should change at least once.
        let mut changed = sim.ff_state != before;
        for _ in 0..8 {
            sim.eval(&pattern);
            let prev = sim.ff_state.clone();
            sim.step();
            changed |= sim.ff_state != prev;
        }
        assert!(changed, "flip-flop state never changed");
    }
}
