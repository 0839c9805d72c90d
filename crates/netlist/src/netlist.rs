//! Gate-level netlist data model.
//!
//! A [`Netlist`] is a set of cell [`Instance`]s (including `PAD_IN`/`PAD_OUT`
//! pseudo-cells for chip I/O) connected by [`Net`]s. Every net has exactly one
//! driver pin and zero or more sink pins. The model is deliberately flat — the
//! proximity attacks in the paper specifically target *flat* layouts, where the
//! naive hierarchical attack of Rajendran et al. breaks down.

use crate::library::{CellKindId, CellLibrary, PinDir};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an instance within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Identifier of a net within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// A reference to a specific pin of a specific instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PinRef {
    /// The instance.
    pub inst: InstId,
    /// Index of the pin within the instance's cell template.
    pub pin: u8,
}

impl fmt::Display for PinRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}.p{}", self.inst.0, self.pin)
    }
}

/// A placed-or-unplaced cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name (unique within the netlist).
    pub name: String,
    /// Cell template in the library.
    pub cell: CellKindId,
    /// Net connected to each pin of the template (index-aligned); `None` means
    /// unconnected, which [`Netlist::validate`] rejects for input pins.
    pub pin_nets: Vec<Option<NetId>>,
}

/// A signal net: one driver, many sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name (unique within the netlist).
    pub name: String,
    /// Driving pin (output pin of some instance).
    pub driver: Option<PinRef>,
    /// Sink pins (input pins of instances).
    pub sinks: Vec<PinRef>,
}

impl Net {
    /// Number of sink pins.
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }
}

/// Errors detected by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has no driver pin.
    UndrivenNet(String),
    /// A net has no sinks.
    DanglingNet(String),
    /// An instance input pin is unconnected.
    UnconnectedPin(String, usize),
    /// A pin is used with the wrong direction (input driving / output sinking).
    DirectionMismatch(String),
    /// Net/pin cross-references disagree.
    InconsistentRef(String),
    /// Two instances or nets share a name.
    DuplicateName(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UndrivenNet(n) => write!(f, "net {n} has no driver"),
            NetlistError::DanglingNet(n) => write!(f, "net {n} has no sinks"),
            NetlistError::UnconnectedPin(i, p) => {
                write!(f, "instance {i} input pin {p} unconnected")
            }
            NetlistError::DirectionMismatch(m) => write!(f, "pin direction mismatch: {m}"),
            NetlistError::InconsistentRef(m) => write!(f, "inconsistent net/pin reference: {m}"),
            NetlistError::DuplicateName(n) => write!(f, "duplicate name {n}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat gate-level netlist over a [`CellLibrary`].
///
/// # Example
///
/// ```
/// use deepsplit_netlist::library::CellLibrary;
/// use deepsplit_netlist::netlist::Netlist;
///
/// let lib = CellLibrary::nangate45();
/// let mut nl = Netlist::new("tiny", &lib);
/// let a = nl.add_instance("a", lib.find_id("PAD_IN").unwrap(), &lib);
/// let g = nl.add_instance("g", lib.find_id("INV_X1").unwrap(), &lib);
/// let z = nl.add_instance("z", lib.find_id("PAD_OUT").unwrap(), &lib);
/// let n1 = nl.add_net("n1");
/// let n2 = nl.add_net("n2");
/// nl.connect_driver(n1, a, 0);
/// nl.connect_sink(n1, g, 0);
/// nl.connect_driver(n2, g, 1);
/// nl.connect_sink(n2, z, 0);
/// assert!(nl.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// Name of the library this netlist was built against.
    pub library_name: String,
    instances: Vec<Instance>,
    nets: Vec<Net>,
}

impl Netlist {
    /// Creates an empty netlist bound to `lib` by name.
    pub fn new(name: impl Into<String>, lib: &CellLibrary) -> Self {
        Netlist {
            name: name.into(),
            library_name: lib.name.clone(),
            instances: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Adds an instance of `cell`, with all pins unconnected.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        cell: CellKindId,
        lib: &CellLibrary,
    ) -> InstId {
        let id = InstId(self.instances.len() as u32);
        self.instances.push(Instance {
            name: name.into(),
            cell,
            pin_nets: vec![None; lib.cell(cell).pins.len()],
        });
        id
    }

    /// Adds an empty net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.into(),
            driver: None,
            sinks: Vec::new(),
        });
        id
    }

    /// Connects `inst.pin` as the driver of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the net already has a driver.
    pub fn connect_driver(&mut self, net: NetId, inst: InstId, pin: u8) {
        assert!(
            self.nets[net.0 as usize].driver.is_none(),
            "net {} already driven",
            net.0
        );
        self.nets[net.0 as usize].driver = Some(PinRef { inst, pin });
        self.instances[inst.0 as usize].pin_nets[pin as usize] = Some(net);
    }

    /// Connects `inst.pin` as a sink of `net`.
    pub fn connect_sink(&mut self, net: NetId, inst: InstId, pin: u8) {
        self.nets[net.0 as usize].sinks.push(PinRef { inst, pin });
        self.instances[inst.0 as usize].pin_nets[pin as usize] = Some(net);
    }

    /// Number of instances (including pads).
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Looks an instance up.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Looks a net up.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Iterates over `(id, instance)`.
    pub fn instances(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, x)| (InstId(i as u32), x))
    }

    /// Iterates over `(id, net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, x)| (NetId(i as u32), x))
    }

    /// Instances that are primary-input pads.
    pub fn primary_inputs<'a>(&'a self, lib: &'a CellLibrary) -> impl Iterator<Item = InstId> + 'a {
        self.instances().filter_map(move |(id, inst)| {
            if lib.cell(inst.cell).function == crate::library::CellFunction::PadIn {
                Some(id)
            } else {
                None
            }
        })
    }

    /// Total sink-pin capacitance on `net`, in fF.
    pub fn net_load_ff(&self, net: NetId, lib: &CellLibrary) -> f64 {
        self.net(net)
            .sinks
            .iter()
            .map(|s| {
                let inst = self.instance(s.inst);
                lib.cell(inst.cell).pins[s.pin as usize].cap_ff
            })
            .sum()
    }

    /// Checks structural invariants; returns the first violation found.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if any net is undriven or dangling, any input
    /// pin is unconnected, pin directions are misused, cross-references are
    /// inconsistent, or names collide.
    pub fn validate_with(&self, lib: &CellLibrary) -> Result<(), NetlistError> {
        let mut names = HashMap::new();
        for (id, inst) in self.instances() {
            if names.insert(inst.name.clone(), true).is_some() {
                return Err(NetlistError::DuplicateName(inst.name.clone()));
            }
            let spec = lib.cell(inst.cell);
            for (p, net) in inst.pin_nets.iter().enumerate() {
                match net {
                    None => {
                        if spec.pins[p].dir == PinDir::Input {
                            return Err(NetlistError::UnconnectedPin(inst.name.clone(), p));
                        }
                    }
                    Some(nid) => {
                        let net = self.net(*nid);
                        let me = PinRef {
                            inst: id,
                            pin: p as u8,
                        };
                        let found = net.driver == Some(me) || net.sinks.contains(&me);
                        if !found {
                            return Err(NetlistError::InconsistentRef(format!(
                                "{}.{} -> net {}",
                                inst.name, spec.pins[p].name, net.name
                            )));
                        }
                    }
                }
            }
        }
        let mut net_names = HashMap::new();
        for (_, net) in self.nets() {
            if net_names.insert(net.name.clone(), true).is_some() {
                return Err(NetlistError::DuplicateName(net.name.clone()));
            }
            let driver = match net.driver {
                None => return Err(NetlistError::UndrivenNet(net.name.clone())),
                Some(d) => d,
            };
            let dspec = lib.cell(self.instance(driver.inst).cell);
            if dspec.pins[driver.pin as usize].dir != PinDir::Output {
                return Err(NetlistError::DirectionMismatch(format!(
                    "driver of {} is not an output pin",
                    net.name
                )));
            }
            if net.sinks.is_empty() {
                return Err(NetlistError::DanglingNet(net.name.clone()));
            }
            for s in &net.sinks {
                let sspec = lib.cell(self.instance(s.inst).cell);
                if sspec.pins[s.pin as usize].dir != PinDir::Input {
                    return Err(NetlistError::DirectionMismatch(format!(
                        "sink of {} is not an input pin",
                        net.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates against the default library (convenience for tests/examples).
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::validate_with`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.validate_with(&CellLibrary::nangate45())
    }

    /// Truncates the sink list of `net` to its first `keep` pins, disconnecting
    /// the removed pins.
    pub(crate) fn truncate_sinks(&mut self, net: NetId, keep: usize) {
        let removed: Vec<PinRef> = self.nets[net.0 as usize].sinks[keep..].to_vec();
        self.nets[net.0 as usize].sinks.truncate(keep);
        for p in removed {
            self.instances[p.inst.0 as usize].pin_nets[p.pin as usize] = None;
        }
    }

    /// Moves sink pin `p` from its current net (if any) onto `new_net`.
    pub fn rewire_sink(&mut self, p: PinRef, new_net: NetId) {
        if let Some(old) = self.instances[p.inst.0 as usize].pin_nets[p.pin as usize] {
            let sinks = &mut self.nets[old.0 as usize].sinks;
            if let Some(pos) = sinks.iter().position(|s| *s == p) {
                sinks.remove(pos);
            }
        }
        self.nets[new_net.0 as usize].sinks.push(p);
        self.instances[p.inst.0 as usize].pin_nets[p.pin as usize] = Some(new_net);
    }

    /// Replaces the cell template of `inst` with a pin-compatible one
    /// (used for driver sizing).
    ///
    /// # Panics
    ///
    /// Panics if the new cell has a different pin count.
    pub(crate) fn replace_cell(&mut self, inst: InstId, kind: CellKindId, lib: &CellLibrary) {
        assert_eq!(
            lib.cell(self.instances[inst.0 as usize].cell).pins.len(),
            lib.cell(kind).pins.len(),
            "replace_cell requires pin-compatible cells"
        );
        self.instances[inst.0 as usize].cell = kind;
    }

    /// Topological order of instances (combinational edges only; DFF outputs
    /// and pads are treated as sources). Sequential loops are therefore fine.
    pub(crate) fn topo_order(&self, lib: &CellLibrary) -> Vec<InstId> {
        let n = self.instances.len();
        let mut indeg = vec![0usize; n];
        let mut out_edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (_, net) in self.nets() {
            let Some(driver) = net.driver else { continue };
            let dfun = lib.cell(self.instance(driver.inst).cell).function;
            // Registered or pad outputs break combinational dependence.
            if dfun.is_sequential() || dfun.is_pad() {
                continue;
            }
            for s in &net.sinks {
                out_edges[driver.inst.0 as usize].push(s.inst.0);
                indeg[s.inst.0 as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(InstId(u));
            for &v in &out_edges[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        order
    }

    /// Combinational logic depth (number of gates on the longest
    /// register/pad-bounded path).
    pub(crate) fn logic_depth(&self, lib: &CellLibrary) -> usize {
        let order = self.topo_order(lib);
        let mut depth = vec![0usize; self.instances.len()];
        let mut max = 0;
        for id in order {
            let inst = self.instance(id);
            let fun = lib.cell(inst.cell).function;
            if fun.is_pad() || fun.is_sequential() {
                continue;
            }
            let mut d = 0usize;
            for (p, net) in inst.pin_nets.iter().enumerate() {
                let Some(nid) = net else { continue };
                if lib.cell(inst.cell).pins[p].dir != PinDir::Input {
                    continue;
                }
                if let Some(driver) = self.net(*nid).driver {
                    let dfun = lib.cell(self.instance(driver.inst).cell).function;
                    if !dfun.is_pad() && !dfun.is_sequential() {
                        d = d.max(depth[driver.inst.0 as usize]);
                    }
                }
            }
            depth[id.0 as usize] = d + 1;
            max = max.max(d + 1);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    fn tiny() -> (CellLibrary, Netlist) {
        let lib = CellLibrary::nangate45();
        let mut nl = Netlist::new("tiny", &lib);
        let a = nl.add_instance("a", lib.find_id("PAD_IN").unwrap(), &lib);
        let b = nl.add_instance("b", lib.find_id("PAD_IN").unwrap(), &lib);
        let g = nl.add_instance("g", lib.find_id("NAND2_X1").unwrap(), &lib);
        let z = nl.add_instance("z", lib.find_id("PAD_OUT").unwrap(), &lib);
        let na = nl.add_net("na");
        let nb = nl.add_net("nb");
        let nz = nl.add_net("nz");
        nl.connect_driver(na, a, 0);
        nl.connect_sink(na, g, 0);
        nl.connect_driver(nb, b, 0);
        nl.connect_sink(nb, g, 1);
        nl.connect_driver(nz, g, 2);
        nl.connect_sink(nz, z, 0);
        (lib, nl)
    }

    #[test]
    fn valid_netlist_passes() {
        let (lib, nl) = tiny();
        assert!(nl.validate_with(&lib).is_ok());
    }

    #[test]
    fn undriven_net_fails() {
        let (lib, mut nl) = tiny();
        let bad = nl.add_net("bad");
        let g = InstId(2);
        nl.connect_sink(bad, g, 0); // overrides pin 0 mapping
        assert!(matches!(
            nl.validate_with(&lib),
            Err(NetlistError::UndrivenNet(_)) | Err(NetlistError::InconsistentRef(_))
        ));
    }

    #[test]
    fn dangling_net_fails() {
        let lib = CellLibrary::nangate45();
        let mut nl = Netlist::new("t", &lib);
        let a = nl.add_instance("a", lib.find_id("PAD_IN").unwrap(), &lib);
        let n = nl.add_net("n");
        nl.connect_driver(n, a, 0);
        assert_eq!(
            nl.validate_with(&lib),
            Err(NetlistError::DanglingNet("n".into()))
        );
    }

    #[test]
    fn load_capacitance_sums_sink_pins() {
        let (lib, nl) = tiny();
        // net na drives NAND2_X1 pin A1 (1.0 fF)
        let na = NetId(0);
        assert!((nl.net_load_ff(na, &lib) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn topo_order_visits_all() {
        let (lib, nl) = tiny();
        let order = nl.topo_order(&lib);
        assert_eq!(order.len(), nl.num_instances());
    }

    #[test]
    fn logic_depth_of_single_gate_is_one() {
        let (lib, nl) = tiny();
        assert_eq!(nl.logic_depth(&lib), 1);
    }

    #[test]
    fn duplicate_instance_name_fails() {
        let lib = CellLibrary::nangate45();
        let mut nl = Netlist::new("t", &lib);
        nl.add_instance("x", lib.find_id("PAD_IN").unwrap(), &lib);
        nl.add_instance("x", lib.find_id("PAD_IN").unwrap(), &lib);
        assert!(matches!(
            nl.validate_with(&lib),
            Err(NetlistError::DuplicateName(_))
        ));
    }
}
