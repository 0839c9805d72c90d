//! Standard-cell library modelled on the NanGate 45 nm Open Cell Library.
//!
//! The attacker model of the paper assumes full knowledge of the cell library:
//! cell footprints, pin capacitances, and the *maximum load capacitance* of
//! every driver (used both by the network-flow baseline as an edge capacity and
//! by the DL attack as a vector feature). This module provides that data.
//!
//! Values follow the NanGate 45 nm library in magnitude (site width 0.19 µm,
//! row height 1.4 µm, input capacitances around 1 fF, X1 drivers limited to a
//! few tens of fF) without copying any proprietary tables.

use std::collections::HashMap;
use std::fmt;

/// Direction of a cell pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// Input pin (has capacitance, no drive).
    Input,
    /// Output pin (drives a net).
    Output,
}

/// Drive strength of a cell; multiplies maximum load and divides resistance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DriveStrength {
    /// 1× drive.
    X1,
    /// 2× drive.
    X2,
    /// 4× drive.
    X4,
}

impl DriveStrength {
    /// Numeric multiplier of the drive strength.
    pub(crate) fn factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
        }
    }

    /// All strengths, weakest first.
    pub(crate) fn all() -> [DriveStrength; 3] {
        [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4]
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveStrength::X1 => write!(f, "X1"),
            DriveStrength::X2 => write!(f, "X2"),
            DriveStrength::X4 => write!(f, "X4"),
        }
    }
}

/// Logic function of a cell.
///
/// `PadIn`/`PadOut` are pseudo-cells representing chip I/O; modelling them as
/// instances keeps placement and routing uniform over all pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellFunction {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// n-input NAND (2..=4).
    Nand(u8),
    /// n-input NOR (2..=4).
    Nor(u8),
    /// n-input AND (2..=4).
    And(u8),
    /// n-input OR (2..=4).
    Or(u8),
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// 2:1 multiplexer (A, B, S).
    Mux2,
    /// D flip-flop (D in, Q out); clock is implicit (not routed as signal).
    Dff,
    /// Primary-input pad (single output pin).
    PadIn,
    /// Primary-output pad (single input pin).
    PadOut,
}

impl CellFunction {
    /// Number of signal input pins.
    pub fn num_inputs(self) -> usize {
        match self {
            CellFunction::Inv | CellFunction::Buf => 1,
            CellFunction::Nand(n)
            | CellFunction::Nor(n)
            | CellFunction::And(n)
            | CellFunction::Or(n) => n as usize,
            CellFunction::Xor2 | CellFunction::Xnor2 => 2,
            CellFunction::Aoi21 | CellFunction::Oai21 | CellFunction::Mux2 => 3,
            CellFunction::Dff => 1,
            CellFunction::PadIn => 0,
            CellFunction::PadOut => 1,
        }
    }

    /// Number of output pins (zero only for `PadOut`).
    #[cfg(test)]
    pub(crate) fn num_outputs(self) -> usize {
        match self {
            CellFunction::PadOut => 0,
            _ => 1,
        }
    }

    /// Whether the output is a registered (sequential) value.
    pub(crate) fn is_sequential(self) -> bool {
        matches!(self, CellFunction::Dff)
    }

    /// Whether this is an I/O pseudo-cell.
    pub fn is_pad(self) -> bool {
        matches!(self, CellFunction::PadIn | CellFunction::PadOut)
    }
}

/// A pin of a cell template.
#[derive(Debug, Clone, PartialEq)]
pub struct PinSpec {
    /// Pin name as used in structural Verilog (`A`, `B`, `ZN`, …).
    pub name: String,
    /// Pin direction.
    pub dir: PinDir,
    /// Input capacitance in femtofarads (0.0 for outputs).
    pub cap_ff: f64,
}

/// A standard-cell template.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Library cell name (for example `NAND2_X1`).
    pub name: String,
    /// Logic function.
    pub function: CellFunction,
    /// Drive strength.
    pub drive: DriveStrength,
    /// Pins, inputs first, output(s) last.
    pub pins: Vec<PinSpec>,
    /// Cell width in placement sites.
    pub width_sites: u32,
    /// Maximum load capacitance the output may drive, in fF.
    pub max_load_ff: f64,
    /// Intrinsic output delay in picoseconds.
    pub intrinsic_delay_ps: f64,
    /// Output drive resistance in ps/fF (delay slope versus load).
    pub drive_res_ps_per_ff: f64,
}

impl CellSpec {
    /// Index of the (single) output pin, if any.
    pub(crate) fn output_pin(&self) -> Option<usize> {
        self.pins.iter().position(|p| p.dir == PinDir::Output)
    }

    /// Cell width in micrometres given the library site width.
    pub fn width_um(&self, lib: &CellLibrary) -> f64 {
        self.width_sites as f64 * lib.site_width_um
    }

    /// Linear delay estimate in ps for a given load in fF.
    ///
    /// This is the slope/intercept model also used by the paper's *driver
    /// delay* feature (a lower bound when the load is incomplete).
    pub fn delay_ps(&self, load_ff: f64) -> f64 {
        self.intrinsic_delay_ps + self.drive_res_ps_per_ff * load_ff
    }
}

/// Identifier of a cell template inside a [`CellLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKindId(pub u32);

/// A complete standard-cell library.
///
/// # Example
///
/// ```
/// use deepsplit_netlist::library::CellLibrary;
///
/// let lib = CellLibrary::nangate45();
/// let nand = lib.find("NAND2_X1").expect("library has NAND2_X1");
/// assert_eq!(nand.function.num_inputs(), 2);
/// assert!(nand.max_load_ff > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    /// Library name.
    pub name: String,
    /// Placement site width in µm.
    pub site_width_um: f64,
    /// Placement row height in µm.
    pub row_height_um: f64,
    cells: Vec<CellSpec>,
    by_name: HashMap<String, CellKindId>,
}

impl CellLibrary {
    /// Creates an empty library with the given geometry.
    pub fn new(name: impl Into<String>, site_width_um: f64, row_height_um: f64) -> Self {
        CellLibrary {
            name: name.into(),
            site_width_um,
            row_height_um,
            cells: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds a cell template, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name already exists.
    pub(crate) fn add(&mut self, cell: CellSpec) -> CellKindId {
        let id = CellKindId(self.cells.len() as u32);
        let prev = self.by_name.insert(cell.name.clone(), id);
        assert!(prev.is_none(), "duplicate cell name {}", cell.name);
        self.cells.push(cell);
        id
    }

    /// Looks a cell template up by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellKindId) -> &CellSpec {
        &self.cells[id.0 as usize]
    }

    /// Looks a cell template up by name.
    pub fn find(&self, name: &str) -> Option<&CellSpec> {
        self.by_name.get(name).map(|&id| self.cell(id))
    }

    /// Looks a cell id up by name.
    pub fn find_id(&self, name: &str) -> Option<CellKindId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over all `(id, spec)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (CellKindId, &CellSpec)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellKindId(i as u32), c))
    }

    /// Finds the id of a combinational cell by function and drive strength.
    pub(crate) fn by_function(
        &self,
        function: CellFunction,
        drive: DriveStrength,
    ) -> Option<CellKindId> {
        self.iter()
            .find(|(_, c)| c.function == function && c.drive == drive)
            .map(|(id, _)| id)
    }

    /// Builds the NanGate-45nm-style default library used across the project.
    ///
    /// Includes INV/BUF at X1/X2/X4, NAND/NOR/AND/OR at 2–4 inputs, XOR/XNOR,
    /// AOI21/OAI21, MUX2, DFF, and the `PAD_IN`/`PAD_OUT` pseudo-cells.
    pub fn nangate45() -> Self {
        let mut lib = CellLibrary::new("nangate45-style", 0.19, 1.4);
        let drives = DriveStrength::all();

        let inp = |name: &str, cap: f64| PinSpec {
            name: name.to_string(),
            dir: PinDir::Input,
            cap_ff: cap,
        };
        let out = |name: &str| PinSpec {
            name: name.to_string(),
            dir: PinDir::Output,
            cap_ff: 0.0,
        };

        // Base (X1) electrical values; scaled per drive strength.
        // (function, base name, input pin names, out pin, base cap, width_sites,
        //  base max_load, intrinsic ps, base res ps/fF)
        struct Proto {
            function: CellFunction,
            base: &'static str,
            inputs: &'static [&'static str],
            output: &'static str,
            cap_ff: f64,
            width_sites: u32,
            max_load_ff: f64,
            intrinsic_ps: f64,
            res_ps_per_ff: f64,
        }
        let protos = [
            Proto {
                function: CellFunction::Inv,
                base: "INV",
                inputs: &["A"],
                output: "ZN",
                cap_ff: 0.9,
                width_sites: 2,
                max_load_ff: 48.0,
                intrinsic_ps: 8.0,
                res_ps_per_ff: 2.2,
            },
            Proto {
                function: CellFunction::Buf,
                base: "BUF",
                inputs: &["A"],
                output: "Z",
                cap_ff: 0.9,
                width_sites: 3,
                max_load_ff: 56.0,
                intrinsic_ps: 16.0,
                res_ps_per_ff: 2.0,
            },
            Proto {
                function: CellFunction::Nand(2),
                base: "NAND2",
                inputs: &["A1", "A2"],
                output: "ZN",
                cap_ff: 1.0,
                width_sites: 3,
                max_load_ff: 44.0,
                intrinsic_ps: 12.0,
                res_ps_per_ff: 2.6,
            },
            Proto {
                function: CellFunction::Nand(3),
                base: "NAND3",
                inputs: &["A1", "A2", "A3"],
                output: "ZN",
                cap_ff: 1.1,
                width_sites: 4,
                max_load_ff: 42.0,
                intrinsic_ps: 15.0,
                res_ps_per_ff: 2.9,
            },
            Proto {
                function: CellFunction::Nand(4),
                base: "NAND4",
                inputs: &["A1", "A2", "A3", "A4"],
                output: "ZN",
                cap_ff: 1.2,
                width_sites: 5,
                max_load_ff: 40.0,
                intrinsic_ps: 18.0,
                res_ps_per_ff: 3.2,
            },
            Proto {
                function: CellFunction::Nor(2),
                base: "NOR2",
                inputs: &["A1", "A2"],
                output: "ZN",
                cap_ff: 1.0,
                width_sites: 3,
                max_load_ff: 42.0,
                intrinsic_ps: 13.0,
                res_ps_per_ff: 2.8,
            },
            Proto {
                function: CellFunction::Nor(3),
                base: "NOR3",
                inputs: &["A1", "A2", "A3"],
                output: "ZN",
                cap_ff: 1.1,
                width_sites: 4,
                max_load_ff: 40.0,
                intrinsic_ps: 17.0,
                res_ps_per_ff: 3.1,
            },
            Proto {
                function: CellFunction::Nor(4),
                base: "NOR4",
                inputs: &["A1", "A2", "A3", "A4"],
                output: "ZN",
                cap_ff: 1.2,
                width_sites: 5,
                max_load_ff: 38.0,
                intrinsic_ps: 20.0,
                res_ps_per_ff: 3.4,
            },
            Proto {
                function: CellFunction::And(2),
                base: "AND2",
                inputs: &["A1", "A2"],
                output: "ZN",
                cap_ff: 1.0,
                width_sites: 4,
                max_load_ff: 50.0,
                intrinsic_ps: 20.0,
                res_ps_per_ff: 2.3,
            },
            Proto {
                function: CellFunction::And(3),
                base: "AND3",
                inputs: &["A1", "A2", "A3"],
                output: "ZN",
                cap_ff: 1.1,
                width_sites: 5,
                max_load_ff: 48.0,
                intrinsic_ps: 23.0,
                res_ps_per_ff: 2.5,
            },
            Proto {
                function: CellFunction::Or(2),
                base: "OR2",
                inputs: &["A1", "A2"],
                output: "ZN",
                cap_ff: 1.0,
                width_sites: 4,
                max_load_ff: 50.0,
                intrinsic_ps: 21.0,
                res_ps_per_ff: 2.4,
            },
            Proto {
                function: CellFunction::Or(3),
                base: "OR3",
                inputs: &["A1", "A2", "A3"],
                output: "ZN",
                cap_ff: 1.1,
                width_sites: 5,
                max_load_ff: 48.0,
                intrinsic_ps: 24.0,
                res_ps_per_ff: 2.6,
            },
            Proto {
                function: CellFunction::Xor2,
                base: "XOR2",
                inputs: &["A", "B"],
                output: "Z",
                cap_ff: 1.5,
                width_sites: 6,
                max_load_ff: 40.0,
                intrinsic_ps: 28.0,
                res_ps_per_ff: 3.0,
            },
            Proto {
                function: CellFunction::Xnor2,
                base: "XNOR2",
                inputs: &["A", "B"],
                output: "ZN",
                cap_ff: 1.5,
                width_sites: 6,
                max_load_ff: 40.0,
                intrinsic_ps: 29.0,
                res_ps_per_ff: 3.0,
            },
            Proto {
                function: CellFunction::Aoi21,
                base: "AOI21",
                inputs: &["A", "B1", "B2"],
                output: "ZN",
                cap_ff: 1.2,
                width_sites: 4,
                max_load_ff: 40.0,
                intrinsic_ps: 16.0,
                res_ps_per_ff: 3.0,
            },
            Proto {
                function: CellFunction::Oai21,
                base: "OAI21",
                inputs: &["A", "B1", "B2"],
                output: "ZN",
                cap_ff: 1.2,
                width_sites: 4,
                max_load_ff: 40.0,
                intrinsic_ps: 16.0,
                res_ps_per_ff: 3.0,
            },
            Proto {
                function: CellFunction::Mux2,
                base: "MUX2",
                inputs: &["A", "B", "S"],
                output: "Z",
                cap_ff: 1.3,
                width_sites: 6,
                max_load_ff: 44.0,
                intrinsic_ps: 26.0,
                res_ps_per_ff: 2.7,
            },
        ];

        for p in &protos {
            for &drive in &drives {
                // Only X1/X2 for multi-input cells beyond 2 inputs, as in slim
                // academic libraries; keep the library compact.
                if p.inputs.len() > 2 && drive == DriveStrength::X4 {
                    continue;
                }
                let f = drive.factor();
                let mut pins: Vec<PinSpec> = p.inputs.iter().map(|n| inp(n, p.cap_ff)).collect();
                pins.push(out(p.output));
                lib.add(CellSpec {
                    name: format!("{}_{}", p.base, drive),
                    function: p.function,
                    drive,
                    pins,
                    width_sites: p.width_sites + (f as u32 - 1),
                    max_load_ff: p.max_load_ff * f,
                    intrinsic_delay_ps: p.intrinsic_ps,
                    drive_res_ps_per_ff: p.res_ps_per_ff / f,
                });
            }
        }

        // Sequential cell.
        lib.add(CellSpec {
            name: "DFF_X1".to_string(),
            function: CellFunction::Dff,
            drive: DriveStrength::X1,
            pins: vec![inp("D", 1.1), out("Q")],
            width_sites: 9,
            max_load_ff: 52.0,
            intrinsic_delay_ps: 60.0,
            drive_res_ps_per_ff: 2.1,
        });
        lib.add(CellSpec {
            name: "DFF_X2".to_string(),
            function: CellFunction::Dff,
            drive: DriveStrength::X2,
            pins: vec![inp("D", 1.1), out("Q")],
            width_sites: 10,
            max_load_ff: 104.0,
            intrinsic_delay_ps: 60.0,
            drive_res_ps_per_ff: 1.05,
        });

        // I/O pseudo-cells.
        lib.add(CellSpec {
            name: "PAD_IN".to_string(),
            function: CellFunction::PadIn,
            drive: DriveStrength::X4,
            pins: vec![out("PAD")],
            width_sites: 3,
            max_load_ff: 400.0,
            intrinsic_delay_ps: 0.0,
            drive_res_ps_per_ff: 0.5,
        });
        lib.add(CellSpec {
            name: "PAD_OUT".to_string(),
            function: CellFunction::PadOut,
            drive: DriveStrength::X1,
            pins: vec![inp("PAD", 2.0)],
            width_sites: 3,
            max_load_ff: 0.0,
            intrinsic_delay_ps: 0.0,
            drive_res_ps_per_ff: 0.0,
        });

        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nangate45_has_expected_cells() {
        let lib = CellLibrary::nangate45();
        for name in [
            "INV_X1", "INV_X2", "INV_X4", "BUF_X1", "NAND2_X1", "NAND3_X1", "NAND4_X1", "NOR2_X1",
            "AND2_X1", "OR2_X1", "XOR2_X1", "XNOR2_X1", "AOI21_X1", "OAI21_X1", "MUX2_X1",
            "DFF_X1", "PAD_IN", "PAD_OUT",
        ] {
            assert!(lib.find(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn drive_strength_scales_load_and_resistance() {
        let lib = CellLibrary::nangate45();
        let x1 = lib.find("INV_X1").unwrap();
        let x2 = lib.find("INV_X2").unwrap();
        let x4 = lib.find("INV_X4").unwrap();
        assert!(x2.max_load_ff > x1.max_load_ff);
        assert!(x4.max_load_ff > x2.max_load_ff);
        assert!(x2.drive_res_ps_per_ff < x1.drive_res_ps_per_ff);
    }

    #[test]
    fn pin_structure_matches_function() {
        let lib = CellLibrary::nangate45();
        for (_, cell) in lib.iter() {
            let inputs = cell.pins.iter().filter(|p| p.dir == PinDir::Input).count();
            let outputs = cell.pins.iter().filter(|p| p.dir == PinDir::Output).count();
            assert_eq!(inputs, cell.function.num_inputs(), "cell {}", cell.name);
            assert_eq!(outputs, cell.function.num_outputs(), "cell {}", cell.name);
        }
    }

    #[test]
    fn delay_model_is_monotone_in_load() {
        let lib = CellLibrary::nangate45();
        let nand = lib.find("NAND2_X1").unwrap();
        assert!(nand.delay_ps(10.0) < nand.delay_ps(20.0));
        assert!(nand.delay_ps(0.0) >= nand.intrinsic_delay_ps);
    }

    #[test]
    fn by_function_lookup() {
        let lib = CellLibrary::nangate45();
        let id = lib
            .by_function(CellFunction::Nand(2), DriveStrength::X1)
            .unwrap();
        assert_eq!(lib.cell(id).name, "NAND2_X1");
        assert!(lib
            .by_function(CellFunction::Nand(4), DriveStrength::X4)
            .is_none());
    }

    #[test]
    fn output_pin_is_last() {
        let lib = CellLibrary::nangate45();
        let nand = lib.find("NAND2_X1").unwrap();
        assert_eq!(nand.output_pin(), Some(2));
    }
}
