//! Seeded random-logic generation.
//!
//! We cannot redistribute the ISCAS-85 / MCNC / ITC-99 netlists the paper uses,
//! so this module synthesises *statistical twins*: levelised random DAGs with a
//! controlled gate count, I/O count, logic depth, gate-type mix and fanout
//! distribution. The generator also performs the two post-synthesis fixes a
//! real flow would apply (fanout buffering and driver sizing), so the resulting
//! netlists respect the library's maximum-load constraints — the property the
//! network-flow attack uses as its capacity model.

use crate::library::{CellFunction, CellKindId, CellLibrary, DriveStrength};
use crate::netlist::{InstId, NetId, Netlist, PinRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random-logic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of combinational gates.
    pub num_gates: usize,
    /// Number of D flip-flops (0 for combinational benchmarks).
    pub num_ffs: usize,
    /// Approximate combinational logic depth.
    pub target_depth: usize,
    /// Cone locality in `(0, 1]`: probability mass of drawing a gate input from
    /// the immediately preceding levels (higher ⇒ deeper, narrower cones and
    /// stronger placement proximity signal).
    pub locality: f64,
    /// Maximum fanout before buffer insertion.
    pub max_fanout: usize,
    /// RNG seed; the same seed always yields the same netlist.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            num_inputs: 32,
            num_outputs: 32,
            num_gates: 500,
            num_ffs: 0,
            target_depth: 12,
            locality: 0.6,
            max_fanout: 10,
            seed: 1,
        }
    }
}

/// Weighted gate-type mix approximating a technology-mapped ISCAS netlist.
fn pick_function(rng: &mut StdRng) -> CellFunction {
    let r: f64 = rng.gen();
    match r {
        x if x < 0.24 => CellFunction::Nand(2),
        x if x < 0.38 => CellFunction::Nor(2),
        x if x < 0.50 => CellFunction::Inv,
        x if x < 0.58 => CellFunction::And(2),
        x if x < 0.66 => CellFunction::Or(2),
        x if x < 0.72 => CellFunction::Nand(3),
        x if x < 0.77 => CellFunction::Nor(3),
        x if x < 0.82 => CellFunction::Xor2,
        x if x < 0.86 => CellFunction::Xnor2,
        x if x < 0.90 => CellFunction::Aoi21,
        x if x < 0.94 => CellFunction::Oai21,
        x if x < 0.97 => CellFunction::Mux2,
        _ => CellFunction::Buf,
    }
}

/// One producible signal during construction.
#[derive(Clone, Copy)]
struct Signal {
    net: NetId,
    level: usize,
    /// Horizontal position within its level, in `[0, 1)`; used for locality.
    pos: f64,
}

/// Generates a random netlist according to `config`.
///
/// The result always passes [`Netlist::validate_with`], has no combinational
/// loops, no undriven or dangling nets, and no driver loaded beyond its
/// library maximum (buffers are inserted / drivers upsized as needed).
///
/// # Example
///
/// ```
/// use deepsplit_netlist::generate::{generate, GeneratorConfig};
/// use deepsplit_netlist::library::CellLibrary;
///
/// let lib = CellLibrary::nangate45();
/// let nl = generate("demo", &GeneratorConfig::default(), &lib);
/// assert!(nl.validate_with(&lib).is_ok());
/// ```
pub fn generate(name: &str, config: &GeneratorConfig, lib: &CellLibrary) -> Netlist {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_cafe);
    let mut nl = Netlist::new(name, lib);

    let pad_in = lib.find_id("PAD_IN").expect("library must define PAD_IN");
    let pad_out = lib.find_id("PAD_OUT").expect("library must define PAD_OUT");
    let dff = lib
        .by_function(CellFunction::Dff, DriveStrength::X1)
        .expect("library must define a DFF");

    // Level-0 sources: primary inputs and flip-flop outputs.
    let mut signals: Vec<Signal> = Vec::new();
    let mut use_count: Vec<usize> = Vec::new();

    let push_signal = |signals: &mut Vec<Signal>,
                       use_count: &mut Vec<usize>,
                       net: NetId,
                       level: usize,
                       pos: f64| {
        signals.push(Signal { net, level, pos });
        use_count.push(0);
    };

    for i in 0..config.num_inputs {
        let inst = nl.add_instance(format!("pi_{i}"), pad_in, lib);
        let net = nl.add_net(format!("in_{i}"));
        nl.connect_driver(net, inst, 0);
        let pos = (i as f64 + 0.5) / config.num_inputs.max(1) as f64;
        push_signal(&mut signals, &mut use_count, net, 0, pos);
    }

    // Flip-flops: create instances and output nets now; D inputs wired later.
    let mut ff_insts = Vec::new();
    for i in 0..config.num_ffs {
        let inst = nl.add_instance(format!("ff_{i}"), dff, lib);
        let net = nl.add_net(format!("q_{i}"));
        nl.connect_driver(net, inst, 1); // DFF pins: [D, Q]
        ff_insts.push(inst);
        let pos = (i as f64 + 0.5) / config.num_ffs.max(1) as f64;
        push_signal(&mut signals, &mut use_count, net, 0, pos);
    }

    // Levelised gate construction.
    let depth = config.target_depth.max(1);
    let per_level = (config.num_gates + depth - 1) / depth.max(1);
    let mut made = 0usize;
    let mut level = 1usize;
    while made < config.num_gates {
        let count = per_level.min(config.num_gates - made);
        let level_start = signals.len();
        for g in 0..count {
            let function = pick_function(&mut rng);
            let drive = DriveStrength::X1;
            let kind: CellKindId = lib
                .by_function(function, drive)
                .unwrap_or_else(|| lib.by_function(CellFunction::Nand(2), drive).unwrap());
            let inst = nl.add_instance(format!("g_{made}"), kind, lib);
            let net = nl.add_net(format!("n_{made}"));
            let spec = lib.cell(nl.instance(inst).cell);
            let out_pin = spec.output_pin().expect("gate has output") as u8;
            nl.connect_driver(net, inst, out_pin);

            let pos = (g as f64 + rng.gen::<f64>()) / count.max(1) as f64;

            // Wire inputs: draw source level by geometric decay, position by
            // locality window; prefer not-yet-used signals to avoid dangling.
            let n_in = function.num_inputs();
            let mut chosen = Vec::with_capacity(n_in);
            for pin in 0..n_in {
                let sig_idx = draw_source(
                    &mut rng,
                    &signals[..level_start],
                    &use_count,
                    level,
                    pos,
                    config.locality,
                    &chosen,
                );
                chosen.push(sig_idx);
                use_count[sig_idx] += 1;
                nl.connect_sink(signals[sig_idx].net, inst, pin as u8);
            }

            push_signal(&mut signals, &mut use_count, net, level, pos);
            made += 1;
        }
        level += 1;
    }

    // Flip-flop D inputs from late signals.
    for (i, &ff) in ff_insts.iter().enumerate() {
        let idx = draw_late(&mut rng, &signals, &use_count, 0.7);
        use_count[idx] += 1;
        nl.connect_sink(signals[idx].net, ff, 0);
        let _ = i;
    }

    // Primary outputs from late signals.
    for i in 0..config.num_outputs {
        let inst = nl.add_instance(format!("po_{i}"), pad_out, lib);
        let idx = draw_late(&mut rng, &signals, &use_count, 0.8);
        use_count[idx] += 1;
        nl.connect_sink(signals[idx].net, inst, 0);
    }

    // Any still-unused signal becomes an extra observation point so no net
    // dangles (mirrors how test flows keep all logic observable).
    let unused: Vec<usize> = (0..signals.len()).filter(|&i| use_count[i] == 0).collect();
    for (k, idx) in unused.into_iter().enumerate() {
        let inst = nl.add_instance(format!("po_obs_{k}"), pad_out, lib);
        nl.connect_sink(signals[idx].net, inst, 0);
    }

    fix_fanout(&mut nl, lib, config.max_fanout, &mut rng);
    size_drivers(&mut nl, lib);

    debug_assert!(nl.validate_with(lib).is_ok());
    nl
}

/// Draws a source-signal index for a gate input.
fn draw_source(
    rng: &mut StdRng,
    pool: &[Signal],
    use_count: &[usize],
    gate_level: usize,
    gate_pos: f64,
    locality: f64,
    already: &[usize],
) -> usize {
    assert!(
        !pool.is_empty(),
        "generator needs at least one source signal"
    );
    // Retry a few times to avoid duplicated inputs; fall back to whatever.
    for attempt in 0..8 {
        // Geometric level decay: with prob `locality` take the previous level,
        // else recurse further back.
        let mut back = 1usize;
        while back < gate_level && rng.gen::<f64>() > locality {
            back += 1;
        }
        let want_level = gate_level.saturating_sub(back);
        // Candidates at that level (pool is level-ordered).
        let lo = pool.partition_point(|s| s.level < want_level);
        let hi = pool.partition_point(|s| s.level <= want_level);
        let (lo, hi) = if lo == hi { (0, pool.len()) } else { (lo, hi) };
        // Locality window around gate_pos.
        let window = 0.15f64.max(1.0 - locality);
        let target = (gate_pos + rng.gen_range(-window..window)).clamp(0.0, 0.999);
        let idx = lo + ((hi - lo) as f64 * target) as usize;
        let mut idx = idx.min(hi - 1);
        // Snap to the nearest-positioned signal in a small neighbourhood so
        // locality tracks actual signal positions, not just pool order.
        let mut best = (pool[idx].pos - target).abs();
        let lo_j = idx.saturating_sub(2);
        for (j, sig) in pool.iter().enumerate().take((idx + 3).min(hi)).skip(lo_j) {
            let d = (sig.pos - target).abs();
            if d < best {
                best = d;
                idx = j;
            }
        }
        // Prefer unused signals early on, and never duplicate an input.
        if already.contains(&idx) {
            continue;
        }
        if attempt < 4 && use_count[idx] > 3 {
            continue;
        }
        return idx;
    }
    // Fall back to the first non-duplicate.
    (0..pool.len()).find(|i| !already.contains(i)).unwrap_or(0)
}

/// Draws a signal biased toward the deepest levels.
fn draw_late(rng: &mut StdRng, pool: &[Signal], use_count: &[usize], bias: f64) -> usize {
    let n = pool.len();
    for attempt in 0..8 {
        let r: f64 = rng.gen::<f64>().powf(1.0 / (1.0 + 4.0 * bias));
        let idx = ((n as f64) * r) as usize;
        let idx = idx.min(n - 1);
        if attempt < 4 && use_count[idx] > 0 {
            continue;
        }
        return idx;
    }
    n - 1
}

/// Splits nets whose fanout exceeds `max_fanout` by inserting buffer trees.
fn fix_fanout(nl: &mut Netlist, lib: &CellLibrary, max_fanout: usize, _rng: &mut StdRng) {
    let buf = lib
        .by_function(CellFunction::Buf, DriveStrength::X2)
        .or_else(|| lib.by_function(CellFunction::Buf, DriveStrength::X1))
        .expect("library must define a buffer");
    let mut next_buf = 0usize;
    loop {
        // Find one offending net per pass (net list grows as we insert).
        let offender = nl
            .nets()
            .find(|(_, net)| net.fanout() > max_fanout)
            .map(|(id, _)| id);
        let Some(net_id) = offender else { break };
        // Move the tail sinks onto a new buffered net.
        let moved: Vec<PinRef> = {
            let net = nl.net(net_id);
            net.sinks[max_fanout - 1..].to_vec()
        };
        let binst = nl.add_instance(format!("fobuf_{next_buf}"), buf, lib);
        next_buf += 1;
        let bnet = nl.add_net(format!("fonet_{next_buf}"));
        let out_pin = lib.cell(buf).output_pin().unwrap() as u8;
        // Rewire: truncate original sinks, buffer becomes a sink, moved pins
        // hang off the buffer output.
        nl.truncate_sinks(net_id, max_fanout - 1);
        nl.connect_sink(net_id, binst, 0);
        nl.connect_driver(bnet, binst, out_pin);
        for p in moved {
            nl.rewire_sink(p, bnet);
        }
    }
}

/// Upsizes drivers whose load exceeds the library maximum.
fn size_drivers(nl: &mut Netlist, lib: &CellLibrary) {
    let upgrades: Vec<(InstId, CellKindId)> = nl
        .nets()
        .filter_map(|(net_id, net)| {
            let driver = net.driver?;
            let inst = nl.instance(driver.inst);
            let spec = lib.cell(inst.cell);
            if spec.function.is_pad() {
                return None;
            }
            let load = nl.net_load_ff(net_id, lib);
            if load <= spec.max_load_ff {
                return None;
            }
            // Try stronger drives of the same function.
            for drive in [DriveStrength::X2, DriveStrength::X4] {
                if drive <= spec.drive {
                    continue;
                }
                if let Some(kind) = lib.by_function(spec.function, drive) {
                    if load <= lib.cell(kind).max_load_ff {
                        return Some((driver.inst, kind));
                    }
                }
            }
            // Otherwise take the strongest available.
            let strongest = lib
                .by_function(spec.function, DriveStrength::X4)
                .or_else(|| lib.by_function(spec.function, DriveStrength::X2));
            strongest.map(|kind| (driver.inst, kind))
        })
        .collect();
    for (inst, kind) in upgrades {
        nl.replace_cell(inst, kind, lib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;

    #[test]
    fn generates_valid_netlists() {
        let lib = CellLibrary::nangate45();
        for seed in [1, 2, 3] {
            let config = GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            };
            let nl = generate("t", &config, &lib);
            assert!(nl.validate_with(&lib).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let lib = CellLibrary::nangate45();
        let config = GeneratorConfig::default();
        let a = generate("a", &config, &lib);
        let b = generate("a", &config, &lib);
        assert_eq!(a.num_instances(), b.num_instances());
        assert_eq!(a.num_nets(), b.num_nets());
        let na: Vec<_> = a
            .nets()
            .map(|(_, n)| (n.name.clone(), n.fanout()))
            .collect();
        let nb: Vec<_> = b
            .nets()
            .map(|(_, n)| (n.name.clone(), n.fanout()))
            .collect();
        assert_eq!(na, nb);
    }

    #[test]
    fn different_seeds_differ() {
        let lib = CellLibrary::nangate45();
        let a = generate(
            "a",
            &GeneratorConfig {
                seed: 1,
                ..Default::default()
            },
            &lib,
        );
        let b = generate(
            "a",
            &GeneratorConfig {
                seed: 2,
                ..Default::default()
            },
            &lib,
        );
        let fa: Vec<_> = a.nets().map(|(_, n)| n.fanout()).collect();
        let fb: Vec<_> = b.nets().map(|(_, n)| n.fanout()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn respects_max_fanout() {
        let lib = CellLibrary::nangate45();
        let config = GeneratorConfig {
            num_gates: 800,
            max_fanout: 8,
            ..Default::default()
        };
        let nl = generate("t", &config, &lib);
        for (_, net) in nl.nets() {
            assert!(
                net.fanout() <= 8,
                "net {} fanout {}",
                net.name,
                net.fanout()
            );
        }
    }

    #[test]
    fn no_driver_overloaded() {
        let lib = CellLibrary::nangate45();
        let config = GeneratorConfig {
            num_gates: 600,
            ..Default::default()
        };
        let nl = generate("t", &config, &lib);
        for (id, net) in nl.nets() {
            let driver = net.driver.unwrap();
            let spec = lib.cell(nl.instance(driver.inst).cell);
            if spec.function.is_pad() {
                continue;
            }
            assert!(
                nl.net_load_ff(id, &lib) <= spec.max_load_ff + 1e-9,
                "net {} overloads {}",
                net.name,
                spec.name
            );
        }
    }

    #[test]
    fn sequential_designs_have_ffs() {
        let lib = CellLibrary::nangate45();
        let config = GeneratorConfig {
            num_ffs: 20,
            ..Default::default()
        };
        let nl = generate("t", &config, &lib);
        let ffs = nl
            .instances()
            .filter(|(_, i)| lib.cell(i.cell).function.is_sequential())
            .count();
        assert_eq!(ffs, 20);
        assert!(nl.validate_with(&lib).is_ok());
    }

    #[test]
    fn depth_tracks_target() {
        let lib = CellLibrary::nangate45();
        let shallow = generate(
            "s",
            &GeneratorConfig {
                target_depth: 5,
                num_gates: 400,
                ..Default::default()
            },
            &lib,
        );
        let deep = generate(
            "d",
            &GeneratorConfig {
                target_depth: 30,
                num_gates: 400,
                ..Default::default()
            },
            &lib,
        );
        assert!(deep.logic_depth(&lib) > shallow.logic_depth(&lib));
    }
}
