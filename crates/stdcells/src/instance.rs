//! Instantiating a [`CellDef`] as a transistor-level [`spicesim::Circuit`].
//!
//! Device cards are supplied through [`CardSource`]: the builder asks the
//! source for a card once per MOS device, identified by its *ordinal* —
//! the position in the cell's deterministic device-addition order (per
//! stage, the pull-down network first, then the width-compensated dual
//! pull-up; flops add their inverter/transmission-gate devices in a fixed
//! sequence). The nominal source ([`PolarityCards`]) returns one shared
//! card per polarity — the pre-variation behavior — while
//! [`SampledCards`] draws a per-device process-variation sample, so
//! within-cell mismatch reaches the simulator without the topology code
//! knowing anything about sampling.

use crate::def::{CellDef, Stage, Topology};
use crate::network::Network;
use crate::{UNIT_NMOS_WIDTH, UNIT_PMOS_WIDTH};
use ptm::{DeviceSample, MosModel, MosPolarity, VariationModel};
use spicesim::{Circuit, NodeId, Waveform};
use std::collections::BTreeMap;

/// Per-device transistor-card source.
///
/// `ordinal` is the device's position in the cell's deterministic
/// instantiation order; implementations must be pure functions of
/// `(polarity, ordinal)` so rebuilding a cell yields bit-identical
/// circuits regardless of caller, worker, or cache state.
pub trait CardSource {
    /// The card of the device at `ordinal` with `polarity`.
    fn card(&self, polarity: MosPolarity, ordinal: u64) -> MosModel;
}

/// The nominal source: one fixed card per polarity, every ordinal alike.
#[derive(Debug, Clone, Copy)]
pub struct PolarityCards<'a> {
    /// Card used by every n-channel device.
    pub nmos: &'a MosModel,
    /// Card used by every p-channel device.
    pub pmos: &'a MosModel,
}

impl CardSource for PolarityCards<'_> {
    fn card(&self, polarity: MosPolarity, _ordinal: u64) -> MosModel {
        match polarity {
            MosPolarity::Nmos => self.nmos.clone(),
            MosPolarity::Pmos => self.pmos.clone(),
        }
    }
}

/// A process-variation source: each device's card is the polarity base
/// shifted by the [`VariationModel`] sample at `(seed, ordinal)`.
#[derive(Debug, Clone, Copy)]
pub struct SampledCards<'a> {
    /// Base (nominal or aged) n-channel card.
    pub nmos: &'a MosModel,
    /// Base (nominal or aged) p-channel card.
    pub pmos: &'a MosModel,
    /// The within-die spread to sample from.
    pub variation: &'a VariationModel,
    /// Stream seed; one per (Monte-Carlo sample, cell) in practice.
    pub seed: u64,
}

impl SampledCards<'_> {
    /// The sample applied to the device at `ordinal`. Polarities use
    /// disjoint counter ranges so an nMOS and a pMOS at the same ordinal
    /// never share a draw.
    #[must_use]
    pub fn sample_at(&self, polarity: MosPolarity, ordinal: u64) -> DeviceSample {
        let counter = match polarity {
            MosPolarity::Nmos => ordinal.wrapping_mul(2),
            MosPolarity::Pmos => ordinal.wrapping_mul(2).wrapping_add(1),
        };
        self.variation.sample(self.seed, counter)
    }
}

impl CardSource for SampledCards<'_> {
    fn card(&self, polarity: MosPolarity, ordinal: u64) -> MosModel {
        let base = match polarity {
            MosPolarity::Nmos => self.nmos,
            MosPolarity::Pmos => self.pmos,
        };
        base.sampled(&self.sample_at(polarity, ordinal))
    }
}

/// Adds the device at the circuit's next ordinal with a card drawn from
/// `cards` — the single funnel every topology builder goes through.
fn add_device(
    circuit: &mut Circuit,
    cards: &dyn CardSource,
    polarity: MosPolarity,
    gate: NodeId,
    drain: NodeId,
    source: NodeId,
    w: f64,
) {
    let card = cards.card(polarity, circuit.device_count() as u64);
    debug_assert_eq!(card.polarity, polarity, "card source returned the wrong polarity");
    circuit.add_mos(card, gate, drain, source, w);
}

/// A cell instantiated into a simulatable circuit, with name → node lookup
/// for all pins and internal signals.
#[derive(Debug, Clone)]
pub struct CellInstance {
    /// The transistor-level circuit, ready for [`Circuit::transient`].
    pub circuit: Circuit,
    nodes: BTreeMap<String, NodeId>,
}

impl CellInstance {
    /// The circuit node carrying `signal` (an input pin, output pin or
    /// internal node name).
    #[must_use]
    pub fn node(&self, signal: &str) -> Option<NodeId> {
        self.nodes.get(signal).copied()
    }
}

impl CellDef {
    /// Builds the transistor-level circuit of this cell.
    ///
    /// * `nmos`/`pmos` — transistor models (fresh or [`MosModel::degraded`]).
    /// * `vdd` — supply voltage.
    /// * `stimuli` — waveform per input pin; unspecified pins are tied low.
    /// * `loads` — extra load capacitance per output pin (farad).
    ///
    /// Internal nodes are pre-biased to their logic levels implied by the
    /// stimulus values at the simulation start, so the DC settle phase is
    /// short and robust.
    ///
    /// # Panics
    ///
    /// Panics if a `loads` key names an unknown output pin.
    #[must_use]
    pub fn instantiate(
        &self,
        nmos: &MosModel,
        pmos: &MosModel,
        vdd: f64,
        stimuli: &BTreeMap<String, Waveform>,
        loads: &BTreeMap<String, f64>,
    ) -> CellInstance {
        self.instantiate_with(&PolarityCards { nmos, pmos }, vdd, stimuli, loads)
    }

    /// Builds the transistor-level circuit with per-device cards from
    /// `cards` — the variation-aware generalization of
    /// [`CellDef::instantiate`]. With a [`PolarityCards`] source the two
    /// are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a `loads` key names an unknown output pin.
    #[must_use]
    pub fn instantiate_with(
        &self,
        cards: &dyn CardSource,
        vdd: f64,
        stimuli: &BTreeMap<String, Waveform>,
        loads: &BTreeMap<String, f64>,
    ) -> CellInstance {
        let mut circuit = Circuit::new(vdd);
        let mut nodes: BTreeMap<String, NodeId> = BTreeMap::new();
        let mut logic: BTreeMap<String, bool> = BTreeMap::new();

        // Input pins become stimulus sources; their t→-∞ value seeds the
        // initial logic state.
        for pin in &self.inputs {
            let wave = stimuli.get(pin).cloned().unwrap_or(Waveform::Dc(0.0));
            let initial_high = wave.value(f64::NEG_INFINITY.max(-1.0)) > 0.5 * vdd;
            logic.insert(pin.clone(), initial_high);
            nodes.insert(pin.clone(), circuit.add_source(pin, wave));
        }

        match &self.topology {
            Topology::Stages(stages) => {
                build_stages(self, stages, cards, vdd, &mut circuit, &mut nodes, &mut logic);
            }
            Topology::Flop { strength } => {
                build_flop(*strength, cards, vdd, &mut circuit, &mut nodes, &logic);
            }
        }

        for (pin, cap) in loads {
            let node = nodes
                .get(pin)
                .copied()
                .unwrap_or_else(|| panic!("cell {} has no pin {pin} to load", self.name));
            circuit.add_cap(node, *cap);
        }
        CellInstance { circuit, nodes }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_stages(
    def: &CellDef,
    stages: &[Stage],
    cards: &dyn CardSource,
    vdd: f64,
    circuit: &mut Circuit,
    nodes: &mut BTreeMap<String, NodeId>,
    logic: &mut BTreeMap<String, bool>,
) {
    // Create all stage output nodes first so forward references resolve.
    for stage in stages {
        let id = circuit.add_node(&stage.output, 0.0);
        nodes.insert(stage.output.clone(), id);
    }
    for stage in stages {
        let out = nodes[&stage.output];
        // Nangate-style sizing: nMOS stacks keep unit width, but pMOS
        // series stacks are width-compensated (low hole mobility would make
        // them catastrophically weak otherwise).
        let wn = UNIT_NMOS_WIDTH * stage.strength;
        let pullup = stage.pulldown.dual();
        let wp = UNIT_PMOS_WIDTH * stage.strength * pullup.series_depth() as f64;
        let gnd = circuit.gnd_node();
        let vdd_node = circuit.vdd_node();
        let (n, p) = (MosPolarity::Nmos, MosPolarity::Pmos);
        build_network(circuit, &stage.pulldown, out, gnd, cards, n, wn, nodes, &stage.output, "n");
        build_network(circuit, &pullup, out, vdd_node, cards, p, wp, nodes, &stage.output, "p");
        // Stage logic value = NOT(pull-down conducts) under the initial input state.
        let assign = |s: &str| logic.get(s).copied().unwrap_or(false);
        let value = !stage.pulldown.conducts(&assign);
        logic.insert(stage.output.clone(), value);
        circuit.set_initial_voltage(out, if value { vdd } else { 0.0 });
    }
    let _ = def;
}

/// Recursively instantiates `net` between `top` and `bottom`, creating
/// intermediate chain nodes for series stacks.
#[allow(clippy::too_many_arguments)]
fn build_network(
    circuit: &mut Circuit,
    net: &Network,
    top: NodeId,
    bottom: NodeId,
    cards: &dyn CardSource,
    polarity: MosPolarity,
    width: f64,
    nodes: &BTreeMap<String, NodeId>,
    stage_name: &str,
    side: &str,
) {
    match net {
        Network::Input(signal) => {
            let gate = *nodes
                .get(signal)
                .unwrap_or_else(|| panic!("stage {stage_name}: unknown gate signal {signal}"));
            add_device(circuit, cards, polarity, gate, top, bottom, width);
        }
        Network::Parallel(children) => {
            for child in children {
                build_network(
                    circuit, child, top, bottom, cards, polarity, width, nodes, stage_name, side,
                );
            }
        }
        Network::Series(children) => {
            let mut upper = top;
            for (k, child) in children.iter().enumerate() {
                let lower = if k + 1 == children.len() {
                    bottom
                } else {
                    circuit.add_node(&format!("{stage_name}.{side}{k}"), 0.0)
                };
                build_network(
                    circuit, child, upper, lower, cards, polarity, width, nodes, stage_name, side,
                );
                upper = lower;
            }
        }
    }
}

/// Builds the positive-edge master–slave transmission-gate D flip-flop.
fn build_flop(
    strength: f64,
    cards: &dyn CardSource,
    vdd: f64,
    circuit: &mut Circuit,
    nodes: &mut BTreeMap<String, NodeId>,
    logic: &BTreeMap<String, bool>,
) {
    let d = nodes["D"];
    let ck = nodes["CK"];
    let d0 = logic.get("D").copied().unwrap_or(false);
    let ck0 = logic.get("CK").copied().unwrap_or(false);

    let mut mk = |name: &str, level: bool| {
        let id = circuit.add_node(name, 0.0);
        nodes.insert(name.to_owned(), id);
        (id, level)
    };
    // Clock buffer: cn = !CK, cp = buffered CK.
    let (cn, _) = mk("cn", !ck0);
    let (cp, _) = mk("cp", ck0);
    // Master: m1 follows D while CK is low, held otherwise.
    let (m1, _) = mk("m1", d0);
    let (m2, _) = mk("m2", !d0);
    let (m3, _) = mk("m3", d0);
    // Slave: s1 captures m2 on the rising edge.
    let (s1, _) = mk("s1", !d0);
    let (qn, _) = mk("qn", d0);
    let (fb, _) = mk("fb", !d0);
    let (q, _) = mk("Q", d0);

    let wn = UNIT_NMOS_WIDTH;
    let wp = UNIT_PMOS_WIDTH;
    let weak = 0.6;
    let inv = |circuit: &mut Circuit, input: NodeId, output: NodeId, scale: f64| {
        let gnd = circuit.gnd_node();
        let vdd_node = circuit.vdd_node();
        add_device(circuit, cards, MosPolarity::Nmos, input, output, gnd, wn * scale);
        add_device(circuit, cards, MosPolarity::Pmos, input, output, vdd_node, wp * scale);
    };
    let tg = |circuit: &mut Circuit, from: NodeId, to: NodeId, n_gate: NodeId, p_gate: NodeId| {
        add_device(circuit, cards, MosPolarity::Nmos, n_gate, from, to, wn);
        add_device(circuit, cards, MosPolarity::Pmos, p_gate, from, to, wp);
    };

    inv(circuit, ck, cn, 1.0);
    inv(circuit, cn, cp, 1.0);
    // Master input gate passes while CK = 0.
    tg(circuit, d, m1, cn, cp);
    inv(circuit, m1, m2, 1.0);
    inv(circuit, m2, m3, weak);
    // Master feedback holds while CK = 1.
    tg(circuit, m3, m1, cp, cn);
    // Slave input gate passes while CK = 1.
    tg(circuit, m2, s1, cp, cn);
    inv(circuit, s1, qn, weak);
    inv(circuit, qn, fb, weak);
    // Slave feedback holds while CK = 0.
    tg(circuit, fb, s1, cn, cp);
    // Output driver.
    inv(circuit, s1, q, strength);

    for (name, level) in [
        ("cn", !ck0),
        ("cp", ck0),
        ("m1", d0),
        ("m2", !d0),
        ("m3", d0),
        ("s1", !d0),
        ("qn", d0),
        ("fb", !d0),
        ("Q", d0),
    ] {
        circuit.set_initial_voltage(nodes[name], if level { vdd } else { 0.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellSet;
    use spicesim::TransientConfig;

    fn models() -> (MosModel, MosModel) {
        (MosModel::nmos_45nm(), MosModel::pmos_45nm())
    }

    fn waves(pairs: &[(&str, Waveform)]) -> BTreeMap<String, Waveform> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
    }

    fn load(pin: &str, cap: f64) -> BTreeMap<String, f64> {
        [(pin.to_owned(), cap)].into_iter().collect()
    }

    #[test]
    fn nand2_truth_by_simulation() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let nand = cells.get("NAND2_X1").unwrap();
        let vdd = 1.2;
        for (a, b, expect) in [(false, false, true), (true, false, true), (true, true, false)] {
            let inst = nand.instantiate(
                &n,
                &p,
                vdd,
                &waves(&[
                    ("A", Waveform::Dc(if a { vdd } else { 0.0 })),
                    ("B", Waveform::Dc(if b { vdd } else { 0.0 })),
                ]),
                &load("Y", 1e-15),
            );
            let trace = inst.circuit.transient(&TransientConfig::up_to(0.3e-9)).unwrap();
            let y = trace.final_voltage(inst.node("Y").unwrap());
            if expect {
                assert!(y > 0.95 * vdd, "NAND({a},{b}) = {y}");
            } else {
                assert!(y < 0.05 * vdd, "NAND({a},{b}) = {y}");
            }
        }
    }

    #[test]
    fn xor2_truth_by_simulation() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let xor = cells.get("XOR2_X1").unwrap();
        let vdd = 1.2;
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let inst = xor.instantiate(
                &n,
                &p,
                vdd,
                &waves(&[
                    ("A", Waveform::Dc(if a { vdd } else { 0.0 })),
                    ("B", Waveform::Dc(if b { vdd } else { 0.0 })),
                ]),
                &load("Y", 1e-15),
            );
            let trace = inst.circuit.transient(&TransientConfig::up_to(0.3e-9)).unwrap();
            let y = trace.final_voltage(inst.node("Y").unwrap());
            let expect = a ^ b;
            assert_eq!(y > 0.5 * vdd, expect, "XOR({a},{b}) = {y}");
        }
    }

    #[test]
    fn full_adder_truth_by_simulation() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let fa = cells.get("FA_X1").unwrap();
        let vdd = 1.2;
        for bits in 0..8u32 {
            let (a, b, ci) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let inst = fa.instantiate(
                &n,
                &p,
                vdd,
                &waves(&[
                    ("A", Waveform::Dc(if a { vdd } else { 0.0 })),
                    ("B", Waveform::Dc(if b { vdd } else { 0.0 })),
                    ("CI", Waveform::Dc(if ci { vdd } else { 0.0 })),
                ]),
                &[("S".to_owned(), 1e-15), ("CO".to_owned(), 1e-15)].into_iter().collect(),
            );
            let trace = inst.circuit.transient(&TransientConfig::up_to(0.4e-9)).unwrap();
            let s = trace.final_voltage(inst.node("S").unwrap()) > 0.5 * vdd;
            let co = trace.final_voltage(inst.node("CO").unwrap()) > 0.5 * vdd;
            let sum = u32::from(a) + u32::from(b) + u32::from(ci);
            assert_eq!(s, sum & 1 == 1, "S wrong for {bits:03b}");
            assert_eq!(co, sum >= 2, "CO wrong for {bits:03b}");
        }
    }

    #[test]
    fn dff_captures_on_rising_edge() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let dff = cells.get("DFF_X1").unwrap();
        let vdd = 1.2;
        // D is high well before the clock edge at 1 ns; Q starts low.
        let inst = dff.instantiate(
            &n,
            &p,
            vdd,
            &waves(&[
                ("D", Waveform::Ramp { t_start: 0.2e-9, duration: 30e-12, from: 0.0, to: vdd }),
                ("CK", Waveform::rising_ramp(1.0e-9, 30e-12, vdd)),
            ]),
            &load("Q", 2e-15),
        );
        let trace = inst.circuit.transient(&TransientConfig::up_to(2.0e-9)).unwrap();
        let q = inst.node("Q").unwrap();
        // Before the edge Q holds the old value (low)...
        let idx_before =
            trace.time().iter().position(|&t| t > 0.9e-9).expect("samples before the edge");
        assert!(trace.voltage(q)[idx_before] < 0.3 * vdd, "Q leaked before clock edge");
        // ...and after the edge it carries D = 1.
        assert!(trace.final_voltage(q) > 0.9 * vdd, "Q = {}", trace.final_voltage(q));
        let delay = trace.delay_after(inst.node("CK").unwrap(), true, q, true, 0.9e-9);
        let delay = delay.expect("clk-to-q edge");
        assert!(delay > 0.0 && delay < 300e-12, "clk→Q = {delay}");
    }

    #[test]
    fn polarity_cards_match_the_two_card_path_bit_for_bit() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        for name in ["INV_X1", "NAND2_X1", "AOI21_X1", "DFF_X1"] {
            let def = cells.get(name).unwrap();
            let a = def.instantiate(&n, &p, 1.2, &BTreeMap::new(), &BTreeMap::new());
            let b = def.instantiate_with(
                &PolarityCards { nmos: &n, pmos: &p },
                1.2,
                &BTreeMap::new(),
                &BTreeMap::new(),
            );
            assert_eq!(a.circuit.device_count(), b.circuit.device_count(), "{name}");
            for (k, (ma, mb)) in
                a.circuit.device_models().zip(b.circuit.device_models()).enumerate()
            {
                assert_eq!(ma, mb, "{name}/{k}");
            }
        }
    }

    #[test]
    fn sampled_cards_vary_per_device_and_replay_deterministically() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let nand = cells.get("NAND2_X1").unwrap();
        let variation = ptm::VariationModel::nominal_45nm();
        let cards = SampledCards { nmos: &n, pmos: &p, variation: &variation, seed: 0x5eed };
        let a = nand.instantiate_with(&cards, 1.2, &BTreeMap::new(), &BTreeMap::new());
        let b = nand.instantiate_with(&cards, 1.2, &BTreeMap::new(), &BTreeMap::new());
        // Replays are bit-identical; distinct devices of one polarity differ.
        let mut nmos_vths = Vec::new();
        for (ma, mb) in a.circuit.device_models().zip(b.circuit.device_models()) {
            assert_eq!(ma, mb);
            if ma.polarity == MosPolarity::Nmos {
                nmos_vths.push(ma.vth);
            }
        }
        assert!(nmos_vths.len() >= 2);
        assert!(nmos_vths.windows(2).any(|w| w[0] != w[1]), "all devices drew the same card");
        // A different seed produces a different die.
        let other = SampledCards { seed: 0x5eee, ..cards };
        let c = nand.instantiate_with(&other, 1.2, &BTreeMap::new(), &BTreeMap::new());
        assert_ne!(
            a.circuit.device_models().next().unwrap(),
            c.circuit.device_models().next().unwrap()
        );
    }

    #[test]
    fn zero_variance_sampling_is_the_nominal_circuit() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let inv = cells.get("INV_X1").unwrap();
        let variation = ptm::VariationModel::none();
        let cards = SampledCards { nmos: &n, pmos: &p, variation: &variation, seed: 99 };
        let sampled = inv.instantiate_with(&cards, 1.2, &BTreeMap::new(), &BTreeMap::new());
        let nominal = inv.instantiate(&n, &p, 1.2, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(sampled.circuit.device_count(), nominal.circuit.device_count());
        for (ms, mn) in sampled.circuit.device_models().zip(nominal.circuit.device_models()) {
            assert_eq!(ms, mn);
        }
    }

    #[test]
    fn unknown_load_pin_panics() {
        let (n, p) = models();
        let cells = CellSet::nangate45_like();
        let inv = cells.get("INV_X1").unwrap();
        let result = std::panic::catch_unwind(|| {
            inv.instantiate(&n, &p, 1.2, &BTreeMap::new(), &load("Z", 1e-15))
        });
        assert!(result.is_err());
    }
}
