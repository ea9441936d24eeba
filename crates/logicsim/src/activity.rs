//! Signal-activity statistics and duty-cycle extraction (paper Sec. 4.2).

use liberty::LambdaTag;
use netlist::{InstId, NetId, Netlist};

/// Per-net signal statistics accumulated over a cycle-based simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityStats {
    pub(crate) cycles: usize,
    pub(crate) high_cycles: Vec<usize>,
    pub(crate) toggles: Vec<usize>,
    pub(crate) clock_net: Option<NetId>,
}

impl ActivityStats {
    pub(crate) fn new(n_nets: usize, clock_net: Option<NetId>) -> Self {
        ActivityStats {
            cycles: 0,
            high_cycles: vec![0; n_nets],
            toggles: vec![0; n_nets],
            clock_net,
        }
    }

    pub(crate) fn record(&mut self, values: &[bool], previous: Option<&[bool]>) {
        self.cycles += 1;
        for (k, &v) in values.iter().enumerate() {
            if v {
                self.high_cycles[k] += 1;
            }
            if let Some(prev) = previous {
                if prev[k] != v {
                    self.toggles[k] += 1;
                }
            }
        }
    }

    /// Number of recorded cycles.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Fraction of cycles `net` was high (its signal probability). The
    /// clock net, if one was declared, reports 0.5 regardless of the
    /// cycle-based approximation.
    #[must_use]
    pub fn signal_probability(&self, net: NetId) -> f64 {
        if Some(net) == self.clock_net {
            return 0.5;
        }
        if self.cycles == 0 {
            return 0.0;
        }
        self.high_cycles[net.index()] as f64 / self.cycles as f64
    }

    /// Toggle count of `net` across the run.
    #[must_use]
    pub fn toggle_count(&self, net: NetId) -> usize {
        self.toggles[net.index()]
    }

    /// The average transistor duty cycles of instance `inst` following the
    /// paper's per-gate simplification (footnote 2): an nMOS is stressed
    /// while its gate input is high, a pMOS while it is low, and the
    /// per-gate λ is the average over the input pins. Quantized to `steps`
    /// grid intervals to match the complete degradation-aware library.
    ///
    /// Returns `None` for instances whose cell is unknown or has no inputs.
    #[must_use]
    pub fn lambda_of(
        &self,
        netlist: &Netlist,
        library: &liberty::Library,
        inst: InstId,
        steps: u32,
    ) -> Option<LambdaTag> {
        let instance = netlist.instance(inst);
        let cell = library.cell(&instance.cell)?;
        let mut n_sum = 0.0;
        let mut count = 0usize;
        for (pin, net) in &instance.connections {
            if cell.input_cap(pin).is_some() {
                n_sum += self.signal_probability(*net);
                count += 1;
            }
        }
        if count == 0 {
            return None;
        }
        let lambda_nmos = n_sum / count as f64;
        let lambda_pmos = 1.0 - lambda_nmos;
        let q = |x: f64| (x * f64::from(steps)).round() / f64::from(steps);
        Some(LambdaTag { lambda_pmos: q(lambda_pmos), lambda_nmos: q(lambda_nmos) })
    }
}

impl ActivityStats {
    /// Like [`ActivityStats::lambda_of`] but taking the **worst-stressed
    /// pin** per polarity instead of the per-gate average — a conservative
    /// alternative to the paper's footnote-2 simplification (each device
    /// bounded by the most-stressed device of its polarity).
    #[must_use]
    pub fn lambda_of_worst_pin(
        &self,
        netlist: &Netlist,
        library: &liberty::Library,
        inst: InstId,
        steps: u32,
    ) -> Option<LambdaTag> {
        let instance = netlist.instance(inst);
        let cell = library.cell(&instance.cell)?;
        let mut worst_n: f64 = f64::NEG_INFINITY;
        let mut worst_p: f64 = f64::NEG_INFINITY;
        for (pin, net) in &instance.connections {
            if cell.input_cap(pin).is_some() {
                let p_high = self.signal_probability(*net);
                worst_n = worst_n.max(p_high);
                worst_p = worst_p.max(1.0 - p_high);
            }
        }
        if !worst_n.is_finite() {
            return None;
        }
        let q = |x: f64| (x * f64::from(steps)).round() / f64::from(steps);
        Some(LambdaTag { lambda_pmos: q(worst_p), lambda_nmos: q(worst_n) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_counts() {
        let mut a = ActivityStats::new(2, None);
        a.record(&[true, false], None);
        let prev = [true, false];
        a.record(&[true, true], Some(&prev));
        let n0 = NetId::from_index(0);
        let n1 = NetId::from_index(1);
        assert_eq!(a.cycles(), 2);
        assert!((a.signal_probability(n0) - 1.0).abs() < 1e-12);
        assert!((a.signal_probability(n1) - 0.5).abs() < 1e-12);
        assert_eq!(a.toggle_count(n0), 0);
        assert_eq!(a.toggle_count(n1), 1);
    }

    #[test]
    fn clock_reports_half() {
        let clock = NetId::from_index(0);
        let mut a = ActivityStats::new(1, Some(clock));
        a.record(&[false], None);
        assert_eq!(a.signal_probability(clock), 0.5);
    }

    #[test]
    fn empty_run_zero_probability() {
        let a = ActivityStats::new(1, None);
        assert_eq!(a.signal_probability(NetId::from_index(0)), 0.0);
    }

    #[test]
    fn worst_pin_dominates_average() {
        use liberty::{
            BoolExpr, Cell, CellClass, InputPin, OutputPin, Table2d, TimingArc, TimingSense,
        };
        use netlist::PortDir;
        // A 2-input AND cell so the two pins can carry different stress.
        let t = Table2d::constant(20e-12, 4e-15, 10e-12);
        let arc = |pin: &str| TimingArc {
            related_pin: pin.into(),
            sense: TimingSense::PositiveUnate,
            cell_rise: t.clone(),
            cell_fall: t.clone(),
            rise_transition: t.clone(),
            fall_transition: t.clone(),
        };
        let mut lib = liberty::Library::new("l", 1.2);
        lib.add_cell(Cell {
            name: "AND2_X1".into(),
            area: 1.0,
            class: CellClass::Combinational,
            inputs: vec![
                InputPin { name: "A".into(), capacitance: 1e-15 },
                InputPin { name: "B".into(), capacitance: 1e-15 },
            ],
            outputs: vec![OutputPin {
                name: "Y".into(),
                function: BoolExpr::parse("A & B").unwrap(),
                max_capacitance: 3e-14,
                arcs: vec![arc("A"), arc("B")],
            }],
        });
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let b = nl.add_port("b", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let g = nl.add_instance("g", "AND2_X1", &[("A", a), ("B", b), ("Y", y)]);
        // a always high, b always low: avg λn = 0.5, worst-pin λn = 1.0.
        let vectors = vec![vec![true, false]; 8];
        let run = crate::run_cycles(&nl, &lib, None, &vectors).unwrap();
        let avg = run.activity.lambda_of(&nl, &lib, g, 10).unwrap();
        let worst = run.activity.lambda_of_worst_pin(&nl, &lib, g, 10).unwrap();
        assert!((avg.lambda_nmos - 0.5).abs() < 1e-9);
        assert!((worst.lambda_nmos - 1.0).abs() < 1e-9);
        assert!((worst.lambda_pmos - 1.0).abs() < 1e-9, "worst pMOS from the low pin");
        assert!(worst.lambda_nmos >= avg.lambda_nmos);
        assert!(worst.lambda_pmos >= avg.lambda_pmos);
    }
}
