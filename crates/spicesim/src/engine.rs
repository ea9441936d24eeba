use crate::circuit::{Circuit, NodeId, NodeKind};
use crate::error::{check_window, SimError};
use crate::Waveform;
use ptm::{MosModel, Overdrive};

/// Configuration of a transient analysis.
///
/// The engine starts at [`t_start`](Self::t_start) (typically negative, so
/// the circuit settles to its DC operating point before the stimulus fires)
/// and integrates until [`t_stop`](Self::t_stop). Step size adapts so no
/// node moves more than [`max_dv`](Self::max_dv) volts per step.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    /// Simulation start time in seconds (settle phase before stimuli).
    pub t_start: f64,
    /// Simulation end time in seconds.
    pub t_stop: f64,
    /// Accuracy knob: maximum voltage change per node per step, in volts.
    pub max_dv: f64,
    /// Smallest allowed time step in seconds.
    pub dt_min: f64,
    /// Largest allowed time step in seconds.
    pub dt_max: f64,
    /// Nodes whose waveforms the [`Trace`] records. `None` records every
    /// node; characterization passes just the measured input/output pins,
    /// which cuts per-step allocation and cache traffic on large cells.
    /// Integration accuracy is unaffected — every node is still solved.
    pub observed: Option<Vec<NodeId>>,
}

impl TransientConfig {
    /// Default-accuracy run from −0.5 ns (DC settle) to `t_stop`.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not positive and finite.
    #[must_use]
    pub fn up_to(t_stop: f64) -> Self {
        assert!(t_stop.is_finite() && t_stop > 0.0, "t_stop must be positive");
        TransientConfig {
            t_start: -0.5e-9,
            t_stop,
            max_dv: 2.0e-3,
            dt_min: 1.0e-16,
            dt_max: 5.0e-12,
            observed: None,
        }
    }

    /// Returns a copy with a different accuracy knob (`max_dv`, volts).
    ///
    /// # Panics
    ///
    /// Panics if `max_dv` is not positive and finite.
    #[must_use]
    pub fn with_max_dv(mut self, max_dv: f64) -> Self {
        assert!(max_dv.is_finite() && max_dv > 0.0, "max_dv must be positive");
        self.max_dv = max_dv;
        self
    }

    /// Returns a copy recording only `nodes` in the resulting [`Trace`]
    /// (lean traces); measuring an unobserved node panics. Duplicates are
    /// recorded once.
    #[must_use]
    pub fn observing(mut self, nodes: &[NodeId]) -> Self {
        self.observed = Some(nodes.to_vec());
        self
    }
}

/// The recorded result of a transient analysis: time points and the voltage
/// of every *observed* node at each point.
///
/// By default every node is observed; a [`TransientConfig::observing`]
/// restriction stores only the named nodes (the characterization hot path
/// records just the measured input/output pins).
#[derive(Debug, Clone)]
pub struct Trace {
    pub(crate) time: Vec<f64>,
    /// `voltages[slot][sample]`, one slot per observed node.
    pub(crate) voltages: Vec<Vec<f64>>,
    /// Node index → slot in [`Self::voltages`]; `None` if unobserved.
    pub(crate) slots: Vec<Option<usize>>,
    /// Node indices backing each slot, in slot order.
    pub(crate) observed: Vec<usize>,
    pub(crate) vdd: f64,
}

impl Trace {
    /// The recorded time points in seconds, ascending.
    #[must_use]
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// The recorded voltage series of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was excluded by [`TransientConfig::observing`].
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> &[f64] {
        let slot = self.slots[node.0].unwrap_or_else(|| {
            panic!(
                "node {} was not observed in this trace; add it to TransientConfig::observing",
                node.0
            )
        });
        &self.voltages[slot]
    }

    /// True if `node`'s waveform was recorded.
    #[must_use]
    pub fn is_observed(&self, node: NodeId) -> bool {
        self.slots.get(node.0).is_some_and(Option::is_some)
    }

    /// The number of recorded integration points — a simulator-cost proxy
    /// callers can attribute to their instrumentation (the characterizer
    /// books [`crate::Sweep::step_count`], the same count over a sweep,
    /// against its `transient` stage, which is what the tier-0 surrogate
    /// amortizes away).
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.time.len()
    }

    /// The supply voltage of the simulated circuit.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The last recorded voltage of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not observed.
    #[must_use]
    #[allow(clippy::expect_used)] // every trace records its initial point when it is made
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        *self.voltage(node).last().expect("trace has at least one sample")
    }
}

/// Conductances below this (siemens) fall back to a plain Euler step.
const G_FLOOR: f64 = 1.0e-12;

/// The step invariants of one circuit, built once per analysis.
pub(crate) struct Plan<'c> {
    vdd: f64,
    /// Floating nodes with their total capacitance, in node order.
    floating: Vec<(usize, f64)>,
    /// The floating nodes that bound the step size, with their capacitance:
    /// those whose voltage influences others (device gates) or is measured
    /// (explicitly loaded). Pure internal stack nodes are quasi-static
    /// slaves of the exponential update and must not collapse the global
    /// step size.
    watched: Vec<(usize, f64)>,
    devices: Vec<DevicePlan<'c>>,
}

struct DevicePlan<'c> {
    model: &'c MosModel,
    gate: usize,
    drain: usize,
    source: usize,
    /// `kp · W/L`, the first product of the saturation current.
    kp_w_over_l: f64,
}

/// The stimulus side of one run: the pinned sources and when the run ends.
pub(crate) struct Drive<'w> {
    /// Source nodes with their waveforms, in node order.
    sources: Vec<(usize, &'w Waveform)>,
    /// Every source's first event, ascending: the integrator must not step
    /// across one.
    events: Vec<f64>,
    /// The time after which no source moves again (for early termination).
    pub(crate) activity_end: f64,
    t_stop: f64,
}

/// The integrator's state: where a run stands and what it has recorded.
/// Cloning it forks the run.
#[derive(Clone)]
pub(crate) struct State {
    t: f64,
    v: Vec<f64>,
    pub(crate) trace: Trace,
}

impl<'c> Plan<'c> {
    pub(crate) fn new(circuit: &'c Circuit) -> Self {
        let n = circuit.node_count();
        let mut observable = vec![false; n];
        for d in &circuit.devices {
            observable[d.gate.0] = true;
        }
        for (k, kind) in circuit.kinds.iter().enumerate() {
            if let NodeKind::Floating { cap } = kind {
                if *cap > 0.0 {
                    observable[k] = true;
                }
            }
        }
        let floating: Vec<(usize, f64)> =
            (0..n).filter_map(|i| circuit.total_cap(NodeId(i)).map(|c| (i, c))).collect();
        let watched = floating.iter().copied().filter(|&(i, _)| observable[i]).collect();
        let devices = circuit
            .devices
            .iter()
            .map(|d| DevicePlan {
                model: &d.model,
                gate: d.gate.0,
                drain: d.drain.0,
                source: d.source.0,
                kp_w_over_l: d.model.kp * d.w_over_l,
            })
            .collect();
        Plan { vdd: circuit.vdd, floating, watched, devices }
    }

    /// Integrates `state` forward under `drive`. The run returns at
    /// `t_stop`, at the settle exit, before a step whose window
    /// `[t, t + dt_max]` reaches `horizon`, or after a step following which
    /// `halt` (called on every new sample) returns true.
    pub(crate) fn integrate(
        &self,
        drive: &Drive,
        config: &TransientConfig,
        state: &mut State,
        horizon: f64,
        mut halt: impl FnMut(&Trace) -> bool,
    ) {
        let State { t, v, trace } = state;
        let n = v.len();
        let mut currents = vec![0.0; n];
        let mut conductance = vec![0.0; n];
        // One-entry overdrive memo per device, keyed on the bits of
        // `x = Vgs_eff − Vth`. The overdrive is a pure function of `x`, so a
        // hit returns exactly what a fresh evaluation would.
        let mut memo: Vec<(u64, Overdrive)> = self
            .devices
            .iter()
            .map(|d| {
                let x = d.model.bias(v[d.gate], v[d.drain], v[d.source]).x;
                (x.to_bits(), d.model.overdrive(x))
            })
            .collect();
        let mut next_event = 0;
        while *t < drive.t_stop {
            if *t + config.dt_max >= horizon {
                return;
            }
            // Node currents and channel conductances from all devices.
            currents.fill(0.0);
            conductance.fill(0.0);
            for (d, entry) in self.devices.iter().zip(&mut memo) {
                let bias = d.model.bias(v[d.gate], v[d.drain], v[d.source]);
                let key = bias.x.to_bits();
                if entry.0 != key {
                    *entry = (key, d.model.overdrive(bias.x));
                }
                let (id, g) = d.model.channel_current(bias, entry.1, d.kp_w_over_l);
                currents[d.drain] -= id;
                currents[d.source] += id;
                conductance[d.drain] += g;
                conductance[d.source] += g;
            }

            // Accuracy-driven step size, from watched nodes only.
            let mut max_rate: f64 = 0.0;
            for &(i, cap) in &self.watched {
                max_rate = max_rate.max((currents[i] / cap).abs());
            }
            for &(_, w) in &drive.sources {
                // Only throttle while the source is actually ramping.
                max_rate = max_rate.max(w.max_slope_in(*t, *t + config.dt_max));
            }
            // Early termination: every source is done moving and every
            // observable node drifts slower than 0.1 mV/ns — the circuit
            // has settled and nothing further can change.
            if *t > drive.activity_end + 10.0 * config.dt_max && max_rate < 1.0e5 {
                record(trace, drive.t_stop, v);
                halt(trace);
                return;
            }
            let mut dt = if max_rate > 0.0 {
                (config.max_dv / max_rate).clamp(config.dt_min, config.dt_max)
            } else {
                config.dt_max
            };
            // Do not step across a stimulus event: the first event after
            // `t` is the only one that can fall inside the step.
            while drive.events.get(next_event).is_some_and(|&ev| ev <= *t) {
                next_event += 1;
            }
            if let Some(&ev) = drive.events.get(next_event) {
                if ev < *t + dt {
                    dt = (ev - *t).max(config.dt_min);
                }
            }
            if *t + dt > drive.t_stop {
                dt = drive.t_stop - *t;
            }

            // Exponential-Euler update per floating node.
            for &(i, cap) in &self.floating {
                let g = conductance[i];
                let vi = v[i];
                let next = if g > G_FLOOR {
                    let target = vi + currents[i] / g;
                    target + (vi - target) * (-g * dt / cap).exp()
                } else {
                    vi + currents[i] * dt / cap
                };
                v[i] = next.clamp(-0.3, self.vdd + 0.3);
            }

            *t += dt;
            // Pin sources to their waveform at the new time.
            for &(i, w) in &drive.sources {
                v[i] = w.value(*t);
            }
            record(trace, *t, v);
            if halt(trace) {
                return;
            }
        }
    }
}

impl<'w> Drive<'w> {
    /// The sources of `circuit`, with the waveform of node `swap.0` (if
    /// given) replaced by `swap.1`, for a run over `[t_start, t_stop]`.
    pub(crate) fn new(
        circuit: &'w Circuit,
        swap: Option<(NodeId, &'w Waveform)>,
        t_start: f64,
        t_stop: f64,
    ) -> Self {
        let sources: Vec<(usize, &Waveform)> = circuit
            .kinds
            .iter()
            .enumerate()
            .filter_map(|(i, kind)| match (kind, swap) {
                (NodeKind::Source(_), Some((node, w))) if node.0 == i => Some((i, w)),
                (NodeKind::Source(w), _) => Some((i, w)),
                _ => None,
            })
            .collect();
        // A NaN event never lies inside a step; dropping it keeps the
        // sorted cursor scan exact.
        let mut events: Vec<f64> =
            sources.iter().filter_map(|(_, w)| w.first_event()).filter(|ev| !ev.is_nan()).collect();
        events.sort_by(f64::total_cmp);
        let activity_end =
            sources.iter().filter_map(|(_, w)| w.end_of_activity()).fold(t_start, f64::max);
        Drive { sources, events, activity_end, t_stop }
    }
}

impl State {
    /// The state at `t_start`: rails at their voltage, sources at their
    /// waveform value, floating nodes at their initial voltage (default
    /// 0 V). The trace records `observed` (every node if `None`).
    pub(crate) fn start(
        circuit: &Circuit,
        drive: &Drive,
        t_start: f64,
        observed: Option<&[NodeId]>,
    ) -> Self {
        let n = circuit.node_count();
        let mut v: Vec<f64> = circuit
            .kinds
            .iter()
            .zip(&circuit.initial)
            .map(|(kind, initial)| match kind {
                NodeKind::Rail(volts) => *volts,
                NodeKind::Source(_) => 0.0,
                NodeKind::Floating { .. } => initial.unwrap_or(0.0),
            })
            .collect();
        for &(i, w) in &drive.sources {
            v[i] = w.value(t_start);
        }
        let (slots, observed) = match observed {
            None => ((0..n).map(Some).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>()),
            Some(nodes) => {
                let mut slots: Vec<Option<usize>> = vec![None; n];
                let mut observed = Vec::with_capacity(nodes.len());
                for id in nodes {
                    if slots[id.0].is_none() {
                        slots[id.0] = Some(observed.len());
                        observed.push(id.0);
                    }
                }
                (slots, observed)
            }
        };
        let mut trace = Trace {
            time: Vec::with_capacity(4096),
            voltages: vec![Vec::with_capacity(4096); observed.len()],
            slots,
            observed,
            vdd: circuit.vdd,
        };
        record(&mut trace, t_start, &v);
        State { t: t_start, v, trace }
    }
}

impl Circuit {
    /// Runs a transient analysis and returns the recorded [`Trace`].
    ///
    /// Floating nodes start from their configured initial voltage (default
    /// 0 V) and the settle phase between `config.t_start` and the first
    /// stimulus event lets the circuit find its DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyWindow`] unless `config.t_stop >
    /// config.t_start`.
    pub fn transient(&self, config: &TransientConfig) -> Result<Trace, SimError> {
        check_window(config.t_start, config.t_stop)?;
        let plan = Plan::new(self);
        let drive = Drive::new(self, None, config.t_start, config.t_stop);
        let mut state = State::start(self, &drive, config.t_start, config.observed.as_deref());
        plan.integrate(&drive, config, &mut state, f64::INFINITY, |_| false);
        Ok(state.trace)
    }
}

fn record(trace: &mut Trace, t: f64, v: &[f64]) {
    trace.time.push(t);
    for (series, &node) in trace.voltages.iter_mut().zip(&trace.observed) {
        series.push(v[node]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;
    use ptm::MosModel;

    fn inverter(load_f: f64, in_wave: Waveform) -> (Circuit, NodeId, NodeId) {
        let vdd = 1.2;
        let mut c = Circuit::new(vdd);
        let a = c.add_source("a", in_wave);
        let y = c.add_node("y", load_f);
        c.add_pmos(MosModel::pmos_45nm(), a, y, c.vdd_node(), 630e-9);
        c.add_nmos(MosModel::nmos_45nm(), a, y, c.gnd_node(), 415e-9);
        (c, a, y)
    }

    #[test]
    fn dc_settle_reaches_logic_level() {
        // Input low → output settles to Vdd even from a 0 V initial guess.
        let (c, _a, y) = inverter(2.0e-15, Waveform::Dc(0.0));
        let trace = c.transient(&TransientConfig::up_to(1.0e-9)).unwrap();
        assert!((trace.final_voltage(y) - 1.2).abs() < 0.01, "Vout = {}", trace.final_voltage(y));
    }

    #[test]
    fn inverter_switches() {
        let (c, _a, y) = inverter(2.0e-15, Waveform::rising_ramp(0.5e-9, 50.0e-12, 1.2));
        let trace = c.transient(&TransientConfig::up_to(2.0e-9)).unwrap();
        // Starts high (input low), ends low.
        let first = trace.voltage(y)[0];
        let last = trace.final_voltage(y);
        assert!(last < 0.05, "output must fall, got {last}");
        // After settle it must have been high; scan max.
        let peak = trace.voltage(y).iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 1.1, "output was high before the edge (peak {peak}), started at {first}");
    }

    #[test]
    fn heavier_load_switches_slower() {
        let t_half = |load: f64| {
            let (c, _a, y) = inverter(load, Waveform::rising_ramp(0.5e-9, 20.0e-12, 1.2));
            let trace = c.transient(&TransientConfig::up_to(3.0e-9)).unwrap();
            trace
                .time
                .iter()
                .zip(trace.voltage(y))
                .find(|&(&t, &v)| t > 0.5e-9 && v < 0.6)
                .map(|(&t, _)| t)
                .expect("output crosses half rail")
        };
        let fast = t_half(1.0e-15);
        let slow = t_half(10.0e-15);
        assert!(slow > fast, "10 fF load must switch later than 1 fF");
    }

    #[test]
    fn monotone_time_axis() {
        let (c, _a, y) = inverter(1.0e-15, Waveform::rising_ramp(0.5e-9, 100e-12, 1.2));
        let trace = c.transient(&TransientConfig::up_to(1.5e-9)).unwrap();
        assert!(trace.time.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(trace.time.len(), trace.voltage(y).len());
    }

    #[test]
    fn voltages_stay_bounded() {
        let (c, _a, y) = inverter(0.5e-15, Waveform::rising_ramp(0.5e-9, 5e-12, 1.2));
        let trace = c.transient(&TransientConfig::up_to(1.5e-9)).unwrap();
        for &v in trace.voltage(y) {
            assert!((-0.3..=1.5).contains(&v), "node voltage {v} escaped bounds");
        }
    }

    #[test]
    fn accuracy_knob_changes_step_count() {
        let (c, _a, _y) = inverter(2.0e-15, Waveform::rising_ramp(0.5e-9, 50e-12, 1.2));
        let fine = c.transient(&TransientConfig::up_to(1.0e-9).with_max_dv(1.0e-3)).unwrap();
        let coarse = c.transient(&TransientConfig::up_to(1.0e-9).with_max_dv(10.0e-3)).unwrap();
        assert!(fine.time.len() > coarse.time.len());
    }

    #[test]
    fn observed_subset_matches_full_trace() {
        let (c, a, y) = inverter(2.0e-15, Waveform::rising_ramp(0.5e-9, 50.0e-12, 1.2));
        let full = c.transient(&TransientConfig::up_to(2.0e-9)).unwrap();
        let lean = c.transient(&TransientConfig::up_to(2.0e-9).observing(&[a, y])).unwrap();
        // Identical integration: same time axis, bit-identical waveforms on
        // the observed nodes.
        assert_eq!(full.time(), lean.time());
        assert_eq!(full.voltage(a), lean.voltage(a));
        assert_eq!(full.voltage(y), lean.voltage(y));
        assert!(lean.is_observed(y) && !lean.is_observed(c.vdd_node()));
        assert!(full.is_observed(c.vdd_node()));
    }

    #[test]
    fn duplicate_observed_nodes_record_once() {
        let (c, _a, y) = inverter(2.0e-15, Waveform::Dc(0.0));
        let trace = c.transient(&TransientConfig::up_to(0.5e-9).observing(&[y, y])).unwrap();
        assert_eq!(trace.voltages.len(), 1);
        assert!((trace.final_voltage(y) - 1.2).abs() < 0.01);
    }

    /// The integrator as it was before its step invariants were hoisted:
    /// node kinds and events rescanned every step, every device evaluated
    /// through `drain_current_and_conductance`, no overdrive memo. Kept as
    /// the reference the planned loop must match bit for bit. Returns the
    /// time axis and every node's series.
    fn reference_transient(c: &Circuit, config: &TransientConfig) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = c.node_count();
        let mut floating = Vec::new();
        let mut cap = vec![0.0; n];
        for (i, slot) in cap.iter_mut().enumerate() {
            if let Some(total) = c.total_cap(NodeId(i)) {
                floating.push(i);
                *slot = total;
            }
        }
        let mut observable = vec![false; n];
        for d in &c.devices {
            observable[d.gate.0] = true;
        }
        for (k, kind) in c.kinds.iter().enumerate() {
            if matches!(kind, NodeKind::Floating { cap } if *cap > 0.0) {
                observable[k] = true;
            }
        }
        let mut events = Vec::new();
        let mut activity_end = config.t_start;
        for k in &c.kinds {
            if let NodeKind::Source(w) = k {
                events.extend(w.first_event());
                if let Some(t) = w.end_of_activity() {
                    activity_end = activity_end.max(t);
                }
            }
        }
        events.sort_by(f64::total_cmp);
        let mut t = config.t_start;
        let mut v: Vec<f64> = c
            .kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| match kind {
                NodeKind::Rail(volts) => *volts,
                NodeKind::Source(w) => w.value(t),
                NodeKind::Floating { .. } => c.initial[i].unwrap_or(0.0),
            })
            .collect();
        let mut time = vec![t];
        let mut series: Vec<Vec<f64>> = v.iter().map(|&x| vec![x]).collect();
        let mut record = |t: f64, v: &[f64]| {
            time.push(t);
            series.iter_mut().zip(v).for_each(|(s, &x)| s.push(x));
        };
        let (mut currents, mut conductance) = (vec![0.0; n], vec![0.0; n]);
        while t < config.t_stop {
            currents.iter_mut().for_each(|c| *c = 0.0);
            conductance.iter_mut().for_each(|g| *g = 0.0);
            for d in &c.devices {
                let (id, g) = d.model.drain_current_and_conductance(
                    v[d.gate.0],
                    v[d.drain.0],
                    v[d.source.0],
                    d.w_over_l,
                );
                currents[d.drain.0] -= id;
                currents[d.source.0] += id;
                conductance[d.drain.0] += g;
                conductance[d.source.0] += g;
            }
            let mut max_rate: f64 = 0.0;
            for &i in &floating {
                if observable[i] {
                    max_rate = max_rate.max((currents[i] / cap[i]).abs());
                }
            }
            for k in &c.kinds {
                if let NodeKind::Source(w) = k {
                    max_rate = max_rate.max(w.max_slope_in(t, t + config.dt_max));
                }
            }
            if t > activity_end + 10.0 * config.dt_max && max_rate < 1.0e5 {
                record(config.t_stop, &v);
                break;
            }
            let mut dt = if max_rate > 0.0 {
                (config.max_dv / max_rate).clamp(config.dt_min, config.dt_max)
            } else {
                config.dt_max
            };
            for &ev in &events {
                if ev > t && ev < t + dt {
                    dt = (ev - t).max(config.dt_min);
                    break;
                }
            }
            if t + dt > config.t_stop {
                dt = config.t_stop - t;
            }
            for &i in &floating {
                let g = conductance[i];
                let vi = v[i];
                let next = if g > G_FLOOR {
                    let target = vi + currents[i] / g;
                    target + (vi - target) * (-g * dt / cap[i]).exp()
                } else {
                    vi + currents[i] * dt / cap[i]
                };
                v[i] = next.clamp(-0.3, c.vdd + 0.3);
            }
            t += dt;
            for (i, k) in c.kinds.iter().enumerate() {
                if let NodeKind::Source(w) = k {
                    v[i] = w.value(t);
                }
            }
            record(t, &v);
        }
        (time, series)
    }

    /// A NAND2 with an internal stack node, driven by a ramp and a
    /// piecewise-linear input: two sources with events for the cursor.
    fn nand2(load: f64, a: Waveform, b: Waveform) -> Circuit {
        let mut c = Circuit::new(1.2);
        let a = c.add_source("a", a);
        let b = c.add_source("b", b);
        let y = c.add_node("y", load);
        let mid = c.add_node("mid", 0.0);
        c.set_initial_voltage(y, 1.2);
        for gate in [a, b] {
            c.add_pmos(MosModel::pmos_45nm(), gate, y, c.vdd_node(), 630e-9);
        }
        c.add_nmos(MosModel::nmos_45nm(), a, y, mid, 415e-9);
        c.add_nmos(MosModel::nmos_45nm(), b, mid, c.gnd_node(), 415e-9);
        c
    }

    #[test]
    fn planned_loop_matches_the_rescanning_reference_bit_for_bit() {
        let pwl = Waveform::Pwl(vec![(0.0, 0.0), (0.2e-9, 0.0), (0.25e-9, 1.2), (1.5e-9, 1.2)]);
        let circuits = [
            inverter(2e-15, Waveform::rising_ramp(0.5e-9, 40e-12, 1.2)).0,
            inverter(20e-15, Waveform::from_slew(0.3e-9, 947e-12, 1.2, false)).0,
            nand2(5e-15, Waveform::rising_ramp(0.6e-9, 150e-12, 1.2), pwl),
            nand2(1e-15, Waveform::Dc(1.2), Waveform::falling_ramp(0.4e-9, 5e-12, 1.2)),
        ];
        for (k, c) in circuits.iter().enumerate() {
            for config in
                [TransientConfig::up_to(3e-9), TransientConfig::up_to(3e-9).with_max_dv(6e-3)]
            {
                let (time, series) = reference_transient(c, &config);
                let trace = c.transient(&config).unwrap();
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(trace.time()), bits(&time), "circuit {k}: time axis");
                for (node, want) in series.iter().enumerate() {
                    assert_eq!(
                        bits(trace.voltage(NodeId(node))),
                        bits(want),
                        "circuit {k} node {node}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not observed")]
    fn unobserved_node_panics() {
        let (c, a, y) = inverter(2.0e-15, Waveform::Dc(0.0));
        let trace = c.transient(&TransientConfig::up_to(0.5e-9).observing(&[a])).unwrap();
        let _ = trace.voltage(y);
    }

    #[test]
    fn bad_window_is_a_typed_error() {
        let (c, _a, _y) = inverter(1e-15, Waveform::Dc(0.0));
        for t_stop in [-1.0, -0.5e-9, f64::NAN] {
            let cfg = TransientConfig { t_stop, ..TransientConfig::up_to(1.0) };
            match c.transient(&cfg) {
                Err(SimError::EmptyWindow { t_start, .. }) => assert_eq!(t_start, -0.5e-9),
                other => panic!("expected EmptyWindow for t_stop {t_stop}, got {other:?}"),
            }
        }
    }
}
