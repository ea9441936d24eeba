//! Edge sweeps: one circuit simulated under several waveforms of one
//! source, sharing the integration up to where the waveforms part.

use crate::circuit::{Circuit, NodeId, NodeKind};
use crate::engine::{Drive, Plan, State, TransientConfig};
use crate::error::{check_window, SimError};
use crate::measure::{EdgeMeasurement, EdgeProbe};
use crate::Waveform;

/// One variant of a [`Circuit::sweep_edges`] run: a waveform for the swept
/// source and the end of its window.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariant {
    /// The swept source's waveform in this variant.
    pub waveform: Waveform,
    /// End of this variant's simulation window in seconds.
    pub t_stop: f64,
}

/// One variant's outcome in a [`Sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweptEdge {
    /// The probe's measurement; `None` if the edge did not complete before
    /// the variant's `t_stop`.
    pub measurement: Option<EdgeMeasurement>,
    /// Samples this variant integrated after the fork.
    pub steps: usize,
}

/// The result of [`Circuit::sweep_edges`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Samples recorded once for all variants: the initial point and the
    /// shared prefix up to the fork.
    pub shared_steps: usize,
    /// One outcome per variant, in variant order.
    pub edges: Vec<SweptEdge>,
}

impl Sweep {
    /// Every sample the sweep integrated, the shared prefix counted once.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.shared_steps + self.edges.iter().map(|e| e.steps).sum::<usize>()
    }
}

impl Circuit {
    /// Simulates this circuit once per variant, with the waveform of source
    /// `swept` replaced by the variant's, and measures `probe` on each run.
    ///
    /// Each variant's measurement equals, bit for bit,
    /// [`EdgeProbe::measure`] on the [`Circuit::transient`] trace of that
    /// variant with `config.t_stop` replaced by the variant's `t_stop`
    /// (`config.observed` is not used: the runs record the probe's nodes).
    /// Two things make the sweep cheaper than those runs:
    ///
    /// * **A shared prefix.** Every swept waveform is constant up to its
    ///   first event. The integration runs once up to the fork, the last
    ///   step whose window `[t, t + dt_max]` ends before every variant's
    ///   first event and end of activity; up to there nothing the step
    ///   reads depends on the variant. Each variant continues from a copy.
    /// * **Early stops.** A variant stops as soon as its probe measures:
    ///   every crossing the measurement reads is the first one after its
    ///   start time, so the rest of the trace cannot change it.
    ///
    /// # Errors
    ///
    /// [`SimError::NotASource`] if `swept` is not a source of this circuit,
    /// [`SimError::EmptyWindow`] if a variant's `t_stop` is not after
    /// `config.t_start`, [`SimError::VariantsDisagree`] if a variant starts
    /// from a different value than the first, and
    /// [`SimError::StopBeforeFork`] if a variant stops before the fork.
    pub fn sweep_edges(
        &self,
        config: &TransientConfig,
        swept: NodeId,
        variants: &[SweepVariant],
        probe: &EdgeProbe,
    ) -> Result<Sweep, SimError> {
        if !matches!(self.kinds.get(swept.0), Some(NodeKind::Source(_))) {
            let node = self.names.get(swept.0).cloned().unwrap_or_else(|| format!("#{}", swept.0));
            return Err(SimError::NotASource { node });
        }
        for variant in variants {
            check_window(config.t_start, variant.t_stop)?;
        }
        let Some(first) = variants.first() else {
            return Ok(Sweep { shared_steps: 0, edges: Vec::new() });
        };
        let start = first.waveform.value(config.t_start).to_bits();
        if let Some(variant) =
            variants.iter().position(|v| v.waveform.value(config.t_start).to_bits() != start)
        {
            return Err(SimError::VariantsDisagree { variant });
        }
        let drives: Vec<Drive> = variants
            .iter()
            .map(|v| Drive::new(self, Some((swept, &v.waveform)), config.t_start, v.t_stop))
            .collect();
        let t_fork = variants
            .iter()
            .zip(&drives)
            .map(|(v, d)| v.waveform.first_event().unwrap_or(config.t_start).min(d.activity_end))
            .fold(f64::INFINITY, f64::min);
        if let Some((variant, v)) = variants.iter().enumerate().find(|(_, v)| v.t_stop < t_fork) {
            return Err(SimError::StopBeforeFork { variant, t_stop: v.t_stop, t_fork });
        }

        let plan = Plan::new(self);
        let observed = [probe.input, probe.output];
        let mut shared = State::start(self, &drives[0], config.t_start, Some(&observed));
        plan.integrate(&drives[0], config, &mut shared, t_fork, |_| false);
        let shared_steps = shared.trace.step_count();
        let at_fork = probe.measure(&shared.trace);
        let edges = drives
            .iter()
            .map(|drive| {
                let mut measurement = at_fork;
                let mut state = shared.clone();
                if measurement.is_none() {
                    plan.integrate(drive, config, &mut state, f64::INFINITY, |trace| {
                        if probe.newest_sample_crosses(trace) {
                            measurement = probe.measure(trace);
                        }
                        measurement.is_some()
                    });
                }
                SweptEdge { measurement, steps: state.trace.step_count() - shared_steps }
            })
            .collect();
        Ok(Sweep { shared_steps, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm::MosModel;

    const VDD: f64 = 1.2;
    const T_EDGE: f64 = 0.3e-9;

    fn inverter(load: f64, drive: Waveform) -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new(VDD);
        let a = c.add_source("a", drive);
        let y = c.add_node("y", load);
        c.add_pmos(MosModel::pmos_45nm(), a, y, c.vdd_node(), 630e-9);
        c.add_nmos(MosModel::nmos_45nm(), a, y, c.gnd_node(), 415e-9);
        (c, a, y)
    }

    fn variants(slews: &[f64], rising: bool) -> Vec<SweepVariant> {
        slews
            .iter()
            .map(|&slew| SweepVariant {
                waveform: Waveform::from_slew(T_EDGE, slew, VDD, rising),
                t_stop: T_EDGE + 4.0 * slew + 3.0e-9,
            })
            .collect()
    }

    fn probe(a: NodeId, y: NodeId, input_rising: bool, output_rising: bool) -> EdgeProbe {
        EdgeProbe { input: a, input_rising, output: y, output_rising, t_after: 0.1e-9 }
    }

    /// The standalone reference: a full `transient` of a circuit built with
    /// the variant's waveform, then `measure_edge`.
    fn separate(
        load: f64,
        variant: &SweepVariant,
        p: EdgeProbe,
    ) -> (Option<EdgeMeasurement>, usize) {
        let (c, a, y) = inverter(load, variant.waveform.clone());
        let config = TransientConfig::up_to(variant.t_stop).observing(&[a, y]);
        let trace = c.transient(&config).unwrap();
        (p.measure(&trace), trace.step_count())
    }

    fn bits(m: Option<EdgeMeasurement>) -> Option<(u64, u64)> {
        m.map(|m| (m.delay.to_bits(), m.output_slew.to_bits()))
    }

    #[test]
    fn forks_measure_what_separate_transients_measure_bit_for_bit() {
        let slews = [5e-12, 150e-12, 947e-12];
        for load in [0.5e-15, 20e-15] {
            for rising in [true, false] {
                let vs = variants(&slews, rising);
                let (c, a, y) = inverter(load, vs[0].waveform.clone());
                let p = probe(a, y, rising, !rising);
                let sweep = c.sweep_edges(&TransientConfig::up_to(T_EDGE), a, &vs, &p).unwrap();
                assert!(sweep.shared_steps > 100, "the settle phase is shared");
                for (k, (edge, variant)) in sweep.edges.iter().zip(&vs).enumerate() {
                    let (want, full_steps) = separate(load, variant, p);
                    assert!(want.is_some(), "the inverter edge propagates");
                    assert_eq!(
                        bits(edge.measurement),
                        bits(want),
                        "load {load} rising {rising} #{k}"
                    );
                    assert!(
                        sweep.shared_steps + edge.steps < full_steps,
                        "the fork stops at its measured edge"
                    );
                }
            }
        }
    }

    #[test]
    fn an_edge_that_never_happens_is_none_like_on_the_full_trace() {
        let vs = variants(&[25e-12, 300e-12], true);
        let (c, a, y) = inverter(2e-15, vs[0].waveform.clone());
        // A rising input makes the output fall; probe for a rising output.
        let p = probe(a, y, true, true);
        let sweep = c.sweep_edges(&TransientConfig::up_to(T_EDGE), a, &vs, &p).unwrap();
        for (edge, variant) in sweep.edges.iter().zip(&vs) {
            let (want, full_steps) = separate(2e-15, variant, p);
            assert_eq!(want, None);
            assert_eq!(edge.measurement, None);
            assert_eq!(sweep.shared_steps + edge.steps, full_steps, "an unmeasured fork runs out");
        }
        assert_eq!(
            sweep.step_count(),
            sweep.shared_steps + sweep.edges.iter().map(|e| e.steps).sum::<usize>()
        );
    }

    #[test]
    fn invalid_sweeps_are_typed_errors() {
        let vs = variants(&[25e-12, 300e-12], true);
        let (c, a, y) = inverter(2e-15, vs[0].waveform.clone());
        let p = probe(a, y, true, false);
        let config = TransientConfig::up_to(T_EDGE);
        let sweep = |swept: NodeId, vs: &[SweepVariant]| c.sweep_edges(&config, swept, vs, &p);

        assert_eq!(sweep(y, &vs), Err(SimError::NotASource { node: "y".into() }));
        assert_eq!(sweep(c.vdd_node(), &vs), Err(SimError::NotASource { node: "vdd!".into() }));

        let mut empty = vs.clone();
        empty[1].t_stop = -1.0;
        assert_eq!(sweep(a, &empty), Err(SimError::EmptyWindow { t_start: -0.5e-9, t_stop: -1.0 }));

        let mut mixed = vs.clone();
        mixed.push(variants(&[25e-12], false).remove(0));
        assert_eq!(sweep(a, &mixed), Err(SimError::VariantsDisagree { variant: 2 }));

        let mut early = vs.clone();
        early[0].t_stop = 0.2e-9;
        assert_eq!(
            sweep(a, &early),
            Err(SimError::StopBeforeFork { variant: 0, t_stop: 0.2e-9, t_fork: T_EDGE })
        );

        assert_eq!(sweep(a, &[]), Ok(Sweep { shared_steps: 0, edges: Vec::new() }));
    }
}
