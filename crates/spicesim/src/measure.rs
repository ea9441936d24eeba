//! Waveform measurements on a recorded [`Trace`]: threshold crossings,
//! propagation delay and output slew — the `.measure` role of HSPICE decks.

use crate::circuit::NodeId;
use crate::engine::Trace;

/// Fractions of the supply at which delays (`MID`) and 10–90 % slews
/// (`LOW`, `HIGH`) are measured.
const MID: f64 = 0.5;
const LOW: f64 = 0.1;
const HIGH: f64 = 0.9;

/// A measured output edge: 50 %-to-50 % propagation delay and 10–90 % output
/// slew, both in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMeasurement {
    /// Input-50 % to output-50 % propagation delay in seconds. Negative
    /// values are possible for very slow inputs driving fast gates.
    pub delay: f64,
    /// 10 %–90 % output transition time in seconds.
    pub output_slew: f64,
}

impl Trace {
    /// First time after `t_after` at which `node` crosses `level` in the
    /// given direction (`rising` = low→high), linearly interpolated.
    /// Returns `None` if the crossing never happens.
    #[must_use]
    pub fn crossing(&self, node: NodeId, level: f64, rising: bool, t_after: f64) -> Option<f64> {
        let v = self.voltage(node);
        let t = self.time();
        for i in 1..t.len() {
            if t[i] < t_after {
                continue;
            }
            let (v0, v1) = (v[i - 1], v[i]);
            if crosses(v0, v1, level, rising) {
                let frac = if (v1 - v0).abs() > 0.0 { (level - v0) / (v1 - v0) } else { 1.0 };
                let tc = t[i - 1] + frac * (t[i] - t[i - 1]);
                if tc >= t_after {
                    return Some(tc);
                }
            }
        }
        None
    }

    /// 50 %-to-50 % propagation delay from an input edge on `input`
    /// (direction `input_rising`) to the next output edge on `output`
    /// (direction `output_rising`), measured after `t_after`.
    #[must_use]
    pub fn delay_after(
        &self,
        input: NodeId,
        input_rising: bool,
        output: NodeId,
        output_rising: bool,
        t_after: f64,
    ) -> Option<f64> {
        let half = MID * self.vdd();
        let t_in = self.crossing(input, half, input_rising, t_after)?;
        // The output may already be moving before the input's 50 % point
        // (very slow inputs), so search from the input edge start, not t_in.
        let t_out = self.crossing(output, half, output_rising, t_after)?;
        Some(t_out - t_in)
    }

    /// Like [`Trace::delay_after`] with `t_after = 0`.
    #[must_use]
    pub fn delay(
        &self,
        input: NodeId,
        input_rising: bool,
        output: NodeId,
        output_rising: bool,
        _half_level: f64,
    ) -> Option<f64> {
        self.delay_after(input, input_rising, output, output_rising, 0.0)
    }

    /// 10 %–90 % transition time of the edge on `node` after `t_after`.
    #[must_use]
    pub fn slew_after(&self, node: NodeId, rising: bool, t_after: f64) -> Option<f64> {
        let (lo, hi) = (LOW * self.vdd(), HIGH * self.vdd());
        if rising {
            let t_lo = self.crossing(node, lo, true, t_after)?;
            let t_hi = self.crossing(node, hi, true, t_lo)?;
            Some(t_hi - t_lo)
        } else {
            let t_hi = self.crossing(node, hi, false, t_after)?;
            let t_lo = self.crossing(node, lo, false, t_hi)?;
            Some(t_lo - t_hi)
        }
    }

    /// Measures the propagation delay and output slew of one input→output
    /// edge pair occurring after `t_after`.
    #[must_use]
    pub fn measure_edge(
        &self,
        input: NodeId,
        input_rising: bool,
        output: NodeId,
        output_rising: bool,
        t_after: f64,
    ) -> Option<EdgeMeasurement> {
        let delay = self.delay_after(input, input_rising, output, output_rising, t_after)?;
        let output_slew = self.slew_after(output, output_rising, t_after)?;
        Some(EdgeMeasurement { delay, output_slew })
    }
}

/// True if the segment `v0 → v1` crosses `level` in the given direction —
/// the test [`Trace::crossing`] applies to each pair of samples.
fn crosses(v0: f64, v1: f64, level: f64, rising: bool) -> bool {
    if rising {
        v0 < level && v1 >= level
    } else {
        v0 > level && v1 <= level
    }
}

/// The input→output edge pair a [`crate::Circuit::sweep_edges`] run
/// measures with [`Trace::measure_edge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeProbe {
    /// The input node.
    pub input: NodeId,
    /// Direction of the input edge (`true` = low→high).
    pub input_rising: bool,
    /// The output node.
    pub output: NodeId,
    /// Direction of the output edge.
    pub output_rising: bool,
    /// Crossings before this time are ignored, in seconds.
    pub t_after: f64,
}

impl EdgeProbe {
    /// [`Trace::measure_edge`] of this probe on `trace`.
    #[must_use]
    pub fn measure(&self, trace: &Trace) -> Option<EdgeMeasurement> {
        trace.measure_edge(
            self.input,
            self.input_rising,
            self.output,
            self.output_rising,
            self.t_after,
        )
    }

    /// True if the newest sample of `trace` completes a crossing of a level
    /// [`EdgeProbe::measure`] reads: the input's 50 % level, or the
    /// output's 50 %, 10 % or 90 % level, each in its edge direction. Only
    /// such a sample can turn a failed measurement into a successful one.
    pub(crate) fn newest_sample_crosses(&self, trace: &Trace) -> bool {
        let newest = |node: NodeId| match trace.voltage(node) {
            [.., v0, v1] => Some((*v0, *v1)),
            _ => None,
        };
        let vdd = trace.vdd();
        let input = newest(self.input)
            .is_some_and(|(v0, v1)| crosses(v0, v1, MID * vdd, self.input_rising));
        input
            || newest(self.output).is_some_and(|(v0, v1)| {
                [MID * vdd, LOW * vdd, HIGH * vdd]
                    .into_iter()
                    .any(|level| crosses(v0, v1, level, self.output_rising))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, TransientConfig, Waveform};
    use ptm::MosModel;

    fn inverter_trace(slew: f64, load: f64, input_rising: bool) -> (Trace, NodeId, NodeId) {
        let vdd = 1.2;
        let mut c = Circuit::new(vdd);
        let wave = Waveform::from_slew(0.5e-9, slew, vdd, input_rising);
        let a = c.add_source("a", wave);
        let y = c.add_node("y", load);
        c.add_pmos(MosModel::pmos_45nm(), a, y, c.vdd_node(), 630e-9);
        c.add_nmos(MosModel::nmos_45nm(), a, y, c.gnd_node(), 415e-9);
        let trace = c.transient(&TransientConfig::up_to(6.0e-9)).unwrap();
        (trace, a, y)
    }

    #[test]
    fn crossing_interpolates() {
        let (trace, a, _y) = inverter_trace(80e-12, 2e-15, true);
        let t = trace.crossing(a, 0.6, true, 0.0).expect("input crosses half rail");
        // Analytic: ramp starts at 0.5 ns, full duration 100 ps → 50 % at 50 ps.
        assert!((t - 0.55e-9).abs() < 1.0e-12, "t = {t}");
    }

    #[test]
    fn missing_crossing_is_none() {
        let (trace, a, y) = inverter_trace(80e-12, 2e-15, true);
        assert_eq!(trace.crossing(a, 0.6, false, 0.0), None, "input never falls");
        assert_eq!(trace.crossing(y, 0.6, true, 1.0e-9), None, "output never re-rises");
    }

    #[test]
    fn inverter_delay_and_slew_positive() {
        let (trace, a, y) = inverter_trace(40e-12, 2e-15, true);
        let m = trace.measure_edge(a, true, y, false, 0.0).expect("edge measured");
        assert!(m.delay > 0.0 && m.delay < 100e-12, "delay = {}", m.delay);
        assert!(m.output_slew > 1.0e-12 && m.output_slew < 200e-12, "slew = {}", m.output_slew);
    }

    #[test]
    fn larger_load_larger_delay_and_slew() {
        let (t1, a1, y1) = inverter_trace(40e-12, 1e-15, true);
        let (t2, a2, y2) = inverter_trace(40e-12, 10e-15, true);
        let m1 = t1.measure_edge(a1, true, y1, false, 0.0).unwrap();
        let m2 = t2.measure_edge(a2, true, y2, false, 0.0).unwrap();
        assert!(m2.delay > m1.delay);
        assert!(m2.output_slew > m1.output_slew);
    }

    #[test]
    fn falling_input_gives_rising_output() {
        let (trace, a, y) = inverter_trace(40e-12, 2e-15, false);
        let m = trace.measure_edge(a, false, y, true, 0.0).expect("rising output edge");
        assert!(m.delay > 0.0 && m.delay < 100e-12);
    }

    #[test]
    fn slow_input_can_yield_small_or_negative_delay() {
        // With a ~1 ns input slew the output starts moving long before the
        // input 50 % point; delay may approach zero or go negative but the
        // measurement must still succeed.
        let (trace, a, y) = inverter_trace(900e-12, 0.5e-15, true);
        let m = trace.measure_edge(a, true, y, false, 0.0).expect("measured");
        assert!(m.delay.abs() < 500e-12);
    }
}
