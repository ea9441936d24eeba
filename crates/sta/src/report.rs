use crate::path::PathSpec;
use netlist::NetId;

/// The kind of a timing endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EndpointKind {
    /// A primary output port.
    Output,
    /// The data pin of a flip-flop, with its setup requirement in seconds.
    FlopData {
        /// Setup time subtracted from the clock period.
        setup: f64,
    },
}

/// One timing endpoint with its worst arrival and (if a clock period was
/// given) required time and slack.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// The net the endpoint observes.
    pub net: NetId,
    /// What terminates the path here.
    pub kind: EndpointKind,
    /// Worst (max) arrival time at the endpoint, in seconds.
    pub arrival: f64,
    /// Required time, if a clock period was constrained.
    pub required: Option<f64>,
}

impl Endpoint {
    /// Slack = required − arrival; `None` without a clock constraint.
    #[must_use]
    pub fn slack(&self) -> Option<f64> {
        self.required.map(|r| r - self.arrival)
    }
}

/// Per-net timing data and the extracted critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    pub(crate) arrival_rise: Vec<f64>,
    pub(crate) arrival_fall: Vec<f64>,
    pub(crate) min_rise: Vec<f64>,
    pub(crate) min_fall: Vec<f64>,
    pub(crate) slew_rise: Vec<f64>,
    pub(crate) slew_fall: Vec<f64>,
    pub(crate) required_rise: Vec<f64>,
    pub(crate) required_fall: Vec<f64>,
    pub(crate) loads: Vec<f64>,
    pub(crate) endpoints: Vec<Endpoint>,
    pub(crate) hold_slacks: Vec<(NetId, f64)>,
    pub(crate) critical: PathSpec,
    pub(crate) critical_delay: f64,
}

impl TimingReport {
    /// Worst arrival across all endpoints — the circuit's critical-path
    /// delay `T` of the paper's guardband equation.
    #[must_use]
    pub fn critical_delay(&self) -> f64 {
        self.critical_delay
    }

    /// The critical path as a re-evaluable [`PathSpec`].
    #[must_use]
    pub fn critical_path(&self) -> &PathSpec {
        &self.critical
    }

    /// All endpoints, sorted by decreasing arrival (most critical first).
    #[must_use]
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Worst slack across endpoints; `None` without a clock constraint.
    #[must_use]
    pub fn worst_slack(&self) -> Option<f64> {
        self.endpoints.iter().filter_map(Endpoint::slack).fold(None, |acc, s| {
            Some(match acc {
                None => s,
                Some(a) => a.min(s),
            })
        })
    }

    /// Worst (max) arrival time of `net` across both edge polarities.
    #[must_use]
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival_rise[net_index(net)].max(self.arrival_fall[net_index(net)])
    }

    /// Arrival of the rising (`true`) or falling edge at `net`.
    #[must_use]
    pub fn arrival_edge(&self, net: NetId, rising: bool) -> f64 {
        if rising {
            self.arrival_rise[net_index(net)]
        } else {
            self.arrival_fall[net_index(net)]
        }
    }

    /// Propagated slew of the rising (`true`) or falling edge at `net`.
    #[must_use]
    pub fn slew_edge(&self, net: NetId, rising: bool) -> f64 {
        if rising {
            self.slew_rise[net_index(net)]
        } else {
            self.slew_fall[net_index(net)]
        }
    }

    /// Required time of the given edge at `net` (from the backward pass;
    /// `+∞` on nets that reach no endpoint). Without a clock constraint the
    /// critical-path delay acts as the implicit required time, so the
    /// worst slack of the design is exactly zero.
    #[must_use]
    pub fn required_edge(&self, net: NetId, rising: bool) -> f64 {
        if rising {
            self.required_rise[net_index(net)]
        } else {
            self.required_fall[net_index(net)]
        }
    }

    /// Worst slack of `net` across both edges: `min(required − arrival)`.
    #[must_use]
    pub fn net_slack(&self, net: NetId) -> f64 {
        let r = self.required_rise[net_index(net)] - self.arrival_rise[net_index(net)];
        let f = self.required_fall[net_index(net)] - self.arrival_fall[net_index(net)];
        r.min(f)
    }

    /// Total capacitive load the analysis drove `net` with: its sinks'
    /// input pins, the per-fanout wire model and, on a primary output, the
    /// constrained output load.
    #[must_use]
    pub fn load(&self, net: NetId) -> f64 {
        self.loads[net_index(net)]
    }

    /// Earliest (min-delay) arrival of either edge at `net` — the quantity
    /// hold checks compare against.
    #[must_use]
    pub fn min_arrival(&self, net: NetId) -> f64 {
        self.min_rise[net_index(net)].min(self.min_fall[net_index(net)])
    }

    /// Hold slacks per flop data pin: `earliest data arrival − hold time`.
    /// Negative entries are hold violations (aging never causes these — it
    /// only slows paths — but min-delay analysis is part of signoff). Data
    /// pins fed directly from primary inputs report `−hold`, since no
    /// input-delay constraints are modeled.
    #[must_use]
    pub fn hold_slacks(&self) -> &[(NetId, f64)] {
        &self.hold_slacks
    }

    /// The worst (smallest) hold slack, if the design has flops.
    #[must_use]
    pub fn worst_hold_slack(&self) -> Option<f64> {
        self.hold_slacks.iter().map(|(_, s)| *s).min_by(f64::total_cmp)
    }
}

fn net_index(net: NetId) -> usize {
    net.index()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_slack() {
        let e = Endpoint {
            net: NetId::from_index(0),
            kind: EndpointKind::Output,
            arrival: 1.0e-9,
            required: Some(1.5e-9),
        };
        assert!((e.slack().unwrap() - 0.5e-9).abs() < 1e-18);
        let e2 = Endpoint { required: None, ..e };
        assert_eq!(e2.slack(), None);
    }
}
