//! Per-instance λ-interval bounds and λ-annotation validation.
//!
//! An nMOS transistor is stressed while its gate input is high, a pMOS
//! while it is low (paper Sec. 2), so the signal-probability interval of
//! every input net translates directly into duty-cycle bounds. The two
//! extraction modes mirror the dynamic flow: the paper's footnote-2
//! per-gate average, and the conservative worst-stressed-pin bound.
//!
//! Because annotations are *quantized* to a λ grid of `steps` intervals,
//! every containment test here relaxes the interval by half a grid step —
//! a correctly extracted duty cycle can land at most that far outside its
//! exact interval after rounding.

use crate::engine::NetlistDataflow;
use crate::interval::Interval;
use liberty::{split_lambda_tag, LambdaTag, Library};
use netlist::{InstId, Netlist};
use std::fmt;

/// How per-instance duty cycles are summarized from pin probabilities
/// (mirrors the dynamic flow's extraction modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Extraction {
    /// The paper's footnote-2 simplification: λn is the mean input-pin
    /// high-probability, and λp = 1 − λn.
    #[default]
    GateAverage,
    /// Conservative: the worst-stressed pin per polarity (λp and λn are
    /// independent maxima, so λp + λn ≥ 1).
    WorstPin,
}

/// Statically provable duty-cycle bounds of one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaBounds {
    /// Provable interval of the pMOS duty cycle λp.
    pub pmos: Interval,
    /// Provable interval of the nMOS duty cycle λn.
    pub nmos: Interval,
}

impl LambdaBounds {
    /// The bounds as `(min, max)` [`bti::DutyCycle`] pairs,
    /// `(pmos, nmos)` — ready for the `bti` aging models.
    #[must_use]
    pub fn duty_ranges(
        &self,
    ) -> ((bti::DutyCycle, bti::DutyCycle), (bti::DutyCycle, bti::DutyCycle)) {
        (self.pmos.duty_range(), self.nmos.duty_range())
    }

    /// True when `tag` lies inside both intervals, each relaxed by
    /// `tolerance` (normally half a λ-grid step).
    #[must_use]
    pub fn contains(&self, tag: LambdaTag, tolerance: f64) -> bool {
        self.pmos.contains_with_tolerance(tag.lambda_pmos, tolerance)
            && self.nmos.contains_with_tolerance(tag.lambda_nmos, tolerance)
    }

    /// Component-wise union hull with `other`.
    #[must_use]
    pub fn join(&self, other: LambdaBounds) -> LambdaBounds {
        LambdaBounds { pmos: self.pmos.join(other.pmos), nmos: self.nmos.join(other.nmos) }
    }
}

impl fmt::Display for LambdaBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λp ∈ {}, λn ∈ {}", self.pmos, self.nmos)
    }
}

/// Why a λ-annotation is statically impossible.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// The annotated λp lies outside the provable interval.
    PmosOutsideBounds {
        /// Annotated value.
        value: f64,
        /// Provable interval (before the quantization tolerance).
        bounds: Interval,
    },
    /// The annotated λn lies outside the provable interval.
    NmosOutsideBounds {
        /// Annotated value.
        value: f64,
        /// Provable interval (before the quantization tolerance).
        bounds: Interval,
    },
    /// The (λp, λn) pair violates the extraction-mode invariant — under
    /// [`Extraction::GateAverage`] the components must satisfy
    /// λp + λn = 1 (up to one grid step), under [`Extraction::WorstPin`]
    /// λp + λn ≥ 1 (same tolerance). No workload can produce such a pair.
    InconsistentPair {
        /// Annotated pMOS duty cycle.
        lambda_pmos: f64,
        /// Annotated nMOS duty cycle.
        lambda_nmos: f64,
    },
}

/// One statically impossible λ-annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending instance.
    pub inst: InstId,
    /// What is wrong with its annotation.
    pub kind: ViolationKind,
}

impl NetlistDataflow {
    /// The statically provable λ bounds of `inst` under `extraction`.
    ///
    /// Returns `None` when the cell is unknown or has no connected input
    /// pins (mirroring the dynamic `lambda_of` extractors).
    #[must_use]
    pub fn lambda_bounds(
        &self,
        netlist: &Netlist,
        library: &Library,
        inst: InstId,
        extraction: Extraction,
    ) -> Option<LambdaBounds> {
        let instance = netlist.instance(inst);
        let cell = library.cell(&instance.cell)?;
        let pins: Vec<Interval> = instance
            .connections
            .iter()
            .filter(|(pin, _)| cell.input_cap(pin).is_some())
            .map(|(_, net)| self.interval(*net))
            .collect();
        // An empty pin set has neither an average nor a maximum.
        Some(match extraction {
            Extraction::GateAverage => {
                let nmos = Interval::average(&pins)?;
                LambdaBounds { pmos: nmos.not(), nmos }
            }
            Extraction::WorstPin => {
                let nmos = pins.iter().copied().reduce(Interval::max)?;
                let pmos = pins.iter().map(|i| i.not()).reduce(Interval::max)?;
                LambdaBounds { pmos, nmos }
            }
        })
    }

    /// Validates every λ-annotated instance of `netlist` against its
    /// statically provable interval and the extraction-mode invariant.
    ///
    /// `steps` is the λ-grid resolution the annotations were quantized to;
    /// containment is relaxed by half a step and the pair invariant by one
    /// full step (two roundings).
    #[must_use]
    pub fn validate_annotations(
        &self,
        netlist: &Netlist,
        library: &Library,
        extraction: Extraction,
        steps: u32,
    ) -> Vec<Violation> {
        let half_step = 0.5 / f64::from(steps.max(1)) + 1e-9;
        let full_step = 1.0 / f64::from(steps.max(1)) + 1e-9;
        let mut out = Vec::new();
        for inst in netlist.instance_ids() {
            let instance = netlist.instance(inst);
            let (_, Some(tag)) = split_lambda_tag(&instance.cell) else { continue };
            let consistent = match extraction {
                Extraction::GateAverage => {
                    (tag.lambda_pmos + tag.lambda_nmos - 1.0).abs() <= full_step
                }
                Extraction::WorstPin => tag.lambda_pmos + tag.lambda_nmos >= 1.0 - full_step,
            };
            if !consistent {
                out.push(Violation {
                    inst,
                    kind: ViolationKind::InconsistentPair {
                        lambda_pmos: tag.lambda_pmos,
                        lambda_nmos: tag.lambda_nmos,
                    },
                });
            }
            let Some(bounds) = self.lambda_bounds(netlist, library, inst, extraction) else {
                continue;
            };
            if !bounds.nmos.contains_with_tolerance(tag.lambda_nmos, half_step) {
                out.push(Violation {
                    inst,
                    kind: ViolationKind::NmosOutsideBounds {
                        value: tag.lambda_nmos,
                        bounds: bounds.nmos,
                    },
                });
            }
            if !bounds.pmos.contains_with_tolerance(tag.lambda_pmos, half_step) {
                out.push(Violation {
                    inst,
                    kind: ViolationKind::PmosOutsideBounds {
                        value: tag.lambda_pmos,
                        bounds: bounds.pmos,
                    },
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;
    use netlist::{Netlist, PortDir};

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        // The tagged variants annotations resolve to.
        for p in 0..=10u32 {
            for n in 0..=10u32 {
                let tag = LambdaTag {
                    lambda_pmos: f64::from(p) / 10.0,
                    lambda_nmos: f64::from(n) / 10.0,
                };
                lib.add_cell(Cell::test_inverter(&format!("INV_X1_{}", tag.suffix())));
            }
        }
        lib
    }

    fn annotated_inverter(suffix: &str) -> (Netlist, netlist::NetId) {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", &format!("INV_X1_{suffix}"), &[("A", a), ("Y", y)]);
        (nl, a)
    }

    #[test]
    fn bounds_follow_pin_interval() {
        let (nl, a) = annotated_inverter("0.50_0.50");
        let mut config = crate::DataflowConfig::default();
        config.input_intervals.insert(a, Interval::new(0.2, 0.4));
        let df = NetlistDataflow::analyze_with(&nl, &lib(), &config);
        let b = df
            .lambda_bounds(&nl, &lib(), netlist::InstId::from_index(0), Extraction::GateAverage)
            .unwrap();
        assert!((b.nmos.lo() - 0.2).abs() < 1e-12);
        assert!((b.nmos.hi() - 0.4).abs() < 1e-12);
        assert!((b.pmos.lo() - 0.6).abs() < 1e-12);
        assert!((b.pmos.hi() - 0.8).abs() < 1e-12);
        let ((p_lo, p_hi), (n_lo, n_hi)) = b.duty_ranges();
        assert!((p_lo.value() - 0.6).abs() < 1e-12 && (p_hi.value() - 0.8).abs() < 1e-12);
        assert!((n_lo.value() - 0.2).abs() < 1e-12 && (n_hi.value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn worst_pin_bounds_dominate_average() {
        // Two-input cell via the fixture-style AND is not available here;
        // the single-input inverter makes both extractions agree.
        let (nl, a) = annotated_inverter("0.50_0.50");
        let mut config = crate::DataflowConfig::default();
        config.input_intervals.insert(a, Interval::new(0.3, 0.6));
        let df = NetlistDataflow::analyze_with(&nl, &lib(), &config);
        let id = netlist::InstId::from_index(0);
        let avg = df.lambda_bounds(&nl, &lib(), id, Extraction::GateAverage).unwrap();
        let worst = df.lambda_bounds(&nl, &lib(), id, Extraction::WorstPin).unwrap();
        assert_eq!(avg.nmos, worst.nmos);
        assert_eq!(avg.pmos, worst.pmos);
    }

    #[test]
    fn valid_annotation_passes() {
        // Input pinned high: λn = 1, λp = 0 (quantized) is the only valid tag.
        let (nl, a) = annotated_inverter("0.00_1.00");
        let mut config = crate::DataflowConfig::default();
        config.input_intervals.insert(a, Interval::point(1.0));
        let df = NetlistDataflow::analyze_with(&nl, &lib(), &config);
        assert!(df.validate_annotations(&nl, &lib(), Extraction::GateAverage, 10).is_empty());
    }

    #[test]
    fn out_of_interval_annotation_caught() {
        let (nl, a) = annotated_inverter("1.00_0.00");
        let mut config = crate::DataflowConfig::default();
        config.input_intervals.insert(a, Interval::point(1.0));
        let df = NetlistDataflow::analyze_with(&nl, &lib(), &config);
        let violations = df.validate_annotations(&nl, &lib(), Extraction::GateAverage, 10);
        assert_eq!(violations.len(), 2, "both components are impossible: {violations:?}");
        assert!(violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::NmosOutsideBounds { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::PmosOutsideBounds { .. })));
    }

    #[test]
    fn inconsistent_pair_caught_even_with_full_intervals() {
        // Default FULL input: intervals prove nothing, but λp + λn = 0.2
        // can never come from the gate-average extraction.
        let (nl, _) = annotated_inverter("0.10_0.10");
        let df = NetlistDataflow::analyze(&nl, &lib());
        let violations = df.validate_annotations(&nl, &lib(), Extraction::GateAverage, 10);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0].kind, ViolationKind::InconsistentPair { .. }));
        // Worst-pin tolerates λp + λn > 1 but not < 1.
        let violations = df.validate_annotations(&nl, &lib(), Extraction::WorstPin, 10);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn quantization_tolerance_absorbs_rounding() {
        // True p = 0.34 → interval [0.34, 0.34]; quantized λn = 0.3 lands
        // 0.04 outside but within the half-step (0.05) tolerance.
        let (nl, a) = annotated_inverter("0.70_0.30");
        let mut config = crate::DataflowConfig::default();
        config.input_intervals.insert(a, Interval::point(0.34));
        let df = NetlistDataflow::analyze_with(&nl, &lib(), &config);
        assert!(df.validate_annotations(&nl, &lib(), Extraction::GateAverage, 10).is_empty());
    }

    #[test]
    fn unannotated_instances_are_ignored() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        let df = NetlistDataflow::analyze(&nl, &lib());
        assert!(df.validate_annotations(&nl, &lib(), Extraction::GateAverage, 10).is_empty());
    }
}
