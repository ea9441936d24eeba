//! Per-arc delays: the hand-off from timing analysis to timed simulation.
//!
//! After STA propagates slews through a netlist against a particular
//! library, every timing arc of every instance has concrete rise/fall
//! delays. [`DelayAnnotation`] holds them in one dense table laid out by
//! the netlist's [`Bound`] pins, and the event-driven timing simulator
//! reads that table as it is. It stands in for the SDF file the paper
//! feeds from Design Compiler into `ModelSim` for its gate-level image
//! simulations.

use crate::{Bound, InstId};

/// Concrete delays of one timing arc: to a rising and to a falling output
/// edge, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArcDelays {
    /// Delay to a rising output edge.
    pub rise: f64,
    /// Delay to a falling output edge.
    pub fall: f64,
}

/// Arc delays for every instance of a netlist: one [`ArcDelays`] per
/// (cell input position, cell output position), in the cell pin order of
/// the netlist's [`Bound`]. A flop's clk→Q delay sits on its clock input's
/// row. Positions without an arc hold zero, and an annotation of no
/// instances ([`DelayAnnotation::new`]) stands for zero delay on every arc.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelayAnnotation {
    /// Per instance: where its rows start in `arcs`, its cell's input count
    /// and its output count.
    span: Vec<[u32; 3]>,
    /// Per instance, one row per input position, each holding one entry
    /// per output position.
    arcs: Vec<ArcDelays>,
}

impl DelayAnnotation {
    /// An annotation of no instances: zero delay on every arc.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A table of zero delays laid out for the instances and cell pins of
    /// `bound`.
    #[must_use]
    pub fn zeroed(bound: &Bound) -> Self {
        let mut len = 0u32;
        let span = bound
            .pin_span
            .iter()
            .map(|&[_, n_in, n_out]| {
                let base = len;
                len += n_in * n_out;
                [base, n_in, n_out]
            })
            .collect();
        DelayAnnotation { span, arcs: vec![ArcDelays::default(); len as usize] }
    }

    /// Number of instances laid out.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.span.len()
    }

    /// True if the annotation holds no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.span.is_empty()
    }

    /// The input and output counts of `inst`'s rows.
    #[must_use]
    pub fn shape(&self, inst: InstId) -> (usize, usize) {
        let [_, n_in, n_out] = self.span[inst.0];
        (n_in as usize, n_out as usize)
    }

    /// The delays of `inst`'s arc from cell input `input` to cell output
    /// `output` (positions in the cell's pin order).
    ///
    /// # Panics
    ///
    /// Panics if either position is outside `inst`'s rows.
    #[must_use]
    #[inline]
    pub fn get(&self, inst: InstId, input: usize, output: usize) -> ArcDelays {
        self.arcs[self.at(inst, input, output)]
    }

    /// Records the delays of `inst`'s arc from cell input `input` to cell
    /// output `output`, replacing the previous entry.
    ///
    /// # Panics
    ///
    /// Panics if either position is outside `inst`'s rows.
    pub fn set(&mut self, inst: InstId, input: usize, output: usize, delays: ArcDelays) {
        let at = self.at(inst, input, output);
        self.arcs[at] = delays;
    }

    /// The worst (largest) delay, in seconds.
    #[must_use]
    pub fn max_delay(&self) -> f64 {
        self.arcs.iter().map(|d| d.rise.max(d.fall)).fold(0.0, f64::max)
    }

    #[inline]
    fn at(&self, inst: InstId, input: usize, output: usize) -> usize {
        let [base, n_in, n_out] = self.span[inst.0];
        assert!(input < n_in as usize && output < n_out as usize, "arc position out of range");
        base as usize + input * n_out as usize + output
    }
}
