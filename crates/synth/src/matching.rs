//! Library matching: truth-table lookup from cut functions to cells.
//!
//! Every combinational single-output cell with ≤ 4 inputs is expanded over
//! all input permutations **and** input polarities (NPN-style closure with
//! explicit inverters paying for negated inputs), so any cut function the
//! mapper produces can be realized — the output phase is handled by the
//! mapper's dual-phase dynamic programming.

use liberty::{Cell, CellClass, Library};
use std::collections::{BTreeMap, HashMap};

/// One way to realize a boolean function with a library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMatch {
    /// Cell name.
    pub cell: String,
    /// For each cut-leaf position `j`, the cell input pin it drives.
    pub pins: Vec<String>,
    /// Bit `j` set = leaf `j` must be inverted before entering the cell.
    pub negated: u16,
    /// Estimated per-leaf arc delay at the library's default slew
    /// (fast tie-break heuristic; the DP uses [`MatchLibrary::curve`]).
    pub pin_delay: Vec<f64>,
    /// Cell area, µm².
    pub area: f64,
}

/// The slew-dependence of one arc at the mapping load estimate: worst-edge
/// delay and output transition sampled along the library's slew axis.
///
/// This is what makes the mapper *operating-condition aware*: with a
/// degradation-aware library these curves carry exactly the slew-dependent
/// aging spread of the paper's Fig. 1, so covering decisions can avoid
/// cells that age badly at the slews they would actually see.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcCurve {
    slews: Vec<f64>,
    delay: Vec<f64>,
    trans: Vec<f64>,
}

impl ArcCurve {
    fn from_arc(arc: &liberty::TimingArc, load: f64) -> Self {
        let slews = arc.cell_rise.slew_axis().to_vec();
        let delay = slews
            .iter()
            .map(|&s| arc.delay(true, s, load).max(arc.delay(false, s, load)))
            .collect();
        let trans = slews
            .iter()
            .map(|&s| arc.transition(true, s, load).max(arc.transition(false, s, load)))
            .collect();
        ArcCurve { slews, delay, trans }
    }

    /// `(delay, output slew)` at the given input slew (linear interpolation,
    /// clamped at the axis ends).
    #[must_use]
    pub fn lookup(&self, slew: f64) -> (f64, f64) {
        let n = self.slews.len();
        if n == 1 {
            return (self.delay[0], self.trans[0]);
        }
        let i1 = self.slews.partition_point(|&a| a < slew).clamp(1, n - 1);
        let i0 = i1 - 1;
        let span = self.slews[i1] - self.slews[i0];
        let frac = if span > 0.0 { ((slew - self.slews[i0]) / span).clamp(0.0, 1.0) } else { 0.0 };
        (
            self.delay[i0] + (self.delay[i1] - self.delay[i0]) * frac,
            self.trans[i0] + (self.trans[i1] - self.trans[i0]) * frac,
        )
    }
}

/// The matching tables derived from a library, plus the primitives the
/// mapper needs directly.
#[derive(Debug, Clone)]
pub struct MatchLibrary {
    table: HashMap<(u8, u16), Vec<CellMatch>>,
    /// Slew-dependent arc curves per `(cell, input pin)` at the mapping
    /// load estimate.
    curves: HashMap<(String, String), ArcCurve>,
    /// `(cell name, delay, area, input pin)` of the fastest inverter.
    pub inverter: (String, f64, f64, String),
    /// Name of a buffer cell if one exists (positive single-input).
    pub buffer: Option<String>,
    /// Name of the smallest flip-flop, with its (clock, data, output) pins.
    pub flop: Option<(String, String, String, String)>,
    /// Name + pins of a NOR2-functioned cell, used for constant outputs.
    pub const_low: Option<(String, String, String)>,
}

/// Estimated load used for mapping-time delay estimates: a typical fanout
/// of a couple of unit gates.
const EST_FANOUT: f64 = 2.0;

impl MatchLibrary {
    /// Builds matching tables from `library`. Only "representative" cells
    /// participate in matching — the smallest drive strength of each
    /// function family — leaving strength selection to the sizing pass.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SynthError::NoInverter`] / `NoAndGate` if the
    /// minimal primitives are absent.
    pub fn build(library: &Library) -> Result<Self, crate::SynthError> {
        let est_cap = library
            .cells()
            .filter_map(|c| c.inputs.first().map(|p| p.capacitance))
            .fold(f64::INFINITY, f64::min);
        let est_cap = if est_cap.is_finite() { est_cap } else { 1e-15 };
        let est_load = EST_FANOUT * est_cap + library.wire_cap_per_fanout * EST_FANOUT;
        let slew = library.default_input_slew;

        // Pick the representative (min input-cap) cell per family. Families
        // are visited in name order, which decides `buffer`, `const_low`,
        // ties between inverters and the order of each truth table's
        // matches — and thus the mapper's tie-breaks.
        let mut representative: BTreeMap<String, &Cell> = BTreeMap::new();
        for cell in library.cells() {
            if cell.is_sequential() || cell.outputs.len() != 1 || cell.inputs.is_empty() {
                continue;
            }
            if cell.inputs.len() > 4 {
                continue;
            }
            let fam = family_name(&cell.name).0.to_owned();
            let cap = cell.inputs[0].capacitance;
            match representative.get(&fam) {
                Some(prev) if prev.inputs[0].capacitance <= cap => {}
                _ => {
                    representative.insert(fam, cell);
                }
            }
        }

        let mut table: HashMap<(u8, u16), Vec<CellMatch>> = HashMap::new();
        let mut curves: HashMap<(String, String), ArcCurve> = HashMap::new();
        let mut inverter: Option<(String, f64, f64, String)> = None;
        let mut buffer = None;
        let mut const_low = None;
        let mut has_and2 = false;

        for cell in representative.values() {
            let out = &cell.outputs[0];
            let n = cell.inputs.len();
            let pin_names: Vec<&str> = cell.inputs.iter().map(|p| p.name.as_str()).collect();
            let base_tt = out.function.truth_table(&pin_names)[0] as u16;

            // Inverter / buffer detection.
            if n == 1 {
                let delay =
                    out.arcs.first().map_or(f64::INFINITY, |a| a.worst_delay(slew, est_load));
                if base_tt & 0b11 == 0b01 {
                    if inverter.as_ref().is_none_or(|(_, d, _, _)| delay < *d) {
                        inverter = Some((
                            cell.name.clone(),
                            delay,
                            cell.area,
                            cell.inputs[0].name.clone(),
                        ));
                    }
                } else if base_tt & 0b11 == 0b10 && buffer.is_none() {
                    buffer = Some(cell.name.clone());
                }
            }
            if n == 2 && base_tt & 0b1111 == 0b0001 && const_low.is_none() {
                const_low = Some((
                    cell.name.clone(),
                    cell.inputs[0].name.clone(),
                    cell.inputs[1].name.clone(),
                ));
            }
            if n == 2 && matches!(base_tt & 0b1111, 0b1000 | 0b0111) {
                has_and2 = true;
            }

            // Per-pin mapping delays and slew-dependent curves.
            let pin_delay_of = |pin: &str| {
                out.arc_from(pin).map_or(f64::INFINITY, |a| a.worst_delay(slew, est_load))
            };
            let delays: Vec<f64> = pin_names.iter().map(|p| pin_delay_of(p)).collect();
            for pin in &pin_names {
                if let Some(arc) = out.arc_from(pin) {
                    curves.insert(
                        (cell.name.clone(), (*pin).to_owned()),
                        ArcCurve::from_arc(arc, est_load),
                    );
                }
            }

            // All permutations × input polarities.
            let mut perm: Vec<usize> = (0..n).collect();
            permute(&mut perm, 0, &mut |perm| {
                for neg in 0..(1u16 << n) {
                    let tt = permuted_tt(base_tt, perm, neg, n);
                    let m = CellMatch {
                        cell: cell.name.clone(),
                        pins: perm.iter().map(|&p| cell.inputs[p].name.clone()).collect(),
                        negated: neg,
                        pin_delay: perm.iter().map(|&p| delays[p]).collect(),
                        area: cell.area,
                    };
                    let entry = table.entry((n as u8, tt)).or_default();
                    if !entry
                        .iter()
                        .any(|e| e.cell == m.cell && e.negated == m.negated && e.pins == m.pins)
                    {
                        entry.push(m);
                    }
                }
            });
        }

        let inverter = inverter.ok_or(crate::SynthError::NoInverter)?;
        if !has_and2 && !table.contains_key(&(2, 0b1000)) && !table.contains_key(&(2, 0b0111)) {
            return Err(crate::SynthError::NoAndGate);
        }

        let flop = library
            .cells()
            .filter_map(|c| match &c.class {
                CellClass::Flop { clock, data, .. } => c.outputs.first().map(|o| {
                    (c.area, (c.name.clone(), clock.clone(), data.clone(), o.name.clone()))
                }),
                CellClass::Combinational => None,
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, f)| f);

        Ok(MatchLibrary { table, curves, inverter, buffer, flop, const_low })
    }

    /// All matches realizing the `n_leaves`-variable function `tt`.
    #[must_use]
    pub fn matches(&self, n_leaves: usize, tt: u16) -> &[CellMatch] {
        self.table.get(&(n_leaves as u8, tt)).map_or(&[], Vec::as_slice)
    }

    /// The inverter's mapping-time delay estimate.
    #[must_use]
    pub fn inverter_delay(&self) -> f64 {
        self.inverter.1
    }

    /// The slew-dependent curve of `(cell, pin)`, if characterized.
    #[must_use]
    pub fn curve(&self, cell: &str, pin: &str) -> Option<&ArcCurve> {
        self.curves.get(&(cell.to_owned(), pin.to_owned()))
    }

    /// The inverter's slew-dependent curve.
    ///
    /// # Panics
    ///
    /// Panics if the inverter (guaranteed by [`MatchLibrary::build`]) lost
    /// its curve — an internal inconsistency.
    #[must_use]
    pub fn inverter_curve(&self) -> &ArcCurve {
        match self.curves.get(&(self.inverter.0.clone(), self.inverter.3.clone())) {
            Some(curve) => curve,
            None => unreachable!("inverter curve exists"),
        }
    }
}

/// The `(family, strength)` split of a cell name: `NAND2_X4` → `("NAND2", 4)`.
/// Names without an `_X<k>` suffix return strength 1.
#[must_use]
pub(crate) fn family_name(name: &str) -> (&str, u32) {
    if let Some(pos) = name.rfind("_X") {
        if let Ok(s) = name[pos + 2..].parse::<u32>() {
            return (&name[..pos], s);
        }
    }
    (name, 1)
}

/// Truth table of the cell function when cut leaf `j` drives cell pin
/// `perm[j]`, with leaves in `neg` inverted.
fn permuted_tt(base: u16, perm: &[usize], neg: u16, n: usize) -> u16 {
    let rows = 1usize << n;
    let mut tt = 0u16;
    for row in 0..rows {
        // Build the cell-pin assignment row for this leaf row.
        let mut cell_row = 0usize;
        for (leaf, &pin) in perm.iter().enumerate() {
            let mut bit = row >> leaf & 1;
            if neg >> leaf & 1 == 1 {
                bit ^= 1;
            }
            cell_row |= bit << pin;
        }
        if base >> cell_row & 1 == 1 {
            tt |= 1 << row;
        }
    }
    tt
}

fn permute(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        f(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, f);
        perm.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::fixture_library;

    #[test]
    fn family_parsing() {
        assert_eq!(family_name("NAND2_X4"), ("NAND2", 4));
        assert_eq!(family_name("INV_X1"), ("INV", 1));
        assert_eq!(family_name("FA_X1"), ("FA", 1));
        assert_eq!(family_name("WEIRD"), ("WEIRD", 1));
        assert_eq!(family_name("INV_Xbad"), ("INV_Xbad", 1));
    }

    #[test]
    fn fixture_builds() {
        let ml = MatchLibrary::build(&fixture_library()).unwrap();
        assert!(ml.inverter.0.starts_with("INV"));
        assert!(ml.flop.is_some());
        assert!(ml.buffer.is_some());
        assert!(ml.const_low.is_some());
    }

    #[test]
    fn and_function_matches() {
        let ml = MatchLibrary::build(&fixture_library()).unwrap();
        // a & b over 2 leaves = tt 0b1000.
        let ms = ml.matches(2, 0b1000);
        assert!(!ms.is_empty());
        assert!(ms.iter().any(|m| m.cell.starts_with("AND2") && m.negated == 0));
        // !a & b matches AND2 with leaf 0 negated (or NOR2 with leaf 1).
        let ms = ml.matches(2, 0b0100);
        assert!(!ms.is_empty());
        for m in ms {
            assert_eq!(m.pins.len(), 2);
            assert_eq!(m.pin_delay.len(), 2);
        }
    }

    #[test]
    fn xor_matches_without_negations() {
        let ml = MatchLibrary::build(&fixture_library()).unwrap();
        let ms = ml.matches(2, 0b0110);
        assert!(ms.iter().any(|m| m.cell.starts_with("XOR2") && m.negated == 0));
    }

    #[test]
    fn all_two_leaf_functions_covered() {
        // With INV paying for negations, every 2-input function that truly
        // depends on both leaves must match in at least one phase.
        // (Degenerate cut functions are covered via other cuts: the trivial
        // 2-leaf cut of an AND node is never degenerate.)
        let ml = MatchLibrary::build(&fixture_library()).unwrap();
        let depends_on_both = |tt: u16| {
            let f = |row: u16| tt >> row & 1;
            (f(0) != f(1) || f(2) != f(3)) && (f(0) != f(2) || f(1) != f(3))
        };
        for tt in 1u16..15 {
            if !depends_on_both(tt) {
                continue;
            }
            let direct = !ml.matches(2, tt).is_empty();
            let compl = !ml.matches(2, !tt & 0b1111).is_empty();
            assert!(direct || compl, "tt {tt:04b} unmatched in either phase");
        }
    }

    #[test]
    fn representative_is_smallest_strength() {
        let ml = MatchLibrary::build(&fixture_library()).unwrap();
        for ms in ml.matches(2, 0b1000) {
            let (_, strength) = family_name(&ms.cell);
            assert_eq!(strength, 1, "matching must use X1 representatives");
        }
    }
}
