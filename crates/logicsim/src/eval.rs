//! Compiled cell functions: each library cell's outputs become truth tables
//! evaluated in O(1) per event.

use crate::SimError;
use liberty::{Cell, CellClass};

/// A cell compiled for simulation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCell {
    /// Per output, in the cell's pin order, its truth table words: bit `r`
    /// of word `r/64` is the output value for input row `r`, whose bit `i`
    /// is input `i` in the cell's pin order.
    pub outputs: Vec<Vec<u64>>,
    /// For flip-flops: the input positions of the clock and the data pin.
    pub flop: Option<(Option<usize>, Option<usize>)>,
}

impl CompiledCell {
    /// Compiles `cell`'s output functions into truth tables.
    pub fn compile(cell: &Cell) -> Result<Self, SimError> {
        let names: Vec<&str> = cell.inputs.iter().map(|p| p.name.as_str()).collect();
        if names.len() > 16 {
            return Err(SimError::TooManyInputs { cell: cell.name.clone(), inputs: names.len() });
        }
        let outputs = cell.outputs.iter().map(|o| o.function.truth_table(&names)).collect();
        let position = |pin: &str| names.iter().position(|p| *p == pin);
        let flop = match &cell.class {
            CellClass::Flop { clock, data, .. } => Some((position(clock), position(data))),
            CellClass::Combinational => None,
        };
        Ok(CompiledCell { outputs, flop })
    }

    /// Evaluates output `index` for the packed input `row`.
    #[inline]
    pub fn eval(&self, index: usize, row: usize) -> bool {
        let words = &self.outputs[index];
        words[row / 64] >> (row % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverter_compiles() {
        let inv = CompiledCell::compile(&Cell::test_inverter("INV_X1")).unwrap();
        assert_eq!(inv.outputs.len(), 1);
        assert!(inv.eval(0, 0), "INV(0) = 1");
        assert!(!inv.eval(0, 1), "INV(1) = 0");
        assert!(inv.flop.is_none());
    }
}
