//! Compiled cell functions: each library cell's outputs become truth tables
//! evaluated in O(1) per event.

use crate::SimError;
use liberty::{Cell, CellClass};

/// A cell compiled for simulation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCell {
    /// Input pin names in truth-table bit order.
    pub inputs: Vec<String>,
    /// `(output pin, truth table words)` — bit `r` of word `r/64` is the
    /// output value for input row `r`.
    pub outputs: Vec<(String, Vec<u64>)>,
    /// For flip-flops: the clock pin and the input position of the data
    /// pin.
    pub flop: Option<(String, Option<usize>)>,
}

impl CompiledCell {
    /// Compiles `cell`'s output functions into truth tables.
    pub fn compile(cell: &Cell) -> Result<Self, SimError> {
        let inputs: Vec<String> = cell.inputs.iter().map(|p| p.name.clone()).collect();
        if inputs.len() > 16 {
            return Err(SimError::TooManyInputs { cell: cell.name.clone(), inputs: inputs.len() });
        }
        let names: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let outputs =
            cell.outputs.iter().map(|o| (o.name.clone(), o.function.truth_table(&names))).collect();
        let flop = match &cell.class {
            CellClass::Flop { clock, data, .. } => {
                Some((clock.clone(), inputs.iter().position(|p| p == data)))
            }
            CellClass::Combinational => None,
        };
        Ok(CompiledCell { inputs, outputs, flop })
    }

    /// Evaluates output `index` for the packed input `row`.
    #[inline]
    pub fn eval(&self, index: usize, row: usize) -> bool {
        let words = &self.outputs[index].1;
        words[row / 64] >> (row % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverter_compiles() {
        let inv = CompiledCell::compile(&Cell::test_inverter("INV_X1")).unwrap();
        assert_eq!(inv.inputs, vec!["A".to_owned()]);
        assert!(inv.eval(0, 0), "INV(0) = 1");
        assert!(!inv.eval(0, 1), "INV(1) = 0");
        assert!(inv.flop.is_none());
    }
}
