//! Compiled cell functions: each library cell's outputs become truth tables
//! evaluated in O(1) per event.

use crate::SimError;
use liberty::{CellClass, Library};
use std::collections::HashMap;
use std::sync::Arc;

/// A cell compiled for simulation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCell {
    /// Input pin names in truth-table bit order.
    pub inputs: Vec<String>,
    /// `(output pin, truth table words)` — bit `r` of word `r/64` is the
    /// output value for input row `r`.
    pub outputs: Vec<(String, Vec<u64>)>,
    /// `Some((clock pin, data pin))` for flip-flops.
    pub flop: Option<(String, String)>,
}

impl CompiledCell {
    /// Evaluates output `index` for the packed input `row`.
    #[inline]
    pub fn eval(&self, index: usize, row: usize) -> bool {
        let words = &self.outputs[index].1;
        words[row / 64] >> (row % 64) & 1 == 1
    }
}

/// All cells of a library, compiled once and shared by their instances.
#[derive(Debug, Clone)]
pub(crate) struct CompiledLib {
    pub cells: HashMap<String, Arc<CompiledCell>>,
}

impl CompiledLib {
    pub fn compile(library: &Library) -> Result<Self, SimError> {
        let mut cells = HashMap::with_capacity(library.len());
        for cell in library.cells() {
            let inputs: Vec<String> = cell.inputs.iter().map(|p| p.name.clone()).collect();
            if inputs.len() > 16 {
                return Err(SimError::TooManyInputs {
                    cell: cell.name.clone(),
                    inputs: inputs.len(),
                });
            }
            let names: Vec<&str> = inputs.iter().map(String::as_str).collect();
            let outputs = cell
                .outputs
                .iter()
                .map(|o| (o.name.clone(), o.function.truth_table(&names)))
                .collect();
            let flop = match &cell.class {
                CellClass::Flop { clock, data, .. } => Some((clock.clone(), data.clone())),
                CellClass::Combinational => None,
            };
            cells.insert(cell.name.clone(), Arc::new(CompiledCell { inputs, outputs, flop }));
        }
        Ok(CompiledLib { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;

    #[test]
    fn inverter_compiles() {
        let mut lib = Library::new("l", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        let compiled = CompiledLib::compile(&lib).unwrap();
        let inv = &compiled.cells["INV_X1"];
        assert_eq!(inv.inputs, vec!["A".to_owned()]);
        assert!(inv.eval(0, 0), "INV(0) = 1");
        assert!(!inv.eval(0, 1), "INV(1) = 0");
        assert!(inv.flop.is_none());
    }
}
