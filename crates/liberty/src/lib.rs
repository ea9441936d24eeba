#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! NLDM timing-library model with a Liberty-subset text format.
//!
//! This crate plays the role of the Liberty (`.lib`) infrastructure in the
//! paper's flow: non-linear delay-model lookup tables indexed by input slew
//! and output load (the *operating conditions*, OPCs, central to the paper),
//! cells with per-arc rise/fall delay and output-slew tables, boolean pin
//! functions, and the merge/index scheme of Sec. 4.1 that combines the
//! per-(λp, λn) degradation-aware libraries into one *complete* library with
//! cells renamed like `NAND2_X1_0.40_0.60`.
//!
//! A writer and parser for a Liberty-style text subset make libraries
//! persistent — characterized libraries are cached on disk in this format.
//!
//! # Example
//!
//! ```
//! use liberty::{BoolExpr, Table2d};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = BoolExpr::parse("!(A1 & A2)")?; // a NAND2
//! assert!(f.eval(&|pin: &str| pin == "A1")); // A1=1, A2=0 → Y=1
//!
//! let t = Table2d::new(
//!     vec![5e-12, 100e-12],
//!     vec![0.5e-15, 20e-15],
//!     vec![10e-12, 30e-12, 15e-12, 45e-12],
//! )?;
//! let mid = t.value(50e-12, 10e-15);
//! assert!(mid > 10e-12 && mid < 45e-12);
//! # Ok(())
//! # }
//! ```

mod cell;
mod check;
mod error;
mod expr;
mod format;
mod merge;
mod table;

pub use cell::{Cell, CellClass, InputPin, OutputPin, TimingArc, TimingSense};
pub use check::{IssueKind, LibraryIssue};
pub use error::{LibertyError, ParseExprError, TableError};
pub use expr::BoolExpr;
pub use format::{parse_library, write_library};
pub use merge::{merge_indexed, split_lambda_tag, LambdaTag};
pub use table::Table2d;

use std::collections::BTreeMap;

/// A timing library: a named set of characterized cells plus the shared
/// environment (supply voltage, default slew/load assumptions, a simple
/// per-fanout wire-load model).
///
/// Cells are stored by exact name; degradation-aware merged libraries store
/// many λ-indexed variants of each base cell (see [`merge_indexed`]). Each
/// cell also has a dense [`CellId`], so a compiled consumer (the timing
/// graph of the `sta` crate) can hold resolved cells without borrowing.
#[derive(Clone)]
pub struct Library {
    /// Library name, e.g. `aged_1.00_1.00`.
    pub name: String,
    /// Supply voltage the cells were characterized at.
    pub vdd: f64,
    /// Input slew assumed at primary inputs during STA (seconds).
    pub default_input_slew: f64,
    /// Load assumed at primary outputs during STA (farad).
    pub default_output_load: f64,
    /// Extra wire capacitance added per fanout pin (farad) — a minimal
    /// wire-load model.
    pub wire_cap_per_fanout: f64,
    /// Cells in insertion order; `by_name[c.name]` is the index of `c`.
    cells: Vec<Cell>,
    by_name: BTreeMap<String, usize>,
}

/// Dense handle of a cell within one [`Library`], from
/// [`Library::cell_id`]. It stays valid until that library's next
/// [`Library::remove_cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(usize);

impl Library {
    /// Creates an empty library named `name`, characterized at `vdd`.
    #[must_use]
    pub fn new(name: &str, vdd: f64) -> Self {
        Library {
            name: name.to_owned(),
            vdd,
            default_input_slew: 20.0e-12,
            default_output_load: 4.0e-15,
            wire_cap_per_fanout: 0.2e-15,
            cells: Vec::new(),
            by_name: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a cell, returning the previous cell of that name.
    /// A replaced cell keeps its [`CellId`].
    pub fn add_cell(&mut self, cell: Cell) -> Option<Cell> {
        match self.by_name.get(&cell.name) {
            Some(&i) => Some(std::mem::replace(&mut self.cells[i], cell)),
            None => {
                self.by_name.insert(cell.name.clone(), self.cells.len());
                self.cells.push(cell);
                None
            }
        }
    }

    /// Looks up a cell by exact name.
    #[must_use]
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.by_name.get(name).map(|&i| &self.cells[i])
    }

    /// The dense handle of the cell named `name`.
    #[must_use]
    pub fn cell_id(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).map(|&i| CellId(i))
    }

    /// The cell behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library (or a clone of it)
    /// since its last [`Library::remove_cell`].
    #[must_use]
    pub fn cell_at(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// Iterates over all cells in name order.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.by_name.values().map(|&i| &self.cells[i])
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All cells whose λ-stripped base name equals `base` (see
    /// [`split_lambda_tag`]); used on merged complete libraries.
    pub fn cells_with_base<'a>(&'a self, base: &'a str) -> impl Iterator<Item = &'a Cell> + 'a {
        self.cells().filter(move |c| split_lambda_tag(&c.name).0 == base)
    }

    /// Removes a cell by name. The last-added cell takes over the removed
    /// cell's [`CellId`].
    pub fn remove_cell(&mut self, name: &str) -> Option<Cell> {
        let i = self.by_name.remove(name)?;
        let cell = self.cells.swap_remove(i);
        if let Some(moved) = self.cells.get(i) {
            if let Some(slot) = self.by_name.get_mut(&moved.name) {
                *slot = i;
            }
        }
        Some(cell)
    }
}

/// Equal when the environment and the name-ordered cells are equal, in
/// whatever order the cells were added.
impl PartialEq for Library {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.vdd == other.vdd
            && self.default_input_slew == other.default_input_slew
            && self.default_output_load == other.default_output_load
            && self.wire_cap_per_fanout == other.wire_cap_per_fanout
            && self.cells().eq(other.cells())
    }
}

/// Lists the cells as a name-ordered map, whatever order they were added in.
impl std::fmt::Debug for Library {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Cells<'a>(&'a Library);
        impl std::fmt::Debug for Cells<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.cells().map(|c| (&c.name, c))).finish()
            }
        }
        f.debug_struct("Library")
            .field("name", &self.name)
            .field("vdd", &self.vdd)
            .field("default_input_slew", &self.default_input_slew)
            .field("default_output_load", &self.default_output_load)
            .field("wire_cap_per_fanout", &self.wire_cap_per_fanout)
            .field("cells", &Cells(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_library() {
        let lib = Library::new("test", 1.2);
        assert!(lib.is_empty());
        assert_eq!(lib.len(), 0);
        assert_eq!(lib.cell("INV_X1"), None);
    }

    #[test]
    fn add_and_lookup() {
        let mut lib = Library::new("test", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        assert_eq!(lib.len(), 1);
        assert!(lib.cell("INV_X1").is_some());
        assert!(!lib.is_empty());
        let replaced = lib.add_cell(Cell::test_inverter("INV_X1"));
        assert!(replaced.is_some());
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn cell_ids_resolve_and_survive_removal() {
        let mut lib = Library::new("test", 1.2);
        for name in ["INV_X2", "INV_X1", "INV_X4"] {
            lib.add_cell(Cell::test_inverter(name));
        }
        for name in ["INV_X1", "INV_X2", "INV_X4"] {
            let id = lib.cell_id(name).unwrap();
            assert_eq!(lib.cell_at(id).name, name);
        }
        assert_eq!(lib.cell_id("NAND2_X1"), None);
        let names: Vec<&str> = lib.cells().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["INV_X1", "INV_X2", "INV_X4"]);
        assert_eq!(lib.remove_cell("INV_X2").unwrap().name, "INV_X2");
        assert_eq!(lib.remove_cell("INV_X2"), None);
        assert_eq!(lib.len(), 2);
        for name in ["INV_X1", "INV_X4"] {
            assert_eq!(lib.cell_at(lib.cell_id(name).unwrap()).name, name);
        }
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Library::new("test", 1.2);
        let mut b = Library::new("test", 1.2);
        a.add_cell(Cell::test_inverter("INV_X1"));
        a.add_cell(Cell::test_inverter("INV_X2"));
        b.add_cell(Cell::test_inverter("INV_X2"));
        b.add_cell(Cell::test_inverter("INV_X1"));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.add_cell(Cell::test_inverter("INV_X4"));
        assert_ne!(a, b);
    }

    #[test]
    fn base_name_filter() {
        let mut lib = Library::new("merged", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1_0.00_0.00"));
        lib.add_cell(Cell::test_inverter("INV_X1_1.00_1.00"));
        lib.add_cell(Cell::test_inverter("INV_X2_1.00_1.00"));
        assert_eq!(lib.cells_with_base("INV_X1").count(), 2);
        assert_eq!(lib.cells_with_base("INV_X2").count(), 1);
        assert_eq!(lib.cells_with_base("NAND2_X1").count(), 0);
    }
}
