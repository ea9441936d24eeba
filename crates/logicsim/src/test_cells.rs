//! A small test library: an inverter, a two-input NAND and a D flip-flop.

use liberty::{
    BoolExpr, Cell, CellClass, InputPin, Library, OutputPin, Table2d, TimingArc, TimingSense,
};

fn nand_cell() -> Cell {
    let t = Table2d::constant(20e-12, 4e-15, 10e-12);
    Cell {
        name: "NAND2_X1".into(),
        area: 1.0,
        class: CellClass::Combinational,
        inputs: vec![
            InputPin { name: "A".into(), capacitance: 1e-15 },
            InputPin { name: "B".into(), capacitance: 1e-15 },
        ],
        outputs: vec![OutputPin {
            name: "Y".into(),
            function: BoolExpr::parse("!(A & B)").unwrap(),
            max_capacitance: 30e-15,
            arcs: vec![arc("A", &t), arc("B", &t)],
        }],
    }
}

fn arc(pin: &str, t: &Table2d) -> TimingArc {
    TimingArc {
        related_pin: pin.into(),
        sense: TimingSense::NegativeUnate,
        cell_rise: t.clone(),
        cell_fall: t.clone(),
        rise_transition: t.clone(),
        fall_transition: t.clone(),
    }
}

fn flop_cell() -> Cell {
    let t = Table2d::constant(20e-12, 4e-15, 40e-12);
    Cell {
        name: "DFF_X1".into(),
        area: 4.0,
        class: CellClass::Flop { clock: "CK".into(), data: "D".into(), setup: 20e-12, hold: 2e-12 },
        inputs: vec![
            InputPin { name: "D".into(), capacitance: 1e-15 },
            InputPin { name: "CK".into(), capacitance: 1e-15 },
        ],
        outputs: vec![OutputPin {
            name: "Q".into(),
            function: BoolExpr::var("D"),
            max_capacitance: 30e-15,
            arcs: vec![arc("CK", &t)],
        }],
    }
}

/// `INV_X1`, `NAND2_X1` (pins A, B → Y) and `DFF_X1` (D, CK → Q).
pub(crate) fn lib() -> Library {
    let mut lib = Library::new("l", 1.2);
    lib.add_cell(Cell::test_inverter("INV_X1"));
    lib.add_cell(nand_cell());
    lib.add_cell(flop_cell());
    lib
}
