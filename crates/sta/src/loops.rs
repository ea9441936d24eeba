//! Standalone combinational-loop detection.
//!
//! This pass is total: it runs on netlists that fail validation, which is
//! what the `relialint` pre-flight checks and the `dataflow` engine need.
//! [`analyze`](crate::analyze) reports a loop through the levelization of
//! [`netlist::Bound`] instead, naming one instance on the cycle.

use liberty::Library;
use netlist::{InstId, Netlist};

/// Finds all combinational cycles of `netlist` against `library`.
///
/// Returns one entry per strongly connected component of the
/// combinational instance graph that contains a cycle (more than one
/// instance, or a single instance feeding itself), in instance order.
/// Sequential cells break cycles: a flop's output launches a new signal,
/// so register feedback is not a combinational loop.
///
/// Instances whose cell (or pins) the library does not know contribute no
/// edges — unknown-cell reporting is a separate concern, and this pass
/// stays total so every check can run on partially broken inputs.
#[must_use]
pub fn combinational_loops(netlist: &Netlist, library: &Library) -> Vec<Vec<InstId>> {
    let n = netlist.instance_count();
    // Net → driving combinational instance.
    let mut driver_of_net: Vec<Option<usize>> = vec![None; netlist.net_count()];
    let mut combinational = vec![false; n];
    for (k, inst) in netlist.instances().iter().enumerate() {
        let Some(cell) = library.cell(&inst.cell) else { continue };
        if cell.is_sequential() {
            continue;
        }
        combinational[k] = true;
        for (pin, net) in &inst.connections {
            if cell.output(pin).is_some() {
                driver_of_net[net.index()] = Some(k);
            }
        }
    }

    // Edges: driving instance → sink instance, via input pins.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, inst) in netlist.instances().iter().enumerate() {
        if !combinational[k] {
            continue;
        }
        let Some(cell) = library.cell(&inst.cell) else { continue };
        for (pin, net) in &inst.connections {
            if cell.input_cap(pin).is_some() {
                if let Some(driver) = driver_of_net[net.index()] {
                    succ[driver].push(k);
                }
            }
        }
    }

    tarjan_cyclic_sccs(&succ, &combinational)
        .into_iter()
        .map(|scc| scc.into_iter().map(InstId::from_index).collect())
        .collect()
}

/// Iterative Tarjan SCC restricted to `active` nodes; returns only the
/// components that contain a cycle, each sorted ascending.
fn tarjan_cyclic_sccs(succ: &[Vec<usize>], active: &[bool]) -> Vec<Vec<usize>> {
    let n = succ.len();
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS state: (node, next successor position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if !active[root] || index[root] != UNSEEN {
            continue;
        }
        call_stack.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if !active[w] {
                    continue;
                }
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let Some(w) = stack.pop() else { unreachable!("SCC stack underflow") };
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = scc.len() > 1 || succ[v].contains(&v);
                    if cyclic {
                        scc.sort_unstable();
                        out.push(scc);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::{
        BoolExpr, Cell, CellClass, InputPin, OutputPin, Table2d, TimingArc, TimingSense,
    };
    use netlist::PortDir;

    fn nand_cell() -> Cell {
        let t = Table2d::constant(20e-12, 4e-15, 30e-12);
        let arc = |pin: &str| TimingArc {
            related_pin: pin.into(),
            sense: TimingSense::NegativeUnate,
            cell_rise: t.clone(),
            cell_fall: t.clone(),
            rise_transition: t.clone(),
            fall_transition: t.clone(),
        };
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
                arcs: vec![arc("A"), arc("B")],
            }],
        }
    }

    fn flop_cell() -> Cell {
        let t = Table2d::constant(20e-12, 4e-15, 50e-12);
        Cell {
            name: "DFF_X1".into(),
            area: 4.0,
            class: CellClass::Flop {
                clock: "CK".into(),
                data: "D".into(),
                setup: 30e-12,
                hold: 5e-12,
            },
            inputs: vec![
                InputPin { name: "D".into(), capacitance: 1.2e-15 },
                InputPin { name: "CK".into(), capacitance: 0.8e-15 },
            ],
            outputs: vec![OutputPin {
                name: "Q".into(),
                function: BoolExpr::var("D"),
                max_capacitance: 30e-15,
                arcs: vec![TimingArc {
                    related_pin: "CK".into(),
                    sense: TimingSense::PositiveUnate,
                    cell_rise: t.clone(),
                    cell_fall: t.clone(),
                    rise_transition: t.clone(),
                    fall_transition: t,
                }],
            }],
        }
    }

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib.add_cell(nand_cell());
        lib.add_cell(flop_cell());
        lib
    }

    #[test]
    fn clean_chain_has_no_loops() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        assert!(combinational_loops(&nl, &lib()).is_empty());
    }

    #[test]
    fn two_gate_loop_found() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_instance("u0", "NAND2_X1", &[("A", a), ("B", n2), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", n2)]);
        let loops = combinational_loops(&nl, &lib());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0], vec![InstId::from_index(0), InstId::from_index(1)]);
    }

    #[test]
    fn downstream_of_loop_not_reported() {
        // u2 hangs off the loop but is not part of it.
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_instance("u0", "NAND2_X1", &[("A", a), ("B", n2), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", n2)]);
        nl.add_instance("u2", "INV_X1", &[("A", n2), ("Y", y)]);
        let loops = combinational_loops(&nl, &lib());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 2);
        assert!(!loops[0].contains(&InstId::from_index(2)));
    }

    #[test]
    fn flop_breaks_loop() {
        // Register feedback: NAND → DFF → back to NAND. Not combinational.
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let clk = nl.add_port("clk", PortDir::Input);
        let d = nl.add_net("d");
        let q = nl.add_net("q");
        nl.add_instance("g", "NAND2_X1", &[("A", a), ("B", q), ("Y", d)]);
        nl.add_instance("ff", "DFF_X1", &[("D", d), ("CK", clk), ("Q", q)]);
        assert!(combinational_loops(&nl, &lib()).is_empty());
    }

    #[test]
    fn two_disjoint_loops_both_found() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let mut mk_loop = |tag: &str| {
            let n1 = nl.add_net(&format!("{tag}_n1"));
            let n2 = nl.add_net(&format!("{tag}_n2"));
            nl.add_instance(&format!("{tag}_u0"), "NAND2_X1", &[("A", a), ("B", n2), ("Y", n1)]);
            nl.add_instance(&format!("{tag}_u1"), "INV_X1", &[("A", n1), ("Y", n2)]);
        };
        mk_loop("x");
        mk_loop("y");
        assert_eq!(combinational_loops(&nl, &lib()).len(), 2);
    }

    #[test]
    fn unknown_cells_are_ignored() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "MYSTERY_X1", &[("A", a), ("Y", n1)]);
        assert!(combinational_loops(&nl, &lib()).is_empty());
    }
}
