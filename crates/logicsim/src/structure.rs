//! The shared simulation structure: the netlist bound to its library, the
//! compiled cell of every instance and the boundary nets.

use crate::eval::CompiledCell;
use crate::SimError;
use liberty::{CellId, Library};
use netlist::{Bound, InstId, NetId, Netlist, PortDir};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

#[derive(Debug, Clone)]
pub(crate) struct SimStructure {
    /// The netlist bound to the library: pin nets, sinks and stages.
    pub bound: Bound,
    /// Per instance: its compiled cell, shared by every instance of it.
    pub cells: Vec<Arc<CompiledCell>>,
    pub n_nets: usize,
    /// Primary input nets in port order, the clock (if named) excluded.
    pub inputs: Vec<NetId>,
    pub clock_net: Option<NetId>,
    /// Primary output nets in port order.
    pub outputs: Vec<NetId>,
}

impl SimStructure {
    pub fn build(
        netlist: &Netlist,
        library: &Library,
        clock_port: Option<&str>,
    ) -> Result<Self, SimError> {
        let bound = Bound::new(netlist, library)?;
        let mut compiled: HashMap<CellId, Arc<CompiledCell>> = HashMap::new();
        let mut cells = Vec::with_capacity(netlist.instance_count());
        for id in netlist.instance_ids() {
            let cell = bound.cell(id);
            cells.push(match compiled.entry(cell) {
                Entry::Occupied(e) => Arc::clone(e.get()),
                Entry::Vacant(e) => {
                    Arc::clone(e.insert(Arc::new(CompiledCell::compile(library.cell_at(cell))?)))
                }
            });
        }

        let mut inputs = Vec::new();
        let mut clock_net = None;
        for port in netlist.ports() {
            if port.dir == PortDir::Input {
                if Some(port.name.as_str()) == clock_port {
                    clock_net = Some(port.net);
                } else {
                    inputs.push(port.net);
                }
            }
        }
        if clock_port.is_some() && clock_net.is_none() {
            return Err(SimError::BadClock { port: clock_port.unwrap_or("").to_owned() });
        }
        Ok(SimStructure {
            bound,
            cells,
            n_nets: netlist.net_count(),
            inputs,
            clock_net,
            outputs: netlist.output_nets().collect(),
        })
    }

    /// The flip-flops in id order (the binding's first stage).
    pub fn flops(&self) -> impl ExactSizeIterator<Item = InstId> + '_ {
        self.bound.stage(0)
    }

    /// The combinational instances in the binding's stage order: every
    /// instance after all drivers of its inputs.
    pub fn comb_order(&self) -> impl Iterator<Item = InstId> + '_ {
        (1..self.bound.stage_count()).flat_map(|s| self.bound.stage(s))
    }

    /// Packs the current input values of instance `k` into a truth-table row.
    #[inline]
    pub fn input_row(&self, k: InstId, values: &[bool]) -> usize {
        let mut row = 0usize;
        for (bit, net) in self.bound.input_nets(k).enumerate() {
            row |= usize::from(values[net.index()]) << bit;
        }
        row
    }

    /// Evaluates every output of combinational instance `k` from `values`
    /// and writes the results back (zero delay).
    #[inline]
    pub fn settle(&self, k: InstId, values: &mut [bool]) {
        let row = self.input_row(k, values);
        for (o, net) in self.bound.output_nets(k).enumerate() {
            if let Some(net) = net {
                values[net.index()] = self.cells[k.index()].eval(o, row);
            }
        }
    }

    /// The value flop `k` captures from `values`: its data net's.
    #[inline]
    pub fn captured(&self, k: InstId, values: &[bool]) -> Option<bool> {
        let (_, data) = self.cells[k.index()].flop?;
        Some(values[self.bound.input_net(k, data?).index()])
    }
}
