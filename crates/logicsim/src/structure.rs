//! The shared simulation structure: compiled instances, net fanout lists
//! and a topological order of the combinational logic.

use crate::eval::{CompiledCell, CompiledLib};
use crate::SimError;
use liberty::Library;
use netlist::{NetId, Netlist, PortDir};
use std::sync::Arc;

#[derive(Debug, Clone)]
pub(crate) struct SimInst {
    pub cell: Arc<CompiledCell>,
    /// Net per compiled input position.
    pub input_nets: Vec<NetId>,
    /// Net per compiled output position (`None` for unconnected outputs).
    pub output_nets: Vec<Option<NetId>>,
    /// Input/output pin names per position mirror `cell.inputs`/`cell.outputs`.
    pub is_flop: bool,
    /// For flops: compiled input position of the data pin.
    pub data_pos: Option<usize>,
}

#[derive(Debug, Clone)]
pub(crate) struct SimStructure {
    pub n_nets: usize,
    /// Primary input nets in port order, the clock (if named) excluded.
    pub inputs: Vec<NetId>,
    pub clock_net: Option<NetId>,
    /// Primary output nets in port order.
    pub outputs: Vec<NetId>,
    pub insts: Vec<SimInst>,
    /// Indices into `insts`, combinational only, topologically ordered.
    pub comb_order: Vec<usize>,
    /// Indices into `insts` of flip-flops.
    pub flops: Vec<usize>,
    /// Per net: `(instance index, compiled input position)` sinks.
    pub net_sinks: Vec<Vec<(usize, usize)>>,
}

impl SimStructure {
    pub fn build(
        netlist: &Netlist,
        library: &Library,
        clock_port: Option<&str>,
    ) -> Result<Self, SimError> {
        netlist.validate(library)?;
        let compiled = CompiledLib::compile(library)?;

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
        let outputs: Vec<NetId> = netlist.output_nets().collect();

        let mut insts = Vec::with_capacity(netlist.instance_count());
        let mut net_sinks: Vec<Vec<(usize, usize)>> = vec![Vec::new(); netlist.net_count()];
        let mut flops = Vec::new();
        for (k, inst) in netlist.instances().iter().enumerate() {
            let cell = Arc::clone(&compiled.cells[&inst.cell]);
            let input_nets: Vec<NetId> = cell
                .inputs
                .iter()
                .map(|pin| inst.net_on(pin).expect("validated: inputs connected"))
                .collect();
            let output_nets: Vec<Option<NetId>> =
                cell.outputs.iter().map(|(pin, _)| inst.net_on(pin)).collect();
            for (pos, net) in input_nets.iter().enumerate() {
                net_sinks[net.index()].push((k, pos));
            }
            let is_flop = cell.flop.is_some();
            let data_pos =
                cell.flop.as_ref().and_then(|(_, data)| cell.inputs.iter().position(|p| p == data));
            if is_flop {
                flops.push(k);
            }
            insts.push(SimInst { cell, input_nets, output_nets, is_flop, data_pos });
        }

        // Topological order of combinational instances (Kahn).
        let mut resolved = vec![false; netlist.net_count()];
        let drivers = netlist.drivers(library)?;
        for (k, r) in resolved.iter_mut().enumerate() {
            if !drivers.contains_key(&NetId::from_index(k)) {
                *r = true;
            }
        }
        for &f in &flops {
            for net in insts[f].output_nets.iter().flatten() {
                resolved[net.index()] = true;
            }
        }
        let mut remaining: Vec<usize> = (0..insts.len()).filter(|&k| !insts[k].is_flop).collect();
        let mut comb_order = Vec::with_capacity(remaining.len());
        loop {
            let before = remaining.len();
            remaining.retain(|&k| {
                let ready = insts[k].input_nets.iter().all(|n| resolved[n.index()]);
                if ready {
                    for net in insts[k].output_nets.iter().flatten() {
                        resolved[net.index()] = true;
                    }
                    comb_order.push(k);
                }
                !ready
            });
            if remaining.is_empty() {
                break;
            }
            if remaining.len() == before {
                return Err(SimError::CombinationalLoop {
                    instance: netlist
                        .instance(netlist::InstId::from_index(remaining[0]))
                        .name
                        .clone(),
                });
            }
        }
        Ok(SimStructure {
            n_nets: netlist.net_count(),
            inputs,
            clock_net,
            outputs,
            insts,
            comb_order,
            flops,
            net_sinks,
        })
    }

    /// Packs the current input values of instance `k` into a truth-table row.
    #[inline]
    pub fn input_row(&self, k: usize, values: &[bool]) -> usize {
        let mut row = 0usize;
        for (bit, net) in self.insts[k].input_nets.iter().enumerate() {
            row |= usize::from(values[net.index()]) << bit;
        }
        row
    }
}
