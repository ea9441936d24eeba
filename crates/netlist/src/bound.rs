//! A netlist bound to one library: validated once, laid out densely.
//!
//! Timing analysis, gate-level simulation and sizing all need the same
//! facts about a (netlist, library) pair: which cell each instance uses,
//! which net sits on each cell pin, who drives and who reads each net, and
//! an evaluation order of the combinational logic. [`Bound::new`] derives
//! them in one walk, making exactly [`Netlist::validate`]'s checks, and one
//! Kahn pass; the tools build their own tables (arcs, truth tables) on top.

use crate::{InstId, NetId, Netlist, NetlistError, PortDir};
use liberty::{Cell, CellClass, CellId, Library};
use std::collections::VecDeque;

/// An absent net or driver, or a connection that names no cell input.
const NONE: u32 = u32::MAX;
/// The driver of a net that a primary input port drives.
const PORT: u32 = u32::MAX - 1;

/// Narrows a table index to the `u32` the dense tables store.
#[allow(clippy::cast_possible_truncation)]
fn ix(i: usize) -> u32 {
    i as u32
}

/// A [`Netlist`] validated against one [`Library`] and compiled into dense
/// tables.
///
/// It holds [`CellId`]s rather than cells, so it borrows neither input;
/// every method that reads cell data takes the library it was bound to.
/// Instances and nets keep their netlist indices.
#[derive(Debug, Clone)]
pub struct Bound {
    /// The resolved cell of every instance.
    cells: Vec<CellId>,
    /// Per instance: where its pin table starts in `pins`, its input count
    /// and its output count. The table holds the net of each cell input,
    /// then of each cell output ([`NONE`] if unconnected), in the cell's
    /// pin order; validation guarantees every input is connected.
    pub(crate) pin_span: Vec<[u32; 3]>,
    pins: Vec<u32>,
    /// Per connection, instance-major (instance `k` owns
    /// `conn_base[k]..conn_base[k + 1]`): the index of the cell input its
    /// pin names, or [`NONE`] for an output pin.
    conn_base: Vec<u32>,
    conn_input: Vec<u32>,
    /// Per net (`sink_base[n]..sink_base[n + 1]`): the connections of input
    /// pins on it, as `(instance, connection)`, in instance and connection
    /// order.
    sink_base: Vec<u32>,
    sinks: Vec<(u32, u32)>,
    /// Per net: its driving instance, [`PORT`] or [`NONE`].
    driver: Vec<u32>,
    is_output: Vec<bool>,
    /// Evaluation order: stage 0 holds the flops, stage `L + 1` the
    /// combinational instances of logic level `L`, ascending id within a
    /// stage (`order[stage_base[s]..stage_base[s + 1]]`). Every
    /// combinational sink of a stage's outputs sits at a later stage.
    stage_of: Vec<u32>,
    stage_base: Vec<u32>,
    order: Vec<u32>,
}

impl Bound {
    /// Binds `netlist` to `library`.
    ///
    /// # Errors
    ///
    /// Returns the first error [`Netlist::validate`] reports, or
    /// [`NetlistError::CombinationalLoop`] naming an instance on a cycle of
    /// combinational logic.
    pub fn new(netlist: &Netlist, library: &Library) -> Result<Self, NetlistError> {
        let mut b = Self::walk(netlist, library)?;
        let (conn_base, conn_input) = (&b.conn_base, &b.conn_input);
        let input_pins = netlist.instances.iter().enumerate().flat_map(|(k, inst)| {
            let lo = conn_base[k] as usize;
            inst.connections
                .iter()
                .enumerate()
                .filter(move |&(c, _)| conn_input[lo + c] != NONE)
                .map(move |(c, (_, net))| (net.0, (ix(k), ix(c))))
        });
        (b.sink_base, b.sinks) = group(b.driver.len(), input_pins);
        b.levelize(netlist, library)?;
        Ok(b)
    }

    /// [`Netlist::validate`]'s walk: resolves every cell, checks every pin
    /// and driver in instance and connection order, and fills the cell,
    /// pin, connection and driver tables.
    pub(crate) fn walk(netlist: &Netlist, library: &Library) -> Result<Self, NetlistError> {
        let n_nets = netlist.net_count();
        let n_inst = netlist.instance_count();
        let mut b = Bound {
            cells: Vec::with_capacity(n_inst),
            pin_span: Vec::with_capacity(n_inst),
            pins: Vec::new(),
            conn_base: Vec::with_capacity(n_inst + 1),
            conn_input: Vec::new(),
            sink_base: Vec::new(),
            sinks: Vec::new(),
            driver: vec![NONE; n_nets],
            is_output: vec![false; n_nets],
            stage_of: Vec::new(),
            stage_base: Vec::new(),
            order: Vec::new(),
        };
        for port in netlist.ports() {
            match port.dir {
                PortDir::Input => b.driver[port.net.0] = PORT,
                PortDir::Output => b.is_output[port.net.0] = true,
            }
        }
        b.conn_base.push(0);
        for (k, inst) in netlist.instances().iter().enumerate() {
            let id = library.cell_id(&inst.cell).ok_or_else(|| NetlistError::UnknownCell {
                instance: inst.name.clone(),
                cell: inst.cell.clone(),
            })?;
            let cell = library.cell_at(id);
            for (pin, net) in &inst.connections {
                let input = input_index(cell, pin);
                let is_output = cell.output(pin).is_some();
                if input == NONE && !is_output {
                    return Err(NetlistError::UnknownPin {
                        instance: inst.name.clone(),
                        cell: inst.cell.clone(),
                        pin: pin.clone(),
                    });
                }
                if is_output {
                    let first = match b.driver[net.0] {
                        NONE => None,
                        // The last input port on the net, as validation
                        // records ports in port order.
                        PORT => netlist
                            .ports()
                            .iter()
                            .rev()
                            .find(|p| p.dir == PortDir::Input && p.net == *net)
                            .map(|p| format!("port {}", p.name)),
                        d => Some(netlist.instances[d as usize].name.clone()),
                    };
                    if let Some(first) = first {
                        return Err(NetlistError::MultipleDrivers {
                            net: netlist.net_name(*net).to_owned(),
                            first,
                            second: inst.name.clone(),
                        });
                    }
                    b.driver[net.0] = ix(k);
                }
                b.conn_input.push(input);
            }
            b.conn_base.push(ix(b.conn_input.len()));
            if let Some(pin) = cell.inputs.iter().find(|p| inst.net_on(&p.name).is_none()) {
                return Err(NetlistError::UnconnectedPin {
                    instance: inst.name.clone(),
                    pin: pin.name.clone(),
                });
            }
            b.cells.push(id);
            b.pin_span.push([0; 3]);
            b.place_pins(inst, cell, k);
        }
        Ok(b)
    }

    /// Writes instance `k`'s pin table, in place when the old one is large
    /// enough.
    fn place_pins(&mut self, inst: &crate::Instance, cell: &Cell, k: usize) {
        let net_on = |pin: &str| inst.net_on(pin).map_or(NONE, |n| ix(n.0));
        let start = self.pins.len();
        self.pins.extend(cell.inputs.iter().map(|p| net_on(&p.name)));
        self.pins.extend(cell.outputs.iter().map(|p| net_on(&p.name)));
        let [base, n_in, n_out] = &mut self.pin_span[k];
        if self.pins.len() - start <= (*n_in + *n_out) as usize {
            self.pins.copy_within(start.., *base as usize);
            self.pins.truncate(start);
        } else {
            *base = ix(start);
        }
        *n_in = ix(cell.inputs.len());
        *n_out = ix(cell.outputs.len());
    }

    /// Sorts instances into stages (see `order`) by one Kahn pass over the
    /// combinational instances.
    fn levelize(&mut self, netlist: &Netlist, library: &Library) -> Result<(), NetlistError> {
        let n_inst = self.cells.len();
        let comb: Vec<bool> = self
            .cells
            .iter()
            .map(|&c| matches!(library.cell_at(c).class, CellClass::Combinational))
            .collect();
        let comb_driver = |driver: &[u32], net: usize| {
            let d = driver[net];
            (d < PORT && comb[d as usize]).then_some(d as usize)
        };
        let (conn_base, conn_input) = (&self.conn_base, &self.conn_input);
        let input_nets = |k: usize| {
            let lo = conn_base[k] as usize;
            netlist.instances[k]
                .connections
                .iter()
                .enumerate()
                .filter(move |&(c, _)| conn_input[lo + c] != NONE)
                .map(|(_, (_, net))| net.0)
        };
        // Per combinational instance: its input connections on nets that a
        // combinational instance drives and that are not levelized yet.
        let mut waiting = vec![0u32; n_inst];
        let mut ready: VecDeque<usize> = VecDeque::new();
        for k in (0..n_inst).filter(|&k| comb[k]) {
            waiting[k] =
                ix(input_nets(k).filter(|&n| comb_driver(&self.driver, n).is_some()).count());
            if waiting[k] == 0 {
                ready.push_back(k);
            }
        }
        // A combinational instance sits one level above its deepest input
        // net; nets without a combinational driver are level 0.
        let mut stage_of = vec![0u32; n_inst];
        let mut net_level = vec![0u32; self.driver.len()];
        let mut deepest = 0u32;
        while let Some(k) = ready.pop_front() {
            let level = input_nets(k).map(|n| net_level[n]).max().unwrap_or(0);
            stage_of[k] = level + 1;
            deepest = deepest.max(level + 1);
            for (_, net) in &netlist.instances[k].connections {
                if self.driver[net.0] != ix(k) {
                    continue;
                }
                net_level[net.0] = level + 1;
                for &(sink, _) in
                    &self.sinks[self.sink_base[net.0] as usize..self.sink_base[net.0 + 1] as usize]
                {
                    let sink = sink as usize;
                    if comb[sink] {
                        waiting[sink] -= 1;
                        if waiting[sink] == 0 {
                            ready.push_back(sink);
                        }
                    }
                }
            }
        }
        if let Some(mut k) = (0..n_inst).find(|&k| comb[k] && stage_of[k] == 0) {
            // Every instance left over reads a net that another left-over
            // instance drives, or its count would have reached zero. Walking
            // those edges backwards must revisit an instance, and the first
            // one revisited lies on a cycle.
            let mut seen = vec![false; n_inst];
            while !seen[k] {
                seen[k] = true;
                let Some(prev) = input_nets(k)
                    .filter_map(|n| comb_driver(&self.driver, n))
                    .find(|&d| stage_of[d] == 0)
                else {
                    break;
                };
                k = prev;
            }
            return Err(NetlistError::CombinationalLoop {
                instance: netlist.instances[k].name.clone(),
            });
        }
        let stages = stage_of.iter().enumerate().map(|(k, &s)| (s as usize, ix(k)));
        (self.stage_base, self.order) = group(deepest as usize + 1, stages);
        self.stage_of = stage_of;
        Ok(())
    }

    /// Points instance `inst` at `cell` if the new cell keeps the bound
    /// structure: the same class (a flop keeping its clock and data pins),
    /// the same role for every connected pin, and every input connected.
    /// Then the netlist with `inst` renamed to `cell` binds to exactly these
    /// tables, so the instance's pin table is rewritten and `true`
    /// returned; otherwise nothing changes and the caller must bind anew.
    pub fn recell(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        inst: InstId,
        cell: CellId,
    ) -> bool {
        let k = inst.0;
        let instance = &netlist.instances[k];
        let (old, new) = (library.cell_at(self.cells[k]), library.cell_at(cell));
        let kind_ok = match (&old.class, &new.class) {
            (CellClass::Combinational, CellClass::Combinational) => true,
            (
                CellClass::Flop { clock: c0, data: d0, .. },
                CellClass::Flop { clock: c1, data: d1, .. },
            ) => c0 == c1 && d0 == d1,
            _ => false,
        };
        let roles = |c: &Cell, pin: &str| (c.input_cap(pin).is_some(), c.output(pin).is_some());
        let fits = kind_ok
            && instance.connections.iter().all(|(pin, _)| roles(old, pin) == roles(new, pin))
            && new.inputs.iter().all(|p| instance.net_on(&p.name).is_some());
        if !fits {
            return false;
        }
        self.cells[k] = cell;
        let lo = self.conn_base[k] as usize;
        for (c, (pin, _)) in instance.connections.iter().enumerate() {
            self.conn_input[lo + c] = input_index(new, pin);
        }
        self.place_pins(instance, new, k);
        true
    }

    /// The resolved cell of `inst`.
    #[must_use]
    #[inline]
    pub fn cell(&self, inst: InstId) -> CellId {
        self.cells[inst.0]
    }

    /// The nets on `inst`'s cell inputs, in the cell's pin order.
    #[inline]
    pub fn input_nets(&self, inst: InstId) -> impl ExactSizeIterator<Item = NetId> + '_ {
        let [base, n_in, _] = self.pin_span[inst.0];
        self.pins[base as usize..(base + n_in) as usize].iter().map(|&n| NetId(n as usize))
    }

    /// The net on input `pos` of `inst`'s cell.
    #[must_use]
    #[inline]
    pub fn input_net(&self, inst: InstId, pos: usize) -> NetId {
        NetId(self.pins[self.pin_span[inst.0][0] as usize + pos] as usize)
    }

    /// The nets on `inst`'s cell outputs, in the cell's pin order (`None`
    /// where unconnected).
    #[inline]
    pub fn output_nets(&self, inst: InstId) -> impl ExactSizeIterator<Item = Option<NetId>> + '_ {
        let [base, n_in, n_out] = self.pin_span[inst.0];
        let outputs = &self.pins[(base + n_in) as usize..(base + n_in + n_out) as usize];
        outputs.iter().map(|&n| (n != NONE).then_some(NetId(n as usize)))
    }

    /// The net on output `o` of `inst`'s cell, if connected.
    #[must_use]
    #[inline]
    pub fn output_net(&self, inst: InstId, o: usize) -> Option<NetId> {
        let [base, n_in, _] = self.pin_span[inst.0];
        let n = self.pins[(base + n_in) as usize + o];
        (n != NONE).then_some(NetId(n as usize))
    }

    /// The index of the cell input that connection `conn` of `inst` names,
    /// or `None` for an output pin.
    #[must_use]
    #[inline]
    pub fn connection_input(&self, inst: InstId, conn: usize) -> Option<usize> {
        let input = self.conn_input[self.conn_base[inst.0] as usize + conn];
        (input != NONE).then_some(input as usize)
    }

    /// The input connections on `net`, as `(instance, connection index)`, in
    /// instance and connection order.
    #[inline]
    pub fn sinks(&self, net: NetId) -> impl ExactSizeIterator<Item = (InstId, usize)> + '_ {
        let range = self.sink_base[net.0] as usize..self.sink_base[net.0 + 1] as usize;
        self.sinks[range].iter().map(|&(k, c)| (InstId(k as usize), c as usize))
    }

    /// The instance driving `net`, if one does.
    #[must_use]
    #[inline]
    pub fn driver(&self, net: NetId) -> Option<InstId> {
        let d = self.driver[net.0];
        (d < PORT).then_some(InstId(d as usize))
    }

    /// Total capacitive load of `net`: the input pins on it in sink order,
    /// the per-fanout wire model and `output_load` if it is a primary
    /// output.
    #[must_use]
    pub fn load(&self, library: &Library, net: NetId, output_load: f64) -> f64 {
        let mut load = 0.0;
        let mut fanout = 0usize;
        for (inst, conn) in self.sinks(net) {
            let input = self.conn_input[self.conn_base[inst.0] as usize + conn] as usize;
            load += library.cell_at(self.cells[inst.0]).inputs[input].capacitance;
            fanout += 1;
        }
        if self.is_output[net.0] {
            load += output_load;
            fanout += 1;
        }
        load + library.wire_cap_per_fanout * fanout as f64
    }

    /// Number of stages: the flop stage and one per logic level.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stage_base.len() - 1
    }

    /// The instances of stage `stage` in ascending id: the flops for stage
    /// 0, else the combinational instances of logic level `stage - 1`.
    pub fn stage(
        &self,
        stage: usize,
    ) -> impl DoubleEndedIterator<Item = InstId> + ExactSizeIterator + '_ {
        let range = self.stage_base[stage] as usize..self.stage_base[stage + 1] as usize;
        self.order[range].iter().map(|&k| InstId(k as usize))
    }

    /// The stage `inst` sits in.
    #[must_use]
    #[inline]
    pub fn stage_of(&self, inst: InstId) -> usize {
        self.stage_of[inst.0] as usize
    }
}

/// Counting-sorts `items` into `buckets` lists that keep item order:
/// bucket `b` is `values[base[b]..base[b + 1]]` of the returned
/// `(base, values)`.
fn group<T: Copy + Default>(
    buckets: usize,
    items: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut base = vec![0u32; buckets + 1];
    for (b, _) in items.clone() {
        base[b + 1] += 1;
    }
    for b in 0..buckets {
        base[b + 1] += base[b];
    }
    let mut fill = base.clone();
    let mut values = vec![T::default(); base[buckets] as usize];
    for (b, v) in items {
        values[fill[b] as usize] = v;
        fill[b] += 1;
    }
    (base, values)
}

/// The index of the first input of `cell` named `pin`, or [`NONE`].
fn input_index(cell: &Cell, pin: &str) -> u32 {
    cell.inputs.iter().position(|p| p.name == pin).map_or(NONE, ix)
}
