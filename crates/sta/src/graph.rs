//! The compiled timing graph and its one levelized propagation loop.
//!
//! [`TimingGraph::build`] binds a netlist to a library ([`Bound`]: the
//! resolved cell of every instance, the net behind every cell pin, per-net
//! sinks and drivers and a levelized evaluation order) and compiles the
//! timing tables on top once: the arc index behind every (output, input)
//! pair, every net's load and the back-edge ranges. [`analyze`] and the
//! incremental engine in [`crate::incremental`] both run
//! [`TimingGraph::propagate`] on it — the same arc iteration in the same
//! order — which is what makes incremental results bit-identical to a full
//! [`analyze`] rather than merely close.

use crate::path::{PathSpec, PathStep};
use crate::report::{Endpoint, EndpointKind, TimingReport};
use crate::{Constraints, StaError};
use liberty::{CellClass, CellId, Library, TimingSense};
use netlist::{ArcDelays, Bound, DelayAnnotation, InstId, NetId, Netlist};

/// A missing arc, clock input or data net in the dense tables.
const NONE: u32 = u32::MAX;
/// The arc slot of an input its output does not depend on.
const SKIP: u32 = u32::MAX - 1;
/// The input of a flop launch: the flop's clock pin.
const CLOCK: u32 = u32::MAX;

/// Narrows a table index to the `u32` the dense tables store.
#[allow(clippy::cast_possible_truncation)]
fn ix(i: usize) -> u32 {
    i as u32
}

/// The predecessor of a net's worst edge: which arc of which instance set
/// it, by pin index into the instance's cell. Names are looked up only when
/// the critical path is extracted.
#[derive(Debug, Clone, Copy)]
struct Pred {
    inst: u32,
    /// Index into the cell's inputs, or [`CLOCK`] for a flop launch.
    input: u32,
    /// Index into the cell's outputs.
    output: u32,
    input_rising: bool,
    delay: f64,
}

/// One timing edge, replayed in reverse evaluation order by the
/// required-time pass.
#[derive(Debug, Clone, Copy)]
struct BackEdge {
    out_net: u32,
    in_net: u32,
    out_rising: bool,
    in_rising: bool,
    delay: f64,
}

/// The per-net forward state of an analysis: worst/earliest arrivals, slews
/// and worst-path predecessors for both edge polarities.
#[derive(Debug)]
struct NetState {
    arrival_rise: Vec<f64>,
    arrival_fall: Vec<f64>,
    min_rise: Vec<f64>,
    min_fall: Vec<f64>,
    slew_rise: Vec<f64>,
    slew_fall: Vec<f64>,
    pred_rise: Vec<Option<Pred>>,
    pred_fall: Vec<Option<Pred>>,
}

/// The new state of one output net, as one evaluation computed it.
struct NetValue {
    arrival: [f64; 2],
    min: [f64; 2],
    slew: [f64; 2],
    pred: [Option<Pred>; 2],
}

impl NetState {
    /// State before any instance has been evaluated: every net launches at
    /// t = 0 with the boundary input slew.
    fn fresh(n_nets: usize, input_slew: f64) -> Self {
        NetState {
            arrival_rise: vec![0.0; n_nets],
            arrival_fall: vec![0.0; n_nets],
            min_rise: vec![0.0; n_nets],
            min_fall: vec![0.0; n_nets],
            slew_rise: vec![input_slew; n_nets],
            slew_fall: vec![input_slew; n_nets],
            pred_rise: vec![None; n_nets],
            pred_fall: vec![None; n_nets],
        }
    }

    /// Stores `v` as net `i`'s state and reports whether any of the six
    /// values changed bits. Bitwise equality is the propagation criterion:
    /// predecessors are a deterministic function of the same inputs, so
    /// equal values imply equal downstream state.
    fn set(&mut self, i: usize, v: NetValue) -> bool {
        let old = [
            self.arrival_rise[i],
            self.arrival_fall[i],
            self.min_rise[i],
            self.min_fall[i],
            self.slew_rise[i],
            self.slew_fall[i],
        ];
        let new = [v.arrival[0], v.arrival[1], v.min[0], v.min[1], v.slew[0], v.slew[1]];
        [self.arrival_rise[i], self.arrival_fall[i]] = v.arrival;
        [self.min_rise[i], self.min_fall[i]] = v.min;
        [self.slew_rise[i], self.slew_fall[i]] = v.slew;
        [self.pred_rise[i], self.pred_fall[i]] = v.pred;
        old.iter().zip(&new).any(|(a, b)| a.to_bits() != b.to_bits())
    }
}

/// A netlist bound to one library and compiled against one constraint set,
/// with the forward timing state propagated over it.
///
/// Structure (sinks, drivers, levels) lives in the [`Bound`] and depends on
/// the netlist and the pin roles of its cells only, so an instance can be
/// re-celled in place as long as every connected pin keeps its role
/// ([`Self::recell`]).
#[derive(Debug)]
pub(crate) struct TimingGraph {
    input_slew: f64,
    output_load: f64,
    bound: Bound,
    /// Per instance: where its arc slots start in `slots`, and how many
    /// there are. A flop holds the index of its clock input ([`NONE`] if
    /// the clock is no input), then per output the index of its clock arc
    /// in the output's `arcs`; a combinational cell one slot per (output,
    /// input) pair. A slot indexes the output's `arcs`, or is [`SKIP`] or
    /// [`NONE`] (missing).
    slot_base: Vec<u32>,
    slot_len: Vec<u32>,
    slots: Vec<u32>,
    /// Per instance: where its back edges start in `edges`, how many fit
    /// and how many its last evaluation wrote.
    edge_base: Vec<u32>,
    edge_cap: Vec<u32>,
    edge_len: Vec<u32>,
    edges: Vec<BackEdge>,
    /// Per net: total capacitive load, as [`Bound::load`] sums it.
    loads: Vec<f64>,
    /// Primary output nets in port order.
    output_ports: Vec<u32>,
    /// Flops in id order with their data net ([`NONE`] if the data pin is
    /// no input).
    flops: Vec<(u32, u32)>,
    /// Instances waiting for evaluation, per stage of the [`Bound`].
    pending: Vec<Vec<u32>>,
    queued: Vec<bool>,
    state: NetState,
}

impl TimingGraph {
    /// Binds `netlist` to `library`, compiles it and propagates every
    /// instance: what a full analysis runs. Also returns the number of
    /// evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`StaError`] for structurally broken netlists, combinational
    /// loops or cells without the required timing arcs.
    pub(crate) fn build(
        netlist: &Netlist,
        library: &Library,
        constraints: &Constraints,
    ) -> Result<(Self, usize), StaError> {
        let bound = Bound::new(netlist, library)?;
        let mut graph = Self::compile(bound, netlist, library, constraints);
        let evaluated = graph.propagate(library)?;
        Ok((graph, evaluated))
    }

    /// Lays out arc slots and loads on `bound` and queues every instance
    /// for evaluation.
    fn compile(
        bound: Bound,
        netlist: &Netlist,
        library: &Library,
        constraints: &Constraints,
    ) -> Self {
        let n_nets = netlist.net_count();
        let n_inst = netlist.instance_count();
        let input_slew = constraints.input_slew.unwrap_or(library.default_input_slew);
        let output_load = constraints.output_load.unwrap_or(library.default_output_load);
        let loads =
            (0..n_nets).map(|n| bound.load(library, NetId::from_index(n), output_load)).collect();
        let flops = bound
            .stage(0)
            .map(|id| {
                let cell = library.cell_at(bound.cell(id));
                let data = match &cell.class {
                    CellClass::Flop { data, .. } => {
                        cell.inputs.iter().position(|p| p.name == *data)
                    }
                    CellClass::Combinational => None,
                };
                (ix(id.index()), data.map_or(NONE, |p| ix(bound.input_net(id, p).index())))
            })
            .collect();
        let pending = (0..bound.stage_count())
            .map(|s| bound.stage(s).map(|id| ix(id.index())).collect())
            .collect();
        let mut g = TimingGraph {
            input_slew,
            output_load,
            bound,
            slot_base: vec![0; n_inst],
            slot_len: vec![0; n_inst],
            slots: Vec::new(),
            edge_base: vec![0; n_inst],
            edge_cap: vec![0; n_inst],
            edge_len: vec![0; n_inst],
            edges: Vec::new(),
            loads,
            output_ports: netlist.output_nets().map(|n| ix(n.index())).collect(),
            flops,
            pending,
            queued: vec![true; n_inst],
            state: NetState::fresh(n_nets, input_slew),
        };
        for k in 0..n_inst {
            g.place(library, k);
        }
        g
    }

    /// Writes instance `k`'s arc slots and sizes its edge range, in place
    /// when the old ranges are large enough.
    fn place(&mut self, library: &Library, k: usize) {
        let id = InstId::from_index(k);
        let cell = library.cell_at(self.bound.cell(id));
        let start = self.slots.len();
        let mut edges = 0u32;
        match &cell.class {
            CellClass::Flop { clock, .. } => {
                let clock_pos = cell.inputs.iter().position(|p| p.name == *clock).map_or(NONE, ix);
                self.slots.push(clock_pos);
                for (o, out) in cell.outputs.iter().enumerate() {
                    let slot = out.arcs.iter().position(|a| a.related_pin == *clock);
                    if slot.is_some() && clock_pos != NONE && self.bound.output_net(id, o).is_some()
                    {
                        edges += 2;
                    }
                    self.slots.push(slot.map_or(NONE, ix));
                }
            }
            CellClass::Combinational => {
                for (o, out) in cell.outputs.iter().enumerate() {
                    let connected = self.bound.output_net(id, o).is_some();
                    for input in &cell.inputs {
                        let slot = match out.arcs.iter().position(|a| a.related_pin == input.name) {
                            Some(a) => {
                                if connected {
                                    edges += match out.arcs[a].sense {
                                        TimingSense::NonUnate => 4,
                                        _ => 2,
                                    };
                                }
                                ix(a)
                            }
                            // Outputs genuinely independent of this input
                            // (e.g. HA's CO vs no pin) are skipped only if
                            // the function ignores the pin; otherwise the
                            // evaluation reports a missing arc.
                            None if out.function.vars().contains(&input.name) => NONE,
                            None => SKIP,
                        };
                        self.slots.push(slot);
                    }
                }
            }
        }
        let len = self.slots.len() - start;
        if len <= self.slot_len[k] as usize {
            self.slots.copy_within(start.., self.slot_base[k] as usize);
            self.slots.truncate(start);
        } else {
            self.slot_base[k] = ix(start);
            self.slot_len[k] = ix(len);
        }
        if edges > self.edge_cap[k] {
            self.edge_base[k] = ix(self.edges.len());
            self.edge_cap[k] = edges;
            let blank =
                BackEdge { out_net: 0, in_net: 0, out_rising: false, in_rising: false, delay: 0.0 };
            self.edges.resize(self.edges.len() + edges as usize, blank);
        }
    }

    /// Queues instance `k` for the next [`Self::propagate`].
    fn queue(&mut self, k: usize) {
        if !std::mem::replace(&mut self.queued[k], true) {
            self.pending[self.bound.stage_of(InstId::from_index(k))].push(ix(k));
        }
    }

    /// Queues the combinational sinks of `net`. Flops never need it: their
    /// launch depends on their own cell and Q-net load only.
    fn queue_sinks(&mut self, net: usize) {
        let TimingGraph { bound, pending, queued, .. } = self;
        for (k, _) in bound.sinks(NetId::from_index(net)) {
            let stage = bound.stage_of(k);
            if stage > 0 && !std::mem::replace(&mut queued[k.index()], true) {
                pending[stage].push(ix(k.index()));
            }
        }
    }

    /// Evaluates every queued instance stage by stage; an instance whose
    /// output values change queues its combinational sinks. Each instance
    /// reads only settled fanin, so the result is the same for any set of
    /// queued instances that covers every instance whose inputs, cell or
    /// load changed. Returns the number of evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::MissingArc`] for a cell without an arc its
    /// function needs.
    pub(crate) fn propagate(&mut self, library: &Library) -> Result<usize, StaError> {
        let mut evaluated = 0usize;
        for stage in 0..self.pending.len() {
            let mut batch = std::mem::take(&mut self.pending[stage]);
            for &k in &batch {
                self.queued[k as usize] = false;
                evaluated += 1;
                if stage == 0 {
                    self.eval_flop(library, k as usize)?;
                } else {
                    self.eval_comb(library, k as usize)?;
                }
            }
            batch.clear();
            self.pending[stage] = batch;
        }
        Ok(evaluated)
    }

    /// Launches a flop's outputs from the clock edge at the boundary input
    /// slew and records the launch back-edges.
    fn eval_flop(&mut self, library: &Library, k: usize) -> Result<(), StaError> {
        let id = InstId::from_index(k);
        let cell = library.cell_at(self.bound.cell(id));
        let CellClass::Flop { clock, .. } = &cell.class else { return Ok(()) };
        let base = self.slot_base[k] as usize;
        let clock_pos = self.slots[base];
        let clock_net =
            (clock_pos != NONE).then(|| ix(self.bound.input_net(id, clock_pos as usize).index()));
        let mut cursor = self.edge_base[k] as usize;
        for (o, out) in cell.outputs.iter().enumerate() {
            let Some(net) = self.bound.output_net(id, o) else { continue };
            let net = ix(net.index());
            let slot = self.slots[base + 1 + o];
            if slot == NONE {
                return Err(StaError::MissingArc {
                    cell: cell.name.clone(),
                    input: clock.clone(),
                    output: out.name.clone(),
                });
            }
            let arc = &out.arcs[slot as usize];
            let load = self.loads[net as usize];
            let arrival =
                [arc.delay(true, self.input_slew, load), arc.delay(false, self.input_slew, load)];
            let slew = [
                arc.transition(true, self.input_slew, load),
                arc.transition(false, self.input_slew, load),
            ];
            if let Some(clock_net) = clock_net {
                for (rising, delay) in [(true, arrival[0]), (false, arrival[1])] {
                    self.edges[cursor] = BackEdge {
                        out_net: net,
                        in_net: clock_net,
                        out_rising: rising,
                        in_rising: true,
                        delay,
                    };
                    cursor += 1;
                }
            }
            let pred = |delay| {
                Some(Pred { inst: ix(k), input: CLOCK, output: ix(o), input_rising: true, delay })
            };
            let value = NetValue {
                arrival,
                min: arrival,
                slew,
                pred: [pred(arrival[0]), pred(arrival[1])],
            };
            if self.state.set(net as usize, value) {
                self.queue_sinks(net as usize);
            }
        }
        self.edge_len[k] = ix(cursor) - self.edge_base[k];
        Ok(())
    }

    /// Evaluates one combinational instance: for every output pin, folds all
    /// input arcs into worst/earliest arrivals, slews and predecessors, and
    /// records the traversed back-edges. Inputs must already hold their
    /// final state.
    fn eval_comb(&mut self, library: &Library, k: usize) -> Result<(), StaError> {
        let id = InstId::from_index(k);
        let cell = library.cell_at(self.bound.cell(id));
        let n_in = cell.inputs.len();
        let base = self.slot_base[k] as usize;
        let mut cursor = self.edge_base[k] as usize;
        for (o, out) in cell.outputs.iter().enumerate() {
            let Some(out_net) = self.bound.output_net(id, o) else { continue };
            let out_net = ix(out_net.index());
            let load = self.loads[out_net as usize];
            // Per output edge (rise, fall): (arrival, slew, pred) of the
            // worst input edge, and the earliest arrival.
            let mut best: [Option<(f64, f64, Pred)>; 2] = [None, None];
            let mut least = [f64::INFINITY; 2];
            for (p, input) in cell.inputs.iter().enumerate() {
                let slot = self.slots[base + o * n_in + p];
                if slot == SKIP {
                    continue;
                }
                if slot == NONE {
                    return Err(StaError::MissingArc {
                        cell: cell.name.clone(),
                        input: input.name.clone(),
                        output: out.name.clone(),
                    });
                }
                let arc = &out.arcs[slot as usize];
                let in_net = ix(self.bound.input_net(id, p).index());
                let i = in_net as usize;
                for (e, out_rising) in [(0, true), (1, false)] {
                    // Which input edges can cause this output edge.
                    let from: &[bool] = match (arc.sense, out_rising) {
                        (TimingSense::PositiveUnate, true)
                        | (TimingSense::NegativeUnate, false) => &[true],
                        (TimingSense::PositiveUnate, false)
                        | (TimingSense::NegativeUnate, true) => &[false],
                        (TimingSense::NonUnate, _) => &[true, false],
                    };
                    for &in_rising in from {
                        let (a_in, s_in, m_in) = if in_rising {
                            (
                                self.state.arrival_rise[i],
                                self.state.slew_rise[i],
                                self.state.min_rise[i],
                            )
                        } else {
                            (
                                self.state.arrival_fall[i],
                                self.state.slew_fall[i],
                                self.state.min_fall[i],
                            )
                        };
                        let d = arc.delay(out_rising, s_in, load);
                        self.edges[cursor] =
                            BackEdge { out_net, in_net, out_rising, in_rising, delay: d };
                        cursor += 1;
                        least[e] = least[e].min(m_in + d);
                        let cand = a_in + d;
                        if best[e].as_ref().is_none_or(|(b, _, _)| cand > *b) {
                            let pred = Pred {
                                inst: ix(k),
                                input: ix(p),
                                output: ix(o),
                                input_rising: in_rising,
                                delay: d,
                            };
                            best[e] = Some((cand, arc.transition(out_rising, s_in, load), pred));
                        }
                    }
                }
            }
            let mut value = NetValue {
                arrival: [0.0; 2],
                min: [0.0; 2],
                slew: [self.input_slew; 2],
                pred: [None; 2],
            };
            for e in 0..2 {
                if least[e].is_finite() {
                    value.min[e] = least[e];
                }
                if let Some((a, s, p)) = best[e] {
                    value.arrival[e] = a;
                    value.slew[e] = s;
                    value.pred[e] = Some(p);
                }
            }
            if self.state.set(out_net as usize, value) {
                self.queue_sinks(out_net as usize);
            }
        }
        self.edge_len[k] = ix(cursor) - self.edge_base[k];
        Ok(())
    }

    /// Points instance `inst` at `cell` if [`Bound::recell`] accepts it,
    /// and returns whether it did. Re-sums the loads of the nets the
    /// instance reads and queues it plus the driver of every net whose load
    /// changed bits. Everything else keeps its inputs, cell and load, so its
    /// evaluation would not change a bit.
    pub(crate) fn recell(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        inst: InstId,
        cell: CellId,
    ) -> bool {
        if !self.bound.recell(netlist, library, inst, cell) {
            return false;
        }
        self.place(library, inst.index());
        for (c, &(_, net)) in netlist.instance(inst).connections.iter().enumerate() {
            if self.bound.connection_input(inst, c).is_none() {
                continue;
            }
            let load = self.bound.load(library, net, self.output_load);
            if load.to_bits() != self.loads[net.index()].to_bits() {
                self.loads[net.index()] = load;
                if let Some(driver) = self.bound.driver(net) {
                    self.queue(driver.index());
                }
            }
        }
        self.queue(inst.index());
        true
    }

    /// The worst endpoint arrival — the critical delay — straight from the
    /// forward state, without building a report.
    pub(crate) fn critical_delay(&self, library: &Library) -> f64 {
        self.endpoint_arrivals(library)
            .map(|(_, _, arrival)| arrival)
            .reduce(|worst, a| if a.total_cmp(&worst).is_gt() { a } else { worst })
            .unwrap_or(0.0)
    }

    /// Every endpoint with its worst arrival: primary outputs in port
    /// order, then flop data pins (setup added) in instance order.
    fn endpoint_arrivals<'a>(
        &'a self,
        library: &'a Library,
    ) -> impl Iterator<Item = (NetId, EndpointKind, f64)> + 'a {
        let s = &self.state;
        let worst = move |i: usize| s.arrival_rise[i].max(s.arrival_fall[i]);
        let outputs = self.output_ports.iter().map(move |&n| {
            (NetId::from_index(n as usize), EndpointKind::Output, worst(n as usize))
        });
        let flops =
            self.flops.iter().filter(|&&(_, data)| data != NONE).filter_map(move |&(k, data)| {
                match &library.cell_at(self.bound.cell(InstId::from_index(k as usize))).class {
                    CellClass::Flop { setup, .. } => Some((
                        NetId::from_index(data as usize),
                        EndpointKind::FlopData { setup: *setup },
                        worst(data as usize) + setup,
                    )),
                    CellClass::Combinational => None,
                }
            });
        outputs.chain(flops)
    }

    /// The report for the current state: endpoints, hold slacks, the
    /// backward required-time pass, the critical path and copies of the
    /// per-net vectors.
    pub(crate) fn report(&self, library: &Library, constraints: &Constraints) -> TimingReport {
        let s = &self.state;
        let mut endpoints: Vec<Endpoint> = self
            .endpoint_arrivals(library)
            .map(|(net, kind, arrival)| Endpoint {
                net,
                kind,
                arrival,
                required: constraints.clock_period,
            })
            .collect();
        endpoints.sort_by(|a, b| b.arrival.total_cmp(&a.arrival));

        // Hold checks at flop data pins: the earliest data change after the
        // launching edge must not beat the hold window of the capturing flop.
        let hold_slacks = self
            .flops
            .iter()
            .filter(|&&(_, data)| data != NONE)
            .filter_map(|&(k, data)| {
                match &library.cell_at(self.bound.cell(InstId::from_index(k as usize))).class {
                    CellClass::Flop { hold, .. } => {
                        let i = data as usize;
                        Some((NetId::from_index(i), s.min_rise[i].min(s.min_fall[i]) - hold))
                    }
                    CellClass::Combinational => None,
                }
            })
            .collect();

        // Backward required-time pass over the recorded edges in reverse
        // evaluation order. Without an explicit clock the worst endpoint
        // arrival acts as the implicit required time (zero worst slack).
        let n_nets = self.loads.len();
        let implicit = endpoints.first().map_or(0.0, |e| e.arrival);
        let mut required_rise = vec![f64::INFINITY; n_nets];
        let mut required_fall = vec![f64::INFINITY; n_nets];
        for e in &endpoints {
            let budget = constraints.clock_period.unwrap_or(implicit);
            let at_net = match e.kind {
                EndpointKind::Output => budget,
                EndpointKind::FlopData { setup } => budget - setup,
            };
            let i = e.net.index();
            required_rise[i] = required_rise[i].min(at_net);
            required_fall[i] = required_fall[i].min(at_net);
        }
        let reverse_order =
            (0..self.bound.stage_count()).rev().flat_map(|s| self.bound.stage(s).rev());
        for k in reverse_order.map(InstId::index) {
            let lo = self.edge_base[k] as usize;
            let hi = lo + self.edge_len[k] as usize;
            for e in self.edges[lo..hi].iter().rev() {
                let out = e.out_net as usize;
                let r_out = if e.out_rising { required_rise[out] } else { required_fall[out] };
                if r_out.is_finite() {
                    let input = e.in_net as usize;
                    let slot = if e.in_rising {
                        &mut required_rise[input]
                    } else {
                        &mut required_fall[input]
                    };
                    *slot = slot.min(r_out - e.delay);
                }
            }
        }

        let critical = match endpoints.first() {
            Some(worst) => {
                let i = worst.net.index();
                let rising = s.arrival_rise[i] >= s.arrival_fall[i];
                self.backtrack(library, worst.net, rising, worst.arrival)
            }
            None => PathSpec {
                start_net: NetId::from_index(0),
                start_rising: true,
                steps: Vec::new(),
                arrival: 0.0,
            },
        };
        TimingReport {
            arrival_rise: s.arrival_rise.clone(),
            arrival_fall: s.arrival_fall.clone(),
            min_rise: s.min_rise.clone(),
            min_fall: s.min_fall.clone(),
            slew_rise: s.slew_rise.clone(),
            slew_fall: s.slew_fall.clone(),
            required_rise,
            required_fall,
            loads: self.loads.clone(),
            endpoints,
            hold_slacks,
            critical_delay: critical.arrival,
            critical,
        }
    }

    /// Every timed arc's delays at its input net's larger propagated slew
    /// and its output net's load, laid out by the bound pins. Arcs of
    /// unconnected outputs, and positions with no arc, stay zero.
    fn annotation(&self, library: &Library) -> DelayAnnotation {
        let mut ann = DelayAnnotation::zeroed(&self.bound);
        let s = &self.state;
        for k in 0..self.slot_base.len() {
            let id = InstId::from_index(k);
            let cell = library.cell_at(self.bound.cell(id));
            let slots = &self.slots[self.slot_base[k] as usize..][..self.slot_len[k] as usize];
            let mut fill = |input: u32, o: usize, slot: u32| {
                if input == NONE || slot >= SKIP {
                    return;
                }
                let Some(out_net) = self.bound.output_net(id, o) else { return };
                let arc = &cell.outputs[o].arcs[slot as usize];
                let i = self.bound.input_net(id, input as usize).index();
                let slew = s.slew_rise[i].max(s.slew_fall[i]);
                let load = self.loads[out_net.index()];
                let delays = ArcDelays {
                    rise: arc.delay(true, slew, load),
                    fall: arc.delay(false, slew, load),
                };
                ann.set(id, input as usize, o, delays);
            };
            match cell.class {
                // The clock's position, then per output the clock arc.
                CellClass::Flop { .. } => {
                    for (o, &slot) in slots[1..].iter().enumerate() {
                        fill(slots[0], o, slot);
                    }
                }
                CellClass::Combinational => {
                    let n_in = cell.inputs.len();
                    for o in 0..cell.outputs.len() {
                        for p in 0..n_in {
                            fill(ix(p), o, slots[o * n_in + p]);
                        }
                    }
                }
            }
        }
        ann
    }

    /// Follows the worst-edge predecessors back from an endpoint, naming
    /// each step's pins.
    fn backtrack(
        &self,
        library: &Library,
        endpoint: NetId,
        endpoint_rising: bool,
        arrival: f64,
    ) -> PathSpec {
        let mut steps = Vec::new();
        let mut net = endpoint;
        let mut rising = endpoint_rising;
        loop {
            let pred = if rising {
                self.state.pred_rise[net.index()]
            } else {
                self.state.pred_fall[net.index()]
            };
            let Some(p) = pred else { break };
            let inst = InstId::from_index(p.inst as usize);
            let cell = library.cell_at(self.bound.cell(inst));
            let (input, pos) = match (&cell.class, p.input) {
                (CellClass::Flop { clock, .. }, CLOCK) => {
                    (clock.as_str(), self.slots[self.slot_base[inst.index()] as usize])
                }
                (_, i) => (cell.inputs.get(i as usize).map_or("", |pin| pin.name.as_str()), i),
            };
            let output = cell.outputs.get(p.output as usize).map_or("", |pin| pin.name.as_str());
            steps.push(PathStep {
                inst,
                input: input.to_owned(),
                input_rising: p.input_rising,
                output: output.to_owned(),
                output_rising: rising,
                delay: p.delay,
            });
            if pos == NONE {
                break;
            }
            rising = p.input_rising;
            net = self.bound.input_net(inst, pos as usize);
            if steps.len() > self.slot_base.len() + 1 {
                break; // defensive: never loop forever on corrupt pred data
            }
        }
        steps.reverse();
        PathSpec { start_net: net, start_rising: rising, steps, arrival }
    }
}

/// Runs static timing analysis of `netlist` against `library`.
///
/// Primary inputs (and flop clock pins) launch at t = 0 with the
/// constrained input slew; arrival times and slews propagate in topological
/// order through every combinational arc; endpoints are primary outputs and
/// flop data pins.
///
/// # Errors
///
/// Returns [`StaError`] for structurally broken netlists, combinational
/// loops or cells without the required timing arcs.
pub fn analyze(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
) -> Result<TimingReport, StaError> {
    let graph = TimingGraph::build(netlist, library, constraints)?.0;
    Ok(graph.report(library, constraints))
}

/// Times `netlist` against `library` and returns the delays of every arc
/// it timed, each at its input net's larger propagated slew (rise or fall)
/// and its output net's load, in a table laid out by the netlist's bound
/// pins. A flop's clk→Q arc sits on its clock input's row; arcs of
/// unconnected outputs and positions with no arc hold zero.
///
/// # Errors
///
/// Returns what [`analyze`] returns for the same inputs.
pub fn annotate(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
) -> Result<DelayAnnotation, StaError> {
    let graph = TimingGraph::build(netlist, library, constraints)?.0;
    Ok(graph.annotation(library))
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::{BoolExpr, Cell, InputPin, OutputPin, Table2d, TimingArc};
    use netlist::PortDir;

    /// A two-input NAND fixture with asymmetric per-pin delays so path
    /// selection is observable.
    fn nand_cell(slow_pin_extra: f64) -> Cell {
        let t = |base: f64| {
            Table2d::new(
                vec![5e-12, 500e-12],
                vec![0.5e-15, 20e-15],
                vec![base, base + 20e-12, base + 5e-12, base + 30e-12],
            )
            .unwrap()
        };
        let arc = |pin: &str, base: f64| TimingArc {
            related_pin: pin.into(),
            sense: TimingSense::NegativeUnate,
            cell_rise: t(base),
            cell_fall: t(base * 0.9),
            rise_transition: t(base * 0.5),
            fall_transition: t(base * 0.4),
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
                arcs: vec![arc("A", 10e-12), arc("B", 10e-12 + slow_pin_extra)],
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
                    rise_transition: t.map(|_| 15e-12),
                    fall_transition: t.map(|_| 15e-12),
                }],
            }],
        }
    }

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib.add_cell(nand_cell(40e-12));
        lib.add_cell(flop_cell());
        lib
    }

    #[test]
    fn chain_delay_accumulates() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
        let single = {
            let mut nl1 = Netlist::new("m1");
            let a = nl1.add_port("a", PortDir::Input);
            let y = nl1.add_port("y", PortDir::Output);
            nl1.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
            analyze(&nl1, &lib, &Constraints::default()).unwrap().critical_delay()
        };
        assert!(r.critical_delay() > single, "two stages must be slower than one");
        assert_eq!(r.critical_path().steps.len(), 2);
    }

    #[test]
    fn critical_path_picks_slow_pin() {
        // a → NAND.A, b → NAND.B where the B arc is 40 ps slower.
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let b = nl.add_port("b", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "NAND2_X1", &[("A", a), ("B", b), ("Y", y)]);
        let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
        let path = r.critical_path();
        assert_eq!(path.steps.len(), 1);
        assert_eq!(path.steps[0].input, "B");
        assert_eq!(path.start_net, b);
    }

    #[test]
    fn negative_unate_polarity_tracked() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let b = nl.add_port("b", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "NAND2_X1", &[("A", a), ("B", b), ("Y", y)]);
        let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
        let step = &r.critical_path().steps[0];
        // NAND is negative-unate: a rising output comes from a falling input.
        assert_ne!(step.input_rising, step.output_rising);
    }

    #[test]
    fn flop_launch_and_capture() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let clk = nl.add_port("clk", PortDir::Input);
        let d_in = nl.add_port("d", PortDir::Input);
        let q1 = nl.add_net("q1");
        let n1 = nl.add_net("n1");
        let d2 = nl.add_net("d2");
        nl.add_instance("ff0", "DFF_X1", &[("D", d_in), ("CK", clk), ("Q", q1)]);
        nl.add_instance("u0", "INV_X1", &[("A", q1), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", d2)]);
        let q2 = nl.add_net("q2");
        nl.add_instance("ff1", "DFF_X1", &[("D", d2), ("CK", clk), ("Q", q2)]);
        let r = analyze(&nl, &lib, &Constraints::with_clock(1e-9)).unwrap();
        // Endpoint is the ff1 data pin: clk→Q + 2 inverters + setup.
        let worst = &r.endpoints()[0];
        assert!(matches!(worst.kind, EndpointKind::FlopData { .. }));
        assert!(worst.arrival > 50e-12 + 30e-12, "arrival {}", worst.arrival);
        assert!(worst.slack().unwrap() > 0.0);
        // The critical path starts at the clock net through the flop.
        let path = r.critical_path();
        assert_eq!(path.start_net, clk);
        assert_eq!(path.steps[0].input, "CK");
        assert_eq!(path.steps.len(), 3);
    }

    #[test]
    fn combinational_loop_detected() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_instance("u0", "NAND2_X1", &[("A", a), ("B", n2), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", n2)]);
        assert!(matches!(
            analyze(&nl, &lib, &Constraints::default()),
            Err(StaError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn fanout_load_slows_driver() {
        let lib = lib();
        let mk = |fanout: usize| {
            let mut nl = Netlist::new("m");
            let a = nl.add_port("a", PortDir::Input);
            let n1 = nl.add_net("n1");
            nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
            for k in 0..fanout {
                let out = nl.add_port(&format!("y{k}"), PortDir::Output);
                nl.add_instance(&format!("s{k}"), "INV_X1", &[("A", n1), ("Y", out)]);
            }
            let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
            r.arrival(n1)
        };
        assert!(mk(8) > mk(1), "higher fanout must slow the driving inverter");
    }

    #[test]
    fn slack_goes_negative_with_tight_clock() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        let r = analyze(&nl, &lib, &Constraints::with_clock(1e-12)).unwrap();
        assert!(r.worst_slack().unwrap() < 0.0);
    }

    #[test]
    fn required_times_and_slack() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", y)]);
        // With a clock: slack at the endpoint = period − arrival.
        let period = 1e-9;
        let r = analyze(&nl, &lib, &Constraints::with_clock(period)).unwrap();
        let end_slack = r.net_slack(y);
        assert!((end_slack - (period - r.critical_delay())).abs() < 1e-15);
        // Slack decreases monotonically along a single chain? No — it is
        // constant along the single path: every net carries the same slack.
        assert!((r.net_slack(a) - end_slack).abs() < 1e-15);
        assert!((r.net_slack(n1) - end_slack).abs() < 1e-15);
        // Without a clock the implicit required time gives zero worst slack.
        let r0 = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert!(r0.net_slack(y).abs() < 1e-15);
        // required_edge is finite on path nets.
        assert!(r0.required_edge(n1, true).is_finite());
    }

    #[test]
    fn off_critical_branch_has_positive_slack() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y1 = nl.add_port("y1", PortDir::Output);
        let y2 = nl.add_port("y2", PortDir::Output);
        // Long branch: 3 inverters; short branch: 1 inverter.
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", n2)]);
        nl.add_instance("u2", "INV_X1", &[("A", n2), ("Y", y1)]);
        nl.add_instance("s0", "INV_X1", &[("A", a), ("Y", y2)]);
        let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert!(r.net_slack(y1).abs() < 1e-15, "critical endpoint has zero slack");
        assert!(r.net_slack(y2) > 1e-12, "short branch has positive slack");
    }

    #[test]
    fn hold_analysis_on_flop_pipeline() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let clk = nl.add_port("clk", PortDir::Input);
        let d_in = nl.add_port("d", PortDir::Input);
        let q1 = nl.add_net("q1");
        let d2 = nl.add_net("d2");
        let q2 = nl.add_net("q2");
        nl.add_instance("ff0", "DFF_X1", &[("D", d_in), ("CK", clk), ("Q", q1)]);
        nl.add_instance("u0", "INV_X1", &[("A", q1), ("Y", d2)]);
        nl.add_instance("ff1", "DFF_X1", &[("D", d2), ("CK", clk), ("Q", q2)]);
        let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert_eq!(r.hold_slacks().len(), 2);
        // The register-to-register pin (d2): min arrival = clk→Q (50 ps) +
        // one inverter, comfortably above the 5 ps hold window.
        let reg_to_reg = r
            .hold_slacks()
            .iter()
            .find(|(net, _)| *net == d2)
            .map(|(_, s)| *s)
            .expect("d2 is a hold endpoint");
        assert!(reg_to_reg > 0.0, "reg-to-reg hold met, slack = {reg_to_reg}");
        // The input-launched pin (d) has min arrival 0 — without
        // input-delay constraints its slack is exactly −hold, and it is the
        // design's worst.
        let worst = r.worst_hold_slack().unwrap();
        assert!((worst - (-5e-12)).abs() < 1e-15, "worst = {worst}");
        assert!(r.min_arrival(d2) <= r.arrival(d2));
        assert!(r.min_arrival(d2) > 50e-12, "min path includes clk→Q");
    }

    #[test]
    fn min_arrival_takes_short_branch() {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        // Long path a→u0→u1→y OR short path a→NAND.B→y via the same gate:
        // merge with a NAND whose A comes through two inverters.
        let n1 = nl.add_net("n1");
        let n2 = nl.add_net("n2");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]);
        nl.add_instance("u1", "INV_X1", &[("A", n1), ("Y", n2)]);
        nl.add_instance("g", "NAND2_X1", &[("A", n2), ("B", a), ("Y", y)]);
        let r = analyze(&nl, &lib, &Constraints::default()).unwrap();
        assert!(
            r.min_arrival(y) < r.arrival(y),
            "short branch gives a strictly earlier min arrival"
        );
        // Min arrival is at least the single NAND arc delay.
        assert!(r.min_arrival(y) > 1e-12);
    }

    #[test]
    fn empty_netlist_reports_zero() {
        let nl = Netlist::new("empty");
        let r = analyze(&nl, &lib(), &Constraints::default()).unwrap();
        assert_eq!(r.critical_delay(), 0.0);
        assert!(r.endpoints().is_empty());
        assert!(r.critical_path().steps.is_empty());
        assert_eq!(r.worst_slack(), None);
    }
}
