//! Enumeration of the k worst paths of a design.
//!
//! The paper's related-work discussion (Sec. 3) notes that tracking the "top
//! x % of critical paths" is how some aging flows try to survive
//! criticality switching — and that the number of such paths explodes
//! (> 10⁷ within the top 5 % of realistic designs), making it impractical to
//! guarantee the future critical path is among them. This module provides
//! the machinery to *measure* that claim: a best-first enumeration of
//! distinct worst paths in decreasing delay order.

use crate::path::{PathSpec, PathStep};
use crate::report::EndpointKind;
use crate::{Constraints, StaError};
use liberty::{CellClass, Library, TimingSense};
use netlist::{InstId, NetId, Netlist};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One timing-graph vertex: a net observed on one edge polarity.
type Vertex = (usize, bool);

/// A directed timing arc between vertices, annotated with the instance arc
/// it came from.
#[derive(Debug, Clone)]
struct Edge {
    to: Vertex,
    delay: f64,
    inst: InstId,
    input: String,
    output: String,
}

#[derive(Debug)]
struct Partial {
    priority: f64,
    delay: f64,
    at: Vertex,
    steps: Vec<PathStep>,
}

/// A stable total order on path keys, used to break priority ties: current
/// vertex, then step count, then the step sequence lexicographically by
/// `(inst, input, input_rising, output, output_rising, delay)`. Two partials
/// compare `Equal` only when they are the same partial path, so heap pop
/// order — and therefore the enumeration order of equal-delay paths — is
/// independent of `HashMap` iteration order.
fn path_key_cmp(a: &Partial, b: &Partial) -> Ordering {
    a.at.cmp(&b.at).then_with(|| a.steps.len().cmp(&b.steps.len())).then_with(|| {
        for (x, y) in a.steps.iter().zip(&b.steps) {
            let o = x
                .inst
                .cmp(&y.inst)
                .then_with(|| x.input.cmp(&y.input))
                .then_with(|| x.input_rising.cmp(&y.input_rising))
                .then_with(|| x.output.cmp(&y.output))
                .then_with(|| x.output_rising.cmp(&y.output_rising))
                .then_with(|| x.delay.total_cmp(&y.delay));
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    })
}

impl PartialEq for Partial {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Partial {}
impl Ord for Partial {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on priority; among equal priorities the *smallest* path
        // key pops first (the comparison is flipped), giving equal-slack
        // paths a deterministic enumeration order.
        self.priority.total_cmp(&other.priority).then_with(|| path_key_cmp(other, self))
    }
}
impl PartialOrd for Partial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Enumerates the `k` worst (largest-delay) distinct paths of `netlist`
/// under `library`, in decreasing delay order.
///
/// Delays are the graph-based arc delays of a standard analysis (slews fixed
/// by the forward propagation), so the first returned path matches
/// [`analyze`](crate::analyze)'s critical path delay. Paths start at primary
/// inputs, undriven nets or flop clock pins and end at primary outputs or
/// flop data pins (setup **not** added — these are raw path delays).
///
/// # Errors
///
/// Propagates [`StaError`] from the underlying analysis.
pub fn k_worst_paths(
    netlist: &Netlist,
    library: &Library,
    constraints: &Constraints,
    k: usize,
) -> Result<Vec<PathSpec>, StaError> {
    let report = crate::analyze(netlist, library, constraints)?;
    let n = netlist.net_count();

    // Rebuild the timing graph edges with the report's propagated slews —
    // identical numbers to the forward analysis.
    let mut adjacency: HashMap<Vertex, Vec<Edge>> = HashMap::new();
    let mut has_incoming: HashSet<Vertex> = HashSet::new();
    for id in netlist.instance_ids() {
        let inst = netlist.instance(id);
        let Some(cell) = library.cell(&inst.cell) else { continue };
        match &cell.class {
            CellClass::Flop { clock, .. } => {
                let Some(ck) = inst.net_on(clock) else { continue };
                for out in &cell.outputs {
                    let Some(q) = inst.net_on(&out.name) else { continue };
                    let Some(arc) = out.arc_from(clock) else { continue };
                    let load = report.load(q);
                    let slew = constraints.input_slew.unwrap_or(library.default_input_slew);
                    for q_rising in [true, false] {
                        let e = Edge {
                            to: (q.index(), q_rising),
                            delay: arc.delay(q_rising, slew, load),
                            inst: id,
                            input: clock.clone(),
                            output: out.name.clone(),
                        };
                        adjacency.entry((ck.index(), true)).or_default().push(e);
                        has_incoming.insert((q.index(), q_rising));
                    }
                }
            }
            CellClass::Combinational => {
                for out in &cell.outputs {
                    let Some(out_net) = inst.net_on(&out.name) else { continue };
                    let load = report.load(out_net);
                    for input in &cell.inputs {
                        let Some(arc) = out.arc_from(&input.name) else { continue };
                        let Some(in_net) = inst.net_on(&input.name) else { continue };
                        let combos: &[(bool, bool)] = match arc.sense {
                            TimingSense::PositiveUnate => &[(true, true), (false, false)],
                            TimingSense::NegativeUnate => &[(true, false), (false, true)],
                            TimingSense::NonUnate => {
                                &[(true, true), (false, false), (true, false), (false, true)]
                            }
                        };
                        for &(in_rising, out_rising) in combos {
                            let slew = report.slew_edge(in_net, in_rising);
                            let e = Edge {
                                to: (out_net.index(), out_rising),
                                delay: arc.delay(out_rising, slew, load),
                                inst: id,
                                input: input.name.clone(),
                                output: out.name.clone(),
                            };
                            adjacency.entry((in_net.index(), in_rising)).or_default().push(e);
                            has_incoming.insert((out_net.index(), out_rising));
                        }
                    }
                }
            }
        }
    }

    // Endpoint vertices (raw path delay: no setup adjustment).
    let mut is_endpoint = vec![false; n];
    for e in report.endpoints() {
        match e.kind {
            EndpointKind::Output | EndpointKind::FlopData { .. } => (),
        };
        is_endpoint[e.net.index()] = true;
    }

    // Suffix: the largest remaining delay from each vertex to any endpoint,
    // computed by relaxation in true reverse topological order (Kahn over
    // the vertex graph — robust even when characterized arcs carry
    // near-zero or negative delays at slow-slew corners).
    let mut vertices: Vec<Vertex> =
        adjacency.keys().copied().chain(adjacency.values().flatten().map(|e| e.to)).collect();
    vertices.sort_unstable();
    vertices.dedup();
    let mut out_degree: HashMap<Vertex, usize> = HashMap::new();
    let mut reverse_adj: HashMap<Vertex, Vec<Vertex>> = HashMap::new();
    // Order-free: `reverse_adj` only feeds the peel below, and the suffix
    // maxima do not depend on which topological order it finds.
    #[allow(clippy::iter_over_hash_type)]
    for (from, edges) in &adjacency {
        out_degree.insert(*from, edges.len());
        for e in edges {
            reverse_adj.entry(e.to).or_default().push(*from);
        }
    }
    // Start from pure sinks (no outgoing edges) and peel backwards.
    let mut ready: Vec<Vertex> =
        vertices.iter().copied().filter(|v| !adjacency.contains_key(v)).collect();
    let mut order: Vec<Vertex> = Vec::with_capacity(vertices.len());
    while let Some(v) = ready.pop() {
        order.push(v);
        if let Some(preds) = reverse_adj.get(&v) {
            for &p in preds {
                let Some(d) = out_degree.get_mut(&p) else {
                    unreachable!("every predecessor's out-degree was counted")
                };
                *d -= 1;
                if *d == 0 {
                    ready.push(p);
                }
            }
        }
    }
    let mut suffix: HashMap<Vertex, f64> = HashMap::new();
    for v in &order {
        let mut best = if is_endpoint[v.0] { 0.0 } else { f64::NEG_INFINITY };
        if let Some(edges) = adjacency.get(v) {
            for e in edges {
                if let Some(s) = suffix.get(&e.to) {
                    best = best.max(e.delay + s);
                }
            }
        }
        if best.is_finite() {
            suffix.insert(*v, best);
        }
    }

    // Best-first expansion from the sources.
    let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
    // Order-free: the heap breaks priority ties on the path key.
    #[allow(clippy::iter_over_hash_type)]
    for v in adjacency.keys() {
        if has_incoming.contains(v) {
            continue;
        }
        if let Some(s) = suffix.get(v) {
            heap.push(Partial { priority: *s, delay: 0.0, at: *v, steps: Vec::new() });
        }
    }
    let mut out = Vec::with_capacity(k);
    let mut expansions = 0usize;
    let expansion_budget = 200_000usize.max(k * 200);
    while let Some(p) = heap.pop() {
        expansions += 1;
        if expansions > expansion_budget {
            break; // defensive bound for pathological graphs
        }
        if is_endpoint[p.at.0] && !p.steps.is_empty() {
            let start = p
                .steps
                .first()
                .and_then(|s| netlist.instance(s.inst).net_on(&s.input))
                .unwrap_or(NetId::from_index(p.at.0));
            let start_rising = p.steps.first().map_or(p.at.1, |s| s.input_rising);
            out.push(PathSpec { start_net: start, start_rising, steps: p.steps, arrival: p.delay });
            if out.len() >= k {
                break;
            }
            continue;
        }
        if let Some(edges) = adjacency.get(&p.at) {
            for e in edges {
                let Some(s) = suffix.get(&e.to) else { continue };
                let delay = p.delay + e.delay;
                let mut steps = p.steps.clone();
                steps.push(PathStep {
                    inst: e.inst,
                    input: e.input.clone(),
                    input_rising: p.at.1,
                    output: e.output.clone(),
                    output_rising: e.to.1,
                    delay: e.delay,
                });
                heap.push(Partial { priority: delay + s, delay, at: e.to, steps });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;
    use netlist::PortDir;

    fn lib() -> Library {
        let mut lib = Library::new("lib", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib
    }

    /// Three parallel inverter chains of different lengths.
    fn three_chains() -> Netlist {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        for (c, len) in [(0usize, 4usize), (1, 3), (2, 2)] {
            let mut prev = a;
            for k in 0..len {
                let next = if k + 1 == len {
                    nl.add_port(&format!("y{c}"), PortDir::Output)
                } else {
                    nl.add_net(&format!("n{c}_{k}"))
                };
                nl.add_instance(&format!("u{c}_{k}"), "INV_X1", &[("A", prev), ("Y", next)]);
                prev = next;
            }
        }
        nl
    }

    #[test]
    fn paths_in_decreasing_order_and_first_is_critical() {
        let nl = three_chains();
        let lib = lib();
        let c = Constraints::default();
        let report = crate::analyze(&nl, &lib, &c).unwrap();
        let paths = k_worst_paths(&nl, &lib, &c, 6).unwrap();
        assert!(!paths.is_empty());
        for w in paths.windows(2) {
            assert!(w[0].arrival >= w[1].arrival - 1e-18, "descending order");
        }
        assert!(
            (paths[0].arrival - report.critical_delay()).abs() < 1e-15,
            "worst enumerated path {} equals the critical delay {}",
            paths[0].arrival,
            report.critical_delay()
        );
        assert_eq!(paths[0].steps.len(), 4, "critical chain has 4 stages");
    }

    #[test]
    fn distinct_paths_enumerated() {
        let nl = three_chains();
        let lib = lib();
        let paths = k_worst_paths(&nl, &lib, &Constraints::default(), 50).unwrap();
        // Each chain contributes rise+fall observation polarities.
        let mut signatures: Vec<String> = paths
            .iter()
            .map(|p| {
                let names: Vec<&str> = p.steps.iter().map(|s| netlist_name(&nl, s.inst)).collect();
                format!("{}:{}", names.join(">"), p.steps.last().is_some_and(|s| s.output_rising))
            })
            .collect();
        let before = signatures.len();
        signatures.sort();
        signatures.dedup();
        assert_eq!(before, signatures.len(), "no duplicate paths");
        assert!(before >= 6, "3 chains × 2 polarities at least, got {before}");
    }

    fn netlist_name(nl: &Netlist, id: InstId) -> &str {
        nl.instance(id).name.as_str()
    }

    #[test]
    fn respects_k() {
        let nl = three_chains();
        let lib = lib();
        let paths = k_worst_paths(&nl, &lib, &Constraints::default(), 2).unwrap();
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn equal_slack_paths_enumerate_deterministically() {
        // Eight structurally identical chains: every path delay ties with
        // seven others, so ordering is entirely up to the tie-break. The
        // enumeration must not depend on HashMap iteration order, which
        // differs between the two calls (each uses fresh RandomState seeds).
        let mut nl = Netlist::new("m");
        for c in 0..8 {
            let a = nl.add_port(&format!("a{c}"), PortDir::Input);
            let y = nl.add_port(&format!("y{c}"), PortDir::Output);
            let mid = nl.add_net(&format!("m{c}"));
            nl.add_instance(&format!("u{c}_0"), "INV_X1", &[("A", a), ("Y", mid)]);
            nl.add_instance(&format!("u{c}_1"), "INV_X1", &[("A", mid), ("Y", y)]);
        }
        let lib = lib();
        let first = k_worst_paths(&nl, &lib, &Constraints::default(), 16).unwrap();
        let second = k_worst_paths(&nl, &lib, &Constraints::default(), 16).unwrap();
        assert_eq!(first.len(), 16, "8 chains x 2 observation polarities");
        assert_eq!(first, second, "equal-delay paths must enumerate in a stable order");
        // The canonical order among ties is ascending path key (lowest
        // instance ids first).
        let ids = |p: &PathSpec| p.steps.iter().map(|s| s.inst.index()).collect::<Vec<_>>();
        let tied: Vec<_> =
            first.iter().filter(|p| (p.arrival - first[0].arrival).abs() < 1e-18).collect();
        for w in tied.windows(2) {
            assert!(ids(w[0]) <= ids(w[1]), "ties sorted by path key");
        }
    }

    #[test]
    fn reconvergent_fanout_paths() {
        // a → u0 → {u1, u2} → both into outputs; ensures branching works.
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y1 = nl.add_port("y1", PortDir::Output);
        let y2 = nl.add_port("y2", PortDir::Output);
        let h = nl.add_net("h");
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", h)]);
        nl.add_instance("u1", "INV_X1", &[("A", h), ("Y", y1)]);
        nl.add_instance("u2", "INV_X1", &[("A", h), ("Y", y2)]);
        let lib = lib();
        let paths = k_worst_paths(&nl, &lib, &Constraints::default(), 10).unwrap();
        let through_u1 = paths
            .iter()
            .filter(|p| p.steps.iter().any(|s| nl.instance(s.inst).name == "u1"))
            .count();
        let through_u2 = paths
            .iter()
            .filter(|p| p.steps.iter().any(|s| nl.instance(s.inst).name == "u2"))
            .count();
        assert!(through_u1 > 0 && through_u2 > 0, "both branches enumerated");
    }
}
