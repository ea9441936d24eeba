#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Gate-level netlists: the mapped-circuit data model shared by synthesis,
//! timing analysis and simulation.
//!
//! A [`Netlist`] is a flat module: named nets, primary ports and cell
//! instances whose pins connect to nets. Cell semantics (pin directions,
//! functions, delays) come from a [`liberty::Library`] at use time, so the
//! same netlist can be analyzed against the *initial* or any
//! *degradation-aware* library — the pluggability at the heart of the
//! paper's flow.
//!
//! The crate also provides a structural-Verilog subset writer/parser
//! ([`verilog`]), an SDF delay-annotation writer ([`sdf`]) matching the
//! paper's gate-level simulation setup, and the λ-index renaming of
//! Sec. 4.2 ([`annotate`]).
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, PortDir};
//!
//! let mut nl = Netlist::new("top");
//! let a = nl.add_port("a", PortDir::Input);
//! let y = nl.add_port("y", PortDir::Output);
//! nl.add_instance("u1", "INV_X1", &[("A", a), ("Y", y)]);
//! assert_eq!(nl.instance_count(), 1);
//! assert_eq!(nl.net_name(a), "a");
//! ```

pub mod annotate;
mod error;
pub mod sdf;
pub mod verilog;

pub use error::NetlistError;
pub use sdf::{parse_sdf, ArcDelays, DelayAnnotation};

use liberty::Library;
use std::collections::HashMap;

/// Handle to a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// The dense index of this net (0-based creation order) — valid for
    /// indexing per-net side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a dense index previously obtained via
    /// [`NetId::index`]. No validation is performed.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NetId(index)
    }
}

/// Handle to a cell instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub(crate) usize);

impl InstId {
    /// The dense index of this instance (0-based placement order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a dense index previously obtained via
    /// [`InstId::index`]. No validation is performed.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        InstId(index)
    }
}

/// Direction of a primary port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Observed from outside the module.
    Output,
}

/// A primary port: a named net exposed at the module boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port (and net) name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The net carrying this port.
    pub net: NetId,
}

/// One placed cell: an instance of a library cell with pin connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// Library cell name (may carry a λ tag in annotated netlists).
    pub cell: String,
    /// `(pin, net)` connections.
    pub connections: Vec<(String, NetId)>,
}

impl Instance {
    /// The net connected to `pin`, if any.
    #[must_use]
    pub fn net_on(&self, pin: &str) -> Option<NetId> {
        self.connections.iter().find(|(p, _)| p == pin).map(|(_, n)| *n)
    }
}

/// The driver of a net as [`Netlist::validate`] records it: an index into
/// the ports or the instances.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Port(usize),
    Instance(usize),
}

/// A flat gate-level module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    net_names: Vec<String>,
    net_index: HashMap<String, NetId>,
    ports: Vec<Port>,
    instances: Vec<Instance>,
    inst_index: HashMap<String, InstId>,
}

impl Netlist {
    /// Creates an empty module named `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Netlist { name: name.to_owned(), ..Netlist::default() }
    }

    /// Adds a net named `name`, or returns the existing net of that name.
    pub fn add_net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.net_index.get(name) {
            return id;
        }
        let id = NetId(self.net_names.len());
        self.net_names.push(name.to_owned());
        self.net_index.insert(name.to_owned(), id);
        id
    }

    /// Adds a fresh net with a unique generated name based on `prefix`.
    pub fn add_anonymous_net(&mut self, prefix: &str) -> NetId {
        let mut k = self.net_names.len();
        loop {
            let candidate = format!("{prefix}{k}");
            if !self.net_index.contains_key(&candidate) {
                return self.add_net(&candidate);
            }
            k += 1;
        }
    }

    /// Declares a primary port (creating its net) and returns the net.
    ///
    /// # Panics
    ///
    /// Panics if a port of this name already exists.
    pub fn add_port(&mut self, name: &str, dir: PortDir) -> NetId {
        assert!(
            self.ports.iter().all(|p| p.name != name),
            "duplicate port {name} in module {}",
            self.name
        );
        let net = self.add_net(name);
        self.ports.push(Port { name: name.to_owned(), dir, net });
        net
    }

    /// Places an instance of `cell` with the given pin connections.
    ///
    /// # Panics
    ///
    /// Panics if an instance of this name already exists (mirroring
    /// [`Netlist::add_port`]); use [`Netlist::try_add_instance`] to get a
    /// typed error instead.
    pub fn add_instance(
        &mut self,
        name: &str,
        cell: &str,
        connections: &[(&str, NetId)],
    ) -> InstId {
        match self.try_add_instance(name, cell, connections) {
            Ok(id) => id,
            Err(e) => panic!("{e} in module {}", self.name),
        }
    }

    /// Places an instance of `cell`, rejecting duplicate instance names.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateInstance`] if an instance named
    /// `name` already exists.
    pub fn try_add_instance(
        &mut self,
        name: &str,
        cell: &str,
        connections: &[(&str, NetId)],
    ) -> Result<InstId, NetlistError> {
        if self.inst_index.contains_key(name) {
            return Err(NetlistError::DuplicateInstance { instance: name.to_owned() });
        }
        let id = InstId(self.instances.len());
        self.instances.push(Instance {
            name: name.to_owned(),
            cell: cell.to_owned(),
            connections: connections.iter().map(|(p, n)| ((*p).to_owned(), *n)).collect(),
        });
        self.inst_index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks up an instance by name.
    #[must_use]
    pub fn find_instance(&self, name: &str) -> Option<InstId> {
        self.inst_index.get(name).copied()
    }

    /// Number of cell instances.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// All instances in placement order.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The instance behind `id`.
    #[must_use]
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.0]
    }

    /// Mutable access to the instance behind `id` (used by sizing passes).
    pub fn instance_mut(&mut self, id: InstId) -> &mut Instance {
        &mut self.instances[id.0]
    }

    /// All instance handles.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.instances.len()).map(InstId)
    }

    /// The primary ports.
    #[must_use]
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Primary input nets.
    pub fn input_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.ports.iter().filter(|p| p.dir == PortDir::Input).map(|p| p.net)
    }

    /// Primary output nets.
    pub fn output_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.ports.iter().filter(|p| p.dir == PortDir::Output).map(|p| p.net)
    }

    /// The name of `net`.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// Looks up a net by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_index.get(name).copied()
    }

    /// Total cell area against `library`, in µm².
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if an instance references a
    /// cell missing from the library.
    pub fn area(&self, library: &Library) -> Result<f64, NetlistError> {
        let mut total = 0.0;
        for inst in &self.instances {
            let cell = library.cell(&inst.cell).ok_or_else(|| NetlistError::UnknownCell {
                instance: inst.name.clone(),
                cell: inst.cell.clone(),
            })?;
            total += cell.area;
        }
        Ok(total)
    }

    /// Checks structural consistency against `library`: every instance's
    /// cell exists, every connected pin exists on it, every net has at most
    /// one driver, and every instance input pin is connected.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self, library: &Library) -> Result<(), NetlistError> {
        // Each net's driver as a port or instance index; a name is
        // formatted only for the error.
        let mut drivers: Vec<Option<Driver>> = vec![None; self.net_names.len()];
        for (k, port) in self.ports.iter().enumerate() {
            if port.dir == PortDir::Input {
                drivers[port.net.0] = Some(Driver::Port(k));
            }
        }
        for (k, inst) in self.instances.iter().enumerate() {
            let cell = library.cell(&inst.cell).ok_or_else(|| NetlistError::UnknownCell {
                instance: inst.name.clone(),
                cell: inst.cell.clone(),
            })?;
            for (pin, net) in &inst.connections {
                let is_input = cell.input_cap(pin).is_some();
                let is_output = cell.output(pin).is_some();
                if !is_input && !is_output {
                    return Err(NetlistError::UnknownPin {
                        instance: inst.name.clone(),
                        cell: inst.cell.clone(),
                        pin: pin.clone(),
                    });
                }
                if is_output {
                    if let Some(prev) = drivers[net.0] {
                        let first = match prev {
                            Driver::Port(p) => format!("port {}", self.ports[p].name),
                            Driver::Instance(i) => self.instances[i].name.clone(),
                        };
                        return Err(NetlistError::MultipleDrivers {
                            net: self.net_name(*net).to_owned(),
                            first,
                            second: inst.name.clone(),
                        });
                    }
                    drivers[net.0] = Some(Driver::Instance(k));
                }
            }
            for input in &cell.inputs {
                if inst.net_on(&input.name).is_none() {
                    return Err(NetlistError::UnconnectedPin {
                        instance: inst.name.clone(),
                        pin: input.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Builds the net → (driving instance, output pin) map against `library`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] for unmapped instances.
    pub fn drivers(
        &self,
        library: &Library,
    ) -> Result<HashMap<NetId, (InstId, String)>, NetlistError> {
        let mut map = HashMap::new();
        for (k, inst) in self.instances.iter().enumerate() {
            let cell = library.cell(&inst.cell).ok_or_else(|| NetlistError::UnknownCell {
                instance: inst.name.clone(),
                cell: inst.cell.clone(),
            })?;
            for (pin, net) in &inst.connections {
                if cell.output(pin).is_some() {
                    map.insert(*net, (InstId(k), pin.clone()));
                }
            }
        }
        Ok(map)
    }

    /// Builds the net → list of (sink instance, input pin) map.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] for unmapped instances.
    #[allow(clippy::type_complexity)]
    pub fn sinks(
        &self,
        library: &Library,
    ) -> Result<HashMap<NetId, Vec<(InstId, String)>>, NetlistError> {
        let mut map: HashMap<NetId, Vec<(InstId, String)>> = HashMap::new();
        for (k, inst) in self.instances.iter().enumerate() {
            let cell = library.cell(&inst.cell).ok_or_else(|| NetlistError::UnknownCell {
                instance: inst.name.clone(),
                cell: inst.cell.clone(),
            })?;
            for (pin, net) in &inst.connections {
                if cell.input_cap(pin).is_some() {
                    map.entry(*net).or_default().push((InstId(k), pin.clone()));
                }
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty::Cell;

    fn tiny_library() -> Library {
        let mut lib = Library::new("tiny", 1.2);
        lib.add_cell(Cell::test_inverter("INV_X1"));
        lib
    }

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_port("a", PortDir::Input);
        for k in 0..n {
            let next = if k + 1 == n {
                nl.add_port("y", PortDir::Output)
            } else {
                nl.add_anonymous_net("n")
            };
            nl.add_instance(&format!("u{k}"), "INV_X1", &[("A", prev), ("Y", next)]);
            prev = next;
        }
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = inv_chain(3);
        assert_eq!(nl.instance_count(), 3);
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.input_nets().count(), 1);
        assert_eq!(nl.output_nets().count(), 1);
        assert!(nl.find_net("a").is_some());
        assert!(nl.find_net("zz").is_none());
        let u0 = nl.instance(InstId(0));
        assert_eq!(u0.cell, "INV_X1");
        assert_eq!(u0.net_on("A"), nl.find_net("a"));
        assert_eq!(u0.net_on("Z"), None);
    }

    #[test]
    fn add_net_idempotent() {
        let mut nl = Netlist::new("m");
        let a = nl.add_net("x");
        let b = nl.add_net("x");
        assert_eq!(a, b);
        assert_eq!(nl.net_count(), 1);
        let c = nl.add_anonymous_net("x");
        assert_ne!(a, c);
    }

    #[test]
    fn validate_accepts_good_netlist() {
        let nl = inv_chain(2);
        nl.validate(&tiny_library()).expect("valid");
    }

    #[test]
    fn validate_rejects_unknown_cell() {
        let mut nl = inv_chain(1);
        let a = nl.find_net("a").unwrap();
        let y = nl.find_net("y").unwrap();
        nl.add_instance("bad", "NOPE_X9", &[("A", a), ("Y", y)]);
        assert!(matches!(nl.validate(&tiny_library()), Err(NetlistError::UnknownCell { .. })));
    }

    #[test]
    fn validate_rejects_double_driver() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        nl.add_instance("u1", "INV_X1", &[("A", a), ("Y", y)]);
        assert!(matches!(
            nl.validate(&tiny_library()),
            Err(NetlistError::MultipleDrivers { net, first, second })
                if net == "y" && first == "u0" && second == "u1"
        ));

        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let b = nl.add_port("b", PortDir::Input);
        nl.add_instance("u0", "INV_X1", &[("A", b), ("Y", a)]);
        assert!(matches!(
            nl.validate(&tiny_library()),
            Err(NetlistError::MultipleDrivers { net, first, second })
                if net == "a" && first == "port a" && second == "u0"
        ));
    }

    #[test]
    fn validate_rejects_dangling_input() {
        let mut nl = Netlist::new("m");
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("Y", y)]);
        assert!(matches!(nl.validate(&tiny_library()), Err(NetlistError::UnconnectedPin { .. })));
    }

    #[test]
    fn validate_rejects_unknown_pin() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("Q", a), ("Y", y)]);
        assert!(matches!(nl.validate(&tiny_library()), Err(NetlistError::UnknownPin { .. })));
    }

    #[test]
    fn drivers_and_sinks() {
        let nl = inv_chain(2);
        let lib = tiny_library();
        let drivers = nl.drivers(&lib).unwrap();
        let sinks = nl.sinks(&lib).unwrap();
        let y = nl.find_net("y").unwrap();
        let a = nl.find_net("a").unwrap();
        assert_eq!(drivers[&y].0, InstId(1));
        assert!(!drivers.contains_key(&a), "primary input has no cell driver");
        assert_eq!(sinks[&a], vec![(InstId(0), "A".to_owned())]);
    }

    #[test]
    fn area_sums_cells() {
        let nl = inv_chain(3);
        let lib = tiny_library();
        let one = lib.cell("INV_X1").unwrap().area;
        assert!((nl.area(&lib).unwrap() - 3.0 * one).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn duplicate_port_panics() {
        let mut nl = Netlist::new("m");
        nl.add_port("a", PortDir::Input);
        nl.add_port("a", PortDir::Output);
    }

    #[test]
    fn find_instance_by_name() {
        let nl = inv_chain(2);
        assert_eq!(nl.find_instance("u0"), Some(InstId(0)));
        assert_eq!(nl.find_instance("u1"), Some(InstId(1)));
        assert_eq!(nl.find_instance("u9"), None);
    }

    #[test]
    fn try_add_instance_rejects_duplicate_name() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        let n1 = nl.add_net("n1");
        nl.try_add_instance("u0", "INV_X1", &[("A", a), ("Y", n1)]).unwrap();
        let err = nl.try_add_instance("u0", "INV_X1", &[("A", n1), ("Y", y)]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateInstance { instance: "u0".into() });
        // The rejected instance must not be half-added.
        assert_eq!(nl.instance_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate instance")]
    fn duplicate_instance_panics() {
        let mut nl = Netlist::new("m");
        let a = nl.add_port("a", PortDir::Input);
        let y = nl.add_port("y", PortDir::Output);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
        nl.add_instance("u0", "INV_X1", &[("A", a), ("Y", y)]);
    }
}
