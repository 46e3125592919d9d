//! Gate-level netlists: nets, gates, structural queries and validation.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::gate::GateKind;

/// Index of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Interface role of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Driven by the environment (no internal driver allowed).
    Input,
    /// Driven by a gate, observed by the environment.
    Output,
    /// Driven by a gate, internal.
    Internal,
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Instance name for diagnostics.
    pub name: String,
    /// The library element.
    pub kind: GateKind,
    /// Input nets in the order [`GateKind`] documents.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// Structural errors reported by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A non-input net has no driving gate.
    Undriven(String),
    /// A net has two or more driving gates.
    MultiplyDriven(String),
    /// An input net is driven by a gate.
    DrivenInput(String),
    /// A gate's input count contradicts its kind.
    ArityMismatch {
        /// Offending gate name.
        gate: String,
        /// Expected input count: the kind's fixed arity, or 1 (the
        /// least) for a kind of free arity.
        expected: usize,
        /// Actual input count.
        actual: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Undriven(net) => write!(f, "net `{net}` has no driver"),
            NetlistError::MultiplyDriven(net) => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::DrivenInput(net) => {
                write!(f, "input net `{net}` is driven by a gate")
            }
            NetlistError::ArityMismatch {
                gate,
                expected,
                actual,
            } => write!(f, "gate `{gate}` expects {expected} inputs, got {actual}"),
        }
    }
}

impl Error for NetlistError {}

/// A gate-level netlist.
///
/// Cycles are allowed and expected — asynchronous circuits are feedback
/// machines. Structural sanity is checked by [`Netlist::validate`].
///
/// # Examples
///
/// An inverter ring oscillator:
///
/// ```
/// use rt_netlist::{GateKind, NetKind, Netlist};
///
/// let mut n = Netlist::new("ring");
/// let a = n.add_net("a", NetKind::Internal);
/// let b = n.add_net("b", NetKind::Internal);
/// let c = n.add_net("c", NetKind::Output);
/// n.add_gate("i0", GateKind::Inv, vec![c], a);
/// n.add_gate("i1", GateKind::Inv, vec![a], b);
/// n.add_gate("i2", GateKind::Inv, vec![b], c);
/// n.validate().expect("structurally sound");
/// assert_eq!(n.transistor_count(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    net_kinds: Vec<NetKind>,
    gates: Vec<Gate>,
    driver: Vec<Option<GateId>>,
    fanout: Vec<Vec<GateId>>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            net_names: Vec::new(),
            net_kinds: Vec::new(),
            gates: Vec::new(),
            driver: Vec::new(),
            fanout: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net.
    pub fn add_net(&mut self, name: impl Into<String>, kind: NetKind) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.net_kinds.push(kind);
        self.driver.push(None);
        self.fanout.push(Vec::new());
        id
    }

    /// Adds a gate driving `output` from `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if any net id is out of range.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> GateId {
        assert!(output.index() < self.net_names.len(), "output out of range");
        for &input in &inputs {
            assert!(input.index() < self.net_names.len(), "input out of range");
        }
        let id = GateId(self.gates.len() as u32);
        for &input in &inputs {
            self.fanout[input.index()].push(id);
        }
        // First driver wins for structural queries; validate() reports
        // multiple drivers.
        if self.driver[output.index()].is_none() {
            self.driver[output.index()] = Some(id);
        } else {
            self.driver[output.index()] = self.driver[output.index()];
        }
        self.gates.push(Gate {
            name: name.into(),
            kind,
            inputs,
            output,
        });
        id
    }

    /// A content hash of the circuit: net names and kinds, plus every
    /// gate's library element, input order and output, in construction
    /// order. The design *name* and gate names are excluded; net names
    /// are included because verification matches nets to specification
    /// signals by name. A fingerprint, not an identity: two netlists
    /// that hash equal need not be equal.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        // The same multiply-rotate mix as rt_boolean::fxhash, inlined
        // to keep this crate dependency-free.
        struct Fx(u64);
        impl std::hash::Hasher for Fx {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &byte in bytes {
                    self.0 = (self.0.rotate_left(5) ^ u64::from(byte))
                        .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
                }
            }
        }
        let mut hasher = Fx(0);
        hasher.write_u64(self.net_names.len() as u64);
        for (name, kind) in self.net_names.iter().zip(&self.net_kinds) {
            hasher.write(name.as_bytes());
            kind.hash(&mut hasher);
        }
        hasher.write_u64(self.gates.len() as u64);
        for gate in &self.gates {
            gate.kind.hash(&mut hasher);
            for input in &gate.inputs {
                hasher.write_u32(input.0);
            }
            hasher.write_u32(gate.output.0);
        }
        hasher.finish()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Name of `net`.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Kind of `net`.
    pub fn net_kind(&self, net: NetId) -> NetKind {
        self.net_kinds[net.index()]
    }

    /// The gate driving `net`, if any.
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.driver[net.index()]
    }

    /// Gates with `net` among their inputs.
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        &self.fanout[net.index()]
    }

    /// The gate with id `gate`.
    pub fn gate(&self, gate: GateId) -> &Gate {
        &self.gates[gate.index()]
    }

    /// Iterates over all net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_count() as u32).map(NetId)
    }

    /// Iterates over all gate ids.
    pub fn gates(&self) -> impl Iterator<Item = GateId> {
        (0..self.gate_count() as u32).map(GateId)
    }

    /// Nets of a given kind.
    pub fn nets_of_kind(&self, kind: NetKind) -> Vec<NetId> {
        self.nets().filter(|&n| self.net_kind(n) == kind).collect()
    }

    /// Looks a net up by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// Total transistor count — the area proxy used throughout Table 2.
    pub fn transistor_count(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.kind.transistor_count(g.inputs.len()))
            .sum()
    }

    /// Checks that every gate has an input count its kind evaluates:
    /// exactly [`GateKind::fixed_arity`] where the kind fixes one, and
    /// at least one input otherwise.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ArityMismatch`] for the first gate that does not.
    pub fn check_arity(&self) -> Result<(), NetlistError> {
        for gate in &self.gates {
            let actual = gate.inputs.len();
            let (expected, fits) = match gate.kind.fixed_arity() {
                Some(arity) => (arity, actual == arity),
                None => (1, actual > 0),
            };
            if !fits {
                return Err(NetlistError::ArityMismatch {
                    gate: gate.name.clone(),
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Structural validation.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: arity mismatches
    /// ([`Netlist::check_arity`]), then undriven non-input nets,
    /// multiply-driven nets and driven inputs.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.check_arity()?;
        let mut driver_count: HashMap<NetId, usize> = HashMap::new();
        for gate in &self.gates {
            *driver_count.entry(gate.output).or_insert(0) += 1;
        }
        for net in self.nets() {
            let drivers = driver_count.get(&net).copied().unwrap_or(0);
            match self.net_kind(net) {
                NetKind::Input => {
                    if drivers > 0 {
                        return Err(NetlistError::DrivenInput(self.net_name(net).to_string()));
                    }
                }
                NetKind::Output | NetKind::Internal => {
                    if drivers == 0 {
                        return Err(NetlistError::Undriven(self.net_name(net).to_string()));
                    }
                    if drivers > 1 {
                        return Err(NetlistError::MultiplyDriven(self.net_name(net).to_string()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Graphviz DOT rendering.
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n  rankdir=LR;\n", self.name);
        for net in self.nets() {
            if matches!(self.net_kind(net), NetKind::Input | NetKind::Output) {
                out.push_str(&format!(
                    "  \"{}\" [shape=plaintext];\n",
                    self.net_name(net)
                ));
            }
        }
        for gate in &self.gates {
            out.push_str(&format!(
                "  \"{}\" [shape=box,label=\"{} {}\"];\n",
                gate.name, gate.name, gate.kind
            ));
            for &input in &gate.inputs {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.net_name(input),
                    gate.name
                ));
            }
            out.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                gate.name,
                self.net_name(gate.output)
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_or(kind_a: GateKind, kind_b: GateKind) -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_net("a", NetKind::Input);
        let b = n.add_net("b", NetKind::Input);
        let m = n.add_net("m", NetKind::Internal);
        let y = n.add_net("y", NetKind::Output);
        n.add_gate("g0", kind_a, vec![a, b], m);
        n.add_gate("g1", kind_b, vec![m, a], y);
        n
    }

    #[test]
    fn build_and_query() {
        let n = and_or(GateKind::And, GateKind::Or);
        assert_eq!(n.net_count(), 4);
        assert_eq!(n.gate_count(), 2);
        let m = n.net_by_name("m").unwrap();
        assert_eq!(n.driver(m), Some(GateId(0)));
        assert_eq!(n.fanout(m), &[GateId(1)]);
        let a = n.net_by_name("a").unwrap();
        assert_eq!(n.fanout(a).len(), 2);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn transistor_totals() {
        let n = and_or(GateKind::And, GateKind::Or);
        // AND2 = 6, OR2 = 6.
        assert_eq!(n.transistor_count(), 12);
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new("bad");
        let _a = n.add_net("a", NetKind::Input);
        let y = n.add_net("y", NetKind::Output);
        let _ = y;
        let err = n.validate().unwrap_err();
        assert_eq!(err, NetlistError::Undriven("y".into()));
    }

    #[test]
    fn multiply_driven_net_detected() {
        let mut n = Netlist::new("bad");
        let a = n.add_net("a", NetKind::Input);
        let y = n.add_net("y", NetKind::Output);
        n.add_gate("g0", GateKind::Inv, vec![a], y);
        n.add_gate("g1", GateKind::Buf, vec![a], y);
        let err = n.validate().unwrap_err();
        assert_eq!(err, NetlistError::MultiplyDriven("y".into()));
    }

    #[test]
    fn driven_input_detected() {
        let mut n = Netlist::new("bad");
        let a = n.add_net("a", NetKind::Input);
        let b = n.add_net("b", NetKind::Input);
        n.add_gate("g0", GateKind::Inv, vec![a], b);
        let err = n.validate().unwrap_err();
        assert_eq!(err, NetlistError::DrivenInput("b".into()));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut n = Netlist::new("bad");
        let a = n.add_net("a", NetKind::Input);
        let b = n.add_net("b", NetKind::Input);
        let y = n.add_net("y", NetKind::Output);
        n.add_gate("g0", GateKind::Inv, vec![a, b], y);
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn every_gate_needs_an_input_count_its_kind_evaluates() {
        // One input too few for a gC with a one-high set and reset
        // stack, and no input at all for an AND (free arity, at least
        // one): `GateKind::evaluate` panics on both.
        let mut n = Netlist::new("bad");
        let a = n.add_net("a", NetKind::Input);
        let y = n.add_net("y", NetKind::Output);
        n.add_gate("gc_y", GateKind::Gc { set: 1, reset: 1 }, vec![a], y);
        let gc = NetlistError::ArityMismatch {
            gate: "gc_y".into(),
            expected: 2,
            actual: 1,
        };
        assert_eq!(n.check_arity(), Err(gc.clone()));
        assert_eq!(n.validate(), Err(gc));
        let mut n = Netlist::new("bad");
        let y = n.add_net("y", NetKind::Output);
        n.add_gate("and_y", GateKind::And, Vec::new(), y);
        assert_eq!(
            n.check_arity(),
            Err(NetlistError::ArityMismatch {
                gate: "and_y".into(),
                expected: 1,
                actual: 0,
            })
        );
    }

    #[test]
    fn feedback_cycles_are_legal() {
        let mut n = Netlist::new("ring");
        let a = n.add_net("a", NetKind::Internal);
        let b = n.add_net("b", NetKind::Internal);
        n.add_gate("i0", GateKind::Inv, vec![a], b);
        n.add_gate("i1", GateKind::Inv, vec![b], a);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn dot_mentions_ports_and_gates() {
        let n = and_or(GateKind::Nand, GateKind::Nor);
        let dot = n.to_dot();
        for label in ["a", "b", "y", "g0", "g1", "NAND", "NOR"] {
            assert!(dot.contains(label), "missing {label}");
        }
    }

    #[test]
    fn nets_of_kind_partitions() {
        let n = and_or(GateKind::And, GateKind::Or);
        assert_eq!(n.nets_of_kind(NetKind::Input).len(), 2);
        assert_eq!(n.nets_of_kind(NetKind::Output).len(), 1);
        assert_eq!(n.nets_of_kind(NetKind::Internal).len(), 1);
    }
}
