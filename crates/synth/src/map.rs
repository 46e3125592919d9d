//! Cover minimization and technology mapping onto generalized
//! C-elements.
//!
//! Every implemented signal becomes one [`rt_netlist::GateKind::Gc`]
//! whose set/reset stacks realize the minimized covers. Multi-cube covers
//! are built from AND/OR trees feeding the stack; complemented literals
//! share one inverter per signal. This is the "complex gate /
//! generalized-C" style the paper's Figure 4 circuit belongs to.

use std::collections::HashMap;

use rt_boolean::Cover;
use rt_netlist::{GateKind, NetId, NetKind, Netlist};
use rt_stg::{SignalId, SignalKind, StateGraph};

use crate::error::SynthError;
use crate::regions::{derive_functions, LocalDontCares, SetResetSpec};

/// Result of synthesis: the netlist plus per-signal minimized covers.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The mapped gate-level implementation.
    pub netlist: Netlist,
    /// Per implemented signal: `(signal, set cover, reset cover)`.
    pub equations: Vec<(SignalId, Cover, Cover)>,
    /// Total minimized literal count.
    pub literal_count: usize,
}

impl SynthesisResult {
    /// Pretty-prints the set/reset equations against the state-graph
    /// signal names.
    pub fn equations_text(&self, sg: &StateGraph) -> String {
        let names: Vec<&str> = sg.signals().map(|s| sg.signal_name(s)).collect();
        let mut out = String::new();
        for (signal, set, reset) in &self.equations {
            out.push_str(&format!(
                "{}: set = {} ; reset = {}\n",
                sg.signal_name(*signal),
                set.to_expression(&names),
                reset.to_expression(&names),
            ));
        }
        out
    }
}

/// Synthesizes a CSC-free state graph into a gC netlist.
///
/// # Errors
///
/// Propagates [`crate::regions::derive_functions`] failures and reports
/// [`SynthError::OverlappingCovers`] when the minimized set and reset of
/// some signal intersect on a reachable state.
pub fn synthesize(sg: &StateGraph, name: &str) -> Result<SynthesisResult, SynthError> {
    synthesize_with_dc(sg, name, &LocalDontCares::none())
}

/// [`synthesize`] with caller-provided local don't-cares (used by the
/// relative-timing flow for lazy signals).
///
/// Each signal's set and reset covers are minimized by
/// [`SignalFunctions::minimize`](crate::regions::SignalFunctions::minimize):
/// against the signal's own don't-cares plus the graph's unreachable
/// codes, which one call holds once for all signals.
pub fn synthesize_with_dc(
    sg: &StateGraph,
    name: &str,
    local_dc: &LocalDontCares,
) -> Result<SynthesisResult, SynthError> {
    let funcs = derive_functions(sg, local_dc)?;
    let mut netlist = Netlist::new(name);
    let mut builder = Mapper::new(&mut netlist, sg);
    let mut equations = Vec::new();
    let mut literal_count = 0;

    for spec in &funcs.specs {
        let (set, reset) = funcs.minimize(spec);
        check_no_overlap(sg, spec, &set, &reset)?;
        literal_count += set.literal_count() + reset.literal_count();
        builder.map_signal(spec.signal, &set, &reset);
        equations.push((spec.signal, set, reset));
    }
    builder.finish();
    Ok(SynthesisResult {
        netlist,
        equations,
        literal_count,
    })
}

/// The most literals placed directly in one gC stack. Real gate
/// libraries bound the series-transistor stack height (deep stacks are
/// slow and leaky), so the mapper folds any wider set/reset cube through
/// an AND tree before it reaches the gC — the "timing-aware logic
/// decomposition and technology mapping" step Section 6 calls for.
const MAX_STACK: usize = 4;

/// The minimized covers must never both be on in a reachable state —
/// otherwise the gC set and reset stacks fight.
fn check_no_overlap(
    sg: &StateGraph,
    spec: &SetResetSpec,
    set: &Cover,
    reset: &Cover,
) -> Result<(), SynthError> {
    for state in sg.states() {
        let code = sg.code(state);
        if set.evaluate(code) && reset.evaluate(code) {
            return Err(SynthError::OverlappingCovers {
                signal: sg.signal_name(spec.signal).to_string(),
                state_code: code,
            });
        }
    }
    Ok(())
}

/// Incremental netlist builder shared across signals (inverters are
/// created once per complemented literal).
struct Mapper<'a> {
    netlist: &'a mut Netlist,
    sg: &'a StateGraph,
    signal_nets: Vec<NetId>,
    inverters: HashMap<usize, NetId>,
    aux: usize,
}

impl<'a> Mapper<'a> {
    fn new(netlist: &'a mut Netlist, sg: &'a StateGraph) -> Self {
        let mut signal_nets = Vec::new();
        for signal in sg.signals() {
            let kind = match sg.signal_kind(signal) {
                SignalKind::Input => NetKind::Input,
                SignalKind::Output => NetKind::Output,
                SignalKind::Internal => NetKind::Internal,
            };
            signal_nets.push(netlist.add_net(sg.signal_name(signal), kind));
        }
        Mapper {
            netlist,
            sg,
            signal_nets,
            inverters: HashMap::new(),
            aux: 0,
        }
    }

    /// Reduces a literal list to at most [`MAX_STACK`] nets by folding
    /// the overflow through AND gates (balanced-ish: fold from the front).
    fn decompose_stack(&mut self, owner: &str, role: &str, mut nets: Vec<NetId>) -> Vec<NetId> {
        while nets.len() > MAX_STACK {
            let take = nets.len() - MAX_STACK + 1;
            let group: Vec<NetId> = nets.drain(..take).collect();
            let folded = self
                .netlist
                .add_net(format!("{owner}_{role}_d{}", self.aux), NetKind::Internal);
            self.aux += 1;
            self.netlist.add_gate(
                format!("and_{owner}_{role}_d{}", self.aux),
                GateKind::And,
                group,
                folded,
            );
            nets.insert(0, folded);
        }
        nets
    }

    fn literal_net(&mut self, var: usize, positive: bool) -> NetId {
        if positive {
            return self.signal_nets[var];
        }
        if let Some(&net) = self.inverters.get(&var) {
            return net;
        }
        let name = format!("{}_b", self.sg.signal_name(rt_stg::SignalId(var as u32)));
        let net = self.netlist.add_net(name.clone(), NetKind::Internal);
        self.netlist.add_gate(
            format!("inv_{}", self.sg.signal_name(rt_stg::SignalId(var as u32))),
            GateKind::Inv,
            vec![self.signal_nets[var]],
            net,
        );
        self.inverters.insert(var, net);
        net
    }

    /// Reduces a cover to a single net (possibly via AND/OR trees) and
    /// returns the net plus how many stack inputs it represents when the
    /// cover is a single cube (so single-cube covers embed directly into
    /// the gC stack).
    fn cover_nets(&mut self, owner: &str, role: &str, cover: &Cover) -> Vec<NetId> {
        match cover.cubes() {
            [] => {
                // Constant-0 stack: tie low through a dedicated net.
                let net = self
                    .netlist
                    .add_net(format!("{owner}_{role}_zero"), NetKind::Internal);
                // A NOR of a signal and its complement is constant 0.
                let some_sig = self.signal_nets[0];
                let inv = self.literal_net(0, false);
                self.netlist.add_gate(
                    format!("tie0_{owner}_{role}"),
                    GateKind::Nor,
                    vec![some_sig, inv],
                    net,
                );
                vec![net]
            }
            [single] => single
                .literals()
                .map(|(var, positive)| self.literal_net(var, positive))
                .collect(),
            cubes => {
                // Per-cube AND (or direct literal), then one OR.
                let mut products = Vec::new();
                for cube in cubes {
                    let literals: Vec<NetId> = cube
                        .literals()
                        .map(|(var, positive)| self.literal_net(var, positive))
                        .collect();
                    if literals.len() == 1 {
                        products.push(literals[0]);
                    } else {
                        let net = self
                            .netlist
                            .add_net(format!("{owner}_{role}_p{}", self.aux), NetKind::Internal);
                        self.aux += 1;
                        self.netlist.add_gate(
                            format!("and_{owner}_{role}_{}", self.aux),
                            GateKind::And,
                            literals,
                            net,
                        );
                        products.push(net);
                    }
                }
                let or_net = self
                    .netlist
                    .add_net(format!("{owner}_{role}_or"), NetKind::Internal);
                self.netlist
                    .add_gate(format!("or_{owner}_{role}"), GateKind::Or, products, or_net);
                vec![or_net]
            }
        }
    }

    fn map_signal(&mut self, signal: SignalId, set: &Cover, reset: &Cover) {
        let owner = self.sg.signal_name(signal).to_string();
        let set_nets = self.cover_nets(&owner, "set", set);
        let set_nets = self.decompose_stack(&owner, "set", set_nets);
        let reset_nets = self.cover_nets(&owner, "reset", reset);
        let reset_nets = self.decompose_stack(&owner, "reset", reset_nets);
        let mut inputs = set_nets.clone();
        inputs.extend(reset_nets.iter().copied());
        self.netlist.add_gate(
            format!("gc_{owner}"),
            GateKind::Gc {
                set: set_nets.len() as u8,
                reset: reset_nets.len() as u8,
            },
            inputs,
            self.signal_nets[signal.index()],
        );
    }

    fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_stg::{explore, models};

    #[test]
    fn celement_maps_to_single_gc() {
        let sg = explore(&models::celement_stg()).unwrap();
        let result = synthesize(&sg, "celem").unwrap();
        result.netlist.validate().unwrap();
        // set = a·b, reset = a̅·b̅: one gC plus two inverters.
        let gcs = result
            .netlist
            .gates()
            .filter(|&g| matches!(result.netlist.gate(g).kind, GateKind::Gc { .. }))
            .count();
        assert_eq!(gcs, 1);
        assert_eq!(result.literal_count, 4);
    }

    #[test]
    fn handshake_output_is_a_buffer_like_gc() {
        let sg = explore(&models::handshake_stg()).unwrap();
        let result = synthesize(&sg, "hs").unwrap();
        result.netlist.validate().unwrap();
        // b: set = a, reset = a̅ -> 2 literals.
        assert_eq!(result.literal_count, 2);
    }

    #[test]
    fn fifo_csc_synthesizes_three_state_holders() {
        let sg = explore(&models::fifo_stg_csc()).unwrap();
        let result = synthesize(&sg, "fifo").unwrap();
        result.netlist.validate().unwrap();
        let gcs = result
            .netlist
            .gates()
            .filter(|&g| matches!(result.netlist.gate(g).kind, GateKind::Gc { .. }))
            .count();
        assert_eq!(gcs, 3, "lo, ro, x");
        // The synthesized area lands in the Figure-4 class.
        let transistors = result.netlist.transistor_count();
        assert!(
            (30..=60).contains(&transistors),
            "got {transistors} transistors"
        );
    }

    #[test]
    fn equations_text_names_signals() {
        let sg = explore(&models::celement_stg()).unwrap();
        let result = synthesize(&sg, "celem").unwrap();
        let text = result.equations_text(&sg);
        assert!(text.contains("c: set = a·b"), "{text}");
    }

    #[test]
    fn unresolved_csc_is_an_error() {
        let sg = explore(&models::fifo_stg()).unwrap();
        assert!(matches!(
            synthesize(&sg, "fifo"),
            Err(SynthError::CscConflict { .. })
        ));
    }

    #[test]
    fn stack_limit_decomposes_wide_covers() {
        // Six literals fold to four stack inputs: the first three go
        // through one AND gate, whose output leads the stack.
        let sg = explore(&models::fifo_stg_csc()).unwrap();
        let mut netlist = Netlist::new("wide");
        let mut mapper = Mapper::new(&mut netlist, &sg);
        let literals: Vec<NetId> = (0..6)
            .map(|i| mapper.netlist.add_net(format!("l{i}"), NetKind::Internal))
            .collect();
        let stack = mapper.decompose_stack("o", "set", literals.clone());
        assert_eq!(stack.len(), MAX_STACK);
        assert_eq!(&stack[1..], &literals[3..]);
        let fold = netlist.gate(netlist.driver(stack[0]).expect("a folded net"));
        assert_eq!(fold.kind, GateKind::And);
        assert_eq!(fold.inputs, literals[..3]);
    }

    #[test]
    fn the_paper_cells_fit_the_stack_limit() {
        // The FIFO covers all fit in 4-high stacks: nothing is folded.
        let sg = explore(&models::fifo_stg_csc()).unwrap();
        let result = synthesize(&sg, "fifo").unwrap();
        for g in result.netlist.gates() {
            if let GateKind::Gc { set, reset } = result.netlist.gate(g).kind {
                assert!(usize::from(set.max(reset)) <= MAX_STACK);
            }
        }
        assert!(result
            .netlist
            .nets()
            .all(|n| !result.netlist.net_name(n).contains("_d")));
    }

    #[test]
    fn end_to_end_resolution_plus_synthesis() {
        let res = crate::csc::resolve_csc(&models::fifo_stg()).unwrap();
        let sg = res.sg.as_ref().expect("explicit path carries its graph");
        let result = synthesize(sg, "fifo_auto").unwrap();
        result.netlist.validate().unwrap();
        assert!(result.literal_count > 0);
    }
}
