//! The composed verification state space: netlist × specification.
//!
//! Semantics: every *logic* gate has an unbounded delay; an **excited**
//! gate (evaluated output ≠ current output) may fire at any time. The
//! environment may fire any input event the specification enables.
//! Interface transitions must be enabled in the specification
//! (conformance). Inverters and buffers are treated as **transparent**
//! (zero-delay parts of the complex gates they feed) — the classic atomic
//! complex-gate assumption `petrify` makes; without it no gC netlist with
//! input bubbles would be speed-independent.
//!
//! The walk is one breadth-first pass over composed states. A composed
//! state is a specification state plus one bit per net, so the walk
//! takes netlists of at most 64 nets; past that every entry point that
//! returns a `Result` refuses with [`StgError::TooManySignals`], and
//! [`verify_against_sg`] panics. They refuse a gate whose input count
//! its kind does not take ([`Netlist::check_arity`]) the same way, as
//! [`StgError::InvalidNetlist`], before the walk evaluates any gate.
//!
//! One failure class: [`Failure::UnexpectedOutput`] — the circuit
//! produced an interface edge the specification does not allow in the
//! current state. Each `(net, value)` is reported once, at the first
//! composed state where the walk meets it; the record carries the other
//! transitions that were pending, from which [`crate::require`]
//! proposes repairing orderings.
//!
//! Relative timing enters through [`NetOrdering`]s: `before → after`
//! suppresses any interleaving where `after` fires while `before` is
//! pending — precisely how the paper's verifier "disallows" the
//! erroneous firing through relative timing".

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use rt_netlist::{GateId, GateKind, NetId, NetKind, Netlist};
use rt_stg::engine::ReachEngine;
use rt_stg::{Budget, Edge, SignalEvent, SignalId, StateGraph, StateId, Stg, StgError};

/// A net-level relative-timing ordering: wherever both transitions are
/// pending, `before` fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetOrdering {
    /// Net and target value of the earlier transition.
    pub before: (NetId, bool),
    /// Net and target value of the later transition.
    pub after: (NetId, bool),
}

impl NetOrdering {
    /// Creates an ordering.
    pub fn new(before: (NetId, bool), after: (NetId, bool)) -> Self {
        NetOrdering { before, after }
    }

    /// Renders against a netlist's net names, e.g. `ac+ before ab-`.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let edge = |v: bool| if v { '+' } else { '-' };
        format!(
            "{}{} before {}{}",
            netlist.net_name(self.before.0),
            edge(self.before.1),
            netlist.net_name(self.after.0),
            edge(self.after.1),
        )
    }
}

/// A verification failure with a witness trace of `(net, value)` steps
/// from reset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The circuit fired an interface edge the spec does not enable.
    UnexpectedOutput {
        /// The offending net.
        net: NetId,
        /// The value it switched to.
        value: bool,
        /// Other transitions pending at the failure point (repair
        /// candidates for relative timing).
        pending_others: Vec<(NetId, bool)>,
        /// Transition trace from the initial state.
        trace: Vec<(NetId, bool)>,
    },
}

impl Failure {
    /// Human-readable description.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let Failure::UnexpectedOutput {
            net, value, trace, ..
        } = self;
        format!(
            "unexpected output {}{} after {} steps",
            netlist.net_name(*net),
            if *value { '+' } else { '-' },
            trace.len()
        )
    }
}

/// Verification result.
///
/// `PartialEq`/`Eq` compare the full report — failures (traces
/// included) and the composed-state count — which is what the service
/// layer's bit-identical-to-direct-call pin and its flight table rely
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Failures found, one per `(net, value)`, in the order the walk met
    /// them.
    pub failures: Vec<Failure>,
    /// Number of composed states explored.
    pub states_explored: usize,
}

impl VerifyReport {
    /// Whether the circuit conforms: the walk found no failure.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ComposedState {
    net_values: u64,
    spec: StateId,
}

/// Verifies `netlist` against the reachable behaviour of `spec`,
/// explored through a throwaway explicit-backend [`ReachEngine`].
///
/// # Errors
///
/// As [`verify_with_engine`].
pub fn verify(
    netlist: &Netlist,
    spec: &Stg,
    orderings: &[NetOrdering],
) -> Result<VerifyReport, StgError> {
    verify_with_engine(netlist, spec, orderings, &mut ReachEngine::explicit())
}

/// [`verify`] through a caller-owned [`ReachEngine`] — the variant the
/// synthesis pipeline uses so the specification's reachable states come
/// from the same engine (same budget, same warm symbolic manager) that
/// drove synthesis. The composed walk runs to completion.
///
/// # Errors
///
/// * [`StgError`] when the specification cannot be explored;
/// * [`StgError::TooManySignals`] — the netlist has more than 64 nets
///   (the net count is carried);
/// * [`StgError::InvalidNetlist`] — a gate has an input count its kind
///   does not take.
pub fn verify_with_engine(
    netlist: &Netlist,
    spec: &Stg,
    orderings: &[NetOrdering],
    engine: &mut ReachEngine,
) -> Result<VerifyReport, StgError> {
    let sg = engine.state_graph(spec)?;
    Composer::new(netlist, &sg, orderings)?.run(None)
}

/// Verifies against an already-computed (possibly *lazy*) state graph —
/// the entry point used after relative-timing synthesis, where the
/// specification is the reduced graph. The walk runs to completion: it
/// has no cap and no budget, so its verdict always covers every
/// composed state.
///
/// # Panics
///
/// When the netlist has more than 64 nets or a gate has an input count
/// its kind does not take; [`verify_with_budget`] refuses the same
/// netlist with a typed error.
pub fn verify_against_sg(
    netlist: &Netlist,
    sg: &StateGraph,
    orderings: &[NetOrdering],
) -> VerifyReport {
    Composer::new(netlist, sg, orderings)
        .unwrap_or_else(|e| {
            panic!("the composed walk takes at most 64 nets, each gate fed as its kind needs: {e}")
        })
        .run(None)
        .expect("the unbudgeted composed walk runs to completion")
}

/// [`verify_against_sg`] under a [`Budget`]: the composed netlist ×
/// specification walk polls the budget's cancellation token, deadline
/// and state cap once per dequeued composed state, and stops past a hard
/// cap of 2^18 composed states.
///
/// A verdict over a *partial* state space would be unsound (an
/// unexplored interleaving could still fail), so budget exhaustion and
/// the cap are hard errors here, never a degraded report — unlike
/// reachability, where the engine can fall back to another backend.
///
/// # Errors
///
/// * [`StgError::TooManySignals`] — the netlist has more than 64 nets
///   (the net count is carried);
/// * [`StgError::InvalidNetlist`] — a gate has an input count its kind
///   does not take;
/// * [`StgError::Cancelled`] — the token fired or the deadline passed;
/// * [`StgError::StateBudgetExceeded`] — more composed states than
///   `budget.max_states`;
/// * [`StgError::StateLimitExceeded`] — more than 2^18 composed states.
pub fn verify_with_budget(
    netlist: &Netlist,
    sg: &StateGraph,
    orderings: &[NetOrdering],
    budget: &Budget,
) -> Result<VerifyReport, StgError> {
    Composer::new(netlist, sg, orderings)?.run(Some(budget))
}

/// The hard cap on the composed states a budgeted walk dequeues.
const COMPOSED_STATE_LIMIT: usize = 1 << 18;

/// A composed state codes one bit per net in a `u64`.
const MAX_NETS: usize = 64;

struct Composer<'a> {
    netlist: &'a Netlist,
    sg: &'a StateGraph,
    orderings: &'a [NetOrdering],
    /// Net ↔ spec-signal correspondence by name.
    net_signal: Vec<Option<SignalId>>,
    /// Spec input events mapped to nets.
    input_nets: Vec<(NetId, SignalId)>,
    /// Inverter/buffer outputs resolved combinationally.
    transparent: Vec<bool>,
}

/// A pending transition: the net, the value it switches to, and whether
/// a gate drives it (otherwise it is an environment input event).
type Pending = (NetId, bool, bool);

impl<'a> Composer<'a> {
    fn new(
        netlist: &'a Netlist,
        sg: &'a StateGraph,
        orderings: &'a [NetOrdering],
    ) -> Result<Self, StgError> {
        if netlist.net_count() > MAX_NETS {
            return Err(StgError::TooManySignals(netlist.net_count()));
        }
        netlist
            .check_arity()
            .map_err(|err| StgError::InvalidNetlist(err.to_string()))?;
        let mut net_signal = vec![None; netlist.net_count()];
        let mut input_nets = Vec::new();
        for net in netlist.nets() {
            for signal in sg.signals() {
                if sg.signal_name(signal) == netlist.net_name(net) {
                    net_signal[net.index()] = Some(signal);
                    if netlist.net_kind(net) == NetKind::Input {
                        input_nets.push((net, signal));
                    }
                }
            }
        }
        let mut transparent = vec![false; netlist.net_count()];
        for gate_id in netlist.gates() {
            let gate = netlist.gate(gate_id);
            if matches!(gate.kind, GateKind::Inv | GateKind::Buf)
                && net_signal[gate.output.index()].is_none()
            {
                transparent[gate.output.index()] = true;
            }
        }
        Ok(Composer {
            netlist,
            sg,
            orderings,
            net_signal,
            input_nets,
            transparent,
        })
    }

    fn stored_value(state: u64, net: NetId) -> bool {
        state >> net.index() & 1 == 1
    }

    fn with_value(state: u64, net: NetId, value: bool) -> u64 {
        if value {
            state | 1 << net.index()
        } else {
            state & !(1 << net.index())
        }
    }

    /// Value of a net, reading through transparent inverters/buffers.
    fn read(&self, state: u64, net: NetId, depth: usize) -> bool {
        if !self.transparent[net.index()] || depth > 8 {
            return Self::stored_value(state, net);
        }
        let gate_id = self
            .netlist
            .driver(net)
            .expect("transparent nets are driven");
        let gate = self.netlist.gate(gate_id);
        let input = self.read(state, gate.inputs[0], depth + 1);
        match gate.kind {
            GateKind::Inv => !input,
            GateKind::Buf => input,
            _ => unreachable!("transparent nets are INV/BUF outputs"),
        }
    }

    /// Evaluates a gate, reading its inputs into the reused `inputs`.
    fn eval_gate(&self, state: u64, gate_id: GateId, inputs: &mut Vec<bool>) -> bool {
        let gate = self.netlist.gate(gate_id);
        inputs.clear();
        inputs.extend(gate.inputs.iter().map(|&net| self.read(state, net, 0)));
        gate.kind
            .evaluate(inputs, Self::stored_value(state, gate.output))
    }

    /// Initial net values: derived from the spec's initial code for
    /// interface nets, then the rest settled combinationally.
    fn initial_values(&self) -> u64 {
        let mut values = 0u64;
        let mut inputs = Vec::new();
        for net in self.netlist.nets() {
            if let Some(signal) = self.net_signal[net.index()] {
                values =
                    Self::with_value(values, net, self.sg.signal_value(self.sg.initial(), signal));
            }
        }
        for _ in 0..2 * self.netlist.gate_count() + 4 {
            let mut changed = false;
            for gate_id in self.netlist.gates() {
                let gate = self.netlist.gate(gate_id);
                if self.net_signal[gate.output.index()].is_some() {
                    continue; // interface nets hold their spec value
                }
                let out = self.eval_gate(values, gate_id, &mut inputs);
                if out != Self::stored_value(values, gate.output) {
                    values = Self::with_value(values, gate.output, out);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        values
    }

    /// Fills `out` with every pending transition of a composed state:
    /// excited non-transparent gates, then spec-enabled input events.
    /// `inputs` is the gate evaluation's reused buffer.
    fn pending(&self, state: ComposedState, out: &mut Vec<Pending>, inputs: &mut Vec<bool>) {
        out.clear();
        for gate_id in self.netlist.gates() {
            let gate = self.netlist.gate(gate_id);
            if self.transparent[gate.output.index()] {
                continue;
            }
            let current = Self::stored_value(state.net_values, gate.output);
            let next = self.eval_gate(state.net_values, gate_id, inputs);
            if next != current {
                out.push((gate.output, next, true));
            }
        }
        for &(net, signal) in &self.input_nets {
            let current = Self::stored_value(state.net_values, net);
            let event = SignalEvent::new(signal, if current { Edge::Fall } else { Edge::Rise });
            if self.spec_successor(state.spec, event).is_some() {
                out.push((net, !current, false));
            }
        }
    }

    fn suppressed(&self, candidate: (NetId, bool), pending: &[Pending]) -> bool {
        self.orderings
            .iter()
            .any(|o| o.after == candidate && pending.iter().any(|&(n, v, _)| (n, v) == o.before))
    }

    /// The breadth-first walk. `visited` holds every composed state in
    /// discovery order with the index of the state it was first reached
    /// from, and `index` maps a state to its position there; the queue is
    /// the unprocessed tail of `visited`, as in `rt_stg::reach`.
    fn run(&self, budget: Option<&Budget>) -> Result<VerifyReport, StgError> {
        let initial = ComposedState {
            net_values: self.initial_values(),
            spec: self.sg.initial(),
        };
        let mut visited = vec![(initial, 0)];
        let mut index = HashMap::from([(initial, 0)]);
        let mut failures = Vec::new();
        let mut reported = HashSet::new();
        let mut pending = Vec::new();
        let mut inputs = Vec::new();
        let mut current = 0;

        while current < visited.len() {
            let state = visited[current].0;
            if let Some(budget) = budget {
                let explored = current + 1;
                if budget.cancelled() {
                    return Err(StgError::Cancelled);
                }
                if budget.states_exhausted(explored) {
                    return Err(StgError::StateBudgetExceeded { states: explored });
                }
                if explored > COMPOSED_STATE_LIMIT {
                    return Err(StgError::StateLimitExceeded(COMPOSED_STATE_LIMIT));
                }
            }
            self.pending(state, &mut pending, &mut inputs);
            for &(net, value, driven) in &pending {
                if self.suppressed((net, value), &pending) {
                    continue;
                }
                let mut next_spec = state.spec;
                if let Some(signal) = self.net_signal[net.index()] {
                    let event =
                        SignalEvent::new(signal, if value { Edge::Rise } else { Edge::Fall });
                    match self.spec_successor(state.spec, event) {
                        Some(q) => next_spec = q,
                        None => {
                            if driven && reported.insert((net, value)) {
                                failures.push(Failure::UnexpectedOutput {
                                    net,
                                    value,
                                    pending_others: pending
                                        .iter()
                                        .map(|&(n, v, _)| (n, v))
                                        .filter(|&edge| edge != (net, value))
                                        .collect(),
                                    trace: trace_to(&visited, current),
                                });
                            }
                            continue;
                        }
                    }
                }
                let next = ComposedState {
                    net_values: Self::with_value(state.net_values, net, value),
                    spec: next_spec,
                };
                if let Entry::Vacant(slot) = index.entry(next) {
                    slot.insert(visited.len());
                    visited.push((next, current));
                }
            }
            current += 1;
        }

        Ok(VerifyReport {
            failures,
            states_explored: visited.len(),
        })
    }

    /// Follows `event` in the spec, skipping over silent arcs.
    fn spec_successor(&self, state: StateId, event: SignalEvent) -> Option<StateId> {
        for arc in self.sg.successors(state) {
            if arc.event == Some(event) {
                return Some(arc.to);
            }
        }
        for arc in self.sg.successors(state) {
            if arc.event.is_none() {
                for arc2 in self.sg.successors(arc.to) {
                    if arc2.event == Some(event) {
                        return Some(arc2.to);
                    }
                }
            }
        }
        None
    }
}

/// The transitions from the initial state to `visited[state]`. Each step
/// flips exactly one net (a pending transition switches its net to the
/// other value), so it is read off the two net codes it joins.
fn trace_to(visited: &[(ComposedState, usize)], mut state: usize) -> Vec<(NetId, bool)> {
    let mut steps = Vec::new();
    while state != 0 {
        let (child, parent) = visited[state];
        let flipped = child.net_values ^ visited[parent].0.net_values;
        debug_assert_eq!(flipped.count_ones(), 1, "a step flips one net");
        let net = NetId(flipped.trailing_zeros());
        steps.push((net, Composer::stored_value(child.net_values, net)));
        state = parent;
    }
    steps.reverse();
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_netlist::cells::{atomic_celement, majority_celement};
    use rt_netlist::fifo::si_fifo;
    use rt_stg::models;

    #[test]
    fn atomic_celement_conforms() {
        let (netlist, _, _, _) = atomic_celement();
        let report = verify(&netlist, &models::celement_stg(), &[]).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn majority_celement_fails_unbounded() {
        let (netlist, p) = majority_celement();
        let report = verify(&netlist, &models::celement_stg(), &[]).unwrap();
        assert!(!report.passed());
        // The observable failure is c falling out of order: `ab` fell
        // while `bc` had not risen yet. The whole report is pinned.
        let expected = VerifyReport {
            failures: vec![Failure::UnexpectedOutput {
                net: p.c,
                value: false,
                pending_others: vec![(p.bc, true), (p.b, false)],
                trace: vec![
                    (p.a, true),
                    (p.b, true),
                    (p.ab, true),
                    (p.c, true),
                    (p.a, false),
                    (p.ab, false),
                ],
            }],
            states_explored: 33,
        };
        assert_eq!(report, expected);
    }

    #[test]
    fn majority_celement_passes_with_section5_constraints() {
        let (netlist, p) = majority_celement();
        // "ac and bc will rise before ab falls".
        let orderings = [
            NetOrdering::new((p.ac, true), (p.ab, false)),
            NetOrdering::new((p.bc, true), (p.ab, false)),
        ];
        let report = verify(&netlist, &models::celement_stg(), &orderings).unwrap();
        assert!(
            report.passed(),
            "{:?}",
            report
                .failures
                .iter()
                .map(|f| f.describe(&netlist))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.states_explored, 29);
    }

    #[test]
    fn si_fifo_conforms_without_constraints() {
        let (netlist, _) = si_fifo();
        let report = verify(&netlist, &models::fifo_stg_csc(), &[]).unwrap();
        assert!(
            report.passed(),
            "{:?}",
            report
                .failures
                .iter()
                .map(|f| f.describe(&netlist))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn failure_traces_are_replayable() {
        let (netlist, _) = majority_celement();
        let report = verify(&netlist, &models::celement_stg(), &[]).unwrap();
        let Failure::UnexpectedOutput { trace, .. } = &report.failures[0];
        assert!(!trace.is_empty(), "witness trace reaches the failure");
    }

    #[test]
    fn ordering_description_uses_net_names() {
        let (netlist, p) = majority_celement();
        let o = NetOrdering::new((p.ac, true), (p.ab, false));
        assert_eq!(o.describe(&netlist), "ac+ before ab-");
    }

    /// Nine independent handshakes `a_i → b_i`, implemented by buffers,
    /// an input `c` that toggles freely, and an output `z` the
    /// specification never lets rise. The circuit drives
    /// `z = b_0·¬a_0·…·b_8·¬a_8`, which rises only in the one handshake
    /// phase the composed walk reaches last: past 2^18 of its 2^19
    /// states.
    fn late_glitch() -> (Netlist, StateGraph) {
        use rt_netlist::GateKind;
        use rt_stg::SignalKind;
        let mut spec = Stg::new("late_glitch");
        let mut netlist = Netlist::new("late_glitch");
        let mut product = Vec::new();
        for i in 0..9 {
            let a = spec.add_signal(format!("a{i}"), SignalKind::Input).unwrap();
            let b = spec
                .add_signal(format!("b{i}"), SignalKind::Output)
                .unwrap();
            let a_plus = spec.transition_for(a, Edge::Rise);
            let b_plus = spec.transition_for(b, Edge::Rise);
            let a_minus = spec.transition_for(a, Edge::Fall);
            let b_minus = spec.transition_for(b, Edge::Fall);
            spec.arc(a_plus, b_plus);
            spec.arc(b_plus, a_minus);
            spec.arc(a_minus, b_minus);
            spec.marked_arc(b_minus, a_plus);
            let a_net = netlist.add_net(format!("a{i}"), NetKind::Input);
            let b_net = netlist.add_net(format!("b{i}"), NetKind::Output);
            let not_a = netlist.add_net(format!("na{i}"), NetKind::Internal);
            netlist.add_gate(format!("buf{i}"), GateKind::Buf, vec![a_net], b_net);
            netlist.add_gate(format!("inv{i}"), GateKind::Inv, vec![a_net], not_a);
            product.extend([b_net, not_a]);
        }
        let c = spec.add_signal("c", SignalKind::Input).unwrap();
        let c_plus = spec.transition_for(c, Edge::Rise);
        let c_minus = spec.transition_for(c, Edge::Fall);
        spec.arc(c_plus, c_minus);
        spec.marked_arc(c_minus, c_plus);
        netlist.add_net("c", NetKind::Input);
        spec.add_signal("z", SignalKind::Output).unwrap();
        let z = netlist.add_net("z", NetKind::Output);
        netlist.add_gate("and_z", GateKind::And, product, z);
        (netlist, rt_stg::explore(&spec).unwrap())
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "walks 2^19 composed states: a minute in a debug build, run in release"
    )]
    fn no_verdict_rests_on_a_partial_walk() {
        let (netlist, sg) = late_glitch();
        assert_eq!(sg.state_count(), 1 << 19);
        // The unbudgeted walk completes: `z` rises once every handshake
        // has fallen back to `b_i = 1, a_i = 0`, with each `b_i-` and
        // `c+` still pending. The whole report is pinned.
        let net = |i: u32| NetId(i);
        let trace = (0..9)
            .flat_map(|i| {
                [
                    (net(3 * i), true),
                    (net(3 * i + 1), true),
                    (net(3 * i), false),
                ]
            })
            .collect();
        let mut pending_others: Vec<_> = (0..9).map(|i| (net(3 * i + 1), false)).collect();
        pending_others.push((net(27), true));
        let expected = VerifyReport {
            failures: vec![Failure::UnexpectedOutput {
                net: net(28),
                value: true,
                pending_others,
                trace,
            }],
            states_explored: 1 << 19,
        };
        assert_eq!(verify_against_sg(&netlist, &sg, &[]), expected);
        // The budgeted walk stops at its cap instead of answering.
        let unlimited = rt_stg::Budget::unlimited();
        assert_eq!(
            verify_with_budget(&netlist, &sg, &[], &unlimited),
            Err(StgError::StateLimitExceeded(COMPOSED_STATE_LIMIT))
        );
    }

    #[test]
    fn budgeted_verification_is_a_hard_gate() {
        let (netlist, _, _, _) = atomic_celement();
        let sg = rt_stg::explore(&models::celement_stg()).unwrap();
        // A generous budget changes nothing.
        let roomy = rt_stg::Budget::unlimited().with_max_states(1 << 16);
        let report = verify_with_budget(&netlist, &sg, &[], &roomy).unwrap();
        assert!(report.passed());
        // Exhaustion and cancellation are errors, never partial verdicts.
        let tiny = rt_stg::Budget::unlimited().with_max_states(1);
        assert!(matches!(
            verify_with_budget(&netlist, &sg, &[], &tiny),
            Err(StgError::StateBudgetExceeded { .. })
        ));
        let cancelled = rt_stg::Budget::unlimited();
        cancelled.cancel.cancel();
        assert!(matches!(
            verify_with_budget(&netlist, &sg, &[], &cancelled),
            Err(StgError::Cancelled)
        ));
    }

    /// The handshake's `a` wired to its `b` through a chain of one-input
    /// AND gates: `nets` nets in all, `b` the last.
    fn and_chain(nets: usize) -> Netlist {
        let mut netlist = Netlist::new("and_chain");
        let mut previous = netlist.add_net("a", NetKind::Input);
        for i in 1..nets {
            let net = if i + 1 == nets {
                netlist.add_net("b", NetKind::Output)
            } else {
                netlist.add_net(format!("n{i}"), NetKind::Internal)
            };
            netlist.add_gate(format!("and{i}"), GateKind::And, vec![previous], net);
            previous = net;
        }
        netlist
    }

    #[test]
    fn sixty_four_nets_are_the_widest_netlist_the_walk_takes() {
        let spec = models::handshake_stg();
        let report = verify(&and_chain(64), &spec, &[]).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.states_explored, 128);
        // One net more is refused, never coded into a shared bit.
        let wide = and_chain(65);
        let sg = rt_stg::explore(&spec).unwrap();
        let unlimited = rt_stg::Budget::unlimited();
        assert_eq!(verify(&wide, &spec, &[]), Err(StgError::TooManySignals(65)));
        assert_eq!(
            verify_with_engine(&wide, &spec, &[], &mut ReachEngine::symbolic()),
            Err(StgError::TooManySignals(65))
        );
        assert_eq!(
            verify_with_budget(&wide, &sg, &[], &unlimited),
            Err(StgError::TooManySignals(65))
        );
        // Only the net count is bounded: a gate may read one net many
        // times, here `b = a·a·…·a` over 70 inputs.
        let mut fan_in = Netlist::new("fan_in");
        let a = fan_in.add_net("a", NetKind::Input);
        let b = fan_in.add_net("b", NetKind::Output);
        fan_in.add_gate("and_wide", GateKind::And, vec![a; 70], b);
        let report = verify_with_budget(&fan_in, &sg, &[], &unlimited).unwrap();
        assert_eq!(report, verify(&and_chain(2), &spec, &[]).unwrap());
    }

    /// The handshake's `b` driven by a gC with one-high set and reset
    /// stacks but a single input.
    fn short_gc() -> Netlist {
        let mut netlist = Netlist::new("short_gc");
        let a = netlist.add_net("a", NetKind::Input);
        let b = netlist.add_net("b", NetKind::Output);
        netlist.add_gate("gc_b", GateKind::Gc { set: 1, reset: 1 }, vec![a], b);
        netlist
    }

    #[test]
    fn a_gate_fed_the_wrong_input_count_is_refused_before_the_walk() {
        let spec = models::handshake_stg();
        let sg = rt_stg::explore(&spec).unwrap();
        let refused = Err(StgError::InvalidNetlist(
            "gate `gc_b` expects 2 inputs, got 1".into(),
        ));
        assert_eq!(verify(&short_gc(), &spec, &[]), refused);
        assert_eq!(
            verify_with_engine(&short_gc(), &spec, &[], &mut ReachEngine::symbolic()),
            refused
        );
        assert_eq!(
            verify_with_budget(&short_gc(), &sg, &[], &rt_stg::Budget::unlimited()),
            refused
        );
    }

    #[test]
    #[should_panic(expected = "gate `gc_b` expects 2 inputs, got 1")]
    fn the_unbudgeted_walk_panics_on_a_gate_fed_the_wrong_input_count() {
        let sg = rt_stg::explore(&models::handshake_stg()).unwrap();
        verify_against_sg(&short_gc(), &sg, &[]);
    }

    #[test]
    #[should_panic(expected = "the composed walk takes at most 64 nets")]
    fn the_unbudgeted_walk_panics_past_sixty_four_nets() {
        let sg = rt_stg::explore(&models::handshake_stg()).unwrap();
        verify_against_sg(&and_chain(65), &sg, &[]);
    }
}
