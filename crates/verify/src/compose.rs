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
//! Failure classes:
//!
//! * [`Failure::UnexpectedOutput`] — the circuit produced an interface
//!   edge the specification does not allow in the current state; the
//!   record carries the other transitions that were pending, from which
//!   [`crate::require`] proposes repairing orderings;
//! * [`Failure::SemiModularity`] (strict mode only) — a gate's excitation
//!   was withdrawn before it fired.
//!
//! Relative timing enters through [`NetOrdering`]s: `before → after`
//! suppresses any interleaving where `after` fires while `before` is
//! pending — precisely how the paper's verifier "disallows" the
//! erroneous firing through relative timing".

use std::collections::{HashMap, HashSet, VecDeque};

use rt_netlist::{GateId, GateKind, NetId, NetKind, Netlist};
use rt_stg::engine::ReachEngine;
use rt_stg::{Edge, SignalEvent, StateGraph, StateId, Stg, StgError};

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
    /// Strict mode: a gate's excitation was withdrawn before it fired.
    SemiModularity {
        /// The de-excited gate.
        gate: GateId,
        /// The transition that withdrew the excitation.
        withdrawn_by: (NetId, bool),
        /// Transition trace from the initial state.
        trace: Vec<(NetId, bool)>,
    },
}

impl Failure {
    /// Human-readable description.
    pub fn describe(&self, netlist: &Netlist) -> String {
        match self {
            Failure::UnexpectedOutput {
                net, value, trace, ..
            } => format!(
                "unexpected output {}{} after {} steps",
                netlist.net_name(*net),
                if *value { '+' } else { '-' },
                trace.len()
            ),
            Failure::SemiModularity {
                gate,
                withdrawn_by,
                trace,
            } => format!(
                "semi-modularity: gate `{}` de-excited by {}{} after {} steps",
                netlist.gate(*gate).name,
                netlist.net_name(withdrawn_by.0),
                if withdrawn_by.1 { '+' } else { '-' },
                trace.len()
            ),
        }
    }
}

/// Overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No failures: the circuit conforms (under the given orderings).
    Conforms,
    /// At least one failure was found.
    Fails,
}

/// Verification options.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyOptions {
    /// Also report semi-modularity violations (stricter than
    /// conformance; many correct circuits trip benign de-excitations).
    pub strict_semi_modularity: bool,
}

/// Verification result.
///
/// `PartialEq`/`Eq` compare the full report — verdict, deduplicated
/// failures (traces included) and the composed-state count — which is
/// what the service layer's bit-identical-to-direct-call pin and its
/// memo cache rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Failures found (deduplicated).
    pub failures: Vec<Failure>,
    /// Number of composed states explored.
    pub states_explored: usize,
}

impl VerifyReport {
    /// Whether verification passed.
    pub fn passed(&self) -> bool {
        self.verdict == Verdict::Conforms
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
/// Returns [`StgError`] when the specification cannot be explored.
pub fn verify(
    netlist: &Netlist,
    spec: &Stg,
    orderings: &[NetOrdering],
) -> Result<VerifyReport, StgError> {
    verify_with_engine(netlist, spec, orderings, &mut ReachEngine::explicit())
}

/// [`verify`] through a caller-owned [`ReachEngine`] — the variant the
/// synthesis pipeline uses so the specification's reachable states come
/// from the same engine (same options, same warm symbolic manager) that
/// drove synthesis.
///
/// # Errors
///
/// Returns [`StgError`] when the specification cannot be explored.
pub fn verify_with_engine(
    netlist: &Netlist,
    spec: &Stg,
    orderings: &[NetOrdering],
    engine: &mut ReachEngine,
) -> Result<VerifyReport, StgError> {
    let sg = engine.state_graph(spec)?;
    Ok(verify_against_sg(netlist, &sg, orderings))
}

/// Verifies against an already-computed (possibly *lazy*) state graph —
/// the entry point used after relative-timing synthesis, where the
/// specification is the reduced graph.
pub fn verify_against_sg(
    netlist: &Netlist,
    sg: &StateGraph,
    orderings: &[NetOrdering],
) -> VerifyReport {
    verify_with_options(netlist, sg, orderings, VerifyOptions::default())
}

/// Full-control entry point. The walk runs to completion: it has no
/// cap and no budget, so its verdict always covers every composed state.
pub fn verify_with_options(
    netlist: &Netlist,
    sg: &StateGraph,
    orderings: &[NetOrdering],
    options: VerifyOptions,
) -> VerifyReport {
    Composer::new(netlist, sg, orderings, options)
        .run(None)
        .expect("the unbudgeted composed walk runs to completion")
}

/// [`verify_with_options`] under an [`rt_stg::Budget`]: the composed
/// netlist × specification walk polls the budget's cancellation token,
/// deadline and state cap once per dequeued composed state, and stops
/// past a hard cap of 2^18 composed states.
///
/// A verdict over a *partial* state space would be unsound (an
/// unexplored interleaving could still fail), so budget exhaustion and
/// the cap are hard errors here, never a degraded report — unlike
/// reachability, where the engine can fall back to another backend.
///
/// # Errors
///
/// * [`StgError::Cancelled`] — the token fired or the deadline passed;
/// * [`StgError::StateBudgetExceeded`] — more composed states than
///   `budget.max_states`;
/// * [`StgError::StateLimitExceeded`] — more than 2^18 composed states.
pub fn verify_with_budget(
    netlist: &Netlist,
    sg: &StateGraph,
    orderings: &[NetOrdering],
    options: VerifyOptions,
    budget: &rt_stg::Budget,
) -> Result<VerifyReport, StgError> {
    Composer::new(netlist, sg, orderings, options).run(Some(budget))
}

/// The hard cap on the composed states a budgeted walk dequeues.
const COMPOSED_STATE_LIMIT: usize = 1 << 18;

struct Composer<'a> {
    netlist: &'a Netlist,
    sg: &'a StateGraph,
    orderings: &'a [NetOrdering],
    options: VerifyOptions,
    /// Net ↔ spec-signal correspondence by name.
    net_signal: Vec<Option<rt_stg::SignalId>>,
    /// Spec input events mapped to nets.
    input_nets: Vec<(NetId, rt_stg::SignalId)>,
    /// Inverter/buffer outputs resolved combinationally.
    transparent: Vec<bool>,
    failures: Vec<Failure>,
    failure_keys: HashSet<String>,
}

impl<'a> Composer<'a> {
    fn new(
        netlist: &'a Netlist,
        sg: &'a StateGraph,
        orderings: &'a [NetOrdering],
        options: VerifyOptions,
    ) -> Self {
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
        Composer {
            netlist,
            sg,
            orderings,
            options,
            net_signal,
            input_nets,
            transparent,
            failures: Vec::new(),
            failure_keys: HashSet::new(),
        }
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

    fn eval_gate(&self, state: u64, gate_id: GateId) -> bool {
        let gate = self.netlist.gate(gate_id);
        let inputs: Vec<bool> = gate
            .inputs
            .iter()
            .map(|&n| self.read(state, n, 0))
            .collect();
        gate.kind
            .evaluate(&inputs, Self::stored_value(state, gate.output))
    }

    /// Initial net values: derived from the spec's initial code for
    /// interface nets, then the rest settled combinationally.
    fn initial_values(&self) -> u64 {
        let mut values = 0u64;
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
                let out = self.eval_gate(values, gate_id);
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

    /// All pending transitions in a composed state: excited non-
    /// transparent gates plus spec-enabled input events.
    fn pending(&self, state: &ComposedState) -> Vec<(NetId, bool, Option<GateId>)> {
        let mut out = Vec::new();
        for gate_id in self.netlist.gates() {
            let gate = self.netlist.gate(gate_id);
            if self.transparent[gate.output.index()] {
                continue;
            }
            let current = Self::stored_value(state.net_values, gate.output);
            let next = self.eval_gate(state.net_values, gate_id);
            if next != current {
                out.push((gate.output, next, Some(gate_id)));
            }
        }
        for &(net, signal) in &self.input_nets {
            let current = Self::stored_value(state.net_values, net);
            let event = SignalEvent::new(signal, if current { Edge::Fall } else { Edge::Rise });
            if self.sg.is_enabled(state.spec, event) || self.enabled_after_silent(state.spec, event)
            {
                out.push((net, !current, None));
            }
        }
        out
    }

    fn enabled_after_silent(&self, state: StateId, event: SignalEvent) -> bool {
        self.sg
            .successors(state)
            .iter()
            .any(|arc| arc.event.is_none() && self.sg.is_enabled(arc.to, event))
    }

    fn suppressed(
        &self,
        candidate: (NetId, bool),
        pending: &[(NetId, bool, Option<GateId>)],
    ) -> bool {
        self.orderings
            .iter()
            .any(|o| o.after == candidate && pending.iter().any(|&(n, v, _)| (n, v) == o.before))
    }

    fn record(&mut self, failure: Failure) {
        let key = match &failure {
            Failure::UnexpectedOutput { net, value, .. } => {
                format!("u{}{}", net.index(), value)
            }
            Failure::SemiModularity {
                gate, withdrawn_by, ..
            } => {
                format!(
                    "h{}:{}:{}",
                    gate.index(),
                    withdrawn_by.0.index(),
                    withdrawn_by.1
                )
            }
        };
        if self.failure_keys.insert(key) {
            self.failures.push(failure);
        }
    }

    fn run(mut self, budget: Option<&rt_stg::Budget>) -> Result<VerifyReport, StgError> {
        let initial = ComposedState {
            net_values: self.initial_values(),
            spec: self.sg.initial(),
        };
        let mut seen: HashSet<ComposedState> = HashSet::new();
        let mut parents: HashMap<ComposedState, (ComposedState, (NetId, bool))> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(initial);
        queue.push_back(initial);
        let mut explored = 0usize;

        while let Some(state) = queue.pop_front() {
            explored += 1;
            if let Some(budget) = budget {
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
            let pending = self.pending(&state);
            for &(net, value, gate) in &pending {
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
                            if gate.is_some() {
                                let pending_others: Vec<(NetId, bool)> = pending
                                    .iter()
                                    .filter(|&&(n, v, _)| (n, v) != (net, value))
                                    .map(|&(n, v, _)| (n, v))
                                    .collect();
                                self.record(Failure::UnexpectedOutput {
                                    net,
                                    value,
                                    pending_others,
                                    trace: trace_of(&parents, state),
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
                if self.options.strict_semi_modularity {
                    let next_pending = self.pending(&next);
                    for &(p_net, p_val, p_gate) in &pending {
                        let Some(p_gate) = p_gate else { continue };
                        if p_net == net {
                            continue;
                        }
                        let still = next_pending
                            .iter()
                            .any(|&(n, v, _)| n == p_net && v == p_val);
                        if !still {
                            self.record(Failure::SemiModularity {
                                gate: p_gate,
                                withdrawn_by: (net, value),
                                trace: trace_of(&parents, state),
                            });
                        }
                    }
                }
                if seen.insert(next) {
                    parents.insert(next, (state, (net, value)));
                    queue.push_back(next);
                }
            }
        }

        Ok(VerifyReport {
            verdict: if self.failures.is_empty() {
                Verdict::Conforms
            } else {
                Verdict::Fails
            },
            failures: self.failures,
            states_explored: explored,
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

fn trace_of(
    parents: &HashMap<ComposedState, (ComposedState, (NetId, bool))>,
    state: ComposedState,
) -> Vec<(NetId, bool)> {
    let mut steps = Vec::new();
    let mut cursor = state;
    while let Some(&(parent, step)) = parents.get(&cursor) {
        steps.push(step);
        cursor = parent;
        if steps.len() > 10_000 {
            break;
        }
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
        // The observable failure is c falling out of order.
        assert!(report.failures.iter().any(|f| matches!(
            f,
            Failure::UnexpectedOutput { net, value: false, .. } if *net == p.c
        )));
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
        let failure = &report.failures[0];
        let trace = match failure {
            Failure::SemiModularity { trace, .. } | Failure::UnexpectedOutput { trace, .. } => {
                trace
            }
        };
        assert!(!trace.is_empty(), "witness trace reaches the failure");
    }

    #[test]
    fn strict_mode_reports_more() {
        let (netlist, _) = majority_celement();
        let sg = rt_stg::explore(&models::celement_stg()).unwrap();
        let lax = verify_against_sg(&netlist, &sg, &[]);
        let strict = verify_with_options(
            &netlist,
            &sg,
            &[],
            VerifyOptions {
                strict_semi_modularity: true,
            },
        );
        assert!(strict.failures.len() >= lax.failures.len());
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
        let report = verify_against_sg(&netlist, &sg, &[]);
        assert_eq!(
            report.verdict,
            Verdict::Fails,
            "the unbudgeted walk completes"
        );
        assert_eq!(report.states_explored, 1 << 19);
        // The budgeted walk stops at its cap instead of answering.
        let unlimited = rt_stg::Budget::unlimited();
        assert_eq!(
            verify_with_budget(&netlist, &sg, &[], VerifyOptions::default(), &unlimited),
            Err(StgError::StateLimitExceeded(COMPOSED_STATE_LIMIT))
        );
    }

    #[test]
    fn budgeted_verification_is_a_hard_gate() {
        let (netlist, _, _, _) = atomic_celement();
        let sg = rt_stg::explore(&models::celement_stg()).unwrap();
        // A generous budget changes nothing.
        let roomy = rt_stg::Budget::unlimited().with_max_states(1 << 16);
        let report =
            verify_with_budget(&netlist, &sg, &[], VerifyOptions::default(), &roomy).unwrap();
        assert!(report.passed());
        // Exhaustion and cancellation are errors, never partial verdicts.
        let tiny = rt_stg::Budget::unlimited().with_max_states(1);
        assert!(matches!(
            verify_with_budget(&netlist, &sg, &[], VerifyOptions::default(), &tiny),
            Err(StgError::StateBudgetExceeded { .. })
        ));
        let cancelled = rt_stg::Budget::unlimited();
        cancelled.cancel.cancel();
        assert!(matches!(
            verify_with_budget(&netlist, &sg, &[], VerifyOptions::default(), &cancelled),
            Err(StgError::Cancelled)
        ));
    }
}
