//! Explicit reachability analysis: STG → [`StateGraph`].
//!
//! The analyser plays the token game from the initial marking, assigns each
//! reached marking a binary signal code, verifies *consistency* (edges of
//! each signal strictly alternate along every path) and *safeness* (no
//! place ever holds two tokens), and produces the state graph consumed by
//! logic synthesis.
//!
//! ## The walk's contract
//!
//! Every walk takes the net and the caller's [`Budget`], and nothing
//! else. Three rules bound it:
//!
//! * **safe nets only**, like the symbolic walks of [`crate::symbolic`]:
//!   an initial marking with two tokens on a place, or a firing that puts
//!   a second token on one, is [`StgError::Unbounded`] (the firing rule
//!   is [`PetriNet::fire_packed_into`]'s, see [`crate::petri`]);
//! * **a hard cap of [`STATE_LIMIT`] markings**: past it the walk stops
//!   with [`StgError::StateLimitExceeded`] and never answers over a
//!   partial state space;
//! * **the soft [`Budget`]**, polled once per BFS round.
//!
//! ## Hot-path layout
//!
//! Exploration never touches heap-allocated token vectors: markings are
//! bit-packed, one bit per place, into inline words
//! ([`crate::marking::PackedMarking`]) under a per-net [`MarkingLayout`]
//! and interned in a [`MarkingArena`], whose FxHash-keyed table maps
//! packed words to dense 4-byte ids. The BFS queue is implicit (ids are
//! assigned in discovery order, so the work list is just the next
//! unprocessed id) and arcs accumulate directly into the
//! compressed-sparse-row buffers the [`StateGraph`] keeps, so for a net
//! with ≤ 64 places a visited state costs a `u64` copy, one hash and no
//! allocation.

use crate::budget::Budget;
use crate::error::StgError;
use crate::marking::{MarkingArena, MarkingId, MarkingLayout, PackedMarking};
use crate::petri::{PetriNet, PlaceId};
use crate::signal::SignalId;
use crate::state_graph::{CsrBuilder, StateArc, StateGraph, StateId};
use crate::stg::{Stg, TransitionLabel};

/// The hard cap on the markings an explicit walk interns. Past it the
/// walk stops with [`StgError::StateLimitExceeded`]; unlike the soft
/// [`Budget::max_states`], tripping it never degrades to another
/// analyser (see [`crate::engine`]).
pub const STATE_LIMIT: usize = 1 << 20;

/// Per-round soft-budget poll shared by the explicit walks: injected
/// faults first (compiled out unless the `fault-injection` feature is
/// on), then cancellation/deadline, then the soft state budget. Runs
/// once per BFS layer, never per state, so the poll cost (one atomic
/// load; a clock read only when a deadline is set) is invisible.
pub(crate) fn round_budget_check(budget: &Budget, states: usize, round: usize) -> Option<StgError> {
    if let Some(error) = crate::faults::explicit_round_fault(round) {
        return Some(error);
    }
    if budget.cancelled() {
        return Some(StgError::Cancelled);
    }
    if budget.states_exhausted(states) {
        return Some(StgError::StateBudgetExceeded { states });
    }
    None
}

/// Explores `stg` under an unlimited [`Budget`].
///
/// # Errors
///
/// Propagates every failure mode of [`explore_with`].
///
/// # Examples
///
/// ```
/// use rt_stg::{models, explore};
///
/// # fn main() -> Result<(), rt_stg::StgError> {
/// let sg = explore(&models::fifo_stg())?;
/// assert!(sg.is_strongly_connected());
/// # Ok(())
/// # }
/// ```
pub fn explore(stg: &Stg) -> Result<StateGraph, StgError> {
    explore_with(stg, &Budget::default())
}

/// Explores `stg` under the caller's `budget`. A reachable deadlock is
/// never an error: the state graph keeps it, and
/// [`StateGraph::deadlock_states`] lists it.
///
/// This is the one public explicit walk; a
/// [`crate::engine::ReachEngine::with_budget`] engine's `state_graph`
/// runs the same walk and counts it in the engine's stats.
///
/// # Errors
///
/// * [`StgError::TooManySignals`] — more than 64 signals.
/// * [`StgError::StateLimitExceeded`] — more than [`STATE_LIMIT`]
///   markings.
/// * [`StgError::Unbounded`] — the net is not safe.
/// * [`StgError::Inconsistent`] — some signal's edges do not alternate.
/// * [`StgError::StateBudgetExceeded`] / [`StgError::Cancelled`] — the
///   soft [`Budget`] was blown or the request was cancelled; checked
///   once per BFS round, so the walk stops within one layer.
pub fn explore_with(stg: &Stg, budget: &Budget) -> Result<StateGraph, StgError> {
    explore_capped(stg, budget, STATE_LIMIT)
}

/// [`explore_with`] with the hard cap at `limit` markings in place of
/// [`STATE_LIMIT`]: the engine's explicit-first rule stops its walks at
/// [`crate::engine::EXPLICIT_CEILING`] this way.
pub(crate) fn explore_capped(
    stg: &Stg,
    budget: &Budget,
    limit: usize,
) -> Result<StateGraph, StgError> {
    if stg.signal_count() > 64 {
        return Err(StgError::TooManySignals(stg.signal_count()));
    }
    let net = stg.net();
    let initial_marking = stg.initial_marking();
    let layout = safe_layout(stg)?;
    let initial_code = infer_initial_code(stg, &layout, limit)?;

    // Start small: tables grow geometrically, so large explorations pay
    // a handful of rehashes while small ones (the common case in the
    // synthesis flow) avoid faulting in kilobytes they never touch.
    let mut arena = MarkingArena::with_capacity(layout, 64);
    let mut codes: Vec<u64> = Vec::with_capacity(64);
    let mut builder = CsrBuilder::with_capacity(64, 256);
    // Reused firing scratch: keeps the hot loop allocation-free even for
    // spilled (boxed) layouts.
    let mut scratch = PackedMarking::zero(&layout);

    arena.intern(PackedMarking::pack(&layout, &initial_marking));
    codes.push(initial_code);

    // Ids are handed out in discovery order and the BFS queue is FIFO, so
    // the work list is simply "the next id not yet processed" — no queue.
    // Rows therefore complete in id order, exactly the CsrBuilder
    // contract.
    let mut state = 0usize;
    // Round (= BFS layer) boundaries, tracked for the soft-budget poll:
    // `layer_end` is the first id of the next layer.
    let mut round = 0usize;
    let mut layer_end = arena.len();
    if let Some(error) = round_budget_check(budget, arena.len(), round) {
        return Err(error);
    }
    while state < arena.len() {
        if state == layer_end {
            round += 1;
            layer_end = arena.len();
            if let Some(error) = round_budget_check(budget, arena.len(), round) {
                return Err(error);
            }
        }
        builder.start_row();
        let marking = arena.resolve(MarkingId(state as u32)).clone();
        let code = codes[state];
        for transition in net.transitions() {
            if !net.is_enabled_packed(transition, &marking, &layout) {
                continue;
            }
            net.fire_packed_into(transition, &marking, &layout, &mut scratch)
                .map_err(|place| unsafe_at(net, place))?;
            let (event, next_code) = match stg.label(transition) {
                TransitionLabel::Silent => (None, code),
                TransitionLabel::Event(ev) => {
                    let current = code >> ev.signal.index() & 1 == 1;
                    if current != ev.edge.source_value() {
                        return Err(StgError::Inconsistent {
                            signal: stg.signal_name(ev.signal).to_string(),
                            detail: format!(
                                "{} fires in state {} where {} is already {}",
                                stg.event_name(ev),
                                marking.unpack(&layout),
                                stg.signal_name(ev.signal),
                                u8::from(current)
                            ),
                        });
                    }
                    let next = if ev.edge.target_value() {
                        code | 1 << ev.signal.index()
                    } else {
                        code & !(1 << ev.signal.index())
                    };
                    (Some(ev), next)
                }
            };
            let (next_id, fresh) = arena.intern_ref(&scratch);
            if fresh {
                if arena.len() > limit {
                    return Err(StgError::StateLimitExceeded(limit));
                }
                codes.push(next_code);
            } else if codes[next_id.index()] != next_code {
                // The same marking was reached with two different signal
                // codes: the STG is not consistent.
                return Err(code_conflict(
                    stg,
                    &layout,
                    arena.resolve(next_id),
                    codes[next_id.index()],
                    next_code,
                ));
            }
            builder.push_arc(StateArc {
                event,
                to: StateId(next_id.0),
            });
        }
        state += 1;
    }
    let (offsets, arcs) = builder.finish();

    let signal_names = stg
        .signals()
        .map(|s| stg.signal_name(s).to_string())
        .collect();
    let signal_kinds = stg.signals().map(|s| stg.signal_kind(s)).collect();
    Ok(StateGraph::from_csr_parts(
        signal_names,
        signal_kinds,
        codes,
        offsets,
        arcs,
        arena.into_markings(),
        layout,
        StateId(0),
    ))
}

/// Result of a counting-only explicit walk ([`count_markings_capped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExplicitCount {
    /// Number of distinct reachable markings.
    pub markings: u64,
    /// Breadth-first depth at which the walk converged (number of
    /// frontier layers, counting the initial marking as layer 1).
    pub iterations: usize,
}

/// Counts the reachable markings of `stg` without building a state
/// graph: the packed BFS of [`explore_with`] minus codes, arcs and the
/// consistency machinery. This is the explicit backend of
/// [`crate::engine::ReachEngine`]'s set-level queries.
///
/// Because no binary codes are assigned, the walk has **no 64-signal
/// cap** and performs **no consistency check** — it answers "how many
/// markings" for any safe net, which is what the symbolic backend
/// answers too.
///
/// The hard cap is `limit` markings, as in [`explore_capped`].
///
/// # Errors
///
/// * [`StgError::StateLimitExceeded`] — more than `limit` markings.
/// * [`StgError::Unbounded`] — the net is not safe.
/// * [`StgError::StateBudgetExceeded`] / [`StgError::Cancelled`] — as
///   in [`explore_with`].
pub(crate) fn count_markings_capped(
    stg: &Stg,
    budget: &Budget,
    limit: usize,
) -> Result<ExplicitCount, StgError> {
    let net = stg.net();
    let layout = safe_layout(stg)?;
    let mut arena = MarkingArena::with_capacity(layout, 64);
    let mut scratch = PackedMarking::zero(&layout);
    arena.intern(PackedMarking::pack(&layout, &stg.initial_marking()));

    let mut state = 0usize;
    // Depth tracking: `layer_end` is the first id of the *next* BFS
    // layer; ids are dense and in discovery order, so layers are just
    // index ranges. The 0-based round index for the budget poll is
    // `iterations - 1`.
    let mut iterations = 1usize;
    let mut layer_end = arena.len();
    if let Some(error) = round_budget_check(budget, arena.len(), 0) {
        return Err(error);
    }
    while state < arena.len() {
        if state == layer_end {
            iterations += 1;
            layer_end = arena.len();
            if let Some(error) = round_budget_check(budget, arena.len(), iterations - 1) {
                return Err(error);
            }
        }
        let marking = arena.resolve(MarkingId(state as u32)).clone();
        for transition in net.transitions() {
            if !net.is_enabled_packed(transition, &marking, &layout) {
                continue;
            }
            net.fire_packed_into(transition, &marking, &layout, &mut scratch)
                .map_err(|place| unsafe_at(net, place))?;
            let (_, fresh) = arena.intern_ref(&scratch);
            if fresh && arena.len() > limit {
                return Err(StgError::StateLimitExceeded(limit));
            }
        }
        state += 1;
    }
    Ok(ExplicitCount {
        markings: arena.len() as u64,
        iterations,
    })
}

/// Two arrival paths assigned the same marking different signal codes:
/// the STG is not consistent.
fn code_conflict(
    stg: &Stg,
    layout: &MarkingLayout,
    marking: &PackedMarking,
    existing: u64,
    incoming: u64,
) -> StgError {
    let bit = (existing ^ incoming).trailing_zeros();
    StgError::Inconsistent {
        signal: stg.signal_name(SignalId(bit)).to_string(),
        detail: format!(
            "marking {} reached with codes {existing:b} and {incoming:b}",
            marking.unpack(layout)
        ),
    }
}

/// The packing layout of `stg`'s markings, after the check every walk
/// runs first, the symbolic ones included: an initial marking with two
/// tokens on a place is not safe, and one bit per place could not even
/// hold it.
///
/// # Errors
///
/// [`StgError::Unbounded`] naming the first place with two tokens.
pub(crate) fn safe_layout(stg: &Stg) -> Result<MarkingLayout, StgError> {
    let net = stg.net();
    let initial = stg.initial_marking();
    match net.places().find(|&place| initial.tokens(place) > 1) {
        Some(place) => Err(unsafe_at(net, place)),
        None => Ok(MarkingLayout::new(net.place_count())),
    }
}

/// The error for a marking that puts a second token on `place`.
pub(crate) fn unsafe_at(net: &PetriNet, place: PlaceId) -> StgError {
    StgError::Unbounded {
        place: net.place_name(place).to_string(),
    }
}

/// Determines the initial binary code.
///
/// Explicit values set with [`Stg::set_initial_value`] win; remaining
/// signals are inferred from the *first edge* of the signal encountered in a
/// breadth-first sweep of the token game (a first rise ⇒ initially 0, a
/// first fall ⇒ initially 1). Signals that never transition default to 0.
///
/// The visited set is the interning arena itself (a marking is "seen"
/// exactly when it is already interned), replacing the historical
/// `HashMap<Marking, ()>`-as-a-set over heap token vectors.
///
/// The sweep stops once it holds more than `limit` markings, the cap of
/// the walk it serves: a walk that needs more fails at its cap anyway.
/// It polls no budget, so a blown budget surfaces from the walk itself.
///
/// `pub(crate)` because the symbolic CSC detector
/// ([`crate::symbolic::csc`]) seeds its signal-code variables from the
/// same inference, so both analysers agree on the initial code by
/// construction.
pub(crate) fn infer_initial_code(
    stg: &Stg,
    layout: &MarkingLayout,
    limit: usize,
) -> Result<u64, StgError> {
    let mut value: Vec<Option<bool>> = (0..stg.signal_count())
        .map(|i| stg.initial_value(SignalId(i as u32)))
        .collect();
    let mut unresolved = value.iter().filter(|v| v.is_none()).count();
    if unresolved == 0 {
        return Ok(pack_code(&value));
    }

    let net = stg.net();
    let mut arena = MarkingArena::with_capacity(*layout, 64);
    let mut scratch = PackedMarking::zero(layout);
    arena.intern(PackedMarking::pack(layout, &stg.initial_marking()));

    let mut state = 0usize;
    while state < arena.len() {
        if unresolved == 0 || arena.len() > limit {
            break;
        }
        let marking = arena.resolve(MarkingId(state as u32)).clone();
        for transition in net.transitions() {
            if !net.is_enabled_packed(transition, &marking, layout) {
                continue;
            }
            if let TransitionLabel::Event(ev) = stg.label(transition) {
                let slot = &mut value[ev.signal.index()];
                if slot.is_none() {
                    *slot = Some(ev.edge.source_value());
                    unresolved -= 1;
                }
            }
            net.fire_packed_into(transition, &marking, layout, &mut scratch)
                .map_err(|place| unsafe_at(net, place))?;
            arena.intern_ref(&scratch);
        }
        state += 1;
    }
    Ok(pack_code(&value))
}

fn pack_code(values: &[Option<bool>]) -> u64 {
    let mut code = 0u64;
    for (i, v) in values.iter().enumerate() {
        if v.unwrap_or(false) {
            code |= 1 << i;
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{Edge, SignalKind};

    fn handshake() -> Stg {
        let mut stg = Stg::new("hs");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let b = stg.add_signal("b", SignalKind::Output).unwrap();
        let ap = stg.transition_for(a, Edge::Rise);
        let bp = stg.transition_for(b, Edge::Rise);
        let am = stg.transition_for(a, Edge::Fall);
        let bm = stg.transition_for(b, Edge::Fall);
        stg.arc(ap, bp);
        stg.arc(bp, am);
        stg.arc(am, bm);
        stg.marked_arc(bm, ap);
        stg
    }

    #[test]
    fn handshake_has_four_states() {
        let sg = explore(&handshake()).unwrap();
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sg.arc_count(), 4);
        assert!(sg.is_strongly_connected());
        assert_eq!(sg.code(sg.initial()), 0);
    }

    #[test]
    fn initial_values_inferred_from_first_edges() {
        // b- fires first for b if we mark the b- arc instead: initial b = 1.
        let mut stg = Stg::new("inv");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let b = stg.add_signal("b", SignalKind::Output).unwrap();
        let ap = stg.transition_for(a, Edge::Rise);
        let bm = stg.transition_for(b, Edge::Fall);
        let am = stg.transition_for(a, Edge::Fall);
        let bp = stg.transition_for(b, Edge::Rise);
        stg.arc(ap, bm);
        stg.arc(bm, am);
        stg.arc(am, bp);
        stg.marked_arc(bp, ap);
        let sg = explore(&stg).unwrap();
        // Initial: a = 0 (a+ first), b = 1 (b- first).
        assert_eq!(sg.code(sg.initial()), 0b10);
    }

    #[test]
    fn explicit_initial_values_override_inference() {
        let mut stg = handshake();
        let a = stg.signal_by_name("a").unwrap();
        stg.set_initial_value(a, false);
        let sg = explore(&stg).unwrap();
        assert_eq!(sg.code(sg.initial()) & 1, 0);
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // a+ followed by a+ again without a-.
        let mut stg = Stg::new("bad");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let t1 = stg.transition_for(a, Edge::Rise);
        let t2 = stg.transition_for(a, Edge::Rise);
        stg.arc(t1, t2); // a+ twice in a row: inconsistent on purpose
        let p = stg.add_place("start");
        stg.set_tokens(p, 1);
        stg.arc_from_place(p, t1);
        let err = explore(&stg).unwrap_err();
        assert!(matches!(err, StgError::Inconsistent { .. }), "got {err:?}");
    }

    #[test]
    fn a_firing_into_a_marked_place_is_refused() {
        // `a+` keeps itself enabled through a self-loop and feeds `sink`,
        // so its second firing would put a second token there.
        let mut stg = Stg::new("pump");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let t1 = stg.transition_for(a, Edge::Rise);
        let t2 = stg.transition_for(a, Edge::Fall);
        let p_loop = stg.add_place("loop");
        stg.set_tokens(p_loop, 1);
        stg.arc_from_place(p_loop, t1);
        stg.arc_to_place(t1, p_loop); // self-loop keeps t1 live
        let sink = stg.add_place("sink");
        stg.arc_to_place(t1, sink);
        stg.arc_from_place(sink, t2);
        stg.arc_to_place(t2, sink);
        let not_safe = StgError::Unbounded {
            place: "sink".to_string(),
        };
        assert_eq!(explore(&stg).unwrap_err(), not_safe);
        assert_eq!(
            count_markings_capped(&stg, &Budget::default(), STATE_LIMIT).unwrap_err(),
            not_safe
        );
    }

    #[test]
    fn state_limit_enforced() {
        let stg = handshake();
        let budget = Budget::default();
        assert_eq!(
            explore_capped(&stg, &budget, 2).unwrap_err(),
            StgError::StateLimitExceeded(2)
        );
        assert_eq!(
            count_markings_capped(&stg, &budget, 2).unwrap_err(),
            StgError::StateLimitExceeded(2)
        );
        assert_eq!(explore_capped(&stg, &budget, 4).unwrap().state_count(), 4);
    }

    #[test]
    fn deadlock_detection() {
        let mut stg = Stg::new("dead");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let t1 = stg.transition_for(a, Edge::Rise);
        let p = stg.add_place("start");
        stg.set_tokens(p, 1);
        stg.arc_from_place(p, t1);
        // t1 produces nothing: the marking after it enables nothing. Both
        // walks keep the dead marking, and the graph lists it.
        let sg = explore(&stg).unwrap();
        assert_eq!(sg.state_count(), 2);
        assert_eq!(sg.deadlock_states(), vec![StateId(1)]);
        let count = count_markings_capped(&stg, &Budget::default(), STATE_LIMIT).unwrap();
        assert_eq!(count.markings, 2);
    }

    #[test]
    fn silent_transitions_preserve_codes() {
        let mut stg = Stg::new("eps");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let ap = stg.transition_for(a, Edge::Rise);
        let am = stg.transition_for(a, Edge::Fall);
        let eps = stg.silent("eps");
        stg.arc(ap, eps);
        stg.arc(eps, am);
        stg.marked_arc(am, ap);
        let sg = explore(&stg).unwrap();
        assert_eq!(sg.state_count(), 3);
        // The ε arc connects two states with identical codes.
        let silent_arcs: Vec<_> = sg
            .states()
            .flat_map(|s| {
                sg.successors(s)
                    .iter()
                    .filter(|arc| arc.event.is_none())
                    .map(move |arc| (s, arc.to))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(silent_arcs.len(), 1);
        let (from, to) = silent_arcs[0];
        assert_eq!(sg.code(from), sg.code(to));
    }

    #[test]
    fn too_many_signals_rejected() {
        let mut stg = Stg::new("wide");
        for i in 0..65 {
            stg.add_signal(format!("s{i}"), SignalKind::Input).unwrap();
        }
        let err = explore(&stg).unwrap_err();
        assert_eq!(err, StgError::TooManySignals(65));
    }
}
