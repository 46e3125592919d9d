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
//! Every walk here is one breadth-first loop over markings (`walk`) and
//! a visitor of its firings: the coded walk of [`explore_with`], the
//! engine's counting walk, and the sweep that fixes the symbolic CSC
//! detector's initial code. The coded and counting walks take the net
//! and the caller's [`Budget`], and nothing else. Three rules bound them:
//!
//! * **safe nets only**, like the symbolic walks of [`crate::symbolic`]:
//!   an initial marking with two tokens on a place, or a firing that puts
//!   a second token on one, is [`StgError::Unbounded`] (the firing rule
//!   is [`PetriNet::fire_packed_into`]'s, see [`crate::petri`]);
//! * **a hard cap of [`STATE_LIMIT`] markings**: past it the walk stops
//!   with [`StgError::StateLimitExceeded`] and never answers over a
//!   partial state space;
//! * **the soft [`Budget`]**, polled once per BFS round (`Rounds`, which
//!   the spliced walk of [`crate::splice`] shares).
//!
//! The sweep refuses an unsafe firing too, but polls no budget and no
//! fault probe, and stops quietly at its cap.
//!
//! A signal starts at the value [`Stg::set_initial_value`] forces, or
//! else at the value its first enabled edge in walk order fires from; a
//! signal that never fires starts at 0. The coded walk fixes these as it
//! goes: it keeps each marking's code as the signals flipped on the path
//! that found it, and XORs the initial code in at the end. That path's
//! edges were all enabled earlier in walk order, so no signal flips on
//! it before its own first enabled edge, and each consistency check
//! reads a value already fixed.
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
use crate::petri::{PetriNet, PlaceId, TransitionId};
use crate::signal::{SignalEvent, SignalId};
use crate::state_graph::{CsrBuilder, StateArc, StateGraph, StateId};
use crate::stg::Stg;

/// The hard cap on the markings an explicit walk interns. Past it the
/// walk stops with [`StgError::StateLimitExceeded`]; unlike the soft
/// [`Budget::max_states`], tripping it never degrades to another
/// analyser (see [`crate::engine`]).
pub const STATE_LIMIT: usize = 1 << 20;

/// The round bookkeeping of every explicit walk. A round is a BFS layer;
/// at its first state the walk polls its budget, if it has one: injected
/// faults first (compiled out unless the `fault-injection` feature is
/// on), then cancellation/deadline, then the soft state budget. Once per
/// layer, never per state, so the poll (one atomic load; a clock read
/// only when a deadline is set) costs nothing visible.
#[derive(Default)]
pub(crate) struct Rounds {
    /// Layers begun so far, the initial marking's counted as the first.
    begun: usize,
    /// The first state of the next layer.
    next_layer: usize,
}

impl Rounds {
    /// Runs before the walk expands `state`, with `discovered` states
    /// known. States are expanded in discovery order, so a layer that
    /// begins at `state` ends where the states known now end.
    pub(crate) fn expand(
        &mut self,
        budget: Option<&Budget>,
        state: usize,
        discovered: usize,
    ) -> Result<(), StgError> {
        if state < self.next_layer {
            return Ok(());
        }
        self.begun += 1;
        self.next_layer = discovered;
        let Some(budget) = budget else {
            return Ok(());
        };
        if let Some(error) = crate::faults::explicit_round_fault(self.begun - 1) {
            return Err(error);
        }
        if budget.cancelled() {
            return Err(StgError::Cancelled);
        }
        if budget.states_exhausted(discovered) {
            return Err(StgError::StateBudgetExceeded { states: discovered });
        }
        Ok(())
    }
}

/// One step of [`walk`], handed to its visitor in walk order.
enum Step {
    /// The walk is about to fire the transitions its next marking enables.
    Expand,
    /// `Fired(from, transition, to, fresh)`: `transition` fired safely
    /// from marking `from` to marking `to`, which this firing interned
    /// when `fresh`.
    Fired(MarkingId, TransitionId, MarkingId, bool),
}

/// The one breadth-first loop over the markings of `stg`. It owns the
/// arena, whose discovery order is the queue (the work list is the next
/// id not yet expanded, and a marking's transitions fire in id order),
/// the rounds, the refusal of an unsafe firing, and the hard cap of
/// `limit` markings, checked after `visit` has seen the firing past it,
/// so an error `visit` finds there comes first. `visit` sees every step
/// with the arena: `Err` stops the walk with that error, `Ok(false)`
/// ends it quietly. Returns the arena and the number of layers begun.
fn walk(
    stg: &Stg,
    layout: MarkingLayout,
    budget: Option<&Budget>,
    limit: usize,
    mut visit: impl FnMut(&MarkingArena, Step) -> Result<bool, StgError>,
) -> Result<(MarkingArena, usize), StgError> {
    let net = stg.net();
    // Start small: tables grow geometrically, so large explorations pay
    // a handful of rehashes while small ones (the common case in the
    // synthesis flow) avoid faulting in kilobytes they never touch.
    let mut arena = MarkingArena::with_capacity(layout, 64);
    // Reused firing scratch: keeps the hot loop allocation-free even for
    // spilled (boxed) layouts.
    let mut scratch = PackedMarking::zero(&layout);
    arena.intern(PackedMarking::pack(&layout, &stg.initial_marking()));
    let mut rounds = Rounds::default();
    let mut state = 0;
    'walk: while state < arena.len() {
        rounds.expand(budget, state, arena.len())?;
        if !visit(&arena, Step::Expand)? {
            break;
        }
        let from = MarkingId(state as u32);
        let marking = arena.resolve(from).clone();
        for transition in net.transitions() {
            if !net.is_enabled_packed(transition, &marking, &layout) {
                continue;
            }
            net.fire_packed_into(transition, &marking, &layout, &mut scratch)
                .map_err(|place| unsafe_at(net, place))?;
            let (to, fresh) = arena.intern_ref(&scratch);
            if !visit(&arena, Step::Fired(from, transition, to, fresh))? {
                break 'walk;
            }
            if fresh && arena.len() > limit {
                return Err(StgError::StateLimitExceeded(limit));
            }
        }
        state += 1;
    }
    Ok((arena, rounds.begun))
}

/// Initial signal values as a walk fixes them (see the module docs):
/// bit *i* of `value` is signal *i*'s, 0 until bit *i* of `known` is set.
struct InitialCode {
    known: u64,
    value: u64,
}

impl InitialCode {
    /// The values [`Stg::set_initial_value`] forces.
    fn forced(stg: &Stg) -> InitialCode {
        let mut code = InitialCode { known: 0, value: 0 };
        for signal in stg.signals() {
            if let Some(value) = stg.initial_value(signal) {
                code.known |= 1 << signal.index();
                code.value |= u64::from(value) << signal.index();
            }
        }
        code
    }

    /// Fixes `ev`'s signal at the value `ev` fires from, unless it is
    /// fixed already.
    fn first_edge(&mut self, ev: SignalEvent) {
        let bit = 1 << ev.signal.index();
        if self.known & bit == 0 {
            self.known |= bit;
            self.value |= u64::from(ev.edge.source_value()) << ev.signal.index();
        }
    }
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
/// The first of these the walk meets:
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
    let layout = safe_layout(stg)?;
    let mut initial = InitialCode::forced(stg);
    // Per marking, the signals flipped on the path that found it.
    let mut flips: Vec<u64> = Vec::with_capacity(64);
    flips.push(0);
    let mut builder = CsrBuilder::with_capacity(64, 256);
    let (arena, _) = walk(stg, layout, Some(budget), limit, |arena, step| {
        let Step::Fired(from, transition, to, fresh) = step else {
            // Rows complete in id order, exactly the CsrBuilder contract.
            builder.start_row();
            return Ok(true);
        };
        let mut flip = flips[from.index()];
        let event = stg.label(transition).event();
        if let Some(ev) = event {
            initial.first_edge(ev);
            let bit = 1 << ev.signal.index();
            let current = (initial.value ^ flip) & bit != 0;
            if current != ev.edge.source_value() {
                return Err(StgError::Inconsistent {
                    signal: stg.signal_name(ev.signal).to_string(),
                    detail: format!(
                        "{} fires in state {} where {} is already {}",
                        stg.event_name(ev),
                        arena.resolve(from).unpack(&layout),
                        stg.signal_name(ev.signal),
                        u8::from(current)
                    ),
                });
            }
            flip ^= bit;
        }
        if fresh {
            flips.push(flip);
        } else if flips[to.index()] != flip {
            // The same marking was reached with two different signal
            // codes: the STG is not consistent.
            let (existing, incoming) = (initial.value ^ flips[to.index()], initial.value ^ flip);
            let signal = SignalId((existing ^ incoming).trailing_zeros());
            return Err(StgError::Inconsistent {
                signal: stg.signal_name(signal).to_string(),
                detail: format!(
                    "marking {} reached with codes {existing:b} and {incoming:b}",
                    arena.resolve(to).unpack(&layout)
                ),
            });
        }
        builder.push_arc(StateArc {
            event,
            to: StateId(to.0),
        });
        Ok(true)
    })?;
    let (offsets, arcs) = builder.finish();

    let signal_names = stg
        .signals()
        .map(|s| stg.signal_name(s).to_string())
        .collect();
    let signal_kinds = stg.signals().map(|s| stg.signal_kind(s)).collect();
    Ok(StateGraph::from_csr_parts(
        signal_names,
        signal_kinds,
        flips.iter().map(|flip| initial.value ^ flip).collect(),
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
/// graph: [`walk`] with nothing to do per firing. This is the explicit
/// backend of [`crate::engine::ReachEngine`]'s set-level queries.
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
    let (arena, layers) = walk(stg, safe_layout(stg)?, Some(budget), limit, |_, _| Ok(true))?;
    Ok(ExplicitCount {
        markings: arena.len() as u64,
        iterations: layers,
    })
}

/// The initial code the coded walk fixes on `stg`, from a sweep that
/// only watches for each unforced signal's first enabled edge. The
/// symbolic CSC detector ([`crate::symbolic::csc`]) seeds its
/// signal-code variables from it, so both detectors start from the same
/// code. `stg` has at most 64 signals.
///
/// The sweep polls no budget and no fault probe. It ends once every
/// signal is fixed, or quietly once it holds more than [`STATE_LIMIT`]
/// markings, the coded walk's cap: a walk that needs more fails at its
/// cap anyway.
///
/// # Errors
///
/// [`StgError::Unbounded`] when the sweep meets an unsafe firing.
pub(crate) fn infer_initial_code(stg: &Stg, layout: MarkingLayout) -> Result<u64, StgError> {
    let mut initial = InitialCode::forced(stg);
    walk(stg, layout, None, usize::MAX, |arena, step| {
        let Step::Fired(_, transition, ..) = step else {
            let unfixed = (initial.known.count_ones() as usize) < stg.signal_count();
            return Ok(unfixed && arena.len() <= STATE_LIMIT);
        };
        if let Some(ev) = stg.label(transition).event() {
            initial.first_edge(ev);
        }
        Ok(true)
    })?;
    Ok(initial.value)
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
