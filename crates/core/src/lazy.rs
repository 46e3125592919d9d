//! Lazy state graphs: concurrency reduction and early enabling.
//!
//! Relative timing optimizes circuits through two mechanisms (§3):
//!
//! 1. **Concurrency reduction** — an assumption "`e` before `f`" removes,
//!    from every state where both are enabled, the arc that fires `f`
//!    first. The reachable state set shrinks, unreachable codes become
//!    global don't-cares, and CSC conflicts may disappear outright.
//! 2. **Early enabling** — a *lazy* signal may have its excitation region
//!    extended backwards over states whose exit events are known to be
//!    faster; the extension states become per-signal local don't-cares.

use std::collections::VecDeque;

use rt_stg::state_graph::{CsrBuilder, StateArc};
use rt_stg::{Edge, SignalEvent, SignalId, StateGraph, StateId};
use rt_synth::regions::LocalDontCares;

use crate::assume::RtAssumption;
use crate::error::RtError;

/// Result of concurrency reduction.
#[derive(Debug, Clone)]
pub struct LazyReduction {
    /// The reduced (lazy) state graph.
    pub sg: StateGraph,
    /// States removed relative to the input graph.
    pub removed_states: usize,
    /// Arcs removed (including those inside removed states).
    pub removed_arcs: usize,
}

/// Applies a set of assumptions to `sg` by concurrency reduction.
///
/// # Errors
///
/// Returns [`RtError::InvalidAssumptions`] if the reduced graph
/// deadlocks, loses strong connectivity, or *starves* an event (some
/// signal edge never fires any more — the assumption set would change the
/// specified behaviour rather than merely schedule it).
pub fn reduce_concurrency(
    sg: &StateGraph,
    assumptions: &[RtAssumption],
) -> Result<LazyReduction, RtError> {
    let reduced = reduce_unchecked(sg, assumptions);
    validate_reduction(sg, &reduced)?;
    Ok(LazyReduction {
        removed_states: sg.state_count() - reduced.state_count(),
        removed_arcs: sg.arc_count() - reduced.arc_count(),
        sg: reduced,
    })
}

/// The reduction itself, without validity checks (used by the candidate
/// search in [`crate::auto`], which filters failures itself).
///
/// New state ids are handed out in BFS discovery order and the queue is
/// FIFO, so each surviving state's arc row is completed in id order —
/// the [`CsrBuilder`] contract — and the reduced graph's CSR buffers
/// are emitted directly, with no nested per-state `Vec` intermediate.
/// The explicit analyser numbers states in the same order, so with no
/// assumptions the result equals `sg` in codes, arcs and markings, and
/// the flow's encoding search skips the call then. The result shares
/// `sg`'s signal table ([`StateGraph::with_states`]).
pub fn reduce_unchecked(sg: &StateGraph, assumptions: &[RtAssumption]) -> StateGraph {
    // An arc firing `f` from state s is suppressed when some assumption
    // `e before f` has `e` enabled in s.
    let suppressed = |state: StateId, event: Option<SignalEvent>| -> bool {
        let Some(f) = event else { return false };
        assumptions
            .iter()
            .any(|a| a.after == f && a.before != f && sg.is_enabled(state, a.before))
    };

    // Old state index -> new id; `u32::MAX` marks a state not reached yet.
    let mut map = vec![u32::MAX; sg.state_count()];
    let mut codes = Vec::new();
    let mut markings = Vec::new();
    let mut builder = CsrBuilder::with_capacity(sg.state_count(), sg.arc_count());
    let mut queue = VecDeque::new();

    let initial = sg.initial();
    map[initial.index()] = 0;
    codes.push(sg.code(initial));
    markings.push(sg.packed_marking(initial).clone());
    queue.push_back(initial);

    while let Some(old) = queue.pop_front() {
        builder.start_row();
        // If suppression would empty a state that had successors, fall
        // back to keeping all arcs (the assumption is unusable here — it
        // would deadlock); validation reports it via connectivity checks
        // if this changes behaviour.
        let keep_all = !sg.successors(old).is_empty()
            && sg
                .successors(old)
                .iter()
                .all(|arc| suppressed(old, arc.event));
        for arc in sg.successors(old) {
            if !keep_all && suppressed(old, arc.event) {
                continue;
            }
            let slot = &mut map[arc.to.index()];
            if *slot == u32::MAX {
                *slot = codes.len() as u32;
                codes.push(sg.code(arc.to));
                markings.push(sg.packed_marking(arc.to).clone());
                queue.push_back(arc.to);
            }
            builder.push_arc(StateArc {
                event: arc.event,
                to: StateId(*slot),
            });
        }
    }

    let (offsets, arcs) = builder.finish();
    sg.with_states(codes, offsets, arcs, markings, StateId(0))
}

/// Checks that a reduction kept the specification alive.
fn validate_reduction(original: &StateGraph, reduced: &StateGraph) -> Result<(), RtError> {
    if !reduced.deadlock_states().is_empty() {
        return Err(RtError::InvalidAssumptions {
            reason: "reduction introduces a deadlock".to_string(),
        });
    }
    if !reduced.is_strongly_connected() {
        return Err(RtError::InvalidAssumptions {
            reason: "reduced state graph is not strongly connected".to_string(),
        });
    }
    // Event preservation: every signal edge that fired in the original
    // graph still fires somewhere.
    let lost = fired_events(original) & !fired_events(reduced);
    if lost != 0 {
        // The lowest lost bit is the smallest lost event.
        let bit = lost.trailing_zeros();
        let edge = if bit.is_multiple_of(2) {
            Edge::Rise
        } else {
            Edge::Fall
        };
        return Err(RtError::InvalidAssumptions {
            reason: format!(
                "event {}{} is starved by the assumptions",
                original.signal_name(SignalId(bit / 2)),
                edge.suffix()
            ),
        });
    }
    Ok(())
}

/// Whether `sg` is live: no deadlock state, and strongly connected.
pub(crate) fn is_live(sg: &StateGraph) -> bool {
    sg.deadlock_states().is_empty() && sg.is_strongly_connected()
}

/// The events that label some arc of `sg`, one bit each: bit
/// `2·signal` for the rising edge and `2·signal + 1` for the falling
/// one, so a lower bit is a smaller [`SignalEvent`]. Codes hold at most
/// 64 signals, so 128 bits hold every event.
pub(crate) fn fired_events(sg: &StateGraph) -> u128 {
    let mut fired = 0u128;
    for state in sg.states() {
        for event in sg.successors(state).iter().filter_map(|arc| arc.event) {
            fired |= 1 << (2 * event.signal.index() + usize::from(event.edge == Edge::Fall));
        }
    }
    fired
}

/// Early enabling of `event` (a lazy signal edge): extends the signal's
/// flexibility backwards over up to `depth` predecessor layers of its
/// excitation region, through states where the signal is quiescent at the
/// pre-transition value.
///
/// Returns the local don't-care states and the implied
/// [`RtAssumption::early`] orderings: each event labelling an arc inside
/// the lazy region must stay faster than the lazy signal's own
/// transition.
pub fn early_enable(
    sg: &StateGraph,
    event: SignalEvent,
    depth: usize,
) -> (Vec<StateId>, Vec<RtAssumption>) {
    let er = sg.excitation_region(event);
    let mut in_region: Vec<bool> = vec![false; sg.state_count()];
    for &s in &er {
        in_region[s.index()] = true;
    }
    let mut lazy_states = Vec::new();
    let mut implied = Vec::new();
    let mut frontier: Vec<StateId> = er.clone();
    for _ in 0..depth {
        let mut next_frontier = Vec::new();
        for &s in &frontier {
            for pred_arc in sg.predecessors(s) {
                let pred = pred_arc.to;
                if in_region[pred.index()] {
                    continue;
                }
                // Only extend over states where the lazy signal is
                // quiescent at its pre-transition value.
                let quiescent = sg.excitation(pred, event.signal).is_none()
                    && sg.signal_value(pred, event.signal) == event.edge.source_value();
                if !quiescent {
                    continue;
                }
                in_region[pred.index()] = true;
                lazy_states.push(pred);
                next_frontier.push(pred);
                // The event that leads from pred into the region must be
                // faster than the lazy transition itself.
                if let Some(entry) = pred_arc.event {
                    if entry.signal != event.signal {
                        implied.push(RtAssumption::early(entry, event));
                    }
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    implied.sort_by_key(|a| (a.before, a.after));
    implied.dedup();
    (lazy_states, implied)
}

/// Builds [`LocalDontCares`] for a set of lazy signals: every falling
/// edge of each listed signal is early-enabled by `depth`.
pub fn lazy_dont_cares(
    sg: &StateGraph,
    lazy_signals: &[SignalId],
    depth: usize,
) -> (LocalDontCares, Vec<RtAssumption>) {
    let mut dc = LocalDontCares::none();
    let mut implied = Vec::new();
    for &signal in lazy_signals {
        for edge in [rt_stg::Edge::Rise, rt_stg::Edge::Fall] {
            let event = SignalEvent::new(signal, edge);
            let (states, mut assumptions) = early_enable(sg, event, depth);
            if !states.is_empty() {
                dc.add(signal, states);
                implied.append(&mut assumptions);
            }
        }
    }
    implied.sort_by_key(|a| (a.before, a.after));
    implied.dedup();
    (dc, implied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_stg::{explore, models, Edge};

    fn fifo_sg() -> (rt_stg::Stg, StateGraph) {
        let stg = models::fifo_stg();
        let sg = explore(&stg).unwrap();
        (stg, sg)
    }

    #[test]
    fn empty_assumption_set_is_identity() {
        let (_, sg) = fifo_sg();
        let red = reduce_concurrency(&sg, &[]).unwrap();
        assert_eq!(red.removed_states, 0);
        assert_eq!(red.removed_arcs, 0);
        assert_eq!(red.sg.state_count(), sg.state_count());
    }

    #[test]
    fn user_ring_assumption_prunes_states() {
        let (stg, sg) = fifo_sg();
        let ri = stg.signal_by_name("ri").unwrap();
        let li = stg.signal_by_name("li").unwrap();
        let a = RtAssumption::user(ri, Edge::Fall, li, Edge::Rise);
        let red = reduce_concurrency(&sg, &[a]).unwrap();
        assert!(red.removed_states > 0, "ri-/li+ interleavings removed");
        assert!(red.sg.is_strongly_connected());
    }

    #[test]
    fn reduction_preserves_all_events() {
        let (stg, sg) = fifo_sg();
        let ri = stg.signal_by_name("ri").unwrap();
        let li = stg.signal_by_name("li").unwrap();
        let a = RtAssumption::user(ri, Edge::Fall, li, Edge::Rise);
        let red = reduce_concurrency(&sg, &[a]).unwrap();
        // Every interface event still occurs.
        for s in ["li", "lo", "ro", "ri"] {
            let sig = stg.signal_by_name(s).unwrap();
            let fires = red.sg.states().any(|st| {
                red.sg
                    .successors(st)
                    .iter()
                    .any(|arc| arc.event.is_some_and(|e| e.signal == sig))
            });
            assert!(fires, "{s} must still fire");
        }
    }

    #[test]
    fn contradictory_assumptions_fall_back_rather_than_deadlock() {
        // a before b AND b before a in a spec where both are concurrent:
        // the fallback keeps the state alive; reduction degenerates to
        // identity on affected states.
        let stg = models::celement_stg();
        let sg = explore(&stg).unwrap();
        let a_sig = stg.signal_by_name("a").unwrap();
        let b_sig = stg.signal_by_name("b").unwrap();
        let pair = [
            RtAssumption::user(a_sig, Edge::Rise, b_sig, Edge::Rise),
            RtAssumption::user(b_sig, Edge::Rise, a_sig, Edge::Rise),
        ];
        let red = reduce_concurrency(&sg, &pair).unwrap();
        assert!(red.sg.is_strongly_connected());
    }

    #[test]
    fn input_ordering_reduces_celement_interleavings() {
        // Assume a+ always beats b+ and a- beats b-: the diamond collapses.
        let stg = models::celement_stg();
        let sg = explore(&stg).unwrap();
        let a_sig = stg.signal_by_name("a").unwrap();
        let b_sig = stg.signal_by_name("b").unwrap();
        let assumptions = [
            RtAssumption::user(a_sig, Edge::Rise, b_sig, Edge::Rise),
            RtAssumption::user(a_sig, Edge::Fall, b_sig, Edge::Fall),
        ];
        let red = reduce_concurrency(&sg, &assumptions).unwrap();
        assert!(red.sg.state_count() < sg.state_count());
    }

    #[test]
    fn early_enable_extends_backwards() {
        let (_, sg) = fifo_sg();
        // lo falls after ro-; early-enable lo- by one layer.
        let lo = SignalId(1);
        let (states, implied) = early_enable(&sg, SignalEvent::fall(lo), 1);
        assert!(!states.is_empty(), "lo- has quiescent predecessors");
        assert!(!implied.is_empty(), "entry events become constraints");
        for a in &implied {
            assert_eq!(a.kind, crate::assume::AssumptionKind::EarlyEnable);
            assert_eq!(a.after, SignalEvent::fall(lo));
        }
    }

    #[test]
    fn lazy_dont_cares_cover_both_edges() {
        let (_, sg) = fifo_sg();
        let lo = SignalId(1);
        let (_dc, implied) = lazy_dont_cares(&sg, &[lo], 1);
        assert!(!implied.is_empty());
    }

    #[test]
    fn fired_events_sets_one_bit_per_signal_edge() {
        // Every FIFO signal rises and falls.
        let (_, sg) = fifo_sg();
        assert_eq!(fired_events(&sg), (1u128 << (2 * sg.signal_count())) - 1);
    }

    #[test]
    fn an_assumption_that_starves_an_event_is_rejected() {
        // A free choice between an `a` cycle and a `b` cycle: `a+ before
        // b+` cuts the `b` cycle off, though the rest stays live.
        use rt_stg::state_graph::StateArc;
        use rt_stg::{Marking, SignalKind};
        let (a, b) = (SignalId(0), SignalId(1));
        let arc = |event, to| StateArc {
            event: Some(event),
            to: StateId(to),
        };
        let sg = StateGraph::from_parts(
            vec!["a".into(), "b".into()],
            vec![SignalKind::Input, SignalKind::Input],
            vec![0b00, 0b01, 0b10],
            vec![
                vec![arc(SignalEvent::rise(a), 1), arc(SignalEvent::rise(b), 2)],
                vec![arc(SignalEvent::fall(a), 0)],
                vec![arc(SignalEvent::fall(b), 0)],
            ],
            vec![Marking::empty(0); 3],
            StateId(0),
        );
        let starve = RtAssumption::user(a, Edge::Rise, b, Edge::Rise);
        let reason = match reduce_concurrency(&sg, &[starve]) {
            Err(RtError::InvalidAssumptions { reason }) => reason,
            other => panic!("expected a starved event, got {other:?}"),
        };
        assert_eq!(reason, "event b+ is starved by the assumptions");
    }
}
