//! Automatic extraction of relative timing assumptions.
//!
//! "Petrify generates all necessary assumptions automatically using rules
//! based on a simple delay model, e.g., 'one gate can be made faster than
//! two'" (§3.1). This module reproduces the mechanism with two rules:
//!
//! * **Rule A (circuit vs environment)** — where an implemented-signal
//!   event and an *input* event are enabled together, the circuit's
//!   single-gate response is assumed faster than the environment's
//!   round trip.
//! * **Rule B (short path vs long path)** — between two implemented
//!   events, the one that has been excited strictly longer (its
//!   excitation began at least one state earlier on every path) is
//!   assumed to fire first.
//!
//! Assumptions relating two **input** events are never generated — per
//! the paper they must come from the user or from environment analysis.
//!
//! Candidates are validated by concurrency reduction: an assumption is
//! accepted only if the reduced graph stays live and it strictly improves
//! the objective (CSC conflicts first, then state count).

use std::collections::BTreeSet;

use rt_stg::{SignalEvent, StateGraph};

use crate::assume::RtAssumption;
use crate::lazy::{fired_events, is_live, reduce_unchecked};

/// A candidate with its delay-model rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The proposed ordering.
    pub assumption: RtAssumption,
    /// Why the delay model believes it.
    pub rationale: String,
}

/// Objective snapshot used to compare reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Objective {
    csc_conflicts: usize,
    states: usize,
}

fn objective(sg: &StateGraph) -> Objective {
    Objective {
        csc_conflicts: sg.csc_conflict_count(),
        states: sg.state_count(),
    }
}

/// Enumerates candidate assumptions for `sg` under the two delay rules.
pub fn candidate_assumptions(sg: &StateGraph) -> Vec<Candidate> {
    let mut pairs: BTreeSet<(SignalEvent, SignalEvent)> = BTreeSet::new();
    for state in sg.states() {
        let enabled = sg.enabled_events(state);
        for &e in &enabled {
            for &f in &enabled {
                if e.signal == f.signal {
                    continue;
                }
                let e_impl = sg.signal_kind(e.signal).is_implemented();
                let f_impl = sg.signal_kind(f.signal).is_implemented();
                if !e_impl {
                    continue; // never order an input first automatically
                }
                if !f_impl {
                    pairs.insert((e, f)); // Rule A
                } else {
                    pairs.insert((e, f)); // Rule B, filtered by age below
                }
            }
        }
    }
    let mut out = Vec::new();
    for (e, f) in pairs {
        let f_impl = sg.signal_kind(f.signal).is_implemented();
        if !f_impl {
            out.push(Candidate {
                assumption: RtAssumption::automatic(e, f),
                rationale: "single-gate circuit response assumed faster than \
                            environment round trip"
                    .to_string(),
            });
        } else if strictly_older(sg, e, f) {
            out.push(Candidate {
                assumption: RtAssumption::automatic(e, f),
                rationale: "one gate can be made faster than two: excitation \
                            of the first event begins strictly earlier"
                    .to_string(),
            });
        }
    }
    out
}

/// `e` is strictly older than `f` when, in every state where both are
/// enabled, every predecessor state already had `e` enabled whenever it
/// had `f` enabled, and at least one predecessor had `e` enabled without
/// `f`.
fn strictly_older(sg: &StateGraph, e: SignalEvent, f: SignalEvent) -> bool {
    let mut witnessed = false;
    for state in sg.states() {
        if !(sg.is_enabled(state, e) && sg.is_enabled(state, f)) {
            continue;
        }
        for pred_arc in sg.predecessors(state) {
            let pred = pred_arc.to;
            let pe = sg.is_enabled(pred, e);
            let pf = sg.is_enabled(pred, f);
            if pf && !pe {
                return false; // f was excited earlier somewhere
            }
            if pe && !pf {
                witnessed = true;
            }
        }
    }
    witnessed
}

/// Greedy assumption search: accepts candidates that strictly improve
/// `(csc conflicts, states)` while keeping the reduction valid.
///
/// Returns the accepted assumptions (not including `base`) and the final
/// reduced graph (reduced under `base` + accepted).
pub fn generate_assumptions(
    sg: &StateGraph,
    base: &[RtAssumption],
) -> (Vec<Candidate>, StateGraph) {
    let mut accepted: Vec<Candidate> = Vec::new();
    let mut all: Vec<RtAssumption> = base.to_vec();
    let mut current = reduce_unchecked(sg, &all);
    let mut best = objective(&current);

    loop {
        let mut improved = false;
        let candidates = candidate_assumptions(&current);
        for candidate in candidates {
            if all.contains(&candidate.assumption) {
                continue;
            }
            let mut trial = all.clone();
            trial.push(candidate.assumption);
            let reduced = reduce_unchecked(sg, &trial);
            if !reduction_valid(sg, &reduced) {
                continue;
            }
            let score = objective(&reduced);
            if score < best {
                best = score;
                all = trial;
                current = reduced;
                accepted.push(candidate);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (accepted, current)
}

/// Liveness/behaviour validity of a reduction (mirrors
/// [`crate::lazy::reduce_concurrency`]'s checks without erroring).
pub fn reduction_valid(original: &StateGraph, reduced: &StateGraph) -> bool {
    is_live(reduced) && fired_events(original) == fired_events(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AssumptionKind;
    use rt_stg::{explore, models, Edge, SignalKind};

    #[test]
    fn no_input_input_candidates() {
        let stg = models::celement_stg();
        let sg = explore(&stg).unwrap();
        for c in candidate_assumptions(&sg) {
            assert!(
                sg.signal_kind(c.assumption.before.signal).is_implemented(),
                "{} orders an input first",
                c.assumption
            );
        }
    }

    #[test]
    fn fifo_generates_circuit_vs_environment_candidates() {
        let sg = explore(&models::fifo_stg()).unwrap();
        let candidates = candidate_assumptions(&sg);
        assert!(!candidates.is_empty());
        // At least one candidate orders an output before an input.
        assert!(candidates.iter().any(|c| {
            sg.signal_kind(c.assumption.before.signal) != SignalKind::Input
                && sg.signal_kind(c.assumption.after.signal) == SignalKind::Input
        }));
    }

    #[test]
    fn search_reduces_fifo_conflicts() {
        let stg = models::fifo_stg();
        let sg = explore(&stg).unwrap();
        let before = sg.csc_conflicts().len();
        let (accepted, reduced) = generate_assumptions(&sg, &[]);
        assert!(
            reduced.csc_conflicts().len() <= before,
            "automatic assumptions never increase conflicts"
        );
        for c in &accepted {
            assert_eq!(c.assumption.kind, AssumptionKind::Automatic);
            assert!(!c.rationale.is_empty());
        }
    }

    #[test]
    fn search_with_user_ring_assumption() {
        let stg = models::fifo_stg();
        let sg = explore(&stg).unwrap();
        let ri = stg.signal_by_name("ri").unwrap();
        let li = stg.signal_by_name("li").unwrap();
        let user = [RtAssumption::user(ri, Edge::Fall, li, Edge::Rise)];
        let (_, reduced) = generate_assumptions(&sg, &user);
        assert!(reduced.state_count() < sg.state_count());
        assert!(reduction_valid(&sg, &reduced));
    }

    #[test]
    fn reduction_validity_rejects_event_loss() {
        let sg = explore(&models::handshake_stg()).unwrap();
        // A graph missing arcs is not a valid reduction of the original.
        let truncated = reduce_unchecked(&sg, &[]);
        assert!(reduction_valid(&sg, &truncated));
    }
}
