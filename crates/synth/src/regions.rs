//! Excitation regions and set/reset next-state functions.
//!
//! For every implemented signal `a` the state graph is partitioned into
//! the excitation regions `ER(a+)`, `ER(a-)` and the quiescent regions
//! `QR(a=1)`, `QR(a=0)`. A generalized-C implementation needs:
//!
//! * a **set** function that is on throughout `ER(a+)`, off in `QR(a=0)`
//!   and `ER(a-)` (monotonic-cover rule: the set stack must not fight the
//!   reset stack), and free (don't-care) in `QR(a=1)` and in unreachable
//!   codes;
//! * a **reset** function that is on throughout `ER(a-)`, off in
//!   `QR(a=1)` and `ER(a+)`, free in `QR(a=0)` and unreachable codes.
//!
//! Relative timing enlarges the unreachable set — that is the entire
//! mechanism by which RT assumptions shrink logic (Section 3).
//!
//! The unreachable codes are the same don't-cares for every signal, and
//! there can be up to 2^16 of them, one minterm each (past 16 signals,
//! the complement of the reachable codes). [`derive_functions`] builds
//! them once per state graph, as [`SignalFunctions::unreachable`].
//! Each [`SetResetSpec`] keeps only the signal's own don't-cares: its
//! quiescent region and the caller's [`LocalDontCares`] states.
//! [`SignalFunctions::minimize`] minimizes one function at a time against
//! its own don't-cares plus the shared cover, so a call holds one copy of
//! the unreachable codes however many signals it implements.

use std::collections::BTreeSet;

use rt_boolean::{minimize, Cover, Cube};
use rt_stg::{Edge, SignalId, StateGraph, StateId};

use crate::error::SynthError;

/// The set/reset specification of one signal: on-sets and the signal's
/// own don't-care sets as covers over the state-graph signals. Every
/// cube is the minterm of a reachable code; the unreachable codes, free
/// for every signal, are [`SignalFunctions::unreachable`].
#[derive(Debug, Clone)]
pub struct SetResetSpec {
    /// The implemented signal.
    pub signal: SignalId,
    /// Set on-set (must be 1): the codes of `ER(a+)`.
    pub set_on: Cover,
    /// The set function's own don't-cares: the codes of `QR(a=1)` and
    /// of the caller's local don't-care states.
    pub set_dc: Cover,
    /// Reset on-set: the codes of `ER(a-)`.
    pub reset_on: Cover,
    /// The reset function's own don't-cares: the codes of `QR(a=0)` and
    /// of the caller's local don't-care states.
    pub reset_dc: Cover,
}

/// Next-state functions for every implemented signal of a state graph.
#[derive(Debug, Clone)]
pub struct SignalFunctions {
    /// Per-signal set/reset specifications.
    pub specs: Vec<SetResetSpec>,
    /// The codes no state has, shared by every spec: a don't-care of
    /// each signal's set and reset function, held once. Its arity,
    /// like every cover's here, is the graph's signal count.
    pub unreachable: Cover,
}

impl SignalFunctions {
    /// Minimizes `spec`'s set and reset covers, each against its own
    /// don't-cares plus [`SignalFunctions::unreachable`], and returns
    /// `(set, reset)`. It builds one combined don't-care cover at a
    /// time, the shared codes first, so the answer is the one a spec
    /// holding its own copy of them would get.
    pub fn minimize(&self, spec: &SetResetSpec) -> (Cover, Cover) {
        let against_all = |on: &Cover, own_dc: &Cover| minimize(on, &self.unreachable.or(own_dc));
        (
            against_all(&spec.set_on, &spec.set_dc),
            against_all(&spec.reset_on, &spec.reset_dc),
        )
    }
}

/// Extra don't-care states injected by the caller (relative timing's lazy
/// signals): per signal, a set of states whose function value is freed.
#[derive(Debug, Clone, Default)]
pub struct LocalDontCares {
    entries: Vec<(SignalId, Vec<StateId>)>,
}

impl LocalDontCares {
    /// No local don't-cares.
    pub fn none() -> Self {
        LocalDontCares::default()
    }

    /// Frees the function of `signal` in `states`.
    pub fn add(&mut self, signal: SignalId, states: Vec<StateId>) {
        self.entries.push((signal, states));
    }

    fn states_for(&self, signal: SignalId) -> BTreeSet<StateId> {
        self.entries
            .iter()
            .filter(|(s, _)| *s == signal)
            .flat_map(|(_, states)| states.iter().copied())
            .collect()
    }
}

/// Derives set/reset functions for all implemented signals.
///
/// # Errors
///
/// Returns [`SynthError::CscConflict`] if two states share a code but
/// disagree on a signal's implied value (run [`crate::resolve_csc`]
/// first), and [`SynthError::NothingToImplement`] when there are no
/// outputs.
pub fn derive_functions(
    sg: &StateGraph,
    local_dc: &LocalDontCares,
) -> Result<SignalFunctions, SynthError> {
    let implemented = sg.implemented_signals();
    if implemented.is_empty() {
        return Err(SynthError::NothingToImplement);
    }
    if let Some(conflict) = sg.csc_conflicts().first() {
        return Err(SynthError::CscConflict {
            signal: sg.signal_name(conflict.signal).to_string(),
        });
    }
    let vars = sg.signal_count();
    let mut specs = Vec::new();
    for signal in implemented {
        let free = local_dc.states_for(signal);
        let mut set_on = Cover::empty(vars);
        let mut set_dc = Cover::empty(vars);
        let mut reset_on = Cover::empty(vars);
        let mut reset_dc = Cover::empty(vars);
        for state in sg.states() {
            let code = sg.code(state);
            let cube = Cube::minterm(vars, code);
            if free.contains(&state) {
                set_dc.push(cube);
                reset_dc.push(cube);
                continue;
            }
            match sg.excitation(state, signal) {
                Some(Edge::Rise) => set_on.push(cube),
                Some(Edge::Fall) => reset_on.push(cube),
                None => {
                    if sg.signal_value(state, signal) {
                        // QR(1): set free, reset must be off.
                        set_dc.push(cube);
                    } else {
                        // QR(0): reset free, set must be off.
                        reset_dc.push(cube);
                    }
                }
            }
        }
        specs.push(SetResetSpec {
            signal,
            set_on,
            set_dc,
            reset_on,
            reset_dc,
        });
    }
    // Unreachable codes are global don't-cares.
    let reachable: BTreeSet<u64> = sg.states().map(|s| sg.code(s)).collect();
    Ok(SignalFunctions {
        specs,
        unreachable: unreachable_cover(vars, &reachable),
    })
}

/// The global don't-care cover: every code outside `reachable`.
fn unreachable_cover(vars: usize, reachable: &BTreeSet<u64>) -> Cover {
    // Complement of the reachable-code minterm cover. For small signal
    // counts enumerate directly; otherwise go through Cover::complement.
    if vars <= 16 {
        let mut dc = Cover::empty(vars);
        for code in 0..(1u64 << vars) {
            if !reachable.contains(&code) {
                dc.push(Cube::minterm(vars, code));
            }
        }
        dc
    } else {
        let mut on = Cover::empty(vars);
        for &code in reachable {
            on.push(Cube::minterm(vars, code));
        }
        on.complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_stg::{explore, models};

    #[test]
    fn handshake_output_functions() {
        let sg = explore(&models::handshake_stg()).unwrap();
        let funcs = derive_functions(&sg, &LocalDontCares::none()).unwrap();
        assert_eq!(funcs.specs.len(), 1, "only b is implemented");
        let spec = &funcs.specs[0];
        // ER(b+) = state a=1,b=0 -> code 0b01; ER(b-) = a=0,b=1 -> 0b10.
        assert!(spec.set_on.evaluate(0b01));
        assert!(!spec.set_on.evaluate(0b10));
        assert!(spec.reset_on.evaluate(0b10));
        assert!(!spec.reset_on.evaluate(0b01));
    }

    #[test]
    fn celement_functions_are_majority_like() {
        let sg = explore(&models::celement_stg()).unwrap();
        let funcs = derive_functions(&sg, &LocalDontCares::none()).unwrap();
        let spec = &funcs.specs[0];
        // ER(c+): a=1,b=1,c=0 -> set covers code 0b011.
        assert!(spec.set_on.evaluate(0b011));
        // ER(c-): a=0,b=0,c=1 -> reset covers 0b100.
        assert!(spec.reset_on.evaluate(0b100));
        // Quiescent state 0b111 (c high, inputs high... actually after
        // c+ inputs fall) is not in the set on-set.
        assert!(!spec.set_on.evaluate(0b111));
    }

    #[test]
    fn csc_conflict_rejected() {
        let sg = explore(&models::fifo_stg()).unwrap();
        let err = derive_functions(&sg, &LocalDontCares::none()).unwrap_err();
        assert!(matches!(err, SynthError::CscConflict { .. }));
    }

    #[test]
    fn fifo_with_state_signal_derives() {
        let sg = explore(&models::fifo_stg_csc()).unwrap();
        let funcs = derive_functions(&sg, &LocalDontCares::none()).unwrap();
        assert_eq!(funcs.specs.len(), 3, "lo, ro, x");
        for spec in &funcs.specs {
            assert!(!spec.set_on.is_empty(), "every signal rises somewhere");
            assert!(!spec.reset_on.is_empty());
        }
    }

    #[test]
    fn local_dont_cares_shrink_on_sets() {
        let sg = explore(&models::handshake_stg()).unwrap();
        let b = rt_stg::SignalId(1);
        // Free b's function in its rising excitation state.
        let er = sg.excitation_region(rt_stg::SignalEvent::rise(b));
        let mut dc = LocalDontCares::none();
        dc.add(b, er);
        let funcs = derive_functions(&sg, &dc).unwrap();
        assert!(funcs.specs[0].set_on.is_empty(), "ER(b+) moved to DC");
        assert!(funcs.specs[0].set_dc.evaluate(0b01));
    }

    #[test]
    fn unreachable_codes_are_dont_cares() {
        let sg = explore(&models::handshake_stg()).unwrap();
        let funcs = derive_functions(&sg, &LocalDontCares::none()).unwrap();
        let spec = &funcs.specs[0];
        // Handshake reaches all four codes of (a,b): no unreachable DC.
        assert!(funcs.unreachable.is_empty());
        for code in 0..4u64 {
            let in_dc = spec.set_dc.evaluate(code) || spec.reset_dc.evaluate(code);
            let quiescent = matches!(code, 0b11 | 0b00);
            assert_eq!(
                in_dc, quiescent,
                "only quiescent states are don't-cares, code {code:02b}"
            );
        }
    }
}
