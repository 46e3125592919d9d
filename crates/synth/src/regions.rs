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

use std::collections::BTreeSet;

use rt_boolean::{Cover, Cube};
use rt_stg::engine::{ReachBackend, ReachEngine};
use rt_stg::{Edge, SignalEvent, SignalId, StateGraph, StateId, Stg};

use crate::error::SynthError;

/// The set/reset specification of one signal: on-sets and don't-care
/// sets as covers over the state-graph signals.
#[derive(Debug, Clone)]
pub struct SetResetSpec {
    /// The implemented signal.
    pub signal: SignalId,
    /// Set on-set (must be 1).
    pub set_on: Cover,
    /// Set don't-care set.
    pub set_dc: Cover,
    /// Reset on-set.
    pub reset_on: Cover,
    /// Reset don't-care set.
    pub reset_dc: Cover,
}

/// Next-state functions for every implemented signal of a state graph.
#[derive(Debug, Clone)]
pub struct SignalFunctions {
    /// Number of signal variables (the cover arity).
    pub vars: usize,
    /// Per-signal set/reset specifications.
    pub specs: Vec<SetResetSpec>,
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
    // Unreachable codes are global don't-cares.
    let reachable: BTreeSet<u64> = sg.states().map(|s| sg.code(s)).collect();
    let unreachable_dc = unreachable_cover(vars, &reachable);

    let mut specs = Vec::new();
    for signal in implemented {
        let free = local_dc.states_for(signal);
        let mut set_on = Cover::empty(vars);
        let mut set_dc = unreachable_dc.clone();
        let mut reset_on = Cover::empty(vars);
        let mut reset_dc = unreachable_dc.clone();
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
    Ok(SignalFunctions { vars, specs })
}

/// The excitation region of `event` as a cover of state codes.
pub fn excitation_cover(sg: &StateGraph, event: SignalEvent) -> Cover {
    let vars = sg.signal_count();
    let mut cover = Cover::empty(vars);
    for state in sg.excitation_region(event) {
        cover.push(Cube::minterm(vars, sg.code(state)));
    }
    cover
}

/// STG-level entry point: explores `stg` through `engine` and derives
/// the set/reset functions from the resulting graph. The reachable-set
/// query behind the global unreachable-code don't-cares thereby runs on
/// whichever backend the engine is configured with, and on
/// [`ReachBackend::Symbolic`] the graph is audited against the
/// persistent manager's marking count before any cover is derived.
///
/// # Errors
///
/// [`derive_functions`]'s errors, plus exploration failures and
/// [`SynthError::BackendMismatch`] from the symbolic audit.
pub fn derive_functions_for(
    engine: &mut ReachEngine,
    stg: &Stg,
    local_dc: &LocalDontCares,
) -> Result<SignalFunctions, SynthError> {
    let sg = audited_graph(engine, stg)?;
    derive_functions(&sg, local_dc)
}

/// STG-level twin of [`excitation_cover`]: explores through `engine`
/// (with the symbolic audit on that backend) and covers `event`'s
/// excitation region.
///
/// # Errors
///
/// Exploration failures and [`SynthError::BackendMismatch`].
pub fn excitation_cover_for(
    engine: &mut ReachEngine,
    stg: &Stg,
    event: SignalEvent,
) -> Result<Cover, SynthError> {
    let sg = audited_graph(engine, stg)?;
    Ok(excitation_cover(&sg, event))
}

/// Builds the state graph through the engine and, on the symbolic
/// backend, cross-checks its state count against the symbolic marking
/// count.
fn audited_graph(engine: &mut ReachEngine, stg: &Stg) -> Result<StateGraph, SynthError> {
    let sg = engine.state_graph(stg)?;
    audit_against_symbolic(engine, stg, &sg)?;
    Ok(sg)
}

/// The one symbolic-audit implementation shared by every engine-level
/// synthesis entry point (here and in [`crate::csc`]): on
/// [`ReachBackend::Symbolic`], `stg`'s symbolic marking count must
/// match the explicitly built graph's state count.
///
/// # Errors
///
/// [`SynthError::BackendMismatch`] on divergence; the symbolic query's
/// own errors.
pub(crate) fn audit_against_symbolic(
    engine: &mut ReachEngine,
    stg: &Stg,
    sg: &StateGraph,
) -> Result<(), SynthError> {
    if engine.backend() != ReachBackend::Symbolic {
        return Ok(());
    }
    let summary = engine.summary(stg)?;
    let explicit = sg.state_count() as u64;
    if summary.markings != explicit {
        return Err(SynthError::BackendMismatch {
            explicit,
            symbolic: summary.markings,
        });
    }
    Ok(())
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
        let er = sg.excitation_region(SignalEvent::rise(b));
        let mut dc = LocalDontCares::none();
        dc.add(b, er);
        let funcs = derive_functions(&sg, &dc).unwrap();
        assert!(funcs.specs[0].set_on.is_empty(), "ER(b+) moved to DC");
        assert!(funcs.specs[0].set_dc.evaluate(0b01));
    }

    #[test]
    fn excitation_cover_matches_region() {
        let sg = explore(&models::handshake_stg()).unwrap();
        let b = rt_stg::SignalId(1);
        let cover = excitation_cover(&sg, SignalEvent::rise(b));
        assert!(cover.evaluate(0b01));
        assert!(!cover.evaluate(0b00));
    }

    #[test]
    fn derive_functions_for_agrees_across_backends() {
        let mut explicit = ReachEngine::explicit();
        let mut symbolic = ReachEngine::symbolic();
        for (name, stg) in [
            ("handshake", models::handshake_stg()),
            ("celement", models::celement_stg()),
            ("fifo_csc", models::fifo_stg_csc()),
        ] {
            let a = derive_functions_for(&mut explicit, &stg, &LocalDontCares::none())
                .unwrap_or_else(|e| panic!("{name} explicit: {e}"));
            let b = derive_functions_for(&mut symbolic, &stg, &LocalDontCares::none())
                .unwrap_or_else(|e| panic!("{name} symbolic: {e}"));
            assert_eq!(a.vars, b.vars, "{name}");
            assert_eq!(a.specs.len(), b.specs.len(), "{name}");
            for (sa, sb) in a.specs.iter().zip(&b.specs) {
                assert_eq!(sa.signal, sb.signal, "{name}");
                for code in 0..(1u64 << a.vars) {
                    assert_eq!(sa.set_on.evaluate(code), sb.set_on.evaluate(code), "{name}");
                    assert_eq!(sa.set_dc.evaluate(code), sb.set_dc.evaluate(code), "{name}");
                    assert_eq!(
                        sa.reset_on.evaluate(code),
                        sb.reset_on.evaluate(code),
                        "{name}"
                    );
                    assert_eq!(
                        sa.reset_dc.evaluate(code),
                        sb.reset_dc.evaluate(code),
                        "{name}"
                    );
                }
            }
        }
        assert!(
            symbolic.stats().manager_reuses >= 2,
            "one manager across the sweep"
        );
    }

    #[test]
    fn excitation_cover_for_matches_graph_level_cover() {
        let mut engine = ReachEngine::symbolic();
        let stg = models::handshake_stg();
        let b = rt_stg::SignalId(1);
        let via_engine =
            excitation_cover_for(&mut engine, &stg, SignalEvent::rise(b)).expect("covers");
        let sg = explore(&stg).unwrap();
        let direct = excitation_cover(&sg, SignalEvent::rise(b));
        for code in 0..4u64 {
            assert_eq!(via_engine.evaluate(code), direct.evaluate(code));
        }
    }

    #[test]
    fn unreachable_codes_are_dont_cares() {
        let sg = explore(&models::handshake_stg()).unwrap();
        let funcs = derive_functions(&sg, &LocalDontCares::none()).unwrap();
        let spec = &funcs.specs[0];
        // Handshake reaches all four codes of (a,b): no unreachable DC.
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
