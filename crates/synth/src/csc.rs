//! Complete-state-coding resolution by state-signal insertion.
//!
//! The paper's FIFO specification (Figure 3) has CSC conflicts; `petrify`
//! resolves them by inserting the state signal `x` (Figures 4–5) using
//! *timing-aware* encoding. This module reproduces the mechanism: it
//! searches over pairs of simple places of the STG (both token
//! placements) and pairs of transitions, splicing `x+` on one and `x-`
//! on the other ([`Splice`]), and keeps the valid insertion with the
//! cheapest logic: the minimized literal count of the candidate's
//! next-state functions, each minimized against its own don't-cares
//! plus the unreachable codes, which the candidate's functions hold
//! once. Each candidate's state graph is built from the graph of the
//! net it splices ([`ReachEngine::spliced_state_graph`]): no candidate
//! rebuilds or re-explores an STG, and only each round's winner is
//! rebuilt as one. The cost function can be biased to keep the
//! state signal off the critical path (the paper's "timing-aware state
//! encoding"): insertions whose state-signal transitions trigger output
//! events are penalized.
//!
//! Every graph of the search comes from one [`ReachEngine`]
//! ([`resolve_csc_engine`]): the candidate search is the hottest
//! repeated-reachability loop in the pipeline, and it runs serially on
//! the caller's thread and engine. Candidates are ranked one way on
//! every backend and at every net size — on explicitly built state
//! graphs — so a resolution does not depend on the engine's backend.
//! On the symbolic backend the accepted resolution is
//! additionally **audited** against the engine's persistent-manager
//! symbolic marking count and the symbolic conflict detector
//! ([`SynthError::BackendMismatch`] / [`SynthError::DetectorMismatch`]
//! on divergence), so the two analysers continuously cross-check each
//! other in production use.

use rt_stg::engine::{ReachBackend, ReachEngine};
use rt_stg::par::argmin;
use rt_stg::stg::TransitionLabel;
use rt_stg::{SignalKind, Splice, StateGraph, Stg, StgError, TransitionId};

use rt_stg::splice::{candidates as insertion_specs, fresh_signal_name};
pub use rt_stg::splice::{insert_after_transitions, insert_state_signal_with, simple_places};

use crate::error::SynthError;
use crate::regions::{derive_functions, LocalDontCares};

/// Default [`CscOptions::symbolic_threshold`]. Has no effect, like the
/// field: it stays exported only because existing callers (the
/// `perfbench` harness) name it. The `ResolveCsc` wire payload does not
/// carry the field; its decoder fills this value in.
pub const DEFAULT_SYMBOLIC_THRESHOLD: usize = 65;

/// Outcome of CSC resolution.
#[derive(Debug, Clone)]
pub struct CscResolution {
    /// The (possibly rewritten) STG, CSC-free.
    pub stg: Stg,
    /// Its state graph. Always `Some`: every resolution, on either
    /// backend, is accepted on an explicitly built graph. It stays an
    /// `Option` only because existing callers (the `perfbench`
    /// harness) unwrap it.
    pub sg: Option<StateGraph>,
    /// Names of inserted state signals (empty when none were needed):
    /// `csc0`, `csc1`, … skipping names the specification already uses.
    pub inserted: Vec<String>,
    /// Cost of the chosen encoding (minimized literal count).
    pub cost: usize,
    /// `true` when the search ran out of budget before finishing: the
    /// resolution is the best candidate found so far (possibly still
    /// conflicted) rather than a verified CSC-free encoding. The engine
    /// records [`rt_stg::Degradation::PartialSynthesis`] alongside.
    pub truncated: bool,
}

/// Options for [`resolve_csc`].
///
/// Only `max_signals` and `critical_path_penalty` change the answer;
/// `threads` and `symbolic_threshold` have no effect. A service request
/// carries only the first two on the wire, so two requests that differ
/// only in the others share a cached result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CscOptions {
    /// Maximum number of state signals to insert.
    pub max_signals: usize,
    /// Penalty added per output event directly triggered by a state
    /// signal transition (the timing-aware bias; 0 disables it).
    pub critical_path_penalty: usize,
    /// Has no effect: the candidate search runs serially on the
    /// caller's thread. It stays only because existing callers (the
    /// `perfbench` harness) set it. Not on the wire: a decoded
    /// `ResolveCsc` request reads 0.
    pub threads: usize,
    /// Has no effect. It stays only because existing callers (the
    /// `perfbench` harness) set it. Not on the wire: a decoded
    /// `ResolveCsc` request reads [`DEFAULT_SYMBOLIC_THRESHOLD`].
    pub symbolic_threshold: usize,
}

impl Default for CscOptions {
    fn default() -> Self {
        CscOptions {
            max_signals: 3,
            critical_path_penalty: 4,
            threads: 0,
            symbolic_threshold: DEFAULT_SYMBOLIC_THRESHOLD,
        }
    }
}

/// Resolves CSC conflicts of `stg` by inserting up to
/// `options.max_signals` state signals.
///
/// # Errors
///
/// * [`SynthError::CscUnresolvable`] when no insertion sequence works;
/// * [`SynthError::Stg`] when the input STG itself fails exploration.
pub fn resolve_csc(stg: &Stg) -> Result<CscResolution, SynthError> {
    resolve_csc_with(stg, &CscOptions::default())
}

/// [`resolve_csc`] with explicit options, run on a throwaway
/// explicit-backend engine.
pub fn resolve_csc_with(stg: &Stg, options: &CscOptions) -> Result<CscResolution, SynthError> {
    resolve_csc_engine(stg, options, &mut ReachEngine::explicit())
}

/// [`resolve_csc_with`] through a caller-owned [`ReachEngine`].
///
/// The input's graph, every candidate and the audit run on `engine`,
/// serially on the caller's thread, so its options govern and its
/// statistics count the whole search. The accepted result is
/// backend-independent: on every backend and at every net size the
/// candidates are ranked only on explicitly built state graphs. On
/// [`rt_stg::ReachBackend::Symbolic`] the final resolution is audited
/// against the symbolic marking count and the symbolic conflict
/// detector.
///
/// # Errors
///
/// [`resolve_csc_with`]'s errors, plus [`SynthError::BackendMismatch`]
/// if the symbolic audit disagrees with the explicit graph, and
/// [`StgError::Cancelled`] (as [`SynthError::Stg`]) as soon as the
/// engine's budget is cancelled or its deadline passes, during the
/// candidate search too.
pub fn resolve_csc_engine(
    stg: &Stg,
    options: &CscOptions,
    engine: &mut ReachEngine,
) -> Result<CscResolution, SynthError> {
    let sg = engine.state_graph(stg)?;
    let mut before = sg.csc_conflict_count();
    if before == 0 {
        let cost = encoding_cost(&sg, 0);
        let resolution = CscResolution {
            stg: stg.clone(),
            sg: Some(sg),
            inserted: Vec::new(),
            cost,
            truncated: false,
        };
        audit_resolution(&resolution, engine)?;
        return Ok(resolution);
    }
    let mut attempts = 0;
    let mut current = stg.clone();
    // Best-so-far state for a budget-truncated partial result: the
    // conflict-rank formula of the candidate loop, so a partial
    // resolution's cost is comparable to rejected candidates'. The
    // current graph is also each round's base.
    let mut current_sg = sg;
    let mut current_cost = 1_000 + before * 100;
    let mut inserted = Vec::new();
    let mut truncated = false;
    for _ in 0..options.max_signals {
        let name = fresh_signal_name(&current, "csc");
        let (best, round_truncated) = best_insertion(
            &current,
            &current_sg,
            &name,
            options,
            before,
            engine,
            &mut attempts,
        )?;
        truncated |= round_truncated;
        match best {
            Some((splice, next_sg, cost)) => {
                let next_stg = splice.insert(&current, &name);
                inserted.push(name);
                let after = next_sg.csc_conflict_count();
                if after == 0 {
                    let resolution = CscResolution {
                        stg: next_stg,
                        sg: Some(next_sg),
                        inserted,
                        cost,
                        truncated: false,
                    };
                    audit_resolution(&resolution, engine)?;
                    return Ok(resolution);
                }
                before = after;
                current = next_stg;
                current_sg = next_sg;
                current_cost = cost;
            }
            None => break,
        }
    }
    if truncated {
        // The budget cut the search short: hand back the best encoding
        // reached so far (still conflicted) instead of aborting, and
        // let the engine's stats record why. No audit — the result is
        // not an accepted CSC-free encoding.
        engine.note_degradation(rt_stg::Degradation::PartialSynthesis);
        return Ok(CscResolution {
            stg: current,
            sg: Some(current_sg),
            inserted,
            cost: current_cost,
            truncated: true,
        });
    }
    Err(SynthError::CscUnresolvable { attempts })
}

/// Symbolic-backend audit of an explicit-path resolution: the resolved
/// STG's explicit state count must match the persistent manager's
/// symbolic marking count, **and** the symbolic conflict detector must
/// agree with [`StateGraph::csc_conflicts`] on the accepted graph —
/// both detectors cross-check each other on every accepted resolution.
fn audit_resolution(
    resolution: &CscResolution,
    engine: &mut ReachEngine,
) -> Result<(), SynthError> {
    let sg = resolution
        .sg
        .as_ref()
        .expect("every resolution carries its graph");
    audit_against_symbolic(engine, &resolution.stg, sg)?;
    if engine.backend() == ReachBackend::Symbolic {
        let analysis = engine.csc_conflicts_symbolic(&resolution.stg)?;
        let explicit = sg.csc_conflicts().len() as u64;
        if analysis.conflicts != explicit {
            return Err(SynthError::DetectorMismatch {
                explicit,
                symbolic: analysis.conflicts,
            });
        }
    }
    Ok(())
}

/// On [`ReachBackend::Symbolic`], `stg`'s BDD marking count must match
/// the explicitly built graph's state count.
///
/// # Errors
///
/// [`SynthError::BackendMismatch`] on divergence; the symbolic query's
/// own errors.
fn audit_against_symbolic(
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

/// A candidate search's verdict: the winning candidate (if any) plus
/// the truncated flag — `true` when at least one candidate was
/// disqualified only because the engine's budget ran out mid-eval.
type SearchOutcome<T> = (Option<T>, bool);

/// Tries every candidate insertion point serially on `engine`; returns
/// the best valid insertion as `(splice, sg, cost)`. `sg` is the state
/// graph of `stg` (the round's base, already held by the caller) and
/// `before` its conflict count: no candidate re-explores `stg`.
///
/// Each candidate's graph is spliced from `sg`
/// ([`ReachEngine::spliced_state_graph`]), on every backend, and no
/// candidate builds an STG: the caller rebuilds only the winner. The
/// winner is the lowest cost, and among equal costs the first candidate
/// in [`rt_stg::splice::candidates`]' order ([`rt_stg::par::argmin`]).
///
/// The second element of the `Ok` pair is the *truncated* flag: `true`
/// when at least one candidate was disqualified only because the
/// engine's [`rt_stg::Budget`] ran out mid-evaluation — the caller
/// turns that into a partial resolution instead of
/// [`SynthError::CscUnresolvable`]. Any other failed candidate walk is
/// disqualified, except a cancellation.
///
/// # Errors
///
/// As [`SynthError::Stg`]: [`StgError::Cancelled`] when a candidate's
/// walk is cancelled (no further candidate starts), and
/// [`StgError::WorkerPanicked`] when a candidate evaluation panicked.
fn best_insertion(
    stg: &Stg,
    sg: &StateGraph,
    name: &str,
    options: &CscOptions,
    before: usize,
    engine: &mut ReachEngine,
    attempts: &mut usize,
) -> Result<SearchOutcome<(Splice, StateGraph, usize)>, SynthError> {
    let specs = insertion_specs(stg);
    *attempts += specs.len();
    let mut truncated = false;
    let best = argmin(specs, |splice| {
        let candidate = match engine.spliced_state_graph(sg, stg, name, splice) {
            Ok(candidate) => candidate,
            Err(StgError::Cancelled) => return Err(StgError::Cancelled),
            Err(error) => {
                truncated |= error.is_resource_exhaustion();
                return Ok(None);
            }
        };
        if !candidate.is_strongly_connected() || !candidate.deadlock_states().is_empty() {
            return Ok(None);
        }
        let after = candidate.csc_conflict_count();
        if after >= before {
            return Ok(None); // insertion must strictly help
        }
        let penalty = critical_penalty(stg, splice) * options.critical_path_penalty;
        let cost = if after == 0 {
            encoding_cost(&candidate, penalty)
        } else {
            // Not yet CSC-free: rank by remaining conflicts.
            1_000 + after * 100 + penalty
        };
        Ok(Some((cost, (splice, candidate))))
    })?;
    Ok((
        best.map(|(cost, (splice, candidate))| (splice, candidate, cost)),
        truncated,
    ))
}

/// Minimized literal count of every implemented signal — the logic cost
/// of an encoding, plus 2 per signal and `penalty`. The covers are
/// minimized as synthesis minimizes them
/// ([`crate::regions::SignalFunctions::minimize`]), so the literal
/// counts are the ones [`crate::synthesize`] reports for the graph.
fn encoding_cost(sg: &StateGraph, penalty: usize) -> usize {
    match derive_functions(sg, &LocalDontCares::none()) {
        Ok(funcs) => {
            let mut total = penalty;
            for spec in &funcs.specs {
                let (set, reset) = funcs.minimize(spec);
                total += set.literal_count() + reset.literal_count() + 2;
            }
            total
        }
        Err(_) => usize::MAX / 2,
    }
}

/// Number of *output* transitions directly triggered by the state
/// signal's transitions once `splice` inserts it into `stg` (the
/// timing-aware "keep x off the critical path" metric), read off the
/// splice: `x±` spliced into a place triggers that place's consumer,
/// and `x±` after a transition triggers every consumer of that
/// transition's postset.
fn critical_penalty(stg: &Stg, splice: Splice) -> usize {
    let net = stg.net();
    let is_output = |t: TransitionId| match stg.label(t) {
        TransitionLabel::Event(ev) => stg.signal_kind(ev.signal) == SignalKind::Output,
        TransitionLabel::Silent => false,
    };
    match splice {
        Splice::Places { plus, minus, .. } => [plus, minus]
            .into_iter()
            .filter(|&p| is_output(net.consumers(p)[0]))
            .count(),
        Splice::Transitions { plus, minus } => [plus, minus]
            .into_iter()
            .flat_map(|t| net.postset(t))
            .flat_map(|arc| net.consumers(arc.place))
            .filter(|&&t| is_output(t))
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_stg::{explore, models};

    /// The graph every resolution carries.
    fn graph(res: &CscResolution) -> &StateGraph {
        res.sg.as_ref().expect("every resolution carries its graph")
    }

    #[test]
    fn csc_free_spec_passes_through() {
        let stg = models::handshake_stg();
        let res = resolve_csc(&stg).unwrap();
        assert!(res.inserted.is_empty());
        assert_eq!(graph(&res).state_count(), 4);
    }

    #[test]
    fn fifo_conflicts_are_resolved_by_insertion() {
        let stg = models::fifo_stg();
        let res = resolve_csc(&stg).unwrap();
        assert!(!res.inserted.is_empty(), "fifo needs a state signal");
        assert!(graph(&res).csc_conflicts().is_empty());
        assert!(graph(&res).is_strongly_connected());
        // The new signal is internal.
        let x = res.stg.signal_by_name(&res.inserted[0]).unwrap();
        assert_eq!(res.stg.signal_kind(x), SignalKind::Internal);
    }

    #[test]
    fn insertion_preserves_interface_signals() {
        let stg = models::fifo_stg();
        let res = resolve_csc(&stg).unwrap();
        for name in ["li", "lo", "ro", "ri"] {
            let original = stg.signal_by_name(name).unwrap();
            let rewritten = res.stg.signal_by_name(name).unwrap();
            assert_eq!(
                stg.signal_kind(original),
                res.stg.signal_kind(rewritten),
                "{name} kind preserved"
            );
        }
    }

    #[test]
    fn manual_insertion_roundtrip() {
        let stg = models::handshake_stg();
        let net = stg.net();
        // Splice x+ into the first place and x- into the second.
        let places: Vec<_> = net.places().collect();
        let rewritten = insert_state_signal_with(&stg, "x", places[0], places[1], false);
        assert_eq!(rewritten.signal_count(), stg.signal_count() + 1);
        // The rewrite may or may not be consistent; exploration decides.
        let _ = explore(&rewritten);
    }

    #[test]
    fn both_engine_backends_produce_identical_resolutions() {
        let options = CscOptions::default();
        for (name, stg) in [
            ("fifo", models::fifo_stg()),
            (
                "vme_read",
                rt_stg::corpus::parse(rt_stg::corpus::VME_READ_G).unwrap(),
            ),
            ("handshake", models::handshake_stg()),
            // 66 places and CSC-free: past one packed machine word, the
            // size class wide nets start at.
            ("chain32", models::chain_stg(32)),
        ] {
            let mut explicit = ReachEngine::explicit();
            let mut symbolic = ReachEngine::symbolic();
            let a = resolve_csc_engine(&stg, &options, &mut explicit)
                .unwrap_or_else(|e| panic!("{name} explicit: {e}"));
            let b = resolve_csc_engine(&stg, &options, &mut symbolic)
                .unwrap_or_else(|e| panic!("{name} symbolic: {e}"));
            assert_eq!(a.stg, b.stg, "{name}");
            assert_eq!(a.inserted, b.inserted, "{name}");
            assert_eq!(a.cost, b.cost, "{name}");
            assert_eq!(a.truncated, b.truncated, "{name}");
            let (ga, gb) = (graph(&a), graph(&b));
            assert_eq!(ga.state_count(), gb.state_count(), "{name}");
            assert_eq!(
                ga.states().map(|s| ga.code(s)).collect::<Vec<_>>(),
                gb.states().map(|s| gb.code(s)).collect::<Vec<_>>(),
                "{name}: identical coded graphs"
            );
        }
    }

    #[test]
    fn shared_symbolic_engine_audits_and_reuses_across_resolutions() {
        // One engine across two resolutions: manager survives, audit
        // passes, and at least one symbolic call hit the warm manager.
        let mut engine = ReachEngine::symbolic();
        let first = resolve_csc_engine(&models::fifo_stg(), &CscOptions::default(), &mut engine)
            .expect("fifo resolves");
        assert!(!first.inserted.is_empty());
        let nodes_after_first = engine.manager_nodes();
        assert!(nodes_after_first > 2, "audit ran symbolically");
        let second = resolve_csc_engine(&models::fifo_stg(), &CscOptions::default(), &mut engine)
            .expect("fifo resolves again");
        assert_eq!(first.inserted, second.inserted);
        assert_eq!(first.cost, second.cost);
        assert!(
            engine.stats().manager_reuses >= 1,
            "second audit reused the manager"
        );
        assert_eq!(
            engine.manager_nodes(),
            nodes_after_first,
            "identical net re-audited out of cache: no new nodes"
        );
    }

    #[test]
    fn the_callers_engine_counts_every_candidate_walk() {
        // One graph for the input, then one per candidate of the single
        // round both nets need, all on the caller's engine.
        for (name, stg) in [
            ("fifo", models::fifo_stg()),
            (
                "vme_read",
                rt_stg::corpus::parse(rt_stg::corpus::VME_READ_G).unwrap(),
            ),
        ] {
            for mut engine in [ReachEngine::explicit(), ReachEngine::symbolic()] {
                let resolution = resolve_csc_engine(&stg, &CscOptions::default(), &mut engine)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(resolution.inserted.len(), 1, "{name}");
                assert_eq!(
                    engine.stats().graph_builds,
                    1 + insertion_specs(&stg).len(),
                    "{name} on {:?}",
                    engine.backend()
                );
            }
        }
    }

    /// The FIFO plus an input `en` that never fires, forced high.
    fn fifo_with_forced_en() -> Stg {
        let mut stg = models::fifo_stg();
        let en = stg.add_signal("en", SignalKind::Input).unwrap();
        stg.set_initial_value(en, true);
        stg
    }

    #[test]
    fn a_resolution_keeps_forced_initial_values() {
        let stg = fifo_with_forced_en();
        let res = resolve_csc(&stg).unwrap();
        assert_eq!(res.inserted, ["csc0"]);
        let en = res.stg.signal_by_name("en").unwrap();
        assert_eq!(res.stg.initial_value(en), Some(true));
        let sg = graph(&res);
        assert!(sg.states().all(|s| sg.signal_value(s, en)), "en stays high");
    }

    #[test]
    fn a_resolution_skips_a_state_signal_name_the_spec_uses() {
        // The FIFO beside an input that never fires: called `csc0`, the
        // search names its signal `csc1` and otherwise resolves it as
        // under any other name.
        let resolve = |name: &str| {
            let mut stg = models::fifo_stg();
            stg.add_signal(name, SignalKind::Input).unwrap();
            resolve_csc(&stg).unwrap()
        };
        let (taken, free) = (resolve("csc0"), resolve("u"));
        assert_eq!(taken.inserted, ["csc1"]);
        assert_eq!(free.inserted, ["csc0"]);
        assert_eq!(taken.cost, free.cost);
        assert_eq!(graph(&taken).csc_conflict_count(), 0);
    }

    #[test]
    fn timing_aware_penalty_counts_output_triggers() {
        // The penalty read off a splice counts the output transitions
        // that x's transitions trigger in the rebuilt STG.
        let rebuilt_count = |stg: &Stg| {
            let x = stg.signal_by_name("x").expect("inserted");
            let net = stg.net();
            stg.transitions_of(x)
                .into_iter()
                .flat_map(|t| net.postset(t))
                .flat_map(|arc| net.consumers(arc.place))
                .filter(|&&t| {
                    stg.label(t)
                        .event()
                        .is_some_and(|ev| stg.signal_kind(ev.signal) == SignalKind::Output)
                })
                .count()
        };
        let mut penalized = 0;
        for stg in [
            models::fifo_stg(),
            rt_stg::corpus::parse(rt_stg::corpus::VME_READ_G).unwrap(),
        ] {
            for splice in insertion_specs(&stg) {
                let penalty = critical_penalty(&stg, splice);
                assert_eq!(
                    penalty,
                    rebuilt_count(&splice.insert(&stg, "x")),
                    "{splice:?}"
                );
                penalized += usize::from(penalty > 0);
            }
        }
        assert!(penalized > 0, "some candidate triggers an output");
    }
}
