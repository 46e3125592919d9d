//! The degradation matrix (compiled only with `--features
//! fault-injection`): every [`Degradation`] variant is driven by an
//! injected or real budget fault, and the engine's recorded reason must
//! match the fault exactly — same order, nothing extra, and never a
//! degradation for a hard stop like cancellation.
//!
//! Every test holds the suite lock ([`rt_stg::faults::suite`]) for its
//! whole body: the fresh reference runs happen before anything is
//! armed, and an unguarded reference walk could otherwise consume a
//! concurrently armed test's shot (the explicit summary then degrades
//! silently and the armed test sees no fault).

#![cfg(feature = "fault-injection")]

use rt_stg::engine::{CscSummary, Degradation, ReachEngine};
use rt_stg::faults::{arm, suite, Fault};
use rt_stg::{models, Budget, StgError};
use rt_synth::csc::{resolve_csc_engine, CscOptions};
use rt_synth::SynthError;

#[test]
fn symbolic_node_exhaustion_propagates() {
    // A symbolic engine has no fallback: the overrun is the caller's to
    // retry, and the engine serves the next query normally.
    let _suite = suite();
    let stg = models::fifo_stg();
    let _guard = arm(Fault::ExhaustNodesAt { iteration: 1 }, 1);
    let mut engine = ReachEngine::symbolic();
    assert!(matches!(
        engine.summary(&stg),
        Err(StgError::NodeBudgetExceeded { .. })
    ));
    assert!(engine.stats().degradations.is_empty());
    assert_eq!(engine.summary(&stg).expect("shot spent").markings, 18);
}

#[test]
fn explicit_state_exhaustion_degrades_to_the_symbolic_backend() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let expected = ReachEngine::explicit()
        .summary(&stg)
        .expect("fresh summary")
        .markings;
    let _guard = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    let mut engine = ReachEngine::explicit();
    let summary = engine.summary(&stg).expect("symbolic fallback serves");
    assert_eq!(summary.markings, expected);
    assert_eq!(
        engine.stats().degradations,
        vec![Degradation::ExplicitToSymbolic]
    );
}

#[test]
fn explicit_csc_check_degrades_to_the_symbolic_detector() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let expected = ReachEngine::explicit()
        .csc_check(&stg)
        .expect("fresh check");
    let _guard = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    let mut engine = ReachEngine::explicit();
    let check = engine.csc_check(&stg).expect("symbolic fallback serves");
    assert!(check.bdd_nodes > 0, "served by the BDD detector");
    assert_eq!(
        CscSummary {
            bdd_nodes: 0,
            ..check
        },
        expected
    );
    assert_eq!(
        engine.stats().degradations,
        vec![Degradation::ExplicitToSymbolic]
    );
}

#[test]
fn an_exhausted_fallback_surfaces_the_bdd_error() {
    // Both analysers out of budget: the walk by injection, its BDD
    // fallback by a one-node allowance. The error leaves the engine,
    // with the fallback it tried on record.
    let _suite = suite();
    let stg = models::fifo_stg();
    let _guard = arm(Fault::ExhaustStatesAt { round: 1 }, 2);
    let mut engine = ReachEngine::explicit().with_budget(Budget::default().with_max_bdd_nodes(1));
    assert!(matches!(
        engine.summary(&stg),
        Err(StgError::NodeBudgetExceeded { .. })
    ));
    assert!(matches!(
        engine.csc_check(&stg),
        Err(StgError::NodeBudgetExceeded { .. })
    ));
    assert_eq!(
        engine.stats().degradations,
        vec![Degradation::ExplicitToSymbolic; 2]
    );
}

#[test]
fn cancellation_is_never_papered_over_by_a_degradation() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let _guard = arm(Fault::CancelAt { round: 0 }, 1);
    let mut engine = ReachEngine::explicit();
    assert!(matches!(engine.summary(&stg), Err(StgError::Cancelled)));
    assert!(engine.stats().degradations.is_empty());
}

#[test]
fn budget_starved_candidate_search_returns_a_partial_resolution() {
    // Pure-budget path, no injected fault: the state budget admits the
    // input net exactly, so every (strictly larger) candidate insertion
    // blows it and the search must surrender a truncated result instead
    // of aborting.
    let _suite = suite();
    let stg = models::fifo_stg();
    let baseline = ReachEngine::explicit()
        .state_graph(&stg)
        .expect("fits unbudgeted")
        .state_count();
    let mut engine =
        ReachEngine::explicit().with_budget(Budget::unlimited().with_max_states(baseline));
    let resolution = resolve_csc_engine(&stg, &CscOptions::default(), &mut engine)
        .expect("partial result, not an abort");
    assert!(resolution.truncated, "search must flag the truncation");
    assert!(
        resolution.inserted.is_empty(),
        "no candidate fits the budget"
    );
    assert!(
        engine
            .stats()
            .degradations
            .contains(&Degradation::PartialSynthesis),
        "{:?}",
        engine.stats().degradations
    );
}

#[test]
fn a_cancelled_candidate_walk_stops_the_search() {
    // The fifo's own walk ends before round 12, so the shot fires in
    // the first candidate walk that gets that far. The search must stop
    // there with the cancellation, not go on to rank the remaining
    // candidates (a false verdict or a resolution built from the
    // candidates that ran before the cancel).
    let _suite = suite();
    let stg = models::fifo_stg();
    let options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    let _guard = arm(Fault::CancelAt { round: 12 }, 1);
    let mut engine = ReachEngine::explicit();
    let result =
        resolve_csc_engine(&stg, &options, &mut engine).map(|res| (res.inserted, res.cost));
    assert_eq!(result, Err(SynthError::Stg(StgError::Cancelled)));
    assert!(
        !engine
            .stats()
            .degradations
            .contains(&Degradation::PartialSynthesis),
        "{:?}",
        engine.stats().degradations
    );
}
