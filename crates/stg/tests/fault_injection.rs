//! Deterministic fault-injection coverage for the engine's failure
//! edges (compiled only with `--features fault-injection`).
//!
//! Each test arms one fault from `rt_stg::faults`, drives a normal
//! analysis into it, and then — *while still holding the arm guard, so
//! fault tests never interleave* — re-runs the same analysis with the
//! shots spent and asserts the engine reproduces a fresh engine's
//! answer bit-for-bit. That is the whole robustness contract: injected
//! budget exhaustion and cancellation must neither hang, abort, nor
//! leave any state behind.
//!
//! Every test holds the suite lock ([`rt_stg::faults::suite`]) for its
//! whole body: the fresh reference run happens before anything is
//! armed, and a sibling test's armed shot must not fire inside it.

#![cfg(feature = "fault-injection")]

use rt_stg::engine::ReachEngine;
use rt_stg::faults::{arm, suite, Fault};
use rt_stg::{explore, models, StgError};

#[test]
fn injected_cancellation_stops_explicit_walks_within_one_round() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let reference = explore(&stg).expect("fresh explore");
    for round in [0usize, 2] {
        let _guard = arm(Fault::CancelAt { round }, 1);
        let mut engine = ReachEngine::explicit();
        let result = engine.state_graph(&stg);
        assert!(
            matches!(result, Err(StgError::Cancelled)),
            "round={round}: {result:?}"
        );
        let sg = engine.state_graph(&stg).expect("reusable after cancel");
        assert_eq!(sg.state_count(), reference.state_count());
        assert_eq!(sg.arc_count(), reference.arc_count());
    }
}

#[test]
fn injected_state_exhaustion_stops_explicit_walks_within_one_round() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let reference = explore(&stg).expect("fresh explore");
    let _guard = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    let mut engine = ReachEngine::explicit();
    let result = engine.state_graph(&stg);
    assert!(
        matches!(result, Err(StgError::StateBudgetExceeded { .. })),
        "{result:?}"
    );
    let sg = engine.state_graph(&stg).expect("reusable after exhaustion");
    assert_eq!(sg.state_count(), reference.state_count());
    assert_eq!(sg.arc_count(), reference.arc_count());
}

#[test]
fn injected_symbolic_faults_stop_the_fixpoint_and_spare_the_manager() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let mut fresh = ReachEngine::symbolic();
    let reference = fresh.symbolic_set(&stg).expect("fresh symbolic set");

    let _guard = arm(Fault::ExhaustNodesAt { iteration: 1 }, 1);
    let mut engine = ReachEngine::symbolic();
    let result = engine.symbolic_set(&stg);
    assert!(
        matches!(result, Err(StgError::NodeBudgetExceeded { .. })),
        "{result:?}"
    );
    let after = engine
        .symbolic_set(&stg)
        .expect("manager reusable after injected exhaustion");
    assert_eq!(after.markings, reference.markings);
    assert_eq!(after.iterations, reference.iterations);
    drop(_guard);

    let _guard = arm(Fault::CancelAt { round: 0 }, 1);
    let mut engine = ReachEngine::symbolic();
    assert!(matches!(
        engine.symbolic_set(&stg),
        Err(StgError::Cancelled)
    ));
    let after = engine
        .symbolic_set(&stg)
        .expect("manager reusable after injected cancel");
    assert_eq!(after.markings, reference.markings);
    assert_eq!(after.iterations, reference.iterations);
}
