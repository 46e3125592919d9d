//! Property test for the `ReachEngine` symbolic backend's manager
//! reuse: a **reused** manager must return bit-identical reachable sets
//! to a **fresh** manager on every model of the corpus, in every
//! visiting order.
//!
//! This is the guard against cache-poisoning bugs: the persistent
//! apply/cofactor caches and unique table survive across nets, so a
//! stale or mis-keyed entry would silently corrupt a later net's
//! reachable set. "Bit-identical" is checked at the set level, not just
//! the count: the explicitly enumerated markings of the net must all be
//! members of the symbolic set, and the model counts must match — for
//! safe nets (1 bit per place) that pins the set exactly.

use proptest::prelude::*;
use rt_stg::engine::ReachEngine;
use rt_stg::{corpus, explore, models, Budget, Stg, StgError};

/// The sweep corpus: paper models, `.g` corpus, scaling generators and
/// the wide (> 64-place) models.
fn sweep() -> Vec<(String, Stg)> {
    let mut specs: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
        ("chain4".into(), models::chain_stg(4)),
        ("ring6_2".into(), models::ring_stg(6, 2)),
    ];
    for (name, text) in corpus::all() {
        specs.push((name.to_string(), corpus::parse(text).expect("parses")));
    }
    specs.push(("adder16_rt".into(), corpus::adder16_rt_stg()));
    specs
}

/// Asserts the reused-manager run of `stg` reproduces the fresh run
/// bit-for-bit: same model count, same iteration trace, and the same
/// membership answer for every explicitly reachable marking (and for
/// the fresh run's set, so the two sets agree on the full explicit
/// support).
fn assert_bit_identical(name: &str, stg: &Stg, reused: &mut ReachEngine) {
    let mut fresh = ReachEngine::symbolic();
    let f = fresh
        .symbolic_set(stg)
        .unwrap_or_else(|e| panic!("{name}: fresh: {e}"));
    let r = reused
        .symbolic_set(stg)
        .unwrap_or_else(|e| panic!("{name}: reused: {e}"));
    assert_eq!(f.markings, r.markings, "{name}: model counts diverge");
    assert_eq!(
        f.iterations, r.iterations,
        "{name}: fixpoint depth diverges"
    );

    let sg = explore(stg).unwrap_or_else(|e| panic!("{name}: explicit: {e}"));
    assert_eq!(f.markings, sg.state_count() as u64, "{name}");
    let fresh_bdd = fresh.manager().expect("fresh manager alive");
    let reused_bdd = reused.manager().expect("reused manager alive");
    assert_eq!(
        f.place_of_var, r.place_of_var,
        "{name}: static variable order must not depend on manager history"
    );
    for state in sg.states() {
        let words = sg.packed_marking(state).words();
        assert!(
            f.contains(fresh_bdd, words),
            "{name}: marking missing from fresh set"
        );
        assert!(
            r.contains(reused_bdd, words),
            "{name}: marking missing from reused set"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random visiting orders (with repetition) over the sweep: one
    /// engine serves them all, and each stop must match a fresh run.
    /// Repetition matters — re-visiting a net after the manager grew on
    /// other nets is the pure cache-replay path.
    #[test]
    fn reused_manager_matches_fresh_runs_in_any_order(
        seed in 0u64..1 << 16,
        extra_visits in 1usize..5,
    ) {
        let specs = sweep();
        let mut engine = ReachEngine::symbolic();
        // Deterministic pseudo-shuffle driven by the seed.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        let mut s = seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        for _ in 0..extra_visits {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.push((s >> 33) as usize % specs.len());
        }
        for &i in &order {
            let (name, stg) = &specs[i];
            assert_bit_identical(name, stg, &mut engine);
        }
        prop_assert!(engine.stats().manager_reuses >= order.len() - 1);
    }
}

#[test]
fn reused_manager_matches_fresh_runs_across_the_whole_sweep() {
    // The deterministic full sweep, plus the wide fabric (kept out of
    // the proptest loop for runtime).
    let mut engine = ReachEngine::symbolic();
    for (name, stg) in sweep() {
        assert_bit_identical(&name, &stg, &mut engine);
    }
    assert_bit_identical("fabric4x4", &corpus::fabric4x4_stg(), &mut engine);
}

/// A budget-interrupted explicit engine must stay fully reusable: after
/// an exhausted or cancelled run, lifting the budget and re-asking must
/// reproduce a fresh engine's graph exactly.
#[test]
fn budget_interrupted_explicit_engine_stays_reusable() {
    let stg = models::fifo_stg();
    let reference = explore(&stg).expect("fresh explicit explore");
    // State-budget exhaustion mid-walk.
    let mut engine = ReachEngine::explicit().with_budget(Budget::unlimited().with_max_states(3));
    assert!(
        matches!(
            engine.state_graph(&stg),
            Err(StgError::StateBudgetExceeded { .. })
        ),
        "tiny budget must interrupt the walk"
    );
    engine = engine.with_budget(Budget::default());
    let sg = engine
        .state_graph(&stg)
        .unwrap_or_else(|e| panic!("reuse after exhaustion: {e}"));
    assert_eq!(sg.state_count(), reference.state_count());
    assert_eq!(sg.arc_count(), reference.arc_count());

    // Cancellation before the walk finishes.
    let mut engine = ReachEngine::explicit();
    engine.budget().cancel.cancel();
    assert!(
        matches!(engine.state_graph(&stg), Err(StgError::Cancelled)),
        "a fired token must stop the walk"
    );
    engine = engine.with_budget(Budget::default());
    let sg = engine
        .state_graph(&stg)
        .unwrap_or_else(|e| panic!("reuse after cancellation: {e}"));
    assert_eq!(sg.state_count(), reference.state_count());
    assert_eq!(sg.arc_count(), reference.arc_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Budget interruptions sprinkled across the sweep must never
    /// poison the persistent symbolic manager: every interrupted visit
    /// is retried unbudgeted and must still be bit-identical to a fresh
    /// engine's answer.
    #[test]
    fn budget_interrupted_symbolic_manager_stays_bit_identical(
        seed in 0u64..1 << 16,
    ) {
        let specs = sweep();
        let mut engine = ReachEngine::symbolic();
        let mut s = seed | 1;
        for (name, stg) in &specs {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match s >> 33 & 3 {
                0 => {
                    // Starve the fixpoint of iterations.
                    engine = engine.with_budget(Budget::unlimited().with_max_iterations(1));
                    let interrupted = engine.symbolic_set(stg);
                    prop_assert!(
                        interrupted.as_ref().is_err_and(|e| e.is_resource_exhaustion()),
                        "{}: expected exhaustion, got {interrupted:?}", name
                    );
                }
                1 => {
                    // Starve the manager of nodes.
                    engine = engine.with_budget(Budget::unlimited().with_max_bdd_nodes(1));
                    let interrupted = engine.symbolic_set(stg);
                    prop_assert!(
                        interrupted.as_ref().is_err_and(|e| e.is_resource_exhaustion()),
                        "{}: expected exhaustion, got {interrupted:?}", name
                    );
                }
                2 => {
                    // Cancel before the fixpoint starts.
                    let budget = Budget::default();
                    budget.cancel.cancel();
                    engine = engine.with_budget(budget);
                    prop_assert!(
                        matches!(engine.symbolic_set(stg), Err(StgError::Cancelled)),
                        "{}: expected cancellation", name
                    );
                }
                _ => {} // healthy visit, no interruption
            }
            engine = engine.with_budget(Budget::default());
            assert_bit_identical(name, stg, &mut engine);
        }
    }
}
