//! Dynamic variable reordering end-to-end: sifted symbolic runs must
//! be *invisible* in every result — reach counts, set membership, CSC
//! verdicts and witnesses all bit-match the static orders — and
//! deterministic across runs. The loops here stay on the sub-wide
//! models with deliberately aggressive reorder triggers so sifting
//! actually fires many times in debug builds; the wide models run
//! under `RT_STG_FORCE_SIFT=1` in CI instead (see the workflow).

use rt_boolean::Bdd;
use rt_stg::engine::ReachEngine;
use rt_stg::reach::ExploreOptions;
use rt_stg::symbolic::csc::{csc_conflicts_symbolic_opts, CscWitness};
use rt_stg::symbolic::{reach_symbolic_in, reach_symbolic_with, VarOrder};
use rt_stg::{corpus, explore, StateGraph, StateId, Stg};

/// Reorder knobs hot enough that even the small corpus models sift
/// mid-fixpoint (the production defaults only fire on the wide nets).
fn aggressive_sift() -> ExploreOptions {
    ExploreOptions {
        var_order: VarOrder::Sift,
        reorder_growth: 1.1,
        reorder_min_nodes: 64,
        ..ExploreOptions::default()
    }
}

/// Every sweep model below the wide threshold — cheap enough to run
/// sifted in debug mode.
fn small_sweep() -> Vec<(String, Stg)> {
    corpus::sweep()
        .into_iter()
        .filter(|(_, stg)| stg.net().place_count() < 64)
        .collect()
}

fn state_by_marking(sg: &StateGraph, words: &[u64]) -> Option<StateId> {
    sg.states().find(|&s| sg.packed_marking(s).words() == words)
}

/// Replays a symbolic witness against the explicit graph (same
/// definition as the csc_symbolic suite).
fn verify_witness(name: &str, sg: &StateGraph, witness: &CscWitness) {
    let a = state_by_marking(sg, &witness.marking_a)
        .unwrap_or_else(|| panic!("{name}: witness marking A is not explicitly reachable"));
    let b = state_by_marking(sg, &witness.marking_b)
        .unwrap_or_else(|| panic!("{name}: witness marking B is not explicitly reachable"));
    assert_ne!(a, b, "{name}: witness states must be distinct");
    assert_eq!(sg.code(a), sg.code(b), "{name}: shared code");
    assert!(
        sg.implied_value(a, witness.signal) && !sg.implied_value(b, witness.signal),
        "{name}: witness pair must disagree on the reported signal"
    );
    assert!(
        sg.csc_conflicts()
            .iter()
            .any(|c| (c.a == a && c.b == b || c.a == b && c.b == a) && c.signal == witness.signal),
        "{name}: witness pair must appear in the explicit conflict list"
    );
}

#[test]
fn sifted_reach_is_exact_across_the_sweep() {
    let mut any_sifted = false;
    for (name, stg) in small_sweep() {
        let sg = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut bdd = Bdd::new(0);
        let sifted = reach_symbolic_with(&stg, &mut bdd, &aggressive_sift())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            sifted.markings,
            sg.state_count() as u64,
            "{name}: sifted marking count must match the explicit walk"
        );
        any_sifted |= sifted.sifts > 0;
        // Membership is preserved node-for-node: every explicitly
        // reachable marking is in the sifted set, and the counts
        // matching above means nothing extra snuck in.
        for s in sg.states() {
            assert!(
                sifted.contains(&bdd, sg.packed_marking(s).words()),
                "{name}: explicit state missing from the sifted set"
            );
        }
    }
    assert!(
        any_sifted,
        "the aggressive trigger must actually fire somewhere, or this suite tests nothing"
    );
}

#[test]
fn sifted_reach_is_deterministic() {
    for (name, stg) in small_sweep() {
        let run = || {
            let mut bdd = Bdd::new(0);
            let r = reach_symbolic_with(&stg, &mut bdd, &aggressive_sift()).expect("explores");
            (r.markings, r.bdd_nodes, r.sifts, bdd.current_order())
        };
        assert_eq!(run(), run(), "{name}: sifted runs must replay exactly");
    }
}

#[test]
fn sifted_csc_agrees_with_the_explicit_detector() {
    let options = aggressive_sift();
    let mut any_sifted = false;
    for (name, stg) in small_sweep() {
        let sg = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let explicit = sg.csc_conflicts();
        let mut bdd = Bdd::new(0);
        let analysis = csc_conflicts_symbolic_opts(&stg, &mut bdd, VarOrder::Sift, &options)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            analysis.conflicts,
            explicit.len() as u64,
            "{name}: sifted conflict count must equal the explicit one"
        );
        assert_eq!(analysis.markings, sg.state_count() as u64, "{name}");
        assert_eq!(
            analysis.deadlock_free,
            sg.deadlock_states().is_empty(),
            "{name}: deadlock flags must agree"
        );
        assert_eq!(
            analysis.strongly_connected,
            sg.is_strongly_connected(),
            "{name}: connectivity flags must agree"
        );
        for &(signal, count) in &analysis.per_signal {
            let explicit_count = explicit.iter().filter(|c| c.signal == signal).count() as u64;
            assert_eq!(count, explicit_count, "{name}: per-signal {signal:?}");
        }
        if let Some(witness) = &analysis.witness {
            verify_witness(&name, &sg, witness);
        } else {
            assert!(explicit.is_empty(), "{name}: missing witness");
        }
        any_sifted |= analysis.sifts > 0;
    }
    assert!(any_sifted, "the aggressive trigger must fire somewhere");
}

#[test]
fn sifted_csc_is_deterministic() {
    let stg = corpus::parse(corpus::VME_READ_G).expect("parses");
    let options = aggressive_sift();
    let run = || {
        let mut bdd = Bdd::new(0);
        let a = csc_conflicts_symbolic_opts(&stg, &mut bdd, VarOrder::Sift, &options)
            .expect("analyses");
        (a.conflicts, a.per_signal.clone(), a.bdd_nodes, a.sifts)
    };
    let first = run();
    assert!(first.0 > 0, "vme_read is a conflicted spec");
    assert_eq!(first, run(), "sifted analyses must replay exactly");
}

#[test]
fn engine_generational_collect_is_invisible_in_results() {
    let stg = rt_stg::models::fifo_stg();
    let mut engine = ReachEngine::symbolic();
    let baseline = engine.summary(&stg).expect("summarizes");
    let conflicts = engine.csc_conflicts_symbolic(&stg).expect("analyses");
    // Drop everything the queries left behind, keeping no roots: the
    // warm unique table survives (older-epoch nodes are pinned), and
    // re-running the same queries must reproduce every number.
    let evicted = engine.collect(&[]);
    let after = engine.summary(&stg).expect("summarizes");
    assert_eq!(baseline.markings, after.markings);
    assert_eq!(baseline.iterations, after.iterations);
    let conflicts_after = engine.csc_conflicts_symbolic(&stg).expect("analyses");
    assert_eq!(conflicts.conflicts, conflicts_after.conflicts);
    assert_eq!(conflicts.per_signal, conflicts_after.per_signal);
    assert!(engine.stats().collections >= 1);
    assert!(
        engine.stats().manager_reuses >= 1,
        "collect must not cost the engine its warm manager"
    );
    // Collect twice in a row: the second pass finds nothing new.
    engine.collect(&[]);
    let idle = engine.collect(&[]);
    assert_eq!(idle, 0, "an idle manager has no current-epoch garbage");
    let _ = evicted; // any value is legal; the invariants above are the test
}

#[test]
fn auto_order_crossover_matches_the_documented_threshold() {
    // The documented rule: Auto resolves to the measured-better
    // reverse order at every net size, with no place-count crossover.
    assert_eq!(VarOrder::Auto.resolved_for(), VarOrder::ReverseIndex);
    // Sift's *static seed* order follows the same rule, so a sifted
    // run starts from the best static guess before improving on it.
    assert_eq!(VarOrder::Sift.resolved_for(), VarOrder::ReverseIndex);
    // Explicit static orders are never second-guessed.
    assert_eq!(VarOrder::ByIndex.resolved_for(), VarOrder::ByIndex);
    assert_eq!(
        VarOrder::ReverseIndex.resolved_for(),
        VarOrder::ReverseIndex
    );
}

#[test]
fn default_entry_points_are_unaffected_by_the_reorder_machinery() {
    // The default (static) path must not sift: a fresh-manager default
    // run reports zero passes and an identity level permutation.
    let stg = rt_stg::models::fifo_stg();
    let mut bdd = Bdd::new(0);
    let r = reach_symbolic_in(&stg, &mut bdd).expect("explores");
    assert_eq!(r.sifts, 0);
    assert_eq!(r.sift_ns, 0);
    let order = bdd.current_order();
    assert!(
        order.iter().enumerate().all(|(l, &v)| l as u32 == v),
        "static runs must leave the level permutation untouched"
    );
}
