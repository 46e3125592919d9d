//! Cross-detector agreement: the symbolic CSC analysis
//! (`rt_stg::symbolic::csc`) against the explicit
//! `StateGraph::csc_conflicts` over the full corpus, wide models
//! included — counts, witnesses, liveness flags and the persistent
//! engine entry point.

use rt_boolean::Bdd;
use rt_stg::engine::ReachEngine;
use rt_stg::symbolic::csc::{csc_conflicts_symbolic, csc_conflicts_symbolic_in, CscWitness};
use rt_stg::{corpus, explore, StateGraph, StateId};

/// Finds the explicit state carrying exactly this packed marking.
fn state_by_marking(sg: &StateGraph, words: &[u64]) -> Option<StateId> {
    sg.states().find(|&s| sg.packed_marking(s).words() == words)
}

/// A witness is *verified* by locating both markings in the explicit
/// graph and replaying the conflict definition on them.
fn verify_witness(name: &str, sg: &StateGraph, witness: &CscWitness) {
    let a = state_by_marking(sg, &witness.marking_a)
        .unwrap_or_else(|| panic!("{name}: witness marking A is not explicitly reachable"));
    let b = state_by_marking(sg, &witness.marking_b)
        .unwrap_or_else(|| panic!("{name}: witness marking B is not explicitly reachable"));
    assert_ne!(a, b, "{name}: witness states must be distinct");
    assert_eq!(
        sg.code(a),
        sg.code(b),
        "{name}: witness states must share a code"
    );
    assert_eq!(
        sg.code(a),
        witness.code,
        "{name}: witness reports the shared code"
    );
    assert!(
        sg.implied_value(a, witness.signal) && !sg.implied_value(b, witness.signal),
        "{name}: witness pair must disagree on the implied value of the reported \
         signal, 1-side first"
    );
    assert!(
        sg.csc_conflicts()
            .iter()
            .any(|c| (c.a == a && c.b == b || c.a == b && c.b == a) && c.signal == witness.signal),
        "{name}: witness pair must appear in the explicit conflict list"
    );
}

#[test]
fn counts_and_witnesses_agree_across_the_corpus() {
    // One persistent manager across the whole sweep — exactly how the
    // engine uses the detector in production.
    let mut shared = Bdd::new(0);
    for (name, stg) in corpus::sweep() {
        let sg = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let explicit = sg.csc_conflicts();
        let analysis =
            csc_conflicts_symbolic_in(&stg, &mut shared).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            analysis.conflicts,
            explicit.len() as u64,
            "{name}: symbolic conflict count must equal the explicit one"
        );
        assert_eq!(
            analysis.markings,
            sg.state_count() as u64,
            "{name}: reachable-marking counts must agree"
        );
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
        // Per-signal totals partition the explicit list.
        for &(signal, count) in &analysis.per_signal {
            let explicit_count = explicit.iter().filter(|c| c.signal == signal).count() as u64;
            assert_eq!(
                count, explicit_count,
                "{name}: per-signal count of {signal:?}"
            );
        }
        match (&analysis.witness, explicit.is_empty()) {
            (Some(witness), false) => verify_witness(&name, &sg, witness),
            (None, true) => {}
            (w, _) => panic!(
                "{name}: witness presence must track conflict presence (witness: {}, \
                 explicit: {})",
                w.is_some(),
                explicit.len()
            ),
        }
    }
}

#[test]
fn engine_entry_point_reuses_the_persistent_manager() {
    let mut engine = ReachEngine::symbolic();
    let stg = rt_stg::models::fifo_stg();
    let first = engine.csc_conflicts_symbolic(&stg).expect("analyses");
    assert!(
        first.conflicts > 0,
        "the fifo spec is the paper's CSC example"
    );
    assert_eq!(engine.stats().symbolic_csc, 1);
    let nodes = engine.manager_nodes();
    assert!(nodes > 2);
    let second = engine.csc_conflicts_symbolic(&stg).expect("analyses again");
    assert_eq!(second.conflicts, first.conflicts);
    assert_eq!(second.witness, first.witness, "replay is deterministic");
    assert_eq!(
        engine.manager_nodes(),
        nodes,
        "identical net re-analysed out of cache: no new nodes"
    );
    assert!(engine.stats().manager_reuses >= 1);
    assert_eq!(engine.stats().symbolic_csc, 2);
    assert_eq!(
        engine.stats().graph_builds,
        0,
        "no explicit graph was ever built"
    );
}

#[test]
fn inconsistent_specifications_are_rejected_like_the_explicit_analyser() {
    use rt_stg::{Edge, SignalKind, Stg};
    // a+ twice in a row: the canonical inconsistent net.
    let mut stg = Stg::new("bad");
    let a = stg.add_signal("a", SignalKind::Input).unwrap();
    let t1 = stg.transition_for(a, Edge::Rise);
    let t2 = stg.transition_for(a, Edge::Rise);
    stg.arc(t1, t2);
    let p = stg.add_place("start");
    stg.set_tokens(p, 1);
    stg.arc_from_place(p, t1);
    let explicit = explore(&stg).unwrap_err();
    assert!(matches!(explicit, rt_stg::StgError::Inconsistent { .. }));
    let symbolic = csc_conflicts_symbolic(&stg).unwrap_err();
    assert!(
        matches!(symbolic, rt_stg::StgError::Inconsistent { .. }),
        "got {symbolic:?}"
    );
}
