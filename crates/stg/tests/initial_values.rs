//! Initial-value inference on both backends. The coded walk fixes each
//! unforced signal's initial value at its first enabled edge in
//! breadth-first order; the symbolic CSC detector seeds its code
//! variables from a sweep that must fix the same values. A wrong seed
//! shows in the symbolic answer: a conflict witness carries every
//! signal's value, and an edge that cannot fire changes the counts or
//! reads as an inconsistency.

use rt_stg::{CscSummary, Edge, ReachEngine, SignalKind, Stg, StgError};

/// `a+ b+ a- b- d- a+ a- d+` around one ring, plus a signal `z` whose
/// edges are never enabled. `d` first fires at the fifth layer, a fall,
/// so it starts high; `z` never fires, so it starts low. The repeated
/// codes of the ring give CSC conflicts, so the symbolic detector
/// returns a witness.
fn late_fall() -> Stg {
    let mut stg = Stg::new("late_fall");
    let mut signal = |name| stg.add_signal(name, SignalKind::Output).unwrap();
    let (a, b, d, z) = (signal("a"), signal("b"), signal("d"), signal("z"));
    let ring = [
        stg.transition_for(a, Edge::Rise),
        stg.transition_for(b, Edge::Rise),
        stg.transition_for(a, Edge::Fall),
        stg.transition_for(b, Edge::Fall),
        stg.transition_for(d, Edge::Fall),
        stg.transition(rt_stg::SignalEvent::new(a, Edge::Rise)),
        stg.transition(rt_stg::SignalEvent::new(a, Edge::Fall)),
        stg.transition_for(d, Edge::Rise),
    ];
    for pair in ring.windows(2) {
        stg.arc(pair[0], pair[1]);
    }
    stg.marked_arc(ring[7], ring[0]);
    let z_rise = stg.transition_for(z, Edge::Rise);
    let z_fall = stg.transition_for(z, Edge::Fall);
    let never = stg.add_place("never");
    stg.arc_from_place(never, z_rise);
    stg.arc(z_rise, z_fall);
    stg
}

/// Both edges of `c` enabled by the initial marking.
fn both_edges_at_once() -> Stg {
    let mut stg = Stg::new("both_edges");
    let c = stg.add_signal("c", SignalKind::Output).unwrap();
    for edge in [Edge::Rise, Edge::Fall] {
        let t = stg.transition_for(c, edge);
        let p = stg.add_place(format!("p{}", edge.suffix()));
        stg.set_tokens(p, 1);
        stg.arc_from_place(p, t);
    }
    stg
}

fn csc_check(engine: &mut ReachEngine, stg: &Stg) -> Result<CscSummary, StgError> {
    engine.csc_check(stg).map(|check| CscSummary {
        bdd_nodes: 0,
        ..check
    })
}

/// The signal an error names when it is an inconsistency.
fn inconsistent_signal<T: std::fmt::Debug>(result: Result<T, StgError>) -> String {
    match result {
        Err(StgError::Inconsistent { signal, .. }) => signal,
        other => panic!("expected an inconsistency, got {other:?}"),
    }
}

#[test]
fn both_backends_infer_initial_values_alike() {
    // An unforced late fall starts high, and a signal that never fires
    // starts low, on both backends.
    let stg = late_fall();
    let sg = ReachEngine::explicit().state_graph(&stg).unwrap();
    assert_eq!(sg.state_count(), 8);
    assert_eq!(sg.code(sg.initial()), 0b0100, "d starts high, z low");
    let explicit = csc_check(&mut ReachEngine::explicit(), &stg).unwrap();
    let symbolic = csc_check(&mut ReachEngine::symbolic(), &stg).unwrap();
    assert_eq!(explicit, symbolic);
    assert!(explicit.conflicts > 0);
    let analysis = ReachEngine::symbolic()
        .csc_conflicts_symbolic(&stg)
        .unwrap();
    let witness = analysis.witness.expect("the ring has conflicts");
    for marking in [&witness.marking_a, &witness.marking_b] {
        let state = sg
            .states()
            .find(|&s| sg.packed_marking(s).words() == marking.as_slice())
            .expect("the witness marking is reachable");
        assert_eq!(sg.code(state), witness.code, "both backends code it alike");
    }

    // A forced value that contradicts the first edge is an
    // inconsistency naming that signal.
    let mut forced = late_fall();
    let d = forced.signal_by_name("d").unwrap();
    forced.set_initial_value(d, false);
    // A first layer that enables both edges of one signal is one too.
    let both = both_edges_at_once();
    for (stg, name) in [(&forced, "d"), (&both, "c")] {
        let mut explicit = ReachEngine::explicit();
        assert_eq!(inconsistent_signal(explicit.state_graph(stg)), name);
        assert_eq!(inconsistent_signal(explicit.csc_check(stg)), name);
        let mut symbolic = ReachEngine::symbolic();
        assert_eq!(inconsistent_signal(symbolic.csc_check(stg)), name);
    }
}
