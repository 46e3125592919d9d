//! The two shortcuts the CSC candidate searches score with, checked
//! against the definitions they replace:
//!
//! * `StateGraph::csc_conflict_count` equals `csc_conflicts().len()`;
//! * concurrency reduction under no assumptions reproduces the graph
//!   (codes, arcs and markings), so the flow's encoding search skips it.
//!
//! Both are checked on every `corpus::sweep()` model and on every
//! insertion candidate of the paper and corpus nets: each pair of
//! simple places (both token placements) and each pair of transitions.

use rt_cad::rt::lazy::reduce_unchecked;
use rt_cad::stg::{corpus, explore, models, StateGraph, Stg};
use rt_cad::synth::csc::{insert_after_transitions, insert_state_signal_with, simple_places};

fn check(name: &str, sg: &StateGraph) {
    assert_eq!(
        sg.csc_conflict_count(),
        sg.csc_conflicts().len(),
        "{name}: conflict count"
    );
    let copy = reduce_unchecked(sg, &[]);
    assert_eq!(copy.state_count(), sg.state_count(), "{name}: states");
    assert_eq!(copy.initial(), sg.initial(), "{name}: initial state");
    assert_eq!(copy.marking_layout(), sg.marking_layout(), "{name}: layout");
    for s in sg.states() {
        assert_eq!(copy.code(s), sg.code(s), "{name}: code of {s}");
        assert_eq!(copy.successors(s), sg.successors(s), "{name}: arcs of {s}");
        assert_eq!(
            copy.packed_marking(s),
            sg.packed_marking(s),
            "{name}: marking of {s}"
        );
    }
}

#[test]
fn the_shortcuts_hold_on_every_sweep_model() {
    for (name, stg) in corpus::sweep() {
        let sg = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        check(&name, &sg);
    }
}

#[test]
fn the_shortcuts_hold_on_every_insertion_candidate() {
    let mut nets: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
    ];
    for (name, text) in corpus::all() {
        let stg = corpus::parse(text).expect("corpus entry parses");
        nets.push((format!("corpus:{name}"), stg));
    }
    let mut checked = 0;
    for (name, stg) in &nets {
        let mut candidates = Vec::new();
        let places = simple_places(stg);
        for &plus in &places {
            for &minus in places.iter().filter(|&&minus| minus != plus) {
                for token_after in [false, true] {
                    let candidate = insert_state_signal_with(stg, "csc0", plus, minus, token_after);
                    candidates.push((format!("{plus:?}/{minus:?}/{token_after}"), candidate));
                }
            }
        }
        // `rt-synth`'s search also splices after whole transitions.
        let transitions: Vec<_> = stg.net().transitions().collect();
        for &plus in &transitions {
            for &minus in transitions.iter().filter(|&&minus| minus != plus) {
                let candidate = insert_after_transitions(stg, "csc0", plus, minus);
                candidates.push((format!("{plus:?}/{minus:?}"), candidate));
            }
        }
        for (label, candidate) in candidates {
            // An inconsistent insertion has no state graph.
            if let Ok(sg) = explore(&candidate) {
                check(&format!("{name} {label}"), &sg);
                checked += 1;
            }
        }
    }
    assert!(checked >= 1_000, "only {checked} candidate graphs checked");
}
