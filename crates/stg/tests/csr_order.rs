//! Regression tests pinning the CSR arc store to the historical
//! nested-`Vec` exploration order.
//!
//! The reachability analyser used to keep `Vec<Vec<StateArc>>` rows
//! filled by a FIFO breadth-first sweep over dense `Marking` keys; the
//! packed/CSR rewrite must produce byte-identical iteration order —
//! synthesis and region computations depend on deterministic state and
//! arc numbering. The reference implementation below replays the old
//! algorithm on dense markings, with its own token game over the net's
//! public arc lists.

use std::collections::{HashMap, VecDeque};

use rt_stg::state_graph::StateArc;
use rt_stg::stg::TransitionLabel;
use rt_stg::{corpus, explore, models, Marking, PetriNet, StateId, Stg, TransitionId};

/// The transitions `m` enables (every preset place marked), in id order.
fn enabled(net: &PetriNet, m: &Marking) -> Vec<TransitionId> {
    net.transitions()
        .filter(|&t| net.preset(t).iter().all(|arc| m.tokens(arc.place) > 0))
        .collect()
}

/// Fires enabled transition `t` from `m`: empty its preset, mark its
/// postset.
fn fire(net: &PetriNet, t: TransitionId, m: &Marking) -> Marking {
    let mut next = m.clone();
    for arc in net.preset(t) {
        next.set(arc.place, 0);
    }
    for arc in net.postset(t) {
        next.set(arc.place, 1);
    }
    next
}

/// The pre-CSR explorer: FIFO BFS over dense markings with nested arc
/// rows, exactly as `reach::explore_with` was originally written (minus
/// consistency checking, which is orthogonal to ordering).
fn reference_explore(stg: &Stg) -> (Vec<Marking>, Vec<Vec<StateArc>>) {
    let net = stg.net();
    let mut index: HashMap<Marking, u32> = HashMap::new();
    let mut markings: Vec<Marking> = Vec::new();
    let mut arcs: Vec<Vec<StateArc>> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();

    let initial = stg.initial_marking();
    index.insert(initial.clone(), 0);
    markings.push(initial);
    arcs.push(Vec::new());
    queue.push_back(0);

    while let Some(state) = queue.pop_front() {
        let marking = markings[state as usize].clone();
        for transition in enabled(net, &marking) {
            let next = fire(net, transition, &marking);
            let to = match index.get(&next) {
                Some(&existing) => existing,
                None => {
                    let id = markings.len() as u32;
                    index.insert(next.clone(), id);
                    markings.push(next);
                    arcs.push(Vec::new());
                    queue.push_back(id);
                    id
                }
            };
            let event = match stg.label(transition) {
                TransitionLabel::Silent => None,
                TransitionLabel::Event(ev) => Some(ev),
            };
            arcs[state as usize].push(StateArc {
                event,
                to: StateId(to),
            });
        }
    }
    (markings, arcs)
}

fn assert_same_order(name: &str, stg: &Stg) {
    let sg = explore(stg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (ref_markings, ref_arcs) = reference_explore(stg);
    assert_eq!(sg.state_count(), ref_markings.len(), "{name}: state count");
    for state in sg.states() {
        assert_eq!(
            sg.marking(state),
            ref_markings[state.index()],
            "{name}: state {state} maps to a different marking"
        );
        assert_eq!(
            sg.successors(state),
            ref_arcs[state.index()].as_slice(),
            "{name}: successor row of {state} diverges from nested-Vec order"
        );
    }
    // Predecessor rows: the historical order pushed arcs while scanning
    // successor rows in state order.
    let mut ref_preds: Vec<Vec<StateArc>> = vec![Vec::new(); ref_markings.len()];
    for (from, row) in ref_arcs.iter().enumerate() {
        for arc in row {
            ref_preds[arc.to.index()].push(StateArc {
                event: arc.event,
                to: StateId(from as u32),
            });
        }
    }
    for state in sg.states() {
        assert_eq!(
            sg.predecessors(state),
            ref_preds[state.index()].as_slice(),
            "{name}: predecessor row of {state} diverges"
        );
    }
}

#[test]
fn csr_matches_nested_vec_order_on_models() {
    for (name, stg) in [
        ("handshake", models::handshake_stg()),
        ("fifo", models::fifo_stg()),
        ("fifo_csc", models::fifo_stg_csc()),
        ("celement", models::celement_stg()),
        ("chain3", models::chain_stg(3)),
        ("chain6", models::chain_stg(6)),
        ("ring4_1", models::ring_stg(4, 1)),
        ("ring6_2", models::ring_stg(6, 2)),
        ("ring9_3", models::ring_stg(9, 3)),
    ] {
        assert_same_order(name, &stg);
    }
}

#[test]
fn csr_matches_nested_vec_order_on_corpus() {
    for (name, text) in corpus::all() {
        let stg = corpus::parse(text).expect("corpus entry parses");
        assert_same_order(name, &stg);
    }
}
