//! The spliced walk against the rebuild it replaces: for every
//! candidate either CSC encoding search generates (each ordered pair of
//! simple places with both token placements, and each ordered pair of
//! transitions), `ReachEngine::spliced_state_graph` on the base net's
//! graph must equal `ReachEngine::state_graph` on the rebuilt STG in
//! state order, codes, arcs and markings, or both must fail with the
//! same `StgError` variant.
//!
//! The nets: the `flow_corpus` catalog specs, the `corpus::sweep()`
//! models, `ring_stg(4, 1)`, `ring_stg(4, 2)`, `adder_rt_stg(4)`,
//! `fabric_stg(2, 2, 0)`, the FIFO with a forced-high input that never
//! fires and a net with repeated labels, plus each one's first-round
//! winner of both searches.
//! The walk and the rebuild both run under the engine's default budget.
//! A debug build checks the nets with at most 16 places; `cargo test
//! --release --test splice_pin` checks them all.

use std::mem::discriminant;

use rt_cad::stg::engine::ReachEngine;
use rt_cad::stg::splice::{candidates, fresh_signal_name};
use rt_cad::stg::{corpus, models, Edge, SignalKind, Splice, StateGraph, Stg, StgError};
use rt_cad::synth::csc::{resolve_csc_with, CscOptions};

/// The FIFO plus an input `en` that never fires, forced high.
fn forced_en_fifo() -> Stg {
    let mut stg = models::fifo_stg();
    let en = stg.add_signal("en", SignalKind::Input).expect("fresh");
    stg.set_initial_value(en, true);
    stg
}

/// A handshake whose `b+` is a free choice between two transitions,
/// with two silent transitions between `a-` and `b-`: arcs of the base
/// graph whose label several transitions carry.
fn repeated_labels() -> Stg {
    let mut stg = Stg::new("repeated_labels");
    let a = stg.add_signal("a", SignalKind::Input).expect("fresh");
    let b = stg.add_signal("b", SignalKind::Output).expect("fresh");
    let a_plus = stg.transition_for(a, Edge::Rise);
    let b_plus = [
        stg.transition_for(b, Edge::Rise),
        stg.transition_for(b, Edge::Rise),
    ];
    let a_minus = stg.transition_for(a, Edge::Fall);
    let quiet = [stg.silent("e1"), stg.silent("e2")];
    let b_minus = stg.transition_for(b, Edge::Fall);
    let (choice, merge) = (stg.add_place("choice"), stg.add_place("merge"));
    stg.arc_to_place(a_plus, choice);
    for t in b_plus {
        stg.arc_from_place(choice, t);
        stg.arc_to_place(t, merge);
    }
    stg.arc_from_place(merge, a_minus);
    stg.arc(a_minus, quiet[0]);
    stg.arc(quiet[0], quiet[1]);
    stg.arc(quiet[1], b_minus);
    stg.marked_arc(b_minus, a_plus);
    stg
}

/// Every net the pin starts from, deduplicated by name.
fn nets() -> Vec<(String, Stg)> {
    let mut nets: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
    ];
    for (name, text) in corpus::all() {
        nets.push((
            format!("corpus:{name}"),
            corpus::parse(text).expect("parses"),
        ));
    }
    for n in 3..=10 {
        nets.push((format!("chain{n}"), models::chain_stg(n)));
    }
    nets.extend(corpus::sweep());
    nets.push(("ring4_1".into(), models::ring_stg(4, 1)));
    nets.push(("ring4_2".into(), models::ring_stg(4, 2)));
    nets.push(("adder4_rt".into(), corpus::adder_rt_stg(4)));
    nets.push(("fabric2x2".into(), corpus::fabric_stg(2, 2, 0)));
    nets.push(("fifo+en".into(), forced_en_fifo()));
    nets.push(("repeated_labels".into(), repeated_labels()));
    let mut seen = std::collections::HashSet::new();
    nets.retain(|(name, _)| seen.insert(name.clone()));
    nets
}

/// Full structural equality of two state graphs.
fn assert_same_graph(what: &str, got: &StateGraph, want: &StateGraph) {
    assert_eq!(got.state_count(), want.state_count(), "{what}: states");
    assert_eq!(got.arc_count(), want.arc_count(), "{what}: arcs");
    assert_eq!(got.initial(), want.initial(), "{what}: initial state");
    assert_eq!(
        got.marking_layout(),
        want.marking_layout(),
        "{what}: layout"
    );
    assert_eq!(got.signal_count(), want.signal_count(), "{what}: signals");
    for s in want.signals() {
        assert_eq!(got.signal_name(s), want.signal_name(s), "{what}: name");
        assert_eq!(got.signal_kind(s), want.signal_kind(s), "{what}: kind");
    }
    for s in want.states() {
        assert_eq!(got.code(s), want.code(s), "{what}: code of {s}");
        assert_eq!(got.successors(s), want.successors(s), "{what}: arcs of {s}");
        assert_eq!(
            got.packed_marking(s),
            want.packed_marking(s),
            "{what}: marking of {s}"
        );
    }
}

/// Checks every candidate of `stg`; returns how many candidates
/// explored and how many failed.
fn check_net(name: &str, stg: &Stg) -> (usize, usize) {
    let mut engine = ReachEngine::explicit();
    let base = engine
        .state_graph(stg)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    // The next round's name, as `resolve_csc` picks it.
    let x = fresh_signal_name(stg, "csc");
    let (mut explored, mut failed) = (0, 0);
    for splice in candidates(stg) {
        let what = format!("{name} {splice:?}");
        let spliced = engine.spliced_state_graph(&base, stg, &x, splice);
        let rebuilt = engine.state_graph(&splice.insert(stg, &x));
        match (spliced, rebuilt) {
            (Ok(got), Ok(want)) => {
                assert_same_graph(&what, &got, &want);
                explored += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(
                    discriminant(&got),
                    discriminant(&want),
                    "{what}: {got} vs {want}"
                );
                if let (
                    StgError::Inconsistent { signal: a, .. },
                    StgError::Inconsistent { signal: b, .. },
                ) = (&got, &want)
                {
                    assert_eq!(a, b, "{what}: inconsistent signal");
                }
                failed += 1;
            }
            (got, want) => panic!(
                "{what}: spliced {:?} vs rebuilt {:?}",
                got.map(|sg| sg.state_count()),
                want.map(|sg| sg.state_count())
            ),
        }
    }
    (explored, failed)
}

/// The nets each search's first round moves to: `resolve_csc`'s
/// first-round winner (its one-signal resolution, or the full default
/// resolution when one signal does not resolve the net), and the SI
/// flow's (its first insertion, ranked on the rebuilt graphs as the
/// flow ranks them: live, fewer conflicts, then fewer states).
fn winners(name: &str, stg: &Stg) -> Vec<(String, Stg)> {
    let mut out = Vec::new();
    let base = ReachEngine::explicit().state_graph(stg).expect("explores");
    let conflicts = base.csc_conflict_count();
    if conflicts == 0 || stg.signal_count() > 16 {
        return out;
    }
    let one = CscOptions {
        max_signals: 1,
        ..CscOptions::default()
    };
    if let Ok(res) =
        resolve_csc_with(stg, &one).or_else(|_| resolve_csc_with(stg, &CscOptions::default()))
    {
        out.push((format!("{name} resolve_csc winner"), res.stg));
    }
    let mut best: Option<(usize, Stg)> = None;
    for splice in candidates(stg) {
        let Splice::Places {
            token_after: false, ..
        } = splice
        else {
            continue;
        };
        let candidate = splice.insert(stg, "x0");
        let Ok(sg) = ReachEngine::explicit().state_graph(&candidate) else {
            continue;
        };
        let after = sg.csc_conflict_count();
        if !sg.deadlock_states().is_empty() || !sg.is_strongly_connected() || after >= conflicts {
            continue;
        }
        let cost = after * 1_000 + sg.state_count();
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, candidate));
        }
    }
    if let Some((_, winner)) = best {
        out.push((format!("{name} SI flow winner"), winner));
    }
    out
}

#[test]
fn spliced_graphs_equal_the_rebuilt_nets_graphs() {
    let (mut explored, mut failed, mut nets_checked) = (0, 0, 0);
    for (name, stg) in nets() {
        if cfg!(debug_assertions) && stg.net().place_count() > 16 {
            continue;
        }
        let mut family = vec![(name.clone(), stg.clone())];
        family.extend(winners(&name, &stg));
        for (member, net) in &family {
            let (e, f) = check_net(member, net);
            explored += e;
            failed += f;
            nets_checked += 1;
        }
    }
    eprintln!("{nets_checked} nets: {explored} candidate graphs equal, {failed} matching failures");
    assert!(nets_checked >= 20, "only {nets_checked} nets checked");
    assert!(
        explored >= 1_000 && failed >= 1_000,
        "{explored} / {failed}"
    );
}
