//! Where `derive_functions` puts its don't-cares: the codes no state has
//! are one cover per state graph (`SignalFunctions::unreachable`), true
//! on exactly those codes, and each signal's `set_dc`/`reset_dc` holds
//! reachable codes only — its quiescent region and the caller's local
//! don't-care states. Checked, up to 12 signals, on every
//! `corpus::sweep()` model with functions to derive and on the lazy
//! graph of every `flow_corpus` catalog spec under the RT, SI and
//! Figure-6 flows, with the flow's own early-enabling don't-cares.

use std::collections::BTreeSet;

use rt_cad::rt::lazy::lazy_dont_cares;
use rt_cad::rt::{RtAssumption, RtSynthesisFlow};
use rt_cad::stg::{corpus, explore, models, Edge, SignalKind, StateGraph, Stg};
use rt_cad::synth::regions::{derive_functions, LocalDontCares};

/// Checks the layout on `sg` under `local_dc`; returns the number of
/// unreachable codes, or `None` when the graph has no functions to
/// derive (CSC conflicts, no outputs) or more than 12 signals.
fn check(name: &str, sg: &StateGraph, local_dc: &LocalDontCares) -> Option<usize> {
    let vars = sg.signal_count();
    if vars > 12 {
        return None;
    }
    let funcs = derive_functions(sg, local_dc).ok()?;
    let reachable: BTreeSet<u64> = sg.states().map(|s| sg.code(s)).collect();
    for code in 0..1u64 << vars {
        let reached = reachable.contains(&code);
        assert_eq!(
            funcs.unreachable.evaluate(code),
            !reached,
            "{name}: the shared cover at {code:b}"
        );
        for spec in &funcs.specs {
            let own = spec.set_dc.evaluate(code) || spec.reset_dc.evaluate(code);
            assert!(
                reached || !own,
                "{name}: signal {} keeps unreachable code {code:b}",
                sg.signal_name(spec.signal)
            );
        }
    }
    Some((1 << vars) - reachable.len())
}

#[test]
fn sweep_models_hold_unreachable_codes_once() {
    let mut checked = Vec::new();
    for (name, stg) in corpus::sweep() {
        let sg = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        if check(&name, &sg, &LocalDontCares::none()).is_some() {
            checked.push(name);
        }
    }
    // The rings and the conflicted nets have no functions until a
    // state signal is inserted; the wide models are past 12 signals.
    assert_eq!(
        checked,
        [
            "handshake",
            "fifo_csc",
            "celement",
            "chain4",
            "chain6",
            "corpus:xyz",
            "corpus:arbiter2"
        ]
    );
}

#[test]
fn catalog_lazy_graphs_hold_unreachable_codes_once() {
    let mut specs: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
    ];
    for (name, text) in corpus::all() {
        specs.push((
            format!("corpus:{name}"),
            corpus::parse(text).expect("parses"),
        ));
    }
    for n in 3..=10 {
        specs.push((format!("chain{n}"), models::chain_stg(n)));
    }
    let (mut checked, mut unreachable) = (0, 0);
    for (name, stg) in &specs {
        let mut runs = vec![
            ("rt", Vec::new(), RtSynthesisFlow::new()),
            ("si", Vec::new(), RtSynthesisFlow::speed_independent()),
        ];
        if name.starts_with("fifo") {
            let s = |n: &str| stg.signal_by_name(n).expect("fifo signal");
            let user = vec![
                RtAssumption::user(s("ri"), Edge::Fall, s("li"), Edge::Rise),
                RtAssumption::user(s("li"), Edge::Fall, s("ri"), Edge::Fall),
            ];
            runs.push(("fig6", user, RtSynthesisFlow::new()));
        }
        for (variant, user, flow) in runs {
            let item = format!("{name} {variant}");
            let report = flow
                .run(stg, &user)
                .unwrap_or_else(|e| panic!("{item}: {e}"));
            let sg = &report.lazy_sg;
            let internal: Vec<_> = sg
                .signals()
                .filter(|&s| sg.signal_kind(s) == SignalKind::Internal)
                .collect();
            let (local_dc, _) = lazy_dont_cares(sg, &internal, flow.early_enable_depth);
            if let Some(codes) = check(&item, sg, &local_dc) {
                checked += 1;
                unreachable += codes;
            }
        }
    }
    assert_eq!(checked, 2 * specs.len() + 2, "every catalog graph checked");
    assert!(unreachable > 0, "some lazy graph leaves codes unreached");
}
