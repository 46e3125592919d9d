//! Acceptance regression: explicit (packed/interned BFS) and symbolic
//! (BDD image computation) reachability must agree on the number of
//! reachable markings for every specification shipped in
//! [`rt_stg::models`] and the `.g` corpus.

use rt_stg::engine::ReachEngine;
use rt_stg::symbolic::csc::csc_conflicts_symbolic;
use rt_stg::symbolic::reach_symbolic;
use rt_stg::{corpus, explore, models, Edge, SignalKind, Stg};

fn assert_agreement(name: &str, stg: &Stg) {
    let explicit = explore(stg).unwrap_or_else(|e| panic!("{name}: explicit: {e}"));
    let symbolic = reach_symbolic(stg).unwrap_or_else(|e| panic!("{name}: symbolic: {e}"));
    assert_eq!(
        symbolic.markings,
        explicit.state_count() as u64,
        "{name}: symbolic and explicit reachable-marking counts diverge"
    );
}

#[test]
fn explicit_and_symbolic_agree_on_every_model() {
    let mut specs: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
    ];
    for n in 2..7 {
        specs.push((format!("chain{n}"), models::chain_stg(n)));
    }
    for (n, tokens) in [(3, 1), (4, 1), (5, 2), (6, 2), (8, 2), (9, 3), (10, 3)] {
        specs.push((format!("ring{n}_{tokens}"), models::ring_stg(n, tokens)));
    }
    for (name, stg) in &specs {
        assert_agreement(name, stg);
    }
}

#[test]
fn explicit_and_symbolic_agree_on_corpus() {
    for (name, text) in corpus::all() {
        let stg = corpus::parse(text).expect("corpus entry parses");
        assert_agreement(name, &stg);
    }
}

#[test]
fn explicit_and_symbolic_agree_on_wide_models() {
    // The > 64-place generated models: packed markings run W2 and
    // beyond, the BDD manager runs past 64 variables.
    for (name, stg) in corpus::wide() {
        assert!(stg.net().place_count() > 64, "{name}");
        assert_agreement(&name, &stg);
    }
}

#[test]
fn engine_backends_agree_on_models_and_wide_corpus() {
    // The same sweep through the ReachEngine facade: one explicit and
    // one symbolic engine (single persistent manager) across all
    // models, on both set-level queries.
    let mut explicit = ReachEngine::explicit();
    let mut symbolic = ReachEngine::symbolic();
    let mut specs: Vec<(String, Stg)> = vec![
        ("fifo".into(), models::fifo_stg()),
        ("celement".into(), models::celement_stg()),
        ("ring6_2".into(), models::ring_stg(6, 2)),
        ("fork70".into(), fork_net(70)),
        ("silent_ring6_2".into(), silent_ring(6, 2)),
    ];
    specs.extend(corpus::wide());
    let mut csc_checks = 0;
    for (name, stg) in &specs {
        let e = explicit
            .summary(stg)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        let s = symbolic
            .summary(stg)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(e.markings, s.markings, "{name}: backends diverge");
        assert_eq!(e.iterations, s.iterations, "{name}: BFS layers diverge");
        let sg = explore(stg).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(e.markings, sg.state_count() as u64, "{name}");

        // fabric4x4's pair space is seconds of work even in release.
        if name == "fabric4x4" {
            continue;
        }
        let oracle = csc_conflicts_symbolic(stg).unwrap_or_else(|err| panic!("{name}: {err}"));
        for engine in [&mut explicit, &mut symbolic] {
            let check = engine
                .csc_check(stg)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            assert_eq!(
                (
                    check.markings,
                    check.conflicts,
                    check.deadlock_free,
                    check.strongly_connected
                ),
                (
                    oracle.markings,
                    oracle.conflicts,
                    oracle.deadlock_free,
                    oracle.strongly_connected
                ),
                "{name}: {:?} CSC check",
                engine.backend()
            );
        }
        csc_checks += 1;
    }
    assert!(
        explicit.manager().is_none(),
        "every explicit answer came from the walk"
    );
    assert_eq!(
        symbolic.stats().manager_reuses,
        specs.len() + csc_checks - 1,
        "every symbolic call after the first reused the one manager"
    );
}

/// `ring_stg(n, tokens)` with a silent buffer between each stage's rise
/// and fall: the same handshakes, one BFS layer deeper per stage.
fn silent_ring(n: usize, tokens: usize) -> Stg {
    let mut stg = Stg::new(format!("silent_ring{n}_{tokens}"));
    let stages: Vec<_> = (0..n)
        .map(|i| {
            let signal = stg
                .add_signal(format!("r{i}"), SignalKind::Internal)
                .expect("fresh signal");
            let rise = stg.transition_for(signal, Edge::Rise);
            let fall = stg.transition_for(signal, Edge::Fall);
            let buffer = stg.silent(format!("buf{i}"));
            stg.arc(rise, buffer);
            stg.arc(buffer, fall);
            (rise, fall)
        })
        .collect();
    for i in 0..n {
        let (rise, fall) = stages[i];
        let (next_rise, next_fall) = stages[(i + 1) % n];
        if i < tokens {
            stg.marked_arc(fall, next_rise);
            stg.arc(next_fall, rise);
        } else {
            stg.arc(fall, next_rise);
            stg.marked_arc(next_fall, rise);
        }
    }
    stg
}

/// `a+` forks into `width` places, a silent join collects them and
/// `a-` closes the cycle: `width + 2` places, 3 reachable markings and
/// one CSC conflict (the fork and join states share `a = 1`, and only
/// the join state enables `a-`).
fn fork_net(width: usize) -> Stg {
    let mut stg = Stg::new(format!("fork{width}"));
    let a = stg
        .add_signal("a", SignalKind::Output)
        .expect("fresh signal");
    let rise = stg.transition_for(a, Edge::Rise);
    let fall = stg.transition_for(a, Edge::Fall);
    let join = stg.silent("join");
    for i in 0..width {
        let place = stg.add_place(format!("p{i}"));
        stg.arc_to_place(rise, place);
        stg.arc_from_place(place, join);
    }
    stg.arc(join, fall);
    stg.marked_arc(fall, rise);
    stg
}

#[test]
fn fork_net_counts_stay_exact_on_wide_variable_universes() {
    // 512 places put the CSC pair space (2·places + signals variables)
    // past 2^1024; 1,102 places put a 3-marking set below 2^-1074 of
    // its universe. Counts must stay exact past both.
    for width in [510, 1100] {
        let stg = fork_net(width);
        let name = stg.name().to_string();
        let sg = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sg.state_count(), 3, "{name}");
        for mut engine in [ReachEngine::explicit(), ReachEngine::symbolic()] {
            let summary = engine
                .summary(&stg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                summary.markings,
                sg.state_count() as u64,
                "{name}: {:?} summary",
                engine.backend()
            );
        }
        let analysis = csc_conflicts_symbolic(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(analysis.markings, sg.state_count() as u64, "{name}");
        assert_eq!(
            analysis.conflicts,
            sg.csc_conflicts().len() as u64,
            "{name}: conflicts"
        );
        assert_eq!(
            analysis.deadlock_free,
            sg.deadlock_states().is_empty(),
            "{name}"
        );
        assert_eq!(
            analysis.strongly_connected,
            sg.is_strongly_connected(),
            "{name}"
        );
    }
}

/// Fresh-manager node counts under the default variable order, reach
/// and CSC, for every sweep model. Node numbering is deterministic, so
/// any change to hash-consing, the variable layout or the image
/// operators that moves a count shows up here exactly.
#[test]
fn fresh_manager_node_counts_are_pinned() {
    const REACH: [(&str, usize); 16] = [
        ("handshake", 35),
        ("fifo", 301),
        ("fifo_csc", 422),
        ("celement", 124),
        ("chain4", 182),
        ("chain6", 340),
        ("ring6_2", 1_100),
        ("ring8_2", 2_606),
        ("ring10_3", 13_645),
        ("ring12_3", 26_956),
        ("corpus:vme_read", 242),
        ("corpus:xyz", 72),
        ("corpus:arbiter2", 174),
        ("corpus:pipeline_stage", 259),
        ("wide:adder16_rt", 7_936),
        ("wide:fabric4x4", 203_498),
    ];
    // fabric4x4's pair space is seconds of work even in release.
    const CSC: [(&str, usize); 15] = [
        ("handshake", 143),
        ("fifo", 1_004),
        ("fifo_csc", 1_298),
        ("celement", 429),
        ("chain4", 719),
        ("chain6", 1_308),
        ("ring6_2", 5_007),
        ("ring8_2", 10_997),
        ("ring10_3", 50_838),
        ("ring12_3", 94_902),
        ("corpus:vme_read", 956),
        ("corpus:xyz", 292),
        ("corpus:arbiter2", 635),
        ("corpus:pipeline_stage", 842),
        ("wide:adder16_rt", 30_525),
    ];
    let sweep = corpus::sweep();
    assert_eq!(sweep.len(), REACH.len(), "every sweep model is pinned");
    for (name, stg) in &sweep {
        let reach = reach_symbolic(stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expected = REACH.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert_eq!(Some(reach.bdd_nodes), expected, "{name}: reach nodes");
        let Some(&(_, expected)) = CSC.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let csc = csc_conflicts_symbolic(stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(csc.bdd_nodes, expected, "{name}: CSC nodes");
    }
}
