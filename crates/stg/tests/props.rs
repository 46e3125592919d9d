//! Property-based tests for the STG substrate: reachability invariants
//! on randomly generated live specifications, `.g` round-trips, and
//! state-code bookkeeping.

use proptest::prelude::*;
use rt_stg::{corpus, explore, models, parse, Edge, SignalKind, Stg, StgError};

/// Builds a random "token ring" STG: `n` signals, each signal's rise and
/// fall chained around a cycle (always live, safe and consistent).
fn random_ring(n: usize, marked_at: usize) -> Stg {
    let mut stg = Stg::new(format!("ring{n}"));
    let signals: Vec<_> = (0..n)
        .map(|i| {
            let kind = if i == 0 {
                SignalKind::Input
            } else {
                SignalKind::Output
            };
            stg.add_signal(format!("s{i}"), kind).expect("fresh")
        })
        .collect();
    let mut transitions = Vec::new();
    for &s in &signals {
        transitions.push(stg.transition_for(s, Edge::Rise));
    }
    for &s in &signals {
        transitions.push(stg.transition_for(s, Edge::Fall));
    }
    for i in 0..transitions.len() {
        let from = transitions[i];
        let to = transitions[(i + 1) % transitions.len()];
        if i == marked_at {
            stg.marked_arc(from, to);
        } else {
            stg.arc(from, to);
        }
    }
    stg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_reachability_is_linear_and_connected(
        n in 2usize..7,
        marked in 0usize..4,
    ) {
        let marked = marked % (2 * n);
        let stg = random_ring(n, marked);
        let sg = explore(&stg).expect("rings are live and consistent");
        // A single token around a 2n-transition ring: exactly 2n states.
        prop_assert_eq!(sg.state_count(), 2 * n);
        prop_assert!(sg.is_strongly_connected());
        prop_assert!(sg.deadlock_states().is_empty());
    }

    #[test]
    fn successor_codes_differ_in_exactly_the_fired_bit(
        n in 2usize..6,
    ) {
        let stg = random_ring(n, 0);
        let sg = explore(&stg).expect("explores");
        for state in sg.states() {
            for arc in sg.successors(state) {
                let diff = sg.code(state) ^ sg.code(arc.to);
                match arc.event {
                    Some(ev) => {
                        prop_assert_eq!(diff, 1 << ev.signal.index());
                        prop_assert_eq!(
                            sg.signal_value(arc.to, ev.signal),
                            ev.edge.target_value()
                        );
                    }
                    None => prop_assert_eq!(diff, 0),
                }
            }
        }
    }

    #[test]
    fn g_roundtrip_preserves_state_space(n in 2usize..6, marked in 0usize..4) {
        let marked = marked % (2 * n);
        let stg = random_ring(n, marked);
        let text = parse::write_g(&stg);
        let parsed = parse_g_ok(&text);
        let a = explore(&stg).expect("original explores");
        let b = explore(&parsed).expect("round trip explores");
        prop_assert_eq!(a.state_count(), b.state_count());
        prop_assert_eq!(a.arc_count(), b.arc_count());
        prop_assert_eq!(ByNames::of(&parsed), ByNames::of(&stg), "{}", text);
    }

    #[test]
    fn excitation_partitions_every_state(n in 2usize..6) {
        let stg = random_ring(n, 1);
        let sg = explore(&stg).expect("explores");
        for state in sg.states() {
            for signal in sg.signals() {
                // implied_value is total and consistent with excitation.
                let implied = sg.implied_value(state, signal);
                match sg.excitation(state, signal) {
                    Some(Edge::Rise) => prop_assert!(implied),
                    Some(Edge::Fall) => prop_assert!(!implied),
                    None => prop_assert_eq!(implied, sg.signal_value(state, signal)),
                }
            }
        }
    }
}

fn parse_g_ok(text: &str) -> Stg {
    parse::parse_g(text).expect("writer output parses")
}

/// What a `.g` text says about an STG, by name: place and transition
/// ids may differ after a round trip, because the parser numbers both
/// by first appearance in the arc list.
#[derive(Debug, PartialEq, Eq)]
struct ByNames {
    /// Name, kind and forced initial value, in declaration order.
    signals: Vec<(String, SignalKind, Option<bool>)>,
    /// Name and event (`None` for a dummy), sorted.
    transitions: Vec<(String, Option<String>)>,
    /// `(source, target, weight)` by node name, sorted.
    arcs: Vec<(String, String, u16)>,
    /// Marked places by name, with their tokens, sorted.
    marking: Vec<(String, u16)>,
}

impl ByNames {
    fn of(stg: &Stg) -> Self {
        let net = stg.net();
        let signals = stg
            .signals()
            .map(|s| {
                let name = stg.signal_name(s).to_string();
                (name, stg.signal_kind(s), stg.initial_value(s))
            })
            .collect();
        let mut transitions = Vec::new();
        let mut arcs = Vec::new();
        for t in net.transitions() {
            let name = net.transition_name(t).to_string();
            let event = stg.label(t).event().map(|e| stg.event_name(e));
            transitions.push((name.clone(), event));
            for arc in net.preset(t) {
                let place = net.place_name(arc.place).to_string();
                arcs.push((place, name.clone(), arc.weight));
            }
            for arc in net.postset(t) {
                let place = net.place_name(arc.place).to_string();
                arcs.push((name.clone(), place, arc.weight));
            }
        }
        let mut marking: Vec<_> = stg
            .initial_marking()
            .marked_places()
            .map(|(p, tokens)| (net.place_name(p).to_string(), tokens))
            .collect();
        transitions.sort();
        arcs.sort();
        marking.sort();
        ByNames {
            signals,
            transitions,
            arcs,
            marking,
        }
    }
}

#[test]
fn g_roundtrip_preserves_every_sweep_model_by_names() {
    let sweep = corpus::sweep();
    assert_eq!(sweep.len(), 16);
    for (name, stg) in sweep {
        let text = parse::write_g(&stg);
        let parsed = parse::parse_g(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(ByNames::of(&parsed), ByNames::of(&stg), "{name}");
    }
}

/// splitmix64: a seeded stream for the parser's mutation inputs.
fn next_random(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn the_parser_answers_truncated_and_mutated_text_without_panicking() {
    // Every input gives `Ok` or a typed error; a panic fails the test
    // with the input that caused it.
    let check = |text: &str| {
        let outcome = std::panic::catch_unwind(|| parse::parse_g(text));
        let answer: Result<Result<Stg, StgError>, _> = outcome;
        assert!(answer.is_ok(), "parse_g panicked on:\n{text}");
    };
    // Bytes that matter to the grammar, plus a few that do not.
    const ALPHABET: &[u8] = b".+-/<>{}=#, \n\tabxz019";
    let mut state = 0x000d_ac99_u64;
    let mut inputs = 0;
    for (_, text) in corpus::all() {
        assert!(text.is_ascii());
        for end in 0..=text.len() {
            check(&text[..end]);
            inputs += 1;
        }
        for _ in 0..1_000 {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..1 + next_random(&mut state) % 4 {
                let at = (next_random(&mut state) % (bytes.len() as u64 + 1)) as usize;
                let byte = ALPHABET[(next_random(&mut state) % ALPHABET.len() as u64) as usize];
                match next_random(&mut state) % 3 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            check(std::str::from_utf8(&bytes).expect("ASCII edits"));
            inputs += 1;
        }
    }
    assert!(inputs > 4_000, "{inputs} inputs");
}

#[test]
fn paper_models_explore_deterministically() {
    // Not random, but worth pinning: repeated exploration is stable.
    for _ in 0..3 {
        let a = explore(&models::fifo_stg()).expect("explores");
        let b = explore(&models::fifo_stg()).expect("explores");
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.arc_count(), b.arc_count());
    }
}
