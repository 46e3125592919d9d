//! `resolve_csc_with`'s whole answer on nets past the catalog's sizes:
//! the relative-timed ripple-carry adder and the 2×2 fabric, where the
//! codes no state reaches outnumber the reachable ones and dominate the
//! don't-care every candidate is scored against. Each pin holds the
//! encoding's cost, the inserted signals, the resolved graph's state
//! count and the literal count of its synthesized circuit, at
//! `max_signals: 3` and no critical-path penalty.

use rt_stg::{corpus, Stg};
use rt_synth::csc::{resolve_csc_with, CscOptions};
use rt_synth::synthesize;

fn assert_resolves_as_pinned(
    stg: &Stg,
    cost: usize,
    inserted: &[&str],
    states: usize,
    literals: usize,
) {
    let options = CscOptions {
        max_signals: 3,
        critical_path_penalty: 0,
        ..CscOptions::default()
    };
    let resolution = resolve_csc_with(stg, &options).expect("resolves");
    let sg = resolution
        .sg
        .as_ref()
        .expect("every resolution carries its graph");
    assert!(!resolution.truncated);
    assert_eq!(resolution.cost, cost, "cost");
    assert_eq!(resolution.inserted, inserted, "inserted signals");
    assert_eq!(sg.state_count(), states, "states");
    let circuit = synthesize(sg, stg.name()).expect("synthesizes");
    assert_eq!(circuit.literal_count, literals, "literals");
}

#[test]
fn the_four_bit_adder_resolves_as_pinned() {
    assert_resolves_as_pinned(&corpus::adder_rt_stg(4), 46, &["csc0", "csc1"], 20, 28);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds in a release build, minutes in a debug build: run in release"
)]
fn the_two_by_two_fabric_resolves_as_pinned() {
    assert_resolves_as_pinned(
        &corpus::fabric_stg(2, 2, 0),
        74,
        &["csc0", "csc1", "csc2"],
        82,
        52,
    );
}
