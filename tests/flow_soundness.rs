//! Soundness verdicts of the Figure-2 flow. A flow netlist is sound
//! when it conforms to the flow's own lazy state graph under the
//! orderings of the flow's own back-annotated constraints: the
//! constraints are mapped to net orderings by
//! `orderings_from_constraints`, then `verify_against_sg` checks the
//! netlist, just as the benchmark's oracle checks every `flow_corpus`
//! op.
//!
//! Two lists are pinned. Every `flow_corpus` catalog item must conform,
//! as must the RT flows on `ring_stg(4, 1)` and `adder_rt_stg(4)`. The
//! known unsound flows must still fail: `corpus:vme_read` under RT,
//! `ring_stg(4, 2)` and `fabric_stg(2, 2, 0)` under RT and SI, and
//! `adder_rt_stg(5)` under SI. The mapper splits a multi-cube cover into
//! separate AND, OR and inverter gates, and the verifier gives each its
//! own delay, so a stale value can fire a gC. A mapping fix that makes
//! one of these conform must move it to the first list on purpose.
//!
//! Every run's whole verification report is pinned too: its failures,
//! with their pending transitions and witness traces, and the number of
//! composed states the walk explored, one line per run in
//! `flow_soundness_reports.txt`.

use rt_cad::netlist::{NetId, Netlist};
use rt_cad::rt::{RtAssumption, RtSynthesisFlow};
use rt_cad::stg::{corpus, models, Edge, Stg};
use rt_cad::verify::{orderings_from_constraints, verify_against_sg, Failure, VerifyReport};

/// One flow run: a label, the spec, the user assumptions and the flow.
type Run = (String, Stg, Vec<RtAssumption>, RtSynthesisFlow);

/// The recorded verification report of every run below, one
/// `label => report` line each, as [`render`] writes it.
const REPORTS: &str = include_str!("flow_soundness_reports.txt");

/// A report on one line, by net names: the composed-state count, then
/// each failure as `net± after [trace] with [pending others]`.
fn render(netlist: &Netlist, report: &VerifyReport) -> String {
    let edges = |edges: &[(NetId, bool)]| {
        let names: Vec<String> = edges
            .iter()
            .map(|&(net, value)| {
                format!("{}{}", netlist.net_name(net), if value { '+' } else { '-' })
            })
            .collect();
        names.join(" ")
    };
    let mut line = format!("{} states", report.states_explored);
    for failure in &report.failures {
        let Failure::UnexpectedOutput {
            net,
            value,
            pending_others,
            trace,
        } = failure;
        line += &format!(
            "; {} after [{}] with [{}]",
            edges(&[(*net, *value)]),
            edges(trace),
            edges(pending_others)
        );
    }
    line
}

/// Whether the flow's netlist for `run` conforms to its lazy graph
/// under the orderings of its own constraints. The whole report must
/// equal its recorded line.
fn conforms((label, stg, user, flow): &Run) -> bool {
    let report = flow
        .run(stg, user)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let netlist = &report.synthesis.netlist;
    let orderings = orderings_from_constraints(netlist, &report.lazy_sg, &report.constraints);
    let verification = verify_against_sg(netlist, &report.lazy_sg, &orderings);
    let recorded = REPORTS
        .lines()
        .find_map(|line| line.strip_prefix(label.as_str())?.strip_prefix(" => "));
    assert_eq!(
        Some(render(netlist, &verification).as_str()),
        recorded,
        "{label}: the verification report"
    );
    verification.passed()
}

fn rt(label: &str, stg: Stg) -> Run {
    let flow = RtSynthesisFlow::new();
    (format!("{label} rt"), stg, Vec::new(), flow)
}

fn si(label: &str, stg: Stg) -> Run {
    let flow = RtSynthesisFlow::speed_independent();
    (format!("{label} si"), stg, Vec::new(), flow)
}

/// The 33 `flow_corpus` items, built as `tests/flow_catalog.rs` builds
/// them: the paper models, the `.g` corpus and `chain_stg(3..=10)`,
/// each under RT (except `corpus:vme_read`) and SI, plus both FIFO
/// models under the Figure-6 user assumptions.
fn catalog() -> Vec<Run> {
    let mut specs: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
    ];
    for (name, text) in corpus::all() {
        let stg = corpus::parse(text).expect("corpus entry parses");
        specs.push((format!("corpus:{name}"), stg));
    }
    for n in 3..=10 {
        specs.push((format!("chain{n}"), models::chain_stg(n)));
    }
    let mut runs = Vec::new();
    for (name, stg) in specs {
        if name != "corpus:vme_read" {
            runs.push(rt(&name, stg.clone()));
        }
        if name == "fifo" || name == "fifo_csc" {
            let s = |n: &str| stg.signal_by_name(n).expect("fifo signal");
            let user = vec![
                RtAssumption::user(s("ri"), Edge::Fall, s("li"), Edge::Rise),
                RtAssumption::user(s("li"), Edge::Fall, s("ri"), Edge::Fall),
            ];
            let flow = RtSynthesisFlow::new();
            runs.push((format!("{name} fig6"), stg.clone(), user, flow));
        }
        runs.push(si(&name, stg));
    }
    runs
}

#[test]
fn catalog_and_known_good_netlists_conform() {
    let mut runs = catalog();
    assert_eq!(runs.len(), 33, "the flow_corpus catalog");
    runs.push(rt("ring4_1", models::ring_stg(4, 1)));
    runs.push(rt("adder4", corpus::adder_rt_stg(4)));
    let unsound: Vec<&str> = runs
        .iter()
        .filter(|run| !conforms(run))
        .map(|(label, ..)| label.as_str())
        .collect();
    assert!(
        unsound.is_empty(),
        "netlists that fail verification: {unsound:?}"
    );
}

#[test]
fn known_unsound_netlists_still_fail_verification() {
    let vme_read = corpus::parse(corpus::VME_READ_G).expect("vme_read parses");
    let runs = [
        rt("corpus:vme_read", vme_read),
        rt("ring4_2", models::ring_stg(4, 2)),
        si("ring4_2", models::ring_stg(4, 2)),
        rt("fabric2x2", corpus::fabric_stg(2, 2, 0)),
        si("fabric2x2", corpus::fabric_stg(2, 2, 0)),
        si("adder5", corpus::adder_rt_stg(5)),
    ];
    let sound: Vec<&str> = runs
        .iter()
        .filter(|run| conforms(run))
        .map(|(label, ..)| label.as_str())
        .collect();
    assert!(
        sound.is_empty(),
        "now conform; move them to the conforming list: {sound:?}"
    );
}
