//! Path constraints (Section 5's "earliest common enabling signal") are
//! a function of their inputs: the search keeps causal ancestors in
//! breadth-first discovery order, so of two equally near common
//! ancestors the first discovered wins, never the first in hash order.
//!
//! Each flow netlist is asked for the path constraints of its own
//! back-annotated orderings, as the benchmark's oracle maps them
//! (`orderings_from_constraints` against the flow's lazy graph), many
//! times in one process; every answer must equal the first.

use rt_cad::rt::{RtAssumption, RtSynthesisFlow};
use rt_cad::stg::{corpus, models, Edge, Stg};
use rt_cad::verify::{margin_report, orderings_from_constraints, path_constraints};

/// Calls per netlist. Each call builds fresh hash maps, and each map
/// gets its own hash seed.
const CALLS: usize = 30;

/// The `flow_corpus` catalog (the paper models, the `.g` corpus and
/// `chain_stg(3..=10)`, each under RT except `corpus:vme_read`, and SI,
/// plus both FIFO models under the Figure-6 user assumptions), then
/// `ring_stg(4, 1)` under RT.
fn runs() -> Vec<(String, Stg, Vec<RtAssumption>, RtSynthesisFlow)> {
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
            runs.push((
                format!("{name} rt"),
                stg.clone(),
                Vec::new(),
                RtSynthesisFlow::new(),
            ));
        }
        if name == "fifo" || name == "fifo_csc" {
            let s = |n: &str| stg.signal_by_name(n).expect("fifo signal");
            let user = vec![
                RtAssumption::user(s("ri"), Edge::Fall, s("li"), Edge::Rise),
                RtAssumption::user(s("li"), Edge::Fall, s("ri"), Edge::Fall),
            ];
            runs.push((
                format!("{name} fig6"),
                stg.clone(),
                user,
                RtSynthesisFlow::new(),
            ));
        }
        let si = RtSynthesisFlow::speed_independent();
        runs.push((format!("{name} si"), stg, Vec::new(), si));
    }
    runs.push((
        "ring4_1 rt".into(),
        models::ring_stg(4, 1),
        Vec::new(),
        RtSynthesisFlow::new(),
    ));
    runs
}

#[test]
fn repeated_calls_agree_on_every_catalog_netlist() {
    let runs = runs();
    assert_eq!(runs.len(), 34, "the 33 catalog items and ring4_1");
    let mut constrained = 0;
    for (label, stg, user, flow) in &runs {
        let report = flow
            .run(stg, user)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let netlist = &report.synthesis.netlist;
        let orderings = orderings_from_constraints(netlist, &report.lazy_sg, &report.constraints);
        let first = path_constraints(netlist, stg, &orderings);
        let first_margins = margin_report(netlist, stg, &orderings);
        for call in 1..CALLS {
            assert_eq!(
                path_constraints(netlist, stg, &orderings),
                first,
                "{label}: call {call}"
            );
            assert_eq!(
                margin_report(netlist, stg, &orderings),
                first_margins,
                "{label}: margin report, call {call}"
            );
        }
        constrained += usize::from(!first.is_empty());
    }
    assert!(
        constrained > 0,
        "some catalog netlist has a path constraint"
    );
}
