//! The Figure-2 flow's answers over the `flow_corpus` benchmark
//! catalog: every spec and variant the benchmark runs (RT with
//! automatic assumptions, the SI baseline, and both FIFO models under
//! the Figure-6 user assumptions). Each item's inserted state signals,
//! lazy-state count, literal count, transistor count and back-annotated
//! constraints are pinned, so a change to the state-encoding search, or
//! to how it scores candidates, that moves any answer shows up here.

use rt_cad::rt::{RtAssumption, RtSynthesisFlow};
use rt_cad::stg::{corpus, models, Edge, Stg};

/// One item's expected answer: spec, variant, inserted signals, lazy
/// states, literals, transistors, and the back-annotated constraints as
/// `RtAssumption::describe` renders them on the lazy graph.
type Pin = (
    &'static str,
    &'static str,
    &'static [&'static str],
    usize,
    usize,
    usize,
    &'static [&'static str],
);

#[rustfmt::skip]
const PINS: [Pin; 33] = [
    ("handshake", "rt", &[], 4, 2, 10, &[]),
    ("handshake", "si", &[], 4, 2, 10, &[]),
    ("fifo", "rt", &["x0"], 22, 10, 42, &["li+ before x0+ [early-enable]", "ro+ before x0- [early-enable]"]),
    ("fifo", "fig6", &[], 12, 6, 26, &["ri- before li+ [user-defined]", "li- before ri- [user-defined]", "lo- before ri- [automatic]", "ro+ before li- [automatic]"]),
    ("fifo", "si", &["x0"], 22, 11, 44, &[]),
    ("fifo_csc", "rt", &[], 22, 10, 42, &["li+ before x+ [early-enable]", "ro+ before x- [early-enable]"]),
    ("fifo_csc", "fig6", &[], 14, 9, 36, &["ri- before li+ [user-defined]", "li- before ri- [user-defined]", "lo- before ri- [automatic]", "ro+ before li- [automatic]", "x- before li- [automatic]", "li+ before x+ [early-enable]", "ro+ before x- [early-enable]"]),
    ("fifo_csc", "si", &[], 22, 11, 44, &[]),
    ("celement", "rt", &[], 8, 4, 16, &[]),
    ("celement", "si", &[], 8, 4, 16, &[]),
    ("corpus:vme_read", "si", &["x0"], 16, 14, 52, &[]),
    ("corpus:xyz", "rt", &[], 6, 4, 20, &[]),
    ("corpus:xyz", "si", &[], 6, 4, 20, &[]),
    ("corpus:arbiter2", "rt", &[], 12, 6, 28, &[]),
    ("corpus:arbiter2", "si", &[], 12, 6, 28, &[]),
    ("corpus:pipeline_stage", "rt", &["x0"], 20, 10, 42, &["rin+ before x0+ [early-enable]", "rout+ before x0- [early-enable]"]),
    ("corpus:pipeline_stage", "si", &["x0"], 20, 11, 44, &[]),
    ("chain3", "rt", &[], 8, 6, 30, &[]),
    ("chain3", "si", &[], 8, 6, 30, &[]),
    ("chain4", "rt", &[], 10, 8, 40, &[]),
    ("chain4", "si", &[], 10, 8, 40, &[]),
    ("chain5", "rt", &[], 12, 10, 50, &[]),
    ("chain5", "si", &[], 12, 10, 50, &[]),
    ("chain6", "rt", &[], 14, 12, 60, &[]),
    ("chain6", "si", &[], 14, 12, 60, &[]),
    ("chain7", "rt", &[], 16, 14, 70, &[]),
    ("chain7", "si", &[], 16, 14, 70, &[]),
    ("chain8", "rt", &[], 18, 16, 80, &[]),
    ("chain8", "si", &[], 18, 16, 80, &[]),
    ("chain9", "rt", &[], 20, 18, 90, &[]),
    ("chain9", "si", &[], 20, 18, 90, &[]),
    ("chain10", "rt", &[], 22, 20, 100, &[]),
    ("chain10", "si", &[], 22, 20, 100, &[]),
];

/// One catalog item: name, variant, spec, user assumptions, flow.
type Item = (
    String,
    &'static str,
    Stg,
    Vec<RtAssumption>,
    RtSynthesisFlow,
);

/// The catalog, in the benchmark's order: the paper models, the `.g`
/// corpus and `chain_stg(3..=10)`, each under RT (except
/// `corpus:vme_read`, whose RT netlist fails verification) and SI,
/// plus both FIFO models under the Figure-6 user assumptions.
fn catalog() -> Vec<Item> {
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
    let mut items = Vec::new();
    for (name, stg) in specs {
        if name != "corpus:vme_read" {
            items.push((
                name.clone(),
                "rt",
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
            items.push((
                name.clone(),
                "fig6",
                stg.clone(),
                user,
                RtSynthesisFlow::new(),
            ));
        }
        let si = RtSynthesisFlow::speed_independent();
        items.push((name, "si", stg, Vec::new(), si));
    }
    items
}

/// Runs `flow` on `stg` under `user` and checks the answer against
/// `pin`; returns the netlist's transistor count.
fn assert_pinned(stg: &Stg, user: &[RtAssumption], flow: &RtSynthesisFlow, pin: &Pin) -> usize {
    let item = format!("{} {}", pin.0, pin.1);
    let report = flow
        .run(stg, user)
        .unwrap_or_else(|e| panic!("{item}: {e}"));
    let constraints: Vec<String> = report
        .constraints
        .iter()
        .map(|c| c.assumption.describe(&report.lazy_sg))
        .collect();
    let transistors = report.synthesis.netlist.transistor_count();
    assert_eq!(report.inserted_signals, pin.2, "{item}: inserted signals");
    assert_eq!(report.lazy_states, pin.3, "{item}: lazy states");
    assert_eq!(report.synthesis.literal_count, pin.4, "{item}: literals");
    assert_eq!(transistors, pin.5, "{item}: transistors");
    assert_eq!(constraints, pin.6, "{item}: constraints");
    transistors
}

#[test]
fn the_flow_answers_every_catalog_item_as_pinned() {
    let catalog = catalog();
    assert_eq!(catalog.len(), PINS.len(), "one pin per catalog item");
    let mut transistors_total = 0;
    for ((name, variant, stg, user, flow), pin) in catalog.iter().zip(&PINS) {
        assert_eq!((name.as_str(), *variant), (pin.0, pin.1), "catalog order");
        transistors_total += assert_pinned(stg, user, flow, pin);
    }
    assert_eq!(transistors_total, 1560, "the catalog's transistor total");
}

/// The catalog leaves two paths of the encoding search unpinned:
/// ranking candidates on graphs the assumptions actually prune, and a
/// second round. These flows take them: the FIFO under one ring
/// assumption each, and the SI flow on `ring_stg(4, 2)`, which inserts
/// three signals.
#[rustfmt::skip]
const SEARCH_PINS: [Pin; 3] = [
    ("fifo", "ring", &["x0"], 17, 9, 38, &["ri- before li+ [user-defined]", "ro+ before li- [automatic]", "li+ before x0+ [early-enable]", "ro+ before x0- [early-enable]"]),
    ("fifo", "ring2", &["x0"], 20, 9, 40, &["li- before ri- [user-defined]", "lo- before ri- [automatic]", "li+ before x0+ [early-enable]", "ro+ before x0- [early-enable]"]),
    ("ring4_2", "si", &["x0", "x1", "x2"], 38, 32, 130, &[]),
];

#[test]
fn reduced_and_multi_round_searches_answer_as_pinned() {
    let fifo = models::fifo_stg();
    let s = |n: &str| fifo.signal_by_name(n).expect("fifo signal");
    let runs = [
        (
            fifo.clone(),
            vec![RtAssumption::user(s("ri"), Edge::Fall, s("li"), Edge::Rise)],
            RtSynthesisFlow::new(),
        ),
        (
            fifo.clone(),
            vec![RtAssumption::user(s("li"), Edge::Fall, s("ri"), Edge::Fall)],
            RtSynthesisFlow::new(),
        ),
        (
            models::ring_stg(4, 2),
            Vec::new(),
            RtSynthesisFlow::speed_independent(),
        ),
    ];
    for ((stg, user, flow), pin) in runs.iter().zip(&SEARCH_PINS) {
        assert_pinned(stg, user, flow, pin);
    }
}
