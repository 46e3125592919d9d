//! The classic-benchmark corpus through the full CAD flow: parse,
//! explore, resolve CSC, synthesize, verify.

use rt_cad::netlist::{GateKind, NetId};
use rt_cad::rt::RtSynthesisFlow;
use rt_cad::stg::{corpus, explore};
use rt_cad::synth::{resolve_csc, synthesize};
use rt_cad::verify::verify_against_sg;

#[test]
fn xyz_synthesizes_and_conforms_directly() {
    let stg = corpus::parse(corpus::XYZ_G).expect("parses");
    let sg = explore(&stg).expect("explores");
    let result = synthesize(&sg, "xyz").expect("CSC-free spec synthesizes");
    result.netlist.validate().expect("structurally sound");
    let report = verify_against_sg(&result.netlist, &sg, &[]);
    assert!(report.passed(), "{:?}", report.failures);
}

#[test]
fn vme_read_flow_inserts_a_state_signal_and_conforms() {
    let stg = corpus::parse(corpus::VME_READ_G).expect("parses");
    let resolution = resolve_csc(&stg).expect("encodable");
    assert!(
        !resolution.inserted.is_empty(),
        "the canonical CSC insertion"
    );
    let sg = resolution
        .sg
        .as_ref()
        .expect("the explicit resolution path carries its graph");
    assert!(sg.csc_conflicts().is_empty());
    let result = synthesize(sg, "vme_read").expect("synthesizes");
    result.netlist.validate().expect("structurally sound");
    let report = verify_against_sg(&result.netlist, sg, &[]);
    assert!(report.passed(), "{:?}", report.failures);
}

#[test]
fn pipeline_stage_flow_end_to_end() {
    let stg = corpus::parse(corpus::PIPELINE_STAGE_G).expect("parses");
    let report = RtSynthesisFlow::speed_independent()
        .run(&stg, &[])
        .expect("SI flow");
    assert!(!report.inserted_signals.is_empty());
    let verdict = verify_against_sg(&report.synthesis.netlist, &report.lazy_sg, &[]);
    assert!(verdict.passed(), "{:?}", verdict.failures);
}

#[test]
fn rt_flow_shrinks_vme_read_too() {
    // Relative timing generalizes beyond the FIFO: on the VME controller
    // the automatic flow must do at least as well as the SI baseline.
    let stg = corpus::parse(corpus::VME_READ_G).expect("parses");
    let si = RtSynthesisFlow::speed_independent()
        .run(&stg, &[])
        .expect("SI flow");
    let rt = RtSynthesisFlow::new().run(&stg, &[]).expect("RT flow");
    assert!(
        rt.synthesis.literal_count <= si.synthesis.literal_count,
        "RT {} vs SI {} literals",
        rt.synthesis.literal_count,
        si.synthesis.literal_count
    );
}

/// A gC stack holds at most four literals; the mapper folds the first
/// literals of a wider cube through an AND gate whose output, a net
/// named `<signal>_set_d<k>` or `<signal>_reset_d<k>`, leads the stack.
/// The SI flows on `adder_rt_stg(5)` and `fabric_stg(2, 2, 0)` both fold.
/// Their netlists stay well formed, and every gC side still reads each
/// literal of its minimized cover: a single cube's literals, through the
/// fold where there is one, or the one OR net of a multi-cube cover.
#[test]
fn wide_cubes_fold_into_four_high_gc_stacks() {
    for (label, stg) in [
        ("adder5", corpus::adder_rt_stg(5)),
        ("fabric2x2", corpus::fabric_stg(2, 2, 0)),
    ] {
        let report = RtSynthesisFlow::speed_independent()
            .run(&stg, &[])
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let netlist = &report.synthesis.netlist;
        netlist
            .validate()
            .unwrap_or_else(|e| panic!("{label}: {e:?}"));
        let fold = |net: NetId| {
            let name = netlist.net_name(net);
            let driver = netlist.gate(netlist.driver(net)?);
            let folded = name.contains("_set_d") || name.contains("_reset_d");
            (folded && driver.kind == GateKind::And).then_some(driver.inputs.len())
        };
        let mut folds = 0;
        for (signal, set, reset) in &report.synthesis.equations {
            let name = format!("gc_{}", report.lazy_sg.signal_name(*signal));
            let gc = netlist
                .gates()
                .map(|g| netlist.gate(g))
                .find(|g| g.name == name)
                .unwrap_or_else(|| panic!("{label}: no {name}"));
            let GateKind::Gc {
                set: set_len,
                reset: reset_len,
            } = gc.kind
            else {
                panic!("{label}: {name} is a {}", gc.kind);
            };
            assert!(
                set_len.max(reset_len) <= 4,
                "{label}: {name} is {}",
                gc.kind
            );
            let (set_inputs, reset_inputs) = gc.inputs.split_at(usize::from(set_len));
            for (inputs, cover) in [(set_inputs, set), (reset_inputs, reset)] {
                let literals = match cover.cube_count() {
                    1 => cover.literal_count(),
                    _ => 1,
                };
                let read: usize = inputs.iter().map(|&net| fold(net).unwrap_or(1)).sum();
                assert_eq!(read, literals, "{label}: {name} reads {inputs:?}");
                folds += inputs.iter().filter(|&&net| fold(net).is_some()).count();
            }
        }
        assert!(folds > 0, "{label}: no gC stack was folded");
    }
}

#[test]
fn boolean_arbiter_violates_mutual_exclusion_under_ties() {
    // Boolean logic cannot arbitrate: under *interleaving* semantics the
    // synthesized cross-coupled circuit conforms (one grant always
    // "wins" in any explored order), but with simultaneous requests in
    // real time both set stacks conduct — the event simulator shows both
    // grants high at once. This is why arbitration needs a
    // mutual-exclusion primitive, not gates.
    use rt_cad::sim::Simulator;

    let stg = corpus::parse(corpus::ARBITER2_G).expect("parses");
    let sg = explore(&stg).expect("explores");
    let result = synthesize(&sg, "arbiter").expect("covers derive");
    result.netlist.validate().expect("structurally sound");
    // Interleaving conformance passes (no single trace is wrong)...
    let report = verify_against_sg(&result.netlist, &sg, &[]);
    assert!(report.passed());
    // ...but a timed tie breaks mutual exclusion.
    let netlist = &result.netlist;
    let r1 = netlist.net_by_name("r1").expect("r1");
    let r2 = netlist.net_by_name("r2").expect("r2");
    let g1 = netlist.net_by_name("g1").expect("g1");
    let g2 = netlist.net_by_name("g2").expect("g2");
    let mut sim = Simulator::new(netlist);
    sim.settle_initial(16);
    sim.enable_trace();
    sim.schedule(r1, true, 100);
    sim.schedule(r2, true, 100); // exact tie
    sim.run_until(100_000);
    let mut both_high_seen = sim.value(g1) && sim.value(g2);
    // Replay the trace to catch a transient overlap as well.
    let mut v1 = false;
    let mut v2 = false;
    for &(_, net, value) in sim.trace().expect("traced") {
        if net == g1 {
            v1 = value;
        }
        if net == g2 {
            v2 = value;
        }
        both_high_seen |= v1 && v2;
    }
    assert!(
        both_high_seen,
        "a timed tie must expose the mutual-exclusion violation"
    );
}
