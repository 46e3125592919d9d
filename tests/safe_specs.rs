//! The Figure-2 flow reads every specification as an ordinary safe
//! Petri net: each arc moves one token, no arc is written twice, and a
//! reachable firing that would put a second token on a place is
//! `StgError::Unbounded` on both reachability backends, so neither the
//! flow nor its set-level queries answer on an unsafe spec.

use rt_cad::rt::{RtError, RtSynthesisFlow};
use rt_cad::stg::parse::{parse_g, write_g};
use rt_cad::stg::{corpus, explore, ReachEngine, Stg, StgError};

/// After `a+`, the concurrent `b+` and `c+` both feed the explicit
/// place `p`: whichever fires second puts a second token on it, two
/// firings after the initial marking.
const UNSAFE_JOIN: &str = "\
.model unsafe_join
.inputs a
.outputs b c
.graph
a+ b+ c+
b+ p
c+ p
p a-
a- b- c-
b- a+
c- a+
.marking { <b-,a+> <c-,a+> }
.end
";

fn unsafe_join() -> Stg {
    parse_g(UNSAFE_JOIN).expect("the unsafe join parses")
}

fn engines() -> [(&'static str, ReachEngine); 2] {
    [
        ("explicit", ReachEngine::explicit()),
        ("symbolic", ReachEngine::symbolic()),
    ]
}

/// Asserts that `got` refuses the spec as `Unbounded` at `p`.
fn assert_unbounded_at_p<T: std::fmt::Debug>(what: &str, got: Result<T, StgError>) {
    match got {
        Err(StgError::Unbounded { place }) if place == "p" => {}
        other => panic!("{what}: {other:?}, want `Unbounded` at `p`"),
    }
}

#[test]
fn both_backends_refuse_an_unsafe_spec() {
    // Every walk stops at the breadth-first layer of the first unsafe
    // firing: `b+` or `c+` into `p`, two firings deep. The explicit walks
    // stop at that firing; the BDD walks ask each frontier before its
    // image, so they never reach `a+` coming round again.
    let stg = unsafe_join();
    assert_unbounded_at_p("explore", explore(&stg));
    for (backend, mut engine) in engines() {
        let what = |query: &str| format!("{backend} {query}");
        assert_unbounded_at_p(&what("summary"), engine.summary(&stg));
        assert_unbounded_at_p(&what("csc_check"), engine.csc_check(&stg));
        assert_unbounded_at_p(&what("state_graph"), engine.state_graph(&stg));
        assert_unbounded_at_p(&what("symbolic_set"), engine.symbolic_set(&stg));
        assert_unbounded_at_p(
            &what("csc_conflicts_symbolic"),
            engine.csc_conflicts_symbolic(&stg),
        );
    }
}

#[test]
fn the_figure2_flow_refuses_an_unsafe_spec() {
    let stg = unsafe_join();
    let unbounded = RtError::Stg(StgError::Unbounded { place: "p".into() });
    for flow in [RtSynthesisFlow::new(), RtSynthesisFlow::speed_independent()] {
        assert_eq!(flow.run(&stg, &[]).unwrap_err(), unbounded);
        for (backend, mut engine) in engines() {
            assert_eq!(
                flow.run_with_engine(&stg, &[], &mut engine).unwrap_err(),
                unbounded,
                "{backend}"
            );
        }
    }
}

#[test]
fn every_shipped_spec_reads_back_from_g_text_alike_on_both_backends() {
    // The `.g` reader refuses an arc written twice; no shipped spec's
    // written form has one, and each reads back to the same answers.
    for (name, stg) in &corpus::sweep() {
        let text = write_g(stg);
        let again = parse_g(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        for (backend, mut engine) in engines() {
            let mut answers = |stg: &Stg| {
                let summary = engine
                    .summary(stg)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let csc = engine
                    .csc_check(stg)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                (
                    (summary.markings, summary.iterations),
                    (
                        csc.markings,
                        csc.conflicts,
                        csc.deadlock_free,
                        csc.strongly_connected,
                    ),
                )
            };
            let want = answers(stg);
            assert_eq!(answers(&again), want, "{name}: {backend}");
        }
    }
}
