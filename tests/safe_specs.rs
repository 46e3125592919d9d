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

/// Asserts that `got` refuses the spec as `Unbounded` at one of `places`.
fn assert_unbounded<T: std::fmt::Debug>(what: &str, got: Result<T, StgError>, places: &[&str]) {
    match got {
        Err(StgError::Unbounded { place }) if places.contains(&place.as_str()) => {}
        other => panic!("{what}: {other:?}, want `Unbounded` at one of {places:?}"),
    }
}

#[test]
fn both_backends_refuse_an_unsafe_spec() {
    let stg = unsafe_join();
    // The explicit walks stop at the first unsafe firing in BFS order:
    // `b+` or `c+` into `p`, two firings deep.
    let first = ["p"];
    // A BDD query's pass names the first transition, in id order, that
    // some marking of its reached set fires unsafely. The fixpoint skips
    // only unsafe firings, so it may also reach `a+` coming round again
    // with a token still on one of its postset places.
    let any = ["p", "<a+,b+>", "<a+,c+>"];
    assert_unbounded("explore", explore(&stg), &first);
    let mut explicit = ReachEngine::explicit();
    assert_unbounded("explicit summary", explicit.summary(&stg), &first);
    assert_unbounded("explicit csc_check", explicit.csc_check(&stg), &first);
    assert_unbounded("explicit state_graph", explicit.state_graph(&stg), &first);
    let mut symbolic = ReachEngine::symbolic();
    assert_unbounded("symbolic state_graph", symbolic.state_graph(&stg), &first);
    assert_unbounded("symbolic summary", symbolic.summary(&stg), &any);
    assert_unbounded("symbolic csc_check", symbolic.csc_check(&stg), &any);
    for (backend, mut engine) in engines() {
        let what = format!("{backend} csc_conflicts_symbolic");
        assert_unbounded(&what, engine.csc_conflicts_symbolic(&stg), &any);
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
