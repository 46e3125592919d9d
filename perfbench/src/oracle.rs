//! The correctness oracle. Every timed op is checked here and only
//! here: a failed op is a typed error, a wrong answer, a shed or
//! refused request, or a lost connection.
//!
//! Daemon replies are compared with a fresh direct engine call on the
//! caller's own input, never with the service. Flow netlists must
//! verify `Conforms` against their lazy state graph under the
//! orderings of their own back-annotated constraints.

use rt_core::RtConstraint;
use rt_netlist::Netlist;
use rt_service::{
    CscCheckOutcome, Request, RequestPayload, ResolveOutcome, Response, ResponsePayload,
    ServiceError, SummaryOutcome,
};
use rt_stg::engine::ReachEngine;
use rt_stg::StateGraph;
use rt_synth::csc::resolve_csc_engine;
use rt_verify::{orderings_from_constraints, verify_against_sg, verify_with_engine, VerifyReport};

/// The verdict on one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Correct,
    Wrong(String),
    Error(String),
    Shed,
    Disconnected,
}

impl Outcome {
    pub fn is_correct(&self) -> bool {
        *self == Outcome::Correct
    }
}

/// What a fresh direct call answers for `request` — the same engine
/// backend and entry points the service's workers use.
pub fn reference(request: &Request) -> Result<ResponsePayload, String> {
    let mut engine = ReachEngine::symbolic();
    let fail = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match &request.payload {
        RequestPayload::Summary { stg } => {
            let summary = engine.summary(stg).map_err(|e| fail(&e))?;
            ResponsePayload::Summary(SummaryOutcome {
                markings: summary.markings,
                iterations: summary.iterations,
            })
        }
        RequestPayload::CscCheck { stg } => {
            let analysis = engine.csc_conflicts_symbolic(stg).map_err(|e| fail(&e))?;
            ResponsePayload::CscCheck(CscCheckOutcome {
                markings: analysis.markings,
                conflicts: analysis.conflicts,
                deadlock_free: analysis.deadlock_free,
                strongly_connected: analysis.strongly_connected,
            })
        }
        RequestPayload::ResolveCsc { stg, options } => {
            let resolution = resolve_csc_engine(stg, options, &mut engine).map_err(|e| fail(&e))?;
            ResponsePayload::ResolveCsc(Box::new(ResolveOutcome {
                stg: resolution.stg,
                inserted: resolution.inserted,
                cost: resolution.cost,
                truncated: resolution.truncated,
            }))
        }
        RequestPayload::Verify {
            netlist,
            spec,
            orderings,
        } => ResponsePayload::Verify(
            verify_with_engine(netlist, spec, orderings, &mut engine).map_err(|e| fail(&e))?,
        ),
    })
}

/// Full structural equality, names included. (`ResolveOutcome`'s own
/// `PartialEq` compares a name-blind content hash, so the rewritten
/// STG is compared through its complete `Debug` rendering instead.)
fn same_answer(expected: &ResponsePayload, got: &ResponsePayload) -> bool {
    match (expected, got) {
        (ResponsePayload::ResolveCsc(a), ResponsePayload::ResolveCsc(b)) => {
            a.inserted == b.inserted
                && a.cost == b.cost
                && a.truncated == b.truncated
                && format!("{:?}", a.stg) == format!("{:?}", b.stg)
        }
        (a, b) => a == b,
    }
}

/// Checks one daemon reply against the reference answer.
pub fn check_reply(
    expected: &Result<ResponsePayload, String>,
    reply: &Result<Response, ServiceError>,
) -> Outcome {
    match (expected, reply) {
        (_, Err(ServiceError::Shed { .. } | ServiceError::QuotaExceeded { .. })) => Outcome::Shed,
        (_, Err(ServiceError::Disconnected)) => Outcome::Disconnected,
        (_, Err(error)) => Outcome::Error(error.to_string()),
        (Err(reference), Ok(_)) => Outcome::Wrong(format!(
            "answered where the direct call failed: {reference}"
        )),
        (Ok(expected), Ok(response)) if same_answer(expected, &response.payload) => {
            Outcome::Correct
        }
        (Ok(expected), Ok(response)) => {
            Outcome::Wrong(format!("expected {expected:?}, got {:?}", response.payload))
        }
    }
}

/// Checks a flow result: the netlist must conform to its lazy state
/// graph under the orderings of its own back-annotated constraints.
/// Returns the verdict and the verification report it rests on.
pub fn check_netlist(
    netlist: &Netlist,
    lazy_sg: &StateGraph,
    constraints: &[RtConstraint],
) -> (Outcome, VerifyReport) {
    let orderings = orderings_from_constraints(netlist, lazy_sg, constraints);
    let report = verify_against_sg(netlist, lazy_sg, &orderings);
    let outcome = if report.passed() {
        Outcome::Correct
    } else {
        Outcome::Wrong(format!(
            "{} verification failure(s), first: {}",
            report.failures.len(),
            report.failures[0].describe(netlist)
        ))
    };
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::RtSynthesisFlow;
    use rt_stg::models;

    #[test]
    fn a_corrupted_reply_counts_as_a_failure() {
        let request = Request::summary(models::fifo_stg());
        let expected = reference(&request);
        let mut response = Response {
            payload: expected.clone().expect("fifo explores"),
            degradations: Vec::new(),
            cached: false,
            retries: 0,
        };
        assert_eq!(
            check_reply(&expected, &Ok(response.clone())),
            Outcome::Correct
        );
        if let ResponsePayload::Summary(outcome) = &mut response.payload {
            outcome.markings += 1;
        }
        assert!(matches!(
            check_reply(&expected, &Ok(response)),
            Outcome::Wrong(_)
        ));
        assert_eq!(
            check_reply(&expected, &Err(ServiceError::Disconnected)),
            Outcome::Disconnected
        );
    }

    #[test]
    fn a_renamed_resolution_counts_as_a_failure() {
        let request = Request::resolve_csc(
            models::fifo_stg(),
            rt_synth::csc::CscOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let expected = reference(&request);
        let mut payload = expected.clone().expect("fifo resolves");
        if let ResponsePayload::ResolveCsc(outcome) = &mut payload {
            outcome.stg.set_name("another_tenant");
        }
        let reply = Ok(Response {
            payload,
            degradations: Vec::new(),
            cached: true,
            retries: 0,
        });
        assert!(matches!(check_reply(&expected, &reply), Outcome::Wrong(_)));
    }

    #[test]
    fn a_non_conforming_netlist_counts_as_a_failure() {
        let fifo = RtSynthesisFlow::speed_independent()
            .run(&models::fifo_stg(), &[])
            .expect("fifo flow");
        let (outcome, _) = check_netlist(&fifo.synthesis.netlist, &fifo.lazy_sg, &fifo.constraints);
        assert_eq!(outcome, Outcome::Correct);
        // `corpus:vme_read` under automatic assumptions is the
        // documented exclusion of `flow_corpus`: its netlist does not
        // conform even under its own back-annotated orderings.
        let vme = rt_stg::corpus::parse(rt_stg::corpus::VME_READ_G).expect("parses");
        let rt = RtSynthesisFlow::new()
            .run(&vme, &[])
            .expect("vme_read flow");
        let (outcome, report) = check_netlist(&rt.synthesis.netlist, &rt.lazy_sg, &rt.constraints);
        assert!(matches!(outcome, Outcome::Wrong(_)), "{report:?}");
    }
}
