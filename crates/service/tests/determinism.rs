//! Submission determinism: N client threads hammering the shared
//! pool, each submitting the corpus in a different order, must observe
//! answers bit-identical to serial direct-engine calls — and, with
//! fault injection on, must keep doing so while a worker panic is
//! being isolated. Under a budget whose BDD fallback only a fresh
//! manager fits, a reply must also not depend on what the worker served
//! before.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::thread;

use rt_service::{
    Request, RequestPayload, ResponsePayload, ServiceConfig, ServiceError, SynthService,
};
use rt_stg::engine::{Degradation, ReachEngine};
use rt_stg::{corpus, models, Budget, Stg};

/// Fault state is process-global, so the plain and fault-injected
/// variants of this suite must not overlap: with the feature on, a
/// pool from the *other* test would consume the armed shot. The
/// exclusion lives in [`rt_stg::faults::suite`]; without the feature
/// there is nothing to exclude and the guard is a no-op.
#[cfg(feature = "fault-injection")]
fn suite_guard() -> rt_stg::faults::SuiteGuard {
    rt_stg::faults::suite()
}

/// Stand-in guard so `let _suite = suite_guard();` binds a value in
/// both builds.
#[cfg(not(feature = "fault-injection"))]
struct SuiteGuard;

#[cfg(not(feature = "fault-injection"))]
fn suite_guard() -> SuiteGuard {
    SuiteGuard
}

const CLIENTS: usize = 4;

/// The corpus slice the clients hammer: small enough for the symbolic
/// CSC detector (≤ 64 signals) and for a quick multi-client sweep.
fn corpus_slice() -> Vec<(String, Stg)> {
    corpus::sweep()
        .into_iter()
        .filter(|(_, stg)| stg.signal_count() <= 16 && stg.net().place_count() <= 64)
        .take(8)
        .collect()
}

fn requests(models: &[(String, Stg)]) -> Vec<(String, Request)> {
    let mut out = Vec::new();
    for (name, stg) in models {
        out.push((format!("{name}/summary"), Request::summary(stg.clone())));
        out.push((format!("{name}/csc"), Request::csc_check(stg.clone())));
    }
    out
}

/// What a reply must equal: the payload and the degradations recorded
/// on the way to it.
type Answer = (ResponsePayload, Vec<Degradation>);

/// `engine`'s answer to `request`.
fn direct(request: &Request, mut engine: ReachEngine) -> Answer {
    let payload = match &request.payload {
        RequestPayload::Summary { stg } => {
            let summary = engine.summary(stg).expect("direct summary");
            ResponsePayload::Summary(rt_service::SummaryOutcome {
                markings: summary.markings,
                iterations: summary.iterations,
            })
        }
        RequestPayload::CscCheck { stg } => {
            let check = engine.csc_check(stg).expect("direct csc");
            ResponsePayload::CscCheck(rt_service::CscCheckOutcome {
                markings: check.markings,
                conflicts: check.conflicts,
                deadlock_free: check.deadlock_free,
                strongly_connected: check.strongly_connected,
            })
        }
        other => unreachable!("suite only submits summaries and checks: {other:?}"),
    };
    (payload, engine.stats().degradations.clone())
}

/// Serial ground truth: every request answered by a fresh direct
/// symbolic engine under the default budget, no pool, no cache.
fn direct_expected(models: &[(String, Stg)]) -> BTreeMap<String, Answer> {
    requests(models)
        .into_iter()
        .map(|(key, request)| (key, direct(&request, ReachEngine::symbolic())))
        .collect()
}

/// Runs `CLIENTS` threads over the shared `service`, each submitting
/// every request with a different rotation, and returns all replies.
fn hammer(
    service: &SynthService,
    models: &[(String, Stg)],
) -> Vec<(String, Result<rt_service::Response, ServiceError>)> {
    let replies = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let replies = &replies;
            let work = requests(models);
            scope.spawn(move || {
                let n = work.len();
                for step in 0..n {
                    // Per-client rotation: same set, different order.
                    let (key, request) = &work[(step + client * 5) % n];
                    let reply = service.submit(request.clone());
                    replies
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((key.clone(), reply));
                }
            });
        }
    });
    replies.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn concurrent_clients_match_serial_direct_engine_calls() {
    let _suite = suite_guard();
    let models = corpus_slice();
    assert!(models.len() >= 6, "corpus slice unexpectedly small");
    let expected = direct_expected(&models);

    let service = SynthService::start(ServiceConfig::default());
    let replies = hammer(&service, &models);
    assert_eq!(replies.len(), CLIENTS * expected.len());
    for (key, reply) in replies {
        let response = reply.unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(
            (response.payload, response.degradations),
            expected[&key],
            "{key}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.errors, 0);
    assert!(
        stats.cache_hits > 0,
        "four clients over one corpus must share the memo cache"
    );
}

#[cfg(feature = "fault-injection")]
#[test]
fn concurrent_clients_stay_deterministic_through_an_injected_panic() {
    use rt_stg::faults::{arm, Fault};
    use std::collections::BTreeSet;

    let _suite = suite_guard();
    let models = corpus_slice();
    let expected = direct_expected(&models);

    let service = SynthService::start(ServiceConfig::default());
    let guard = arm(Fault::ServicePanicAt { request: 3 }, 1);
    let replies = hammer(&service, &models);
    drop(guard);

    // The armed shot panics one engine dispatch. Identical in-flight
    // requests join the leader's flight and share its reply, so that
    // one panic answers the leader and every joiner: one to `CLIENTS`
    // replies, all for the same request.
    let mut panicked = Vec::new();
    for (key, reply) in replies {
        match reply {
            Ok(response) => assert_eq!(
                (response.payload, response.degradations),
                expected[&key],
                "{key}"
            ),
            Err(ServiceError::WorkerPanicked) => panicked.push(key),
            Err(other) => panic!("{key}: unexpected error {other}"),
        }
    }
    assert!(
        (1..=CLIENTS).contains(&panicked.len()),
        "one flight answers 1..={CLIENTS} requests, got {panicked:?}"
    );
    let flights: BTreeSet<&String> = panicked.iter().collect();
    assert_eq!(flights.len(), 1, "one flight panicked: {panicked:?}");
    let stats = service.stats();
    assert_eq!(stats.worker_panics, 1);

    // Post-fault recovery: the same pool, serially, is still
    // bit-identical to fresh direct calls — including whatever key the
    // panicked request had.
    for (key, request) in requests(&models) {
        let response = service
            .submit(request)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(
            (response.payload, response.degradations),
            expected[&key],
            "{key} after recovery"
        );
    }
}

/// Rings, RT ripple-carry adders and a fabric, in submission order.
fn budgeted_nets() -> Vec<(&'static str, Stg)> {
    vec![
        ("ring8_2", models::ring_stg(8, 2)),
        ("ring9_2", models::ring_stg(9, 2)),
        ("ring10_2", models::ring_stg(10, 2)),
        ("adder6", corpus::adder_rt_stg(6)),
        ("adder8", corpus::adder_rt_stg(8)),
        ("fabric2x2", corpus::fabric_stg(2, 2, 1)),
        ("ring10_3", models::ring_stg(10, 3)),
    ]
}

#[test]
fn budgeted_replies_do_not_depend_on_what_the_worker_served_before() {
    let _suite = suite_guard();
    let nets = budgeted_nets();
    // A one-marking state budget sends every summary to its BDD
    // fallback. The node budget sits 10% above the largest footprint a
    // fresh manager reaches on any one net: no fresh engine trips it, a
    // manager kept across the sequence would.
    let largest = nets
        .iter()
        .map(|(name, stg)| {
            let mut engine = ReachEngine::symbolic();
            engine
                .summary(stg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            engine.manager().map_or(0, |bdd| bdd.footprint())
        })
        .max()
        .expect("nets");
    let budget = Budget::default()
        .with_max_states(1)
        .with_max_bdd_nodes(largest + largest / 10);
    let config = ServiceConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .budget(budget.clone())
        .build()
        .expect("valid config");
    let service = SynthService::start(config);
    for (name, stg) in nets {
        let request = Request::summary(stg);
        let expected = direct(
            &request,
            ReachEngine::explicit().with_budget(budget.clone()),
        );
        assert_eq!(
            expected.1,
            vec![Degradation::ExplicitToSymbolic],
            "{name}: BDDs answered"
        );
        let response = service
            .submit(request)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (response.payload, response.degradations),
            expected,
            "{name}"
        );
    }
}
