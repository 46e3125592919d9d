#![cfg(feature = "fault-injection")]
//! Service-layer fault matrix: every injected fault must surface as a
//! typed error or a degraded-but-correct response — never a wedge — and
//! the pool must serve the next request bit-identically to a fresh
//! direct engine call.
//!
//! Fault state is process-global, and pooled workers poll the hooks on
//! every admitted request, so the whole matrix serializes on
//! [`rt_stg::faults::suite`]:
//! a pool spun up by one scenario must not consume another scenario's
//! armed shots.

use std::time::{Duration, Instant};

use rt_service::{Request, ResponsePayload, ServiceConfig, ServiceError, SynthService};
use rt_stg::engine::{Degradation, ReachEngine};
use rt_stg::faults::{arm, Fault};
use rt_stg::{models, Budget, StgError};

fn serial() -> rt_stg::faults::SuiteGuard {
    rt_stg::faults::suite()
}

fn one_worker() -> ServiceConfig {
    ServiceConfig::builder()
        .workers(1)
        .build()
        .expect("one worker is a valid pool")
}

/// One worker whose BDD fallback can never fit: a request whose
/// explicit walk is exhausted by injection fails as a whole.
fn one_worker_without_bdd_room() -> ServiceConfig {
    ServiceConfig::builder()
        .workers(1)
        .budget(Budget::default().with_max_bdd_nodes(1))
        .build()
        .expect("a soft node cap is a valid configuration")
}

/// The error a direct explicit engine returns for `csc_check` on the
/// fifo under [`one_worker_without_bdd_room`]'s budget, with the walk
/// exhausted at round 1: what the service must answer verbatim.
fn direct_exhaustion() -> StgError {
    let _fault = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    let error = ReachEngine::explicit()
        .with_budget(one_worker_without_bdd_room().budget)
        .csc_check(&models::fifo_stg())
        .expect_err("the walk and its BDD fallback are both exhausted");
    assert!(
        matches!(error, StgError::NodeBudgetExceeded { .. }),
        "got {error:?}"
    );
    error
}

fn fifo_markings(response: &rt_service::Response) -> u64 {
    match &response.payload {
        ResponsePayload::Summary(outcome) => outcome.markings,
        other => panic!("wrong payload kind: {other:?}"),
    }
}

#[test]
fn injected_worker_panic_is_typed_and_the_engine_is_rebuilt() {
    let _suite = serial();
    let service = SynthService::start(one_worker());
    let _fault = arm(Fault::ServicePanicAt { request: 0 }, 1);
    assert_eq!(
        service.submit(Request::summary(models::fifo_stg())),
        Err(ServiceError::WorkerPanicked),
        "the panic surfaces as its typed error, not a hang or abort"
    );
    let stats = service.stats();
    assert_eq!(stats.worker_panics, 1);

    // The same (sole) worker serves the next request on a fresh engine,
    // bit-identical to a fresh direct call.
    let after = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("pool serves after the panic");
    let direct = ReachEngine::symbolic()
        .summary(&models::fifo_stg())
        .expect("direct");
    assert_eq!(fifo_markings(&after), direct.markings);
    assert!(!after.cached, "the panicked attempt must not have cached");
}

#[test]
fn injected_exhaustion_fails_the_first_attempt_with_its_typed_error() {
    let _suite = serial();
    let expected = direct_exhaustion();
    let service = SynthService::start(one_worker_without_bdd_room());
    // One shot: the walk and then its BDD fallback are both exhausted,
    // so the failure escapes the engine. A second attempt would walk
    // cleanly, so the error itself shows there was only one.
    let fault = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    assert_eq!(
        service.submit(Request::csc_check(models::fifo_stg())),
        Err(ServiceError::Engine(expected)),
        "the engine's own error, verbatim"
    );
    drop(fault);
    let stats = service.stats();
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.worker_panics, 0, "exhaustion never panics a worker");

    // Errors are not memoized: the same request runs again, cleanly.
    let response = service
        .submit(Request::csc_check(models::fifo_stg()))
        .expect("the next request is served");
    assert_eq!(response.retries, 0);
    assert!(!response.cached);
    assert!(response.degradations.is_empty(), "the walk was clean");
    let direct = ReachEngine::symbolic()
        .csc_conflicts_symbolic(&models::fifo_stg())
        .expect("direct");
    match &response.payload {
        ResponsePayload::CscCheck(outcome) => {
            assert_eq!(outcome.markings, direct.markings);
            assert_eq!(outcome.conflicts, direct.conflicts);
        }
        other => panic!("wrong payload kind: {other:?}"),
    }
}

#[test]
fn repeated_exhaustion_leaves_no_engine_to_quarantine() {
    let _suite = serial();
    let expected = Err(ServiceError::Engine(direct_exhaustion()));
    let service = SynthService::start(one_worker_without_bdd_room());
    // Two shots: two requests whose walks and BDD fallbacks are both
    // exhausted, each ending in hard failure.
    let _fault = arm(Fault::ExhaustStatesAt { round: 1 }, 2);
    for request in 0..2 {
        let reply = service.submit(Request::csc_check(models::fifo_stg()));
        assert_eq!(reply, expected, "request {request}");
    }
    let stats = service.stats();
    assert_eq!(stats.worker_panics, 0);

    let after = service
        .submit(Request::csc_check(models::fifo_stg()))
        .expect("the next request is served");
    let direct = ReachEngine::symbolic()
        .csc_conflicts_symbolic(&models::fifo_stg())
        .expect("direct");
    match &after.payload {
        ResponsePayload::CscCheck(outcome) => assert_eq!(outcome.markings, direct.markings),
        other => panic!("wrong payload kind: {other:?}"),
    }
}

#[test]
fn injected_state_exhaustion_degrades_and_the_cache_keeps_it_partial() {
    let _suite = serial();
    let service = SynthService::start(one_worker());
    let _fault = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    let response = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("degradation, not an error");
    assert!(
        response
            .degradations
            .contains(&Degradation::ExplicitToSymbolic),
        "the explicit walk fell back symbolically: {:?}",
        response.degradations
    );
    assert_eq!(fifo_markings(&response), 18, "the answer is still right");

    let hit = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("hit");
    assert!(hit.cached);
    assert_eq!(hit.degradations, response.degradations);
    assert!(!hit.is_full_fidelity(), "a cached partial stays partial");
    let stats = service.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.degraded >= 1);
}

#[test]
fn injected_cancellation_is_a_hard_stop_with_no_retries() {
    let _suite = serial();
    let service = SynthService::start(one_worker());
    let _fault = arm(Fault::CancelAt { round: 0 }, 1);
    assert_eq!(
        service.submit(Request::summary(models::fifo_stg())),
        Err(ServiceError::Engine(StgError::Cancelled))
    );
    let stats = service.stats();
    assert_eq!(stats.retries, 0, "cancellation is never retried");
    assert_eq!(stats.errors, 1);
    let after = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("pool serves after the cancellation");
    assert_eq!(fifo_markings(&after), 18);
}

#[test]
fn stuck_worker_leaves_siblings_serving_and_its_deadline_fires() {
    let _suite = serial();
    let service = SynthService::start(ServiceConfig::default()); // two workers
    let _fault = arm(
        Fault::ServiceStallAt {
            request: 0,
            millis: 800,
        },
        1,
    );
    let stalled = service
        .enqueue(Request::summary(models::chain_stg(6)).with_deadline(Duration::from_millis(40)));
    let started = Instant::now();
    let sibling = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("sibling worker keeps serving");
    assert!(
        started.elapsed() < Duration::from_millis(600),
        "the sibling answered while the stalled worker was still stuck"
    );
    assert_eq!(fifo_markings(&sibling), 18);
    assert_eq!(
        stalled.wait(),
        Err(ServiceError::Engine(StgError::Cancelled)),
        "the stalled request's deadline surfaces as a typed cancellation"
    );
    let after = service
        .submit(Request::summary(models::chain_stg(6)))
        .expect("both workers live on");
    assert!(!after.cached, "the cancelled request cached nothing");
}

#[test]
fn overload_during_a_stall_sheds_with_the_observed_depth() {
    let _suite = serial();
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    };
    let service = SynthService::start(config);
    let _fault = arm(
        Fault::ServiceStallAt {
            request: 0,
            millis: 300,
        },
        1,
    );
    let stalled = service.enqueue(Request::summary(models::chain_stg(4)));
    // Let the sole worker pick the stalling job up, so the next
    // submission waits in the queue rather than racing for the slot.
    std::thread::sleep(Duration::from_millis(100));
    let queued = service.enqueue(Request::summary(models::fifo_stg()));
    match service.submit(Request::summary(models::celement_stg())) {
        Err(ServiceError::Shed { queue_depth }) => assert_eq!(queue_depth, 1),
        other => panic!("expected a shed with depth 1, got {other:?}"),
    }
    // The stall is a delay, not a failure: both admitted requests
    // complete once the worker wakes.
    assert_eq!(
        fifo_markings(&stalled.wait().expect("stalled job completes")),
        ReachEngine::symbolic()
            .summary(&models::chain_stg(4))
            .expect("direct")
            .markings
    );
    assert_eq!(
        fifo_markings(&queued.wait().expect("queued job completes")),
        18
    );
    assert_eq!(service.stats().shed, 1);
}
