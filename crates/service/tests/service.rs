//! Behavioural tests of the service without fault injection:
//! bit-identity to direct engine calls, memo-cache semantics,
//! deterministic shedding, deadline storms, and drain-on-shutdown.

use std::time::Duration;

use rt_netlist::cells::majority_celement;
use rt_service::{
    Request, ResolveOutcome, ResponsePayload, ServiceConfig, ServiceError, SummaryOutcome,
    SynthService,
};
use rt_stg::engine::{Degradation, ReachEngine};
use rt_stg::{models, Budget, StgError};
use rt_synth::csc::{resolve_csc_engine, CscOptions};
use rt_synth::SynthError;
use rt_verify::verify;

#[test]
fn responses_are_bit_identical_to_direct_engine_calls() {
    let service = SynthService::start(ServiceConfig::default());

    let summary = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("summary");
    let direct = ReachEngine::symbolic()
        .summary(&models::fifo_stg())
        .expect("direct summary");
    match &summary.payload {
        ResponsePayload::Summary(outcome) => {
            assert_eq!(outcome.markings, direct.markings);
            assert_eq!(outcome.iterations, direct.iterations);
        }
        other => panic!("wrong payload kind: {other:?}"),
    }
    assert!(summary.is_full_fidelity());

    let check = service
        .submit(Request::csc_check(models::fifo_stg()))
        .expect("csc check");
    let direct = ReachEngine::symbolic()
        .csc_conflicts_symbolic(&models::fifo_stg())
        .expect("direct csc check");
    match &check.payload {
        ResponsePayload::CscCheck(outcome) => {
            assert_eq!(outcome.markings, direct.markings);
            assert_eq!(outcome.conflicts, direct.conflicts);
            assert_eq!(outcome.deadlock_free, direct.deadlock_free);
            assert_eq!(outcome.strongly_connected, direct.strongly_connected);
        }
        other => panic!("wrong payload kind: {other:?}"),
    }

    let options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    let resolved = service
        .submit(Request::resolve_csc(models::fifo_stg(), options))
        .expect("resolution");
    let direct = resolve_csc_engine(&models::fifo_stg(), &options, &mut ReachEngine::symbolic())
        .expect("direct resolution");
    let expected = ResolveOutcome {
        stg: direct.stg,
        inserted: direct.inserted,
        cost: direct.cost,
        truncated: direct.truncated,
    };
    assert_eq!(
        resolved.payload,
        ResponsePayload::ResolveCsc(Box::new(expected))
    );

    let (netlist, _) = majority_celement();
    let spec = models::celement_stg();
    let report = service
        .submit(Request::verify(netlist.clone(), spec.clone(), Vec::new()))
        .expect("verification");
    let direct = verify(&netlist, &spec, &[]).expect("direct verification");
    assert_eq!(report.payload, ResponsePayload::Verify(direct));

    let stats = service.stats();
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.completed, stats.submitted);
    service.shutdown();
}

#[test]
fn repeated_submissions_hit_the_memo_cache() {
    let service = SynthService::start(ServiceConfig::default());
    let first = service
        .submit(Request::csc_check(models::fifo_stg_csc()))
        .expect("first");
    assert!(!first.cached);
    let second = service
        .submit(Request::csc_check(models::fifo_stg_csc()))
        .expect("second");
    assert!(second.cached, "identical content is served from cache");
    assert_eq!(second.payload, first.payload);
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert!(stats.cache_hit_rate() > 0.0);
    assert_eq!(service.cache_len(), 1);
}

#[test]
fn resolutions_that_differ_only_in_options_without_effect_share_a_memo_entry() {
    // `threads` and `symbolic_threshold` change no answer and are not on
    // the wire, so they are not part of the flight key either.
    let service = SynthService::start(ServiceConfig::default());
    let first = service
        .submit(Request::resolve_csc(
            models::fifo_stg(),
            CscOptions {
                threads: 1,
                ..CscOptions::default()
            },
        ))
        .expect("first");
    assert!(!first.cached);
    let second = service
        .submit(Request::resolve_csc(
            models::fifo_stg(),
            CscOptions {
                threads: 8,
                symbolic_threshold: 0,
                ..CscOptions::default()
            },
        ))
        .expect("second");
    assert!(second.cached, "a memo hit");
    assert_eq!(second.payload, first.payload);
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    assert_eq!(service.cache_len(), 1);
}

#[test]
fn a_renamed_spec_is_resolved_under_its_own_names() {
    let service = SynthService::start(ServiceConfig::default());
    let options = CscOptions::default();
    service
        .submit(Request::resolve_csc(models::fifo_stg(), options))
        .expect("first tenant");
    let mut renamed = models::fifo_stg();
    renamed.set_name("tenant_b_fifo");
    let reply = service
        .submit(Request::resolve_csc(renamed.clone(), options))
        .expect("second tenant");
    assert!(!reply.cached, "a renamed spec is a different request");
    let direct = resolve_csc_engine(&renamed, &options, &mut ReachEngine::symbolic())
        .expect("direct resolution");
    let expected = ResolveOutcome {
        stg: direct.stg,
        inserted: direct.inserted,
        cost: direct.cost,
        truncated: direct.truncated,
    };
    assert_eq!(
        reply.payload,
        ResponsePayload::ResolveCsc(Box::new(expected))
    );
}

#[test]
fn a_reused_idempotency_token_never_replays_another_payload() {
    let service = SynthService::start(ServiceConfig::default());
    for stg in [models::fifo_stg(), models::celement_stg()] {
        let reply = service
            .submit(Request::summary(stg.clone()).with_idempotency(7))
            .expect("summary");
        let direct = ReachEngine::symbolic().summary(&stg).expect("direct");
        assert_eq!(
            reply.payload,
            ResponsePayload::Summary(SummaryOutcome {
                markings: direct.markings,
                iterations: direct.iterations,
            }),
            "{}",
            stg.name()
        );
    }
    assert_eq!(service.stats().idempotent_replays, 0);
}

#[test]
fn degraded_results_are_cached_with_their_degradations() {
    // A four-marking state budget sends the explicit summary of the
    // 18-marking FIFO to its BDD fallback.
    let config = ServiceConfig::builder()
        .budget(Budget::default().with_max_states(4))
        .build()
        .expect("a soft state cap is a valid configuration");
    let service = SynthService::start(config);
    let first = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("degraded summary still succeeds");
    assert_eq!(
        first.degradations,
        vec![Degradation::ExplicitToSymbolic],
        "BDDs answered past the caller's budget"
    );
    assert!(!first.is_full_fidelity());
    match &first.payload {
        ResponsePayload::Summary(outcome) => assert_eq!(outcome.markings, 18),
        other => panic!("wrong payload kind: {other:?}"),
    }

    let hit = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("cache hit");
    assert!(hit.cached);
    assert_eq!(
        hit.degradations, first.degradations,
        "a hit replays the degradations — partial never upgrades to full"
    );
    assert!(!hit.is_full_fidelity());
    assert!(service.stats().degraded >= 1);
}

#[test]
fn zero_capacity_queue_sheds_every_request_deterministically() {
    // The shed-everything configuration is deliberately unreachable
    // through the validating builder; the struct literal is the escape
    // hatch for overload tests like this one.
    let config = ServiceConfig {
        queue_capacity: 0,
        ..ServiceConfig::default()
    };
    let service = SynthService::start(config);
    for _ in 0..3 {
        match service.submit(Request::summary(models::fifo_stg())) {
            Err(ServiceError::Shed { queue_depth }) => assert_eq!(queue_depth, 0),
            other => panic!("expected a shed, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.submitted, 3);
}

#[test]
fn deadline_storm_yields_typed_cancellations_and_the_pool_survives() {
    let service = SynthService::start(ServiceConfig::default());
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            service.enqueue(Request::summary(models::fifo_stg()).with_deadline(Duration::ZERO))
        })
        .collect();
    for ticket in tickets {
        assert_eq!(
            ticket.wait(),
            Err(ServiceError::Engine(StgError::Cancelled)),
            "an expired deadline is a hard, typed stop"
        );
    }
    assert_eq!(service.stats().errors, 8);

    // Nothing was cached from the storm, and the pool still serves.
    let after = service
        .submit(Request::summary(models::fifo_stg()))
        .expect("pool survives the storm");
    assert!(!after.cached, "failed requests must not populate the cache");
    match &after.payload {
        ResponsePayload::Summary(outcome) => assert_eq!(outcome.markings, 18),
        other => panic!("wrong payload kind: {other:?}"),
    }
}

#[test]
fn a_deadline_during_the_candidate_search_is_a_typed_cancellation() {
    // adder_rt_stg(13): 65 places, and its encoding search runs for
    // seconds before it proves the net unresolvable. A deadline that
    // fires among the candidates stops the search with the same error
    // a deadline in the initial exploration produces.
    let service = SynthService::start(ServiceConfig::default());
    let options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    let started = std::time::Instant::now();
    let result = service.submit(
        Request::resolve_csc(rt_stg::corpus::adder_rt_stg(13), options)
            .with_deadline(Duration::from_millis(200)),
    );
    assert_eq!(
        result,
        Err(ServiceError::Synth(SynthError::Stg(StgError::Cancelled)))
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "answered {:?} after submission",
        started.elapsed()
    );
}

#[test]
fn shutdown_drains_already_queued_requests() {
    let config = ServiceConfig::builder()
        .workers(1)
        .build()
        .expect("one worker is a valid pool");
    let service = SynthService::start(config);
    let specs = [
        models::handshake_stg(),
        models::fifo_stg(),
        models::celement_stg(),
        models::chain_stg(4),
    ];
    let tickets: Vec<_> = specs
        .iter()
        .map(|stg| service.enqueue(Request::summary(stg.clone())))
        .collect();
    service.shutdown();
    for ticket in tickets {
        let response = ticket.wait().expect("queued work drains before exit");
        assert!(matches!(response.payload, ResponsePayload::Summary(_)));
    }
}

#[test]
fn config_builder_validates_the_combination() {
    let config = ServiceConfig::builder()
        .workers(3)
        .queue_capacity(16)
        .cache_capacity(8)
        .build()
        .expect("a sensible combination builds");
    assert_eq!(config.workers, 3);
    assert_eq!(config.queue_capacity, 16);

    for (broken, needle) in [
        (ServiceConfig::builder().workers(0).build(), "workers"),
        (
            ServiceConfig::builder().queue_capacity(0).build(),
            "queue_capacity",
        ),
        (
            ServiceConfig::builder().io_timeout(Duration::ZERO).build(),
            "io_timeout",
        ),
    ] {
        match broken {
            Err(ServiceError::InvalidConfig { detail }) => assert!(
                detail.contains(needle),
                "detail {detail:?} should name {needle}"
            ),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
