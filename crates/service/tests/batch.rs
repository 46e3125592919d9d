//! Batch-scheduler behaviour: deterministic admission-order drain and
//! single-flight dedup — K identical in-flight requests cost one engine
//! dispatch and every observer gets the bit-identical reply.
//!
//! The deterministic scenarios pin the worker with an injected stall so
//! the queue's contents are known exactly; the ungated test proves the
//! coalescing path is reachable without any fault support (the same
//! guarantee `bench_service`'s duplicate-heavy pass relies on).

use std::sync::{Barrier, Mutex, PoisonError};
use std::thread;

use rt_service::{Request, ServiceConfig, SynthService};
use rt_stg::models;

/// Fault state is process-global and polled by every pool in the
/// process, so with the feature on even the fault-free test must hold
/// the suite lock or it would consume another scenario's armed shots.
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

/// One-worker, cache-disabled service: every dedup observed below is
/// the batch scheduler's, never the memo cache's.
fn uncached_single_worker() -> SynthService {
    let config = ServiceConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .build()
        .expect("valid config");
    SynthService::start(config)
}

/// Without any fault support: a barrier releases K clients onto a
/// one-worker uncached pool with identical requests, repeatedly. At
/// least one round must coalesce — the worker can only hold one job at
/// a time, so two same-key requests are regularly in the queue (or one
/// queued, one in flight) together.
#[test]
fn concurrent_identical_requests_coalesce_without_faults() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 12;
    let _suite = suite_guard();
    let service = uncached_single_worker();
    let barrier = Barrier::new(CLIENTS);
    let payloads = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    let response = service
                        .submit(Request::summary(models::chain_stg(6)))
                        .expect("summary");
                    assert!(!response.cached, "the cache is disabled");
                    payloads
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(response.payload);
                }
            });
        }
    });
    let payloads = payloads
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert_eq!(payloads.len(), CLIENTS * ROUNDS);
    for payload in &payloads {
        assert_eq!(payload, &payloads[0], "every observer gets the same answer");
    }
    let stats = service.stats();
    assert_eq!(stats.completed, (CLIENTS * ROUNDS) as u64);
    assert_eq!(stats.cache_hits, 0);
    assert!(
        stats.batch_dedup_hits > 0,
        "released together onto one worker, identical requests must \
         coalesce at least once in {ROUNDS} rounds (got {} over {} requests)",
        stats.batch_dedup_hits,
        stats.submitted,
    );
}

#[cfg(feature = "fault-injection")]
mod deterministic {
    use super::*;
    use rt_service::ResponsePayload;
    use rt_stg::faults::{arm, suite, Fault};
    use std::time::Duration;

    /// Stalls the sole worker on its first job so everything enqueued
    /// behind the blocker coalesces (or queues) deterministically.
    fn stall_first(millis: u64) -> rt_stg::faults::Armed {
        arm(Fault::ServiceStallAt { request: 0, millis }, 1)
    }

    #[test]
    fn k_identical_requests_are_one_dispatch_with_identical_replies() {
        const K: usize = 5;
        let _suite = suite();
        let service = uncached_single_worker();
        let _fault = stall_first(200);
        // Seq 0: the blocker, stalled inside the worker.
        let blocker = service.enqueue(Request::summary(models::fifo_stg()));
        // Wait until the worker owns the blocker, so the K identical
        // requests below cannot race past it.
        while service.stats().admitted == 0 || service.drain_log().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Seq 1: the leader; the other K-1 join its flight.
        let tickets: Vec<_> = (0..K)
            .map(|_| service.enqueue(Request::csc_check(models::fifo_stg_csc())))
            .collect();
        let replies: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("coalesced request succeeds"))
            .collect();
        blocker.wait().expect("blocker completes after the stall");

        for reply in &replies {
            assert_eq!(
                reply.payload, replies[0].payload,
                "all observers of one flight get the bit-identical answer"
            );
            assert!(!reply.cached);
        }
        let stats = service.stats();
        assert_eq!(stats.batch_dedup_hits, (K - 1) as u64, "K-1 joins");
        assert_eq!(stats.admitted, (K + 1) as u64, "joins count as admitted");
        assert_eq!(stats.completed, (K + 1) as u64);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(
            service.drain_log(),
            vec![0, 1],
            "one engine dispatch for the whole batch: only the blocker \
             and the leader ever reached a worker"
        );
    }

    #[test]
    fn queued_jobs_drain_in_admission_order() {
        let _suite = suite();
        let service = uncached_single_worker();
        let _fault = stall_first(150);
        let blocker = service.enqueue(Request::summary(models::fifo_stg()));
        while service.drain_log().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Four *distinct* requests: nothing coalesces, everything queues
        // behind the stalled blocker.
        let tickets = vec![
            service.enqueue(Request::summary(models::handshake_stg())),
            service.enqueue(Request::summary(models::celement_stg())),
            service.enqueue(Request::summary(models::chain_stg(4))),
            service.enqueue(Request::csc_check(models::fifo_stg_csc())),
        ];
        for ticket in tickets {
            ticket.wait().expect("queued request completes");
        }
        blocker.wait().expect("blocker completes");
        assert_eq!(
            service.drain_log(),
            vec![0, 1, 2, 3, 4],
            "the queue drains strictly in admission order"
        );
        assert_eq!(service.stats().batch_dedup_hits, 0);
    }

    #[test]
    fn deadline_requests_never_join_a_flight() {
        let _suite = suite();
        let service = uncached_single_worker();
        let _fault = stall_first(150);
        let blocker = service.enqueue(Request::summary(models::fifo_stg()));
        while service.drain_log().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let deadline = Duration::from_secs(3600);
        let a = service.enqueue(Request::summary(models::chain_stg(4)).with_deadline(deadline));
        let b = service.enqueue(Request::summary(models::chain_stg(4)).with_deadline(deadline));
        assert!(a.wait().is_ok() && b.wait().is_ok());
        blocker.wait().expect("blocker completes");
        assert_eq!(
            service.stats().batch_dedup_hits,
            0,
            "a deadline makes a request uncoalescable in both roles"
        );
        assert_eq!(service.drain_log(), vec![0, 1, 2], "each ran separately");
    }

    /// A deadline-carrying twin runs beside a stalled flight and
    /// finishes first. Its success must not be recorded over the open
    /// flight's row: a third, deadline-free copy still joins (or, once
    /// the flight is done, replays) that flight, and every ticket
    /// resolves to the direct answer. A last deadline-carrying copy
    /// takes the recorded reply as a memo hit.
    #[test]
    fn a_deadline_twin_never_disturbs_a_flight() {
        let _suite = suite();
        let config = ServiceConfig::builder()
            .workers(2)
            .build()
            .expect("valid config");
        let service = SynthService::start(config);
        let _fault = stall_first(300);
        let request = Request::summary(models::chain_stg(4));
        // Seq 0: the deadline-free flight, stalled inside one worker.
        let flight = service.enqueue(request.clone());
        while service.drain_log().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Seq 1: the twin runs on the other worker and finishes first.
        let twin = service
            .enqueue(request.clone().with_deadline(Duration::from_secs(3600)))
            .wait()
            .expect("twin");
        let third = service.enqueue(request.clone());

        let direct = rt_stg::engine::ReachEngine::symbolic()
            .summary(&models::chain_stg(4))
            .expect("direct");
        let expected = ResponsePayload::Summary(rt_service::SummaryOutcome {
            markings: direct.markings,
            iterations: direct.iterations,
        });
        for (name, reply) in [
            ("twin", Ok(twin)),
            ("flight", flight.wait()),
            ("third", third.wait()),
        ] {
            assert_eq!(reply.expect(name).payload, expected, "{name}");
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, stats.completed);
        assert_eq!(service.drain_log(), vec![0, 1], "the third never ran");
        let hit = service
            .submit(request.with_deadline(Duration::from_secs(3600)))
            .expect("memo hit");
        assert!(hit.cached, "a deadline-carrying request takes memo hits");
    }

    #[test]
    fn dropping_one_observer_mid_batch_leaves_siblings_unharmed() {
        let _suite = suite();
        let service = uncached_single_worker();
        let _fault = stall_first(200);
        let blocker = service.enqueue(Request::summary(models::fifo_stg()));
        while service.drain_log().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let keep_a = service.enqueue(Request::csc_check(models::fifo_stg_csc()));
        let dropped = service.enqueue(Request::csc_check(models::fifo_stg_csc()));
        let keep_b = service.enqueue(Request::csc_check(models::fifo_stg_csc()));
        // One client of the flight walks away before the answer exists
        // (the in-process analogue of a daemon connection dying).
        drop(dropped);
        let a = keep_a.wait().expect("sibling a");
        let b = keep_b.wait().expect("sibling b");
        assert_eq!(a.payload, b.payload);
        blocker.wait().expect("blocker completes");
        let stats = service.stats();
        assert_eq!(stats.batch_dedup_hits, 2);
        assert_eq!(
            stats.completed, 4,
            "the dropped observer's reply was still produced and counted"
        );
        assert_eq!(stats.errors, 0);
        // The pool is fully live afterwards.
        let after = service.submit(Request::summary(models::fifo_stg()));
        assert!(matches!(
            after.as_ref().map(|r| &r.payload),
            Ok(ResponsePayload::Summary(_))
        ));
    }
}
