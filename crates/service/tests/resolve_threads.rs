//! A `ResolveCsc` request's `threads` option must not decide how many
//! threads the service spawns: the worker pool already runs jobs in
//! parallel, so the candidate search runs serially on its worker.
//!
//! This file holds one test so that the process's thread count belongs
//! to it alone (Linux only: it samples `/proc/self/status`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use rt_service::{
    Request, ResolveOutcome, ResponsePayload, ServiceConfig, ServiceError, SynthService,
};
use rt_stg::engine::ReachEngine;
use rt_stg::models;
use rt_synth::csc::{resolve_csc_engine, CscOptions};

/// The `Threads:` line of `/proc/self/status`.
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_wide_resolve_request_spawns_no_search_threads() {
    let service = SynthService::start(ServiceConfig::default());
    let stg = models::ring_stg(6, 2);
    let options = CscOptions {
        threads: 64,
        ..CscOptions::default()
    };
    let done = AtomicBool::new(false);
    let (before, peak, reply) = thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(live_threads());
                thread::sleep(Duration::from_micros(100));
            }
            peak
        });
        // The sampler is already live, so it counts in `before`.
        let before = live_threads();
        let reply = service.submit(Request::resolve_csc(stg.clone(), options));
        done.store(true, Ordering::Relaxed);
        (before, sampler.join().expect("sampler"), reply)
    });
    assert!(
        peak <= before + 2,
        "{peak} live threads during the request, {before} before it"
    );

    let direct = resolve_csc_engine(&stg, &options, &mut ReachEngine::symbolic())
        .map(|direct| {
            ResponsePayload::ResolveCsc(Box::new(ResolveOutcome {
                stg: direct.stg,
                inserted: direct.inserted,
                cost: direct.cost,
                truncated: direct.truncated,
            }))
        })
        .map_err(ServiceError::Synth);
    assert_eq!(reply.map(|reply| reply.payload), direct);
}
