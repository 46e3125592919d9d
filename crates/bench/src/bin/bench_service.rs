//! Service-layer throughput snapshot: drives the standard corpus
//! through a [`rt_service::SynthService`] pool, whose workers build a
//! fresh engine per request, twice — a cold pass that populates the
//! memo cache and a warm pass that should hit it — and patches a
//! `"service"` section into the `bench_reach` snapshot:
//!
//! ```text
//! cargo run --release -p rt-bench --bin bench_service [-- [--fast] [OUTPUT.json]]
//! ```
//!
//! Every answer's whole payload — rewritten STG and flags included — is
//! asserted equal to a fresh direct [`ReachEngine`] call's before
//! anything is written, so the snapshot can
//! never record throughput for wrong answers. The emitted counters —
//! `requests_per_s`, `cache_hit_rate`, `shed`, `retries`,
//! `worker_panics`, `degraded` — are the service-health gauges
//! `bench_check` gates on: under default budgets the standard corpus
//! must record zero shed, degraded and panicked requests and a
//! nonzero warm-pass hit rate.
//!
//! A third and fourth pass drive the same workload through the TCP
//! daemon front-end ([`rt_service::Daemon`] on an ephemeral loopback
//! port): a serial wire pass through the self-healing
//! [`rt_service::ReconnectingClient`] whose every reply is again pinned
//! against a direct engine, and a duplicate-heavy pass (four
//! [`rt_service::DaemonClient`]s barrier-released onto a one-worker
//! uncached pool) that must exercise the batch scheduler's
//! single-flight dedup. They emit a `"daemon"` section — `requests`,
//! `requests_per_s`, `batch_dedup_hits`, `disconnects`,
//! `protocol_errors`, plus the survivability gauges `timeouts`,
//! `quota_sheds`, `idempotent_replays` and `reconnects` — which
//! `bench_check` gates on: any wire protocol error, disconnect, I/O
//! timeout or quota shed on this well-behaved workload, or a
//! duplicate-heavy pass that never coalesced, fails the run.

use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;

use rt_service::{
    CscCheckOutcome, Daemon, DaemonClient, ReconnectingClient, Request, RequestPayload,
    ResolveOutcome, ResponsePayload, ServiceConfig, SummaryOutcome, SynthService,
};
use rt_stg::engine::ReachEngine;
use rt_stg::{corpus, models};
use rt_synth::csc::{resolve_csc_engine, CscOptions};
use rt_verify::verify;

/// The measured request mix: a summary and a CSC check for every corpus
/// model of at most 16 signals and 64 places, plus one full CSC
/// resolution. The service answers the first two on explicit engines
/// and the resolution on a symbolic one, which audits it with BDDs.
fn workload(fast: bool) -> Vec<(String, Request)> {
    let mut out = Vec::new();
    let mut kept = 0usize;
    let mut skipped = 0usize;
    for (name, stg) in corpus::sweep() {
        if stg.signal_count() > 16 || stg.net().place_count() > 64 {
            skipped += 1;
            continue;
        }
        kept += 1;
        if fast && kept > 8 {
            continue;
        }
        out.push((format!("{name}/summary"), Request::summary(stg.clone())));
        out.push((format!("{name}/csc"), Request::csc_check(stg)));
    }
    println!("workload: {kept} corpus models ({skipped} over 16 signals or 64 places)");
    let options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    out.push((
        "fifo/resolve".to_string(),
        Request::resolve_csc(models::fifo_stg(), options),
    ));
    out
}

/// Asserts one service answer equals, as a whole payload, what a fresh
/// direct symbolic engine call returns. The service walks summaries and
/// CSC checks explicitly, so this checks its explicit answers against
/// the BDD analysers.
fn assert_direct(name: &str, request: &Request, payload: &ResponsePayload) {
    let mut engine = ReachEngine::symbolic();
    let expected = match &request.payload {
        RequestPayload::Summary { stg } => {
            let direct = engine.summary(stg).expect("direct summary");
            ResponsePayload::Summary(SummaryOutcome {
                markings: direct.markings,
                iterations: direct.iterations,
            })
        }
        RequestPayload::CscCheck { stg } => {
            let direct = engine.csc_conflicts_symbolic(stg).expect("direct csc");
            ResponsePayload::CscCheck(CscCheckOutcome {
                markings: direct.markings,
                conflicts: direct.conflicts,
                deadlock_free: direct.deadlock_free,
                strongly_connected: direct.strongly_connected,
            })
        }
        RequestPayload::ResolveCsc { stg, options } => {
            let direct = resolve_csc_engine(stg, options, &mut engine).expect("direct resolve");
            ResponsePayload::ResolveCsc(Box::new(ResolveOutcome {
                stg: direct.stg,
                inserted: direct.inserted,
                cost: direct.cost,
                truncated: direct.truncated,
            }))
        }
        RequestPayload::Verify {
            netlist,
            spec,
            orderings,
        } => ResponsePayload::Verify(verify(netlist, spec, orderings).expect("direct verify")),
    };
    assert_eq!(payload, &expected, "{name}");
}

/// Splices `section` (one `  "<key>": {...}` line) into a
/// `bench_reach`-shaped snapshot, replacing any previous line for the
/// same key. Creates a minimal snapshot when `existing` is `None`.
fn patch_snapshot(existing: Option<String>, key: &str, section: &str) -> String {
    let marker = format!("\"{key}\":");
    let text = existing.unwrap_or_else(|| "{\n}\n".to_string());
    let mut lines: Vec<String> = text
        .lines()
        .filter(|line| !line.trim_start().starts_with(&marker))
        .map(str::to_string)
        .collect();
    while lines.last().is_some_and(|l| l.trim().is_empty()) {
        lines.pop();
    }
    assert_eq!(
        lines.pop().as_deref().map(str::trim),
        Some("}"),
        "snapshot must end with a closing brace"
    );
    if let Some(last) = lines.last_mut() {
        let trimmed = last.trim_end().to_string();
        if !trimmed.ends_with(',') && !trimmed.ends_with('{') {
            *last = format!("{trimmed},");
        }
    }
    lines.push(section.to_string());
    lines.push("}".to_string());
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn main() {
    let mut out_path = "BENCH_reach.json".to_string();
    let mut fast = false;
    for arg in std::env::args().skip(1) {
        if arg == "--fast" {
            fast = true;
        } else if arg.starts_with("--") {
            eprintln!("bench_service: unknown flag {arg} (usage: [--fast] [OUTPUT.json])");
            std::process::exit(2);
        } else {
            out_path = arg;
        }
    }

    let work = workload(fast);
    let service = SynthService::start(ServiceConfig::default());

    // Cold pass: every unique request computed on the pool; answers
    // pinned against fresh direct engines.
    let started = Instant::now();
    let mut cold = Vec::new();
    for (name, request) in &work {
        let response = service
            .submit(request.clone())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        cold.push((name, request, response));
    }
    let cold_elapsed = started.elapsed();
    for (name, request, response) in &cold {
        assert!(!response.cached, "{name}: cold pass must compute");
        assert_direct(name, request, &response.payload);
    }

    // Warm pass: identical content — the memo cache must answer.
    let warm_started = Instant::now();
    for (name, request) in &work {
        let response = service
            .submit(request.clone())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(response.cached, "{name}: warm pass must hit the cache");
    }
    let warm_elapsed = warm_started.elapsed();

    let stats = service.stats();
    service.shutdown();
    let requests = stats.completed;
    let total_s = (cold_elapsed + warm_elapsed).as_secs_f64();
    let requests_per_s = requests as f64 / total_s;
    println!(
        "service: {requests} requests in {:.1} ms ({requests_per_s:.0} req/s; cold {:.1} ms, warm {:.1} ms)",
        total_s * 1e3,
        cold_elapsed.as_secs_f64() * 1e3,
        warm_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "service: hit rate {:.2}  shed {}  retries {}  worker panics {}  degraded {}  errors {}",
        stats.cache_hit_rate(),
        stats.shed,
        stats.retries,
        stats.worker_panics,
        stats.degraded,
        stats.errors
    );

    let mut section = String::from("  \"service\": {");
    let _ = write!(
        section,
        "\"requests\": {requests}, \"requests_per_s\": {requests_per_s:.0}, \
         \"cache_hit_rate\": {:.3}, \"shed\": {}, \"retries\": {}, \
         \"worker_panics\": {}, \"degraded\": {}, \"errors\": {}}}",
        stats.cache_hit_rate(),
        stats.shed,
        stats.retries,
        stats.worker_panics,
        stats.degraded,
        stats.errors
    );
    // Wire pass: the identical workload over TCP through the
    // self-healing client (the recommended front door), every reply
    // pinned against a fresh direct engine exactly like the cold pass.
    // On a healthy daemon it must never need its reconnect budget.
    let daemon = Daemon::bind(ServiceConfig::default(), "127.0.0.1:0").expect("daemon bind");
    let mut client =
        ReconnectingClient::connect(daemon.local_addr(), "bench").expect("daemon connect");
    let wire_started = Instant::now();
    for (name, request) in &work {
        let response = client
            .submit(request)
            .unwrap_or_else(|e| panic!("{name} over the wire: {e}"));
        assert_direct(name, request, &response.payload);
    }
    let wire_elapsed = wire_started.elapsed();
    let reconnects = client.reconnects();
    drop(client);
    let wire_requests_per_s = work.len() as f64 / wire_elapsed.as_secs_f64();

    // Duplicate-heavy pass: four clients barrier-release identical
    // requests onto a one-worker uncached daemon, the same setup
    // `tests/batch.rs` pins — the batch scheduler must coalesce at
    // least one flight, and no connection may fault.
    let dedup_config = ServiceConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .build()
        .expect("valid dedup config");
    let dedup_daemon = Daemon::bind(dedup_config, "127.0.0.1:0").expect("dedup daemon bind");
    const CLIENTS: usize = 4;
    let rounds: usize = if fast { 6 } else { 12 };
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client =
                    DaemonClient::connect(dedup_daemon.local_addr()).expect("dedup connect");
                for _ in 0..rounds {
                    barrier.wait();
                    let response = client
                        .submit(&Request::summary(models::chain_stg(6)))
                        .expect("duplicate-heavy summary");
                    assert!(!response.cached, "the dedup pool's cache is disabled");
                }
            });
        }
    });
    let batch_dedup_hits = dedup_daemon.service_stats().batch_dedup_hits;
    assert!(
        batch_dedup_hits > 0,
        "{CLIENTS} clients x {rounds} barrier-released identical requests \
         on one worker must coalesce at least once"
    );

    let wire_stats = daemon.stats();
    let dedup_stats = dedup_daemon.stats();
    let wire_service = daemon.service_stats();
    let dedup_service = dedup_daemon.service_stats();
    daemon.shutdown();
    dedup_daemon.shutdown();
    let daemon_requests = wire_stats.requests + dedup_stats.requests;
    let disconnects = wire_stats.disconnects + dedup_stats.disconnects;
    let protocol_errors = wire_stats.protocol_errors + dedup_stats.protocol_errors;
    // Survivability counters: on this well-behaved workload every one
    // of them must stay zero (bench_check gates on exactly that).
    let timeouts = wire_stats.timeouts + dedup_stats.timeouts;
    let quota_sheds = wire_service.quota_sheds + dedup_service.quota_sheds;
    let idempotent_replays = wire_service.idempotent_replays + dedup_service.idempotent_replays;
    println!(
        "daemon: {} wire requests in {:.1} ms ({wire_requests_per_s:.0} req/s); \
         dedup pass {} requests, {batch_dedup_hits} coalesced; \
         disconnects {disconnects}  protocol_errors {protocol_errors}  \
         timeouts {timeouts}  quota_sheds {quota_sheds}  \
         idempotent_replays {idempotent_replays}  reconnects {reconnects}",
        wire_stats.requests,
        wire_elapsed.as_secs_f64() * 1e3,
        dedup_stats.requests,
    );

    let mut daemon_section = String::from("  \"daemon\": {");
    let _ = write!(
        daemon_section,
        "\"requests\": {daemon_requests}, \"requests_per_s\": {wire_requests_per_s:.0}, \
         \"batch_dedup_hits\": {batch_dedup_hits}, \"disconnects\": {disconnects}, \
         \"protocol_errors\": {protocol_errors}, \"timeouts\": {timeouts}, \
         \"quota_sheds\": {quota_sheds}, \"idempotent_replays\": {idempotent_replays}, \
         \"reconnects\": {reconnects}}}"
    );

    let existing = std::fs::read_to_string(&out_path).ok();
    let patched = patch_snapshot(existing, "service", &section);
    let patched = patch_snapshot(Some(patched), "daemon", &daemon_section);
    for key in [
        "\"service\":",
        "\"requests_per_s\"",
        "\"cache_hit_rate\"",
        "\"worker_panics\"",
        "\"daemon\":",
        "\"batch_dedup_hits\"",
        "\"protocol_errors\"",
    ] {
        assert!(patched.contains(key), "patched snapshot lost {key}");
    }
    std::fs::write(&out_path, patched).expect("writes snapshot");
    println!("service + daemon sections -> {out_path}");
}

#[cfg(test)]
mod tests {
    use super::patch_snapshot;

    const SECTION: &str = "  \"service\": {\"requests\": 1}";

    #[test]
    fn patches_a_bench_reach_shaped_snapshot_idempotently() {
        let base = "{\n  \"models\": [\n  ],\n  \"summary\": {\"threads\": 1}\n}\n";
        let once = patch_snapshot(Some(base.to_string()), "service", SECTION);
        assert!(once.contains("\"summary\": {\"threads\": 1},"));
        assert!(once.ends_with("  \"service\": {\"requests\": 1}\n}\n"));
        let twice = patch_snapshot(
            Some(once.clone()),
            "service",
            "  \"service\": {\"requests\": 2}",
        );
        assert_eq!(
            twice.matches("\"service\"").count(),
            1,
            "replaced, not appended"
        );
        assert!(twice.contains("\"requests\": 2"));
    }

    #[test]
    fn distinct_keys_accumulate_instead_of_replacing_each_other() {
        let once = patch_snapshot(None, "service", SECTION);
        let both = patch_snapshot(Some(once), "daemon", "  \"daemon\": {\"requests\": 7}");
        assert!(both.contains("\"service\": {\"requests\": 1},"));
        assert!(both.ends_with("  \"daemon\": {\"requests\": 7}\n}\n"));
        let daemon_again = patch_snapshot(Some(both), "daemon", "  \"daemon\": {\"requests\": 9}");
        assert_eq!(daemon_again.matches("\"daemon\"").count(), 1);
        assert!(daemon_again.contains("\"service\": {\"requests\": 1},"));
    }

    #[test]
    fn creates_a_minimal_snapshot_when_none_exists() {
        let fresh = patch_snapshot(None, "service", SECTION);
        assert_eq!(fresh, "{\n  \"service\": {\"requests\": 1}\n}\n");
    }
}
