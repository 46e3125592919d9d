//! End-to-end daemon tests: the full corpus over TCP must be
//! bit-identical to direct engine calls — serially, concurrently, and
//! under injected faults including a mid-request disconnect.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use rt_netlist::cells::majority_celement;
use rt_netlist::{GateKind, NetKind, Netlist};
use rt_service::{
    Daemon, DaemonClient, Request, RequestPayload, ResponsePayload, ServiceConfig, ServiceError,
    SynthService,
};
use rt_stg::engine::ReachEngine;
use rt_stg::{corpus, models, Stg, StgError};
use rt_synth::csc::CscOptions;
use rt_verify::verify;

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

fn ephemeral_daemon() -> Daemon {
    Daemon::bind(ServiceConfig::default(), "127.0.0.1:0").expect("bind ephemeral port")
}

/// The corpus slice every wire test sweeps: same filter as the
/// in-process determinism suite, so the two pin the same ground truth.
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

fn direct_expected(models: &[(String, Stg)]) -> BTreeMap<String, ResponsePayload> {
    let mut expected = BTreeMap::new();
    for (key, request) in requests(models) {
        let mut engine = ReachEngine::symbolic();
        let payload = match &request.payload {
            RequestPayload::Summary { stg } => {
                let summary = engine.summary(stg).expect("direct summary");
                ResponsePayload::Summary(rt_service::SummaryOutcome {
                    markings: summary.markings,
                    iterations: summary.iterations,
                })
            }
            RequestPayload::CscCheck { stg } => {
                let analysis = engine.csc_conflicts_symbolic(stg).expect("direct csc");
                ResponsePayload::CscCheck(rt_service::CscCheckOutcome {
                    markings: analysis.markings,
                    conflicts: analysis.conflicts,
                    deadlock_free: analysis.deadlock_free,
                    strongly_connected: analysis.strongly_connected,
                })
            }
            other => unreachable!("corpus sweep only submits these: {other:?}"),
        };
        expected.insert(key, payload);
    }
    expected
}

#[test]
fn serial_corpus_over_tcp_is_bit_identical_to_direct_calls() {
    let _suite = suite_guard();
    let models = corpus_slice();
    let expected = direct_expected(&models);
    let daemon = ephemeral_daemon();
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    for (key, request) in requests(&models) {
        let response = client
            .submit(&request)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(response.payload, expected[&key], "{key}");
    }
    let stats = daemon.stats();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.requests, (2 * models.len()) as u64);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.disconnects, 0);
    daemon.shutdown();
}

/// All four request kinds cross the wire, not just the sweep's two —
/// including the boxed resolution payload and a verification report.
#[test]
fn every_request_kind_crosses_the_wire_bit_identically() {
    let _suite = suite_guard();
    let daemon = ephemeral_daemon();
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    let service = SynthService::start(ServiceConfig::default());

    let options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    let (netlist, _) = majority_celement();
    let spec = models::celement_stg();
    let all_kinds = [
        Request::summary(models::fifo_stg()),
        Request::csc_check(models::fifo_stg_csc()),
        Request::resolve_csc(models::fifo_stg_csc(), options),
        Request::verify(netlist.clone(), spec.clone(), Vec::new()),
    ];
    for request in &all_kinds {
        let wire = client.submit(request).expect("wire reply");
        let direct = service.submit(request.clone()).expect("in-process reply");
        assert_eq!(wire.payload, direct.payload);
        assert_eq!(wire.degradations, direct.degradations);
    }
    // Verification ground truth straight from the verifier too.
    let report = verify(&netlist, &spec, &[]).expect("direct verification");
    let wire = client
        .submit(&Request::verify(netlist, spec, Vec::new()))
        .expect("verify over the wire");
    match wire.payload {
        ResponsePayload::Verify(wire_report) => assert_eq!(wire_report, report),
        other => panic!("wrong payload kind: {other:?}"),
    }
    service.shutdown();
    daemon.shutdown();
}

#[test]
fn four_concurrent_connections_stay_bit_identical() {
    const CLIENTS: usize = 4;
    let _suite = suite_guard();
    let models = corpus_slice();
    let expected = direct_expected(&models);
    let daemon = ephemeral_daemon();
    let addr = daemon.local_addr();
    let replies = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let replies = &replies;
            let work = requests(&models);
            scope.spawn(move || {
                let mut client = DaemonClient::connect(addr).expect("connect");
                let n = work.len();
                for step in 0..n {
                    let (key, request) = &work[(step + client_index * 5) % n];
                    let reply = client.submit(request);
                    replies
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((key.clone(), reply));
                }
            });
        }
    });
    let replies = replies.into_inner().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(replies.len(), CLIENTS * 2 * models.len());
    for (key, reply) in replies {
        let response = reply.unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(response.payload, expected[&key], "{key}");
    }
    let stats = daemon.stats();
    assert_eq!(stats.connections, CLIENTS as u64);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.disconnects, 0);
    daemon.shutdown();
}

#[test]
fn wire_deadlines_propagate_as_typed_cancellations() {
    let _suite = suite_guard();
    let daemon = ephemeral_daemon();
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    let reply = client.submit(&Request::summary(models::fifo_stg()).with_deadline(Duration::ZERO));
    assert_eq!(
        reply,
        Err(ServiceError::Engine(StgError::Cancelled)),
        "an expired wire deadline is the same typed stop as in-process"
    );
    // The connection survives a failed request — errors are replies,
    // not disconnects.
    let after = client
        .submit(&Request::summary(models::fifo_stg()))
        .expect("same connection serves on");
    assert!(matches!(after.payload, ResponsePayload::Summary(_)));
    daemon.shutdown();
}

/// The handshake's `a` wired to its `b` through a chain of one-input
/// AND gates: `nets` nets in all, `b` the last.
fn and_chain(nets: usize) -> Netlist {
    let mut netlist = Netlist::new("and_chain");
    let mut previous = netlist.add_net("a", NetKind::Input);
    for i in 1..nets {
        let net = if i + 1 == nets {
            netlist.add_net("b", NetKind::Output)
        } else {
            netlist.add_net(format!("n{i}"), NetKind::Internal)
        };
        netlist.add_gate(format!("and{i}"), GateKind::And, vec![previous], net);
        previous = net;
    }
    netlist
}

/// A composed state codes one bit per net: a 65-net netlist is refused
/// with the same typed error by the direct call, the service and the
/// daemon, and a 64-net one is answered alike by all three.
#[test]
fn a_netlist_past_sixty_four_nets_is_refused_everywhere() {
    let _suite = suite_guard();
    let daemon = ephemeral_daemon();
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    let service = SynthService::start(ServiceConfig::default());
    let spec = models::handshake_stg();
    assert_eq!(
        verify(&and_chain(65), &spec, &[]),
        Err(StgError::TooManySignals(65))
    );
    let request = Request::verify(and_chain(65), spec.clone(), Vec::new());
    let refused = Err(ServiceError::Engine(StgError::TooManySignals(65)));
    assert_eq!(service.submit(request.clone()).map(|r| r.payload), refused);
    assert_eq!(client.submit(&request).map(|r| r.payload), refused);
    let direct = verify(&and_chain(64), &spec, &[]).expect("64 nets verify");
    assert!(direct.passed());
    let request = Request::verify(and_chain(64), spec, Vec::new());
    let answer = Ok(ResponsePayload::Verify(direct));
    assert_eq!(service.submit(request.clone()).map(|r| r.payload), answer);
    assert_eq!(client.submit(&request).map(|r| r.payload), answer);
    service.shutdown();
    daemon.shutdown();
}

/// A gC with one-high set and reset stacks fed one input would panic
/// the walk's gate evaluation. The direct call and the service refuse
/// it with a typed engine error instead, and the wire refuses it at
/// decode, so the daemon answers a protocol error.
#[test]
fn a_gate_fed_the_wrong_input_count_is_refused_everywhere() {
    use rt_service::proto::{self, ProtoError};

    let _suite = suite_guard();
    let mut netlist = Netlist::new("short_gc");
    let a = netlist.add_net("a", NetKind::Input);
    let b = netlist.add_net("b", NetKind::Output);
    netlist.add_gate("gc_b", GateKind::Gc { set: 1, reset: 1 }, vec![a], b);
    let spec = models::handshake_stg();
    let detail = "gate `gc_b` expects 2 inputs, got 1";
    let refused = StgError::InvalidNetlist(detail.into());
    assert_eq!(verify(&netlist, &spec, &[]), Err(refused.clone()));
    let request = Request::verify(netlist, spec, Vec::new());
    let service = SynthService::start(ServiceConfig::default());
    assert_eq!(
        service.submit(request.clone()).map(|r| r.payload),
        Err(ServiceError::Engine(refused))
    );
    assert_eq!(service.stats().worker_panics, 0);
    service.shutdown();
    let inconsistent = ProtoError::Inconsistent {
        detail: detail.into(),
    };
    assert_eq!(
        proto::decode_request(&proto::encode_request(&request)).err(),
        Some(inconsistent.clone())
    );
    let daemon = ephemeral_daemon();
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    assert_eq!(
        client.submit(&request).map(|r| r.payload),
        Err(inconsistent.into())
    );
    daemon.shutdown();
}

/// Every net is ordinary: no constructor builds a preset that names a
/// place twice, so such a net can only arrive as bytes, and the wire
/// refuses it at decode. The daemon answers with the typed protocol
/// error.
#[test]
fn a_wire_stg_that_repeats_a_preset_place_is_refused() {
    use rt_service::proto::{self, ProtoError};
    use rt_stg::{Edge, SignalKind};
    use std::net::TcpStream;

    let _suite = suite_guard();
    // `a+` consumes `p` and `q`, places 0 and 1.
    let mut stg = Stg::new("twice");
    let a = stg.add_signal("a", SignalKind::Output).expect("fresh");
    let rise = stg.transition_for(a, Edge::Rise);
    let fall = stg.transition_for(a, Edge::Fall);
    let [p, q, r] = ["p", "q", "r"].map(|name| stg.add_place(name));
    stg.arc_from_place(p, rise);
    stg.arc_from_place(q, rise);
    stg.arc_to_place(rise, r);
    stg.arc_from_place(r, fall);
    stg.arc_to_place(fall, p);
    stg.arc_to_place(fall, q);
    stg.set_tokens(p, 1);
    stg.set_tokens(q, 1);
    let mut payload = proto::encode_request(&Request::summary(stg));
    // The presets precede the postsets, so the first two-arc list of
    // places 0 and 1 is `a+`'s preset: make it name place 0 twice.
    let preset = [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
    let at = payload
        .windows(preset.len())
        .position(|window| window == preset)
        .expect("a+'s preset is on the wire");
    payload[at + 8] = 0;
    let inconsistent = ProtoError::Inconsistent {
        detail: "parse error at line 0: preset of transition 0 repeats place p0".into(),
    };
    assert_eq!(
        proto::decode_request(&payload).err(),
        Some(inconsistent.clone())
    );

    let daemon = ephemeral_daemon();
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    proto::write_frame(&mut stream, &payload).expect("send");
    let reply = proto::read_frame(&mut stream)
        .expect("answered")
        .expect("a reply frame");
    assert_eq!(
        proto::decode_reply(&reply).expect("reply decodes"),
        Err(inconsistent.into())
    );
    assert_eq!(daemon.stats().requests, 0, "nothing was admitted");
    daemon.shutdown();
}

#[test]
fn garbage_and_version_mismatch_get_protocol_errors_then_the_connection_closes() {
    use rt_service::proto;
    use std::net::TcpStream;

    let _suite = suite_guard();
    let daemon = ephemeral_daemon();

    // A structurally hopeless payload.
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    proto::write_frame(&mut stream, &[0xde, 0xad, 0xbe, 0xef]).expect("send garbage");
    let reply = proto::read_frame(&mut stream)
        .expect("the daemon answers before closing")
        .expect("a reply frame");
    match proto::decode_reply(&reply).expect("reply decodes") {
        Err(ServiceError::Protocol { .. }) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(
        proto::read_frame(&mut stream).expect("EOF after the error"),
        None,
        "the daemon closes a desynchronized connection"
    );

    // A valid request with the version byte flipped.
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut payload = proto::encode_request(&Request::summary(models::fifo_stg()));
    payload[0] = 0x7f;
    proto::write_frame(&mut stream, &payload).expect("send");
    let reply = proto::read_frame(&mut stream)
        .expect("answered")
        .expect("a reply frame");
    match proto::decode_reply(&reply).expect("reply decodes") {
        Err(ServiceError::Protocol { detail }) => {
            assert!(detail.contains("version"), "detail: {detail}");
        }
        other => panic!("expected a version error, got {other:?}"),
    }

    // An oversized length announcement never even yields a reply frame;
    // the daemon just drops the stream.
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    use std::io::Write as _;
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send a lying header");
    let reply = proto::read_frame(&mut stream).expect("daemon answers or closes");
    if let Some(frame) = reply {
        assert!(matches!(
            proto::decode_reply(&frame),
            Ok(Err(ServiceError::Protocol { .. }))
        ));
    }

    let stats = daemon.stats();
    assert_eq!(stats.protocol_errors, 3);
    assert_eq!(stats.requests, 0, "nothing malformed was ever admitted");
    daemon.shutdown();
}

#[cfg(feature = "fault-injection")]
mod faulted {
    use super::*;
    use rt_stg::faults::{arm, suite, Fault};

    #[test]
    fn worker_panic_crosses_the_wire_as_its_typed_error() {
        let _suite = suite();
        let daemon = ephemeral_daemon();
        let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
        let _fault = arm(Fault::ServicePanicAt { request: 0 }, 1);
        assert_eq!(
            client.submit(&Request::summary(models::fifo_stg())),
            Err(ServiceError::WorkerPanicked),
            "the panic-isolation typed error arrives verbatim"
        );
        let after = client
            .submit(&Request::summary(models::fifo_stg()))
            .expect("the pool serves the same connection after the panic");
        let direct = ReachEngine::symbolic()
            .summary(&models::fifo_stg())
            .expect("direct");
        match after.payload {
            ResponsePayload::Summary(outcome) => assert_eq!(outcome.markings, direct.markings),
            other => panic!("wrong payload kind: {other:?}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn injected_exhaustion_fails_once_and_stays_bit_identical_over_tcp() {
        let _suite = suite();
        // No room for a BDD fallback: an injected walk exhaustion fails
        // the whole request, and the error must cross the wire exactly
        // as a direct engine call returns it.
        let budget = rt_stg::Budget::default().with_max_bdd_nodes(1);
        let expected = {
            let _fault = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
            ReachEngine::explicit()
                .with_budget(budget.clone())
                .csc_check(&models::fifo_stg())
                .expect_err("the walk and its BDD fallback are both exhausted")
        };
        let config = ServiceConfig::builder()
            .budget(budget)
            .build()
            .expect("a soft node cap is a valid configuration");
        let daemon = Daemon::bind(config, "127.0.0.1:0").expect("bind ephemeral port");
        let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
        let fault = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
        assert_eq!(
            client.submit(&Request::csc_check(models::fifo_stg())),
            Err(ServiceError::Engine(expected)),
            "one attempt, and its typed error verbatim"
        );
        drop(fault);
        // The shot is spent and errors are not memoized: the same
        // request now walks cleanly on the same connection.
        let response = client
            .submit(&Request::csc_check(models::fifo_stg()))
            .expect("the next request is served");
        assert_eq!(response.retries, 0);
        assert!(response.degradations.is_empty(), "the walk was clean");
        let direct = ReachEngine::symbolic()
            .csc_conflicts_symbolic(&models::fifo_stg())
            .expect("direct");
        match response.payload {
            ResponsePayload::CscCheck(outcome) => {
                assert_eq!(outcome.markings, direct.markings);
                assert_eq!(outcome.conflicts, direct.conflicts);
            }
            other => panic!("wrong payload kind: {other:?}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn dropped_connection_mid_request_leaves_siblings_and_the_pool_unharmed() {
        let _suite = suite();
        let daemon = ephemeral_daemon();
        let addr = daemon.local_addr();
        // Wire index 0 gets its connection severed after admission.
        let _fault = arm(Fault::ServiceDropConnAt { request: 0 }, 1);
        let mut doomed = DaemonClient::connect(addr).expect("connect");
        assert_eq!(
            doomed.submit(&Request::summary(models::chain_stg(5))),
            Err(ServiceError::Disconnected),
            "the client observes the severed connection as Disconnected"
        );
        // A sibling connection is untouched and bit-identical.
        let mut sibling = DaemonClient::connect(addr).expect("connect sibling");
        let response = sibling
            .submit(&Request::summary(models::fifo_stg()))
            .expect("sibling serves");
        let direct = ReachEngine::symbolic()
            .summary(&models::fifo_stg())
            .expect("direct");
        match response.payload {
            ResponsePayload::Summary(outcome) => {
                assert_eq!(outcome.markings, direct.markings);
                assert_eq!(outcome.iterations, direct.iterations);
            }
            other => panic!("wrong payload kind: {other:?}"),
        }
        let stats = daemon.stats();
        assert_eq!(stats.disconnects, 1);
        assert_eq!(stats.protocol_errors, 0);
        // The dropped request was admitted and still runs to completion
        // service-side with nobody listening: its answer populates the
        // memo cache, so the same content over a fresh connection is a
        // cache hit. Wait for the orphan to finish first.
        assert_eq!(daemon.service_stats().admitted, 2);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while daemon.service_stats().completed < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "orphaned request never completed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut third = DaemonClient::connect(addr).expect("connect third");
        let replay = third
            .submit(&Request::summary(models::chain_stg(5)))
            .expect("replay of the dropped request");
        assert!(
            replay.cached,
            "the orphaned request's completed answer was cached"
        );
        daemon.shutdown();
    }
}
