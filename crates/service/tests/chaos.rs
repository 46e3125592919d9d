//! The chaos soak harness: a deterministic, seeded fault schedule
//! interleaving real work with connection drops, slow-loris stalls,
//! garbage frames, over-quota bursts, and mid-request severs — all
//! against one daemon. The invariants at stake:
//!
//! * every completed reply is **bit-identical** to a direct engine
//!   call, no matter what hostility ran next to it;
//! * the daemon ends drained (shutdown joins every thread) with
//!   counters that add up — every submission is accounted for as a
//!   completion, a shed, or a quota refusal, and every garbage frame
//!   is counted exactly once;
//! * no client observes a wrong answer, ever — hostile peers cost
//!   timeouts and closed connections, never corrupted replies.
//!
//! The schedule is seeded (`RT_CHAOS_SEED`, default `0xDAC99`) so a
//! failure reproduces exactly; the in-repo SplitMix64 `rand` shim keeps
//! it dependency-free. Runs without any feature flags — this is the
//! soak CI smokes on every build.

use std::io::Write as _;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_service::{
    proto, Daemon, DaemonClient, ReconnectingClient, Request, ResponsePayload, ServiceConfig,
    ServiceError,
};
use rt_stg::engine::ReachEngine;
use rt_stg::{models, Stg};

const THREADS: u64 = 3;
const OPS_PER_THREAD: u32 = 25;
const IO_TIMEOUT: Duration = Duration::from_millis(150);

fn seed() -> u64 {
    std::env::var("RT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDAC99)
}

/// The work corpus with its ground truth, computed by direct engine
/// calls before the daemon exists.
fn ground_truth() -> Vec<(Request, ResponsePayload)> {
    let specs: Vec<Stg> = vec![
        models::fifo_stg(),
        models::chain_stg(4),
        models::chain_stg(5),
        models::chain_stg(6),
    ];
    let mut out = Vec::new();
    for stg in &specs {
        let mut engine = ReachEngine::symbolic();
        let summary = engine.summary(stg).expect("direct summary");
        out.push((
            Request::summary(stg.clone()),
            ResponsePayload::Summary(rt_service::SummaryOutcome {
                markings: summary.markings,
                iterations: summary.iterations,
            }),
        ));
        let mut engine = ReachEngine::symbolic();
        let analysis = engine.csc_conflicts_symbolic(stg).expect("direct csc");
        out.push((
            Request::csc_check(stg.clone()),
            ResponsePayload::CscCheck(rt_service::CscCheckOutcome {
                markings: analysis.markings,
                conflicts: analysis.conflicts,
                deadlock_free: analysis.deadlock_free,
                strongly_connected: analysis.strongly_connected,
            }),
        ));
    }
    out
}

/// What one chaos thread did, for the end-of-soak accounting.
#[derive(Default)]
struct Tally {
    garbage: u64,
    loris: u64,
    severs: u64,
}

/// One hostile peer sending a structurally hopeless frame; the daemon
/// must answer with a typed protocol error and close.
fn garbage_op(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for garbage");
    proto::write_frame(&mut stream, &[0xde, 0xad, 0xbe, 0xef]).expect("send garbage");
    let reply = proto::read_frame(&mut stream)
        .expect("the daemon answers garbage")
        .expect("a reply frame");
    assert!(matches!(
        proto::decode_reply(&reply),
        Ok(Err(ServiceError::Protocol { .. }))
    ));
    assert_eq!(
        proto::read_frame(&mut stream).expect("EOF after garbage"),
        None
    );
}

/// One slow-loris peer: announces a frame, trickles bytes too slowly,
/// and must be answered with the timeout's protocol error.
fn loris_op(addr: std::net::SocketAddr) {
    let stream = TcpStream::connect(addr).expect("connect for loris");
    let mut writer = stream.try_clone().expect("clone for writer");
    let _ = writer.write_all(&32u32.to_le_bytes());
    let _ = writer.write_all(&[proto::PROTO_VERSION]);
    let mut reader = stream;
    let reply = proto::read_frame(&mut reader)
        .expect("the daemon answers the half-sent frame")
        .expect("a reply frame");
    match proto::decode_reply(&reply).expect("reply decodes") {
        Err(ServiceError::Protocol { detail }) => {
            assert!(detail.contains("io_timeout"), "detail: {detail}");
        }
        other => panic!("expected the timeout answer, got {other:?}"),
    }
}

/// One vanishing client: submits a full request and disappears before
/// the reply. The follow-up verification (done by the caller through
/// its reconnecting client) proves the orphan never corrupted state.
fn sever_op(addr: std::net::SocketAddr, request: &Request) {
    let mut stream = TcpStream::connect(addr).expect("connect for sever");
    proto::write_frame(&mut stream, &proto::encode_request(request)).expect("send then vanish");
    // Dropped here — mid-request from the daemon's point of view.
}

/// An over-quota burst: three concurrent submissions under one client
/// identity with a quota of two. Every reply must be either a correct
/// answer or the typed quota refusal — never a wrong answer, a hang,
/// or a severed connection.
fn burst_op(
    addr: std::net::SocketAddr,
    identity: &str,
    work: &[(Request, ResponsePayload)],
) -> u64 {
    let refused = std::sync::atomic::AtomicU64::new(0);
    thread::scope(|scope| {
        for (request, expected) in work {
            let refused = &refused;
            scope.spawn(move || {
                let mut client = DaemonClient::connect(addr).expect("connect for burst");
                client.hello(identity).expect("hello");
                match client.submit(request) {
                    Ok(response) => assert_eq!(&response.payload, expected),
                    Err(ServiceError::QuotaExceeded { client: c, .. }) => {
                        assert_eq!(c, identity);
                        refused.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(other) => panic!("burst got a non-quota failure: {other}"),
                }
            });
        }
    });
    refused.into_inner()
}

#[test]
fn seeded_chaos_soak_leaves_replies_bit_identical_and_counters_consistent() {
    let seed = seed();
    eprintln!("chaos soak seed: {seed:#x} (set RT_CHAOS_SEED to reproduce)");
    let truth = ground_truth();
    let config = ServiceConfig::builder()
        .workers(2)
        .max_inflight_per_client(2)
        .io_timeout(IO_TIMEOUT)
        .drain_deadline(Duration::from_secs(2))
        .build()
        .expect("valid config");
    let daemon = Daemon::bind(config, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = daemon.local_addr();

    let tallies: Vec<Tally> = thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let truth = &truth;
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t));
                let mut rc = ReconnectingClient::connect(addr, &format!("chaos-{t}"))
                    .expect("connect reconnecting client")
                    .with_max_reconnects(5);
                let mut tally = Tally::default();
                for _ in 0..OPS_PER_THREAD {
                    match rng.gen_range(0u32..100) {
                        // Ordinary work, bit-identical or bust.
                        0..=44 => {
                            let (request, expected) = &truth[rng.gen_range(0..truth.len())];
                            let reply = rc.submit(request).expect("chaos work reply");
                            assert_eq!(&reply.payload, expected);
                        }
                        // Health checks echo exactly.
                        45..=54 => {
                            let nonce: u64 = rng.gen();
                            assert_eq!(rc.ping(nonce).expect("pong"), nonce);
                        }
                        // Garbage frames are counted and contained.
                        55..=64 => {
                            garbage_op(addr);
                            tally.garbage += 1;
                        }
                        // Slow-loris peers hit the frame deadline.
                        65..=74 => {
                            loris_op(addr);
                            tally.loris += 1;
                        }
                        // Vanish mid-request, then prove the orphan's
                        // content still answers correctly.
                        75..=84 => {
                            let (request, expected) = &truth[rng.gen_range(0..truth.len())];
                            sever_op(addr, request);
                            tally.severs += 1;
                            let reply = rc.submit(request).expect("post-sever verification");
                            assert_eq!(&reply.payload, expected);
                        }
                        // Over-quota burst under a dedicated identity.
                        _ => {
                            let start = rng.gen_range(0..truth.len());
                            let work: Vec<_> = (0..3)
                                .map(|i| truth[(start + 2 * i) % truth.len()].clone())
                                .collect();
                            burst_op(addr, &format!("glutton-{t}"), &work);
                        }
                    }
                }
                tally
            }));
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("chaos thread"))
            .collect()
    });

    let garbage: u64 = tallies.iter().map(|t| t.garbage).sum();
    let loris: u64 = tallies.iter().map(|t| t.loris).sum();
    let severs: u64 = tallies.iter().map(|t| t.severs).sum();
    eprintln!("chaos ops: garbage={garbage} loris={loris} severs={severs}");

    // Severed requests may still be running as orphans; the accounting
    // identity holds once the service has drained them all.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s = daemon.service_stats();
        if s.submitted == s.completed + s.shed + s.quota_sheds {
            break;
        }
        assert!(Instant::now() < deadline, "the soak never drained: {s:?}");
        thread::sleep(Duration::from_millis(10));
    }

    let stats = daemon.stats();
    let service = daemon.service_stats();
    eprintln!("daemon after soak: {stats:?}");
    eprintln!("service after soak: {service:?}");
    // Hostility is counted exactly where it belongs: every garbage
    // frame is a protocol error, every loris at least a timeout (idle
    // reconnecting-client connections may add quiet timeouts of their
    // own — that is the daemon reclaiming resources, not an anomaly).
    assert_eq!(stats.protocol_errors, garbage);
    assert!(
        stats.timeouts >= loris,
        "every loris must hit the deadline: {} < {loris}",
        stats.timeouts
    );
    assert!(
        stats.requests >= severs,
        "severed submissions were admitted"
    );
    assert_eq!(
        service.submitted,
        service.completed + service.shed + service.quota_sheds,
        "every submission is a completion, a shed, or a quota refusal"
    );
    assert_eq!(
        service.submitted,
        service.cache_hits + service.cache_misses + service.idempotent_replays,
        "every submission is one memo lookup or one idempotent replay"
    );
    assert_eq!(service.worker_panics, 0);
    // Shutdown must drain and join every thread — a leaked handler or
    // worker would hang the test right here.
    daemon.shutdown();
}
