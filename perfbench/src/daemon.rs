//! The daemon path: seeded requests over loopback TCP to an in-process
//! [`Daemon`] with `ServiceConfig::default()`, two connections, closed
//! loop. Also the three traced replays of one request stream: direct
//! engine, in-process service, then daemon.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rt_service::{
    proto, Daemon, DaemonClient, DaemonStats, Request, RequestPayload, Response, ServiceConfig,
    ServiceError, ServiceStats, SynthService,
};
use rt_stg::engine::ReachEngine;
use rt_stg::models;
use rt_synth::csc::resolve_csc_engine;
use rt_verify::verify_with_engine;

use crate::inputs::{verify_pool, Input, Mix, Op, PoolEntry, RequestStream};
use crate::oracle::{check_reply, reference, Outcome};
use crate::stats::peak_rss_mb;
use crate::trace::{Samples, Tracer};
use crate::CALLERS;

pub struct DaemonSetup {
    pub daemon: Daemon,
    clients: Vec<DaemonClient>,
    pub pool: Arc<Vec<PoolEntry>>,
    stream: Mutex<RequestStream>,
}

/// Builds the Verify pool and the stream, binds the daemon, connects
/// the clients and warms each connection with requests the stream never
/// generates.
pub fn setup(seed: u64, mix: Mix) -> DaemonSetup {
    let pool = Arc::new(verify_pool());
    let stream = Mutex::new(RequestStream::new(seed, mix, Arc::clone(&pool)));
    let daemon = Daemon::bind(ServiceConfig::default(), "127.0.0.1:0").expect("daemon binds");
    let clients: Vec<DaemonClient> = (0..CALLERS)
        .map(|_| DaemonClient::connect(daemon.local_addr()).expect("client connects"))
        .collect();
    let mut setup = DaemonSetup {
        daemon,
        clients,
        pool,
        stream,
    };
    // Chains of one and two stages: each connection warms with its own
    // pair, so warm-up leaves no cache hit behind.
    for (n, client) in setup.clients.iter_mut().enumerate() {
        client.ping(1).expect("warm-up ping");
        let chain = models::chain_stg(n + 1);
        for request in [Request::summary(chain.clone()), Request::csc_check(chain)] {
            client.submit(&request).expect("warm-up request");
        }
    }
    setup
}

pub struct Record {
    pub op: Op,
    pub latency_ns: u64,
    pub start: Instant,
    pub reply: Result<Response, ServiceError>,
}

/// The op of a closed loop at which its peak resident set is read. The
/// warm managers grow with every op served, so a reading at the loop's
/// end tracks how many ops the host's speed allowed; a reading at a
/// fixed op measures the same work every time. Both lie below what an
/// episode completes on the reference machine (`daemon_small` 80-90,
/// `daemon_wide` 34-52); a loop that stops short reads at its end.
pub fn rss_checkpoint(mix: Mix) -> usize {
    match mix {
        Mix::Small => 64,
        Mix::Wide => 24,
    }
}

/// Closed loop over all connections for `window`: each caller takes the
/// next op of the shared stream, submits it and waits for the reply.
/// Latency is measured client-side around `DaemonClient::submit`.
/// Returns the records, the loop time and the peak resident set in MB
/// as op `rss_at` was taken.
pub fn closed_loop(
    setup: &mut DaemonSetup,
    window: Duration,
    rss_at: usize,
) -> (Vec<Record>, Duration, f64) {
    let started = Instant::now();
    let stream = &setup.stream;
    let checkpoint = OnceLock::new();
    let checkpoint = &checkpoint;
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while started.elapsed() < window {
                        let op = stream.lock().expect("stream lock").next_op();
                        if op.seq == rss_at {
                            let _ = checkpoint.set(peak_rss_mb());
                        }
                        let start = Instant::now();
                        let reply = client.submit(&op.input.request);
                        mine.push(Record {
                            latency_ns: start.elapsed().as_nanos() as u64,
                            op,
                            start,
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let rss_mb = checkpoint.get().copied().unwrap_or_else(peak_rss_mb);
    records.sort_by_key(|r| r.op.seq);
    (records, elapsed, rss_mb)
}

/// Checks every record against a fresh direct call per distinct input,
/// computed after the timed window on all CPUs.
pub fn check(records: &[Record]) -> Vec<Outcome> {
    let mut inputs: Vec<&Arc<Input>> = records.iter().map(|r| &r.op.input).collect();
    inputs.sort_by_key(|i| i.id);
    inputs.dedup_by_key(|i| i.id);
    let next = Mutex::new(inputs.into_iter());
    let references: HashMap<usize, _> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(input) = next.lock().expect("work lock").next() {
                        done.push((input.id, reference(&input.request)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    records
        .iter()
        .map(|r| check_reply(&references[&r.op.input.id], &r.reply))
        .collect()
}

/// Pass indices of the request replays in the trace.
pub const ENGINE_PASS: u32 = 2;
pub const SERVICE_PASS: u32 = 3;
pub const DAEMON_PASS: u32 = 4;

/// Service and daemon counters, summed over daemons.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dedup_hits: u64,
    pub shed: u64,
    pub retries: u64,
    pub errors: u64,
    pub protocol_errors: u64,
    pub disconnects: u64,
    pub timeouts: u64,
}

impl Counters {
    pub fn add(&mut self, service: &ServiceStats, daemon: &DaemonStats) {
        self.cache_hits += service.cache_hits;
        self.cache_misses += service.cache_misses;
        self.dedup_hits += service.batch_dedup_hits;
        self.shed += service.shed + service.quota_sheds;
        self.retries += service.retries;
        self.errors += service.errors;
        self.protocol_errors += daemon.protocol_errors;
        self.disconnects += daemon.disconnects;
        self.timeouts += daemon.timeouts;
    }
}

/// What the replays measured beyond the samples.
pub struct Replay {
    pub live_nodes: usize,
    pub manager_reuses: usize,
    pub degradations: usize,
    /// The replay daemon's counters.
    pub counters: Counters,
    /// Engine and codec time covered by spans, and summed round trips,
    /// over the requests all three passes reached.
    pub covered_ns: u64,
    pub rtt_ns: u64,
}

/// Replays `inputs` (in op order, repeats included) serially through
/// the three layers, each pass bounded by `budget` and covering a
/// prefix of the previous pass's requests.
pub fn layer_passes(
    inputs: &[Arc<Input>],
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Replay {
    // Pass 1: direct calls on one symbolic engine fed the whole stream.
    let mut engine = ReachEngine::symbolic();
    let mut engine_ns = Vec::new();
    let started = Instant::now();
    for (req, input) in inputs.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let (name, metric) = match input.request.payload {
            RequestPayload::Summary { .. } => ("stg.summary", Some("stg.symbolic_summary_ns")),
            RequestPayload::CscCheck { .. } => {
                ("stg.csc_conflicts_symbolic", Some("stg.csc_symbolic_ns"))
            }
            RequestPayload::ResolveCsc { .. } => ("synth.resolve_csc_engine", None),
            RequestPayload::Verify { .. } => ("verify.verify_with_engine", None),
        };
        let ((), ns) = tracer.time(name, None, req as u64, ENGINE_PASS, || {
            direct(&input.request, &mut engine)
        });
        if let Some(metric) = metric {
            samples.add(metric, ns as f64);
        }
        engine_ns.push(ns);
    }

    // Pass 2: the in-process service, then the wire codec on the same
    // request and reply.
    let service = SynthService::start(ServiceConfig::default());
    let mut service_ns = Vec::new();
    let mut computed = Vec::new();
    let mut codec_ns = Vec::new();
    let started = Instant::now();
    for (req, input) in inputs[..engine_ns.len()].iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let req = req as u64;
        let root_id = tracer.begin("service.request", None, req, SERVICE_PASS);
        let root = Some(root_id);
        let (reply, ns) = tracer.time("service.submit", root, req, SERVICE_PASS, || {
            service.submit(input.request.clone())
        });
        samples.add("service.submit_ns", ns as f64);
        service_ns.push(ns);
        computed.push(reply.as_ref().is_ok_and(|r| !r.cached));
        let (request_bytes, enc) =
            tracer.time("proto.encode_request", root, req, SERVICE_PASS, || {
                proto::encode_request(&input.request)
            });
        let (reply_bytes, enc_reply) =
            tracer.time("proto.encode_reply", root, req, SERVICE_PASS, || {
                proto::encode_reply(&reply)
            });
        let (decoded, dec) = tracer.time("proto.decode_reply", root, req, SERVICE_PASS, || {
            proto::decode_reply(&reply_bytes)
        });
        assert!(decoded.is_ok(), "a reply the codec wrote must decode");
        samples.add("proto.encode_ns", enc as f64);
        samples.add("proto.decode_ns", dec as f64);
        samples.add("proto.request_bytes", request_bytes.len() as f64);
        samples.add("proto.reply_bytes", reply_bytes.len() as f64);
        codec_ns.push(enc + enc_reply + dec);
        tracer.end(root_id);
    }
    service.shutdown();

    // Pass 3: a fresh daemon, one connection, the same requests in the
    // same order, so each request meets the same cache state as in
    // pass 2 and the two can be matched per request.
    let daemon = Daemon::bind(ServiceConfig::default(), "127.0.0.1:0").expect("daemon binds");
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("client connects");
    let (mut covered_ns, mut rtt_total) = (0u64, 0u64);
    let started = Instant::now();
    for (req, input) in inputs[..service_ns.len()].iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let (_, rtt) = tracer.time("client.submit", None, req as u64, DAEMON_PASS, || {
            client.submit(&input.request)
        });
        samples.add("daemon.rtt_ns", rtt as f64);
        samples.add(
            "daemon.wire_overhead_ns",
            rtt as f64 - service_ns[req] as f64,
        );
        rtt_total += rtt;
        covered_ns += codec_ns[req] + if computed[req] { engine_ns[req] } else { 0 };
    }
    drop(client);
    let mut counters = Counters::default();
    counters.add(&daemon.service_stats(), &daemon.stats());
    daemon.shutdown();

    Replay {
        live_nodes: engine.manager_nodes(),
        manager_reuses: engine.stats().manager_reuses,
        degradations: engine.stats().degradations.len(),
        counters,
        covered_ns,
        rtt_ns: rtt_total,
    }
}

/// The direct engine call for one request (results are discarded; the
/// oracle checks answers separately).
fn direct(request: &Request, engine: &mut ReachEngine) {
    match &request.payload {
        RequestPayload::Summary { stg } => {
            let _ = engine.summary(stg);
        }
        RequestPayload::CscCheck { stg } => {
            let _ = engine.csc_conflicts_symbolic(stg);
        }
        RequestPayload::ResolveCsc { stg, options } => {
            let _ = resolve_csc_engine(stg, options, engine);
        }
        RequestPayload::Verify {
            netlist,
            spec,
            orderings,
        } => {
            let _ = verify_with_engine(netlist, spec, orderings, engine);
        }
    }
}
