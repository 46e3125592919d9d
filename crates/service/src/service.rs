//! The supervised service: per-request engines, bounded admission
//! queue, panic isolation, and the flight table front.
//!
//! # Architecture
//!
//! [`SynthService::start`] spawns `workers` OS threads. A worker keeps
//! no engine between jobs: each job runs once, on a freshly built
//! [`ReachEngine`] carrying the job's budget, so its BDD manager is
//! freed when the job ends and a reply never depends on what the
//! worker served before. Exact repeats are served by the flight table
//! instead.
//!
//! `Summary`, `CscCheck` and `Verify` run on explicit engines, which
//! walk state graphs up to a ceiling and hand larger nets to BDDs (see
//! `rt_stg::engine`). `ResolveCsc` runs on a symbolic engine, so the
//! encoding it accepts is audited against the BDD analysers.
//!
//! Clients [`submit`](SynthService::submit) a [`Request`] and block
//! for the `Result<Response, ServiceError>`; the non-blocking
//! split is [`enqueue`](SynthService::enqueue), which returns a
//! [`Ticket`] whose [`Ticket::wait`] blocks for the answer. Admission
//! is a bounded queue — a full queue refuses the request *immediately*
//! with [`ServiceError::Shed`] carrying the observed depth, so overload
//! is deterministic backpressure, never an unbounded pile-up.
//!
//! # The flight table: memo hits and single-flight dedup
//!
//! Admitted jobs drain in deterministic FIFO admission order. In front
//! of the queue, under the same lock, sits one table keyed on the
//! request's exact payload bytes, names included (`flight.rs`). A row
//! is a flight — opened at admission, closed at reply fan-out — or a
//! finished flight's recorded success, which answers a later identical
//! request at once as a [`Response::cached`] memo hit. An identical
//! deadline-free request arriving while the flight is open joins it
//! and receives a clone of the same reply, so N identical concurrent
//! requests cost one engine dispatch
//! ([`ServiceStats::batch_dedup_hits`] counts the joiners).
//! Deadline-carrying requests take memo hits but never open or join a
//! flight: a follower must not inherit a leader's
//! [`StgError::Cancelled`], and a leader's deadline must not be
//! answered with a slower sibling's fate. Joined requests bypass the
//! queue-capacity check (they occupy no queue slot) and are counted
//! admitted; the flight leader's admission index is the one the fault
//! hooks select on.
//!
//! # Fairness quotas and idempotent replay
//!
//! Requests may carry a *client identity* ([`Request::client`] — the
//! daemon stamps it from the connection's `Hello` frame). When
//! [`ServiceConfig::max_inflight_per_client`] is nonzero, each identity
//! is capped at that many admitted-but-incomplete fresh dispatches; the
//! next one is refused immediately with
//! [`ServiceError::QuotaExceeded`], so one greedy tenant can never
//! occupy the whole queue. Deadline-free requests may also carry an
//! *idempotency key* ([`Request::idempotency`]), whose row in the same
//! table is scoped per client identity and payload: the first
//! submission executes, and any resubmission of the same request under
//! the same key joins that flight or replays its recorded reply — one
//! key, one execution, one recorded fate. A keyed request checks that
//! row before taking a memo hit and never joins an unkeyed flight.
//! This is the safe-retry contract [`crate::ReconnectingClient`]
//! relies on after a severed connection;
//! [`ServiceStats::idempotent_replays`] counts both forms.
//!
//! # Supervision
//!
//! Each worker runs requests inside `catch_unwind`. A panic is
//! isolated: the request gets a typed [`ServiceError::WorkerPanicked`],
//! the engine it was running on is discarded with the unwind (counted
//! in [`ServiceStats::worker_panics`]), and the worker keeps serving.
//!
//! # Failures and deadlines
//!
//! A job gets one attempt. Soft exhaustion that survives the engine's
//! own BDD fallback comes back at once as its typed error: a second
//! attempt would replay a fresh engine on the same input under the same
//! budget and fail the same way. Deadlines are hard: they surface as
//! [`StgError::Cancelled`].

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rt_stg::engine::ReachEngine;
use rt_stg::{faults, Budget, StgError};
use rt_synth::csc::resolve_csc_engine;
use rt_verify::verify_with_budget;

use crate::error::ServiceError;
use crate::flight::{FlightKey, FlightTable, Slot};
use crate::proto::encode_payload;
use crate::request::{
    CscCheckOutcome, Request, RequestPayload, ResolveOutcome, Response, ResponsePayload,
    SummaryOutcome,
};

/// Tuning of one [`SynthService`]. `Default` is sized for tests and
/// embedded use: two workers and a small bounded queue.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pooled worker threads, each running one request at a time on a
    /// per-request engine; clamped to ≥ 1.
    pub workers: usize,
    /// Bounded admission queue: requests beyond this many *waiting*
    /// (not yet picked up) are shed. `0` sheds everything — useful for
    /// overload tests.
    pub queue_capacity: usize,
    /// Successful replies kept for exact repeats (memo hits), evicted
    /// least-recently-used; `0` disables memo hits, not flight joins.
    pub cache_capacity: usize,
    /// Baseline budget each request runs under; a request deadline is
    /// layered on top of a fresh clone per request.
    pub budget: Budget,
    /// Per-client fairness quota: how many requests one client identity
    /// ([`Request::client`]) may have admitted-but-incomplete at once.
    /// The next one is refused with [`ServiceError::QuotaExceeded`].
    /// `0` disables quotas; requests without a client identity
    /// (in-process callers) are always exempt.
    pub max_inflight_per_client: usize,
    /// Per-connection I/O deadline the daemon enforces: reading one
    /// frame (however slowly its bytes trickle in) and writing one
    /// reply must each finish within this allowance. Unused by the
    /// in-process service.
    pub io_timeout: Duration,
    /// How long [`crate::Daemon::shutdown`] lets in-flight connections
    /// finish before severing them. Unused by the in-process service.
    pub drain_deadline: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            budget: Budget::default(),
            max_inflight_per_client: 0,
            io_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

impl ServiceConfig {
    /// A validating builder seeded from [`ServiceConfig::default`]: set
    /// what differs, then [`build`](ServiceConfigBuilder::build). This
    /// is the intended construction path — free-field struct literals
    /// remain possible (the fields are `pub`) but skip validation.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }
}

/// Builder for [`ServiceConfig`] ([`ServiceConfig::builder`]). Each
/// setter overrides one default; [`build`](Self::build) validates the
/// combination and rejects nonsense (a zero-size pool or queue, a zero
/// I/O deadline) with [`ServiceError::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Pooled worker threads (validated ≥ 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bounded admission-queue capacity (validated ≥ 1; the
    /// shed-everything `0` configuration is for overload tests and only
    /// reachable through a struct literal).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Successful replies kept for memo hits (`0` disables them).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Baseline budget each request runs under.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Per-client fairness quota (`0` disables quotas).
    #[must_use]
    pub fn max_inflight_per_client(mut self, quota: usize) -> Self {
        self.config.max_inflight_per_client = quota;
        self
    }

    /// Per-connection I/O deadline of the daemon (validated nonzero).
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.config.io_timeout = timeout;
        self
    }

    /// Graceful-drain allowance of [`crate::Daemon::shutdown`].
    #[must_use]
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.config.drain_deadline = deadline;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when `workers == 0`,
    /// `queue_capacity == 0`, or `io_timeout` is zero.
    pub fn build(self) -> Result<ServiceConfig, ServiceError> {
        let invalid = |detail: &str| {
            Err(ServiceError::InvalidConfig {
                detail: detail.to_string(),
            })
        };
        let config = self.config;
        if config.workers == 0 {
            return invalid("workers must be >= 1 (a pool needs at least one engine)");
        }
        if config.queue_capacity == 0 {
            return invalid("queue_capacity must be >= 1 (0 sheds every request)");
        }
        if config.io_timeout.is_zero() {
            return invalid("io_timeout must be nonzero (every read would expire instantly)");
        }
        Ok(config)
    }
}

/// Monotonic service counters, all updated with relaxed atomics — the
/// numbers are observability, not synchronization.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batch_dedup_hits: AtomicU64,
    quota_sheds: AtomicU64,
    idempotent_replays: AtomicU64,
    worker_panics: AtomicU64,
    degraded: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time snapshot of the service counters
/// ([`SynthService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests submitted (including shed and cache-served ones).
    pub submitted: u64,
    /// Requests admitted to the worker queue.
    pub admitted: u64,
    /// Requests that produced a reply (success or typed error),
    /// including cache hits.
    pub completed: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests served from a recorded reply to the same exact payload
    /// without touching the pool.
    pub cache_hits: u64,
    /// Requests that found no recorded reply to their exact payload.
    /// Every submission not answered by its idempotency key is exactly
    /// one hit or one miss.
    pub cache_misses: u64,
    /// Requests that joined an already queued or in-flight identical
    /// request instead of dispatching their own (single-flight dedup).
    pub batch_dedup_hits: u64,
    /// Requests refused because their client identity was over its
    /// [`ServiceConfig::max_inflight_per_client`] quota.
    pub quota_sheds: u64,
    /// Requests answered by their idempotency key instead of a fresh
    /// execution: a resubmit that joined the original flight still in
    /// progress or replayed its recorded reply.
    pub idempotent_replays: u64,
    /// Always 0: the service runs each request once (see the module
    /// docs). Kept while perfbench reads it; it goes with
    /// [`Response::retries`] at the next protocol version.
    pub retries: u64,
    /// Worker panics caught and isolated. Every engine is
    /// per-request, so each panic also discards the engine it ran on.
    pub worker_panics: u64,
    /// Successful responses that carried at least one degradation.
    pub degraded: u64,
    /// Requests that ended in a typed error.
    pub errors: u64,
}

impl ServiceStats {
    /// Cache hits over cacheable lookups, `0.0` before any lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

pub(crate) type Reply = Result<Response, ServiceError>;

struct Job {
    payload: RequestPayload,
    budget: Budget,
    /// 0-based admission index — the counter the service fault hooks
    /// ([`faults::service_panic`], [`faults::service_stall`]) select on.
    /// Requests that *join* a flight never get their own index.
    seq: usize,
    /// The payload's exact key, which a success records.
    exact: FlightKey,
    /// Where the reply goes.
    reply_to: ReplyTo,
    /// Client identity whose quota slot this job occupies (released at
    /// reply fan-out).
    client: Option<String>,
}

enum ReplyTo {
    /// The flight this job opened at admission: its exact row, or its
    /// idempotency row for a keyed request.
    Flight(FlightKey),
    /// The lone submitter of a deadline-carrying request, which opens
    /// no flight.
    Submitter(mpsc::Sender<Reply>),
}

struct QueueState {
    jobs: VecDeque<Job>,
    flights: FlightTable,
    /// Client identity → admitted-but-incomplete request count, the
    /// gauge [`ServiceConfig::max_inflight_per_client`] caps.
    per_client: HashMap<String, usize>,
    open: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    counters: Counters,
    config: ServiceConfig,
    admissions: AtomicUsize,
    /// Admission indices in the order workers popped them — the
    /// observable the deterministic-drain-order tests pin. Test-only
    /// state, compiled out of production builds.
    #[cfg(feature = "fault-injection")]
    drained: Mutex<Vec<usize>>,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pending (or already-resolved) reply to one submitted request.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    Ready(Box<Reply>),
    Pending(mpsc::Receiver<Reply>),
}

impl Ticket {
    fn ready(reply: Reply) -> Self {
        Ticket {
            inner: TicketInner::Ready(Box::new(reply)),
        }
    }

    /// Blocks until the request completes. If the service shuts down
    /// with the request still queued, this resolves to
    /// [`ServiceError::ShuttingDown`] rather than hanging.
    pub fn wait(self) -> Reply {
        match self.inner {
            TicketInner::Ready(reply) => *reply,
            TicketInner::Pending(receiver) => {
                receiver.recv().unwrap_or(Err(ServiceError::ShuttingDown))
            }
        }
    }
}

/// The supervised synthesis/verification service. See the module docs
/// for the architecture; construction is [`SynthService::start`],
/// teardown is [`SynthService::shutdown`] (or `Drop`, which joins the
/// pool after draining the queue).
pub struct SynthService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SynthService {
    /// Spawns the worker pool and returns the running service.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                flights: FlightTable::new(config.cache_capacity),
                per_client: HashMap::new(),
                open: true,
            }),
            available: Condvar::new(),
            counters: Counters::default(),
            config,
            admissions: AtomicUsize::new(0),
            #[cfg(feature = "fault-injection")]
            drained: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("rt-service-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        SynthService {
            shared,
            workers: handles,
        }
    }

    /// **The** entry point: submits `request` through admission control
    /// and blocks until its `Result<Response, ServiceError>` is ready.
    /// All four request kinds go through here — the payload enum (with
    /// its wire-stable discriminants) replaces per-kind methods. For
    /// the non-blocking split, see [`enqueue`](SynthService::enqueue).
    pub fn submit(&self, request: Request) -> Reply {
        self.enqueue(request).wait()
    }

    /// Submits a request through admission control without blocking.
    /// Returns immediately with a [`Ticket`]: already resolved on a
    /// memo hit, an idempotent replay, a shed, or a closed service;
    /// otherwise pending on the pool. An identical deadline-free
    /// request already queued or executing is *joined* rather than
    /// re-dispatched (see the module docs on the flight table).
    pub fn enqueue(&self, request: Request) -> Ticket {
        let counters = &self.shared.counters;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        let mut budget = self.shared.config.budget.clone();
        if let Some(allowance) = request.deadline {
            budget.deadline = Some(Instant::now() + allowance);
        }
        let bytes: Arc<[u8]> = encode_payload(&request.payload).into();
        // The row this request opens or joins, if any: its idempotency
        // row when keyed, its exact row otherwise. Deadline-carrying
        // requests ignore their key and never share a flight.
        let flight = match (request.deadline, request.idempotency) {
            (Some(_), _) => None,
            (None, None) => Some(FlightKey::Exact(Arc::clone(&bytes))),
            (None, Some(token)) => Some(FlightKey::Idempotent {
                client: request.client.clone(),
                token,
                payload: Arc::clone(&bytes),
            }),
        };
        let exact = FlightKey::Exact(bytes);
        let (sender, receiver) = mpsc::channel();
        let pending = Ticket {
            inner: TicketInner::Pending(receiver),
        };
        let mut guard = lock(&self.shared.queue);
        let queue = &mut *guard;
        // The idempotency row comes first: a resubmit must always be
        // visible as an idempotent replay, never silently absorbed by a
        // memo hit.
        if let Some(key @ FlightKey::Idempotent { .. }) = &flight {
            match queue.flights.get(key) {
                Some(Slot::Done { reply, .. }) => {
                    counters.idempotent_replays.fetch_add(1, Ordering::Relaxed);
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    return Ticket::ready(reply.clone());
                }
                Some(Slot::InFlight(waiters)) => {
                    waiters.push(sender);
                    counters.idempotent_replays.fetch_add(1, Ordering::Relaxed);
                    counters.admitted.fetch_add(1, Ordering::Relaxed);
                    return pending;
                }
                None => {}
            }
        }
        match queue.flights.get(&exact) {
            Some(Slot::Done {
                reply: Ok(response),
                ..
            }) => {
                counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                counters.completed.fetch_add(1, Ordering::Relaxed);
                let mut hit = response.clone();
                hit.cached = true;
                return Ticket::ready(Ok(hit));
            }
            slot => {
                counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                if !queue.open {
                    return Ticket::ready(Err(ServiceError::ShuttingDown));
                }
                // A keyed request's exactly-once guarantee must come
                // from its own row, never from a stranger's flight.
                if let Some(Slot::InFlight(waiters)) = slot {
                    if matches!(flight, Some(FlightKey::Exact(_))) {
                        waiters.push(sender);
                        counters.admitted.fetch_add(1, Ordering::Relaxed);
                        counters.batch_dedup_hits.fetch_add(1, Ordering::Relaxed);
                        return pending;
                    }
                }
            }
        }
        // Per-client fairness quota — fresh dispatches only (flight
        // joins above occupy no worker and no queue slot).
        if let Some(client) = &request.client {
            let quota = self.shared.config.max_inflight_per_client;
            if quota > 0 {
                let inflight = queue.per_client.get(client).copied().unwrap_or(0);
                if inflight >= quota {
                    counters.quota_sheds.fetch_add(1, Ordering::Relaxed);
                    return Ticket::ready(Err(ServiceError::QuotaExceeded {
                        client: client.clone(),
                        inflight,
                    }));
                }
            }
        }
        if queue.jobs.len() >= self.shared.config.queue_capacity {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            return Ticket::ready(Err(ServiceError::Shed {
                queue_depth: queue.jobs.len(),
            }));
        }
        let seq = self.shared.admissions.fetch_add(1, Ordering::Relaxed);
        counters.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(client) = &request.client {
            *queue.per_client.entry(client.clone()).or_insert(0) += 1;
        }
        // Open the flight: its row, looked up above, is vacant here.
        let reply_to = match flight {
            Some(key) => {
                queue.flights.open(key.clone(), sender);
                ReplyTo::Flight(key)
            }
            None => ReplyTo::Submitter(sender),
        };
        queue.jobs.push_back(Job {
            payload: request.payload,
            budget,
            seq,
            exact,
            reply_to,
            client: request.client,
        });
        drop(guard);
        self.shared.available.notify_one();
        pending
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            batch_dedup_hits: c.batch_dedup_hits.load(Ordering::Relaxed),
            quota_sheds: c.quota_sheds.load(Ordering::Relaxed),
            idempotent_replays: c.idempotent_replays.load(Ordering::Relaxed),
            retries: 0,
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    /// Successful replies currently held for memo hits.
    pub fn cache_len(&self) -> usize {
        lock(&self.shared.queue).flights.memo_len()
    }

    /// Admission indices in the order workers popped them off the
    /// queue — the deterministic-drain-order observable. Test-only
    /// (`fault-injection` builds); production builds record nothing.
    #[cfg(feature = "fault-injection")]
    pub fn drain_log(&self) -> Vec<usize> {
        lock(&self.shared.drained).clone()
    }

    fn stop(&mut self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.open = false;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stops admitting, drains already-queued requests, joins the pool.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for SynthService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Shared) {
    let counters = &shared.counters;
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            let job = loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if !queue.open {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            #[cfg(feature = "fault-injection")]
            lock(&shared.drained).push(job.seq);
            job
        };
        if let Some(stall) = faults::service_stall(job.seq) {
            thread::sleep(stall);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if faults::service_panic(job.seq) {
                panic!("injected service-worker fault");
            }
            process(&job)
        }));
        let reply = match outcome {
            Ok(reply) => {
                match &reply {
                    Ok(response) => {
                        if !response.degradations.is_empty() {
                            counters.degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(_) => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                reply
            }
            Err(_) => {
                // The unwind already dropped the request's engine, so
                // no half-mutated manager outlives the panic.
                counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                counters.errors.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::WorkerPanicked)
            }
        };
        // Close the flight, collect everyone waiting on it and record
        // the outcome, all in one critical section: a racing identical
        // request either joined the flight (and is fanned out below) or
        // finds the recorded reply.
        let waiters = {
            let mut queue = lock(&shared.queue);
            // Release the client's quota slot.
            if let Some(client) = &job.client {
                if let Some(slot) = queue.per_client.get_mut(client) {
                    *slot = slot.saturating_sub(1);
                    if *slot == 0 {
                        queue.per_client.remove(client);
                    }
                }
            }
            let waiters = match job.reply_to {
                ReplyTo::Flight(key) => {
                    let waiters = queue.flights.close(&key);
                    // One key is one execution with one recorded fate:
                    // an idempotency row keeps errors too.
                    if !key.is_exact() {
                        queue.flights.record(key, &reply);
                    }
                    waiters
                }
                ReplyTo::Submitter(submitter) => vec![submitter],
            };
            if reply.is_ok() {
                queue.flights.record(job.exact, &reply);
            }
            waiters
        };
        // Count completions *before* replying: a client that reads
        // stats right after `wait` must see its own request counted.
        counters
            .completed
            .fetch_add(waiters.len() as u64, Ordering::Relaxed);
        for waiter in waiters {
            // A client that dropped its ticket is not an error.
            let _ = waiter.send(reply.clone());
        }
    }
}

/// Runs one admitted job on a fresh engine; the response carries the
/// degradations that engine recorded.
fn process(job: &Job) -> Result<Response, ServiceError> {
    if job.budget.cancelled() {
        return Err(ServiceError::Engine(StgError::Cancelled));
    }
    let engine = match job.payload {
        RequestPayload::ResolveCsc { .. } => ReachEngine::symbolic(),
        _ => ReachEngine::explicit(),
    };
    let mut engine = engine.with_budget(job.budget.clone());
    let payload = run_once(&mut engine, &job.payload, &job.budget)?;
    Ok(Response {
        payload,
        degradations: engine.stats().degradations.clone(),
        cached: false,
        retries: 0,
    })
}

fn run_once(
    engine: &mut ReachEngine,
    payload: &RequestPayload,
    budget: &Budget,
) -> Result<ResponsePayload, ServiceError> {
    match payload {
        RequestPayload::Summary { stg } => {
            let summary = engine.summary(stg)?;
            Ok(ResponsePayload::Summary(SummaryOutcome {
                markings: summary.markings,
                iterations: summary.iterations,
            }))
        }
        RequestPayload::CscCheck { stg } => {
            let check = engine.csc_check(stg)?;
            Ok(ResponsePayload::CscCheck(CscCheckOutcome {
                markings: check.markings,
                conflicts: check.conflicts,
                deadlock_free: check.deadlock_free,
                strongly_connected: check.strongly_connected,
            }))
        }
        RequestPayload::ResolveCsc { stg, options } => {
            let resolution = resolve_csc_engine(stg, options, engine)?;
            Ok(ResponsePayload::ResolveCsc(Box::new(ResolveOutcome {
                stg: resolution.stg,
                inserted: resolution.inserted,
                cost: resolution.cost,
                truncated: resolution.truncated,
            })))
        }
        RequestPayload::Verify {
            netlist,
            spec,
            orderings,
        } => {
            let sg = engine.state_graph(spec)?;
            let report = verify_with_budget(netlist, &sg, orderings, budget)?;
            Ok(ResponsePayload::Verify(report))
        }
    }
}
