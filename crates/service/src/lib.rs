//! # rt-service — supervised synthesis/verification service
//!
//! The long-running front the DAC-99 flow is meant to be driven
//! through: clients submit [`Request`]s to a [`SynthService`] whose
//! worker pool sits behind admission control. Each request runs on its
//! own freshly built [`rt_stg::ReachEngine`], so its BDD manager is
//! freed when the request ends and no answer depends on what the pool
//! served before. `Summary`, `CscCheck` and `Verify` run on explicit
//! engines (BDDs only past the engine's state ceiling); `ResolveCsc`
//! runs on a symbolic engine, which audits the accepted encoding with
//! BDDs. Zero external dependencies — `std` threads, channels and
//! condvars only.
//!
//! What the service adds over direct engine calls:
//!
//! * **Worker pool + supervision** — a fixed set of worker threads,
//!   each running one request at a time on a per-request engine;
//!   panics are caught and isolated, the panicking request's engine is
//!   discarded, and the worker keeps serving. The pool never wedges.
//! * **Admission control** — a bounded queue; overload is answered
//!   *immediately* with a typed [`ServiceError::Shed`] carrying the
//!   queue depth, and per-request deadlines become hard
//!   [`Budget`](rt_stg::Budget) deadlines.
//! * **Retry with bounded backoff** — soft resource exhaustion that
//!   survives the engine's own BDD fallback is retried a bounded
//!   number of times, with pauses capped by the remaining deadline.
//! * **Memo cache** — a bounded LRU of successful replies keyed by the
//!   request's *exact* payload bytes (its canonical wire encoding,
//!   names included), so a hit is exactly the answer to the caller's own
//!   input. Degraded results are cached **with** their degradations,
//!   so a hit never silently upgrades a partial answer to a full one.
//! * **Batch scheduling with single-flight dedup** — admitted requests
//!   drain in deterministic admission order, and identical in-flight
//!   requests (same payload bytes, no deadline) coalesce onto one
//!   engine dispatch whose answer fans out to every waiter. Memo
//!   entries, open flights and idempotency records are rows of one
//!   table.
//! * **A wire front-end** — [`Daemon`] serves the same API over TCP via
//!   the hand-rolled [`proto`] protocol (`std::net` only), with
//!   [`DaemonClient`] as the matching blocking client and the
//!   `rt-daemon` binary as the CLI entry point.
//! * **Survivability** — every connection carries read/write deadlines
//!   (slow-loris defense), `Ping`/`Pong` health checks and `Hello`
//!   client identities ride the same protocol, per-client fairness
//!   quotas shed greedy tenants with a typed
//!   [`ServiceError::QuotaExceeded`], and [`ReconnectingClient`]
//!   resubmits across severed connections under idempotency keys that
//!   guarantee exactly-once execution.
//!
//! Results are bit-identical to direct engine calls — pinned by the
//! concurrency determinism suite in `tests/determinism.rs` and over the
//! wire by `tests/daemon.rs`, including under injected faults.
//!
//! ## Example
//!
//! ```
//! use rt_service::{Request, ResponsePayload, ServiceConfig, SynthService};
//! use rt_stg::models;
//!
//! let service = SynthService::start(ServiceConfig::default());
//! let first = service.submit(Request::summary(models::fifo_stg())).unwrap();
//! match &first.payload {
//!     ResponsePayload::Summary(outcome) => assert_eq!(outcome.markings, 18),
//!     _ => unreachable!(),
//! }
//! assert!(!first.cached);
//!
//! // Same specification again: served from the memo cache.
//! let again = service.submit(Request::summary(models::fifo_stg())).unwrap();
//! assert!(again.cached);
//! assert_eq!(again.payload, first.payload);
//! assert!(service.stats().cache_hit_rate() > 0.0);
//! service.shutdown();
//! ```

mod client;
mod daemon;
mod error;
mod flight;
pub mod proto;
mod reconnect;
mod request;
mod service;

pub use client::DaemonClient;
pub use daemon::{Daemon, DaemonStats};
pub use error::ServiceError;
pub use reconnect::ReconnectingClient;
pub use request::{
    CscCheckOutcome, Request, RequestPayload, ResolveOutcome, Response, ResponsePayload,
    SummaryOutcome,
};
pub use service::{ServiceConfig, ServiceConfigBuilder, ServiceStats, SynthService, Ticket};
