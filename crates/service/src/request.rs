//! Request and response types of the synthesis service.

use std::time::Duration;

use rt_netlist::Netlist;
use rt_stg::engine::Degradation;
use rt_stg::Stg;
use rt_synth::csc::CscOptions;
use rt_verify::{NetOrdering, VerifyReport};

/// What a client asks the service to compute.
#[derive(Debug, Clone)]
pub enum RequestPayload {
    /// Count the reachable markings of `stg`
    /// ([`rt_stg::ReachEngine::summary`] on an explicit engine: an
    /// explicit walk, BDDs past its state ceiling or the budget's
    /// `max_states`).
    Summary {
        /// The specification to analyse.
        stg: Stg,
    },
    /// CSC conflict count, deadlock freedom and strong connectivity of
    /// `stg` ([`rt_stg::ReachEngine::csc_check`] on an explicit engine:
    /// the coded state graph, BDDs past its state ceiling or the
    /// budget's `max_states`; ≤ 64 signals).
    CscCheck {
        /// The specification to analyse.
        stg: Stg,
    },
    /// Resolve CSC conflicts by state-signal insertion.
    ResolveCsc {
        /// The specification to rewrite.
        stg: Stg,
        /// Search tuning. Only `max_signals` and
        /// `critical_path_penalty` change the answer. The candidate
        /// search runs serially on the job's worker thread, and
        /// `threads` and `symbolic_threshold` have no effect. Both
        /// fields still travel on the wire, though, so two requests
        /// that differ only in them get different flight keys, though
        /// their answers are equal.
        options: CscOptions,
    },
    /// Verify a gate-level circuit against its specification with
    /// [`rt_verify::verify_with_budget`] on the specification's
    /// explicit state graph. A composed walk past the budget's
    /// `max_states` or 2^18 states is an error, never a verdict. A
    /// composed state codes one bit per net, so a netlist of more than
    /// 64 nets is refused with `StgError::TooManySignals`, and one with a
    /// gate fed an input count its kind does not take with
    /// `StgError::InvalidNetlist` (the wire refuses the latter at decode,
    /// as an inconsistent payload). The report passes exactly when its
    /// failure list is empty.
    Verify {
        /// The circuit.
        netlist: Netlist,
        /// The specification.
        spec: Stg,
        /// Relative-timing orderings to assume.
        orderings: Vec<NetOrdering>,
    },
}

impl RequestPayload {
    /// Stable discriminant of [`RequestPayload::Summary`], the first
    /// byte of its wire encoding. Never renumber.
    pub const SUMMARY: u8 = 1;
    /// Stable discriminant of [`RequestPayload::CscCheck`].
    pub const CSC_CHECK: u8 = 2;
    /// Stable discriminant of [`RequestPayload::ResolveCsc`].
    pub const RESOLVE_CSC: u8 = 3;
    /// Stable discriminant of [`RequestPayload::Verify`].
    pub const VERIFY: u8 = 4;

    /// The stable request-kind discriminant of this payload: the first
    /// byte of its wire encoding (`crate::proto`), and so of the
    /// service's flight-table key.
    pub const fn discriminant(&self) -> u8 {
        match self {
            RequestPayload::Summary { .. } => Self::SUMMARY,
            RequestPayload::CscCheck { .. } => Self::CSC_CHECK,
            RequestPayload::ResolveCsc { .. } => Self::RESOLVE_CSC,
            RequestPayload::Verify { .. } => Self::VERIFY,
        }
    }
}

/// One service request: a payload plus an optional deadline, an
/// optional idempotency key, and an optional client identity. The
/// deadline is converted to a wall-clock budget at admission and
/// honoured as a hard stop at every layer (never retried around).
#[derive(Debug, Clone)]
pub struct Request {
    /// What to compute.
    pub payload: RequestPayload,
    /// Wall-clock allowance, measured from admission.
    pub deadline: Option<Duration>,
    /// Exactly-once token for safe resubmission: two deadline-free
    /// requests carrying the same key and the same payload (from the
    /// same client identity) execute **once** — the second joins the
    /// first flight or replays its recorded reply
    /// ([`crate::ServiceStats::idempotent_replays`]). A reused key with
    /// a different payload is a different request.
    /// Travels on the wire; deadline-carrying requests ignore it (a
    /// replayed reply could postdate the deadline it was asked for).
    pub idempotency: Option<u64>,
    /// Fairness identity for per-client admission quotas
    /// ([`crate::ServiceConfig::max_inflight_per_client`]). The daemon
    /// fills this from the connection's `Hello` frame (defaulting to a
    /// per-connection identity); it never travels inside the request
    /// encoding. `None` (in-process callers) is quota-exempt.
    pub client: Option<String>,
}

impl Request {
    /// A reachable-marking summary request.
    pub fn summary(stg: Stg) -> Self {
        Request {
            payload: RequestPayload::Summary { stg },
            deadline: None,
            idempotency: None,
            client: None,
        }
    }

    /// A CSC conflict-check request.
    pub fn csc_check(stg: Stg) -> Self {
        Request {
            payload: RequestPayload::CscCheck { stg },
            deadline: None,
            idempotency: None,
            client: None,
        }
    }

    /// A CSC resolution request.
    pub fn resolve_csc(stg: Stg, options: CscOptions) -> Self {
        Request {
            payload: RequestPayload::ResolveCsc { stg, options },
            deadline: None,
            idempotency: None,
            client: None,
        }
    }

    /// A verification request.
    pub fn verify(netlist: Netlist, spec: Stg, orderings: Vec<NetOrdering>) -> Self {
        Request {
            payload: RequestPayload::Verify {
                netlist,
                spec,
                orderings,
            },
            deadline: None,
            idempotency: None,
            client: None,
        }
    }

    /// Builder: attaches a deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: attaches an idempotency key (see [`Request::idempotency`]).
    #[must_use]
    pub fn with_idempotency(mut self, key: u64) -> Self {
        self.idempotency = Some(key);
        self
    }

    /// Builder: attaches a client identity (see [`Request::client`]).
    #[must_use]
    pub fn with_client(mut self, client: impl Into<String>) -> Self {
        self.client = Some(client.into());
        self
    }
}

/// Backend-independent summary answer: the fields that are pinned
/// bit-identical between a pooled request and a fresh direct engine
/// (live-node gauges are engine-internal and deliberately excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryOutcome {
    /// Distinct reachable markings.
    pub markings: u64,
    /// Fixpoint iterations / BFS layers.
    pub iterations: usize,
}

/// Result of a CSC conflict check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CscCheckOutcome {
    /// Reachable markings (the audit count).
    pub markings: u64,
    /// Total CSC conflict pairs.
    pub conflicts: u64,
    /// Whether every reachable marking enables something.
    pub deadlock_free: bool,
    /// Whether every reachable marking can return to the initial one.
    pub strongly_connected: bool,
}

/// Result of a CSC resolution. Compared structurally: two outcomes are
/// equal only when their rewritten STGs are equal — names included —
/// and the inserted signals, cost and truncation flag match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveOutcome {
    /// The (possibly rewritten) CSC-free specification.
    pub stg: Stg,
    /// Names of inserted state signals.
    pub inserted: Vec<String>,
    /// Minimized literal cost of the accepted encoding.
    pub cost: usize,
    /// Whether a budget truncated the search (partial result; the
    /// response carries [`Degradation::PartialSynthesis`] alongside).
    pub truncated: bool,
}

/// The computed answer of one request kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponsePayload {
    /// Answer to [`RequestPayload::Summary`].
    Summary(SummaryOutcome),
    /// Answer to [`RequestPayload::CscCheck`].
    CscCheck(CscCheckOutcome),
    /// Answer to [`RequestPayload::ResolveCsc`] (boxed: the rewritten
    /// STG dominates the enum size otherwise).
    ResolveCsc(Box<ResolveOutcome>),
    /// Answer to [`RequestPayload::Verify`].
    Verify(VerifyReport),
}

impl ResponsePayload {
    /// The stable kind discriminant of this answer — equal to the
    /// [`RequestPayload::discriminant`] of the request it answers.
    pub const fn discriminant(&self) -> u8 {
        match self {
            ResponsePayload::Summary(_) => RequestPayload::SUMMARY,
            ResponsePayload::CscCheck(_) => RequestPayload::CSC_CHECK,
            ResponsePayload::ResolveCsc(_) => RequestPayload::RESOLVE_CSC,
            ResponsePayload::Verify(_) => RequestPayload::VERIFY,
        }
    }
}

/// A completed request: the answer plus full provenance — every
/// degradation the engine performed producing it, and whether it came
/// from the memo cache.
///
/// Cached responses replay the `degradations` of the run that produced
/// them, so a hit can never silently upgrade a partial (degraded or
/// truncated) answer into a full one.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The computed answer.
    pub payload: ResponsePayload,
    /// Degradations recorded by the engine that produced the answer
    /// (empty on a first-class answer).
    pub degradations: Vec<Degradation>,
    /// Whether this response was served from the memo cache.
    pub cached: bool,
    /// Always 0: the service runs each request once. The wire still
    /// carries the field at protocol version 2; it goes at version 3.
    pub retries: u32,
}

impl Response {
    /// Whether the answer is first-class: no degradations recorded and
    /// (for resolutions) not truncated.
    pub fn is_full_fidelity(&self) -> bool {
        self.degradations.is_empty()
            && !matches!(
                &self.payload,
                ResponsePayload::ResolveCsc(outcome) if outcome.truncated
            )
    }
}
