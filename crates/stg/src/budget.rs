//! Resource budgets and cooperative cancellation for engine execution.
//!
//! A [`Budget`] bounds how much work a single analysis may do before it
//! stops — cleanly, at a round or iteration boundary, never mid-way
//! through building a structure. One budget threads through all three
//! execution paths (explicit BFS, symbolic reachability, symbolic CSC
//! detection), so a caller such as a long-running synthesis daemon can
//! cap every request the same way:
//!
//! * `max_states` — soft ceiling on explicitly interned markings. Unlike
//!   the hard cap every explicit walk stops at
//!   ([`STATE_LIMIT`](crate::reach::STATE_LIMIT)),
//!   blowing this budget is *degradable*: an explicit engine's
//!   set-level queries fall back to BDDs instead of erroring (see
//!   `rt_stg::engine`).
//! * `max_bdd_nodes` — soft ceiling on the symbolic manager's footprint
//!   (live nodes **plus** occupied computed-table slots,
//!   `rt_boolean::Bdd::footprint`).
//! * `max_iterations` — ceiling on symbolic image/fixpoint iterations;
//!   defaults to [`DEFAULT_MAX_ITERATIONS`] when unset.
//! * `deadline` + [`CancelToken`] — a soft wall-clock deadline and a
//!   shared atomic flag another thread can flip; both surface as
//!   [`StgError::Cancelled`](crate::StgError::Cancelled) and are never
//!   degraded around — cancellation is a hard stop.
//!
//! The default budget is fully unlimited, so analyses that never set
//! one behave exactly as before budgets existed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fixed fixpoint-iteration ceiling used when
/// [`Budget::max_iterations`] is `None`. Matches the historical
/// hard-coded divergence guard in the symbolic fixpoints.
pub const DEFAULT_MAX_ITERATIONS: usize = 10_000;

/// A shared, clonable cancellation flag.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// flag, so a controller thread can hold one clone and hand another to
/// a running analysis. Once cancelled a token stays cancelled.
///
/// # Examples
///
/// ```
/// use rt_stg::budget::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flips the flag; every clone of this token observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Resource budget for one analysis request. See the module docs for
/// the meaning of each knob; `Budget::default()` is fully unlimited.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Soft ceiling on explicitly interned markings (`None` = unlimited).
    pub max_states: Option<usize>,
    /// Soft ceiling on the BDD manager footprint: nodes plus occupied
    /// computed-table slots ([`rt_boolean::Bdd::footprint`]). The
    /// manager releases neither, so a blown ceiling stays blown for that
    /// manager and the query's error propagates.
    pub max_bdd_nodes: Option<usize>,
    /// Ceiling on symbolic fixpoint iterations
    /// ([`DEFAULT_MAX_ITERATIONS`] when `None`).
    pub max_iterations: Option<usize>,
    /// Soft wall-clock deadline, polled at round/iteration granularity.
    pub deadline: Option<Instant>,
    /// Shared cancellation flag, polled at round/iteration granularity.
    pub cancel: CancelToken,
}

impl Budget {
    /// An explicitly unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Builder: caps explicitly interned markings.
    pub fn with_max_states(mut self, states: usize) -> Self {
        self.max_states = Some(states);
        self
    }

    /// Builder: caps the BDD manager footprint (nodes + cache entries).
    pub fn with_max_bdd_nodes(mut self, nodes: usize) -> Self {
        self.max_bdd_nodes = Some(nodes);
        self
    }

    /// Builder: caps symbolic fixpoint iterations.
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = Some(iterations);
        self
    }

    /// Builder: sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether every knob is unset and the token has not fired *yet*.
    /// Diagnostic only — a shared token can still fire later, so hot
    /// loops must keep polling [`Budget::cancelled`] regardless (the
    /// per-round poll is a single atomic load).
    pub fn is_unlimited(&self) -> bool {
        self.max_states.is_none()
            && self.max_bdd_nodes.is_none()
            && self.max_iterations.is_none()
            && self.deadline.is_none()
            && !self.cancel.is_cancelled()
    }

    /// Whether the request should stop now: the token fired or the
    /// deadline passed. Both are hard stops — the engine propagates
    /// [`StgError::Cancelled`](crate::StgError::Cancelled) instead of
    /// degrading to another backend.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The effective fixpoint-iteration ceiling.
    pub fn effective_max_iterations(&self) -> usize {
        self.max_iterations.unwrap_or(DEFAULT_MAX_ITERATIONS)
    }

    /// Whether `states` interned markings blow the soft state budget.
    pub fn states_exhausted(&self, states: usize) -> bool {
        self.max_states.is_some_and(|max| states > max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_budget_is_unlimited_and_never_triggers() {
        let budget = Budget::default();
        assert!(budget.is_unlimited());
        assert!(!budget.cancelled());
        assert!(!budget.states_exhausted(usize::MAX - 1));
        assert_eq!(budget.effective_max_iterations(), DEFAULT_MAX_ITERATIONS);
    }

    #[test]
    fn builders_set_each_knob() {
        let budget = Budget::unlimited()
            .with_max_states(10)
            .with_max_bdd_nodes(100)
            .with_max_iterations(3);
        assert!(!budget.is_unlimited());
        assert_eq!(budget.max_states, Some(10));
        assert_eq!(budget.max_bdd_nodes, Some(100));
        assert_eq!(budget.effective_max_iterations(), 3);
        assert!(
            !budget.states_exhausted(10),
            "limit itself is within budget"
        );
        assert!(budget.states_exhausted(11));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let budget = Budget::default();
        let handle = budget.cancel.clone();
        let clone_of_budget = budget.clone();
        assert!(!clone_of_budget.cancelled());
        handle.cancel();
        assert!(budget.cancelled());
        assert!(clone_of_budget.cancelled(), "clones share the flag");
        assert!(!budget.is_unlimited(), "a fired token is not unlimited");
    }

    #[test]
    fn past_deadline_reads_as_cancelled() {
        let budget = Budget::default().with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(budget.cancelled());
        let future = Budget::default().with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.cancelled());
    }
}
