//! Error type shared by the STG substrate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing, parsing or analysing STGs.
///
/// # Examples
///
/// ```
/// use rt_stg::StgError;
///
/// let err = StgError::UnknownSignal("req".to_string());
/// assert_eq!(err.to_string(), "unknown signal `req`");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// A signal name was referenced that has not been declared.
    UnknownSignal(String),
    /// A signal was declared twice.
    DuplicateSignal(String),
    /// A place name was referenced that does not exist.
    UnknownPlace(String),
    /// A transition name was referenced that does not exist.
    UnknownTransition(String),
    /// The net is not 1-bounded (safe): a marking puts a second token
    /// on a place. Every walk takes safe nets only.
    Unbounded {
        /// Place that exceeded the token bound.
        place: String,
        /// Bound that was exceeded: always 1.
        bound: u32,
    },
    /// The STG is inconsistent: along some firing sequence a signal would
    /// rise when already high or fall when already low.
    Inconsistent {
        /// Signal whose edges do not alternate.
        signal: String,
        /// Human-readable description of the offending state/event.
        detail: String,
    },
    /// An explicit walk exceeded its hard cap
    /// ([`crate::reach::STATE_LIMIT`] markings), or the verifier's
    /// composed walk its own.
    StateLimitExceeded(usize),
    /// A symbolic fixpoint did not converge within the configured
    /// iteration ceiling ([`crate::budget::Budget::max_iterations`]).
    IterationLimitExceeded {
        /// Iterations completed when the ceiling was hit.
        iterations: usize,
    },
    /// Exploration blew the *soft* state budget
    /// ([`crate::budget::Budget::max_states`]). Unlike
    /// [`StgError::StateLimitExceeded`] this is degradable: an explicit
    /// engine's set-level queries hand the net to BDDs instead of
    /// failing.
    StateBudgetExceeded {
        /// Markings interned when the budget was blown.
        states: usize,
    },
    /// The symbolic manager's footprint blew the *soft* node budget
    /// ([`crate::budget::Budget::max_bdd_nodes`]). Soft: the engine
    /// propagates it, and a caller may retry with a larger budget.
    NodeBudgetExceeded {
        /// Manager footprint (nodes plus occupied computed-table
        /// slots) at the check.
        nodes: usize,
    },
    /// The request was cancelled (token fired or deadline passed).
    /// Always a hard stop; never degraded around.
    Cancelled,
    /// A candidate evaluation of a CSC search panicked
    /// ([`crate::par::argmin`]). The panic was caught, the search
    /// stopped and the caller's engine is intact, but the analysis
    /// produced no result.
    WorkerPanicked,
    /// Syntax error while parsing a `.g` file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Analysis requires more signals than the implementation supports.
    TooManySignals(usize),
    /// The verifier was handed a netlist it cannot evaluate: a gate
    /// whose input count its kind does not take. Carries the netlist
    /// check's message.
    InvalidNetlist(String),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::UnknownSignal(name) => write!(f, "unknown signal `{name}`"),
            StgError::DuplicateSignal(name) => write!(f, "duplicate signal `{name}`"),
            StgError::UnknownPlace(name) => write!(f, "unknown place `{name}`"),
            StgError::UnknownTransition(name) => write!(f, "unknown transition `{name}`"),
            StgError::Unbounded { place, bound } => {
                write!(f, "place `{place}` exceeds token bound {bound}")
            }
            StgError::Inconsistent { signal, detail } => {
                write!(f, "inconsistent STG: signal `{signal}` ({detail})")
            }
            StgError::StateLimitExceeded(limit) => {
                write!(f, "reachability exceeded state limit of {limit} states")
            }
            StgError::IterationLimitExceeded { iterations } => {
                write!(
                    f,
                    "symbolic fixpoint did not converge within {iterations} iterations"
                )
            }
            StgError::StateBudgetExceeded { states } => {
                write!(f, "exploration exceeded state budget at {states} states")
            }
            StgError::NodeBudgetExceeded { nodes } => {
                write!(
                    f,
                    "symbolic manager exceeded node budget at footprint {nodes}"
                )
            }
            StgError::Cancelled => write!(f, "analysis cancelled"),
            StgError::WorkerPanicked => write!(f, "a candidate evaluation panicked"),
            StgError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            StgError::TooManySignals(n) => {
                write!(f, "{n} signals exceed the 64-signal state-coding limit")
            }
            StgError::InvalidNetlist(detail) => write!(f, "invalid netlist: {detail}"),
        }
    }
}

impl StgError {
    /// Whether this error reports resource exhaustion under a *soft*
    /// [`Budget`](crate::budget::Budget) — the class of errors the
    /// engine's degradation policy (and partial-result synthesis) is
    /// allowed to recover from. Hard caps
    /// ([`StgError::StateLimitExceeded`]) and cancellation are not
    /// included: past the former no analyser answers, the latter is a
    /// demand to stop.
    pub fn is_resource_exhaustion(&self) -> bool {
        matches!(
            self,
            StgError::StateBudgetExceeded { .. }
                | StgError::NodeBudgetExceeded { .. }
                | StgError::IterationLimitExceeded { .. }
        )
    }
}

impl Error for StgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(StgError, &str)> = vec![
            (StgError::UnknownSignal("a".into()), "unknown signal `a`"),
            (
                StgError::DuplicateSignal("b".into()),
                "duplicate signal `b`",
            ),
            (StgError::UnknownPlace("p".into()), "unknown place `p`"),
            (
                StgError::Unbounded {
                    place: "p0".into(),
                    bound: 1,
                },
                "place `p0` exceeds token bound 1",
            ),
            (
                StgError::StateLimitExceeded(10),
                "reachability exceeded state limit of 10 states",
            ),
            (
                StgError::IterationLimitExceeded { iterations: 10_000 },
                "symbolic fixpoint did not converge within 10000 iterations",
            ),
            (
                StgError::StateBudgetExceeded { states: 9 },
                "exploration exceeded state budget at 9 states",
            ),
            (
                StgError::NodeBudgetExceeded { nodes: 4096 },
                "symbolic manager exceeded node budget at footprint 4096",
            ),
            (StgError::Cancelled, "analysis cancelled"),
            (StgError::WorkerPanicked, "a candidate evaluation panicked"),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn resource_exhaustion_covers_soft_budgets_only() {
        assert!(StgError::StateBudgetExceeded { states: 1 }.is_resource_exhaustion());
        assert!(StgError::NodeBudgetExceeded { nodes: 1 }.is_resource_exhaustion());
        assert!(StgError::IterationLimitExceeded { iterations: 1 }.is_resource_exhaustion());
        assert!(!StgError::StateLimitExceeded(1).is_resource_exhaustion());
        assert!(!StgError::Cancelled.is_resource_exhaustion());
        assert!(!StgError::WorkerPanicked.is_resource_exhaustion());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error>() {}
        assert_error::<StgError>();
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StgError>();
    }
}
