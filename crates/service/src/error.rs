//! Typed errors of the service layer, chaining to the engine and
//! synthesis errors underneath via [`std::error::Error::source`].

use std::error::Error;
use std::fmt;

use rt_stg::StgError;
use rt_synth::SynthError;

/// Why a service request produced no [`crate::Response`].
///
/// Every variant is *typed* — the acceptance contract of the service is
/// that no fault, overload or crash ever surfaces as a wedge or an
/// unstructured panic, only as one of these (or as a degraded-but-Ok
/// response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control refused the request: the bounded queue was
    /// full. Deterministic backpressure — the caller can retry later or
    /// route elsewhere; nothing was enqueued.
    Shed {
        /// Requests already waiting when this one was refused.
        queue_depth: usize,
    },
    /// The service is shutting down (or already has); the request was
    /// not (or will not be) processed.
    ShuttingDown,
    /// The pooled worker processing this request panicked. The panic
    /// was isolated: the request's engine was discarded with it, and
    /// the next request on the pool runs on a fresh engine as usual.
    WorkerPanicked,
    /// The underlying reachability/verification analysis failed —
    /// including hard budget stops ([`StgError::Cancelled`] for a
    /// missed deadline) and soft exhaustion that survived the engine's
    /// BDD fallback ([`StgError::is_resource_exhaustion`]).
    Engine(StgError),
    /// The underlying synthesis pass failed.
    Synth(SynthError),
    /// The wire protocol was violated: a malformed frame, an
    /// unsupported version byte, an unknown tag, or trailing bytes.
    /// Daemon-side this answers the offending frame (then closes the
    /// connection — the stream may be desynchronized); client-side it
    /// reports an undecodable reply.
    Protocol {
        /// What was wrong with the bytes.
        detail: String,
    },
    /// Admission control refused the request because its client
    /// identity already had its full quota of requests in flight
    /// ([`crate::ServiceConfig::max_inflight_per_client`]). Like
    /// [`ServiceError::Shed`] this is deterministic backpressure —
    /// nothing was enqueued, and *other* clients' requests are
    /// unaffected (that is the point: one greedy tenant cannot starve
    /// the rest).
    QuotaExceeded {
        /// The over-quota client identity.
        client: String,
        /// Requests that identity already had in flight.
        inflight: usize,
    },
    /// The daemon connection closed before a reply arrived. The request
    /// may or may not have been processed server-side — connection loss
    /// cannot distinguish the two.
    Disconnected,
    /// [`crate::ServiceConfig::builder`] rejected the configuration.
    InvalidConfig {
        /// Which constraint failed.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Shed { queue_depth } => {
                write!(
                    f,
                    "request shed: admission queue full ({queue_depth} waiting)"
                )
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::WorkerPanicked => {
                write!(f, "service worker panicked; its engine was discarded")
            }
            ServiceError::Engine(err) => write!(f, "engine request failed: {err}"),
            ServiceError::Synth(err) => write!(f, "synthesis request failed: {err}"),
            ServiceError::Protocol { detail } => {
                write!(f, "wire protocol violation: {detail}")
            }
            ServiceError::QuotaExceeded { client, inflight } => {
                write!(
                    f,
                    "request refused: client {client:?} already has {inflight} in flight"
                )
            }
            ServiceError::Disconnected => {
                write!(f, "daemon connection closed before the reply")
            }
            ServiceError::InvalidConfig { detail } => {
                write!(f, "invalid service configuration: {detail}")
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Engine(err) => Some(err),
            ServiceError::Synth(err) => Some(err),
            _ => None,
        }
    }
}

impl From<StgError> for ServiceError {
    fn from(err: StgError) -> Self {
        ServiceError::Engine(err)
    }
}

impl From<SynthError> for ServiceError {
    fn from(err: SynthError) -> Self {
        ServiceError::Synth(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain_to_the_underlying_errors() {
        let err = ServiceError::Engine(StgError::Cancelled);
        assert!(err.source().is_some());
        let err = ServiceError::Synth(SynthError::NothingToImplement);
        assert!(err.source().is_some());
        assert!(ServiceError::ShuttingDown.source().is_none());
        let boxed: Box<dyn Error> = Box::new(ServiceError::Shed { queue_depth: 3 });
        assert!(boxed.to_string().contains("3 waiting"));
    }

    #[test]
    fn wire_and_config_errors_render_their_detail() {
        let protocol = ServiceError::Protocol {
            detail: "bad tag 9".to_string(),
        };
        assert!(protocol.source().is_none());
        assert!(protocol.to_string().contains("bad tag 9"));
        assert!(ServiceError::Disconnected.source().is_none());
        let config = ServiceError::InvalidConfig {
            detail: "workers must be >= 1".to_string(),
        };
        assert!(config.to_string().contains("workers"));
    }

    #[test]
    fn quota_refusal_names_the_client_and_its_load() {
        let quota = ServiceError::QuotaExceeded {
            client: "tenant-a".to_string(),
            inflight: 4,
        };
        assert!(quota.source().is_none());
        let rendered = quota.to_string();
        assert!(rendered.contains("tenant-a") && rendered.contains('4'));
    }
}
