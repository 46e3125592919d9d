//! A self-healing wrapper over [`DaemonClient`]: bounded reconnection
//! with capped exponential backoff, plus *safe*
//! resubmission — deadline-free requests are stamped with an
//! idempotency key before the first send, so a resubmit after a
//! severed connection joins the original flight (or replays its
//! recorded reply) instead of executing twice. See the
//! [`Request::idempotency`] and service-module docs for the
//! exactly-once contract this leans on.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, SystemTime};

use crate::client::DaemonClient;
use crate::error::ServiceError;
use crate::request::{Request, Response};

/// Distinguishes idempotency-key streams of clients constructed in the
/// same nanosecond (same process restarting fast, or two clients in
/// one test).
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A [`DaemonClient`] that survives severed connections.
///
/// On a connection-level failure — [`ServiceError::Disconnected`], or
/// a [`ServiceError::Protocol`] answer (after which the daemon always
/// closes the stream; the benign case is its idle timeout expiring
/// just as the next request frame starts arriving) — the client cannot
/// know whether the daemon executed the request, so it reconnects
/// (re-declaring its client identity with `Hello`) and resubmits, up
/// to [`max_reconnects`](Self::with_max_reconnects) times with capped
/// exponential backoff. A dropped connection is worth another try, as
/// the network or the daemon may have recovered; an engine failure is
/// not, since a replay on the same input fails the same way, so the
/// service itself never retries. Resubmission is only attempted for
/// deadline-free requests, which this client stamps with a fresh
/// idempotency key before the first send: the daemon's record of that
/// key then guarantees the request executes **once** no matter how many
/// times the connection died around it. Deadline-carrying requests are
/// never auto-resubmitted (the deadline the caller asked for may
/// already be spent) — their `Disconnected` surfaces verbatim.
///
/// Typed service refusals (a shed, a quota refusal, an engine error)
/// are returned to the caller unchanged: they are answers, not
/// connection failures.
pub struct ReconnectingClient {
    addr: SocketAddr,
    client_id: String,
    inner: Option<DaemonClient>,
    max_reconnects: u32,
    backoff: Duration,
    max_backoff: Duration,
    reconnects: u64,
    /// High bits of every idempotency key this client mints; unique
    /// per client instance.
    session: u64,
    next_key: u64,
}

impl ReconnectingClient {
    /// Connects to a daemon and declares `client_id` as this
    /// connection's quota identity. Defaults: 3 reconnect attempts per
    /// submission, backoff 500µs doubling up to 50ms.
    ///
    /// # Errors
    ///
    /// The resolve/connect error, verbatim (later reconnects reuse the
    /// first resolved address).
    pub fn connect(addr: impl ToSocketAddrs, client_id: &str) -> io::Result<ReconnectingClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let session = nanos ^ (SESSION_COUNTER.fetch_add(1, Ordering::Relaxed) << 48);
        let mut client = ReconnectingClient {
            addr,
            client_id: client_id.to_string(),
            inner: None,
            max_reconnects: 3,
            backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            reconnects: 0,
            session,
            next_key: 0,
        };
        let mut first = DaemonClient::connect(client.addr)?;
        if first.hello(&client.client_id).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "connection lost during Hello",
            ));
        }
        client.inner = Some(first);
        Ok(client)
    }

    /// Builder: reconnect attempts allowed per submission.
    #[must_use]
    pub fn with_max_reconnects(mut self, max_reconnects: u32) -> Self {
        self.max_reconnects = max_reconnects;
        self
    }

    /// Builder: reconnect backoff schedule — `backoff` doubles per
    /// attempt, capped at `max_backoff`.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration, max_backoff: Duration) -> Self {
        self.backoff = backoff;
        self.max_backoff = max_backoff;
        self
    }

    /// Reconnections performed over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The quota identity declared on every (re)connection.
    pub fn client_id(&self) -> &str {
        &self.client_id
    }

    /// Sends `request`, reconnecting and resubmitting on connection
    /// loss (see the type docs for exactly when resubmission is safe
    /// and therefore attempted).
    ///
    /// # Errors
    ///
    /// The service's typed surface, verbatim.
    /// [`ServiceError::Disconnected`] only surfaces once the reconnect
    /// budget is spent (or immediately for deadline-carrying requests).
    pub fn submit(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let mut request = request.clone();
        // Exactly-once safety only holds for deadline-free requests the
        // service can key; stamp those that are not keyed already.
        let resubmit_safe = request.deadline.is_none();
        if resubmit_safe && request.idempotency.is_none() {
            request.idempotency = Some(self.mint_key());
        }
        let mut attempt = 0u32;
        loop {
            let outcome = match self.ensure_connected() {
                Ok(client) => client.submit(&request),
                Err(()) => Err(ServiceError::Disconnected),
            };
            match outcome {
                // `Protocol` is a connection failure too: the daemon
                // closes the stream with every protocol answer, and the
                // race where its idle timeout expires just as our next
                // frame starts arriving surfaces as exactly this error.
                // The idempotency key makes resubmission safe either
                // way; a *persistent* protocol error (a genuine
                // incompatibility) recurs and surfaces verbatim once
                // the budget is spent.
                Err(ServiceError::Disconnected | ServiceError::Protocol { .. })
                    if resubmit_safe && attempt < self.max_reconnects =>
                {
                    self.inner = None;
                    self.pause(attempt);
                    attempt += 1;
                }
                Err(err @ (ServiceError::Disconnected | ServiceError::Protocol { .. })) => {
                    // Poisoned connection; the next submit starts fresh.
                    self.inner = None;
                    return Err(err);
                }
                other => return other,
            }
        }
    }

    /// Health check with the same reconnect discipline as
    /// [`submit`](Self::submit) (pings carry no work, so resubmitting
    /// one is always safe).
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn ping(&mut self, nonce: u64) -> Result<u64, ServiceError> {
        let mut attempt = 0u32;
        loop {
            let outcome = match self.ensure_connected() {
                Ok(client) => client.ping(nonce),
                Err(()) => Err(ServiceError::Disconnected),
            };
            match outcome {
                Err(ServiceError::Disconnected | ServiceError::Protocol { .. })
                    if attempt < self.max_reconnects =>
                {
                    self.inner = None;
                    self.pause(attempt);
                    attempt += 1;
                }
                Err(err @ (ServiceError::Disconnected | ServiceError::Protocol { .. })) => {
                    self.inner = None;
                    return Err(err);
                }
                other => return other,
            }
        }
    }

    /// Connects (with `Hello`) if there is no live, unpoisoned
    /// connection. `Err(())` means this attempt failed — the caller's
    /// retry loop decides whether to spend another.
    fn ensure_connected(&mut self) -> Result<&mut DaemonClient, ()> {
        if matches!(&self.inner, Some(client) if !client.is_poisoned()) {
            return Ok(self.inner.as_mut().expect("checked above"));
        }
        self.inner = None;
        let mut client = DaemonClient::connect(self.addr).map_err(|_| ())?;
        client.hello(&self.client_id).map_err(|_| ())?;
        // The constructor connects directly, so every connection made
        // here is a reconnect.
        self.reconnects += 1;
        self.inner = Some(client);
        Ok(self.inner.as_mut().expect("just connected"))
    }

    /// Exponential backoff, capped at `max_backoff`.
    fn pause(&self, attempt: u32) {
        let pause = self
            .backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        if !pause.is_zero() {
            thread::sleep(pause);
        }
    }

    fn mint_key(&mut self) -> u64 {
        let key = self.session.wrapping_add(self.next_key);
        self.next_key += 1;
        key
    }
}
