//! Deterministic fault injection for the engine's degradation paths.
//!
//! Budget exhaustion, cancellation and worker panics are rare on the
//! standard corpus — too rare to keep their handling honest. This
//! module lets tests *inject* those faults at a chosen round or
//! iteration so every fallback edge runs in CI, not just on
//! pathological nets.
//!
//! The hooks are compiled to `#[inline(always)]` no-op stubs unless the
//! `fault-injection` cargo feature is on, so production call sites in
//! the hot loops are unconditional and cost nothing. With the feature
//! on, [`arm`] installs one fault in a process-global slot and returns
//! an [`Armed`] guard; the guard also owns a global test-serialization
//! lock (faults are process-global state, so fault tests must not
//! interleave) and disarms on drop.
//!
//! The serialization lock is a *logical* lock (a flag plus a condvar),
//! not a held `MutexGuard`, so `Armed` is `Send`: a supervisor test can
//! arm a fault, hand work to a pool of service workers that poll the
//! hooks concurrently, and drop the guard from whichever thread joins
//! last — the firing path itself serializes only on the slot's own
//! mutex, never on the test lock.
//!
//! # Why the registry is process-global (and stays that way)
//!
//! Scoping the armed-fault slot per engine or per service instance
//! looks attractive — fault tests could then run concurrently — but it
//! cannot deliver that isolation. The engine-level hooks
//! ([`explicit_round_fault`], [`symbolic_iteration_fault`]) are polled
//! *context-free* from the analysis hot loops of **every** engine in
//! the process: a test that arms, say,
//! `ExhaustNodesAt` would still have its shots consumed by whichever
//! concurrently running test's engine reaches that iteration first,
//! scoped registry or not, unless every hot-loop call site threaded an
//! instance handle through — a cost the zero-overhead stub design
//! exists to avoid. So fault tests must serialize against *all* other
//! fault-polling tests in the binary regardless. Instead of each test
//! binary carrying its own `static SUITE: Mutex<()>` (the PR 8
//! arrangement), the exclusion now lives here, in one place:
//! [`suite`] returns a guard on the shared suite lock, and [`arm`]
//! continues to self-serialize between armers. Tests that poll hooks
//! without arming (e.g. determinism sweeps that must not observe a
//! sibling's fault) take [`suite`] too.
//!
//! Injection points, polled by the execution paths:
//!
//! * [`explicit_round_fault`] — start of each BFS round of the
//!   explicit walks (graph-building and counting).
//! * [`symbolic_iteration_fault`] — each symbolic fixpoint iteration.
//! * [`service_panic`] / [`service_stall`] — per pooled *service*
//!   request in `rt-service`'s workers: the former makes the worker
//!   panic inside its `catch_unwind` region, the latter stalls it for
//!   the armed duration (the stuck-worker scenario).
//! * [`service_drop_conn`] — per *wire* request in the `rt-daemon`
//!   front-end: a `true` answer makes the daemon drop the TCP
//!   connection server-side after admitting the request but before
//!   replying (the client-vanishes-mid-request scenario).

#[cfg(feature = "fault-injection")]
pub use enabled::{arm, suite, Armed, SuiteGuard};

use crate::error::StgError;
use std::time::Duration;

/// The faults a test can arm. `round`/`iteration`/`request` counters
/// are 0-based; rounds and iterations count from the start of the
/// *analysis call* the fault fires in, requests count service
/// admissions in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Explicit walks report [`StgError::Cancelled`] at this round;
    /// symbolic fixpoints at this iteration.
    CancelAt {
        /// Round/iteration at which the cancellation fires.
        round: usize,
    },
    /// Explicit walks report [`StgError::StateBudgetExceeded`] at this
    /// round, as if `Budget::max_states` had been blown.
    ExhaustStatesAt {
        /// Round at which the budget reads as blown.
        round: usize,
    },
    /// Symbolic fixpoints report [`StgError::NodeBudgetExceeded`] at
    /// this iteration, as if the manager footprint had blown
    /// `Budget::max_bdd_nodes`.
    ExhaustNodesAt {
        /// Fixpoint iteration at which the budget reads as blown.
        iteration: usize,
    },
    /// The pooled service worker processing admitted request `request`
    /// panics inside its `catch_unwind` region — the worker-crash
    /// scenario the service's panic isolation handles.
    ServicePanicAt {
        /// 0-based service admission index the panic fires on.
        request: usize,
    },
    /// The pooled service worker processing admitted request `request`
    /// stalls for `millis` before touching its engine — the
    /// stuck-worker scenario (siblings must keep serving; a deadline on
    /// the stalled request must surface as a typed cancellation).
    ServiceStallAt {
        /// 0-based service admission index the stall fires on.
        request: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The daemon drops the TCP connection that carried wire request
    /// `request` — after the request was decoded and admitted to the
    /// pool, before its reply is written. The in-flight work must
    /// complete into the dropped ticket without harming sibling
    /// connections or coalesced observers of the same flight.
    ServiceDropConnAt {
        /// 0-based daemon-wide wire-request index the drop fires on.
        request: usize,
    },
}

#[cfg(feature = "fault-injection")]
mod enabled {
    use super::{Fault, StgError};
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// The armed fault plus its remaining shot count. Shots decrement
    /// only when a fault actually *fires*, so one armed fault triggers
    /// a bounded number of times (retries legitimately hit the same
    /// injection point more than once).
    static ARMED: Mutex<Option<(Fault, usize)>> = Mutex::new(None);

    /// Logical test-serialization lock: `true` while some [`Armed`]
    /// guard is alive. A flag + condvar rather than a held
    /// `MutexGuard` so the guard is `Send` and safe to drop from a
    /// different thread than the one that armed — pooled service
    /// workers polling the hooks concurrently only ever contend on
    /// [`ARMED`]'s own mutex, held for the length of one match.
    static SERIAL: Mutex<bool> = Mutex::new(false);
    static SERIAL_FREED: Condvar = Condvar::new();

    /// The suite-wide exclusion lock fault-sensitive tests take via
    /// [`suite`]. Separate from [`SERIAL`]: `SERIAL` serializes
    /// *armers* against each other (held for an `Armed`'s lifetime),
    /// while `SUITE` serializes whole tests — including ones that poll
    /// hooks without arming anything and must not observe a sibling's
    /// fault. See the module docs for why this cannot be scoped away.
    static SUITE: Mutex<()> = Mutex::new(());

    /// Guard on the process-wide fault-test suite lock ([`suite`]).
    pub struct SuiteGuard {
        _held: MutexGuard<'static, ()>,
    }

    /// Takes the suite-wide exclusion lock shared by every
    /// fault-sensitive test in the process. Hold the returned guard for
    /// the whole test; poisoning from a failed sibling test is
    /// tolerated (the lock still excludes, which is all it is for).
    pub fn suite() -> SuiteGuard {
        SuiteGuard {
            _held: SUITE.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    fn slot() -> MutexGuard<'static, Option<(Fault, usize)>> {
        ARMED.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Guard returned by [`arm`]: owns the logical serialization lock
    /// and disarms the fault on drop. `Send`, so it can cross a
    /// `thread::scope` boundary or be dropped by a joining supervisor.
    pub struct Armed {
        _not_constructible_outside: (),
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            *slot() = None;
            let mut held = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
            *held = false;
            drop(held);
            SERIAL_FREED.notify_one();
        }
    }

    /// Arms `fault` for up to `shots` firings and returns the guard
    /// that keeps it armed. Blocks until any previously armed fault's
    /// guard drops.
    pub fn arm(fault: Fault, shots: usize) -> Armed {
        let mut held = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        while *held {
            held = SERIAL_FREED
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *held = true;
        drop(held);
        *slot() = Some((fault, shots));
        Armed {
            _not_constructible_outside: (),
        }
    }

    /// Consumes one shot if `select` maps the armed fault to a payload.
    fn fire<T>(select: impl Fn(Fault) -> Option<T>) -> Option<T> {
        let mut armed = slot();
        match *armed {
            Some((fault, shots)) if shots > 0 => {
                let payload = select(fault)?;
                *armed = Some((fault, shots - 1));
                Some(payload)
            }
            _ => None,
        }
    }

    pub(super) fn explicit_round_fault_impl(round: usize) -> Option<StgError> {
        fire(|f| match f {
            Fault::CancelAt { round: r } if r == round => Some(StgError::Cancelled),
            Fault::ExhaustStatesAt { round: r } if r == round => {
                Some(StgError::StateBudgetExceeded { states: 0 })
            }
            _ => None,
        })
    }

    pub(super) fn symbolic_iteration_fault_impl(iteration: usize) -> Option<StgError> {
        fire(|f| match f {
            Fault::CancelAt { round } if round == iteration => Some(StgError::Cancelled),
            Fault::ExhaustNodesAt { iteration: i } if i == iteration => {
                Some(StgError::NodeBudgetExceeded { nodes: 0 })
            }
            _ => None,
        })
    }

    pub(super) fn service_panic_impl(request: usize) -> bool {
        fire(|f| match f {
            Fault::ServicePanicAt { request: r } if r == request => Some(()),
            _ => None,
        })
        .is_some()
    }

    pub(super) fn service_stall_impl(request: usize) -> Option<Duration> {
        fire(|f| match f {
            Fault::ServiceStallAt { request: r, millis } if r == request => {
                Some(Duration::from_millis(millis))
            }
            _ => None,
        })
    }

    pub(super) fn service_drop_conn_impl(request: usize) -> bool {
        fire(|f| match f {
            Fault::ServiceDropConnAt { request: r } if r == request => Some(()),
            _ => None,
        })
        .is_some()
    }
}

/// Injected fault for an explicit BFS round, if armed. Always `None`
/// without the `fault-injection` feature.
#[cfg_attr(not(feature = "fault-injection"), inline(always))]
pub fn explicit_round_fault(round: usize) -> Option<StgError> {
    #[cfg(feature = "fault-injection")]
    {
        enabled::explicit_round_fault_impl(round)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = round;
        None
    }
}

/// Injected fault for a symbolic fixpoint iteration, if armed. Always
/// `None` without the `fault-injection` feature.
#[cfg_attr(not(feature = "fault-injection"), inline(always))]
pub fn symbolic_iteration_fault(iteration: usize) -> Option<StgError> {
    #[cfg(feature = "fault-injection")]
    {
        enabled::symbolic_iteration_fault_impl(iteration)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = iteration;
        None
    }
}

/// Whether the service worker processing admitted request `request`
/// should panic. Always `false` without the `fault-injection` feature.
#[cfg_attr(not(feature = "fault-injection"), inline(always))]
pub fn service_panic(request: usize) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        enabled::service_panic_impl(request)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = request;
        false
    }
}

/// How long the service worker processing admitted request `request`
/// should stall before touching its engine, if armed. Always `None`
/// without the `fault-injection` feature.
#[cfg_attr(not(feature = "fault-injection"), inline(always))]
pub fn service_stall(request: usize) -> Option<Duration> {
    #[cfg(feature = "fault-injection")]
    {
        enabled::service_stall_impl(request)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = request;
        None
    }
}

/// Whether the daemon should drop the connection carrying wire request
/// `request` after admitting it. Always `false` without the
/// `fault-injection` feature.
#[cfg_attr(not(feature = "fault-injection"), inline(always))]
pub fn service_drop_conn(request: usize) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        enabled::service_drop_conn_impl(request)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = request;
        false
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn armed_faults_fire_their_shots_then_disarm() {
        let guard = arm(Fault::ExhaustStatesAt { round: 2 }, 2);
        assert!(explicit_round_fault(0).is_none(), "wrong round");
        assert_eq!(
            explicit_round_fault(2),
            Some(StgError::StateBudgetExceeded { states: 0 })
        );
        assert!(explicit_round_fault(2).is_some(), "second shot");
        assert!(explicit_round_fault(2).is_none(), "shots exhausted");
        drop(guard);
    }

    #[test]
    fn symbolic_faults_map_to_node_budget_and_cancel() {
        let guard = arm(Fault::ExhaustNodesAt { iteration: 3 }, 1);
        assert!(symbolic_iteration_fault(2).is_none());
        assert_eq!(
            symbolic_iteration_fault(3),
            Some(StgError::NodeBudgetExceeded { nodes: 0 })
        );
        drop(guard);
        let _guard = arm(Fault::CancelAt { round: 0 }, 1);
        assert_eq!(symbolic_iteration_fault(0), Some(StgError::Cancelled));
    }

    #[test]
    fn service_faults_select_by_admission_index() {
        let guard = arm(Fault::ServicePanicAt { request: 3 }, 1);
        assert!(!service_panic(2), "wrong request");
        assert!(service_stall(3).is_none(), "panic is not a stall");
        assert!(service_panic(3));
        assert!(!service_panic(3), "one shot only");
        drop(guard);
        let _guard = arm(
            Fault::ServiceStallAt {
                request: 1,
                millis: 25,
            },
            1,
        );
        assert!(service_stall(0).is_none());
        assert_eq!(service_stall(1), Some(Duration::from_millis(25)));
        assert!(service_stall(1).is_none(), "shot consumed");
    }

    #[test]
    fn drop_conn_fault_selects_by_wire_index() {
        let _suite = suite();
        let guard = arm(Fault::ServiceDropConnAt { request: 2 }, 1);
        assert!(!service_drop_conn(0), "wrong wire request");
        assert!(!service_panic(2), "a drop is not a panic");
        assert!(service_drop_conn(2));
        assert!(!service_drop_conn(2), "one shot only");
        drop(guard);
    }

    #[test]
    fn suite_guard_excludes_and_tolerates_reentry_by_turns() {
        // Two takers in sequence: the second take must not deadlock
        // once the first guard drops — the only property tests rely on.
        let first = suite();
        drop(first);
        let _second = suite();
    }

    #[test]
    fn armed_guard_is_send_and_droppable_on_another_thread() {
        // The scope-safety the service tests rely on: arm here, observe
        // the fault from worker threads, drop the guard wherever the
        // supervisor happens to run.
        fn assert_send<T: Send>(value: T) -> T {
            value
        }
        let guard = assert_send(arm(Fault::ServicePanicAt { request: 0 }, 1));
        std::thread::scope(|scope| {
            scope.spawn(|| assert!(service_panic(0)));
        });
        std::thread::spawn(move || drop(guard))
            .join()
            .expect("drops cleanly off-thread");
        // The lock is free again: re-arming must not deadlock.
        let _guard = arm(Fault::CancelAt { round: 0 }, 1);
    }
}
