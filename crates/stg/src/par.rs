//! Minimal zero-dependency worker-pool utilities for the parallel
//! synthesis paths.
//!
//! The container this project builds in has no registry access, so the
//! usual suspects (`rayon`, `crossbeam`) are off the table; everything
//! here is `std::thread::scope` plus atomics. One consumer: the CSC
//! candidate searches in `rt-synth` and `rt-core`, which use
//! [`parallel_argmin`] to evaluate independent candidate insertions on
//! a pool and reduce to a winner **deterministically**. Explicit
//! reachability itself stays serial: a level-synchronous partitioned
//! walk lost to the serial one on every corpus model.
//!
//! ## Why the reduction is deterministic
//!
//! [`parallel_argmin`] hands each candidate an index in the caller's
//! (serial) enumeration order and reduces by `(cost, index)`: among
//! equal costs the lowest index wins, which is exactly the
//! "first strictly better candidate wins" rule the serial loops
//! implement with `cost < best`. Completion order, thread count and
//! work distribution therefore cannot change the winner — a resolution
//! computed on 8 workers is bit-identical to the serial one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::error::StgError;

/// What one pool worker hands back: its local `(index, cost, value)`
/// argmin (if any candidate qualified) plus its private scratch state.
type WorkerOutcome<W, T> = (Option<(usize, usize, T)>, W);

/// The pool's verdict: the deterministic `(index, cost, value)` winner
/// (if any candidate qualified) plus every worker's scratch state, or
/// the error that stopped the pool.
type ArgminResult<W, T> = Result<(Option<(usize, usize, T)>, Vec<W>), StgError>;

/// Resolves a thread-count knob: `0` means "one worker per available
/// core", anything else is taken literally. Always at least 1.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .max(1)
}

/// Evaluates `items` candidates on `threads` workers and returns the
/// minimum by `(cost, index)` — the deterministic argmin (see module
/// docs).
///
/// `make_worker` builds one private scratch state per worker (e.g. a
/// `ReachEngine` — persistent symbolic managers are not shareable, so
/// every worker owns its own). `eval(worker, index)` scores candidate
/// `index`: `Ok(Some((cost, value)))` qualifies it, `Ok(None)`
/// disqualifies it, and `Err` stops the search (below). Work is
/// distributed by an atomic cursor, so expensive candidates do not
/// stall cheap ones behind a static partition.
///
/// Returns `(index, cost, value)` of the winner, `None` when every
/// candidate was disqualified, plus the worker states (so callers can
/// fold per-worker statistics back into their own accounting).
///
/// # Stopping: errors and panics
///
/// An `Err` from `eval` stops the pool: no worker starts another
/// candidate, the ones already running finish, and the call returns
/// that error (the first one raised, if several workers fail). Every
/// `eval` call also runs under `catch_unwind`, and a panic stops the
/// pool the same way with [`StgError::WorkerPanicked`] instead of
/// unwinding through it. A stopped pool drops every worker state
/// cleanly, so a shared engine the caller rebuilds workers from stays
/// fully reusable. The serial path (`threads` = 1) stops the same way,
/// so the error surface does not depend on the thread count.
///
/// # Errors
///
/// The first error an `eval` call returned, or
/// [`StgError::WorkerPanicked`] when one panicked first.
pub fn parallel_argmin<W, T, FMake, FEval>(
    items: usize,
    threads: usize,
    make_worker: FMake,
    eval: FEval,
) -> ArgminResult<W, T>
where
    W: Send,
    T: Send,
    FMake: Fn() -> W + Sync,
    FEval: Fn(&mut W, usize) -> Result<Option<(usize, T)>, StgError> + Sync,
{
    let threads = effective_threads(threads).min(items.max(1));
    // The error that stopped the pool. Once it is set no worker starts
    // another candidate; a worker whose eval failed may hold a state
    // that is mid-update, but the caller never sees any result then.
    let stop: OnceLock<StgError> = OnceLock::new();
    let guarded_eval = |worker: &mut W, index: usize| -> Option<(usize, T)> {
        let result = catch_unwind(AssertUnwindSafe(|| eval(worker, index)))
            .unwrap_or(Err(StgError::WorkerPanicked));
        result.unwrap_or_else(|error| {
            // The first error wins; a later one finds the slot taken.
            let _ = stop.set(error);
            None
        })
    };
    if threads <= 1 {
        let mut worker = make_worker();
        let mut best: Option<(usize, usize, T)> = None;
        for index in 0..items {
            if stop.get().is_some() {
                break;
            }
            if let Some((cost, value)) = guarded_eval(&mut worker, index) {
                if best.as_ref().is_none_or(|&(_, c, _)| cost < c) {
                    best = Some((index, cost, value));
                }
            }
        }
        return match stop.into_inner() {
            Some(error) => Err(error),
            None => Ok((best, vec![worker])),
        };
    }

    let cursor = AtomicUsize::new(0);
    let mut results: Vec<WorkerOutcome<W, T>> = std::thread::scope(|scope| {
        let guarded_eval = &guarded_eval;
        let make_worker = &make_worker;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = make_worker();
                    let mut best: Option<(usize, usize, T)> = None;
                    while stop.get().is_none() {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items {
                            break;
                        }
                        if let Some((cost, value)) = guarded_eval(&mut worker, index) {
                            // Tie-break on index inside the worker too:
                            // the cursor hands indices in ascending
                            // order per worker, so `<` suffices here,
                            // but the cross-worker merge below needs
                            // the explicit index comparison.
                            if best.as_ref().is_none_or(|&(_, c, _)| cost < c) {
                                best = Some((index, cost, value));
                            }
                        }
                    }
                    (best, worker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("argmin worker panicked outside eval"))
            .collect()
    });

    if let Some(error) = stop.into_inner() {
        return Err(error);
    }
    let mut best: Option<(usize, usize, T)> = None;
    let mut workers = Vec::with_capacity(results.len());
    for (local, worker) in results.drain(..) {
        if let Some((index, cost, value)) = local {
            if best
                .as_ref()
                .is_none_or(|&(bi, bc, _)| (cost, index) < (bc, bi))
            {
                best = Some((index, cost, value));
            }
        }
        workers.push(worker);
    }
    Ok((best, workers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_zero_to_at_least_one() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    #[test]
    fn argmin_matches_serial_scan_at_any_thread_count() {
        // Costs with duplicates: the tie must break toward the lowest
        // index at every thread count.
        let costs = [5usize, 3, 9, 3, 7, 3, 8, 10, 4, 3];
        for threads in [1usize, 2, 3, 8, 16] {
            let (best, _) = parallel_argmin(
                costs.len(),
                threads,
                || (),
                |(), i| Ok(Some((costs[i], i * 10))),
            )
            .expect("no panics");
            let (index, cost, value) = best.expect("non-empty");
            assert_eq!((index, cost, value), (1, 3, 10), "threads={threads}");
        }
    }

    #[test]
    fn disqualified_candidates_are_skipped() {
        let (best, _) = parallel_argmin(
            6,
            4,
            || (),
            |(), i| Ok((i % 2 == 1).then_some((100 - i, i))),
        )
        .expect("no panics");
        assert_eq!(best, Some((5, 95, 5)));
        let (none, _) =
            parallel_argmin(4, 2, || (), |(), _| Ok(None::<(usize, ())>)).expect("no panics");
        assert!(none.is_none());
        let (empty, workers) =
            parallel_argmin(0, 3, || (), |(), _| Ok(Some((0, ())))).expect("no panics");
        assert!(empty.is_none());
        assert_eq!(workers.len(), 1, "no items -> single worker, no spawns");
    }

    #[test]
    fn per_worker_state_is_private_and_returned() {
        let (_, workers) = parallel_argmin(
            100,
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                Ok(Some((i, ())))
            },
        )
        .expect("no panics");
        let evaluated: usize = workers.iter().sum();
        assert_eq!(evaluated, 100, "every candidate evaluated exactly once");
    }

    #[test]
    fn panicking_eval_reports_worker_panicked_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let result = parallel_argmin(
                16,
                threads,
                || (),
                |(), i| {
                    if i == 5 {
                        panic!("injected eval panic");
                    }
                    Ok(Some((i, i)))
                },
            );
            assert_eq!(
                result.map(|(best, _)| best),
                Err(StgError::WorkerPanicked),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sibling_workers_drain_cleanly_after_a_panic() {
        use std::sync::atomic::AtomicUsize;
        // Candidate 0 panics; every other candidate must still be
        // evaluated at most once and the pool must not hang or abort.
        let evaluated = AtomicUsize::new(0);
        let result = parallel_argmin(
            64,
            4,
            || (),
            |(), i| {
                if i == 0 {
                    panic!("injected eval panic");
                }
                evaluated.fetch_add(1, Ordering::SeqCst);
                Ok(Some((i, ())))
            },
        );
        assert_eq!(result.map(|(best, _)| best), Err(StgError::WorkerPanicked));
        assert!(
            evaluated.load(Ordering::SeqCst) <= 63,
            "no candidate evaluated twice"
        );
    }

    #[test]
    fn an_eval_error_stops_the_pool_and_comes_back_at_any_thread_count() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1usize, 2, 8] {
            let evaluated = AtomicUsize::new(0);
            let last = AtomicUsize::new(0);
            let result = parallel_argmin(
                64,
                threads,
                || (),
                |(), i| {
                    evaluated.fetch_add(1, Ordering::SeqCst);
                    last.fetch_max(i, Ordering::SeqCst);
                    if i == 5 {
                        return Err(StgError::Cancelled);
                    }
                    Ok(Some((i, ())))
                },
            );
            assert_eq!(
                result.map(|(best, _)| best),
                Err(StgError::Cancelled),
                "threads={threads}"
            );
            if threads == 1 {
                assert_eq!(last.load(Ordering::SeqCst), 5, "serial: no later index");
                assert_eq!(evaluated.load(Ordering::SeqCst), 6);
            }
        }
    }
}
