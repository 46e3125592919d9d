//! The deterministic argmin behind the CSC candidate searches.
//!
//! Two consumers: the CSC candidate searches of `rt-synth`
//! (`resolve_csc_engine`) and of `rt-core`'s flow (timing-aware state
//! encoding), which score independent candidate insertions with
//! [`argmin`] and keep the cheapest.
//!
//! The search runs serially, on the caller's thread and the caller's
//! engine. One candidate costs about a microsecond on the paper's FIFO
//! (its graph is spliced from the graph the search already holds, see
//! [`crate::splice`]), and the callers that run many searches already
//! keep every core busy (the
//! service runs one job per worker thread, the benchmark one caller per
//! CPU), so a per-search thread pool only oversubscribes them. Explicit
//! reachability is serial for the same reason: a level-synchronous
//! partitioned walk lost to the serial one on every corpus model.
//!
//! ## The tie rule
//!
//! Among equal costs the candidate scored first wins: the "first
//! strictly better candidate wins" rule, `cost < best`. Callers
//! enumerate candidates in a fixed order, so a resolution is a pure
//! function of its input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::StgError;

/// Scores `candidates` in order with `eval` and returns the winner's
/// `(cost, value)`: the lowest cost, and among equal costs the one
/// scored first. `None` when every candidate was disqualified.
///
/// `eval` returns `Ok(Some((cost, value)))` to qualify a candidate,
/// `Ok(None)` to disqualify it, and `Err` to stop the search.
///
/// # Errors
///
/// The first error an `eval` call returned: no later candidate is
/// scored. A panic inside `eval` stops the search the same way, as
/// [`StgError::WorkerPanicked`], instead of unwinding through the
/// caller; a caller's engine stays fully reusable after either.
pub fn argmin<C, T>(
    candidates: impl IntoIterator<Item = C>,
    mut eval: impl FnMut(C) -> Result<Option<(usize, T)>, StgError>,
) -> Result<Option<(usize, T)>, StgError> {
    let mut best: Option<(usize, T)> = None;
    for candidate in candidates {
        let scored = catch_unwind(AssertUnwindSafe(|| eval(candidate)))
            .unwrap_or(Err(StgError::WorkerPanicked))?;
        if let Some((cost, value)) = scored {
            if best.as_ref().is_none_or(|&(c, _)| cost < c) {
                best = Some((cost, value));
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_costs_break_toward_the_lowest_index() {
        let costs = [5usize, 3, 9, 3, 7, 3, 8, 10, 4, 3];
        let best = argmin(0..costs.len(), |i| Ok(Some((costs[i], i)))).expect("no errors");
        assert_eq!(best, Some((3, 1)));
    }

    #[test]
    fn disqualified_candidates_are_skipped() {
        let best = argmin(0..6usize, |i| Ok((i % 2 == 1).then_some((100 - i, i))));
        assert_eq!(best, Ok(Some((95, 5))));
        let none = argmin(0..4usize, |_| Ok(None::<(usize, ())>));
        assert_eq!(none, Ok(None));
        let empty = argmin(0..0usize, |_| Ok(Some((0, ()))));
        assert_eq!(empty, Ok(None));
    }

    #[test]
    fn an_eval_error_stops_the_search_at_its_own_index() {
        let mut scored = Vec::new();
        let result = argmin(0..64usize, |i| {
            scored.push(i);
            if i == 5 {
                return Err(StgError::Cancelled);
            }
            // Candidate 0 would win: the error must still come back.
            Ok(Some((i, ())))
        });
        assert_eq!(result, Err(StgError::Cancelled));
        assert_eq!(scored, (0..=5).collect::<Vec<_>>(), "no later index");
    }

    #[test]
    fn a_panicking_eval_becomes_worker_panicked_and_stops_the_search() {
        let mut scored = 0;
        let result = argmin(0..16usize, |i| {
            scored += 1;
            if i == 5 {
                panic!("injected eval panic");
            }
            Ok(Some((i, i)))
        });
        assert_eq!(result, Err(StgError::WorkerPanicked));
        assert_eq!(scored, 6, "no candidate scored after the panic");
    }
}
