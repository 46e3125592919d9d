//! `ReachEngine` — the one reachability backend under the synthesis
//! pipeline.
//!
//! Every stage of the CAD loop (STG → state graph → CSC resolution →
//! region/function derivation → verification) needs reachability, and
//! before this module each stage called the analysers directly: CSC
//! resolution re-ran [`crate::reach::explore`] per candidate insertion,
//! and every symbolic query built (and threw away) a fresh
//! [`rt_boolean::Bdd`] manager. The engine is the shared façade those
//! consumers now go through — `rt-synth`'s `resolve_csc_engine` and
//! `derive_functions_for`, `rt-core`'s lazy passes, and `rt-verify`'s
//! composition all take a `&mut ReachEngine` — and it is the seam later
//! scaling work (batching, more backends) plugs into.
//!
//! ## Backend selection
//!
//! [`ReachBackend`] picks how **set-level** queries
//! ([`ReachEngine::summary`]) are answered:
//!
//! * [`ReachBackend::Explicit`] — the packed-marking/interned-arena BFS
//!   of [`crate::reach`], in a counting-only variant that skips codes
//!   and arcs. Fastest for the paper-scale controllers; handles any
//!   width the packed layouts do (`W1`/`W2`/`W4`/`Big`).
//! * [`ReachBackend::Symbolic`] — BDD image computation
//!   ([`crate::symbolic`]) inside a **persistent manager** owned by the
//!   engine (see below). Scales with BDD structure instead of state
//!   count and additionally yields the reachable set as a membership
//!   oracle ([`ReachEngine::symbolic_set`]).
//!
//! [`ReachEngine::state_graph`] builds the full coded [`StateGraph`] —
//! the object logic synthesis consumes — and is *intrinsically
//! explicit* (per-state binary codes cannot be read off a BDD without
//! enumeration), so both backends share the explicit constructor there.
//! What the symbolic backend adds on that path is an independent audit:
//! consumers cross-check the graph's state count against the symbolic
//! marking count (see `rt_synth::resolve_csc_engine`), so a bug in
//! either analyser surfaces as a loud mismatch instead of a silently
//! wrong circuit.
//!
//! ## Manager reuse and `reset`
//!
//! The symbolic backend's `Bdd` manager is created lazily on the first
//! symbolic query and then **survives across calls**: the unique table
//! and the computed table are both kept (the variable order is fixed),
//! and the variable universe widens on demand
//! ([`rt_boolean::Bdd::ensure_vars`]) so one engine serves nets of any
//! width, > 64 places included. Re-running the same net then allocates
//! no new nodes — every result is already hash-consed — and the set
//! operations between image steps hit the computed table where their
//! entries survived. That table is bounded (its slot count follows the
//! node count, and a colliding entry overwrites the old one), so a
//! mature manager keeps only part of its history. The image steps are
//! recomputed anyway: [`rt_boolean::Bdd::replace_cube`] memoizes within
//! one call only (`bench_reach`'s `csc` stage measures warm-vs-fresh).
//!
//! The trade-off is memory: the manager never frees a node, so a
//! long-lived engine grows with every query
//! ([`ReachEngine::manager_nodes`] is the gauge). Two escape hatches,
//! cheapest first: [`ReachEngine::trim`] empties only the computed
//! table while keeping the unique table, so every node id stays valid
//! and later queries are bit-identical, just recomputed;
//! [`ReachEngine::reset`] drops the whole manager (the next symbolic
//! call starts cold). Neither touches the engine's options or backend.
//! Reuse is sound because nothing is ever invalidated: a cached
//! `(op, lhs, rhs)` entry describes pure functions of immutable nodes,
//! so a poisoned result is impossible by construction — and
//! `crates/stg/tests/engine_reuse.rs` holds the line with
//! fresh-vs-reused and trimmed-vs-untrimmed bit-identical property
//! tests over the corpus.
//!
//! ## Multi-core work: per-worker managers
//!
//! The **symbolic manager deliberately stays single-threaded and
//! per-engine**: its unique table, caches and node vector are one big
//! shared-mutable structure, and hash-consing means every worker would
//! contend on every `mk`. Parallel consumers therefore hold one engine
//! *per worker* rather than sharing one manager behind a lock. The one
//! such consumer is the CSC candidate search of
//! `rt_synth::resolve_csc_engine` and of `rt-core`'s flow
//! (`rt_stg::par::parallel_argmin`), and its workers only build
//! explicit graphs ([`ReachEngine::state_graph`]), so no manager is
//! ever created on them. Determinism is preserved there by the pool's
//! `(cost, index)` reduction, not by scheduling.
//!
//! ## Budgets and degradation
//!
//! Every query runs under the [`ExploreOptions::budget`] — one
//! [`Budget`] covering all three execution paths (explicit BFS,
//! symbolic reach, symbolic CSC): soft state ceiling, BDD-footprint
//! ceiling, fixpoint-iteration ceiling, and deadline/cancellation via a
//! shared [`crate::budget::CancelToken`]. Checks run at **round /
//! iteration granularity** — once per BFS layer or image step, never
//! per state — so an overrun stops within one round.
//!
//! On a *soft* budget overrun ([`StgError::is_resource_exhaustion`])
//! the engine degrades along a policy chain instead of dying, recording
//! each step as a typed [`Degradation`] in [`EngineStats::degradations`]:
//!
//! * **Symbolic backend, node/iteration budget blown** →
//!   [`Degradation::SymbolicTrimRetry`]: [`ReachEngine::trim`] empties
//!   the computed table and the query retries once. Still blown →
//!   [`Degradation::SymbolicToExplicit`]:
//!   the summary is served by the explicit counting walk (which has no
//!   signal cap) under the same budget.
//! * **Explicit backend, state budget blown** →
//!   [`Degradation::ExplicitToSymbolic`]: the summary is served
//!   symbolically when the net fits the engine's code-width contract
//!   (≤ 64 signals); BDD size scales with structure, not state count,
//!   so the symbolic run routinely fits where enumeration does not.
//! * **Synthesis truncation** — `rt_synth::resolve_csc_engine` records
//!   [`Degradation::PartialSynthesis`] (via
//!   [`ReachEngine::note_degradation`]) when a budget cut its candidate
//!   search short and it returns the best candidate found so far
//!   instead of aborting.
//!
//! The BDD-footprint ceiling is checked against
//! [`rt_boolean::Bdd::footprint`] — allocated nodes plus occupied
//! computed-table slots — at iteration boundaries. The manager frees no
//! nodes, so short of a reset only a trim lowers the footprint, and
//! only by its computed-table entries. Those are bounded by the node
//! count (on a grown manager, fewer than two per node), so a trim frees
//! less than two thirds of a mature manager's footprint, not the bulk
//! of it: a budget far below the node count stays blown and falls
//! through to the explicit walk.
//!
//! Two things never degrade: the hard
//! [`ExploreOptions::state_limit`] (an error contract callers rely on)
//! and [`StgError::Cancelled`] (a demand to stop, honoured
//! immediately). And no overrun — budget, cancellation, or even a
//! candidate-worker panic (isolated via `catch_unwind` in
//! [`crate::par`]) — ever corrupts engine state: the explicit arenas
//! are per-call, and the persistent manager only ever grows by
//! *complete* hash-consed nodes between iteration-boundary checks, so
//! the engine stays fully reusable and its next run is bit-identical
//! to a fresh engine's (`crates/stg/tests/engine_reuse.rs` and
//! `crates/stg/tests/fault_injection.rs` pin this).
//!
//! ## Service layer
//!
//! `rt-service` runs these engines behind a long-lived, supervised
//! synthesis/verification service, and the budget contract above is
//! exactly what makes that safe. The division of labour:
//!
//! * **The engine** owns per-request execution: budgets polled at
//!   round/iteration granularity, the degradation chain, and warm
//!   reuse *within* one request (the two symbolic queries that audit
//!   a `rt_synth::resolve_csc_engine` resolution share one manager).
//! * **The service** owns cross-request policy. It builds a fresh
//!   engine for every request and every retry attempt, so a worker
//!   holds no manager between jobs and an answer — degradations
//!   included — never depends on what the worker served before. A
//!   request whose worker panics loses only its own engine. On top of
//!   that sit bounded admission with deterministic load shedding,
//!   retry with bounded backoff on [`StgError::is_resource_exhaustion`]
//!   errors (the residual deadline is split across attempts via
//!   [`Budget::remaining_deadline`](crate::budget::Budget::remaining_deadline)),
//!   and a bounded memo of successful replies keyed by the request's
//!   exact payload bytes (its canonical wire encoding, names included),
//!   so a hit is exactly the answer to the caller's own input. Cached
//!   entries keep the [`Degradation`]s of the run that produced them,
//!   so a cache hit can never silently upgrade a partial answer to a
//!   full one.
//!
//! Deadlines and cancellation stay hard stops at every layer: the
//! service never retries a [`StgError::Cancelled`], and a request
//! admitted past its deadline is answered with it before the engine is
//! touched.
//!
//! ## Daemon
//!
//! One layer further out, `rt-service` exposes the pool over TCP:
//! `rt-daemon` accepts connections on `std::net` (no external
//! dependencies), speaks a versioned length-prefixed binary protocol
//! (`rt_service::proto`), and maps every wire-level failure — framing
//! errors, a client vanishing mid-request, a deadline carried in the
//! request — onto the same typed service errors and budget machinery
//! described above, never onto new ad-hoc paths. In front of the pool
//! the service coalesces identical in-flight requests (single-flight
//! dedup on the same exact payload bytes as the memo; open flights,
//! memo entries and idempotency records are rows of one table) and
//! drains admissions in deterministic FIFO order, so N clients asking
//! the same question cost one engine dispatch and each receives the
//! bit-identical response a direct engine call would have produced.
//!
//! The daemon also survives hostile or flaky peers without ever
//! touching engine semantics: every connection carries an I/O deadline
//! (a half-open or slow-loris peer costs a counted timeout and a
//! closed socket, nothing more), per-client fairness quotas bound how
//! many requests one identity may hold in flight (excess is refused
//! with a typed quota error, so one greedy tenant can never starve
//! another's access to the pool), and deadline-free requests may carry
//! an idempotency key: a client that loses its connection mid-request
//! can resubmit the same request under the same key and is guaranteed
//! **exactly one** engine execution — the resubmission joins the
//! original flight or replays its recorded reply, bit-identical either
//! way. Requests that
//! carry deadlines are excluded from replay (the budget machinery
//! above already makes re-running them observable), keeping the
//! exactly-once contract aligned with the hard-stop contract.
//!
//! ## Example
//!
//! ```
//! use rt_stg::engine::{ReachBackend, ReachEngine};
//! use rt_stg::models;
//!
//! # fn main() -> Result<(), rt_stg::StgError> {
//! let mut engine = ReachEngine::symbolic();
//! let stg = models::fifo_stg();
//! let sg = engine.state_graph(&stg)?;          // coded graph for synthesis
//! let summary = engine.summary(&stg)?;         // first symbolic call: cold
//! assert_eq!(summary.markings, sg.state_count() as u64);
//! engine.summary(&stg)?;                       // warm: reuses the manager
//! assert_eq!(engine.stats().manager_reuses, 1);
//! engine.reset();                              // drop the manager
//! assert_eq!(engine.manager_nodes(), 0);
//! # Ok(())
//! # }
//! ```

use rt_boolean::Bdd;

use crate::budget::Budget;
use crate::error::StgError;
use crate::reach::{count_markings_with, explore_with, ExploreOptions};
use crate::state_graph::StateGraph;
use crate::stg::Stg;

use crate::symbolic::csc::{csc_conflicts_symbolic_opts, CscAnalysis};
use crate::symbolic::{reach_symbolic_with, SymbolicReach};

/// Which analyser answers the engine's set-level queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReachBackend {
    /// Packed-marking explicit enumeration (counting-only walk).
    #[default]
    Explicit,
    /// BDD image computation in the engine's persistent manager.
    Symbolic,
}

/// A backend-agnostic reachability answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachSummary {
    /// Number of distinct reachable markings.
    pub markings: u64,
    /// Fixpoint iterations (BFS layers). The two backends count layers
    /// the same way, but silent-transition structure can make them
    /// differ by the layer the initial marking is assigned to; treat as
    /// a per-backend diagnostic, not a cross-backend invariant.
    pub iterations: usize,
    /// Nodes allocated in the engine's manager after the call (0 on
    /// the explicit backend). Nothing is freed, so a reused manager
    /// counts every earlier query's nodes too.
    pub bdd_nodes: usize,
}

/// One step of the engine's budget-degradation policy chain (see the
/// module docs), recorded in [`EngineStats::degradations`] so callers —
/// and the bench regression gate — can tell a first-class answer from a
/// fallback one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// A symbolic query blew its node/iteration budget; the manager's
    /// memo caches were trimmed and the query retried once.
    SymbolicTrimRetry,
    /// The trim-retry still blew the budget; the summary was served by
    /// the explicit counting walk instead.
    SymbolicToExplicit,
    /// An explicit summary blew the soft state budget; it was served
    /// symbolically instead.
    ExplicitToSymbolic,
    /// A budget cut a synthesis candidate search short; the caller
    /// returned the best candidate found so far, flagged `truncated`.
    PartialSynthesis,
}

/// Usage counters, mostly for benches and reuse assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Full state-graph constructions served.
    pub graph_builds: usize,
    /// Set-level summaries served (either backend).
    pub summaries: usize,
    /// Symbolic queries that found a manager already alive (the reuse
    /// path, as opposed to a cold first build).
    pub manager_reuses: usize,
    /// Times [`ReachEngine::reset`] dropped the manager.
    pub resets: usize,
    /// Times [`ReachEngine::trim`] dropped the manager's memo caches.
    pub trims: usize,
    /// Symbolic CSC conflict analyses served
    /// ([`ReachEngine::csc_conflicts_symbolic`]): conflict checks, and
    /// the audit of each resolution a symbolic engine accepts.
    pub symbolic_csc: usize,
    /// Every degradation the engine performed, in order. Empty on a
    /// healthy run — the standard corpus under default budgets must
    /// keep it empty, which `bench_check` gates on.
    pub degradations: Vec<Degradation>,
}

impl EngineStats {
    /// Folds `other` into `self`, counter by counter. This is how a
    /// parallel candidate search reports the work its per-worker
    /// engines did back to the caller's engine
    /// ([`ReachEngine::absorb_stats`]).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.graph_builds += other.graph_builds;
        self.summaries += other.summaries;
        self.manager_reuses += other.manager_reuses;
        self.resets += other.resets;
        self.trims += other.trims;
        self.symbolic_csc += other.symbolic_csc;
        self.degradations.extend_from_slice(&other.degradations);
    }
}

/// The reusable reachability façade. See the module docs for the
/// backend and reuse semantics.
#[derive(Debug, Clone, Default)]
pub struct ReachEngine {
    backend: ReachBackend,
    options: ExploreOptions,
    manager: Option<Bdd>,
    stats: EngineStats,
}

impl ReachEngine {
    /// An engine with the explicit backend and default
    /// [`ExploreOptions`].
    pub fn explicit() -> Self {
        ReachEngine::new(ReachBackend::Explicit)
    }

    /// An engine with the symbolic backend (persistent manager) and
    /// default [`ExploreOptions`].
    pub fn symbolic() -> Self {
        ReachEngine::new(ReachBackend::Symbolic)
    }

    /// An engine with `backend` and default options.
    pub fn new(backend: ReachBackend) -> Self {
        ReachEngine::with_options(backend, ExploreOptions::default())
    }

    /// Full-control constructor.
    pub fn with_options(backend: ReachBackend, options: ExploreOptions) -> Self {
        ReachEngine {
            backend,
            options,
            manager: None,
            stats: EngineStats::default(),
        }
    }

    /// Builder-style [`Budget`] override: every subsequent query runs
    /// under it (see the module docs' *Budgets and degradation*).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.options.budget = budget;
        self
    }

    /// The budget every query runs under.
    pub fn budget(&self) -> &Budget {
        &self.options.budget
    }

    /// The configured backend.
    pub fn backend(&self) -> ReachBackend {
        self.backend
    }

    /// The exploration options every query runs under.
    pub fn options(&self) -> &ExploreOptions {
        &self.options
    }

    /// Mutable access to the options (e.g. to tighten `state_limit`
    /// between pipeline stages).
    pub fn options_mut(&mut self) -> &mut ExploreOptions {
        &mut self.options
    }

    /// Usage counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Builds the full coded [`StateGraph`] of `stg` — the explicit
    /// object every downstream synthesis pass consumes. Identical on
    /// both backends (see module docs); the backend governs
    /// [`ReachEngine::summary`].
    ///
    /// # Errors
    ///
    /// Propagates every failure mode of [`crate::reach::explore_with`].
    pub fn state_graph(&mut self, stg: &Stg) -> Result<StateGraph, StgError> {
        self.stats.graph_builds += 1;
        explore_with(stg, &self.options)
    }

    /// Answers the set-level question "how many markings are reachable"
    /// through the configured backend, degrading to the other backend
    /// on a *soft* budget overrun (see the module docs' *Budgets and
    /// degradation*; each fallback step is recorded in
    /// [`EngineStats::degradations`]). The hard `state_limit` and
    /// cancellation never degrade.
    ///
    /// # Errors
    ///
    /// Explicit backend: [`crate::reach::count_markings_with`]'s errors.
    /// Symbolic backend: [`crate::symbolic::reach_symbolic_in`]'s.
    /// Either may additionally surface the budget errors of
    /// [`crate::budget::Budget`] when the fallback chain is exhausted.
    pub fn summary(&mut self, stg: &Stg) -> Result<ReachSummary, StgError> {
        self.stats.summaries += 1;
        match self.backend {
            ReachBackend::Explicit => match self.explicit_summary(stg) {
                Err(error @ StgError::StateBudgetExceeded { .. }) => {
                    // Enumeration blew the soft budget. A symbolic run
                    // scales with BDD structure instead of state count,
                    // so serve it symbolically when the net fits the
                    // engine's code-width contract.
                    if stg.signal_count() <= 64 {
                        self.stats
                            .degradations
                            .push(Degradation::ExplicitToSymbolic);
                        self.symbolic_summary(stg)
                    } else {
                        Err(error)
                    }
                }
                other => other,
            },
            ReachBackend::Symbolic => match self.symbolic_summary(stg) {
                Err(error) if error.is_resource_exhaustion() => {
                    // First rung: empty the computed table and retry
                    // once. Trim never changes results (bit-identical
                    // replay), only frees headroom.
                    self.stats.degradations.push(Degradation::SymbolicTrimRetry);
                    self.trim();
                    match self.symbolic_summary(stg) {
                        Err(retry) if retry.is_resource_exhaustion() => {
                            // Second rung: the explicit counting walk,
                            // under the same budget.
                            self.stats
                                .degradations
                                .push(Degradation::SymbolicToExplicit);
                            self.explicit_summary(stg)
                        }
                        other => other,
                    }
                }
                other => other,
            },
        }
    }

    /// The explicit counting walk as a [`ReachSummary`].
    fn explicit_summary(&mut self, stg: &Stg) -> Result<ReachSummary, StgError> {
        let count = count_markings_with(stg, &self.options)?;
        Ok(ReachSummary {
            markings: count.markings,
            iterations: count.iterations,
            bdd_nodes: 0,
        })
    }

    /// The symbolic run as a [`ReachSummary`].
    fn symbolic_summary(&mut self, stg: &Stg) -> Result<ReachSummary, StgError> {
        let result = self.symbolic_set(stg)?;
        Ok(ReachSummary {
            markings: result.markings,
            iterations: result.iterations,
            bdd_nodes: result.bdd_nodes,
        })
    }

    /// Runs symbolic reachability in the engine's persistent manager and
    /// returns the full [`SymbolicReach`], including the reachable-set
    /// node for membership queries against [`ReachEngine::manager`].
    /// Available regardless of the configured backend (it *is* the
    /// symbolic facility; the backend only selects what
    /// [`ReachEngine::summary`] uses).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::symbolic::reach_symbolic_in`]'s errors, plus
    /// the budget errors of [`crate::budget::Budget`] (no degradation
    /// at this level — [`ReachEngine::summary`] owns the policy chain).
    pub fn symbolic_set(&mut self, stg: &Stg) -> Result<SymbolicReach, StgError> {
        if self.manager.is_some() {
            self.stats.manager_reuses += 1;
        }
        let options = self.options.clone();
        let manager = self
            .manager
            .get_or_insert_with(|| Bdd::new(stg.net().place_count()));
        manager.set_node_budget(options.budget.max_bdd_nodes);
        reach_symbolic_with(stg, manager, &options)
    }

    /// Runs the full symbolic CSC conflict analysis of `stg`
    /// ([`crate::symbolic::csc`]) in the engine's persistent manager:
    /// conflict count and witness, reachable-marking count, deadlock
    /// and strong-connectivity flags — all **without building a
    /// [`StateGraph`]** (the call leaves
    /// [`EngineStats::graph_builds`] untouched and bumps
    /// [`EngineStats::symbolic_csc`] instead). Like
    /// [`ReachEngine::symbolic_set`], it is available regardless of
    /// the configured backend, and repeated analyses of the same (or a
    /// structurally similar) net reuse the warm manager's nodes.
    ///
    /// # Errors
    ///
    /// Propagates [`csc_conflicts_symbolic_in`]'s errors
    /// (> 64 signals, inconsistency, no fixpoint). A *soft* budget
    /// overrun gets one [`Degradation::SymbolicTrimRetry`] (trim the
    /// caches, retry once) before propagating — there is no explicit
    /// fallback here, because the explicit detector needs a
    /// [`StateGraph`] this call exists to avoid.
    ///
    /// [`csc_conflicts_symbolic_in`]: crate::symbolic::csc::csc_conflicts_symbolic_in
    pub fn csc_conflicts_symbolic(&mut self, stg: &Stg) -> Result<CscAnalysis, StgError> {
        if self.manager.is_some() {
            self.stats.manager_reuses += 1;
        }
        self.stats.symbolic_csc += 1;
        match self.csc_symbolic_once(stg) {
            Err(error) if error.is_resource_exhaustion() => {
                self.stats.degradations.push(Degradation::SymbolicTrimRetry);
                self.trim();
                self.csc_symbolic_once(stg)
            }
            other => other,
        }
    }

    /// One un-degraded symbolic CSC analysis in the persistent manager.
    fn csc_symbolic_once(&mut self, stg: &Stg) -> Result<CscAnalysis, StgError> {
        let options = self.options.clone();
        let manager = self
            .manager
            .get_or_insert_with(|| Bdd::new(stg.net().place_count()));
        manager.set_node_budget(options.budget.max_bdd_nodes);
        // The engine's own options drive the initial-code inference so
        // both detectors derive identical codes under any tuning.
        csc_conflicts_symbolic_opts(stg, manager, &options)
    }

    /// The persistent manager, if a symbolic query has run since the
    /// last [`ReachEngine::reset`]. Needed to evaluate a
    /// [`SymbolicReach::set`] returned by [`ReachEngine::symbolic_set`].
    pub fn manager(&self) -> Option<&Bdd> {
        self.manager.as_ref()
    }

    /// Nodes allocated in the persistent manager (0 when no manager is
    /// alive) — the memory gauge for deciding when to
    /// [`ReachEngine::reset`].
    pub fn manager_nodes(&self) -> usize {
        self.manager.as_ref().map_or(0, Bdd::node_count)
    }

    /// Drops the persistent symbolic manager: the next symbolic query
    /// starts from a cold unique table and caches. Options, backend and
    /// counters (except the `resets` increment) are untouched. Explicit
    /// state is per-call, so this is a no-op for the explicit backend
    /// beyond bookkeeping.
    pub fn reset(&mut self) {
        self.stats.resets += 1;
        self.manager = None;
    }

    /// Empties the persistent manager's computed table while keeping
    /// the unique table and all nodes alive — the cheap middle ground
    /// between full reuse and [`ReachEngine::reset`]. Later queries
    /// return bit-identical results (hash consing still deduplicates
    /// onto the same nodes; the computed table only avoids
    /// recomputation), so this trades warm-query speed for footprint
    /// without a cold restart. No-op when no manager is alive.
    pub fn trim(&mut self) {
        self.stats.trims += 1;
        if let Some(manager) = self.manager.as_mut() {
            manager.trim_caches();
        }
    }

    /// Occupied slots of the persistent manager's computed table (0
    /// when no manager is alive) — the gauge [`ReachEngine::trim`]
    /// empties.
    pub fn manager_cache_len(&self) -> usize {
        self.manager.as_ref().map_or(0, Bdd::cache_len)
    }

    /// Folds the statistics of another engine (typically a worker from
    /// a parallel candidate search) into this engine's counters.
    pub fn absorb_stats(&mut self, other: &EngineStats) {
        self.stats.absorb(other);
    }

    /// Records a degradation decided *outside* the engine — e.g.
    /// `rt_synth::resolve_csc_engine` noting
    /// [`Degradation::PartialSynthesis`] when a budget truncated its
    /// candidate search — so [`EngineStats::degradations`] stays the
    /// one place callers and the bench gate look.
    pub fn note_degradation(&mut self, degradation: Degradation) {
        self.stats.degradations.push(degradation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::stg::Stg;

    #[test]
    fn backends_agree_on_summary_counts() {
        let mut explicit = ReachEngine::explicit();
        let mut symbolic = ReachEngine::symbolic();
        for stg in [
            models::handshake_stg(),
            models::fifo_stg(),
            models::fifo_stg_csc(),
            models::celement_stg(),
            models::ring_stg(6, 2),
        ] {
            let sg = explicit.state_graph(&stg).expect("explores");
            let e = explicit.summary(&stg).expect("explicit summary");
            let s = symbolic.summary(&stg).expect("symbolic summary");
            assert_eq!(e.markings, sg.state_count() as u64, "{}", stg.name());
            assert_eq!(s.markings, e.markings, "{}", stg.name());
            assert_eq!(e.bdd_nodes, 0);
            assert!(s.bdd_nodes > 2);
        }
    }

    #[test]
    fn symbolic_manager_persists_and_resets() {
        let mut engine = ReachEngine::symbolic();
        let stg = models::fifo_stg();
        engine.summary(&stg).expect("first run");
        let nodes_after_first = engine.manager_nodes();
        assert!(nodes_after_first > 2);
        assert_eq!(engine.stats().manager_reuses, 0);

        // Second run reuses the manager: no new nodes for the same net.
        engine.summary(&stg).expect("second run");
        assert_eq!(engine.manager_nodes(), nodes_after_first);
        assert_eq!(engine.stats().manager_reuses, 1);

        // A different net widens/extends the same manager.
        engine.summary(&models::celement_stg()).expect("third run");
        assert!(engine.manager_nodes() > nodes_after_first);
        assert_eq!(engine.stats().manager_reuses, 2);

        engine.reset();
        assert_eq!(engine.manager_nodes(), 0);
        assert!(engine.manager().is_none());
        assert_eq!(engine.stats().resets, 1);

        // Cold again after reset.
        engine.summary(&stg).expect("post-reset run");
        assert_eq!(engine.stats().manager_reuses, 2, "post-reset call is cold");
        assert_eq!(engine.manager_nodes(), nodes_after_first);
    }

    #[test]
    fn explicit_backend_counts_without_codes() {
        // A 70-signal net is over the state-graph code cap, but the
        // counting walk does not need codes.
        let mut stg = Stg::new("wide_signals");
        let mut first_rise = None;
        let mut prev = None;
        for i in 0..70 {
            let s = stg
                .add_signal(format!("s{i}"), crate::signal::SignalKind::Internal)
                .expect("fresh");
            let rise = stg.transition_for(s, crate::signal::Edge::Rise);
            let fall = stg.transition_for(s, crate::signal::Edge::Fall);
            stg.arc(rise, fall);
            if let Some(p) = prev {
                stg.arc(p, rise);
            }
            first_rise.get_or_insert(rise);
            prev = Some(fall);
        }
        // Close the ring with the token.
        stg.marked_arc(prev.expect("last fall"), first_rise.expect("first rise"));

        let mut engine = ReachEngine::explicit();
        assert!(engine.state_graph(&stg).is_err(), "codes cap at 64 signals");
        let summary = engine.summary(&stg).expect("counting walk is uncapped");
        assert_eq!(
            summary.markings, 140,
            "one state per transition of the ring"
        );
    }

    #[test]
    fn trim_keeps_nodes_and_reproduces_results() {
        let mut engine = ReachEngine::symbolic();
        let stg = models::fifo_stg();
        let before = engine.symbolic_set(&stg).expect("first run");
        let nodes = engine.manager_nodes();
        assert!(engine.manager_cache_len() > 0, "warm caches exist");
        engine.trim();
        assert_eq!(engine.stats().trims, 1);
        assert_eq!(engine.manager_cache_len(), 0, "caches dropped");
        assert_eq!(engine.manager_nodes(), nodes, "unique table kept");
        let after = engine.symbolic_set(&stg).expect("post-trim run");
        assert_eq!(before.markings, after.markings);
        assert_eq!(before.set, after.set, "same node id: bit-identical set");
        assert_eq!(
            engine.manager_nodes(),
            nodes,
            "no new nodes after trim replay"
        );
    }

    #[test]
    fn absorbed_stats_accumulate() {
        let mut main = ReachEngine::explicit();
        let mut worker = ReachEngine::explicit();
        worker.state_graph(&models::fifo_stg()).expect("explores");
        worker.summary(&models::fifo_stg()).expect("summarizes");
        main.absorb_stats(worker.stats());
        assert_eq!(main.stats().graph_builds, 1);
        assert_eq!(main.stats().summaries, 1);
    }

    #[test]
    fn options_are_respected_by_both_query_kinds() {
        let mut engine = ReachEngine::explicit();
        engine.options_mut().state_limit = 2;
        let stg = models::fifo_stg();
        assert!(engine.state_graph(&stg).is_err());
        assert!(engine.summary(&stg).is_err());
        assert_eq!(engine.stats().graph_builds, 1);
        assert_eq!(engine.stats().summaries, 1);
        assert!(
            engine.stats().degradations.is_empty(),
            "the hard state_limit never degrades"
        );
    }

    #[test]
    fn explicit_state_budget_degrades_to_symbolic() {
        let stg = models::fifo_stg(); // 18 markings
        let mut engine = ReachEngine::explicit().with_budget(Budget::default().with_max_states(4));
        let summary = engine.summary(&stg).expect("degraded summary succeeds");
        assert_eq!(summary.markings, 18, "symbolic fallback is exact");
        assert!(summary.bdd_nodes > 2, "served by the symbolic backend");
        assert_eq!(
            engine.stats().degradations,
            vec![Degradation::ExplicitToSymbolic]
        );
        // The engine stays reusable and un-degraded runs stay clean:
        // lift the budget and the next summary is explicit again.
        engine.options_mut().budget = Budget::default();
        let clean = engine.summary(&stg).expect("clean run");
        assert_eq!(clean.markings, 18);
        assert_eq!(clean.bdd_nodes, 0, "explicit again");
        assert_eq!(engine.stats().degradations.len(), 1, "no new degradation");
    }

    #[test]
    fn symbolic_iteration_budget_degrades_via_trim_to_explicit() {
        let stg = models::fifo_stg();
        let mut engine =
            ReachEngine::symbolic().with_budget(Budget::default().with_max_iterations(1));
        let summary = engine.summary(&stg).expect("explicit fallback succeeds");
        assert_eq!(summary.markings, 18);
        assert_eq!(summary.bdd_nodes, 0, "served by the explicit walk");
        assert_eq!(
            engine.stats().degradations,
            vec![
                Degradation::SymbolicTrimRetry,
                Degradation::SymbolicToExplicit
            ]
        );
        assert_eq!(engine.stats().trims, 1);
    }

    #[test]
    fn symbolic_node_budget_can_clear_after_a_trim() {
        // Warm the manager on other nets so its caches dominate the
        // footprint, then set a budget the trimmed manager fits in: the
        // trim-retry rung alone must rescue the query.
        let stg = models::fifo_stg();
        let mut engine = ReachEngine::symbolic();
        engine.summary(&stg).expect("warm-up");
        engine.summary(&models::celement_stg()).expect("warm-up 2");
        engine.summary(&models::ring_stg(6, 2)).expect("warm-up 3");
        let nodes = engine.manager_nodes();
        assert!(engine.manager_cache_len() > 0);
        // Fits the nodes plus a replay's worth of fresh cache entries,
        // but not the current accumulated caches.
        let budget_nodes = nodes + engine.manager_cache_len() / 2;
        assert!(nodes + engine.manager_cache_len() > budget_nodes);
        engine.options_mut().budget = Budget::default().with_max_bdd_nodes(budget_nodes);
        let summary = engine.summary(&stg).expect("trim-retry rescues");
        assert_eq!(summary.markings, 18);
        assert!(summary.bdd_nodes > 2, "still served symbolically");
        assert_eq!(
            engine.stats().degradations,
            vec![Degradation::SymbolicTrimRetry]
        );
    }

    #[test]
    fn cancellation_is_a_hard_stop_on_both_backends() {
        let stg = models::fifo_stg();
        for mut engine in [ReachEngine::explicit(), ReachEngine::symbolic()] {
            engine.budget().cancel.cancel();
            assert_eq!(engine.summary(&stg), Err(StgError::Cancelled));
            assert!(
                engine.stats().degradations.is_empty(),
                "cancellation never degrades"
            );
            // Un-cancellable only by replacing the budget — after which
            // the engine serves normally again.
            engine.options_mut().budget = Budget::default();
            assert_eq!(engine.summary(&stg).expect("recovers").markings, 18);
        }
    }

    #[test]
    fn noted_degradations_travel_through_absorb() {
        let mut main = ReachEngine::explicit();
        let mut worker = ReachEngine::explicit();
        worker.note_degradation(Degradation::PartialSynthesis);
        main.absorb_stats(worker.stats());
        assert_eq!(
            main.stats().degradations,
            vec![Degradation::PartialSynthesis]
        );
    }
}
