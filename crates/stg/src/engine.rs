//! `ReachEngine` — the one reachability backend under the synthesis
//! pipeline.
//!
//! Every stage of the CAD loop (STG → state graph → CSC resolution →
//! region/function derivation → verification) needs reachability, and
//! before this module each stage called the analysers directly: CSC
//! resolution re-ran [`crate::reach::explore`] per candidate insertion,
//! and every symbolic query built (and threw away) a fresh
//! [`rt_boolean::Bdd`] manager. The engine is the shared façade those
//! consumers now go through — `rt-synth`'s `resolve_csc_engine`,
//! `rt-core`'s lazy passes, and `rt-verify`'s composition all take a
//! `&mut ReachEngine`.
//!
//! ## Backend selection
//!
//! [`ReachBackend`] gives each engine one rule for the **set-level**
//! queries, [`ReachEngine::summary`] and [`ReachEngine::csc_check`]:
//!
//! * [`ReachBackend::Explicit`] — explicit first, BDDs past a ceiling.
//!   The query walks the packed-marking/interned-arena BFS of
//!   [`crate::reach`] (a counting-only variant for `summary`, the coded
//!   [`StateGraph`] for `csc_check`) under a soft state ceiling: the
//!   caller's [`Budget::max_states`] or [`EXPLICIT_CEILING`], whichever
//!   is lower. Past it, BDD image computation ([`crate::symbolic`])
//!   answers instead, exactly. The ceiling sits near the measured
//!   crossover: on pipeline rings the walk wins or ties up to about
//!   2^17 markings on `summary` and 2^18 on `csc_check`.
//! * [`ReachBackend::Symbolic`] — BDDs and nothing else, in a
//!   **persistent manager** owned by the engine (see below). This is
//!   the independent oracle the explicit answers are checked against.
//!
//! [`ReachEngine::state_graph`] builds the full coded [`StateGraph`] —
//! the object logic synthesis consumes — and is *intrinsically
//! explicit* (per-state binary codes cannot be read off a BDD without
//! enumeration), so both backends share the explicit constructor there.
//! What the symbolic backend adds on that path is an independent audit:
//! `rt_synth::resolve_csc_engine` cross-checks an accepted graph's state
//! and conflict counts against the BDD analysers, so a bug in either
//! surfaces as a loud mismatch instead of a silently wrong circuit.
//! [`ReachEngine::symbolic_set`] and
//! [`ReachEngine::csc_conflicts_symbolic`] run the BDD analysers
//! directly on either backend.
//!
//! ## Spliced graphs
//!
//! The CSC encoding searches score hundreds of candidate insertions of
//! a state signal per round, each a small change to one net.
//! [`ReachEngine::spliced_state_graph`] builds a candidate's coded graph
//! from the graph of the net it splices, which the search already holds:
//! it walks the base graph's states paired with where the spliced tokens
//! sit, in [`crate::reach::explore_with`]'s order, so it neither rebuilds
//! the candidate STG nor hashes a marking. The result equals
//! [`ReachEngine::state_graph`] on the rebuilt STG ([`Splice::insert`])
//! in state order, codes, arcs and markings, or fails with the same
//! [`StgError`] variant; it counts as one graph build and runs under
//! the same budget and hard cap (see [`crate::splice`]).
//!
//! ## Manager reuse
//!
//! The engine's `Bdd` manager is created lazily on the first BDD query
//! and then **survives across calls** of that engine: the unique table
//! and the computed table are both kept (the variable order is fixed),
//! and the variable universe widens on demand
//! ([`rt_boolean::Bdd::ensure_vars`]) so one engine serves nets of any
//! width, > 64 places included. Re-running the same net then allocates
//! no new nodes — every result is already hash-consed — and the set
//! operations between image steps hit the computed table where their
//! entries survived. That table is bounded (a quarter to a half as many
//! slots as nodes once it has grown, and a colliding entry overwrites
//! the old one), so a mature manager keeps only part of its history. The
//! image steps are recomputed anyway: [`rt_boolean::Bdd::replace_cube`]
//! memoizes within one call only, in a memo sized by one call's work
//! (`bench_reach`'s `csc` stage measures warm-vs-fresh).
//!
//! The manager never frees a node, so an engine grows with every BDD
//! query ([`ReachEngine::manager_nodes`] is the gauge) until it is
//! dropped. Callers that serve many unrelated queries build one engine
//! per request, as `rt-service` does. Reuse is sound because nothing is
//! ever invalidated: a cached `(op, lhs, rhs)` entry describes pure
//! functions of immutable nodes, so a poisoned result is impossible by
//! construction — and `crates/stg/tests/engine_reuse.rs` holds the line
//! with fresh-vs-reused bit-identical property tests over the corpus.
//!
//! ## Multi-core work: one engine per thread
//!
//! The **symbolic manager deliberately stays single-threaded and
//! per-engine**: its unique table, caches and node vector are one big
//! shared-mutable structure, and hash-consing means every thread would
//! contend on every `mk`. Parallel callers therefore hold one engine
//! per thread rather than sharing one manager behind a lock, as
//! `rt-service`'s workers do (a fresh engine per job). The CSC
//! candidate searches of `rt_synth::resolve_csc_engine` and of
//! `rt-core`'s flow run serially on the caller's engine
//! ([`crate::par::argmin`]) and only build explicit graphs
//! ([`ReachEngine::spliced_state_graph`]), so they never touch its
//! manager.
//!
//! ## Budgets and degradation
//!
//! Every query runs under the engine's [`Budget`] and nothing else —
//! one budget covering all three execution paths (explicit BFS,
//! symbolic reach, symbolic CSC): soft state ceiling, BDD-footprint
//! ceiling, fixpoint-iteration ceiling, and deadline/cancellation via a
//! shared [`crate::budget::CancelToken`]. Checks run at **round /
//! iteration granularity** — once per BFS layer or image step, never
//! per state — so an overrun stops within one round. Besides the
//! budget, every walk takes safe nets only and stops at the hard cap
//! [`STATE_LIMIT`] (see [`crate::reach`]): an initial marking with two
//! tokens on a place is the same [`StgError::Unbounded`] on both
//! backends, before any BDD is built. The built-in [`EXPLICIT_CEILING`]
//! is handed to the walk in place of that cap, so a walk stops at the
//! ceiling exactly.
//!
//! A fallback the caller's own budget forced is recorded as a typed
//! [`Degradation`] in [`EngineStats::degradations`]:
//!
//! * **Explicit backend, the caller's `max_states` blown** →
//!   [`Degradation::ExplicitToSymbolic`]: BDDs answer the query. BDD
//!   size scales with structure, not state count, so the symbolic run
//!   routinely fits where enumeration does not. Crossing
//!   [`EXPLICIT_CEILING`] is policy, not a degradation: that answer is
//!   exact and unflagged, and its `bdd_nodes > 0` shows which analyser
//!   gave it.
//! * **Any BDD query, node or iteration budget blown** → the error
//!   propagates. A retry on a fresh engine under the same budget blows
//!   it again, so only the caller can decide to spend more.
//! * **Synthesis truncation** — `rt_synth::resolve_csc_engine` records
//!   [`Degradation::PartialSynthesis`] (via
//!   [`ReachEngine::note_degradation`]) when a budget cut its candidate
//!   search short and it returns the best candidate found so far
//!   instead of aborting.
//!
//! The BDD-footprint ceiling is checked against
//! [`rt_boolean::Bdd::footprint`] — allocated nodes plus occupied
//! computed-table slots — at iteration boundaries. The manager frees no
//! nodes, so a footprint only grows.
//!
//! Two things never degrade: the hard cap [`STATE_LIMIT`] of
//! [`ReachEngine::state_graph`] and [`ReachEngine::spliced_state_graph`]
//! (no analyser builds a coded graph past it) and
//! [`StgError::Cancelled`] (a demand to stop, honoured immediately).
//! And no overrun — budget, cancellation, or even a panicking candidate
//! evaluation (caught by `catch_unwind` in
//! [`crate::par::argmin`]) — ever corrupts engine state: the explicit
//! arenas are per-call, and the persistent manager only ever grows by
//! *complete* hash-consed nodes between iteration-boundary checks, so
//! the engine stays fully reusable and its next run is bit-identical
//! to a fresh engine's (`crates/stg/tests/engine_reuse.rs` and
//! `crates/stg/tests/fault_injection.rs` pin this).
//!
//! ## Service layer
//!
//! `rt-service` runs these engines behind a supervised, multi-tenant
//! daemon, and the budget contract above is what makes that safe. The
//! engine owns per-request execution: budgets, the explicit-first rule
//! and its BDD fallback, and warm reuse *within* one request (the two
//! BDD queries that audit a `rt_synth::resolve_csc_engine` resolution
//! share one manager). The service owns cross-request policy: it
//! answers `Summary`, `CscCheck` and `Verify` on explicit engines and
//! `ResolveCsc` on a symbolic one, builds a fresh engine for every
//! request (so no answer depends on what a worker served before), and
//! adds admission control, a memo of exact replies that keeps their
//! [`Degradation`]s, and the wire protocol. An error the engine returns
//! reaches the caller as is: a second attempt on the same input under
//! the same budget would fail the same way. Cancellation stays a hard
//! stop at every layer.
//!
//! ## Example
//!
//! ```
//! use rt_stg::engine::ReachEngine;
//! use rt_stg::models;
//!
//! # fn main() -> Result<(), rt_stg::StgError> {
//! let stg = models::fifo_stg();
//! let mut explicit = ReachEngine::explicit();
//! let sg = explicit.state_graph(&stg)?;          // coded graph for synthesis
//! let check = explicit.csc_check(&stg)?;         // 18 markings: walked explicitly
//! assert_eq!(check.markings, sg.state_count() as u64);
//! assert_eq!(check.bdd_nodes, 0);
//!
//! let mut symbolic = ReachEngine::symbolic();
//! let oracle = symbolic.csc_check(&stg)?;        // BDDs only: first call is cold
//! assert_eq!((oracle.markings, oracle.conflicts), (check.markings, check.conflicts));
//! symbolic.summary(&stg)?;                       // warm: reuses the manager
//! assert_eq!(symbolic.stats().manager_reuses, 1);
//! # Ok(())
//! # }
//! ```

use rt_boolean::Bdd;

use crate::budget::Budget;
use crate::error::StgError;
use crate::reach::{count_markings_capped, explore_capped, STATE_LIMIT};
use crate::splice::{spliced_explore, Splice};
use crate::state_graph::StateGraph;
use crate::stg::Stg;

use crate::symbolic::csc::{csc_conflicts_symbolic_opts, CscAnalysis};
use crate::symbolic::{reach_symbolic_with, SymbolicReach};

/// Markings an explicit engine enumerates for a set-level query before
/// BDDs answer it instead (see the module docs' *Backend selection*).
/// It stands in for the walk's hard cap [`STATE_LIMIT`].
pub const EXPLICIT_CEILING: usize = 1 << 17;

/// Which analyser answers the engine's set-level queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReachBackend {
    /// Explicit enumeration up to a state ceiling, BDDs past it.
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
    /// Fixpoint iterations: BFS layers, the initial marking's counted
    /// as the first. Both analysers count the same layers
    /// (`crates/stg/tests/agreement.rs` pins it).
    pub iterations: usize,
    /// Nodes allocated in the engine's manager after the call; 0 when
    /// the explicit walk answered. Nothing is freed, so a reused
    /// manager counts every earlier query's nodes too.
    pub bdd_nodes: usize,
}

/// A backend-agnostic CSC check ([`ReachEngine::csc_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CscSummary {
    /// Number of distinct reachable markings.
    pub markings: u64,
    /// CSC conflicts — exactly
    /// [`StateGraph::csc_conflicts`]`().len()`.
    pub conflicts: u64,
    /// Whether no reachable marking enables nothing.
    pub deadlock_free: bool,
    /// Whether every reachable marking can return to the initial one.
    pub strongly_connected: bool,
    /// Nodes allocated in the engine's manager after the call; 0 when
    /// the explicit walk answered.
    pub bdd_nodes: usize,
}

/// A fallback the caller's budget forced (see the module docs),
/// recorded in [`EngineStats::degradations`] so callers — and the bench
/// regression gate — can tell a first-class answer from a fallback one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// An explicit query blew the caller's soft state budget
    /// ([`Budget::max_states`]); BDDs answered it instead.
    ExplicitToSymbolic,
    /// A budget cut a synthesis candidate search short; the caller
    /// returned the best candidate found so far, flagged `truncated`.
    PartialSynthesis,
}

/// Usage counters, mostly for benches and reuse assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Full state-graph constructions served, the explicit walks of
    /// [`ReachEngine::csc_check`] included.
    pub graph_builds: usize,
    /// Set-level summaries served (either backend).
    pub summaries: usize,
    /// BDD queries that found a manager already alive (the reuse path,
    /// as opposed to a cold first build).
    pub manager_reuses: usize,
    /// Symbolic CSC conflict analyses served
    /// ([`ReachEngine::csc_conflicts_symbolic`]): symbolic CSC checks,
    /// and the audit of each resolution a symbolic engine accepts.
    pub symbolic_csc: usize,
    /// Every degradation the engine performed, in order. Empty on a
    /// healthy run — the standard corpus under default budgets must
    /// keep it empty, which `bench_check` gates on.
    pub degradations: Vec<Degradation>,
}

/// The reusable reachability façade. See the module docs for the
/// backend and reuse semantics.
#[derive(Debug, Clone, Default)]
pub struct ReachEngine {
    backend: ReachBackend,
    budget: Budget,
    manager: Option<Bdd>,
    stats: EngineStats,
}

impl ReachEngine {
    /// An engine with the explicit backend and an unlimited [`Budget`].
    pub fn explicit() -> Self {
        ReachEngine::new(ReachBackend::Explicit)
    }

    /// An engine with the symbolic backend (persistent manager) and an
    /// unlimited [`Budget`].
    pub fn symbolic() -> Self {
        ReachEngine::new(ReachBackend::Symbolic)
    }

    /// An engine with `backend` and an unlimited [`Budget`].
    pub fn new(backend: ReachBackend) -> Self {
        ReachEngine {
            backend,
            ..ReachEngine::default()
        }
    }

    /// Builder-style [`Budget`] override: every subsequent query runs
    /// under it (see the module docs' *Budgets and degradation*). The
    /// engine keeps its manager and its stats.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The budget every query runs under.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configured backend.
    pub fn backend(&self) -> ReachBackend {
        self.backend
    }

    /// Usage counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Builds the full coded [`StateGraph`] of `stg` — the explicit
    /// object every downstream synthesis pass consumes. Identical on
    /// both backends (see module docs); the backend governs the
    /// set-level queries.
    ///
    /// # Errors
    ///
    /// Propagates every failure mode of [`crate::reach::explore_with`].
    pub fn state_graph(&mut self, stg: &Stg) -> Result<StateGraph, StgError> {
        self.coded_graph(stg, STATE_LIMIT)
    }

    /// [`ReachEngine::state_graph`] with the walk's hard cap at `limit`
    /// markings: [`STATE_LIMIT`] there, the ceiling in
    /// [`ReachEngine::csc_check`].
    fn coded_graph(&mut self, stg: &Stg, limit: usize) -> Result<StateGraph, StgError> {
        self.stats.graph_builds += 1;
        explore_capped(stg, &self.budget, limit)
    }

    /// Builds the coded [`StateGraph`] of
    /// [`Splice::insert`]`(stg, name)` from `base`, the graph of `stg`
    /// (callers pass the graph they already hold), without rebuilding or
    /// re-exploring an STG (see the module docs' *Spliced graphs*). It
    /// counts one [`EngineStats::graph_builds`], polls the budget and
    /// the fault probe per BFS round, and stops at [`STATE_LIMIT`], as
    /// [`ReachEngine::state_graph`] on the rebuilt STG does.
    ///
    /// # Errors
    ///
    /// The [`StgError`] variant [`ReachEngine::state_graph`] returns on
    /// the rebuilt STG, and [`StgError::DuplicateSignal`] when `stg`
    /// already has a signal called `name`.
    pub fn spliced_state_graph(
        &mut self,
        base: &StateGraph,
        stg: &Stg,
        name: &str,
        splice: Splice,
    ) -> Result<StateGraph, StgError> {
        self.stats.graph_builds += 1;
        spliced_explore(base, stg, name, splice, &self.budget, STATE_LIMIT)
    }

    /// Answers the set-level question "how many markings are reachable"
    /// by the backend's rule (see the module docs' *Backend selection*):
    /// an explicit engine counts explicitly up to the ceiling and hands
    /// larger nets to BDDs, a symbolic engine uses BDDs only.
    ///
    /// # Errors
    ///
    /// The counting walk's errors while it runs (those of
    /// [`crate::reach::explore_with`] bar the signal and consistency
    /// checks), [`crate::symbolic::reach_symbolic_with`]'s once BDDs
    /// answer — budget overruns included.
    pub fn summary(&mut self, stg: &Stg) -> Result<ReachSummary, StgError> {
        self.stats.summaries += 1;
        match self.backend {
            ReachBackend::Explicit => self.explicit_first(
                |engine, limit| {
                    let count = count_markings_capped(stg, &engine.budget, limit)?;
                    Ok(ReachSummary {
                        markings: count.markings,
                        iterations: count.iterations,
                        bdd_nodes: 0,
                    })
                },
                |engine| engine.symbolic_summary(stg),
            ),
            ReachBackend::Symbolic => self.symbolic_summary(stg),
        }
    }

    /// Checks `stg` for CSC conflicts, deadlocks and strong
    /// connectivity by the backend's rule, like
    /// [`ReachEngine::summary`]: an explicit engine builds the coded
    /// [`StateGraph`] up to the ceiling and hands larger nets to
    /// [`ReachEngine::csc_conflicts_symbolic`], a symbolic engine calls
    /// that alone. Both analysers give the same answer.
    ///
    /// # Errors
    ///
    /// [`crate::reach::explore_with`]'s errors while the walk runs,
    /// [`ReachEngine::csc_conflicts_symbolic`]'s once BDDs answer.
    pub fn csc_check(&mut self, stg: &Stg) -> Result<CscSummary, StgError> {
        match self.backend {
            ReachBackend::Explicit => self.explicit_first(
                |engine, limit| {
                    let sg = engine.coded_graph(stg, limit)?;
                    Ok(CscSummary {
                        markings: sg.state_count() as u64,
                        conflicts: sg.csc_conflict_count() as u64,
                        deadlock_free: sg.deadlock_states().is_empty(),
                        strongly_connected: sg.is_strongly_connected(),
                        bdd_nodes: 0,
                    })
                },
                |engine| engine.symbolic_csc_check(stg),
            ),
            ReachBackend::Symbolic => self.symbolic_csc_check(stg),
        }
    }

    /// The explicit backend's rule: `walk` runs under the ceiling, and
    /// past it `bdd` answers. The caller's own `max_states`, when lower
    /// than [`EXPLICIT_CEILING`], is the ceiling instead; tripping it is
    /// recorded as [`Degradation::ExplicitToSymbolic`].
    fn explicit_first<T>(
        &mut self,
        walk: impl FnOnce(&mut Self, usize) -> Result<T, StgError>,
        bdd: impl FnOnce(&mut Self) -> Result<T, StgError>,
    ) -> Result<T, StgError> {
        // The built-in ceiling is the walk's hard cap, so the walk stops
        // at it exactly rather than up to a BFS layer later.
        let ceiling = self
            .budget
            .max_states
            .is_none_or(|max| max > EXPLICIT_CEILING);
        let limit = if ceiling {
            EXPLICIT_CEILING
        } else {
            STATE_LIMIT
        };
        match walk(self, limit) {
            Err(StgError::StateLimitExceeded(_)) if ceiling => bdd(self),
            Err(StgError::StateBudgetExceeded { .. }) => {
                self.stats
                    .degradations
                    .push(Degradation::ExplicitToSymbolic);
                bdd(self)
            }
            other => other,
        }
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

    /// The symbolic CSC analysis as a [`CscSummary`].
    fn symbolic_csc_check(&mut self, stg: &Stg) -> Result<CscSummary, StgError> {
        let analysis = self.csc_conflicts_symbolic(stg)?;
        Ok(CscSummary {
            markings: analysis.markings,
            conflicts: analysis.conflicts,
            deadlock_free: analysis.deadlock_free,
            strongly_connected: analysis.strongly_connected,
            bdd_nodes: analysis.bdd_nodes,
        })
    }

    /// Runs symbolic reachability in the engine's persistent manager and
    /// returns the full [`SymbolicReach`], including the reachable-set
    /// node for membership queries against [`ReachEngine::manager`].
    /// Available regardless of the configured backend (it *is* the
    /// symbolic facility; the backend only selects what the set-level
    /// queries use).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::symbolic::reach_symbolic_in`]'s errors, plus
    /// the budget errors of [`crate::budget::Budget`].
    pub fn symbolic_set(&mut self, stg: &Stg) -> Result<SymbolicReach, StgError> {
        let budget = self.budget.clone();
        reach_symbolic_with(stg, self.warm_manager(stg), &budget)
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
    /// (> 64 signals, inconsistency, no fixpoint) and the budget errors
    /// of [`crate::budget::Budget`].
    ///
    /// [`csc_conflicts_symbolic_in`]: crate::symbolic::csc::csc_conflicts_symbolic_in
    pub fn csc_conflicts_symbolic(&mut self, stg: &Stg) -> Result<CscAnalysis, StgError> {
        self.stats.symbolic_csc += 1;
        let budget = self.budget.clone();
        csc_conflicts_symbolic_opts(stg, self.warm_manager(stg), &budget)
    }

    /// The persistent manager, built on the first BDD query and reused
    /// by every later one, with the budget's node ceiling installed.
    fn warm_manager(&mut self, stg: &Stg) -> &mut Bdd {
        if self.manager.is_some() {
            self.stats.manager_reuses += 1;
        }
        let manager = self
            .manager
            .get_or_insert_with(|| Bdd::new(stg.net().place_count()));
        manager.set_node_budget(self.budget.max_bdd_nodes);
        manager
    }

    /// The persistent manager, if a BDD query has run on this engine.
    /// Needed to evaluate a [`SymbolicReach::set`] returned by
    /// [`ReachEngine::symbolic_set`].
    pub fn manager(&self) -> Option<&Bdd> {
        self.manager.as_ref()
    }

    /// Nodes allocated in the persistent manager (0 when no manager is
    /// alive) — the engine's memory gauge.
    pub fn manager_nodes(&self) -> usize {
        self.manager.as_ref().map_or(0, Bdd::node_count)
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
    fn symbolic_manager_persists_across_queries() {
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
        engine = engine.with_budget(Budget::default());
        let clean = engine.summary(&stg).expect("clean run");
        assert_eq!(clean.markings, 18);
        assert_eq!(clean.bdd_nodes, 0, "explicit again");
        assert_eq!(engine.stats().degradations.len(), 1, "no new degradation");
    }

    #[test]
    fn symbolic_budget_overruns_propagate() {
        let stg = models::fifo_stg();
        let mut engine =
            ReachEngine::symbolic().with_budget(Budget::default().with_max_iterations(1));
        assert!(matches!(
            engine.summary(&stg),
            Err(StgError::IterationLimitExceeded { .. })
        ));
        assert!(matches!(
            engine.csc_check(&stg),
            Err(StgError::IterationLimitExceeded { .. })
        ));
        let mut engine =
            ReachEngine::symbolic().with_budget(Budget::default().with_max_bdd_nodes(1));
        assert!(matches!(
            engine.summary(&stg),
            Err(StgError::NodeBudgetExceeded { .. })
        ));
        assert!(
            engine.stats().degradations.is_empty(),
            "BDDs have no fallback"
        );
        assert_eq!(engine.stats().graph_builds, 0);
    }

    /// `stages` independent `a+ → a-` cycles: 2^stages markings, all
    /// with distinct codes, in stages + 1 BFS layers.
    fn independent_cycles(stages: usize) -> Stg {
        let mut stg = Stg::new(format!("cycles{stages}"));
        for i in 0..stages {
            let signal = stg
                .add_signal(format!("a{i}"), crate::signal::SignalKind::Output)
                .expect("fresh");
            let rise = stg.transition_for(signal, crate::signal::Edge::Rise);
            let fall = stg.transition_for(signal, crate::signal::Edge::Fall);
            stg.arc(rise, fall);
            stg.marked_arc(fall, rise);
        }
        stg
    }

    #[test]
    fn explicit_csc_check_walks_the_state_graph() {
        let stg = models::fifo_stg();
        let sg = crate::reach::explore(&stg).expect("explores");
        let mut engine = ReachEngine::explicit();
        let check = engine.csc_check(&stg).expect("checks");
        assert_eq!(
            check,
            CscSummary {
                markings: 18,
                conflicts: sg.csc_conflicts().len() as u64,
                deadlock_free: sg.deadlock_states().is_empty(),
                strongly_connected: sg.is_strongly_connected(),
                bdd_nodes: 0,
            }
        );
        assert!(check.conflicts > 0, "the FIFO needs a state signal");
        assert_eq!(engine.stats().graph_builds, 1);
        assert_eq!(engine.stats().symbolic_csc, 0);
        assert!(engine.manager().is_none(), "no BDD was built");
        assert!(engine.stats().degradations.is_empty());
    }

    #[test]
    fn explicit_csc_check_falls_back_on_the_callers_state_budget() {
        let stg = models::fifo_stg();
        let full = ReachEngine::explicit().csc_check(&stg).expect("full walk");
        let mut engine = ReachEngine::explicit().with_budget(Budget::default().with_max_states(4));
        let check = engine.csc_check(&stg).expect("BDDs answer");
        assert!(check.bdd_nodes > 2, "served by the BDD analyser");
        assert_eq!(
            CscSummary {
                bdd_nodes: 0,
                ..check
            },
            full
        );
        assert_eq!(
            engine.stats().degradations,
            vec![Degradation::ExplicitToSymbolic]
        );
        assert_eq!(engine.stats().symbolic_csc, 1);
    }

    #[test]
    fn symbolic_csc_check_uses_bdds_alone() {
        let stg = models::fifo_stg();
        let explicit = ReachEngine::explicit().csc_check(&stg).expect("explicit");
        let mut engine = ReachEngine::symbolic();
        let check = engine.csc_check(&stg).expect("symbolic");
        assert!(check.bdd_nodes > 2);
        assert_eq!(
            CscSummary {
                bdd_nodes: 0,
                ..check
            },
            explicit
        );
        assert_eq!(engine.stats().graph_builds, 0);
        assert_eq!(engine.stats().symbolic_csc, 1);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "walks 2^17 markings: seconds in a debug build, run in release"
    )]
    fn past_the_ceiling_bdds_answer_without_a_degradation() {
        const { assert!(1 << 18 > EXPLICIT_CEILING) };
        let stg = independent_cycles(18);
        // A caller budget above the ceiling leaves the ceiling in force.
        let mut engine =
            ReachEngine::explicit().with_budget(Budget::default().with_max_states(1 << 20));
        let summary = engine.summary(&stg).expect("summary");
        assert_eq!((summary.markings, summary.iterations), (1 << 18, 19));
        assert!(summary.bdd_nodes > 0, "BDDs answered");
        let check = engine.csc_check(&stg).expect("check");
        assert_eq!(check.markings, 1 << 18);
        assert_eq!(check.conflicts, 0, "every marking has its own code");
        assert!(check.deadlock_free && check.strongly_connected);
        assert!(check.bdd_nodes > 0, "BDDs answered");
        assert!(
            engine.stats().degradations.is_empty(),
            "the ceiling is policy, not a degradation"
        );
        // A caller budget below the ceiling is the ceiling, and tripping
        // it is a degradation.
        engine = engine.with_budget(Budget::default().with_max_states(1_000));
        let again = engine.summary(&stg).expect("summary");
        assert_eq!((again.markings, again.iterations), (1 << 18, 19));
        assert_eq!(
            engine.stats().degradations,
            vec![Degradation::ExplicitToSymbolic]
        );
        // The coded graph has no BDD fallback: past the hard cap (here
        // a small one, in place of STATE_LIMIT) it is an error, and never
        // a degradation.
        engine = engine.with_budget(Budget::default());
        assert_eq!(
            engine.coded_graph(&stg, 1_000).unwrap_err(),
            StgError::StateLimitExceeded(1_000)
        );
        assert_eq!(
            engine.stats().degradations,
            vec![Degradation::ExplicitToSymbolic]
        );
    }

    #[test]
    fn an_unsafe_initial_marking_is_the_same_error_on_every_query() {
        // The handshake with two tokens on its marked place.
        let mut stg = models::handshake_stg();
        let place = stg.net().place_by_name("<b-,a+>").expect("marked place");
        stg.set_tokens(place, 2);
        let not_safe = StgError::Unbounded {
            place: "<b-,a+>".to_string(),
            bound: 1,
        };
        for mut engine in [ReachEngine::explicit(), ReachEngine::symbolic()] {
            assert_eq!(engine.summary(&stg), Err(not_safe.clone()));
            assert_eq!(engine.csc_check(&stg), Err(not_safe.clone()));
            assert_eq!(engine.state_graph(&stg).unwrap_err(), not_safe);
            assert_eq!(engine.symbolic_set(&stg).unwrap_err(), not_safe);
            assert_eq!(engine.csc_conflicts_symbolic(&stg).unwrap_err(), not_safe);
            assert!(engine.stats().degradations.is_empty());
            // The check runs before any BDD operation: the manager holds
            // its two terminals and nothing else.
            assert_eq!(engine.manager_nodes(), 2);
        }
        assert_eq!(crate::symbolic::reach_symbolic(&stg).unwrap_err(), not_safe);
        assert_eq!(
            crate::symbolic::csc::csc_conflicts_symbolic(&stg).unwrap_err(),
            not_safe
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
            engine = engine.with_budget(Budget::default());
            assert_eq!(engine.summary(&stg).expect("recovers").markings, 18);
        }
    }
}
