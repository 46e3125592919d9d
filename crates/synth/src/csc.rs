//! Complete-state-coding resolution by state-signal insertion.
//!
//! The paper's FIFO specification (Figure 3) has CSC conflicts; `petrify`
//! resolves them by inserting the state signal `x` (Figures 4–5) using
//! *timing-aware* encoding. This module reproduces the mechanism: it
//! searches over pairs of simple places of the STG, inserting `x+` on one
//! and `x-` on the other, re-exploring, and keeping the valid insertion
//! with the cheapest logic. The cost function can be biased to keep the
//! state signal off the critical path (the paper's "timing-aware state
//! encoding"): insertions whose state-signal transitions trigger output
//! events are penalized.
//!
//! All re-exploration funnels through one [`ReachEngine`]
//! ([`resolve_csc_engine`]): the candidate search is the hottest
//! repeated-reachability loop in the pipeline, and the engine is the
//! seam that lets it run over either backend. On the symbolic backend
//! the accepted resolution is additionally **audited** against the
//! engine's persistent-manager symbolic marking count and the symbolic
//! conflict detector ([`SynthError::BackendMismatch`] /
//! [`SynthError::DetectorMismatch`] on divergence), so the two
//! analysers continuously cross-check each other in production use.
//!
//! ## The explicit/symbolic detector threshold
//!
//! The candidate loop has two interchangeable conflict detectors:
//!
//! * **explicit** — build the coded [`StateGraph`] per candidate and
//!   call [`StateGraph::csc_conflicts`]. Fastest for paper-scale
//!   controllers (tens of states), and the only path that yields the
//!   graph downstream logic synthesis consumes, so the accepted
//!   resolution carries `sg: Some(_)`.
//! * **symbolic** — ask the engine for
//!   [`rt_stg::engine::ReachEngine::csc_conflicts_symbolic`]: conflict
//!   counts, liveness flags and encoding costs all come off BDDs in the
//!   persistent manager, and **no explicit state graph is ever
//!   constructed** (`EngineStats::graph_builds` stays 0; the
//!   resolution carries `sg: None`). This is the path that scales past
//!   the explicit-enumeration wall on huge nets.
//!
//! [`CscOptions::symbolic_threshold`] arbitrates: on a
//! [`ReachBackend::Symbolic`] engine, nets with at least that many
//! places rank candidates symbolically; smaller nets keep the explicit
//! detector (whose per-candidate graphs are microseconds at that size
//! and whose literal-count costs are the historical tie-breakers). The
//! default, [`DEFAULT_SYMBOLIC_THRESHOLD`], switches over right where
//! packed markings spill past one machine word — below it the two
//! backends produce bit-identical resolutions, above it the symbolic
//! path may tie-break differently (its logic costs come from per-*code*
//! covers rather than per-*state* covers) while still accepting only
//! CSC-free, live, deadlock-free encodings. Set the threshold to 0 to
//! force the symbolic detector everywhere, or `usize::MAX` to disable
//! it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use rt_boolean::{minimize, Cover, Cube};
use rt_stg::engine::{ReachBackend, ReachEngine};
use rt_stg::par::parallel_argmin;
use rt_stg::petri::PlaceId;
use rt_stg::reach::count_markings_with;
use rt_stg::stg::TransitionLabel;
use rt_stg::symbolic::csc::CscAnalysis;
use rt_stg::{Edge, SignalKind, StateGraph, Stg, TransitionId};

use crate::error::SynthError;
use crate::regions::{derive_functions, unreachable_cover, LocalDontCares};

/// Default [`CscOptions::symbolic_threshold`]: the first place count
/// whose packed markings no longer fit one machine word — the size
/// class the paper's wide adder/fabric workloads start at, and where
/// per-candidate explicit graphs stop being microseconds.
pub const DEFAULT_SYMBOLIC_THRESHOLD: usize = 65;

/// Outcome of CSC resolution.
#[derive(Debug, Clone)]
pub struct CscResolution {
    /// The (possibly rewritten) STG, CSC-free.
    pub stg: Stg,
    /// Its state graph — `Some` on the explicit-detector path, `None`
    /// when the symbolic path accepted the encoding without ever
    /// enumerating states (see the module docs on the threshold).
    pub sg: Option<StateGraph>,
    /// Names of inserted state signals (empty when none were needed).
    pub inserted: Vec<String>,
    /// Cost of the chosen encoding (minimized literal count).
    pub cost: usize,
    /// `true` when the search ran out of budget before finishing: the
    /// resolution is the best candidate found so far (possibly still
    /// conflicted) rather than a verified CSC-free encoding. The engine
    /// records [`rt_stg::Degradation::PartialSynthesis`] alongside.
    pub truncated: bool,
}

/// Options for [`resolve_csc`].
///
/// A resolution is a pure function of the STG *and* this tuning, so
/// the options are part of a service request's identity: two requests
/// share a cached result only when both match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CscOptions {
    /// Maximum number of state signals to insert.
    pub max_signals: usize,
    /// Penalty added per output event directly triggered by a state
    /// signal transition (the timing-aware bias; 0 disables it).
    pub critical_path_penalty: usize,
    /// Worker-pool width for the candidate search (`0`, the default,
    /// resolves to one worker per available core; `1` runs serially).
    /// Each worker evaluates whole candidate insertions on a private
    /// [`ReachEngine`] of the caller's backend, and the deterministic
    /// `(cost, index)` reduction of [`rt_stg::par::parallel_argmin`]
    /// guarantees the winner is identical at every width.
    pub threads: usize,
    /// Place count at or above which a [`ReachBackend::Symbolic`]
    /// engine ranks candidates with the symbolic conflict detector
    /// instead of building explicit state graphs (see the module
    /// docs). Irrelevant on explicit-backend engines.
    pub symbolic_threshold: usize,
}

impl Default for CscOptions {
    fn default() -> Self {
        CscOptions {
            max_signals: 3,
            critical_path_penalty: 4,
            threads: 0,
            symbolic_threshold: DEFAULT_SYMBOLIC_THRESHOLD,
        }
    }
}

/// Resolves CSC conflicts of `stg` by inserting up to
/// `options.max_signals` state signals.
///
/// # Errors
///
/// * [`SynthError::CscUnresolvable`] when no insertion sequence works;
/// * [`SynthError::Stg`] when the input STG itself fails exploration.
pub fn resolve_csc(stg: &Stg) -> Result<CscResolution, SynthError> {
    resolve_csc_with(stg, &CscOptions::default())
}

/// [`resolve_csc`] with explicit options, run on a throwaway
/// explicit-backend engine.
pub fn resolve_csc_with(stg: &Stg, options: &CscOptions) -> Result<CscResolution, SynthError> {
    resolve_csc_engine(stg, options, &mut ReachEngine::explicit())
}

/// [`resolve_csc_with`] through a caller-owned [`ReachEngine`].
///
/// Every candidate re-exploration of the search goes through `engine`,
/// so a shared engine accumulates its statistics (and, on the symbolic
/// backend, its warm BDD manager) across the whole resolution — and
/// across *multiple* resolutions when the caller keeps the engine
/// alive. The accepted result is backend-independent: the candidate
/// ranking uses only the explicitly built state graphs. On
/// [`rt_stg::ReachBackend::Symbolic`] the final resolution is audited
/// against the symbolic marking count.
///
/// # Errors
///
/// [`resolve_csc_with`]'s errors, plus [`SynthError::BackendMismatch`]
/// if the symbolic audit disagrees with the explicit graph.
pub fn resolve_csc_engine(
    stg: &Stg,
    options: &CscOptions,
    engine: &mut ReachEngine,
) -> Result<CscResolution, SynthError> {
    if engine.backend() == ReachBackend::Symbolic
        && stg.net().place_count() >= options.symbolic_threshold
    {
        return resolve_csc_symbolic(stg, options, engine);
    }
    let sg = engine.state_graph(stg)?;
    if sg.csc_conflicts().is_empty() {
        let cost = encoding_cost(&sg, 0);
        let resolution = CscResolution {
            stg: stg.clone(),
            sg: Some(sg),
            inserted: Vec::new(),
            cost,
            truncated: false,
        };
        audit_resolution(&resolution, engine)?;
        return Ok(resolution);
    }
    let mut attempts = 0;
    let mut current = stg.clone();
    let mut before = sg.csc_conflicts().len();
    // Best-so-far state for a budget-truncated partial result: the
    // conflict-rank formula of the candidate loop, so a partial
    // resolution's cost is comparable to rejected candidates'.
    let mut current_sg = Some(sg);
    let mut current_cost = 1_000 + before * 100;
    let mut inserted = Vec::new();
    let mut truncated = false;
    for round in 0..options.max_signals {
        let name = format!("csc{round}");
        let (best, round_truncated) =
            best_insertion(&current, &name, options, before, engine, &mut attempts)?;
        truncated |= round_truncated;
        match best {
            Some((next_stg, next_sg, cost)) => {
                inserted.push(name);
                if next_sg.csc_conflicts().is_empty() {
                    let resolution = CscResolution {
                        stg: next_stg,
                        sg: Some(next_sg),
                        inserted,
                        cost,
                        truncated: false,
                    };
                    audit_resolution(&resolution, engine)?;
                    return Ok(resolution);
                }
                before = next_sg.csc_conflicts().len();
                current = next_stg;
                current_sg = Some(next_sg);
                current_cost = cost;
            }
            None => break,
        }
    }
    if truncated {
        // The budget cut the search short: hand back the best encoding
        // reached so far (still conflicted) instead of aborting, and
        // let the engine's stats record why. No audit — the result is
        // not an accepted CSC-free encoding.
        engine.note_degradation(rt_stg::Degradation::PartialSynthesis);
        return Ok(CscResolution {
            stg: current,
            sg: current_sg,
            inserted,
            cost: current_cost,
            truncated: true,
        });
    }
    Err(SynthError::CscUnresolvable { attempts })
}

/// The fully symbolic resolution loop: every candidate is scored by the
/// engine's symbolic CSC analysis — conflict counts, deadlock freedom,
/// strong connectivity and (for CSC-free candidates) per-code logic
/// costs all come off BDDs in the persistent manager, and **no
/// explicit [`StateGraph`] is ever constructed** (the engine's
/// `graph_builds` counter stays where it was; `symbolic_csc` ticks
/// instead). The accepted resolution therefore carries `sg: None`.
///
/// The accepted encoding is audited against the *explicit* analyser
/// anyway — via the counting-only packed walk
/// ([`rt_stg::reach::count_markings_with`]), which enumerates markings
/// without building a graph — so the two reachability implementations
/// still cross-check each other on every accepted resolution.
fn resolve_csc_symbolic(
    stg: &Stg,
    options: &CscOptions,
    engine: &mut ReachEngine,
) -> Result<CscResolution, SynthError> {
    let analysis = engine.csc_conflicts_symbolic(stg)?;
    if analysis.conflicts == 0 {
        let cost = symbolic_encoding_cost(stg, &analysis, engine, 0);
        audit_symbolic_acceptance(stg, analysis.markings, engine)?;
        return Ok(CscResolution {
            stg: stg.clone(),
            sg: None,
            inserted: Vec::new(),
            cost,
            truncated: false,
        });
    }
    let mut attempts = 0;
    let mut current = stg.clone();
    let mut before = analysis.conflicts;
    let mut current_cost = 1_000 + (before.min((usize::MAX / 200) as u64) as usize) * 100;
    let mut inserted = Vec::new();
    let mut truncated = false;
    for round in 0..options.max_signals {
        let name = format!("csc{round}");
        let (best, round_truncated) =
            best_insertion_symbolic(&current, &name, options, before, engine, &mut attempts)?;
        truncated |= round_truncated;
        match best {
            Some((next_stg, after, markings, cost)) => {
                inserted.push(name);
                if after == 0 {
                    audit_symbolic_acceptance(&next_stg, markings, engine)?;
                    return Ok(CscResolution {
                        stg: next_stg,
                        sg: None,
                        inserted,
                        cost,
                        truncated: false,
                    });
                }
                before = after;
                current = next_stg;
                current_cost = cost;
            }
            None => break,
        }
    }
    if truncated {
        // Mirror of the explicit loop's partial result: best-so-far
        // encoding under an exhausted budget, never an abort.
        engine.note_degradation(rt_stg::Degradation::PartialSynthesis);
        return Ok(CscResolution {
            stg: current,
            sg: None,
            inserted,
            cost: current_cost,
            truncated: true,
        });
    }
    Err(SynthError::CscUnresolvable { attempts })
}

/// Acceptance audit of the symbolic path: the symbolic reachable-
/// marking count of the accepted STG must match the explicit
/// counting-only walk (no state graph, no 64-signal cap).
///
/// On nets past the explicit walk's state limit — or past the caller's
/// soft [`rt_stg::Budget`] — the audit is **skipped**, not failed:
/// those are precisely the nets the symbolic path exists for, and an
/// enumeration-bounded cross-check cannot be a hard gate there. Every
/// other explicit-walk failure (unboundedness, deadlock under
/// `forbid_deadlock`) still propagates — it signals a real divergence
/// between the analysers' net semantics.
fn audit_symbolic_acceptance(
    stg: &Stg,
    symbolic_markings: u64,
    engine: &mut ReachEngine,
) -> Result<(), SynthError> {
    let count = match count_markings_with(stg, engine.options()) {
        Ok(count) => count,
        Err(rt_stg::StgError::StateLimitExceeded(_)) => return Ok(()),
        Err(err) if err.is_resource_exhaustion() => return Ok(()),
        Err(err) => return Err(err.into()),
    };
    if count.markings != symbolic_markings {
        return Err(SynthError::BackendMismatch {
            explicit: count.markings,
            symbolic: symbolic_markings,
        });
    }
    Ok(())
}

/// Symbolic-backend audit of an explicit-path resolution: the resolved
/// STG's explicit state count must match the persistent manager's
/// symbolic marking count, **and** the symbolic conflict detector must
/// agree with [`StateGraph::csc_conflicts`] on the accepted graph —
/// both detectors cross-check each other on every accepted resolution.
fn audit_resolution(
    resolution: &CscResolution,
    engine: &mut ReachEngine,
) -> Result<(), SynthError> {
    let sg = resolution
        .sg
        .as_ref()
        .expect("the explicit path always carries its graph");
    crate::regions::audit_against_symbolic(engine, &resolution.stg, sg)?;
    if engine.backend() == ReachBackend::Symbolic {
        let analysis = engine.csc_conflicts_symbolic(&resolution.stg)?;
        let explicit = sg.csc_conflicts().len() as u64;
        if analysis.conflicts != explicit {
            return Err(SynthError::DetectorMismatch {
                explicit,
                symbolic: analysis.conflicts,
            });
        }
    }
    Ok(())
}

/// One candidate insertion point of the search, cheap to enumerate up
/// front so the worker pool can materialize and evaluate them
/// independently.
#[derive(Debug, Clone, Copy)]
enum InsertionSpec {
    /// Splice `x+`/`x-` into a pair of simple places.
    Place {
        plus: PlaceId,
        minus: PlaceId,
        token_after: bool,
    },
    /// Insert `x+`/`x-` after whole transitions.
    Trans {
        plus: TransitionId,
        minus: TransitionId,
    },
}

/// Enumerates every candidate insertion in the canonical (serial
/// search) order. The pool's deterministic reduction ties winners to
/// this order, so it must stay stable.
fn insertion_specs(stg: &Stg) -> Vec<InsertionSpec> {
    let places = simple_places(stg);
    let mut specs = Vec::new();
    for &plus in &places {
        for &minus in &places {
            if plus == minus {
                continue;
            }
            for token_after in [false, true] {
                specs.push(InsertionSpec::Place {
                    plus,
                    minus,
                    token_after,
                });
            }
        }
    }
    let transitions: Vec<_> = stg.net().transitions().collect();
    for &plus in &transitions {
        for &minus in &transitions {
            if plus == minus {
                continue;
            }
            specs.push(InsertionSpec::Trans { plus, minus });
        }
    }
    specs
}

/// A candidate search's verdict: the winning candidate (if any) plus
/// the truncated flag — `true` when at least one candidate was
/// disqualified only because the engine's budget ran out mid-eval.
type SearchOutcome<T> = (Option<T>, bool);

/// Tries every candidate insertion point on the worker pool; returns
/// the best valid insertion as `(stg, sg, cost)`. `before` is the
/// conflict count of `stg` itself (already computed by the caller — no
/// re-exploration).
///
/// Every worker owns a private explicit [`ReachEngine`] (persistent
/// symbolic managers are not shared across threads; candidate ranking
/// is purely explicit anyway — see [`resolve_csc_engine`]), and the
/// workers' usage counters are folded back into `engine` afterwards,
/// so a caller watching [`ReachEngine::stats`] sees the same
/// `graph_builds` totals as the historical serial loop. The winner is
/// the `(cost, index)` minimum over the canonical candidate order —
/// bit-identical to the serial "first strictly better candidate wins"
/// scan at every pool width.
///
/// The second element of the `Ok` pair is the *truncated* flag: `true`
/// when at least one candidate was disqualified only because the
/// engine's [`rt_stg::Budget`] ran out mid-evaluation — the caller
/// turns that into a partial resolution instead of
/// [`SynthError::CscUnresolvable`].
///
/// # Errors
///
/// [`rt_stg::StgError::WorkerPanicked`] (as [`SynthError::Stg`]) when a
/// candidate evaluation panicked on the pool.
fn best_insertion(
    stg: &Stg,
    name: &str,
    options: &CscOptions,
    before: usize,
    engine: &mut ReachEngine,
    attempts: &mut usize,
) -> Result<SearchOutcome<(Stg, StateGraph, usize)>, SynthError> {
    let specs = insertion_specs(stg);
    *attempts += specs.len();
    let worker_options = engine.options().clone();

    let truncated = AtomicBool::new(false);
    let evaluate = |worker: &mut ReachEngine, index: usize| {
        let candidate = match specs[index] {
            InsertionSpec::Place {
                plus,
                minus,
                token_after,
            } => insert_state_signal_with(stg, name, plus, minus, token_after),
            InsertionSpec::Trans { plus, minus } => {
                insert_after_transitions(stg, name, plus, minus)
            }
        };
        let sg = match worker.state_graph(&candidate) {
            Ok(sg) => sg,
            Err(error) => {
                if error.is_resource_exhaustion() {
                    truncated.store(true, Ordering::Relaxed);
                }
                return None;
            }
        };
        if !sg.is_strongly_connected() || !sg.deadlock_states().is_empty() {
            return None;
        }
        let after = sg.csc_conflicts().len();
        if after >= before {
            return None; // insertion must strictly help
        }
        let penalty = critical_penalty(&candidate, name) * options.critical_path_penalty;
        let cost = if after == 0 {
            encoding_cost(&sg, penalty)
        } else {
            // Not yet CSC-free: rank by remaining conflicts.
            1_000 + after * 100 + penalty
        };
        Some((cost, (candidate, sg)))
    };

    let (best, workers) = parallel_argmin(
        specs.len(),
        options.threads,
        || ReachEngine::with_options(engine.backend(), worker_options.clone()),
        evaluate,
    )?;
    for worker in &workers {
        engine.absorb_stats(worker.stats());
    }
    Ok((
        best.map(|(_, cost, (candidate, sg))| (candidate, sg, cost)),
        truncated.into_inner(),
    ))
}

/// The symbolic twin of [`best_insertion`]: candidates are scored by
/// the engine's symbolic CSC analysis instead of explicit state
/// graphs. Returns the winner as `(stg, remaining conflicts, symbolic
/// marking count, cost)`.
///
/// Every worker owns a private *symbolic* [`ReachEngine`] — one
/// persistent manager per worker, since managers are not shared across
/// threads (see `rt_stg::engine`'s module docs) — and the usual
/// deterministic `(cost, index)` reduction picks the winner. Worker
/// counters (including `symbolic_csc`) fold back into `engine`.
///
/// Truncation and errors follow [`best_insertion`]'s contract exactly.
fn best_insertion_symbolic(
    stg: &Stg,
    name: &str,
    options: &CscOptions,
    before: u64,
    engine: &mut ReachEngine,
    attempts: &mut usize,
) -> Result<SearchOutcome<(Stg, u64, u64, usize)>, SynthError> {
    let specs = insertion_specs(stg);
    *attempts += specs.len();
    let worker_options = engine.options().clone();

    let truncated = AtomicBool::new(false);
    let evaluate = |worker: &mut ReachEngine, index: usize| {
        let candidate = match specs[index] {
            InsertionSpec::Place {
                plus,
                minus,
                token_after,
            } => insert_state_signal_with(stg, name, plus, minus, token_after),
            InsertionSpec::Trans { plus, minus } => {
                insert_after_transitions(stg, name, plus, minus)
            }
        };
        // An inconsistent or diverging candidate errors, exactly like a
        // failed explicit exploration: disqualified — unless the only
        // problem was the budget, which flags truncation instead.
        let analysis = match worker.csc_conflicts_symbolic(&candidate) {
            Ok(analysis) => analysis,
            Err(error) => {
                if error.is_resource_exhaustion() {
                    truncated.store(true, Ordering::Relaxed);
                }
                return None;
            }
        };
        if !analysis.strongly_connected || !analysis.deadlock_free {
            return None;
        }
        let after = analysis.conflicts;
        if after >= before {
            return None; // insertion must strictly help
        }
        let penalty = critical_penalty(&candidate, name) * options.critical_path_penalty;
        let cost = if after == 0 {
            symbolic_encoding_cost(&candidate, &analysis, worker, penalty)
        } else {
            // Not yet CSC-free: rank by remaining conflicts, the same
            // formula as the explicit loop. Pair-space counts can be
            // astronomically large on huge nets, so clamp before the
            // scale-up — an overflow here would hand a massively
            // conflicted candidate an artificially tiny cost.
            let clamped = after.min((usize::MAX / 200) as u64) as usize;
            1_000 + clamped * 100 + penalty
        };
        Some((cost, (candidate, after, analysis.markings)))
    };

    let (best, workers) = parallel_argmin(
        specs.len(),
        options.threads,
        || ReachEngine::with_options(engine.backend(), worker_options.clone()),
        evaluate,
    )?;
    for worker in &workers {
        engine.absorb_stats(worker.stats());
    }
    Ok((
        best.map(|(_, cost, (candidate, after, markings))| (candidate, after, markings, cost)),
        truncated.into_inner(),
    ))
}

/// Minimized literal count of a CSC-free candidate, derived from the
/// symbolic analysis' per-*code* excitation table instead of a state
/// graph: one minterm cube per reachable code (CSC-freeness makes
/// excitation a function of the code), unreachable codes as global
/// don't-cares — the same monotonic-cover rules as
/// [`crate::regions::derive_functions`], so the number is the same
/// kind of logic cost, merely derived without enumeration. Falls back
/// to a prohibitive cost when the net has nothing to implement or more
/// code bits than a cover can carry.
fn symbolic_encoding_cost(
    stg: &Stg,
    analysis: &CscAnalysis,
    engine: &mut ReachEngine,
    penalty: usize,
) -> usize {
    let vars = stg.signal_count();
    if vars > 16 {
        // Two-level cover costs live in the truth-table regime (the
        // unreachable-code don't-care complement is exponential past
        // it — the explicit path never derives costs there either, as
        // `bench_reach` skips synthesis above 16 signals). Rank wide
        // CSC-free candidates by the timing-aware penalty alone; ties
        // break by candidate order.
        return penalty;
    }
    let Some(manager) = engine.manager_mut() else {
        return usize::MAX / 2;
    };
    let table = analysis.code_table(manager);
    if table.implemented.is_empty() {
        return usize::MAX / 2;
    }
    let reachable: BTreeSet<u64> = table.rows.iter().map(|r| r.code).collect();
    let unreachable_dc = unreachable_cover(vars, &reachable);
    let mut total = penalty;
    for (k, &signal) in table.implemented.iter().enumerate() {
        let mut set_on = Cover::empty(vars);
        let mut set_dc = unreachable_dc.clone();
        let mut reset_on = Cover::empty(vars);
        let mut reset_dc = unreachable_dc.clone();
        for row in &table.rows {
            let cube = Cube::minterm(vars, row.code);
            match row.excited[k] {
                Some(Edge::Rise) => set_on.push(cube),
                Some(Edge::Fall) => reset_on.push(cube),
                None => {
                    if row.code >> signal.index() & 1 == 1 {
                        set_dc.push(cube);
                    } else {
                        reset_dc.push(cube);
                    }
                }
            }
        }
        let set = minimize(&set_on, &set_dc);
        let reset = minimize(&reset_on, &reset_dc);
        total += set.literal_count() + reset.literal_count() + 2;
    }
    total
}

/// Simple places: exactly one producer and one consumer — safe insertion
/// points for state-signal splicing.
pub fn simple_places(stg: &Stg) -> Vec<PlaceId> {
    let net = stg.net();
    net.places()
        .filter(|&p| net.producers(p).len() == 1 && net.consumers(p).len() == 1)
        .collect()
}

/// Rebuilds `stg` with a fresh internal signal whose rising transition is
/// spliced into `place_plus` and falling transition into `place_minus`.
/// A token on a spliced place rests *before* the new transition.
pub fn insert_state_signal(
    stg: &Stg,
    name: &str,
    place_plus: PlaceId,
    place_minus: PlaceId,
) -> Stg {
    insert_state_signal_with(stg, name, place_plus, place_minus, false)
}

/// Like [`insert_state_signal`], but `token_after` chooses whether a
/// token on a spliced marked place rests before (`false`) or after
/// (`true`) the new transition — the two placements give different
/// initial values and firing orders, and the search tries both.
pub fn insert_state_signal_with(
    stg: &Stg,
    name: &str,
    place_plus: PlaceId,
    place_minus: PlaceId,
    token_after: bool,
) -> Stg {
    let net = stg.net();
    let mut out = Stg::new(format!("{}_{}", stg.name(), name));
    // Copy the signal table and add the new internal signal.
    for signal in stg.signals() {
        out.add_signal(stg.signal_name(signal), stg.signal_kind(signal))
            .expect("copied signals are unique");
    }
    let x = out
        .add_signal(name, SignalKind::Internal)
        .expect("fresh state-signal name");
    // Copy transitions in order (ids are preserved).
    for t in net.transitions() {
        match stg.label(t) {
            TransitionLabel::Event(ev) => {
                out.transition(ev);
            }
            TransitionLabel::Silent => {
                out.silent(net.transition_name(t));
            }
        }
    }
    let x_plus = out.transition_for(x, rt_stg::Edge::Rise);
    let x_minus = out.transition_for(x, rt_stg::Edge::Fall);
    // Copy places, splitting the two chosen ones.
    let marking = stg.initial_marking();
    for p in net.places() {
        let tokens = marking.tokens(p);
        if (p == place_plus || p == place_minus) && !net.producers(p).is_empty() {
            let splice = if p == place_plus { x_plus } else { x_minus };
            let producer = net.producers(p)[0];
            let consumer = net.consumers(p)[0];
            let p1 = out.add_place(format!("{}_in", net.place_name(p)));
            let p2 = out.add_place(format!("{}_out", net.place_name(p)));
            out.arc_to_place(producer, p1);
            out.arc_from_place(p1, splice);
            out.arc_to_place(splice, p2);
            out.arc_from_place(p2, consumer);
            if token_after {
                out.set_tokens(p2, tokens);
            } else {
                out.set_tokens(p1, tokens);
            }
        } else {
            let copy = out.add_place(net.place_name(p));
            for &producer in net.producers(p) {
                out.arc_to_place(producer, copy);
            }
            for &consumer in net.consumers(p) {
                out.arc_from_place(copy, consumer);
            }
            out.set_tokens(copy, tokens);
        }
    }
    out
}

/// Rebuilds `stg` with a fresh internal signal inserted *after whole
/// transitions*: `x+` fires right after `after_plus` (taking over its
/// entire postset) and `x-` right after `after_minus`. Often succeeds
/// where single-place splicing cannot, because the new signal serializes
/// against every successor at once.
pub fn insert_after_transitions(
    stg: &Stg,
    name: &str,
    after_plus: rt_stg::TransitionId,
    after_minus: rt_stg::TransitionId,
) -> Stg {
    let net = stg.net();
    let mut out = Stg::new(format!("{}_{}", stg.name(), name));
    for signal in stg.signals() {
        out.add_signal(stg.signal_name(signal), stg.signal_kind(signal))
            .expect("copied signals are unique");
    }
    let x = out
        .add_signal(name, SignalKind::Internal)
        .expect("fresh state-signal name");
    for tr in net.transitions() {
        match stg.label(tr) {
            TransitionLabel::Event(ev) => {
                out.transition(ev);
            }
            TransitionLabel::Silent => {
                out.silent(net.transition_name(tr));
            }
        }
    }
    let x_plus = out.transition_for(x, rt_stg::Edge::Rise);
    let x_minus = out.transition_for(x, rt_stg::Edge::Fall);
    // Chain each spliced transition to its new successor.
    let chain = |out: &mut Stg, from: rt_stg::TransitionId, to: rt_stg::TransitionId| {
        let p = out.add_place(format!("splice_{}", out.net().place_count()));
        out.arc_to_place(from, p);
        out.arc_from_place(p, to);
    };
    chain(&mut out, after_plus, x_plus);
    chain(&mut out, after_minus, x_minus);
    let marking = stg.initial_marking();
    for p in net.places() {
        let copy = out.add_place(net.place_name(p));
        for &producer in net.producers(p) {
            // Arcs formerly produced by the spliced transitions now come
            // from the new signal's transitions.
            let source = if producer == after_plus {
                x_plus
            } else if producer == after_minus {
                x_minus
            } else {
                producer
            };
            out.arc_to_place(source, copy);
        }
        for &consumer in net.consumers(p) {
            out.arc_from_place(copy, consumer);
        }
        out.set_tokens(copy, marking.tokens(p));
    }
    out
}

/// Minimized literal count of every implemented signal — the logic cost
/// of an encoding.
fn encoding_cost(sg: &StateGraph, penalty: usize) -> usize {
    match derive_functions(sg, &LocalDontCares::none()) {
        Ok(funcs) => {
            let mut total = penalty;
            for spec in &funcs.specs {
                let set = minimize(&spec.set_on, &spec.set_dc);
                let reset = minimize(&spec.reset_on, &spec.reset_dc);
                total += set.literal_count() + reset.literal_count() + 2;
            }
            total
        }
        Err(_) => usize::MAX / 2,
    }
}

/// Number of *output* transitions directly triggered by the state
/// signal's transitions (the timing-aware "keep x off the critical path"
/// metric).
fn critical_penalty(stg: &Stg, name: &str) -> usize {
    let Some(x) = stg.signal_by_name(name) else {
        return 0;
    };
    let net = stg.net();
    let mut count = 0;
    for t in stg.transitions_of(x) {
        for arc in net.postset(t) {
            for &consumer in net.consumers(arc.place) {
                if let TransitionLabel::Event(ev) = stg.label(consumer) {
                    if stg.signal_kind(ev.signal) == SignalKind::Output {
                        count += 1;
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_stg::{explore, models};

    /// The explicit-path graph of a resolution (every test below that
    /// uses it runs below the symbolic threshold).
    fn graph(res: &CscResolution) -> &StateGraph {
        res.sg.as_ref().expect("explicit path carries its graph")
    }

    #[test]
    fn csc_free_spec_passes_through() {
        let stg = models::handshake_stg();
        let res = resolve_csc(&stg).unwrap();
        assert!(res.inserted.is_empty());
        assert_eq!(graph(&res).state_count(), 4);
    }

    #[test]
    fn fifo_conflicts_are_resolved_by_insertion() {
        let stg = models::fifo_stg();
        let res = resolve_csc(&stg).unwrap();
        assert!(!res.inserted.is_empty(), "fifo needs a state signal");
        assert!(graph(&res).csc_conflicts().is_empty());
        assert!(graph(&res).is_strongly_connected());
        // The new signal is internal.
        let x = res.stg.signal_by_name(&res.inserted[0]).unwrap();
        assert_eq!(res.stg.signal_kind(x), SignalKind::Internal);
    }

    #[test]
    fn insertion_preserves_interface_signals() {
        let stg = models::fifo_stg();
        let res = resolve_csc(&stg).unwrap();
        for name in ["li", "lo", "ro", "ri"] {
            let original = stg.signal_by_name(name).unwrap();
            let rewritten = res.stg.signal_by_name(name).unwrap();
            assert_eq!(
                stg.signal_kind(original),
                res.stg.signal_kind(rewritten),
                "{name} kind preserved"
            );
        }
    }

    #[test]
    fn manual_insertion_roundtrip() {
        let stg = models::handshake_stg();
        let net = stg.net();
        // Splice x+ into the first place and x- into the second.
        let places: Vec<_> = net.places().collect();
        let rewritten = insert_state_signal(&stg, "x", places[0], places[1]);
        assert_eq!(rewritten.signal_count(), stg.signal_count() + 1);
        // The rewrite may or may not be consistent; exploration decides.
        let _ = explore(&rewritten);
    }

    #[test]
    fn both_engine_backends_produce_identical_resolutions() {
        let options = CscOptions::default();
        for (name, stg) in [
            ("fifo", models::fifo_stg()),
            (
                "vme_read",
                rt_stg::corpus::parse(rt_stg::corpus::VME_READ_G).unwrap(),
            ),
            ("handshake", models::handshake_stg()),
        ] {
            let mut explicit = ReachEngine::explicit();
            let mut symbolic = ReachEngine::symbolic();
            let a = resolve_csc_engine(&stg, &options, &mut explicit)
                .unwrap_or_else(|e| panic!("{name} explicit: {e}"));
            let b = resolve_csc_engine(&stg, &options, &mut symbolic)
                .unwrap_or_else(|e| panic!("{name} symbolic: {e}"));
            assert_eq!(a.inserted, b.inserted, "{name}");
            assert_eq!(a.cost, b.cost, "{name}");
            let (ga, gb) = (graph(&a), graph(&b));
            assert_eq!(ga.state_count(), gb.state_count(), "{name}");
            assert_eq!(
                ga.states().map(|s| ga.code(s)).collect::<Vec<_>>(),
                gb.states().map(|s| gb.code(s)).collect::<Vec<_>>(),
                "{name}: identical coded graphs"
            );
        }
    }

    #[test]
    fn shared_symbolic_engine_audits_and_reuses_across_resolutions() {
        // One engine across two resolutions: manager survives, audit
        // passes, and at least one symbolic call hit the warm manager.
        let mut engine = ReachEngine::symbolic();
        let first = resolve_csc_engine(&models::fifo_stg(), &CscOptions::default(), &mut engine)
            .expect("fifo resolves");
        assert!(!first.inserted.is_empty());
        let nodes_after_first = engine.manager_nodes();
        assert!(nodes_after_first > 2, "audit ran symbolically");
        let second = resolve_csc_engine(&models::fifo_stg(), &CscOptions::default(), &mut engine)
            .expect("fifo resolves again");
        assert_eq!(first.inserted, second.inserted);
        assert_eq!(first.cost, second.cost);
        assert!(
            engine.stats().manager_reuses >= 1,
            "second audit reused the manager"
        );
        assert_eq!(
            engine.manager_nodes(),
            nodes_after_first,
            "identical net re-audited out of cache: no new nodes"
        );
    }

    #[test]
    fn candidate_pool_width_does_not_change_the_resolution() {
        for (name, stg) in [
            ("fifo", models::fifo_stg()),
            (
                "vme_read",
                rt_stg::corpus::parse(rt_stg::corpus::VME_READ_G).unwrap(),
            ),
        ] {
            let serial_options = CscOptions {
                threads: 1,
                ..CscOptions::default()
            };
            let mut serial_engine = ReachEngine::explicit();
            let serial = resolve_csc_engine(&stg, &serial_options, &mut serial_engine)
                .unwrap_or_else(|e| panic!("{name} serial: {e}"));
            for threads in [2usize, 8] {
                let options = CscOptions {
                    threads,
                    ..CscOptions::default()
                };
                let mut engine = ReachEngine::explicit();
                let parallel = resolve_csc_engine(&stg, &options, &mut engine)
                    .unwrap_or_else(|e| panic!("{name} x{threads}: {e}"));
                assert_eq!(parallel.inserted, serial.inserted, "{name} x{threads}");
                assert_eq!(parallel.cost, serial.cost, "{name} x{threads}");
                let (gp, gs) = (graph(&parallel), graph(&serial));
                assert_eq!(
                    gp.states().map(|s| gp.code(s)).collect::<Vec<_>>(),
                    gs.states().map(|s| gs.code(s)).collect::<Vec<_>>(),
                    "{name} x{threads}: identical coded graphs"
                );
                assert_eq!(
                    engine.stats().graph_builds,
                    serial_engine.stats().graph_builds,
                    "{name} x{threads}: absorbed worker stats match serial accounting"
                );
            }
        }
    }

    #[test]
    fn timing_aware_penalty_counts_output_triggers() {
        // In fifo_stg_csc, x+ directly triggers lo+ (an output).
        let stg = models::fifo_stg_csc();
        assert!(critical_penalty(&stg, "x") >= 1);
        assert_eq!(critical_penalty(&stg, "nonexistent"), 0);
    }
}
