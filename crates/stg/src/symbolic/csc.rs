//! Symbolic complete-state-coding conflict detection.
//!
//! The explicit detector ([`crate::state_graph::StateGraph::csc_conflicts`])
//! needs the fully enumerated, binary-coded state graph. This module
//! detects (and counts, and witnesses) CSC conflicts **without ever
//! materializing a state graph**: the reachable set, the signal codes
//! and the conflict relation are all BDDs in one (typically
//! persistent, engine-owned) manager.
//!
//! Its users go through
//! [`crate::engine::ReachEngine::csc_conflicts_symbolic`]: CSC checks
//! on a symbolic engine, and on an explicit one past its state ceiling
//! ([`crate::engine::ReachEngine::csc_check`]), and the audit of every
//! resolution `rt_synth::csc::resolve_csc_engine` accepts on a symbolic
//! engine, which checks it against the explicit detector. It does not rank
//! state-encoding candidates: that search builds an explicit graph per
//! candidate on every backend.
//!
//! ## Variable layout
//!
//! The diagram ranges over three interleaved groups of variables:
//!
//! * every **place** owns an adjacent *(unprimed, primed)* variable
//!   pair — the unprimed slot carries the reachability BFS, the primed
//!   slot carries the second state of the conflict pair space;
//! * every **signal** owns a *single, shared* code variable.
//!
//! Sharing the code variables between the two pair-space copies is the
//! load-bearing trick: the conflict relation needs "same code", and
//! with one set of code variables the conjunction `R(p, y) ∧ R(p', y)`
//! *is* the equality join — no primed code copy, no `⋀ yᵢ ↔ y'ᵢ`
//! constraint, and the product diagram stays synchronized on the code
//! prefix instead of squaring.
//!
//! Places follow the reversed declaration order of the place-only
//! analysis (see [`crate::symbolic`]'s *Variable order*); each signal's
//! code variable is spliced directly after its *anchor* place — the
//! earliest-ordered place adjacent to any of the signal's transitions —
//! because a consistent signal's value is a function of the tokens
//! circulating through exactly those places, and a code variable far
//! from its support multiplies the diagram.
//!
//! Roles bind to variable indices, which are levels in the manager's
//! fixed order: walking the places top-down, each place takes the next
//! two indices (unprimed, then primed) and each signal the index right
//! after its anchor's pair — the `2·place + spliced signal` layout. A
//! primed twin therefore sits directly below its place, which keeps the
//! `R(p, y) → R(p', y)` rename monotone.
//!
//! ## The conflict relation
//!
//! The BFS plays the one token game of [`crate::petri`] on the places,
//! as the place-only analysis does, and asks each frontier the same
//! read-only question before its image: a reachable firing that would
//! put a second token on a place is [`StgError::Unbounded`], refused at
//! the breadth-first layer where the explicit walks refuse it. It
//! tracks codes transparently: an `a+`-labelled transition's
//! firing cube ([`rt_boolean::Bdd::replace_cube`]) rewrites signal
//! `a`'s variable alongside the pre/post places (and demands the source
//! value before firing, so an inconsistent specification is
//! *detected*, not silently re-encoded — see
//! [`csc_conflicts_symbolic_in`]'s errors). After the fixpoint, for an
//! implemented signal *j* with excitation sets `ER(j+)`, `ER(j-)`:
//!
//! ```text
//! implied_j = ER(j+) ∨ (y_j ∧ ¬ER(j-))          (the next-state value)
//! Conf_j    = R(p,y) ∧ R(p',y) ∧ implied_j(p,y) ∧ ¬implied_j(p',y)
//! ```
//!
//! Each satisfying assignment of `Conf_j` is an **ordered** pair of
//! distinct reachable states sharing a code and disagreeing on *j*'s
//! implied value, with the `1`-side first — exactly one assignment per
//! unordered explicit conflict, so `∑_j |Conf_j|` (by BDD model
//! counting) equals `StateGraph::csc_conflicts().len()` *exactly*, and
//! [`rt_boolean::Bdd::satisfy_one`] over any non-empty `Conf_j` yields
//! a concrete witness pair of packed markings
//! ([`CscWitness`]). `crates/stg/tests/csc_symbolic.rs` pins the
//! count-and-witness agreement across the corpus, wide models
//! included.
//!
//! The liveness side-conditions an accepted encoding must meet ride
//! along on the same diagrams: deadlock freedom is `R ∧ ¬(⋁ enabled_t) = ∅`,
//! and strong connectivity is `R ⊆ B` for the backward fixpoint `B`
//! from the initial state (every reachable state can return).
//!
//! The detector caps at 64 signals (codes and witnesses are `u64`
//! streams, like the explicit graph's) but has **no place cap**: the
//! wide `W2`/`W4` corpus models run through the same entry points.

use rt_boolean::bdd::NodeId;
use rt_boolean::Bdd;

use crate::budget::Budget;
use crate::error::StgError;
use crate::reach::{infer_initial_code, safe_layout};
use crate::signal::{Edge, SignalId};
use crate::stg::{Stg, TransitionLabel};
use crate::symbolic::{firing_cube, fixpoint, place_order, UnsafeFirings};

/// A concrete CSC conflict extracted from the symbolic pair space: two
/// reachable markings sharing a binary code but disagreeing on the
/// implied value of `signal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscWitness {
    /// Packed marking of the state whose implied value of `signal` is 1
    /// (bit *p* of the stream = place *p* marked, the safe-net layout of
    /// [`crate::marking::PackedMarking::words`]).
    pub marking_a: Vec<u64>,
    /// Packed marking of the `implied = 0` state.
    pub marking_b: Vec<u64>,
    /// The code both states share (bit *i* = signal *i*).
    pub code: u64,
    /// The implemented signal whose next-state function the pair makes
    /// ambiguous.
    pub signal: SignalId,
}

/// Everything one symbolic CSC analysis produced.
#[derive(Debug, Clone)]
pub struct CscAnalysis {
    /// Number of reachable markings (the audit count — must match the
    /// explicit analyser).
    pub markings: u64,
    /// Forward-BFS iterations to the fixpoint.
    pub iterations: usize,
    /// Total CSC conflicts — exactly
    /// [`crate::state_graph::StateGraph::csc_conflicts`]`().len()`.
    ///
    /// "Exactly" inherits [`rt_boolean::Bdd::satisfy_count_over`]'s
    /// contract: integer model counts, exact up to `u64::MAX`, where
    /// the count and the per-signal sum saturate.
    pub conflicts: u64,
    /// Conflict count per implemented signal (signals with zero
    /// conflicts omitted), ascending by signal index.
    pub per_signal: Vec<(SignalId, u64)>,
    /// A concrete conflict pair, when any conflict exists (taken from
    /// the lowest-indexed conflicted signal's relation).
    pub witness: Option<CscWitness>,
    /// Whether no reachable marking enables nothing.
    pub deadlock_free: bool,
    /// Whether every reachable marking can return to the initial one.
    pub strongly_connected: bool,
    /// Nodes allocated in the manager after the analysis. Nothing is
    /// freed, so this is also the analysis' peak; for a shared manager
    /// it counts everything the manager holds.
    pub bdd_nodes: usize,
}

/// One transition's enabledness data. Its firing, for the forward image
/// and the backward (pre-image) step, is a `(variable, before, after)`
/// cube over the pre ∪ post places plus, for labelled transitions, the
/// signal variable: [`Bdd::replace_cube`] with it is the image, and with
/// `before` and `after` swapped the pre-image.
struct TransImage {
    /// Full enabling constraint, the firing's `before` cube: preset marked,
    /// produced places empty (the safeness side condition of
    /// [`super::reach_symbolic_in`]), and — for labelled transitions —
    /// the signal at its source value.
    enabled: NodeId,
    /// The place-only part of `enabled`, for the consistency scan.
    place_enabled: NodeId,
    /// `(signal variable, edge, signal)` for labelled transitions.
    event: Option<(usize, Edge, SignalId)>,
}

/// [`csc_conflicts_symbolic_in`] in a fresh, throwaway manager.
///
/// # Errors
///
/// Same as [`csc_conflicts_symbolic_in`].
pub fn csc_conflicts_symbolic(stg: &Stg) -> Result<CscAnalysis, StgError> {
    let mut bdd = Bdd::new(0);
    csc_conflicts_symbolic_in(stg, &mut bdd)
}

/// Runs the full symbolic CSC analysis of `stg` inside `bdd`, widening
/// the manager's variable universe as needed (one persistent manager
/// serves any mix of nets — this is how
/// [`crate::engine::ReachEngine::csc_conflicts_symbolic`] calls it).
///
/// # Errors
///
/// * [`StgError::TooManySignals`] — more than 64 signals (codes and
///   witnesses are `u64`s, matching the explicit graph's cap);
/// * [`StgError::Unbounded`] — the initial marking, or a reachable
///   firing, puts a second token on a place;
/// * [`StgError::Inconsistent`] — a reachable marking enables an edge
///   of a signal already at that edge's target value;
/// * [`StgError::IterationLimitExceeded`] — no fixpoint within the
///   iteration ceiling (10 000 by default);
/// * [`StgError::Cancelled`] / [`StgError::NodeBudgetExceeded`] — the
///   caller's budget ([`csc_conflicts_symbolic_opts`]) triggered; polled
///   once per image step.
pub fn csc_conflicts_symbolic_in(stg: &Stg, bdd: &mut Bdd) -> Result<CscAnalysis, StgError> {
    csc_conflicts_symbolic_opts(stg, bdd, &Budget::default())
}

/// [`csc_conflicts_symbolic_in`] under the caller's `budget`. The
/// initial code comes from an explicit sweep that fixes each unforced
/// signal where the coded walk of [`crate::reach::explore`] fixes it
/// (capped at [`crate::reach::STATE_LIMIT`] markings, as that walk is),
/// so both detectors start from the same code.
///
/// # Errors
///
/// Same as [`csc_conflicts_symbolic_in`].
pub fn csc_conflicts_symbolic_opts(
    stg: &Stg,
    bdd: &mut Bdd,
    budget: &Budget,
) -> Result<CscAnalysis, StgError> {
    let net = stg.net();
    let places = net.place_count();
    let signals = stg.signal_count();
    if signals > 64 {
        return Err(StgError::TooManySignals(signals));
    }
    let layout = safe_layout(stg)?;

    // --- Variable layout: place pairs with anchored signal splices ---
    let pos_of_place = place_order(stg);
    let mut place_at = vec![0usize; places];
    for (place, &pos) in pos_of_place.iter().enumerate() {
        place_at[pos as usize] = place;
    }
    // A signal's anchor is the earliest-ordered place its transitions
    // touch; untouched signals park at the tail.
    let mut signals_at: Vec<Vec<usize>> = vec![Vec::new(); places + 1];
    for s in 0..signals {
        let mut anchor = places as u32;
        for t in stg.transitions_of(SignalId(s as u32)) {
            for arc in net.preset(t).iter().chain(net.postset(t)) {
                anchor = anchor.min(pos_of_place[arc.place.index()]);
            }
        }
        signals_at[anchor as usize].push(s);
    }
    let total_vars = 2 * places + signals;
    bdd.ensure_vars(total_vars);
    // The `2·place + spliced signal` layout: top-down, each place takes
    // the next two indices (its primed twin right below it), each
    // signal the next one after its anchor's pair.
    let mut uvar = vec![0u32; places];
    let mut pvar = vec![0u32; places];
    let mut svar = vec![0u32; signals];
    let mut next = 0u32;
    for pos in 0..=places {
        if pos < places {
            uvar[place_at[pos]] = next;
            pvar[place_at[pos]] = next + 1;
            next += 2;
        }
        for &s in &signals_at[pos] {
            svar[s] = next;
            next += 1;
        }
    }
    debug_assert_eq!(next as usize, total_vars);

    // --- Initial state: exact minterm over places and code bits ---
    let initial_code = infer_initial_code(stg, layout)?;
    let initial_marking = stg.initial_marking();
    let mut initial = bdd.constant(true);
    for p in net.places() {
        let v = uvar[p.index()] as usize;
        let lit = if initial_marking.tokens(p) > 0 {
            bdd.var(v)
        } else {
            bdd.nvar(v)
        };
        initial = bdd.and(initial, lit);
    }
    for (s, &v) in svar.iter().enumerate() {
        let lit = if initial_code >> s & 1 == 1 {
            bdd.var(v as usize)
        } else {
            bdd.nvar(v as usize)
        };
        initial = bdd.and(initial, lit);
    }

    // --- Per-transition firing data ---
    let mut images = Vec::new();
    let mut fires = Vec::new();
    for t in net.transitions() {
        let mut fire = firing_cube(net, t, &uvar);
        let mut place_enabled = bdd.constant(true);
        for &(v, before, _) in &fire {
            let lit = if before { bdd.var(v) } else { bdd.nvar(v) };
            place_enabled = bdd.and(place_enabled, lit);
        }
        let mut enabled = place_enabled;
        let event = match stg.label(t) {
            TransitionLabel::Silent => None,
            TransitionLabel::Event(ev) => {
                let sv = svar[ev.signal.index()] as usize;
                let source = if ev.edge.source_value() {
                    bdd.var(sv)
                } else {
                    bdd.nvar(sv)
                };
                enabled = bdd.and(enabled, source);
                fire.push((sv, ev.edge.source_value(), ev.edge.target_value()));
                Some((sv, ev.edge, ev.signal))
            }
        };
        fires.push(fire);
        images.push(TransImage {
            enabled,
            place_enabled,
            event,
        });
    }

    let unfires: Vec<Vec<_>> = fires
        .iter()
        .map(|fire| {
            fire.iter()
                .map(|&(v, before, after)| (v, after, before))
                .collect()
        })
        .collect();

    // --- Forward fixpoint (frontier-based, like the place-only BFS) ---
    let zero = bdd.constant(false);
    let unsafe_firings = UnsafeFirings::new(net, &uvar);
    let (reached, iterations) =
        fixpoint(bdd, budget, initial, &fires, Some(&unsafe_firings), None)?;

    // --- Consistency: no reachable state may place-enable an edge of a
    // signal already at the edge's target value. (The checked `enabled`
    // above then makes the fixpoint exactly the consistent token game.)
    for image in &images {
        if let Some((sv, edge, signal)) = image.event {
            let wrong = if edge.target_value() {
                bdd.var(sv)
            } else {
                bdd.nvar(sv)
            };
            let viol = bdd.and(reached, image.place_enabled);
            let viol = bdd.and(viol, wrong);
            if viol != zero {
                return Err(StgError::Inconsistent {
                    signal: stg.signal_name(signal).to_string(),
                    detail: format!(
                        "a reachable marking enables {}{} with the signal already at {}",
                        stg.signal_name(signal),
                        edge.suffix(),
                        u8::from(edge.target_value()),
                    ),
                });
            }
        }
    }

    // --- Deadlock freedom: peel every transition's enabling cube off
    // the reachable set. (Never build the global `⋁ enabled_t`: a
    // disjunction of cubes with scattered supports explodes under any
    // fixed order — on a 16-stage chain it alone costs 2.5 M nodes —
    // while the peeled intermediate stays bounded by `R`, which the
    // fixpoint already proved small.)
    let mut dead = reached;
    for image in &images {
        if dead == zero {
            break;
        }
        let not_enabled = bdd.not(image.enabled);
        dead = bdd.and(dead, not_enabled);
    }
    let deadlock_free = dead == zero;

    // --- Strong connectivity: backward fixpoint from the initial state
    // within R. R is forward-closed, so `R ⊆ B` ⇔ every state reaches
    // the initial state ⇔ (with forward reachability) one SCC. It keeps
    // its own iteration count but polls the same budget; fault injection
    // indexes forward and backward iterations alike.
    let (back, _) = fixpoint(bdd, budget, initial, &unfires, None, Some(reached))?;
    let not_back = bdd.not(back);
    let strongly_connected = bdd.and(reached, not_back) == zero;

    // --- Excitation sets and the conflict relation ---
    let mut rise = vec![zero; signals];
    let mut fall = vec![zero; signals];
    for image in &images {
        if let Some((_, edge, signal)) = image.event {
            let slot = match edge {
                Edge::Rise => &mut rise[signal.index()],
                Edge::Fall => &mut fall[signal.index()],
            };
            *slot = bdd.or(*slot, image.enabled);
        }
    }
    // Prime map: each place's unprimed variable shifts onto its primed
    // twin right below it; signal variables are shared and stay put.
    // No other variable sits between a place and its twin, so the map
    // is monotone.
    let mut prime_map: Vec<u32> = (0..bdd.vars() as u32).collect();
    for (p, &v) in uvar.iter().enumerate() {
        prime_map[v as usize] = pvar[p];
    }
    let reached_primed = bdd.rename_monotone(reached, &prime_map);
    let pair_base = bdd.and(reached, reached_primed);

    let implemented: Vec<SignalId> = stg
        .signals()
        .filter(|&s| stg.signal_kind(s).is_implemented())
        .collect();
    let mut conflicts = 0u64;
    let mut per_signal = Vec::new();
    let mut witness = None;
    for &signal in &implemented {
        let s = signal.index();
        let value = bdd.var(svar[s] as usize);
        let not_falling = bdd.not(fall[s]);
        let stable_high = bdd.and(value, not_falling);
        let implied = bdd.or(rise[s], stable_high);
        let implied_primed = bdd.rename_monotone(implied, &prime_map);
        let not_implied_primed = bdd.not(implied_primed);
        let conf = bdd.and(pair_base, implied);
        let conf = bdd.and(conf, not_implied_primed);
        if conf == zero {
            continue;
        }
        let count = bdd.satisfy_count_over(conf, total_vars);
        if witness.is_none() {
            let words = bdd.satisfy_one(conf).expect("non-empty relation");
            witness = Some(decode_witness(&words, &uvar, &pvar, &svar, signal));
        }
        conflicts = conflicts.saturating_add(count);
        per_signal.push((signal, count));
    }

    Ok(CscAnalysis {
        markings: bdd.satisfy_count_over(reached, places + signals),
        iterations,
        conflicts,
        per_signal,
        witness,
        deadlock_free,
        strongly_connected,
        bdd_nodes: bdd.node_count(),
    })
}

/// Maps one satisfying assignment of a conflict relation back to packed
/// markings and the shared code.
fn decode_witness(
    words: &[u64],
    uvar: &[u32],
    pvar: &[u32],
    svar: &[u32],
    signal: SignalId,
) -> CscWitness {
    let bit = |v: u32| {
        words
            .get(v as usize / 64)
            .is_some_and(|w| w >> (v % 64) & 1 == 1)
    };
    let mut marking_a = vec![0u64; (uvar.len().div_ceil(64)).max(1)];
    let mut marking_b = marking_a.clone();
    for (place, &v) in uvar.iter().enumerate() {
        if bit(v) {
            marking_a[place / 64] |= 1 << (place % 64);
        }
        if bit(pvar[place]) {
            marking_b[place / 64] |= 1 << (place % 64);
        }
    }
    let mut code = 0u64;
    for (s, &v) in svar.iter().enumerate() {
        if bit(v) {
            code |= 1 << s;
        }
    }
    CscWitness {
        marking_a,
        marking_b,
        code,
        signal,
    }
}
