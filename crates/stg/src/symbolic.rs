//! Symbolic (BDD-based) reachability for safe nets.
//!
//! The explicit analyser in [`crate::reach`] enumerates markings one by
//! one; for the paper's controllers that is plenty. This module provides
//! the classic alternative — markings as Boolean vectors (one variable
//! per place), reachable sets as BDDs, breadth-first image computation —
//! so the two can be compared head to head (the state-space-scaling
//! ablation in `rt-bench`'s `synthesis` bench).
//!
//! The BFS is *frontier-based*: each iteration images only the set of
//! markings discovered in the previous iteration (`frontier`), not the
//! whole accumulated reachable set, so work per iteration tracks the
//! wavefront instead of re-exploring everything already known. Each
//! transition's image is one [`rt_boolean::Bdd::replace_cube`] pass:
//! the transition's firing cube — preset marked and produced places
//! empty before, preset cleared and postset marked after — rewrites the
//! frontier in a single memoized traversal, with nothing left behind in
//! the manager's computed table.
//!
//! One helper takes every image step, here and in both fixpoints of
//! [`csc`]. It first walks the frontier once
//! ([`rt_boolean::Bdd::values_taken`]) and then fires only the
//! transitions whose `before` cube asks each variable for a value the
//! frontier takes. The others have empty images, which allocate no
//! node, so the skip changes no node id: on the RT adders most
//! transitions are idle on most layers (adder16's CSC forward sweep
//! fires 64 of 4,096 transition-layer pairs).
//!
//! There are two entry points:
//!
//! * [`reach_symbolic`] — the one-shot API: builds a fresh manager per
//!   call and throws it away;
//! * [`reach_symbolic_in`] — runs inside a **caller-owned manager**.
//!   The manager never frees a node, so node ids stay valid across
//!   calls and one manager serves many nets, its unique table sharing
//!   structure between them. [`crate::engine::ReachEngine`] builds its
//!   symbolic backend on this entry point.
//!
//! Only *safe* (1-bounded) nets are supported: a marking is then exactly
//! a set of places. That is every walk's contract, the explicit ones of
//! [`crate::reach`] included, and every walk here runs the explicit
//! walks' up-front check before any BDD operation: an initial marking
//! with two tokens on a place is [`StgError::Unbounded`] on both
//! analysers, and builds no node. A firing that would put a second token
//! on a place later in the walk is a different matter: its image is
//! simply not generated (see `firing_cube`), where the explicit walk
//! reports it. Detecting it would build nodes the fresh-manager pins
//! fix. Nets of any width are accepted — the manager is widened on
//! demand via [`rt_boolean::Bdd::ensure_vars`], so > 64-place nets (the
//! `W2`/`W4`/`Big` packed-marking territory of [`crate::marking`]) work
//! transparently.
//!
//! ## Variable order
//!
//! BDD size is exquisitely sensitive to the variable order, and the
//! manager's order is fixed (index = level), so the place → variable
//! map is the order, chosen here once and measured: declaration order
//! reversed, place *p* ↦ variable `places − 1 − p`. In this codebase
//! declaration order already *is* a connectivity order (generators and
//! the `.g` parser emit places along the token flow), and placing the
//! late-declared wrap/link places near the root is the consistent
//! winner over the identity map (fresh manager, total allocated nodes):
//! fabric4x4 ~221k → ~203k nodes, adder16_rt ~11.1k → ~7.9k,
//! `vme_read` 335 → 242, `ring12_3` 28.0k → 27.0k. It wins on the small
//! nets too: over the nine corpus nets below 10 places the summed reach
//! nodes fall 990 → 847 (`arbiter2` 181 → 174, `celement` 145 → 124).
//!
//! A breadth-first connectivity order is not used: it interleaves the
//! rows of torus-like fabrics at equal distance (fabric4x4 ~1.0M nodes
//! against ~780k for the reversed order, measured under the earlier
//! image chain) and never beat the reversed order where it mattered.
//!
//! Membership queries on the permuted set go through
//! [`SymbolicReach::contains`], which maps variables back to marking
//! bits ([`rt_boolean::Bdd::evaluate_mapped`]).

use rt_boolean::bdd::NodeId;
use rt_boolean::Bdd;

use crate::budget::Budget;
use crate::error::StgError;
use crate::petri::{PetriNet, TransitionId};
use crate::reach::safe_layout;
use crate::stg::Stg;

pub mod csc;

/// Per-iteration budget poll shared by the symbolic fixpoints (here and
/// in [`csc`]): injected faults first (compiled out unless the
/// `fault-injection` feature is on), then cancellation/deadline, then
/// the manager footprint against both the budget's node ceiling and any
/// ceiling installed on the manager itself
/// ([`Bdd::set_node_budget`]), then the iteration ceiling. `iterations`
/// counts *completed* image steps (0-based at the first poll).
pub(crate) fn iteration_budget_check(
    bdd: &Bdd,
    budget: &Budget,
    iterations: usize,
) -> Option<StgError> {
    if let Some(error) = crate::faults::symbolic_iteration_fault(iterations) {
        return Some(error);
    }
    if budget.cancelled() {
        return Some(StgError::Cancelled);
    }
    let footprint = bdd.footprint();
    if bdd.over_budget() || budget.max_bdd_nodes.is_some_and(|max| footprint > max) {
        return Some(StgError::NodeBudgetExceeded { nodes: footprint });
    }
    if iterations >= budget.effective_max_iterations() {
        return Some(StgError::IterationLimitExceeded { iterations });
    }
    None
}

/// Result of a symbolic exploration.
#[derive(Debug, Clone)]
pub struct SymbolicReach {
    /// Number of reachable markings (model count of the reachable set).
    pub markings: u64,
    /// Breadth-first iterations to the fixpoint.
    pub iterations: usize,
    /// Nodes allocated in the manager at the end of the run (memory
    /// proxy). Nothing is freed, so this is also the run's peak; for a
    /// reused manager it counts everything the manager holds, not just
    /// this call.
    pub bdd_nodes: usize,
    /// The reachable set itself, valid for the manager the call ran in.
    /// With [`reach_symbolic_in`] the caller can test membership via
    /// [`SymbolicReach::contains`] or compose further images.
    pub set: NodeId,
    /// The place behind each BDD variable (`place_of_var[v]` is the
    /// place index variable `v` encodes) — the inverse of the place →
    /// variable map (see the module docs' *Variable order*).
    pub place_of_var: Vec<u32>,
}

impl SymbolicReach {
    /// Whether the packed marking `words` (bit *i* of the stream =
    /// place *i* marked, exactly [`crate::marking::PackedMarking::words`]
    /// on a safe-net layout) belongs to the reachable set. `bdd` must
    /// be the manager the run executed in.
    pub fn contains(&self, bdd: &Bdd, words: &[u64]) -> bool {
        bdd.evaluate_mapped(self.set, words, &self.place_of_var)
    }
}

/// Computes the reachable markings of `stg`'s net symbolically in a
/// fresh, throwaway manager.
///
/// # Errors
///
/// Propagates every failure mode of [`reach_symbolic_in`].
pub fn reach_symbolic(stg: &Stg) -> Result<SymbolicReach, StgError> {
    let mut bdd = Bdd::new(stg.net().place_count());
    reach_symbolic_in(stg, &mut bdd)
}

/// Computes the reachable markings of `stg`'s net symbolically inside
/// `bdd` under the reversed declaration order (see the module docs'
/// *Variable order*), widening the manager's variable universe to the
/// net's place count if needed.
///
/// The reported marking count is taken over the *net's* place universe
/// ([`Bdd::satisfy_count_over`]), so it is independent of how wide a
/// shared manager has grown.
///
/// # Errors
///
/// * [`StgError::Unbounded`] — the initial marking is not safe;
/// * [`StgError::IterationLimitExceeded`] — the fixpoint has not
///   converged after 10 000 image iterations (a diverging or enormous
///   net).
pub fn reach_symbolic_in(stg: &Stg, bdd: &mut Bdd) -> Result<SymbolicReach, StgError> {
    reach_symbolic_with(stg, bdd, &Budget::default())
}

/// [`reach_symbolic_in`] under the caller's `budget`. This is the
/// entry point [`crate::engine::ReachEngine`] uses. The fixpoint polls
/// cancellation, the manager-footprint ceiling and the iteration
/// ceiling once per image step, so an overrun stops within one
/// iteration and never leaves a half-built structure (the manager's
/// unique table only ever grows by *complete* nodes).
///
/// # Errors
///
/// As [`reach_symbolic_in`], plus [`StgError::Cancelled`] and
/// [`StgError::NodeBudgetExceeded`] when the budget triggers.
pub fn reach_symbolic_with(
    stg: &Stg,
    bdd: &mut Bdd,
    budget: &Budget,
) -> Result<SymbolicReach, StgError> {
    safe_layout(stg)?;
    let net = stg.net();
    let places = net.place_count();
    let var_of = place_order(stg);
    bdd.ensure_vars(places);

    // Initial set: the exact initial marking as a minterm over places.
    let initial_marking = stg.initial_marking();
    let mut initial = bdd.constant(true);
    for p in net.places() {
        let var = if initial_marking.tokens(p) > 0 {
            bdd.var(var_of[p.index()] as usize)
        } else {
            bdd.nvar(var_of[p.index()] as usize)
        };
        initial = bdd.and(initial, var);
    }

    // Per-transition image: S_t = replace_cube(S, firing cube of t).
    // For safe nets this is exact.
    let cubes: Vec<Vec<(usize, bool, bool)>> = net
        .transitions()
        .map(|t| firing_cube(net, t, &var_of))
        .collect();

    let mut reached = initial;
    let mut frontier = initial;
    let mut iterations = 0;
    loop {
        // Budget poll at the iteration boundary: `reached`/`frontier`
        // are complete sets from the previous step, so stopping here
        // never abandons a half-built structure.
        if let Some(error) = iteration_budget_check(bdd, budget, iterations) {
            return Err(error);
        }
        iterations += 1;
        let next = image_step(bdd, frontier, cubes.iter().map(Vec::as_slice));
        let not_reached = bdd.not(reached);
        let fresh = bdd.and(next, not_reached);
        if fresh == bdd.constant(false) {
            break;
        }
        reached = bdd.or(reached, fresh);
        frontier = fresh;
    }

    // Invert the order for membership queries: variable v encodes
    // place place_of_var[v].
    let mut place_of_var = vec![0u32; places];
    for (place, &var) in var_of.iter().enumerate() {
        place_of_var[var as usize] = place as u32;
    }
    Ok(SymbolicReach {
        markings: bdd.satisfy_count_over(reached, places),
        iterations,
        bdd_nodes: bdd.node_count(),
        set: reached,
        place_of_var,
    })
}

/// One BFS step of every symbolic fixpoint: the union of
/// [`Bdd::replace_cube`]`(frontier, cube)` over `cubes`.
///
/// One traversal of the frontier first records which values each
/// variable takes there ([`Bdd::values_taken`]). A cube whose `before`
/// side asks some variable for a value the frontier never gives it is
/// skipped: its image is empty. Skipping changes no node id, because an
/// empty image allocates nothing — every `mk` on the way up sees two
/// ZERO children — and `or(next, ZERO)` is a shortcut.
pub(crate) fn image_step<'a>(
    bdd: &mut Bdd,
    frontier: NodeId,
    cubes: impl IntoIterator<Item = &'a [(usize, bool, bool)]>,
) -> NodeId {
    let taken = bdd.values_taken(frontier);
    let mut next = NodeId::ZERO;
    for cube in cubes {
        if cube
            .iter()
            .all(|&(var, before, _)| taken[var][usize::from(before)])
        {
            let fired = bdd.replace_cube(frontier, cube);
            next = bdd.or(next, fired);
        }
    }
    next
}

/// The place → variable map of every symbolic run over `stg`: place *p*
/// ↦ variable `places − 1 − p` (see the module docs' *Variable
/// order*). Shared with the signal-extended layout of [`csc`].
pub(crate) fn place_order(stg: &Stg) -> Vec<u32> {
    (0..stg.net().place_count() as u32).rev().collect()
}

/// Transition `t`'s firing as `(variable, before, after)` literals over
/// its pre- and postset places (`var_of[place]` = the place's variable),
/// ready for [`Bdd::replace_cube`]: forward it is the image, with
/// `before` and `after` swapped the preimage.
///
/// Before firing the preset is marked and every produced place empty.
/// That is the safeness side condition: a produced place must be empty
/// unless it is also consumed, else the net would go 2-bounded. Explicit
/// analysis reports `Unbounded` there; symbolically the successor is
/// simply not generated, so the analyses agree only on safe nets (the
/// up-front check catches an unsafe initial marking on both). After
/// firing the postset is marked and the rest of the preset empty.
pub(crate) fn firing_cube(
    net: &PetriNet,
    t: TransitionId,
    var_of: &[u32],
) -> Vec<(usize, bool, bool)> {
    let mut cube: Vec<(usize, bool, bool)> = Vec::new();
    for arc in net.preset(t) {
        let var = var_of[arc.place.index()] as usize;
        if cube.iter().all(|&(v, ..)| v != var) {
            cube.push((var, true, false));
        }
    }
    for arc in net.postset(t) {
        let var = var_of[arc.place.index()] as usize;
        match cube.iter_mut().find(|(v, ..)| *v == var) {
            Some(lit) => lit.2 = true,
            None => cube.push((var, false, true)),
        }
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::reach::explore;

    #[test]
    fn symbolic_agrees_with_explicit_on_the_paper_models() {
        for (name, stg) in [
            ("handshake", models::handshake_stg()),
            ("fifo", models::fifo_stg()),
            ("fifo_csc", models::fifo_stg_csc()),
            ("celement", models::celement_stg()),
            ("chain3", models::chain_stg(3)),
        ] {
            let explicit = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
            let symbolic = reach_symbolic(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                symbolic.markings,
                explicit.state_count() as u64,
                "{name}: symbolic vs explicit"
            );
        }
    }

    #[test]
    fn symbolic_agrees_on_rings() {
        for (n, tokens) in [(3usize, 1usize), (4, 1), (5, 2), (6, 2)] {
            let stg = models::ring_stg(n, tokens);
            let explicit = explore(&stg).expect("explores");
            let symbolic = reach_symbolic(&stg).expect("symbolic explores");
            assert_eq!(
                symbolic.markings,
                explicit.state_count() as u64,
                "ring {n}/{tokens}"
            );
        }
    }

    #[test]
    fn skipping_transitions_the_frontier_cannot_enable_is_exact() {
        // The forward BFS from the initial marking, then the backward
        // BFS within the reachable set, as the fixpoints run them. On
        // every layer the filtered step must return the node the
        // unfiltered union returns, and the unfiltered union, run after
        // it, must add no node: the skipped images were empty and
        // allocate nothing.
        for (name, stg) in crate::corpus::sweep() {
            if name == "wide:fabric4x4" {
                continue; // seconds of work in a debug build
            }
            let net = stg.net();
            let var_of = place_order(&stg);
            let forward: Vec<Vec<(usize, bool, bool)>> = net
                .transitions()
                .map(|t| firing_cube(net, t, &var_of))
                .collect();
            let backward: Vec<Vec<(usize, bool, bool)>> = forward
                .iter()
                .map(|cube| cube.iter().map(|&(v, from, to)| (v, to, from)).collect())
                .collect();
            let mut bdd = Bdd::new(net.place_count());
            let mut initial = NodeId::ONE;
            for p in net.places() {
                let v = var_of[p.index()] as usize;
                let lit = if stg.initial_marking().tokens(p) > 0 {
                    bdd.var(v)
                } else {
                    bdd.nvar(v)
                };
                initial = bdd.and(initial, lit);
            }
            let mut within = NodeId::ONE;
            for cubes in [&forward, &backward] {
                let mut seen = initial;
                let mut frontier = initial;
                let mut layer = 0;
                while frontier != NodeId::ZERO {
                    let filtered = image_step(&mut bdd, frontier, cubes.iter().map(Vec::as_slice));
                    let nodes = bdd.node_count();
                    let mut unfiltered = NodeId::ZERO;
                    for cube in cubes {
                        let fired = bdd.replace_cube(frontier, cube);
                        unfiltered = bdd.or(unfiltered, fired);
                    }
                    assert_eq!(filtered, unfiltered, "{name}: layer {layer}");
                    assert_eq!(bdd.node_count(), nodes, "{name}: layer {layer}");
                    let unseen = bdd.not(seen);
                    let fresh = bdd.and(filtered, unseen);
                    frontier = bdd.and(fresh, within);
                    seen = bdd.or(seen, frontier);
                    layer += 1;
                }
                assert!(layer > 1, "{name}: the BFS moved");
                within = seen;
            }
        }
    }

    #[test]
    fn iteration_count_tracks_diameter() {
        let stg = models::chain_stg(4);
        let result = reach_symbolic(&stg).expect("explores");
        // The chain is strictly sequential: BFS depth = cycle length.
        assert!(result.iterations >= 8, "got {}", result.iterations);
        assert!(result.bdd_nodes > 2);
    }

    #[test]
    fn corpus_entries_agree_too() {
        for (name, text) in crate::corpus::all() {
            let stg = crate::corpus::parse(text).expect("parses");
            let explicit = explore(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
            let symbolic = reach_symbolic(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(symbolic.markings, explicit.state_count() as u64, "{name}");
        }
    }

    #[test]
    fn shared_manager_reproduces_fresh_results() {
        // One manager across the whole model sweep: counts and the sets
        // themselves must match the fresh-manager runs.
        let mut shared = Bdd::new(4);
        for (name, stg) in [
            ("handshake", models::handshake_stg()),
            ("fifo", models::fifo_stg()),
            ("celement", models::celement_stg()),
            ("fifo", models::fifo_stg()), // repeat: every node already exists
        ] {
            let fresh = reach_symbolic(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
            let reused =
                reach_symbolic_in(&stg, &mut shared).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(fresh.markings, reused.markings, "{name}");
            assert_eq!(fresh.iterations, reused.iterations, "{name}");
        }
    }

    #[test]
    fn reachable_set_answers_membership() {
        let stg = models::handshake_stg();
        let mut bdd = Bdd::new(stg.net().place_count());
        let result = reach_symbolic_in(&stg, &mut bdd).expect("explores");
        let sg = explore(&stg).expect("explores");
        for state in sg.states() {
            let packed = sg.packed_marking(state);
            assert!(
                result.contains(&bdd, packed.words()),
                "explicitly reachable marking must be in the symbolic set"
            );
        }
    }

    #[test]
    fn every_static_order_agrees_on_counts_and_membership() {
        for (name, stg) in [
            ("fifo", models::fifo_stg()),
            ("celement", models::celement_stg()),
            ("ring8_2", models::ring_stg(8, 2)),
        ] {
            let sg = explore(&stg).expect("explores");
            let mut bdd = Bdd::new(stg.net().place_count());
            let r = reach_symbolic_in(&stg, &mut bdd).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(r.markings, sg.state_count() as u64, "{name}");
            for state in sg.states() {
                let words = sg.packed_marking(state).words();
                assert!(r.contains(&bdd, words), "{name}: membership");
            }
        }
    }
}
