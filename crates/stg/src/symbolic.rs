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
//! the manager's persistent caches.
//!
//! There are two entry points:
//!
//! * [`reach_symbolic`] — the historical one-shot API: builds a fresh
//!   manager per call and throws it away;
//! * [`reach_symbolic_in`] — runs inside a **caller-owned manager**.
//!   Node ids stay valid across calls until the caller collects them
//!   ([`rt_boolean::Bdd::collect`] evicts only the current epoch's
//!   garbage), so one manager serves many nets and its unique table
//!   shares structure between them. [`crate::engine::ReachEngine`]
//!   builds its long-lived symbolic backend on this entry point.
//!
//! Only *safe* (1-bounded) nets are supported: a marking is then exactly
//! a set of places. Nets of any width are accepted — the manager is
//! widened on demand via [`rt_boolean::Bdd::ensure_vars`], so > 64-place
//! nets (the `W2`/`W4`/`Big` packed-marking territory of
//! [`crate::marking`]) work transparently.
//!
//! ## Static variable ordering
//!
//! BDD size is exquisitely sensitive to the variable order, so the
//! order is an explicit, *measured* choice ([`VarOrder`]) instead of
//! an accident. Two static strategies are offered, measured over the
//! whole corpus (fresh manager, total allocated nodes — see
//! `bench_reach`'s per-model `bdd_nodes` vs `bdd_nodes_by_index`
//! fields):
//!
//! * [`VarOrder::ByIndex`] — the legacy order, place *i* ↦ variable
//!   *i* (fabric4x4 ~221k nodes, adder16_rt ~11.1k);
//! * [`VarOrder::ReverseIndex`] — the **default**: declaration order
//!   reversed. In this codebase declaration order already *is* a
//!   connectivity order (generators and the `.g` parser emit places
//!   along the token flow), and placing the late-declared wrap/link
//!   places near the root is the consistent winner: fabric4x4 ~203k
//!   nodes, adder16_rt ~7.9k, `vme_read` 335→242, `ring12_3`
//!   28.0k→27.0k.
//!
//! A breadth-first connectivity order is not offered: it interleaves
//! the rows of torus-like fabrics at equal distance (fabric4x4 ~1.0M
//! nodes against ~780k for `ReverseIndex`, measured under the earlier
//! image chain) and never beat `ReverseIndex` where it mattered.
//!
//! Membership queries on a permuted set go through
//! [`SymbolicReach::contains`], which maps variables back to marking
//! bits ([`rt_boolean::Bdd::evaluate_mapped`]).
//!
//! ## Dynamic reordering
//!
//! [`VarOrder::Sift`] starts from the static `Auto` seed and lets the
//! fixpoint reorder itself: whenever the manager grows past a
//! configurable factor since the last check (see
//! [`crate::reach::ExploreOptions::reorder_growth`]), a deterministic
//! Rudell sifting pass ([`rt_boolean::Bdd::sift`]) runs at the
//! iteration boundary with the fixpoint's live roots pinned. Because
//! node ids keep denoting the same functions across a reorder, the
//! *results* (marking counts, membership, conflict sets) are identical
//! to an unreordered run — only diagram sizes and wall time change.
//! Setting the `RT_STG_FORCE_SIFT` environment variable (to anything
//! but `0`) upgrades every `Auto` order to `Sift`, which is how CI
//! keeps the reordering path covered by the standard agreement suites.

use std::sync::OnceLock;
use std::time::Instant;

use rt_boolean::bdd::NodeId;
use rt_boolean::Bdd;

use crate::budget::Budget;
use crate::error::StgError;
use crate::petri::{PetriNet, TransitionId};
use crate::reach::ExploreOptions;
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

/// Static place → BDD-variable ordering strategy for a symbolic run.
/// See the module docs for the corpus-wide measurements behind the
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Legacy order: place *i* is BDD variable *i*.
    ByIndex,
    /// Declaration order reversed — the measured corpus-wide winner
    /// (declaration order is itself a connectivity order here, and the
    /// reversal puts late-declared link/wrap places near the root).
    ReverseIndex,
    /// The default: resolves to [`VarOrder::ReverseIndex`] at every
    /// net size (see [`VarOrder::resolved_for`]).
    #[default]
    Auto,
    /// Dynamic reordering: seed the variables with the `Auto` static
    /// order, then let the fixpoint run deterministic sifting passes
    /// whenever the manager crosses the growth trigger (see the
    /// module's *Dynamic reordering* section). Counts and membership
    /// are identical to the static orders; diagram sizes are not.
    Sift,
}

impl VarOrder {
    /// The concrete *static* strategy seeding a run under this order:
    /// identity for the named static strategies, and
    /// [`VarOrder::ReverseIndex`] for [`VarOrder::Auto`] and for
    /// [`VarOrder::Sift`] (whose reordering then moves variables away
    /// from the seed). Never returns `Auto` or `Sift`.
    ///
    /// There is no size threshold: even on the nine corpus nets below
    /// 10 places, `ReverseIndex` needs fewer reach nodes than `ByIndex`
    /// (summed 990 → 847, `arbiter2` 181 → 174, `celement` 145 → 124;
    /// fresh managers, identical results).
    pub fn resolved_for(self) -> VarOrder {
        match self {
            VarOrder::Auto | VarOrder::Sift => VarOrder::ReverseIndex,
            other => other,
        }
    }

    /// Whether this order reorders variables while the run executes.
    pub fn is_dynamic(self) -> bool {
        matches!(self, VarOrder::Sift)
    }
}

/// Whether `RT_STG_FORCE_SIFT` upgrades every [`VarOrder::Auto`] run
/// to [`VarOrder::Sift`] (CI coverage hook; read once per process).
fn force_sift() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| std::env::var_os("RT_STG_FORCE_SIFT").is_some_and(|v| v != *"0"))
}

/// The order actually used for a run requested under `order`:
/// explicit choices are respected, `Auto` is upgraded to `Sift` when
/// the force-sift environment hook is set.
pub(crate) fn effective_order(order: VarOrder) -> VarOrder {
    if order == VarOrder::Auto && force_sift() {
        VarOrder::Sift
    } else {
        order
    }
}

/// Mid-fixpoint reorder trigger: runs a sifting pass when the manager
/// has grown past `growth ×` the node count at the last check (and is
/// at least `min_nodes` big). Shared by the reachability and CSC
/// fixpoints; disabled instances compile down to a no-op check.
pub(crate) struct ReorderCtl {
    enabled: bool,
    growth: f64,
    min_nodes: usize,
    last: usize,
    /// Manager size when the controller was armed — what the current
    /// run's *own* growth is measured against (a warm manager's
    /// pre-existing nodes must never look like growth).
    baseline: usize,
    /// Sifting passes run.
    pub sifts: usize,
    /// Total wall time spent sifting, in nanoseconds.
    pub sift_ns: u64,
}

impl ReorderCtl {
    pub(crate) fn disabled() -> Self {
        ReorderCtl {
            enabled: false,
            growth: f64::INFINITY,
            min_nodes: usize::MAX,
            last: 0,
            baseline: 0,
            sifts: 0,
            sift_ns: 0,
        }
    }

    /// A controller for `order` with the trigger knobs of `options`.
    pub(crate) fn for_order(order: VarOrder, options: &ExploreOptions) -> Self {
        if !order.is_dynamic() {
            return ReorderCtl::disabled();
        }
        ReorderCtl {
            enabled: true,
            growth: options.reorder_growth.max(1.1),
            min_nodes: options.reorder_min_nodes.max(2),
            last: 0,
            baseline: 0,
            sifts: 0,
            sift_ns: 0,
        }
    }

    /// Re-arms the growth baseline at the current manager size (called
    /// once when a fixpoint starts, so a warm manager's pre-existing
    /// nodes don't trip the trigger immediately). For an enabled
    /// controller this also opens a fresh [`Bdd::new_epoch`], so the
    /// collections a sift runs can only ever evict nodes *this* run
    /// created — whatever the caller already held in the manager is
    /// pinned as an older generation, keep list or not.
    pub(crate) fn arm(&mut self, bdd: &mut Bdd) {
        if self.enabled {
            bdd.new_epoch();
        }
        self.baseline = bdd.node_count();
        self.last = self.baseline.max(self.min_nodes);
    }

    /// Polls the trigger; when it fires, sifts with `keep` pinned
    /// (`group_of_var` selects block granularity, `None` = per
    /// variable) and re-arms at the post-sift size.
    pub(crate) fn maybe_sift(&mut self, bdd: &mut Bdd, keep: &[NodeId], groups: Option<&[u32]>) {
        if !self.enabled {
            return;
        }
        let nodes = bdd.node_count();
        if nodes < self.min_nodes || (nodes as f64) < self.last as f64 * self.growth {
            return;
        }
        let start = Instant::now();
        match groups {
            Some(g) => bdd.sift_grouped(keep, g),
            None => bdd.sift(keep),
        };
        self.sift_ns += start.elapsed().as_nanos() as u64;
        self.sifts += 1;
        // Re-arm at the size that *fired* this sift, not at the
        // collected floor: a pass collects every fixpoint intermediate,
        // so the post-sift count is artificially tiny and re-arming
        // there would re-trigger after a single image step. Demanding
        // `growth ×` the previous trigger instead caps a fixpoint at
        // logarithmically many passes.
        self.last = nodes.max(self.min_nodes);
    }
}

/// Result of a symbolic exploration.
#[derive(Debug, Clone)]
pub struct SymbolicReach {
    /// Number of reachable markings (model count of the reachable set).
    pub markings: u64,
    /// Breadth-first iterations to the fixpoint.
    pub iterations: usize,
    /// Live BDD nodes at the end (memory proxy). For a reused manager
    /// this counts everything the manager holds, not just this call.
    pub bdd_nodes: usize,
    /// The reachable set itself, valid for the manager the call ran in.
    /// With [`reach_symbolic_in`] the caller can test membership via
    /// [`SymbolicReach::contains`] or compose further images.
    pub set: NodeId,
    /// The place behind each BDD variable (`place_of_var[v]` is the
    /// place index variable `v` encodes) — the inverse of the static
    /// order the run was built under. Identity for
    /// [`VarOrder::ByIndex`]. Dynamic reordering does not change this
    /// map: it permutes variable *levels*, not variable identities.
    pub place_of_var: Vec<u32>,
    /// Largest live node count observed at any iteration boundary —
    /// the run's memory high-water mark, where `bdd_nodes` only shows
    /// the (post-reorder, post-collection) end state.
    pub peak_bdd_nodes: usize,
    /// Sifting passes the run triggered (0 for static orders).
    pub sifts: usize,
    /// Wall time spent inside sifting passes, in nanoseconds.
    pub sift_ns: u64,
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
/// `bdd` under the default static [`VarOrder`]
/// ([`VarOrder::ReverseIndex`]), widening the manager's variable
/// universe to the net's place count if needed.
///
/// The reported marking count is taken over the *net's* place universe
/// ([`Bdd::satisfy_count_over`]), so it is independent of how wide a
/// shared manager has grown.
///
/// # Errors
///
/// Returns [`StgError::IterationLimitExceeded`] when the fixpoint has
/// not converged after 10 000 image iterations (a diverging or enormous
/// net).
pub fn reach_symbolic_in(stg: &Stg, bdd: &mut Bdd) -> Result<SymbolicReach, StgError> {
    reach_symbolic_in_ordered(stg, bdd, VarOrder::default())
}

/// [`reach_symbolic_in`] under an explicit [`VarOrder`] — static or
/// dynamic ([`VarOrder::Sift`] runs with the default reorder knobs of
/// [`ExploreOptions`]; use [`reach_symbolic_with`] to tune them).
///
/// # Errors
///
/// Same as [`reach_symbolic_in`].
pub fn reach_symbolic_in_ordered(
    stg: &Stg,
    bdd: &mut Bdd,
    order: VarOrder,
) -> Result<SymbolicReach, StgError> {
    let options = ExploreOptions {
        var_order: order,
        ..ExploreOptions::default()
    };
    reach_symbolic_with(stg, bdd, &options)
}

/// [`reach_symbolic_in`] driven entirely by [`ExploreOptions`]: the
/// variable order (static or dynamic, `Auto` upgradeable by the
/// force-sift hook), the reorder trigger knobs and the budget all come
/// from `options`. This is the entry point
/// [`crate::engine::ReachEngine`] uses. The fixpoint polls
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
    options: &ExploreOptions,
) -> Result<SymbolicReach, StgError> {
    let order = effective_order(options.var_order);
    let var_of = place_order(stg, order);
    let mut reorder = ReorderCtl::for_order(order, options);
    fixpoint(stg, bdd, &var_of, &options.budget, &mut reorder)
}

/// The place → variable permutation `order` denotes for `stg`.
/// Shared with the signal-extended layout of [`csc`].
pub(crate) fn place_order(stg: &Stg, order: VarOrder) -> Vec<u32> {
    let places = stg.net().place_count() as u32;
    match order.resolved_for() {
        VarOrder::ByIndex => (0..places).collect(),
        VarOrder::ReverseIndex => (0..places).rev().collect(),
        VarOrder::Auto | VarOrder::Sift => {
            unreachable!("resolved_for never returns Auto or Sift")
        }
    }
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
/// simply not generated, so the analyses are comparable only on safe
/// nets. After firing the postset is marked and the rest of the preset
/// empty.
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

/// The frontier-based image fixpoint all `reach_symbolic*` entry
/// points funnel into; `reorder` injects the optional mid-fixpoint
/// sifting trigger (see the module's *Dynamic reordering* section).
fn fixpoint(
    stg: &Stg,
    bdd: &mut Bdd,
    var_of: &[u32],
    budget: &Budget,
    reorder: &mut ReorderCtl,
) -> Result<SymbolicReach, StgError> {
    let net = stg.net();
    let places = net.place_count();
    assert_eq!(var_of.len(), places, "order must cover every place");
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
        .map(|t| firing_cube(net, t, var_of))
        .collect();

    let mut reached = initial;
    let mut frontier = initial;
    let mut iterations = 0;
    let mut peak = bdd.node_count();
    reorder.arm(bdd);
    loop {
        // Budget poll at the iteration boundary: `reached`/`frontier`
        // are complete sets from the previous step, so stopping here
        // never abandons a half-built structure.
        if let Some(error) = iteration_budget_check(bdd, budget, iterations) {
            return Err(error);
        }
        peak = peak.max(bdd.node_count());
        // Reorder (and collect garbage) only at the same safe points
        // the budget is polled at: every live id — the accumulated set
        // and the frontier — is pinned, and node ids keep their
        // functions, so the iteration resumes as if nothing happened,
        // just on smaller diagrams.
        if reorder.enabled {
            reorder.maybe_sift(bdd, &[reached, frontier], None);
        }
        iterations += 1;
        let mut next = bdd.constant(false);
        for cube in &cubes {
            let fired = bdd.replace_cube(frontier, cube);
            next = bdd.or(next, fired);
        }
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
        peak_bdd_nodes: peak.max(bdd.node_count()),
        sifts: reorder.sifts,
        sift_ns: reorder.sift_ns,
    })
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
        assert_eq!(sg.marking_layout().bits(), 1, "safe net packs 1 bit/place");
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
            for order in [VarOrder::ByIndex, VarOrder::ReverseIndex] {
                let mut bdd = Bdd::new(stg.net().place_count());
                let r = reach_symbolic_in_ordered(&stg, &mut bdd, order)
                    .unwrap_or_else(|e| panic!("{name} {order:?}: {e}"));
                assert_eq!(r.markings, sg.state_count() as u64, "{name} {order:?}");
                for state in sg.states() {
                    let words = sg.packed_marking(state).words();
                    assert!(r.contains(&bdd, words), "{name} {order:?}: membership");
                }
            }
        }
    }
}
