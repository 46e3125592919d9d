//! A small reduced-ordered binary decision diagram (ROBDD) package.
//!
//! Used for scalable equivalence checking between covers (e.g. validating
//! espresso results on functions too wide for truth tables) and as the
//! state-set representation in symbolic reachability
//! (`rt_stg::symbolic`).
//!
//! Nodes are hash-consed in a [`Bdd`] manager. Storage is
//! **level-indexed**: every variable owns a unique subtable mapping
//! `(low, high)` child pairs to node ids, and a separate `level ↔ var`
//! permutation says where each variable currently sits in the order.
//! Node ids never encode position, so reordering the variables moves no
//! ids. The manager keeps two persistent FxHash memo tables:
//!
//! * the per-variable **unique subtables**, which make equivalent
//!   functions pointer-identical;
//! * the **operation cache**, keyed `(op, lhs, rhs)` with commutative
//!   operands normalized, which memoizes `apply` results *across* calls,
//!   so a repeated conjunction (the same constraint against an
//!   overlapping set) resolves as a single lookup. Restriction
//!   (cofactor) results are cached the same way, keyed `(node, var,
//!   value)`.
//!
//! Transition images go through neither cache. [`Bdd::replace_cube`]
//! fires one transition — constrain a set to the enabling cube,
//! quantify the cube's support, set the firing cube — in a single
//! top-down pass with a per-call memo. Composed from `and`, `exists`
//! and `and`, the same image takes a full diagram pass per literal and
//! fills the persistent caches with intermediates that only a repeat of
//! the same analysis would reuse.
//!
//! # Variable ordering and reordering
//!
//! The manager starts with the order equal to the variable index order
//! and keeps it there unless a caller reorders explicitly, so code that
//! never reorders sees exactly the classic fixed-order behavior.
//! Reordering is built from one primitive, [`Bdd::swap_adjacent_levels`]
//! — the Rudell in-place swap. Swapping levels *l* and *l+1* rewrites
//! only the nodes of the upper variable that reference the lower one;
//! every rewritten node keeps its slot, so **a [`NodeId`] denotes the
//! same Boolean function before and after any reorder**. That invariant
//! is what lets external handles, the operation cache and the cofactor
//! cache all survive a reorder without invalidation: cached entries map
//! functions to functions, not positions to positions.
//!
//! [`Bdd::sift`] runs a deterministic Rudell sifting pass on top of the
//! swap: each variable (largest subtable first) is moved across the
//! whole order and parked at the position that minimizes the live node
//! count, with a growth cap aborting hopeless directions.
//! [`Bdd::sift_grouped`] does the same at block granularity — variables
//! sharing a group id stay level-adjacent, which is how the pair-space
//! CSC construction keeps its primed twins next to their unprimed
//! originals so `rename_monotone` stays monotone under any order.
//! Sifting decisions depend only on deterministic table sizes and
//! sorted node lists, so two runs over equal managers produce the same
//! final order.
//!
//! Reordering and eviction introduce *garbage*: nodes no longer
//! referenced by anything. The manager tags every node with the
//! **epoch** current at its creation ([`Bdd::epoch`] /
//! [`Bdd::new_epoch`]) and [`Bdd::collect`] evicts exactly the
//! current-epoch nodes unreachable from the supplied keep-roots — nodes
//! born in earlier epochs are pinned, so a long-lived engine can drop
//! one analysis call's garbage without discarding the warm structure
//! shared across calls. Freed slots are recycled; cache entries that
//! mention an evicted node are purged during the same collection, so
//! surviving cache entries stay warm and correct.

use crate::fxhash::FxHashMap;

use crate::cover::Cover;

/// Handle to a BDD node inside a [`Bdd`] manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-0 node.
    pub const ZERO: NodeId = NodeId(0);
    /// The constant-1 node.
    pub const ONE: NodeId = NodeId(1);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: NodeId,
    high: NodeId,
}

/// A BDD manager: level-indexed node storage, hash-consing, apply
/// operations, reordering and generational collection.
///
/// # Examples
///
/// ```
/// use rt_boolean::Bdd;
///
/// let mut bdd = Bdd::new(3);
/// let a = bdd.var(0);
/// let b = bdd.var(1);
/// let ab = bdd.and(a, b);
/// let ba = bdd.and(b, a);
/// assert_eq!(ab, ba, "hash-consing makes equivalent functions identical");
/// assert!(bdd.evaluate(ab, 0b011));
/// assert!(!bdd.evaluate(ab, 0b001));
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    vars: usize,
    nodes: Vec<Node>,
    /// Creation epoch per slot (see [`Bdd::new_epoch`]).
    epoch_of: Vec<u32>,
    /// Internal in-degree per slot: how many live nodes reference this
    /// one as a child. External handles are *not* counted; the constant
    /// undercount cancels wherever only differences matter (sifting).
    refs: Vec<u32>,
    /// Recycled slots, reused before the node vector grows.
    free: Vec<u32>,
    /// Number of allocated non-terminal slots with zero internal
    /// references (orphaned garbage plus externally-held roots).
    internal_dead: usize,
    /// Per-variable unique subtables: `unique[var][(low, high)]` → id.
    unique: Vec<FxHashMap<(NodeId, NodeId), NodeId>>,
    /// Position of each variable in the current order.
    level_of_var: Vec<u32>,
    /// Inverse permutation: which variable sits at each level.
    var_at_level: Vec<u32>,
    /// Current epoch; stamped onto nodes at creation.
    epoch: u32,
    /// Persistent apply memo: `(op, lhs, rhs)` → result, commutative
    /// operands normalized so `and(a, b)` and `and(b, a)` share an entry.
    op_cache: FxHashMap<(Op, NodeId, NodeId), NodeId>,
    /// Persistent cofactor memo: `(node, var, value)` → result.
    restrict_cache: FxHashMap<(NodeId, u32, bool), NodeId>,
    /// Scratch memo of [`Bdd::replace_cube`]: `(node, literal position)`
    /// → result. Empty between calls; kept only for its allocation.
    cube_memo: FxHashMap<(NodeId, u32), NodeId>,
    /// Soft footprint budget (see [`Bdd::over_budget`]); `None` = unlimited.
    node_budget: Option<usize>,
}

const TERMINAL_VAR: u32 = u32::MAX;
/// Variable tag of an evicted slot awaiting reuse.
const DEAD_VAR: u32 = u32::MAX - 1;

/// Default pre-sizing of the node vector and operation cache: large
/// enough that small managers never rehash, small enough that a
/// throwaway manager (a one-shot `reach_symbolic` call; long-lived
/// engines reuse one manager instead) does not fault in pages it never
/// touches.
const NODE_CAPACITY: usize = 1 << 9;
const CACHE_CAPACITY: usize = 1 << 10;

/// Sifting growth cap: a direction is abandoned once the live node
/// count exceeds `start + start / SIFT_GROWTH_DIV + SIFT_GROWTH_SLACK`
/// (≈1.2× with absolute slack so tiny managers can still explore).
const SIFT_GROWTH_DIV: usize = 5;
const SIFT_GROWTH_SLACK: usize = 64;
/// Absolute allocation headroom a sifting pass gets before it runs a
/// garbage collection (on top of 25% of the last collected live size).
const SIFT_GC_SLACK: usize = 4096;

/// Binary apply operations memoized in the persistent cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

impl Op {
    fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Op::And => a && b,
            Op::Or => a || b,
            Op::Xor => a != b,
        }
    }

    /// Terminal and absorption shortcuts that avoid both recursion and a
    /// cache probe.
    fn trivial(self, a: NodeId, b: NodeId) -> Option<NodeId> {
        match self {
            Op::And => match (a, b) {
                _ if a == b => Some(a),
                (NodeId::ZERO, _) | (_, NodeId::ZERO) => Some(NodeId::ZERO),
                (NodeId::ONE, other) | (other, NodeId::ONE) => Some(other),
                _ => None,
            },
            Op::Or => match (a, b) {
                _ if a == b => Some(a),
                (NodeId::ONE, _) | (_, NodeId::ONE) => Some(NodeId::ONE),
                (NodeId::ZERO, other) | (other, NodeId::ZERO) => Some(other),
                _ => None,
            },
            Op::Xor => match (a, b) {
                _ if a == b => Some(NodeId::ZERO),
                (NodeId::ZERO, other) | (other, NodeId::ZERO) => Some(other),
                _ => None,
            },
        }
    }
}

/// What a [`Bdd::collect`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Nodes evicted (slots recycled).
    pub evicted: usize,
    /// Live nodes remaining after the pass (including terminals).
    pub live: usize,
}

/// What a [`Bdd::sift`] / [`Bdd::sift_grouped`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiftStats {
    /// Live node count entering the pass (after the initial collection).
    pub before_nodes: usize,
    /// Live node count leaving the pass (after the final collection).
    pub after_nodes: usize,
    /// Adjacent-level swaps performed.
    pub swaps: usize,
    /// Blocks whose final position differs from their starting one.
    pub moved: usize,
}

impl Bdd {
    /// Creates a manager over `vars` variables (initial order = index
    /// order), pre-sized for typical reachability workloads.
    pub fn new(vars: usize) -> Self {
        Bdd::with_capacity(vars, NODE_CAPACITY)
    }

    /// Creates a manager pre-sized for roughly `capacity` live nodes.
    pub fn with_capacity(vars: usize, capacity: usize) -> Self {
        let zero = Node {
            var: TERMINAL_VAR,
            low: NodeId::ZERO,
            high: NodeId::ZERO,
        };
        let one = Node {
            var: TERMINAL_VAR,
            low: NodeId::ONE,
            high: NodeId::ONE,
        };
        let capacity = capacity.max(2);
        let mut nodes = Vec::with_capacity(capacity);
        nodes.push(zero);
        nodes.push(one);
        let mut epoch_of = Vec::with_capacity(capacity);
        epoch_of.extend([0, 0]);
        let mut refs = Vec::with_capacity(capacity);
        refs.extend([0, 0]);
        Bdd {
            vars,
            nodes,
            epoch_of,
            refs,
            free: Vec::new(),
            internal_dead: 0,
            unique: (0..vars).map(|_| FxHashMap::default()).collect(),
            level_of_var: (0..vars as u32).collect(),
            var_at_level: (0..vars as u32).collect(),
            epoch: 0,
            op_cache: FxHashMap::with_capacity_and_hasher(CACHE_CAPACITY, Default::default()),
            restrict_cache: FxHashMap::default(),
            cube_memo: FxHashMap::default(),
            node_budget: None,
        }
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Grows the variable universe to at least `vars` variables.
    ///
    /// New variables are appended at the bottom of the current order, so
    /// widening never invalidates existing nodes, cached results or the
    /// level permutation — this is what lets one long-lived manager
    /// serve symbolic reachability over many nets of different widths
    /// (the `rt_stg::engine::ReachEngine` reuse path). Shrinking is not
    /// supported; a smaller request is a no-op.
    pub fn ensure_vars(&mut self, vars: usize) {
        while self.vars < vars {
            let v = self.vars as u32;
            self.unique.push(FxHashMap::default());
            self.level_of_var.push(v);
            self.var_at_level.push(v);
            self.vars += 1;
        }
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// The level (position in the current order, 0 = top) of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn level_of(&self, var: usize) -> usize {
        self.level_of_var[var] as usize
    }

    /// The variable currently sitting at `level` (0 = top).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn var_at_level(&self, level: usize) -> usize {
        self.var_at_level[level] as usize
    }

    /// The current variable order, top to bottom.
    pub fn current_order(&self) -> Vec<u32> {
        self.var_at_level.clone()
    }

    /// The current epoch. Nodes remember the epoch they were created in;
    /// [`Bdd::collect`] only ever evicts nodes of the current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Starts a new epoch and returns it. Everything created from here
    /// on is eligible for the next [`Bdd::collect`]; everything already
    /// present is pinned as an older generation.
    pub fn new_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// The constant function `value`.
    pub fn constant(&self, value: bool) -> NodeId {
        if value {
            NodeId::ONE
        } else {
            NodeId::ZERO
        }
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var(&mut self, var: usize) -> NodeId {
        assert!(var < self.vars, "variable out of range");
        self.mk(var as u32, NodeId::ZERO, NodeId::ONE)
    }

    /// The negated projection of variable `var`.
    pub fn nvar(&mut self, var: usize) -> NodeId {
        assert!(var < self.vars, "variable out of range");
        self.mk(var as u32, NodeId::ONE, NodeId::ZERO)
    }

    fn mk(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        if let Some(&id) = self.unique[var as usize].get(&(low, high)) {
            return id;
        }
        let id = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                debug_assert_eq!(self.nodes[s].var, DEAD_VAR);
                self.nodes[s] = Node { var, low, high };
                self.epoch_of[s] = self.epoch;
                self.refs[s] = 0;
                NodeId(slot)
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Node { var, low, high });
                self.epoch_of.push(self.epoch);
                self.refs.push(0);
                id
            }
        };
        // Born parentless; the counter drops again when a parent links it.
        self.internal_dead += 1;
        self.ref_inc(low);
        self.ref_inc(high);
        self.unique[var as usize].insert((low, high), id);
        id
    }

    #[inline]
    fn ref_inc(&mut self, id: NodeId) {
        if id.0 < 2 {
            return;
        }
        let slot = id.0 as usize;
        if self.refs[slot] == 0 {
            self.internal_dead -= 1;
        }
        self.refs[slot] += 1;
    }

    #[inline]
    fn ref_dec(&mut self, id: NodeId) {
        if id.0 < 2 {
            return;
        }
        let slot = id.0 as usize;
        debug_assert!(self.refs[slot] > 0, "reference underflow on {slot}");
        self.refs[slot] -= 1;
        if self.refs[slot] == 0 {
            self.internal_dead += 1;
        }
    }

    fn node(&self, id: NodeId) -> Node {
        self.nodes[id.0 as usize]
    }

    fn is_terminal(&self, id: NodeId) -> bool {
        id == NodeId::ZERO || id == NodeId::ONE
    }

    /// Level of a node's top variable; terminals sink below everything.
    #[inline]
    fn level_of_node(&self, node: &Node) -> u32 {
        if node.var == TERMINAL_VAR {
            u32::MAX
        } else {
            self.level_of_var[node.var as usize]
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Xor, a, b)
    }

    /// Negation.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.xor(a, NodeId::ONE)
    }

    /// Number of entries currently in the persistent operation cache
    /// (plus the cofactor cache); a capacity-planning diagnostic.
    pub fn cache_len(&self) -> usize {
        self.op_cache.len() + self.restrict_cache.len()
    }

    /// Current memory footprint proxy: live nodes plus memo-cache
    /// entries. This — not `node_count` alone — is what
    /// [`Bdd::over_budget`] compares against the budget, because
    /// [`Bdd::trim_caches`] can only release cache entries (nodes held
    /// by live structure cannot be dropped), so a node-only budget
    /// could never be satisfied by trimming.
    pub fn footprint(&self) -> usize {
        self.node_count() + self.cache_len()
    }

    /// Sets (or clears, with `None`) the soft footprint budget.
    ///
    /// The manager itself never enforces the budget — operations always
    /// complete so no structure is ever left half-built. Long-running
    /// callers (the symbolic fixpoints in `rt-stg`) poll
    /// [`Bdd::over_budget`] at iteration boundaries and stop cleanly.
    pub fn set_node_budget(&mut self, budget: Option<usize>) {
        self.node_budget = budget;
    }

    /// The configured soft footprint budget, if any.
    pub fn node_budget(&self) -> Option<usize> {
        self.node_budget
    }

    /// Whether the manager's [`footprint`](Bdd::footprint) currently
    /// exceeds the configured budget. Always `false` when no budget is
    /// set. A `true` answer can often be cleared by
    /// [`Bdd::trim_caches`], which drops the memo entries that dominate
    /// a long-lived manager's footprint.
    pub fn over_budget(&self) -> bool {
        self.node_budget.is_some_and(|b| self.footprint() > b)
    }

    /// Drops the apply and cofactor caches and the
    /// [`Bdd::replace_cube`] scratch memo (releasing their memory) but
    /// keeps the unique tables and every node alive.
    ///
    /// This is the middle ground between "keep everything" and a full
    /// manager drop: all existing [`NodeId`]s remain valid — hash
    /// consing still makes equal functions pointer-identical, so
    /// results after a trim are **bit-identical** to untrimmed runs
    /// (`crates/stg/tests/engine_reuse.rs` pins this) — while the
    /// memoized operation results, which dominate a long-lived
    /// manager's footprint, are rebuilt on demand. The caches are pure
    /// memo tables over function-stable node ids; dropping entries can
    /// only cost recomputation, never correctness.
    pub fn trim_caches(&mut self) {
        self.op_cache = FxHashMap::with_capacity_and_hasher(CACHE_CAPACITY, Default::default());
        self.restrict_cache = FxHashMap::default();
        self.cube_memo = FxHashMap::default();
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        if let Some(result) = op.trivial(a, b) {
            return result;
        }
        if self.is_terminal(a) && self.is_terminal(b) {
            return self.constant(op.eval(a == NodeId::ONE, b == NodeId::ONE));
        }
        // All three ops are commutative; normalize the key.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&hit) = self.op_cache.get(&key) {
            return hit;
        }
        let na = self.node(a);
        let nb = self.node(b);
        // Branch on the variable closest to the top of the *current*
        // order; the tie and the cofactors follow levels, not indices.
        let la = self.level_of_node(&na);
        let lb = self.level_of_node(&nb);
        let level = la.min(lb);
        let var = if la <= lb { na.var } else { nb.var };
        let (a0, a1) = if la == level {
            (na.low, na.high)
        } else {
            (a, a)
        };
        let (b0, b1) = if lb == level {
            (nb.low, nb.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a0, b0);
        let high = self.apply(op, a1, b1);
        let result = self.mk(var, low, high);
        self.op_cache.insert(key, result);
        result
    }

    /// If-then-else: `c·t + c̄·e`.
    pub fn ite(&mut self, c: NodeId, t: NodeId, e: NodeId) -> NodeId {
        let ct = self.and(c, t);
        let nc = self.not(c);
        let nce = self.and(nc, e);
        self.or(ct, nce)
    }

    /// Evaluates the function at a minterm (bit *i* of `assignment` =
    /// variable *i*). Variables past bit 63 — possible once a manager
    /// has been widened past 64 variables — read as 0; pass the full
    /// word stream to [`Bdd::evaluate_words`] to assign them.
    pub fn evaluate(&self, id: NodeId, assignment: u64) -> bool {
        self.evaluate_words(id, std::slice::from_ref(&assignment))
    }

    /// Evaluates the function at a minterm wider than 64 variables:
    /// variable *i* is bit `i % 64` of `words[i / 64]`; variables past
    /// the end of `words` read as 0.
    ///
    /// This is the membership oracle symbolic reachability offers over
    /// packed markings of wide (> 64-place) nets.
    pub fn evaluate_words(&self, id: NodeId, words: &[u64]) -> bool {
        let mut current = id;
        while !self.is_terminal(current) {
            let node = self.node(current);
            let var = node.var as usize;
            let bit = words
                .get(var / 64)
                .is_some_and(|w| w >> (var % 64) & 1 == 1);
            current = if bit { node.high } else { node.low };
        }
        current == NodeId::ONE
    }

    /// Evaluates the function at a minterm under a variable-to-bit
    /// permutation: BDD variable *v* reads bit `bit_of_var[v]` of the
    /// word stream (bit *i* of the stream is `words[i / 64] >> (i %
    /// 64)`). Variables beyond `bit_of_var`, and bits beyond `words`,
    /// read as 0.
    ///
    /// This is the membership oracle for callers that build functions
    /// under a non-identity static variable order (e.g. the
    /// reverse-index order of `rt_stg::symbolic`): the caller keeps
    /// its natural bit layout and supplies the mapping once.
    pub fn evaluate_mapped(&self, id: NodeId, words: &[u64], bit_of_var: &[u32]) -> bool {
        let mut current = id;
        while !self.is_terminal(current) {
            let node = self.node(current);
            let bit = bit_of_var.get(node.var as usize).is_some_and(|&b| {
                let b = b as usize;
                words.get(b / 64).is_some_and(|w| w >> (b % 64) & 1 == 1)
            });
            current = if bit { node.high } else { node.low };
        }
        current == NodeId::ONE
    }

    /// Builds the BDD of a cover.
    pub fn from_cover(&mut self, cover: &Cover) -> NodeId {
        assert!(cover.vars() <= self.vars, "cover wider than manager");
        let mut acc = NodeId::ZERO;
        for cube in cover.cubes() {
            let mut term = NodeId::ONE;
            for (var, positive) in cube.literals() {
                let lit = if positive {
                    self.var(var)
                } else {
                    self.nvar(var)
                };
                term = self.and(term, lit);
            }
            acc = self.or(acc, term);
        }
        acc
    }

    /// Number of satisfying assignments over all `vars` variables.
    pub fn satisfy_count(&self, id: NodeId) -> u64 {
        self.satisfy_count_over(id, self.vars)
    }

    /// Number of satisfying assignments counted over a universe of
    /// `vars` variables, independent of the manager's own width.
    ///
    /// A reused manager may hold more variables than the function at
    /// hand mentions (see [`Bdd::ensure_vars`]); counting over the
    /// caller's universe keeps the result tied to the problem, not to
    /// the manager's history. The function must not depend on any
    /// variable `>= vars`, otherwise the count is meaningless.
    ///
    /// Counts are exact as long as they fit `f64`'s 53-bit mantissa:
    /// every assignment contributes a dyadic fraction `2^-vars`, and
    /// scaling by `2^vars` is a power-of-two shift.
    pub fn satisfy_count_over(&self, id: NodeId, vars: usize) -> u64 {
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        let fraction = self.sat_fraction(id, &mut memo);
        (fraction * 2f64.powi(vars as i32)).round() as u64
    }

    fn sat_fraction(&self, id: NodeId, memo: &mut FxHashMap<NodeId, f64>) -> f64 {
        if id == NodeId::ZERO {
            return 0.0;
        }
        if id == NodeId::ONE {
            return 1.0;
        }
        if let Some(&f) = memo.get(&id) {
            return f;
        }
        let node = self.node(id);
        let f = 0.5 * self.sat_fraction(node.low, memo) + 0.5 * self.sat_fraction(node.high, memo);
        memo.insert(id, f);
        f
    }

    /// Existential quantification of `var`.
    pub fn exists(&mut self, id: NodeId, var: usize) -> NodeId {
        let low = self.restrict(id, var, false);
        let high = self.restrict(id, var, true);
        self.or(low, high)
    }

    /// Restriction (cofactor) of the function at `var = value`.
    pub fn restrict(&mut self, id: NodeId, var: usize, value: bool) -> NodeId {
        if var >= self.vars {
            return id;
        }
        self.restrict_rec(id, var as u32, value)
    }

    fn restrict_rec(&mut self, id: NodeId, var: u32, value: bool) -> NodeId {
        if self.is_terminal(id) {
            return id;
        }
        let node = self.node(id);
        // A node entirely below `var` in the current order cannot
        // mention it.
        if node.var != var && self.level_of_node(&node) > self.level_of_var[var as usize] {
            return id;
        }
        if node.var == var {
            return if value { node.high } else { node.low };
        }
        if let Some(&hit) = self.restrict_cache.get(&(id, var, value)) {
            return hit;
        }
        let low = self.restrict_rec(node.low, var, value);
        let high = self.restrict_rec(node.high, var, value);
        let result = self.mk(node.var, low, high);
        self.restrict_cache.insert((id, var, value), result);
        result
    }

    /// Replaces one cube by another over the same support: for the
    /// literals `(var, from, to)` over support `S`, returns
    /// `(∃S. f ∧ from_S) ∧ to_S` — every assignment of `f` that agrees
    /// with the `from` cube, with `S` rewritten to the `to` cube.
    ///
    /// For a safe Petri net whose markings are sets over place
    /// variables, `from` the enabling cube of a transition and `to` its
    /// firing cube, this is exactly the transition's image; with the two
    /// cubes swapped it is the preimage. The result is computed in one
    /// memoized top-down pass: above the next literal's variable both
    /// children are rebuilt; at that variable, or where `f` skips it,
    /// the pass follows the `from` branch and emits the `to` literal.
    ///
    /// Literals are visited in the manager's *current* level order,
    /// sorted on each call, so the primitive works unchanged after any
    /// reordering. The memo lives for one call only; nothing enters the
    /// persistent caches.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable is out of range or two literals
    /// name the same variable.
    pub fn replace_cube(&mut self, f: NodeId, lits: &[(usize, bool, bool)]) -> NodeId {
        // `(level, var, from, to)`, top level first.
        let mut seq: Vec<(u32, u32, bool, bool)> = lits
            .iter()
            .map(|&(var, from, to)| {
                assert!(var < self.vars, "variable out of range");
                (self.level_of_var[var], var as u32, from, to)
            })
            .collect();
        seq.sort_unstable_by_key(|&(level, ..)| level);
        assert!(
            seq.windows(2).all(|w| w[0].0 < w[1].0),
            "replace_cube literals must name distinct variables"
        );
        let mut memo = std::mem::take(&mut self.cube_memo);
        let result = self.replace_cube_rec(f, &seq, 0, &mut memo);
        memo.clear();
        self.cube_memo = memo;
        result
    }

    fn replace_cube_rec(
        &mut self,
        f: NodeId,
        seq: &[(u32, u32, bool, bool)],
        i: usize,
        memo: &mut FxHashMap<(NodeId, u32), NodeId>,
    ) -> NodeId {
        if f == NodeId::ZERO || i == seq.len() {
            return f;
        }
        if let Some(&hit) = memo.get(&(f, i as u32)) {
            return hit;
        }
        let node = self.node(f);
        let level = self.level_of_node(&node);
        let (lit_level, var, from, to) = seq[i];
        let result = if level < lit_level {
            let low = self.replace_cube_rec(node.low, seq, i, memo);
            let high = self.replace_cube_rec(node.high, seq, i, memo);
            self.mk(node.var, low, high)
        } else {
            let cofactor = match (level == lit_level, from) {
                (true, true) => node.high,
                (true, false) => node.low,
                (false, _) => f,
            };
            let rest = self.replace_cube_rec(cofactor, seq, i + 1, memo);
            if to {
                self.mk(var, NodeId::ZERO, rest)
            } else {
                self.mk(var, rest, NodeId::ZERO)
            }
        };
        memo.insert((f, i as u32), result);
        result
    }

    /// Renames every variable *v* in the support of `id` to `map[v]`,
    /// where `map` must be **level-monotone over the function's
    /// support**: enumerating the support in current level order, the
    /// renamed variables' levels must be strictly increasing (renamed
    /// children stay below their renamed parents). Under that side
    /// condition the rename is a pure relabelling — no reordering pass
    /// is needed and the result is computed in one linear traversal.
    ///
    /// This is the primed↔unprimed primitive of the pair-space
    /// constructions in `rt_stg::symbolic::csc`: a reachable set built
    /// over "unprimed" variable slots is copied onto the level-adjacent
    /// "primed" slots so a conflict relation `R(s) ∧ R(s')` can be
    /// formed inside one manager.
    ///
    /// # Panics
    ///
    /// Panics if a support variable is missing from `map`, maps past
    /// the manager's variable universe, or violates monotonicity.
    pub fn rename_monotone(&mut self, id: NodeId, map: &[u32]) -> NodeId {
        // Global support check first: parent-child monotonicity alone
        // would let a map collide two support variables that never
        // share a path (e.g. the two branches of an if-then-else),
        // silently conflating them into one variable.
        let mut support: Vec<u32> = Vec::new();
        let mut seen: FxHashMap<NodeId, ()> = FxHashMap::default();
        self.collect_support(id, &mut support, &mut seen);
        support.sort_unstable_by_key(|&v| self.level_of_var[v as usize]);
        support.dedup();
        let level_of_target = |bdd: &Bdd, v: u32| -> Option<u32> {
            map.get(v as usize)
                .and_then(|&m| bdd.level_of_var.get(m as usize).copied())
        };
        for pair in support.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                level_of_target(self, a)
                    .zip(level_of_target(self, b))
                    .is_some_and(|(la, lb)| la < lb),
                "rename map is not strictly increasing over the support: \
                 {a} -> {:?} vs {b} -> {:?}",
                map.get(a as usize),
                map.get(b as usize)
            );
        }
        let mut memo: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        self.rename_rec(id, map, &mut memo)
    }

    fn collect_support(&self, id: NodeId, out: &mut Vec<u32>, seen: &mut FxHashMap<NodeId, ()>) {
        if self.is_terminal(id) || seen.insert(id, ()).is_some() {
            return;
        }
        let node = self.node(id);
        out.push(node.var);
        self.collect_support(node.low, out, seen);
        self.collect_support(node.high, out, seen);
    }

    fn rename_rec(
        &mut self,
        id: NodeId,
        map: &[u32],
        memo: &mut FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        if self.is_terminal(id) {
            return id;
        }
        if let Some(&hit) = memo.get(&id) {
            return hit;
        }
        let node = self.node(id);
        let renamed = *map
            .get(node.var as usize)
            .unwrap_or_else(|| panic!("rename map misses support variable {}", node.var));
        assert!(
            (renamed as usize) < self.vars,
            "rename maps variable {} past the manager ({} vars)",
            node.var,
            self.vars
        );
        let low = self.rename_rec(node.low, map, memo);
        let high = self.rename_rec(node.high, map, memo);
        let result = self.mk(renamed, low, high);
        memo.insert(id, result);
        result
    }

    /// One satisfying assignment of the function, as a bit stream
    /// (`bit v of words[v / 64]` = value of variable *v*), or `None`
    /// for the constant-0 function. Variables the chosen BDD path does
    /// not constrain are reported as 0, which is always a valid
    /// completion; the branch choice prefers the low child, so the
    /// result is deterministic for a given diagram.
    pub fn satisfy_one(&self, id: NodeId) -> Option<Vec<u64>> {
        if id == NodeId::ZERO {
            return None;
        }
        let mut words = vec![0u64; self.vars.div_ceil(64).max(1)];
        let mut current = id;
        while !self.is_terminal(current) {
            let node = self.node(current);
            if node.low == NodeId::ZERO {
                words[node.var as usize / 64] |= 1 << (node.var % 64);
                current = node.high;
            } else {
                current = node.low;
            }
        }
        debug_assert_eq!(current, NodeId::ONE);
        Some(words)
    }

    /// Every satisfying assignment of `id` projected onto `vars`
    /// (sorted ascending by index, at most 64 of them, and covering the
    /// function's entire support): one mask per assignment, bit *i* =
    /// the value of `vars[i]`. Variables of `vars` the diagram leaves
    /// free expand into both values, so the result enumerates the full
    /// on-set over the given universe, sorted ascending as masks.
    ///
    /// The traversal itself follows the manager's *current* variable
    /// order, so the enumeration works under any reordering; only the
    /// bit layout of the result follows the caller's index order.
    ///
    /// This backs the reachable-*code* enumeration of the symbolic CSC
    /// detector (`rt_stg::symbolic::csc`), where the projected
    /// function ranges over a handful of signal variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is unsorted, longer than 64, or misses a
    /// support variable of `id`.
    pub fn satisfy_all_over(&self, id: NodeId, vars: &[u32]) -> Vec<u64> {
        assert!(vars.len() <= 64, "mask enumeration caps at 64 variables");
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "vars must be sorted ascending"
        );
        // Walk the universe in level order (the order node paths visit
        // variables), while each variable keeps its caller-given bit.
        let mut seq: Vec<(u32, usize)> = vars.iter().copied().zip(0..).collect();
        seq.sort_unstable_by_key(|&(v, _)| {
            self.level_of_var
                .get(v as usize)
                .copied()
                .unwrap_or(u32::MAX)
        });
        let mut out = Vec::new();
        self.satisfy_all_rec(id, &seq, 0, 0, &mut out);
        out.sort_unstable();
        out
    }

    fn satisfy_all_rec(
        &self,
        id: NodeId,
        seq: &[(u32, usize)],
        idx: usize,
        acc: u64,
        out: &mut Vec<u64>,
    ) {
        if id == NodeId::ZERO {
            return;
        }
        if idx == seq.len() {
            assert!(
                self.is_terminal(id),
                "function depends on variable {} outside the enumeration universe",
                self.node(id).var
            );
            out.push(acc);
            return;
        }
        let (var, bit) = seq[idx];
        let node = if self.is_terminal(id) {
            None
        } else {
            Some(self.node(id))
        };
        match node {
            Some(n)
                if n.var != var
                    && self.level_of_node(&n)
                        < self
                            .level_of_var
                            .get(var as usize)
                            .copied()
                            .unwrap_or(u32::MAX) =>
            {
                panic!(
                    "function depends on variable {} outside the enumeration universe",
                    n.var
                )
            }
            Some(n) if n.var == var => {
                self.satisfy_all_rec(n.low, seq, idx + 1, acc, out);
                self.satisfy_all_rec(n.high, seq, idx + 1, acc | 1 << bit, out);
            }
            // Terminal ONE or a node below `var`: the variable is free.
            _ => {
                self.satisfy_all_rec(id, seq, idx + 1, acc, out);
                self.satisfy_all_rec(id, seq, idx + 1, acc | 1 << bit, out);
            }
        }
    }

    // ----- Reordering ---------------------------------------------------

    /// Swaps the variables at `level` and `level + 1` in place (the
    /// Rudell primitive). Only nodes of the upper variable that
    /// reference the lower one are rewritten, and each rewritten node
    /// keeps its slot — **every [`NodeId`] still denotes the same
    /// Boolean function afterwards**, so external handles and cached
    /// results stay valid. Rewriting may orphan former children;
    /// the garbage is reclaimed by the next [`Bdd::collect`].
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid level.
    pub fn swap_adjacent_levels(&mut self, level: usize) {
        assert!(level + 1 < self.vars, "level out of range for a swap");
        let x = self.var_at_level[level];
        let y = self.var_at_level[level + 1];
        // The x-nodes referencing a y-child, in deterministic slot order.
        let mut movers: Vec<u32> = self.unique[x as usize]
            .values()
            .filter(|id| {
                let n = &self.nodes[id.0 as usize];
                self.nodes[n.low.0 as usize].var == y || self.nodes[n.high.0 as usize].var == y
            })
            .map(|id| id.0)
            .collect();
        movers.sort_unstable();
        for slot in movers {
            let Node {
                low: f0, high: f1, ..
            } = self.nodes[slot as usize];
            let n0 = self.nodes[f0.0 as usize];
            let n1 = self.nodes[f1.0 as usize];
            let (f00, f01) = if n0.var == y {
                (n0.low, n0.high)
            } else {
                (f0, f0)
            };
            let (f10, f11) = if n1.var == y {
                (n1.low, n1.high)
            } else {
                (f1, f1)
            };
            // The cofactors live strictly below y, so the new x-children
            // can never collide with an unprocessed mover (whose key
            // still contains a y-node), and the rewritten y-key can
            // never collide in unique[y] (two nodes for one function
            // would contradict pre-swap canonicity).
            self.unique[x as usize].remove(&(f0, f1));
            let a0 = self.mk(x, f00, f10);
            let a1 = self.mk(x, f01, f11);
            debug_assert_ne!(a0, a1, "swap cannot degenerate a canonical node");
            self.ref_dec(f0);
            self.ref_dec(f1);
            self.ref_inc(a0);
            self.ref_inc(a1);
            self.nodes[slot as usize] = Node {
                var: y,
                low: a0,
                high: a1,
            };
            let previous = self.unique[y as usize].insert((a0, a1), NodeId(slot));
            debug_assert!(previous.is_none(), "unique collision during swap");
        }
        self.level_of_var.swap(x as usize, y as usize);
        self.var_at_level.swap(level, level + 1);
    }

    /// Runs a deterministic Rudell sifting pass: every variable, largest
    /// unique subtable first, is moved across the whole order and parked
    /// where the live node count is smallest. Functions are preserved —
    /// every [`NodeId`] keeps its meaning — only the variable order (and
    /// therefore the diagram shapes) changes. `keep` pins the caller's
    /// live roots for the garbage collections the pass runs internally.
    pub fn sift(&mut self, keep: &[NodeId]) -> SiftStats {
        let groups: Vec<u32> = (0..self.vars as u32).collect();
        self.sift_grouped(keep, &groups)
    }

    /// [`Bdd::sift`] at block granularity: variables sharing a value in
    /// `group_of_var` form a block that moves as one unit, preserving
    /// the relative order and level-adjacency of its members. Groups
    /// must be level-contiguous when the pass starts.
    ///
    /// This is what keeps paired variable layouts (the primed twins of
    /// `rt_stg::symbolic::csc`) monotone under reordering.
    ///
    /// # Panics
    ///
    /// Panics if `group_of_var` does not cover every variable or a
    /// group is not level-contiguous.
    pub fn sift_grouped(&mut self, keep: &[NodeId], group_of_var: &[u32]) -> SiftStats {
        assert_eq!(
            group_of_var.len(),
            self.vars,
            "group map must cover every variable"
        );
        // Swaps create no cache entries, so dropping both caches up
        // front makes every internal collection of the pass cache-free
        // — otherwise each one would re-scan the (potentially huge)
        // apply cache. The entries would have stayed *valid* (reorders
        // preserve every node's function), but a pass runs hundreds of
        // collections and one retained cache scan per collection is
        // what used to dominate sifting time.
        self.op_cache.clear();
        self.restrict_cache.clear();
        self.collect(keep);
        let before = self.node_count();
        let orig_order = self.var_at_level.clone();
        // Blocks in level order; each holds its variables top-down.
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        for l in 0..self.vars {
            let v = self.var_at_level[l];
            let g = group_of_var[v as usize];
            match blocks.last_mut() {
                Some(last) if group_of_var[last[0] as usize] == g => last.push(v),
                _ => blocks.push(vec![v]),
            }
        }
        let mut seen_groups: FxHashMap<u32, ()> = FxHashMap::default();
        for block in &blocks {
            assert!(
                seen_groups
                    .insert(group_of_var[block[0] as usize], ())
                    .is_none(),
                "sift group {} is not level-contiguous",
                group_of_var[block[0] as usize]
            );
        }
        let nblocks = blocks.len();
        let mut stats = SiftStats {
            before_nodes: before,
            after_nodes: before,
            swaps: 0,
            moved: 0,
        };
        if nblocks <= 1 {
            return stats;
        }
        // Sift sequence: by subtable size descending, then block
        // position ascending — snapshotted before anything moves.
        let block_size = |bdd: &Bdd, block: &[u32]| -> usize {
            block.iter().map(|&v| bdd.unique[v as usize].len()).sum()
        };
        let sizes0: Vec<usize> = blocks.iter().map(|b| block_size(self, b)).collect();
        let mut seq: Vec<usize> = (0..nblocks).collect();
        seq.sort_unstable_by_key(|&b| (usize::MAX - sizes0[b], b));
        // Blocks keep stable ids; `order` tracks their level order.
        //
        // Swap garbage (orphaned former children, plus rewritten dead
        // movers spawning fresh cofactor nodes) compounds geometrically
        // if left alone: dead nodes stay in the subtables, get swapped
        // again, and orphan more nodes. `live_estimate` cannot see it —
        // only garbage *roots* are parentless, the interiors of garbage
        // trees keep internal parents — so the reclaim trigger is pure
        // allocation arithmetic against the last collected live count,
        // checked after every block step. Collections here are cheap:
        // the caches were cleared above, so each is one mark-and-sweep.
        let mut last_live = before;
        let mut order: Vec<usize> = (0..nblocks).collect();
        for &b in &seq {
            if sizes0[b] < 2 {
                continue;
            }
            let p0 = order.iter().position(|&x| x == b).expect("block present");
            let start = self.live_estimate();
            let limit = start + start / SIFT_GROWTH_DIV + SIFT_GROWTH_SLACK;
            let mut cur = p0;
            let mut best_size = start;
            let mut best_pos = p0;
            let down_first = nblocks - 1 - p0 <= p0;
            for phase in 0..2 {
                let downward = down_first == (phase == 0);
                loop {
                    if downward {
                        if cur + 1 >= nblocks {
                            break;
                        }
                        stats.swaps += self.swap_blocks_down(&mut order, &blocks, cur);
                        cur += 1;
                    } else {
                        if cur == 0 {
                            break;
                        }
                        stats.swaps += self.swap_blocks_down(&mut order, &blocks, cur - 1);
                        cur -= 1;
                    }
                    if self.node_count() > last_live + last_live / 4 + SIFT_GC_SLACK {
                        self.collect(keep);
                        last_live = self.node_count();
                    }
                    let size = self.live_estimate();
                    if size < best_size {
                        best_size = size;
                        best_pos = cur;
                    }
                    if size > limit {
                        break;
                    }
                }
            }
            while cur < best_pos {
                stats.swaps += self.swap_blocks_down(&mut order, &blocks, cur);
                cur += 1;
            }
            while cur > best_pos {
                stats.swaps += self.swap_blocks_down(&mut order, &blocks, cur - 1);
                cur -= 1;
            }
            if best_pos != p0 {
                stats.moved += 1;
            }
            if self.node_count() > last_live + last_live / 4 + SIFT_GC_SLACK {
                self.collect(keep);
                last_live = self.node_count();
            }
        }
        self.collect(keep);
        stats.after_nodes = self.node_count();
        // `live_estimate` is garbage-biased and mid-pass collections
        // shift that bias between measurements, so the walk can park a
        // block at a position that is marginally *worse* than where it
        // started. Sifting must never lose ground: when the settled
        // order ends larger than the starting one, put the original
        // order back (functions are order-independent, so this restores
        // the exact starting shape) and report a no-op.
        if stats.after_nodes > before {
            stats.swaps += self.restore_order(&orig_order);
            self.collect(keep);
            stats.after_nodes = self.node_count();
            stats.moved = 0;
        }
        stats
    }

    /// Bubbles every variable back to its level in `target` (a former
    /// `var_at_level` snapshot) via adjacent swaps. Returns the swap
    /// count.
    fn restore_order(&mut self, target: &[u32]) -> usize {
        let mut swaps = 0;
        for (goal, &v) in target.iter().enumerate() {
            let mut cur = self.level_of(v as usize);
            while cur > goal {
                self.swap_adjacent_levels(cur - 1);
                cur -= 1;
                swaps += 1;
            }
        }
        swaps
    }

    /// Swaps the blocks at positions `p` and `p + 1` of `order` by
    /// bubbling each lower-block variable up through the upper block.
    /// Returns the number of adjacent-level swaps performed.
    fn swap_blocks_down(&mut self, order: &mut [usize], blocks: &[Vec<u32>], p: usize) -> usize {
        let start: usize = order[..p].iter().map(|&b| blocks[b].len()).sum();
        let upper = blocks[order[p]].len();
        let lower = blocks[order[p + 1]].len();
        for i in 0..lower {
            for l in (start + i..start + i + upper).rev() {
                self.swap_adjacent_levels(l);
            }
        }
        order.swap(p, p + 1);
        upper * lower
    }

    /// Live nodes minus known-parentless allocations: the quantity
    /// sifting minimizes. Biased low by the number of externally-held
    /// roots, which is constant across a pass, so comparisons are exact.
    fn live_estimate(&self) -> usize {
        self.node_count().saturating_sub(self.internal_dead)
    }

    // ----- Generational collection --------------------------------------

    /// Evicts every **current-epoch** node unreachable from `keep` (or
    /// from any node of an earlier epoch, which are pinned wholesale —
    /// see [`Bdd::new_epoch`]). Freed slots are recycled by later
    /// allocations; cache entries mentioning an evicted node are purged
    /// in the same pass, so every surviving entry — and every surviving
    /// [`NodeId`] — stays exactly as valid as before.
    ///
    /// On a manager whose epoch was never advanced this is a plain
    /// mark-and-sweep from `keep`.
    pub fn collect(&mut self, keep: &[NodeId]) -> CollectStats {
        let n = self.nodes.len();
        let mut marked = vec![false; n];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<NodeId> = Vec::new();
        for &root in keep {
            let slot = root.0 as usize;
            if !marked[slot] && self.nodes[slot].var != DEAD_VAR {
                marked[slot] = true;
                stack.push(root);
            }
        }
        // Older generations are roots too: a warm engine's structure
        // survives without the caller having to enumerate it.
        for (slot, m) in marked.iter_mut().enumerate().skip(2) {
            if !*m && self.nodes[slot].var != DEAD_VAR && self.epoch_of[slot] < self.epoch {
                *m = true;
                stack.push(NodeId(slot as u32));
            }
        }
        while let Some(id) = stack.pop() {
            let node = self.nodes[id.0 as usize];
            for child in [node.low, node.high] {
                let slot = child.0 as usize;
                if !marked[slot] {
                    marked[slot] = true;
                    stack.push(child);
                }
            }
        }
        // Sweep: only current-epoch nodes can be unmarked at this point.
        let mut dead: Vec<u32> = Vec::new();
        for (slot, &m) in marked.iter().enumerate().skip(2) {
            if !m && self.nodes[slot].var != DEAD_VAR {
                let node = self.nodes[slot];
                self.unique[node.var as usize].remove(&(node.low, node.high));
                self.nodes[slot].var = DEAD_VAR;
                dead.push(slot as u32);
            }
        }
        let evicted = dead.len();
        if evicted > 0 {
            // Purge cache entries that mention an evicted node *before*
            // any slot can be reused for an unrelated function.
            let alive = |id: NodeId| id.0 < 2 || marked[id.0 as usize];
            self.op_cache
                .retain(|&(_, a, b), &mut r| alive(a) && alive(b) && alive(r));
            self.restrict_cache
                .retain(|&(id, _, _), &mut r| alive(id) && alive(r));
            // Recycle lowest slots first (pop takes the back).
            dead.sort_unstable_by(|a, b| b.cmp(a));
            self.free.extend(dead);
            self.recount_refs();
        }
        CollectStats {
            evicted,
            live: self.node_count(),
        }
    }

    /// Rebuilds the internal in-degree counters from the live nodes.
    fn recount_refs(&mut self) {
        for r in self.refs.iter_mut() {
            *r = 0;
        }
        for slot in 2..self.nodes.len() {
            let node = self.nodes[slot];
            if node.var == DEAD_VAR {
                continue;
            }
            for child in [node.low, node.high] {
                if child.0 >= 2 {
                    self.refs[child.0 as usize] += 1;
                }
            }
        }
        self.internal_dead = (2..self.nodes.len())
            .filter(|&s| self.nodes[s].var != DEAD_VAR && self.refs[s] == 0)
            .count();
    }

    /// Checks every structural invariant of the manager; test support.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        assert_eq!(self.level_of_var.len(), self.vars);
        assert_eq!(self.var_at_level.len(), self.vars);
        assert_eq!(self.unique.len(), self.vars);
        for l in 0..self.vars {
            assert_eq!(
                self.level_of_var[self.var_at_level[l] as usize] as usize, l,
                "level permutation is inconsistent at level {l}"
            );
        }
        let mut live = 0usize;
        for slot in 2..self.nodes.len() {
            let node = self.nodes[slot];
            if node.var == DEAD_VAR {
                assert!(
                    self.free.contains(&(slot as u32)),
                    "dead slot {slot} missing from the free list"
                );
                continue;
            }
            live += 1;
            assert!((node.var as usize) < self.vars, "node var out of range");
            assert_ne!(node.low, node.high, "degenerate node {slot}");
            let level = self.level_of_var[node.var as usize];
            for child in [node.low, node.high] {
                let cn = self.nodes[child.0 as usize];
                assert_ne!(cn.var, DEAD_VAR, "node {slot} references dead slot");
                assert!(
                    self.level_of_node(&cn) > level,
                    "node {slot} violates the level order"
                );
            }
            assert_eq!(
                self.unique[node.var as usize].get(&(node.low, node.high)),
                Some(&NodeId(slot as u32)),
                "node {slot} missing from its unique subtable"
            );
        }
        assert_eq!(live + 2, self.node_count(), "free-list accounting drifted");
        let total: usize = self.unique.iter().map(|t| t.len()).sum();
        assert_eq!(total, live, "unique subtables out of sync with nodes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::tt::TruthTable;

    #[test]
    fn node_budget_is_advisory_and_trim_clears_it() {
        let mut bdd = Bdd::new(8);
        assert!(!bdd.over_budget(), "no budget set");
        assert_eq!(bdd.node_budget(), None);

        // Build something with real cache traffic.
        let mut acc = NodeId::ONE;
        for v in 0..8 {
            let x = bdd.var(v);
            acc = bdd.and(acc, x);
            let y = bdd.nvar(v);
            let _ = bdd.or(acc, y);
        }
        assert!(bdd.cache_len() > 0);
        assert_eq!(bdd.footprint(), bdd.node_count() + bdd.cache_len());

        // A budget below the node count alone can never clear.
        bdd.set_node_budget(Some(bdd.node_count() - 1));
        assert!(bdd.over_budget());
        bdd.trim_caches();
        assert!(bdd.over_budget(), "nodes survive trim");

        // A budget between nodes and footprint clears after a trim.
        let x = bdd.var(0);
        let y = bdd.var(1);
        let _ = bdd.xor(x, y); // repopulate the cache
        bdd.set_node_budget(Some(bdd.node_count()));
        assert!(bdd.over_budget());
        bdd.trim_caches();
        assert!(!bdd.over_budget(), "trim released enough footprint");

        bdd.set_node_budget(None);
        assert!(!bdd.over_budget());
    }

    #[test]
    fn constants_and_vars() {
        let mut bdd = Bdd::new(2);
        assert!(bdd.evaluate(NodeId::ONE, 0));
        assert!(!bdd.evaluate(NodeId::ZERO, 3));
        let a = bdd.var(0);
        assert!(bdd.evaluate(a, 0b01));
        assert!(!bdd.evaluate(a, 0b10));
    }

    #[test]
    fn canonical_forms_are_shared() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b);
        let or_then = bdd.or(ab, a); // absorbs to a
        assert_eq!(or_then, a);
        let na = bdd.not(a);
        let nna = bdd.not(na);
        assert_eq!(nna, a);
    }

    #[test]
    fn xor_and_ite() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let x = bdd.xor(a, b);
        for m in 0..4u64 {
            let expected = (m & 1 == 1) != (m >> 1 & 1 == 1);
            assert_eq!(bdd.evaluate(x, m), expected);
        }
        let nb = bdd.not(b);
        let mux = bdd.ite(a, b, nb); // a ? b : b̄ = XNOR(a,b)... check
        for m in 0..4u64 {
            let a_v = m & 1 == 1;
            let b_v = m >> 1 & 1 == 1;
            assert_eq!(bdd.evaluate(mux, m), if a_v { b_v } else { !b_v });
        }
    }

    #[test]
    fn cover_conversion_matches_truth_table() {
        let cover = Cover::from_cubes(
            4,
            vec![
                Cube::from_literals(4, &[(0, true), (2, false)]),
                Cube::from_literals(4, &[(1, true), (3, true)]),
            ],
        );
        let tt = TruthTable::from_cover(&cover);
        let mut bdd = Bdd::new(4);
        let f = bdd.from_cover(&cover);
        for m in 0..16u64 {
            assert_eq!(bdd.evaluate(f, m), tt.value(m));
        }
        assert_eq!(bdd.satisfy_count(f), tt.minterm_count() as u64);
    }

    #[test]
    fn equivalence_check_via_identity() {
        // (a + b)' == a'·b'  (De Morgan)
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let a_or_b = bdd.or(a, b);
        let lhs = bdd.not(a_or_b);
        let na = bdd.not(a);
        let nb = bdd.not(b);
        let rhs = bdd.and(na, nb);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn restrict_and_exists() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b);
        let at_b1 = bdd.restrict(ab, 1, true);
        assert_eq!(at_b1, a);
        let at_b0 = bdd.restrict(ab, 1, false);
        assert_eq!(at_b0, NodeId::ZERO);
        let exists_b = bdd.exists(ab, 1);
        assert_eq!(exists_b, a);
    }

    #[test]
    fn satisfy_count_of_var_is_half() {
        let mut bdd = Bdd::new(6);
        let v = bdd.var(3);
        assert_eq!(bdd.satisfy_count(v), 32);
    }

    #[test]
    fn trim_caches_preserves_nodes_and_results() {
        let mut bdd = Bdd::new(6);
        let a = bdd.var(0);
        let b = bdd.var(3);
        let ab = bdd.and(a, b);
        let ex = bdd.exists(ab, 3);
        let nodes = bdd.node_count();
        assert!(bdd.cache_len() > 0, "ops and cofactors were cached");
        bdd.trim_caches();
        assert_eq!(bdd.cache_len(), 0);
        assert_eq!(bdd.node_count(), nodes, "unique table untouched");
        // Recomputing after the trim lands on the identical nodes.
        assert_eq!(bdd.and(a, b), ab);
        assert_eq!(bdd.exists(ab, 3), ex);
        assert_eq!(bdd.node_count(), nodes, "hash consing still deduplicates");
    }

    #[test]
    fn evaluate_mapped_permutes_bit_positions() {
        // f = v0 ∧ ¬v1, with v0 reading bit 5 and v1 reading bit 2.
        let mut bdd = Bdd::new(2);
        let v0 = bdd.var(0);
        let nv1 = bdd.nvar(1);
        let f = bdd.and(v0, nv1);
        let map = [5u32, 2u32];
        assert!(bdd.evaluate_mapped(f, &[0b100000], &map));
        assert!(
            !bdd.evaluate_mapped(f, &[0b100100], &map),
            "bit 2 set -> v1 true"
        );
        assert!(!bdd.evaluate_mapped(f, &[0b000000], &map));
        // Out-of-range bits and variables read as 0.
        let mut wide = Bdd::new(1);
        let v = wide.var(0);
        assert!(
            wide.evaluate_mapped(v, &[0, 1], &[64]),
            "bit 64 is words[1] bit 0"
        );
        assert!(
            !wide.evaluate_mapped(v, &[1], &[64]),
            "bit past the words reads 0"
        );
    }

    #[test]
    fn node_count_grows_then_shares() {
        let mut bdd = Bdd::new(8);
        let before = bdd.node_count();
        let mut acc = bdd.constant(false);
        for i in 0..8 {
            let v = bdd.var(i);
            acc = bdd.or(acc, v);
        }
        let after = bdd.node_count();
        assert!(after > before);
        // Rebuilding the same function allocates nothing new.
        let mut acc2 = bdd.constant(false);
        for i in 0..8 {
            let v = bdd.var(i);
            acc2 = bdd.or(acc2, v);
        }
        assert_eq!(acc, acc2);
        assert_eq!(bdd.node_count(), after);
    }

    #[test]
    fn rename_monotone_shifts_support_onto_new_slots() {
        // f(v0, v2) = v0 ∧ ¬v2 renamed onto the odd slots (v -> v + 1).
        let mut bdd = Bdd::new(4);
        let v0 = bdd.var(0);
        let nv2 = bdd.nvar(2);
        let f = bdd.and(v0, nv2);
        let map = [1u32, 0, 3, 0];
        let g = bdd.rename_monotone(f, &map);
        for m in 0..16u64 {
            let expected = (m >> 1 & 1 == 1) && (m >> 3 & 1 == 0);
            assert_eq!(bdd.evaluate(g, m), expected, "minterm {m:04b}");
        }
        // The original is untouched and terminals pass through.
        assert!(bdd.evaluate(f, 0b0001));
        assert_eq!(bdd.rename_monotone(NodeId::ONE, &map), NodeId::ONE);
        assert_eq!(bdd.rename_monotone(NodeId::ZERO, &map), NodeId::ZERO);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn rename_monotone_rejects_order_violations() {
        let mut bdd = Bdd::new(4);
        let v0 = bdd.var(0);
        let v1 = bdd.var(1);
        let f = bdd.and(v0, v1);
        // Swapping the two support variables would need a reorder.
        bdd.rename_monotone(f, &[1, 0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn rename_monotone_rejects_cross_branch_collisions() {
        // ite(v0, v1, v2) with v1 and v2 both mapped to variable 3:
        // every parent-child edge is increasing, but the two branches
        // would conflate into one variable.
        let mut bdd = Bdd::new(4);
        let v0 = bdd.var(0);
        let v1 = bdd.var(1);
        let v2 = bdd.var(2);
        let f = bdd.ite(v0, v1, v2);
        bdd.rename_monotone(f, &[0, 3, 3, 3]);
    }

    #[test]
    fn satisfy_all_over_enumerates_the_on_set() {
        // f = v1 ∧ ¬v4 over the universe {1, 4, 6}: v6 is free.
        let mut bdd = Bdd::new(8);
        let v1 = bdd.var(1);
        let nv4 = bdd.nvar(4);
        let f = bdd.and(v1, nv4);
        let masks = bdd.satisfy_all_over(f, &[1, 4, 6]);
        assert_eq!(masks, vec![0b001, 0b101], "v1 set, v4 clear, v6 both ways");
        assert!(bdd.satisfy_all_over(NodeId::ZERO, &[1, 4, 6]).is_empty());
        assert_eq!(bdd.satisfy_all_over(NodeId::ONE, &[3]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the enumeration universe")]
    fn satisfy_all_over_rejects_missing_support() {
        let mut bdd = Bdd::new(4);
        let v0 = bdd.var(0);
        let v2 = bdd.var(2);
        let f = bdd.and(v0, v2);
        bdd.satisfy_all_over(f, &[2]);
    }

    #[test]
    fn satisfy_one_returns_a_model_or_none() {
        let mut bdd = Bdd::new(70);
        assert_eq!(bdd.satisfy_one(NodeId::ZERO), None);
        let all_zero = bdd.satisfy_one(NodeId::ONE).expect("tautology");
        assert!(
            all_zero.iter().all(|&w| w == 0),
            "unconstrained bits default to 0"
        );
        // A function over a wide universe: v3 ∧ ¬v10 ∧ v65.
        let v3 = bdd.var(3);
        let nv10 = bdd.nvar(10);
        let v65 = bdd.var(65);
        let f = bdd.and(v3, nv10);
        let f = bdd.and(f, v65);
        let words = bdd.satisfy_one(f).expect("satisfiable");
        assert!(
            bdd.evaluate_words(f, &words),
            "returned assignment satisfies f"
        );
        assert_eq!(words[0] >> 3 & 1, 1);
        assert_eq!(words[0] >> 10 & 1, 0);
        assert_eq!(words[1] >> 1 & 1, 1, "variable 65 lives in the second word");
    }

    // ----- Reordering and collection ------------------------------------

    /// A function whose identity order is bad and whose interleaved
    /// order is linear: (v0∧v3) ∨ (v1∧v4) ∨ (v2∧v5).
    fn disjoint_pairs(bdd: &mut Bdd) -> NodeId {
        let mut f = NodeId::ZERO;
        for i in 0..3 {
            let a = bdd.var(i);
            let b = bdd.var(i + 3);
            let ab = bdd.and(a, b);
            f = bdd.or(f, ab);
        }
        f
    }

    #[test]
    fn swap_preserves_functions_and_invariants() {
        let mut bdd = Bdd::new(6);
        let f = disjoint_pairs(&mut bdd);
        let truth: Vec<bool> = (0..64u64).map(|m| bdd.evaluate_words(f, &[m])).collect();
        for level in [0, 2, 4, 1, 3, 0] {
            bdd.swap_adjacent_levels(level);
            bdd.debug_validate();
            for (m, &expected) in truth.iter().enumerate() {
                // The bit layout never moves: variable i stays bit i.
                assert_eq!(
                    bdd.evaluate_words(f, &[m as u64]),
                    expected,
                    "minterm {m} after swapping level {level}"
                );
            }
        }
        // Swapping a level twice restores the original order.
        let order_before = bdd.current_order();
        bdd.swap_adjacent_levels(3);
        bdd.swap_adjacent_levels(3);
        assert_eq!(bdd.current_order(), order_before);
    }

    #[test]
    fn sift_shrinks_a_bad_order_and_preserves_the_function() {
        let mut bdd = Bdd::new(6);
        let f = disjoint_pairs(&mut bdd);
        let truth: Vec<bool> = (0..64u64).map(|m| bdd.evaluate_words(f, &[m])).collect();
        let stats = bdd.sift(&[f]);
        bdd.debug_validate();
        assert!(
            stats.after_nodes < stats.before_nodes,
            "sifting should shrink the interleaved pairs ({} -> {})",
            stats.before_nodes,
            stats.after_nodes
        );
        assert!(stats.swaps > 0);
        for (m, &expected) in truth.iter().enumerate() {
            assert_eq!(bdd.evaluate_words(f, &[m as u64]), expected);
        }
        assert_eq!(
            bdd.satisfy_count_over(f, 6),
            64 - 27,
            "on-set count survives"
        );
    }

    #[test]
    fn sift_is_deterministic() {
        let run = || {
            let mut bdd = Bdd::new(6);
            let f = disjoint_pairs(&mut bdd);
            let stats = bdd.sift(&[f]);
            (bdd.current_order(), stats)
        };
        let (order_a, stats_a) = run();
        let (order_b, stats_b) = run();
        assert_eq!(order_a, order_b, "same input, same final order");
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn sift_grouped_keeps_blocks_level_adjacent() {
        let mut bdd = Bdd::new(6);
        let f = disjoint_pairs(&mut bdd);
        // Pair each variable with its +1 neighbour: groups {0,1},{2,3},{4,5}.
        let groups = [0u32, 0, 1, 1, 2, 2];
        bdd.sift_grouped(&[f], &groups);
        bdd.debug_validate();
        for pair in [(0, 1), (2, 3), (4, 5)] {
            assert_eq!(
                bdd.level_of(pair.1),
                bdd.level_of(pair.0) + 1,
                "group {pair:?} stayed adjacent and ordered"
            );
        }
        for m in 0..64u64 {
            let expected = (0..3).any(|i| m >> i & 1 == 1 && m >> (i + 3) & 1 == 1);
            assert_eq!(bdd.evaluate_words(f, &[m]), expected);
        }
    }

    #[test]
    fn collect_evicts_garbage_and_keeps_roots() {
        let mut bdd = Bdd::new(8);
        let f = disjoint_pairs(&mut bdd);
        // Garbage: a throwaway conjunction chain over other variables.
        let mut junk = NodeId::ONE;
        for v in [6, 7] {
            let x = bdd.var(v);
            junk = bdd.and(junk, x);
        }
        let before = bdd.node_count();
        let stats = bdd.collect(&[f]);
        bdd.debug_validate();
        assert!(stats.evicted > 0, "junk chain was evicted");
        assert_eq!(stats.live, bdd.node_count());
        assert!(bdd.node_count() < before);
        for m in 0..64u64 {
            let expected = (0..3).any(|i| m >> i & 1 == 1 && m >> (i + 3) & 1 == 1);
            assert_eq!(bdd.evaluate_words(f, &[m]), expected, "root survived");
        }
        // Rebuilding the junk reuses recycled slots: no net growth vs. live.
        let live = bdd.node_count();
        let x6 = bdd.var(6);
        let x7 = bdd.var(7);
        let _ = bdd.and(x6, x7);
        assert!(bdd.node_count() <= live + 3, "freed slots were recycled");
        bdd.debug_validate();
    }

    #[test]
    fn collect_is_generational() {
        let mut bdd = Bdd::new(8);
        assert_eq!(bdd.epoch(), 0);
        let old = disjoint_pairs(&mut bdd);
        let old_nodes = bdd.node_count();
        assert_eq!(bdd.new_epoch(), 1);
        // Current-epoch garbage over different variables.
        let x6 = bdd.var(6);
        let x7 = bdd.var(7);
        let young = bdd.xor(x6, x7);
        let stats = bdd.collect(&[]);
        bdd.debug_validate();
        assert!(stats.evicted >= 3, "young garbage evicted: {stats:?}");
        assert_eq!(
            bdd.node_count(),
            old_nodes,
            "epoch-0 structure pinned without being named as a root"
        );
        for m in 0..64u64 {
            let expected = (0..3).any(|i| m >> i & 1 == 1 && m >> (i + 3) & 1 == 1);
            assert_eq!(bdd.evaluate_words(old, &[m]), expected);
        }
        // The evicted id's functions can simply be rebuilt.
        let x6 = bdd.var(6);
        let x7 = bdd.var(7);
        let rebuilt = bdd.xor(x6, x7);
        let _ = young; // the old handle is dangling by contract
        assert!(bdd.evaluate(rebuilt, 1 << 6));
        bdd.debug_validate();
    }

    #[test]
    fn collect_purges_only_dead_cache_entries() {
        let mut bdd = Bdd::new(6);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b);
        let warm_cache = bdd.cache_len();
        assert!(warm_cache > 0);
        // Garbage with its own cache entries.
        let c = bdd.var(4);
        let d = bdd.var(5);
        let _ = bdd.xor(c, d);
        // The projections are roots of their own: a is not inside ab.
        bdd.collect(&[ab, a, b]);
        bdd.debug_validate();
        // The kept conjunction is still served by cache + unique table:
        // recomputing allocates nothing.
        let nodes = bdd.node_count();
        assert_eq!(bdd.and(a, b), ab);
        assert_eq!(bdd.node_count(), nodes);
    }

    #[test]
    fn reordered_manager_still_hash_conses_and_restricts() {
        let mut bdd = Bdd::new(6);
        let f = disjoint_pairs(&mut bdd);
        bdd.sift(&[f]);
        // Cofactor and quantification under the new order.
        let at1 = bdd.restrict(f, 0, true);
        let v3 = bdd.var(3);
        let or_rest = {
            let a = bdd.var(1);
            let b = bdd.var(4);
            let ab = bdd.and(a, b);
            let c = bdd.var(2);
            let d = bdd.var(5);
            let cd = bdd.and(c, d);
            bdd.or(ab, cd)
        };
        let expected = bdd.or(v3, or_rest);
        assert_eq!(at1, expected, "cofactor at v0=1 is v3 ∨ (pairs 1,2)");
        let gone = bdd.exists(f, 0);
        let gone2 = bdd.exists(gone, 3);
        let pair0_free = bdd.or(or_rest, NodeId::ONE);
        assert_eq!(gone2, pair0_free, "∃v0,v3 of the pairs is a tautology");
    }
}
