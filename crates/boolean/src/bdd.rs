//! A small reduced-ordered binary decision diagram (ROBDD) package.
//!
//! Used for scalable equivalence checking between covers (e.g. validating
//! espresso results on functions too wide for truth tables) and as the
//! state-set representation in symbolic reachability
//! (`rt_stg::symbolic`).
//!
//! A [`Bdd`] manager keeps its nodes in one vector and three flat tables
//! beside it. Each table is sized by the work it serves, so on a large
//! manager the tables hold less memory than the nodes:
//!
//! * the **unique table**, one open-addressed table of node ids hashed
//!   on `(var, low, high)`, which makes equivalent functions
//!   pointer-identical. It doubles at load 3/4.
//! * the **computed table**, one direct-mapped table of tagged entries
//!   (an `apply` operator or a cofactor value, two operands and the
//!   result). It memoizes `apply` and [`Bdd::restrict`] results across
//!   calls, so a repeated conjunction resolves as one probe. It doubles
//!   when the node count passes four times its slot count, so once it
//!   has grown it holds a quarter to a half as many slots as there are
//!   nodes. A colliding entry overwrites the old one. A lost entry only
//!   costs a recomputation: every node a result reaches already exists,
//!   so the recomputation adds none.
//! * the **image memo** of [`Bdd::replace_cube`], a direct-mapped table
//!   whose entries are tagged with a per-call generation number, so a
//!   new call never reads an old call's entries and nothing is cleared
//!   between calls. It is sized by one call's work, not by the
//!   manager's history: it doubles only when one call writes more
//!   entries than half its slots.
//!
//! [`Bdd::replace_cube`] fires one transition — constrain a set to the
//! enabling cube, quantify the cube's support, set the firing cube — in
//! a single top-down pass. Composed from `and`, `exists` and `and`, the
//! same image takes a full diagram pass per literal and fills the
//! computed table with intermediates that only a repeat of the same
//! analysis would reuse.
//!
//! # Variable order
//!
//! The order is fixed: a variable's index is its level. Variable 0 sits
//! at the root, and every node's children carry larger indices than the
//! node itself. The manager never reorders and never frees a node, so
//! nodes are numbered densely in creation order and the same sequence
//! of operations always builds the same diagrams under the same ids,
//! whatever the tables hold: a table miss recomputes a result without
//! adding a node. Callers that want another order choose their own map
//! onto variable indices: `rt_stg::symbolic` maps places in reverse
//! declaration order, the order that measured smallest over its corpus.

use crate::fxhash::{FxHashMap, FxHashSet};

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

/// A computed-table key: `tag` names the operation (an [`Op`], or
/// [`RESTRICT_TAG`] plus the cofactor value), `a` and `b` its operands.
/// Tag 0 marks an empty slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Key {
    tag: u32,
    a: u32,
    b: u32,
}

/// A computed-table slot: a key and the id of its result node.
#[derive(Debug, Clone, Copy, Default)]
struct Computed {
    key: Key,
    result: u32,
}

/// An image-memo entry: the result of the `lit`-th step of one
/// [`Bdd::replace_cube`] call on `node`. Generation 0 marks a slot no
/// call has written.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    generation: u32,
    node: u32,
    lit: u32,
    result: u32,
}

/// A BDD manager: fixed-order node storage, hash-consing and apply
/// operations.
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
    /// Unique table: node ids by `(var, low, high)` hash, linear
    /// probing, 0 for an empty slot (the terminals are never stored).
    unique: Vec<u32>,
    /// Computed table: `apply` and cofactor results, direct-mapped.
    computed: Vec<Computed>,
    /// Occupied slots of `computed`.
    computed_len: usize,
    /// Image memo of [`Bdd::replace_cube`], direct-mapped.
    memo: Vec<MemoEntry>,
    /// Tag of the current [`Bdd::replace_cube`] call's memo entries.
    generation: u32,
    /// Memo entries the current [`Bdd::replace_cube`] call has written.
    memo_writes: usize,
}

/// Variable tag of the two terminals: above every variable index, so a
/// terminal sorts below every node in the order.
const TERMINAL_VAR: u32 = u32::MAX;

/// Default pre-sizing of a [`Bdd::new`] manager: the node vector holds
/// this many nodes, the computed table as many slots, and the unique
/// table twice as many. The computed table first grows at four times
/// this many nodes. Small enough that a manager built for one small
/// query (`rt-service` builds one per request) does not fault in pages
/// it never touches.
const NODE_CAPACITY: usize = 1 << 9;

/// Image-memo slots of a [`Bdd::new`] manager. The memo first grows
/// when one [`Bdd::replace_cube`] call writes more than half this many
/// entries, whatever the size of the manager.
const MEMO_CAPACITY: usize = 1 << 12;

/// Computed-table tag of a cofactor at value 0; value 1 is the next tag.
/// Below it are the [`Op`] tags.
const RESTRICT_TAG: u32 = 4;

/// Binary apply operations memoized in the computed table; the
/// discriminant is the entry tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And = 1,
    Or = 2,
    Xor = 3,
}

/// Table hash of three 32-bit words: a multiply-xor-multiply mix whose
/// high half feeds the slot index.
fn hash3(x: u32, y: u32, z: u32) -> usize {
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let h = (u64::from(x) << 32 | u64::from(y)).wrapping_mul(MIX) ^ u64::from(z);
    (h.wrapping_mul(MIX) >> 32) as usize
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

impl Bdd {
    /// Creates a manager over `vars` variables, pre-sized for typical
    /// reachability workloads: 512 nodes and computed-table slots, and
    /// 4,096 image-memo slots.
    pub fn new(vars: usize) -> Self {
        Bdd::sized(vars, NODE_CAPACITY, MEMO_CAPACITY)
    }

    /// Creates a manager pre-sized for roughly `capacity` nodes: the
    /// computed table and the image memo start with `capacity` slots
    /// and the unique table with twice as many (each rounded up to a
    /// power of two, at least 2). Each table grows by its own rule (see
    /// the module docs), so the capacity only decides how soon; a tiny
    /// one forces collisions.
    pub fn with_capacity(vars: usize, capacity: usize) -> Self {
        Bdd::sized(vars, capacity, capacity)
    }

    /// A manager with room for `capacity` nodes and `memo` image-memo
    /// slots.
    fn sized(vars: usize, capacity: usize, memo: usize) -> Self {
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
        let slots = capacity.next_power_of_two();
        Bdd {
            vars,
            nodes,
            unique: vec![0; 2 * slots],
            computed: vec![Computed::default(); slots],
            computed_len: 0,
            memo: vec![MemoEntry::default(); memo.max(2).next_power_of_two()],
            generation: 0,
            memo_writes: 0,
        }
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Grows the variable universe to at least `vars` variables.
    ///
    /// New variables take the next indices, so they sit below every
    /// existing variable in the order and widening never invalidates
    /// existing nodes or cached results. This is what lets one manager
    /// serve symbolic analyses over nets of different widths (the
    /// `rt_stg::engine::ReachEngine` reuse path). Shrinking is not
    /// supported; a smaller request is a no-op.
    pub fn ensure_vars(&mut self, vars: usize) {
        self.vars = self.vars.max(vars);
    }

    /// Number of nodes allocated so far, including the two terminals.
    /// Nothing is ever freed, so the count only grows.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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
        let mask = self.unique.len() - 1;
        let mut slot = hash3(var, low.0, high.0) & mask;
        loop {
            let id = self.unique[slot];
            if id == 0 {
                break;
            }
            if self.nodes[id as usize] == (Node { var, low, high }) {
                return NodeId(id);
            }
            slot = (slot + 1) & mask;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { var, low, high });
        self.unique[slot] = id.0;
        if 4 * (self.nodes.len() - 2) > 3 * self.unique.len() {
            self.grow_unique();
        }
        if self.nodes.len() > 4 * self.computed.len() {
            self.grow_computed();
        }
        id
    }

    /// Doubles the unique table and re-inserts every node.
    fn grow_unique(&mut self) {
        let mut unique = vec![0u32; 2 * self.unique.len()];
        let mask = unique.len() - 1;
        for (id, node) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = hash3(node.var, node.low.0, node.high.0) & mask;
            while unique[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            unique[slot] = id as u32;
        }
        self.unique = unique;
    }

    /// Doubles the computed table, keeping every entry: entries in
    /// distinct slots of the old table land in distinct slots of the
    /// new one.
    fn grow_computed(&mut self) {
        let mut computed = vec![Computed::default(); 2 * self.computed.len()];
        let mask = computed.len() - 1;
        for entry in self.computed.iter().filter(|e| e.key.tag != 0) {
            computed[hash3(entry.key.tag, entry.key.a, entry.key.b) & mask] = *entry;
        }
        self.computed = computed;
    }

    fn computed_slot(&self, key: Key) -> usize {
        hash3(key.tag, key.a, key.b) & (self.computed.len() - 1)
    }

    fn lookup(&self, key: Key) -> Option<NodeId> {
        let entry = self.computed[self.computed_slot(key)];
        (entry.key == key).then_some(NodeId(entry.result))
    }

    fn remember(&mut self, key: Key, result: NodeId) {
        let slot = self.computed_slot(key);
        if self.computed[slot].key.tag == 0 {
            self.computed_len += 1;
        }
        self.computed[slot] = Computed {
            key,
            result: result.0,
        };
    }

    fn node(&self, id: NodeId) -> Node {
        self.nodes[id.0 as usize]
    }

    fn is_terminal(&self, id: NodeId) -> bool {
        id == NodeId::ZERO || id == NodeId::ONE
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

    /// Number of occupied slots in the computed table. The table starts
    /// at the manager's pre-sizing and doubles whenever the node count
    /// passes four times its slot count, so once it has grown this stays
    /// below half the node count.
    pub fn cache_len(&self) -> usize {
        self.computed_len
    }

    /// Current memory footprint proxy: allocated nodes plus occupied
    /// computed-table slots, what long-running callers (the symbolic
    /// fixpoints in `rt-stg`) compare against their budget at iteration
    /// boundaries; the manager itself enforces none, so no operation
    /// leaves a structure half-built. Neither share is ever released, so
    /// the footprint only grows. On a grown manager the computed table
    /// holds fewer entries than half the node count, so nodes make up
    /// more than two thirds of it.
    pub fn footprint(&self) -> usize {
        self.node_count() + self.cache_len()
    }

    /// Bytes the manager holds on the heap: the node vector and the
    /// unique table, the computed table and the image memo, counted by
    /// allocated capacity. The same operations on a fresh manager always
    /// give the same number.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node>()
            + self.unique.capacity() * size_of::<u32>()
            + self.computed.capacity() * size_of::<Computed>()
            + self.memo.capacity() * size_of::<MemoEntry>()
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        if let Some(result) = op.trivial(a, b) {
            return result;
        }
        if self.is_terminal(a) && self.is_terminal(b) {
            return self.constant(op.eval(a == NodeId::ONE, b == NodeId::ONE));
        }
        // All three ops are commutative; normalize the key.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = Key {
            tag: op as u32,
            a: lo.0,
            b: hi.0,
        };
        if let Some(hit) = self.lookup(key) {
            return hit;
        }
        let na = self.node(a);
        let nb = self.node(b);
        // Branch on the top variable; a terminal's `TERMINAL_VAR` never
        // wins.
        let var = na.var.min(nb.var);
        let (a0, a1) = if na.var == var {
            (na.low, na.high)
        } else {
            (a, a)
        };
        let (b0, b1) = if nb.var == var {
            (nb.low, nb.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a0, b0);
        let high = self.apply(op, a1, b1);
        let result = self.mk(var, low, high);
        self.remember(key, result);
        result
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

    /// Number of satisfying assignments over a universe of `vars`
    /// variables that contains the function's support.
    ///
    /// The universe is a count, not an index range: a reused manager
    /// may hold more variables than the function mentions (see
    /// [`Bdd::ensure_vars`]), and a caller may spread the support over
    /// any indices. (The symbolic CSC detector counts its reachable set
    /// over `places + signals` variables whose indices run up to
    /// `2·places + signals`.) The count walks the support in order,
    /// doubling for every support variable a path skips, then scales by
    /// `2^(vars − |support|)`. All arithmetic is in integers, so counts
    /// are exact up to `u64::MAX`, where they saturate.
    ///
    /// # Panics
    ///
    /// Panics if the function depends on more than `vars` variables.
    pub fn satisfy_count_over(&self, id: NodeId, vars: usize) -> u64 {
        let support = self.support(id);
        assert!(
            support.len() <= vars,
            "a {}-variable support does not fit a {vars}-variable universe",
            support.len()
        );
        let mut rank = vec![0u32; self.vars];
        for (r, &v) in support.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let depth = support.len() as u32;
        let mut memo: FxHashMap<NodeId, u64> = FxHashMap::default();
        let below_top = self.count_rec(id, &rank, depth, &mut memo);
        let top = self.rank_of(id, &rank, depth) as usize;
        shl_saturating(below_top, top + vars - support.len())
    }

    /// Satisfying assignments of `id` over the support variables ranked
    /// at or below its top variable.
    fn count_rec(
        &self,
        id: NodeId,
        rank: &[u32],
        depth: u32,
        memo: &mut FxHashMap<NodeId, u64>,
    ) -> u64 {
        if id == NodeId::ZERO {
            return 0;
        }
        if id == NodeId::ONE {
            return 1;
        }
        if let Some(&count) = memo.get(&id) {
            return count;
        }
        let node = self.node(id);
        let below = rank[node.var as usize] + 1;
        let mut count = 0u64;
        for child in [node.low, node.high] {
            let skipped = (self.rank_of(child, rank, depth) - below) as usize;
            let sub = self.count_rec(child, rank, depth, memo);
            count = count.saturating_add(shl_saturating(sub, skipped));
        }
        memo.insert(id, count);
        count
    }

    /// Support rank of `id`'s top variable; `depth` for the terminals.
    fn rank_of(&self, id: NodeId, rank: &[u32], depth: u32) -> u32 {
        if self.is_terminal(id) {
            depth
        } else {
            rank[self.node(id).var as usize]
        }
    }

    /// The variables `id` depends on, ascending.
    fn support(&self, id: NodeId) -> Vec<u32> {
        let mut in_support = vec![false; self.vars];
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![id];
        while let Some(next) = stack.pop() {
            if self.is_terminal(next) || !seen.insert(next) {
                continue;
            }
            let node = self.node(next);
            in_support[node.var as usize] = true;
            stack.push(node.low);
            stack.push(node.high);
        }
        (0..self.vars as u32)
            .filter(|&v| in_support[v as usize])
            .collect()
    }

    /// The values each variable takes over the satisfying assignments
    /// of `id`: `taken[v][0]` is whether some satisfying assignment sets
    /// variable *v* to 0, `taken[v][1]` whether some sets it to 1. One
    /// traversal of the diagram: a variable a path tests takes the value
    /// of every edge that can still reach ONE, and a variable a path
    /// skips takes both. All false for the constant-0 function.
    ///
    /// A caller that is about to constrain `id` to a cube can skip the
    /// work when the cube asks some variable for a value `id` never
    /// gives it: the conjunction is empty (`rt_stg::symbolic` skips
    /// transitions the frontier cannot enable this way).
    pub fn values_taken(&self, id: NodeId) -> Vec<[bool; 2]> {
        let vars = self.vars;
        let mut taken = vec![[false; 2]; vars];
        if id == NodeId::ZERO {
            return taken;
        }
        let level = |node: NodeId| {
            if self.is_terminal(node) {
                vars
            } else {
                self.node(node).var as usize
            }
        };
        // Variables some path skips, as a difference array over the
        // half-open level ranges `[first, end)` an edge jumps across.
        let mut skipped = vec![0i64; vars + 1];
        let mut skip = |first: usize, end: usize| {
            if first < end {
                skipped[first] += 1;
                skipped[end] -= 1;
            }
        };
        skip(0, level(id));
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut stack = vec![id];
        while let Some(next) = stack.pop() {
            if self.is_terminal(next) || !seen.insert(next) {
                continue;
            }
            let node = self.node(next);
            let var = node.var as usize;
            for (value, child) in [node.low, node.high].into_iter().enumerate() {
                // Every node but ZERO has a path to ONE.
                if child != NodeId::ZERO {
                    taken[var][value] = true;
                    skip(var + 1, level(child));
                    stack.push(child);
                }
            }
        }
        let mut depth = 0;
        for (var, values) in taken.iter_mut().enumerate() {
            depth += skipped[var];
            if depth > 0 {
                *values = [true; 2];
            }
        }
        taken
    }

    /// The index of the first cube of `cubes` that some satisfying
    /// assignment of `id` agrees with, literal by literal (the first
    /// whose conjunction with `id` is not the constant 0), or `None`. A
    /// cube is one `(variable, value)` literal per variable it names; a
    /// literal on a variable past [`Bdd::vars`] is free.
    ///
    /// One read-only traversal answers every cube at once: each node
    /// carries one bit per cube, set when some path from it to ONE meets
    /// the cube's literals on the variables from its own down. A node's
    /// bits are its low child's without the cubes that ask its variable
    /// for 1, or'ed with its high child's without those that ask for 0;
    /// ONE meets every cube, since a variable a path skips is free. No
    /// node is built and no table is touched, so the manager is the same
    /// afterwards.
    ///
    /// `rt_stg::symbolic` asks it whether a frontier of reached markings
    /// enables a transition with a produced place already marked.
    pub fn first_cube_met<'a>(
        &self,
        id: NodeId,
        cubes: impl IntoIterator<Item = &'a [(usize, bool)]>,
    ) -> Option<usize> {
        let cubes: Vec<&[(usize, bool)]> = cubes.into_iter().collect();
        let words = cubes.len().div_ceil(64);
        if words == 0 || id == NodeId::ZERO {
            return None;
        }
        // `need[(2·v + value)·words ..][..words]`: the cubes that ask
        // variable v for `value`.
        let mut need = vec![0u64; 2 * self.vars * words];
        for (index, cube) in cubes.iter().enumerate() {
            for &(var, value) in cube.iter().filter(|&&(var, _)| var < self.vars) {
                need[(2 * var + usize::from(value)) * words + index / 64] |= 1 << (index % 64);
            }
        }
        // Each visited node's bits, `words` per node: ZERO's first, then
        // ONE's, then the nodes in post order.
        let mut met = vec![0u64; words];
        met.resize(2 * words, !0);
        let mut slots: FxHashMap<NodeId, usize> = FxHashMap::default();
        let root = self.cubes_met_rec(id, &need, words, &mut met, &mut slots);
        met[root * words..][..words]
            .iter()
            .enumerate()
            .find(|(_, &bits)| bits != 0)
            .map(|(word, bits)| word * 64 + bits.trailing_zeros() as usize)
            .filter(|&index| index < cubes.len())
    }

    /// The slot of `id`'s bits in `met` (see [`Bdd::first_cube_met`]),
    /// computing its children's first.
    fn cubes_met_rec(
        &self,
        id: NodeId,
        need: &[u64],
        words: usize,
        met: &mut Vec<u64>,
        slots: &mut FxHashMap<NodeId, usize>,
    ) -> usize {
        match id {
            NodeId::ZERO => return 0,
            NodeId::ONE => return 1,
            _ => {}
        }
        if let Some(&slot) = slots.get(&id) {
            return slot;
        }
        let node = self.node(id);
        let low = self.cubes_met_rec(node.low, need, words, met, slots);
        let high = self.cubes_met_rec(node.high, need, words, met, slots);
        let var = node.var as usize;
        let slot = met.len() / words;
        for w in 0..words {
            let from_low = met[low * words + w] & !need[(2 * var + 1) * words + w];
            let from_high = met[high * words + w] & !need[2 * var * words + w];
            met.push(from_low | from_high);
        }
        slots.insert(id, slot);
        slot
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
        // A node below `var` in the order cannot mention it.
        if node.var > var {
            return id;
        }
        if node.var == var {
            return if value { node.high } else { node.low };
        }
        let key = Key {
            tag: RESTRICT_TAG + u32::from(value),
            a: id.0,
            b: var,
        };
        if let Some(hit) = self.lookup(key) {
            return hit;
        }
        let low = self.restrict_rec(node.low, var, value);
        let high = self.restrict_rec(node.high, var, value);
        let result = self.mk(node.var, low, high);
        self.remember(key, result);
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
    /// Literals may come in any order; each call sorts them by
    /// variable. The memo is the manager's image memo, read only under
    /// this call's generation tag; nothing enters the computed table.
    /// When the call writes more entries than half the memo's slots, the
    /// memo doubles and keeps this call's entries.
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable is out of range or two literals
    /// name the same variable.
    pub fn replace_cube(&mut self, f: NodeId, lits: &[(usize, bool, bool)]) -> NodeId {
        // `(var, from, to)`, top variable first.
        let mut seq: Vec<(u32, bool, bool)> = lits
            .iter()
            .map(|&(var, from, to)| {
                assert!(var < self.vars, "variable out of range");
                (var as u32, from, to)
            })
            .collect();
        seq.sort_unstable_by_key(|&(var, ..)| var);
        assert!(
            seq.windows(2).all(|w| w[0].0 < w[1].0),
            "replace_cube literals must name distinct variables"
        );
        // A new generation retires every earlier call's entries at once.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.memo.fill(MemoEntry::default());
            self.generation = 1;
        }
        self.memo_writes = 0;
        self.replace_cube_rec(f, &seq, 0)
    }

    fn memo_slot(&self, node: NodeId, lit: u32) -> usize {
        hash3(node.0, lit, 0) & (self.memo.len() - 1)
    }

    /// Doubles the image memo, keeping the current call's entries.
    fn grow_memo(&mut self) {
        let grown = vec![MemoEntry::default(); 2 * self.memo.len()];
        let old = std::mem::replace(&mut self.memo, grown);
        for entry in old.into_iter().filter(|e| e.generation == self.generation) {
            let slot = self.memo_slot(NodeId(entry.node), entry.lit);
            self.memo[slot] = entry;
        }
    }

    fn replace_cube_rec(&mut self, f: NodeId, seq: &[(u32, bool, bool)], i: usize) -> NodeId {
        if f == NodeId::ZERO || i == seq.len() {
            return f;
        }
        let lit = i as u32;
        let entry = self.memo[self.memo_slot(f, lit)];
        if entry.generation == self.generation && entry.node == f.0 && entry.lit == lit {
            return NodeId(entry.result);
        }
        let node = self.node(f);
        let (var, from, to) = seq[i];
        let result = if node.var < var {
            let low = self.replace_cube_rec(node.low, seq, i);
            let high = self.replace_cube_rec(node.high, seq, i);
            self.mk(node.var, low, high)
        } else {
            let cofactor = match (node.var == var, from) {
                (true, true) => node.high,
                (true, false) => node.low,
                (false, _) => f,
            };
            let rest = self.replace_cube_rec(cofactor, seq, i + 1);
            if to {
                self.mk(var, NodeId::ZERO, rest)
            } else {
                self.mk(var, rest, NodeId::ZERO)
            }
        };
        // The recursion may have grown the memo: hash again.
        let slot = self.memo_slot(f, lit);
        self.memo[slot] = MemoEntry {
            generation: self.generation,
            node: f.0,
            lit,
            result: result.0,
        };
        self.memo_writes += 1;
        if 2 * self.memo_writes > self.memo.len() {
            self.grow_memo();
        }
        result
    }

    /// Renames every variable *v* in the support of `id` to `map[v]`,
    /// where `map` must be **monotone over the function's support**:
    /// enumerating the support in ascending order, the renamed
    /// variables must be strictly increasing too (renamed children stay
    /// below their renamed parents). Under that side condition the
    /// rename is a pure relabelling, computed in one linear traversal.
    ///
    /// This is the primed↔unprimed primitive of the pair-space
    /// constructions in `rt_stg::symbolic::csc`: a reachable set built
    /// over "unprimed" variable slots is copied onto the adjacent
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
        let support = self.support(id);
        for pair in support.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                map.get(a as usize)
                    .zip(map.get(b as usize))
                    .is_some_and(|(ma, mb)| ma < mb),
                "rename map is not strictly increasing over the support: \
                 {a} -> {:?} vs {b} -> {:?}",
                map.get(a as usize),
                map.get(b as usize)
            );
        }
        let mut memo: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        self.rename_rec(id, map, &mut memo)
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
}

/// `x · 2^shift`, saturating at `u64::MAX`.
fn shl_saturating(x: u64, shift: usize) -> u64 {
    if x == 0 {
        0
    } else if shift >= 64 || (x.leading_zeros() as usize) < shift {
        u64::MAX
    } else {
        x << shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::tt::TruthTable;

    #[test]
    fn the_footprint_counts_nodes_and_cache_entries() {
        let mut bdd = Bdd::new(8);
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
    fn xor_matches_its_truth_table() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let x = bdd.xor(a, b);
        for m in 0..4u64 {
            let expected = (m & 1 == 1) != (m >> 1 & 1 == 1);
            assert_eq!(bdd.evaluate(x, m), expected);
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
    fn satisfy_count_stays_exact_past_the_f64_range() {
        // 2^1100 overflows an f64 and 2^-1100 underflows one.
        let mut bdd = Bdd::new(1100);
        let mut cube = NodeId::ONE;
        for v in (0..1100).rev() {
            let lit = if v % 3 == 0 { bdd.var(v) } else { bdd.nvar(v) };
            cube = bdd.and(cube, lit);
        }
        assert_eq!(bdd.satisfy_count(cube), 1);
        let freed = bdd.exists(cube, 7);
        let freed = bdd.exists(freed, 1099);
        assert_eq!(bdd.satisfy_count(freed), 4);
        assert_eq!(bdd.satisfy_count(NodeId::ZERO), 0);
        assert_eq!(bdd.satisfy_count(NodeId::ONE), u64::MAX, "saturates");
        assert_eq!(bdd.satisfy_count_over(NodeId::ONE, 63), 1 << 63);
        // The universe is a size, not an index range: v2 ∨ v9 counted
        // over 3 variables.
        let a = bdd.var(2);
        let b = bdd.var(9);
        let f = bdd.or(a, b);
        assert_eq!(bdd.satisfy_count_over(f, 3), 6);
        assert_eq!(bdd.satisfy_count_over(f, 2), 3);
    }

    #[test]
    fn computed_table_stays_bounded() {
        let mut bdd = Bdd::with_capacity(12, 2);
        let occupied = |bdd: &Bdd| bdd.computed.iter().filter(|e| e.key.tag != 0).count();
        let mut acc = NodeId::ZERO;
        for v in 0..12 {
            let x = bdd.var(v);
            let y = bdd.nvar((v * 5 + 3) % 12);
            let xy = bdd.and(x, y);
            acc = bdd.xor(acc, xy);
            let _ = bdd.exists(acc, (v * 7) % 12);
            assert!(bdd.cache_len() <= bdd.computed.len(), "step {v}");
            assert_eq!(bdd.cache_len(), occupied(&bdd), "step {v}");
        }
        assert!(bdd.computed.len() > 2, "the table has grown");
        assert!(
            4 * bdd.computed.len() >= bdd.node_count() && 2 * bdd.computed.len() < bdd.node_count(),
            "a quarter to a half as many slots as nodes: {} slots, {} nodes",
            bdd.computed.len(),
            bdd.node_count()
        );
    }

    /// `∨_{i<n} (x_i ∧ x_{i+n})` over `2n` variables: every pair is
    /// split by the order, so the diagram has about `2^(n+1)` nodes.
    fn split_pairs(bdd: &mut Bdd, n: usize) -> NodeId {
        let mut f = NodeId::ZERO;
        for i in 0..n {
            let a = bdd.var(i);
            let b = bdd.var(i + n);
            let ab = bdd.and(a, b);
            f = bdd.or(f, ab);
        }
        f
    }

    /// Nodes reachable from `f`, terminals excluded.
    fn size(bdd: &Bdd, f: NodeId) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if !bdd.is_terminal(id) && seen.insert(id) {
                let node = bdd.node(id);
                stack.extend([node.low, node.high]);
            }
        }
        seen.len()
    }

    /// The image by the and/exists/and chain `replace_cube` replaces.
    fn chain_image(bdd: &mut Bdd, f: NodeId, lits: &[(usize, bool, bool)]) -> NodeId {
        let mut g = f;
        for &(var, from, _) in lits {
            let lit = if from { bdd.var(var) } else { bdd.nvar(var) };
            g = bdd.and(g, lit);
        }
        for &(var, ..) in lits {
            g = bdd.exists(g, var);
        }
        for &(var, _, to) in lits {
            let lit = if to { bdd.var(var) } else { bdd.nvar(var) };
            g = bdd.and(g, lit);
        }
        g
    }

    #[test]
    fn two_slot_capacity_builds_two_slot_tables() {
        let bdd = Bdd::with_capacity(6, 2);
        assert_eq!(bdd.computed.len(), 2);
        assert_eq!(bdd.memo.len(), 2);
        assert_eq!(bdd.unique.len(), 4);
        let roomy = Bdd::new(6);
        assert_eq!(roomy.computed.len(), NODE_CAPACITY);
        assert_eq!(roomy.memo.len(), MEMO_CAPACITY);
        assert_eq!(roomy.unique.len(), 2 * NODE_CAPACITY);
        assert_eq!(
            roomy.heap_bytes(),
            NODE_CAPACITY * (12 + 2 * 4 + 16) + MEMO_CAPACITY * 16,
            "nodes of 12 bytes, 4-byte unique slots, 16-byte entries"
        );
    }

    #[test]
    fn a_large_manager_keeps_a_start_size_memo_for_small_images() {
        let mut bdd = Bdd::new(26);
        let f = split_pairs(&mut bdd, 13);
        assert!(bdd.node_count() > 4 * MEMO_CAPACITY, "{}", bdd.node_count());
        assert!(
            bdd.computed.len() > MEMO_CAPACITY,
            "the computed table grew"
        );
        let a = bdd.var(3);
        let b = bdd.nvar(20);
        let small = bdd.and(a, b);
        // The last call's operand is the whole diagram, but its literals
        // sit at the top, so the pass visits only a few nodes.
        for (g, lits) in [
            (small, [(3, true, false), (20, false, true)]),
            (a, [(3, true, true), (25, false, true)]),
            (f, [(0, true, false), (1, false, true)]),
        ] {
            let fused = bdd.replace_cube(g, &lits);
            assert_eq!(fused, chain_image(&mut bdd, g, &lits), "{lits:?}");
            assert_eq!(bdd.memo.len(), MEMO_CAPACITY, "{lits:?}");
        }
    }

    #[test]
    fn an_image_larger_than_the_memo_grows_it_and_matches_the_chain() {
        let mut bdd = Bdd::with_capacity(22, 64);
        let f = split_pairs(&mut bdd, 11);
        assert!(size(&bdd, f) > 64, "{} nodes", size(&bdd, f));
        // A literal on the last variable makes the pass rebuild every
        // node above it.
        let lits = [(21, true, false), (5, false, true)];
        let fused = bdd.replace_cube(f, &lits);
        assert!(
            bdd.memo.len() > 64,
            "the memo grew to {} slots",
            bdd.memo.len()
        );
        assert!(
            2 * bdd.memo_writes <= bdd.memo.len(),
            "room for every write"
        );
        assert_eq!(fused, chain_image(&mut bdd, f, &lits));
    }

    #[test]
    fn image_memo_entries_do_not_outlive_a_generation_wrap() {
        // The first call writes generation-1 entries. When the counter
        // wraps back to 1 later, a call over the same nodes must not
        // read them.
        let build = |bdd: &mut Bdd| {
            let a = bdd.var(0);
            let b = bdd.nvar(2);
            let c = bdd.var(3);
            let ab = bdd.and(a, b);
            bdd.or(ab, c)
        };
        let lits_first = [(0, true, false), (2, false, true)];
        let lits_second = [(0, false, true), (2, true, true)];
        let mut fresh = Bdd::new(4);
        let f = build(&mut fresh);
        let expected = fresh.replace_cube(f, &lits_second);

        let mut bdd = Bdd::new(4);
        let f = build(&mut bdd);
        bdd.replace_cube(f, &lits_first);
        bdd.generation = u32::MAX;
        let second = bdd.replace_cube(f, &lits_second);
        assert_eq!(bdd.generation, 1, "the counter skipped the empty tag");
        for m in 0..16 {
            assert_eq!(
                bdd.evaluate(second, m),
                fresh.evaluate(expected, m),
                "{m:04b}"
            );
        }
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
        // v0·v1 + v̄0·v2 with v1 and v2 both mapped to variable 3:
        // every parent-child edge is increasing, but the two branches
        // would conflate into one variable.
        let mut bdd = Bdd::new(4);
        let v0 = bdd.var(0);
        let v1 = bdd.var(1);
        let v2 = bdd.var(2);
        let high = bdd.and(v0, v1);
        let nv0 = bdd.not(v0);
        let low = bdd.and(nv0, v2);
        let f = bdd.or(high, low);
        bdd.rename_monotone(f, &[0, 3, 3, 3]);
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
}
