//! State graphs: the reachable behaviour of an STG with binary-coded
//! states.
//!
//! A [`StateGraph`] is the central object of the synthesis flow (Figure 2 of
//! the paper): logic synthesis derives next-state functions from it, CSC
//! analysis detects coding conflicts on it, and relative timing produces a
//! *lazy* (pruned, early-enabled) variant of it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::marking::{MarkingLayout, PackedMarking};
use crate::petri::Marking;
use crate::signal::{Edge, SignalEvent, SignalId, SignalKind};

/// Index of a state in a [`StateGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A labelled arc of the state graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateArc {
    /// The event that fires, or `None` for a silent (ε) move.
    pub event: Option<SignalEvent>,
    /// Destination state.
    pub to: StateId,
}

/// A complete-state-coding conflict: two states share a binary code but
/// disagree on the implied value of a non-input signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CscConflict {
    /// First state.
    pub a: StateId,
    /// Second state.
    pub b: StateId,
    /// Signal whose next-state function is ambiguous.
    pub signal: SignalId,
}

/// Incremental builder for CSR arc rows: the producer starts each
/// state's row in state-id order and appends its arcs, and the finished
/// buffers drop straight into [`StateGraph::from_csr_parts`] — no
/// nested `Vec<Vec<StateArc>>` intermediate anywhere.
///
/// Every CSR producer emits through this builder: the explicit
/// analyser ([`crate::reach`]) and the concurrency-reduction pass in
/// `rt-core::lazy`. Any breadth-first construction that hands out
/// state ids in discovery order completes rows in exactly id order,
/// which is the only contract the builder requires.
///
/// # Examples
///
/// ```
/// use rt_stg::state_graph::{CsrBuilder, StateArc};
/// use rt_stg::StateId;
///
/// let mut b = CsrBuilder::with_capacity(2, 2);
/// b.start_row(); // state 0
/// b.push_arc(StateArc { event: None, to: StateId(1) });
/// b.start_row(); // state 1
/// b.push_arc(StateArc { event: None, to: StateId(0) });
/// let (offsets, arcs) = b.finish();
/// assert_eq!(offsets, vec![0, 1, 2]);
/// assert_eq!(arcs.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    arcs: Vec<StateArc>,
}

impl CsrBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CsrBuilder::default()
    }

    /// An empty builder pre-sized for `states` rows and `arcs` arcs.
    pub fn with_capacity(states: usize, arcs: usize) -> Self {
        CsrBuilder {
            offsets: Vec::with_capacity(states + 1),
            arcs: Vec::with_capacity(arcs),
        }
    }

    /// Opens the next state's row; all subsequent [`CsrBuilder::push_arc`]
    /// calls land in it until the next `start_row`.
    #[inline]
    pub fn start_row(&mut self) {
        self.offsets.push(self.arcs.len() as u32);
    }

    /// Appends an arc to the current row.
    #[inline]
    pub fn push_arc(&mut self, arc: StateArc) {
        self.arcs.push(arc);
    }

    /// Number of rows started so far.
    pub fn rows(&self) -> usize {
        self.offsets.len()
    }

    /// Number of arcs pushed so far.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Seals the builder, returning `(offsets, arcs)` with the final
    /// sentinel offset appended (`offsets.len() == rows + 1`).
    pub fn finish(mut self) -> (Vec<u32>, Vec<StateArc>) {
        self.offsets.push(self.arcs.len() as u32);
        (self.offsets, self.arcs)
    }
}

/// The signals a graph codes, shared by the graphs built over the same
/// signals (a reduction and its input), so building one clones no names.
#[derive(Debug)]
struct Signals {
    names: Vec<String>,
    kinds: Vec<SignalKind>,
}

/// Arc rows in compressed-sparse-row form: all rows live in one
/// contiguous `Vec<StateArc>`, with `offsets[i]..offsets[i+1]` delimiting
/// state `i`'s row. Synthesis, CSC analysis and the lazy passes iterate
/// arcs heavily; CSR keeps those walks on contiguous memory instead of
/// chasing one heap allocation per state.
#[derive(Debug, Clone, Default)]
struct CsrArcs {
    offsets: Vec<u32>,
    arcs: Vec<StateArc>,
}

impl CsrArcs {
    /// Builds the reversed (predecessor) CSR of `succ` by counting sort:
    /// one pass to count indegrees, a prefix sum, one pass to fill (each
    /// row's start doubles as its cursor, then shifts back one row).
    /// Row-internal order matches iterating successor rows in state
    /// order, preserving the historical nested-`Vec` predecessor order.
    fn reversed(succ: &CsrArcs, states: usize) -> Self {
        let mut offsets = vec![0u32; states + 1];
        for arc in &succ.arcs {
            offsets[arc.to.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut arcs = vec![
            StateArc {
                event: None,
                to: StateId(0)
            };
            succ.arcs.len()
        ];
        for from in 0..states {
            for arc in succ.row(from) {
                let slot = &mut offsets[arc.to.index()];
                arcs[*slot as usize] = StateArc {
                    event: arc.event,
                    to: StateId(from as u32),
                };
                *slot += 1;
            }
        }
        // Each cursor now sits at the next row's start.
        offsets.copy_within(0..states, 1);
        offsets[0] = 0;
        CsrArcs { offsets, arcs }
    }

    #[inline]
    fn row(&self, state: usize) -> &[StateArc] {
        &self.arcs[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }
}

/// The reachable state space of an STG.
///
/// Each state carries a binary *code* (one bit per signal, up to 64
/// signals). Arcs are labelled with signal events or ε and stored in
/// compressed-sparse-row form (contiguous per-state rows, built once
/// after exploration). The graph keeps the originating markings in
/// packed form for diagnostics.
///
/// # Examples
///
/// ```
/// use rt_stg::{models, explore};
///
/// # fn main() -> Result<(), rt_stg::StgError> {
/// let stg = models::fifo_stg();
/// let sg = explore(&stg)?;
/// let initial = sg.initial();
/// assert_eq!(sg.code(initial), 0, "FIFO starts with all signals low");
/// assert!(sg.csc_conflicts().is_empty() || !sg.csc_conflicts().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateGraph {
    signals: Arc<Signals>,
    codes: Vec<u64>,
    succ: CsrArcs,
    preds: CsrArcs,
    layout: MarkingLayout,
    markings: Vec<PackedMarking>,
    initial: StateId,
}

impl StateGraph {
    /// Builds a state graph from raw parts with nested per-state arc
    /// rows. Convenience for tests and hand-built graphs; production
    /// producers (the reachability analyser, `rt-core`'s concurrency
    /// reduction) emit CSR directly through [`CsrBuilder`] and
    /// [`StateGraph::from_csr_parts`].
    ///
    /// # Panics
    ///
    /// Panics if a marking puts more than one token on a place: a graph
    /// packs safe markings only.
    pub fn from_parts(
        signal_names: Vec<String>,
        signal_kinds: Vec<SignalKind>,
        codes: Vec<u64>,
        arcs: Vec<Vec<StateArc>>,
        markings: Vec<Marking>,
        initial: StateId,
    ) -> Self {
        let places = markings.first().map_or(0, Marking::len);
        let layout = MarkingLayout::new(places);
        let packed = markings
            .iter()
            .map(|m| PackedMarking::pack(&layout, m))
            .collect();
        let mut builder = CsrBuilder::with_capacity(arcs.len(), arcs.iter().map(Vec::len).sum());
        for row in &arcs {
            builder.start_row();
            for &arc in row {
                builder.push_arc(arc);
            }
        }
        let (offsets, arcs) = builder.finish();
        Self::from_csr_parts(
            signal_names,
            signal_kinds,
            codes,
            offsets,
            arcs,
            packed,
            layout,
            initial,
        )
    }

    /// Builds a state graph from pre-assembled CSR buffers (`offsets`
    /// delimits each state's row in `arcs`, with a final sentinel —
    /// exactly what [`CsrBuilder::finish`] yields). This is the
    /// zero-conversion constructor every CSR-emitting producer uses.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `offsets` has one entry per state plus the
    /// sentinel.
    #[allow(clippy::too_many_arguments)]
    pub fn from_csr_parts(
        signal_names: Vec<String>,
        signal_kinds: Vec<SignalKind>,
        codes: Vec<u64>,
        offsets: Vec<u32>,
        arcs: Vec<StateArc>,
        markings: Vec<PackedMarking>,
        layout: MarkingLayout,
        initial: StateId,
    ) -> Self {
        let signals = Arc::new(Signals {
            names: signal_names,
            kinds: signal_kinds,
        });
        Self::from_shared_parts(signals, codes, offsets, arcs, markings, layout, initial)
    }

    /// A graph over this graph's signals and marking layout with the
    /// given states, in [`StateGraph::from_csr_parts`]'s form. The two
    /// graphs share their signal table, so a derived graph (a
    /// concurrency reduction, say) copies no names.
    pub fn with_states(
        &self,
        codes: Vec<u64>,
        offsets: Vec<u32>,
        arcs: Vec<StateArc>,
        markings: Vec<PackedMarking>,
        initial: StateId,
    ) -> Self {
        Self::from_shared_parts(
            Arc::clone(&self.signals),
            codes,
            offsets,
            arcs,
            markings,
            self.layout,
            initial,
        )
    }

    /// [`StateGraph::from_csr_parts`] over a shared signal table.
    fn from_shared_parts(
        signals: Arc<Signals>,
        codes: Vec<u64>,
        offsets: Vec<u32>,
        arcs: Vec<StateArc>,
        markings: Vec<PackedMarking>,
        layout: MarkingLayout,
        initial: StateId,
    ) -> Self {
        debug_assert_eq!(offsets.len(), codes.len() + 1);
        debug_assert_eq!(signals.names.len(), signals.kinds.len());
        let succ = CsrArcs { offsets, arcs };
        let preds = CsrArcs::reversed(&succ, codes.len());
        StateGraph {
            signals,
            codes,
            succ,
            preds,
            layout,
            markings,
            initial,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.codes.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.succ.arcs.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of signals in the code.
    pub fn signal_count(&self) -> usize {
        self.signals.names.len()
    }

    /// Name of `signal`.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals.names[signal.index()]
    }

    /// Kind of `signal`.
    pub fn signal_kind(&self, signal: SignalId) -> SignalKind {
        self.signals.kinds[signal.index()]
    }

    /// Iterates over all signals.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signal_count() as u32).map(SignalId)
    }

    /// Signals that must be implemented by logic (outputs + internals).
    pub fn implemented_signals(&self) -> Vec<SignalId> {
        self.signals()
            .filter(|&s| self.signal_kind(s).is_implemented())
            .collect()
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_count() as u32).map(StateId)
    }

    /// Binary code of `state` (bit *i* = value of signal *i*).
    pub fn code(&self, state: StateId) -> u64 {
        self.codes[state.index()]
    }

    /// Value of `signal` in `state`.
    pub fn signal_value(&self, state: StateId, signal: SignalId) -> bool {
        self.codes[state.index()] >> signal.index() & 1 == 1
    }

    /// The marking from which `state` was created, unpacked to a dense
    /// token vector (allocates; intended for diagnostics, not hot loops —
    /// use [`StateGraph::packed_marking`] there).
    pub fn marking(&self, state: StateId) -> Marking {
        self.markings[state.index()].unpack(&self.layout)
    }

    /// The packed marking behind `state`.
    pub fn packed_marking(&self, state: StateId) -> &PackedMarking {
        &self.markings[state.index()]
    }

    /// The packing layout shared by all of this graph's markings.
    pub fn marking_layout(&self) -> &MarkingLayout {
        &self.layout
    }

    /// Outgoing arcs of `state`.
    pub fn successors(&self, state: StateId) -> &[StateArc] {
        self.succ.row(state.index())
    }

    /// Incoming arcs of `state` (`arc.to` is the *predecessor* state).
    pub fn predecessors(&self, state: StateId) -> &[StateArc] {
        self.preds.row(state.index())
    }

    /// Events enabled in `state` (silent arcs excluded).
    pub fn enabled_events(&self, state: StateId) -> Vec<SignalEvent> {
        let mut events: Vec<SignalEvent> = self
            .successors(state)
            .iter()
            .filter_map(|arc| arc.event)
            .collect();
        events.sort();
        events.dedup();
        events
    }

    /// Whether `event` is enabled in `state`.
    pub fn is_enabled(&self, state: StateId, event: SignalEvent) -> bool {
        self.successors(state)
            .iter()
            .any(|arc| arc.event == Some(event))
    }

    /// Whether `signal` is *excited* in `state`, and if so toward which
    /// edge.
    pub fn excitation(&self, state: StateId, signal: SignalId) -> Option<Edge> {
        for arc in self.successors(state) {
            if let Some(ev) = arc.event {
                if ev.signal == signal {
                    return Some(ev.edge);
                }
            }
        }
        None
    }

    /// The *implied value* (next-state function value) of `signal` in
    /// `state`: 1 if the signal is high and stable or excited to rise, 0 if
    /// low and stable or excited to fall.
    pub fn implied_value(&self, state: StateId, signal: SignalId) -> bool {
        match self.excitation(state, signal) {
            Some(Edge::Rise) => true,
            Some(Edge::Fall) => false,
            None => self.signal_value(state, signal),
        }
    }

    /// The excitation region of `event`: all states in which it is enabled.
    pub fn excitation_region(&self, event: SignalEvent) -> Vec<StateId> {
        self.states()
            .filter(|&s| self.is_enabled(s, event))
            .collect()
    }

    /// Unique-state-coding violations: pairs of distinct states with the
    /// same binary code.
    pub fn usc_conflicts(&self) -> Vec<(StateId, StateId)> {
        let mut by_code: HashMap<u64, Vec<StateId>> = HashMap::new();
        for s in self.states() {
            by_code.entry(self.code(s)).or_default().push(s);
        }
        let mut out = Vec::new();
        for group in by_code.values() {
            for i in 0..group.len() {
                for j in i + 1..group.len() {
                    out.push((group[i], group[j]));
                }
            }
        }
        out.sort();
        out
    }

    /// Complete-state-coding conflicts: same code, different implied value
    /// of some implemented signal. CSC conflicts make the next-state
    /// function ill-defined and require state-signal insertion.
    pub fn csc_conflicts(&self) -> Vec<CscConflict> {
        let implemented = self.implemented_signals();
        let mut out = Vec::new();
        for (a, b) in self.usc_conflicts() {
            for &signal in &implemented {
                if self.implied_value(a, signal) != self.implied_value(b, signal) {
                    out.push(CscConflict { a, b, signal });
                }
            }
        }
        out
    }

    /// The length of [`StateGraph::csc_conflicts`], counted without
    /// building the pair list. States are sorted by code and by their
    /// implied values. Within one code, two classes of states whose
    /// implied values differ on `k` implemented signals contribute
    /// `k` conflicts per pair of states.
    pub fn csc_conflict_count(&self) -> usize {
        let implemented = self
            .signals()
            .filter(|&s| self.signal_kind(s).is_implemented())
            .fold(0u64, |mask, s| mask | 1 << s.index());
        let mut rows: Vec<(u64, u64)> = self
            .states()
            .map(|s| (self.code(s), self.implied_code(s) & implemented))
            .collect();
        rows.sort_unstable();
        let mut count = 0;
        for same_code in rows.chunk_by(|a, b| a.0 == b.0) {
            let classes = || same_code.chunk_by(|a, b| a.1 == b.1);
            for (i, x) in classes().enumerate() {
                for y in classes().skip(i + 1) {
                    count += x.len() * y.len() * (x[0].1 ^ y[0].1).count_ones() as usize;
                }
            }
        }
        count
    }

    /// [`StateGraph::implied_value`] of every signal in `state`, one
    /// bit per signal as in [`StateGraph::code`].
    fn implied_code(&self, state: StateId) -> u64 {
        let (mut excited, mut rising) = (0u64, 0u64);
        for event in self.successors(state).iter().filter_map(|arc| arc.event) {
            let bit = 1u64 << event.signal.index();
            // The first arc of a signal decides, as in `excitation`.
            if excited & bit == 0 {
                excited |= bit;
                if event.edge == Edge::Rise {
                    rising |= bit;
                }
            }
        }
        self.code(state) & !excited | rising
    }

    /// States with no outgoing arcs (deadlocks).
    pub fn deadlock_states(&self) -> Vec<StateId> {
        self.states()
            .filter(|&s| self.successors(s).is_empty())
            .collect()
    }

    /// Renders a human-readable state code such as `1010` (signal 0 first).
    pub fn format_code(&self, state: StateId) -> String {
        (0..self.signal_count())
            .map(|i| {
                if self.code(state) >> i & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }

    /// Graphviz DOT rendering for debugging.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph sg {\n  rankdir=TB;\n");
        for s in self.states() {
            let shape = if s == self.initial {
                "doublecircle"
            } else {
                "circle"
            };
            out.push_str(&format!(
                "  {s} [shape={shape},label=\"{}\\n{}\"];\n",
                s,
                self.format_code(s)
            ));
        }
        for s in self.states() {
            for arc in self.successors(s) {
                let label = match arc.event {
                    Some(ev) => format!("{}{}", self.signal_name(ev.signal), ev.edge.suffix()),
                    None => "ε".to_string(),
                };
                out.push_str(&format!("  {s} -> {} [label=\"{label}\"];\n", arc.to));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Total number of states reachable from `state` (including itself),
    /// following all arcs. Used by liveness diagnostics.
    pub fn reachable_from(&self, state: StateId) -> usize {
        let mut seen = vec![false; self.state_count()];
        let mut stack = vec![state];
        seen[state.index()] = true;
        let mut count = 0;
        while let Some(s) = stack.pop() {
            count += 1;
            for arc in self.successors(s) {
                if !seen[arc.to.index()] {
                    seen[arc.to.index()] = true;
                    stack.push(arc.to);
                }
            }
        }
        count
    }

    /// Whether every state can reach every other state (strong
    /// connectivity), the usual liveness condition for control circuits.
    pub fn is_strongly_connected(&self) -> bool {
        if self.state_count() == 0 {
            return true;
        }
        if self.reachable_from(self.initial) != self.state_count() {
            return false;
        }
        // Reverse reachability from the initial state.
        let mut seen = vec![false; self.state_count()];
        let mut stack = vec![self.initial];
        seen[self.initial.index()] = true;
        let mut count = 0;
        while let Some(s) = stack.pop() {
            count += 1;
            for arc in self.predecessors(s) {
                if !seen[arc.to.index()] {
                    seen[arc.to.index()] = true;
                    stack.push(arc.to);
                }
            }
        }
        count == self.state_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built 4-state handshake SG: a (input) then b (output).
    /// q0 --a+--> q1 --b+--> q2 --a---> q3 --b---> q0
    fn handshake_sg() -> StateGraph {
        let a = SignalId(0);
        let b = SignalId(1);
        let arcs = vec![
            vec![StateArc {
                event: Some(SignalEvent::rise(a)),
                to: StateId(1),
            }],
            vec![StateArc {
                event: Some(SignalEvent::rise(b)),
                to: StateId(2),
            }],
            vec![StateArc {
                event: Some(SignalEvent::fall(a)),
                to: StateId(3),
            }],
            vec![StateArc {
                event: Some(SignalEvent::fall(b)),
                to: StateId(0),
            }],
        ];
        StateGraph::from_parts(
            vec!["a".into(), "b".into()],
            vec![SignalKind::Input, SignalKind::Output],
            vec![0b00, 0b01, 0b11, 0b10],
            arcs,
            vec![Marking::empty(0); 4],
            StateId(0),
        )
    }

    #[test]
    fn codes_and_values() {
        let sg = handshake_sg();
        assert!(!sg.signal_value(StateId(0), SignalId(0)));
        assert!(sg.signal_value(StateId(2), SignalId(0)));
        assert!(sg.signal_value(StateId(2), SignalId(1)));
        assert_eq!(sg.format_code(StateId(2)), "11");
    }

    #[test]
    fn excitation_and_implied_values() {
        let sg = handshake_sg();
        let b = SignalId(1);
        // q1: b is excited to rise -> implied 1 though current value is 0.
        assert_eq!(sg.excitation(StateId(1), b), Some(Edge::Rise));
        assert!(sg.implied_value(StateId(1), b));
        // q2: b stable high.
        assert_eq!(sg.excitation(StateId(2), b), None);
        assert!(sg.implied_value(StateId(2), b));
        // q3: excited to fall.
        assert!(!sg.implied_value(StateId(3), b));
    }

    #[test]
    fn excitation_regions_hold_the_excited_states() {
        let sg = handshake_sg();
        let b = SignalId(1);
        let er_plus = sg.excitation_region(SignalEvent::rise(b));
        let er_minus = sg.excitation_region(SignalEvent::fall(b));
        for s in sg.states() {
            let want = match sg.excitation(s, b) {
                Some(Edge::Rise) => (true, false),
                Some(Edge::Fall) => (false, true),
                None => (false, false),
            };
            assert_eq!((er_plus.contains(&s), er_minus.contains(&s)), want, "{s:?}");
        }
    }

    #[test]
    fn handshake_has_no_coding_conflicts() {
        let sg = handshake_sg();
        assert!(sg.usc_conflicts().is_empty());
        assert!(sg.csc_conflicts().is_empty());
    }

    #[test]
    fn csc_conflict_detected_when_codes_collide() {
        // Two states with the same code 00, one excites b+ and one does not.
        let a = SignalId(0);
        let b = SignalId(1);
        let arcs = vec![
            vec![StateArc {
                event: Some(SignalEvent::rise(b)),
                to: StateId(1),
            }],
            vec![StateArc {
                event: Some(SignalEvent::fall(b)),
                to: StateId(2),
            }],
            vec![StateArc {
                event: Some(SignalEvent::rise(a)),
                to: StateId(0),
            }],
        ];
        let sg = StateGraph::from_parts(
            vec!["a".into(), "b".into()],
            vec![SignalKind::Input, SignalKind::Output],
            vec![0b00, 0b10, 0b00],
            arcs,
            vec![Marking::empty(0); 3],
            StateId(0),
        );
        let usc = sg.usc_conflicts();
        assert_eq!(usc, vec![(StateId(0), StateId(2))]);
        let csc = sg.csc_conflicts();
        assert_eq!(csc.len(), 1);
        assert_eq!(csc[0].signal, b);
    }

    #[test]
    fn strong_connectivity_of_the_cycle() {
        let sg = handshake_sg();
        assert!(sg.is_strongly_connected());
        assert_eq!(sg.reachable_from(StateId(2)), 4);
        assert!(sg.deadlock_states().is_empty());
    }

    #[test]
    fn dot_rendering_contains_labels() {
        let sg = handshake_sg();
        let dot = sg.to_dot();
        assert!(dot.contains("a+"));
        assert!(dot.contains("b-"));
        assert!(dot.contains("doublecircle"));
    }
}
