//! Petri nets: places, transitions, weighted arcs, markings and the token
//! game.
//!
//! The net structure is deliberately minimal and index-based; an
//! [`crate::Stg`] wraps a [`PetriNet`] with signal labels. Analysis code
//! (reachability, lazy state graphs) works on these indices.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::StgError;
use crate::marking::{MarkingLayout, PackedMarking};

/// Index of a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub u32);

impl PlaceId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub u32);

impl TransitionId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A token assignment to every place of a net.
///
/// Markings are dense vectors indexed by [`PlaceId`]. They are hashable so
/// reachability analysis can deduplicate states.
///
/// # Examples
///
/// ```
/// use rt_stg::{Marking, PlaceId};
///
/// let mut m = Marking::empty(3);
/// m.set(PlaceId(1), 1);
/// assert_eq!(m.tokens(PlaceId(1)), 1);
/// assert_eq!(m.total_tokens(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Marking {
    tokens: Vec<u16>,
}

impl Marking {
    /// A marking over `places` places with zero tokens everywhere.
    pub fn empty(places: usize) -> Self {
        Marking {
            tokens: vec![0; places],
        }
    }

    /// Builds a marking from an explicit token vector.
    pub fn from_tokens(tokens: Vec<u16>) -> Self {
        Marking { tokens }
    }

    /// Number of places covered by this marking.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` if the marking covers no places.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Tokens on `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn tokens(&self, place: PlaceId) -> u16 {
        self.tokens[place.index()]
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range.
    pub fn set(&mut self, place: PlaceId, count: u16) {
        self.tokens[place.index()] = count;
    }

    /// Total number of tokens in the net.
    pub fn total_tokens(&self) -> u32 {
        self.tokens.iter().map(|&t| u32::from(t)).sum()
    }

    /// Iterates over `(place, tokens)` pairs with non-zero tokens.
    pub fn marked_places(&self) -> impl Iterator<Item = (PlaceId, u16)> + '_ {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > 0)
            .map(|(i, &t)| (PlaceId(i as u32), t))
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (place, tokens) in self.marked_places() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if tokens == 1 {
                write!(f, "{place}")?;
            } else {
                write!(f, "{place}:{tokens}")?;
            }
        }
        write!(f, "}}")
    }
}

/// A weighted arc endpoint: the place and the number of tokens
/// consumed/produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arc {
    /// Connected place.
    pub place: PlaceId,
    /// Arc weight (tokens moved per firing); ordinary nets use 1.
    pub weight: u16,
}

/// A Petri net: places, transitions and weighted pre/post arcs.
///
/// The net stores, per transition, its preset (consumed places) and postset
/// (produced places); per place, the transitions it feeds and is fed by.
/// Names are optional and used by the `.g` parser/writer and diagnostics.
///
/// # Examples
///
/// A two-transition ring with one token:
///
/// ```
/// use rt_stg::{Marking, PetriNet};
///
/// let mut net = PetriNet::new();
/// let p0 = net.add_place("p0");
/// let p1 = net.add_place("p1");
/// let t0 = net.add_transition("t0");
/// let t1 = net.add_transition("t1");
/// net.add_arc_pt(p0, t0, 1);
/// net.add_arc_tp(t0, p1, 1);
/// net.add_arc_pt(p1, t1, 1);
/// net.add_arc_tp(t1, p0, 1);
///
/// let mut m = Marking::empty(net.place_count());
/// m.set(p0, 1);
/// assert!(net.is_enabled(t0, &m));
/// assert!(!net.is_enabled(t1, &m));
/// let m2 = net.fire(t0, &m).expect("t0 enabled");
/// assert!(net.is_enabled(t1, &m2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PetriNet {
    place_names: Vec<String>,
    transition_names: Vec<String>,
    /// Per-transition preset arcs.
    presets: Vec<Vec<Arc>>,
    /// Per-transition postset arcs.
    postsets: Vec<Vec<Arc>>,
    /// Per-place consumers (transitions with the place in their preset).
    consumers: Vec<Vec<TransitionId>>,
    /// Per-place producers (transitions with the place in their postset).
    producers: Vec<Vec<TransitionId>>,
}

impl PetriNet {
    /// Creates an empty net.
    pub fn new() -> Self {
        PetriNet::default()
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transition_names.len()
    }

    /// Adds a place with the given diagnostic name and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        let id = PlaceId(self.place_names.len() as u32);
        self.place_names.push(name.into());
        self.consumers.push(Vec::new());
        self.producers.push(Vec::new());
        id
    }

    /// Adds a transition with the given diagnostic name and returns its id.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransitionId {
        let id = TransitionId(self.transition_names.len() as u32);
        self.transition_names.push(name.into());
        self.presets.push(Vec::new());
        self.postsets.push(Vec::new());
        id
    }

    /// Adds a place→transition (input/consuming) arc.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `weight == 0`.
    pub fn add_arc_pt(&mut self, place: PlaceId, transition: TransitionId, weight: u16) {
        assert!(weight > 0, "arc weight must be positive");
        assert!(place.index() < self.place_count(), "place out of range");
        self.presets[transition.index()].push(Arc { place, weight });
        self.consumers[place.index()].push(transition);
    }

    /// Adds a transition→place (output/producing) arc.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `weight == 0`.
    pub fn add_arc_tp(&mut self, transition: TransitionId, place: PlaceId, weight: u16) {
        assert!(weight > 0, "arc weight must be positive");
        assert!(place.index() < self.place_count(), "place out of range");
        self.postsets[transition.index()].push(Arc { place, weight });
        self.producers[place.index()].push(transition);
    }

    /// Reassembles a net from its six stored vectors — the
    /// exact-reconstruction constructor the service wire codec uses.
    ///
    /// Replaying arcs per transition through
    /// [`Self::add_arc_pt`]/[`Self::add_arc_tp`]
    /// cannot reproduce an arbitrary net byte-for-byte: the per-place
    /// `consumers`/`producers` lists record *global* arc-insertion
    /// order, which interleaves across transitions and feeds
    /// [`conflict_groups`](PetriNet::conflict_groups) — and through it
    /// candidate tie-breaking in CSC resolution. This constructor takes
    /// all six vectors verbatim and validates that they describe one
    /// consistent net.
    ///
    /// # Errors
    ///
    /// [`StgError::Parse`] (line 0) when lengths disagree, an arc index
    /// is out of range, a weight is zero, or the per-place lists are not
    /// a permutation-consistent view of the per-transition arcs.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        place_names: Vec<String>,
        transition_names: Vec<String>,
        presets: Vec<Vec<Arc>>,
        postsets: Vec<Vec<Arc>>,
        consumers: Vec<Vec<TransitionId>>,
        producers: Vec<Vec<TransitionId>>,
    ) -> Result<PetriNet, StgError> {
        let inconsistent = |message: String| StgError::Parse { line: 0, message };
        let places = place_names.len();
        let transitions = transition_names.len();
        if presets.len() != transitions || postsets.len() != transitions {
            return Err(inconsistent(format!(
                "arc lists cover {}/{} transitions, net has {transitions}",
                presets.len(),
                postsets.len()
            )));
        }
        if consumers.len() != places || producers.len() != places {
            return Err(inconsistent(format!(
                "place lists cover {}/{} places, net has {places}",
                consumers.len(),
                producers.len()
            )));
        }
        // The per-place lists must be exactly the per-transition arcs
        // seen from the other side (as multisets; their order is the
        // free part this constructor exists to preserve).
        for (arcs, lists, role) in [
            (&presets, &consumers, "preset"),
            (&postsets, &producers, "postset"),
        ] {
            let mut expected: Vec<BTreeMap<u32, usize>> = vec![BTreeMap::new(); places];
            for (t, arcs) in arcs.iter().enumerate() {
                for arc in arcs {
                    if arc.place.index() >= places {
                        return Err(inconsistent(format!(
                            "{role} arc of transition {t} names place {} of {places}",
                            arc.place
                        )));
                    }
                    if arc.weight == 0 {
                        return Err(inconsistent(format!(
                            "{role} arc of transition {t} has zero weight"
                        )));
                    }
                    *expected[arc.place.index()].entry(t as u32).or_insert(0) += 1;
                }
            }
            for (p, list) in lists.iter().enumerate() {
                let mut got: BTreeMap<u32, usize> = BTreeMap::new();
                for t in list {
                    if t.index() >= transitions {
                        return Err(inconsistent(format!(
                            "place {p} {role} list names transition {t} of {transitions}"
                        )));
                    }
                    *got.entry(t.0).or_insert(0) += 1;
                }
                if got != expected[p] {
                    return Err(inconsistent(format!(
                        "place {p} {role} list disagrees with the transition arcs"
                    )));
                }
            }
        }
        Ok(PetriNet {
            place_names,
            transition_names,
            presets,
            postsets,
            consumers,
            producers,
        })
    }

    /// Name of `place`.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.place_names[place.index()]
    }

    /// Name of `transition`.
    pub fn transition_name(&self, transition: TransitionId) -> &str {
        &self.transition_names[transition.index()]
    }

    /// Preset arcs (consumed places) of `transition`.
    pub fn preset(&self, transition: TransitionId) -> &[Arc] {
        &self.presets[transition.index()]
    }

    /// Postset arcs (produced places) of `transition`.
    pub fn postset(&self, transition: TransitionId) -> &[Arc] {
        &self.postsets[transition.index()]
    }

    /// Transitions consuming from `place`.
    pub fn consumers(&self, place: PlaceId) -> &[TransitionId] {
        &self.consumers[place.index()]
    }

    /// Transitions producing into `place`.
    pub fn producers(&self, place: PlaceId) -> &[TransitionId] {
        &self.producers[place.index()]
    }

    /// Iterates over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.place_count() as u32).map(PlaceId)
    }

    /// Iterates over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transition_count() as u32).map(TransitionId)
    }

    /// Whether `transition` is enabled in marking `m`.
    pub fn is_enabled(&self, transition: TransitionId, m: &Marking) -> bool {
        self.preset(transition)
            .iter()
            .all(|arc| m.tokens(arc.place) >= arc.weight)
    }

    /// All transitions enabled in `m`.
    pub fn enabled(&self, m: &Marking) -> Vec<TransitionId> {
        self.transitions()
            .filter(|&t| self.is_enabled(t, m))
            .collect()
    }

    /// Fires `transition` from marking `m`, returning the successor marking,
    /// or `None` if the transition is not enabled.
    pub fn fire(&self, transition: TransitionId, m: &Marking) -> Option<Marking> {
        if !self.is_enabled(transition, m) {
            return None;
        }
        let mut next = m.clone();
        for arc in self.preset(transition) {
            let current = next.tokens(arc.place);
            next.set(arc.place, current - arc.weight);
        }
        for arc in self.postset(transition) {
            let current = next.tokens(arc.place);
            next.set(arc.place, current.saturating_add(arc.weight));
        }
        Some(next)
    }

    /// Whether `transition` is enabled in packed marking `m`.
    ///
    /// The packed counterpart of [`PetriNet::is_enabled`]; performs no
    /// heap allocation.
    #[inline]
    pub fn is_enabled_packed(
        &self,
        transition: TransitionId,
        m: &PackedMarking,
        layout: &MarkingLayout,
    ) -> bool {
        self.preset(transition)
            .iter()
            .all(|arc| m.tokens(layout, arc.place) >= arc.weight)
    }

    /// Fires `transition` from packed marking `m`, writing the successor
    /// into `out` (caller-provided to keep the hot path allocation-free
    /// for inline layouts).
    ///
    /// The transition must be enabled (checked in debug builds only).
    ///
    /// # Errors
    ///
    /// Returns the first place the firing would give a second token: the
    /// successor is not safe.
    #[inline]
    pub fn fire_packed_into(
        &self,
        transition: TransitionId,
        m: &PackedMarking,
        layout: &MarkingLayout,
        out: &mut PackedMarking,
    ) -> Result<(), PlaceId> {
        debug_assert!(self.is_enabled_packed(transition, m, layout));
        out.clone_from(m);
        for arc in self.preset(transition) {
            let current = out.tokens(layout, arc.place);
            out.set_tokens(layout, arc.place, current - arc.weight);
        }
        for arc in self.postset(transition) {
            let next = out.tokens(layout, arc.place).saturating_add(arc.weight);
            if next > 1 {
                return Err(arc.place);
            }
            out.set_tokens(layout, arc.place, next);
        }
        Ok(())
    }

    /// A net is a *marked graph* if every place has at most one consumer and
    /// one producer (no choice). Marked graphs model delay-insensitive
    /// pipelines such as the paper's FIFO ring and have strong liveness
    /// guarantees.
    pub fn is_marked_graph(&self) -> bool {
        self.places()
            .all(|p| self.consumers(p).len() <= 1 && self.producers(p).len() <= 1)
    }

    /// A net is *free choice* if whenever a place feeds several transitions,
    /// it is the unique input place of each of them.
    pub fn is_free_choice(&self) -> bool {
        self.places().all(|p| {
            let consumers = self.consumers(p);
            consumers.len() <= 1
                || consumers
                    .iter()
                    .all(|&t| self.preset(t).len() == 1 && self.preset(t)[0].place == p)
        })
    }

    /// Structural conflict set: for each place with multiple consumers, the
    /// group of transitions in choice with each other.
    pub fn conflict_groups(&self) -> Vec<Vec<TransitionId>> {
        self.places()
            .filter(|&p| self.consumers(p).len() > 1)
            .map(|p| self.consumers(p).to_vec())
            .collect()
    }

    /// Renders the net as Graphviz DOT for debugging.
    pub fn to_dot(&self, marking: &Marking) -> String {
        let mut out = String::from("digraph petri {\n  rankdir=LR;\n");
        for place in self.places() {
            let tokens = marking.tokens(place);
            let label = if tokens > 0 {
                format!("{} ({})", self.place_name(place), tokens)
            } else {
                self.place_name(place).to_string()
            };
            out.push_str(&format!(
                "  \"{}\" [shape=circle,label=\"{}\"];\n",
                self.place_name(place),
                label
            ));
        }
        for transition in self.transitions() {
            out.push_str(&format!(
                "  \"{}\" [shape=box];\n",
                self.transition_name(transition)
            ));
        }
        for transition in self.transitions() {
            for arc in self.preset(transition) {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.place_name(arc.place),
                    self.transition_name(transition)
                ));
            }
            for arc in self.postset(transition) {
                out.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.transition_name(transition),
                    self.place_name(arc.place)
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Looks up a place id by name (linear scan; intended for parsing and
    /// tests, not inner loops).
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Looks up a transition id by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transition_names
            .iter()
            .position(|n| n == name)
            .map(|i| TransitionId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring2() -> (PetriNet, Marking, TransitionId, TransitionId) {
        let mut net = PetriNet::new();
        let p0 = net.add_place("p0");
        let p1 = net.add_place("p1");
        let t0 = net.add_transition("t0");
        let t1 = net.add_transition("t1");
        net.add_arc_pt(p0, t0, 1);
        net.add_arc_tp(t0, p1, 1);
        net.add_arc_pt(p1, t1, 1);
        net.add_arc_tp(t1, p0, 1);
        let mut m = Marking::empty(net.place_count());
        m.set(p0, 1);
        (net, m, t0, t1)
    }

    #[test]
    fn firing_moves_the_token_around_the_ring() {
        let (net, m, t0, t1) = ring2();
        assert_eq!(net.enabled(&m), vec![t0]);
        let m1 = net.fire(t0, &m).unwrap();
        assert_eq!(net.enabled(&m1), vec![t1]);
        let m2 = net.fire(t1, &m1).unwrap();
        assert_eq!(m2, m, "ring returns to the initial marking");
    }

    #[test]
    fn firing_a_disabled_transition_returns_none() {
        let (net, m, _, t1) = ring2();
        assert!(net.fire(t1, &m).is_none());
    }

    #[test]
    fn ring_is_a_marked_graph_and_free_choice() {
        let (net, _, _, _) = ring2();
        assert!(net.is_marked_graph());
        assert!(net.is_free_choice());
        assert!(net.conflict_groups().is_empty());
    }

    #[test]
    fn choice_place_breaks_marked_graph_property() {
        let mut net = PetriNet::new();
        let p = net.add_place("choice");
        let a = net.add_transition("a");
        let b = net.add_transition("b");
        net.add_arc_pt(p, a, 1);
        net.add_arc_pt(p, b, 1);
        assert!(!net.is_marked_graph());
        assert!(net.is_free_choice(), "single-input choice is free choice");
        assert_eq!(net.conflict_groups(), vec![vec![a, b]]);
    }

    #[test]
    fn non_free_choice_detected() {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let a = net.add_transition("a");
        let b = net.add_transition("b");
        net.add_arc_pt(p, a, 1);
        net.add_arc_pt(p, b, 1);
        net.add_arc_pt(q, a, 1); // `a` has a second input: not free choice
        assert!(!net.is_free_choice());
    }

    #[test]
    fn weighted_arcs_respected() {
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let t = net.add_transition("t");
        net.add_arc_pt(p, t, 2);
        let mut m = Marking::empty(1);
        m.set(p, 1);
        assert!(!net.is_enabled(t, &m));
        m.set(p, 2);
        assert!(net.is_enabled(t, &m));
        let next = net.fire(t, &m).unwrap();
        assert_eq!(next.tokens(p), 0);
    }

    #[test]
    fn marking_display_lists_marked_places() {
        let (_, m, _, _) = ring2();
        assert_eq!(m.to_string(), "{p0}");
        let mut m2 = m.clone();
        m2.set(PlaceId(1), 2);
        assert_eq!(m2.to_string(), "{p0, p1:2}");
    }

    #[test]
    fn from_parts_reproduces_a_net_exactly() {
        let (net, _, _, _) = ring2();
        let rebuilt = PetriNet::from_parts(
            (0..net.place_count())
                .map(|p| net.place_name(PlaceId(p as u32)).to_string())
                .collect(),
            (0..net.transition_count())
                .map(|t| net.transition_name(TransitionId(t as u32)).to_string())
                .collect(),
            net.transitions().map(|t| net.preset(t).to_vec()).collect(),
            net.transitions().map(|t| net.postset(t).to_vec()).collect(),
            net.places().map(|p| net.consumers(p).to_vec()).collect(),
            net.places().map(|p| net.producers(p).to_vec()).collect(),
        )
        .expect("consistent parts");
        assert_eq!(format!("{rebuilt:?}"), format!("{net:?}"));
    }

    #[test]
    fn from_parts_rejects_inconsistent_views() {
        // A preset arc whose place has an empty consumers list.
        let err = PetriNet::from_parts(
            vec!["p".into()],
            vec!["t".into()],
            vec![vec![Arc {
                place: PlaceId(0),
                weight: 1,
            }]],
            vec![vec![]],
            vec![vec![]],
            vec![vec![]],
        )
        .unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }), "got {err:?}");
        // Out-of-range transition in a producers list.
        let err = PetriNet::from_parts(
            vec!["p".into()],
            vec![],
            vec![],
            vec![],
            vec![vec![]],
            vec![vec![TransitionId(7)]],
        )
        .unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }), "got {err:?}");
    }

    #[test]
    fn name_lookups() {
        let (net, _, t0, _) = ring2();
        assert_eq!(net.place_by_name("p1"), Some(PlaceId(1)));
        assert_eq!(net.transition_by_name("t0"), Some(t0));
        assert_eq!(net.place_by_name("zzz"), None);
    }

    #[test]
    fn dot_output_mentions_all_nodes() {
        let (net, m, _, _) = ring2();
        let dot = net.to_dot(&m);
        for name in ["p0", "p1", "t0", "t1"] {
            assert!(dot.contains(name), "missing {name} in DOT output");
        }
    }
}
