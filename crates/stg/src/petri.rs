//! Petri nets: places, transitions, arcs, markings and the token game.
//!
//! The net structure is deliberately minimal and index-based; an
//! [`crate::Stg`] wraps a [`PetriNet`] with signal labels. Analysis code
//! (reachability, lazy state graphs) works on these indices.
//!
//! ## One net model
//!
//! Every net is an ordinary safe net, the model the paper's flow reads
//! an STG as. An arc moves one token, and no place appears twice in one
//! preset or postset: every constructor refuses a repeated arc. A
//! transition is enabled when every place of its preset is marked, and
//! firing it empties the preset and marks the postset. A firing that
//! would put a second token on a place (a place of the postset, outside
//! the preset, already marked) is refused: the explicit walks of
//! [`crate::reach`] and the BDD walks of [`crate::symbolic`] both answer
//! it with [`StgError::Unbounded`]. The one firing rule on markings is
//! [`PetriNet::fire_packed_into`]; [`Marking`] is a dense token vector
//! for initial markings and diagnostics.

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

/// An arc endpoint: the place a transition consumes its token from or
/// produces its token into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arc {
    /// Connected place.
    pub place: PlaceId,
}

/// A Petri net: places, transitions and pre/post arcs.
///
/// The net stores each arc once, in the preset (consumed places) or
/// postset (produced places) of its transition. The per-place views,
/// the transitions a place feeds and is fed by, are an index derived
/// from them and kept sorted by transition id, so two nets with the same
/// presets and postsets are `==` whatever order their arcs were added
/// in. Names are optional and used by the `.g` parser/writer and
/// diagnostics.
///
/// # Examples
///
/// A two-transition ring with one token:
///
/// ```
/// use rt_stg::{Marking, MarkingLayout, PackedMarking, PetriNet};
///
/// let mut net = PetriNet::new();
/// let p0 = net.add_place("p0");
/// let p1 = net.add_place("p1");
/// let t0 = net.add_transition("t0");
/// let t1 = net.add_transition("t1");
/// net.add_arc_pt(p0, t0);
/// net.add_arc_tp(t0, p1);
/// net.add_arc_pt(p1, t1);
/// net.add_arc_tp(t1, p0);
///
/// let layout = MarkingLayout::new(net.place_count());
/// let mut m = Marking::empty(net.place_count());
/// m.set(p0, 1);
/// let m = PackedMarking::pack(&layout, &m);
/// assert!(net.is_enabled_packed(t0, &m, &layout));
/// assert!(!net.is_enabled_packed(t1, &m, &layout));
/// let mut m2 = m.clone();
/// net.fire_packed_into(t0, &m, &layout, &mut m2).expect("the ring stays safe");
/// assert!(net.is_enabled_packed(t1, &m2, &layout));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PetriNet {
    place_names: Vec<String>,
    transition_names: Vec<String>,
    /// Per-transition preset arcs.
    presets: Vec<Vec<Arc>>,
    /// Per-transition postset arcs.
    postsets: Vec<Vec<Arc>>,
    /// Per-place consumers (transitions with the place in their preset),
    /// sorted by id.
    consumers: Vec<Vec<TransitionId>>,
    /// Per-place producers (transitions with the place in their postset),
    /// sorted by id.
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
    /// Panics if either endpoint is out of range or `place` is already
    /// in `transition`'s preset.
    pub fn add_arc_pt(&mut self, place: PlaceId, transition: TransitionId) {
        assert!(place.index() < self.place_count(), "place out of range");
        let preset = &mut self.presets[transition.index()];
        assert!(
            preset.iter().all(|arc| arc.place != place),
            "repeated arc {place} -> {transition}"
        );
        preset.push(Arc { place });
        index_insert(&mut self.consumers[place.index()], transition);
    }

    /// Adds a transition→place (output/producing) arc.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `place` is already
    /// in `transition`'s postset.
    pub fn add_arc_tp(&mut self, transition: TransitionId, place: PlaceId) {
        assert!(place.index() < self.place_count(), "place out of range");
        let postset = &mut self.postsets[transition.index()];
        assert!(
            postset.iter().all(|arc| arc.place != place),
            "repeated arc {transition} -> {place}"
        );
        postset.push(Arc { place });
        index_insert(&mut self.producers[place.index()], transition);
    }

    /// Builds a net from its names and its arcs, each stored once: the
    /// preset and the postset of every transition, in id order. The
    /// per-place views are derived from them, so this is the constructor
    /// the service wire codec decodes with.
    ///
    /// # Errors
    ///
    /// [`StgError::Parse`] (line 0) when the arc lists do not cover the
    /// transitions, an arc names a place out of range, or a preset or
    /// postset names a place twice.
    pub fn from_parts(
        place_names: Vec<String>,
        transition_names: Vec<String>,
        presets: Vec<Vec<Arc>>,
        postsets: Vec<Vec<Arc>>,
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
        let mut consumers = vec![Vec::new(); places];
        let mut producers = vec![Vec::new(); places];
        for (arcs, index, role) in [
            (&presets, &mut consumers, "preset"),
            (&postsets, &mut producers, "postset"),
        ] {
            for (t, arcs) in arcs.iter().enumerate() {
                for (i, arc) in arcs.iter().enumerate() {
                    if arc.place.index() >= places {
                        return Err(inconsistent(format!(
                            "{role} arc of transition {t} names place {} of {places}",
                            arc.place
                        )));
                    }
                    if arcs[..i].iter().any(|earlier| earlier.place == arc.place) {
                        return Err(inconsistent(format!(
                            "{role} of transition {t} repeats place {}",
                            arc.place
                        )));
                    }
                    // Transitions come in id order: the index stays sorted.
                    index[arc.place.index()].push(TransitionId(t as u32));
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

    /// Transitions consuming from `place`, in id order.
    pub fn consumers(&self, place: PlaceId) -> &[TransitionId] {
        &self.consumers[place.index()]
    }

    /// Transitions producing into `place`, in id order.
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

    /// Whether `transition` is enabled in packed marking `m`: every place
    /// of its preset is marked. Performs no heap allocation.
    #[inline]
    pub fn is_enabled_packed(
        &self,
        transition: TransitionId,
        m: &PackedMarking,
        layout: &MarkingLayout,
    ) -> bool {
        self.preset(transition)
            .iter()
            .all(|arc| m.tokens(layout, arc.place) == 1)
    }

    /// Fires `transition` from packed marking `m`, writing the successor
    /// into `out` (caller-provided to keep the hot path allocation-free
    /// for inline layouts): the preset is emptied, then the postset
    /// marked.
    ///
    /// The transition must be enabled (checked in debug builds only).
    ///
    /// # Errors
    ///
    /// Returns the first place of the postset, outside the preset, that
    /// is already marked: the successor would hold a second token there.
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
            out.set_tokens(layout, arc.place, 0);
        }
        for arc in self.postset(transition) {
            if out.tokens(layout, arc.place) == 1 {
                return Err(arc.place);
            }
            out.set_tokens(layout, arc.place, 1);
        }
        Ok(())
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
}

/// Inserts `transition` into one place's view, keeping it sorted. The
/// callers refuse a repeated arc first, so it is not there yet.
fn index_insert(view: &mut Vec<TransitionId>, transition: TransitionId) {
    let at = view.partition_point(|&t| t < transition);
    view.insert(at, transition);
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
        net.add_arc_pt(p0, t0);
        net.add_arc_tp(t0, p1);
        net.add_arc_pt(p1, t1);
        net.add_arc_tp(t1, p0);
        let mut m = Marking::empty(net.place_count());
        m.set(p0, 1);
        (net, m, t0, t1)
    }

    /// The transitions `m` enables, and each one's successor.
    fn fire_all(net: &PetriNet, m: &Marking) -> Vec<(TransitionId, Result<Marking, PlaceId>)> {
        let layout = MarkingLayout::new(net.place_count());
        let packed = PackedMarking::pack(&layout, m);
        let mut out = PackedMarking::zero(&layout);
        net.transitions()
            .filter(|&t| net.is_enabled_packed(t, &packed, &layout))
            .map(|t| {
                let next = net.fire_packed_into(t, &packed, &layout, &mut out);
                (t, next.map(|()| out.unpack(&layout)))
            })
            .collect()
    }

    #[test]
    fn firing_moves_the_token_around_the_ring() {
        let (net, m, t0, t1) = ring2();
        let [(fired, Ok(m1))] = &fire_all(&net, &m)[..] else {
            panic!("only t0 is enabled");
        };
        assert_eq!(*fired, t0);
        let [(fired, Ok(m2))] = &fire_all(&net, m1)[..] else {
            panic!("only t1 is enabled");
        };
        assert_eq!(*fired, t1);
        assert_eq!(*m2, m, "ring returns to the initial marking");
    }

    #[test]
    fn a_firing_into_a_marked_place_is_refused() {
        // `t` consumes `p` and produces into `p` and `q`: the self-loop
        // place is emptied first, so only a marked `q` is refused.
        let mut net = PetriNet::new();
        let p = net.add_place("p");
        let q = net.add_place("q");
        let t = net.add_transition("t");
        net.add_arc_pt(p, t);
        net.add_arc_tp(t, p);
        net.add_arc_tp(t, q);
        let m = Marking::from_tokens(vec![1, 0]);
        assert_eq!(
            fire_all(&net, &m),
            vec![(t, Ok(Marking::from_tokens(vec![1, 1])))]
        );
        let m = Marking::from_tokens(vec![1, 1]);
        assert_eq!(fire_all(&net, &m), vec![(t, Err(q))]);
    }

    #[test]
    #[should_panic(expected = "repeated arc p0 -> t0")]
    fn a_repeated_preset_arc_is_refused() {
        let (mut net, _, t0, _) = ring2();
        net.add_arc_pt(PlaceId(0), t0);
    }

    #[test]
    #[should_panic(expected = "repeated arc t1 -> p0")]
    fn a_repeated_postset_arc_is_refused() {
        let (mut net, _, _, t1) = ring2();
        net.add_arc_tp(t1, PlaceId(0));
    }

    #[test]
    fn the_per_place_views_are_sorted_whatever_the_arc_order() {
        // One choice place feeding three transitions and fed by two,
        // its arcs added in two different orders.
        let build = |order: [u32; 3]| {
            let mut net = PetriNet::new();
            let p = net.add_place("p");
            for name in ["a", "b", "c"] {
                net.add_transition(name);
            }
            for t in order.map(TransitionId) {
                net.add_arc_pt(p, t);
                if t.0 != 1 {
                    net.add_arc_tp(t, p);
                }
            }
            net
        };
        let forward = build([0, 1, 2]);
        let backward = build([2, 1, 0]);
        assert_eq!(forward, backward);
        let ids = |ids: &[u32]| ids.iter().map(|&t| TransitionId(t)).collect::<Vec<_>>();
        assert_eq!(backward.consumers(PlaceId(0)), ids(&[0, 1, 2]));
        assert_eq!(backward.producers(PlaceId(0)), ids(&[0, 2]));
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
        let (mut net, _, t0, _) = ring2();
        // A second consumer of `p0`, added after `t1`'s arcs.
        let t2 = net.add_transition("t2");
        net.add_arc_pt(PlaceId(0), t2);
        net.add_arc_pt(PlaceId(1), t2);
        net.add_arc_tp(t2, PlaceId(0));
        let rebuilt = PetriNet::from_parts(
            net.places()
                .map(|p| net.place_name(p).to_string())
                .collect(),
            net.transitions()
                .map(|t| net.transition_name(t).to_string())
                .collect(),
            net.transitions().map(|t| net.preset(t).to_vec()).collect(),
            net.transitions().map(|t| net.postset(t).to_vec()).collect(),
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, net);
        assert_eq!(rebuilt.consumers(PlaceId(0)), [t0, t2]);
        assert_eq!(rebuilt.producers(PlaceId(0)), [TransitionId(1), t2]);
    }

    #[test]
    fn from_parts_refuses_arcs_no_net_has() {
        let one = |place: u32| {
            vec![Arc {
                place: PlaceId(place),
            }]
        };
        let parse = |message: &str| StgError::Parse {
            line: 0,
            message: message.into(),
        };
        // Arc lists for a transition the net does not have.
        let err = PetriNet::from_parts(vec!["p".into()], vec![], vec![one(0)], vec![vec![]]);
        assert_eq!(
            err,
            Err(parse("arc lists cover 1/1 transitions, net has 0"))
        );
        // A postset arc into a place out of range.
        let err = PetriNet::from_parts(
            vec!["p".into()],
            vec!["t".into()],
            vec![vec![]],
            vec![one(7)],
        );
        assert_eq!(
            err,
            Err(parse("postset arc of transition 0 names place p7 of 1"))
        );
        // A preset that names its place twice.
        let err = PetriNet::from_parts(
            vec!["p".into()],
            vec!["t".into()],
            vec![[one(0), one(0)].concat()],
            vec![vec![]],
        );
        assert_eq!(err, Err(parse("preset of transition 0 repeats place p0")));
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
