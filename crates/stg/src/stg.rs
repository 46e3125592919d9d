//! Signal Transition Graphs: labelled Petri nets specifying asynchronous
//! control circuits.

use std::fmt;

use crate::error::StgError;
use crate::petri::{Marking, PetriNet, PlaceId, TransitionId};
use crate::signal::{Edge, SignalEvent, SignalId, SignalKind};

/// Label attached to an STG transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionLabel {
    /// A rising or falling edge of a signal.
    Event(SignalEvent),
    /// A silent (ε / dummy) transition: fires without changing any signal.
    Silent,
}

impl TransitionLabel {
    /// The signal event, if this label is not silent.
    pub fn event(self) -> Option<SignalEvent> {
        match self {
            TransitionLabel::Event(ev) => Some(ev),
            TransitionLabel::Silent => None,
        }
    }
}

/// Declaration of one signal: its name and interface role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalDecl {
    /// Signal name as it appears in `.g` files and diagnostics.
    pub name: String,
    /// Interface role.
    pub kind: SignalKind,
}

/// A Signal Transition Graph.
///
/// An `Stg` wraps a [`PetriNet`] with a signal table and per-transition
/// labels. Transitions are created through [`Stg::transition`] (one edge of
/// one signal) or [`Stg::silent`]; causality arcs between transitions are
/// added with [`Stg::arc`] / [`Stg::marked_arc`], which create implicit
/// places, or through explicit places ([`Stg::add_place`]) when choice is
/// needed. Equality (`==`) is structural over every field, names and
/// per-place arc order included.
///
/// # Examples
///
/// A two-signal handshake `a+ → b+ → a- → b- → (back)`:
///
/// ```
/// use rt_stg::stg::Stg;
/// use rt_stg::{Edge, SignalKind};
///
/// # fn main() -> Result<(), rt_stg::StgError> {
/// let mut stg = Stg::new("handshake");
/// let a = stg.add_signal("a", SignalKind::Input)?;
/// let b = stg.add_signal("b", SignalKind::Output)?;
/// let a_plus = stg.transition_for(a, Edge::Rise);
/// let b_plus = stg.transition_for(b, Edge::Rise);
/// let a_minus = stg.transition_for(a, Edge::Fall);
/// let b_minus = stg.transition_for(b, Edge::Fall);
/// stg.arc(a_plus, b_plus);
/// stg.arc(b_plus, a_minus);
/// stg.arc(a_minus, b_minus);
/// stg.marked_arc(b_minus, a_plus); // token: a+ is initially enabled
///
/// let sg = rt_stg::explore(&stg)?;
/// assert_eq!(sg.state_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stg {
    name: String,
    net: PetriNet,
    signals: Vec<SignalDecl>,
    labels: Vec<TransitionLabel>,
    initial_tokens: Vec<u16>,
    initial_values: Vec<Option<bool>>,
}

impl Stg {
    /// Creates an empty STG with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Stg {
            name: name.into(),
            net: PetriNet::new(),
            signals: Vec::new(),
            labels: Vec::new(),
            initial_tokens: Vec::new(),
            initial_values: Vec::new(),
        }
    }

    /// Reassembles an STG from its stored parts — the
    /// exact-reconstruction constructor the service wire codec uses
    /// (paired with [`PetriNet::from_parts`], which validates the net
    /// itself).
    ///
    /// # Errors
    ///
    /// [`StgError::DuplicateSignal`] on a repeated signal name;
    /// [`StgError::UnknownSignal`] when a transition label names a
    /// signal outside the table; [`StgError::Parse`] (line 0) when the
    /// label, token or value vectors do not match the net's sizes.
    pub fn from_parts(
        name: String,
        net: PetriNet,
        signals: Vec<SignalDecl>,
        labels: Vec<TransitionLabel>,
        initial_tokens: Vec<u16>,
        initial_values: Vec<Option<bool>>,
    ) -> Result<Stg, StgError> {
        let inconsistent = |message: String| StgError::Parse { line: 0, message };
        if labels.len() != net.transition_count() {
            return Err(inconsistent(format!(
                "{} labels for {} transitions",
                labels.len(),
                net.transition_count()
            )));
        }
        if initial_tokens.len() != net.place_count() {
            return Err(inconsistent(format!(
                "{} initial token counts for {} places",
                initial_tokens.len(),
                net.place_count()
            )));
        }
        if initial_values.len() != signals.len() {
            return Err(inconsistent(format!(
                "{} initial values for {} signals",
                initial_values.len(),
                signals.len()
            )));
        }
        for (index, decl) in signals.iter().enumerate() {
            if signals[..index].iter().any(|s| s.name == decl.name) {
                return Err(StgError::DuplicateSignal(decl.name.clone()));
            }
        }
        for label in &labels {
            if let TransitionLabel::Event(event) = label {
                if event.signal.index() >= signals.len() {
                    return Err(StgError::UnknownSignal(format!(
                        "signal id {} of {}",
                        event.signal.0,
                        signals.len()
                    )));
                }
            }
        }
        Ok(Stg {
            name,
            net,
            signals,
            labels,
            initial_tokens,
            initial_values,
        })
    }

    /// The model name (used by the `.g` writer).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the model name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The underlying Petri net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// A content hash of the specification: signals (names, roles,
    /// forced initial values), transition labels, arc structure with
    /// weights, and the initial marking. Two `Stg`s built the same way
    /// hash equal; the model *name* and place names are excluded.
    ///
    /// A structural fingerprint, not an identity: equal hashes do not
    /// make equal STGs (excluded names still reach a CSC resolution's
    /// rewritten STG, and 64-bit FxHash values can collide), so no
    /// answer may be served on a hash match alone — compare with `==`,
    /// which covers every field.
    ///
    /// # Examples
    ///
    /// ```
    /// use rt_stg::models;
    ///
    /// let a = models::fifo_stg();
    /// let mut b = models::fifo_stg();
    /// b.set_name("renamed");
    /// assert_eq!(a.content_hash(), b.content_hash(), "names excluded");
    /// assert_ne!(
    ///     a.content_hash(),
    ///     models::celement_stg().content_hash(),
    ///     "different structure, different hash"
    /// );
    /// ```
    pub fn content_hash(&self) -> u64 {
        use rt_boolean::fxhash::FxHasher;
        use std::hash::Hasher as _;
        let mut hasher = FxHasher::default();
        hasher.write_u64(self.signals.len() as u64);
        for (index, decl) in self.signals.iter().enumerate() {
            hasher.write_u64(index as u64);
            hasher.write(decl.name.as_bytes());
            hasher.write_u8(match decl.kind {
                SignalKind::Input => 0,
                SignalKind::Output => 1,
                SignalKind::Internal => 2,
            });
            hasher.write_u8(match self.initial_values[index] {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        hasher.write_u64(self.net.place_count() as u64);
        for (index, &tokens) in self.initial_tokens.iter().enumerate() {
            if tokens != 0 {
                hasher.write_u64(index as u64);
                hasher.write_u16(tokens);
            }
        }
        hasher.write_u64(self.net.transition_count() as u64);
        for transition in self.net.transitions() {
            match self.label(transition) {
                TransitionLabel::Event(event) => {
                    hasher.write_u8(1);
                    hasher.write_u32(event.signal.0);
                    hasher.write_u8(matches!(event.edge, Edge::Rise) as u8);
                }
                TransitionLabel::Silent => {
                    hasher.write_u8(2);
                    hasher.write(self.net.transition_name(transition).as_bytes());
                }
            }
            for arc in self.net.preset(transition) {
                hasher.write_u32(arc.place.0);
                hasher.write_u16(arc.weight);
            }
            hasher.write_u8(0xff);
            for arc in self.net.postset(transition) {
                hasher.write_u32(arc.place.0);
                hasher.write_u16(arc.weight);
            }
            hasher.write_u8(0xfe);
        }
        hasher.finish()
    }

    /// Declares a signal.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::DuplicateSignal`] if the name is already taken.
    pub fn add_signal(
        &mut self,
        name: impl Into<String>,
        kind: SignalKind,
    ) -> Result<SignalId, StgError> {
        let name = name.into();
        if self.signals.iter().any(|s| s.name == name) {
            return Err(StgError::DuplicateSignal(name));
        }
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(SignalDecl { name, kind });
        self.initial_values.push(None);
        Ok(id)
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// The declaration of `signal`.
    pub fn signal(&self, signal: SignalId) -> &SignalDecl {
        &self.signals[signal.index()]
    }

    /// Name of `signal`.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals[signal.index()].name
    }

    /// Interface role of `signal`.
    pub fn signal_kind(&self, signal: SignalId) -> SignalKind {
        self.signals[signal.index()].kind
    }

    /// Looks up a signal id by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// Iterates over all signal ids.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signal_count() as u32).map(SignalId)
    }

    /// Signal ids of a given kind.
    pub fn signals_of_kind(&self, kind: SignalKind) -> Vec<SignalId> {
        self.signals()
            .filter(|&s| self.signal_kind(s) == kind)
            .collect()
    }

    /// Renders an event as `name+` / `name-`.
    pub fn event_name(&self, event: SignalEvent) -> String {
        format!("{}{}", self.signal_name(event.signal), event.edge.suffix())
    }

    /// Adds a transition labelled with `event` and returns its id.
    ///
    /// Multiple transitions may carry the same event (the `.g` format's
    /// `a+/1`, `a+/2` instances).
    pub fn transition(&mut self, event: SignalEvent) -> TransitionId {
        let occurrence = self
            .labels
            .iter()
            .filter(|l| l.event() == Some(event))
            .count();
        let base = self.event_name(event);
        let name = if occurrence == 0 {
            base
        } else {
            format!("{base}/{occurrence}")
        };
        self.named_transition(name, event)
    }

    /// Adds a transition labelled with `event` under `name`, as the
    /// `.g` parser does with each transition it reads.
    pub(crate) fn named_transition(&mut self, name: String, event: SignalEvent) -> TransitionId {
        let id = self.net.add_transition(name);
        self.labels.push(TransitionLabel::Event(event));
        id
    }

    /// Adds a transition for signal `signal` with edge `edge`.
    pub fn transition_for(&mut self, signal: SignalId, edge: Edge) -> TransitionId {
        self.transition(SignalEvent::new(signal, edge))
    }

    /// Adds a silent (dummy/ε) transition with the given diagnostic name.
    pub fn silent(&mut self, name: impl Into<String>) -> TransitionId {
        let id = self.net.add_transition(name);
        self.labels.push(TransitionLabel::Silent);
        id
    }

    /// Label of `transition`.
    pub fn label(&self, transition: TransitionId) -> TransitionLabel {
        self.labels[transition.index()]
    }

    /// Adds an explicit place (needed for choice) and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        let id = self.net.add_place(name);
        self.initial_tokens.push(0);
        id
    }

    /// Connects `from → to` through a fresh implicit place.
    ///
    /// Returns the created place.
    pub fn arc(&mut self, from: TransitionId, to: TransitionId) -> PlaceId {
        let name = format!(
            "<{},{}>",
            self.net.transition_name(from),
            self.net.transition_name(to)
        );
        let place = self.add_place(name);
        self.net.add_arc_tp(from, place, 1);
        self.net.add_arc_pt(place, to, 1);
        place
    }

    /// Like [`Stg::arc`] but the implicit place carries one initial token.
    pub fn marked_arc(&mut self, from: TransitionId, to: TransitionId) -> PlaceId {
        let place = self.arc(from, to);
        self.initial_tokens[place.index()] = 1;
        place
    }

    /// Adds a transition → place arc (for explicit places).
    pub fn arc_to_place(&mut self, from: TransitionId, place: PlaceId) {
        self.net.add_arc_tp(from, place, 1);
    }

    /// Adds a place → transition arc (for explicit places).
    pub fn arc_from_place(&mut self, place: PlaceId, to: TransitionId) {
        self.net.add_arc_pt(place, to, 1);
    }

    /// Sets the initial token count of `place`.
    pub fn set_tokens(&mut self, place: PlaceId, tokens: u16) {
        self.initial_tokens[place.index()] = tokens;
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        Marking::from_tokens(self.initial_tokens.clone())
    }

    /// Forces the initial value of `signal` instead of letting reachability
    /// analysis infer it from the first edge encountered.
    pub fn set_initial_value(&mut self, signal: SignalId, value: bool) {
        self.initial_values[signal.index()] = Some(value);
    }

    /// The explicitly-set initial value of `signal`, if any.
    pub fn initial_value(&self, signal: SignalId) -> Option<bool> {
        self.initial_values[signal.index()]
    }

    /// All transitions labelled with an edge of `signal`.
    pub fn transitions_of(&self, signal: SignalId) -> Vec<TransitionId> {
        self.net
            .transitions()
            .filter(|&t| self.label(t).event().is_some_and(|ev| ev.signal == signal))
            .collect()
    }

    /// All transitions labelled with exactly `event`.
    pub fn transitions_labelled(&self, event: SignalEvent) -> Vec<TransitionId> {
        self.net
            .transitions()
            .filter(|&t| self.label(t).event() == Some(event))
            .collect()
    }

    /// Parses an event name such as `req+` or `ack-` against the signal
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::UnknownSignal`] when the base name is not
    /// declared, or a [`StgError::Parse`]-style error for a missing suffix
    /// (reported as `UnknownSignal` with the raw text).
    pub fn parse_event(&self, text: &str) -> Result<SignalEvent, StgError> {
        let (base, edge) =
            split_event_name(text).ok_or_else(|| StgError::UnknownSignal(text.to_string()))?;
        let signal = self
            .signal_by_name(base)
            .ok_or_else(|| StgError::UnknownSignal(base.to_string()))?;
        Ok(SignalEvent::new(signal, edge))
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stg {} :", self.name)?;
        writeln!(
            f,
            "  signals: {}",
            self.signals
                .iter()
                .map(|s| format!("{}:{}", s.name, s.kind))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        writeln!(
            f,
            "  transitions: {}, places: {}",
            self.net.transition_count(),
            self.net.place_count()
        )
    }
}

/// Splits `a+/2` into (`a`, [`Edge::Rise`]); the `/k` instance suffix is
/// ignored. Returns `None` when no `+`/`-` is present.
pub fn split_event_name(text: &str) -> Option<(&str, Edge)> {
    let core = match text.find('/') {
        Some(slash) => &text[..slash],
        None => text,
    };
    if let Some(base) = core.strip_suffix('+') {
        Some((base, Edge::Rise))
    } else {
        core.strip_suffix('-').map(|base| (base, Edge::Fall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake() -> (Stg, SignalId, SignalId) {
        let mut stg = Stg::new("hs");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let b = stg.add_signal("b", SignalKind::Output).unwrap();
        let ap = stg.transition_for(a, Edge::Rise);
        let bp = stg.transition_for(b, Edge::Rise);
        let am = stg.transition_for(a, Edge::Fall);
        let bm = stg.transition_for(b, Edge::Fall);
        stg.arc(ap, bp);
        stg.arc(bp, am);
        stg.arc(am, bm);
        stg.marked_arc(bm, ap);
        (stg, a, b)
    }

    #[test]
    fn duplicate_signal_rejected() {
        let mut stg = Stg::new("x");
        stg.add_signal("a", SignalKind::Input).unwrap();
        let err = stg.add_signal("a", SignalKind::Output).unwrap_err();
        assert_eq!(err, StgError::DuplicateSignal("a".into()));
    }

    #[test]
    fn transition_names_and_instances() {
        let mut stg = Stg::new("x");
        let a = stg.add_signal("a", SignalKind::Output).unwrap();
        let t1 = stg.transition_for(a, Edge::Rise);
        let t2 = stg.transition_for(a, Edge::Rise);
        assert_eq!(stg.net().transition_name(t1), "a+");
        assert_eq!(stg.net().transition_name(t2), "a+/1");
        assert_eq!(stg.transitions_of(a).len(), 2);
    }

    #[test]
    fn initial_marking_follows_marked_arcs() {
        let (stg, _, _) = handshake();
        let m = stg.initial_marking();
        assert_eq!(m.total_tokens(), 1);
        let enabled = stg.net().enabled(&m);
        assert_eq!(enabled.len(), 1);
        assert_eq!(stg.net().transition_name(enabled[0]), "a+");
    }

    #[test]
    fn parse_event_resolves_names() {
        let (stg, a, b) = handshake();
        assert_eq!(stg.parse_event("a+").unwrap(), SignalEvent::rise(a));
        assert_eq!(stg.parse_event("b-").unwrap(), SignalEvent::fall(b));
        assert_eq!(stg.parse_event("b-/3").unwrap(), SignalEvent::fall(b));
        assert!(matches!(
            stg.parse_event("zz+"),
            Err(StgError::UnknownSignal(_))
        ));
        assert!(matches!(
            stg.parse_event("a"),
            Err(StgError::UnknownSignal(_))
        ));
    }

    #[test]
    fn split_event_name_handles_instances() {
        assert_eq!(split_event_name("x+"), Some(("x", Edge::Rise)));
        assert_eq!(split_event_name("x-/2"), Some(("x", Edge::Fall)));
        assert_eq!(split_event_name("x"), None);
        assert_eq!(split_event_name("p12"), None);
    }

    #[test]
    fn silent_transitions_have_no_event() {
        let mut stg = Stg::new("x");
        let eps = stg.silent("eps");
        assert_eq!(stg.label(eps), TransitionLabel::Silent);
        assert_eq!(stg.label(eps).event(), None);
    }

    #[test]
    fn signals_of_kind_partitions_table() {
        let (stg, a, b) = handshake();
        assert_eq!(stg.signals_of_kind(SignalKind::Input), vec![a]);
        assert_eq!(stg.signals_of_kind(SignalKind::Output), vec![b]);
        assert!(stg.signals_of_kind(SignalKind::Internal).is_empty());
    }

    #[test]
    fn content_hash_tracks_structure_not_names() {
        let build = |marked: bool| {
            let mut stg = Stg::new("h");
            let a = stg.add_signal("a", SignalKind::Input).unwrap();
            let b = stg.add_signal("b", SignalKind::Output).unwrap();
            let ap = stg.transition_for(a, Edge::Rise);
            let bp = stg.transition_for(b, Edge::Rise);
            stg.arc(ap, bp);
            if marked {
                stg.marked_arc(bp, ap);
            } else {
                stg.arc(bp, ap);
            }
            stg
        };
        let base = build(true);
        assert_eq!(base.content_hash(), build(true).content_hash());
        assert_ne!(
            base.content_hash(),
            build(false).content_hash(),
            "initial marking is content"
        );
        let mut renamed = build(true);
        renamed.set_name("other");
        assert_eq!(base.content_hash(), renamed.content_hash());
        let mut forced = build(true);
        let a = forced.signal_by_name("a").unwrap();
        forced.set_initial_value(a, true);
        assert_ne!(
            base.content_hash(),
            forced.content_hash(),
            "forced initial values are content"
        );
    }

    #[test]
    fn explicit_places_support_choice() {
        let mut stg = Stg::new("choice");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let b = stg.add_signal("b", SignalKind::Input).unwrap();
        let ap = stg.transition_for(a, Edge::Rise);
        let bp = stg.transition_for(b, Edge::Rise);
        let p = stg.add_place("choice");
        stg.set_tokens(p, 1);
        stg.arc_from_place(p, ap);
        stg.arc_from_place(p, bp);
        let m = stg.initial_marking();
        assert_eq!(stg.net().enabled(&m).len(), 2);
        assert!(!stg.net().is_marked_graph());
    }
}
