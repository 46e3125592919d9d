//! State-signal insertion: the candidate shapes the CSC encoding
//! searches try ([`Splice`], enumerated by [`candidates`]), the STG each
//! one rebuilds ([`Splice::insert`]), and the state graph of a spliced
//! net built from the graph of the net it splices
//! ([`crate::ReachEngine::spliced_state_graph`]).
//!
//! ## The spliced walk
//!
//! A splice adds one internal signal `x` with two transitions, `x+` and
//! `x-`, numbered after every original transition, and splits or
//! redirects a few places. Forget `x`, and every marking of the spliced
//! net maps onto a marking of the original net: a token waiting in a
//! split place or in a splice place counts where the original net would
//! hold it. Every firing of an original transition maps onto the same
//! firing there, and `x±` map onto no move at all. So each reachable
//! marking of the spliced net is a pair: a state of the original graph,
//! and where the spliced tokens sit.
//!
//! The walk runs [`crate::reach::explore_with`]'s breadth-first search
//! over those pairs, in the same order: states in discovery order,
//! transitions in id order, the original ones before `x+` and `x-`. It
//! reads which original transitions are enabled, and where they lead,
//! off the original graph's arc rows instead of firing them on packed
//! markings, and it keys its visited set by `(state, tokens)` instead of
//! hashing markings. Codes are the original state's code plus `x`'s bit,
//! which the walk fixes as the coded walk fixes any unforced signal's:
//! its initial value at its first enabled edge, and per state whether it
//! has flipped. Only `x` can be inconsistent: every other signal fires
//! along the projected path exactly as in the original graph, which is
//! consistent. It shares that walk's round bookkeeping, so it polls the
//! budget and the fault probe once per BFS round, and it stops at the
//! same hard cap.
//!
//! Like every walk, it takes safe nets only (see [`crate::reach`]): a
//! spliced place never holds more tokens than the base place it splits
//! or the base postset it holds back, so each base state pairs with at
//! most four token placements. Splices outside the walk's premises (a
//! place splice on a place that is not simple, a transition splice
//! after a transition with an empty postset) are rebuilt and explored
//! instead, so the answer is the same either way.

use crate::budget::Budget;
use crate::error::StgError;
use crate::marking::{MarkingLayout, PackedMarking};
use crate::petri::{PlaceId, TransitionId};
use crate::reach::{explore_capped, Rounds};
use crate::signal::{Edge, SignalEvent, SignalId, SignalKind};
use crate::state_graph::{CsrBuilder, StateArc, StateGraph, StateId};
use crate::stg::{Stg, TransitionLabel};

/// Where a state-signal insertion puts the new signal's two
/// transitions: the candidate shapes of the CSC encoding searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Splice {
    /// `x+` into simple place `plus`, `x-` into simple place `minus`
    /// ([`insert_state_signal_with`]).
    Places {
        /// The place `x+` splits.
        plus: PlaceId,
        /// The place `x-` splits.
        minus: PlaceId,
        /// Whether a token on a split place rests after the new
        /// transition rather than before it.
        token_after: bool,
    },
    /// `x+` right after transition `plus` and `x-` right after `minus`
    /// ([`insert_after_transitions`]).
    Transitions {
        /// The transition `x+` follows.
        plus: TransitionId,
        /// The transition `x-` follows.
        minus: TransitionId,
    },
}

impl Splice {
    /// The STG with the internal signal `name` spliced in this way.
    ///
    /// # Panics
    ///
    /// Panics if `stg` already has a signal called `name`.
    pub fn insert(self, stg: &Stg, name: &str) -> Stg {
        match self {
            Splice::Places {
                plus,
                minus,
                token_after,
            } => insert_state_signal_with(stg, name, plus, minus, token_after),
            Splice::Transitions { plus, minus } => insert_after_transitions(stg, name, plus, minus),
        }
    }
}

/// Every candidate of the CSC encoding searches on `stg`, in their
/// canonical order: each ordered pair of distinct simple places, the
/// token before and then after the new transition, then each ordered
/// pair of distinct transitions. The searches keep the first of equal
/// candidates, so the order must stay stable.
pub fn candidates(stg: &Stg) -> Vec<Splice> {
    let places = simple_places(stg);
    let transitions: Vec<_> = stg.net().transitions().collect();
    let mut out = Vec::new();
    for &plus in &places {
        for &minus in places.iter().filter(|&&minus| minus != plus) {
            for token_after in [false, true] {
                out.push(Splice::Places {
                    plus,
                    minus,
                    token_after,
                });
            }
        }
    }
    for &plus in &transitions {
        for &minus in transitions.iter().filter(|&&minus| minus != plus) {
            out.push(Splice::Transitions { plus, minus });
        }
    }
    out
}

/// The first of `{prefix}0`, `{prefix}1`, … that `stg` does not use
/// as a signal name: the name an encoding round gives its new signal.
/// A spec may already use `{prefix}0`, and a taken name would fail
/// every candidate of the round with [`StgError::DuplicateSignal`].
pub fn fresh_signal_name(stg: &Stg, prefix: &str) -> String {
    (0..)
        .map(|n| format!("{prefix}{n}"))
        .find(|name| stg.signal_by_name(name).is_none())
        .expect("a net has finitely many signals")
}

/// Simple places: exactly one producer and one consumer — safe insertion
/// points for state-signal splicing.
pub fn simple_places(stg: &Stg) -> Vec<PlaceId> {
    let net = stg.net();
    net.places()
        .filter(|&p| net.producers(p).len() == 1 && net.consumers(p).len() == 1)
        .collect()
}

/// The start of every insertion: `stg`'s signals (forced initial values
/// included) plus the internal signal `name`, and `stg`'s transitions in
/// id order followed by `name+` and `name-`.
fn copy_with_signal(stg: &Stg, name: &str) -> (Stg, TransitionId, TransitionId) {
    let net = stg.net();
    let mut out = Stg::new(format!("{}_{}", stg.name(), name));
    for signal in stg.signals() {
        let copy = out
            .add_signal(stg.signal_name(signal), stg.signal_kind(signal))
            .expect("copied signals are unique");
        if let Some(value) = stg.initial_value(signal) {
            out.set_initial_value(copy, value);
        }
    }
    let x = out
        .add_signal(name, SignalKind::Internal)
        .expect("fresh state-signal name");
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
    let x_plus = out.transition_for(x, Edge::Rise);
    let x_minus = out.transition_for(x, Edge::Fall);
    (out, x_plus, x_minus)
}

/// Rebuilds `stg` with a fresh internal signal whose rising transition is
/// spliced into `place_plus` and falling transition into `place_minus`.
/// `token_after` chooses whether a token on a spliced marked place rests
/// before (`false`) or after (`true`) the new transition — the two
/// placements give different initial values and firing orders, and the
/// search tries both.
pub fn insert_state_signal_with(
    stg: &Stg,
    name: &str,
    place_plus: PlaceId,
    place_minus: PlaceId,
    token_after: bool,
) -> Stg {
    let net = stg.net();
    let (mut out, x_plus, x_minus) = copy_with_signal(stg, name);
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
    after_plus: TransitionId,
    after_minus: TransitionId,
) -> Stg {
    let net = stg.net();
    let (mut out, x_plus, x_minus) = copy_with_signal(stg, name);
    // Chain each spliced transition to its new successor.
    let chain = |out: &mut Stg, from: TransitionId, to: TransitionId| {
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

/// The state graph of `splice.insert(stg, name)` under `budget` and a
/// hard cap of `limit` markings, built from `base`, the graph of `stg`
/// (see the module docs). Equal to exploring the rebuilt STG in state
/// order, codes, arcs and markings; a failure is the same [`StgError`]
/// variant, naming the same signal or limit, though an
/// [`StgError::Inconsistent`] detail is worded in the walk's terms.
///
/// # Errors
///
/// [`StgError::DuplicateSignal`] when `stg` already has a signal called
/// `name` (the rebuild would panic), and otherwise every error
/// [`crate::reach::explore_with`] returns on the rebuilt STG.
pub(crate) fn spliced_explore(
    base: &StateGraph,
    stg: &Stg,
    name: &str,
    splice: Splice,
    budget: &Budget,
    limit: usize,
) -> Result<StateGraph, StgError> {
    if stg.signal_by_name(name).is_some() {
        return Err(StgError::DuplicateSignal(name.to_string()));
    }
    if stg.signal_count() >= 64 {
        return Err(StgError::TooManySignals(stg.signal_count() + 1));
    }
    match Walk::new(base, stg, splice) {
        Some(walk) => walk.run(base, stg, name, budget, limit),
        None => explore_capped(&splice.insert(stg, name), budget, limit),
    }
}

/// The spliced places or transitions, as the walk reads them.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Token counts `(plus_out, minus_out)` sit in the second half of
    /// each split place; the first half holds the rest of the base
    /// place's tokens.
    Places { plus: usize, minus: usize },
    /// Token counts `(plus, minus)` sit in the two splice places, on
    /// their way from `after_plus`/`after_minus` to `x±`. `post_*` is
    /// the original postset of each as a one-bit-per-place mask, for
    /// single-word markings.
    Transitions { post_plus: u64, post_minus: u64 },
}

/// The transitions carrying one label: how the walk finds which
/// transition an arc of the base graph fired.
#[derive(Debug, Clone, Copy, Default)]
struct Label {
    /// How many transitions carry it.
    carriers: u32,
    /// One of them that touches the splice, if any. When it is the only
    /// carrier, every arc with this label is its; when there are more,
    /// the walk re-derives the row's transitions from the base marking.
    touching: Option<TransitionId>,
}

/// What one original transition does to the spliced tokens.
#[derive(Debug, Clone, Copy, Default)]
struct Act {
    /// Bit 0 moves the first spliced token count, bit 1 the second: a
    /// place splice's consumer takes a token from the split place's
    /// second half, a transition splice's spliced transition puts one in
    /// its splice place.
    moves: u8,
    /// The range of `Walk::guards` its enabling depends on.
    guards: (u32, u32),
}

impl Act {
    fn touches(self) -> bool {
        self.moves != 0 || self.guards.0 != self.guards.1
    }
}

/// Per-call tables of the spliced walk.
struct Walk {
    shape: Shape,
    base_layout: MarkingLayout,
    layout: MarkingLayout,
    /// Per label slot: `2·signal + fall` for events, then one slot for
    /// silent transitions.
    labels: Vec<Label>,
    /// Per original transition.
    acts: Vec<Act>,
    /// Transition-splice guards: a preset place fed by a spliced
    /// transition, and whether `after_plus`/`after_minus` feed it.
    guards: Vec<(PlaceId, bool, bool)>,
    /// Transition splices, per base place: bit 0 when `after_plus`
    /// feeds it, bit 1 when `after_minus` does.
    fed: Vec<u8>,
    /// `(first, second)` token counts of the initial marking.
    initial: (u16, u16),
}

/// `(first, second)` spliced token counts, each 0 or 1 in a safe net,
/// packed in two bits.
fn pack_aux(first: u16, second: u16) -> u32 {
    debug_assert!(first <= 1 && second <= 1, "a spliced place is safe");
    u32::from(first) | u32::from(second) << 1
}

fn unpack_aux(aux: u32) -> (u16, u16) {
    ((aux & 1) as u16, (aux >> 1) as u16)
}

/// The label slot of a label: `2·signal + fall` for an event of one of
/// `signals` signals, then one slot for silent transitions.
fn slot(event: Option<SignalEvent>, signals: usize) -> usize {
    match event {
        Some(ev) => 2 * ev.signal.index() + usize::from(ev.edge == Edge::Fall),
        None => 2 * signals,
    }
}

impl Walk {
    /// The walk's tables, or `None` when the net or the splice is
    /// outside its premises (see the module docs).
    fn new(base: &StateGraph, stg: &Stg, splice: Splice) -> Option<Walk> {
        let net = stg.net();
        let places = net.place_count();
        let transitions = net.transition_count();
        let base_layout = MarkingLayout::new(places);
        if *base.marking_layout() != base_layout
            || base.signal_count() != stg.signal_count()
            || base.state_count() == 0
        {
            return None;
        }
        let initial = base.packed_marking(base.initial());
        let tokens = |p: PlaceId| initial.tokens(&base_layout, p);
        let mut acts = vec![Act::default(); transitions];
        let mut guards = Vec::new();
        let mut fed = Vec::new();
        let (shape, first) = match splice {
            Splice::Places {
                plus,
                minus,
                token_after,
            } => {
                let simple = |p: PlaceId| {
                    p.index() < places && net.producers(p).len() == 1 && net.consumers(p).len() == 1
                };
                if plus == minus || !simple(plus) || !simple(minus) {
                    return None;
                }
                acts[net.consumers(plus)[0].index()].moves |= 1;
                acts[net.consumers(minus)[0].index()].moves |= 2;
                let initial = if token_after {
                    (tokens(plus), tokens(minus))
                } else {
                    (0, 0)
                };
                let shape = Shape::Places {
                    plus: plus.index(),
                    minus: minus.index(),
                };
                (shape, initial)
            }
            Splice::Transitions { plus, minus } => {
                if plus == minus
                    || plus.index() >= transitions
                    || minus.index() >= transitions
                    || net.postset(plus).is_empty()
                    || net.postset(minus).is_empty()
                {
                    return None;
                }
                acts[plus.index()].moves |= 1;
                acts[minus.index()].moves |= 2;
                fed = vec![0u8; places];
                for arc in net.postset(plus) {
                    fed[arc.place.index()] |= 1;
                }
                for arc in net.postset(minus) {
                    fed[arc.place.index()] |= 2;
                }
                for t in net.transitions() {
                    let start = guards.len() as u32;
                    for arc in net.preset(t) {
                        let feeds = fed[arc.place.index()];
                        if feeds != 0 {
                            guards.push((arc.place, feeds & 1 != 0, feeds & 2 != 0));
                        }
                    }
                    acts[t.index()].guards = (start, guards.len() as u32);
                }
                let mask = |t: TransitionId| {
                    net.postset(t).iter().fold(0u64, |acc, arc| {
                        acc | 1u64.checked_shl(arc.place.0).unwrap_or(0)
                    })
                };
                let shape = Shape::Transitions {
                    post_plus: mask(plus),
                    post_minus: mask(minus),
                };
                (shape, (0, 0))
            }
        };
        // Which arcs need their transition named: those whose label a
        // splice-touching transition carries.
        let mut labels = vec![Label::default(); 2 * stg.signal_count() + 1];
        for t in net.transitions() {
            let label = &mut labels[slot(stg.label(t).event(), stg.signal_count())];
            label.carriers += 1;
            if acts[t.index()].touches() {
                label.touching = Some(t);
            }
        }
        Some(Walk {
            shape,
            base_layout,
            layout: MarkingLayout::new(places + 2),
            labels,
            acts,
            guards,
            fed,
            initial: first,
        })
    }

    /// Whether original transition `t` is enabled at base marking `m`
    /// with spliced token counts `aux`, and the counts after it fires.
    fn fire(&self, t: TransitionId, m: &PackedMarking, aux: u32) -> Option<u32> {
        let (mut first, mut second) = unpack_aux(aux);
        let Act { moves, guards } = self.acts[t.index()];
        match self.shape {
            Shape::Places { .. } => {
                // A consumer takes its token from the split place's
                // second half.
                if moves & 1 != 0 {
                    first = first.checked_sub(1)?;
                }
                if moves & 2 != 0 {
                    second = second.checked_sub(1)?;
                }
            }
            Shape::Transitions { .. } => {
                if aux != 0 {
                    let (start, end) = guards;
                    for &(place, by_plus, by_minus) in &self.guards[start as usize..end as usize] {
                        let held = u16::from(by_plus) * first + u16::from(by_minus) * second;
                        if m.tokens(&self.base_layout, place) <= held {
                            return None;
                        }
                    }
                }
                first += u16::from(moves & 1 != 0);
                second += u16::from(moves & 2 != 0);
            }
        }
        Some(pack_aux(first, second))
    }

    /// Whether `x+` (`rise`) or `x-` is enabled at base marking `m` with
    /// spliced token counts `aux`, and the counts after it fires.
    fn fire_x(&self, rise: bool, m: &PackedMarking, aux: u32) -> Option<u32> {
        let (mut first, mut second) = unpack_aux(aux);
        let count = if rise { &mut first } else { &mut second };
        match self.shape {
            Shape::Places { plus, minus } => {
                let place = if rise { plus } else { minus };
                if m.tokens(&self.base_layout, PlaceId(place as u32)) <= *count {
                    return None;
                }
                *count += 1;
            }
            Shape::Transitions { .. } => *count = count.checked_sub(1)?,
        }
        Some(pack_aux(first, second))
    }

    /// The spliced net's packed marking for base marking `m` and spliced
    /// token counts `aux`.
    fn marking(&self, m: &PackedMarking, aux: u32) -> PackedMarking {
        let (first, second) = unpack_aux(aux);
        if let (PackedMarking::W1(w), 1) = (m, self.layout.words()) {
            // A safe net in one word, one bit per place: splice the two
            // new bits in with shifts and masks. The per-place loop below
            // makes the whole walk about 1.7 times slower.
            let (w, first, second) = (*w, u64::from(first), u64::from(second));
            let below = |bit: usize| (1u64 << bit) - 1;
            let word = match self.shape {
                Shape::Places { plus, minus } => {
                    // Place `a` becomes bits `a` (in) and `a + 1` (out),
                    // `b` becomes `b + 1` and `b + 2`.
                    let (a, b) = (plus.min(minus), plus.max(minus));
                    let (out_a, out_b) = if plus < minus {
                        (first, second)
                    } else {
                        (second, first)
                    };
                    let bit = |p: usize| w >> p & 1;
                    w & below(a)
                        | (bit(a) - out_a) << a
                        | out_a << (a + 1)
                        | (w >> (a + 1) & below(b - a - 1)) << (a + 2)
                        | (bit(b) - out_b) << (b + 1)
                        | out_b << (b + 2)
                        | (w >> (b + 1)).checked_shl(b as u32 + 3).unwrap_or(0)
                }
                Shape::Transitions {
                    post_plus,
                    post_minus,
                } => (w - first * post_plus - second * post_minus) << 2 | first | second << 1,
            };
            return PackedMarking::W1(word);
        }
        let mut out = PackedMarking::zero(&self.layout);
        let places = self.base_layout.places();
        for p in 0..places {
            let tokens = m.tokens(&self.base_layout, PlaceId(p as u32));
            match self.shape {
                Shape::Places { plus, minus } => {
                    let index = p + usize::from(p > plus) + usize::from(p > minus);
                    let out_tokens = if p == plus {
                        first
                    } else if p == minus {
                        second
                    } else {
                        out.set_tokens(&self.layout, PlaceId(index as u32), tokens);
                        continue;
                    };
                    out.set_tokens(&self.layout, PlaceId(index as u32), tokens - out_tokens);
                    out.set_tokens(&self.layout, PlaceId(index as u32 + 1), out_tokens);
                }
                Shape::Transitions { .. } => {
                    let feeds = self.fed[p];
                    let held =
                        u16::from(feeds & 1 != 0) * first + u16::from(feeds & 2 != 0) * second;
                    out.set_tokens(&self.layout, PlaceId(p as u32 + 2), tokens - held);
                }
            }
        }
        if let Shape::Transitions { .. } = self.shape {
            out.set_tokens(&self.layout, PlaceId(0), first);
            out.set_tokens(&self.layout, PlaceId(1), second);
        }
        out
    }

    /// The breadth-first walk (see the module docs).
    fn run(
        self,
        base: &StateGraph,
        stg: &Stg,
        name: &str,
        budget: &Budget,
        limit: usize,
    ) -> Result<StateGraph, StgError> {
        let net = stg.net();
        let x = SignalId(stg.signal_count() as u32);
        let inconsistent = |detail: &str| StgError::Inconsistent {
            signal: name.to_string(),
            detail: detail.to_string(),
        };
        // x's initial value, fixed where one of its edges is first
        // enabled, as the coded walk fixes every unforced signal's.
        let mut x_initial: Option<bool> = None;

        // The spliced state of each `(base state, tokens)` pair: the
        // visited set.
        let mut index = vec![u32::MAX; base.state_count() * 4];
        // Per spliced state: its base state, its spliced token counts,
        // and whether x has flipped an odd number of times to reach it.
        let mut states: Vec<(u32, u32, bool)> = Vec::with_capacity(2 * base.state_count());
        let mut builder = CsrBuilder::with_capacity(2 * base.state_count(), 2 * base.arc_count());
        let mut row_transitions: Vec<TransitionId> = Vec::new();

        // Interns `(from, aux)` reached with x flipped `flip`, explore_with's
        // intern-then-compare step.
        let mut visit = |from: u32,
                         aux: u32,
                         flip: bool,
                         states: &mut Vec<(u32, u32, bool)>|
         -> Result<u32, StgError> {
            let next = states.len() as u32;
            let entry = &mut index[from as usize * 4 + aux as usize];
            if *entry == u32::MAX {
                *entry = next;
            }
            let slot = *entry;
            if slot == next {
                // explore_with interns the initial marking unchecked.
                if !states.is_empty() && states.len() >= limit {
                    return Err(StgError::StateLimitExceeded(limit));
                }
                states.push((from, aux, flip));
            } else if states[slot as usize].2 != flip {
                return Err(inconsistent(
                    "a marking is reached with it both low and high",
                ));
            }
            Ok(slot)
        };

        let initial = pack_aux(self.initial.0, self.initial.1);
        visit(base.initial().0, initial, false, &mut states)?;
        let mut rounds = Rounds::default();
        let mut state = 0usize;
        while state < states.len() {
            rounds.expand(Some(budget), state, states.len())?;
            builder.start_row();
            let (from, aux, flip) = states[state];
            let m = base.packed_marking(StateId(from));
            let row = base.successors(StateId(from));
            row_transitions.clear();
            for (k, arc) in row.iter().enumerate() {
                let label = self.labels[slot(arc.event, stg.signal_count())];
                let next_aux = match label.touching {
                    None => Some(aux),
                    Some(t) if label.carriers == 1 => self.fire(t, m, aux),
                    Some(_) => {
                        if row_transitions.is_empty() {
                            row_transitions.extend(
                                net.transitions()
                                    .filter(|&t| net.is_enabled_packed(t, m, &self.base_layout)),
                            );
                        }
                        self.fire(row_transitions[k], m, aux)
                    }
                };
                let Some(next_aux) = next_aux else { continue };
                let to = visit(arc.to.0, next_aux, flip, &mut states)?;
                builder.push_arc(StateArc {
                    event: arc.event,
                    to: StateId(to),
                });
            }
            for edge in [Edge::Rise, Edge::Fall] {
                let Some(next_aux) = self.fire_x(edge == Edge::Rise, m, aux) else {
                    continue;
                };
                let initial = *x_initial.get_or_insert(edge.source_value());
                if initial ^ flip != edge.source_value() {
                    return Err(inconsistent(match edge {
                        Edge::Rise => "it rises where it is already high",
                        Edge::Fall => "it falls where it is already low",
                    }));
                }
                let to = visit(from, next_aux, !flip, &mut states)?;
                builder.push_arc(StateArc {
                    event: Some(SignalEvent::new(x, edge)),
                    to: StateId(to),
                });
            }
            state += 1;
        }
        let (offsets, arcs) = builder.finish();

        // Every other signal keeps the base's values: a consistent splice
        // can replay every run of the base with x's transitions fired as
        // soon as they are enabled, so each base edge is enabled
        // somewhere and the coded walk fixes what it fixed on the base.
        let x_initial = x_initial.unwrap_or(false);
        let codes = states
            .iter()
            .map(|&(from, _, flip)| {
                base.code(StateId(from)) | u64::from(x_initial ^ flip) << x.index()
            })
            .collect();
        let markings = states
            .iter()
            .map(|&(from, aux, _)| self.marking(base.packed_marking(StateId(from)), aux))
            .collect();
        Ok(StateGraph::from_csr_parts(
            stg.signals()
                .map(|s| stg.signal_name(s).to_string())
                .chain(std::iter::once(name.to_string()))
                .collect(),
            stg.signals()
                .map(|s| stg.signal_kind(s))
                .chain(std::iter::once(SignalKind::Internal))
                .collect(),
            codes,
            offsets,
            arcs,
            markings,
            self.layout,
            StateId(0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReachEngine;
    use crate::models;

    /// Same graph size, or the same error (an inconsistency by its
    /// signal).
    fn same_outcome(
        got: &Result<StateGraph, StgError>,
        want: &Result<StateGraph, StgError>,
    ) -> bool {
        match (got, want) {
            (Ok(a), Ok(b)) => a.state_count() == b.state_count() && a.arc_count() == b.arc_count(),
            (
                Err(StgError::Inconsistent { signal: a, .. }),
                Err(StgError::Inconsistent { signal: b, .. }),
            ) => a == b,
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    #[test]
    fn limits_and_budgets_stop_the_walk_where_the_rebuild_stops() {
        let stg = models::fifo_stg();
        let base = crate::explore(&stg).unwrap();
        assert_eq!(base.state_count(), 18);
        let mut stopped = 0;
        for (limit, max_states) in [
            (18, None),
            (21, None),
            (crate::reach::STATE_LIMIT, Some(18)),
            (crate::reach::STATE_LIMIT, Some(21)),
        ] {
            let budget = max_states.map_or(Budget::default(), |max| {
                Budget::default().with_max_states(max)
            });
            for splice in candidates(&stg) {
                let got = spliced_explore(&base, &stg, "x", splice, &budget, limit);
                let want = explore_capped(&splice.insert(&stg, "x"), &budget, limit);
                assert!(
                    same_outcome(&got, &want),
                    "{splice:?}: {:?} vs {:?}",
                    got.map(|g| g.state_count()),
                    want.map(|g| g.state_count())
                );
                stopped += usize::from(matches!(
                    want,
                    Err(StgError::StateLimitExceeded(_) | StgError::StateBudgetExceeded { .. })
                ));
            }
        }
        assert!(stopped > 100, "only {stopped} walks stopped by a limit");
    }

    #[test]
    fn a_cancelled_budget_stops_the_walk_before_it_starts() {
        let stg = models::fifo_stg();
        let base = crate::explore(&stg).unwrap();
        let mut engine = ReachEngine::explicit();
        engine.budget().cancel.cancel();
        for splice in candidates(&stg) {
            assert_eq!(
                engine
                    .spliced_state_graph(&base, &stg, "x", splice)
                    .unwrap_err(),
                StgError::Cancelled
            );
        }
        assert_eq!(engine.stats().graph_builds, candidates(&stg).len());
    }

    #[test]
    fn a_taken_name_is_a_typed_error() {
        let stg = models::fifo_stg();
        let base = crate::explore(&stg).unwrap();
        let splice = candidates(&stg)[0];
        assert_eq!(
            ReachEngine::explicit()
                .spliced_state_graph(&base, &stg, "li", splice)
                .unwrap_err(),
            StgError::DuplicateSignal("li".to_string())
        );
    }
}
