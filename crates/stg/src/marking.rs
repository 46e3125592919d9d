//! Packed markings and the interning arena behind reachability analysis.
//!
//! The explicit analyser visits every reachable marking of the net; with
//! markings as heap-allocated `Vec<u16>` token vectors, each visited
//! state costs an allocation, a full-vector hash and a full-vector
//! equality compare. A [`PackedMarking`] instead packs the marking of a
//! safe net into inline `u64` words under a [`MarkingLayout`] computed
//! once per net:
//!
//! * **one bit per place**, bit *i* of the word stream set exactly when
//!   place *i* holds its token, so any net with ≤ 64 places fits one
//!   register — copying, hashing and comparing a marking are single-word
//!   operations and firing a transition performs **zero heap
//!   allocations**;
//! * wider nets spill to 2- and 4-word inline variants before falling
//!   back to a boxed slice;
//! * the [`MarkingArena`] deduplicates markings, handing exploration a
//!   dense 4-byte [`MarkingId`] so downstream tables key on ids, not
//!   token vectors.
//!
//! Every walk takes safe nets only: it rejects an initial marking with
//! two tokens on a place, and a firing that would put a second token on
//! one, as [`crate::StgError::Unbounded`] (see [`crate::reach`]).

use std::fmt;
use std::hash::Hash;

use rt_boolean::fxhash::FxHashMap;

use crate::petri::{Marking, PlaceId};

/// Index of an interned marking inside a [`MarkingArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MarkingId(pub u32);

impl MarkingId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MarkingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Bit-packing scheme for the markings of one safe net: one bit per
/// place, 64 places to a `u64` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkingLayout {
    places: usize,
    words: usize,
}

impl MarkingLayout {
    /// The layout for a safe net with `places` places.
    pub fn new(places: usize) -> Self {
        MarkingLayout {
            places,
            words: places.div_ceil(64).max(1),
        }
    }

    /// Number of places covered.
    pub fn places(&self) -> usize {
        self.places
    }

    /// Number of `u64` words a packed marking occupies.
    pub fn words(&self) -> usize {
        self.words
    }

    #[inline]
    fn slot(&self, place: usize) -> (usize, u32) {
        debug_assert!(place < self.places, "place out of range");
        (place / 64, (place % 64) as u32)
    }
}

/// A safe marking bit-packed into inline words.
///
/// Equality and hashing operate on the packed words directly; two packed
/// markings compare equal iff they mark the same places (under the same
/// [`MarkingLayout`] — mixing layouts is a logic error).
///
/// # Examples
///
/// ```
/// use rt_stg::marking::{MarkingLayout, PackedMarking};
/// use rt_stg::{Marking, PlaceId};
///
/// let layout = MarkingLayout::new(10); // one bit per place
/// let mut m = Marking::empty(10);
/// m.set(PlaceId(3), 1);
/// let packed = PackedMarking::pack(&layout, &m);
/// assert_eq!(packed.tokens(&layout, PlaceId(3)), 1);
/// assert_eq!(packed.unpack(&layout), m);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PackedMarking {
    /// Up to 64 packed bits — one register, `Copy`-cheap, no heap.
    W1(u64),
    /// Up to 128 packed bits.
    W2([u64; 2]),
    /// Up to 256 packed bits.
    W4([u64; 4]),
    /// Arbitrarily wide nets (heap-allocated; the slow path).
    Big(Box<[u64]>),
}

impl PackedMarking {
    /// The all-zero marking under `layout`.
    pub fn zero(layout: &MarkingLayout) -> Self {
        match layout.words {
            1 => PackedMarking::W1(0),
            2 => PackedMarking::W2([0; 2]),
            3 | 4 => PackedMarking::W4([0; 4]),
            n => PackedMarking::Big(vec![0; n].into_boxed_slice()),
        }
    }

    /// Packs a dense token vector.
    ///
    /// # Panics
    ///
    /// Panics if `marking` covers a different number of places than
    /// `layout`, or puts more than one token on a place.
    pub fn pack(layout: &MarkingLayout, marking: &Marking) -> Self {
        assert_eq!(
            marking.len(),
            layout.places,
            "marking/layout place count mismatch"
        );
        let mut packed = PackedMarking::zero(layout);
        for (place, tokens) in marking.marked_places() {
            assert!(
                tokens <= 1,
                "token count {tokens} exceeds layout capacity 1"
            );
            packed.set_tokens(layout, place, tokens);
        }
        packed
    }

    /// Unpacks into a dense token vector (allocates; diagnostics only).
    pub fn unpack(&self, layout: &MarkingLayout) -> Marking {
        let mut tokens = vec![0u16; layout.places];
        for (place, slot) in tokens.iter_mut().enumerate() {
            *slot = self.tokens(layout, PlaceId(place as u32));
        }
        Marking::from_tokens(tokens)
    }

    /// The raw packed words backing the marking: bit *i* of the word
    /// stream is exactly "place *i* is marked", which makes the words a
    /// direct variable assignment for the symbolic reachable set
    /// ([`rt_boolean::Bdd::evaluate_words`]).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match self {
            PackedMarking::W1(w) => std::slice::from_ref(w),
            PackedMarking::W2(w) => w,
            PackedMarking::W4(w) => w,
            PackedMarking::Big(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            PackedMarking::W1(w) => std::slice::from_mut(w),
            PackedMarking::W2(w) => w,
            PackedMarking::W4(w) => w,
            PackedMarking::Big(w) => w,
        }
    }

    /// Tokens on `place`: 0 or 1.
    #[inline]
    pub fn tokens(&self, layout: &MarkingLayout, place: PlaceId) -> u16 {
        let (word, shift) = layout.slot(place.index());
        (self.words()[word] >> shift & 1) as u16
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `count` is 0 or 1.
    #[inline]
    pub fn set_tokens(&mut self, layout: &MarkingLayout, place: PlaceId, count: u16) {
        debug_assert!(count <= 1, "token count exceeds layout capacity 1");
        let (word, shift) = layout.slot(place.index());
        let w = &mut self.words_mut()[word];
        *w = (*w & !(1 << shift)) | (u64::from(count) << shift);
    }
}

/// Interning arena: deduplicates packed markings and hands out dense
/// [`MarkingId`]s, so exploration's visited-set operations hash packed
/// words once and thereafter compare 4-byte ids.
#[derive(Debug, Clone)]
pub struct MarkingArena {
    layout: MarkingLayout,
    index: FxHashMap<PackedMarking, MarkingId>,
    items: Vec<PackedMarking>,
}

impl MarkingArena {
    /// An empty arena for `layout`, pre-sized for `capacity` markings so
    /// early exploration does not rehash.
    pub fn with_capacity(layout: MarkingLayout, capacity: usize) -> Self {
        MarkingArena {
            layout,
            index: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            items: Vec::with_capacity(capacity),
        }
    }

    /// The arena's layout.
    pub fn layout(&self) -> &MarkingLayout {
        &self.layout
    }

    /// Number of distinct markings interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the arena holds no markings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Interns `marking`, returning its id and whether it was new.
    pub fn intern(&mut self, marking: PackedMarking) -> (MarkingId, bool) {
        if let Some(&id) = self.index.get(&marking) {
            return (id, false);
        }
        let id = MarkingId(self.items.len() as u32);
        self.index.insert(marking.clone(), id);
        self.items.push(marking);
        (id, true)
    }

    /// Interns by reference: probes first and clones only on a miss, so
    /// re-visiting a known marking never copies it. This is the
    /// exploration fast path — hits are O(arcs), misses only O(states) —
    /// and it keeps spilled (boxed) layouts allocation-free on hits too.
    pub fn intern_ref(&mut self, marking: &PackedMarking) -> (MarkingId, bool) {
        if let Some(&id) = self.index.get(marking) {
            return (id, false);
        }
        let id = MarkingId(self.items.len() as u32);
        self.index.insert(marking.clone(), id);
        self.items.push(marking.clone());
        (id, true)
    }

    /// Looks up an already-interned marking's id.
    pub fn get(&self, marking: &PackedMarking) -> Option<MarkingId> {
        self.index.get(marking).copied()
    }

    /// The marking behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    pub fn resolve(&self, id: MarkingId) -> &PackedMarking {
        &self.items[id.index()]
    }

    /// Consumes the arena, returning the interned markings in id order.
    pub fn into_markings(self) -> Vec<PackedMarking> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_net_layout_is_one_bit_per_place() {
        let layout = MarkingLayout::new(64);
        assert_eq!(layout.words(), 1);
        assert!(matches!(PackedMarking::zero(&layout), PackedMarking::W1(0)));
        let mut m = Marking::empty(64);
        m.set(PlaceId(5), 1);
        m.set(PlaceId(63), 1);
        let packed = PackedMarking::pack(&layout, &m);
        assert_eq!(packed.words(), &[1 << 5 | 1 << 63]);
    }

    #[test]
    fn wide_nets_spill_to_larger_variants() {
        assert!(matches!(
            PackedMarking::zero(&MarkingLayout::new(65)),
            PackedMarking::W2(_)
        ));
        assert!(matches!(
            PackedMarking::zero(&MarkingLayout::new(200)),
            PackedMarking::W4(_)
        ));
        assert!(matches!(
            PackedMarking::zero(&MarkingLayout::new(300)),
            PackedMarking::Big(_)
        ));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let layout = MarkingLayout::new(70);
        let m = Marking::from_tokens((0..70).map(|p| u16::from(p % 3 == 1)).collect());
        let packed = PackedMarking::pack(&layout, &m);
        assert_eq!(packed.unpack(&layout), m);
        for p in 0..70 {
            assert_eq!(packed.tokens(&layout, PlaceId(p)), m.tokens(PlaceId(p)));
        }
    }

    #[test]
    fn set_tokens_updates_single_field() {
        let layout = MarkingLayout::new(20);
        let mut packed = PackedMarking::zero(&layout);
        packed.set_tokens(&layout, PlaceId(13), 1);
        assert_eq!(packed.tokens(&layout, PlaceId(13)), 1);
        assert_eq!(packed.tokens(&layout, PlaceId(12)), 0);
        assert_eq!(packed.tokens(&layout, PlaceId(14)), 0);
        packed.set_tokens(&layout, PlaceId(13), 0);
        assert_eq!(packed, PackedMarking::zero(&layout));
    }

    #[test]
    #[should_panic(expected = "exceeds layout capacity")]
    fn pack_rejects_overflowing_tokens() {
        let layout = MarkingLayout::new(3);
        let m = Marking::from_tokens(vec![0, 2, 0]);
        let _ = PackedMarking::pack(&layout, &m);
    }

    #[test]
    fn arena_interns_and_deduplicates() {
        let layout = MarkingLayout::new(8);
        let mut arena = MarkingArena::with_capacity(layout, 16);
        let mut a = PackedMarking::zero(&layout);
        a.set_tokens(&layout, PlaceId(2), 1);
        let (id1, fresh1) = arena.intern(a.clone());
        let (id2, fresh2) = arena.intern(a.clone());
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(id1, id2);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.resolve(id1), &a);
        assert_eq!(arena.get(&a), Some(id1));
        assert_eq!(arena.get(&PackedMarking::zero(&layout)), None);
    }
}
