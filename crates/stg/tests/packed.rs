//! Property tests for the packed-marking representation: `PackedMarking`
//! must be a faithful, hash-compatible stand-in for the dense `Marking`
//! token vectors of safe nets it replaced in the reachability hot path.

use proptest::prelude::*;
use rt_boolean::fxhash::FxBuildHasher;
use rt_stg::marking::{MarkingArena, MarkingLayout, PackedMarking};
use rt_stg::{Marking, PlaceId};
use std::hash::BuildHasher;

fn fx_hash(p: &PackedMarking) -> u64 {
    FxBuildHasher::default().hash_one(p)
}

/// Maps raw u16s onto safe token counts (0 or 1).
fn safe_tokens(raw: &[u16]) -> Vec<u16> {
    raw.iter().map(|&r| r % 2).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pack → unpack is the identity, and per-place reads agree, across
    /// random safe markings and place counts (1..=300 spans all four
    /// variants).
    fn pack_unpack_roundtrip(
        raw in prop::collection::vec(any::<u16>(), 1..300),
    ) {
        let tokens = safe_tokens(&raw);
        let layout = MarkingLayout::new(tokens.len());
        let marking = Marking::from_tokens(tokens.clone());
        let packed = PackedMarking::pack(&layout, &marking);
        prop_assert_eq!(packed.unpack(&layout), marking);
        for (i, &t) in tokens.iter().enumerate() {
            prop_assert_eq!(packed.tokens(&layout, PlaceId(i as u32)), t);
            prop_assert_eq!(packed.words()[i / 64] >> (i % 64) & 1, u64::from(t));
        }
    }

    /// Packed equality coincides with token-vector equality, and equal
    /// packed markings hash identically (the arena's table correctness
    /// depends on both), on every variant (1..=300 places).
    fn hash_and_equality_agree_with_marking(
        raw_a in prop::collection::vec(any::<u16>(), 1..300),
        raw_b in prop::collection::vec(any::<u16>(), 1..300),
        flip_raw in any::<u16>(),
    ) {
        // Same layout requires same place count; reuse a's length.
        let places = raw_a.len();
        let a = safe_tokens(&raw_a);
        let mut b = safe_tokens(&raw_b);
        b.resize(places, 0);
        let layout = MarkingLayout::new(places);
        let ma = Marking::from_tokens(a.clone());
        let mb = Marking::from_tokens(b);
        let pa = PackedMarking::pack(&layout, &ma);
        let pb = PackedMarking::pack(&layout, &mb);
        prop_assert_eq!(ma == mb, pa == pb);
        if pa == pb {
            prop_assert_eq!(fx_hash(&pa), fx_hash(&pb));
        }
        // Random markings are rarely equal: repacking `a` always is, and
        // flipping one place, in any word, always breaks equality.
        let same = PackedMarking::pack(&layout, &Marking::from_tokens(a.clone()));
        prop_assert_eq!(&pa, &same);
        prop_assert_eq!(fx_hash(&pa), fx_hash(&same));
        let mut flipped = a;
        flipped[usize::from(flip_raw) % places] ^= 1;
        prop_assert_ne!(pa, PackedMarking::pack(&layout, &Marking::from_tokens(flipped)));
    }

    /// Mutating one place via `set_tokens` equals repacking the mutated
    /// dense vector, on every variant (1..=300 places).
    fn set_tokens_matches_repack(
        raw in prop::collection::vec(any::<u16>(), 1..300),
        place_raw in any::<u16>(),
        new_count_raw in any::<u16>(),
    ) {
        let tokens = safe_tokens(&raw);
        let place = usize::from(place_raw) % tokens.len();
        let new_count = new_count_raw % 2;
        let layout = MarkingLayout::new(tokens.len());
        let mut packed = PackedMarking::pack(&layout, &Marking::from_tokens(tokens.clone()));
        packed.set_tokens(&layout, PlaceId(place as u32), new_count);
        let mut mutated = tokens;
        mutated[place] = new_count;
        let expected = PackedMarking::pack(&layout, &Marking::from_tokens(mutated));
        prop_assert_eq!(packed, expected);
    }

    /// The arena is a bijection between distinct markings and dense ids.
    fn arena_ids_biject_with_distinct_markings(
        raws in prop::collection::vec(prop::collection::vec(any::<u16>(), 8), 1..40),
    ) {
        let layout = MarkingLayout::new(8);
        let mut arena = MarkingArena::with_capacity(layout, 16);
        let mut reference: Vec<Vec<u16>> = Vec::new();
        for raw in &raws {
            let tokens = safe_tokens(raw);
            let packed =
                PackedMarking::pack(&layout, &Marking::from_tokens(tokens.clone()));
            let (id, fresh) = arena.intern(packed.clone());
            match reference.iter().position(|t| *t == tokens) {
                Some(pos) => {
                    prop_assert!(!fresh);
                    prop_assert_eq!(id.index(), pos);
                }
                None => {
                    prop_assert!(fresh);
                    prop_assert_eq!(id.index(), reference.len());
                    reference.push(tokens);
                }
            }
            prop_assert_eq!(arena.resolve(id), &packed);
        }
        prop_assert_eq!(arena.len(), reference.len());
    }
}
