//! A fast non-cryptographic hasher for hot-path hash tables.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is robust
//! against hash-flooding but costs tens of cycles per key. The state-space
//! hot paths hash millions of small fixed-size keys (packed markings),
//! where an FxHash-style multiply-rotate mix is several times faster and
//! collision quality is more than adequate. (The BDD manager's own
//! tables are flat arrays with their own mix; see [`crate::bdd`].) Keys
//! are never attacker-controlled here — they come from the net being
//! analysed — so DoS resistance buys nothing.
//!
//! This is an in-repo reimplementation of the well-known `rustc-hash`
//! algorithm (no external dependency).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from `rustc-hash` (derived from the golden
/// ratio, chosen for good bit diffusion under wrapping multiply).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: rotate-xor-multiply over 8-byte chunks.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
        assert_eq!(hash_of(&vec![1u16, 2, 3]), hash_of(&vec![1u16, 2, 3]));
    }

    #[test]
    fn nearby_values_hash_differently() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(
            seen.len(),
            1000,
            "no collisions among small sequential keys"
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(7, "seven");
        assert_eq!(map.get(&7), Some(&"seven"));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(9));
        assert!(!set.insert(9));
    }

    #[test]
    fn byte_slices_of_unaligned_length() {
        let a = hash_of(&b"hello world"[..]);
        let b = hash_of(&b"hello worle"[..]);
        assert_ne!(a, b);
    }
}
