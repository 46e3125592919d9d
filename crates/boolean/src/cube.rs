//! Product terms in positional cube notation.
//!
//! A [`Cube`] over *n* ≤ 64 variables stores two bitmasks: `can0` (bit *i*
//! set when the cube admits variable *i* = 0) and `can1` (bit *i* set when
//! it admits variable *i* = 1). Per variable the four combinations mean:
//!
//! | `can0` | `can1` | meaning            |
//! |--------|--------|--------------------|
//! |   1    |   1    | don't care (`-`)   |
//! |   0    |   1    | positive literal   |
//! |   1    |   0    | negative literal   |
//! |   0    |   0    | empty cube (`∅`)   |

use std::fmt;

/// A product term (conjunction of literals) over up to 64 variables.
///
/// # Examples
///
/// ```
/// use rt_boolean::Cube;
///
/// // a · b̄ over 3 variables
/// let cube = Cube::from_literals(3, &[(0, true), (1, false)]);
/// assert!(cube.evaluate(0b001));  // a=1, b=0, c=0
/// assert!(cube.evaluate(0b101));  // c is free
/// assert!(!cube.evaluate(0b011)); // b=1 contradicts b̄
/// assert_eq!(cube.to_string(), "10-");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    vars: u32,
    can0: u64,
    can1: u64,
}

fn mask(vars: u32) -> u64 {
    if vars >= 64 {
        u64::MAX
    } else {
        (1u64 << vars) - 1
    }
}

impl Cube {
    /// The universal cube (all variables don't-care).
    ///
    /// # Panics
    ///
    /// Panics if `vars > 64`.
    pub fn full(vars: usize) -> Self {
        assert!(vars <= 64, "cube supports at most 64 variables");
        let vars = vars as u32;
        Cube {
            vars,
            can0: mask(vars),
            can1: mask(vars),
        }
    }

    /// Builds a cube from `(variable, positive)` literal pairs; unlisted
    /// variables are don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `vars > 64` or a variable index is out of range.
    pub fn from_literals(vars: usize, literals: &[(usize, bool)]) -> Self {
        let mut cube = Cube::full(vars);
        for &(var, positive) in literals {
            cube = cube.with_literal(var, positive);
        }
        cube
    }

    /// The minterm cube for `assignment` (every variable fixed).
    pub fn minterm(vars: usize, assignment: u64) -> Self {
        assert!(vars <= 64);
        let vars = vars as u32;
        let m = mask(vars);
        Cube {
            vars,
            can1: assignment & m,
            can0: !assignment & m,
        }
    }

    /// Constrains `var` to `positive`, returning the tightened cube.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with_literal(self, var: usize, positive: bool) -> Self {
        assert!((var as u32) < self.vars, "variable out of range");
        let bit = 1u64 << var;
        let mut cube = self;
        if positive {
            cube.can0 &= !bit;
        } else {
            cube.can1 &= !bit;
        }
        cube
    }

    /// Drops the literal on `var` (makes it don't-care).
    pub fn without_literal(self, var: usize) -> Self {
        assert!((var as u32) < self.vars, "variable out of range");
        let bit = 1u64 << var;
        Cube {
            vars: self.vars,
            can0: self.can0 | bit,
            can1: self.can1 | bit,
        }
    }

    /// Number of variables in the cube's space.
    pub fn vars(&self) -> usize {
        self.vars as usize
    }

    /// The literal on `var`: `None` = don't care, `Some(true)` = positive,
    /// `Some(false)` = negative. An empty position reports `Some(true)`
    /// and `Some(false)` never simultaneously; call [`Cube::is_empty`]
    /// first when emptiness matters.
    pub fn literal(&self, var: usize) -> Option<bool> {
        let bit = 1u64 << var;
        match (self.can0 & bit != 0, self.can1 & bit != 0) {
            (true, true) => None,
            (false, true) => Some(true),
            (true, false) => Some(false),
            (false, false) => None, // empty position; see is_empty
        }
    }

    /// Whether some variable position is contradictory (the cube denotes
    /// the empty set).
    pub fn is_empty(&self) -> bool {
        (self.can0 | self.can1) != mask(self.vars)
    }

    /// Whether the cube is the universal cube.
    pub fn is_full(&self) -> bool {
        self.can0 == mask(self.vars) && self.can1 == mask(self.vars)
    }

    /// Number of fixed literals.
    pub fn literal_count(&self) -> u32 {
        (self.can0 ^ self.can1).count_ones()
    }

    /// Whether the cube contains the minterm `assignment`.
    pub fn evaluate(&self, assignment: u64) -> bool {
        let m = mask(self.vars);
        let a = assignment & m;
        // Every 1-bit of the assignment must be admissible as 1 and every
        // 0-bit admissible as 0.
        a & !self.can1 == 0 && !a & m & !self.can0 == 0
    }

    /// Set containment: does `self` contain every minterm of `other`?
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.vars, other.vars);
        other.can0 & !self.can0 == 0 && other.can1 & !self.can1 == 0
    }

    /// Cube intersection (may be empty).
    pub fn intersect(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.vars, other.vars);
        Cube {
            vars: self.vars,
            can0: self.can0 & other.can0,
            can1: self.can1 & other.can1,
        }
    }

    /// Whether the two cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The smallest cube containing both (bitwise union of admissibility).
    pub fn supercube(&self, other: &Cube) -> Cube {
        debug_assert_eq!(self.vars, other.vars);
        Cube {
            vars: self.vars,
            can0: self.can0 | other.can0,
            can1: self.can1 | other.can1,
        }
    }

    /// The number of variable positions at which the intersection is
    /// contradictory. Distance 0 means the cubes intersect; distance 1
    /// enables consensus.
    pub fn distance(&self, other: &Cube) -> u32 {
        debug_assert_eq!(self.vars, other.vars);
        let inter0 = self.can0 & other.can0;
        let inter1 = self.can1 & other.can1;
        (!(inter0 | inter1) & mask(self.vars)).count_ones()
    }

    /// Consensus (resolvent) of two cubes, defined when their distance is
    /// exactly 1: the cube spanning both across the opposing variable.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        if self.distance(other) != 1 {
            return None;
        }
        let inter0 = self.can0 & other.can0;
        let inter1 = self.can1 & other.can1;
        let clash = !(inter0 | inter1) & mask(self.vars);
        Some(Cube {
            vars: self.vars,
            can0: inter0 | clash,
            can1: inter1 | clash,
        })
    }

    /// Positive/negative cofactor with respect to `var`: the cube with the
    /// `var` literal removed, or `None` if the cube requires the opposite
    /// value.
    pub fn cofactor(&self, var: usize, value: bool) -> Option<Cube> {
        let bit = 1u64 << var;
        let admissible = if value { self.can1 } else { self.can0 };
        if admissible & bit == 0 {
            return None;
        }
        Some(Cube {
            vars: self.vars,
            can0: self.can0 | bit,
            can1: self.can1 | bit,
        })
    }

    /// Iterates over the fixed literals as `(var, positive)` pairs.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..self.vars as usize).filter_map(move |v| self.literal(v).map(|p| (v, p)))
    }
}

impl fmt::Display for Cube {
    /// Positional string: `1` positive, `0` negative, `-` free,
    /// `∅` shown when the cube is empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for v in 0..self.vars as usize {
            let ch = match self.literal(v) {
                None => '-',
                Some(true) => '1',
                Some(false) => '0',
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cube_accepts_everything() {
        let cube = Cube::full(3);
        for a in 0..8 {
            assert!(cube.evaluate(a));
        }
        assert!(cube.is_full());
        assert!(!cube.is_empty());
        assert_eq!(cube.literal_count(), 0);
    }

    #[test]
    fn literals_constrain_evaluation() {
        let cube = Cube::from_literals(3, &[(0, true), (2, false)]);
        assert!(cube.evaluate(0b001));
        assert!(cube.evaluate(0b011));
        assert!(!cube.evaluate(0b101)); // c = 1 violates c̄
        assert!(!cube.evaluate(0b000)); // a = 0 violates a
        assert_eq!(cube.literal_count(), 2);
        assert_eq!(cube.to_string(), "1-0");
    }

    #[test]
    fn minterm_is_fully_fixed() {
        let cube = Cube::minterm(4, 0b1010);
        assert!(cube.evaluate(0b1010));
        for a in 0..16 {
            if a != 0b1010 {
                assert!(!cube.evaluate(a), "{a:b}");
            }
        }
        assert_eq!(cube.literal_count(), 4);
    }

    #[test]
    fn contradiction_makes_cube_empty() {
        let cube = Cube::full(2).with_literal(0, true).with_literal(0, false);
        assert!(cube.is_empty());
        assert_eq!(cube.to_string(), "∅");
        assert!(!cube.evaluate(0));
        assert!(!cube.evaluate(1));
    }

    #[test]
    fn containment_matches_semantics() {
        let big = Cube::from_literals(3, &[(0, true)]);
        let small = Cube::from_literals(3, &[(0, true), (1, false)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
        for a in 0..8u64 {
            if small.evaluate(a) {
                assert!(big.evaluate(a));
            }
        }
    }

    #[test]
    fn intersection_agrees_with_pointwise_and() {
        let x = Cube::from_literals(3, &[(0, true)]);
        let y = Cube::from_literals(3, &[(1, false)]);
        let i = x.intersect(&y);
        for a in 0..8u64 {
            assert_eq!(i.evaluate(a), x.evaluate(a) && y.evaluate(a));
        }
    }

    #[test]
    fn disjoint_cubes_have_empty_intersection() {
        let x = Cube::from_literals(2, &[(0, true)]);
        let y = Cube::from_literals(2, &[(0, false)]);
        assert!(!x.intersects(&y));
        assert_eq!(x.distance(&y), 1);
    }

    #[test]
    fn supercube_contains_both() {
        let x = Cube::from_literals(3, &[(0, true), (1, true)]);
        let y = Cube::from_literals(3, &[(0, true), (1, false), (2, true)]);
        let s = x.supercube(&y);
        assert!(s.contains(&x));
        assert!(s.contains(&y));
        // Tightest: keeps the shared literal a.
        assert_eq!(s.literal(0), Some(true));
        assert_eq!(s.literal(1), None);
    }

    #[test]
    fn consensus_on_adjacent_cubes() {
        // a·b and a·b̄ -> consensus a.
        let x = Cube::from_literals(2, &[(0, true), (1, true)]);
        let y = Cube::from_literals(2, &[(0, true), (1, false)]);
        let c = x.consensus(&y).expect("distance 1");
        assert_eq!(c, Cube::from_literals(2, &[(0, true)]));
        // Distance-2 cubes have no consensus.
        let z = Cube::from_literals(2, &[(0, false), (1, false)]);
        assert_eq!(x.consensus(&z), None);
    }

    #[test]
    fn cofactor_removes_literal_or_vanishes() {
        let cube = Cube::from_literals(3, &[(0, true), (1, false)]);
        let pos = cube.cofactor(0, true).expect("compatible");
        assert_eq!(pos.literal(0), None);
        assert_eq!(pos.literal(1), Some(false));
        assert!(cube.cofactor(0, false).is_none());
        // Cofactor on a free variable keeps everything else.
        let free = cube.cofactor(2, true).expect("free var");
        assert_eq!(free.literal(1), Some(false));
    }

    #[test]
    fn literal_iteration_roundtrip() {
        let lits = [(1usize, false), (3usize, true)];
        let cube = Cube::from_literals(5, &lits);
        let collected: Vec<_> = cube.literals().collect();
        assert_eq!(collected, vec![(1, false), (3, true)]);
        let rebuilt = Cube::from_literals(5, &collected);
        assert_eq!(rebuilt, cube);
    }

    #[test]
    fn sixty_four_variable_cube() {
        let cube = Cube::full(64).with_literal(63, true);
        assert!(cube.evaluate(u64::MAX));
        assert!(!cube.evaluate(u64::MAX >> 1));
    }
}
