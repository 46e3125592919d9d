//! Sum-of-products covers.

use std::fmt;

use crate::cube::Cube;

/// A sum-of-products: a disjunction of [`Cube`]s over a fixed variable
/// count.
///
/// # Examples
///
/// ```
/// use rt_boolean::{Cover, Cube};
///
/// // f = a·b + c̄  over (a, b, c)
/// let f = Cover::from_cubes(3, vec![
///     Cube::from_literals(3, &[(0, true), (1, true)]),
///     Cube::from_literals(3, &[(2, false)]),
/// ]);
/// assert!(f.evaluate(0b011));  // a·b
/// assert!(f.evaluate(0b000));  // c̄
/// assert!(!f.evaluate(0b100)); // only c set
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty(vars: usize) -> Self {
        Cover {
            vars,
            cubes: Vec::new(),
        }
    }

    /// The universal cover (constant 1).
    pub fn one(vars: usize) -> Self {
        Cover {
            vars,
            cubes: vec![Cube::full(vars)],
        }
    }

    /// Builds a cover from cubes, dropping empty ones.
    ///
    /// # Panics
    ///
    /// Panics if a cube's variable count differs from `vars`.
    pub fn from_cubes(vars: usize, cubes: Vec<Cube>) -> Self {
        for cube in &cubes {
            assert_eq!(cube.vars(), vars, "cube arity mismatch");
        }
        let cubes = cubes.into_iter().filter(|c| !c.is_empty()).collect();
        Cover { vars, cubes }
    }

    /// Builds a cover holding exactly the given minterms.
    pub fn from_minterms(vars: usize, minterms: &[u64]) -> Self {
        Cover {
            vars,
            cubes: minterms.iter().map(|&m| Cube::minterm(vars, m)).collect(),
        }
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals — the standard area proxy for two-level
    /// logic.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(|c| c.literal_count() as usize).sum()
    }

    /// Whether the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Adds a cube (ignored if empty).
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.vars(), self.vars, "cube arity mismatch");
        if !cube.is_empty() {
            self.cubes.push(cube);
        }
    }

    /// Function evaluation at a minterm.
    pub fn evaluate(&self, assignment: u64) -> bool {
        self.cubes.iter().any(|c| c.evaluate(assignment))
    }

    /// Disjunction of two covers.
    pub fn or(&self, other: &Cover) -> Cover {
        debug_assert_eq!(self.vars, other.vars);
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().copied());
        Cover {
            vars: self.vars,
            cubes,
        }
    }

    /// Conjunction of two covers (pairwise cube intersection).
    pub fn and(&self, other: &Cover) -> Cover {
        debug_assert_eq!(self.vars, other.vars);
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                let i = a.intersect(b);
                if !i.is_empty() {
                    cubes.push(i);
                }
            }
        }
        Cover {
            vars: self.vars,
            cubes,
        }
    }

    /// Cofactor of the cover with respect to a literal.
    pub fn cofactor(&self, var: usize, value: bool) -> Cover {
        Cover {
            vars: self.vars,
            cubes: self
                .cubes
                .iter()
                .filter_map(|c| c.cofactor(var, value))
                .collect(),
        }
    }

    /// Tautology check: does the cover evaluate to 1 everywhere?
    ///
    /// Uses recursive Shannon expansion on the most-bound variable with a
    /// unate shortcut; exact for any cover.
    pub fn is_tautology(&self) -> bool {
        // Fast positive check: a full cube.
        if self.cubes.iter().any(Cube::is_full) {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        // Pick the variable appearing in the most literals.
        let mut counts = vec![0usize; self.vars];
        for cube in &self.cubes {
            for (v, _) in cube.literals() {
                counts[v] += 1;
            }
        }
        let (var, &count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("at least one variable");
        if count == 0 {
            // No literals anywhere but no full cube: only possible when
            // vars = 0 and there is a cube (which would be full). Treat
            // defensively:
            return self.cubes.iter().any(|c| !c.is_empty());
        }
        self.cofactor(var, false).is_tautology() && self.cofactor(var, true).is_tautology()
    }

    /// Does the cover contain (cover) the whole cube?
    pub fn contains_cube(&self, cube: &Cube) -> bool {
        // f ⊇ c  iff  f cofactored by c is a tautology.
        let mut reduced = self.clone();
        for (var, value) in cube.literals() {
            reduced = reduced.cofactor(var, value);
        }
        reduced.is_tautology()
    }

    /// Set containment of covers: `self ⊇ other`.
    pub fn contains_cover(&self, other: &Cover) -> bool {
        other.cubes.iter().all(|c| self.contains_cube(c))
    }

    /// Logical equivalence of two covers.
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.contains_cover(other) && other.contains_cover(self)
    }

    /// Complement via Shannon expansion:
    /// `¬f = x̄·¬(f|x=0) + x·¬(f|x=1)`.
    pub fn complement(&self) -> Cover {
        complement_rec(self)
    }

    /// Removes cubes contained in another single cube of the cover.
    pub fn single_cube_containment(&self) -> Cover {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for (j, keep_j) in keep.iter_mut().enumerate() {
                if i != j
                    && *keep_j
                    && self.cubes[i].contains(&self.cubes[j])
                    && (!self.cubes[j].contains(&self.cubes[i]) || i < j)
                {
                    *keep_j = false;
                }
            }
        }
        Cover {
            vars: self.vars,
            cubes: self
                .cubes
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(c, _)| *c)
                .collect(),
        }
    }

    /// Renders the cover as a sum of products over the given variable
    /// names, e.g. `a·b̄ + c`.
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != vars`.
    pub fn to_expression(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.vars, "one name per variable required");
        if self.cubes.is_empty() {
            return "0".to_string();
        }
        let terms: Vec<String> = self
            .cubes
            .iter()
            .map(|cube| {
                let lits: Vec<String> = cube
                    .literals()
                    .map(|(v, pos)| {
                        if pos {
                            names[v].to_string()
                        } else {
                            format!("{}'", names[v])
                        }
                    })
                    .collect();
                if lits.is_empty() {
                    "1".to_string()
                } else {
                    lits.join("·")
                }
            })
            .collect();
        terms.join(" + ")
    }
}

fn complement_rec(cover: &Cover) -> Cover {
    let vars = cover.vars();
    if cover.is_empty() {
        return Cover::one(vars);
    }
    if cover.cubes().iter().any(Cube::is_full) {
        return Cover::empty(vars);
    }
    // Choose the most frequent variable to branch on. A non-empty,
    // non-full cube always carries at least one literal, so `var` exists.
    let mut counts = vec![0usize; vars];
    for cube in cover.cubes() {
        for (v, _) in cube.literals() {
            counts[v] += 1;
        }
    }
    let var = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(v, _)| v)
        .expect("nonzero vars");
    let mut out = Vec::new();
    for value in [false, true] {
        let comp = complement_rec(&cover.cofactor(var, value));
        for cube in comp.cubes() {
            let c = cube.with_literal(var, value);
            if !c.is_empty() {
                out.push(c);
            }
        }
    }
    Cover::from_cubes(vars, out).single_cube_containment()
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        let rows: Vec<String> = self.cubes.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", rows.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_equal(a: &Cover, b: &Cover) {
        assert_eq!(a.vars(), b.vars());
        for m in 0..(1u64 << a.vars()) {
            assert_eq!(a.evaluate(m), b.evaluate(m), "mismatch at {m:b}");
        }
    }

    #[test]
    fn constants() {
        let zero = Cover::empty(3);
        let one = Cover::one(3);
        for m in 0..8 {
            assert!(!zero.evaluate(m));
            assert!(one.evaluate(m));
        }
        assert!(one.is_tautology());
        assert!(!zero.is_tautology());
    }

    #[test]
    fn or_and_match_semantics() {
        let f = Cover::from_cubes(3, vec![Cube::from_literals(3, &[(0, true)])]);
        let g = Cover::from_cubes(3, vec![Cube::from_literals(3, &[(1, false)])]);
        let f_or_g = f.or(&g);
        let f_and_g = f.and(&g);
        for m in 0..8u64 {
            assert_eq!(f_or_g.evaluate(m), f.evaluate(m) || g.evaluate(m));
            assert_eq!(f_and_g.evaluate(m), f.evaluate(m) && g.evaluate(m));
        }
    }

    #[test]
    fn tautology_of_complementary_literals() {
        let f = Cover::from_cubes(
            1,
            vec![
                Cube::from_literals(1, &[(0, true)]),
                Cube::from_literals(1, &[(0, false)]),
            ],
        );
        assert!(f.is_tautology());
    }

    #[test]
    fn non_tautology_detected() {
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(1, true)]),
            ],
        );
        assert!(!f.is_tautology()); // 00 not covered
    }

    #[test]
    fn cube_containment_in_cover() {
        // f = a + b covers cube a·b̄ but not the full cube.
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(1, true)]),
            ],
        );
        assert!(f.contains_cube(&Cube::from_literals(2, &[(0, true), (1, false)])));
        assert!(!f.contains_cube(&Cube::full(2)));
    }

    #[test]
    fn complement_is_exhaustively_correct() {
        // f = a·b + c̄ over three variables.
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, true)]),
                Cube::from_literals(3, &[(2, false)]),
            ],
        );
        let not_f = f.complement();
        for m in 0..8u64 {
            assert_eq!(not_f.evaluate(m), !f.evaluate(m), "at {m:03b}");
        }
        // Double complement is equivalent to the original.
        exhaustive_equal(&not_f.complement(), &f);
    }

    #[test]
    fn complement_of_constants() {
        exhaustive_equal(&Cover::empty(2).complement(), &Cover::one(2));
        exhaustive_equal(&Cover::one(2).complement(), &Cover::empty(2));
    }

    #[test]
    fn single_cube_containment_removes_redundancy() {
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(0, true), (1, true)]), // contained
            ],
        );
        let reduced = f.single_cube_containment();
        assert_eq!(reduced.cube_count(), 1);
        exhaustive_equal(&reduced, &f);
    }

    #[test]
    fn duplicate_cubes_collapse() {
        let c = Cube::from_literals(2, &[(0, true)]);
        let f = Cover::from_cubes(2, vec![c, c]);
        assert_eq!(f.single_cube_containment().cube_count(), 1);
    }

    #[test]
    fn equivalence_and_containment() {
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true), (1, true)]),
                Cube::from_literals(2, &[(0, true), (1, false)]),
            ],
        );
        let g = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(0, true)])]);
        assert!(f.equivalent(&g));
        assert!(g.contains_cover(&f));
        let h = Cover::one(2);
        assert!(h.contains_cover(&f));
        assert!(!f.contains_cover(&h));
    }

    #[test]
    fn expression_rendering() {
        let f = Cover::from_cubes(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, false)]),
                Cube::from_literals(3, &[(2, true)]),
            ],
        );
        assert_eq!(f.to_expression(&["a", "b", "c"]), "a·b' + c");
        assert_eq!(Cover::empty(1).to_expression(&["x"]), "0");
        assert_eq!(Cover::one(1).to_expression(&["x"]), "1");
    }

    #[test]
    fn from_minterms_matches_evaluation() {
        let f = Cover::from_minterms(3, &[0b000, 0b101]);
        for m in 0..8u64 {
            assert_eq!(f.evaluate(m), m == 0b000 || m == 0b101);
        }
    }
}
