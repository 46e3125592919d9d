//! An espresso-style heuristic two-level minimizer.
//!
//! Given an on-set cover `F` and a don't-care cover `D`, [`minimize`]
//! returns a cover `G` with `F ⊆ G ⊆ F ∪ D` (the care semantics are
//! preserved) using the classic loop:
//!
//! 1. **EXPAND** — enlarge each cube against the off-set
//!    `R = ¬(F ∪ D)` so it covers as many minterms as possible;
//! 2. **IRREDUNDANT** — drop cubes covered by the rest of the cover;
//! 3. **REDUCE** — shrink cubes to open fresh expansion directions;
//!
//! iterating while the cost (cube count, then literal count) improves.
//! This is the work-horse behind next-state-function derivation in
//! `rt-synth`: the don't-care set is where relative timing pays off — RT
//! assumptions prune reachable states, growing `D` and shrinking `G`
//! (Section 3 of the paper).

use crate::cover::Cover;
use crate::cube::Cube;

/// Minimizes `on` against the don't-care set `dc`.
///
/// The result covers every on-set minterm, avoids every off-set minterm,
/// and is free to cover don't-cares.
///
/// # Panics
///
/// Panics if the covers have different variable counts.
///
/// # Examples
///
/// ```
/// use rt_boolean::{minimize, Cover, Cube};
///
/// // f = ab + ab̄ + āb  with don't care āb̄ : minimizes to constant 1.
/// let on = Cover::from_cubes(2, vec![
///     Cube::from_literals(2, &[(0, true), (1, true)]),
///     Cube::from_literals(2, &[(0, true), (1, false)]),
///     Cube::from_literals(2, &[(0, false), (1, true)]),
/// ]);
/// let dc = Cover::from_cubes(2, vec![
///     Cube::from_literals(2, &[(0, false), (1, false)]),
/// ]);
/// let g = minimize(&on, &dc);
/// assert_eq!(g.cube_count(), 1);
/// assert_eq!(g.literal_count(), 0); // the universal cube
/// ```
pub fn minimize(on: &Cover, dc: &Cover) -> Cover {
    assert_eq!(on.vars(), dc.vars(), "on/dc arity mismatch");
    let vars = on.vars();
    if on.is_empty() {
        return Cover::empty(vars);
    }
    let off = on.or(dc).complement();
    if off.is_empty() {
        return Cover::one(vars);
    }

    let order = expansion_order(&off);
    let mut current = on.single_cube_containment();
    let mut best: Option<Cover> = None;
    let mut best_cost = (usize::MAX, usize::MAX);
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let expanded = expand(&current, &off, &order);
        let trimmed = irredundant(&expanded, on);
        let cost = (trimmed.cube_count(), trimmed.literal_count());
        if cost < best_cost {
            best_cost = cost;
            best = Some(trimmed.clone());
        } else {
            break; // no improvement this sweep
        }
        if sweeps >= 8 {
            break;
        }
        // REDUCE to open fresh expansion directions for the next sweep.
        current = reduce(&trimmed, on);
    }
    best.unwrap_or(current)
}

/// The order in which EXPAND tries to drop literals: ascending by how
/// often the variable is constrained in the off-set (least-blocking
/// first) — the classic espresso expansion-ordering heuristic. The
/// off-set is fixed for a whole [`minimize`] call, so so is the order.
fn expansion_order(off: &Cover) -> Vec<usize> {
    let mut off_freq = vec![0usize; off.vars()];
    for o in off.cubes() {
        for (var, _) in o.literals() {
            off_freq[var] += 1;
        }
    }
    let mut order: Vec<usize> = (0..off.vars()).collect();
    order.sort_by_key(|&v| off_freq[v]);
    order
}

/// EXPAND: for each cube, greedily remove literals in `order` while the
/// cube stays disjoint from the off-set, iterating to a fixpoint, then
/// drop cubes contained in earlier expanded ones.
fn expand(cover: &Cover, off: &Cover, order: &[usize]) -> Cover {
    let vars = cover.vars();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    // Expand biggest cubes first: they are most likely to swallow others.
    cubes.sort_by_key(|c| c.literal_count());
    let mut out: Vec<Cube> = Vec::new();
    'next_cube: for &cube in &cubes {
        if out.iter().any(|c| c.contains(&cube)) {
            continue 'next_cube;
        }
        let mut expanded = cube;
        loop {
            let mut dropped = false;
            for &var in order {
                if expanded.literal(var).is_none() {
                    continue;
                }
                let candidate = expanded.without_literal(var);
                let clashes = off.cubes().iter().any(|o| o.intersects(&candidate));
                if !clashes {
                    expanded = candidate;
                    dropped = true;
                }
            }
            if !dropped {
                break;
            }
        }
        out.retain(|c| !expanded.contains(c));
        out.push(expanded);
    }
    Cover::from_cubes(vars, out)
}

/// IRREDUNDANT: greedily remove cubes whose on-set contribution is covered
/// by the remaining cubes (relative to the original on-set).
fn irredundant(cover: &Cover, on: &Cover) -> Cover {
    let vars = cover.vars();
    let cubes: Vec<Cube> = cover.cubes().to_vec();
    let mut keep = vec![true; cubes.len()];
    // Try to remove the biggest-literal-count (most specific) cubes first.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));
    for &candidate in &order {
        let without: Vec<Cube> = cubes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != candidate && keep[*i])
            .map(|(_, c)| *c)
            .collect();
        let reduced = Cover::from_cubes(vars, without);
        // The candidate is redundant if every on-set minterm it covers is
        // still covered: reduced ⊇ (on ∩ candidate).
        let needed = on.and(&Cover::from_cubes(vars, vec![cubes[candidate]]));
        if reduced.contains_cover(&needed) {
            keep[candidate] = false;
        }
    }
    Cover::from_cubes(
        vars,
        cubes
            .into_iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(c, _)| c)
            .collect(),
    )
}

/// REDUCE: shrink each cube to the smallest cube still covering its share
/// of the on-set not covered by other cubes, opening new expand
/// directions.
fn reduce(cover: &Cover, on: &Cover) -> Cover {
    let vars = cover.vars();
    let cubes: Vec<Cube> = cover.cubes().to_vec();
    let mut out = Vec::with_capacity(cubes.len());
    for (i, &cube) in cubes.iter().enumerate() {
        // On-set minterms that only this cube covers.
        let others = Cover::from_cubes(
            vars,
            cubes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| *c)
                .collect(),
        );
        let exclusive = on
            .and(&Cover::from_cubes(vars, vec![cube]))
            .and(&others.complement());
        if exclusive.is_empty() {
            // Fully shared: keep as-is; IRREDUNDANT decides its fate.
            out.push(cube);
            continue;
        }
        // Smallest enclosing cube of the exclusive region.
        let mut shrunk = exclusive.cubes()[0];
        for c in exclusive.cubes().iter().skip(1) {
            shrunk = shrunk.supercube(c);
        }
        out.push(shrunk);
    }
    Cover::from_cubes(vars, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tt::TruthTable;

    /// Checks the minimization contract on the care set.
    fn check_contract(on: &Cover, dc: &Cover, result: &Cover) {
        let vars = on.vars();
        for m in 0..(1u64 << vars) {
            if on.evaluate(m) {
                assert!(result.evaluate(m), "on-set minterm {m:b} lost");
            } else if !dc.evaluate(m) {
                assert!(!result.evaluate(m), "off-set minterm {m:b} gained");
            }
        }
    }

    #[test]
    fn adjacent_cubes_merge() {
        let on = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true), (1, true)]),
                Cube::from_literals(2, &[(0, true), (1, false)]),
            ],
        );
        let dc = Cover::empty(2);
        let g = minimize(&on, &dc);
        check_contract(&on, &dc, &g);
        assert_eq!(g.cube_count(), 1);
        assert_eq!(g.literal_count(), 1);
    }

    #[test]
    fn dont_cares_enable_bigger_merges() {
        // Classic: f(a,b,c) = Σm(1,3,7), dc = Σm(5) -> f = c.
        let on = Cover::from_minterms(3, &[0b001, 0b011, 0b111]);
        let dc = Cover::from_minterms(3, &[0b101]);
        let g = minimize(&on, &dc);
        check_contract(&on, &dc, &g);
        assert_eq!(g.cube_count(), 1);
        assert_eq!(g.literal_count(), 1);
        assert!(g.evaluate(0b001) && g.evaluate(0b111));
    }

    #[test]
    fn empty_on_set_stays_zero() {
        let g = minimize(&Cover::empty(3), &Cover::one(3));
        assert!(g.is_empty());
    }

    #[test]
    fn full_care_set_becomes_one() {
        let on = Cover::from_minterms(2, &[0, 1, 2]);
        let dc = Cover::from_minterms(2, &[3]);
        let g = minimize(&on, &dc);
        assert_eq!(g.cube_count(), 1);
        assert_eq!(g.literal_count(), 0);
    }

    #[test]
    fn xor_cannot_merge() {
        let on = Cover::from_minterms(2, &[0b01, 0b10]);
        let g = minimize(&on, &Cover::empty(2));
        check_contract(&on, &Cover::empty(2), &g);
        assert_eq!(g.cube_count(), 2, "XOR needs two product terms");
    }

    #[test]
    fn redundant_cube_removed() {
        // f = a + b with an extra cube ab.
        let on = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(1, true)]),
                Cube::from_literals(2, &[(0, true), (1, true)]),
            ],
        );
        let g = minimize(&on, &Cover::empty(2));
        check_contract(&on, &Cover::empty(2), &g);
        assert_eq!(g.cube_count(), 2);
    }

    #[test]
    fn five_variable_random_functions_preserve_care_semantics() {
        // Deterministic pseudo-random functions via a simple LCG.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..20 {
            let on_bits = next();
            let dc_bits = next() & !on_bits;
            let on_minterms: Vec<u64> = (0..32).filter(|&m| on_bits >> m & 1 == 1).collect();
            let dc_minterms: Vec<u64> = (0..32).filter(|&m| dc_bits >> m & 1 == 1).collect();
            let on = Cover::from_minterms(5, &on_minterms);
            let dc = Cover::from_minterms(5, &dc_minterms);
            let g = minimize(&on, &dc);
            check_contract(&on, &dc, &g);
            assert!(g.cube_count() <= on.cube_count().max(1));
        }
    }

    #[test]
    fn minimize_shrinks_the_cover() {
        let on = Cover::from_minterms(3, &[0, 1, 2, 3]); // Σm(0..3): var 2 low
        let g = minimize(&on, &Cover::empty(3));
        assert_eq!(TruthTable::from_cover(&g), TruthTable::from_cover(&on));
        assert!(g.cube_count() < on.cube_count());
        assert_eq!((g.cube_count(), g.literal_count()), (1, 1));
    }

    #[test]
    fn result_is_equivalent_on_care_set_to_truth_table() {
        let on = Cover::from_minterms(4, &[1, 3, 5, 7, 9, 11, 13, 15]); // = var0
        let g = minimize(&on, &Cover::empty(4));
        let expected = TruthTable::from_fn(4, |m| m & 1 == 1);
        assert_eq!(TruthTable::from_cover(&g), expected);
        assert_eq!(g.cube_count(), 1);
        assert_eq!(g.literal_count(), 1);
    }
}
