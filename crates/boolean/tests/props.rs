//! Property-based tests for the Boolean substrate: cube algebra, cover
//! operations, the espresso-style minimizer and the BDD package are checked
//! against dense truth-table semantics on random functions.

use proptest::prelude::*;
use rt_boolean::bdd::NodeId;
use rt_boolean::{minimize, Bdd, Cover, Cube, TruthTable};

/// Strategy: a random cube over `vars` variables.
fn arb_cube(vars: usize) -> impl Strategy<Value = Cube> {
    prop::collection::vec(prop::option::of(prop::bool::ANY), vars).prop_map(move |lits| {
        let literals: Vec<(usize, bool)> = lits
            .into_iter()
            .enumerate()
            .filter_map(|(v, l)| l.map(|p| (v, p)))
            .collect();
        Cube::from_literals(vars, &literals)
    })
}

/// Strategy: a random cover with up to `max_cubes` cubes.
fn arb_cover(vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    prop::collection::vec(arb_cube(vars), 0..=max_cubes)
        .prop_map(move |cubes| Cover::from_cubes(vars, cubes))
}

/// A cover over the first `vars` variables, one cube per row (a row
/// holds a literal per variable, `None` for a don't-care).
fn cover_over(vars: usize, rows: &[Vec<Option<bool>>]) -> Cover {
    let cubes = rows
        .iter()
        .map(|row| {
            let literals: Vec<(usize, bool)> = row[..vars]
                .iter()
                .enumerate()
                .filter_map(|(v, l)| l.map(|p| (v, p)))
                .collect();
            Cube::from_literals(vars, &literals)
        })
        .collect();
    Cover::from_cubes(vars, cubes)
}

/// `replace_cube` literals over distinct variables below `vars`, with
/// `(from, to)` bits drawn from each pick; a pick naming a variable
/// already used is dropped.
fn distinct_lits(vars: usize, picks: &[u64]) -> Vec<(usize, bool, bool)> {
    let mut lits: Vec<(usize, bool, bool)> = Vec::new();
    for &pick in picks {
        let var = (pick % vars as u64) as usize;
        if lits.iter().all(|&(v, ..)| v != var) {
            lits.push((var, pick >> 32 & 1 == 1, pick >> 33 & 1 == 1));
        }
    }
    lits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cube_containment_matches_semantics(a in arb_cube(5), b in arb_cube(5)) {
        let semantic = (0..32u64).all(|m| !b.evaluate(m) || a.evaluate(m));
        prop_assert_eq!(a.contains(&b), semantic);
    }

    #[test]
    fn cube_intersection_is_pointwise_and(a in arb_cube(5), b in arb_cube(5)) {
        let i = a.intersect(&b);
        for m in 0..32u64 {
            prop_assert_eq!(i.evaluate(m), a.evaluate(m) && b.evaluate(m));
        }
    }

    #[test]
    fn supercube_contains_both(a in arb_cube(5), b in arb_cube(5)) {
        let s = a.supercube(&b);
        prop_assert!(s.contains(&a));
        prop_assert!(s.contains(&b));
    }

    #[test]
    fn consensus_is_sound(a in arb_cube(4), b in arb_cube(4)) {
        // Any consensus cube is covered by a + b.
        if let Some(c) = a.consensus(&b) {
            for m in 0..16u64 {
                if c.evaluate(m) {
                    prop_assert!(a.evaluate(m) || b.evaluate(m),
                        "consensus escaped the union at {:04b}", m);
                }
            }
        }
    }

    #[test]
    fn cover_complement_is_pointwise_not(f in arb_cover(5, 6)) {
        let nf = f.complement();
        for m in 0..32u64 {
            prop_assert_eq!(nf.evaluate(m), !f.evaluate(m));
        }
    }

    #[test]
    fn cover_tautology_matches_semantics(f in arb_cover(4, 6)) {
        let semantic = (0..16u64).all(|m| f.evaluate(m));
        prop_assert_eq!(f.is_tautology(), semantic);
    }

    #[test]
    fn cover_containment_matches_semantics(f in arb_cover(4, 4), g in arb_cover(4, 4)) {
        let semantic = (0..16u64).all(|m| !g.evaluate(m) || f.evaluate(m));
        prop_assert_eq!(f.contains_cover(&g), semantic);
    }

    #[test]
    fn minimizer_preserves_care_semantics(on in arb_cover(5, 6), dc in arb_cover(5, 3)) {
        let result = minimize(&on, &dc);
        for m in 0..32u64 {
            if on.evaluate(m) {
                prop_assert!(result.evaluate(m), "lost on-set minterm {:05b}", m);
            } else if !dc.evaluate(m) {
                prop_assert!(!result.evaluate(m), "gained off-set minterm {:05b}", m);
            }
        }
    }

    /// Synthesis joins one shared don't-care cover (the unreachable
    /// codes) to each signal's own, in whatever order it likes: that is
    /// sound only because the don't-care reaches the minimizer through
    /// `complement` alone, whose cube list depends on the multiset of
    /// cubes, not their order.
    #[test]
    fn the_dont_care_counts_as_a_multiset(
        on in arb_cover(6, 6),
        a in arb_cover(6, 8),
        b in arb_cover(6, 8),
        keys in prop::collection::vec(any::<u64>(), 16),
    ) {
        let dc = a.or(&b);
        let mut order: Vec<usize> = (0..dc.cube_count()).collect();
        order.sort_by_key(|&i| keys[i]);
        let permuted = Cover::from_cubes(6, order.iter().map(|&i| dc.cubes()[i]).collect());
        let swapped = b.or(&a);
        let (complement, minimized) = (dc.complement(), minimize(&on, &dc));
        for other in [&permuted, &swapped] {
            prop_assert_eq!(other.complement().cubes(), complement.cubes());
            prop_assert_eq!(minimize(&on, other).cubes(), minimized.cubes());
        }
    }

    #[test]
    fn minimizer_never_worsens_cube_count(on in arb_cover(4, 6)) {
        let result = minimize(&on, &Cover::empty(4));
        prop_assert!(result.cube_count() <= on.single_cube_containment().cube_count().max(1));
    }

    #[test]
    fn bdd_matches_truth_table(f in arb_cover(6, 5)) {
        let mut bdd = Bdd::new(6);
        let node = bdd.from_cover(&f);
        for m in 0..64u64 {
            prop_assert_eq!(bdd.evaluate(node, m), f.evaluate(m));
        }
    }

    #[test]
    fn bdd_canonicity_detects_equivalence(f in arb_cover(5, 4)) {
        // f + f == f, f·f == f, ¬¬f == f — all as node identity.
        let mut bdd = Bdd::new(5);
        let nf = bdd.from_cover(&f);
        let or_self = bdd.or(nf, nf);
        prop_assert_eq!(or_self, nf);
        let and_self = bdd.and(nf, nf);
        prop_assert_eq!(and_self, nf);
        let not1 = bdd.not(nf);
        let not2 = bdd.not(not1);
        prop_assert_eq!(not2, nf);
    }

    #[test]
    fn bdd_satisfy_count_matches_truth_table(f in arb_cover(5, 5)) {
        let tt = TruthTable::from_cover(&f);
        let mut bdd = Bdd::new(5);
        let node = bdd.from_cover(&f);
        prop_assert_eq!(bdd.satisfy_count(node), tt.minterm_count() as u64);
    }

    #[test]
    fn replace_cube_matches_the_and_exists_and_chain(
        vars in 1usize..=10,
        kind in 0u8..4,
        rows in prop::collection::vec(
            prop::collection::vec(prop::option::of(prop::bool::ANY), 10), 0..=6),
        picks in prop::collection::vec(any::<u64>(), 1..=5),
    ) {
        // f: the constants, or a random cover over the first `vars`
        // variables.
        let mut bdd = Bdd::new(vars);
        let f = match kind {
            0 => NodeId::ZERO,
            1 => NodeId::ONE,
            _ => {
                let cubes = rows
                    .iter()
                    .map(|row| {
                        let literals: Vec<(usize, bool)> = row[..vars]
                            .iter()
                            .enumerate()
                            .filter_map(|(v, l)| l.map(|p| (v, p)))
                            .collect();
                        Cube::from_literals(vars, &literals)
                    })
                    .collect();
                bdd.from_cover(&Cover::from_cubes(vars, cubes))
            }
        };
        // A support of distinct variables with random (from, to) bits;
        // `1 -> 1` is the self-loop case.
        let mut lits: Vec<(usize, bool, bool)> = Vec::new();
        for &pick in &picks {
            let var = (pick % vars as u64) as usize;
            if lits.iter().all(|&(v, ..)| v != var) {
                lits.push((var, pick >> 32 & 1 == 1, pick >> 33 & 1 == 1));
            }
        }
        let chain = |bdd: &mut Bdd| {
            let mut g = f;
            for &(var, from, _) in &lits {
                let lit = if from { bdd.var(var) } else { bdd.nvar(var) };
                g = bdd.and(g, lit);
            }
            for &(var, ..) in &lits {
                g = bdd.exists(g, var);
            }
            for &(var, _, to) in &lits {
                let lit = if to { bdd.var(var) } else { bdd.nvar(var) };
                g = bdd.and(g, lit);
            }
            g
        };
        let fused = bdd.replace_cube(f, &lits);
        let expected = chain(&mut bdd);
        prop_assert_eq!(fused, expected, "lits {:?}", lits);
    }

    #[test]
    fn values_taken_matches_every_assignment(
        vars in 1usize..=8,
        rows in prop::collection::vec(
            prop::collection::vec(prop::option::of(prop::bool::ANY), 8), 0..=6),
    ) {
        let f = cover_over(vars, &rows);
        let mut bdd = Bdd::new(vars);
        let node = bdd.from_cover(&f);
        let mut expected = vec![[false; 2]; vars];
        for m in (0..1u64 << vars).filter(|&m| f.evaluate(m)) {
            for (v, values) in expected.iter_mut().enumerate() {
                values[(m >> v & 1) as usize] = true;
            }
        }
        prop_assert_eq!(bdd.values_taken(node), expected);
    }

    #[test]
    fn two_slot_tables_build_the_roomy_truth_tables(f in arb_cover(6, 5)) {
        // Every table starts at two slots, so nearly every probe of a
        // small function collides; nodes must come out the same anyway.
        let mut tiny = Bdd::with_capacity(6, 2);
        let mut roomy = Bdd::new(6);
        let small = tiny.from_cover(&f);
        let large = roomy.from_cover(&f);
        for m in 0..64u64 {
            prop_assert_eq!(tiny.evaluate(small, m), roomy.evaluate(large, m));
        }
        prop_assert_eq!(small, large);
        prop_assert_eq!(tiny.node_count(), roomy.node_count());
    }

    #[test]
    fn two_slot_tables_fire_the_roomy_images(
        vars in 1usize..=10,
        kind in 0u8..4,
        rows in prop::collection::vec(
            prop::collection::vec(prop::option::of(prop::bool::ANY), 10), 0..=6),
        picks in prop::collection::vec(any::<u64>(), 1..=5),
    ) {
        // The inputs of `replace_cube_matches_the_and_exists_and_chain`:
        // the one-pass image and the chain in a two-slot manager must
        // land on the roomy manager's node ids.
        let lits = distinct_lits(vars, &picks);
        let mut results = Vec::new();
        for mut bdd in [Bdd::with_capacity(vars, 2), Bdd::new(vars)] {
            let f = match kind {
                0 => NodeId::ZERO,
                1 => NodeId::ONE,
                _ => bdd.from_cover(&cover_over(vars, &rows)),
            };
            let fused = bdd.replace_cube(f, &lits);
            let mut g = f;
            for &(var, from, _) in &lits {
                let lit = if from { bdd.var(var) } else { bdd.nvar(var) };
                g = bdd.and(g, lit);
            }
            for &(var, ..) in &lits {
                g = bdd.exists(g, var);
            }
            for &(var, _, to) in &lits {
                let lit = if to { bdd.var(var) } else { bdd.nvar(var) };
                g = bdd.and(g, lit);
            }
            prop_assert_eq!(fused, g, "lits {:?}", lits);
            results.push((fused, bdd.node_count()));
        }
        prop_assert_eq!(results[0], results[1], "lits {:?}", lits);
    }

    #[test]
    fn truth_table_cover_roundtrip(f in arb_cover(5, 5)) {
        let tt = TruthTable::from_cover(&f);
        let back = tt.to_cover();
        for m in 0..32u64 {
            prop_assert_eq!(back.evaluate(m), f.evaluate(m));
        }
    }
}
