//! # rt-boolean — two-level Boolean algebra for logic synthesis
//!
//! Substrate crate of the `rt-cad` workspace. Logic synthesis of
//! speed-independent and relative-timing circuits (crates `rt-synth` and
//! `rt-core`) derives next-state functions from state graphs and minimizes
//! them into sum-of-products covers; this crate provides the machinery:
//!
//! * [`Cube`] — positional-notation product terms over up to 64 variables;
//! * [`Cover`] — sum-of-products with containment, complement, tautology;
//! * [`minimize()`] — an espresso-style EXPAND / IRREDUNDANT / REDUCE
//!   two-level minimizer with don't-care support;
//! * [`TruthTable`] — dense reference semantics for small functions;
//! * [`bdd`] — a reduced-ordered BDD manager with hash-consed nodes in
//!   one open-addressed unique table and a bounded, direct-mapped
//!   computed table that survives across calls (see the module docs for
//!   the memoization design);
//! * [`fxhash`] — the FxHash-style fast hasher backing the state-space
//!   hot paths in `rt-stg` and the BDD package's per-call working maps.
//!
//! ## Example: minimize `a·b + a·b̄` to `a`
//!
//! ```
//! use rt_boolean::{Cover, Cube, minimize};
//!
//! let on = Cover::from_cubes(2, vec![
//!     Cube::from_literals(2, &[(0, true), (1, true)]),
//!     Cube::from_literals(2, &[(0, true), (1, false)]),
//! ]);
//! let dc = Cover::empty(2);
//! let min = minimize(&on, &dc);
//! assert_eq!(min.cube_count(), 1);
//! assert_eq!(min.literal_count(), 1);
//! ```

pub mod bdd;
pub mod cover;
pub mod cube;
pub mod fxhash;
pub mod minimize;
pub mod tt;

pub use bdd::Bdd;
pub use cover::Cover;
pub use cube::Cube;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use minimize::{minimize, minimize_with_stats, MinimizeStats};
pub use tt::TruthTable;
