//! # rt-stg — Signal Transition Graphs and Petri nets
//!
//! Substrate crate of the `rt-cad` workspace (a reproduction of Stevens et
//! al., *"CAD Directions for High Performance Asynchronous Circuits"*, DAC
//! 1999). Asynchronous controllers are specified as **Signal Transition
//! Graphs** (STGs): Petri nets whose transitions are labelled with rising
//! (`a+`) and falling (`a-`) edges of interface and internal signals.
//!
//! The crate provides:
//!
//! * [`PetriNet`] — places, transitions, weighted arcs, markings, the token
//!   game, and structural classification (marked graphs, free choice).
//! * [`Stg`] — a labelled Petri net with a signal table
//!   (input/output/internal), consistency checking and convenience builders.
//! * [`parse`] — reader/writer for the `.g` (astg) interchange format used
//!   by `petrify` and SIS.
//! * [`marking`] — the state-space hot-path representation: safe
//!   markings bit-packed, one bit per place, into inline `u64` words
//!   ([`PackedMarking`], one register for a net with ≤ 64 places) under
//!   a per-net [`MarkingLayout`],
//!   interned in a [`MarkingArena`] keyed by an FxHash table so visited
//!   markings resolve to dense 4-byte [`MarkingId`]s.
//! * [`reach`] — explicit reachability analysis producing a [`StateGraph`]
//!   with binary-coded states, the input to logic synthesis. Every walk
//!   takes safe nets and the caller's [`Budget`] only. The BFS fires
//!   transitions directly on packed markings (zero per-state heap
//!   allocations on nets ≤ 64 places) and accumulates arcs straight
//!   into the state graph's compressed-sparse-row store.
//! * [`par`] — the deterministic argmin the CSC candidate searches in
//!   `rt-synth`/`rt-core` rank their candidates with, serially on the
//!   caller's thread.
//! * [`splice`] — state-signal insertion: the candidate shapes the CSC
//!   encoding searches try ([`Splice`]), the STG each one rebuilds, and
//!   the walk that builds a candidate's state graph from the graph of the
//!   net it splices, without rebuilding or re-exploring an STG.
//! * [`state_graph`] — the reachable behaviour with per-state binary
//!   codes; successor/predecessor rows live in contiguous CSR arrays, so
//!   synthesis, CSC detection and the lazy passes walk linear memory.
//! * [`symbolic`] — BDD-based reachability with frontier-based image
//!   steps, one [`rt_boolean::Bdd::replace_cube`] pass per transition;
//!   runs in a caller-owned manager so nodes and caches survive across
//!   calls. [`symbolic::csc`] detects, counts and
//!   witnesses CSC conflicts entirely symbolically (signal codes as
//!   shared BDD variables over a primed/unprimed place pair space);
//!   it answers conflict checks and audits accepted encodings.
//! * [`engine`] — the [`ReachEngine`] façade the whole synthesis
//!   pipeline queries: one engine, two backends (explicit enumeration
//!   with BDDs past a state ceiling / BDDs alone in a persistent
//!   manager), covering nets past 64 places through the packed
//!   `W2`/`W4`/`Big` variants.
//! * [`models`] — ready-made specifications from the paper: the FIFO
//!   controller of Figure 3, the C-element, pipeline rings, and more.
//!   [`corpus`] adds the classic `.g` benchmarks plus generated wide
//!   nets (`adder16_rt`, `fabric4x4`) for > 64-place coverage.
//!
//! ## Example
//!
//! ```
//! use rt_stg::{models, reach};
//!
//! # fn main() -> Result<(), rt_stg::StgError> {
//! let stg = models::fifo_stg();
//! let sg = reach::explore(&stg)?;
//! // The Figure-3 FIFO controller has 18 reachable states.
//! assert_eq!(sg.state_count(), 18);
//! # Ok(())
//! # }
//! ```

pub mod budget;
pub mod corpus;
pub mod engine;
pub mod error;
pub mod faults;
pub mod marking;
pub mod models;
pub mod par;
pub mod parse;
pub mod petri;
pub mod reach;
pub mod signal;
pub mod splice;
pub mod state_graph;
pub mod stg;
pub mod symbolic;

pub use budget::{Budget, CancelToken};
pub use engine::{CscSummary, Degradation, ReachBackend, ReachEngine, ReachSummary};
pub use error::StgError;
pub use marking::{MarkingArena, MarkingId, MarkingLayout, PackedMarking};
pub use petri::{Marking, PetriNet, PlaceId, TransitionId};
pub use reach::explore;
pub use signal::{Edge, SignalEvent, SignalId, SignalKind};
pub use splice::Splice;
pub use state_graph::{CsrBuilder, StateGraph, StateId};
pub use stg::Stg;
