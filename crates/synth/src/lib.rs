//! # rt-synth — speed-independent logic synthesis
//!
//! Turns a [`rt_stg::StateGraph`] into a gate-level implementation:
//!
//! 1. [`regions`] — excitation/quiescent regions and set/reset next-state
//!    functions with don't-care sets;
//! 2. [`csc`] — complete-state-coding resolution by state-signal
//!    insertion (search over arc positions, as `petrify` does for the
//!    paper's FIFO in Figure 4/5);
//! 3. [`map`] — cover minimization (espresso, `rt-boolean`) and mapping
//!    onto generalized C-elements with shared input inverters
//!    (`rt-netlist`).
//!
//! The relative-timing crate (`rt-core`) reuses every stage on *lazy*
//! state graphs, where timing assumptions have pruned states and enlarged
//! the don't-care sets (Section 3 of the paper).
//!
//! Reachability runs through one [`rt_stg::ReachEngine`]: CSC
//! resolution's candidate search ([`csc::resolve_csc_engine`]) takes a
//! caller-owned engine, so its explorations share one set of options
//! and counters (and, on the symbolic backend, a persistent BDD manager
//! that audits the accepted graph).
//!
//! ## Example: the C-element synthesizes to a C-element
//!
//! ```
//! use rt_stg::models;
//! use rt_synth::synthesize;
//!
//! # fn main() -> Result<(), rt_synth::SynthError> {
//! let sg = rt_stg::explore(&models::celement_stg()).map_err(rt_synth::SynthError::Stg)?;
//! let result = synthesize(&sg, "celement")?;
//! assert_eq!(result.netlist.nets_of_kind(rt_netlist::NetKind::Output).len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod csc;
pub mod error;
pub mod map;
pub mod regions;

pub use csc::{resolve_csc, resolve_csc_engine, resolve_csc_with, CscResolution};
pub use error::SynthError;
pub use map::{synthesize, synthesize_with_dc, SynthesisResult};
pub use regions::{SetResetSpec, SignalFunctions};
