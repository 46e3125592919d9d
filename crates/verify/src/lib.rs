//! # rt-verify — conformance and relative-timing verification
//!
//! Section 5 of the paper: a gate-level circuit is verified against its
//! STG specification under **unbounded gate delays** (speed-independent
//! semantics). Failures that are "due to timing faults" can be removed by
//! relative timing: the verifier accepts a set of net-level orderings and
//! suppresses the interleavings they exclude. The orderings a circuit
//! needs are then turned into **path constraints** via the
//! earliest-common-enabling-signal rule and checked against the delay
//! model (the separation-analysis substitute).
//!
//! * [`compose`] — the composed circuit × specification state space,
//!   walked breadth-first: unexpected outputs with witness traces and
//!   the transitions pending beside them. A composed state codes one bit
//!   per net, so the walk takes netlists of at most 64 nets; past that
//!   it refuses with [`rt_stg::StgError::TooManySignals`], and a gate
//!   fed more or fewer inputs than its kind takes with
//!   [`rt_stg::StgError::InvalidNetlist`];
//! * [`require`] — the §5 loop: extract the RT requirements that make a
//!   failing circuit verify;
//! * [`path`] — common-source path constraints and delay-margin checks.
//!
//! ## Example: the decomposed C-element needs RT constraints
//!
//! ```
//! use rt_netlist::cells::majority_celement;
//! use rt_stg::models::celement_stg;
//! use rt_verify::verify;
//!
//! let (netlist, _) = majority_celement();
//! let spec = celement_stg();
//! let report = verify(&netlist, &spec, &[]).unwrap();
//! assert!(!report.passed(), "not SI under unbounded delays");
//! ```

pub mod bridge;
pub mod compose;
pub mod path;
pub mod require;

pub use bridge::{margin_report, orderings_from_constraints, MarginLine};
pub use compose::{
    verify, verify_against_sg, verify_with_budget, verify_with_engine, Failure, NetOrdering,
    VerifyReport,
};
pub use path::{path_constraints, PathConstraint};
pub use require::{extract_requirements, Requirements};
