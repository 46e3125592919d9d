//! RT requirement extraction: the Section-5 loop.
//!
//! "The circuits are verified using unbounded delay models to extract the
//! RT requirements": run conformance checking; for each unexpected
//! output, propose the orderings that suppress it (every transition
//! pending beside it must occur *before* it); add the orderings and
//! re-verify, until the circuit conforms or no progress is made.

use rt_netlist::Netlist;
use rt_stg::StateGraph;

use crate::compose::{verify_against_sg, Failure, NetOrdering, VerifyReport};

/// Result of requirement extraction.
#[derive(Debug, Clone)]
pub struct Requirements {
    /// Orderings that make the circuit verify (empty when it is SI).
    pub orderings: Vec<NetOrdering>,
    /// The final verification report under those orderings.
    pub report: VerifyReport,
    /// Number of verify/extend iterations used.
    pub iterations: usize,
}

impl Requirements {
    /// Whether the circuit verifies under the extracted requirements.
    pub fn satisfied(&self) -> bool {
        self.report.passed()
    }
}

/// Extracts the relative-timing requirements of `netlist` against the
/// (possibly lazy) specification `sg`.
///
/// Returns the orderings plus the final report; when the report still
/// fails, the circuit has functional (non-timing) errors.
pub fn extract_requirements(
    netlist: &Netlist,
    sg: &StateGraph,
    seed: &[NetOrdering],
) -> Requirements {
    let mut orderings: Vec<NetOrdering> = seed.to_vec();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let report = verify_against_sg(netlist, sg, &orderings);
        if report.passed() {
            // Minimize: drop any ordering whose removal keeps the pass
            // (the verifier's accumulation can over-approximate).
            let mut minimal = orderings.clone();
            let mut idx = minimal.len();
            while idx > 0 {
                idx -= 1;
                if seed.contains(&minimal[idx]) {
                    continue; // caller-provided orderings stay
                }
                let mut trial = minimal.clone();
                trial.remove(idx);
                if verify_against_sg(netlist, sg, &trial).passed() {
                    minimal = trial;
                }
            }
            let report = verify_against_sg(netlist, sg, &minimal);
            return Requirements {
                orderings: minimal,
                report,
                iterations,
            };
        }
        if iterations > 32 {
            return Requirements {
                orderings,
                report,
                iterations,
            };
        }
        let mut extended = false;
        for failure in &report.failures {
            let Failure::UnexpectedOutput {
                net,
                value,
                pending_others,
                ..
            } = failure;
            // The offending transition fired too early: every other
            // pending transition is a repair candidate — "disallow the
            // erroneous firing through relative timing in the verifier"
            // (§5).
            for &before in pending_others {
                if before.0 == *net {
                    continue;
                }
                let ordering = NetOrdering::new(before, (*net, *value));
                if !orderings.contains(&ordering) {
                    orderings.push(ordering);
                    extended = true;
                }
            }
        }
        if !extended {
            // Nothing left to propose: not timing-fixable.
            let report = verify_against_sg(netlist, sg, &orderings);
            return Requirements {
                orderings,
                report,
                iterations,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_netlist::cells::majority_celement;
    use rt_stg::{explore, models};

    #[test]
    fn celement_requirements_close_the_loop() {
        let (netlist, p) = majority_celement();
        let sg = explore(&models::celement_stg()).unwrap();
        let req = extract_requirements(&netlist, &sg, &[]);
        assert!(req.satisfied(), "loop must converge: {:?}", req.orderings);
        assert!(!req.orderings.is_empty());
        // The extracted set speaks about the internal products.
        let names: Vec<String> = req.orderings.iter().map(|o| o.describe(&netlist)).collect();
        assert!(
            names
                .iter()
                .any(|n| n.contains("ab") || n.contains("ac") || n.contains("bc")),
            "{names:?}"
        );
        let _ = p;
    }

    #[test]
    fn si_circuit_needs_no_requirements() {
        let (netlist, _) = rt_netlist::fifo::si_fifo();
        let sg = explore(&models::fifo_stg_csc()).unwrap();
        let req = extract_requirements(&netlist, &sg, &[]);
        assert!(req.satisfied());
        assert!(req.orderings.is_empty());
        assert_eq!(req.iterations, 1);
    }

    #[test]
    fn seeded_orderings_are_kept() {
        let (netlist, p) = majority_celement();
        let sg = explore(&models::celement_stg()).unwrap();
        let seed = [NetOrdering::new((p.ac, true), (p.ab, false))];
        let req = extract_requirements(&netlist, &sg, &seed);
        assert!(req.orderings.contains(&seed[0]));
        assert!(req.satisfied());
    }
}
