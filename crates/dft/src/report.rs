//! Section-6 reporting: "Have the synthesis/testing tool flag the
//! transistors which were added to prevent hazards, which may have
//! undetectable faults."
//!
//! The classifier cross-references the undetected-fault residue of a
//! fault-simulation run with the structure of the netlist: an undetected
//! fault on an input pin of a set/reset stack (a *guard literal*) is a
//! hazard-prevention transistor; an undetected fault elsewhere is plain
//! coverage shortfall that more vectors could fix.

use rt_netlist::{GateKind, Netlist};

use crate::fault::{Fault, FaultSite};
use crate::simulate::CoverageResult;

/// Classification of one undetected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Residue {
    /// A guard transistor in a set/reset stack — hazard prevention;
    /// expected to be untestable functionally.
    HazardGuard {
        /// The fault.
        fault: Fault,
        /// The guarded gate's name.
        gate: String,
    },
    /// Redundant cover logic (burst-mode hold terms and the like).
    RedundantCover {
        /// The fault.
        fault: Fault,
        /// The gate's name.
        gate: String,
    },
    /// Plain shortfall: more test vectors might detect it.
    Shortfall(Fault),
}

/// The Section-6 report: undetected faults, classified.
#[derive(Debug, Clone)]
pub struct HazardTransistorReport {
    /// Per-fault classification.
    pub entries: Vec<Residue>,
}

impl HazardTransistorReport {
    /// Renders the report.
    pub fn render(&self, netlist: &Netlist) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            match entry {
                Residue::HazardGuard { fault, gate } => out.push_str(&format!(
                    "HAZARD GUARD   {} (gate `{gate}`): expected-untestable\n",
                    fault.describe(netlist)
                )),
                Residue::RedundantCover { fault, gate } => out.push_str(&format!(
                    "REDUNDANT      {} (gate `{gate}`): hold/hazard cover\n",
                    fault.describe(netlist)
                )),
                Residue::Shortfall(fault) => out.push_str(&format!(
                    "SHORTFALL      {}: consider more vectors\n",
                    fault.describe(netlist)
                )),
            }
        }
        out
    }
}

/// Classifies the undetected residue of a coverage run.
pub fn classify_residue(netlist: &Netlist, coverage: &CoverageResult) -> HazardTransistorReport {
    let entries = coverage
        .undetected
        .iter()
        .map(|&fault| match fault.site {
            FaultSite::GateInput(gate_id, _pin) => {
                let gate = netlist.gate(gate_id);
                match gate.kind {
                    GateKind::Gc { .. } | GateKind::DominoSr { .. } => Residue::HazardGuard {
                        fault,
                        gate: gate.name.clone(),
                    },
                    GateKind::Aoi { .. } => Residue::RedundantCover {
                        fault,
                        gate: gate.name.clone(),
                    },
                    _ => Residue::Shortfall(fault),
                }
            }
            FaultSite::GateOutput(gate_id) => {
                let gate = netlist.gate(gate_id);
                // Inverters feeding only guard stacks inherit the class.
                if matches!(gate.kind, GateKind::Inv) {
                    let feeds_guard = netlist.fanout(gate.output).iter().all(|&g| {
                        matches!(
                            netlist.gate(g).kind,
                            GateKind::Gc { .. } | GateKind::DominoSr { .. }
                        )
                    });
                    if feeds_guard && !netlist.fanout(gate.output).is_empty() {
                        return Residue::HazardGuard {
                            fault,
                            gate: gate.name.clone(),
                        };
                    }
                }
                Residue::Shortfall(fault)
            }
        })
        .collect();
    HazardTransistorReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::fault_coverage_four_phase;
    use rt_netlist::fifo::{bm_fifo, si_fifo};

    #[test]
    fn si_residue_is_classified_as_guards() {
        let (netlist, ports) = si_fifo();
        let coverage = fault_coverage_four_phase(&netlist, ports, 6);
        let report = classify_residue(&netlist, &coverage);
        assert_eq!(report.entries.len(), coverage.undetected.len());
        assert!(
            report
                .entries
                .iter()
                .any(|e| matches!(e, Residue::HazardGuard { .. })),
            "SI escapes sit in the gC guard literals: {}",
            report.render(&netlist)
        );
    }

    #[test]
    fn bm_residue_is_redundant_covers() {
        let (netlist, ports) = bm_fifo();
        let coverage = fault_coverage_four_phase(&netlist, ports, 6);
        let report = classify_residue(&netlist, &coverage);
        let redundant = report
            .entries
            .iter()
            .filter(|e| matches!(e, Residue::RedundantCover { .. }))
            .count();
        assert!(redundant > 0, "{}", report.render(&netlist));
    }

    #[test]
    fn render_mentions_every_entry() {
        let (netlist, ports) = si_fifo();
        let coverage = fault_coverage_four_phase(&netlist, ports, 6);
        let report = classify_residue(&netlist, &coverage);
        let text = report.render(&netlist);
        assert_eq!(text.lines().count(), report.entries.len());
    }
}
