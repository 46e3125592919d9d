//! Bridging the synthesis flow to the verifier and the physical flow.
//!
//! Two conversions close the Figure-2 loop:
//!
//! * [`orderings_from_constraints`] — signal-level [`RtConstraint`]s from
//!   `rt-core` become net-level [`NetOrdering`]s for the conformance
//!   checker (nets are matched by name);
//! * [`margin_report`] — the Section-6 "propagation of relative timing
//!   constraints to sizing tools": every back-annotated constraint is
//!   turned into a path constraint and a per-gate delay budget stating
//!   how much slack each gate on the fast path has before the ordering
//!   breaks.

use rt_core::RtConstraint;
use rt_netlist::Netlist;
use rt_stg::{StateGraph, Stg};

use crate::compose::NetOrdering;
use crate::path::{path_constraints, PathConstraint};

/// Converts signal-level constraints to net-level orderings by matching
/// net names against the state graph's signal names. Constraints whose
/// signals do not appear in the netlist (e.g. events of signals the
/// implementation optimized away) are skipped.
pub fn orderings_from_constraints(
    netlist: &Netlist,
    sg: &StateGraph,
    constraints: &[RtConstraint],
) -> Vec<NetOrdering> {
    constraints
        .iter()
        .filter_map(|c| {
            let before = netlist.net_by_name(sg.signal_name(c.assumption.before.signal))?;
            let after = netlist.net_by_name(sg.signal_name(c.assumption.after.signal))?;
            Some(NetOrdering::new(
                (before, c.assumption.before.edge.target_value()),
                (after, c.assumption.after.edge.target_value()),
            ))
        })
        .collect()
}

/// One line of the sizing report: a path constraint plus the per-gate
/// slack budget on its fast path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginLine {
    /// The underlying path constraint.
    pub constraint: PathConstraint,
    /// `(gate name, current delay ps, allowed delay ps)` for each gate on
    /// the fast path: how slow each fast-path gate may become (keeping
    /// the others nominal) before the margin is gone.
    pub budgets: Vec<(String, u64, u64)>,
}

impl MarginLine {
    /// For a violated constraint (negative margin): the percentage by
    /// which the fast path must be sped up — "the sizing tool should
    /// know how much race margin to take" (§6). `None` when the
    /// constraint already holds.
    pub fn required_speedup_pct(&self) -> Option<u64> {
        if self.constraint.holds() {
            return None;
        }
        let fast = self.constraint.fast_delay_ps.max(1);
        let deficit = self.constraint.fast_delay_ps - self.constraint.slow_delay_ps + 1;
        Some(deficit * 100 / fast + 1)
    }

    /// Renders the line for the report.
    pub fn render(&self, netlist: &Netlist) -> String {
        let mut out = self.constraint.describe(netlist);
        for (gate, current, allowed) in &self.budgets {
            out.push_str(&format!(
                "\n    gate `{gate}`: {current} ps now, may grow to {allowed} ps"
            ));
        }
        out
    }
}

/// Builds the sizing report: each ordering becomes a path constraint and
/// a fast-path delay budget. "This requires transforming RT constraints
/// in the form of events into delay constraints for gates, wires and
/// paths in the circuit" (§6).
pub fn margin_report(netlist: &Netlist, spec: &Stg, orderings: &[NetOrdering]) -> Vec<MarginLine> {
    path_constraints(netlist, spec, orderings)
        .into_iter()
        .map(|constraint| {
            let margin = constraint.margin_ps().max(0) as u64;
            let mut budgets = Vec::new();
            for window in constraint.fast_path.windows(2) {
                let (net, value) = window[1];
                if let Some(gate_id) = netlist.driver(net) {
                    let gate = netlist.gate(gate_id);
                    let current = gate.kind.delay_model(gate.inputs.len()).for_edge(value);
                    budgets.push((gate.name.clone(), current, current + margin));
                }
            }
            MarginLine {
                constraint,
                budgets,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::{RtAssumption, RtSynthesisFlow};
    use rt_netlist::cells::majority_celement;
    use rt_stg::{models, Edge};

    #[test]
    fn constraints_translate_to_net_orderings() {
        let stg = models::fifo_stg();
        let s = |n: &str| stg.signal_by_name(n).unwrap();
        let user = vec![
            RtAssumption::user(s("ri"), Edge::Fall, s("li"), Edge::Rise),
            RtAssumption::user(s("li"), Edge::Fall, s("ri"), Edge::Fall),
        ];
        let report = RtSynthesisFlow::new().run(&stg, &user).expect("flow runs");
        let orderings = orderings_from_constraints(
            &report.synthesis.netlist,
            &report.lazy_sg,
            &report.constraints,
        );
        assert_eq!(orderings.len(), report.constraints.len());
        // The translated orderings are consistent with the names.
        let described: Vec<String> = orderings
            .iter()
            .map(|o| o.describe(&report.synthesis.netlist))
            .collect();
        assert!(
            described.iter().any(|d| d == "ri- before li+"),
            "{described:?}"
        );
    }

    #[test]
    fn margin_report_budgets_fast_path_gates() {
        let (netlist, p) = majority_celement();
        let spec = models::celement_stg();
        let orderings = [NetOrdering::new((p.bc, true), (p.ab, false))];
        let report = margin_report(&netlist, &spec, &orderings);
        assert_eq!(report.len(), 1);
        let line = &report[0];
        assert!(!line.budgets.is_empty(), "and_bc is on the fast path");
        for (gate, current, allowed) in &line.budgets {
            assert!(
                allowed >= current,
                "budget can only extend: {gate} {current} -> {allowed}"
            );
        }
        let text = line.render(&netlist);
        assert!(text.contains("may grow to"), "{text}");
    }

    #[test]
    fn violated_constraints_request_a_speedup() {
        // Build an artificial violation: demand the *slow* direction.
        let (netlist, p) = majority_celement();
        let spec = models::celement_stg();
        // Reverse of the real constraint: ab- before bc+ (slow must beat
        // fast) — nominally violated.
        let orderings = [NetOrdering::new((p.ab, false), (p.bc, true))];
        let report = margin_report(&netlist, &spec, &orderings);
        assert_eq!(report.len(), 1);
        let line = &report[0];
        assert!(!line.constraint.holds());
        let speedup = line.required_speedup_pct().expect("violated");
        assert!(speedup > 0 && speedup <= 100, "need {speedup}%");
        // A satisfied constraint requests nothing.
        let ok = margin_report(
            &netlist,
            &spec,
            &[NetOrdering::new((p.bc, true), (p.ab, false))],
        );
        assert_eq!(ok[0].required_speedup_pct(), None);
    }

    #[test]
    fn missing_signals_are_skipped() {
        // The RT FIFO netlist has no `x` net; constraints about x vanish.
        let stg = models::fifo_stg();
        let report = RtSynthesisFlow::new().run(&stg, &[]).expect("flow runs");
        // report constraints mention x0, which exists in THIS netlist; use
        // the hand netlist instead, which has no x0.
        let (hand, _) = rt_netlist::fifo::rt_fifo();
        let orderings = orderings_from_constraints(&hand, &report.lazy_sg, &report.constraints);
        // x0 events do not resolve against the hand netlist.
        assert!(orderings.len() <= report.constraints.len());
    }
}
