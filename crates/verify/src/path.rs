//! Path constraints: from event orderings to checkable delay paths.
//!
//! Section 5: "The RT requirements on the circuit generated by the
//! verification can be turned into path constraints by finding the
//! earliest common enabling signal. [...] For this requirement to hold
//! the path c → bc must occur faster than c → a → ab. SPICE simulations
//! or separation analysis can be used to guarantee that this timing
//! requirement on the physical circuit will hold."
//!
//! The search walks backwards through *edge-aware* causality: through
//! gate drivers inside the circuit (an AND output rises because its
//! inputs rose; a gC falls because its reset stack rose; ...) and through
//! the **specification** for input nets (the environment produces `a-`
//! in response to `c+`). The nearest common `(net, value)` ancestor is
//! the earliest common enabling transition; nominal library delays (our
//! SPICE substitute) along the two paths give the margin.

use std::collections::HashMap;

use rt_netlist::{GateKind, NetId, Netlist};
use rt_stg::stg::TransitionLabel;
use rt_stg::{Edge, Stg};

use crate::compose::NetOrdering;

/// A path constraint derived from a [`NetOrdering`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathConstraint {
    /// The ordering this constraint implements.
    pub ordering: NetOrdering,
    /// The earliest common enabling transition.
    pub common_source: (NetId, bool),
    /// Transitions along the fast path (common source → `before`).
    pub fast_path: Vec<(NetId, bool)>,
    /// Transitions along the slow path (common source → `after`).
    pub slow_path: Vec<(NetId, bool)>,
    /// Nominal delay of the fast path in ps.
    pub fast_delay_ps: u64,
    /// Nominal delay of the slow path in ps (environment hops use
    /// [`ENV_DELAY_PS`]).
    pub slow_delay_ps: u64,
}

impl PathConstraint {
    /// Whether the nominal delays satisfy the constraint.
    pub fn holds(&self) -> bool {
        self.fast_delay_ps < self.slow_delay_ps
    }

    /// Slack in ps (negative → violated), computed as slow − fast.
    pub fn margin_ps(&self) -> i64 {
        self.slow_delay_ps as i64 - self.fast_delay_ps as i64
    }

    /// Human-readable rendering.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let names = |path: &[(NetId, bool)]| {
            path.iter()
                .map(|&(n, v)| format!("{}{}", netlist.net_name(n), if v { '+' } else { '-' }))
                .collect::<Vec<_>>()
                .join(" → ")
        };
        format!(
            "{}: path {} ({} ps) must beat path {} ({} ps), margin {} ps",
            self.ordering.describe(netlist),
            names(&self.fast_path),
            self.fast_delay_ps,
            names(&self.slow_path),
            self.slow_delay_ps,
            self.margin_ps(),
        )
    }
}

/// Environment response assumed for each hop that passes through the
/// specification (the circuit cannot bound the environment; the margin
/// documents the assumption).
pub const ENV_DELAY_PS: u64 = 150;

/// Derives path constraints for each ordering by searching backwards for
/// the earliest common enabling transition. `spec` supplies environment
/// causality for input nets.
pub fn path_constraints(
    netlist: &Netlist,
    spec: &Stg,
    orderings: &[NetOrdering],
) -> Vec<PathConstraint> {
    orderings
        .iter()
        .filter_map(|&ordering| constraint_for(netlist, spec, ordering))
        .collect()
}

type Transition = (NetId, bool);

fn constraint_for(netlist: &Netlist, spec: &Stg, ordering: NetOrdering) -> Option<PathConstraint> {
    let before_paths = ancestor_paths(netlist, spec, ordering.before, 8);
    let after_paths = ancestor_paths(netlist, spec, ordering.after, 8);
    let mut best: Option<(Transition, &Vec<Transition>, &Vec<Transition>)> = None;
    let mut best_key = (usize::MAX, usize::MAX);
    // In discovery order, so the first-discovered of equally good common
    // ancestors wins.
    for path_b in &before_paths.paths {
        let t = *path_b.last().expect("nonempty path");
        if t == ordering.before || t == ordering.after {
            continue;
        }
        if let Some(path_a) = after_paths.path_to(t) {
            // Minimize total depth; break ties toward the shorter *fast*
            // path — the "earliest common enabling signal" should cause
            // the earlier event promptly.
            let key = (path_b.len() + path_a.len(), path_b.len());
            if key < best_key {
                best_key = key;
                best = Some((t, path_b, path_a));
            }
        }
    }
    let (common, fast_rev, slow_rev) = best?;
    let mut fast_path = fast_rev.clone();
    fast_path.reverse();
    let mut slow_path = slow_rev.clone();
    slow_path.reverse();
    let fast_delay_ps = path_delay(netlist, &fast_path);
    let slow_delay_ps = path_delay(netlist, &slow_path);
    Some(PathConstraint {
        ordering,
        common_source: common,
        fast_path,
        slow_path,
        fast_delay_ps,
        slow_delay_ps,
    })
}

/// Edge-aware causal predecessors of a transition.
fn causes(netlist: &Netlist, spec: &Stg, t: Transition) -> Vec<Transition> {
    let (net, value) = t;
    match netlist.driver(net) {
        Some(gate_id) => {
            let gate = netlist.gate(gate_id);
            gate_causes(&gate.kind, &gate.inputs, value)
        }
        None => {
            // Environment net: causality from the specification.
            let Some(signal) = spec.signal_by_name(netlist.net_name(net)) else {
                return Vec::new();
            };
            let edge = if value { Edge::Rise } else { Edge::Fall };
            let mut out = Vec::new();
            let net_of = |name: &str| netlist.net_by_name(name);
            for transition in spec.transitions_labelled(rt_stg::SignalEvent::new(signal, edge)) {
                for arc in spec.net().preset(transition) {
                    for &producer in spec.net().producers(arc.place) {
                        match spec.label(producer) {
                            TransitionLabel::Event(ev) => {
                                if let Some(n) = net_of(spec.signal_name(ev.signal)) {
                                    out.push((n, ev.edge.target_value()));
                                }
                            }
                            TransitionLabel::Silent => {
                                // Skip one ε level.
                                for arc2 in spec.net().preset(producer) {
                                    for &p2 in spec.net().producers(arc2.place) {
                                        if let TransitionLabel::Event(ev) = spec.label(p2) {
                                            if let Some(n) = net_of(spec.signal_name(ev.signal)) {
                                                out.push((n, ev.edge.target_value()));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            out
        }
    }
}

/// Which input transitions can cause the gate output to move to `value`.
fn gate_causes(kind: &GateKind, inputs: &[NetId], value: bool) -> Vec<Transition> {
    match kind {
        GateKind::Inv => vec![(inputs[0], !value)],
        GateKind::Buf => vec![(inputs[0], value)],
        GateKind::And | GateKind::DominoAnd { .. } => inputs.iter().map(|&n| (n, value)).collect(),
        GateKind::Or | GateKind::DominoOr { .. } => inputs.iter().map(|&n| (n, value)).collect(),
        GateKind::Nand | GateKind::Nor | GateKind::Aoi { .. } => {
            inputs.iter().map(|&n| (n, !value)).collect()
        }
        GateKind::Xor2 => inputs
            .iter()
            .flat_map(|&n| [(n, true), (n, false)])
            .collect(),
        GateKind::Celem => inputs.iter().map(|&n| (n, value)).collect(),
        GateKind::Gc { set, reset } | GateKind::DominoSr { set, reset } => {
            let set = *set as usize;
            let reset = *reset as usize;
            if value {
                inputs[..set].iter().map(|&n| (n, true)).collect()
            } else {
                inputs[set..set + reset]
                    .iter()
                    .map(|&n| (n, true))
                    .collect()
            }
        }
    }
}

/// The causal ancestors of one transition: per ancestor, the path from
/// the transition back to it (inclusive), in breadth-first discovery
/// order.
struct Ancestors {
    paths: Vec<Vec<Transition>>,
    /// Each ancestor's index into `paths`.
    index: HashMap<Transition, usize>,
}

impl Ancestors {
    fn path_to(&self, t: Transition) -> Option<&Vec<Transition>> {
        self.index.get(&t).map(|&i| &self.paths[i])
    }
}

/// All causal ancestors of `t` within `depth` hops. Breadth-first, so the
/// first path recorded per ancestor is a shortest one.
fn ancestor_paths(netlist: &Netlist, spec: &Stg, t: Transition, depth: usize) -> Ancestors {
    let mut paths = vec![vec![t]];
    let mut index = HashMap::from([(t, 0)]);
    let mut layer = 0..1;
    for _ in 0..depth {
        for i in layer.clone() {
            let tip = *paths[i].last().expect("nonempty path");
            for cause in causes(netlist, spec, tip) {
                if index.contains_key(&cause) {
                    continue;
                }
                let mut extended = paths[i].clone();
                extended.push(cause);
                index.insert(cause, paths.len());
                paths.push(extended);
            }
        }
        if layer.end == paths.len() {
            break;
        }
        layer = layer.end..paths.len();
    }
    Ancestors { paths, index }
}

/// Nominal delay along a transition path: library delay for the driving
/// gate of each hop, [`ENV_DELAY_PS`] for environment hops.
fn path_delay(netlist: &Netlist, path: &[Transition]) -> u64 {
    let mut total = 0;
    for window in path.windows(2) {
        let (to, value) = window[1];
        match netlist.driver(to) {
            Some(gate_id) => {
                let gate = netlist.gate(gate_id);
                total += gate.kind.delay_model(gate.inputs.len()).for_edge(value);
            }
            None => total += ENV_DELAY_PS,
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_netlist::cells::majority_celement;
    use rt_stg::models::celement_stg;

    #[test]
    fn celement_path_constraint_matches_section5() {
        // "bc rises before ab falls. The common source for these signal
        // transitions is c+. For this requirement to hold the path
        // c → bc must occur faster than c → a- → ab-."
        let (netlist, p) = majority_celement();
        let spec = celement_stg();
        let ordering = NetOrdering::new((p.bc, true), (p.ab, false));
        let constraints = path_constraints(&netlist, &spec, &[ordering]);
        assert_eq!(constraints.len(), 1);
        let c = &constraints[0];
        assert_eq!(c.common_source, (p.c, true), "common enabling signal is c+");
        assert!(c.fast_path.contains(&(p.bc, true)));
        assert!(c.slow_path.contains(&(p.a, false)), "{:?}", c.slow_path);
        assert!(c.slow_path.contains(&(p.ab, false)));
        // The slow path passes through the environment: margin holds.
        assert!(c.holds(), "{}", c.describe(&netlist));
    }

    #[test]
    fn both_celement_constraints_resolve() {
        let (netlist, p) = majority_celement();
        let spec = celement_stg();
        let orderings = [
            NetOrdering::new((p.ac, true), (p.ab, false)),
            NetOrdering::new((p.bc, true), (p.ab, false)),
        ];
        let constraints = path_constraints(&netlist, &spec, &orderings);
        assert_eq!(constraints.len(), 2);
        for c in &constraints {
            assert!(c.margin_ps() > 0, "{}", c.describe(&netlist));
        }
    }

    #[test]
    fn describe_is_informative() {
        let (netlist, p) = majority_celement();
        let spec = celement_stg();
        let ordering = NetOrdering::new((p.bc, true), (p.ab, false));
        let c = &path_constraints(&netlist, &spec, &[ordering])[0];
        let text = c.describe(&netlist);
        assert!(text.contains("must beat"));
        assert!(text.contains("margin"));
    }

    #[test]
    fn gate_cause_polarities() {
        let a = NetId(0);
        let b = NetId(1);
        // AND falls when an input falls.
        let falls = gate_causes(&GateKind::And, &[a, b], false);
        assert!(falls.contains(&(a, false)));
        // NOR rises when inputs fall.
        let rises = gate_causes(&GateKind::Nor, &[a, b], true);
        assert!(rises.contains(&(a, false)));
        // gC falls when the reset stack rises.
        let gc = gate_causes(&GateKind::Gc { set: 1, reset: 1 }, &[a, b], false);
        assert_eq!(gc, vec![(b, true)]);
    }
}
