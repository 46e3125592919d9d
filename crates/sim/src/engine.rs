//! The event-driven simulation engine.
//!
//! Inertial-delay semantics: when a gate's inputs change, its new output
//! value is scheduled after the gate delay; if the output is re-evaluated
//! to a different value before the scheduled event matures, the pending
//! event is *cancelled* and a glitch hazard is recorded — a pulse shorter
//! than the gate delay does not propagate, as in real logic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rt_netlist::{GateId, GateKind, NetId, Netlist};

/// Delay configuration for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayConfig {
    /// Use each gate's nominal [`rt_netlist::DelayModel`].
    #[default]
    Nominal,
    /// Scale every delay by `percent` (100 = nominal, 150 = 1.5×).
    Scaled {
        /// Scale factor in percent.
        percent: u64,
    },
    /// Deterministic per-gate jitter: each gate's delay is scaled by a
    /// factor drawn from `[100 - spread, 100 + spread]` percent, seeded —
    /// the Monte-Carlo substitute for process variation.
    Jitter {
        /// Maximum deviation in percent.
        spread: u64,
        /// RNG seed (SplitMix64).
        seed: u64,
    },
}

/// Kinds of dynamic hazards the engine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardKind {
    /// A scheduled output transition was cancelled by a faster
    /// re-evaluation (runt pulse).
    Glitch,
    /// A set/reset state holder (generalized C-element or self-resetting
    /// domino) had both stacks conducting for longer than the contention
    /// threshold ([`CONTENTION_THRESHOLD_PS`]). Shorter overlaps — e.g.
    /// one inverter of skew on a guard literal — are absorbed by the
    /// keeper and not reported.
    DriveFight,
}

/// Contention shorter than this is absorbed by the keeper (one inverter
/// delay of skew on a guard input is normal in static CMOS).
pub const CONTENTION_THRESHOLD_PS: u64 = 40;

/// One recorded hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hazard {
    /// Simulation time in ps.
    pub time_ps: u64,
    /// The gate at fault.
    pub gate: GateId,
    /// What happened.
    pub kind: HazardKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time_ps: u64,
    seq: u64,
    net: NetId,
    value: bool,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ps, self.seq).cmp(&(other.time_ps, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The event-driven simulator over a borrowed netlist.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    /// Pending scheduled transition per net: `(time, value, seq)`.
    pending: Vec<Option<(u64, bool, u64)>>,
    queue: BinaryHeap<Reverse<Event>>,
    time_ps: u64,
    seq: u64,
    transition_counts: Vec<u64>,
    energy_fj: u64,
    hazards: Vec<Hazard>,
    /// Per-gate delay scale in percent (filled for Jitter).
    gate_scale: Vec<u64>,
    /// Start time of an ongoing set/reset contention per gate.
    fight_since: Vec<Option<u64>>,
    trace: Option<Vec<(u64, NetId, bool)>>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with nominal delays; all nets start low.
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator::with_delays(netlist, DelayConfig::Nominal)
    }

    /// Creates a simulator with an explicit [`DelayConfig`].
    pub fn with_delays(netlist: &'a Netlist, delay: DelayConfig) -> Self {
        let nets = netlist.net_count();
        let gate_scale = match delay {
            DelayConfig::Nominal => vec![100; netlist.gate_count()],
            DelayConfig::Scaled { percent } => vec![percent; netlist.gate_count()],
            DelayConfig::Jitter { spread, seed } => {
                let mut state = seed;
                (0..netlist.gate_count())
                    .map(|_| {
                        let r = splitmix64(&mut state) % (2 * spread + 1);
                        100 - spread + r
                    })
                    .collect()
            }
        };
        let mut sim = Simulator {
            netlist,
            values: vec![false; nets],
            pending: vec![None; nets],
            queue: BinaryHeap::new(),
            time_ps: 0,
            seq: 0,
            transition_counts: vec![0; nets],
            energy_fj: 0,
            hazards: Vec::new(),
            gate_scale,
            fight_since: vec![None; netlist.gate_count()],
            trace: None,
        };
        // Settle gates whose all-low inputs imply a high output (e.g.
        // inverters and NOR gates) by evaluating everything once at t=0.
        for gate in netlist.gates() {
            sim.evaluate_gate(gate);
        }
        sim
    }

    /// Enables waveform tracing ((time, net, new value) triples).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The captured waveform trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&[(u64, NetId, bool)]> {
        self.trace.as_deref()
    }

    /// Current simulation time in ps.
    pub fn now_ps(&self) -> u64 {
        self.time_ps
    }

    /// Current logic value of `net`.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Number of committed transitions on `net`.
    pub fn transition_count(&self, net: NetId) -> u64 {
        self.transition_counts[net.index()]
    }

    /// Accumulated switching energy in femtojoules.
    pub fn energy_fj(&self) -> u64 {
        self.energy_fj
    }

    /// Recorded hazards.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Forces `net` to `value` at the current time + `delay_ps` (external
    /// stimulus; normally used on input nets by [`crate::agent`]s).
    pub fn schedule(&mut self, net: NetId, value: bool, delay_ps: u64) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time_ps: self.time_ps + delay_ps,
            seq: self.seq,
            net,
            value,
        }));
    }

    /// Sets `net` immediately (initialization, before time starts).
    ///
    /// # Panics
    ///
    /// Panics if called after events have been processed.
    pub fn initialize(&mut self, net: NetId, value: bool) {
        assert_eq!(self.time_ps, 0, "initialize only before the run starts");
        if self.values[net.index()] != value {
            self.values[net.index()] = value;
            for &gate in self.netlist.fanout(net) {
                self.evaluate_gate(gate);
            }
        }
    }

    /// Re-evaluates every gate against current net values; used after a
    /// batch of [`Simulator::initialize`] calls to settle the circuit
    /// without advancing time.
    pub fn settle_initial(&mut self, max_rounds: usize) {
        for _ in 0..max_rounds {
            let mut changed = false;
            for gate in self.netlist.gates() {
                let g = self.netlist.gate(gate);
                let inputs: Vec<bool> = g.inputs.iter().map(|&n| self.values[n.index()]).collect();
                let new = g.kind.evaluate(&inputs, self.values[g.output.index()]);
                if new != self.values[g.output.index()] {
                    self.values[g.output.index()] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Clear anything scheduled during init evaluation.
        self.queue.clear();
        self.pending = vec![None; self.netlist.net_count()];
    }

    fn gate_delay(&self, gate: GateId, rising: bool) -> u64 {
        let g = self.netlist.gate(gate);
        let nominal = g.kind.delay_model(g.inputs.len()).for_edge(rising);
        nominal * self.gate_scale[gate.index()] / 100
    }

    /// Evaluates `gate` against current values and (re)schedules its
    /// output.
    fn evaluate_gate(&mut self, gate: GateId) {
        let g = self.netlist.gate(gate);
        let inputs: Vec<bool> = g.inputs.iter().map(|&n| self.values[n.index()]).collect();
        let prev = self.values[g.output.index()];
        let new = g.kind.evaluate(&inputs, prev);

        // Drive-fight detection for set/reset state holders: record only
        // contention that persists beyond the keeper-absorption threshold.
        if let GateKind::Gc { set, reset } | GateKind::DominoSr { set, reset } = &g.kind {
            let set = *set as usize;
            let reset = *reset as usize;
            let set_on = set > 0 && inputs[..set].iter().all(|&b| b);
            let reset_on = reset > 0 && inputs[set..set + reset].iter().all(|&b| b);
            match (set_on && reset_on, self.fight_since[gate.index()]) {
                (true, None) => self.fight_since[gate.index()] = Some(self.time_ps),
                (true, Some(start)) => {
                    // Persisting contention: report once and stop tracking.
                    if self.time_ps.saturating_sub(start) >= CONTENTION_THRESHOLD_PS {
                        self.fight_since[gate.index()] = None;
                        self.hazards.push(Hazard {
                            time_ps: start,
                            gate,
                            kind: HazardKind::DriveFight,
                        });
                    }
                }
                (false, Some(start)) => {
                    self.fight_since[gate.index()] = None;
                    if self.time_ps.saturating_sub(start) >= CONTENTION_THRESHOLD_PS {
                        self.hazards.push(Hazard {
                            time_ps: start,
                            gate,
                            kind: HazardKind::DriveFight,
                        });
                    }
                }
                (false, None) => {}
            }
        }

        let out = g.output;
        match self.pending[out.index()] {
            Some((_, scheduled_value, _)) => {
                if scheduled_value == new {
                    // Already heading there.
                } else if new == prev {
                    // The scheduled pulse was retracted before it fired:
                    // glitch (runt pulse suppressed by inertial delay).
                    self.pending[out.index()] = None;
                    self.hazards.push(Hazard {
                        time_ps: self.time_ps,
                        gate,
                        kind: HazardKind::Glitch,
                    });
                } else {
                    // Redirect the pending event to the new value.
                    let delay = self.gate_delay(gate, new);
                    self.seq += 1;
                    self.pending[out.index()] = Some((self.time_ps + delay, new, self.seq));
                    self.queue.push(Reverse(Event {
                        time_ps: self.time_ps + delay,
                        seq: self.seq,
                        net: out,
                        value: new,
                    }));
                }
            }
            None => {
                if new != prev {
                    let delay = self.gate_delay(gate, new);
                    self.seq += 1;
                    self.pending[out.index()] = Some((self.time_ps + delay, new, self.seq));
                    self.queue.push(Reverse(Event {
                        time_ps: self.time_ps + delay,
                        seq: self.seq,
                        net: out,
                        value: new,
                    }));
                }
            }
        }
    }

    /// Processes a single event; returns it, or `None` when the queue is
    /// empty.
    pub fn step(&mut self) -> Option<(u64, NetId, bool)> {
        loop {
            let Reverse(event) = self.queue.pop()?;
            // Stale check: gate-driven events must match the pending slot.
            if let Some((t, v, s)) = self.pending[event.net.index()] {
                if s == event.seq {
                    debug_assert_eq!((t, v), (event.time_ps, event.value));
                    self.pending[event.net.index()] = None;
                } else if self.netlist.driver(event.net).is_some() {
                    // Superseded gate event.
                    continue;
                }
            } else if self.netlist.driver(event.net).is_some() {
                // Cancelled gate event.
                continue;
            }
            self.time_ps = event.time_ps;
            if self.values[event.net.index()] == event.value {
                // No change (e.g. env re-asserting); skip silently.
                continue;
            }
            self.values[event.net.index()] = event.value;
            self.transition_counts[event.net.index()] += 1;
            if let Some(driver) = self.netlist.driver(event.net) {
                let g = self.netlist.gate(driver);
                self.energy_fj += g.kind.switching_energy_fj(g.inputs.len());
            }
            if let Some(trace) = &mut self.trace {
                trace.push((event.time_ps, event.net, event.value));
            }
            for &gate in self.netlist.fanout(event.net) {
                self.evaluate_gate(gate);
            }
            return Some((event.time_ps, event.net, event.value));
        }
    }

    /// Runs until the queue drains or `deadline_ps` is reached; returns
    /// the number of committed transitions. Simulation time stays at the
    /// last processed event (it does not jump to the deadline), so
    /// subsequent [`Simulator::schedule`] calls are relative to the last
    /// activity.
    pub fn run_until(&mut self, deadline_ps: u64) -> usize {
        let mut committed = 0;
        while let Some(Reverse(next)) = self.queue.peek() {
            if next.time_ps > deadline_ps {
                break;
            }
            if self.step().is_some() {
                committed += 1;
            }
        }
        committed
    }

    /// Flushes contention tracking at the end of a run: any set/reset
    /// fight still in progress that has already outlived the keeper
    /// threshold is reported. Call once after the last `run_until` /
    /// [`Simulator::step`].
    pub fn flush_contentions(&mut self) {
        for gate in self.netlist.gates() {
            if let Some(start) = self.fight_since[gate.index()] {
                if self.time_ps.saturating_sub(start) >= CONTENTION_THRESHOLD_PS {
                    self.fight_since[gate.index()] = None;
                    self.hazards.push(Hazard {
                        time_ps: start,
                        gate,
                        kind: HazardKind::DriveFight,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_netlist::{GateKind, NetKind, Netlist};

    fn inv_chain(n: usize) -> (Netlist, NetId, NetId) {
        let mut net = Netlist::new("chain");
        let input = net.add_net("in", NetKind::Input);
        let mut prev = input;
        let mut last = input;
        for i in 0..n {
            let out = net.add_net(format!("n{i}"), NetKind::Internal);
            net.add_gate(format!("inv{i}"), GateKind::Inv, vec![prev], out);
            prev = out;
            last = out;
        }
        (net, input, last)
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let (net, input, output) = inv_chain(4);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(8);
        // 4 inverters, input 0 -> output 0 (even chain of inversions).
        assert!(!sim.value(output));
        sim.schedule(input, true, 0);
        sim.run_until(1_000_000);
        assert!(sim.value(output));
        // Each inverter contributes its delay; rising edges through an
        // even chain alternate rise/fall delays (35/30 ps).
        assert!(sim.now_ps() >= 4 * 30);
        assert!(sim.now_ps() <= 4 * 35 + 1);
    }

    #[test]
    fn runt_pulse_is_suppressed_and_recorded() {
        // A pulse shorter than the inverter delay must not propagate.
        let (net, input, output) = inv_chain(1);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(8);
        assert!(sim.value(output), "inverter of 0 is 1");
        sim.schedule(input, true, 100);
        sim.schedule(input, false, 110); // 10 ps pulse < 30 ps delay
        sim.run_until(1_000_000);
        assert!(sim.value(output), "output never fell");
        assert_eq!(
            sim.hazards()
                .iter()
                .filter(|h| h.kind == HazardKind::Glitch)
                .count(),
            1
        );
    }

    #[test]
    fn wide_pulse_propagates_cleanly() {
        let (net, input, output) = inv_chain(1);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(8);
        sim.schedule(input, true, 100);
        sim.schedule(input, false, 400);
        sim.run_until(1_000_000);
        assert!(sim.value(output));
        assert_eq!(sim.transition_count(output), 2);
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn ring_oscillator_period_matches_delays() {
        let mut net = Netlist::new("osc");
        let a = net.add_net("a", NetKind::Internal);
        let b = net.add_net("b", NetKind::Internal);
        let c = net.add_net("c", NetKind::Internal);
        net.add_gate("i0", GateKind::Inv, vec![c], a);
        net.add_gate("i1", GateKind::Inv, vec![a], b);
        net.add_gate("i2", GateKind::Inv, vec![b], c);
        let mut sim = Simulator::new(&net);
        sim.run_until(2_000);
        // Period = sum of rise+fall delays around the loop = 3*(35+30).
        let transitions = sim.transition_count(c);
        assert!(transitions >= 2_000 / 195 - 1, "got {transitions}");
    }

    #[test]
    fn energy_accumulates_per_transition() {
        let (net, input, _) = inv_chain(2);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(8);
        let e0 = sim.energy_fj();
        sim.schedule(input, true, 0);
        sim.run_until(1_000_000);
        // Two inverter transitions at 90 fJ each (2 transistors * 45).
        assert_eq!(sim.energy_fj() - e0, 2 * 90);
    }

    #[test]
    fn celement_waits_for_both_inputs() {
        let mut net = Netlist::new("c");
        let a = net.add_net("a", NetKind::Input);
        let b = net.add_net("b", NetKind::Input);
        let y = net.add_net("y", NetKind::Output);
        net.add_gate("c0", GateKind::Celem, vec![a, b], y);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(4);
        sim.schedule(a, true, 100);
        sim.run_until(5_000);
        assert!(!sim.value(y), "one input is not enough");
        sim.schedule(b, true, 0);
        sim.run_until(10_000);
        assert!(sim.value(y));
        sim.schedule(a, false, 0);
        sim.run_until(15_000);
        assert!(sim.value(y), "C-element holds");
        sim.schedule(b, false, 0);
        sim.run_until(20_000);
        assert!(!sim.value(y));
    }

    #[test]
    fn gc_drive_fight_recorded() {
        let mut net = Netlist::new("gc");
        let s = net.add_net("s", NetKind::Input);
        let r = net.add_net("r", NetKind::Input);
        let y = net.add_net("y", NetKind::Output);
        net.add_gate("gc0", GateKind::Gc { set: 1, reset: 1 }, vec![s, r], y);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(4);
        sim.schedule(s, true, 100);
        sim.schedule(r, true, 100);
        // The fight persists well past the keeper threshold before the
        // set side finally drops.
        sim.schedule(s, false, 600);
        sim.run_until(5_000);
        sim.flush_contentions();
        assert!(sim
            .hazards()
            .iter()
            .any(|h| h.kind == HazardKind::DriveFight));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let (net, input, output) = inv_chain(6);
        let run = |seed: u64| {
            let mut sim = Simulator::with_delays(&net, DelayConfig::Jitter { spread: 20, seed });
            sim.settle_initial(8);
            sim.schedule(input, true, 0);
            sim.run_until(1_000_000);
            let _ = output;
            sim.now_ps()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn scaled_delays_slow_everything_down() {
        let (net, input, _) = inv_chain(4);
        let time = |cfg| {
            let mut sim = Simulator::with_delays(&net, cfg);
            sim.settle_initial(8);
            sim.schedule(input, true, 0);
            sim.run_until(1_000_000);
            sim.now_ps()
        };
        let nominal = time(DelayConfig::Nominal);
        let slow = time(DelayConfig::Scaled { percent: 200 });
        assert_eq!(slow, nominal * 2);
    }

    #[test]
    fn trace_records_transitions() {
        let (net, input, output) = inv_chain(2);
        let mut sim = Simulator::new(&net);
        sim.settle_initial(8);
        sim.enable_trace();
        sim.schedule(input, true, 50);
        sim.run_until(1_000_000);
        let trace = sim.trace().unwrap();
        assert!(trace.iter().any(|&(_, n, v)| n == input && v));
        assert!(trace.iter().any(|&(_, n, _)| n == output));
        // Trace is time-ordered.
        assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
