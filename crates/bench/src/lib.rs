//! # rt-bench — the experiment harness
//!
//! Shared measurement code behind the table/figure regeneration binaries
//! (`cargo run -p rt-bench --bin table1`, `--bin table2`, ...) and the
//! benchmark snapshots. Every table and figure of the paper's evaluation
//! maps to one binary here; see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured values.

use rt_dft::{fault_coverage_four_phase, fault_coverage_pulse};
use rt_netlist::fifo::{self, FifoPorts};
use rt_netlist::Netlist;
use rt_rappid::{compare, workload, ClockedConfig, ClockedDecoder, Rappid, RappidConfig, Table1};
use rt_sim::agent::{run_with_agents, FourPhaseConsumer, RingProducer};
use rt_sim::measure::EdgeRecorder;
use rt_sim::{DelayConfig, Simulator};

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct FifoRow {
    /// Circuit name.
    pub name: &'static str,
    /// Worst-case cycle time in ps (max over process-variation seeds).
    pub worst_delay_ps: u64,
    /// Average cycle time in ps (nominal delays).
    pub avg_delay_ps: u64,
    /// Switching energy per complete four-phase cycle, fJ.
    pub energy_per_cycle_fj: u64,
    /// Transistor count.
    pub transistors: usize,
    /// Stuck-at fault coverage in percent.
    pub testability_pct: f64,
}

/// Environment response used for Table-2 cycle measurements (fast, so
/// the circuit dominates).
pub const TABLE2_ENV_PS: u64 = 40;

/// Process-variation seeds for the worst-case column.
pub const JITTER_SEEDS: [u64; 6] = [1, 7, 13, 42, 99, 1234];

/// Measures one handshake FIFO variant (SI / BM / RT).
pub fn measure_handshake_fifo(name: &'static str, build: fn() -> (Netlist, FifoPorts)) -> FifoRow {
    let (netlist, ports) = build();
    let cycle = |config: DelayConfig| -> (u64, u64) {
        let mut sim = Simulator::with_delays(&netlist, config);
        sim.settle_initial(16);
        let mut producer = RingProducer::new(ports.li, ports.lo, ports.ri, TABLE2_ENV_PS);
        producer.max_cycles = Some(40);
        let mut consumer = FourPhaseConsumer::new(ports.ro, ports.ri, TABLE2_ENV_PS);
        let mut recorder = EdgeRecorder::new(ports.li);
        run_with_agents(
            &mut sim,
            &mut [&mut producer, &mut consumer, &mut recorder],
            100_000_000,
        );
        let stats = recorder.cycle_stats().expect("at least two cycles");
        let energy_per_cycle = sim.energy_fj() / producer.cycles().max(1);
        (stats.mean_ps, energy_per_cycle)
    };
    let (avg, energy) = cycle(DelayConfig::Nominal);
    let worst = JITTER_SEEDS
        .iter()
        .map(|&seed| cycle(DelayConfig::Jitter { spread: 25, seed }).0)
        .max()
        .unwrap_or(avg);
    let coverage = fault_coverage_four_phase(&netlist, ports, 6);
    FifoRow {
        name,
        worst_delay_ps: worst.max(avg),
        avg_delay_ps: avg,
        energy_per_cycle_fj: energy,
        transistors: netlist.transistor_count(),
        testability_pct: coverage.coverage_pct(),
    }
}

/// Measures the pulse-mode FIFO: its "cycle" is the minimum sustainable
/// pulse separation (the self-reset loop).
pub fn measure_pulse_fifo() -> FifoRow {
    let (netlist, ports) = fifo::pulse_fifo();
    let min_period = |config: DelayConfig| -> u64 {
        let works = |period: u64| -> bool {
            let mut sim = Simulator::with_delays(&netlist, config);
            sim.settle_initial(16);
            let mut source = rt_sim::agent::PulseSource {
                net: ports.li,
                period_ps: period,
                width_ps: 120,
                count: 12,
                offset_ps: 200,
            };
            let mut recorder = EdgeRecorder::new(ports.ro);
            run_with_agents(&mut sim, &mut [&mut source, &mut recorder], 100_000_000);
            recorder.rises().len() == 12
        };
        let mut lo = 60;
        let mut hi = 2_000;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if works(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    let avg = min_period(DelayConfig::Nominal);
    let worst = JITTER_SEEDS
        .iter()
        .map(|&seed| min_period(DelayConfig::Jitter { spread: 25, seed }))
        .max()
        .unwrap_or(avg)
        .max(avg);
    // Energy per pulse cycle at a comfortable period.
    let energy = {
        let mut sim = Simulator::new(&netlist);
        sim.settle_initial(16);
        let mut source = rt_sim::agent::PulseSource {
            net: ports.li,
            period_ps: avg * 3,
            width_ps: 120,
            count: 20,
            offset_ps: 200,
        };
        run_with_agents(&mut sim, &mut [&mut source], 100_000_000);
        sim.energy_fj() / 20
    };
    let coverage = fault_coverage_pulse(&netlist, ports, 6);
    FifoRow {
        name: "Pulse",
        worst_delay_ps: worst,
        avg_delay_ps: avg,
        energy_per_cycle_fj: energy,
        transistors: netlist.transistor_count(),
        testability_pct: coverage.coverage_pct(),
    }
}

/// All four rows of Table 2, in the paper's order.
pub fn table2() -> Vec<FifoRow> {
    vec![
        measure_handshake_fifo("SI", fifo::si_fifo),
        measure_handshake_fifo("RT-BM", fifo::bm_fifo),
        measure_handshake_fifo("RT (Fig. 6)", fifo::rt_fifo),
        measure_pulse_fifo(),
    ]
}

/// Renders Table 2 next to the paper's values.
pub fn render_table2(rows: &[FifoRow]) -> String {
    let paper: [(&str, u64, u64, f64, u32, u32); 4] = [
        ("SI", 2160, 1560, 37.6, 39, 91),
        ("RT-BM", 1020, 550, 32.2, 40, 74),
        ("RT (Fig. 6)", 595, 390, 18.2, 20, 100),
        ("Pulse", 350, 350, 16.2, 17, 100),
    ];
    let mut out = String::new();
    out.push_str(
        "circuit       worst ps (paper)   avg ps (paper)   pJ/cycle (paper)   #trans (paper)   test% (paper)\n",
    );
    for (row, p) in rows.iter().zip(paper.iter()) {
        out.push_str(&format!(
            "{:<12}  {:>8} ({:>5})   {:>7} ({:>5})   {:>8.1} ({:>4.1})   {:>6} ({:>4})   {:>5.1} ({:>3})\n",
            row.name,
            row.worst_delay_ps,
            p.1,
            row.avg_delay_ps,
            p.2,
            row.energy_per_cycle_fj as f64 / 1_000.0,
            p.3,
            row.transistors,
            p.4,
            row.testability_pct,
            p.5,
        ));
    }
    out
}

/// Control-logic testability for Table 1: aggregate fault coverage over
/// the RAPPID-representative control circuits — RAPPID mixed aggressive
/// RT cells (fully testable) with SI/guarded cells (whose hazard-guard
/// transistors harbour escapes), which is how the paper lands at 95.9%.
pub fn control_testability_pct() -> f64 {
    let mut detected = 0usize;
    let mut total = 0usize;
    for build in [fifo::si_fifo, fifo::rt_fifo] {
        let (netlist, ports) = build();
        let result = fault_coverage_four_phase(&netlist, ports, 6);
        detected += result.detected;
        total += result.total;
    }
    let (chain, chain_ports, _) = fifo::rt_fifo_chain(3);
    let result = fault_coverage_four_phase(&chain, chain_ports, 6);
    detected += result.detected;
    total += result.total;
    let (pulse, pulse_ports) = fifo::pulse_fifo();
    let result = fault_coverage_pulse(&pulse, pulse_ports, 6);
    detected += result.detected;
    total += result.total;
    detected as f64 * 100.0 / total.max(1) as f64
}

/// Regenerates Table 1 on the typical workload.
pub fn table1(
    lines: usize,
    seed: u64,
) -> (Table1, rt_rappid::RappidResult, rt_rappid::ClockedResult) {
    let workload = workload::typical_mix(lines, seed);
    let rappid = Rappid::new(RappidConfig::default()).run(&workload);
    let clocked = ClockedDecoder::new(ClockedConfig::default()).run(&workload);
    let testability = control_testability_pct();
    (compare(&rappid, &clocked, testability), rappid, clocked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_preserves_paper_orderings() {
        let rows = table2();
        let by_name = |n: &str| rows.iter().find(|r| r.name.starts_with(n)).unwrap();
        let si = by_name("SI");
        let bm = by_name("RT-BM");
        let rt = by_name("RT (");
        let pulse = by_name("Pulse");
        // Delay: SI slowest, pulse fastest.
        assert!(si.avg_delay_ps > bm.avg_delay_ps);
        assert!(bm.avg_delay_ps > rt.avg_delay_ps);
        assert!(rt.avg_delay_ps >= pulse.avg_delay_ps);
        // Worst ≥ average everywhere.
        for row in &rows {
            assert!(row.worst_delay_ps >= row.avg_delay_ps, "{row:?}");
        }
        // Energy: RT well below SI; pulse ≤ RT.
        assert!(si.energy_per_cycle_fj > rt.energy_per_cycle_fj * 3 / 2);
        assert!(si.energy_per_cycle_fj >= bm.energy_per_cycle_fj);
        // Pulse ≈ RT energy (the paper's 16.2 vs 18.2 pJ: "the additional
        // savings awarded by going to pulse mode are much less pronounced").
        assert!(pulse.energy_per_cycle_fj <= rt.energy_per_cycle_fj * 11 / 10);
        // Area: SI ≈ BM ≈ 2× RT > pulse.
        assert!(si.transistors >= rt.transistors * 2);
        assert!(pulse.transistors < rt.transistors);
        // Testability: RT and pulse are full.
        assert!(rt.testability_pct >= 99.9);
        assert!(pulse.testability_pct >= 99.9);
    }

    #[test]
    fn table1_matches_paper_shape() {
        let (t, rappid, clocked) = table1(256, 42);
        assert!((2.0..=4.0).contains(&t.throughput_ratio), "{t:?}");
        assert!((1.4..=3.5).contains(&t.latency_ratio), "{t:?}");
        assert!((1.4..=3.0).contains(&t.power_ratio), "{t:?}");
        assert!((5.0..=40.0).contains(&t.area_penalty_pct), "{t:?}");
        assert!(t.testability_pct > 85.0, "{t:?}");
        assert!(rappid.instructions_per_ns() > clocked.instructions_per_ns());
    }

    #[test]
    fn render_includes_paper_reference_values() {
        let rows = table2();
        let text = render_table2(&rows);
        assert!(text.contains("2160"));
        assert!(text.contains("Pulse"));
    }
}
