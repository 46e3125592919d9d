//! The in-process Figure-2 path: `RtSynthesisFlow`, then verification
//! of the synthesized netlist under its back-annotated constraints.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rt_core::generate_assumptions;
use rt_stg::engine::ReachEngine;
use rt_synth::csc::{resolve_csc_engine, CscOptions};
use rt_synth::synthesize;
use rt_verify::{orderings_from_constraints, verify_against_sg};

use crate::inputs::{draws_per_round, flow_catalog, FlowItem, RoundRobin};
use crate::oracle::{check_netlist, Outcome};
use crate::trace::{Samples, Tracer};
use crate::CALLERS;

/// One op: the flow with the item's options on a fresh explicit
/// engine, then the oracle's conformance check. Returns the verdict and
/// the netlist's transistor count.
pub fn run_op(item: &FlowItem) -> (Outcome, usize) {
    match item
        .flow
        .run_with_engine(&item.stg, &item.user, &mut ReachEngine::explicit())
    {
        Ok(report) => {
            let netlist = &report.synthesis.netlist;
            let (outcome, _) = check_netlist(netlist, &report.lazy_sg, &report.constraints);
            (outcome, netlist.transistor_count())
        }
        Err(error) => (Outcome::Error(error.to_string()), 0),
    }
}

pub struct FlowSetup {
    pub catalog: Vec<FlowItem>,
    /// Summed transistor count over the catalog, one circuit each.
    pub transistors_total: usize,
}

/// Builds the catalog and warms up by running every item once, spread
/// over the callers like the timed loop.
pub fn setup() -> FlowSetup {
    let catalog = flow_catalog();
    let next = AtomicUsize::new(0);
    let transistors_total = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut transistors = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = catalog.get(i) else { break };
                        transistors += run_op(item).1;
                    }
                    transistors
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .sum()
    });
    FlowSetup {
        catalog,
        transistors_total,
    }
}

pub struct FlowRecord {
    pub seq: usize,
    pub item: usize,
    pub latency_ns: u64,
    pub start: Instant,
    pub outcome: Outcome,
}

/// Closed loop for `window`: each caller takes the next item of the
/// shared seeded round-robin and runs it to completion.
pub fn closed_loop(setup: &FlowSetup, seed: u64, window: Duration) -> (Vec<FlowRecord>, Duration) {
    let entries = setup
        .catalog
        .iter()
        .enumerate()
        .flat_map(|(i, item)| std::iter::repeat_n(i, draws_per_round(item)))
        .collect();
    let order = Mutex::new((RoundRobin::new(seed, entries), 0usize));
    let started = Instant::now();
    let mut records: Vec<FlowRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while started.elapsed() < window {
                        let (item, seq) = {
                            let mut order = order.lock().expect("order lock");
                            order.1 += 1;
                            (order.0.next().expect("endless"), order.1 - 1)
                        };
                        let start = Instant::now();
                        let (outcome, _) = run_op(&setup.catalog[item]);
                        mine.push(FlowRecord {
                            seq,
                            item,
                            latency_ns: start.elapsed().as_nanos() as u64,
                            start,
                            outcome,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    records.sort_by_key(|r| r.seq);
    (records, elapsed)
}

/// Pass index of the flow-stage replay in the trace.
pub const FLOW_PASS: u32 = 1;

/// Replays `items` stage by stage, timing each stage's public call on
/// the same spec, until `budget` runs out. Returns (summed stage time,
/// summed flow+verify time) for the coverage ratio.
pub fn layer_pass(
    items: &[&FlowItem],
    budget: Duration,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> (u64, u64) {
    let started = Instant::now();
    let (mut stage_ns, mut op_ns) = (0u64, 0u64);
    for (req, item) in items.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let req = req as u64;
        let root_id = tracer.begin("flow.op", None, req, FLOW_PASS);
        let root = Some(root_id);
        let mut engine = ReachEngine::explicit();
        let (sg, ns) = tracer.time("stg.state_graph", root, req, FLOW_PASS, || {
            engine.state_graph(&item.stg)
        });
        let Ok(sg) = sg else {
            tracer.end(root_id);
            continue;
        };
        stage_ns += ns;
        samples.add("stg.reach_ns", ns as f64);
        samples.add("stg.states", sg.state_count() as f64);
        // Probed on every spec, whether or not the item's variant runs
        // the generator.
        let ((_, reduced), ns) =
            tracer.time("core.generate_assumptions", root, req, FLOW_PASS, || {
                generate_assumptions(&sg, &item.user)
            });
        stage_ns += ns;
        samples.add("core.auto_ns", ns as f64);
        samples.add("core.lazy_states", reduced.state_count() as f64);
        if !sg.csc_conflicts().is_empty() {
            let options = CscOptions::default();
            let (_, ns) = tracer.time("synth.resolve_csc_engine", root, req, FLOW_PASS, || {
                resolve_csc_engine(&item.stg, &options, &mut ReachEngine::explicit())
            });
            stage_ns += ns;
            samples.add("synth.csc_ns", ns as f64);
        }
        let (report, flow_ns) = tracer.time("core.run_with_engine", root, req, FLOW_PASS, || {
            item.flow
                .run_with_engine(&item.stg, &item.user, &mut engine)
        });
        samples.add("core.flow_ns", flow_ns as f64);
        samples.add("stg.degradations", engine.stats().degradations.len() as f64);
        let Ok(report) = report else {
            tracer.end(root_id);
            continue;
        };
        let (synthesis, ns) = tracer.time("synth.synthesize", root, req, FLOW_PASS, || {
            synthesize(&report.lazy_sg, &item.name)
        });
        if let Ok(synthesis) = synthesis {
            stage_ns += ns;
            samples.add("synth.map_ns", ns as f64);
            samples.add("synth.literals", synthesis.literal_count as f64);
        }
        let netlist = &report.synthesis.netlist;
        let (verdict, verify_ns) =
            tracer.time("verify.verify_against_sg", root, req, FLOW_PASS, || {
                let orderings =
                    orderings_from_constraints(netlist, &report.lazy_sg, &report.constraints);
                verify_against_sg(netlist, &report.lazy_sg, &orderings)
            });
        stage_ns += verify_ns;
        op_ns += flow_ns + verify_ns;
        samples.add("verify.compose_ns", verify_ns as f64);
        samples.add("verify.composed_states", verdict.states_explored as f64);
        tracer.end(root_id);
    }
    (stage_ns, op_ns)
}
