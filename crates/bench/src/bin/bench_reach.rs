//! Perf-trajectory harness for the state-space core.
//!
//! Runs explicit reachability, SI synthesis and symbolic (BDD)
//! reachability over the model corpus (including the > 64-place wide
//! models), plus a `csc` stage that times complete-state-coding
//! resolution through [`rt_stg::engine::ReachEngine`] on both backends
//! (serially and on a [`POOL_THREADS`]-wide candidate worker pool) and
//! measures the persistent symbolic manager's warm-vs-fresh advantage.
//! Writes `BENCH_reach.json` with per-model wall times, exploration
//! throughput (states/sec) and allocated BDD node counts. Future
//! changes compare against the committed baseline to catch
//! regressions:
//!
//! ```text
//! cargo run --release -p rt-bench --bin bench_reach [-- [--fast] OUTPUT.json]
//! ```
//!
//! `--fast` shrinks the per-section measurement window (CI smoke). The
//! emitted JSON is structurally validated before the process exits 0,
//! so a malformed snapshot fails loudly instead of rotting.

use std::fmt::Write as _;
use std::time::Instant;

use rt_stg::engine::ReachEngine;
use rt_stg::symbolic::csc::csc_conflicts_symbolic_in;
use rt_stg::symbolic::reach_symbolic_in;
use rt_stg::{corpus, explore, models, Stg};
use rt_synth::csc::{resolve_csc_engine, CscOptions};
use rt_synth::synthesize;

/// Worker-pool width of the `csc` stage's pooled candidate search.
const POOL_THREADS: usize = 2;

/// One measured model.
struct Row {
    name: String,
    states: usize,
    arcs: usize,
    explore_ns: f64,
    states_per_sec: f64,
    synth_ns: Option<f64>,
    symbolic_ns: f64,
    symbolic_markings: u64,
    bdd_nodes: usize,
}

/// One measured CSC resolution (the engine stage).
struct CscRow {
    name: String,
    inserted: usize,
    explicit_ns: f64,
    symbolic_ns: f64,
    /// Resolution wall time with the candidate search on the worker
    /// pool ([`POOL_THREADS`] wide) instead of the serial scan.
    parallel_ns: f64,
    cold_summary_ns: f64,
    warm_summary_ns: f64,
    warm_speedup: f64,
    /// Engine degradations recorded across this row's verification
    /// resolutions. Under default (unlimited) budgets this must be 0 —
    /// `bench_check` fails the gate when a fresh snapshot reports any,
    /// so a budget fallback can never silently shift what is measured.
    degradations: usize,
}

/// Times `f` adaptively: repeats until `min_ms` of total wall time,
/// returns mean ns per call.
fn time_ns<T>(min_ms: u128, mut f: impl FnMut() -> T) -> f64 {
    let mut reps: u64 = 0;
    let start = Instant::now();
    loop {
        std::hint::black_box(f());
        reps += 1;
        if start.elapsed().as_millis() >= min_ms {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// The measured model list — one source of truth, shared with the
/// cross-detector agreement tests ([`corpus::sweep`]).
fn corpus_models() -> Vec<(String, Stg)> {
    corpus::sweep()
}

fn measure(name: &str, stg: &Stg, min_ms: u128) -> Row {
    let sg = explore(stg).expect("model explores");
    let states = sg.state_count();
    let arcs = sg.arc_count();

    let explore_ns = time_ns(min_ms, || explore(stg).expect("model explores"));
    let states_per_sec = states as f64 / (explore_ns / 1e9);

    // Synthesis only makes sense for CSC-clean specs with implemented
    // signals; skip the rest (rings/chains of pure inputs etc.) and the
    // wide nets whose signal count is past the truth-table regime.
    let synth_ns = (!sg.implemented_signals().is_empty()
        && sg.csc_conflicts().is_empty()
        && sg.signal_count() <= 16)
        .then(|| time_ns(min_ms, || synthesize(&sg, name).expect("synthesizes")));

    // Symbolic reach in a fresh manager per call.
    let fresh = || {
        let mut bdd = rt_boolean::Bdd::new(stg.net().place_count());
        reach_symbolic_in(stg, &mut bdd).expect("symbolic explores")
    };
    let symbolic = fresh();
    let symbolic_ns = time_ns(min_ms, fresh);

    Row {
        name: name.to_string(),
        states,
        arcs,
        explore_ns,
        states_per_sec,
        synth_ns,
        symbolic_ns,
        symbolic_markings: symbolic.markings,
        bdd_nodes: symbolic.bdd_nodes,
    }
}

/// One measured CSC *detection* comparison (the `csc_symbolic` stage):
/// the explicit detector (full graph build + `csc_conflicts`) against
/// the symbolic pair-space relation, cold and warm.
struct CscSymbolicRow {
    name: String,
    conflicts: u64,
    explicit_detect_ns: f64,
    symbolic_cold_ns: f64,
    symbolic_warm_ns: f64,
    bdd_nodes: usize,
}

/// Times conflict *detection* (not resolution) both ways. The counts
/// must agree — this is the bench-side guard mirroring
/// `crates/stg/tests/csc_symbolic.rs`.
fn measure_csc_symbolic(name: &str, stg: &Stg, min_ms: u128) -> CscSymbolicRow {
    let sg = explore(stg).expect("model explores");
    let explicit_conflicts = sg.csc_conflicts().len() as u64;
    let cold = || {
        let mut bdd = rt_boolean::Bdd::new(0);
        csc_conflicts_symbolic_in(stg, &mut bdd).expect("analyses")
    };
    let analysis = cold();
    assert_eq!(
        analysis.conflicts, explicit_conflicts,
        "{name}: detectors must agree on the conflict count"
    );
    let explicit_detect_ns = time_ns(min_ms, || {
        explore(stg).expect("model explores").csc_conflicts().len()
    });
    let symbolic_cold_ns = time_ns(min_ms, cold);
    let mut engine = ReachEngine::symbolic();
    engine.csc_conflicts_symbolic(stg).expect("warmup");
    let symbolic_warm_ns = time_ns(min_ms, || {
        engine.csc_conflicts_symbolic(stg).expect("analyses")
    });
    assert!(engine.stats().manager_reuses > 0, "warm path must reuse");
    CscSymbolicRow {
        name: name.to_string(),
        conflicts: explicit_conflicts,
        explicit_detect_ns,
        symbolic_cold_ns,
        symbolic_warm_ns,
        bdd_nodes: analysis.bdd_nodes,
    }
}

/// The `csc` stage: CSC resolution through the engine on both backends
/// (results must agree), the same resolution with the candidate search
/// on the worker pool (the winner must also agree), plus the
/// warm-vs-fresh symbolic summary comparison on one long-lived engine.
fn measure_csc(name: &str, stg: &Stg, min_ms: u128) -> CscRow {
    let serial_options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    let pool_options = CscOptions {
        threads: POOL_THREADS,
        ..CscOptions::default()
    };
    let mut explicit_engine = ReachEngine::explicit();
    let explicit_res = resolve_csc_engine(stg, &serial_options, &mut explicit_engine)
        .expect("csc resolves on the explicit backend");
    let mut symbolic_engine = ReachEngine::symbolic();
    let symbolic_res = resolve_csc_engine(stg, &serial_options, &mut symbolic_engine)
        .expect("csc resolves on the symbolic backend");
    assert_eq!(
        explicit_res.inserted, symbolic_res.inserted,
        "{name}: backends must produce identical resolutions"
    );
    assert_eq!(explicit_res.cost, symbolic_res.cost, "{name}");
    let mut pooled_engine = ReachEngine::explicit();
    let pooled_res = resolve_csc_engine(stg, &pool_options, &mut pooled_engine)
        .expect("csc resolves on the candidate pool");
    assert_eq!(
        pooled_res.inserted, explicit_res.inserted,
        "{name}: pool width must not change the winner"
    );
    assert_eq!(pooled_res.cost, explicit_res.cost, "{name}");

    let explicit_ns = time_ns(min_ms, || {
        resolve_csc_engine(stg, &serial_options, &mut ReachEngine::explicit()).expect("resolves")
    });
    let symbolic_ns = time_ns(min_ms, || {
        resolve_csc_engine(stg, &serial_options, &mut ReachEngine::symbolic()).expect("resolves")
    });
    let parallel_ns = time_ns(min_ms, || {
        resolve_csc_engine(stg, &pool_options, &mut ReachEngine::explicit()).expect("resolves")
    });

    // Manager reuse: fresh-manager summaries (cold) vs second-and-later
    // summaries on one engine (warm). The resolved STG is the repeated
    // workload — exactly what the search re-explores.
    let resolved = &explicit_res.stg;
    let cold_summary_ns = time_ns(min_ms, || {
        ReachEngine::symbolic()
            .summary(resolved)
            .expect("summarizes")
    });
    let mut warm_engine = ReachEngine::symbolic();
    warm_engine.summary(resolved).expect("warmup");
    let warm_summary_ns = time_ns(min_ms, || {
        warm_engine.summary(resolved).expect("summarizes")
    });
    assert!(
        warm_engine.stats().manager_reuses > 0,
        "warm path must reuse"
    );

    let degradations = explicit_engine.stats().degradations.len()
        + symbolic_engine.stats().degradations.len()
        + pooled_engine.stats().degradations.len()
        + warm_engine.stats().degradations.len();

    CscRow {
        name: name.to_string(),
        inserted: explicit_res.inserted.len(),
        explicit_ns,
        symbolic_ns,
        parallel_ns,
        cold_summary_ns,
        warm_summary_ns,
        warm_speedup: cold_summary_ns / warm_summary_ns,
        degradations,
    }
}

/// Structural sanity of the emitted snapshot: the keys downstream
/// tooling greps for must be present and the headline numbers must be
/// finite and positive. Returns a description of the first problem.
fn validate(json: &str) -> Result<(), String> {
    for key in [
        "\"models\"",
        "\"csc\"",
        "\"summary\"",
        "\"states_per_sec\"",
        "\"threads\"",
        "\"parallel_ns\"",
        "\"csc_symbolic\"",
        "\"explicit_detect_ns\"",
        "\"symbolic_warm_ns\"",
        "\"warm_speedup\"",
        "\"aggregate_states_per_sec\"",
        "\"degradations\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    let aggregate = json
        .split("\"aggregate_states_per_sec\":")
        .nth(1)
        .and_then(|rest| rest.split(['}', ',']).next())
        .and_then(|num| num.trim().parse::<f64>().ok())
        .ok_or_else(|| "unparseable aggregate_states_per_sec".to_string())?;
    if !aggregate.is_finite() || aggregate <= 0.0 {
        return Err(format!("nonsense aggregate throughput {aggregate}"));
    }
    if json.matches("\"name\"").count() < 10 {
        return Err("suspiciously few model rows".to_string());
    }
    Ok(())
}

fn main() {
    let mut out_path = "BENCH_reach.json".to_string();
    let mut min_ms: u128 = 60;
    let mut fast = false;
    for arg in std::env::args().skip(1) {
        if arg == "--fast" {
            min_ms = 5;
            fast = true;
        } else if arg.starts_with("--") {
            eprintln!("bench_reach: unknown flag {arg} (usage: [--fast] [OUTPUT.json])");
            std::process::exit(2);
        } else {
            out_path = arg;
        }
    }

    let mut rows = Vec::new();
    for (name, stg) in corpus_models() {
        let row = measure(&name, &stg, min_ms);
        println!(
            "{:<24} {:>7} states  explore {:>10.0} ns ({:>12.0} states/s)  symbolic {:>10.0} ns  {:>8} bdd nodes",
            row.name, row.states, row.explore_ns, row.states_per_sec, row.symbolic_ns,
            row.bdd_nodes
        );
        rows.push(row);
    }

    // CSC-conflicted specs: the engine's repeated-reachability stage.
    // chain32 is CSC-free but has 66 places, past one packed machine
    // word: the backends must agree at that size too.
    let csc_rows: Vec<CscRow> = [
        ("fifo".to_string(), models::fifo_stg()),
        (
            "corpus:vme_read".to_string(),
            corpus::parse(corpus::VME_READ_G).expect("parses"),
        ),
        (
            "corpus:pipeline_stage".to_string(),
            corpus::parse(corpus::PIPELINE_STAGE_G).expect("parses"),
        ),
        ("chain32".to_string(), models::chain_stg(32)),
    ]
    .iter()
    .map(|(name, stg)| {
        let row = measure_csc(name, stg, min_ms);
        println!(
            "csc {:<20} +{} signals  serial {:>11.0} ns  pool(x{}) {:>11.0} ns  symbolic {:>11.0} ns  summary cold {:>9.0} / warm {:>7.0} ns ({:.1}x)",
            row.name, row.inserted, row.explicit_ns, POOL_THREADS, row.parallel_ns,
            row.symbolic_ns, row.cold_summary_ns, row.warm_summary_ns, row.warm_speedup
        );
        row
    })
    .collect();

    // Conflict *detection* head-to-head: the symbolic pair-space
    // detector against the explicit graph build, on the conflicted
    // specs and the wide models (fabric4x4 only on full runs — its
    // analysis alone is seconds).
    let mut csc_symbolic_models: Vec<(String, Stg)> = vec![
        ("fifo".to_string(), models::fifo_stg()),
        (
            "corpus:vme_read".to_string(),
            corpus::parse(corpus::VME_READ_G).expect("parses"),
        ),
        (
            "corpus:pipeline_stage".to_string(),
            corpus::parse(corpus::PIPELINE_STAGE_G).expect("parses"),
        ),
        ("wide:adder16_rt".to_string(), corpus::adder16_rt_stg()),
    ];
    if !fast {
        csc_symbolic_models.push(("wide:fabric4x4".to_string(), corpus::fabric4x4_stg()));
    }
    let csc_symbolic_rows: Vec<CscSymbolicRow> = csc_symbolic_models
        .iter()
        .map(|(name, stg)| {
            let row = measure_csc_symbolic(name, stg, min_ms);
            println!(
                "csc-sym {:<16} {:>7} conflicts  explicit {:>11.0} ns  symbolic cold {:>11.0} / warm {:>11.0} ns  {:>8} bdd nodes",
                row.name, row.conflicts, row.explicit_detect_ns, row.symbolic_cold_ns,
                row.symbolic_warm_ns, row.bdd_nodes
            );
            row
        })
        .collect();

    let total_states: usize = rows.iter().map(|r| r.states).sum();
    let total_explore_ns: f64 = rows.iter().map(|r| r.explore_ns).sum();
    let aggregate_states_per_sec = total_states as f64 / (total_explore_ns / 1e9);
    // Budget-fallback gauge: with the default unlimited budgets nothing
    // may degrade; `bench_check` fails a snapshot that reports any.
    let total_degradations: usize = csc_rows.iter().map(|r| r.degradations).sum();

    let mut json = String::from("{\n  \"models\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let synth = r
            .synth_ns
            .map_or("null".to_string(), |ns| format!("{ns:.0}"));
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"states\": {}, \"arcs\": {}, \
             \"explore_ns\": {:.0}, \"states_per_sec\": {:.0}, \"synth_ns\": {}, \
             \"symbolic_ns\": {:.0}, \"symbolic_markings\": {}, \"bdd_nodes\": {}}}{}",
            r.name,
            r.states,
            r.arcs,
            r.explore_ns,
            r.states_per_sec,
            synth,
            r.symbolic_ns,
            r.symbolic_markings,
            r.bdd_nodes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"csc\": [\n");
    for (i, r) in csc_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"inserted\": {}, \"threads\": {}, \
             \"explicit_ns\": {:.0}, \"parallel_ns\": {:.0}, \"symbolic_ns\": {:.0}, \
             \"cold_summary_ns\": {:.0}, \"warm_summary_ns\": {:.0}, \
             \"warm_speedup\": {:.1}, \"degradations\": {}}}{}",
            r.name,
            r.inserted,
            POOL_THREADS,
            r.explicit_ns,
            r.parallel_ns,
            r.symbolic_ns,
            r.cold_summary_ns,
            r.warm_summary_ns,
            r.warm_speedup,
            r.degradations,
            if i + 1 < csc_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"csc_symbolic\": [\n");
    for (i, r) in csc_symbolic_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"conflicts\": {}, \"explicit_detect_ns\": {:.0}, \
             \"symbolic_cold_ns\": {:.0}, \"symbolic_warm_ns\": {:.0}, \"bdd_nodes\": {}}}{}",
            r.name,
            r.conflicts,
            r.explicit_detect_ns,
            r.symbolic_cold_ns,
            r.symbolic_warm_ns,
            r.bdd_nodes,
            if i + 1 < csc_symbolic_rows.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"summary\": {{\"total_states\": {total_states}, \
         \"total_explore_ns\": {total_explore_ns:.0}, \
         \"aggregate_states_per_sec\": {aggregate_states_per_sec:.0}, \
         \"degradations\": {total_degradations}}}\n}}\n"
    );

    if let Err(problem) = validate(&json) {
        eprintln!("bench_reach: malformed snapshot: {problem}");
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).expect("writes json");
    let reread = std::fs::read_to_string(&out_path).expect("reads back json");
    if let Err(problem) = validate(&reread) {
        eprintln!("bench_reach: written snapshot fails validation: {problem}");
        std::process::exit(1);
    }
    println!(
        "\naggregate: {aggregate_states_per_sec:.0} states/s over {total_states} states -> {out_path}"
    );
}
