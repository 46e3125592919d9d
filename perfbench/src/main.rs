//! Seeded, closed-loop benchmark of the two user-facing paths: the
//! in-process Figure-2 flow with verification (`flow_corpus`), and
//! requests to the synthesis daemon over loopback TCP
//! (`daemon_small`, `daemon_wide`).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload daemon_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced.
//! `--trace 1` prints the per-layer metrics: a traced closed loop, then
//! replays of the same ops through each layer's public calls, with the
//! spans written as Chrome trace-event JSON under `perfbench/out/`.
//! Every op is checked by the oracle (`oracle.rs`); the last stdout
//! line is the JSON result.

mod daemon;
mod flow;
mod inputs;
mod oracle;
mod rng;
mod stats;
mod trace;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rt_service::Request;

use crate::inputs::{FlowItem, Input, Mix, PoolEntry};
use crate::oracle::Outcome;
use crate::stats::{beyond, median, peak_rss_mb, percentile, reset_peak_rss};
use crate::trace::{Samples, Tracer};

const WORKLOADS: [&str; 3] = ["flow_corpus", "daemon_small", "daemon_wide"];
/// Length of one episode, each with its own set-up: a window holds
/// `window / EPISODE` of them. `setup_s` and `peak_rss_mb` are medians
/// over a run's episodes.
const EPISODE: Duration = Duration::from_secs(2);
/// Caller threads (and daemon connections): one per CPU, so a run
/// measures both CPUs of the machine rather than whichever one a single
/// caller lands on (their speeds differ by up to a quarter on the
/// reference machine).
const CALLERS: usize = 2;
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric(&'static str, f64, &'static str);

fn print_result(attempted: usize, failed: usize, metrics: &[Metric]) {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, Metric(name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Latency and failure summary of one closed loop. A failed op counts
/// as missing every latency limit: its latency is the whole window.
struct Loop {
    attempted: usize,
    failed: usize,
    throughput: f64,
    p50_ms: f64,
    p90_ms: f64,
}

fn summarize(
    latency_ns: &[u64],
    outcomes: &[Outcome],
    elapsed: Duration,
    window: Duration,
) -> Loop {
    let latencies: Vec<f64> = latency_ns
        .iter()
        .zip(outcomes)
        .map(|(&ns, outcome)| {
            if outcome.is_correct() {
                ns as f64 / 1e6
            } else {
                window.as_secs_f64() * 1e3
            }
        })
        .collect();
    let failed = outcomes.iter().filter(|o| !o.is_correct()).count();
    let mut kinds: HashMap<String, usize> = HashMap::new();
    for outcome in outcomes.iter().filter(|o| !o.is_correct()) {
        let kind = format!("{outcome:?}");
        *kinds.entry(kind.chars().take(160).collect()).or_default() += 1;
    }
    for (kind, count) in &kinds {
        println!("FAILED x{count}: {kind}");
    }
    let attempted = outcomes.len();
    println!(
        "ops: {attempted} attempted, {failed} failed (failed_ratio {:.4}); p90 has {} samples beyond it",
        failed as f64 / attempted.max(1) as f64,
        beyond(attempted, 0.9)
    );
    Loop {
        attempted,
        failed,
        throughput: (attempted - failed) as f64 / elapsed.as_secs_f64(),
        p50_ms: percentile(&latencies, 0.5),
        p90_ms: percentile(&latencies, 0.9),
    }
}

/// Writes the run's generated inputs, one op per line.
fn write_listing(args: &Args, lines: &[String]) {
    let path = format!("{OUT_DIR}/inputs-{}-seed{}.tsv", args.workload, args.seed);
    let mut text = String::from("episode\tseq\tid\tname\tkind\tplaces\trepeat\tlatency_ms\n");
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    match std::fs::write(&path, text) {
        Ok(()) => println!("inputs: {} ops listed in {path}", lines.len()),
        Err(error) => println!("inputs: listing not written ({error})"),
    }
    for line in lines.iter().take(8) {
        println!("  {line}");
    }
}

fn flow_listing(episode: usize, catalog: &[FlowItem], records: &[flow::FlowRecord]) -> Vec<String> {
    let mut seen = HashSet::new();
    records
        .iter()
        .map(|r| {
            let item = &catalog[r.item];
            format!(
                "{episode}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}",
                r.seq,
                r.item,
                item.name,
                item.variant,
                item.stg.net().place_count(),
                !seen.insert(r.item),
                r.latency_ns as f64 / 1e6
            )
        })
        .collect()
}

fn daemon_listing(episode: usize, records: &[daemon::Record]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let input = &r.op.input;
            format!(
                "{episode}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}",
                r.op.seq,
                input.id,
                input.name,
                input.kind,
                input.places,
                r.op.repeat,
                r.latency_ns as f64 / 1e6
            )
        })
        .collect()
}

fn mix(workload: &str) -> Mix {
    if workload == "daemon_wide" {
        Mix::Wide
    } else {
        Mix::Small
    }
}

/// Everything a run's episodes produced, pooled.
#[derive(Default)]
struct Pooled {
    setup_s: Vec<f64>,
    /// Peak resident set of each episode, read as its closed loop ends
    /// (`flow_corpus`) or at its checkpoint op (daemon workloads).
    rss_mb: Vec<f64>,
    latency_ns: Vec<u64>,
    outcomes: Vec<Outcome>,
    elapsed: Duration,
    listing: Vec<String>,
    transistors: usize,
    /// The closed-loop daemons' counters (daemon workloads).
    counters: daemon::Counters,
    /// `flow_corpus`: the catalog and the item of every op.
    catalog: Vec<FlowItem>,
    flow_ops: Vec<usize>,
    /// Daemon workloads: the Verify pool and the input of every op.
    pool: Option<Arc<Vec<PoolEntry>>>,
    inputs: Vec<Arc<Input>>,
    repeats: usize,
}

/// Runs episodes of about [`EPISODE`] filling `window`. Each sets up afresh
/// (timed; the first from `process_start` when given), runs the closed
/// loop for its share, tears down and has the oracle check every op.
/// Fresh episodes bound the warm engines' growth and average over
/// independent warm-up trajectories.
fn run_episodes(
    args: &Args,
    window: Duration,
    process_start: Option<Instant>,
    mut tracer: Option<&mut Tracer>,
) -> Pooled {
    let count = (window.as_secs_f64() / EPISODE.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let share = window / count as u32;
    let mut pooled = Pooled::default();
    for episode in 0..count {
        let started = match (episode, process_start) {
            (0, Some(start)) => start,
            _ => Instant::now(),
        };
        let seed = args.seed ^ ((episode as u64) << 56);
        reset_peak_rss();
        if args.workload == "flow_corpus" {
            let setup = flow::setup();
            pooled.setup_s.push(started.elapsed().as_secs_f64());
            let (records, elapsed) = flow::closed_loop(&setup, seed, share);
            pooled.rss_mb.push(peak_rss_mb());
            pooled.elapsed += elapsed;
            if let Some(tracer) = tracer.as_deref_mut() {
                for r in &records {
                    tracer.record("loop.op", r.start, r.latency_ns, r.seq as u64, 0);
                }
            }
            pooled
                .listing
                .extend(flow_listing(episode, &setup.catalog, &records));
            pooled.transistors = setup.transistors_total;
            for r in records {
                pooled.latency_ns.push(r.latency_ns);
                pooled.outcomes.push(r.outcome);
                pooled.flow_ops.push(r.item);
            }
            pooled.catalog = setup.catalog;
        } else {
            let mix = mix(&args.workload);
            let mut setup = daemon::setup(seed, mix);
            pooled.setup_s.push(started.elapsed().as_secs_f64());
            let (records, elapsed, rss_mb) =
                daemon::closed_loop(&mut setup, share, daemon::rss_checkpoint(mix));
            pooled.rss_mb.push(rss_mb);
            pooled.elapsed += elapsed;
            if let Some(tracer) = tracer.as_deref_mut() {
                for r in &records {
                    tracer.record("loop.op", r.start, r.latency_ns, r.op.seq as u64, 0);
                }
            }
            pooled
                .counters
                .add(&setup.daemon.service_stats(), &setup.daemon.stats());
            pooled.transistors = setup
                .pool
                .iter()
                .map(|e| e.netlist.transistor_count())
                .sum();
            pooled.pool = Some(Arc::clone(&setup.pool));
            // Free the warm engines before the oracle builds its own.
            drop(setup);
            let outcomes = daemon::check(&records);
            pooled.listing.extend(daemon_listing(episode, &records));
            pooled.repeats += records.iter().filter(|r| r.op.repeat).count();
            for (r, outcome) in records.into_iter().zip(outcomes) {
                pooled.latency_ns.push(r.latency_ns);
                pooled.outcomes.push(outcome);
                pooled.inputs.push(r.op.input);
            }
        }
    }
    pooled
}

fn untraced(args: &Args, process_start: Instant) {
    let window = Duration::from_secs(args.seconds);
    let pooled = run_episodes(args, window, Some(process_start), None);
    write_listing(args, &pooled.listing);
    if args.workload != "flow_corpus" {
        let c = &pooled.counters;
        println!(
            "service: {} cache hits / {} lookups, {} coalesced; {} of {} ops repeat an earlier input",
            c.cache_hits,
            c.cache_hits + c.cache_misses,
            c.dedup_hits,
            pooled.repeats,
            pooled.inputs.len()
        );
    }
    let result = summarize(&pooled.latency_ns, &pooled.outcomes, pooled.elapsed, window);
    println!(
        "per episode: setup_s {:?}, peak_rss_mb {:?}",
        pooled.setup_s, pooled.rss_mb
    );
    let metrics = [
        Metric("setup_s", median(&pooled.setup_s), "s"),
        Metric("throughput_per_s", result.throughput, "ops/s"),
        Metric("latency_p50_ms", result.p50_ms, "ms"),
        Metric("latency_p90_ms", result.p90_ms, "ms"),
        Metric(
            "correct_ratio",
            (result.attempted - result.failed) as f64 / result.attempted.max(1) as f64,
            "ratio",
        ),
        Metric("peak_rss_mb", median(&pooled.rss_mb), "MB"),
        Metric("transistors_total", pooled.transistors as f64, "count"),
    ];
    print_result(result.attempted, result.failed, &metrics);
}

/// Summary + CscCheck of each flow op's spec: the flow workload's
/// request stream for the service and daemon replays.
fn flow_requests(catalog: &[FlowItem], ops: &[usize]) -> Vec<Arc<Input>> {
    let mut distinct: HashMap<(usize, &'static str), Arc<Input>> = HashMap::new();
    let mut out = Vec::new();
    for &op in ops {
        let item = &catalog[op];
        for kind in ["summary", "csc_check"] {
            let next_id = distinct.len();
            let input = distinct.entry((op, kind)).or_insert_with(|| {
                let request = if kind == "summary" {
                    Request::summary(item.stg.clone())
                } else {
                    Request::csc_check(item.stg.clone())
                };
                Arc::new(Input {
                    id: next_id,
                    name: item.name.clone(),
                    kind,
                    places: item.stg.net().place_count(),
                    request,
                })
            });
            out.push(Arc::clone(input));
        }
    }
    out
}

fn traced(args: &Args) {
    let window = Duration::from_secs(args.seconds);
    let pass_budget = window / 6;
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();

    // The same episodes twice, untraced then with one root span per op:
    // the p50 difference is the tracing overhead.
    let plain = run_episodes(args, window / 3, None, None);
    let traced = run_episodes(args, window / 3, None, Some(&mut tracer));
    let p50 = |p: &Pooled| median(&p.latency_ns.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    let latency: Vec<u64> = plain
        .latency_ns
        .iter()
        .chain(&traced.latency_ns)
        .copied()
        .collect();
    let outcomes: Vec<Outcome> = plain
        .outcomes
        .iter()
        .chain(&traced.outcomes)
        .cloned()
        .collect();
    let result = summarize(&latency, &outcomes, plain.elapsed + traced.elapsed, window);

    // Replays through each layer's public calls.
    let is_flow = args.workload == "flow_corpus";
    let (flow_cover, replay, counters) = if is_flow {
        let items: Vec<&FlowItem> = traced
            .flow_ops
            .iter()
            .map(|&i| &traced.catalog[i])
            .collect();
        let cover = flow::layer_pass(&items, pass_budget, &mut tracer, &mut samples);
        let requests = flow_requests(&traced.catalog, &traced.flow_ops);
        let replay = daemon::layer_passes(&requests, pass_budget, &mut tracer, &mut samples);
        let counters = replay.counters;
        (cover, replay, counters)
    } else {
        let pool = traced
            .pool
            .as_ref()
            .expect("daemon episodes keep their pool");
        let items: Vec<&FlowItem> = pool.iter().map(|e| &e.flow).collect();
        let cover = flow::layer_pass(&items, pass_budget, &mut tracer, &mut samples);
        let replay = daemon::layer_passes(&traced.inputs, pass_budget, &mut tracer, &mut samples);
        // The closed loops' own daemons carry the workload's counters.
        (cover, replay, traced.counters)
    };

    let flow_coverage = flow_cover.0 as f64 / flow_cover.1.max(1) as f64;
    let wire_coverage = replay.covered_ns as f64 / replay.rtt_ns.max(1) as f64;
    println!(
        "span coverage: flow stages {flow_coverage:.3} of flow+verify time, \
         engine+codec {wire_coverage:.3} of daemon round trips"
    );
    println!("tracing overhead: {overhead:+.4} of untraced p50");
    println!("self time per span (count, total ms):");
    for (name, (count, ns)) in tracer.self_times() {
        println!("  {name:<30} {count:>7} {:>12.3}", ns as f64 / 1e6);
    }
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    let passes = [
        "closed loop",
        "flow stages",
        "direct engine",
        "in-process service",
        "daemon",
    ];
    match std::fs::write(&path, tracer.chrome_json(&passes)) {
        Ok(()) => println!("trace: {} spans -> {path}", tracer.spans.len()),
        Err(error) => println!("trace: not written ({error})"),
    }

    let s = &samples;
    let c = &counters;
    let lookups = c.cache_hits + c.cache_misses;
    let metrics = [
        Metric("stg.reach_ns", s.median("stg.reach_ns"), "ns"),
        Metric("stg.states", s.mean("stg.states"), "count"),
        Metric("core.flow_ns", s.median("core.flow_ns"), "ns"),
        Metric("core.auto_ns", s.median("core.auto_ns"), "ns"),
        Metric("core.lazy_states", s.mean("core.lazy_states"), "count"),
        Metric("synth.csc_ns", s.median("synth.csc_ns"), "ns"),
        Metric("synth.map_ns", s.median("synth.map_ns"), "ns"),
        Metric("synth.literals", s.mean("synth.literals"), "count"),
        Metric("verify.compose_ns", s.median("verify.compose_ns"), "ns"),
        Metric(
            "verify.composed_states",
            s.mean("verify.composed_states"),
            "count",
        ),
        Metric(
            "stg.symbolic_summary_ns",
            s.median("stg.symbolic_summary_ns"),
            "ns",
        ),
        Metric("stg.csc_symbolic_ns", s.median("stg.csc_symbolic_ns"), "ns"),
        Metric("boolean.live_nodes", replay.live_nodes as f64, "count"),
        Metric("stg.manager_reuses", replay.manager_reuses as f64, "count"),
        Metric(
            "stg.degradations",
            replay.degradations as f64 + s.sum("stg.degradations"),
            "count",
        ),
        Metric("service.submit_ns", s.median("service.submit_ns"), "ns"),
        Metric(
            "service.cache_hit_ratio",
            c.cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        Metric("service.cache_lookups", lookups as f64, "count"),
        Metric("service.dedup_hits", c.dedup_hits as f64, "count"),
        Metric("service.shed", c.shed as f64, "count"),
        Metric("service.retries", c.retries as f64, "count"),
        Metric("service.errors", c.errors as f64, "count"),
        Metric("proto.encode_ns", s.median("proto.encode_ns"), "ns"),
        Metric("proto.decode_ns", s.median("proto.decode_ns"), "ns"),
        Metric(
            "proto.request_bytes",
            s.mean("proto.request_bytes"),
            "bytes",
        ),
        Metric("proto.reply_bytes", s.mean("proto.reply_bytes"), "bytes"),
        Metric("daemon.rtt_ns", s.median("daemon.rtt_ns"), "ns"),
        Metric(
            "daemon.wire_overhead_ns",
            s.median("daemon.wire_overhead_ns"),
            "ns",
        ),
        Metric("daemon.protocol_errors", c.protocol_errors as f64, "count"),
        Metric("daemon.disconnects", c.disconnects as f64, "count"),
        Metric("daemon.timeouts", c.timeouts as f64, "count"),
        Metric("trace.overhead_ratio", overhead, "ratio"),
        Metric(
            "trace.span_coverage",
            if is_flow {
                flow_coverage
            } else {
                wire_coverage
            },
            "ratio",
        ),
    ];
    print_result(result.attempted, result.failed, &metrics);
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.workload != "flow_corpus" {
        stats::pin_mmap_threshold();
    }
    let _ = std::fs::create_dir_all(OUT_DIR);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if args.trace {
        traced(&args);
    } else {
        untraced(&args, process_start);
    }
}
