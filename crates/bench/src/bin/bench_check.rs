//! CI perf-regression gate: diff a fresh `bench_reach` snapshot
//! against the committed baseline and fail on per-model slowdowns.
//!
//! ```text
//! cargo run --release -p rt-bench --bin bench_check -- \
//!     BENCH_reach.json /tmp/BENCH_reach_ci_t1.json \
//!     [--max-ratio 2.5] [--min-states 20]
//! ```
//!
//! For every model present in **both** snapshots' `models` sections,
//! the gate compares mean explicit-exploration wall time and fails
//! (exit 1) when `fresh / baseline > max-ratio` — the 2.5× default is
//! deliberately loose because the baseline and the CI runner are
//! different machines and the CI run uses the short `--fast`
//! measurement window. Models below `--min-states` states are
//! **skipped**: ROADMAP documents their ±40% run-to-run noise
//! (sub-20-state models swing wildly in a 1-core container), so gating
//! on them would make the job flaky instead of protective.
//!
//! The parser is deliberately matched to `bench_reach`'s emitter (one
//! model object per line) rather than a general JSON reader — the two
//! binaries live in the same crate and are updated together; anything
//! unparseable exits 2 so a format drift fails loudly rather than
//! silently gating nothing. Speedups are reported but never fail the
//! gate.
//!
//! The same ratio/skip rule gates the symbolic `bdd_nodes` column:
//! node counts are deterministic, so a trip there means a change to the
//! variable layout or the BDD operators really blew up the manager
//! footprint. Rows lacking the key (baselines older than the node
//! column) are not node-gated.
//!
//! The same rule gates two symbolic timings as well: each model's
//! `symbolic_ns` (fresh-manager reachability) and each `csc_symbolic`
//! row's `symbolic_cold_ns` (the cold symbolic CSC detector). A
//! `csc_symbolic` row takes the state count of its model's `models`
//! row, so the same sub-`--min-states` models are skipped; rows whose
//! model has no `models` row are not gated.
//!
//! The bytes a fresh manager holds at the end of each of those runs
//! (`bdd_bytes` on `models` and `csc_symbolic` rows) are gated with the
//! same skip rule but a tight bound, [`BYTES_MAX_RATIO`]: the count is
//! deterministic, so a trip means the manager's tables really grew.
//! Rows lacking the key (baselines older than the column) are not
//! gated.
//!
//! Each `csc` row's `dc_cubes` (the don't-care cubes the resolved
//! graph's next-state functions hold) is gated at the same tight bound.
//! A count has no run-to-run noise, so no row is skipped for its size;
//! a row is keyed by its name alone, and rows lacking the key (or
//! reading `null`) are not gated.
//!
//! Beyond timing, the gate also fails (exit 1) when the **fresh**
//! snapshot's summary reports a nonzero `degradations` count: the
//! standard corpus must run to completion under default budgets, so any
//! recorded fallback means a budget silently tripped. Baselines that
//! predate the key are tolerated (absent ⇒ 0).
//!
//! When the fresh snapshot carries a `"service"` section (written by
//! `bench_service`), its health counters are gated the same way: the
//! standard corpus under default budgets must record **zero** shed,
//! degraded and panicked requests, and the warm pass must have hit
//! the memo cache (`cache_hit_rate > 0`). Snapshots predating the
//! section are tolerated with a notice.
//!
//! Likewise for the `"daemon"` section (also written by
//! `bench_service`): the TCP front-end must record **zero** protocol
//! errors and disconnects, and the duplicate-heavy pass must have
//! coalesced at least one flight (`batch_dedup_hits > 0`) — a zero
//! there means the batch scheduler's single-flight path went dead.

use std::process::ExitCode;

/// Largest allowed `bdd_bytes` ratio, fresh over baseline.
const BYTES_MAX_RATIO: f64 = 1.25;

/// One comparable model row.
#[derive(Debug, Clone, PartialEq)]
struct ModelRow {
    name: String,
    states: u64,
    explore_ns: f64,
    /// Live BDD node count for the symbolic run; `None` when the
    /// snapshot predates the key (such rows are not node-gated).
    bdd_nodes: Option<f64>,
}

/// Extracts a `"key": value` number from one emitted object line.
fn field_number(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a `"key": "value"` string from one emitted object line.
fn field_string(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let rest = &line[line.find(&needle)? + needle.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Pulls the comparable model rows out of a `bench_reach` snapshot:
/// every object carrying `name`, `states` **and** `explore_ns` (the
/// `csc`/`csc_symbolic` sections lack the latter, so they are
/// naturally excluded).
fn parse_models(json: &str) -> Vec<ModelRow> {
    json.lines()
        .filter_map(|line| {
            Some(ModelRow {
                name: field_string(line, "name")?,
                states: field_number(line, "states")? as u64,
                explore_ns: field_number(line, "explore_ns")?,
                bdd_nodes: field_number(line, "bdd_nodes"),
            })
        })
        .collect()
}

/// The row lines of one array section of a snapshot, from its
/// `"key": [` line to the closing `]` (one row per line, as
/// `bench_reach` emits them).
fn section<'a>(json: &'a str, key: &str) -> impl Iterator<Item = &'a str> {
    let open = format!("\"{key}\": [");
    json.lines()
        .skip_while(move |line| !line.trim_start().starts_with(&open))
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with(']'))
}

/// One number per row of `section` (the `key` column: a symbolic timing
/// or `bdd_bytes`), as rows [`compare`] gates like exploration times:
/// the number goes in `explore_ns`, and the state count comes from the
/// model's row in the `models` section. Rows whose model is not there,
/// or that lack the key, are left out.
fn parse_timing(json: &str, section_key: &str, key: &str) -> Vec<ModelRow> {
    let models = parse_models(json);
    section(json, section_key)
        .filter_map(|line| {
            let name = field_string(line, "name")?;
            let states = models.iter().find(|m| m.name == name)?.states;
            Some(ModelRow {
                explore_ns: field_number(line, key)?,
                name,
                states,
                bdd_nodes: None,
            })
        })
        .collect()
}

/// One deterministic count per row of `section` (the `key` column),
/// keyed by the row's name alone: `states` is 0, so [`compare`] with
/// `min_states` 0 gates every row. Rows lacking the key are left out.
fn parse_counts(json: &str, section_key: &str, key: &str) -> Vec<ModelRow> {
    section(json, section_key)
        .filter_map(|line| {
            Some(ModelRow {
                name: field_string(line, "name")?,
                states: 0,
                explore_ns: field_number(line, key)?,
                bdd_nodes: None,
            })
        })
        .collect()
}

/// Total engine degradations recorded in a snapshot's summary line.
/// 0 when the snapshot predates the key — only fresh snapshots (whose
/// emitter validates the key exists) are gated on it.
fn summary_degradations(json: &str) -> u64 {
    json.lines()
        .find(|line| line.contains("\"aggregate_states_per_sec\""))
        .and_then(|line| field_number(line, "degradations"))
        .unwrap_or(0.0) as u64
}

/// Health counters of the `"service"` section (one emitted line).
#[derive(Debug, Clone, PartialEq)]
struct ServiceHealth {
    shed: u64,
    degraded: u64,
    worker_panics: u64,
    cache_hit_rate: f64,
}

/// Reads the service section from a snapshot; `None` when the snapshot
/// predates `bench_service` (such snapshots are not service-gated).
fn service_health(json: &str) -> Option<ServiceHealth> {
    let line = json
        .lines()
        .find(|line| line.trim_start().starts_with("\"service\":"))?;
    Some(ServiceHealth {
        shed: field_number(line, "shed")? as u64,
        degraded: field_number(line, "degraded")? as u64,
        worker_panics: field_number(line, "worker_panics")? as u64,
        cache_hit_rate: field_number(line, "cache_hit_rate")?,
    })
}

/// Why a service section fails the gate, if it does.
fn service_problem(health: &ServiceHealth) -> Option<String> {
    if health.shed > 0 || health.degraded > 0 || health.worker_panics > 0 {
        return Some(format!(
            "service recorded shed={} degraded={} worker_panics={} — all must be 0 \
             on the standard corpus under default budgets",
            health.shed, health.degraded, health.worker_panics
        ));
    }
    // NaN must fail too, so the test is "not strictly positive".
    if health.cache_hit_rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Some(format!(
            "service cache_hit_rate {} — the warm pass must record hits",
            health.cache_hit_rate
        ));
    }
    None
}

/// Health counters of the `"daemon"` section (one emitted line).
#[derive(Debug, Clone, PartialEq)]
struct DaemonHealth {
    protocol_errors: u64,
    disconnects: u64,
    batch_dedup_hits: u64,
    timeouts: u64,
    quota_sheds: u64,
}

/// Reads the daemon section from a snapshot; `None` when the snapshot
/// predates the TCP front-end (such snapshots are not daemon-gated).
/// The survivability counters default to zero for snapshots written
/// before they existed.
fn daemon_health(json: &str) -> Option<DaemonHealth> {
    let line = json
        .lines()
        .find(|line| line.trim_start().starts_with("\"daemon\":"))?;
    Some(DaemonHealth {
        protocol_errors: field_number(line, "protocol_errors")? as u64,
        disconnects: field_number(line, "disconnects")? as u64,
        batch_dedup_hits: field_number(line, "batch_dedup_hits")? as u64,
        timeouts: field_number(line, "timeouts").unwrap_or(0.0) as u64,
        quota_sheds: field_number(line, "quota_sheds").unwrap_or(0.0) as u64,
    })
}

/// Why a daemon section fails the gate, if it does.
fn daemon_problem(health: &DaemonHealth) -> Option<String> {
    if health.protocol_errors > 0 || health.disconnects > 0 {
        return Some(format!(
            "daemon recorded protocol_errors={} disconnects={} — well-behaved \
             clients over loopback must produce neither",
            health.protocol_errors, health.disconnects
        ));
    }
    if health.timeouts > 0 || health.quota_sheds > 0 {
        return Some(format!(
            "daemon recorded timeouts={} quota_sheds={} — the standard pass \
             never idles past the I/O deadline or exceeds a quota",
            health.timeouts, health.quota_sheds
        ));
    }
    if health.batch_dedup_hits == 0 {
        return Some(
            "daemon batch_dedup_hits 0 — the duplicate-heavy pass must \
             coalesce at least one flight"
                .to_string(),
        );
    }
    None
}

/// The verdict of one baseline-vs-fresh comparison.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Within the allowed ratio (contains the measured ratio).
    Ok(f64),
    /// Skipped as too small/noisy.
    SkippedSmall,
    /// Slower than allowed (contains the measured ratio).
    Regressed(f64),
}

/// Compares every model present in both snapshots.
fn compare(
    baseline: &[ModelRow],
    fresh: &[ModelRow],
    max_ratio: f64,
    min_states: u64,
) -> Vec<(String, Verdict)> {
    baseline
        .iter()
        .filter_map(|b| {
            let f = fresh.iter().find(|f| f.name == b.name)?;
            let ratio = f.explore_ns / b.explore_ns;
            let verdict = if b.states < min_states {
                Verdict::SkippedSmall
            } else if ratio > max_ratio {
                Verdict::Regressed(ratio)
            } else {
                Verdict::Ok(ratio)
            };
            Some((b.name.clone(), verdict))
        })
        .collect()
}

/// Compares symbolic node counts for every model carrying the
/// `bdd_nodes` key in both snapshots. Node counts are deterministic —
/// the ratio gate catches a variable-layout or BDD-operator change
/// silently blowing up the manager footprint, while the same
/// `min_states` skip keeps trivially small managers (where one extra
/// node is a large ratio) out of the verdict.
fn compare_nodes(
    baseline: &[ModelRow],
    fresh: &[ModelRow],
    max_ratio: f64,
    min_states: u64,
) -> Vec<(String, Verdict)> {
    baseline
        .iter()
        .filter_map(|b| {
            let f = fresh.iter().find(|f| f.name == b.name)?;
            let (base_nodes, fresh_nodes) = (b.bdd_nodes?, f.bdd_nodes?);
            let ratio = fresh_nodes / base_nodes;
            let verdict = if b.states < min_states {
                Verdict::SkippedSmall
            } else if ratio > max_ratio {
                Verdict::Regressed(ratio)
            } else {
                Verdict::Ok(ratio)
            };
            Some((b.name.clone(), verdict))
        })
        .collect()
}

fn usage() -> ! {
    eprintln!("usage: bench_check BASELINE.json FRESH.json [--max-ratio R] [--min-states N]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut max_ratio = 2.5f64;
    let mut min_states = 20u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-ratio" => {
                max_ratio = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--min-states" => {
                min_states = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ if arg.starts_with("--") => usage(),
            _ => paths.push(arg),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_check: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline_text = read(baseline_path);
    let fresh_text = read(fresh_path);
    let baseline = parse_models(&baseline_text);
    let fresh = parse_models(&fresh_text);
    if baseline.is_empty() || fresh.is_empty() {
        eprintln!(
            "bench_check: no parseable model rows (baseline {}, fresh {}) — format drift?",
            baseline.len(),
            fresh.len()
        );
        return ExitCode::from(2);
    }

    let results = compare(&baseline, &fresh, max_ratio, min_states);
    if results.is_empty() {
        eprintln!("bench_check: no model appears in both snapshots — format drift?");
        return ExitCode::from(2);
    }
    let mut regressions = 0usize;
    for (name, verdict) in &results {
        match verdict {
            Verdict::Ok(ratio) => println!("  ok      {name:<24} {ratio:>6.2}x"),
            Verdict::SkippedSmall => {
                println!("  skip    {name:<24}   (sub-{min_states}-state noise)");
            }
            Verdict::Regressed(ratio) => {
                regressions += 1;
                println!("  REGRESS {name:<24} {ratio:>6.2}x  (limit {max_ratio}x)");
            }
        }
    }
    // Node-count gate: same ratio limit, applied to the symbolic
    // manager footprint (deterministic, so a trip is a real change).
    for (name, verdict) in compare_nodes(&baseline, &fresh, max_ratio, min_states) {
        match verdict {
            Verdict::Ok(ratio) => println!("  ok      {name:<24} {ratio:>6.2}x  (bdd nodes)"),
            Verdict::SkippedSmall => {
                println!("  skip    {name:<24}   (bdd nodes, sub-{min_states}-state)");
            }
            Verdict::Regressed(ratio) => {
                regressions += 1;
                println!("  REGRESS {name:<24} {ratio:>6.2}x  (bdd nodes, limit {max_ratio}x)");
            }
        }
    }
    // Symbolic gates: the same skip rule on each model's symbolic reach
    // time and on the symbolic CSC detector's cold time (at the timing
    // ratio), and on the bytes each fresh manager ends up holding. The
    // don't-care cube count is deterministic: every row is gated.
    let timing = |section_key, key| {
        (
            parse_timing(&baseline_text, section_key, key),
            parse_timing(&fresh_text, section_key, key),
        )
    };
    for (what, (base, fresh), limit, min_states) in [
        (
            "symbolic",
            timing("models", "symbolic_ns"),
            max_ratio,
            min_states,
        ),
        (
            "symbolic csc",
            timing("csc_symbolic", "symbolic_cold_ns"),
            max_ratio,
            min_states,
        ),
        (
            "bdd bytes",
            timing("models", "bdd_bytes"),
            BYTES_MAX_RATIO,
            min_states,
        ),
        (
            "csc bdd bytes",
            timing("csc_symbolic", "bdd_bytes"),
            BYTES_MAX_RATIO,
            min_states,
        ),
        (
            "dc cubes",
            (
                parse_counts(&baseline_text, "csc", "dc_cubes"),
                parse_counts(&fresh_text, "csc", "dc_cubes"),
            ),
            BYTES_MAX_RATIO,
            0,
        ),
    ] {
        for (name, verdict) in compare(&base, &fresh, limit, min_states) {
            match verdict {
                Verdict::Ok(ratio) => println!("  ok      {name:<24} {ratio:>6.2}x  ({what})"),
                Verdict::SkippedSmall => {
                    println!("  skip    {name:<24}   ({what}, sub-{min_states}-state)");
                }
                Verdict::Regressed(ratio) => {
                    regressions += 1;
                    println!("  REGRESS {name:<24} {ratio:>6.2}x  ({what}, limit {limit}x)");
                }
            }
        }
    }
    if regressions > 0 {
        eprintln!(
            "bench_check: {regressions} row(s) regressed past their limit vs {baseline_path}"
        );
        return ExitCode::from(1);
    }
    // Degradation gate: the standard corpus under default budgets must
    // never trip a fallback — a nonzero count means a budget or
    // degradation policy silently kicked in during the fresh run.
    let degradations = summary_degradations(&fresh_text);
    if degradations > 0 {
        eprintln!(
            "bench_check: fresh snapshot records {degradations} engine degradation(s) — \
             budgets must not trip on the standard corpus"
        );
        return ExitCode::from(1);
    }
    // Service-health gate: a fresh snapshot carrying the service
    // section must show a healthy pool — nothing shed, nothing
    // degraded, no worker panic, and a warm cache that actually hit.
    match service_health(&fresh_text) {
        None => println!("bench_check: no service section in fresh snapshot (tolerated)"),
        Some(health) => {
            if let Some(problem) = service_problem(&health) {
                eprintln!("bench_check: {problem}");
                return ExitCode::from(1);
            }
            println!(
                "  ok      service                   hit rate {:.2}, zero shed/degraded/panicked",
                health.cache_hit_rate
            );
        }
    }
    // Daemon-health gate: a fresh snapshot carrying the daemon section
    // must show a clean wire — zero protocol errors and disconnects —
    // and a duplicate-heavy pass that actually coalesced.
    match daemon_health(&fresh_text) {
        None => println!("bench_check: no daemon section in fresh snapshot (tolerated)"),
        Some(health) => {
            if let Some(problem) = daemon_problem(&health) {
                eprintln!("bench_check: {problem}");
                return ExitCode::from(1);
            }
            println!(
                "  ok      daemon                    {} coalesced, zero protocol errors/disconnects",
                health.batch_dedup_hits
            );
        }
    }
    println!(
        "bench_check: {} model(s) within {max_ratio}x of {baseline_path}",
        results.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature snapshot in `bench_reach`'s emitted shape; `scale`
    /// multiplies every exploration time (the injected slowdown) and
    /// `node_scale` every symbolic node count (the injected blowup).
    fn snapshot_scaled(scale: f64, node_scale: f64) -> String {
        let rows = [
            ("tiny", 8u64, 1500.0, 12u64),
            ("ring", 48, 2500.0, 96),
            ("big_ring", 1304, 750000.0, 2600),
        ];
        let mut out = String::from("{\n  \"models\": [\n");
        for (name, states, ns, nodes) in rows {
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"states\": {states}, \"arcs\": 1, \
                 \"threads\": 1, \"explore_ns\": {:.0}, \"states_per_sec\": 1, \
                 \"bdd_nodes\": {:.0}, \"bdd_nodes_by_index\": {nodes}}},\n",
                ns * scale,
                nodes as f64 * node_scale
            ));
        }
        out.push_str(
            "  ],\n  \"csc\": [\n    {\"name\": \"fifo\", \"inserted\": 1, \
             \"explicit_ns\": 99}\n  ]\n}\n",
        );
        out
    }

    fn snapshot(scale: f64) -> String {
        snapshot_scaled(scale, 1.0)
    }

    #[test]
    fn parses_only_full_model_rows() {
        let rows = parse_models(&snapshot(1.0));
        assert_eq!(
            rows.len(),
            3,
            "the csc row (no states/explore_ns pair) is excluded"
        );
        assert_eq!(rows[1].name, "ring");
        assert_eq!(rows[2].states, 1304);
        assert!((rows[2].explore_ns - 750000.0).abs() < 1.0);
        // bdd_nodes must read the plain key, not bdd_nodes_by_index.
        assert_eq!(rows[2].bdd_nodes, Some(2600.0));
    }

    #[test]
    fn node_blowup_is_caught_and_tiny_models_are_skipped() {
        let base = parse_models(&snapshot(1.0));
        let blown = parse_models(&snapshot_scaled(1.0, 3.0));
        let results = compare_nodes(&base, &blown, 2.5, 20);
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0].1, Verdict::SkippedSmall));
        assert!(matches!(results[1].1, Verdict::Regressed(r) if (r - 3.0).abs() < 0.01));
        assert!(matches!(results[2].1, Verdict::Regressed(_)));
        // The timing gate stays quiet — only the nodes moved.
        assert!(compare(&base, &blown, 2.5, 20)
            .iter()
            .all(|(_, v)| !matches!(v, Verdict::Regressed(_))));
    }

    #[test]
    fn node_gate_tolerates_snapshots_predating_the_key() {
        let stripped: String = snapshot(1.0)
            .lines()
            .map(|l| {
                let mut l = l.to_string();
                if let Some(at) = l.find(", \"bdd_nodes\"") {
                    let end = l.rfind('}').unwrap_or(l.len());
                    l.replace_range(at..end, "");
                }
                l.push('\n');
                l
            })
            .collect();
        let old = parse_models(&stripped);
        assert!(old.iter().all(|r| r.bdd_nodes.is_none()));
        let fresh = parse_models(&snapshot(1.0));
        assert!(compare_nodes(&old, &fresh, 2.5, 20).is_empty());
        // Timing comparison is unaffected by the missing key.
        assert_eq!(compare(&old, &fresh, 2.5, 20).len(), 3);
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = parse_models(&snapshot(1.0));
        let fresh = parse_models(&snapshot(1.0));
        let results = compare(&base, &fresh, 2.5, 20);
        assert!(results
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Ok(_) | Verdict::SkippedSmall)));
    }

    #[test]
    fn injected_slowdown_is_caught() {
        // A 3x across-the-board slowdown must regress every gated
        // model while the sub-20-state one stays skipped.
        let base = parse_models(&snapshot(1.0));
        let slow = parse_models(&snapshot(3.0));
        let results = compare(&base, &slow, 2.5, 20);
        assert_eq!(results.len(), 3);
        assert!(
            matches!(results[0].1, Verdict::SkippedSmall),
            "tiny is noise-skipped"
        );
        assert!(matches!(results[1].1, Verdict::Regressed(r) if (r - 3.0).abs() < 0.01));
        assert!(matches!(results[2].1, Verdict::Regressed(_)));
    }

    #[test]
    fn speedups_and_mild_noise_pass() {
        let base = parse_models(&snapshot(1.0));
        let noisy = parse_models(&snapshot(0.5));
        assert!(compare(&base, &noisy, 2.5, 20)
            .iter()
            .all(|(_, v)| !matches!(v, Verdict::Regressed(_))));
        let mild = parse_models(&snapshot(2.0));
        assert!(compare(&base, &mild, 2.5, 20)
            .iter()
            .all(|(_, v)| !matches!(v, Verdict::Regressed(_))));
    }

    #[test]
    fn degradation_count_is_read_from_the_summary_line() {
        // The real emitter's summary object is one physical line keyed
        // (among others) by aggregate_states_per_sec and degradations.
        let with_summary = format!(
            "{}  \"summary\": {{\"models\": 3, \"threads\": 1, \"degradations\": 2, \
             \"aggregate_states_per_sec\": 123456}}\n}}\n",
            snapshot(1.0)
        );
        assert_eq!(summary_degradations(&with_summary), 2);
        let clean = with_summary.replace("\"degradations\": 2", "\"degradations\": 0");
        assert_eq!(summary_degradations(&clean), 0);
        // Snapshots predating the key (like the bare fixture) gate as 0.
        assert_eq!(summary_degradations(&snapshot(1.0)), 0);
    }

    #[test]
    fn service_gate_reads_the_section_and_fails_on_unhealth() {
        let line = "  \"service\": {\"requests\": 58, \"requests_per_s\": 1200, \
                    \"cache_hit_rate\": 0.500, \"shed\": 0, \"retries\": 0, \
                    \"worker_panics\": 0, \"degraded\": 0, \"errors\": 0}";
        let snapshot = format!("{}{line}\n}}\n", snapshot(1.0));
        let health = service_health(&snapshot).expect("section parses");
        assert_eq!(health.shed, 0);
        assert!((health.cache_hit_rate - 0.5).abs() < 1e-9);
        assert!(service_problem(&health).is_none());

        let shed = ServiceHealth {
            shed: 1,
            ..health.clone()
        };
        assert!(service_problem(&shed).unwrap().contains("shed=1"));
        let degraded = ServiceHealth {
            degraded: 2,
            ..health.clone()
        };
        assert!(service_problem(&degraded).is_some());
        let panicked = ServiceHealth {
            worker_panics: 1,
            ..health.clone()
        };
        assert!(service_problem(&panicked).is_some());
        let cold = ServiceHealth {
            cache_hit_rate: 0.0,
            ..health
        };
        assert!(service_problem(&cold).unwrap().contains("cache_hit_rate"));

        // Snapshots predating the section are simply not service-gated.
        assert!(service_health(&snapshot_scaled(1.0, 1.0)).is_none());
    }

    #[test]
    fn daemon_gate_reads_the_section_and_fails_on_wire_trouble() {
        let line = "  \"daemon\": {\"requests\": 105, \"requests_per_s\": 900, \
                    \"batch_dedup_hits\": 7, \"disconnects\": 0, \"protocol_errors\": 0, \
                    \"timeouts\": 0, \"quota_sheds\": 0, \"idempotent_replays\": 0, \
                    \"reconnects\": 0}";
        let body = snapshot(1.0);
        let snapshot = format!("{body}{line}\n}}\n");
        let health = daemon_health(&snapshot).expect("section parses");
        assert_eq!(health.batch_dedup_hits, 7);
        assert!(daemon_problem(&health).is_none());

        // A snapshot written before the survivability counters existed
        // still parses, with those counters defaulting to zero.
        let old_line = "  \"daemon\": {\"requests\": 105, \"requests_per_s\": 900, \
                        \"batch_dedup_hits\": 7, \"disconnects\": 0, \"protocol_errors\": 0}";
        let old_snapshot = format!("{body}{old_line}\n}}\n");
        let old_health = daemon_health(&old_snapshot).expect("old section parses");
        assert_eq!(old_health.timeouts, 0);
        assert_eq!(old_health.quota_sheds, 0);
        assert!(daemon_problem(&old_health).is_none());

        let garbled = DaemonHealth {
            protocol_errors: 1,
            ..health.clone()
        };
        assert!(daemon_problem(&garbled)
            .unwrap()
            .contains("protocol_errors=1"));
        let severed = DaemonHealth {
            disconnects: 2,
            ..health.clone()
        };
        assert!(daemon_problem(&severed).unwrap().contains("disconnects=2"));
        let timed_out = DaemonHealth {
            timeouts: 3,
            ..health.clone()
        };
        assert!(daemon_problem(&timed_out).unwrap().contains("timeouts=3"));
        let quota_shed = DaemonHealth {
            quota_sheds: 1,
            ..health.clone()
        };
        assert!(daemon_problem(&quota_shed)
            .unwrap()
            .contains("quota_sheds=1"));
        let uncoalesced = DaemonHealth {
            batch_dedup_hits: 0,
            ..health
        };
        assert!(daemon_problem(&uncoalesced)
            .unwrap()
            .contains("batch_dedup_hits"));

        // Snapshots predating the section are simply not daemon-gated.
        assert!(daemon_health(&snapshot_scaled(1.0, 1.0)).is_none());
    }

    /// The fixture with a symbolic reach time on every model row and a
    /// `csc_symbolic` section, every symbolic timing times `scale`.
    fn symbolic_snapshot(scale: f64) -> String {
        let mut out = String::new();
        for line in snapshot(1.0).lines() {
            if line.contains("\"explore_ns\"") {
                let symbolic = field_number(line, "explore_ns").expect("timed row") * 10.0;
                let end = line.rfind('}').expect("object line");
                out.push_str(&format!(
                    "{}, \"symbolic_ns\": {:.0}{}\n",
                    &line[..end],
                    symbolic * scale,
                    &line[end..]
                ));
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        let body = out.trim_end().trim_end_matches('}');
        format!(
            "{body},\n  \"csc_symbolic\": [\n    {{\"name\": \"tiny\", \"conflicts\": 2, \
             \"symbolic_cold_ns\": {:.0}, \"bdd_nodes\": 40}},\n    {{\"name\": \"ring\", \
             \"conflicts\": 0, \"symbolic_cold_ns\": {:.0}, \"bdd_nodes\": 500}}\n  ]\n}}\n",
            90000.0 * scale,
            400000.0 * scale
        )
    }

    #[test]
    fn symbolic_slowdown_is_caught_and_speedups_pass() {
        let base = symbolic_snapshot(1.0);
        let reach = parse_timing(&base, "models", "symbolic_ns");
        assert_eq!(reach.len(), 3);
        assert!(
            (reach[1].explore_ns - 25000.0).abs() < 1.0,
            "symbolic, not explicit"
        );
        let csc = parse_timing(&base, "csc_symbolic", "symbolic_cold_ns");
        assert_eq!(csc.len(), 2);
        assert_eq!(csc[1].states, 48, "state count from the models section");

        let slow = symbolic_snapshot(3.0);
        for (section_key, key) in [
            ("models", "symbolic_ns"),
            ("csc_symbolic", "symbolic_cold_ns"),
        ] {
            let results = compare(
                &parse_timing(&base, section_key, key),
                &parse_timing(&slow, section_key, key),
                2.5,
                20,
            );
            assert!(matches!(results[0].1, Verdict::SkippedSmall), "{key}");
            assert!(
                matches!(results[1].1, Verdict::Regressed(r) if (r - 3.0).abs() < 0.01),
                "{key}"
            );
            let fast = symbolic_snapshot(0.4);
            assert!(
                compare(
                    &parse_timing(&base, section_key, key),
                    &parse_timing(&fast, section_key, key),
                    2.5,
                    20
                )
                .iter()
                .all(|(_, v)| !matches!(v, Verdict::Regressed(_))),
                "{key}"
            );
        }
        // The explicit gate reads explore_ns only: still quiet.
        assert!(compare(&parse_models(&base), &parse_models(&slow), 2.5, 20)
            .iter()
            .all(|(_, v)| !matches!(v, Verdict::Regressed(_))));
        // Snapshots without symbolic columns gate nothing here.
        assert!(parse_timing(&snapshot(1.0), "models", "symbolic_ns").is_empty());
        assert!(parse_timing(&snapshot(1.0), "csc_symbolic", "symbolic_cold_ns").is_empty());
    }

    /// The fixture with `bdd_bytes` on every model and `csc_symbolic`
    /// row, every byte count times `scale`.
    fn bytes_snapshot(scale: f64) -> String {
        let mut out = String::new();
        for line in symbolic_snapshot(1.0).lines() {
            match (field_number(line, "bdd_nodes"), line.rfind('}')) {
                (Some(nodes), Some(end)) if line.contains("\"name\"") => {
                    let bytes = nodes * 40.0 * scale;
                    out.push_str(&format!(
                        "{}, \"bdd_bytes\": {bytes:.0}{}\n",
                        &line[..end],
                        &line[end..]
                    ));
                }
                _ => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    #[test]
    fn table_memory_growth_is_caught_and_savings_pass() {
        let base = bytes_snapshot(1.0);
        let models = parse_timing(&base, "models", "bdd_bytes");
        assert_eq!(models.len(), 3);
        assert!(
            (models[2].explore_ns - 104_000.0).abs() < 1.0,
            "bytes, not time"
        );
        let csc = parse_timing(&base, "csc_symbolic", "bdd_bytes");
        assert_eq!(csc.len(), 2);
        assert_eq!(csc[1].states, 48, "state count from the models section");
        for (section_key, rows) in [("models", 3), ("csc_symbolic", 2)] {
            let gate = |scale: f64| {
                compare(
                    &parse_timing(&base, section_key, "bdd_bytes"),
                    &parse_timing(&bytes_snapshot(scale), section_key, "bdd_bytes"),
                    BYTES_MAX_RATIO,
                    20,
                )
            };
            // 30% more bytes trips every gated row; the sub-20-state
            // row stays skipped.
            let grown = gate(1.3);
            assert_eq!(grown.len(), rows, "{section_key}");
            assert!(matches!(grown[0].1, Verdict::SkippedSmall), "{section_key}");
            assert!(
                grown[1..]
                    .iter()
                    .all(|(_, v)| matches!(v, Verdict::Regressed(r) if (r - 1.3).abs() < 0.01)),
                "{section_key}"
            );
            // 20% more, or half as many, pass.
            for scale in [1.2, 0.5] {
                assert!(
                    gate(scale)
                        .iter()
                        .all(|(_, v)| !matches!(v, Verdict::Regressed(_))),
                    "{section_key} x{scale}"
                );
            }
        }
        // Snapshots without the column gate nothing here.
        assert!(parse_timing(&symbolic_snapshot(1.0), "models", "bdd_bytes").is_empty());
        assert!(parse_timing(&symbolic_snapshot(1.0), "csc_symbolic", "bdd_bytes").is_empty());
    }

    /// The fixture's `csc` section with `dc_cubes` on each row times
    /// `scale`: a tiny model, a row with no `models` entry, and a row
    /// reading `null`.
    fn dc_snapshot(scale: f64) -> String {
        let mut out = snapshot(1.0);
        let cut = out.find("  \"csc\": [").expect("csc section");
        out.truncate(cut);
        out.push_str(&format!(
            "  \"csc\": [\n    {{\"name\": \"tiny\", \"inserted\": 1, \"dc_cubes\": {:.0}}},\n    \
             {{\"name\": \"chain32\", \"inserted\": 0, \"dc_cubes\": {:.0}}},\n    \
             {{\"name\": \"bare\", \"inserted\": 0, \"dc_cubes\": null}}\n  ]\n}}\n",
            10.0 * scale,
            900.0 * scale
        ));
        out
    }

    #[test]
    fn dont_care_growth_is_caught_on_every_row() {
        let base = dc_snapshot(1.0);
        let rows = parse_counts(&base, "csc", "dc_cubes");
        assert_eq!(rows.len(), 2, "the null row is not gated");
        assert_eq!((rows[0].name.as_str(), rows[0].explore_ns), ("tiny", 10.0));
        let gate = |scale: f64| {
            compare(
                &rows,
                &parse_counts(&dc_snapshot(scale), "csc", "dc_cubes"),
                BYTES_MAX_RATIO,
                0,
            )
        };
        // 30% more cubes trips both rows, the tiny one and the one with
        // no `models` entry included.
        let grown = gate(1.3);
        assert_eq!(grown.len(), 2);
        assert!(grown
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Regressed(r) if (r - 1.3).abs() < 0.01)));
        for scale in [1.2, 0.5] {
            assert!(gate(scale).iter().all(|(_, v)| matches!(v, Verdict::Ok(_))));
        }
        // Snapshots without the column gate nothing here.
        assert!(parse_counts(&snapshot(1.0), "csc", "dc_cubes").is_empty());
    }

    #[test]
    fn missing_models_are_tolerated_but_disjoint_sets_are_not() {
        let base = parse_models(&snapshot(1.0));
        let mut fresh = parse_models(&snapshot(1.0));
        fresh.remove(0);
        assert_eq!(compare(&base, &fresh, 2.5, 20).len(), 2);
        let unrelated = vec![ModelRow {
            name: "other".into(),
            states: 100,
            explore_ns: 1.0,
            bdd_nodes: None,
        }];
        assert!(compare(&base, &unrelated, 2.5, 20).is_empty());
    }
}
