//! **mwc_metrics** — aggregates run records into the observability
//! artifacts the perf gate publishes.
//!
//! Subcommands:
//!
//! - `report [records_dir]` (default `results/run_records`): parses every
//!   run record and prints a per-bin totals, cache-hit-rate, profile
//!   and flood-count report (also saved as
//!   `results/metrics_report.txt`).
//! - `check-trace <trace.json>`: structurally validates a Chrome Trace
//!   Event Format export (`results/trace.perfetto.json`) with the
//!   in-tree checker — balanced B/E nesting per track, monotone
//!   timestamps; exit 1 when it does not validate.
//! - `append-trajectory <records_dir> <trajectory.json>`: appends one
//!   entry per record — bin, rounds, words, `rounds_saved`, `wall_ms`,
//!   `peak_alloc_bytes`, `jobs` — to the `mwc-bench-trajectory/v2`
//!   append-log, so every gated run extends the commit-over-commit perf
//!   trajectory. A missing file starts a fresh log; an existing file that
//!   is not a v2 log is refused (exit 2) and left untouched.
//!
//! Exit codes: `0` ok, `1` validation failure, `2` usage/configuration
//! error (bad command line, no records, unreadable files, a trajectory
//! file of another schema).

use mwc_bench::report;
use mwc_bench::report::Json;
use mwc_trace::RunRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Parses every `<name>.json` under `dir` as a [`RunRecord`], sorted by
/// name. Unparsable records are configuration errors: exit 2.
fn load_records(dir: &str) -> BTreeMap<String, RunRecord> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("mwc_metrics: cannot read {dir}: {e}");
            std::process::exit(2);
        }
    };
    let mut out = BTreeMap::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("mwc_metrics: cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        match RunRecord::parse(&text) {
            Ok(r) => {
                out.insert(r.name.clone(), r);
            }
            Err(e) => {
                eprintln!("mwc_metrics: {} is not a run record: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if out.is_empty() {
        eprintln!("mwc_metrics: no run records in {dir}");
        std::process::exit(2);
    }
    out
}

/// `hits/(hits+misses)` as a percentage string, `"-"` when the cache saw
/// no traffic of this kind.
fn hit_rate(hits: u64, misses: u64) -> String {
    if hits + misses == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
    }
}

fn cmd_report(records_dir: &str) {
    let records = load_records(records_dir);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== mwc_metrics: {} record(s) from {records_dir} ==",
        records.len()
    );
    for r in records.values() {
        let _ = writeln!(
            out,
            "{}: rounds {}, words {}, rounds_saved {}",
            r.name, r.rounds, r.words, r.rounds_saved
        );
        let c = &r.cache;
        let _ = writeln!(
            out,
            "  cache: tree {}/{} hits ({}), latency {}/{} hits ({})",
            c.tree_hits,
            c.tree_hits + c.tree_misses,
            hit_rate(c.tree_hits, c.tree_misses),
            c.latency_hits,
            c.latency_hits + c.latency_misses,
            hit_rate(c.latency_hits, c.latency_misses),
        );
        // Host-side profile context: allocator traffic, the peak
        // high-water mark, wall-clock and worker count. All
        // informational, like wall_ms.
        let _ = writeln!(
            out,
            "  profile: alloc {} B / {} allocs, peak {} B, wall {} ms x {} job(s)",
            r.alloc_bytes,
            r.alloc_count,
            r.peak_alloc_bytes,
            r.wall_ms,
            r.jobs.max(1)
        );
        // How many flood primitives this run executed, memo replays
        // included. Informational, like wall_ms.
        let _ = writeln!(out, "  floods: {}", r.floods);
    }
    print!("{out}");
    report::save_artifact("metrics_report.txt", &out);
}

fn cmd_check_trace(trace_file: &str) {
    let text = std::fs::read_to_string(trace_file).unwrap_or_else(|e| {
        eprintln!("mwc_metrics: cannot read {trace_file}: {e}");
        std::process::exit(2);
    });
    match mwc_trace::validate_chrome_trace(&text) {
        Ok(s) => println!(
            "mwc_metrics: {trace_file} is a valid Chrome trace \
             ({} event(s), {} span(s), {} track(s))",
            s.events, s.spans, s.tracks
        ),
        Err(e) => {
            eprintln!("mwc_metrics: {trace_file} is invalid: {e}");
            std::process::exit(1);
        }
    }
}

/// Schema tag of the trajectory append-log.
const TRAJECTORY_SCHEMA: &str = "mwc-bench-trajectory/v2";

fn cmd_append_trajectory(records_dir: &str, trajectory_path: &str) {
    let records = load_records(records_dir);

    // Carry existing v2 runs forward; a missing file starts a fresh log.
    // Any other file is refused, not overwritten: the committed log is
    // the only record of past runs.
    let mut runs: Vec<Json> = match std::fs::read_to_string(trajectory_path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("mwc_metrics: cannot read {trajectory_path}: {e}");
            std::process::exit(2);
        }
        Ok(text) => {
            let v = Json::parse(&text).ok();
            let v = v.filter(|v| v.get("schema").and_then(Json::as_str) == Some(TRAJECTORY_SCHEMA));
            match v.as_ref().and_then(|v| v.get("runs")) {
                Some(Json::Arr(runs)) => runs.clone(),
                _ => {
                    eprintln!(
                        "mwc_metrics: {trajectory_path} is not a {TRAJECTORY_SCHEMA} log; \
                         refusing to overwrite it"
                    );
                    std::process::exit(2);
                }
            }
        }
    };

    for r in records.values() {
        runs.push(Json::obj([
            ("bin", Json::str(&r.name)),
            ("rounds", Json::U64(r.rounds)),
            ("words", Json::U64(r.words)),
            ("rounds_saved", Json::U64(r.rounds_saved)),
            ("wall_ms", Json::U64(r.wall_ms)),
            // Additive v2 key: peak allocator high-water mark, recorded
            // beside wall_ms so memory regressions are visible in the
            // same commit-over-commit log as time regressions.
            ("peak_alloc_bytes", Json::U64(r.peak_alloc_bytes)),
            ("jobs", Json::U64(r.jobs)),
        ]));
    }

    let doc = Json::obj([
        ("schema", Json::str(TRAJECTORY_SCHEMA)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = Path::new(trajectory_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trajectory dir");
        }
    }
    std::fs::write(trajectory_path, doc.render_pretty()).unwrap_or_else(|e| {
        eprintln!("mwc_metrics: cannot write {trajectory_path}: {e}");
        std::process::exit(2);
    });
    println!(
        "mwc_metrics: appended {} run(s) to {trajectory_path}",
        records.len()
    );
}

/// The subcommand word set, the first positional of every command line.
const SUBCOMMANDS: &str = "report|check-trace|append-trajectory";

fn usage() -> ! {
    eprintln!(
        "usage: mwc_metrics report [records_dir]\n\
         \x20      mwc_metrics check-trace <trace.perfetto.json>\n\
         \x20      mwc_metrics append-trajectory <records_dir> <trajectory.json>"
    );
    std::process::exit(2);
}

fn main() {
    let cmd = report::arg_str(1, "");
    match cmd.as_str() {
        "report" => {
            report::init_cli(&[SUBCOMMANDS, "records_dir:path"], &[]);
            let dir = report::arg_str(2, &format!("results/{}", report::RUN_RECORD_DIR));
            cmd_report(&dir);
        }
        "check-trace" => {
            report::init_cli(&[SUBCOMMANDS, "trace_file:path"], &[]);
            let file = report::arg_str(2, "");
            if file.is_empty() {
                usage();
            }
            cmd_check_trace(&file);
        }
        "append-trajectory" => {
            report::init_cli(&[SUBCOMMANDS, "records_dir:path", "trajectory:path"], &[]);
            let dir = report::arg_str(2, "");
            let traj = report::arg_str(3, "");
            if dir.is_empty() || traj.is_empty() {
                usage();
            }
            cmd_append_trajectory(&dir, &traj);
        }
        _ => usage(),
    }
}
