//! Shared artifact and CLI plumbing for the experiment binaries.
//!
//! Every `src/bin/*` driver used to hand-roll the same three things:
//! positional-argument parsing, `results/` directory creation, and JSON
//! serialization. This module owns all of them so artifacts are written by
//! exactly one code path — and all JSON goes through
//! [`mwc_trace::json::Json`], the workspace's single deterministic
//! escaper/formatter (byte-identical output across same-seed runs is a CI
//! guarantee for `trace_manifest.json`).

pub use mwc_trace::json::Json;

use mwc_congest::Ledger;
use mwc_trace::{RunRecord, TraceSession};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Directory (under `results/`) where fresh run records land.
pub const RUN_RECORD_DIR: &str = "run_records";

/// Positional CLI arguments: everything that does not start with `--`, so
/// flags like `--jobs=4` never shift the positional indices the bins were
/// written against. Index 0 is the binary name.
fn positional(idx: usize) -> Option<String> {
    std::env::args().filter(|a| !a.starts_with("--")).nth(idx)
}

/// The `idx`-th positional CLI argument parsed as `T`, or `default` when
/// absent. `idx` is 1-based (0 is the binary name); `--` flags are
/// skipped.
///
/// # Panics
///
/// Panics if the argument does not parse; [`init_cli`] rejects such
/// arguments with a usage error before a bin reads any.
pub fn arg<T: FromStr>(idx: usize, default: T) -> T {
    positional(idx).map_or(default, |s| {
        s.parse()
            .ok()
            .unwrap_or_else(|| panic!("positional argument {idx} ('{s}') does not parse"))
    })
}

/// The `idx`-th positional CLI argument as a string, or `default`.
pub fn arg_str(idx: usize, default: &str) -> String {
    positional(idx).unwrap_or_else(|| default.into())
}

/// Checks a workload bin's command line before it does any work.
/// `positionals` names the bin's positional arguments in order: each is
/// an unsigned integer, except that a name written `a|b|c` accepts
/// exactly one of those words. `jobs` says whether the bin takes
/// `--jobs=N`, which is installed process-wide and wins over `MWC_JOBS`
/// (the worker count is not a run-record parameter: `ordered_map` and
/// trace grafting make records independent of it).
///
/// Any other `--` flag, a `--jobs` value that is not a positive integer,
/// a positional that does not parse, or one positional too many prints
/// one usage line naming the bad argument and exits with status 2.
pub fn init_cli(positionals: &[&str], jobs: bool) {
    let args: Vec<String> = std::env::args().collect();
    let bin = args.first().map_or("bench", |a| {
        Path::new(a)
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or(a)
    });
    match check_cli(args.get(1..).unwrap_or(&[]), positionals, jobs) {
        Ok(Some(n)) => mwc_par::set_jobs(n),
        Ok(None) => {}
        Err(bad) => {
            let mut usage = format!("usage: {bin}");
            for p in positionals {
                usage.push_str(&format!(" [{p}]"));
            }
            if jobs {
                usage.push_str(" [--jobs=N]");
            }
            eprintln!("{bin}: {bad}; {usage}");
            std::process::exit(2);
        }
    }
}

/// [`init_cli`]'s check over the arguments after the binary name:
/// `Ok(Some(n))` for a valid `--jobs=n`, `Ok(None)` without one, `Err`
/// naming the first bad argument.
fn check_cli(args: &[String], positionals: &[&str], jobs: bool) -> Result<Option<usize>, String> {
    let mut n_jobs = None;
    let mut next = positionals.iter();
    for a in args {
        if let Some(flag) = a.strip_prefix("--") {
            match flag.strip_prefix("jobs=") {
                Some(v) if jobs => match v.parse::<usize>() {
                    Ok(n) if n > 0 => n_jobs = Some(n),
                    _ => return Err(format!("bad argument '{a}' (N must be a positive integer)")),
                },
                _ => return Err(format!("unknown flag '{a}'")),
            }
            continue;
        }
        let Some(name) = next.next() else {
            return Err(format!("unexpected argument '{a}'"));
        };
        let words = name.contains('|');
        let ok = if words {
            name.split('|').any(|w| w == a)
        } else {
            a.parse::<u64>().is_ok()
        };
        if !ok {
            let want = if words {
                format!("one of {name}")
            } else {
                format!("{name} must be an unsigned integer")
            };
            return Err(format!("bad argument '{a}' ({want})"));
        }
    }
    Ok(n_jobs)
}

/// Enables wall-clock and allocation profiling on the calling thread and
/// zeroes the process-wide peak-allocation high-water mark, so the run's
/// spans accumulate wall-nanoseconds and (when the bin installed
/// [`mwc_trace::profile::CountingAlloc`] as its `#[global_allocator]`)
/// allocator traffic. Bench bins call this once at startup, next to
/// [`init_cli`].
///
/// [`RunRecorder::start`] deliberately does **not** call this: profiling
/// stamps nanosecond wall-clock into span nodes, which would break
/// callers (e.g. the perf-gate harness) that assert two recorder-built
/// records render byte-identically.
pub fn init_profiling() {
    mwc_trace::profile::set_thread_profiling(true);
    mwc_trace::profile::reset_peak_alloc();
}

/// Writes `contents` to `results/<relpath>`, creating directories as
/// needed, and logs the destination to stderr.
///
/// # Panics
///
/// Panics on I/O errors — these binaries are experiment drivers and a
/// missing artifact must not pass silently.
pub fn save_artifact(relpath: &str, contents: &str) -> PathBuf {
    write_under(Path::new("results"), relpath, contents)
}

fn write_under(root: &Path, relpath: &str, contents: &str) -> PathBuf {
    let path = root.join(relpath);
    let dir = path.parent().expect("artifact path has a parent");
    std::fs::create_dir_all(dir).expect("create results dir");
    std::fs::write(&path, contents).expect("write artifact");
    eprintln!("[saved {}]", path.display());
    path
}

/// Pretty-renders `value` and writes it to `results/<relpath>`.
///
/// # Panics
///
/// Panics on I/O errors, like [`save_artifact`].
pub fn save_json(relpath: &str, value: &Json) -> PathBuf {
    save_artifact(relpath, &value.render_pretty())
}

/// Records one benchmark binary's run as a canonical
/// [`RunRecord`](mwc_trace::RunRecord) under `results/run_records/`.
///
/// Wraps an in-memory [`TraceSession`] so every span the algorithms open
/// during the run is captured, collects [`Ledger`] congestion summaries
/// the driver registers along the way, and on [`RunRecorder::finish`]
/// writes the schema-versioned, byte-deterministic JSON that `trace_diff`
/// compares against the committed baseline of the same name.
///
/// ```no_run
/// use mwc_bench::report::RunRecorder;
/// let mut rec = RunRecorder::start("table1_girth");
/// rec.param("max_n", 4096);
/// // ... run the sweep, rec.congestion("n=128 exact", &ledger), ...
/// rec.finish();
/// ```
pub struct RunRecorder {
    name: String,
    params: Vec<(String, String)>,
    session: TraceSession,
    congestion: Vec<mwc_trace::CongestionSummary>,
    started: std::time::Instant,
    floods_at_start: (u64, u64),
}

impl RunRecorder {
    /// Starts recording: opens an in-memory trace session and the
    /// wall-clock stopwatch, zeroes the process-wide `mwc-par` worker
    /// counters so the record's `workers` tally covers exactly this run,
    /// and snapshots the process-cumulative flood count so the record's
    /// `floods_bitset` delta does too.
    /// `name` is by convention the binary name — the baseline pairing key.
    pub fn start(name: &str) -> RunRecorder {
        mwc_par::reset_worker_counters();
        RunRecorder {
            name: name.to_owned(),
            params: Vec::new(),
            session: TraceSession::memory(),
            congestion: Vec::new(),
            started: std::time::Instant::now(),
            floods_at_start: mwc_congest::flood_engagement(),
        }
    }

    /// Registers a run parameter (size, seed, ε…). Records are only
    /// comparable when names and parameters match, so everything that
    /// shapes the workload belongs here.
    pub fn param(&mut self, key: &str, value: impl std::fmt::Display) {
        self.params.push((key.to_owned(), value.to_string()));
    }

    /// Attaches a ledger's congestion summary under `label` (hot links,
    /// peak round, queue high-water). Order is preserved and diffed.
    pub fn congestion(&mut self, label: &str, ledger: &Ledger) {
        self.congestion.push(ledger.congestion_summary(label));
    }

    /// Builds the [`RunRecord`] without writing it (used by tests and by
    /// [`RunRecorder::finish`]). Stamps `wall_ms` with the elapsed host
    /// wall-clock since [`RunRecorder::start`] — the one intentionally
    /// non-deterministic field (informational only; `trace_diff` never
    /// compares it, and determinism tests zero it before comparing) —
    /// and `shards`/`jobs`/`workers`/`peak_alloc_bytes` plus the flood
    /// stamps (also informational: the worker count, pool counters, the
    /// allocator high-water mark, and flood tallies never change a gated
    /// metric; `shards` is always 1). The flood stamps keep the v8
    /// schema: `flood_kernel` is always `"bitset"` and `floods_scalar`
    /// always 0, since there is one flood loop; `floods_bitset` counts the
    /// run's floods.
    pub fn into_record(self) -> RunRecord {
        self.into_record_with_trace().0
    }

    /// [`RunRecorder::into_record`] but also returning the finished
    /// [`mwc_trace::TraceData`], so callers can render derived artifacts
    /// (the Chrome trace export) from the same session that produced the
    /// record.
    pub fn into_record_with_trace(self) -> (RunRecord, mwc_trace::TraceData) {
        let data = self.session.finish();
        let mut record = RunRecord::from_trace(&self.name, self.params, &data);
        for c in self.congestion {
            record.push_congestion(c);
        }
        record.wall_ms = self.started.elapsed().as_millis() as u64;
        record.shards = mwc_par::shards() as u64;
        record.jobs = mwc_par::jobs() as u64;
        record.flood_kernel = mwc_congest::flood_kernel().name().to_owned();
        let (bitset, scalar) = mwc_congest::flood_engagement();
        record.floods_bitset = bitset.saturating_sub(self.floods_at_start.0);
        record.floods_scalar = scalar.saturating_sub(self.floods_at_start.1);
        record.peak_alloc_bytes = mwc_trace::profile::peak_alloc_bytes();
        let w = mwc_par::worker_counters();
        record.workers = mwc_trace::WorkerTally {
            // Kept for the v8 schema: no pool task runs inside a
            // simulation, so it is always 0.
            tasks_executed: 0,
            items_grafted: w.items_grafted,
            idle_joins: w.idle_joins,
            busy_ms: w.busy_ns / 1_000_000,
        };
        (record, data)
    }

    /// Finishes the trace and writes
    /// `results/run_records/<name>.json` plus the OpenMetrics exposition
    /// of the same record as `results/metrics.prom` (validated before it
    /// lands — an unparsable exposition is a bug, not an artifact). When
    /// the `MWC_TRACE_EXPORT` environment variable is set (non-empty,
    /// not `0`), also writes the run's Chrome Trace Event Format export
    /// to `results/trace.perfetto.json` via [`save_chrome_trace`].
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`save_artifact`], or when the rendered
    /// exposition fails [`mwc_trace::validate_openmetrics`].
    pub fn finish(self) -> PathBuf {
        let relpath = format!("{RUN_RECORD_DIR}/{}.json", self.name);
        let name = self.name.clone();
        let (record, data) = self.into_record_with_trace();
        save_metrics_exposition(&record);
        if trace_export_requested() {
            save_chrome_trace(&data, &name);
        }
        save_artifact(&relpath, &record.render())
    }
}

/// Whether `MWC_TRACE_EXPORT` asks for a Chrome trace export (set to
/// anything non-empty except `0`).
pub fn trace_export_requested() -> bool {
    std::env::var("MWC_TRACE_EXPORT").is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

/// Renders `data` as Chrome Trace Event Format JSON and writes it to
/// `results/trace.perfetto.json` — load it in Perfetto (ui.perfetto.dev)
/// or `chrome://tracing`. The export is validated structurally before it
/// lands, like the OpenMetrics exposition.
///
/// # Panics
///
/// Panics on I/O errors, like [`save_artifact`], or when the rendered
/// trace fails [`mwc_trace::validate_chrome_trace`].
pub fn save_chrome_trace(data: &mwc_trace::TraceData, label: &str) -> PathBuf {
    let trace = mwc_trace::chrome_trace(data, label);
    mwc_trace::validate_chrome_trace(&trace.render_pretty()).expect("chrome trace validates");
    save_json("trace.perfetto.json", &trace)
}

/// Renders `record` as an OpenMetrics exposition and writes it to
/// `results/metrics.prom`, validating it first (an unparsable exposition
/// is a bug, not an artifact). Shared by [`RunRecorder::finish`] and the
/// bins that build their [`RunRecord`] directly.
///
/// # Panics
///
/// Panics on I/O errors, like [`save_artifact`], or when the rendered
/// exposition fails [`mwc_trace::validate_openmetrics`].
pub fn save_metrics_exposition(record: &RunRecord) -> PathBuf {
    let mut registry = mwc_trace::MetricsRegistry::new();
    registry.add(record);
    let exposition = registry.render();
    mwc_trace::validate_openmetrics(&exposition).expect("exposition validates");
    save_artifact("metrics.prom", &exposition)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_falls_back_to_default() {
        // Test binaries receive no positional args at high indices.
        assert_eq!(arg::<usize>(91, 17), 17);
        assert_eq!(arg_str(91, "fallback"), "fallback");
    }

    #[test]
    fn cli_check_accepts_declared_arguments() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(check_cli(&args(&[]), &["max_n"], false), Ok(None));
        assert_eq!(check_cli(&args(&["1024"]), &["max_n"], false), Ok(None));
        assert_eq!(
            check_cli(&args(&["--jobs=4", "256"]), &["max_n"], true),
            Ok(Some(4))
        );
        let algo = ["directed|girth", "max_n"];
        assert_eq!(check_cli(&args(&["girth", "256"]), &algo, false), Ok(None));
    }

    #[test]
    fn cli_check_names_the_bad_argument() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let bad = |a: &[&str], jobs| check_cli(&args(a), &["directed|girth", "max_n"], jobs);
        for (a, jobs, named) in [
            (&["girth", "1O24"][..], true, "'1O24'"),
            (&["ring"][..], true, "'ring'"),
            (&["girth", "-5"][..], true, "'-5'"),
            (&["girth", "64", "3"][..], true, "'3'"),
            (&["--jobs=x"][..], true, "'--jobs=x'"),
            (&["--jobs=0"][..], true, "'--jobs=0'"),
            (&["--jobs=4"][..], false, "'--jobs=4'"),
            (&["--shards=2"][..], true, "'--shards=2'"),
        ] {
            let err = bad(a, jobs).expect_err("must be rejected");
            assert!(err.contains(named), "{a:?}: {err}");
        }
    }

    #[test]
    fn run_recorder_builds_deterministic_records() {
        let build = || {
            let mut rec = RunRecorder::start("probe");
            rec.param("n", 3);
            {
                let _s = mwc_trace::span("phase");
                mwc_trace::add_cost(4, 9, 2);
            }
            let g =
                mwc_graph::Graph::from_edges(2, mwc_graph::Orientation::Undirected, [(0, 1, 1)])
                    .unwrap();
            let mut net: mwc_congest::Network<u8> = mwc_congest::Network::new(&g);
            net.send(0, 1, 1, 1).unwrap();
            while net.step_bulk_into(&mut mwc_congest::RoundOutput::default()) {}
            let mut ledger = Ledger::new();
            ledger.absorb("hop", &net);
            rec.congestion("hop", &ledger);
            let mut record = rec.into_record();
            // wall_ms and the worker tally are the intentionally
            // machine-dependent fields (the counters are process-global,
            // so concurrent tests can bump them mid-build).
            assert!(record.render().contains("\"wall_ms\""));
            record.wall_ms = 0;
            record.workers = Default::default();
            record
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.rounds, 4);
        assert_eq!(a.spans[0].path, "phase");
        assert_eq!(a.congestion[0].label, "hop");
        assert_eq!(a.congestion[0].hot_links, vec![(0, 1, 1)]);
    }

    #[test]
    fn write_under_creates_nested_dirs() {
        let dir = std::env::temp_dir().join("mwc-bench-report-test");
        let value = Json::obj([("ok", Json::Bool(true))]);
        let path = write_under(&dir, "sub/probe.json", &value.render_pretty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\n  \"ok\": true\n}\n");
    }
}
