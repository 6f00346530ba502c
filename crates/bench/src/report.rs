//! Shared artifact and CLI plumbing for the experiment binaries.
//!
//! Every `src/bin/*` driver used to hand-roll the same three things:
//! positional-argument parsing, `results/` directory creation, and JSON
//! serialization. This module owns all of them so artifacts are written by
//! exactly one code path — and all JSON goes through
//! [`mwc_trace::json::Json`], the workspace's single deterministic
//! escaper/formatter (byte-identical output across same-seed runs is a CI
//! guarantee for the run records).

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

/// Checks a bin's command line before it does any work.
///
/// `positionals` names the bin's positional arguments in order. A plain
/// name is an unsigned integer, a name written `name>=N` an integer of at
/// least `N` (the smallest size the bin's generators accept), a name
/// written `a|b|c` accepts exactly one of those words, and a name ending
/// in `:path` takes any text. `flags` names the bin's `--` flags: `--name`
/// is a switch, `--name=N` takes a positive integer, and any other
/// `--name=VALUE` takes non-empty text. A declared `--jobs=N` is
/// installed process-wide and wins over `MWC_JOBS` (the worker count is
/// not a run-record parameter: `ordered_map` and trace grafting make
/// records independent of it). Bins read the values afterwards with
/// [`arg`], [`arg_str`] and [`flag`].
///
/// An undeclared `--` flag, a flag value of the wrong kind, a positional
/// that does not parse or is below its minimum, or one positional too
/// many prints one usage line naming the bad argument and exits with
/// status 2.
pub fn init_cli(positionals: &[&str], flags: &[&str]) {
    let args: Vec<String> = std::env::args().collect();
    let bin = args.first().map_or("bench", |a| {
        Path::new(a)
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or(a)
    });
    match check_cli(args.get(1..).unwrap_or(&[]), positionals, flags) {
        Ok(Some(n)) => mwc_par::set_jobs(n),
        Ok(None) => {}
        Err(bad) => {
            let mut usage = format!("usage: {bin}");
            for p in positionals {
                let name = p.split_once(':').map_or(*p, |(name, _)| name);
                usage.push_str(&format!(" [{name}]"));
            }
            for f in flags {
                usage.push_str(&format!(" [{f}]"));
            }
            eprintln!("{bin}: {bad}; {usage}");
            std::process::exit(2);
        }
    }
}

/// The value of the last `--name=VALUE` on the command line (`""` for a
/// bare `--name`), or `None` when the flag is absent. [`init_cli`] has
/// already checked its kind.
pub fn flag(name: &str) -> Option<String> {
    std::env::args()
        .skip(1)
        .filter_map(|a| {
            let given = a.strip_prefix("--")?;
            match given.split_once('=') {
                Some((n, v)) if n == name => Some(v.to_owned()),
                None if given == name => Some(String::new()),
                _ => None,
            }
        })
        .next_back()
}

/// [`init_cli`]'s check over the arguments after the binary name:
/// `Ok(Some(n))` for a valid `--jobs=n`, `Ok(None)` without one, `Err`
/// naming the first bad argument.
fn check_cli(
    args: &[String],
    positionals: &[&str],
    flags: &[&str],
) -> Result<Option<usize>, String> {
    let mut n_jobs = None;
    let mut next = positionals.iter();
    for a in args {
        if let Some(given) = a.strip_prefix("--") {
            let (name, value) = given
                .split_once('=')
                .map_or((given, None), |(n, v)| (n, Some(v)));
            let spec = flags
                .iter()
                .find(|f| f[2..].split('=').next() == Some(name))
                .ok_or_else(|| format!("unknown flag '{a}'"))?;
            match (spec.split_once('=').map(|(_, kind)| kind), value) {
                (None, None) => {}
                (Some("N"), Some(v)) => match v.parse::<usize>() {
                    Ok(n) if n > 0 => {
                        if name == "jobs" {
                            n_jobs = Some(n);
                        }
                    }
                    _ => return Err(format!("bad argument '{a}' (N must be a positive integer)")),
                },
                (Some(_), Some(v)) if !v.is_empty() => {}
                _ => return Err(format!("bad argument '{a}' (expected {spec})")),
            }
            continue;
        }
        let Some(spec) = next.next() else {
            return Err(format!("unexpected argument '{a}'"));
        };
        let (ok, want) = if spec.ends_with(":path") {
            (true, String::new())
        } else if spec.contains('|') {
            (spec.split('|').any(|w| w == a), format!("one of {spec}"))
        } else {
            let (name, min) = match spec.split_once(">=") {
                Some((name, min)) => (name, min.parse().expect("a spec minimum is an integer")),
                None => (*spec, 0),
            };
            let want = if min == 0 {
                format!("{name} must be an unsigned integer")
            } else {
                format!("{name} must be an integer >= {min}")
            };
            (a.parse::<u64>().is_ok_and(|v| v >= min), want)
        };
        if !ok {
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
    floods_at_start: u64,
}

impl RunRecorder {
    /// Starts recording: opens an in-memory trace session and the
    /// wall-clock stopwatch, and snapshots the process-cumulative flood
    /// count so the record's `floods` delta covers exactly this run.
    /// `name` is by convention the binary name — the baseline pairing key.
    pub fn start(name: &str) -> RunRecorder {
        RunRecorder {
            name: name.to_owned(),
            params: Vec::new(),
            session: TraceSession::memory(),
            congestion: Vec::new(),
            started: std::time::Instant::now(),
            floods_at_start: mwc_congest::flood_engagement().0,
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
    /// and `jobs`/`floods`/`peak_alloc_bytes` (also informational: the
    /// worker count, flood tally and allocator high-water mark never
    /// change a gated metric).
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
        record.jobs = mwc_par::jobs() as u64;
        record.floods = mwc_congest::flood_engagement()
            .0
            .saturating_sub(self.floods_at_start);
        record.peak_alloc_bytes = mwc_trace::profile::peak_alloc_bytes();
        (record, data)
    }

    /// Finishes the trace and writes `results/run_records/<name>.json`.
    /// When the `MWC_TRACE_EXPORT` environment variable is set
    /// (non-empty, not `0`), also writes the run's Chrome Trace Event
    /// Format export to `results/trace.perfetto.json` via
    /// [`save_chrome_trace`].
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`save_artifact`].
    pub fn finish(self) -> PathBuf {
        let relpath = format!("{RUN_RECORD_DIR}/{}.json", self.name);
        let name = self.name.clone();
        let (record, data) = self.into_record_with_trace();
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
/// lands.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_falls_back_to_default() {
        // Test binaries receive no positional args at high indices.
        assert_eq!(arg::<usize>(91, 17), 17);
        assert_eq!(arg_str(91, "fallback"), "fallback");
    }

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// `trace_diff`'s command line.
    const DIFF_POS: &[&str] = &["fresh_dir:path", "base_dir:path"];
    const DIFF_FLAGS: &[&str] = &["--only=NAME", "--top=N", "--verbose"];

    #[test]
    fn cli_check_accepts_declared_arguments() {
        let jobs: &[&str] = &["--jobs=N"];
        assert_eq!(check_cli(&args(&[]), &["max_n"], &[]), Ok(None));
        assert_eq!(check_cli(&args(&["1024"]), &["max_n"], &[]), Ok(None));
        assert_eq!(
            check_cli(&args(&["--jobs=4", "256"]), &["max_n"], jobs),
            Ok(Some(4))
        );
        let algo = ["directed|girth", "max_n"];
        assert_eq!(check_cli(&args(&["girth", "256"]), &algo, &[]), Ok(None));
        assert_eq!(check_cli(&args(&["8"]), &["n>=8"], &[]), Ok(None));
        assert_eq!(check_cli(&args(&["96"]), &["n>=8"], &[]), Ok(None));
        assert_eq!(
            check_cli(&args(&["6", "0"]), &["n>=6", "seeds"], &[]),
            Ok(None)
        );
        for a in [
            &["fresh", "results/baselines"][..],
            &[
                "--only=table1_girth",
                "fresh",
                "base",
                "--top=3",
                "--verbose",
            ][..],
            &[][..],
        ] {
            assert_eq!(check_cli(&args(a), DIFF_POS, DIFF_FLAGS), Ok(None), "{a:?}");
        }
    }

    #[test]
    fn cli_check_names_the_bad_argument() {
        let algo: &[&str] = &["directed|girth", "max_n"];
        let jobs: &[&str] = &["--jobs=N"];
        for (a, positionals, flags, named) in [
            (&["girth", "1O24"][..], algo, jobs, "'1O24'"),
            (&["ring"][..], algo, jobs, "'ring'"),
            (&["girth", "-5"][..], algo, jobs, "'-5'"),
            (&["girth", "64", "3"][..], algo, jobs, "'3'"),
            (&["--jobs=x"][..], algo, jobs, "'--jobs=x'"),
            (&["--jobs=0"][..], algo, jobs, "'--jobs=0'"),
            (&["--jobs=4"][..], algo, &[][..], "'--jobs=4'"),
            (&["--shards=2"][..], algo, jobs, "'--shards=2'"),
            (&["--bogus"][..], DIFF_POS, DIFF_FLAGS, "'--bogus'"),
            (&["--top=x"][..], DIFF_POS, DIFF_FLAGS, "'--top=x'"),
            (&["--top"][..], DIFF_POS, DIFF_FLAGS, "'--top'"),
            (&["--only="][..], DIFF_POS, DIFF_FLAGS, "'--only='"),
            (&["--verbose=1"][..], DIFF_POS, DIFF_FLAGS, "'--verbose=1'"),
            (&["a", "b", "0.05"][..], DIFF_POS, DIFF_FLAGS, "'0.05'"),
            (&["7"][..], &["n>=8"][..], &[][..], "'7'"),
            (&["0"][..], &["n>=8"][..], &[][..], "'0'"),
            (&["2"][..], &["n>=3"][..], &[][..], "'2'"),
            (&["5", "3"][..], &["n>=6", "seeds"][..], &[][..], "'5'"),
            (&["-8"][..], &["n>=8"][..], &[][..], "'-8'"),
        ] {
            let err = check_cli(&args(a), positionals, flags).expect_err("must be rejected");
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
            // wall_ms is the intentionally machine-dependent field.
            assert!(record.render().contains("\"wall_ms\""));
            record.wall_ms = 0;
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
