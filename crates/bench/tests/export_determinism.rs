//! End-to-end guarantees for the span profiler and its export surface:
//!
//! 1. `trace_report`'s Chrome Trace Event Format export
//!    (`results/trace.perfetto.json`) validates structurally and is
//!    **byte-identical across processes** once the wall-clock track and
//!    wall args are normalized — allocation args are deliberately NOT
//!    normalized, pinning cross-process allocation determinism in the
//!    default sequential configuration.
//! 2. The v6 run record is byte-identical across processes with only
//!    `wall_ns`/`wall_ms`/`peak_alloc_bytes` zeroed (same alloc
//!    determinism pin), and its span-level wall/alloc totals reconcile
//!    with the export's per-event args.
//! 3. `trace_report`'s stdout — the span flamegraph and every bound-audit
//!    row — is byte-identical across processes.
//! 4. `trace_diff` triage: an injected per-span regression makes the gate
//!    exit nonzero with that span ranked first in the `triage` member of
//!    `results/trace_diff_report.json`, complete with the
//!    `perf_gate.sh --bin` rerun and `mwc_replay bisect` hints, which
//!    name a regressed record even when an improvement ranks higher;
//!    `--verbose` prints the ranking even on success;
//!    `--only` restricts pairing so single-bin gating sees no spurious
//!    unpaired-baseline errors.

use mwc_bench::report::Json;
use mwc_trace::{validate_chrome_trace, RunRecord, TraceSession};
use std::path::{Path, PathBuf};

fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwc-export-determinism-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `trace_report` in a scratch cwd; returns the Chrome trace export,
/// the rendered run record and stdout.
fn run_trace_report(case: &str) -> (String, String, String) {
    let dir = scratch(case);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg("96")
        .current_dir(&dir)
        .output()
        .expect("trace_report runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(dir.join("results/trace.perfetto.json")).unwrap();
    let record =
        std::fs::read_to_string(dir.join("results/run_records/trace_report.json")).unwrap();
    (trace, record, String::from_utf8(out.stdout).unwrap())
}

/// Drops the wall-clock track (pid 2 — timestamps are host wall-clock)
/// and zeroes the `wall_ns`/`total_wall_ns` args on the remaining
/// simulated-rounds track. Everything else — event order, ts/dur in
/// simulated rounds, names, alloc args — must be byte-deterministic.
fn normalize_chrome(text: &str) -> String {
    let mut doc = Json::parse(text).expect("export parses");
    let Json::Obj(pairs) = &mut doc else {
        panic!("export is an object")
    };
    for (k, v) in pairs {
        if k != "traceEvents" {
            continue;
        }
        let Json::Arr(events) = v else {
            panic!("traceEvents is an array")
        };
        events.retain(|e| e.get("pid").and_then(Json::as_u64) != Some(2));
        for e in events {
            let Json::Obj(fields) = e else { continue };
            for (fk, fv) in fields {
                if fk != "args" {
                    continue;
                }
                let Json::Obj(args) = fv else { continue };
                for (ak, av) in args {
                    if ak == "wall_ns" || ak == "total_wall_ns" {
                        *av = Json::U64(0);
                    }
                }
            }
        }
    }
    doc.render_pretty()
}

/// Zeroes the host-time lines of a rendered run record (`wall_ns`,
/// `wall_ms`, `peak_alloc_bytes` — peak is sampled from a process-global
/// high-water mark, so allocator warmup outside the traced region can
/// shift it). `alloc_bytes`/`alloc_count` are left alone on purpose.
fn normalize_record(text: &str) -> String {
    text.lines()
        .map(|l| {
            let trimmed = l.trim_start();
            let field = ["\"wall_ns\":", "\"wall_ms\":", "\"peak_alloc_bytes\":"]
                .into_iter()
                .find(|f| trimmed.starts_with(f));
            match field {
                Some(f) => {
                    let indent = &l[..l.len() - trimmed.len()];
                    let comma = if l.trim_end().ends_with(',') { "," } else { "" };
                    format!("{indent}{f} 0{comma}")
                }
                None => l.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sums one numeric arg over the B events of the simulated-rounds track.
fn sum_arg(text: &str, arg: &str) -> u64 {
    let doc = Json::parse(text).unwrap();
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing")
    };
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(1))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get(arg))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn chrome_export_and_v6_record_are_deterministic_across_processes() {
    let (trace_a, rec_a, stdout_a) = run_trace_report("run-a");
    let (trace_b, rec_b, stdout_b) = run_trace_report("run-b");

    let summary = validate_chrome_trace(&trace_a).expect("export validates");
    assert!(summary.spans > 0, "export should carry spans");
    assert_eq!(
        summary.tracks, 2,
        "profiled run should emit the rounds AND wall tracks"
    );
    validate_chrome_trace(&trace_b).expect("second export validates");

    assert_eq!(
        normalize_chrome(&trace_a),
        normalize_chrome(&trace_b),
        "Chrome export differs across processes beyond the wall-clock track"
    );
    assert_eq!(
        normalize_record(&rec_a),
        normalize_record(&rec_b),
        "v6 record differs across processes beyond wall/peak fields — \
         allocation profiling lost determinism"
    );
    assert!(stdout_a.contains("== span flamegraph"), "{stdout_a}");
    assert!(stdout_a.contains("bound audits"), "{stdout_a}");
    assert_eq!(
        stdout_a, stdout_b,
        "flamegraph or audit table differs across processes"
    );

    // The record really is v6 with live profile data.
    let record = RunRecord::parse(&rec_a).unwrap();
    assert!(record.alloc_bytes > 0, "profiled run should allocate");
    assert!(record.alloc_count > 0);
    assert!(record.spans.iter().any(|s| s.wall_ns > 0));
    let span_alloc: u64 = record.spans.iter().map(|s| s.alloc_bytes).sum();
    assert_eq!(span_alloc, record.alloc_bytes, "span alloc must reconcile");

    // ... and the export's per-event args reconcile with it exactly.
    assert_eq!(sum_arg(&trace_a, "rounds"), record.rounds);
    assert_eq!(sum_arg(&trace_a, "alloc_bytes"), record.alloc_bytes);
    assert_eq!(sum_arg(&trace_a, "alloc_count"), record.alloc_count);
    let span_wall: u64 = record.spans.iter().map(|s| s.wall_ns).sum();
    assert_eq!(sum_arg(&trace_a, "wall_ns"), span_wall);
}

/// Builds a rendered run record whose `alg > hot` span carries
/// `40 + extra` simulated rounds.
fn probe_record(extra: u64) -> String {
    named_record("probe", extra)
}

/// [`probe_record`] under another record name.
fn named_record(name: &str, extra: u64) -> String {
    let session = TraceSession::memory();
    {
        let _a = mwc_trace::span("alg");
        mwc_trace::add_cost(100, 10, 5);
        {
            let _h = mwc_trace::span("hot");
            mwc_trace::add_cost(40 + extra, 4, 2);
        }
    }
    let data = session.finish();
    RunRecord::from_trace(name, Vec::<(String, String)>::new(), &data).render()
}

/// Writes `base`/`fresh` record dirs under a scratch cwd and runs
/// `trace_diff` there with `extra_args`; returns (exit code, stdout,
/// the report's `triage` member).
fn run_trace_diff(
    dir: &Path,
    base: &[(&str, &str)],
    fresh: &[(&str, &str)],
    extra_args: &[&str],
) -> (i32, String, Json) {
    for (sub, records) in [("base", base), ("fresh", fresh)] {
        let d = dir.join(sub);
        std::fs::create_dir_all(&d).unwrap();
        for (name, text) in records {
            std::fs::write(d.join(format!("{name}.json")), text).unwrap();
        }
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args(extra_args)
        .arg("fresh")
        .arg("base")
        .current_dir(dir)
        .output()
        .expect("trace_diff runs");
    let report = std::fs::read_to_string(dir.join("results/trace_diff_report.json"))
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let triage = report.and_then(|doc| doc.get("triage").cloned());
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        triage.unwrap_or(Json::Null),
    )
}

#[test]
fn injected_span_regression_is_ranked_first_in_triage() {
    let dir = scratch("triage-regression");
    let (code, stdout, doc) = run_trace_diff(
        &dir,
        &[("probe", &probe_record(0))],
        &[("probe", &probe_record(20))],
        &[],
    );
    assert_eq!(code, 1, "injected regression must fail the gate:\n{stdout}");
    assert!(
        stdout.contains("== triage"),
        "regression must print the triage section:\n{stdout}"
    );
    assert!(stdout.contains("scripts/perf_gate.sh --bin probe"));
    assert!(stdout.contains("mwc_replay -- bisect"));

    assert_eq!(doc.get("regressed"), Some(&Json::Bool(true)));
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        panic!("triage entries missing")
    };
    let first = entries.first().expect("ranking is non-empty");
    assert_eq!(first.get("record").and_then(Json::as_str), Some("probe"));
    assert_eq!(first.get("path").and_then(Json::as_str), Some("alg > hot"));
    let worst = doc.get("worst").expect("worst offender present");
    assert_eq!(
        worst.get("rerun").and_then(Json::as_str),
        Some("scripts/perf_gate.sh --bin probe")
    );
    assert!(worst
        .get("bisect")
        .and_then(Json::as_str)
        .unwrap()
        .contains("mwc_replay -- bisect"));
}

#[test]
fn hints_name_the_regressed_record_not_a_larger_improvement() {
    // `probe` regresses by 20 rounds; `calmer` improves by 100, which
    // outranks it in the movement ranking but must not get the hints.
    let dir = scratch("triage-mixed");
    let (code, stdout, doc) = run_trace_diff(
        &dir,
        &[
            ("probe", &probe_record(0)),
            ("calmer", &named_record("calmer", 100)),
        ],
        &[
            ("probe", &probe_record(20)),
            ("calmer", &named_record("calmer", 0)),
        ],
        &[],
    );
    assert_eq!(code, 1, "the probe regression fails the gate:\n{stdout}");
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        panic!("triage entries missing")
    };
    let first = entries.first().expect("ranking is non-empty");
    assert_eq!(first.get("record").and_then(Json::as_str), Some("calmer"));
    let worst = doc.get("worst").expect("worst offender present");
    assert_eq!(worst.get("record").and_then(Json::as_str), Some("probe"));
    assert_eq!(worst.get("path").and_then(Json::as_str), Some("alg > hot"));
    assert!(
        stdout.contains("rerun:  scripts/perf_gate.sh --bin probe"),
        "{stdout}"
    );
    assert!(!stdout.contains("--bin calmer"), "{stdout}");

    // Nothing regressed: no offender, no hints.
    let dir = scratch("triage-improved");
    let (code, stdout, doc) = run_trace_diff(
        &dir,
        &[("calmer", &named_record("calmer", 100))],
        &[("calmer", &named_record("calmer", 0))],
        &["--verbose"],
    );
    assert_eq!(code, 0);
    assert_eq!(doc.get("worst"), Some(&Json::Null));
    assert!(!stdout.contains("rerun:"), "{stdout}");
}

#[test]
fn verbose_prints_triage_even_without_regression() {
    // Fresh is an *improvement*: the gate passes, but the movement still
    // ranks — visible only with --verbose, while the report's triage
    // member is always filled.
    let dir = scratch("triage-verbose");
    let (code, stdout, triage) = run_trace_diff(
        &dir,
        &[("probe", &probe_record(20))],
        &[("probe", &probe_record(0))],
        &["--verbose", "--top=3"],
    );
    assert_eq!(code, 0, "improvements never fail:\n{stdout}");
    assert!(stdout.contains("== triage"), "--verbose prints triage");

    let dir = scratch("triage-quiet");
    let (code, stdout, triage_quiet) = run_trace_diff(
        &dir,
        &[("probe", &probe_record(20))],
        &[("probe", &probe_record(0))],
        &["--top=3"],
    );
    assert_eq!(code, 0);
    assert!(
        !stdout.contains("== triage"),
        "no triage section without --verbose on success:\n{stdout}"
    );
    // The member is filled either way, with the same ranking.
    assert_eq!(triage, triage_quiet);
    assert_eq!(triage_quiet.get("regressed"), Some(&Json::Bool(false)));
    let Some(Json::Arr(entries)) = triage_quiet.get("entries") else {
        panic!("triage entries missing")
    };
    assert!(
        !entries.is_empty(),
        "improvement still ranks in the report's triage member"
    );
}

#[test]
fn only_flag_restricts_pairing_to_one_record() {
    // An orphan baseline is a config error (exit 2) for a full gate run,
    // but --only=probe scopes the diff to the one record that ran.
    let dir = scratch("only-full");
    let (code, _, _) = run_trace_diff(
        &dir,
        &[("probe", &probe_record(0)), ("orphan", &probe_record(0))],
        &[("probe", &probe_record(0))],
        &[],
    );
    assert_eq!(code, 2, "orphan baseline must be a config error");

    let dir = scratch("only-scoped");
    let (code, stdout, _) = run_trace_diff(
        &dir,
        &[("probe", &probe_record(0)), ("orphan", &probe_record(0))],
        &[("probe", &probe_record(0))],
        &["--only=probe"],
    );
    assert_eq!(code, 0, "--only must ignore the orphan baseline:\n{stdout}");
    assert!(stdout.contains("1 record pair(s)"));

    let dir = scratch("only-missing");
    let (code, _, _) = run_trace_diff(
        &dir,
        &[("probe", &probe_record(0))],
        &[("probe", &probe_record(0))],
        &["--only=nonexistent"],
    );
    assert_eq!(code, 2, "--only with no match is a config error");
}
