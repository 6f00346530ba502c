//! End-to-end perf-gate tests: drives the real `trace_diff` binary over
//! record files on disk and asserts its exit codes and culprit reporting —
//! identical records pass (exit 0), an injected +1-round regression fails
//! with a span-level human-readable report (exit 1), unpaired records are
//! configuration errors (exit 2). Also pins the `mwc_metrics` trajectory
//! append-log against being overwritten, and both utility bins' refusal of
//! bad command lines.

use mwc_bench::report::RunRecorder;
use mwc_trace::RunRecord;
use std::path::{Path, PathBuf};
use std::process::Output;

/// A deterministic record with one nested span, built like a bench bin
/// would build it.
fn sample_record() -> RunRecord {
    let mut rec = RunRecorder::start("probe");
    rec.param("n", 64);
    {
        let _outer = mwc_trace::span("sweep");
        mwc_trace::add_cost(10, 100, 20);
        let _inner = mwc_trace::span("bfs");
        mwc_trace::add_cost(30, 300, 60);
    }
    rec.into_record()
}

/// Writes `record` as `<dir>/probe.json`.
fn write_record(dir: &Path, record: &RunRecord) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("probe.json"), record.render()).unwrap();
}

/// Runs the trace_diff binary against `fresh` and `base` dirs, from a
/// scratch cwd so report artifacts don't pollute the repo's `results/`.
fn run_gate(scratch: &Path, fresh: &Path, base: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([fresh.to_str().unwrap(), base.to_str().unwrap()])
        .current_dir(scratch)
        .output()
        .expect("trace_diff runs")
}

fn scratch_dirs(case: &str) -> (PathBuf, PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("mwc-perf-gate-{case}"));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    (root.clone(), root.join("fresh"), root.join("base"))
}

#[test]
fn identical_records_pass_the_gate() {
    let (root, fresh, base) = scratch_dirs("identical");
    // Two independent builds of the same workload: byte-determinism means
    // the gate sees zero deltas, not merely tolerated ones.
    let (a, b) = (sample_record(), sample_record());
    assert_eq!(a.render(), b.render(), "records must be byte-identical");
    write_record(&base, &a);
    write_record(&fresh, &b);
    let out = run_gate(&root, &fresh, &base);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("no deltas"), "{stdout}");
    // No trajectory artifact: the append-log under the same path belongs
    // to `mwc_metrics append-trajectory`, and trace_diff must not touch it.
    assert!(
        !root.join("results/BENCH_trajectory.json").exists(),
        "trace_diff wrote a trajectory snapshot"
    );
}

#[test]
fn injected_one_round_regression_fails_with_culprit_span() {
    let (root, fresh, base) = scratch_dirs("regression");
    let baseline = sample_record();
    let mut regressed = sample_record();
    // Inject a synthetic +1 round into the nested span (and the totals it
    // rolls up into, as a real regression would).
    let span = regressed
        .spans
        .iter_mut()
        .find(|s| s.path == "sweep > bfs")
        .expect("nested span recorded");
    span.rounds += 1;
    regressed.rounds += 1;
    write_record(&base, &baseline);
    write_record(&fresh, &regressed);

    let out = run_gate(&root, &fresh, &base);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // The report names the culprit span path and the exact delta.
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("sweep > bfs"), "{stdout}");
    assert!(stdout.contains("30 -> 31"), "{stdout}");
    // Machine-readable report carries the same verdict.
    let json = std::fs::read_to_string(root.join("results/trace_diff_report.json")).unwrap();
    assert!(json.contains("\"status\": \"REGRESSED\""), "{json}");
}

#[test]
fn unpaired_records_are_config_errors() {
    let (root, fresh, base) = scratch_dirs("unpaired");
    std::fs::create_dir_all(&fresh).unwrap();
    write_record(&base, &sample_record());
    let out = run_gate(&root, &fresh, &base);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("INCOMPARABLE"), "{stdout}");
}

/// Runs `bin` with `args` from `cwd`.
fn run(bin: &str, args: &[&str], cwd: &Path) -> Output {
    std::process::Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("bin runs")
}

#[test]
fn append_trajectory_refuses_a_log_of_another_schema() {
    let (root, records, _) = scratch_dirs("trajectory");
    write_record(&records, &sample_record());
    let log = root.join("BENCH_trajectory.json");
    let (records, log_path) = (records.to_str().unwrap(), log.to_str().unwrap());
    let bin = env!("CARGO_BIN_EXE_mwc_metrics");

    // A file at that path that is not a v2 log is left byte-for-byte as
    // it was.
    for other in [
        "{\n  \"schema\": \"mwc-bench-trajectory/v1\",\n  \"records\": []\n}\n",
        "{\n  \"schema\": \"mwc-bench-trajectory/v2\"\n}\n",
        "not json\n",
    ] {
        std::fs::write(&log, other).unwrap();
        let out = run(bin, &["append-trajectory", records, log_path], &root);
        assert_eq!(out.status.code(), Some(2), "{other:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("refusing to overwrite"), "{stderr}");
        assert_eq!(std::fs::read_to_string(&log).unwrap(), other);
    }

    // A missing log starts fresh; a v2 log is appended to.
    std::fs::remove_file(&log).unwrap();
    for runs in [1, 2] {
        let out = run(bin, &["append-trajectory", records, log_path], &root);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let log = std::fs::read_to_string(&log).unwrap();
        assert!(log.contains("mwc-bench-trajectory/v2"), "{log}");
        assert_eq!(log.matches("\"bin\": \"probe\"").count(), runs, "{log}");
        assert!(!log.contains("\"shards\""), "{log}");
    }
}

#[test]
fn utility_bins_refuse_bad_command_lines() {
    let (root, fresh, base) = scratch_dirs("cli");
    write_record(&fresh, &sample_record());
    write_record(&base, &sample_record());
    let (fresh, base) = (fresh.to_str().unwrap(), base.to_str().unwrap());
    let diff = env!("CARGO_BIN_EXE_trace_diff");
    let metrics = env!("CARGO_BIN_EXE_mwc_metrics");
    for (bin, name, args, bad) in [
        (diff, "trace_diff", &[fresh, base, "--bogus"][..], "--bogus"),
        (diff, "trace_diff", &[fresh, base, "--top=x"][..], "--top=x"),
        (diff, "trace_diff", &[fresh, base, "tight"][..], "tight"),
        (
            metrics,
            "mwc_metrics",
            &["report", fresh, "--bogus"][..],
            "--bogus",
        ),
    ] {
        let out = run(bin, args, &root);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("'{bad}'")) && stderr.contains(&format!("usage: {name}")),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: refused before any work");
    }
    // The refused runs wrote no report.
    assert!(!root.join("results").exists());
}
