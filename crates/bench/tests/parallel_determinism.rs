//! Determinism under parallelism: the table bins must produce
//! byte-identical stdout and run records for any worker count
//! (`MWC_JOBS`, sweep items fanned over threads), with the informational
//! fields (`wall_ms`, `jobs`, the `workers` tally) normalized before
//! comparison. This is the end-to-end guarantee behind
//! `mwc_par::ordered_map` + trace capture-and-graft: no thread schedule
//! may leave a trace in any artifact the perf gate reads. The bins'
//! start-up check of their command line is pinned here too.

use std::path::{Path, PathBuf};

/// JSON members that are informational by contract: stamped on every
/// record, legitimately varying across configurations, and normalized to
/// zero before byte comparison.
const INFORMATIONAL_FIELDS: &[&str] = &[
    "\"wall_ms\":",
    "\"jobs\":",
    "\"items_grafted\":",
    "\"idle_joins\":",
    "\"busy_ms\":",
    // Profile fields (v6): wall-clock is machine-dependent everywhere;
    // allocation attribution is deterministic only in the sequential
    // config (sweep items on worker threads shift per-span alloc with
    // the schedule) — which is exactly why trace_diff gates alloc only
    // at jobs<=1. Across this matrix all four are informational and
    // normalized.
    "\"wall_ns\":",
    "\"alloc_bytes\":",
    "\"alloc_count\":",
    "\"peak_alloc_bytes\":",
];

/// Runs `bin` with `MWC_JOBS=jobs` in a scratch cwd; returns stdout and
/// the rendered run record with its informational member lines
/// normalized to zero.
fn run_bin(bin: &str, arg: &str, record: &str, jobs: &str, scratch: &Path) -> (String, String) {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).unwrap();
    let out = std::process::Command::new(bin)
        .arg(arg)
        .env("MWC_JOBS", jobs)
        .env("MWC_TRACE", "1")
        .current_dir(scratch)
        .output()
        .expect("bench bin runs");
    assert!(
        out.status.success(),
        "MWC_JOBS={jobs}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rec = std::fs::read_to_string(scratch.join("results/run_records").join(record)).unwrap();
    let rec = rec
        .lines()
        .map(|l| {
            let field = INFORMATIONAL_FIELDS
                .iter()
                .find(|f| l.trim_start().starts_with(*f));
            match field {
                Some(f) => {
                    let indent = &l[..l.len() - l.trim_start().len()];
                    let comma = if l.trim_end().ends_with(',') { "," } else { "" };
                    format!("{indent}{f} 0{comma}")
                }
                None => l.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    (String::from_utf8_lossy(&out.stdout).into_owned(), rec)
}

fn scratch(case: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mwc-par-determinism-{case}"))
}

/// Jobs {1, 4}: the four-worker run must match the sequential one byte
/// for byte.
fn assert_parallelism_invariant(bin: &str, arg: &str, record: &str, case: &str) {
    let (out_base, rec_base) = run_bin(bin, arg, record, "1", &scratch(&format!("{case}-j1")));
    for field in [
        "\"wall_ms\": 0",
        "\"jobs\": 0",
        "\"items_grafted\": 0",
        "\"peak_alloc_bytes\": 0",
    ] {
        assert!(
            rec_base.contains(field),
            "{case}: record should carry a (normalized) {field} member"
        );
    }
    let (out, rec) = run_bin(bin, arg, record, "4", &scratch(&format!("{case}-j4")));
    assert_eq!(out, out_base, "{case}: stdout differs at MWC_JOBS=4");
    assert_eq!(
        rec, rec_base,
        "{case}: run record differs (beyond informational fields) at MWC_JOBS=4"
    );
}

#[test]
fn table1_girth_is_identical_across_worker_counts() {
    assert_parallelism_invariant(
        env!("CARGO_BIN_EXE_table1_girth"),
        "512",
        "table1_girth.json",
        "girth",
    );
}

#[test]
fn table1_undirected_weighted_is_identical_across_worker_counts() {
    assert_parallelism_invariant(
        env!("CARGO_BIN_EXE_table1_undirected_weighted"),
        "128",
        "table1_undirected_weighted.json",
        "uw",
    );
}

#[test]
fn jobs_flag_overrides_env_and_preserves_positional_args() {
    // `--jobs=4` on the command line must win over MWC_JOBS=1 and must not
    // shift the positional size argument.
    let dir = scratch("flag");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1_girth"))
        .args(["--jobs=4", "256"])
        .env("MWC_JOBS", "1")
        .current_dir(&dir)
        .output()
        .expect("bench bin runs");
    assert!(out.status.success());
    let rec = std::fs::read_to_string(dir.join("results/run_records/table1_girth.json")).unwrap();
    assert!(
        rec.contains("\"max_n\": \"256\""),
        "--jobs must not consume the positional arg: {rec}"
    );
}

#[test]
fn bad_command_lines_exit_2_and_write_no_record() {
    // The removed `--shards` flag, a non-numeric `--jobs` and a malformed
    // positional size are each refused at start-up with a usage line
    // naming the argument, before any sweep runs.
    for (case, args) in [
        ("shards", &["--shards=2", "256"][..]),
        ("jobs", &["--jobs=x", "256"][..]),
        ("positional", &["1O24"][..]),
    ] {
        let dir = scratch(&format!("bad-{case}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1_girth"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bench bin runs");
        assert_eq!(out.status.code(), Some(2), "{case}: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bad = args[0];
        assert!(
            stderr.contains(bad) && stderr.contains("usage: table1_girth"),
            "{case}: usage error must name {bad}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{case}: one line: {stderr}");
        assert!(
            !dir.join("results").exists(),
            "{case}: a refused run must write nothing"
        );
    }
}
