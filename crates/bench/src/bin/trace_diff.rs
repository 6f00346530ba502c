//! **trace_diff** — the differential perf gate: compares fresh run records
//! against committed baselines span-by-span and exits nonzero on
//! regression.
//!
//! Pairs `<name>.json` files between the fresh and baseline directories,
//! parses each pair as a [`RunRecord`], and diffs it exactly
//! ([`diff_records`]). Improvements never fail; structural
//! drift (spans appearing/disappearing, baselines without fresh records
//! or vice versa) fails loudly so the gate cannot rot silently.
//!
//! On regression (or always with `--verbose`) the report ends with a
//! **triage** section: the top-K span paths across all record pairs,
//! ranked by their |delta| contribution to the baseline totals (rounds,
//! words, and — where the gate compares allocations — bytes). On
//! regression it adds the ready-to-run commands to reproduce the worst
//! offender (`scripts/perf_gate.sh --bin <name>`) and to bisect it at
//! message level (`mwc_replay bisect` over two `MWC_TRACE_EVENTS`
//! captures). The worst offender is the highest-ranked span of a record
//! that regressed: improvements rank too, but never get the hints.
//!
//! Artifacts (both under `results/`):
//!
//! - `trace_diff_report.txt` — the human report printed to stdout,
//! - `trace_diff_report.json` (`mwc-trace-diff/v2`) — machine-readable
//!   per-pair entries plus a `triage` member holding the ranked span
//!   triage (filled on every run, empty ranking when nothing moved).
//!
//! The commit-over-commit trajectory is `mwc_metrics append-trajectory`'s
//! append-log: base totals live in the baselines, fresh ones in the log.
//!
//! Exit codes: `0` no regressions, `1` at least one regression, `2`
//! configuration error (unpaired or unparsable records — refresh the
//! baselines, see `docs/observability.md` — or a bad command line).
//!
//! Usage: `trace_diff [fresh_dir] [base_dir]`
//! (defaults `results/run_records`, `results/baselines`).
//! Flags (never shift the positionals):
//!
//! - `--only=NAME` — restrict pairing to one record name (for
//!   `perf_gate.sh --bin`, where other baselines have no fresh record),
//! - `--top=K` — triage ranking depth (default 5),
//! - `--verbose` — print the triage section even without a regression.
//!
//! An unknown flag or a value that does not parse is a usage error.

use mwc_bench::report;
use mwc_bench::report::Json;
use mwc_trace::{diff_records, triage_spans, RunDiff, RunRecord, TriageEntry};
use std::collections::BTreeMap;
use std::path::Path;

/// Reads every `<name>.json` under `dir` as `(name, text)`.
fn load_dir(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_owned();
            if let Ok(text) = std::fs::read_to_string(&path) {
                out.insert(name, text);
            }
        }
    }
    out
}

fn incomparable(name: &str, why: String) -> RunDiff {
    RunDiff {
        name: name.to_owned(),
        incomparable: Some(why),
        entries: Vec::new(),
    }
}

/// Relative `peak_alloc` change beyond which a pair is tagged `NOTABLE`.
/// The tag only draws the eye: the peak depends on allocator timing, so
/// it is never gated.
const PEAK_ALLOC_NOTABLE: f64 = 0.10;

/// The relative `peak_alloc` change base → fresh and whether it is
/// notable; `None` when the baseline carries no peak.
fn peak_alloc_change(base: &RunRecord, fresh: &RunRecord) -> Option<(f64, bool)> {
    if base.peak_alloc_bytes == 0 {
        return None;
    }
    let (b, f) = (base.peak_alloc_bytes as f64, fresh.peak_alloc_bytes as f64);
    let rel = (f - b) / b;
    Some((rel, rel.abs() > PEAK_ALLOC_NOTABLE))
}

/// One human-report line for the informational fields — printed, never
/// gated, so the reader sees the wall-clock/allocation/jobs context
/// instead of the report silently dropping it.
fn info_line(base: &RunRecord, fresh: &RunRecord) -> String {
    let peak_change = match peak_alloc_change(base, fresh) {
        Some((rel, notable)) => {
            let tag = if notable { ", NOTABLE" } else { "" };
            format!(" ({:+.1} %{tag})", 100.0 * rel)
        }
        None => String::new(),
    };
    format!(
        "{:<16} wall_ms {} -> {}, peak_alloc {} -> {}{peak_change}, \
         jobs {} -> {} (informational, never gated)\n",
        "info",
        base.wall_ms,
        fresh.wall_ms,
        base.peak_alloc_bytes,
        fresh.peak_alloc_bytes,
        base.jobs,
        fresh.jobs
    )
}

/// The JSON report's informational `peak_alloc` entry for one pair.
fn peak_alloc_json(name: &str, base: &RunRecord, fresh: &RunRecord) -> Json {
    let change = peak_alloc_change(base, fresh);
    Json::obj([
        ("record", Json::str(name)),
        ("base", Json::U64(base.peak_alloc_bytes)),
        ("fresh", Json::U64(fresh.peak_alloc_bytes)),
        (
            "change_rel",
            change.map_or(Json::Null, |(rel, _)| Json::F64(rel)),
        ),
        ("notable", Json::Bool(change.is_some_and(|(_, n)| n))),
    ])
}

fn triage_entry_json(record: &str, e: &TriageEntry) -> Json {
    let mut pairs = match e.to_json() {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("TriageEntry::to_json returns an object"),
    };
    pairs.insert(0, ("record".to_owned(), Json::str(record)));
    Json::Obj(pairs)
}

/// The ready-to-run message-level bisect recipe for a record name: two
/// `MWC_TRACE_EVENTS` captures (baseline commit vs. working tree) fed to
/// `mwc_replay bisect`, which prints the first divergent (round, link).
fn bisect_hint(name: &str) -> String {
    format!(
        "cargo run --release -p mwc-bench --bin mwc_replay -- bisect \
         results/{name}.base.events.jsonl results/{name}.fresh.events.jsonl"
    )
}

fn main() {
    report::init_cli(
        &["fresh_dir:path", "base_dir:path"],
        &["--only=NAME", "--top=N", "--verbose"],
    );
    let fresh_dir = report::arg_str(1, &format!("results/{}", report::RUN_RECORD_DIR));
    let base_dir = report::arg_str(2, "results/baselines");
    let verbose = report::flag("verbose").is_some();
    let top: usize = report::flag("top").map_or(5, |k| k.parse().expect("checked by init_cli"));
    let only = report::flag("only");

    let fresh = load_dir(Path::new(&fresh_dir));
    let base = load_dir(Path::new(&base_dir));
    let names: Vec<&String> = base.keys().chain(fresh.keys()).collect();
    let mut names: Vec<String> = names.into_iter().cloned().collect();
    names.sort();
    names.dedup();
    if let Some(only) = &only {
        names.retain(|n| n == only);
        if names.is_empty() {
            eprintln!("trace_diff: --only={only} matches no record in {fresh_dir} or {base_dir}");
            std::process::exit(2);
        }
    }
    if names.is_empty() {
        eprintln!("trace_diff: no records in {fresh_dir} or {base_dir}");
        std::process::exit(2);
    }

    let mut diffs: Vec<RunDiff> = Vec::new();
    let mut info_lines: BTreeMap<String, String> = BTreeMap::new();
    let mut pairs: Vec<(String, RunRecord, RunRecord)> = Vec::new();
    for name in &names {
        let diff = match (base.get(name), fresh.get(name)) {
            (Some(_), None) => incomparable(
                name,
                format!("baseline exists but no fresh record in {fresh_dir} — did the bin run?"),
            ),
            (None, Some(_)) => incomparable(
                name,
                format!(
                    "fresh record has no committed baseline in {base_dir} — \
                     refresh baselines (docs/observability.md)"
                ),
            ),
            (Some(b), Some(f)) => match (RunRecord::parse(b), RunRecord::parse(f)) {
                (Ok(b), Ok(f)) => {
                    info_lines.insert(name.clone(), info_line(&b, &f));
                    let d = diff_records(&b, &f);
                    pairs.push((name.clone(), b, f));
                    d
                }
                (Err(e), _) => incomparable(name, format!("baseline unparsable: {e}")),
                (_, Err(e)) => incomparable(name, format!("fresh record unparsable: {e}")),
            },
            (None, None) => unreachable!("name came from one of the maps"),
        };
        diffs.push(diff);
    }

    let config_errors = diffs.iter().filter(|d| d.incomparable.is_some()).count();
    let regressions: usize = diffs.iter().map(RunDiff::regression_count).sum();

    // Triage: every span path that moved, across all pairs, ranked by its
    // |delta| contribution to the baseline totals. Computed on every run
    // (the artifact always lands); printed on regression or --verbose.
    let mut triage: Vec<(String, TriageEntry)> = Vec::new();
    for (name, b, f) in &pairs {
        for e in triage_spans(b, f) {
            triage.push((name.clone(), e));
        }
    }
    triage.sort_by(|a, b| {
        b.1.score_milli
            .cmp(&a.1.score_milli)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.path.cmp(&b.1.path))
    });
    // The offender the hints name: the highest-ranked span of a record
    // whose diff regressed (an improvement elsewhere may rank above it),
    // else the first regressed record with no span named.
    let regressed: Vec<&str> = diffs
        .iter()
        .filter(|d| d.regression_count() > 0)
        .map(|d| d.name.as_str())
        .collect();
    let worst: Option<(String, Option<String>)> = triage
        .iter()
        .find(|(name, _)| regressed.contains(&name.as_str()))
        .map(|(name, e)| (name.clone(), Some(e.path.clone())))
        .or_else(|| regressed.first().map(|name| (name.to_string(), None)));
    triage.truncate(top);

    let mut human = String::new();
    for d in &diffs {
        human.push_str(&d.render());
        if let Some(info) = info_lines.get(&d.name) {
            human.push_str(info);
        }
        human.push('\n');
    }
    human.push_str(&format!(
        "trace_diff: {} record pair(s), {regressions} regression(s), {config_errors} config error(s)\n",
        names.len()
    ));
    if !triage.is_empty() && (regressions > 0 || verbose) {
        human.push_str(&format!(
            "\n== triage: top {} span path(s) by |delta| contribution ==\n",
            triage.len()
        ));
        for (i, (name, e)) in triage.iter().enumerate() {
            human.push_str(&format!(
                "  {:>2}. {:<24} {:<40} score {}.{:03} (rounds {:+}, words {:+}, alloc {:+})\n",
                i + 1,
                name,
                e.path,
                e.score_milli / 1000,
                e.score_milli % 1000,
                e.rounds_delta,
                e.words_delta,
                e.alloc_delta
            ));
        }
    }
    if let Some((worst, _)) = &worst {
        human.push_str(&format!("  rerun:  scripts/perf_gate.sh --bin {worst}\n"));
        human.push_str(&format!(
            "  bisect: capture MWC_TRACE_EVENTS=results/{worst}.base.events.jsonl (baseline \
             commit) and results/{worst}.fresh.events.jsonl (this tree), then:\n"
        ));
        human.push_str(&format!("          {}\n", bisect_hint(worst)));
    }
    print!("{human}");
    report::save_artifact("trace_diff_report.txt", &human);
    let triage_json = Json::obj([
        ("regressed", Json::Bool(regressions > 0)),
        ("top", Json::U64(top as u64)),
        (
            "entries",
            Json::Arr(
                triage
                    .iter()
                    .map(|(n, e)| triage_entry_json(n, e))
                    .collect(),
            ),
        ),
        (
            "worst",
            match &worst {
                Some((name, path)) => Json::obj([
                    ("record", Json::str(name)),
                    ("path", path.as_deref().map_or(Json::Null, Json::str)),
                    (
                        "rerun",
                        Json::Str(format!("scripts/perf_gate.sh --bin {name}")),
                    ),
                    ("bisect", Json::Str(bisect_hint(name))),
                ]),
                None => Json::Null,
            },
        ),
    ]);
    report::save_json(
        "trace_diff_report.json",
        &Json::obj([
            ("schema", Json::str("mwc-trace-diff/v2")),
            ("regressions", Json::U64(regressions as u64)),
            ("config_errors", Json::U64(config_errors as u64)),
            (
                "diffs",
                Json::Arr(diffs.iter().map(RunDiff::to_json).collect()),
            ),
            (
                "peak_alloc",
                Json::Arr(
                    pairs
                        .iter()
                        .map(|(n, b, f)| peak_alloc_json(n, b, f))
                        .collect(),
                ),
            ),
            ("triage", triage_json),
        ]),
    );

    if config_errors > 0 {
        std::process::exit(2);
    }
    if regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak(bytes: u64) -> RunRecord {
        RunRecord {
            peak_alloc_bytes: bytes,
            ..RunRecord::default()
        }
    }

    #[test]
    fn peak_alloc_moves_beyond_ten_percent_are_notable() {
        let line = info_line(&peak(42_145_076), &peak(11_108_252));
        assert!(
            line.contains("42145076 -> 11108252 (-73.6 %, NOTABLE)"),
            "{line}"
        );
        let line = info_line(&peak(1000), &peak(1100));
        assert!(
            line.contains("(+10.0 %)") && !line.contains("NOTABLE"),
            "{line}"
        );
        let line = info_line(&peak(1000), &peak(1101));
        assert!(line.contains("(+10.1 %, NOTABLE)"), "{line}");
        let line = info_line(&peak(0), &peak(500));
        assert!(line.contains("peak_alloc 0 -> 500, jobs"), "{line}");

        let json = peak_alloc_json("r", &peak(1000), &peak(850));
        assert_eq!(json.get("notable"), Some(&Json::Bool(true)));
        let rel = json.get("change_rel").and_then(Json::as_f64).unwrap();
        assert!((rel + 0.15).abs() < 1e-12, "{rel}");
        let json = peak_alloc_json("r", &peak(0), &peak(850));
        assert_eq!(json.get("notable"), Some(&Json::Bool(false)));
        assert_eq!(json.get("change_rel"), Some(&Json::Null));
    }
}
