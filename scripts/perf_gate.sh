#!/usr/bin/env bash
# Perf gate: regenerate every bench bin's RunRecord at pinned gate sizes
# and diff them against the committed baselines in results/baselines/.
#
# Usage:
#   scripts/perf_gate.sh              # run bins + trace_diff (exit 1 on
#                                     # regression, 2 on unpaired records)
#   scripts/perf_gate.sh refresh      # run bins, diff against the OLD
#                                     # baselines (tolerated — the diff and
#                                     # trajectory document the change), then
#                                     # overwrite the baselines (the
#                                     # one-command path for intentional perf
#                                     # changes — commit the result)
#   scripts/perf_gate.sh --bin NAME   # run and gate ONE bin (trace_diff is
#                                     # restricted to that record with
#                                     # --only, so other baselines are not
#                                     # reported unpaired) — the fast inner
#                                     # loop when triage names an offender
#
# refresh and --bin compose: `scripts/perf_gate.sh refresh --bin NAME`
# refreshes only that bin's baseline.
#
# The bins run in a scratch directory (target/perf_gate) so the committed
# full-size artifacts under results/ are never clobbered by the smaller
# gate-size runs; only results/baselines/ and the
# results/BENCH_trajectory.json append-log live in the repo.
#
# Every gated run also exports results/trace.perfetto.json (the
# trace_report fixture's Chrome Trace Event Format profile — load it in
# ui.perfetto.dev) and results/triage.json (the ranked span triage from
# trace_diff); both are validated/structured artifacts, uploaded by CI.
#
# The sizes below are the gate contract: records are only comparable when
# name AND parameters match, so changing a size here requires a baseline
# refresh in the same commit.
set -euo pipefail
REPO="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$REPO/target/perf_gate"

REFRESH=0
ONLY=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    refresh) REFRESH=1 ;;
    --bin)
      if [ "$#" -lt 2 ]; then
        echo "perf_gate: --bin needs a name" >&2
        exit 2
      fi
      ONLY="$2"
      shift
      ;;
    --bin=*) ONLY="${1#--bin=}" ;;
    *) echo "perf_gate: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

# --bin accepts either the bin name or the record name; they differ only
# for phase_breakdown, whose record is phase_breakdown_<algo>.
ONLY_RECORD="$ONLY"
case "$ONLY" in
  phase_breakdown) ONLY_RECORD=phase_breakdown_directed ;;
  phase_breakdown_*) ONLY=phase_breakdown ;;
esac

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

# Ask every bin for the Chrome trace export of its run (written to
# results/trace.perfetto.json in the scratch dir; last bin wins, and
# trace_report always writes its own regardless).
export MWC_TRACE_EXPORT=1

run() {
  cargo run --manifest-path "$REPO/Cargo.toml" --release --offline \
    -p mwc-bench --bin "$@" > /dev/null
}

# Runs a gated workload bin unless --bin=NAME filtered it out. The filter
# matches the bin name, so `--bin=phase_breakdown` selects the
# phase_breakdown_directed record.
gate() {
  if [ -n "$ONLY" ] && [ "$1" != "$ONLY" ]; then
    return 0
  fi
  RAN_ANY=1
  run "$@"
}

RAN_ANY=0
gate table1_girth 1024
gate table1_directed 256
gate table1_undirected_weighted 128
gate table1_lower_bounds 12
gate thm16_ksssp 256
gate approx_quality 64 3
gate ablation 128
gate detection_rounds 12
gate traffic_profile 12
gate phase_breakdown directed 256
gate trace_report 96

if [ "$RAN_ANY" = 0 ]; then
  echo "perf_gate: --bin=$ONLY matches no gated bin" >&2
  exit 2
fi

# Diff fresh records against the committed baselines FIRST, so a refresh
# still reports what moved against the old baselines. Reports land in
# $WORK/results/ (trace_diff_report.{txt,json}, triage.json).
DIFF_STATUS=0
cargo run --manifest-path "$REPO/Cargo.toml" --release --offline \
  -p mwc-bench --bin trace_diff -- ${ONLY:+--only="$ONLY_RECORD"} \
  results/run_records "$REPO/results/baselines" \
  || DIFF_STATUS=$?

# Aggregate the gated run's observability artifacts: the per-bin
# shard-imbalance/cache-hit/profile report, the Chrome trace export
# (validated by the in-tree structural checker), and one appended entry
# per bin in the committed perf-trajectory log.
run mwc_metrics report results/run_records
run mwc_metrics check-trace results/trace.perfetto.json
cargo run --manifest-path "$REPO/Cargo.toml" --release --offline \
  -p mwc-bench --bin mwc_metrics append-trajectory results/run_records \
  "$REPO/results/BENCH_trajectory.json" > /dev/null

if [ "$REFRESH" = 1 ]; then
  # Refreshing: regressions against the old baselines are being accepted
  # deliberately; only configuration errors (exit 2) still abort.
  if [ "$DIFF_STATUS" -ge 2 ]; then
    echo "perf_gate: trace_diff configuration error ($DIFF_STATUS)" >&2
    exit "$DIFF_STATUS"
  fi

  # The weighted benches must show the phase cache working: a refreshed
  # baseline with rounds_saved == 0 everywhere means the cache silently
  # stopped firing, and committing it would let the gate rot. In --bin
  # mode only the bins that actually ran are checked.
  for rec in table1_undirected_weighted table1_girth phase_breakdown_directed; do
    if [ ! -f "results/run_records/$rec.json" ]; then
      continue
    fi
    if ! grep -q '"rounds_saved": *[1-9]' "results/run_records/$rec.json"; then
      echo "perf_gate: refreshed $rec.json has no nonzero rounds_saved —" \
           "the phase cache is not firing; refusing to refresh" >&2
      exit 1
    fi
  done

  # The trajectory is NOT copied: it is an append-log that
  # `mwc_metrics append-trajectory` already extended above.
  mkdir -p "$REPO/results/baselines"
  cp results/run_records/*.json "$REPO/results/baselines/"
  echo "baselines refreshed from $WORK/results/run_records/"
else
  exit "$DIFF_STATUS"
fi
