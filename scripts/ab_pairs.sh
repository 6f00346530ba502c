#!/usr/bin/env bash
# Paired A/B timing of two perfbench binaries on one workload.
#
# Usage:
#   scripts/ab_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS
#
# Runs PAIRS pairs. Pair i runs both binaries on seed i for SECONDS each;
# the side that runs first alternates from pair to pair, so a slow stretch
# of a shared host does not always land on the same side. For every pair
# it prints each side's solve_ms_p50, solve_ms_p90 and peak_rss_mb, then
# the median change/parent ratio of solve_ms_p50 and how many pairs the
# change improved (a tie counts for neither side).
#
# It reads only the last line of each binary's standard output (the result
# JSON), writes no file, and leaves the benchmark's directory alone. Build
# each side first, each checkout with its own CARGO_TARGET_DIR:
#
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path <parent checkout>/perfbench/Cargo.toml
#   CARGO_TARGET_DIR=/tmp/change cargo build --release --offline \
#       --manifest-path perfbench/Cargo.toml
#   scripts/ab_pairs.sh /tmp/parent/release/perfbench \
#       /tmp/change/release/perfbench detect-engine 5 25
set -euo pipefail

if [ "$#" -ne 5 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS" >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"
WORKLOAD="$3"
PAIRS="$4"
SECONDS_PER_RUN="$5"
for bin in "$PARENT" "$CHANGE"; do
  if [ ! -x "$bin" ]; then
    echo "ab_pairs: '$bin' is not an executable" >&2
    exit 2
  fi
done
case "$PAIRS$SECONDS_PER_RUN" in
  *[!0-9]* | "") echo "ab_pairs: PAIRS and SECONDS must be whole numbers" >&2; exit 2 ;;
esac
if [ "$PAIRS" -lt 1 ] || [ "$SECONDS_PER_RUN" -lt 1 ]; then
  echo "ab_pairs: PAIRS and SECONDS must be at least 1" >&2
  exit 2
fi

# Prints "p50 p90 rss" from one run's result JSON.
run_one() {
  local bin="$1" seed="$2" last
  last="$("$bin" --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_PER_RUN" \
    --rev ab_pairs | tail -n 1)"
  python3 -c '
import json, sys
m = json.loads(sys.argv[1])["metrics"]
print(" ".join(str(m[k]["value"]) for k in ("solve_ms_p50", "solve_ms_p90", "peak_rss_mb")))
' "$last"
}

printf '%-5s %-6s %12s %12s %12s\n' pair side solve_ms_p50 solve_ms_p90 peak_rss_mb
RATIOS=""
for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2)); then
    p="$(run_one "$PARENT" "$i")"
    c="$(run_one "$CHANGE" "$i")"
  else
    c="$(run_one "$CHANGE" "$i")"
    p="$(run_one "$PARENT" "$i")"
  fi
  read -r p50 p90 rss <<<"$p"
  printf '%-5s %-6s %12s %12s %12s\n' "$i" parent "$p50" "$p90" "$rss"
  read -r c50 c90 crss <<<"$c"
  printf '%-5s %-6s %12s %12s %12s\n' "$i" change "$c50" "$c90" "$crss"
  RATIOS="$RATIOS $c50/$p50"
done

python3 -c '
import statistics, sys
pairs = [tuple(map(float, r.split("/"))) for r in sys.argv[1:]]
ratios = [c / p for c, p in pairs]
improved = sum(c < p for c, p in pairs)
print(f"median change/parent solve_ms_p50: {statistics.median(ratios):.4f}")
print(f"pairs improved: {improved} of {len(pairs)}")
' $RATIOS
