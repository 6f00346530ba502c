#!/usr/bin/env python3
"""Build and run the certified-MWC benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the benchmark package (release, offline) into CARGO_TARGET_DIR, or
perfbench/target when that is unset, then runs one workload. With
--trace 0 it runs the untraced binary and prints the end-to-end metrics;
with --trace 1 it runs the traced binary for the per-layer metrics and
then the untraced binary on the same seed, to report the tracing
overhead. The last line of standard output is the result JSON.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build():
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
    )
    if built.returncode != 0:
        sys.exit(f"building the benchmark failed with {built.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR")
    return (Path(target) if target else HERE / "target") / "release"


def revision():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in (ROOT / "crates", HERE):
        for path in sorted(top.rglob("*")):
            if path.suffix in (".rs", ".toml") and "target" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "nogit"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"{commit}+src.{digest.hexdigest()[:12]}"


def run(binary, args, rev):
    out = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--rev", rev],
        stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{binary.name} exited with {out.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    release = build()
    rev = revision()
    if not args.trace:
        result = run(release / "perfbench", args, rev)
    else:
        result = run(release / "perfbench-traced", args, rev)
        untraced = run(release / "perfbench", args, rev)
        traced_p50 = result["metrics"]["core.solve_ms"]["value"]
        untraced_p50 = untraced["metrics"]["solve_ms_p50"]["value"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced_p50 / untraced_p50 - 1.0), "unit": "%"}
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
