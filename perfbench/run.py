#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The benchmark is the Rust package in this
directory (its own workspace, depending on the repository crates by
path); it is built in release mode into $CARGO_TARGET_DIR, or
`.bench_build` at the repository root when that is unset. Build output
goes to standard error. The benchmark's standard output is passed
through: `metric <name> = <value> <unit>` lines, the evidence digest,
and as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

Workloads: investigate-paper, campaign-test, screen-paper (see
BENCHMARK.json and src/workload.rs for why each exists).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main(argv):
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the repository crates are missing, nothing to benchmark", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([str(target / "release" / "rca-perfbench"), *argv],
                         cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        # Never leave something that reads like a result behind.
        sys.stderr.write(run.stdout)
        print(f"perfbench: no result (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
