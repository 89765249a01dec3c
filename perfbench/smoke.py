#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its smallest size (`--smoke`:
the test-scale model and a few requests), untraced and traced, and
checks that:

- both runs pass their own output checks and report no failed request;
- every end-to-end metric (untraced) and every per-layer metric (traced)
  of BENCHMARK.json is in the result with its unit, and printed as a
  `metric` line;
- the quality rates are printed (`located_rate` only where requests
  refine), and `error_rate` is 0;
- traced and untraced evidence digests are identical;
- `trace.unattributed_s` stays under 5% of the traced wall time;
- a verdict-only workload does no refinement work.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    assert out.returncode == 0, f"{workload} trace={trace}: exit {out.returncode}\n{out.stdout}"
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"metric (\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    digests = dict(re.findall(r"(fnv1a|traced)=([0-9a-f]{16})", out.stdout))
    return result, printed, digests


def check_metrics(where, result, printed, wanted):
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted), f"{where}: {sorted(metrics)}"
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert printed[m["name"]] == (got["value"], m["unit"]), f"{where}: {m['name']}"
    return metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        result, quality, untraced = run(name, 0)
        check_metrics(f"{name} untraced", result, quality, spec["end_to_end"])
        assert quality["error_rate"] == (0.0, "fraction"), name
        for rate in ("flagged_rate", "clean_pass_rate"):
            assert quality[rate][1] == "fraction", (name, rate)
        result, printed, traced = run(name, 1)
        layers = check_metrics(f"{name} traced", result, printed, spec["per_layer"])
        assert untraced["fnv1a"] == traced["fnv1a"] == traced["traced"], (name, untraced, traced)
        wall = layers["trace.wall_s"]["value"]
        unattributed = layers["trace.unattributed_s"]["value"]
        assert 0 <= unattributed < 0.05 * wall, f"{name}: {unattributed} s of {wall} s unattributed"
        refines = layers["slice.nodes"]["value"] > 0
        assert ("located_rate" in quality) == refines, name
        if not refines:
            assert layers["refine.busy_s"]["value"] == 0 and layers["oracle.queries"]["value"] == 0
        print(f"ok {name}: digest {traced['fnv1a']}, {unattributed:.4f} s of {wall:.3f} s unattributed")
    print("smoke ok")


if __name__ == "__main__":
    main()
