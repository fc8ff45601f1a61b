"""Smoke-length self-test of the benchmark.

Runs every workload (or those named) once with ``--trace 0`` and once
with ``--trace 1`` at ``--seconds 1`` and asserts that each run passes
its checks and that every metric ``BENCHMARK.json`` names is printed,
both in the final JSON object (with its unit) and in the human-readable
table above it.  From the repository root::

    python3 perfbench/selftest.py [fig05-train ...]

Takes about four minutes for all four workloads on a 2-core host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check_run(workload: str, trace: int, expected: list[dict]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    table = lines[:-1]
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if not (isinstance(got, dict) and set(got) == {"value", "unit"}
                and got["unit"] == unit
                and isinstance(got["value"], (int, float))):
            problems.append(f"{where}: metric {name} printed as {got!r}")
        if not any(line.split()[:1] == [name] and unit in line.split()
                   for line in table):
            problems.append(f"{where}: no table line for {name} [{unit}]")
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{where}: unexpected metrics "
                        f"{sorted(set(result['metrics']) - {m['name'] for m in expected})}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = argv or [w["name"] for w in bench["workloads"]]
    problems = []
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = check_run(workload, trace, bench[key])
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
