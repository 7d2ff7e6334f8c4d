"""Smoke test of the benchmark: every workload, tiny sizes, both modes.

    python3 perfbench/smoke.py

Run from the checkout root.  For each workload in ``BENCHMARK.json``
this runs ``perfbench/run.py --tiny`` untraced and traced, and checks
that the last line is the result object, that the outputs were correct,
and that every metric ``BENCHMARK.json`` names for that mode is printed
with its unit.  Exits 0 when everything holds; takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

KEYS = {"correct", "attempted", "failed", "metrics"}


def check(spec, workload, trace):
    """Problems with one tiny run (empty when it is fine)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", str(trace),
               "--tiny"]
    process = subprocess.run(command, capture_output=True, text=True,
                             timeout=300)
    label = f"{workload} --trace {trace}"
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return [f"{label}: exit {process.returncode}\n{process.stdout}"
                f"{process.stderr}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] or \
                not isinstance(got.get("value"), float):
            problems.append(f"{label}: {metric['name']} printed as {got}")
    if trace and not any(line.startswith("# ledger over") for line in lines):
        problems.append(f"{label}: no layer table")
    return problems


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
