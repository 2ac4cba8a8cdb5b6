#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json in both modes through run.py --tiny
(default seed, so the tiny golden outputs apply) and checks that each
result line has exactly the contract's keys, every named metric with its
unit, no failed run and no golden mismatch.  Exits non-zero on any problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"run.py exited with {proc.returncode}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if result.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']}: {got}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bad = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check(bench, w["name"], trace)
            print(f"{w['name']:16s} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            bad += bool(problems)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
