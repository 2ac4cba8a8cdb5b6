#!/usr/bin/env python3
"""Fail if engine microbenchmark throughput regressed vs a baseline run.

Usage:
    check_bench_regression.py BASELINE.json CANDIDATE.json
        [--prefix BM_EngineScheduleRun] [--max-regress 0.20]
        [--candidate-prefix BM_...]

Both files are google-benchmark --benchmark_out JSON.  For every benchmark in
the baseline whose name starts with --prefix, the candidate must reach at
least (1 - max_regress) x the baseline's items_per_second.  CI's A/B gate
passes the base commit's run, made on the same runner, as the baseline.  Benchmarks
missing from the candidate fail loudly: a silently dropped benchmark would
otherwise read as "no regression".

--candidate-prefix compares *differently named* benchmarks from the same
run: the candidate counterpart of baseline "PREFIX<suffix>" is looked up as
"CANDIDATE_PREFIX<suffix>".  This is how CI gates the profiler's overhead
(BM_WorkloadRun_ProfilerOn vs BM_WorkloadRun_ProfilerOff, both from one
bench_micro_profiler run passed as baseline and candidate).

Both files must come from optimized (Release-family) builds: comparing a
debug binary's throughput against a release baseline — or blessing a debug
baseline — makes the gate meaningless, so a non-release context fails fast
with exit 2.  The bench binaries stamp their own compile mode into
context.build_type; for files that predate that field, the library's
library_build_type is consulted instead.

Exit codes: 0 ok, 1 regression or missing benchmark, 2 bad input
(including a debug/unknown build type in either file).
"""

import argparse
import json
import sys

# CMake build types with optimization enabled.  Anything else (Debug, an
# empty CMAKE_BUILD_TYPE, "unknown") measures unoptimized code.
OPTIMIZED_BUILD_TYPES = {"release", "relwithdebinfo", "minsizerel"}


def require_release_build(path, doc):
    ctx = doc.get("context", {})
    source = "build_type"
    build = ctx.get("build_type")
    if build is None:
        source = "library_build_type"
        build = ctx.get("library_build_type")
    if build is None:
        print(
            f"error: {path}: context records no build_type; regenerate it "
            f"from a -DCMAKE_BUILD_TYPE=Release build (the bench binaries "
            f"stamp context.build_type)",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(build).lower() not in OPTIMIZED_BUILD_TYPES:
        print(
            f"error: {path}: context.{source} is {build!r}, not an optimized "
            f"(Release-family) build — throughput from unoptimized binaries "
            f"cannot gate anything; rebuild with -DCMAKE_BUILD_TYPE=Release "
            f"and regenerate",
            file=sys.stderr,
        )
        sys.exit(2)


def load_items_per_second(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    require_release_build(path, doc)
    out = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) so --benchmark_repetitions
        # output compares repetition medians only once, via run_name.
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        name = b.get("run_name", b.get("name"))
        if "items_per_second" in b:
            out[name] = float(b["items_per_second"])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--prefix", default="BM_EngineScheduleRun")
    ap.add_argument("--max-regress", type=float, default=0.20)
    ap.add_argument("--candidate-prefix", default=None,
                    help="look up the candidate as this prefix + the "
                         "baseline name's suffix (default: same name)")
    args = ap.parse_args()

    base = load_items_per_second(args.baseline)
    cand = load_items_per_second(args.candidate)

    checked = 0
    failed = False
    for name, base_ips in sorted(base.items()):
        if not name.startswith(args.prefix):
            continue
        checked += 1
        cand_name = name
        if args.candidate_prefix is not None:
            cand_name = args.candidate_prefix + name[len(args.prefix):]
        if cand_name not in cand:
            print(f"FAIL {cand_name}: missing from candidate run")
            failed = True
            continue
        floor = base_ips * (1.0 - args.max_regress)
        ratio = cand[cand_name] / base_ips
        status = "FAIL" if cand[cand_name] < floor else "ok"
        label = name if cand_name == name else f"{cand_name} vs {name}"
        print(
            f"{status:4} {label}: {cand[cand_name] / 1e6:.2f}M/s vs baseline "
            f"{base_ips / 1e6:.2f}M/s ({ratio:.2f}x, floor {floor / 1e6:.2f}M/s)"
        )
        if cand[cand_name] < floor:
            failed = True

    if checked == 0:
        print(f"error: no baseline benchmarks match prefix {args.prefix!r}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
