#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, two modes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the simulator libraries and the
perfbench program from source (Release, under $CARGO_TARGET_DIR or
.bench_build), records the host, runs one invocation, checks the simulated
outputs and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer ones; a traced run also writes its spans, with the host, to
<build dir>/trace/<workload>-seed<N>.json.  failed / attempted is the
failed ratio: failed or thrown runs plus reps whose outputs mismatch.

Outputs are checked three ways: at the default seed each rep must equal the
golden outputs in perfbench/ledger.json; at any seed the reps of one
invocation must agree; npb_suite also re-runs a seed-sampled subset of
cells on one thread and compares their rows with the 4-thread campaign.
ledger.json also holds the site -> layer map behind sim.site.* and the
predictions of which per-layer metric moves which end-to-end metric.

perfbench/selfcheck.py runs every workload in both modes at tiny sizes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # one invocation must end within 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found beside perfbench/")
    bdir = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        build_type = next((l.split("=", 1)[1].strip() for l in f
                           if l.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail(f"build type is {build_type!r}; timings need a Release build")
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check sizes (checked against the tiny goldens)")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ledger = load_json(os.path.join(HERE, "ledger.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    machine = host()  # before the build, so the load average is the host's own
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    spans = None
    if args.trace:
        spans = os.path.join(build_dir(), "trace",
                             f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}", 3)
    raw = json.loads(lines[-1])
    if raw["build_type"] != "Release":
        fail(f"perfbench reports a {raw['build_type']!r} build")

    # Golden outputs at the default seed; rep agreement at every seed.
    outputs = raw["outputs"]
    golden = None
    if args.seed == ledger["default_seed"]:
        golden = ledger["golden"]["tiny" if args.tiny else "full"].get(args.workload)
    reference = golden if golden is not None else outputs[0]
    mismatched = sum(1 for o in outputs if o != reference)
    failed = raw["failed"] + mismatched * raw["runs_per_output"]
    attempted = raw["attempted"]

    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = raw["metrics"]
    if set(metrics) != set(want):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(metrics))}, extra "
             f"{sorted(set(metrics) - set(want))}", 3)
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']!r}, BENCHMARK.json says {unit!r}", 3)

    if spans is not None:
        doc = load_json(spans)
        doc["host"] = machine
        doc["build_type"] = raw["build_type"]
        with open(spans, "w") as f:
            json.dump(doc, f, indent=1)

    print(f"host: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"loadavg_1m_at_start={machine['loadavg_1m_at_start']:.2f} "
          f"build={raw['build_type']}")
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(outputs)}")
    for name in want:
        print(f"  {name:36s} {metrics[name]['value']:18.6f} {metrics[name]['unit']}")
    print(f"  {'failed_ratio':36s} {failed / max(1, attempted):18.6f} ratio "
          f"({failed}/{attempted})")
    check = "golden" if golden is not None else "rep agreement"
    status = "ok" if mismatched == 0 else f"MISMATCH in {mismatched} rep(s)"
    print(f"outputs ({check}): {status}; first rep: {outputs[0]}")
    if raw["subset_equal"] is not None:
        print(f"one-thread subset rows equal: {raw['subset_equal']}")
    if spans is not None:
        print(f"spans: {os.path.relpath(spans, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: metrics[k] for k in want}}))


if __name__ == "__main__":
    main()
