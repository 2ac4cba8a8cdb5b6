#!/usr/bin/env python3
"""Interleaved A/B pairs of perfbench runs: a git rev against the working tree.

    python3 tools/ab_pairs.py --rev REV --workload NAME [--seed N] [--pairs 10]
        [--seconds 10] [--trace 0|1] [--claim METRIC] [--out bench/BENCH_x.json]
    python3 tools/ab_pairs.py --summarize bench/BENCH_x.json

Run it from the repository root.  REV is exported with `git archive` into
<workdir>/parent-<sha> and the perfbench program is built there and from the
working tree, each in its own Release build directory (perfbench/run.py's
CARGO_TARGET_DIR: <workdir>/parent-<sha>/build and <workdir>/change-build).
Each side first runs once with --tiny, which builds it and checks the tiny
goldens; that run is not counted.  Then N pairs run, alternating which side
goes first, each a full `perfbench/run.py` invocation.

Per metric it prints each side's median and quartiles, how many pairs the
change won (ties count for neither side) and a verdict:

  better      the change won at least 9/10 of the pairs and its median beats
              the parent's by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json (relative), or the parent won
              at least 9/10 of the pairs by more than the change's IQR;
  unresolved  the parent's own IQR is wider than the bound and the change did
              not beat every parent run;
  identical   every run of both sides read the same value (count metrics);
  no worse    anything else.

Traced runs (--trace 1) report the per-layer metrics as pairs too; they have
no bound, so only better / worse / identical / no worse apply.

With --out the pairs (every run, and the summary) are merged into that JSON
file under "<workload>_seed<seed>[_traced]", with the host.  --summarize
recomputes and prints the verdicts of every pair set already in a file.
The tool never edits perfbench/ or BENCHMARK.json.

Exit status: 0 when the pairs pass; 1 when a run reported incorrect outputs
or the cpu_s verdict is "worse" (the CI A/B gate); 2 on a usage, build or
run error.  Only cpu_s gates: it is the metric every perf claim here is
measured in, and the other time metrics are too noisy at 10 pairs to hold
their 25% bound (setup_s has read an IQR of 40% of its median).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9  # a gain needs at least this share of the pairs
GATE = "cpu_s"  # the metric whose "worse" verdict fails the pairs


def fail(msg):
    print(f"ab_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(xs):
    """(q1, median, q3), inclusive method; a single value is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better, bound):
    """The verdict on one metric from its paired runs.

    parent/change: values in pair order (parent[i] and change[i] are pair i);
    better: "lower" or "higher"; bound: relative worsening allowed, or None.
    Returns the summary dict that is printed and stored.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    n = len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    c_iqr = c_q3 - c_q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (p_med - c_med)  # > 0: the change's median is better
    need = math.ceil(WIN_SHARE * n)
    worsening = -gain / abs(p_med) if p_med != 0 else (0.0 if gain >= 0 else math.inf)
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)

    if len(set(parent) | set(change)) == 1:
        word = "identical"
    elif wins >= need and gain > p_iqr:
        word = "better"
    elif bound is not None and worsening > bound:
        word = "worse"
    elif losses >= need and -gain > c_iqr:
        word = "worse"
    elif bound is not None and p_med != 0 and p_iqr / abs(p_med) > bound \
            and not every_run_better:
        word = "unresolved"
    else:
        word = "no worse"
    return {
        "parent_median": round(p_med, 6),
        "parent_q1": round(p_q1, 6),
        "parent_q3": round(p_q3, 6),
        "parent_iqr": round(p_iqr, 6),
        "change_median": round(c_med, 6),
        "change_q1": round(c_q1, 6),
        "change_q3": round(c_q3, 6),
        "ratio": round(c_med / p_med, 6) if p_med != 0 else None,
        "change_" + better: f"{wins}/{n}",
        "verdict": word,
    }


def summarize(runs, specs):
    """Summaries for every metric in `specs` ({name: (better, bound)})."""
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["pair"], r["side"]): r for r in runs}
    out = {}
    for name, (better, bound) in specs.items():
        parent = [side[(p, "parent")][name] for p in pairs]
        change = [side[(p, "change")][name] for p in pairs]
        out[name] = verdict(parent, change, better, bound)
    return out


def gate_failures(summary, runs):
    """Why a pair set fails: runs with incorrect outputs, a worse GATE."""
    reasons = []
    incorrect = sum(1 for r in runs if not r["correct"])
    if incorrect:
        reasons.append(f"{incorrect} run(s) reported incorrect outputs")
    if GATE in summary and summary[GATE]["verdict"] == "worse":
        ratio = summary[GATE]["ratio"]
        reasons.append(f"{GATE} is worse: {ratio:.3f}x the parent's median")
    return reasons


def report(reasons):
    """Prints the reasons to stderr; the exit status they call for."""
    for reason in reasons:
        print(f"ab_pairs: FAIL {reason}", file=sys.stderr)
    return 1 if reasons else 0


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: (m["better"], m.get("bound")) for m in rows}


def fmt(v):
    """Whole numbers (counts) in full, anything else to six digits."""
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"


def print_summary(title, summary, claim=None):
    print(title)
    print(f"  {'metric':32s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'ratio':>7s} {'wins':>6s}  verdict")
    for name, s in summary.items():
        wins = next(v for k, v in s.items() if k in ("change_lower", "change_higher"))
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.4f}"
        parent = f"{fmt(s['parent_median'])} [{fmt(s['parent_q1'])}, {fmt(s['parent_q3'])}]"
        change = f"{fmt(s['change_median'])} [{fmt(s['change_q1'])}, {fmt(s['change_q3'])}]"
        mark = "  <- claim" if name == claim else ""
        print(f"  {name:32s} {parent:34s} {change:34s} {ratio:>7s} {wins:>6s}  "
              f"{s['verdict']}{mark}")


def git(*args):
    out = subprocess.run(["git", "-C", ROOT] + list(args), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def export_rev(rev, workdir):
    """Exports `rev` once into <workdir>/parent-<sha>/src; returns (src, build)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    base = os.path.join(workdir, "parent-" + sha[:12])
    src = os.path.join(base, "src")
    if not os.path.isfile(os.path.join(src, "perfbench", "run.py")):
        shutil.rmtree(src, ignore_errors=True)
        os.makedirs(src)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            fail(f"cannot export {rev} into {src}")
    return sha, src, os.path.join(base, "build")


def run_side(src, build, args, tiny=False):
    """One perfbench/run.py invocation; returns its result line as a dict."""
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", args.workload, "--trace", str(args.trace)]
    if tiny:  # the default seed, where the tiny goldens apply
        cmd += ["--seed", "1", "--seconds", "1", "--tiny"]
    else:
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} (in {src}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f
                          if l.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0))}


def measure(args):
    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(prefix="ab_pairs-"))
    sha, parent_src, parent_build = export_rev(args.rev, workdir)
    sides = {
        "parent": (parent_src, parent_build),
        "change": (ROOT, os.path.join(workdir, "change-build")),
    }
    specs = metric_specs(args.trace)
    for name, (src, build) in sides.items():
        print(f"building and checking {name} ({src})", file=sys.stderr)
        warm = run_side(src, build, args, tiny=True)
        if not warm["correct"]:
            fail(f"{name}: the --tiny run does not match its goldens")
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
        for name in order:
            result = run_side(*sides[name], args)
            row = {"pair": pair, "side": name,
                   "loadavg_1m_after": round(os.getloadavg()[0], 2),
                   "correct": result["correct"]}
            for metric in specs:
                row[metric] = round(result["metrics"][metric]["value"], 6)
            runs.append(row)
            print(f"pair {pair:2d} {name:6s} correct={result['correct']} " +
                  " ".join(f"{m}={row[m]}" for m in list(specs)[:4]), file=sys.stderr)
    summary = summarize(runs, specs)
    key = f"{args.workload}_seed{args.seed}" + ("_traced" if args.trace else "")
    print_summary(f"{key}: {args.pairs} pairs, parent {sha[:12]} vs working tree, "
                  f"--seconds {args.seconds}", summary, args.claim)
    if args.out:
        doc = {}
        if os.path.isfile(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc.setdefault("command",
                       "python3 tools/ab_pairs.py --rev REV --workload W --seed S "
                       "--pairs N --seconds T --trace 0|1: perfbench/run.py per run, "
                       "each side in its own checkout and Release build directory; "
                       "pairs alternate which side runs first")
        doc["host"] = dict(host(), note="loadavg_1m_after is read right after each "
                           "run and includes the benchmark's own threads")
        doc["build_type"] = "Release"
        doc.setdefault("pairs", {})[key] = {
            "parent_rev": sha, "pairs": args.pairs, "seconds": args.seconds,
            "claim": args.claim, "summary": summary, "runs": runs}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out} [{key}]")
    return report(gate_failures(summary, runs))


def summarize_file(path):
    with open(path) as f:
        doc = json.load(f)
    reasons = []
    for key, entry in doc.get("pairs", {}).items():
        specs = metric_specs(key.endswith("_traced"))
        present = {m: s for m, s in specs.items() if m in entry["runs"][0]}
        summary = summarize(entry["runs"], present)
        print_summary(f"{key}:", summary, entry.get("claim"))
        reasons += [f"{key}: {r}" for r in gate_failures(summary, entry["runs"])]
    return report(reasons)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", help="git rev of the parent side")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", help="the metric the change claims (marked in the table)")
    ap.add_argument("--out", help="JSON file to merge the pairs into")
    ap.add_argument("--workdir", help="where the parent export and both build "
                    "directories go (default: a new temporary directory)")
    ap.add_argument("--summarize", metavar="FILE",
                    help="print the verdicts of the pairs stored in FILE and exit")
    args = ap.parse_args()
    if args.summarize:
        return summarize_file(args.summarize)
    if not args.rev or not args.workload:
        ap.error("--rev and --workload are required (or --summarize FILE)")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
