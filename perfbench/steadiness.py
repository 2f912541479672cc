#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--out results.jsonl]

Runs every workload in two sets of --runs runs (each run with its own seed;
runs interleave across workloads so host noise spreads evenly) and
prints, per set, the median and the interquartile range of every end-to-end
metric, the IQR given as a share of the median, with quartiles as Python's
statistics.quantiles(values, n=4) computes them. Bounds come from
BENCHMARK.json at the repository root. It flags

  SPREAD  a set whose IQR share exceeds the metric's bound;
  DRIFT   a second set whose median is worse than the first set's by more
          than the bound;

and marks with '~' a spread above a third of the bound, the margin the
benchmark aims for. Exits 1 when anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEED_BASE = 100


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: no result (exit {out.returncode})")
    stamps = [json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp ")]
    return result, stamps[-1] if stamps else None


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="append every run's result as one JSON line")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list of run values
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    bad = False
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                seed = SEED_BASE + 1000 * s + i
                result, stamp = run_once(w, seed, args.seconds)
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAILED RUN {w} seed {seed}: failed={result['failed']}")
                    bad = True
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"set": s, "workload": w, "seed": seed,
                                            "stamp": stamp, "result": result}) + "\n")
                print(f"set {s} run {i} {w} seed {seed} done", file=sys.stderr, flush=True)

    for w in workloads:
        print(f"\n== {w}")
        header = "".join(f"  set{s} median   iqr/med" for s in range(SETS))
        print(f"{'metric':24s} {'bound':>6s}{header}  flags")
        for name, m in metrics.items():
            row = f"{name:24s} {m['bound']:6.3f}"
            flags = []
            first = None
            for s in range(SETS):
                vals = values[s][w].get(name)
                if not vals:
                    row += f"  {'missing':>20s}"
                    flags.append("MISSING")
                    continue
                med, share = spread(vals)
                mark = "~" if share > m["bound"] / 3 else " "
                row += f"  {med:12.4f} {share:8.4f}{mark}"
                if share > m["bound"]:
                    flags.append(f"SPREAD(set{s})")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > m["bound"]:
                        flags.append(f"DRIFT(set{s} {worse:+.3f})")
            bad = bad or bool(flags)
            print(row + "  " + " ".join(flags))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
