#!/usr/bin/env python3
"""Steadiness report and result comparison for servebench.

    # run one workload on seeds 1..10 and report its spread
    python3 servebench/steadiness.py run --workload search_real --seeds 10

    # median, quartiles and spread of every metric in saved results
    python3 servebench/steadiness.py report .bench_out

    # one row per workload: B's medians against A's, flagged by bound
    python3 servebench/steadiness.py compare parent_out .bench_out

Result files are the ones servebench/run.py saves under
.bench_out/<workload>/seed<N>-trace<T>.json. The spread of a metric is
(Q3 - Q1) / median over its runs, quartiles as statistics.quantiles(n=4)
gives them. An end-to-end metric is flagged OVER when its spread exceeds
its BENCHMARK.json bound, and "high" above a third of it.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def load(dirs):
    """{(workload, trace): {metric: [values...]}} over every result file."""
    runs = {}
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*", "seed*-trace[01].json"))):
            with open(path) as f:
                saved = json.load(f)
            stamp, result = saved["stamp"], saved["result"]
            key = (stamp["workload"], stamp["trace"])
            table = runs.setdefault(key, {})
            table.setdefault("_correct", []).append(result["correct"])
            for name, metric in result["metrics"].items():
                table.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def report(dirs):
    limits = bounds()
    worst = 0
    for (workload, trace), table in sorted(load(dirs).items()):
        correct = table.pop("_correct")
        print(f"\n{workload} (trace {trace}): {len(correct)} runs, "
              f"{sum(correct)} correct")
        print(f"  {'metric':32s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, values in table.items():
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag, bound = "", ""
            if name in limits:
                b = limits[name][0]
                bound = f"{b:.2f}"
                if s > b:
                    flag, worst = "OVER", 2
                elif s > b / 3:
                    flag, worst = "high", max(worst, 1)
            print(f"  {name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{s:7.3f} {bound:>6s} {flag}")
    return 1 if worst == 2 else 0


def compare(base_dir, new_dir):
    limits = bounds()
    base, new = load([base_dir]), load([new_dir])
    names = list(limits)
    print(f"{'workload':16s} " + " ".join(f"{n[:14]:>14s}" for n in names))
    regressed = False
    for key in sorted(set(base) & set(new)):
        if key[1] != 0:
            continue
        cells = []
        for name in names:
            a, b = base[key].get(name), new[key].get(name)
            if not a or not b:
                cells.append(f"{'-':>14s}")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            bound, better = limits[name]
            worse = change > bound if better == "lower" else -change > bound
            regressed |= worse
            cells.append(f"{change * 100:+12.1f}%{'!' if worse else ' '}")
        print(f"{key[0]:16s} " + " ".join(cells))
    print("(change of the median, new vs base; ! = worse by more than the bound)")
    return 1 if regressed else 0


def run(workload, seeds, first, trace, seconds):
    for seed in range(first, first + seeds):
        cmd = [sys.executable, os.path.join(ROOT, "servebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        print(f"seed {seed}: exit {out.returncode} {last[:120]}", flush=True)
    return report([os.path.join(ROOT, ".bench_out")])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p = sub.add_parser("report")
    p.add_argument("dirs", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        if args.seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        return run(args.workload, args.seeds, args.first_seed, args.trace,
                   args.seconds)
    if args.cmd == "report":
        return report(args.dirs)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
