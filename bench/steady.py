#!/usr/bin/env python3
"""Steadiness check: run workloads over many seeds and summarise each metric.

    python3 bench/steady.py --seeds 1-10 --seconds 35
    python3 bench/steady.py --workloads conj-pairs --seeds 1-5 --sets 2 --trace 1

For every workload and metric it prints the median and the quartiles over
the runs of a set, and the spread (q3 - q1) / median that BENCHMARK.json
bounds.  With ``--sets 2`` the seeds are run twice; it then prints how far the
second set's median moved from the first, whether the share of failed
operations is the same in every run, and (``--trace 1``) whether every count
repeated exactly for each seed.  Runs are made one after another, from the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("group-words", "conj-pairs", "limit-space")


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds")

    report = {}
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = {}
            for seed in args.seeds:
                r = run_once(workload, seed, args.seconds, args.trace)
                runs[seed] = r
                print(f"{workload} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} wall={r['wall_s']:.1f}s", flush=True)
            sets.append(runs)
        report[workload] = describe(workload, sets)
    out = HERE / "results" / f"steady-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out}")
    return 0


def describe(workload, sets) -> dict:
    first = sets[0]
    names = list(next(iter(first.values()))["metrics"])
    shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs.values()}
    out = {"failed_share_same": len(shares) == 1, "failed_shares": sorted(map(str, shares)),
           "correct": all(r["correct"] for runs in sets for r in runs.values()), "metrics": {}}
    print(f"\n{workload}: correct={out['correct']} failed share same in every run: "
          f"{out['failed_share_same']} {out['failed_shares']}")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in names:
        rows = []
        for runs in sets:
            s = summary([r["metrics"][name]["value"] for r in runs.values()])
            rows.append(s)
            unit = next(iter(runs.values()))["metrics"][name]["unit"]
            print(f"  {name:34s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.3f} {unit}")
        entry = {"sets": rows}
        if len(sets) > 1:
            entry["second_vs_first"] = (rows[1]["median"] / rows[0]["median"] - 1
                                        if rows[0]["median"] else float("nan"))
            if next(iter(first.values()))["metrics"][name]["unit"] == "count/round":
                entry["counts_repeat"] = all(
                    runs[seed]["metrics"][name]["value"] == first[seed]["metrics"][name]["value"]
                    for runs in sets[1:] for seed in first)
            print(f"  {'':34s} second set vs first: {entry['second_vs_first']:+.3f}"
                  + (f" counts repeat: {entry['counts_repeat']}" if "counts_repeat" in entry else ""))
        out["metrics"][name] = entry
    return out


if __name__ == "__main__":
    sys.exit(main())
