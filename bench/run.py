#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload group-words --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` there
and nowhere else.  The process re-executes itself once with PYTHONHASHSEED
pinned, so a seed repeats the same work.  After set-up (repeated, median
reported as ``setup_s``) whole rounds of operations are timed, ending with the
round that ends nearest to ``--seconds``; the first output of every operation
is checked against its reference, untimed.  An operation that raises counts
as failed; unless it is the pinned fault, the run is not correct.  Times are
reported at a nominal host speed (``hostspeed``); the raw ones go to the
results file and to the human-readable lines.
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard output is
a JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import spans as sp
from hostspeed import HostSpeed
from workloads import WORKLOADS, Mismatch

HASH_SEED = "0"
# set-up repeats at least SETUP_MIN times and until SETUP_SPAN_S have passed
SETUP_MIN, SETUP_SPAN_S, SETUP_MAX = 3, 2.0, 20
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
LIBRARY = ("graphs", "replacement", "rearrangement", "strand", "conjugacy", "gluing",
           "catalog", "analysis")

# Each class reports the geometric mean of its operations' median latencies,
# so every operation moves the figure by its own share.  No tail percentile:
# the 90th percentile of small operations moved from 25 to 47 ms between
# seeds on conj-pairs, where it falls inside the spread of the airplane
# pairs' costs (see README).
END_TO_END = (("small_op_ms", "ms"), ("large_op_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def pin_hash_seed():
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def load_library() -> SimpleNamespace:
    """Import the library afresh from ``src/`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "rewrite_groups" or n.startswith("rewrite_groups.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"rewrite_groups.{m}") for m in LIBRARY})
    origin = Path(lib.graphs.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"rewrite_groups was imported from {origin}, not from {SRC}")
    return lib


def set_up(workload: str, seed: int, speed: HostSpeed):
    """Imports, catalog systems, inputs and per-system caches, repeated (see SETUP_MIN).

    Returns the median set-up time, raw and at the nominal host speed; the
    reference loop runs three times before and after every set-up.
    """
    times = []
    for _ in range(3):
        speed.sample(force=True)
    while len(times) < SETUP_MIN or (sum(t for t, _ in times) < SETUP_SPAN_S
                                     and len(times) < SETUP_MAX):
        gc.collect()
        t0 = time.perf_counter()
        lib = load_library()
        wl = WORKLOADS[workload](lib, seed)
        times.append((time.perf_counter() - t0, t0))
        for _ in range(3):
            speed.sample(force=True)
    raw = statistics.median(t for t, _ in times)
    scaled = statistics.median(speed.scaled(t0, t) for t, t0 in times)
    return lib, wl, raw, scaled


class Runner:
    """Runs the operations of a workload and keeps what the metrics need."""

    UNSEEN = object()           # not run yet: the next output is checked in full
    FAILS = object()            # raised the pinned fault when first run

    def __init__(self, wl, speed: HostSpeed):
        self.wl = wl
        self.speed = speed
        self.ops = [(op, self.UNSEEN) for op in wl.ops]   # (op, expected fingerprint)
        self.mismatches = []
        self.unexpected = []
        self.attempted = Counter()
        self.failed = Counter()
        self.samples = defaultdict(list)    # op index -> (start, latency in s)

    def run_round(self, tracer=None):
        """One pass over the operations; returns (start, duration) of every library call.

        The first time an operation runs, its output is checked in full
        against its reference (untimed); later outputs are compared with
        that one's fingerprint and checked in full again if they differ.
        """
        calls = []
        for i, (op, expected) in enumerate(self.ops):
            args = op.make()
            gc.collect()
            self.speed.sample()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call(*args)
                else:
                    with tracer.op(op.cls):
                        out = op.call(*args)
            except Exception as e:
                calls.append((t0, time.perf_counter() - t0))
                self.attempted[op.cls] += 1
                self.failed[op.cls] += 1
                if expected is self.UNSEEN and type(e).__name__ == op.pinned_fault:
                    self.ops[i] = (op, self.FAILS)
                elif expected is not self.FAILS or type(e).__name__ != op.pinned_fault:
                    self.unexpected.append(f"{op.label}: {type(e).__name__}: {e}")
                continue
            dt = time.perf_counter() - t0
            calls.append((t0, dt))
            self.attempted[op.cls] += 1
            if tracer is None:
                self.samples[i].append((t0, dt))
            fingerprint = op.fingerprint(out)
            if expected is self.UNSEEN:
                self.ops[i] = (op, fingerprint)
            if expected is self.UNSEEN or expected is self.FAILS or fingerprint != expected:
                try:
                    op.check(out)
                except Mismatch as e:
                    self.mismatches.append(f"{op.label}: {e}")
        return calls

    def op_medians(self, cls=None, label=None, scaled=True) -> list:
        """Median latency (s) of each operation of a class or label that did not fail,
        at the nominal host speed unless ``scaled`` is false."""
        def latency(t0, dt):
            return self.speed.scaled(t0, dt) if scaled else dt
        return [statistics.median(latency(*x) for x in self.samples[i])
                for i, (op, _) in enumerate(self.ops)
                if self.samples[i] and cls in (None, op.cls) and label in (None, op.label)]


def end_to_end(runner, setup_s, scaled=True) -> dict:
    values = {
        "small_op_ms": statistics.geometric_mean(runner.op_medians("small", scaled=scaled)) * 1e3,
        "large_op_ms": statistics.geometric_mean(runner.op_medians("large", scaled=scaled)) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, rounds: int, traced_s: float, untraced_s: float) -> dict:
    self_s = sp.self_times(tracer.spans)
    counts = sp.layer_counts(tracer.spans)
    metrics = {}
    for layer in sp.LAYER_CALLS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / rounds, "s/round")
        for name in counts:
            if not name.startswith(layer + "."):
                continue
            metrics[name] = (counts[name] / rounds, "count/round")
            if name == "conjugacy.moves_used":
                built = counts["conjugacy.moves_built"]
                metrics["conjugacy.move_use_ratio"] = (counts[name] / built if built else 0.0,
                                                       "ratio")
    metrics["outside.self_s"] = (self_s.get(sp.OUTSIDE, 0.0) / rounds, "s/round")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def class_breakdown(tracer, rounds: int) -> dict:
    """Per operation class and round: layer self times, op time and what is left over."""
    out = {}
    for (op, layer), t in sp.self_times(tracer.spans, by_op=True).items():
        out.setdefault(op, {"op_s": 0.0, "layers_s": {}})["layers_s"][layer] = t / rounds
    for s in tracer.spans:
        if s[4] < 0:
            out[s[0]]["op_s"] += (s[3] - s[2]) / rounds
    for b in out.values():
        b["residual_s"] = b["op_s"] - sum(b["layers_s"].values())
    return out


def traced_round(runner, tracer) -> list:
    tracer.install()
    try:
        return runner.run_round(tracer)
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rewrite_groups" / "__init__.py").is_file():
        print(f"error: no library at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path.insert(0, str(SRC))

    speed = HostSpeed()
    lib, wl, raw_setup_s, setup_s = set_up(args.workload, args.seed, speed)
    runner = Runner(wl, speed)
    tracer = None
    traced, untraced = [], []
    rounds = 0
    if args.trace:
        runner.run_round()      # checks every output; not counted in the overhead
    t_start = time.perf_counter()
    while True:
        if args.trace:
            tracer = tracer or sp.Tracer()
            # alternate which of the pair goes first, so drift and warm-up
            # do not count as tracing overhead
            if rounds % 2:
                traced += traced_round(runner, tracer)
            untraced += runner.run_round()
            if not rounds % 2:
                traced += traced_round(runner, tracer)
        else:
            runner.run_round()
        rounds += 1
        # stop at the end of the round that ends nearest to --seconds
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break
    measured_s = time.perf_counter() - t_start

    report = {
        "workload": args.workload, "seed": args.seed, "hash_seed": HASH_SEED,
        "rounds": rounds, "measured_s": measured_s, "ops_per_round": len(runner.ops),
        "mismatches": runner.mismatches,
        "unexpected_failures": runner.unexpected, "notes": wl.notes,
        "attempted": dict(runner.attempted), "failed": dict(runner.failed),
        "host_speed": speed.summary(),
    }
    if args.trace:
        # both at the nominal host speed, so drift does not read as overhead
        metrics = per_layer(tracer, rounds, sum(speed.scaled(*c) for c in traced),
                            sum(speed.scaled(*c) for c in untraced))
        report["classes"] = class_breakdown(tracer, rounds)
        report["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end(runner, setup_s)
        report["raw_metrics"] = end_to_end(runner, raw_setup_s, scaled=False)
        labels = sorted({(op.cls, op.label) for op, _ in runner.ops})
        report["labels"] = {}
        for cls, label in labels:
            medians = runner.op_medians(cls, label)
            if medians:
                report["labels"][f"{cls}/{label}"] = {
                    "ops": len(medians),
                    "geomean_ms": statistics.geometric_mean(medians) * 1e3}
    report["metrics"] = metrics
    write_results(args, report, tracer)

    for line in runner.mismatches + runner.unexpected:
        print(f"error: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={rounds} ops/round={len(runner.ops)} "
          f"attempted={dict(runner.attempted)} failed={dict(runner.failed)}")
    host = report["host_speed"]
    print(f"  reference loop: median {host['median_ms']:.3f} ms (q1 {host['q1_ms']:.3f}, "
          f"q3 {host['q3_ms']:.3f}, {host['samples']} samples); nominal {host['nominal_ms']:g} ms")
    for name, m in metrics.items():
        raw = report.get("raw_metrics", {}).get(name)
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}"
              + (f"   (raw {raw['value']:.6g})" if raw else ""))
    if args.trace:
        for cls, b in sorted(report["classes"].items()):
            parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(b["layers_s"].items()))
            print(f"  {cls}: op_s={b['op_s']:.4f} {parts} residual={b['residual_s']:.2e}")
    result = {
        "correct": not (runner.mismatches or runner.unexpected),
        "attempted": sum(runner.attempted.values()),
        "failed": sum(runner.failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def write_results(args, report, tracer):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
