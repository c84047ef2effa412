#!/usr/bin/env python3
"""Output digests of the benchmark's operations, for this checkout and a parent.

    python3 tools/fingerprints.py --parent ../parent-checkout --seeds 1 2 3 4

Each side runs every operation of each workload of ``bench/`` once per seed,
in a process of its own with PYTHONHASHSEED=0 that imports only that side's
``src/`` and ``bench/``.  Each output is written out canonically and hashed:
an element by its ``encoding()``, a gluing class by its members sorted by
``repr`` (with the query's decisions), an expansion by its cells, a raised
exception by its type.  One digest per workload and seed is printed for each
side; the exit status is 1 if any digest differs, 0 otherwise.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("group-words", "conj-pairs", "limit-space")


def canonical(result) -> str:
    """A text that two equal outputs share, whatever the process's hash order."""
    if hasattr(result, "encoding"):
        return repr(result.encoding())
    if hasattr(result, "cells"):
        return repr(result.cells)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], set):
        cls, decisions = result
        return repr((sorted(map(repr, cls)), decisions))
    return repr(result)


def digests(root: str, seeds: list) -> dict:
    """{workload: {seed: digest}} of the tree at ``root``; run in a process of its own."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import run  # the benchmark's runner: imports the library from root/src only

    lib = run.load_library()
    out: dict = {}
    for name in WORKLOADS:
        for seed in seeds:
            h = hashlib.sha256()
            for op in run.WORKLOADS[name](lib, seed).ops:
                try:
                    text = canonical(op.call(*op.make()))
                except Exception as e:  # an op's failure is part of its output
                    text = "raised " + type(e).__name__
                h.update(text.encode() + b"\n")
            out.setdefault(name, {})[str(seed)] = h.hexdigest()[:16]
    return out


def run_side(root: str, seeds: list) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--digest", root,
           "--seeds", *map(str, seeds)]
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                     text=True).stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="root of the parent's checkout (holds src/ and bench/)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--digest", help=argparse.SUPPRESS)  # child process: one side
    args = parser.parse_args()
    if args.digest:
        print(json.dumps(digests(os.path.abspath(args.digest), args.seeds)))
        return 0
    if not args.parent:
        parser.error("--parent is required")
    sides = {"parent": run_side(os.path.abspath(args.parent), args.seeds),
             "change": run_side(ROOT, args.seeds)}
    differ = 0
    for name in WORKLOADS:
        for seed in map(str, args.seeds):
            a, b = sides["parent"][name][seed], sides["change"][name][seed]
            differ += a != b
            print(f"{name:12} seed {seed}: parent {a}  change {b}  {'same' if a == b else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
