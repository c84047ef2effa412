#!/usr/bin/env python3
"""Layer timing curves of two source trees, written to one JSON file.

    python3 tools/layer_timings.py --parent ../parent-checkout --out BENCH_<n>.json

The change is the source tree of this checkout (``src/``), the parent the
``src/`` of the directory given with ``--parent`` (for example a
``git archive`` of the parent commit).  Each side is measured in processes
of its own, importing only its own tree: every point is the best of five
runs in one process, and the sides alternate for three such processes
each, keeping each point's best, so a slow spell of the host does not fall
on one side only.  Each point is read at the benchmark's nominal host
speed: the reference loop of ``bench/hostspeed.py`` (this checkout's, for
both sides) is timed three times just before and three times after the
point's runs, and the best run is scaled by the nominal time over the
median of those samples.  The curves:

- ``expansion_build``: ``GraphExpansion`` construction from the cells of
  ``full_expansion(system, depth)``, for interval_F and dendrite:3 at
  increasing depth;
- ``full_expansion``: ``full_expansion(system, depth)`` itself, for
  interval_F at depths 4 to 10 and dendrite:3 at depths 2 to 6;
- ``gluing_class``: ``gluing.gluing_class(system, s)`` for s = ``s 0 (p)``
  with a seeded period p of 100, 300 and 900 letters over 0 and 1, for
  circle_T (loop-normalized before its automaton is built) and interval_F
  (a control that needs no normalization); the automaton is compiled
  before the point is timed;
- ``expansion_containing``: ``expansion_containing(F, [w])`` for one seeded
  word w of interval_F of length 64, 128, 256 and 512;
- ``reduce``: ``rearrangement._reduce`` of the unreduced diagram of
  ``compose(x1, x0^n)`` in F (its two factors' cell maps folded, not
  reduced);
- ``compose``: ``compose(x1, x0^n)`` in F, with x0^n built beforehand;

for n = 32, 128, 512 and 1024.  The ``reduce`` diagrams are reduced
already, so that curve times the scan alone; two more curves time
reductions that merge:

- ``reduce_padded``: ``_reduce`` of x1 with its domain split down to
  ``full_expansion(F, depth)``, for depth 6, 8, 10 and 12: every round
  merges a whole level of families;
- ``reduce_cancel``: ``_reduce`` of the unreduced diagram of x0^n x0^-n,
  for n = 8, 32, 128 and 512: it reduces to the identity, one family a
  round.

One curve times the closed-diagram reduction of the conjugacy layer:

- ``reduce_closed``: ``conjugacy.reduce_closed`` of the closure of
  ``conjugate_by(compose(x0, x1), x1^n)`` in F, for n = 8, 16, 32, 64 and
  128 (37 to 397 strands): 2n + 3 logged moves.

One curve times the similarity search that follows closed reduction:

- ``similarity_search``: ``conjugacy.similarity_search`` of the reduced
  closures of g = x0 x1^n and of ``conjugate_by(g, x1^-1 x0^3)`` in F, for
  n = 4, 8, 16, 32 and 64; each point records the diagrams the search
  explores (its calls of ``all_similarity_moves``).

One curve times the torsion decision of the analysis layer, which refines
through ``Rearrangement.expand_at``:

- ``is_torsion``: ``analysis.is_torsion(conjugate_by(x1, x0^n))`` in F,
  for n = 32, 64, 128 and 256.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPEATS = 5
SAMPLES = 3  # reference-loop samples taken before and after each point
ROUNDS = 3
DEPTHS = {"interval_F": (4, 6, 8, 10), "dendrite:3": (1, 2, 3, 4, 5)}
FULL_DEPTHS = {"interval_F": range(4, 11), "dendrite:3": range(2, 7)}
WORD_LENGTHS = (64, 128, 256, 512)
TORSION = (32, 64, 128, 256)
POWERS = (32, 128, 512, 1024)
PADDINGS = (6, 8, 10, 12)
CANCELS = (8, 32, 128, 512)
CLOSED = (8, 16, 32, 64, 128)
SEARCHED = (4, 8, 16, 32, 64)
GLUING_PERIODS = (100, 300, 900)
OP_CURVES = ("reduce", "compose", "reduce_padded", "reduce_cancel", "reduce_closed",
             "similarity_search", "expansion_containing", "is_torsion")
BY_SYSTEM = ("expansion_build", "full_expansion", "gluing_class")  # curves with one point list per system
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def best(fn, speed) -> float:
    """Best of REPEATS calls, in milliseconds at the nominal host speed."""
    for _ in range(SAMPLES):
        speed.sample(force=True)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start, start))
    for _ in range(SAMPLES):
        speed.sample(force=True)
    seconds, start = min(times)
    return round(speed.scaled(start, seconds) * 1e3, 4)


def measure() -> dict:
    """The curves of the tree on ``sys.path``; run in a process of its own."""
    import random

    from rewrite_groups.analysis import is_torsion
    from rewrite_groups.catalog import catalog
    from rewrite_groups import conjugacy
    from rewrite_groups.conjugacy import close_element, reduce_closed, similarity_search
    from rewrite_groups.gluing import gluing_class
    from rewrite_groups.rearrangement import (
        Rearrangement, _product_map, _reduce, compose, conjugate_by, from_cell_map, invert,
        power, product)
    from rewrite_groups.replacement import (
        GraphExpansion, RationalSequence, expansion_containing, full_expansion)

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from hostspeed import HostSpeed

    speed = HostSpeed()
    curves: dict = {k: {} for k in BY_SYSTEM}
    curves.update({k: [] for k in OP_CURVES})
    for name, depths in DEPTHS.items():
        S = catalog(name)
        points = curves["expansion_build"][name] = []
        for depth in depths:
            cells = full_expansion(S, depth).cells
            points.append({"depth": depth, "cells": len(cells),
                           "ms": best(lambda: GraphExpansion(S, cells), speed)})
    for name, depths in FULL_DEPTHS.items():
        S = catalog(name)
        S.validate()
        points = curves["full_expansion"][name] = []
        for depth in depths:
            points.append({"depth": depth, "cells": len(full_expansion(S, depth).cells),
                           "ms": best(lambda: full_expansion(S, depth), speed)})
    for name in ("circle_T", "interval_F"):
        S = catalog(name)
        points = curves["gluing_class"][name] = []
        for length in GLUING_PERIODS:
            rng = random.Random(length)
            s = RationalSequence.make(("s", "0"), [rng.choice("01") for _ in range(length)])
            partners = len(gluing_class(S, s))  # compiles the automaton, kept on S
            points.append({"period": length, "partners": partners,
                           "ms": best(lambda: gluing_class(S, s), speed)})
    F = catalog("interval_F")
    x0 = from_cell_map(F, [(("s", "0", "0"), ("s", "0")), (("s", "0", "1"), ("s", "1", "0")),
                           (("s", "1"), ("s", "1", "1"))])
    x1 = from_cell_map(F, [(("s", "0"), ("s", "0")), (("s", "1", "0", "0"), ("s", "1", "0")),
                           (("s", "1", "0", "1"), ("s", "1", "1", "0")),
                           (("s", "1", "1"), ("s", "1", "1", "1"))])

    def unreduced(factors):
        phi, dbase, rbase = _product_map(factors)
        return Rearrangement(GraphExpansion(F, phi, dbase), phi,
                             GraphExpansion(F, phi.values(), rbase), _reduced=True)

    for n in POWERS:
        p = power(x0, n)
        g = unreduced([p, x1])
        reduced = compose(x1, p)
        curves["reduce"].append({"n": n, "cells": len(g.phi), "reduced_cells": len(reduced.phi),
                                 "ms": best(lambda: _reduce(g), speed)})
        curves["compose"].append({"n": n, "cells": len(reduced.phi),
                                  "ms": best(lambda: compose(x1, p), speed)})
    for depth in PADDINGS:
        g = x1.expand_domain_to(full_expansion(F, depth).cells)
        curves["reduce_padded"].append({"depth": depth, "cells": len(g.phi),
                                        "reduced_cells": len(_reduce(g)[2]),
                                        "ms": best(lambda: _reduce(g), speed)})
    for n in CANCELS:
        p = power(x0, n)
        g = unreduced([p, invert(p)])
        curves["reduce_cancel"].append({"n": n, "cells": len(g.phi),
                                        "reduced_cells": len(_reduce(g)[2]),
                                        "ms": best(lambda: _reduce(g), speed)})
    for n in CLOSED:
        eta = close_element(conjugate_by(compose(x0, x1), power(x1, n)))
        curves["reduce_closed"].append({"n": n, "strands": len(eta.strands),
                                        "moves": len(reduce_closed(eta)[1]),
                                        "ms": best(lambda: reduce_closed(eta), speed)})
    k = product([invert(x1), power(x0, 3)])
    all_moves = conjugacy.all_similarity_moves
    for n in SEARCHED:
        g = product([x0, power(x1, n)])
        eta, zeta = (reduce_closed(close_element(x))[0] for x in (g, conjugate_by(g, k)))
        states = []  # diagrams explored, counted on an untimed search
        conjugacy.all_similarity_moves = lambda d: states.append(d) or all_moves(d)
        similarity_search(eta, zeta)
        conjugacy.all_similarity_moves = all_moves
        curves["similarity_search"].append({"n": n, "strands": len(eta.strands),
                                            "states": len(states),
                                            "ms": best(lambda: similarity_search(eta, zeta), speed)})
    for length in WORD_LENGTHS:
        rng = random.Random(length)
        word = ("s",) + tuple(rng.choice("01") for _ in range(length - 1))
        curves["expansion_containing"].append({
            "length": length, "cells": len(expansion_containing(F, [word]).cells),
            "ms": best(lambda: expansion_containing(F, [word]), speed)})
    for n in TORSION:
        g = conjugate_by(x1, power(x0, n))
        curves["is_torsion"].append({"n": n, "cells": len(g.phi),
                                     "ms": best(lambda: is_torsion(g), speed)})
    return curves


def run_side(root: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure"], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def points(curves: dict) -> list:
    """Every point of the curves, in one fixed order."""
    builds = [p for k in BY_SYSTEM for curve in curves[k].values() for p in curve]
    return builds + [p for k in OP_CURVES for p in curves[k]]


def keep_best(best, run: dict) -> dict:
    """``best`` (None at first) with each point's time lowered to ``run``'s where less."""
    if best is None:
        return run
    for kept, new in zip(points(best), points(run)):
        kept["ms"] = min(kept["ms"], new["ms"])
    return best


def ratios(parent: dict, change: dict) -> dict:
    """change / parent time at each point, per curve."""
    def pairs(a, b):
        return [round(y["ms"] / x["ms"], 3) for x, y in zip(a, b)]

    out = {f"{c}.{k}": pairs(parent[c][k], change[c][k]) for c in BY_SYSTEM for k in parent[c]}
    out.update({k: pairs(parent[k], change[k]) for k in OP_CURVES})
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="root of the parent's checkout (holds src/)")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return
    if not args.parent or not args.out:
        parser.error("--parent and --out are required")
    parent = change = None
    for _ in range(ROUNDS):
        parent = keep_best(parent, run_side(os.path.abspath(args.parent)))
        change = keep_best(change, run_side(ROOT))
    report = {
        "statistic": (f"best of {REPEATS} runs in each of {ROUNDS} alternating processes, "
                      "ms at the nominal host speed of bench/hostspeed.py"),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "curves": {"parent": parent, "change": change},
        "change_over_parent": ratios(parent, change),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
