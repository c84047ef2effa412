#!/usr/bin/env python3
"""Write corpus.json, the fixed large dendrite:3 pairs of the conj-pairs workload.

    python3 bench/corpus.py        # from the root of a checkout

Conjugacy decisions on pairs of one size differ in cost by more than an order
of magnitude (45 ms to 1.3 s for h of 11 to 19 cells), so a median over the
few dozen large pairs a run can afford moves by more than the bounds allow
when the pairs are drawn afresh for every seed.  The large class therefore
runs this fixed corpus, the same on every seed.

The corpus is drawn from fixed seeded words with the library (products and
conjugate_by give unique reduced diagrams, so any correct library writes the
same file).  Positive pairs are h = k^-1 g k; negative pairs take h conjugate
to a word g2 whose dendrite phi differs from that of g.  Pairs on which
conjugate() raises are skipped: that fault is pinned separately.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
SEED = 2412
POSITIVE = 24
NEGATIVE = 8
G_LENGTH = 6
G_CELLS = (11, 13)
K_LENGTH = 2
H_CELLS = (15, 19)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import inputs
    import reference as ref
    import run
    import workloads

    lib = run.load_library()
    rng = random.Random(SEED)
    D = workloads.dendrite_system(lib, rng)

    def g_word():
        while True:
            g = inputs.random_word(rng, D.gens, G_LENGTH)
            if G_CELLS[0] <= len(D.word_json(g)["phi"]) <= G_CELLS[1]:
                return g

    def conjugate_pair(g):
        while True:
            k = inputs.random_word(rng, D.gens, K_LENGTH)
            g_json, k_json, h_json = workloads.conjugate_input(D, g, k)
            if H_CELLS[0] <= len(h_json["phi"]) <= H_CELLS[1]:
                return k, g_json, k_json, h_json

    def decides(g_json, h_json) -> bool:
        try:
            lib.conjugacy.conjugate(D.element(g_json), D.element(h_json))
        except lib.rearrangement.NotAnIsomorphism:
            return False
        return True

    pairs = []
    while sum(p["conjugate"] for p in pairs) < POSITIVE:
        g = g_word()
        k, g_json, k_json, h_json = conjugate_pair(g)
        if decides(g_json, h_json):
            pairs.append({"conjugate": True, "g_word": g, "k_word": k,
                          "g": g_json["phi"], "k": k_json["phi"], "h": h_json["phi"]})
    while len(pairs) < POSITIVE + NEGATIVE:
        g2 = g_word()
        _k, _g2_json, _k_json, h_json = conjugate_pair(g2)
        g = g_word()
        if ref.word_phi(g) == ref.word_phi(g2):
            continue
        g_json = D.word_json(g)
        if decides(g_json, h_json):
            pairs.append({"conjugate": False, "g_word": g, "g2_word": g2,
                          "g": g_json["phi"], "h": h_json["phi"]})
    with open(CORPUS, "w") as fh:
        fh.write(f'{{"seed": {SEED}, "system": "dendrite:3", "pairs": [\n')
        fh.write(",\n".join(json.dumps(p, separators=(",", ":")) for p in pairs))
        fh.write("\n]}\n")
    print(f"wrote {CORPUS} ({len(pairs)} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
