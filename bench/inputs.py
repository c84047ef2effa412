"""Seeded inputs: generators, words, conjugate pairs and rational points.

Generators are written out as cell maps here, so the inputs do not change
when the library's random-element code does.  The one exception is the
order-3 dendrite group, whose generators come from
``analysis.dendrite_generators(3)``.  A cell map is a list of
[domain word, range word] pairs; a third entry ``true`` marks an orientation
flip.  Inverses are the reversed maps (every flipped colour used here has an
involutive reversal, which the set-up checks on sample points).
"""

from __future__ import annotations


def _cells(spec):
    """Parse "s00>s0, s01>s10" style maps of single-letter alphabets."""
    pairs = []
    for item in spec.split(","):
        a, b = item.strip().split(">")
        pairs.append([list(a), list(b)])
    return pairs


X0 = _cells("s00>s0, s01>s10, s1>s11")
X1 = _cells("s0>s0, s100>s10, s101>s110, s11>s111")
ROT = _cells("s0>s11, s10>s0, s11>s10")
SWAP = _cells("s0>s1, s1>s0")

GENERATORS = {
    "interval_F": {"x0": X0, "x1": X1},
    "circle_T": {"x0": X0, "x1": X1, "c": ROT},
    "cantor_V": {"x0": X0, "x1": X1, "c": ROT, "pi": SWAP},
    "basilica": {
        "a": [[["L"], ["R"]], [["R"], ["L"]]],
        "b": [[["L", "0"], ["L", "2"]], [["L", "1"], ["R"]], [["L", "2"], ["L", "0"]],
              [["R"], ["L", "1"]]],
        "c": [[["L", "0", "0"], ["L", "0"]], [["L", "0", "1"], ["L", "1"]],
              [["L", "0", "2"], ["L", "2", "0"]], [["L", "1"], ["L", "2", "1"]],
              [["L", "2"], ["L", "2", "2"]], [["R"], ["R"]]],
    },
    "airplane": {
        "a": [[["s"], ["s"], True]],
        "b": [[["s", "b1"], ["s", "b1"]], [["s", "b2", "r1"], ["s", "b3", "r2"]],
              [["s", "b2", "r2"], ["s", "b2"]], [["s", "b2", "r3"], ["s", "b4"]],
              [["s", "b3"], ["s", "b3", "r1"]], [["s", "b4"], ["s", "b3", "r3"]]],
        "c": [[["s", "b1", "b1"], ["s", "b1", "b1"], True], [["s", "b1", "b2"], ["s", "b2"]],
              [["s", "b1", "b3"], ["s", "b3"]], [["s", "b1", "b4"], ["s", "b4"]],
              [["s", "b2"], ["s", "b1", "b2"]], [["s", "b3"], ["s", "b1", "b3"]],
              [["s", "b4"], ["s", "b1", "b4"]]],
    },
}

# A truly conjugate dendrite:3 pair on which conjugate() raises
# NotAnIsomorphism ("vertex map is not injective") inside apply_type3.  It is
# h = k^-1 g k for the fifth draw of random_rearrangement(dendrite:3, rng, 2, 2)
# twice from random.Random(0), frozen here.
PINNED_PAIR = {
    "g": [[["1", "1"], ["2", "1"]], [["1", "2"], ["2", "3"]], [["1", "3"], ["2", "2"]],
          [["2", "1"], ["3", "1"]], [["2", "2"], ["3", "3"]], [["2", "3"], ["3", "2"]],
          [["3", "1"], ["1", "1"]], [["3", "2"], ["1", "2"]],
          [["3", "3", "1"], ["1", "3", "1"]], [["3", "3", "2"], ["1", "3", "3"]],
          [["3", "3", "3"], ["1", "3", "2"]]],
    "k": [[["1"], ["3", "2"]], [["2"], ["3", "3"]], [["3", "1"], ["3", "1"], True],
          [["3", "2"], ["2"]], [["3", "3"], ["1"]]],
    "h": [[["1"], ["3", "3", "2"]], [["2", "1"], ["3", "3", "3", "1"]],
          [["2", "2"], ["3", "3", "3", "3"]], [["2", "3"], ["3", "3", "3", "2"]],
          [["3", "1"], ["3", "3", "1"], True], [["3", "2", "1"], ["3", "1"], True],
          [["3", "2", "2"], ["2"]], [["3", "2", "3"], ["1"]],
          [["3", "3", "1"], ["3", "2", "1"]], [["3", "3", "2"], ["3", "2", "3"]],
          [["3", "3", "3"], ["3", "2", "2"]]],
}


def x0_power(n: int):
    """Cell map of x0^n in the interval system, n >= 1.

    The cells 0^(n+1), 0^n 1, ..., 0 1, 1 go in order onto 0, 1 0, ...,
    1^n 0, 1^(n+1).
    """
    pairs = [[["s"] + ["0"] * (n + 1), ["s", "0"]]]
    for j in range(n, 0, -1):
        pairs.append([["s"] + ["0"] * j + ["1"], ["s"] + ["1"] * (n + 1 - j) + ["0"]])
    pairs.append([["s", "1"], ["s"] + ["1"] * (n + 1)])
    return pairs


def inverse_map(pairs):
    return [[v, w] + rest for w, v, *rest in pairs]


def as_json(pairs) -> dict:
    """The element JSON form that ``rearrangement_from_json`` reads."""
    return {"phi": [list(p) for p in pairs]}


def generator_table(gens: dict) -> dict:
    """Letter -> cell map, with an "^-1" letter for every inverse."""
    out = {}
    for name, pairs in gens.items():
        out[name] = pairs
        out[name + "^-1"] = inverse_map(pairs)
    return out


def random_word(rng, letters, length: int) -> list:
    """A word with no letter next to its own inverse."""
    letters = sorted(letters)
    word = []
    while len(word) < length:
        x = rng.choice(letters)
        if word and _inverse_letter(x) == word[-1]:
            continue
        word.append(x)
    return word


def _inverse_letter(x: str) -> str:
    return x[:-3] if x.endswith("^-1") else x + "^-1"


def random_point(system, rng, max_prefix: int = 4, max_period: int = 3):
    """A seeded rational sequence (prefix, period) of the system's symbol space."""
    for _ in range(1000):
        n = rng.randint(1, max_prefix)
        k = rng.randint(1, max_period)
        word = []
        ctx = None
        for _i in range(n + k):
            edges = system.graph_of(ctx).edges
            e = rng.choice(sorted(edges, key=lambda e: e.name))
            word.append(e.name)
            ctx = e.color
        pre, per = tuple(word[:n]), tuple(word[n:])
        if system.language_contains(pre + per * 6):
            return pre, per
    raise RuntimeError("no rational point found")
