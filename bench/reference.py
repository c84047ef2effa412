"""Correctness references that share no code with the library's algorithms.

* Elements of Thompson's group F as exact piecewise-linear maps of [0, 1]
  with ``Fraction`` breakpoints, read straight off a cell map.
* Points of the interval system as exact rational numbers.
* Cell and vertex counts of the full expansion E_d from the colour
  substitution matrix of the rule graphs.
* The dendrite abelianization map phi of a word, summed from the values of
  the generators.
"""

from __future__ import annotations

from fractions import Fraction


# -- Thompson's group F on [0, 1] ------------------------------------------------


def dyadic_interval(word) -> tuple:
    """The interval of a cell ("s", d1, ..., dk) of the interval system."""
    if not word or word[0] != "s":
        raise ValueError(f"not a cell of the interval system: {word}")
    a = Fraction(0)
    width = Fraction(1)
    for d in word[1:]:
        width /= 2
        if d == "1":
            a += width
        elif d != "0":
            raise ValueError(f"not a binary digit: {d!r}")
    return a, a + width


class PLMap:
    """An increasing piecewise-linear homeomorphism of [0, 1].

    ``pieces`` is a sorted tuple of (x0, x1, y0, y1): the map sends [x0, x1]
    affinely onto [y0, y1].  Adjacent pieces with one slope are merged, so two
    maps are equal exactly when their pieces are.
    """

    def __init__(self, pieces):
        pieces = sorted(pieces)
        if not pieces or pieces[0][0] != 0 or pieces[-1][1] != 1:
            raise ValueError("pieces do not cover [0, 1]")
        merged = []
        for p in pieces:
            if merged:
                q = merged[-1]
                if q[1] != p[0] or q[3] != p[2]:
                    raise ValueError("pieces are not contiguous")
                if (q[3] - q[2]) * (p[1] - p[0]) == (p[3] - p[2]) * (q[1] - q[0]):
                    merged[-1] = (q[0], p[1], q[2], p[3])
                    continue
            merged.append(p)
        self.pieces = tuple(merged)

    @classmethod
    def from_cell_map(cls, pairs) -> "PLMap":
        return cls([dyadic_interval(w) + dyadic_interval(v) for w, v in pairs])

    def __eq__(self, other):
        return isinstance(other, PLMap) and self.pieces == other.pieces

    def __call__(self, x: Fraction) -> Fraction:
        for x0, x1, y0, y1 in self.pieces:
            if x0 <= x <= x1:
                return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        raise ValueError(f"{x} lies outside [0, 1]")

    def inverse(self) -> "PLMap":
        return PLMap([(y0, y1, x0, x1) for x0, x1, y0, y1 in self.pieces])

    def after(self, inner: "PLMap") -> "PLMap":
        """The composite self o inner (apply ``inner`` first)."""
        inv = inner.inverse()
        cuts = {p[0] for p in inner.pieces} | {1}
        cuts |= {inv(p[0]) for p in self.pieces}
        cuts = sorted(cuts)
        return PLMap([(a, b, self(inner(a)), self(inner(b))) for a, b in zip(cuts, cuts[1:])])

    def end_slopes(self) -> tuple:
        """Slopes at 0 and at 1: a conjugacy invariant of F."""
        first, last = self.pieces[0], self.pieces[-1]
        return ((first[3] - first[2]) / (first[1] - first[0]),
                (last[3] - last[2]) / (last[1] - last[0]))


def product_map(maps) -> PLMap:
    """The map of a word read left to right, leftmost factor applied first."""
    out = maps[0]
    for m in maps[1:]:
        out = m.after(out)
    return out


def sequence_value(prefix, period) -> Fraction:
    """The number addressed by "s" prefix (period)^omega in binary."""
    if not prefix or prefix[0] != "s":
        raise ValueError("sequence does not start at the base edge s")
    digits = [int(d) for d in prefix[1:]]
    head = sum((Fraction(d, 2 ** (i + 1)) for i, d in enumerate(digits)), Fraction(0))
    p = len(period)
    block = sum((Fraction(int(d), 2 ** (i + 1)) for i, d in enumerate(period)), Fraction(0))
    # block * (1 + 2^-p + 2^-2p + ...) shifted past the prefix digits
    tail = block * Fraction(2 ** p, 2 ** p - 1)
    return head + tail / 2 ** len(digits)


# -- full expansions ---------------------------------------------------------------


def expansion_counts(base_colors, rules, base_vertices: int, depth: int) -> tuple:
    """(cells, vertices) of E_depth from the colour substitution matrix.

    ``base_colors`` lists the colour of each base edge; ``rules`` maps each
    colour to (colours of the rule graph's edges, number of rule vertices,
    number of boundary vertices).  Replacing an edge of colour c adds the rule
    graph's non-boundary vertices.
    """
    counts = {}
    for c in base_colors:
        counts[c] = counts.get(c, 0) + 1
    vertices = base_vertices
    for _ in range(depth):
        nxt = {}
        for c, n in counts.items():
            edge_colors, nverts, nboundary = rules[c]
            vertices += n * (nverts - nboundary)
            for c2 in edge_colors:
                nxt[c2] = nxt.get(c2, 0) + n
        counts = nxt
    return sum(counts.values()), vertices


# -- dendrite invariant ------------------------------------------------------------

# phi = (parity, endpoint derivative) of the generators of the order-3 dendrite
# group, as tabulated for the abelianization map.
DENDRITE3_PHI = {"g0": (0, 0), "g1": (0, -1), "tau2": (1, 0), "tau3": (1, 0)}


def word_phi(letters) -> tuple:
    """phi of a word of generators and inverses ("name" or "name^-1")."""
    parity = derivative = 0
    for letter in letters:
        name, inverse = (letter[:-3], True) if letter.endswith("^-1") else (letter, False)
        p, d = DENDRITE3_PHI[name]
        parity = (parity + p) % 2
        derivative += -d if inverse else d
    return parity, derivative
