import random

import pytest

from rewrite_groups.catalog import catalog
from rewrite_groups.rearrangement import from_cell_map, random_rearrangement
from rewrite_groups.replacement import RationalSequence
from rewrite_groups import strand as sd


def f_generators():
    """The standard tree-pair generators of Thompson's group F."""
    F = catalog("interval_F")
    x0 = from_cell_map(F, [
        (("s", "0", "0"), ("s", "0")),
        (("s", "0", "1"), ("s", "1", "0")),
        (("s", "1"), ("s", "1", "1")),
    ])
    x1 = from_cell_map(F, [
        (("s", "0"), ("s", "0")),
        (("s", "1", "0", "0"), ("s", "1", "0")),
        (("s", "1", "0", "1"), ("s", "1", "1", "0")),
        (("s", "1", "1"), ("s", "1", "1", "1")),
    ])
    return F, x0, x1


def t_rotation():
    T = catalog("circle_T")
    y = from_cell_map(T, [(("s", "0"), ("s", "1")), (("s", "1"), ("s", "0"))])
    return T, y


def random_rational(system, rng, max_prefix=3, max_period=2):
    """A random element of the symbol space, as a normalized lasso."""
    for _ in range(500):
        word = []
        ctx = None
        n = rng.randint(1, max_prefix)
        k = rng.randint(1, max_period)
        for _i in range(n + k + 8):
            g = system.graph_of(ctx)
            e = rng.choice(g.edges)
            word.append(e.name)
            ctx = e.color
        pre, per = tuple(word[:n]), tuple(word[n:n + k])
        if system.language_contains(pre + per * 5):
            try:
                return RationalSequence.make(pre, per)
            except ValueError:
                continue
    raise RuntimeError("could not sample a rational sequence")


STRAND_SYSTEMS = ("interval_F", "circle_T", "cantor_V", "airplane", "basilica", "dendrite:3",
                  "rabbit:3")


def padded_and_glued(rng, per_system=5):
    """Unreduced open diagrams: per system and round, two seeded elements, each
    expanded at two random cells and drawn with ``reduce=False``, and their
    glued composite."""
    out = []
    for name in STRAND_SYSTEMS:
        S = catalog(name)
        for _ in range(per_system):
            padded = []
            for _ in range(2):
                g = random_rearrangement(S, rng, 2, 2)
                for _ in range(2):
                    g = g.expand_at(rng.choice(sorted(g.phi)))
                padded.append(sd.from_rearrangement(g, reduce=False))
            out += padded + [sd._glued_composite(*padded)]
    return out


def type1_candidates(d):
    """(split, merge) pairs: out port p of the split feeds port p of the merge.

    A scan of every split, the reference for ``Diagram._chained_pairs``.
    """
    out = []
    for nid in d.splits():
        ends = [d.strands[d.out_strand(nid, p)].dst for p in range(d.arity(nid))]
        m = ends[0][0]
        if (d.nodes[m] == ("merge", d.nodes[nid][1])
                and ends == [(m, p) for p in range(len(ends))]):
            out.append((nid, m))
    return out


def type2_candidates(d):
    """(merge, split) pairs of one color: the merge's out strand feeds the split.

    A scan of every strand, in strand order, the reference for
    ``Diagram._chained_pairs``.
    """
    out = []
    for s in d.strands.values():
        up, down = s.src[0], s.dst[0]
        ku = d.nodes[up]
        if (isinstance(ku, tuple) and ku[0] == "merge"
                and d.nodes[down] == ("split", ku[1])):
            out.append((up, down))
    return out


@pytest.fixture
def rng():
    return random.Random(20260809)
