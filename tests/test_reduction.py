"""The reduction path: the families and vertex ends recorded by the forest
walk, the expansions a reduction merges or a refinement splits against a
walk of their cells, ``_reduce`` against the round-based scan over every cell, the checks of
``check_reducible``, and the rejections of ``walk_forest``."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from rewrite_groups.catalog import catalog, catalog_names
from rewrite_groups.graphs import UnionFind
from rewrite_groups.rearrangement import (
    Rearrangement,
    _product_map,
    _reduce,
    random_rearrangement,
)
from rewrite_groups.replacement import (
    GraphExpansion,
    NotACell,
    NotReducible,
    base_expansion,
    full_expansion,
    normalize_loops,
    walk_forest,
)

# every catalog entry, the parametric ones instantiated
INSTANCES = {
    "F(n,r)": "F:3,2", "T(n,r)": "T:3,2", "V(n,r)": "V:3,2", "rabbit(loops)": "rabbit:3",
    "dendrite(n)": "dendrite:3", "dendrite_edge_base(n)": "dendrite_edge_base:3",
    "dendrite_oriented(n)": "dendrite_oriented:3",
    "dendrite_generalized(s1,...,sk)": "dendrite_generalized:3,4", "vicsek(n)": "vicsek:4",
    "houghton(n)": "houghton:3", "houghton_expanding(n)": "houghton_expanding:3",
}
SYSTEMS = [INSTANCES.get(name, name) for name in catalog_names()]


def _system(name):
    """A catalog system; ``name~`` is its loop-normalized form."""
    return normalize_loops(catalog(name[:-1])) if name.endswith("~") else catalog(name)


# -- families --------------------------------------------------------------------


def _scanned_families(exp):
    """The parents whose every rule child is a cell, by a scan of all cells."""
    letters: dict = {}
    for w in exp.cells:
        if len(w) > 1:
            letters.setdefault(w[:-1], set()).add(w[-1])
    return sorted(p for p, seen in letters.items()
                  if seen == {e.name for e in exp.system.rules[exp.cell_color(p)].graph.edges})


def _assert_families(exp):
    assert len(set(exp._families)) == len(exp._families)
    assert sorted(exp._families) == _scanned_families(exp)


@pytest.mark.parametrize("name", SYSTEMS + ["basilica~"])
def test_families_equal_the_scan_of_all_cells(name):
    assert "(" not in name  # a parametric entry without an instance in INSTANCES
    S = _system(name)
    rng = random.Random(name)
    for _ in range(8):
        exp = base_expansion(S)
        for _ in range(rng.randint(0, 12)):
            exp = exp.expand(rng.choice(exp.cells))
        cells = list(exp.cells)
        rng.shuffle(cells)
        _assert_families(GraphExpansion(S, cells))
    depth, exp = 0, base_expansion(S)
    while len(exp.cells) < 150 and depth < 6:
        depth += 1
        exp = full_expansion(S, depth)
        _assert_families(exp)
        assert exp._families or not any(len(w) > 1 for w in exp.cells)


def test_families_over_another_base():
    D = catalog("dendrite:3")
    base = GraphExpansion(D, [("1",), ("2", "1"), ("2", "2"), ("2", "3"), ("3",)]).leaf_graph
    rng = random.Random(3)
    for _ in range(12):
        exp = GraphExpansion(D, [(e.name,) for e in base.edges], base)
        for _ in range(rng.randint(0, 10)):
            exp = exp.expand(rng.choice(exp.cells))
        _assert_families(exp)


def _ends_by_unions(exp):
    """(color, s, t) of every word of ``exp``'s forest, by ``UnionFind.union``, the reference.

    The forest is replayed from its words alone: from the base edges down
    to ``exp.cells``, children in rule-edge order, each rule copy numbered
    boundary first and then its other vertices in graph order, and each
    loop-kind rule uniting the two ends of its edge.  The walk allocates
    its items in the same order, so the ends it resolved are these roots.
    A loop-kind color labels only loops, so those unions merge nothing: the
    walk keeps no union-find.
    """
    S, cells = exp.system, set(exp.cells)
    ids = {v: i for i, v in enumerate(exp.base.vertices)}
    uf = UnionFind((i, i) for i in ids.values())
    items = {}
    stack = [((e.name,), e.color, ids[e.src], ids[e.dst]) for e in reversed(exp.base.edges)]
    while stack:
        w, color, s, t = stack.pop()
        items[w] = (color, s, t)
        if w in cells:
            continue
        rule = S.rules[color]
        if rule.kind == "loop":
            assert s == t, w
            uf.union(s, t)
        num = dict(zip(rule.boundary_vertices(), (s, t)))
        for v in rule.graph.vertices:
            if v not in num:
                num[v] = len(uf)
                uf.add(len(uf))
        stack.extend((w + (e.name,), e.color, num[e.src], num[e.dst])
                     for e in reversed(rule.graph.edges))
    return {w: (color, uf.find(s), uf.find(t)) for w, (color, s, t) in items.items()}


@pytest.mark.parametrize("name", ["basilica~", "rabbit:3~", "airplane"])
def test_walk_union_find_has_the_roots_of_union_calls(name):
    S = _system(name)
    rng = random.Random(name)
    # walked, not split: a split numbers its new vertices in cell order
    expansions = [GraphExpansion(S, full_expansion(S, depth).cells) for depth in range(1, 5)]
    for _ in range(12):
        exp = base_expansion(S)
        for _ in range(rng.randint(0, 30)):
            exp = exp.expand(rng.choice(exp.cells))
        expansions.append(GraphExpansion(S, exp.cells))
    for exp in expansions:
        assert {**exp._inner, **exp._leaves} == _ends_by_unions(exp)


# -- merged expansions against the walk ----------------------------------------------

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def _bench_generators():
    """{system name: generators and their inverses} of the benchmark's catalog systems."""
    from rewrite_groups.analysis import dendrite_generators
    from rewrite_groups.rearrangement import invert, rearrangement_from_json

    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = {}
    for name, gens in inputs.GENERATORS.items():
        S = catalog(name)
        out[name] = [rearrangement_from_json(S, inputs.as_json(c)) for c in gens.values()]
    out["dendrite:3"] = list(dendrite_generators(3).values())
    return {name: gens + [invert(g) for g in gens] for name, gens in out.items()}


def _assert_as_walked(exp):
    """``exp`` holds what a walk of its cells records: the same forest and vertices."""
    ref = GraphExpansion(exp.system, exp.cells, exp.base)
    assert exp.cells == ref.cells
    assert {w: c for w, (c, _, _) in exp._inner.items()} == {
        w: c for w, (c, _, _) in ref._inner.items()}
    # interior words come after their parents; only a walk lists them in
    # depth-first preorder, and nothing reads that order
    listed = {()}
    for w in exp._inner:
        assert w[:-1] in listed
        listed.add(w)
    assert set(exp._families) == set(ref._families)
    assert len(set(exp._families)) == len(exp._families)
    # the vertex integers may differ; the vertex partition of all ends may not
    rename: dict = {}
    for ends, ref_ends in ((exp._leaves, ref._leaves), (exp._inner, ref._inner)):
        for w, (color, s, t) in ends.items():
            rcolor, rs, rt = ref_ends[w]
            assert color == rcolor
            assert rename.setdefault(s, rs) == rs and rename.setdefault(t, rt) == rt
    assert len(set(rename.values())) == len(rename)
    assert max(rename, default=-1) < exp._next
    for w in exp.cells:
        _, s, t = exp.cell_ends(w)
        assert exp.root_degree(s) == ref.root_degree(rename[s])
        assert exp.root_degree(t) == ref.root_degree(rename[t])
    assert exp.leaf_graph.encoding() == ref.leaf_graph.encoding()


def _reduce_checking_every_round(g, monkeypatch, **kwargs):
    """``_reduce(g)``, every expansion a round makes checked against the walk;
    returns how many expansions the rounds merged."""
    made = []
    merged = GraphExpansion._merged

    def recording(self, parents):
        out = merged(self, parents)
        made.append(out)
        return out

    monkeypatch.setattr(GraphExpansion, "_merged", recording)
    domain, range_, phi, flips = _reduce(g, **kwargs)
    monkeypatch.setattr(GraphExpansion, "_merged", merged)
    for exp in made:
        _assert_as_walked(exp)
    _assert_as_walked(domain)
    _assert_as_walked(range_)
    return len(made)


def test_merged_expansions_equal_the_walk_of_their_cells(monkeypatch):
    from rewrite_groups.rearrangement import invert, power

    rng = random.Random(17)
    for name, pool in _bench_generators().items():
        merged = 0
        for _ in range(6):
            factors = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
            # a word, and the word times its inverse, which reduces to the identity
            for word in (factors, factors + [invert(f) for f in reversed(factors)]):
                g = _unreduced(word)
                merged += _reduce_checking_every_round(g, monkeypatch)
                merged += _reduce_checking_every_round(g.flipless(), monkeypatch,
                                                       allow_flips=False)
        assert merged >= 12, name
    # the reduce_cancel diagrams of tools/layer_timings.py: the unreduced
    # x0^n x0^-n (n + 2 cells), one family a round down to the identity
    x0 = _bench_generators()["interval_F"][0]
    for n in (1, 4, 16, 64):
        p = power(x0, n)
        assert _reduce_checking_every_round(_unreduced([p, invert(p)]), monkeypatch) == 2 * (n + 1)
    # an expansion merged by ``GraphExpansion.reduce``
    exp = full_expansion(catalog("interval_F"), 4)
    for family in exp.reducible_families()[:3]:
        _assert_as_walked(exp.reduce(family))


# -- split expansions against the walk ------------------------------------------------

# the full expansions that the limit-space benchmark times
LIMIT_SPACE_DEPTHS = {"airplane": 4, "dendrite:4": 3, "circle_T": 7, "interval_F": 7,
                      "cantor_V": 7, "dendrite:3": 4}


@pytest.mark.parametrize("name", SYSTEMS + ["dendrite:4", "basilica~"])
def test_split_expansions_equal_the_walk_of_their_cells(name):
    S = _system(name)
    for depth in sorted({0, 1, 2, 3, LIMIT_SPACE_DEPTHS.get(name, 3)}):
        exp = full_expansion(S, depth)
        assert all(len(w) == depth + 1 for w in exp.cells)
        _assert_as_walked(exp)
    rng = random.Random(name)
    for _ in range(3):
        exp = base_expansion(S)
        for _ in range(25):
            exp = exp.expand(rng.choice(exp.cells))
            _assert_as_walked(exp)


def _walked_expand(self, word):
    """``GraphExpansion.expand`` by a walk of the new cells, the reference."""
    word = tuple(word)
    if word not in self._leaves:
        raise NotACell(f"{word} is not a cell of this expansion")
    kids = [word + (e.name,) for e in self.system.rules[self._leaves[word][0]].graph.edges]
    cells = [c for c in self.cells if c != word] + kids
    return GraphExpansion(self.system, cells, self.base)


@pytest.mark.parametrize("name", ["interval_F", "circle_T", "cantor_V", "airplane", "basilica",
                                  "dendrite:3", "vicsek:4"])
def test_expand_at_chains_equal_a_walked_reference(name, monkeypatch):
    S = catalog(name)
    split = GraphExpansion.expand
    for seed in range(4):
        chains = []
        for expand in (split, _walked_expand):
            monkeypatch.setattr(GraphExpansion, "expand", expand)
            rng = random.Random(f"{name} {seed}")
            g = random_rearrangement(S, rng)
            chain = [g]
            for _ in range(12):
                g = g.expand_at(rng.choice(g.domain.cells))
                chain.append(g)
            chains.append(chain)
        monkeypatch.setattr(GraphExpansion, "expand", split)
        for g, ref in zip(*chains):
            assert g == ref and repr(g) == repr(ref)
            for side, ref_side in ((g.domain, ref.domain), (g.range_, ref.range_)):
                assert side.cells == ref_side.cells
                _assert_as_walked(side)


@pytest.mark.parametrize("word", [("s",), ("s", "1"), ("s", "2"), ("s", "1", "0", "0"), (),
                                  ("t",)])
def test_expand_refuses_a_non_cell(word):
    # the cells are s 0, s 1 0 and s 1 1: interior words, a word outside the
    # language, a word below a cell, the empty word, a letter of no base edge
    exp = base_expansion(catalog("interval_F")).expand(("s",)).expand(("s", "1"))
    with pytest.raises(NotACell, match="is not a cell of this expansion"):
        exp.expand(word)
    with pytest.raises(NotACell):
        exp._split([("s", "0"), word])


# -- _reduce against the round-based scan ------------------------------------------


def _scanned_reduce(g, allow_flips=True, rng=None):
    """``_reduce`` as a scan of every domain cell per round, the reference."""
    domain, range_, phi, flips = g.domain, g.range_, dict(g.phi), set(g.flips)
    system = g.system
    while True:
        parents: dict = {}
        for w in domain.cells:
            if len(w) > 1 and w not in flips:
                parents.setdefault(w[:-1], []).append(w)
        moves = []
        order = sorted(parents)
        if rng is not None:
            rng.shuffle(order)
        for u in order:
            kids = parents[u]
            rule_color = domain.cell_color(u)
            rule = system.rules[rule_color]
            names = {e.name for e in rule.graph.edges}
            if {w[-1] for w in kids} != names:
                continue
            images = [phi[u + (e,)] for e in sorted(names)]
            vparents = {v[:-1] for v in images}
            if len(vparents) != 1:
                continue
            vp = vparents.pop()
            if not vp:
                continue
            letter_map = {w[-1]: phi[w][-1] for w in kids}
            flip = None
            if all(letter_map[e] == e for e in names):
                flip = False
            elif allow_flips and rule_color in system.validate().undirected_colors:
                psi = system.reversing_automorphism(rule_color)
                if psi is not None and all(letter_map[e] == psi.edge_map[e] for e in names):
                    flip = True
            if flip is None:
                continue
            try:
                domain.check_reducible(kids)
                range_.check_reducible(images)
            except NotReducible:
                continue
            moves.append((u, vp, kids, flip))
        if not moves:
            return domain, range_, phi, frozenset(flips)
        for u, vp, kids, flip in moves:
            for w in kids:
                del phi[w]
            phi[u] = vp
            if flip:
                flips.add(u)
        domain = GraphExpansion(system, phi, domain.base)
        range_ = GraphExpansion(system, phi.values(), range_.base)


def _pieces(reduced):
    domain, range_, phi, flips = reduced
    return domain.base, domain.cells, range_.base, range_.cells, list(phi.items()), flips


def _unreduced(factors):
    """The diagram ``product`` reduces: the factors' cell maps folded, not reduced."""
    phi, dbase, rbase = _product_map(factors)
    S = factors[0].system
    return Rearrangement(GraphExpansion(S, phi, dbase), phi, GraphExpansion(S, phi.values(), rbase),
                         _reduced=True)


def _automorphism_diagram(S, rng):
    """A random leaf-graph automorphism of a random expansion, flips allowed, not reduced."""
    from rewrite_groups.graphs import isomorphisms

    exp = base_expansion(S)
    for _ in range(rng.randint(1, 6)):
        exp = exp.expand(rng.choice(exp.cells))
    flip_colors = frozenset(S.validate().undirected_colors)
    iso = rng.choice(isomorphisms(exp.leaf_graph, exp.leaf_graph, flip_colors=flip_colors, limit=24))
    phi = {tuple(a.split(" ")): tuple(b.split(" ")) for a, b in iso.edge_map.items()}
    return Rearrangement(exp, phi, exp, [tuple(a.split(" ")) for a in iso.flipped], _reduced=True)


def _has_flipped_child(h):
    families = set(h.domain._families)
    return any(w[:-1] in families for w in h.flips)


@pytest.mark.parametrize("name", ["interval_F", "circle_T", "cantor_V", "basilica", "airplane",
                                  "dendrite:3"])
def test_reduce_equals_the_scan_of_all_cells(name):
    S = catalog(name)
    rng = random.Random(name)
    flipped = 0
    for i in range(10):
        factors = [random_rearrangement(S, rng, 2, 2) for _ in range(rng.randint(2, 3))]
        g = _unreduced(factors)
        padded = Rearrangement(g.domain, g.phi, g.range_, g.flips)
        for _ in range(3):
            padded = padded.expand_at(rng.choice(padded.domain.cells))
        for h in (g, padded, _automorphism_diagram(S, rng), _automorphism_diagram(S, rng)):
            flipped += _has_flipped_child(h)
            assert _pieces(_reduce(h)) == _pieces(_scanned_reduce(h)), (name, i)
            flipless = h.flipless()
            assert (_pieces(_reduce(flipless, allow_flips=False))
                    == _pieces(_scanned_reduce(flipless, allow_flips=False))), (name, i)
            # a seeded rng permutes the families, where the scan permuted the
            # parents of all unflipped cells: the same seed then merges in
            # another order, so only the insertion order of phi may differ
            for j in range(2):
                seed = 31 * i + j
                domain, range_, phi, flips = _reduce(h, rng=random.Random(seed))
                reference = _scanned_reduce(h, rng=random.Random(seed))
                assert _pieces((domain, range_, dict(sorted(phi.items())), flips)) == _pieces(
                    reference[:2] + (dict(sorted(reference[2].items())), reference[3])), (name, i, j)
    if S.validate().undirected_colors:
        assert flipped  # families with a flipped child were met and skipped


# -- check_reducible ---------------------------------------------------------------


@pytest.mark.parametrize("family, reason", [
    ([], "family must consist of words of length >= 2"),
    ([("s",)], "family must consist of words of length >= 2"),
    ([("s", "0", "0"), ("s", "1", "0")], "family members are not siblings"),
    ([("s", "0"), ("s", "1")], "family members are not all cells"),
    ([("s", "0", "0")], "family is not the full set of children"),
])
def test_check_reducible_refuses(family, reason):
    exp = full_expansion(catalog("interval_F"), 2)
    with pytest.raises(NotReducible) as e:
        exp.check_reducible(family)
    assert str(e.value) == reason


@pytest.mark.parametrize("name", ["interval_F", "airplane", "dendrite:3", "vicsek:4", "basilica~"])
def test_check_reducible_refuses_outside_incidences(name, monkeypatch):
    # An interior vertex of a family's rule copy meets only the family's
    # edges in every real expansion, so the degree check never fires there;
    # a tampered degree count shows that it still checks every interior end,
    # and no boundary end.
    S = _system(name)
    exp = full_expansion(S, 2)
    honest = exp._root_degrees
    tried = 0
    for p in exp._families:
        rule = S.rules[exp.cell_color(p)]
        kids = [p + (e.name,) for e in rule.graph.edges]
        assert exp.check_reducible(kids) == p
        boundary = set(rule.boundary_vertices())
        ends: dict = {}
        for w in kids:
            _, s, t = exp.cell_ends(w)
            edge = rule.graph.edge(w[-1])
            ends[s] = edge.src not in boundary
            ends[t] = edge.dst not in boundary
        for root, interior in ends.items():
            monkeypatch.setattr(exp, "_root_degrees", honest + Counter({root: 1}))
            if interior:
                tried += 1
                with pytest.raises(NotReducible, match="has outside incidences"):
                    exp.check_reducible(kids)
            else:
                assert exp.check_reducible(kids) == p
    assert tried


# -- walk_forest rejections ----------------------------------------------------------


@pytest.mark.parametrize("cells, message", [
    ([("s", "0", "0"), ("s", "1")], "cells do not form a complete partition"),  # a gap
    ([("s", "0"), ("s", "1"), ("s", "0")],
     "('s', '0') is a duplicate cell or extended by another cell"),
    ([("s", "0"), ("s", "0", "1"), ("s", "1")], "('s', '0', '1') extends the cell ('s', '0')"),
    ([("s", "0", "1"), ("s", "0", "0"), ("s", "0"), ("s", "1")],
     "('s', '0') is a duplicate cell or extended by another cell"),
])
def test_walk_forest_rejects_non_partitions(cells, message):
    F = catalog("interval_F")
    with pytest.raises(NotACell) as e:
        walk_forest(F, F.base, cells)
    assert str(e.value) == message


def test_walk_forest_raises_key_error_outside_the_language():
    F = catalog("interval_F")
    with pytest.raises(KeyError) as e:
        walk_forest(F, F.base, [("s", "0"), ("s", "2")])
    assert type(e.value) is KeyError
