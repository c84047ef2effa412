import random

import pytest

from rewrite_groups.catalog import catalog, dendrite_edge_base
from rewrite_groups.graphs import ColoredGraph, Edge, UnionFind
from rewrite_groups.replacement import (
    GraphExpansion,
    MalformedSystem,
    NotACell,
    NotReducible,
    NotRepairable,
    RationalSequence,
    ReplacementSystem,
    Rule,
    base_expansion,
    expansion_containing,
    full_expansion,
    make_expanding,
    minimal_refinement,
    normalize_loops,
    translate_word,
)


def test_validate_interval():
    rep = catalog("interval_F").validate()
    assert rep.expanding and not rep.undirected_colors
    assert rep.loop_uniform and rep.finite_branching_sufficient


def test_validate_airplane_undirected_blue():
    rep = catalog("airplane").validate()
    assert rep.expanding
    assert rep.undirected_colors == frozenset({"b"})


def test_validate_qf_not_expanding_red_isolated():
    rep = catalog("QF").validate()
    assert not rep.expanding
    assert rep.null_expanding_isolated_colors == frozenset({"r"})


def test_validate_dendrite_undirected():
    rep = catalog("dendrite", 3).validate()
    assert rep.expanding and rep.undirected_colors == frozenset({"1"})


def test_normalize_basilica_two_colors():
    B = catalog("basilica")
    assert not B.validate().loop_uniform
    N = normalize_loops(B)
    assert N.validate().loop_uniform and len(N.colors) == 2
    loop_colors = [c for c in N.colors if N.rules[c].kind == "loop"]
    assert len(loop_colors) == 1
    lc = loop_colors[0]
    # base loops got the loop color; the loop rule has a single boundary vertex
    assert all(e.color == lc for e in N.base.edges)
    assert len(N.rules[lc].graph.edges) == 3


def test_normalize_interval_unchanged():
    I = catalog("interval_F")
    assert normalize_loops(I) is I


def test_normalize_toy_mixed_color_agrees_letterwise():
    # one color labels both a loop and a non-loop in its own rule
    rule = ColoredGraph(["i", "c", "t"], [
        Edge("a", "1", "i", "c"), Edge("b", "1", "c", "c"), Edge("d", "1", "c", "t"),
    ])
    base = ColoredGraph(["x", "y"], [Edge("s", "1", "x", "y")])
    toy = ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})
    names = ["circle_T", "basilica", "rabbit:2", "rabbit:3", "QT_expanding"]
    for S in [toy] + [catalog(name) for name in names]:
        N = normalize_loops(S)
        assert N is not S and len(N.colors) > len(S.colors)
        letters = sorted({e.name for ctx in [None, *S.colors] for e in S.graph_of(ctx).edges})
        assert letters == sorted({e.name for ctx in [None, *N.colors] for e in N.graph_of(ctx).edges})
        # up to depth 4, the two languages hold the same words
        level = [()]
        for _ in range(4):
            words = [w + (x,) for w in level for x in letters]
            assert [S.language_contains(w) for w in words] == [N.language_contains(w) for w in words]
            level = [w for w in words if S.language_contains(w)]
            assert all(translate_word(N, S, w) == w for w in level)
        # a word names the same cell, with the same ends, in both systems
        e, f = full_expansion(S, 4), full_expansion(N, 4)
        assert e.cells == f.cells
        for w in e.cells:
            (c, s, t), (cn, sn, tn) = e.cell_ends(w), f.cell_ends(w)
            assert (s, t) == (sn, tn), (S, w)
            assert cn == c or (N.rules[cn].kind == "loop" and s == t), (S, w)


def test_make_expanding_qf():
    S = catalog("QF")
    fixed, rewired = make_expanding(S)
    assert fixed.validate().expanding
    assert set(rewired) == {"r"}
    assert len(fixed.rules["r"].graph.edges) == 5
    assert len(fixed.rules["r"].graph.vertices) == 5


def test_make_expanding_houghton():
    S = catalog("houghton", 2)
    fixed, rewired = make_expanding(S)
    assert fixed.validate().expanding and set(rewired) == {"k"}


def test_make_expanding_identity_on_airplane():
    A = catalog("airplane")
    fixed, rewired = make_expanding(A)
    assert fixed is A and rewired == {}


def test_make_expanding_rejects_bad_system():
    # non-expanding for a reason other than null-expanding isolation
    rule = ColoredGraph(["i", "t"], [Edge("a", "1", "i", "t"), Edge("b", "1", "i", "t")])
    base = ColoredGraph(["x", "y"], [Edge("s", "1", "x", "y")])
    S = ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})
    with pytest.raises(NotRepairable):
        make_expanding(S)


def test_language_airplane_examples():
    A = catalog("airplane")
    assert A.language_contains(("s", "b2", "r1"))
    assert not A.language_contains(("s", "b2", "b1"))
    assert not A.language_contains(())


def test_full_expansions_interval():
    I = catalog("interval_F")
    assert [" ".join(w) for w in full_expansion(I, 1).cells] == ["s 0", "s 1"]
    assert [" ".join(w) for w in full_expansion(I, 2).cells] == [
        "s 0 0", "s 0 1", "s 1 0", "s 1 1"]


def _random_word(system, rng, length):
    """A word of the language: each letter an edge of the graph its context names."""
    word, g = [], system.base
    for _ in range(length):
        e = rng.choice(g.edges)
        word.append(e.name)
        g = system.rules[e.color].graph
    return tuple(word)


def _coarsest_cells(system, words):
    """The cells of the expansion whose interior words are the strict
    prefixes of ``words``, by a depth-first walk from the base: the reference."""
    interior = {w[:k] for w in words for k in range(1, len(w))}
    cells, stack = [], [(e.name,) for e in reversed(system.base.edges)]
    while stack:
        w = stack.pop()
        if w in interior:
            kids = system.rules[system.word_color(w)].graph.edges
            stack.extend(w + (e.name,) for e in reversed(kids))
        else:
            cells.append(w)
    return tuple(cells)


@pytest.mark.parametrize("name", ["interval_F", "airplane", "basilica", "dendrite:3", "vicsek:4"])
def test_expansion_containing_is_the_coarsest_expansion(name):
    S = catalog(name)
    rng = random.Random(name)
    for _ in range(12):
        words = [_random_word(S, rng, rng.randint(1, 9)) for _ in range(rng.randint(0, 4))]
        exp = expansion_containing(S, words)
        assert exp.cells == _coarsest_cells(S, words)
        assert exp.cells == GraphExpansion(S, exp.cells).cells


@pytest.mark.parametrize("words", [
    [("s", "x", "0")], [("q",)], [("s", "0"), ("s", "1", "2", "0")], [("s", "0", "0", "s")]])
def test_expansion_containing_refuses_words_outside_the_language(words):
    with pytest.raises(KeyError):
        expansion_containing(catalog("interval_F"), words)


def test_full_expansion_dendrite_edge_base():
    D = dendrite_edge_base(3)
    assert len(full_expansion(D, 1).cells) == 3


def test_full_expansion_matches_color_graph_paths():
    for name in ["interval_F", "airplane", "basilica"]:
        S = catalog(name)
        for depth in range(0, 4):
            cells = set(full_expansion(S, depth).cells)
            # enumerate length-(depth+1) words of the language directly
            words = {(e.name,) for e in S.base.edges}
            for _ in range(depth):
                words = {w + (e.name,) for w in words
                         for e in S.rules[S.word_color(w)].graph.edges}
            assert cells == words, (name, depth)


def test_airplane_expansion_shapes():
    A = catalog("airplane")
    e1 = base_expansion(A).expand(("s",))
    assert [" ".join(w) for w in e1.cells] == ["s b1", "s b2", "s b3", "s b4"]
    e2 = e1.expand(("s", "b2"))
    assert set(e2.cells) == set(e1.cells) - {("s", "b2")} | {
        ("s", "b2", "r1"), ("s", "b2", "r2"), ("s", "b2", "r3")}
    back = e2.reduce([("s", "b2", "r1"), ("s", "b2", "r2"), ("s", "b2", "r3")])
    assert back == e1


def test_expand_reduce_round_trip_random(rng):
    for name in ["airplane", "basilica", "dendrite:3"]:
        S = catalog(name)
        exp = base_expansion(S)
        for _ in range(6):
            w = rng.choice(exp.cells)
            bigger = exp.expand(w)
            kids = [c for c in bigger.cells if c[:-1] == w and len(c) == len(w) + 1]
            assert bigger.reduce(kids) == exp
            exp = bigger


def test_reduce_errors():
    I = catalog("interval_F")
    exp = base_expansion(I).expand(("s",))
    with pytest.raises(NotACell):
        exp.expand(("s",))
    with pytest.raises(NotReducible):
        exp.reduce([("s", "0")])


def test_minimal_refinement_simple():
    I = catalog("interval_F")
    e1 = base_expansion(I).expand(("s",))
    e0 = base_expansion(I)
    assert minimal_refinement(e1, e0) == e1
    assert minimal_refinement(e0, e1) == e1
    assert minimal_refinement(e1, e1) == e1


def test_minimal_refinement_airplane():
    A = catalog("airplane")
    s = base_expansion(A).expand(("s",))
    p1 = s.expand(("s", "b1"))
    p2 = s.expand(("s", "b2"))
    ref = minimal_refinement(p1, p2)
    assert set(ref.cells) == (set(p1.cells) | set(p2.cells)) - {("s", "b1"), ("s", "b2")}


def test_minimal_refinement_laws(rng):
    A = catalog("airplane")

    def random_exp():
        e = base_expansion(A)
        for _ in range(rng.randint(0, 4)):
            e = e.expand(rng.choice(e.cells))
        return e

    for _ in range(10):
        a, b, c = random_exp(), random_exp(), random_exp()
        assert minimal_refinement(a, b) == minimal_refinement(b, a)
        assert minimal_refinement(a, a) == a
        ab_c = minimal_refinement(minimal_refinement(a, b), c)
        a_bc = minimal_refinement(a, minimal_refinement(b, c))
        assert ab_c == a_bc


def _prefix_scan_refinement(e1, e2):
    """The common refinement by a scan of every pair of cells, the reference."""
    a, b = set(e1.cells), set(e2.cells)
    cells = set()
    for w in a:
        if any(w[: len(v)] == v for v in b if len(v) <= len(w)):
            cells.add(w)
    for w in b:
        if any(w[: len(v)] == v for v in a if len(v) < len(w)):
            cells.add(w)
    return GraphExpansion(e1.system, cells, e1.base)


@pytest.mark.parametrize("name", ["interval_F", "circle_T", "cantor_V", "airplane", "basilica",
                                  "dendrite:3", "vicsek:4"])
def test_minimal_refinement_equals_the_prefix_scan(name):
    S = catalog(name)
    rng = random.Random(name)

    def random_exp():
        e = base_expansion(S)
        for _ in range(rng.randint(0, 10)):
            e = e.expand(rng.choice(e.cells))
        return e

    for _ in range(12):
        a, b = random_exp(), random_exp()
        ref = _prefix_scan_refinement(a, b)
        out = minimal_refinement(a, b)
        assert out == ref and out.cells == ref.cells
        assert out.leaf_graph.encoding() == ref.leaf_graph.encoding()


def _pieces(base_edges, rules, colors=("L", "P")):
    """(colors, base, rules) of a system over the colors L (loop-kind) and P (pair)."""
    verts = sorted({v for e in base_edges for v in (e.src, e.dst)})
    return list(colors), ColoredGraph(verts, base_edges), rules


def _rules(q_src="m", boundary=("pair", "i", "t")):
    """L's rule, and P's, whose edge q of color L runs from ``q_src`` to m."""
    return {
        "L": Rule(ColoredGraph(["l", "v"], [Edge("a", "L", "l", "l"), Edge("b", "P", "l", "v"),
                                            Edge("c", "P", "v", "l")]), ("loop", "l")),
        "P": Rule(ColoredGraph(["i", "m", "t"], [Edge("p", "P", "i", "m"), Edge("q", "L", q_src, "m"),
                                                 Edge("r", "P", "m", "t")]), boundary),
    }


@pytest.mark.parametrize("pieces, message", [
    (_pieces([Edge("e", "L", "x", "x"), Edge("f", "Q", "x", "y")], _rules()),
     r"colors without declaration: \['Q'\]"),
    (_pieces([Edge("e", "L", "x", "x")], _rules(), colors=("L", "P", "Q")),
     "color 'Q' has no replacement rule"),
    (_pieces([Edge("e", "L", "x", "x")], _rules(boundary=("pair", "i", "z"))),
     "boundary vertex 'z' missing in rule 'P'"),
    (_pieces([Edge("e", "L", "x", "x")], _rules(boundary=("pair", "i", "i"))),
     "rule 'P': initial and terminal vertices coincide"),
    (_pieces([Edge("e", "L", "x", "y"), Edge("f", "P", "y", "x")], _rules()),
     "loop-boundary color 'L' colors the non-loop edge 'e'"),
    (_pieces([Edge("e", "L", "x", "x"), Edge("f", "P", "x", "y")], _rules(q_src="i")),
     "loop-boundary color 'L' colors the non-loop edge 'q'"),
], ids=["undeclared color", "color without a rule", "missing boundary vertex", "iota is tau",
        "loop color on a base edge", "loop color on a rule edge"])
def test_malformed_systems_are_refused(pieces, message):
    # each case breaks one thing of this system
    ReplacementSystem(*_pieces([Edge("e", "L", "x", "x"), Edge("f", "P", "x", "y")], _rules()))
    with pytest.raises(MalformedSystem, match=message):
        ReplacementSystem(*pieces)


def test_expansions_over_a_base_with_a_loop_color_on_a_non_loop_are_refused():
    B = normalize_loops(catalog("basilica"))
    bad = ColoredGraph(["b0", "b1"], [Edge("L", "1~", "b0", "b0"), Edge("R", "1~", "b0", "b1")])
    with pytest.raises(MalformedSystem, match="loop-boundary color '1~' colors the non-loop edge 'R'"):
        base_expansion(B, bad)
    good = ColoredGraph(["b0", "b1"], [Edge("L", "1~", "b0", "b0"), Edge("R", "1", "b0", "b1")])
    assert base_expansion(B, good).expand(("L",)).expand(("R",)).cells


def test_leaf_graphs_have_no_isolated_vertices(rng):
    for name in ["airplane", "basilica", "vicsek:4", "bubble_bath"]:
        S = catalog(name)
        e = base_expansion(S)
        for _ in range(5):
            e = e.expand(rng.choice(e.cells))
            ColoredGraph(e.leaf_graph.vertices, e.leaf_graph.edges)  # revalidates


def test_rational_sequence_normalization():
    s = RationalSequence.make(("a", "b"), ("c", "c"))
    assert s.period == ("c",)
    t = RationalSequence.make(("a", "b"), ("c", "b"))
    # the trailing letter of the prefix is absorbed into a rotated period
    assert t.prefix == ("a",) and t.period == ("b", "c")
    assert [t.letter(i) for i in range(5)] == ["a", "b", "c", "b", "c"]


@pytest.mark.parametrize("cells, error", [
    ([("s", "0"), ("s", "0"), ("s", "1")], NotACell),  # duplicate cells
    ([("s",), ("s", "0"), ("s", "1")], NotACell),  # a cell extending another
    ([("s", "0", "0"), ("s", "1")], NotACell),  # sibling s 0 1 missing
    ([(), ("s",)], NotACell),  # the empty word
    ([("s", "0"), ("s", "2")], KeyError),  # letter outside the language
    # a letter outside the language wins over every other fault
    ([("s",), ("s", "2")], KeyError),  # and a cell extending another
    ([("s", "0", "0"), ("s", "1"), ("s", "0", "7")], KeyError),  # and a missing sibling
    ([("s", "0"), ("s", "0"), ("s", "2")], KeyError),  # and a duplicate
])
def test_expansion_constructor_rejects(cells, error):
    with pytest.raises(error):
        GraphExpansion(catalog("interval_F"), cells)


@pytest.mark.parametrize("name, depth", [
    ("dendrite:3", 3), ("airplane", 3), ("basilica", 3), ("circle_T", 4)])
def test_full_expansion_equals_cell_by_cell(name, depth):
    S = catalog(name)
    exp = base_expansion(S)
    for _ in range(depth):
        for w in list(exp.cells):
            exp = exp.expand(w)
    fast = full_expansion(S, depth)
    assert fast.cells == exp.cells
    assert fast.leaf_graph.encoding() == exp.leaf_graph.encoding()


# -- the multi-pass build, kept as the reference of the one-walk build ----------


def _ref_addresses(system, base, words):
    """Sort key and color of each word and of each prefix of one."""
    out = {(): ((), None)}
    for w in words:
        i = len(w)
        while w[:i] not in out:
            i -= 1
        key, color = out[w[:i]]
        for j in range(i, len(w)):
            g = base if color is None else system.rules[color].graph
            key += (g.edge_index(w[j]),)
            color = g.edge(w[j]).color
            out[w[:j + 1]] = (key, color)
    return out


def _ref_check_antichain(system, base, cells, nodes):
    """The interior words with the letters that follow them; NotACell unless
    the cells are the leaves of a complete subforest."""
    if len(set(cells)) != len(cells):
        raise NotACell("duplicate cells")
    children = {}
    for w in nodes:
        if w:
            children.setdefault(w[:-1], set()).add(w[-1])
    for w in cells:
        if not w:
            raise NotACell("empty word is not a cell")
        if w in children:
            raise NotACell(f"a cell extends the cell {w}")
    if children.pop((), set()) != {e.name for e in base.edges}:
        raise NotACell("cells do not form a complete partition")
    for p, letters in children.items():
        if letters != {e.name for e in system.rules[nodes[p][1]].graph.edges}:
            raise NotACell("cells do not form a complete partition")
    return children


def _ref_forest_ends(system, base, cells, interior):
    """Union-find and (s, t, color) of every word of the forest, top-down."""
    uf = UnionFind()
    ends = {}
    for e in base.edges:
        s, t = ("b", e.src), ("b", e.dst)
        uf.add(s), uf.add(t)
        ends[(e.name,)] = (s, t, e.color)
    frontier = list(ends)
    while frontier:
        w = frontier.pop()
        if w in cells:
            continue
        if w not in interior:
            raise NotACell(f"{w} is neither a cell nor a prefix of one")
        s, t, color = ends[w]
        rule = system.rules[color]
        if rule.kind == "loop":
            uf.union(s, t)
            sub = {rule.iota: s}
        else:
            sub = {rule.iota: s, rule.tau: t}
        for v in rule.graph.vertices:
            if v not in sub:
                node = ("i", w, v)
                uf.add(node)
                sub[v] = node
        for e in rule.graph.edges:
            ends[w + (e.name,)] = (sub[e.src], sub[e.dst], e.color)
            frontier.append(w + (e.name,))
    return uf, ends


def _reference_build(system, cells, base=None):
    """Sorted cells, color of every forest word and leaf graph encoding."""
    base = base if base is not None else system.base
    cells = [tuple(c) for c in cells]
    nodes = _ref_addresses(system, base, cells)
    order = tuple(sorted(cells, key=lambda w: nodes[w][0]))
    interior = _ref_check_antichain(system, base, cells, nodes)
    uf, ends = _ref_forest_ends(system, base, set(cells), interior)
    names, verts, edges = {}, {}, []
    for w in order:
        s, t, color = ends[w]
        label = " ".join(w)
        sv = names.setdefault(uf.find(s), f"{label}/s")
        tv = names.setdefault(uf.find(t), f"{label}/t")
        verts.setdefault(sv)
        verts.setdefault(tv)
        edges.append(Edge(label, color, sv, tv))
    colors = {w: nodes[w][1] for w in nodes if w}
    return order, colors, ColoredGraph(verts, edges).encoding()


def _assert_matches_reference(system, cells, base=None):
    exp = GraphExpansion(system, cells, base)
    order, colors, leaf = _reference_build(system, cells, base)
    assert exp.cells == order
    assert {w: exp.cell_color(w) for w in colors} == colors  # cells and interior words
    assert exp.leaf_graph.encoding() == leaf
    return exp


def _random_cells(system, rng, steps, base=None):
    exp = base_expansion(system, base)
    for _ in range(steps):
        exp = exp.expand(rng.choice(exp.cells))
    cells = list(exp.cells)
    rng.shuffle(cells)
    return cells


@pytest.mark.parametrize("name", [
    "interval_F", "circle_T", "cantor_V", "airplane", "dendrite:3", "vicsek:4", "basilica"])
def test_one_walk_build_matches_reference(name, rng):
    S = catalog(name)
    for _ in range(12):
        _assert_matches_reference(S, _random_cells(S, rng, rng.randint(0, 14)))


def test_one_walk_build_matches_reference_with_loop_rules(rng):
    # the loop rule of the normalized basilica merges the ends of its edge
    N = normalize_loops(catalog("basilica"))
    assert any(r.kind == "loop" for r in N.rules.values())
    for _ in range(12):
        exp = _assert_matches_reference(N, _random_cells(N, rng, rng.randint(1, 14)))
        ColoredGraph(exp.leaf_graph.vertices, exp.leaf_graph.edges)  # revalidates


def test_one_walk_build_matches_reference_over_another_base(rng):
    # a generalized expansion over a leaf graph, as the conjugacy moves build them
    D = catalog("dendrite:3")
    base = GraphExpansion(D, [("1",), ("2", "1"), ("2", "2"), ("2", "3"), ("3",)]).leaf_graph
    for _ in range(12):
        exp = _assert_matches_reference(D, _random_cells(D, rng, rng.randint(0, 10), base), base)
        assert exp.base == base


@pytest.mark.parametrize("name", ["interval_F", "circle_T", "basilica", "airplane", "dendrite:3"])
def test_cell_ends_agree_with_leaf_graph(name, rng):
    S = catalog(name)
    loops = 0
    for _ in range(10):
        cells = _random_cells(S, rng, rng.randint(0, 14))
        exp = GraphExpansion(S, cells)
        name_of: dict = {}
        for w in exp.cells:
            color, s, t = exp.cell_ends(w)
            e = exp.cell_edge(w)
            assert color == e.color and (s == t) == e.is_loop
            loops += e.is_loop
            for root, vertex in ((s, e.src), (t, e.dst)):
                assert name_of.setdefault(root, vertex) == vertex
        # one root per vertex name and one name per root
        assert sorted(name_of.values()) == sorted(exp.leaf_graph.vertices)
        for root, vertex in name_of.items():
            assert exp.root_degree(root) == exp.leaf_graph.degree(vertex)
        assert exp.leaf_graph.encoding() == _reference_build(S, cells)[2]
    if name == "basilica":
        assert loops


def test_deep_words_build_without_recursion():
    # the domain cells of x0^1500 in F: words of up to 1502 letters, longer
    # than the default recursion limit
    n = 1500
    domain = [("s",) + ("0",) * (n + 1)]
    domain += [("s",) + ("0",) * j + ("1",) for j in range(n, 0, -1)]
    domain.append(("s", "1"))
    exp = _assert_matches_reference(catalog("interval_F"), domain)
    assert len(exp.cells) == n + 2


def _faulty(cells, rng):
    """``cells`` with one random fault of the kinds the constructor must reject."""
    cells = list(cells)
    w = rng.choice(cells)
    kind = rng.randrange(5)
    if kind == 0:
        cells.append(w)  # duplicate
    elif kind == 1:
        cells.remove(w)  # incomplete
    elif kind == 2:
        cells.append(w + ("0",) if w[-1] != "0" else w + ("1",))  # extends a cell
    elif kind == 3:
        cells.append(w[:-1] + ("?",))  # outside the language
    else:
        cells[cells.index(w)] = w[:-1]  # a prefix of its siblings
    rng.shuffle(cells)
    return cells


def _outcome(build):
    try:
        build()
    except (KeyError, NotACell) as e:
        return type(e)
    return None


@pytest.mark.parametrize("name", ["interval_F", "airplane", "dendrite:3"])
def test_one_walk_build_rejects_as_reference(name, rng):
    S = catalog(name)
    for _ in range(40):
        cells = _faulty(_random_cells(S, rng, rng.randint(1, 8)), rng)
        ref = _outcome(lambda: _reference_build(S, cells))
        assert _outcome(lambda: GraphExpansion(S, cells)) is ref


def _reference_from_rearrangement(g):
    """``strand.from_rearrangement`` with the endpoints of ``_ref_forest_ends``."""
    from rewrite_groups.rearrangement import reduced_flipless
    from rewrite_groups.strand import Strand, StrandDiagram

    g = reduced_flipless(g)
    system = g.system
    dom, ran = g.domain, g.range_
    dcells, rcells = set(dom.cells), set(ran.cells)
    # each proper prefix of a cell, with the index of the first cell below it
    dprefix, rprefix = {}, {}
    for prefix, cells in ((dprefix, dom.cells), (rprefix, ran.cells)):
        for i, w in enumerate(cells):
            for k in range(1, len(w)):
                prefix.setdefault(w[:k], i)
    duf, dends = _ref_forest_ends(system, dom.base, dcells, dprefix)
    ruf, rends = _ref_forest_ends(system, ran.base, rcells, rprefix)
    uf = UnionFind()
    for w in dom.cells:
        (ds, dt, _), (rs, rt, _) = dends[w], rends[g.phi[w]]
        uf.union(("D", duf.find(ds)), ("R", ruf.find(rs)))
        uf.union(("D", duf.find(dt)), ("R", ruf.find(rt)))
    names = {}

    def holder(ends, base, w):
        return base if len(w) == 1 else system.rules[ends[w[:-1]][2]].graph

    def label(side, forest, ends, base, w):
        syms = [names.setdefault(uf.find((side, forest.find(x))), f"x{len(names)}")
                for x in ends[w][:2]]
        return (syms[0], syms[1], holder(ends, base, w).parallel_index(w[-1]))

    nodes, strands, sources, sinks = {}, {}, [], []
    for i, e in enumerate(dom.base.edges):
        nodes[("src", i)] = "source"
        sources.append(("src", i))
    for i, e in enumerate(ran.base.edges):
        nodes[("snk", i)] = "sink"
        sinks.append(("snk", i))
    # splits and merges by length, then in the order of the cells below them
    for w in sorted(dprefix, key=lambda x: (len(x), dprefix[x])):
        nodes[("sp", w)] = ("split", dends[w][2])
    for v in sorted(rprefix, key=lambda x: (len(x), rprefix[x])):
        nodes[("mg", v)] = ("merge", rends[v][2])

    def upper_end(w):
        i = holder(dends, dom.base, w).edge_index(w[-1])
        return (("src", i), 0) if len(w) == 1 else (("sp", w[:-1]), i)

    def lower_end(v):
        i = holder(rends, ran.base, v).edge_index(v[-1])
        return (("snk", i), 0) if len(v) == 1 else (("mg", v[:-1]), i)

    sid = 0
    for w in sorted(dprefix.keys() | dcells, key=lambda x: (len(x), x)):
        dst = (("sp", w), 0) if w in dprefix else lower_end(g.phi[w])
        strands[f"s{sid}"] = Strand(dends[w][2], label("D", duf, dends, dom.base, w),
                                    upper_end(w), dst)
        sid += 1
    for v in sorted(rprefix, key=lambda x: (len(x), x)):
        strands[f"s{sid}"] = Strand(rends[v][2], label("R", ruf, rends, ran.base, v),
                                    (("mg", v), 0), lower_end(v))
        sid += 1
    return StrandDiagram(system, nodes, strands, sources, sinks)


@pytest.mark.parametrize("name", ["interval_F", "circle_T", "airplane", "dendrite:3", "basilica"])
def test_strand_diagrams_match_reference(name, rng):
    from rewrite_groups.rearrangement import random_rearrangement
    from rewrite_groups.strand import from_rearrangement

    S = catalog(name)
    split = 0
    for _ in range(8):
        g = random_rearrangement(S, rng, 4, 2)
        d, ref = from_rearrangement(g), _reference_from_rearrangement(g)
        assert list(d.nodes.items()) == list(ref.nodes.items())
        assert list(d.strands.items()) == list(ref.strands.items())
        assert (d.sources, d.sinks) == (ref.sources, ref.sinks)
        split += bool(d.splits())
    assert split  # some elements are not the identity
