import itertools
import random

import pytest

from rewrite_groups.graphs import (
    ColoredGraph,
    Edge,
    apply_iso,
    automorphisms,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    isomorphisms,
)


def cycle3():
    return ColoredGraph("abc", [
        Edge("e1", "r", "a", "b"), Edge("e2", "r", "b", "c"), Edge("e3", "r", "c", "a"),
    ])


def test_single_edge_canonical():
    g1 = ColoredGraph(["v", "w"], [Edge("a", "k", "v", "w")])
    g2 = ColoredGraph(["p", "q"], [Edge("zz", "k", "p", "q")])
    assert g1.canonical_form() == g2.canonical_form()


def test_parallel_edges_keep_z_order():
    g = ColoredGraph(["u", "v"], [Edge("a", "r", "u", "v"), Edge("b", "r", "u", "v")])
    c = g.canonical_form()
    assert [e.name for e in c.edges] == ["e0", "e1"]
    assert g.parallel_index("a") == 1 and g.parallel_index("b") == 2


def test_airplane_expansion_renaming_invariance():
    # the same graph under two vertex namings canonicalizes identically
    def build(names):
        l, c1, c2, r = names
        return ColoredGraph([l, c1, c2, r], [
            Edge("b1", "b", c1, l),
            Edge("b2", "r", c2, c1),
            Edge("b3", "r", c1, c2),
            Edge("b4", "b", c2, r),
        ])

    g1 = build(["l", "x", "y", "r"])
    g2 = build(["A", "B", "C", "D"])
    assert g1.canonical_form().encoding() == g2.canonical_form().encoding()


def test_cycle_automorphisms():
    assert len(automorphisms(cycle3())) == 3


def test_star_automorphisms_fix_center():
    n = 3
    star = ColoredGraph(["c"] + [f"l{i}" for i in range(n)],
                        [Edge(f"e{i}", "k", "c", f"l{i}") for i in range(n)])
    autos = automorphisms(star)
    assert len(autos) == 6
    assert all(a.vertex_map["c"] == "c" for a in autos)


def test_different_colors_not_isomorphic():
    r = ColoredGraph(["u", "v"], [Edge("a", "red", "u", "v")])
    b = ColoredGraph(["u", "v"], [Edge("a", "blue", "u", "v")])
    assert isomorphisms(r, b) == []


def test_pinned_search():
    g = cycle3()
    pinned = isomorphisms(g, g, pinned={"a": "b"})
    assert len(pinned) == 1 and pinned[0].vertex_map == {"a": "b", "b": "c", "c": "a"}


def test_isolated_vertices_rejected():
    try:
        ColoredGraph(["a", "b", "c"], [Edge("e", "k", "a", "b")])
    except ValueError as e:
        assert "isolated" in str(e)
    else:
        raise AssertionError("isolated vertex accepted")


def _exhaustive_small_graphs(max_edges=3, colors=("A", "B")):
    """Every graph with <= max_edges edges over <= 2 colors, up to 3 vertices."""
    verts = ["u", "v", "w"]
    pairs = [(a, b) for a in verts for b in verts]
    for m in range(1, max_edges + 1):
        for combo in itertools.combinations_with_replacement(pairs, m):
            for coloring in itertools.product(colors, repeat=m):
                edges = [Edge(f"e{i}", coloring[i], a, b) for i, (a, b) in enumerate(combo)]
                touched = {x for e in edges for x in (e.src, e.dst)}
                yield ColoredGraph([v for v in verts if v in touched], edges)


def test_canonical_iff_isomorphic_exhaustive():
    graphs = list(_exhaustive_small_graphs())
    rng = random.Random(1)
    sample = rng.sample(graphs, 80)
    for g1 in sample:
        for g2 in rng.sample(graphs, 12):
            same = g1.canonical_key() == g2.canonical_key()
            iso = bool(isomorphisms(g1, g2, limit=1))
            assert same == iso, (g1.encoding(), g2.encoding())


def test_every_iso_maps_onto_canonical_equal():
    g1 = cycle3()
    perm = {"a": "x", "b": "y", "c": "z"}
    g2 = ColoredGraph(["x", "y", "z"], [
        Edge("f1", "r", "x", "y"), Edge("f2", "r", "y", "z"), Edge("f3", "r", "z", "x"),
    ])
    for iso in isomorphisms(g1, g2):
        assert apply_iso(g1, iso).canonical_key() == g2.canonical_key()


def test_flip_search_reports_reversals():
    # with both endpoints pinned, a reversed edge only matches through a flip
    g1 = ColoredGraph(["u", "v"], [Edge("a", "k", "u", "v")])
    g2 = ColoredGraph(["u", "v"], [Edge("b", "k", "v", "u")])
    pinned = {"u": "u", "v": "v"}
    assert isomorphisms(g1, g2, pinned=pinned) == []
    flips = isomorphisms(g1, g2, pinned=pinned, flip_colors=frozenset({"k"}))
    assert len(flips) == 1 and flips[0].flipped == frozenset({"a"})


def test_json_round_trip_and_dot():
    g = cycle3()
    assert graph_from_json(graph_to_json(g)) == g
    dot = graph_to_dot(g)
    assert dot.startswith("digraph") and dot.count("->") == 3


def test_degrees_count_loops_twice_and_parallel_edges_each():
    g = ColoredGraph("uvw", [
        Edge("a", "r", "u", "v"), Edge("b", "r", "u", "v"), Edge("c", "k", "v", "v"),
        Edge("d", "k", "w", "u"),
    ])
    for v in list(g.vertices) + ["absent"]:
        out = sum(1 for e in g.edges if e.src == v)
        into = sum(1 for e in g.edges if e.dst == v)
        assert (g.out_degree(v), g.in_degree(v), g.degree(v)) == (out, into, out + into)
    assert (g.degree("u"), g.degree("v"), g.degree("w")) == (3, 4, 1)


def test_equal_distinct_graphs_compare_by_encoding():
    def triangle(last="c"):
        return ColoredGraph(["u", "v", "w"], [
            Edge("a", "1", "u", "v"), Edge("b", "1", "v", "w"), Edge(last, "2", "w", "u"),
        ])

    g, h = triangle(), triangle()
    assert g is not h and g == h and hash(g) == hash(h)
    assert g == g
    assert g != triangle("d")
    assert g != "not a graph"


def _scanned_parallel_index(g: ColoredGraph, name: str) -> int:
    """``parallel_index`` as a scan of every edge, the reference."""
    e = g.edge(name)
    same = [f.name for f in g.edges if (f.color, f.src, f.dst) == (e.color, e.src, e.dst)]
    return same.index(name) + 1


def test_parallel_indices_match_a_scan_of_every_edge():
    from rewrite_groups.catalog import catalog
    from test_reduction import SYSTEMS

    graphs = []
    for name in SYSTEMS:
        S = catalog(name)
        graphs += [S.base, *(rule.graph for rule in S.rules.values())]
    parallel = 0
    for g in graphs:
        for e in g.edges:
            assert g.parallel_index(e.name) == _scanned_parallel_index(g, e.name)
            parallel += g.parallel_index(e.name) > 1
    assert parallel >= 5
    with pytest.raises(KeyError):
        graphs[0].parallel_index("no such edge")
