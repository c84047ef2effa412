import random

import pytest

from rewrite_groups.catalog import catalog, dendrite_edge_base
from rewrite_groups.graphs import ColoredGraph, Edge
from rewrite_groups.replacement import (
    GraphExpansion,
    NotACell,
    NotReducible,
    NotRepairable,
    RationalSequence,
    ReplacementSystem,
    Rule,
    base_expansion,
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
    S = ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})
    N = normalize_loops(S)
    assert len(N.colors) == 2
    # expansions agree letter-for-letter under the recorded relabeling
    for word in [("s", "a"), ("s", "b"), ("s", "b", "d"), ("s", "b", "b", "a")]:
        assert S.language_contains(word)
        image = translate_word(N, S, word)
        assert N.language_contains(image)
        assert [N.letter_origin[(None, image[0])]] + [
            N.letter_origin.get((N.word_colors(image[: i])[-1], image[i]), image[i])
            for i in range(1, len(image))
        ] == list(word)


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
