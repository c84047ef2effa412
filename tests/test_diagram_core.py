"""The wiring and reduction core shared by open and closed strand diagrams."""

from dataclasses import replace

import pytest

from conftest import f_generators

from rewrite_groups import conjugacy as cj
from rewrite_groups import strand as sd
from rewrite_groups.catalog import catalog
from rewrite_groups.graphs import ColoredGraph, Edge
from rewrite_groups.rearrangement import invert, random_rearrangement
from rewrite_groups.replacement import ReplacementSystem, Rule


def _kids(color, *labels):
    return [sd.Strand(color, label, (None, 0), (None, 0)) for label in labels]


def test_copy_defect_names_each_defect():
    rule = catalog("interval_F").rules["1"]  # p0 -0-> p1 -1-> p2, iota p0, tau p2
    sub = {}
    assert sd.copy_defect(rule, _kids("1", ("a", "b", 1), ("b", "c", 1)), sub) is None
    assert sub == {"p0": "a", "p1": "b", "p2": "c"}
    # iota and tau may coincide: the copy of a loop cell
    assert sd.copy_defect(rule, _kids("1", ("a", "b", 1), ("b", "a", 1)), {}) is None
    assert sd.copy_defect(rule, _kids("x", ("a", "b", 1), ("b", "c", 1)), {}) == \
        "port color 'x' should be '1'"
    assert sd.copy_defect(rule, _kids("1", ("a", "b", 1), ("c", "d", 1)), {}) == \
        "inconsistent substitution at p1"
    assert sd.copy_defect(rule, _kids("1", ("a", "a", 1), ("a", "c", 1)), {}) == \
        "substitution not injective"
    # seeded branching endpoints must agree with the copy
    assert sd.copy_defect(rule, _kids("1", ("a", "b", 1), ("b", "c", 1)),
                          {"p0": "a", "p2": "d"}) == "inconsistent substitution at p2"


def test_copy_defect_parallel_strands_need_distinct_z():
    tree = ColoredGraph(["i", "m", "t"], [Edge("e1", "a", "i", "m"), Edge("e2", "a", "i", "m"),
                                          Edge("e3", "a", "m", "t")])
    system = ReplacementSystem(["a"], ColoredGraph(["u", "v"], [Edge("s", "a", "u", "v")]),
                               {"a": Rule(tree, ("pair", "i", "t"))})
    rule = system.rules["a"]
    assert sd.copy_defect(rule, _kids("a", ("p", "q", 1), ("p", "q", 2), ("q", "r", 1)), {}) is None
    assert sd.copy_defect(rule, _kids("a", ("p", "q", 1), ("p", "q", 1), ("q", "r", 1)), {}) == \
        "parallel strands share a z index"


def test_faithful_copy_violation_is_condition_1():
    F = catalog("interval_F")
    nodes = {"so": "source", "sp": ("split", "1"), "si1": "sink", "si2": "sink"}
    strands = {
        "t": sd.Strand("1", ("i", "t", 1), ("so", 0), ("sp", 0)),
        "a": sd.Strand("1", ("i", "c", 1), ("sp", 0), ("si1", 0)),
        "b": sd.Strand("1", ("x", "t", 1), ("sp", 1), ("si2", 0)),
    }
    d = sd.StrandDiagram(F, nodes, strands, ["so"], ["si1", "si2"])
    with pytest.raises(sd.NotRBranching) as err:
        d.validate_r_branching()
    assert err.value.condition == 1 and "inconsistent substitution at p1" in str(err.value)


def test_type2_pair_with_differing_labels_is_unified():
    # a merge feeding a split whose copies named the middle vertex c and x
    F = catalog("interval_F")
    nodes = {"so1": "source", "so2": "source", "m": ("merge", "1"), "sp": ("split", "1"),
             "si1": "sink", "si2": "sink"}
    strands = {
        "a": sd.Strand("1", ("i", "c", 1), ("so1", 0), ("m", 0)),
        "b": sd.Strand("1", ("c", "t", 1), ("so2", 0), ("m", 1)),
        "mid": sd.Strand("1", ("i", "t", 1), ("m", 0), ("sp", 0)),
        "d": sd.Strand("1", ("i", "x", 1), ("sp", 0), ("si1", 0)),
        "e": sd.Strand("1", ("x", "t", 1), ("sp", 1), ("si2", 0)),
    }
    d = sd.StrandDiagram(F, nodes, strands, ["so1", "so2"], ["si1", "si2"])
    r = d.reduce()
    assert not r.splits() and not r.merges()
    assert r.source_labels() == [("i", "c", 1), ("c", "t", 1)]
    assert r.sink_labels() == r.source_labels()


def test_closed_shift_refuses_labels_that_are_no_faithful_copy():
    _F, x0, _ = f_generators()
    eta = cj.close_element(x0)
    bp = next(b for kind, b in cj.all_shifts(eta) if kind == "shift_down_split")
    d = cj.shift_down_split(eta, bp).diagram
    snode = next(n for kind, n in cj.all_shifts(d) if kind == "shift_up_split")
    cj.shift_up_split(d, snode)
    below = d.out_strand(d.strands[d.out_strand(snode, 0)].dst[0])
    strands = dict(d.strands)
    v, _w, z = strands[below].label  # _w is also the first symbol below port 1
    strands[below] = replace(strands[below], label=(v, "fresh", z))
    broken = cj.ClosedDiagram(d.system, d.nodes, strands, d.counter)
    with pytest.raises(cj.NotAdjacent):
        cj.shift_up_split(broken, snode)


def test_injective_except_allows_only_the_glue_pair():
    assert sd.injective_except({"i": "a", "m": "b", "t": "c"}, ("i", "t"))
    assert sd.injective_except({"i": "a", "m": "b", "t": "a"}, ("i", "t"))
    assert not sd.injective_except({"i": "a", "m": "b", "t": "a"})
    assert not sd.injective_except({"i": "a", "m": "a", "t": "c"}, ("i", "t"))
    assert not sd.injective_except({"i": "a", "m": "a", "t": "a"}, ("i", "t"))
    # a partial map: a collision away from the glue pair is refused at once
    assert not sd.injective_except({"m": "a", "n": "a"}, ("i", "t"))


def test_ends_must_spell_a_graph():
    F = catalog("interval_F")
    # the ends of two parallel strands name y twice
    path = ColoredGraph(["x", "y", "z"], [Edge("e", "1", "x", "y"), Edge("f", "1", "y", "z")])
    nodes = {"so1": "source", "so2": "source", "si1": "sink", "si2": "sink"}
    strands = {"p": sd.Strand("1", ("a", "b", 1), ("so1", 0), ("si1", 0)),
               "q": sd.Strand("1", ("c", "d", 1), ("so2", 0), ("si2", 0))}
    d = sd.StrandDiagram(F, nodes, strands, ["so1", "so2"], ["si1", "si2"])
    with pytest.raises(sd.NotXDiagram, match="end labels do not spell the base graph"):
        sd.to_rearrangement(d, path, path)
    # a split and a merge whose outer labels send the sink symbols f and a both to a
    nodes = {"so1": "source", "so2": "source", "sp": ("split", "1"), "m": ("merge", "1"),
             "si1": "sink", "si2": "sink"}
    strands = {"p": sd.Strand("1", ("a", "b", 1), ("so1", 0), ("si1", 0)),
               "top": sd.Strand("1", ("c", "a", 1), ("so2", 0), ("sp", 0)),
               "k0": sd.Strand("1", ("c", "m", 1), ("sp", 0), ("m", 0)),
               "k1": sd.Strand("1", ("m", "a", 1), ("sp", 1), ("m", 1)),
               "low": sd.Strand("1", ("e", "f", 1), ("m", 0), ("si2", 0))}
    d = sd.StrandDiagram(F, nodes, strands, ["so1", "so2"], ["si1", "si2"])
    with pytest.raises(sd.NotXDiagram, match="sources and sinks spell different graphs"):
        cj.close(d)


def test_edits_refuse_malformed_wiring():
    _F, x0, _ = f_generators()
    closed = cj.close_element(x0)
    for d in (closed, closed.open_diagram()):
        snode = d.splits()[0]
        top = d.in_strand(snode)
        s = d.strands[top]
        with pytest.raises(sd.NotXDiagram, match="left at dropped node"):
            d._edit(drop_nodes=(snode,))
        with pytest.raises(sd.NotXDiagram, match="share port"):
            d._edit(put={"extra": sd.Strand(s.color, s.label, s.src, ("elsewhere", 0))})
        with pytest.raises(sd.NotXDiagram, match="unknown node"):
            d._edit(put={top: sd.Strand(s.color, s.label, s.src, ("nowhere", 0))})
        with pytest.raises(sd.NotXDiagram, match="in ports"):  # the split loses its in strand
            d._edit(drop=(top,))
        assert d._edit().strands == d.strands


def test_edited_open_diagrams_keep_an_exact_port_index(rng, monkeypatch):
    made = []
    edit = sd.Diagram._edit

    def recording(self, *args):
        d = edit(self, *args)
        made.append(d)
        return d

    monkeypatch.setattr(sd.Diagram, "_edit", recording)
    for name in ("interval_F", "cantor_V", "basilica", "dendrite:3"):
        g = random_rearrangement(catalog(name), rng, 3, 2)
        sd.compose(sd.from_rearrangement(invert(g)), sd.from_rearrangement(g))
    monkeypatch.undo()
    assert len(made) >= 20 and {type(d) for d in made} == {sd.StrandDiagram}
    for d in made:
        fresh = sd.StrandDiagram(d.system, d.nodes, d.strands, d.sources, d.sinks)
        assert (d._out, d._in) == (fresh._out, fresh._in)
