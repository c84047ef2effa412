import json
import random

import pytest

from conftest import f_generators, padded_and_glued, type1_candidates, type2_candidates

from rewrite_groups.catalog import catalog
from rewrite_groups.rearrangement import (
    Rearrangement,
    compose as rcompose,
    from_cell_map,
    identity,
    invert as rinvert,
    power,
    random_rearrangement,
)
from rewrite_groups.graphs import UnionFind
from rewrite_groups.replacement import GraphExpansion, base_expansion
from rewrite_groups import strand as sd


def test_identity_is_disjoint_strands():
    A = catalog("airplane")
    d = sd.from_rearrangement(identity(A))
    assert len(d.strands) == len(A.base.edges)
    assert not d.splits() and not d.merges()


def test_round_trip_f_generator():
    F, x0, _ = f_generators()
    S = sd.from_rearrangement(x0)
    S.validate_r_branching()
    assert S.is_reduced()
    assert sd.to_rearrangement(S) == x0


def test_round_trip_random(rng):
    for name in ["interval_F", "airplane", "basilica", "dendrite:3"]:
        S = catalog(name)
        for i in range(10):
            g = random_rearrangement(S, rng, 2, 2)
            d = sd.from_rearrangement(g)
            d.validate_r_branching()
            assert sd.to_rearrangement(d) == g, (name, i)


def test_not_r_branching_condition_2():
    # a merge mirrored by a split carrying different labels
    A = catalog("airplane")
    nodes = {
        "so1": "source", "so2": "source", "so3": "source",
        "m": ("merge", "r"), "sp": ("split", "r"),
        "si1": "sink", "si2": "sink", "si3": "sink",
    }
    strands = {
        "a": sd.Strand("r", ("v", "a", 1), ("so1", 0), ("m", 0)),
        "b": sd.Strand("r", ("a", "w", 1), ("so2", 0), ("m", 1)),
        "c": sd.Strand("b", ("a", "b", 1), ("so3", 0), ("m", 2)),
        "mid": sd.Strand("r", ("v", "w", 1), ("m", 0), ("sp", 0)),
        "d": sd.Strand("r", ("v", "x", 1), ("sp", 0), ("si1", 0)),
        "e": sd.Strand("r", ("x", "w", 1), ("sp", 1), ("si2", 0)),
        "f": sd.Strand("b", ("x", "y", 1), ("sp", 2), ("si3", 0)),
    }
    # port order must match the red rule: r1, r2, r3 with r3 blue
    d = sd.StrandDiagram(A, nodes, strands,
                         ["so1", "so2", "so3"], ["si1", "si2", "si3"])
    with pytest.raises(sd.NotRBranching) as err:
        d.validate_r_branching()
    assert err.value.condition == 2


def test_not_r_branching_branch_color():
    # a blue strand into a red split whose kids copy the red rule faithfully
    A = catalog("airplane")
    nodes = {"so": "source", "sp": ("split", "r"), "si1": "sink", "si2": "sink", "si3": "sink"}
    strands = {
        "t": sd.Strand("b", ("v", "w", 1), ("so", 0), ("sp", 0)),
        "a": sd.Strand("r", ("v", "c", 1), ("sp", 0), ("si1", 0)),
        "b": sd.Strand("r", ("c", "w", 1), ("sp", 1), ("si2", 0)),
        "c": sd.Strand("b", ("c", "t", 1), ("sp", 2), ("si3", 0)),
    }
    d = sd.StrandDiagram(A, nodes, strands, ["so"], ["si1", "si2", "si3"])
    with pytest.raises(sd.NotRBranching) as err:
        d.validate_r_branching()
    assert err.value.condition == 1


def test_not_r_branching_condition_3():
    # the same symbol generated by two splits with different branching labels
    I = catalog("interval_F")
    nodes = {
        "so1": "source", "so2": "source",
        "s1": ("split", "1"), "s2": ("split", "1"),
        "si1": "sink", "si2": "sink", "si3": "sink", "si4": "sink",
    }
    strands = {
        "t1": sd.Strand("1", ("x", "y", 1), ("so1", 0), ("s1", 0)),
        "t2": sd.Strand("1", ("v", "w", 1), ("so2", 0), ("s2", 0)),
        "a": sd.Strand("1", ("x", "b", 1), ("s1", 0), ("si1", 0)),
        "b": sd.Strand("1", ("b", "y", 1), ("s1", 1), ("si2", 0)),
        "c": sd.Strand("1", ("v", "b", 1), ("s2", 0), ("si3", 0)),
        "d": sd.Strand("1", ("b", "w", 1), ("s2", 1), ("si4", 0)),
    }
    d = sd.StrandDiagram(I, nodes, strands,
                         ["so1", "so2"], ["si1", "si2", "si3", "si4"])
    with pytest.raises(sd.NotRBranching) as err:
        d.validate_r_branching()
    assert err.value.condition == 3


def test_type1_minimal_instance():
    # a split directly on top of a matching merge reduces to a single strand
    I = catalog("interval_F")
    nodes = {"so": "source", "sp": ("split", "1"), "m": ("merge", "1"), "si": "sink"}
    strands = {
        "t": sd.Strand("1", ("i", "t", 1), ("so", 0), ("sp", 0)),
        "a": sd.Strand("1", ("i", "c", 1), ("sp", 0), ("m", 0)),
        "b": sd.Strand("1", ("c", "t", 1), ("sp", 1), ("m", 1)),
        "u": sd.Strand("1", ("i", "t", 1), ("m", 0), ("si", 0)),
    }
    d = sd.StrandDiagram(I, nodes, strands, ["so"], ["si"])
    d.validate_r_branching()
    r = d.reduce()
    assert len(r.strands) == 1 and not r.splits()


def test_reduction_confluence_random_orders(rng):
    for name in ["airplane", "basilica"]:
        S = catalog(name)
        unreduced = 0
        for i in range(8):
            g = random_rearrangement(S, rng, 2, 2)
            h = random_rearrangement(S, rng, 2, 2)
            Sg, Sh = sd.from_rearrangement(g), sd.from_rearrangement(h)
            c = sd._glued_composite(Sg, Sh)
            unreduced += not c.is_reduced()
            r = c.reduce(random.Random(i))
            assert r == c.reduce(random.Random(i + 1000)) == sd.compose(Sg, Sh)
        assert unreduced, name


def _unify_mirror_labels(d, merge_nid, split_nid):
    """Rename symbols so that a merge above a split carries equal labels.

    Each symbol becomes the least (by repr) symbol that the pair forces it
    equal to.
    """
    uf = UnionFind()
    for a, b in d.mirrored(merge_nid, split_nid):
        for x, y in zip(d.strands[a].label[:2], d.strands[b].label[:2]):
            uf.union(x, y)
    mapping = {}
    for members in uf.classes().values():
        least = min(members, key=repr)
        mapping.update((x, least) for x in members)
    return d.rename(mapping)


def _apply_type2(d, merge_nid, split_nid):
    """Cancel a Type 2 pair, renaming first if its labels differ; and whether it renamed."""
    renames = any(d.strands[a].label[:2] != d.strands[b].label[:2]
                  for a, b in d.mirrored(merge_nid, split_nid))
    if renames:
        d = _unify_mirror_labels(d, merge_nid, split_nid)
    return d.cancel_type2(merge_nid, split_nid), renames


def _reduce_renaming_at_every_pair(d, rng=None):
    """The reduction that renames at each Type 2 pair, and how often it renamed.

    It rescans every node for pairs after each move and lists them in the
    library's order: Type 1 pairs in split order, else Type 2 pairs in merge
    order; it takes the first, or with ``rng`` a random one.
    """
    renamings = 0
    while True:
        order = {n: i for i, n in enumerate(d.nodes)}
        pairs = type1_candidates(d) or sorted(type2_candidates(d), key=lambda p: order[p[0]])
        if not pairs:
            return d, renamings
        pair = rng.choice(pairs) if rng is not None else pairs[0]
        if d.nodes[pair[0]][0] == "split":
            d = d.cancel_type1(*pair)
        else:
            d, renamed = _apply_type2(d, *pair)
            renamings += renamed


def test_reduce_renames_once_as_at_every_pair(rng):
    renamings = 0
    for i, d in enumerate(padded_and_glued(rng)):
        for order in (None, i):
            want, n = _reduce_renaming_at_every_pair(
                d, None if order is None else random.Random(order))
            got = d.reduce(None if order is None else random.Random(order))
            assert sd.strand_to_json(got) == sd.strand_to_json(want), (i, order)
            renamings += n
    assert renamings


@pytest.mark.parametrize("n", [32, 128])
def test_composition_follows_each_chain_about_once(n, monkeypatch):
    # the cancel and mixed families of the strand_compose curve of
    # tools/layer_timings.py: a cancellation follows again only the chains
    # that reach a strand it put, so the whole reduction follows O(strands)
    F, x0, x1 = f_generators()
    p = power(x0, n)
    S = sd.from_rearrangement
    chain, calls = sd.Diagram._chain, []
    monkeypatch.setattr(sd.Diagram, "_chain", lambda d, *args: calls.append(d) or chain(d, *args))
    for f, g in ((S(p), S(rinvert(p))), (S(rcompose(x1, p)), S(p))):
        glued = sd._glued_composite(f, g)
        calls.clear()
        glued.reduce()
        # the first scan follows the chain of every split and merge
        assert len(glued.splits()) + len(glued.merges()) <= len(calls) <= 2 * len(glued.strands)


def test_composition_homomorphism(rng):
    for name in ["interval_F", "circle_T", "airplane", "dendrite:3", "basilica", "rabbit:3"]:
        S = catalog(name)
        for i in range(8):
            g = random_rearrangement(S, rng, 2, 2)
            h = random_rearrangement(S, rng, 2, 2)
            C = sd.compose(sd.from_rearrangement(g), sd.from_rearrangement(h))
            C.validate_r_branching()
            assert sd.to_rearrangement(C) == rcompose(g, h), (name, i)
            assert C == sd.from_rearrangement(rcompose(g, h)), (name, i)


def test_inverse_compose_is_identity(rng):
    # basilica and rabbit:3 have parallel loops, whose z indices differ
    # between a diagram and its inverse
    for name in ["airplane", "basilica", "rabbit:3"]:
        S = catalog(name)
        for i in range(6):
            g = random_rearrangement(S, rng, 2, 2)
            D = sd.from_rearrangement(g)
            D.validate_r_branching()
            assert sd.invert(D) == sd.from_rearrangement(rinvert(g)), (name, i)
            assert sd.compose(D, sd.invert(D)) == sd.from_rearrangement(identity(S)), (name, i)


def test_key_tells_parallel_merge_ports_apart():
    # loops 1, 2 and 3 of the rabbit:3 rule are parallel, so the strands
    # through them carry equal symbols; only the merge ports they enter tell
    # which loop goes where
    R = catalog("rabbit:3")
    cells = [("A", e) for e in "01234"] + [("B",), ("C",), ("D",)]

    def swapping(a, b):
        phi = {c: c for c in cells}
        phi[("A", a)], phi[("A", b)] = ("A", b), ("A", a)
        return from_cell_map(R, phi.items())

    g, h = swapping("1", "2"), swapping("2", "3")
    assert g != h
    assert sd.from_rearrangement(g) != sd.from_rearrangement(h)
    assert sd.to_rearrangement(sd.from_rearrangement(h)) == h


@pytest.mark.parametrize("name", ["interval_F", "circle_T", "cantor_V", "airplane", "basilica",
                                  "dendrite:3", "rabbit:3"])
def test_glued_nodes_do_not_depend_on_how_the_expansions_were_built(name):
    # split-built forests keep their interior words in another order than
    # walked ones; the glued nodes and strands must not see it
    S = catalog(name)
    rng = random.Random(name)
    for _ in range(10):
        g = random_rearrangement(S, rng).flipless()
        for _ in range(6):
            g = g.expand_at(rng.choice(g.domain.cells))
        walked = Rearrangement(GraphExpansion(S, g.phi, g.domain.base), g.phi,
                               GraphExpansion(S, g.phi.values(), g.range_.base), _reduced=True)
        for closed in (False, True):
            nodes, strands, _, _ = sd.glue_forests(g, closed)
            ref_nodes, ref_strands, _, _ = sd.glue_forests(walked, closed)
            assert list(nodes.items()) == list(ref_nodes.items()), closed
            assert list(strands.items()) == list(ref_strands.items()), closed


def test_cut_counts_paths():
    F, x0, _ = f_generators()
    S = sd.from_rearrangement(x0)
    up, low, phi = sd.cut(S)
    assert len(phi) == len(x0.domain.cells)
    assert sorted(phi) == sorted(up.values())


def test_decompose_pure_permutation():
    # identity over a two-edge base twisted by a transposition is M=S=empty
    V = catalog("cantor_V")
    B = base_expansion(V).expand(("s",)).leaf_graph
    exp = base_expansion(V, B)
    cells = list(exp.cells)
    phi = {cells[0]: cells[1], cells[1]: cells[0]}
    g = Rearrangement(exp, phi, exp)
    d = sd.from_rearrangement(g)
    merges, perm, splits = sd.decompose(d)
    assert merges == [] and splits == [] and perm == (1, 0)


def test_decompose_mps_round():
    F, x0, _ = f_generators()
    merges, perm, splits = sd.decompose(sd.from_rearrangement(x0))
    assert splits and merges
    assert sorted(perm) == list(range(len(perm)))


def test_incompatible_composition():
    F, x0, _ = f_generators()
    A = catalog("airplane")
    with pytest.raises(sd.Incompatible):
        sd.compose(sd.from_rearrangement(x0), sd.from_rearrangement(identity(A)))


def test_json_and_dot():
    F, x0, _ = f_generators()
    S = sd.from_rearrangement(x0)
    data = json.loads(json.dumps(sd.strand_to_json(S)))
    assert sd.strand_from_json(F, data) == S
    dot = sd.strand_to_dot(S)
    assert "invtriangle" in dot and "triangle" in dot
