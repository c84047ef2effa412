import collections
import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import f_generators, padded_and_glued, type1_candidates, type2_candidates

from rewrite_groups.catalog import catalog
from rewrite_groups.graphs import ColoredGraph, Edge
from rewrite_groups.rearrangement import (
    Rearrangement,
    compose,
    conjugate_by,
    from_cell_map,
    identity,
    invert,
    product,
    random_rearrangement,
    rearrangement_from_json,
)
from rewrite_groups.replacement import GraphExpansion, ReplacementSystem, Rule, base_expansion
from rewrite_groups import conjugacy as cj
from rewrite_groups import strand as sd


def bad_two_color_system():
    """The two-color rules red <-> r b b r, blue <-> b r r b."""
    base = ColoredGraph(["x", "y"], [Edge("s", "r", "x", "y")])

    def seq(colors, pref):
        verts = [f"{pref}{i}" for i in range(5)]
        edges = [Edge(f"{pref}{i}", c, verts[i], verts[i + 1]) for i, c in enumerate(colors)]
        return ColoredGraph(verts, edges), verts[0], verts[-1]

    rg, ri, rt = seq(["r", "b", "b", "r"], "p")
    bg, bi, bt = seq(["b", "r", "r", "b"], "q")
    return ReplacementSystem(["r", "b"], base, {
        "r": Rule(rg, ("pair", ri, rt)), "b": Rule(bg, ("pair", bi, bt))})


# -- closing and opening ---------------------------------------------------------


def test_close_identity_single_loop():
    F, x0, _ = f_generators()
    eta = cj.close_element(identity(F))
    assert len(eta.bps()) == 1 and not eta.splits() and not eta.merges()
    red, log = cj.reduce_closed(eta)
    assert red == eta and log == []


def test_identity_on_expansion_reduces_to_single_loop():
    # one Type 3 merges the two base loops into one
    F, _, _ = f_generators()
    B = GraphExpansion(F, [("s", "0"), ("s", "1")]).leaf_graph
    g = identity(F, base=B)
    eta = cj.close(sd.from_rearrangement(g, reduce=False))
    assert len(cj.pure_loops(eta)) == 2
    red, log = cj.reduce_closed(eta)
    assert len(red.bps()) == 1 and len(log) == 1
    assert red == cj.close_element(identity(F))


def test_open_close_round_trip(rng):
    for name in ["interval_F", "airplane", "basilica"]:
        S = catalog(name)
        for i in range(8):
            g = random_rearrangement(S, rng, 2, 2)
            d = sd.from_rearrangement(g)
            eta = cj.close(d)
            back = eta.open_diagram()
            # cutting at the base line recovers the element up to renaming
            b = eta.base_graph()
            assert sd.to_rearrangement(back, b, b) == \
                conjugate_by(g, cj.initial_renaming(S, eta, g)), (name, i)
            assert cj.close(back) == eta, (name, i)


def test_shift_then_inverse_shift(rng):
    A = catalog("airplane")
    for i in range(6):
        g = random_rearrangement(A, rng, 2, 2)
        eta, _ = cj.reduce_closed(cj.close_element(g))
        for spec in cj.all_shifts(eta):
            mv = cj.apply_shift(eta, spec)
            # some inverse move restores the original up to renaming
            back = [cj.apply_shift(mv.diagram, s2).diagram
                    for s2 in cj.all_shifts(mv.diagram)]
            assert any(b == eta for b in back), (i, spec)


# -- conjugator bookkeeping --------------------------------------------------------


def test_move_conjugators_verified(rng):
    for name in ["interval_F", "airplane", "basilica", "dendrite:3"]:
        S = catalog(name)
        g = random_rearrangement(S, rng, 2, 2)
        eta0 = cj.close_element(g)
        K = cj.initial_renaming(S, eta0, g)
        assert eta0.open_element() == conjugate_by(g, K)
        eta, log = cj.reduce_closed(eta0)
        for mv in log:
            K = compose(K, mv.conj)
        assert eta.open_element() == conjugate_by(g, K), name
        for spec in cj.all_shifts(eta)[:3] + cj.all_flips(eta)[:2]:
            mv = cj.apply_shift(eta, spec)
            K2 = compose(K, mv.conj)
            assert mv.diagram.open_element() == conjugate_by(g, K2), (name, spec)


# -- reduction-confluence ------------------------------------------------------------


CONFLUENT = ["interval_F", "circle_T", "cantor_V", "F:3,2", "basilica", "rabbit:2",
             "dendrite:3", "dendrite:4", "dendrite:5", "vicsek:4", "bubble_bath",
             "QF", "QT", "QV", "houghton:2", "houghton:3"]


def test_confluence_verdicts():
    for name in CONFLUENT:
        verdict = cj.check_reduction_confluence(catalog(name), 4)
        assert verdict.is_confluent, name


def test_airplane_not_confluent_with_witness():
    verdict = cj.check_reduction_confluence(catalog("airplane"), 4)
    assert verdict.kind == "not_confluent"
    forms = verdict.witness_forms
    assert len(forms) >= 2
    keys = {f.canonical_key() for f in forms}
    assert len(keys) >= 2
    sizes = sorted(len(f.edges) for f in forms)
    assert sizes[0] == 1  # the single blue edge vs the loop-carrying graph


def test_augmented_airplane_confluent():
    A = catalog("airplane")
    aug = cj.augment_airplane(A)
    verdict = cj.check_reduction_confluence(catalog("airplane"), 4, virtual=aug.virtual)
    assert verdict.is_confluent


def test_bad_system_stays_not_confluent():
    S = bad_two_color_system()
    verdict = cj.check_reduction_confluence(S, 3)
    assert verdict.kind in ("not_confluent", "inconclusive")
    # adding the obvious extra rule does not restore confluence
    lhs, _, _ = None, None, None
    red_rule = S.rules["r"].graph
    vr = cj.VirtualReduction(
        lhs=ColoredGraph(
            ["a", "b", "c", "d"],
            [Edge("u", "r", "a", "b"), Edge("v", "r", "b", "c"), Edge("w", "b", "c", "d")],
        ),
        rhs_color="b",
        rhs_src=("vertex", "a"),
        rhs_dst=("fresh", "z"),
        expansion_map={},
    )
    with pytest.raises(cj.WitnessInvalid):
        cj.add_virtual_reduction(S, vr)


def test_invalid_witness_rejected():
    A = catalog("airplane")
    lhs = ColoredGraph(["x", "v"], [Edge("loop", "r", "x", "x"), Edge("out", "b", "x", "v")])
    vr = cj.VirtualReduction(
        lhs=lhs, rhs_color="b", rhs_src=("vertex", "v"), rhs_dst=("fresh", "w"),
        expansion_map={"b1": ("edge", "out"), "b2": ("child", "loop", "r1"),
                       "b3": ("child", "loop", "r3"), "b4": ("child", "loop", "r2")},
    )
    with pytest.raises(cj.WitnessInvalid):
        cj.add_virtual_reduction(A, vr)


def test_airplane_identity_two_reduced_forms():
    A = catalog("airplane")
    B = base_expansion(A).expand(("s",)).leaf_graph
    eta = cj.close(sd.from_rearrangement(identity(A, base=B), reduce=False))
    forms = set()
    for seed in range(30):
        red, _ = cj.reduce_closed(eta, rng=random.Random(seed))
        forms.add(red.canonical_key())
    assert len(forms) == 2
    aug = cj.augment_airplane(A)
    forms_aug = set()
    for seed in range(30):
        red, _ = cj.reduce_closed(eta, aug.virtual, rng=random.Random(seed))
        forms_aug.add(red.canonical_key())
    assert len(forms_aug) == 1


# -- conjugacy -------------------------------------------------------------------------


def test_conjugate_identity_pair():
    F, _, _ = f_generators()
    k = cj.conjugate(identity(F), identity(F))
    assert k is not None and conjugate_by(identity(F), k) == identity(F)


def test_conjugate_round_trip_all_systems(rng):
    for name in ["interval_F", "circle_T", "cantor_V", "basilica", "dendrite:3", "rabbit:2"]:
        S = catalog(name)
        for i in range(8):
            g = random_rearrangement(S, rng, 2, 2)
            kk = random_rearrangement(S, rng, 2, 2)
            h = conjugate_by(g, kk)
            k2 = cj.conjugate(g, h, assume_confluent=True)
            assert k2 is not None, (name, i)
            assert conjugate_by(g, k2) == h, (name, i)


def test_conjugate_airplane_augmented(rng):
    A = catalog("airplane")
    aug = cj.augment_airplane(A)
    for i in range(8):
        g = random_rearrangement(A, rng, 2, 2)
        kk = random_rearrangement(A, rng, 2, 2)
        h = conjugate_by(g, kk)
        k2 = cj.conjugate(g, h, rules=aug)
        assert k2 is not None and conjugate_by(g, k2) == h, i


def test_conjugate_requires_confluence():
    A = catalog("airplane")
    with pytest.raises(cj.RulesNotConfluent):
        cj.conjugate(identity(A), identity(A))


def test_f_endpoint_germs_obstruct_conjugacy():
    F, x0, x1 = f_generators()
    # x1 acts trivially near 0 while x0 does not: never conjugate
    assert cj.conjugate(x0, x1) is None
    assert cj.conjugate(x0, invert(x0)) is None  # slopes at 0 differ (2 vs 1/2)


def test_dendrite_phi_negatives():
    from rewrite_groups.analysis import dendrite_generators, dendrite_phi

    gens = dendrite_generators(3)
    g0, g1, tau2 = gens["g0"], gens["g1"], gens["tau2"]
    g0g1 = compose(g1, g0)
    labeled = {"g0": g0, "g1": g1, "tau2": tau2, "g0g1": g0g1}
    phis = {k: dendrite_phi(v) for k, v in labeled.items()}
    assert phis["g0"] == (0, 0) and phis["g1"] == (0, -1) and phis["tau2"] == (1, 0)
    for a in labeled:
        for b in labeled:
            if phis[a] != phis[b]:
                assert cj.conjugate(labeled[a], labeled[b], assume_confluent=True) is None, (a, b)


def test_similarity_is_equivalence(rng):
    T = catalog("circle_T")
    ds = []
    for _ in range(4):
        g = random_rearrangement(T, rng, 2, 2)
        ds.append(cj.reduce_closed(cj.close_element(g))[0])
    related = {}
    for i, d in enumerate(ds):
        assert cj.similarity_search(d, d) is not None
    for i, a in enumerate(ds):
        for j, b in enumerate(ds):
            related[(i, j)] = cj.similarity_search(a, b) is not None
            assert related[(i, j)] == related.get((j, i), related[(i, j)])
    for i in range(len(ds)):
        for j in range(len(ds)):
            for k in range(len(ds)):
                if related[(i, j)] and related[(j, k)]:
                    assert related[(i, k)], (i, j, k)


def test_equal_elements_have_similar_closures(rng):
    A = catalog("airplane")
    for i in range(5):
        g = random_rearrangement(A, rng, 2, 2)
        padded = g
        for _ in range(2):
            padded = padded.expand_at(rng.choice(padded.domain.cells))
        eta1, _ = cj.reduce_closed(cj.close_element(g))
        eta2, _ = cj.reduce_closed(cj.close(sd.from_rearrangement(padded, reduce=False)))
        assert cj.similarity_search(eta1, eta2) is not None, i


def test_closed_reduction_schedule_independence(rng):
    for name in ["interval_F", "basilica", "dendrite:3", "cantor_V"]:
        S = catalog(name)
        for i in range(6):
            g = random_rearrangement(S, rng, 2, 2)
            eta0 = cj.close_element(g)
            keys = {cj.similarity_canonical_key(cj.reduce_closed(eta0, rng=random.Random(j))[0])
                    for j in range(5)}
            assert len(keys) == 1, (name, i)


def test_similarity_walks_stop_at_the_budget(monkeypatch):
    F, x0, x1 = f_generators()
    g = product([x0, x1, x1])
    h = conjugate_by(g, product([x0, x0]))
    eta, _ = cj.reduce_closed(cj.close_element(g))
    zeta, _ = cj.reduce_closed(cj.close_element(h))
    states = []  # every diagram explored: the walk lists its moves once
    moves = cj.all_similarity_moves
    monkeypatch.setattr(cj, "all_similarity_moves", lambda d: states.append(d) or moves(d))

    def explored(walk, *args):
        states.clear()
        out = walk(*args)
        return len(states), out

    orbit, _key = explored(cj.similarity_canonical_key, eta)
    searched, found = explored(cj.similarity_search, eta, zeta)
    assert orbit > 100 and searched > 2 and found is not None
    assert cj.conjugate(g, h) is not None
    for budget in (1, 2, 50):
        monkeypatch.setattr(cj, "SIMILARITY_BUDGET", budget)
        assert explored(cj.similarity_canonical_key, eta)[0] == budget
        n, found = explored(cj.similarity_search, eta, zeta)
        assert n <= budget and (found is None) == (budget < searched), budget
        # the pair is conjugate, but a search stopped short of the meeting finds nothing
        assert (cj.conjugate(g, h) is None) == (budget < searched), budget


# -- type 3 matches are instances block by block ------------------------------------
#
# These dendrite:3 pairs once raised NotAnIsomorphism: a type 3 match bound the
# rule's interior leaf to one symbol in every block, and its conjugator then
# had a vertex map that is not injective.

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def _pinned_pair(D):
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    g, h = (rearrangement_from_json(D, inputs.as_json(inputs.PINNED_PAIR[x])) for x in "gh")
    return g, h


def _fifth_draw(D):
    rng = random.Random(30)
    for _ in range(5):
        g, k = random_rearrangement(D, rng, 2, 2), random_rearrangement(D, rng, 2, 2)
    return g, conjugate_by(g, k)


def _decides(g, h):
    k = cj.conjugate(g, h)
    return k is not None and conjugate_by(g, k) == h


def test_pinned_pair_decides():
    assert _decides(*_pinned_pair(catalog("dendrite:3")))


def test_seeded_type3_pair_decides():
    assert _decides(*_fifth_draw(catalog("dendrite:3")))


def test_type3_pairs_decide_under_base_edge_permutations():
    D = catalog("dendrite:3")
    pairs = [_pinned_pair(D), _fifth_draw(D)]
    for perm in itertools.permutations("123"):
        sigma = from_cell_map(D, [((a,), (b,)) for a, b in zip("123", perm)])
        for i, (g, h) in enumerate(pairs):
            assert _decides(conjugate_by(g, sigma), conjugate_by(h, sigma)), (perm, i)


def test_type3_reduction_survives_renaming(rng):
    D = catalog("dendrite:3")
    for g, h in [_pinned_pair(D), _fifth_draw(D)]:
        key = cj.similarity_canonical_key(cj.reduce_closed(cj.close_element(g))[0])
        for x in (g, h):
            for _ in range(3):
                red, _ = cj.reduce_closed(_renamed(cj.close_element(x), rng))
                assert cj.similarity_canonical_key(red) == key


# -- stable and vanishing symbols ---------------------------------------------------


def test_stable_vanishing_identity():
    F, _, _ = f_generators()
    d = sd.from_rearrangement(identity(F))
    stable, vanishing, configs = cj.stable_vanishing(d)
    assert not vanishing and len(stable) == 2
    assert [len(c) for c in configs] == [1]


def test_stable_vanishing_x0():
    F, x0, _ = f_generators()
    stable, vanishing, configs = cj.stable_vanishing(sd.from_rearrangement(x0))
    # the two interval endpoints are fixed; interior symbols drift away
    assert len(stable) == 2 and len(vanishing) == 2
    total = 1
    for orbit in configs:
        total *= len(orbit)
    assert total >= 1


def test_stable_vanishing_configuration_count_matches_cycling():
    # a plain crossing of two strands: its stable symbols permute with order 2
    V = catalog("cantor_V")
    B = GraphExpansion(V, [("s", "0"), ("s", "1")]).leaf_graph
    exp = base_expansion(V, B)
    cells = list(exp.cells)
    phi = {cells[0]: cells[1], cells[1]: cells[0]}
    g = Rearrangement(exp, phi, exp)
    d = sd.from_rearrangement(g)
    stable, vanishing, configs = cj.stable_vanishing(d)
    assert len(stable) == 4 and not vanishing
    assert any(len(orbit) == 2 for orbit in configs)
    # direct base-line cycling: two full cycles restore the labels
    nu = {}
    for (v1, w1, _), (v2, w2, _) in zip(d.source_labels(), d.sink_labels()):
        nu[v1] = v2
        nu[w1] = w2
    assert all(nu[nu[x]] == x for x in stable)


# -- canonical keys ------------------------------------------------------------------


def _reference_rows(d, start_sid, sym_ids=None, node_order=None):
    """Rows of the breadth-first traversal from one strand, as a list."""
    node_ids = {}
    sym_ids = {} if sym_ids is None else sym_ids
    rows, seen, queue = [], set(), [start_sid]

    def nid_of(n):
        if n not in node_ids:
            node_ids[n] = len(node_ids)
            kind = d.nodes[n]
            if node_order is not None:
                node_order.append((n, kind))
            if kind == "bp":
                queue.extend([d.out_strand(n), d.in_strand(n)])
            else:
                arity = len(d.system.rules[kind[1]].graph.edges)
                if kind[0] == "split":
                    queue.append(d.in_strand(n))
                    queue.extend(d.out_strand(n, p) for p in range(arity))
                else:
                    queue.append(d.out_strand(n))
                    queue.extend(d.in_strand(n, p) for p in range(arity))
        return node_ids[n]

    while queue:
        sid = queue.pop(0)
        if sid in seen:
            continue
        seen.add(sid)
        s = d.strands[sid]
        ku, kd = d.nodes[s.src[0]], d.nodes[s.dst[0]]
        rows.append((nid_of(s.src[0]), s.src[1], nid_of(s.dst[0]), s.dst[1],
                     "bp" if ku == "bp" else ku[0], "bp" if kd == "bp" else kd[0],
                     s.color, sym_ids.setdefault(s.label[0], len(sym_ids)),
                     sym_ids.setdefault(s.label[1], len(sym_ids))))
    return rows


def _reference_traversal(d):
    """Reference for _canonical_traversal: every anchor's rows in full."""
    import itertools

    locals_ = []
    for c in d.components():
        best, anchors = None, []
        for a in sorted(c, key=repr):
            rows = tuple(_reference_rows(d, a))
            if best is None or rows < best:
                best, anchors = rows, [a]
            elif rows == best:
                anchors.append(a)
        locals_.append((best, anchors))
    locals_.sort(key=lambda x: x[0])
    groups = []
    for lk, anchors in locals_:
        if groups and groups[-1][0] == lk:
            groups[-1][1].append(anchors)
        else:
            groups.append((lk, [anchors]))
    choices = []
    for _lk, members in groups:
        perms = itertools.permutations(members) if len(members) <= 4 else [tuple(members)]
        choices.append([list(combo) for perm in perms for combo in itertools.product(*perm)])
    best_key, best_order = None, []
    for combo in itertools.product(*choices):
        sym_ids, order = {}, []
        key = tuple(tuple(_reference_rows(d, a, sym_ids, order))
                    for part in combo for a in part)
        if best_key is None or key < best_key:
            best_key, best_order = key, order
    return best_key if best_key is not None else (), best_order


def _renamed(d, rng):
    """The same diagram with shuffled node ids, strand ids and symbols."""
    nodes = list(d.nodes)
    node_ids = rng.sample(range(3 * len(nodes) + 3), len(nodes))
    rename = {n: (i if d.nodes[n] == "bp" else ("n", i)) for n, i in zip(nodes, node_ids)}
    syms = sorted(d.symbols(), key=repr)
    sym = dict(zip(syms, (f"q{i}" for i in rng.sample(range(len(syms)), len(syms)))))
    sids = list(d.strands)
    rng.shuffle(sids)
    strands = {}
    for i, sid in enumerate(sids):
        s = d.strands[sid]
        strands[("r", i)] = sd.Strand(s.color, (sym[s.label[0]], sym[s.label[1]], s.label[2]),
                                      (rename[s.src[0]], s.src[1]), (rename[s.dst[0]], s.dst[1]))
    return cj.ClosedDiagram(d.system, {rename[n]: k for n, k in d.nodes.items()}, strands,
                            max(node_ids) + 1)


KEY_SYSTEMS = ["interval_F", "circle_T", "cantor_V", "basilica", "airplane", "dendrite:3"]


def _key_corpus(rng):
    """Closures and reduced closures with their similarity neighbours."""
    out = []
    for name in KEY_SYSTEMS:
        S = catalog(name)
        for _ in range(3):
            eta0 = cj.close_element(random_rearrangement(S, rng, 3, 2))
            eta, _ = cj.reduce_closed(eta0)
            out += [eta0, eta] + [cj.apply_shift(eta, spec).diagram
                                  for spec in cj.all_similarity_moves(eta)]
    return out


def test_canonical_keys_match_the_all_anchors_traversal(rng):
    ties = 0
    for d in _key_corpus(rng):
        key, order = d._canonical_traversal()
        assert (key, order) == _reference_traversal(d)
        assert d.canonical_key() == key
        ties += any(len(d._least_anchors(c)[1]) > 1 for c in d.components())
    assert ties >= 5  # components with several least anchors


def test_canonical_keys_survive_renaming(rng):
    for d in _key_corpus(rng):
        for _ in range(2):
            e = _renamed(d, rng)
            assert e.canonical_key() == d.canonical_key()
            assert e == d and hash(e) == hash(d)
            corr = cj._matching(e, d)
            assert corr is not None and all(e.nodes[n] == d.nodes[corr[n]] for n in corr)


def _reference_components(d):
    """Components by refiltering: grow from the first strand left, drop it, repeat."""
    rest = sorted(d.strands, key=repr)
    out = []
    while rest:
        comp, queue = set(), [rest[0]]
        while queue:
            x = queue.pop()
            if x not in comp:
                comp.add(x)
                for n in (d.strands[x].src[0], d.strands[x].dst[0]):
                    queue.extend(d._out.get(n, {}).values())
                    queue.extend(d._in.get(n, {}).values())
        out.append(comp)
        rest = [x for x in rest if x not in comp]
    return out


def test_components_match_the_refiltering_reference(rng):
    several = 0
    for d in _key_corpus(rng):
        comps = d.components()
        assert comps == _reference_components(d)
        several += len(comps) > 1
    assert several >= 5


def test_first_rows_match_the_traversal(rng):
    for d in _key_corpus(rng):
        for sid in d.strands:
            assert d._first_row(sid) == next(d._rows_from(sid))


def test_bald_keys_survive_renaming(rng):
    for d in _key_corpus(rng):
        for _ in range(2):
            assert cj._bald_key(_renamed(d, rng)) == cj._bald_key(d)


def _reference_bald_key(d):
    """Reference for _bald_key's classes: a breadth-first search from every real node."""
    from collections import deque

    rows_out = []
    for comp in d.components():
        nodes = {n for sid in comp for n in (d.strands[sid].src[0], d.strands[sid].dst[0])}
        real = [n for n in nodes if d.nodes[n] != "bp"]
        if not real:
            for bps, sids in cj.pure_loops(d):
                if set(sids) <= comp:
                    colors = [d.strands[x].color for x in sids]
                    rows_out.append(("loop", min(tuple(colors[i:] + colors[:i])
                                                 for i in range(len(colors)))))
            continue
        edges = []
        for sid in comp:
            s_ = d.strands[sid]
            if d.nodes[s_.src[0]] != "bp":
                _count, end, port = d._strand_path_through_bps(sid)
                edges.append((s_.src[0], s_.src[1], end, port, s_.color))
        adj = {}
        for a, pa, b, pb, c in edges:
            adj.setdefault(a, []).append(("o", pa, b, pb, c))
            adj.setdefault(b, []).append(("i", pb, a, pa, c))
        for out in adj.values():
            out.sort(key=repr)
        best = None
        for anchor in real:
            ids, queue = {anchor: 0}, deque([anchor])
            while queue:
                for _role, _pp, other, _po, _c in adj.get(queue.popleft(), ()):
                    if other not in ids:
                        ids[other] = len(ids)
                        queue.append(other)
            if len(ids) != len(real):
                continue
            rows = tuple(sorted((ids[a], pa, ids[b], pb, c, d.nodes[a][0], d.nodes[b][0])
                                for a, pa, b, pb, c in edges))
            kinds = tuple(sorted((ids[n], d.nodes[n][0], d.nodes[n][1]) for n in real))
            if best is None or ("comp", rows, kinds) < best:
                best = ("comp", rows, kinds)
        rows_out.append(best)
    return tuple(sorted(rows_out, key=repr))


def _corpus_pairs():
    """(conjugate, g, h) for the dendrite:3 corpus pairs of the benchmark."""
    D = catalog("dendrite:3")
    with open(Path(__file__).resolve().parents[1] / "bench" / "corpus.json") as fh:
        pairs = json.load(fh)["pairs"]
    return [(p["conjugate"], *(rearrangement_from_json(D, {"phi": p[x]}) for x in "gh"))
            for p in pairs]


def _corpus_closures():
    """Closures of the corpus elements, unreduced and reduced."""
    out = []
    for _conjugate, g, h in _corpus_pairs():
        for eta0 in (cj.close_element(g), cj.close_element(h)):
            out += [eta0, cj.reduce_closed(eta0)[0]]
    return out


def test_bald_keys_match_the_all_anchors_reference(rng):
    """The key splits each system's diagrams into the reference's classes.

    The two keys are written differently, so their classes are compared,
    not their values.
    """
    diagrams = _key_corpus(rng) + _corpus_closures()
    keys = [cj._bald_key(d) for d in diagrams]
    refs = [_reference_bald_key(d) for d in diagrams]
    coarser = 0  # equal bald keys, different canonical keys
    for i, j in itertools.combinations(range(len(diagrams)), 2):
        if diagrams[i].system is diagrams[j].system:
            assert (keys[i] == keys[j]) == (refs[i] == refs[j])
            coarser += (keys[i] == keys[j]
                        and diagrams[i].canonical_key() != diagrams[j].canonical_key())
    assert coarser >= 50
    loops = sum(sum(row[0] == "loop" for row in key) > 1 for key in keys)
    assert loops >= 3  # several base-point-only components in one diagram


def test_bald_keys_survive_similarity_moves(rng):
    moves = 0
    for d in _key_corpus(rng) + _corpus_closures():
        key = cj._bald_key(d)
        for spec in cj.all_similarity_moves(d):
            assert cj._bald_key(cj.apply_shift(d, spec).diagram) == key
            moves += 1
    assert moves >= 500


def _reference_pure_loops(d):
    """``pure_loops`` as it walked from every base point not yet on a loop, the reference."""
    seen = set()
    out = []
    for b in d.bps():
        if b in seen:
            continue
        bps = [b]
        strands = []
        cur = b
        closed_loop = False
        while True:
            sid = d.out_strand(cur)
            s = d.strands[sid]
            nxt = s.dst[0]
            if d.nodes[nxt] != "bp":
                break
            strands.append(sid)
            if nxt == b:
                closed_loop = True
                break
            bps.append(nxt)
            cur = nxt
        if closed_loop and len(strands) == len(bps):
            out.append((bps, strands))
            seen.update(bps)
    return out


def test_pure_loops_match_the_walk_from_every_base_point(rng, monkeypatch):
    F, x0, x1 = f_generators()
    # the 397-strand closure of the reduce_closed curve of tools/layer_timings.py,
    # and the diagrams its reduction edits, which hold long runs of base points
    eta0 = cj.close_element(conjugate_by(compose(x0, x1), product([x1] * 128)))
    assert len(eta0.strands) == 397
    made, (eta, _) = _unwired_diagrams(monkeypatch, lambda: cj.reduce_closed(eta0))
    loops = runs = 0
    for d in [eta0, eta, *made] + _key_corpus(rng) + _corpus_closures():
        found = cj.pure_loops(d)
        assert found == _reference_pure_loops(d)
        loops += len(found)
        runs += len(d.bps()) - sum(len(bps) for bps, _ in found)
    assert loops >= 50 and runs >= 10000


def _reference_chained_type1(d):
    """(split, merge, c): every child reaches the same merge through c base points."""
    for snode in d.splits():
        color = d.nodes[snode][1]
        arity = len(d.system.rules[color].graph.edges)
        info = []
        for p in range(arity):
            c, end, port = d._strand_path_through_bps(d.out_strand(snode, p))
            info.append((c, end, port))
        ends = {x[1] for x in info}
        counts = {x[0] for x in info}
        if len(ends) != 1 or len(counts) != 1:
            continue
        end = ends.pop()
        kind = d.nodes.get(end)
        if not (isinstance(kind, tuple) and kind[0] == "merge" and kind[1] == color):
            continue
        if [x[2] for x in info] != list(range(arity)):
            continue
        yield snode, end, counts.pop()


def _reference_chained_type2(d):
    """(merge, split, c): the merge's out strand reaches a split through c base points."""
    for mnode in d.merges():
        c, end, port = d._strand_path_through_bps(d.out_strand(mnode))
        kind = d.nodes.get(end)
        if (isinstance(kind, tuple) and kind[0] == "split" and port == 0
                and kind[1] == d.nodes[mnode][1]):
            yield mnode, end, c


def _scanned(monkeypatch, work) -> list:
    """The diagrams whose chained pairs are read while ``work()`` runs, each with
    whether it held chains (kept from its parent or an earlier read) then."""
    scanned, scan = [], sd.Diagram._chained_pairs

    def recording(d):
        scanned.append((d, bool(d._chains)))
        return scan(d)

    monkeypatch.setattr(sd.Diagram, "_chained_pairs", recording)
    work()
    monkeypatch.undo()
    return scanned


def _strand_reductions(rng):
    """Reduce seeded padded diagrams and glued composites, in order and at random."""
    for i, d in enumerate(padded_and_glued(rng)):
        d.reduce()
        d.reduce(random.Random(i))


def test_chained_pairs_match_the_separate_scans(rng, monkeypatch):
    # every diagram that reduce_closed scans while the corpus is built, and
    # every one that StrandDiagram.reduce scans, too
    diagrams = []
    scanned = _scanned(monkeypatch, lambda: diagrams.extend(_key_corpus(rng) + _corpus_closures()))
    opened = _scanned(monkeypatch, lambda: _strand_reductions(rng))
    assert {type(d) for d, _ in scanned} == {cj.ClosedDiagram}
    assert {type(d) for d, _ in opened} == {sd.StrandDiagram}
    adjacent = chained = 0
    for d in diagrams + [d for d, _ in scanned + opened]:
        pairs = d._chained_pairs()
        assert pairs == list(_reference_chained_type1(d)) + list(_reference_chained_type2(d))
        assert ({(a, b) for a, b, c in pairs if c == 0}
                == set(type1_candidates(d)) | set(type2_candidates(d)))
        adjacent += any(c == 0 for _, _, c in pairs)
        chained += any(c > 0 for _, _, c in pairs)
    assert len(scanned) >= 500 and len(opened) >= 700
    assert adjacent >= 700 and chained >= 100


def _reference_rename(d, mapping):
    """Every strand rebuilt with its symbols mapped."""
    from dataclasses import replace

    return {sid: replace(s, label=(mapping.get(s.label[0], s.label[0]),
                                   mapping.get(s.label[1], s.label[1]), s.label[2]))
            for sid, s in d.strands.items()}


def test_rename_matches_rebuilding_every_strand(rng):
    for d in _key_corpus(rng)[:20]:
        for diagram in (d, d.open_diagram()):
            syms = sorted(diagram.symbols(), key=repr)
            for mapping in ({}, {syms[0]: "fresh"},
                            dict(zip(syms, rng.sample(syms, len(syms))))):
                renamed = diagram.rename(mapping)
                assert type(renamed) is type(diagram) and renamed.nodes == diagram.nodes
                assert renamed.strands == _reference_rename(diagram, mapping)


# -- lazy move conjugators -----------------------------------------------------------


def test_every_similarity_move_conjugator_verified(rng):
    F, x0, x1 = f_generators()
    samples = [x0, x1, compose(x0, x1)]
    samples += [random_rearrangement(catalog(name), rng, 3, 2) for _ in range(3)
                for name in ["circle_T", "airplane", "basilica", "dendrite:3"]]
    checked = 0
    for g in samples:
        eta0 = cj.close_element(g)
        K = cj.initial_renaming(g.system, eta0, g)
        eta, log = cj.reduce_closed(eta0)
        for mv in log:
            K = compose(K, mv.conj)
        # the reduced closure and its neighbours, with their conjugators
        states = [(eta, K)] + [(mv.diagram, compose(K, mv.conj))
                               for mv in (cj.apply_shift(eta, spec)
                                          for spec in cj.all_similarity_moves(eta))]
        for d, Kd in states:
            for spec in cj.all_similarity_moves(d):
                mv = cj.apply_shift(d, spec)
                assert mv.conj is mv.conj  # built once
                assert mv.diagram.open_element() == conjugate_by(g, compose(Kd, mv.conj)), spec
                checked += 1
    assert checked >= 100


def test_shift_probes_build_no_elements(rng, monkeypatch):
    diagrams = []
    for name in ["interval_F", "cantor_V", "basilica", "dendrite:3"]:
        S = catalog(name)
        for _ in range(3):
            eta, _ = cj.reduce_closed(cj.close_element(random_rearrangement(S, rng, 2, 2)))
            diagrams += [eta] + [cj.apply_shift(eta, s).diagram for s in cj.all_shifts(eta)]
    built = []
    for cls in (GraphExpansion, Rearrangement):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    specs = [spec for d in diagrams for spec in cj.all_shifts(d)]
    moves = [cj.apply_shift(d, spec) for d in diagrams for spec in cj.all_shifts(d)]
    assert built == []
    assert {s[0] for s in specs} >= {"shift_up_split", "shift_down_merge",
                                     "shift_down_split", "shift_up_merge"}
    assert moves[0].conj is not None and built  # forcing a conjugator builds it


def _word(gens, rng, length):
    return product([gens[rng.choice(sorted(gens))] for _ in range(length)])


def _ftv_word_pairs(rng):
    """(system name, g, k^-1 g k) for six pairs of non-trivial generator words in F, T and V."""
    rot = [(("s", "0"), ("s", "1", "1")), (("s", "1", "0"), ("s", "0")),
           (("s", "1", "1"), ("s", "1", "0"))]
    swap = [(("s", "0"), ("s", "1")), (("s", "1"), ("s", "0"))]
    x0_pairs = [(("s", "0", "0"), ("s", "0")), (("s", "0", "1"), ("s", "1", "0")),
                (("s", "1"), ("s", "1", "1"))]
    x1_pairs = [(("s", "0"), ("s", "0")), (("s", "1", "0", "0"), ("s", "1", "0")),
                (("s", "1", "0", "1"), ("s", "1", "1", "0")), (("s", "1", "1"), ("s", "1", "1", "1"))]
    tables = {"interval_F": [x0_pairs, x1_pairs], "circle_T": [x0_pairs, x1_pairs, rot],
              "cantor_V": [x0_pairs, x1_pairs, rot, swap]}
    out = []
    for name, maps in tables.items():
        S = catalog(name)
        gens = {}
        for i, pairs in enumerate(maps):
            gens[i] = from_cell_map(S, pairs)
            gens[-1 - i] = invert(gens[i])
        out += _word_pairs(gens, rng, 6, name)
    return out


def _dendrite_word_pairs(rng):
    """(system name, g, k^-1 g k) for eight pairs of non-trivial dendrite:3 generator words."""
    from rewrite_groups.analysis import dendrite_generators

    gens = {}
    for i, g in enumerate(dendrite_generators(3).values()):
        gens[i] = g
        gens[-1 - i] = invert(g)
    return _word_pairs(gens, rng, 8, "dendrite:3")


def _word_pairs(gens, rng, count, name):
    out = []
    while len(out) < count:
        g, k = _word(gens, rng, 3), _word(gens, rng, 2)
        if not (g.is_identity() or k.is_identity()):
            out.append((name, g, conjugate_by(g, k)))
    return out


def test_conjugate_round_trip_on_generator_words(rng):
    for name, g, h in _ftv_word_pairs(rng):
        k2 = cj.conjugate(g, h, assume_confluent=True)
        assert k2 is not None and conjugate_by(g, k2) == h, name


def test_typed_errors_replace_asserts(monkeypatch):
    F, x0, _ = f_generators()
    eta = cj.close_element(x0)
    bp = eta.bps()[0]
    strands = {sid: s for sid, s in eta.strands.items() if s.src[0] != bp}
    with pytest.raises(cj.NotXDiagram):
        cj.ClosedDiagram(F, eta.nodes, strands, eta.counter)
    from rewrite_groups.replacement import normalize_loops

    with pytest.raises(ValueError):  # a loop cell with two distinct endpoints
        cj._instantiate(normalize_loops(catalog("circle_T")), "1~", "a", "b", ["z0", "z1"])
    # a dendrite:3 base star expanded at one edge, with one child loop reversed:
    # its only type 3 match needs a flip, which apply_type3 refuses to perform
    D = catalog("dendrite:3")
    B = base_expansion(D).expand(("1",)).leaf_graph
    star = cj.close(sd.from_rearrangement(identity(D, base=B), reduce=False))
    star = cj.flip_loop(star, (1,)).diagram
    assert cj.find_type3(star) is None
    match = cj.find_type3(star, allow_flips=True)
    assert match.flips
    with pytest.raises(ValueError, match="flips"):
        cj.apply_type3(star, match)
    monkeypatch.setattr(cj, "conjugate_by", lambda g, k: None)
    with pytest.raises(cj.ConjugatorInvalid):
        cj.conjugate(x0, x0)



def test_conjugate_round_trip_on_dendrite_generator_words(rng):
    # the F, T and V round trips on generator words are in the test above
    for _name, g, h in _dendrite_word_pairs(rng):
        k2 = cj.conjugate(g, h, assume_confluent=True)
        assert k2 is not None and conjugate_by(g, k2) == h


# -- building only what is read --------------------------------------------------------


def _seeded_elements(rng, per_system=4):
    return [random_rearrangement(catalog(name), rng, 3, 2)
            for name in KEY_SYSTEMS for _ in range(per_system)]


def test_close_element_matches_closing_the_open_diagram(rng):
    moved = 0
    for g in _seeded_elements(rng):
        eta, ref = cj.close_element(g), cj.close(sd.from_rearrangement(g))
        assert list(eta.nodes.items()) == list(ref.nodes.items())
        assert list(eta.strands.items()) == list(ref.strands.items())
        assert eta.counter == ref.counter
        moved += bool(eta.splits())
    assert moved >= 12
    # a groupoid element between different base graphs does not close up
    F = catalog("interval_F")
    B = base_expansion(F).expand(("s",)).leaf_graph
    # B's edges are named after the cells of F they are, "s 0" and "s 1"
    g = from_cell_map(F, [((e.name,), tuple(e.name.split(" "))) for e in B.edges], dbase=B)
    with pytest.raises(cj.NotXDiagram) as ref_error:
        cj.close(sd.from_rearrangement(g))
    with pytest.raises(cj.NotXDiagram) as error:
        cj.close_element(g)
    assert str(error.value) == str(ref_error.value)


def _unwired_diagrams(monkeypatch, work):
    """The closed diagrams built without ``_wire`` (relabelled or edited) while
    ``work()`` runs, and what it returned."""
    made = []
    for name in ("_relabelled", "_edit"):
        build = getattr(cj.ClosedDiagram, name)

        def recording(self, *args, _build=build):
            d = _build(self, *args)
            made.append(d)
            return d

        monkeypatch.setattr(cj.ClosedDiagram, name, recording)
    out = work()
    monkeypatch.undo()
    return made, out


def _reduce_and_search(rng):
    """Reduce seeded closures in F, T, V, basilica, airplane and dendrite:3 and
    search each for similarity with the closure of a conjugate."""
    for g in _seeded_elements(rng, 2):
        k = random_rearrangement(g.system, rng, 2, 2)
        eta, _ = cj.reduce_closed(cj.close_element(g))
        zeta, _ = cj.reduce_closed(cj.close_element(conjugate_by(g, k)))
        cj.similarity_search(eta, zeta)


def test_relabelled_diagrams_keep_an_exact_port_index(rng, monkeypatch):
    made, _ = _unwired_diagrams(monkeypatch, lambda: _reduce_and_search(rng))
    assert len(made) >= 50
    for d in made:
        fresh = cj.ClosedDiagram(d.system, d.nodes, d.strands, d.counter)
        assert (d._out, d._in) == (fresh._out, fresh._in)


def _edited_and_corpus_diagrams(rng, monkeypatch) -> list:
    """The diagrams that reduction and search build without ``_wire``, while
    they also build the key corpus and the corpus closures, and those."""
    def work():
        _reduce_and_search(rng)
        return _key_corpus(rng) + _corpus_closures()

    made, corpus = _unwired_diagrams(monkeypatch, work)
    return made + corpus


def test_chain_cache_matches_a_full_scan(rng, monkeypatch):
    # each diagram's cached chains are its parent's, minus those an edit
    # reached; a freshly wired copy keeps none and follows every chain
    inherited = chained = 0
    for d in _edited_and_corpus_diagrams(rng, monkeypatch):
        inherited += bool(d._chains)
        pairs = d._chained_pairs()
        fresh = cj.ClosedDiagram(d.system, d.nodes, d.strands, d.counter)
        assert fresh._chains == {} and pairs == fresh._chained_pairs()
        chained += any(c > 0 for _, _, c in pairs)
    assert inherited >= 500 and chained >= 200
    # the same for every open diagram that StrandDiagram.reduce scans
    opened = _scanned(monkeypatch, lambda: _strand_reductions(rng))
    for d, _ in opened:
        fresh = sd.StrandDiagram(d.system, d.nodes, d.strands, d.sources, d.sinks)
        assert fresh._chains == {} and d._chained_pairs() == fresh._chained_pairs()
    assert sum(kept for _, kept in opened) >= 500


def test_fresh_symbols_match_a_full_scan(rng, monkeypatch):
    counted = 0
    for d in _edited_and_corpus_diagrams(rng, monkeypatch):
        uses = d._uses
        if uses is not None:
            counted += 1
            labels = [x for s in d.strands.values() for x in s.label[:2]]
            assert {x: n for x, n in uses.items() if n} == dict(collections.Counter(labels))
        taken = d.symbols()
        assert d.fresh_symbols(4) == [c for c in (f"z{i}" for i in range(len(taken) + 4))
                                      if c not in taken][:4]
    assert counted >= 500


MOVE_KINDS = {"shift_down_split", "shift_up_split", "shift_up_merge", "shift_down_merge",
              "flip_loop", "type3"}


def test_move_inverses_match_inverted_conjugators(rng, monkeypatch):
    moves = []
    for g in _seeded_elements(rng, 2):
        eta, log = cj.reduce_closed(cj.close_element(g))
        near = [cj.apply_shift(eta, spec) for spec in cj.all_similarity_moves(eta)]
        moves += log + near + [cj.apply_shift(mv.diagram, spec) for mv in near[:2]
                               for spec in cj.all_similarity_moves(mv.diagram)]
    assert {mv.kind for mv in moves} == MOVE_KINDS
    inverted = []
    monkeypatch.setattr(cj, "invert", lambda e: inverted.append(e) or invert(e))
    for mv in moves:
        assert mv.inverse is mv.inverse and mv.conj is mv.conj  # each side built once
        assert mv.inverse == invert(mv.conj), mv.kind
    # the shifts build both orientations directly
    assert len(inverted) == sum(mv.kind in ("flip_loop", "type3") for mv in moves)


def test_pairs_the_bald_key_separates_build_no_conjugators(monkeypatch):
    pairs = [(g, h) for conjugate, g, h in _corpus_pairs() if not conjugate]
    built = []
    element = cj._expansion_element

    def counting(*args, **kwargs):
        built.append(args[3])
        return element(*args, **kwargs)

    monkeypatch.setattr(cj, "_expansion_element", counting)
    logged = 0
    for g, h in pairs:
        eta, log_g = cj.reduce_closed(cj.close_element(g))
        zeta, log_h = cj.reduce_closed(cj.close_element(h))
        assert cj._bald_key(eta) != cj._bald_key(zeta)
        logged += sum(mv.kind.startswith("shift") for mv in log_g + log_h)
        assert cj.conjugate(g, h, assume_confluent=True) is None
    assert logged >= 5 and built == []


# -- factors over shared base expansions -----------------------------------------------


def _reference_expansion_element(system, old_base, new_base, letter, children, inverse):
    """A shift's conjugator as ``from_cell_map`` builds it over the two base graphs."""
    rule = system.rules[old_base.edge(letter).color]
    phi = {(e.name,): (e.name,) for e in old_base.edges if e.name != letter}
    for name, e in zip(children, rule.graph.edges):
        phi[(name,)] = (letter, e.name)
    if inverse:
        return from_cell_map(system, [(v, w) for w, v in phi.items()],
                             dbase=old_base, rbase=new_base)
    return from_cell_map(system, phi.items(), dbase=new_base, rbase=old_base)


def _reference_flip(d, out, bps):
    """A flip's conjugator as ``from_cell_map`` of the depth-one psi map."""
    system, old_base, new_base = d.system, d.base_graph(), out.base_graph()
    flipped = [str(b) for b in bps]
    phi = {(e.name,): (e.name,) for e in new_base.edges if e.name not in flipped}
    for letter in flipped:
        color = old_base.edge(letter).color
        psi = system.reversing_automorphism(color).edge_map
        for x in system.rules[color].graph.edges:
            phi[(letter, x.name)] = (letter, psi[x.name])
    return from_cell_map(system, phi.items(), dbase=new_base, rbase=old_base)


def _augmented_airplane_closures(rng):
    """Closures of seeded airplane elements, unreduced and reduced with the augmented rules."""
    aug = cj.augment_airplane(catalog("airplane"))
    out = []
    for _ in range(4):
        eta0 = cj.close_element(random_rearrangement(aug.system, rng, 3, 2))
        out.append((eta0, aug.virtual))
        out.append((cj.reduce_closed(eta0, aug.virtual)[0], aug.virtual))
    return out


def _move_corpus(rng):
    """(diagram, virtual reductions) for the key corpus, the corpus closures
    (F, T, V, basilica, airplane, dendrite:3) and augmented airplane closures."""
    return ([(d, ()) for d in _key_corpus(rng) + _corpus_closures()]
            + _augmented_airplane_closures(rng))


def _logs_and_moves(corpus) -> list:
    """Every move of each diagram's ``reduce_closed`` log and of ``all_similarity_moves``."""
    moves = []
    for d, virtual in corpus:
        moves += cj.reduce_closed(d, virtual)[1]
        moves += [cj.apply_shift(d, spec) for spec in cj.all_similarity_moves(d)]
    return moves


def test_factors_match_from_cell_map_over_their_cell_maps(rng, monkeypatch):
    # every factor is built reduced over shared base expansions; equal
    # encodings with the reduced from_cell_map element show that no
    # reduction was skipped
    checks = []  # (kind, built, reference)
    element, flip = cj._expansion_element, cj.flip_loop
    renaming, correspondence = cj.initial_renaming, cj._correspondence_element
    flips = []

    def shift_element(old, new, letter, children, inverse=False):
        e = element(old, new, letter, children, inverse)
        checks.append(("shift", e, _reference_expansion_element(
            old.system, old.base_graph(), new.base_graph(), letter, children, inverse)))
        return e

    def flip_move(d, bps):
        mv = flip(d, bps)
        flips.append((d, bps, mv))
        return mv

    def initial(system, eta, g):
        e = renaming(system, eta, g)
        pairs = [((str(bp),), (x.name,)) for bp, x in zip(eta.bps(), g.domain.base.edges)]
        checks.append(("renaming", e, from_cell_map(system, pairs, dbase=eta.base_graph(),
                                                    rbase=g.domain.base)))
        return e

    def corresponding(d_from, d_to, corr):
        e = correspondence(d_from, d_to, corr)
        pairs = [((str(bp),), (str(corr[bp]),)) for bp in d_from.bps()]
        checks.append(("correspondence", e, from_cell_map(
            d_from.system, pairs, dbase=d_from.base_graph(), rbase=d_to.base_graph())))
        return e

    monkeypatch.setattr(cj, "_expansion_element", shift_element)
    monkeypatch.setattr(cj, "flip_loop", flip_move)
    monkeypatch.setattr(cj, "initial_renaming", initial)
    monkeypatch.setattr(cj, "_correspondence_element", corresponding)
    for mv in _logs_and_moves(_move_corpus(rng)):
        mv.conj, mv.inverse
    aug = cj.augment_airplane(catalog("airplane"))
    pairs = [(g, h, {}) for _n, g, h in _ftv_word_pairs(rng) + _dendrite_word_pairs(rng)]
    pairs += [(g, h, {}) for conjugate, g, h in _corpus_pairs() if conjugate]
    for _ in range(3):
        g = random_rearrangement(aug.system, rng, 2, 2)
        pairs.append((g, conjugate_by(g, random_rearrangement(aug.system, rng, 2, 2)),
                      {"rules": aug}))
    for g, h, rules in pairs:
        assert cj.conjugate(g, h, assume_confluent=True, **rules) is not None
    for d, bps, mv in flips:
        ref = _reference_flip(d, mv.diagram, bps)
        checks += [("flip", mv.conj, ref), ("flip", mv.inverse, invert(ref))]
    for kind, built, ref in checks:
        assert built.encoding() == ref.encoding(), kind
    counts = collections.Counter(kind for kind, _b, _r in checks)
    assert counts["shift"] >= 2000 and counts["flip"] >= 1000, counts
    assert counts["renaming"] == 2 * len(pairs) and counts["correspondence"] == len(pairs)


def _spelled_base(d) -> dict:
    """Base point -> colour and label of the strand leaving it: what spells the base graph."""
    return {b: (s.color, s.label) for b in d.bps() for s in [d.strands[d.out_strand(b)]]}


def test_edits_share_the_base_graph_exactly_when_they_keep_it(rng, monkeypatch):
    made = {}
    for name in ("_edit", "_relabelled"):
        build = getattr(cj.ClosedDiagram, name)

        def recording(self, *args, _build=build, _made=made.setdefault(name, [])):
            d = _build(self, *args)
            _made.append((self, d))
            return d

        monkeypatch.setattr(cj.ClosedDiagram, name, recording)
    _logs_and_moves(_move_corpus(rng))
    monkeypatch.undo()
    kept = 0
    for parent, d in made["_edit"] + made["_relabelled"]:
        fresh = cj.ClosedDiagram(d.system, d.nodes, d.strands, d.counter)
        assert d.base_graph() == fresh.base_graph()
    for parent, d in made["_edit"]:
        keeps = _spelled_base(parent) == _spelled_base(d)
        assert (d.base_graph() is parent.base_graph()) == keeps
        kept += keeps
    assert kept >= 500 and len(made["_edit"]) - kept >= 1000 and len(made["_relabelled"]) >= 400


def test_searches_of_equal_keys_compute_no_bald_key(rng, monkeypatch):
    bald = []
    key = cj._bald_key
    monkeypatch.setattr(cj, "_bald_key", lambda d: bald.append(d) or key(d))
    equal = 0
    pairs = _ftv_word_pairs(rng) + _dendrite_word_pairs(rng)
    for _name, g, h in pairs:
        eta, zeta = (cj.reduce_closed(cj.close_element(x))[0] for x in (g, h))
        bald.clear()
        assert cj.similarity_search(eta, zeta) is not None
        same = eta.canonical_key() == zeta.canonical_key()
        assert len(bald) == (0 if same else 2)
        equal += same
    assert equal >= 20 and equal < len(pairs)
    # x0 and x0^-1 in F have different slopes at 0: the bald keys tell them
    # apart, and no similarity walk starts
    _F, x0, _x1 = f_generators()
    walked = []
    moves = cj.all_similarity_moves
    monkeypatch.setattr(cj, "all_similarity_moves", lambda d: walked.append(d) or moves(d))
    bald.clear()
    assert cj.conjugate(x0, invert(x0)) is None
    assert len(bald) == 2 and bald[0] != bald[1] and walked == []


# The digest of conjugate's outputs on the generator-word pairs.  Node ids,
# which steer the conjugator found, follow no set iteration order, so the
# digest holds under every hash seed; it is taken in child processes that
# pin PYTHONHASHSEED.
PINNED_CONJUGATORS = "d2682f84653853dd9110b2797ee80dcc343b7cf4af49913dc85a97ffc0cb3068"


def _conjugator_digest() -> str:
    """sha256 of the encodings of the conjugators found for the generator-word pairs."""
    # the pairs of the two round-trip tests, each drawn with the rng fixture's seed
    pairs = _ftv_word_pairs(random.Random(20260809))
    pairs += _dendrite_word_pairs(random.Random(20260809))
    encodings = [repr(cj.conjugate(g, h, assume_confluent=True).encoding()) for _n, g, h in pairs]
    return hashlib.sha256("\n".join(encodings).encode()).hexdigest()


def _conjugator_digest_under(hash_seed: int) -> str:
    """``_conjugator_digest()`` in a child process with the given PYTHONHASHSEED."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import test_conjugacy; print(test_conjugacy._conjugator_digest())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_conjugator_outputs_are_pinned():
    assert _conjugator_digest_under(0) == PINNED_CONJUGATORS


def test_conjugator_outputs_do_not_follow_the_hash_seed():
    assert {_conjugator_digest_under(seed) for seed in (0, 1, 2, 3)} == {PINNED_CONJUGATORS}
