"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is exact
(the source material proves structural theorems, so acceptance is equality
plus randomized verification at the stated sample sizes).
"""

import random

import pytest

from conftest import f_generators, random_rational, t_rotation

from rewrite_groups.catalog import catalog, dendrite_edge_base
from rewrite_groups.rearrangement import (
    Rearrangement,
    compose,
    conjugate_by,
    identity,
    invert,
    power,
    product,
    random_rearrangement,
)
from rewrite_groups.replacement import RationalSequence as RS, base_expansion
from rewrite_groups import analysis as an
from rewrite_groups import conjugacy as cj
from rewrite_groups import constructions as con
from rewrite_groups import gluing as gl
from rewrite_groups import strand as sd

SEED = 31415


def report(num, ok, text):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_thompson_f_presentation():
    F, x0, x1 = f_generators()
    a = product([x0, invert(x1)])
    b1 = product([invert(x0), x1, x0])
    b2 = product([invert(x0), invert(x0), x1, x0, x0])
    rel1 = product([invert(a), invert(b1), a, b1])
    rel2 = product([invert(a), invert(b2), a, b2])
    ok = rel1.is_identity() and rel2.is_identity()
    ok = ok and compose(x0, x1) != compose(x1, x0)
    report(1, ok, "F presentation relators hold and X0X1 != X1X0")


def test_criterion_02_gluing_automata_exact():
    aut = gl.build(catalog("interval_F"))
    ok = aut.state_count() == 4 and aut.transition_count() == 7
    for n in (3, 4, 5):
        autD = gl.build(dendrite_edge_base(n))
        ok = ok and autD.state_count() == 4
        ok = ok and autD.transition_count() == 1 + n + n * (n - 1) + 2
        names = {gl._state_str(q) for q in autD.states}
        ok = ok and names == {"q0(0)", "q0(1)", "q1(1 out; 1 out)", "q1(1 in; 1 in)"}
    from test_gluing import basilica_expected_rows

    autB = gl.build(catalog("basilica"))
    ok = ok and autB.transitions == basilica_expected_rows()
    report(2, ok, "interval, dendrite(3,4,5) and basilica automata have the exact expected tables")


def test_criterion_03_gluing_oracle_equivalence():
    rng = random.Random(SEED)
    total = 0
    agree = 0
    for name in ["interval_F", "basilica", "airplane", "dendrite:3"]:
        S = catalog(name)
        aut = gl.build(S)
        for _ in range(500):
            a = random_rational(S, rng)
            b = random_rational(S, rng)
            total += 1
            if gl.glued(aut, a, b) == gl.glued_brute_force(S, a, b):
                agree += 1
    report(3, agree == total, f"automaton matches the level-adjacency oracle {agree}/{total}")


def test_criterion_04_gluing_examples():
    I = catalog("interval_F")
    A = catalog("airplane")
    ok = gl.glued(I, RS.make(("s", "0", "1", "1"), ("0",)),
                  RS.make(("s", "0", "1", "0"), ("1",)))
    autA = gl.build(A)
    ok = ok and gl.glued(autA, RS.make(("s", "b2"), ("r2",)), RS.make(("s", "b3"), ("r1",)))
    ok = ok and not gl.glued(autA, RS.make(("s", "b2"), ("r1",)), RS.make(("s", "b3"), ("r1",)))
    report(4, ok, "the named gluing examples decide correctly")


def test_criterion_05_confluence_verdicts():
    # depth bound: joins searched to depth 4 (documented); every overlap of
    # two rule instances is examined
    confluent = ["interval_F", "circle_T", "cantor_V", "F:3,2", "basilica",
                 "rabbit:2", "dendrite:3", "dendrite:4", "dendrite:5", "vicsek:4",
                 "bubble_bath", "QF", "QT", "QV", "houghton:2", "houghton:3"]
    ok = True
    for name in confluent:
        ok = ok and cj.check_reduction_confluence(catalog(name), 4).is_confluent
    verdict = cj.check_reduction_confluence(catalog("airplane"), 4)
    ok = ok and verdict.kind == "not_confluent"
    forms = {f.canonical_key() for f in verdict.witness_forms}
    ok = ok and len(forms) >= 2
    aug = cj.augment_airplane(catalog("airplane"))
    ok = ok and cj.check_reduction_confluence(
        catalog("airplane"), 4, virtual=aug.virtual).is_confluent
    report(5, ok, "confluence verdicts are as expected for every catalog system")


def test_criterion_06_conjugacy_round_trip():
    rng = random.Random(SEED)
    systems = ["interval_F", "circle_T", "cantor_V", "basilica", "dendrite:3"]
    good = 0
    total = 0
    for name in systems:
        S = catalog(name)
        for _ in range(100):
            g = random_rearrangement(S, rng, 2, 2)
            k = random_rearrangement(S, rng, 2, 2)
            h = conjugate_by(g, k)
            total += 1
            k2 = cj.conjugate(g, h, assume_confluent=True)
            if k2 is not None and conjugate_by(g, k2) == h:
                good += 1
    A = catalog("airplane")
    aug = cj.augment_airplane(A)
    for _ in range(100):
        g = random_rearrangement(A, rng, 2, 2)
        k = random_rearrangement(A, rng, 2, 2)
        h = conjugate_by(g, k)
        total += 1
        k2 = cj.conjugate(g, h, rules=aug)
        if k2 is not None and conjugate_by(g, k2) == h:
            good += 1
    # most random draws in F are the identity, so F also gets pairs of words
    F, x0, x1 = f_generators()
    letters = [x0, x1, invert(x0), invert(x1)]
    words = random.Random(SEED + 6)
    moving = 0
    for _ in range(100):
        g, k = (product([words.choice(letters) for _ in range(4)]) for _ in "gk")
        h = conjugate_by(g, k)
        total += 1
        moving += not g.is_identity()
        k2 = cj.conjugate(g, h)
        if k2 is not None and conjugate_by(g, k2) == h:
            good += 1
    report(6, good == total and moving >= 80,
           f"conjugacy search verifies {good}/{total} constructed pairs "
           f"({moving} of the 100 F word pairs move)")


def test_criterion_07_conjugacy_negatives():
    gens = an.dendrite_generators(3)
    g0, g1, tau2 = gens["g0"], gens["g1"], gens["tau2"]
    g0g1 = product([g0, g1])
    named = {"g0": g0, "g1": g1, "tau2": tau2, "g0g1": g0g1}
    phi = {k: an.dendrite_phi(v) for k, v in named.items()}
    ok = phi["g0"] == (0, 0) and phi["g1"] == (0, -1) and phi["tau2"] == (1, 0)
    for a in named:
        for b in named:
            if phi[a] != phi[b]:
                verdict = cj.conjugate(named[a], named[b], assume_confluent=True)
                ok = ok and verdict is None
    report(7, ok, "distinct abelianization values are declared non-conjugate")


def test_criterion_08_torsion():
    T, y = t_rotation()
    t1, o1 = an.is_torsion(y)
    ok = t1 and o1 == 2 and power(y, 2).is_identity()
    for n in (3, 4):
        gens = an.dendrite_generators(n)
        for i in range(2, n + 1):
            ti, oi = an.is_torsion(gens[f"tau{i}"])
            ok = ok and ti and oi == 2
    F, x0, _ = f_generators()
    t0, _ = an.is_torsion(x0)
    ok = ok and not t0
    w = an.wandering_cell(x0)
    ok = ok and an.wandering_certificate(x0, w, 8)
    # basilica: sampled non-torsion elements carry verified wandering cells
    B = catalog("basilica")
    rng = random.Random(SEED)
    found = 0
    while found < 3:
        g = random_rearrangement(B, rng, 2, 2)
        torsion, _ = an.is_torsion(g)
        if not torsion:
            found += 1
            wc = an.wandering_cell(g)
            ok = ok and an.wandering_certificate(g, wc, 8)
    report(8, ok, "orders of Y and tau_i are 2; non-torsion wandering cells verified")


def test_criterion_09_embedding_into_v():
    rng = random.Random(SEED)
    ok = True
    for name in ["circle_T", "basilica"]:
        S = catalog(name)
        emb = con.EmbeddingIntoV(S)
        for _ in range(50):
            a = random_rearrangement(S, rng, 2, 2)
            b = random_rearrangement(S, rng, 2, 2)
            ok = ok and emb(compose(a, b)) == compose(emb(a), emb(b))
        samples = 0
        while samples < 50:
            a = random_rearrangement(S, rng, 2, 2)
            if a.is_identity():
                continue
            samples += 1
            ok = ok and not emb(a).is_identity()
    report(9, ok, "embedding into V is an injective-on-samples homomorphism")


def test_criterion_10_stabilizers():
    rng = random.Random(SEED)
    A = catalog("airplane")
    E = base_expansion(A).expand(("s",))
    p = E.cell_edge(("s", "b2")).dst
    markedA, cmapA = con.stabilizer_vertex(A, E, p)
    ok = [(e.name, e.color) for e in markedA.base.edges] == [
        ("s b1", "b-"), ("s b2", "r+"), ("s b3", "r-"), ("s b4", "b")]
    ok = ok and [(e.name, e.color) for e in markedA.rules["b-"].graph.edges] == [
        ("b1", "b+"), ("b2", "r"), ("b3", "r"), ("b4", "b")]
    ok = ok and [(e.name, e.color) for e in markedA.rules["r+"].graph.edges] == [
        ("r1", "r"), ("r2", "r+"), ("r3", "b")]
    reps = gl.gluing_class(A, RS.make(("s", "b2"), ("r2",)))
    for _ in range(50):
        gm = random_rearrangement(markedA, rng, 2, 2)
        g = con.transport_element(gm, A, cmapA)
        ok = ok and {str(g.apply_rational(r)) for r in reps} == {str(r) for r in reps}
    D = catalog("dendrite", 3)
    q = RS.make(("3",), ("1", "2", "2"))
    markedD, cmapD = con.stabilizer_rational(D, q)
    ok = ok and [(e.name, e.color) for e in markedD.base.edges] == [
        ("1", "1"), ("2", "1"), ("3", "g1")]
    ok = ok and [(e.name, e.color) for e in markedD.rules["g1"].graph.edges] == [
        ("1", "g2"), ("2", "1"), ("3", "1")]
    ok = ok and [(e.name, e.color) for e in markedD.rules["g2"].graph.edges] == [
        ("1", "1"), ("2", "g3"), ("3", "1")]
    ok = ok and [(e.name, e.color) for e in markedD.rules["g3"].graph.edges] == [
        ("1", "1"), ("2", "g1"), ("3", "1")]
    for _ in range(50):
        gm = random_rearrangement(markedD, rng, 2, 2)
        g = con.transport_element(gm, D, cmapD)
        ok = ok and g.apply_rational(q) == q
    report(10, ok, "stabilizer systems have the expected shape and their images fix the point")


def test_criterion_11_strand_uniqueness_and_round_trips():
    rng = random.Random(SEED)
    ok = True
    for name in ["interval_F", "circle_T", "cantor_V", "basilica", "dendrite:3"]:
        S = catalog(name)
        unreduced = 0
        for i in range(100):
            g = random_rearrangement(S, rng, 2, 1)
            d = sd.from_rearrangement(g)
            # open/cut round trip
            ok = ok and sd.to_rearrangement(d) == g
            eta = cj.close(d)
            ok = ok and cj.close(eta.open_diagram()) == eta
            # two randomized schedules of the closed reduction agree
            if i < 25:
                r1, _ = cj.reduce_closed(eta, rng=random.Random(2 * i))
                r2, _ = cj.reduce_closed(eta, rng=random.Random(2 * i + 1))
                k1 = cj.similarity_canonical_key(r1)
                k2 = cj.similarity_canonical_key(r2)
                ok = ok and k1 == k2
            # randomized open-diagram reduction schedules agree
            h = random_rearrangement(S, rng, 2, 1)
            c = sd._glued_composite(sd.from_rearrangement(g), sd.from_rearrangement(h))
            unreduced += not c.is_reduced()
            ok = ok and c.reduce(random.Random(i)) == c.reduce(random.Random(i + 7))
        assert ok and unreduced, name
    report(11, ok, "reduction schedules agree; open/close and cut/glue round-trip")


def test_criterion_12_small_group_sanity():
    from test_constructions import element_for_integer

    Z = catalog("integers_Z")
    elems = {z: element_for_integer(Z, z) for z in range(-6, 7)}
    ok = elems[0].is_identity()
    ok = ok and len(set(elems.values())) == 13  # depth-indexed bijection
    rng = random.Random(SEED)
    for _ in range(200):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        ok = ok and compose(elems[a], elems[b]) == elems[a + b]
    # the rigid system: every diagram up to expansion depth 3 is the identity
    from rewrite_groups.graphs import isomorphisms

    N = catalog("trivial_N")
    seen = {base_expansion(N)}
    frontier = [base_expansion(N)]
    for _ in range(3):
        nxt = []
        for e in frontier:
            for w in e.cells:
                e2 = e.expand(w)
                if e2 not in seen:
                    seen.add(e2)
                    nxt.append(e2)
        frontier = nxt
    count = 0
    for d in seen:
        for r in seen:
            if len(d.cells) != len(r.cells):
                continue
            for iso in isomorphisms(d.leaf_graph, r.leaf_graph):
                phi = {tuple(a.split(" ")): tuple(b.split(" "))
                       for a, b in iso.edge_map.items()}
                g = Rearrangement(d, phi, r)
                count += 1
                ok = ok and g.is_identity()
    ok = ok and count >= len(seen)
    report(12, ok, "Z system composes like the integers; rigid system is trivial")
