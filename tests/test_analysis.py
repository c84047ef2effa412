import math
import random

import pytest

from conftest import f_generators, t_rotation

from rewrite_groups.catalog import catalog
from rewrite_groups.rearrangement import (
    compose,
    conjugate_by,
    identity,
    invert,
    power,
    random_rearrangement,
    reduced_flipless,
)
from rewrite_groups import analysis as an
from rewrite_groups import conjugacy as cj


def test_imbalance_identity():
    F, _, _ = f_generators()
    prof = an.imbalance(identity(F))
    assert prof.domain == 0 and prof.range == 0
    assert prof.domain_components == () and prof.range_components == ()


def test_imbalance_x0():
    # brute-force caret count of the X_0 tree pair: one caret on each side
    F, x0, _ = f_generators()
    prof = an.imbalance(x0)
    assert (prof.domain, prof.range) == (1, 1)
    assert prof.domain_components == ((("s", "0"),),)
    assert prof.range_components == ((("s", "1"),),)


def test_imbalance_changes_together(rng):
    # expanding at a pair of cells whose images are also leaves bumps both sides
    F, x0, _ = f_generators()
    d = x0
    base = an.imbalance(d, d)
    w = ("s", "0", "1")  # maps to s 1 0: both are leaves of the other forest
    padded = d.expand_at(w)
    prof = an.imbalance(padded, padded)
    assert prof.domain == base.domain + 1
    assert prof.range == base.range + 1
    # the difference is constant across representatives
    assert prof.domain - prof.range == base.domain - base.range


def test_minimize_identity():
    F, _, _ = f_generators()
    assert an.minimize_representative(identity(F)).is_identity()


def test_minimize_padded_representative():
    F, x0, _ = f_generators()
    # pad along an expandable chain: s 1 -> s 1 1 is such a chain for x0
    padded = x0.expand_at(("s", "1"))
    prof_padded = an.imbalance(padded, padded)
    minimized = an.minimize_representative(x0)
    prof_min = an.imbalance(minimized, minimized)
    assert prof_min.as_tuple() <= prof_padded.as_tuple()
    assert prof_min.as_tuple() == (1, 1, 1)


def test_torsion_rotation_order_2():
    T, y = t_rotation()
    torsion, order = an.is_torsion(y)
    assert torsion and order == 2
    assert power(y, 2).is_identity()
    mini = an.minimize_representative(y)
    assert set(mini.domain.cells) == set(mini.range_.cells)


def test_torsion_rotation_order_4():
    from rewrite_groups.rearrangement import from_cell_map

    T = catalog("circle_T")
    z = from_cell_map(T, [
        (("s", "0", "0"), ("s", "0", "1")),
        (("s", "0", "1"), ("s", "1", "0")),
        (("s", "1", "0"), ("s", "1", "1")),
        (("s", "1", "1"), ("s", "0", "0")),
    ])
    torsion, order = an.is_torsion(z)
    assert torsion and order == 4
    assert power(z, 4).is_identity()
    assert not power(z, 2).is_identity()


def test_dendrite_taus_torsion():
    for n in (3, 4):
        gens = an.dendrite_generators(n)
        for i in range(2, n + 1):
            torsion, order = an.is_torsion(gens[f"tau{i}"])
            assert torsion and order == 2, (n, i)
            assert power(gens[f"tau{i}"], 2).is_identity()


def test_x0_not_torsion_wandering_verified():
    F, x0, _ = f_generators()
    torsion, order = an.is_torsion(x0)
    assert not torsion and order is None
    w = an.wandering_cell(x0)
    assert an.wandering_certificate(x0, w, 8)
    with pytest.raises(an.IsTorsion):
        T, y = t_rotation()
        an.wandering_cell(y)


def test_random_torsion_dichotomy(rng):
    for name in ["basilica", "circle_T", "cantor_V"]:
        S = catalog(name)
        for i in range(8):
            g = random_rearrangement(S, rng, 2, 2)
            torsion, order = an.is_torsion(g)
            if torsion:
                assert power(g, order).is_identity(), (name, i)
                for j in range(1, order):
                    assert not power(g, j).is_identity(), (name, i, j)
            else:
                w = an.wandering_cell(g)
                assert an.wandering_certificate(g, w, 8), (name, i)


def test_torsion_order_is_the_least_identity_power():
    # many of these elements have flipped cells; the minimized representative
    # is flipless, so its cell permutation alone gives the order
    torsion_count = flipped = 0
    for name in ["airplane", "dendrite:3", "bubble_bath"]:
        S = catalog(name)
        rng = random.Random(11)
        for i in range(40):
            g = random_rearrangement(S, rng, 2, 1)
            torsion, order = an.is_torsion(g)
            if not torsion:
                continue
            least = next((n for n in range(1, 25) if power(g, n).is_identity()), None)
            assert order == least, (name, i)
            torsion_count += 1
            flipped += bool(g.flips)
    assert torsion_count >= 80 and flipped >= 30


def test_torsion_agrees_with_the_reduced_closure(rng):
    # two routes to torsion: the forest route of is_torsion, and the reduced
    # closed diagram of g, which for reduction-confluent rules has no split or
    # merge exactly when g is torsion (Belk-Matucci for F, T and V); the
    # order is then the lcm of the lengths of its pure loops
    counts = [0, 0]
    for name in ["interval_F", "circle_T", "cantor_V", "airplane", "basilica", "dendrite:3",
                 "rabbit:3"]:
        S = catalog(name)
        virtual = cj.augment_airplane(S).virtual if name == "airplane" else ()
        assert cj.check_reduction_confluence(S, 3, virtual=virtual).is_confluent, name
        for i in range(20):
            g = random_rearrangement(S, rng, 2, 2)
            if g.is_identity():
                continue
            torsion, order = an.is_torsion(g)
            reduced, _ = cj.reduce_closed(cj.close_element(g), virtual)
            element = (name, g.to_json())
            assert torsion == (not reduced.splits() and not reduced.merges()), element
            if torsion:
                assert order == math.lcm(*(len(bps) for bps, _ in cj.pure_loops(reduced))), element
            counts[torsion] += 1
    assert min(counts) >= 25, counts


def _copying_chains(d):
    """``analysis._expandable_chains`` as it was, a fresh copy of every chain: the reference."""
    cells = set(d.domain.cells)
    for u in sorted(cells):
        chain = [u]
        seen = {u}
        while True:
            nxt = d.phi[chain[-1]]
            if nxt in seen:
                break
            yield list(chain), nxt
            if nxt not in cells:
                break
            chain.append(nxt)
            seen.add(nxt)


def _minimized_with(chains, g, monkeypatch):
    """The diagrams ``minimize_representative(g)`` moves through, and ``is_torsion(g)``,
    with ``chains`` as the chain generator."""
    moves = []
    find_move = an._find_move

    def recording(d, prof):
        out = find_move(d, prof)
        moves.append(out)
        return out

    monkeypatch.setattr(an, "_expandable_chains", chains)
    monkeypatch.setattr(an, "_find_move", recording)
    an.minimize_representative(g)
    torsion = an.is_torsion(g)
    monkeypatch.undo()
    return moves, torsion


def test_shared_chains_make_the_moves_of_copied_chains(monkeypatch):
    def reference(d):
        return ((chain, len(chain), end) for chain, end in _copying_chains(d))

    F, x0, x1 = f_generators()
    elements = [conjugate_by(x1, power(x0, n)) for n in (1, 2, 3, 5, 8, 16, 32, 64)]
    for name in ["interval_F", "circle_T", "cantor_V", "dendrite:3"]:
        S = catalog(name)
        rng = random.Random(name)
        elements += [random_rearrangement(S, rng, 3, 2) for _ in range(10)]
    shown = 0
    for g in elements:
        d = reduced_flipless(g)
        assert [(chain[:n], end) for chain, n, end in an._expandable_chains(d)] == list(
            _copying_chains(d))
        moves, torsion = _minimized_with(an._expandable_chains, g, monkeypatch)
        ref_moves, ref_torsion = _minimized_with(reference, g, monkeypatch)
        assert torsion == ref_torsion
        assert len(moves) == len(ref_moves)
        for move, ref in zip(moves, ref_moves):
            assert move == ref and (move is None or repr(move) == repr(ref))
        shown += len(moves) > 1
    assert shown >= 10


def test_dendrite_generator_tables():
    gens = an.dendrite_generators(3)
    g0, g1 = gens["g0"], gens["g1"]
    assert g0.apply_word(("1", "3")) == ("1",)
    assert g0.apply_word(("1", "2")) == ("2",)
    assert g0.apply_word(("2",)) == ("3", "2")
    assert g0.apply_word(("3",)) == ("3", "3")
    assert g0.apply_word(("1", "1", "1")) == ("3", "1", "3")
    assert g0.apply_word(("1", "1", "3")) == ("3", "1", "1")
    assert g1.apply_word(("1",)) == ("1",)
    assert g1.apply_word(("3", "1", "3")) == ("3", "1")
    assert g1.apply_word(("3", "3")) == ("3", "3", "3")
    tau2 = gens["tau2"]
    assert tau2.apply_word(("1", "2")) == ("2", "2")
    assert compose(tau2, tau2).is_identity()


def test_dendrite_phi_values():
    for n in (3, 4):
        gens = an.dendrite_generators(n)
        assert an.dendrite_phi(gens["g0"]) == (0, 0), n
        assert an.dendrite_phi(gens["g1"]) == (0, -1), n
        for i in range(2, n + 1):
            assert an.dendrite_phi(gens[f"tau{i}"]) == (1, 0), (n, i)
    D = catalog("dendrite", 3)
    assert an.dendrite_phi(identity(D)) == (0, 0)


def test_phi_homomorphism_and_conjugation_invariance(rng):
    D = catalog("dendrite", 3)
    for i in range(25):
        a = random_rearrangement(D, rng, 2, 2)
        b = random_rearrangement(D, rng, 2, 2)
        pa, pb = an.dendrite_phi(a), an.dendrite_phi(b)
        pab = an.dendrite_phi(compose(a, b))
        assert pab == ((pa[0] + pb[0]) % 2, pa[1] + pb[1]), i
        conj = compose(invert(b), compose(a, b))
        assert an.dendrite_phi(conj) == pa, i


def test_phi_representative_independent(rng):
    D = catalog("dendrite", 3)
    gens = an.dendrite_generators(3)
    g = gens["g1"]
    padded = g
    for _ in range(3):
        padded = padded.expand_at(rng.choice(padded.domain.cells))
    d = an.reduced_flipless(g)
    assert an.dendrite_phi(g) == (0, -1)
    # recompute through an expanded representative
    from rewrite_groups.rearrangement import Rearrangement

    re_reduced = Rearrangement(padded.domain, padded.phi, padded.range_, padded.flips)
    assert an.dendrite_phi(re_reduced) == (0, -1)


def test_derivative_trailing_convention():
    # words of pure n's discount their first letter
    D = catalog("dendrite", 3)
    assert an._trailing_n(D, ("3", "3", "3"), 3) == 2
    assert an._trailing_n(D, ("1", "3", "3"), 3) == 2
    assert an._trailing_n(D, ("3",), 3) == 0
    assert an._trailing_n(D, ("1", "2"), 3) == 0


def test_phi_rejects_other_systems():
    F, x0, _ = f_generators()
    with pytest.raises(an.NotDendriteSystem):
        an.dendrite_phi(x0)


def test_wandering_words_prefix_disjoint(rng):
    F, x0, _ = f_generators()
    w = an.wandering_cell(x0)
    x = w
    for _ in range(8):
        x = x0.apply_word(x)
        k = min(len(x), len(w))
        assert x[:k] != w[:k]
