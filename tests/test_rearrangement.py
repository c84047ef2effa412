import json
import random

import pytest

from conftest import f_generators, t_rotation

from rewrite_groups.catalog import catalog
from rewrite_groups.rearrangement import (
    BadFlip,
    NotAnIsomorphism,
    Rearrangement,
    TypeMismatch,
    commutator,
    compose,
    conjugate_by,
    from_cell_map,
    identity,
    invert,
    power,
    product,
    random_rearrangement,
    rearrangement_from_json,
    reduced_flipless,
)
from rewrite_groups.replacement import GraphExpansion, RationalSequence, base_expansion


def test_identity_reduces_to_base():
    A = catalog("airplane")
    E = base_expansion(A).expand(("s",))
    g = Rearrangement(E, {w: w for w in E.cells}, E)
    assert g.is_identity()
    assert g == identity(A)


def test_f_generator_reduced_nonidentity():
    F, x0, x1 = f_generators()
    assert not x0.is_identity()
    assert len(x0.domain.cells) == 3


def test_f_generator_word_action():
    F, x0, x1 = f_generators()
    assert x0.apply_word(("s", "0", "0")) == ("s", "0")
    assert x0.apply_word(("s", "1")) == ("s", "1", "1")
    assert x0.apply_word(("s", "0", "1", "0", "1")) == ("s", "1", "0", "0", "1")


def test_f_presentation_relators():
    F, x0, x1 = f_generators()
    a = product([x0, invert(x1)])
    b1 = product([invert(x0), x1, x0])
    b2 = product([invert(x0), invert(x0), x1, x0, x0])
    assert commutator(a, b1).is_identity()
    assert commutator(a, b2).is_identity()
    assert compose(x0, x1) != compose(x1, x0)


def test_t_rotation():
    T, y = t_rotation()
    assert y.apply_word(("s", "0", "0")) == ("s", "1", "0")
    assert y.apply_word(("s", "1", "0")) == ("s", "0", "0")
    assert compose(y, y).is_identity()


def test_from_pair_validation_errors():
    F, x0, x1 = f_generators()
    E = base_expansion(F).expand(("s",))
    with pytest.raises(NotAnIsomorphism):
        Rearrangement(E, {("s", "0"): ("s", "0"), ("s", "1"): ("s", "0")}, E)
    A = catalog("airplane")
    EA = base_expansion(A).expand(("s",))
    cells = list(EA.cells)
    # color-breaking bijection blue<->red
    phi = {("s", "b1"): ("s", "b2"), ("s", "b2"): ("s", "b1"),
           ("s", "b3"): ("s", "b3"), ("s", "b4"): ("s", "b4")}
    with pytest.raises(TypeMismatch):
        Rearrangement(EA, phi, EA)
    with pytest.raises(BadFlip):
        I = catalog("interval_F")
        EI = base_expansion(I)
        Rearrangement(EI, {("s",): ("s",)}, EI, flips=[("s",)])


def test_flip_compression_on_dendrite_generator():
    # the canonical form of g0 stores the reversed arc as a flipped pair
    from rewrite_groups.analysis import dendrite_generators

    g0 = dendrite_generators(3)["g0"]
    assert g0.flips, "canonical g0 should carry a flip"
    assert compose(g0, invert(g0)).is_identity()
    # flipped pair acts through the fixed reversing automorphism: 11x -> 31x~
    assert g0.apply_word(("1", "1", "1")) == ("3", "1", "3")
    assert g0.apply_word(("1", "1", "2")) == ("3", "1", "2")
    assert g0.apply_word(("1", "1", "3")) == ("3", "1", "1")


def test_inverse_and_group_laws_random(rng):
    for name in ["interval_F", "circle_T", "cantor_V", "basilica"]:
        S = catalog(name)
        for i in range(12):
            g = random_rearrangement(S, rng, 3, 2)
            h = random_rearrangement(S, rng, 3, 2)
            k = random_rearrangement(S, rng, 2, 1)
            assert compose(g, invert(g)).is_identity(), (name, i)
            assert compose(invert(g), g).is_identity(), (name, i)
            lhs = compose(compose(g, h), k)
            rhs = compose(g, compose(h, k))
            assert lhs == rhs, (name, i)


def test_reduction_order_independence(rng):
    import random as _random

    from rewrite_groups.rearrangement import reduce_with_order

    A = catalog("airplane")
    for i in range(10):
        g = random_rearrangement(A, rng, 2, 2)
        h = g
        for _ in range(4):
            h = h.expand_at(rng.choice(h.domain.cells))
        # re-reducing the padded diagram recovers the canonical form,
        # whatever order the reductions are found in
        assert Rearrangement(h.domain, h.phi, h.range_, h.flips) == g, i
        for j in range(3):
            assert reduce_with_order(h, _random.Random(17 * i + j)) == g, (i, j)


def test_type_preservation(rng):
    A = catalog("airplane")

    def color_and_loop(exp, w):
        color, s, t = exp.cell_ends(w)
        return color, s == t

    for _ in range(10):
        g = random_rearrangement(A, rng, 3, 2)
        for w in g.domain.cells:
            assert color_and_loop(g.domain, w) == color_and_loop(g.range_, g.phi[w])


def test_equality_matches_action_oracle(rng):
    from rewrite_groups.replacement import minimal_refinement

    F, x0, x1 = f_generators()
    for i in range(8):
        g = random_rearrangement(F, rng, 3, 2)
        h = random_rearrangement(F, rng, 3, 2)
        ref = minimal_refinement(g.domain, h.domain)
        agree = all(g.apply_word(w) == h.apply_word(w) for w in ref.cells)
        assert agree == (g == h), i


def test_apply_rational_period_preserved():
    F, x0, x1 = f_generators()
    s = RationalSequence.make(("s", "0"), ("1",))
    image = x0.apply_rational(s)
    assert image == RationalSequence.make(("s", "1", "0"), ("1",))
    # the endpoint 1bar is fixed, its period survives rotation
    one = RationalSequence.make(("s",), ("1",))
    assert x0.apply_rational(one) == one


def test_apply_rational_flipped_cells():
    from rewrite_groups.analysis import dendrite_generators

    g0 = dendrite_generators(3)["g0"]
    s = RationalSequence.make(("1", "1"), ("2",))
    image = g0.apply_rational(s)
    assert image == RationalSequence.make(("3", "1"), ("2",))
    assert invert(g0).apply_rational(image) == s


def _reference_covering(g, word):
    """The domain cell that is a prefix of the word, by a scan of every cell."""
    for w in g.domain.cells:
        if word[: len(w)] == w:
            return w
    return None


def _reference_apply_rational(g, s):
    """apply_rational's cell search as a loop over prefix lengths."""
    maxlen = max(len(w) for w in g.domain.cells)
    for k in range(1, maxlen + 1):
        if s.prefix_of_length(k) in set(g.domain.cells):
            d = s.prefix_of_length(k)
            break
    else:
        raise ValueError("domain cells do not cover the sequence")
    head, k = list(g.phi[d]), len(d)
    if d in g.flips:
        head.append(g.psi(g.domain.cell_color(d)).edge_map[s.letter(k)])
        k += 1
    if k < len(s.prefix):
        return RationalSequence.make(tuple(head) + s.prefix[k:], s.period)
    j = (k - len(s.prefix)) % len(s.period)
    return RationalSequence.make(tuple(head), s.period[j:] + s.period[:j])


def test_cell_lookup_matches_the_cell_scan(rng):
    from conftest import random_rational

    found = uncovered = 0
    for name in ["interval_F", "circle_T", "airplane", "basilica", "dendrite:3"]:
        S = catalog(name)
        for _ in range(6):
            g = random_rearrangement(S, rng, 3, 2)
            words = [c + ("x",) * rng.randint(0, 2) for c in g.domain.cells]
            for _ in range(8):
                p = random_rational(S, rng)
                words.append(p.prefix_of_length(rng.randint(1, 6)))
                assert g.apply_rational(p) == _reference_apply_rational(g, p), (name, p)
            for word in words:
                ref = _reference_covering(g, word)
                if ref is None:
                    uncovered += 1
                    with pytest.raises(ValueError):
                        g.domain_cell_covering(word)
                else:
                    found += 1
                    assert g.domain_cell_covering(word) == ref, (name, word)
        # a sequence outside every cell: its first letter is no base edge
        outside = RationalSequence.make(("nowhere",), (S.base.edges[0].name,))
        with pytest.raises(ValueError):
            g.apply_rational(outside)
        with pytest.raises(ValueError):
            _reference_apply_rational(g, outside)
    assert found >= 200 and uncovered >= 10


def test_power_and_conjugation(rng):
    T, y = t_rotation()
    assert power(y, 2).is_identity()
    g = random_rearrangement(T, rng, 2, 2)
    k = random_rearrangement(T, rng, 2, 2)
    h = conjugate_by(g, k)
    assert conjugate_by(h, invert(k)) == g


def test_json_round_trip(rng):
    A = catalog("airplane")
    for _ in range(6):
        g = random_rearrangement(A, rng, 2, 2)
        data = json.loads(json.dumps(g.to_json()))
        assert rearrangement_from_json(A, data) == g


def test_reduced_flipless_same_element(rng):
    A = catalog("airplane")
    for _ in range(8):
        g = random_rearrangement(A, rng, 2, 2)
        flat = reduced_flipless(g)
        assert not flat.flips
        assert Rearrangement(flat.domain, flat.phi, flat.range_) == g


def test_random_sampler_produces_nontrivial(rng):
    F, _, _ = f_generators()
    got = sum(not random_rearrangement(F, rng, 3, 2).is_identity() for _ in range(20))
    assert got >= 10


def _lies_above(c, target):
    return c not in target and any(len(t) > len(c) and t[:len(c)] == c for t in target)


def _expand_stepwise(g, cells, on_domain):
    """Reference for expand_domain_to/expand_range_to: one expand_at per split
    cell, rescanning the cells after every step."""
    target = {tuple(c) for c in cells}
    out = g
    while True:
        inv = {v: w for w, v in out.phi.items()}
        side = out.domain.cells if on_domain else out.range_.cells
        hit = next((c for c in side if _lies_above(c, target)), None)
        if hit is None:
            return out
        out = out.expand_at(hit if on_domain else inv[hit])


def _random_words(S, rng, count):
    words = []
    for _ in range(count):
        ctx, w = None, []
        for _i in range(rng.randint(1, 5)):
            e = rng.choice(S.graph_of(ctx).edges)
            w.append(e.name)
            ctx = e.color
        words.append(tuple(w))
    return words


def test_expand_to_matches_stepwise_expansion(rng):
    from rewrite_groups.analysis import dendrite_generators

    F, x0, x1 = f_generators()
    samples = [(F, product([x0, x1, invert(x0)])), (F, compose(x1, power(x0, 3)))]
    samples += [(S, random_rearrangement(S, rng, 3, 2))
                for S in map(catalog, ["circle_T", "cantor_V", "basilica", "airplane",
                                       "dendrite:3"]) for _ in range(6)]
    samples += [(g.system, g) for g in dendrite_generators(3).values()]
    split_flips = 0
    for S, g in samples:
        for on_domain in (True, False):
            for _ in range(4):
                target = _random_words(S, rng, rng.randint(1, 4))
                flipped = sorted(g.flips) if on_domain else [g.phi[w] for w in g.flips]
                split_flips += any(_lies_above(c, target) for c in flipped)
                fast = g.expand_domain_to(target) if on_domain else g.expand_range_to(target)
                ref = _expand_stepwise(g, target, on_domain)
                assert fast.encoding() == ref.encoding()
                assert fast.domain.cells == ref.domain.cells
                assert fast.range_.cells == ref.range_.cells
                assert fast.flips == ref.flips
    assert split_flips >= 10


def test_compose_builds_the_same_number_of_expansions_at_any_power(monkeypatch):
    F, x0, x1 = f_generators()
    built = {}
    init = GraphExpansion.__init__
    for n in (8, 32):
        P = power(x0, n)
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GraphExpansion, "__init__", counting)
        assert compose(x1, P).apply_word(("s", "1")) == x1.apply_word(P.apply_word(("s", "1")))
        monkeypatch.setattr(GraphExpansion, "__init__", init)
        built[n] = len(calls)
    assert built[8] == built[32]


# -- reduction in rounds ---------------------------------------------------------


def _reduce_one_family_at_a_time(g, rng=None):
    """Reference for _reduce: merge the first reducible family, rebuild both
    expansions, rescan every family, until none is left."""
    from rewrite_groups.replacement import NotReducible

    domain, range_, phi, flips = g.domain, g.range_, dict(g.phi), set(g.flips)
    system = g.system
    while True:
        parents = {}
        for w in domain.cells:
            if len(w) > 1 and w not in flips:
                parents.setdefault(w[:-1], []).append(w)
        move = None
        order = sorted(parents)
        if rng is not None:
            rng.shuffle(order)
        for u in order:
            kids = parents[u]
            rule_color = domain.cell_color(u)
            names = {e.name for e in system.rules[rule_color].graph.edges}
            if {w[-1] for w in kids} != names:
                continue
            vparents = {phi[w][:-1] for w in kids}
            if len(vparents) != 1:
                continue
            vp = vparents.pop()
            if not vp:
                continue
            letter_map = {w[-1]: phi[w][-1] for w in kids}
            flip = None
            if all(letter_map[e] == e for e in names):
                flip = False
            elif rule_color in system.validate().undirected_colors:
                psi = system.reversing_automorphism(rule_color)
                if psi is not None and all(letter_map[e] == psi.edge_map[e] for e in names):
                    flip = True
            if flip is None:
                continue
            try:
                new_domain = domain.reduce(kids)
                new_range = range_.reduce([phi[w] for w in kids])
            except NotReducible:
                continue
            move = (u, vp, kids, flip, new_domain, new_range)
            break
        if move is None:
            return Rearrangement(domain, phi, range_, flips, _reduced=True)
        u, vp, kids, flip, domain, range_ = move
        for w in kids:
            del phi[w]
        phi[u] = vp
        if flip:
            flips.add(u)


def _flipless_stepwise(g):
    """Reference for Rearrangement.flipless: one expand_at per flipped cell."""
    out = g
    while out.flips:
        out = out.expand_at(sorted(out.flips)[0])
    return out


def _unreduced_compose(g, h):
    """compose(g, h) up to, but not including, the reduction of the product:
    the binary composition of the common refinement, kept as the reference
    for the product kernel."""
    from rewrite_groups.replacement import minimal_refinement

    gf, hf = _flipless_stepwise(g), _flipless_stepwise(h)
    mid = minimal_refinement(gf.domain, hf.range_)
    gf = gf.expand_domain_to(mid.cells)
    hf = hf.expand_range_to(mid.cells)
    hinv = {v: w for w, v in hf.phi.items()}
    return Rearrangement(hf.domain, {hinv[m]: gf.phi[m] for m in mid.cells}, gf.range_,
                         _reduced=True)


def _unreduced_inverse(g):
    return Rearrangement(g.range_, {v: w for w, v in g.phi.items()}, g.domain,
                         [g.phi[w] for w in g.flips], _reduced=True)


def _same_reduction(raw, ref):
    from rewrite_groups.rearrangement import _reduce

    domain, range_, phi, flips = _reduce(raw)
    got = Rearrangement(domain, phi, range_, flips, _reduced=True)
    assert got.encoding() == ref.encoding()
    assert (got.domain.cells, got.range_.cells, got.flips) == \
        (ref.domain.cells, ref.range_.cells, ref.flips)


def test_reduction_rounds_match_one_family_at_a_time(rng):
    from rewrite_groups.rearrangement import reduce_with_order

    F, x0, x1 = f_generators()
    samples = [(F, x) for x in (x0, x1, power(x0, 3), product([x1, x0, invert(x1)]))]
    samples += [(S, random_rearrangement(S, rng, 3, 2))
                for S in map(catalog, ["interval_F", "circle_T", "cantor_V", "basilica",
                                       "airplane", "dendrite:3"]) for _ in range(5)]
    raws = []
    for S, g in samples:
        h = samples[rng.randrange(len(samples))][1]
        if h.system is S:
            raws.append(_unreduced_compose(g, h))
        raws.append(_unreduced_compose(g, g))
        raws.append(_unreduced_inverse(g))
        for on_domain in (True, False):
            target = _random_words(S, rng, rng.randint(1, 4))
            raws.append(g.expand_domain_to(target) if on_domain else g.expand_range_to(target))
    multi_round = 0
    for raw in raws:
        ref = _reduce_one_family_at_a_time(raw)
        _same_reduction(raw, ref)
        multi_round += len(raw.domain.reducible_families()) >= 2
        for seed in range(3):
            shuffled = reduce_with_order(raw, random.Random(seed))
            assert shuffled.encoding() == ref.encoding()
            assert shuffled.encoding() == _reduce_one_family_at_a_time(
                raw, random.Random(seed)).encoding()
    assert multi_round >= 20  # first rounds that merge two families or more


# -- the product kernel ------------------------------------------------------------


def _compose_reference(g, h):
    """compose(g, h) the binary way: refine, expand both sides, reduce."""
    raw = _unreduced_compose(g, h)
    return Rearrangement(raw.domain, raw.phi, raw.range_, raw.flips)


def _product_reference(factors):
    out = factors[0]
    for g in factors[1:]:
        out = _compose_reference(g, out)
    return out


def _same_element(got, ref):
    assert got.encoding() == ref.encoding()
    assert (got.domain.cells, got.range_.cells, got.flips) == \
        (ref.domain.cells, ref.range_.cells, ref.flips)
    assert got.domain.leaf_graph == ref.domain.leaf_graph
    assert got.range_.leaf_graph == ref.range_.leaf_graph


def _check_product(factors):
    from rewrite_groups.rearrangement import _product_map

    _same_element(product(factors), _product_reference(factors))
    if len(factors) > 1:
        phi = _product_map(factors)[0]
        assert len(phi) <= sum(len(_flipless_stepwise(f).phi) for f in factors)


def test_flipless_matches_one_expand_at_per_flip(rng):
    from rewrite_groups.analysis import dendrite_generators

    samples = [("dendrite:3", g) for g in dendrite_generators(3).values()]
    for name in ("circle_T", "basilica", "airplane", "dendrite:3"):
        S = catalog(name)
        samples += [(name, random_rearrangement(S, rng, 3, 2)) for _ in range(12)]
    for _name, g in samples:
        fast, ref = g.flipless(), _flipless_stepwise(g)
        assert not fast.flips
        assert fast.phi == ref.phi
        assert (fast.domain.cells, fast.range_.cells) == (ref.domain.cells, ref.range_.cells)
        assert fast.domain.leaf_graph == ref.domain.leaf_graph
        assert fast.range_.leaf_graph == ref.range_.leaf_graph
        assert fast.encoding() == ref.encoding()
    # circle_T and basilica have no undirected color, so no element of theirs is flipped
    flipped = [(name, g) for name, g in samples if g.flips]
    assert {name for name, _g in flipped} == {"airplane", "dendrite:3"}
    assert len(flipped) >= 10 and sum(len(g.flips) for _name, g in flipped) >= 20


def test_product_matches_binary_compose(rng):
    from rewrite_groups.analysis import dendrite_generators

    F, x0, x1 = f_generators()
    T, y = t_rotation()
    gens = {"interval_F": [x0, x1], "circle_T": [y], "cantor_V": [],
            "basilica": [], "airplane": [], "dendrite:3": list(dendrite_generators(3).values())}
    flipped = 0
    for name, letters in gens.items():
        S = letters[0].system if letters else catalog(name)
        pool = letters + [invert(g) for g in letters]
        pool += [random_rearrangement(S, rng, 3, 2) for _ in range(4)]
        for _ in range(6):
            factors = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
            flipped += any(f.flips for f in factors)
            _check_product(factors)
    assert flipped >= 6


def test_power_compose_and_conjugate_by_match_binary_compose(rng):
    F, x0, x1 = f_generators()
    for n in (1, 2, 5, 17):
        _same_element(power(x0, n), _product_reference([x0] * n))
    _same_element(power(x1, -3), _product_reference([invert(x1)] * 3))
    assert power(x0, 0) == identity(F)
    P = power(x0, 24)
    for u in (x0, x1, invert(x0), invert(x1)):
        _same_element(compose(u, P), _compose_reference(u, P))
        _same_element(compose(P, u), _compose_reference(P, u))
    for name in ("circle_T", "cantor_V", "basilica", "airplane", "dendrite:3"):
        S = catalog(name)
        for _ in range(3):
            g = random_rearrangement(S, rng, 3, 2)
            k = random_rearrangement(S, rng, 2, 2)
            ref = _compose_reference(invert(k), _compose_reference(g, k))
            _same_element(conjugate_by(g, k), ref)
            _same_element(power(g, 3), _product_reference([g] * 3))


def test_groupoid_chains_of_closed_reduction_logs(rng):
    from rewrite_groups import conjugacy as cj
    from rewrite_groups.analysis import dendrite_generators

    F, x0, x1 = f_generators()
    samples = []
    for letters in ([x0, x1], list(dendrite_generators(3).values())):
        pool = letters + [invert(g) for g in letters]
        samples += [product([rng.choice(pool) for _ in range(4)]) for _ in range(5)]
    samples += [random_rearrangement(catalog(name), rng, 3, 2)
                for name in ("circle_T", "basilica") for _ in range(2)]
    logged = 0
    for g in samples:
        eta0 = cj.close_element(g)
        K0 = cj.initial_renaming(g.system, eta0, g)
        _eta, log = cj.reduce_closed(eta0)
        logged += len(log) >= 2
        # K = K0 e1 .. en (apply en first) and its inverse
        _check_product([*(mv.conj for mv in reversed(log)), K0])
        _check_product([invert(K0), *(invert(mv.conj) for mv in log)])
    assert logged >= 8


def test_product_builds_one_element(monkeypatch):
    from rewrite_groups.analysis import dendrite_generators

    D = dendrite_generators(3)
    factors = [D["g0"], D["g1"], invert(D["g0"]), D["g1"], D["g0"]]
    assert any(f.flips for f in factors)
    built = []
    init = Rearrangement.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rearrangement, "__init__", counting)
    product(factors)
    monkeypatch.setattr(Rearrangement, "__init__", init)
    assert len(built) == 1


def test_product_checks_every_junction():
    from rewrite_groups.rearrangement import SystemMismatch

    F, x0, x1 = f_generators()
    T, y = t_rotation()
    with pytest.raises(SystemMismatch):
        product([x0, x1, y])
    with pytest.raises(ValueError):
        product([])


def test_products_build_no_leaf_graph(monkeypatch):
    from rewrite_groups.analysis import dendrite_generators
    from rewrite_groups.graphs import ColoredGraph
    from rewrite_groups.replacement import full_expansion

    D = dendrite_generators(3)
    factors = [D["g0"], D["g1"], invert(D["g0"]), D["g1"], D["g0"]]
    F, x0, x1 = f_generators()
    built = []
    init = ColoredGraph.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ColoredGraph, "__init__", counting)
    product(factors)
    compose(x1, power(x0, 40))
    assert built == []
    E = full_expansion(F, 5)
    assert built == []
    E.leaf_graph
    E.leaf_graph
    assert len(built) == 1


def test_inconsistent_vertex_image_names_a_cell():
    F = catalog("interval_F")
    E = base_expansion(F).expand(("s",))
    # swapping the halves of s: s 0 sends the middle vertex to the right end,
    # s 1 sends it to the left end
    with pytest.raises(NotAnIsomorphism, match=r"vertex s 1/s"):
        Rearrangement(E, {("s", "0"): ("s", "1"), ("s", "1"): ("s", "0")}, E)
    assert "leaf_graph" not in E.__dict__  # the message is named without the graph


def test_loop_and_non_loop_cells_are_different_types():
    B = catalog("basilica")
    E = base_expansion(B).expand(("L",))
    _, s, t = E.cell_ends(("L", "1"))
    _, s0, t0 = E.cell_ends(("L", "0"))
    assert s == t and s0 != t0
    phi = {w: w for w in E.cells}
    phi[("L", "0")], phi[("L", "1")] = ("L", "1"), ("L", "0")
    with pytest.raises(TypeMismatch):
        Rearrangement(E, phi, E)
