"""The three workloads: seeded operations with their correctness checks.

A workload is a list of operations.  One round runs each of them once; a run
repeats whole rounds, so every run attempts the same operations in the same
proportions.  Each operation builds fresh input objects from JSON (untimed),
makes one library call (timed) and has its output checked against a
reference from ``reference`` (untimed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference as ref

CORPUS = Path(__file__).resolve().parent / "corpus.json"


class Mismatch(AssertionError):
    """An output that disagrees with its reference."""


def expect(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


@dataclass
class Op:
    cls: str                      # "small" or "large"
    label: str                    # system or kind, for the per-label breakdown
    make: Callable[[], tuple]     # fresh inputs, untimed
    call: Callable[..., object]   # the timed library call
    check: Callable[[object], None]
    fingerprint: Callable[[object], object]
    pinned_fault: str = ""        # exception name it raises until the fault is mended


@dataclass
class Workload:
    ops: list
    notes: dict


# -- shared pieces --------------------------------------------------------------


class System:
    """A catalog system with its generator JSON and seeded sample points."""

    def __init__(self, lib, name, gens, rng, points: int = 4):
        self.lib = lib
        self.name = name
        self.system = lib.catalog.catalog(name)
        self.system.validate()
        self.gens = {k: inputs.as_json(v) for k, v in inputs.generator_table(gens).items()}
        RS = lib.replacement.RationalSequence
        self.points = [RS.make(*inputs.random_point(self.system, rng)) for _ in range(points)]
        self.check_inverses()

    def element(self, data):
        return self.lib.rearrangement.rearrangement_from_json(self.system, data)

    def word_json(self, word) -> dict:
        """The element of a word, computed by the library (set-up only)."""
        R = self.lib.rearrangement
        return R.product([self.element(self.gens[x]) for x in word]).to_json()

    def act(self, word, p):
        """The point p moved by the word's letters one after the other."""
        for x in word:
            p = self.element(self.gens[x]).apply_rational(p)
        return p

    def check_inverses(self):
        for x in self.gens:
            if not x.endswith("^-1"):
                for p in self.points:
                    expect(self.act([x, x + "^-1"], p) == p, f"{self.name}: {x}^-1 is no inverse")


def dendrite_system(lib, rng, points: int = 4) -> System:
    gens = lib.analysis.dendrite_generators(3)
    table = {name: [[list(w), list(g.phi[w])] + ([True] if w in g.flips else [])
                    for w in g.domain.cells] for name, g in gens.items()}
    return System(lib, "dendrite:3", table, rng, points)


def element_fingerprint(g):
    return None if g is None else g.encoding()


# -- group-words ----------------------------------------------------------------

WORD_SYSTEMS = ("interval_F", "circle_T", "cantor_V", "basilica", "dendrite:3", "airplane")
# word lengths at which one product costs about the same (6-9 ms) in every system
WORD_LENGTHS = {"interval_F": 6, "circle_T": 8, "cantor_V": 8, "basilica": 9,
                "dendrite:3": 4, "airplane": 4}
# The large class composes every generator letter u with one power P per
# system, u o P, so it measures the same work on every seed.  With u a seeded
# word of three letters, the cantor_V and dendrite:3 medians moved by up to
# 40 % between seeds.
WORD_CONFIG = {
    "words_per_system": 64,
    "x0_power": 40,         # F and V: u o x0^40, about 43 cells
    "g1_power": 12,         # dendrite:3: u o g1^12
}


def group_words(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    cfg = WORD_CONFIG
    systems = {}
    for name in WORD_SYSTEMS:
        if name == "dendrite:3":
            systems[name] = dendrite_system(lib, rng)
        else:
            systems[name] = System(lib, name, inputs.GENERATORS[name], rng)
    ops = []
    for name in WORD_SYSTEMS:
        S = systems[name]
        for _ in range(cfg["words_per_system"]):
            word = inputs.random_word(rng, S.gens, WORD_LENGTHS[name])
            ops.append(_word_op(S, word))
    powers = {
        "interval_F": (["x0"] * cfg["x0_power"], inputs.as_json(inputs.x0_power(cfg["x0_power"]))),
        "cantor_V": (["x0"] * cfg["x0_power"], inputs.as_json(inputs.x0_power(cfg["x0_power"]))),
        "dendrite:3": (["g1"] * cfg["g1_power"], None),
    }
    for name, (power_word, power_json) in powers.items():
        S = systems[name]
        if power_json is None:
            R = lib.rearrangement
            power_json = R.power(S.element(S.gens["g1"]), cfg["g1_power"]).to_json()
        for p in S.points:
            expect(S.element(power_json).apply_rational(p) == S.act(power_word, p),
                   f"{name}: power element acts wrongly")
        for u in sorted(S.gens):
            ops.append(_compose_op(S, [u], S.gens[u], power_word, power_json))
    rng.shuffle(ops)
    return Workload(ops, {**cfg, "word_lengths": WORD_LENGTHS})


def _pl_of_word(S, word):
    return ref.product_map([ref.PLMap.from_cell_map(_pairs(S.gens[x])) for x in word])


def _pairs(data):
    return [(tuple(e[0]), tuple(e[1])) for e in data["phi"]]


def _check_element(S, g, word):
    """g must act on the sample points as the word does; in F, be its PL map."""
    for p in S.points:
        expect(g.apply_rational(p) == S.act(word, p), f"{S.name}: wrong action of {word}")
    if S.name == "interval_F":
        expect(not g.flips, "flip in F")
        pl = _pl_of_word(S, word)
        expect(ref.PLMap.from_cell_map(g.phi.items()) == pl, f"F: wrong PL map for {word}")
        for p in S.points:
            q = g.apply_rational(p)
            expect(ref.sequence_value(q.prefix, q.period)
                   == pl(ref.sequence_value(p.prefix, p.period)),
                   "F: apply_rational disagrees with the PL map")


def _word_op(S, word) -> Op:
    R = S.lib.rearrangement
    return Op(
        "small", S.name,
        make=lambda: ([S.element(S.gens[x]) for x in word],),
        call=lambda factors: R.product(factors),
        check=lambda g: _check_element(S, g, word),
        fingerprint=element_fingerprint,
    )


def _compose_op(S, u, u_json, power_word, power_json) -> Op:
    R = S.lib.rearrangement
    return Op(
        "large", S.name,
        make=lambda: (S.element(u_json), S.element(power_json)),
        call=lambda a, b: R.compose(a, b),
        # compose(a, b) applies b first
        check=lambda g: _check_element(S, g, power_word + u),
        fingerprint=element_fingerprint,
    )


# -- conj-pairs -------------------------------------------------------------------

CONJ_SMALL_SYSTEMS = ("interval_F", "circle_T", "cantor_V", "basilica", "airplane")
CONJ_CONFIG = {
    "small_pairs_per_system": 32,
    "small_g_length": 3,
    "small_k_length": 2,
    "f_negative_pairs": 16,
}


def conj_pairs(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    cfg = CONJ_CONFIG
    cj = lib.conjugacy
    ops = []
    for name in CONJ_SMALL_SYSTEMS:
        S = System(lib, name, inputs.GENERATORS[name], rng)
        if name != "airplane":
            cj.check_reduction_confluence(S.system, 4)
        for _ in range(cfg["small_pairs_per_system"]):
            ops.append(_small_positive(S, rng, cfg))
        if name == "interval_F":
            for _ in range(cfg["f_negative_pairs"]):
                ops.append(_f_negative_pair(S, rng, cfg))
    D = dendrite_system(lib, rng)
    cj.check_reduction_confluence(D.system, 4)
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    ops += [_corpus_pair(D, pair) for pair in corpus["pairs"]]
    ops.append(_pinned_pair(D))
    rng.shuffle(ops)
    return Workload(ops, {**cfg, "corpus_pairs": len(corpus["pairs"])})


def _small_positive(S, rng, cfg) -> Op:
    g = inputs.random_word(rng, S.gens, cfg["small_g_length"])
    k = inputs.random_word(rng, S.gens, cfg["small_k_length"])
    g_json, _k_json, h_json = conjugate_input(S, g, k)
    return _positive_pair(S, "small", S.name, g_json, h_json)


def _corpus_pair(D, pair) -> Op:
    g_json, h_json = (inputs.as_json(pair[x]) for x in "gh")
    if pair["conjugate"]:
        return _positive_pair(D, "large", D.name, g_json, h_json)
    phi_g, phi_g2 = ref.word_phi(pair["g_word"]), ref.word_phi(pair["g2_word"])
    expect(phi_g != phi_g2, "corpus: negative pair without a certificate")
    return _negative_pair(D, "large", g_json, h_json, f"phi {phi_g} != {phi_g2}")


def conjugate_input(S, g_word, k_word) -> tuple:
    """(g, k, h = k^-1 g k) as JSON; h is checked to act as k^-1 g k."""
    R = S.lib.rearrangement
    g_json = S.word_json(g_word)
    k_json = S.word_json(k_word)
    h_json = R.conjugate_by(S.element(g_json), S.element(k_json)).to_json()
    for p in S.points:
        # k(h(p)) = g(k(p))
        h = S.element(h_json)
        expect(S.act(k_word, h.apply_rational(p)) == S.act(k_word + g_word, p),
               f"{S.name}: conjugate_by built a wrong input")
    return g_json, k_json, h_json


def _conj_op(S, cls, label, g_json, h_json, check) -> Op:
    cj = S.lib.conjugacy
    return Op(
        cls, label,
        make=lambda: (S.element(g_json), S.element(h_json),
                      cj.augment_airplane(S.system) if S.name == "airplane" else None),
        call=lambda g, h, rules: cj.conjugate(g, h, rules=rules),
        check=check,
        fingerprint=element_fingerprint,
    )


def _positive_pair(S, cls, label, g_json, h_json) -> Op:
    R = S.lib.rearrangement

    def check(k):
        expect(k is not None, f"{S.name}: conjugate pair declared not conjugate")
        g, h = S.element(g_json), S.element(h_json)
        expect(R.conjugate_by(g, k) == h, f"{S.name}: k^-1 g k != h")
        for p in S.points:
            expect(k.apply_rational(h.apply_rational(p)) == g.apply_rational(k.apply_rational(p)),
                   f"{S.name}: conjugator acts wrongly")

    return _conj_op(S, cls, label, g_json, h_json, check)


def _negative_pair(S, cls, g_json, h_json, certificate) -> Op:
    def check(k):
        expect(k is None, f"{S.name}: pair with {certificate} declared conjugate")

    return _conj_op(S, cls, S.name + " (not conjugate)", g_json, h_json, check)


def _f_negative_pair(S, rng, cfg) -> Op:
    """F words with different end slopes, read off the cell maps of g and h."""
    while True:
        g = inputs.random_word(rng, S.gens, cfg["small_g_length"])
        g2 = inputs.random_word(rng, S.gens, cfg["small_g_length"])
        k = inputs.random_word(rng, S.gens, cfg["small_k_length"])
        g_json = S.word_json(g)
        h_json = conjugate_input(S, g2, k)[2]
        slopes_g = ref.PLMap.from_cell_map(_pairs(g_json)).end_slopes()
        slopes_h = ref.PLMap.from_cell_map(_pairs(h_json)).end_slopes()
        if slopes_g != slopes_h:
            return _negative_pair(S, "small", g_json, h_json, "different end slopes")


def _pinned_pair(D) -> Op:
    g_json, k_json, h_json = (inputs.as_json(inputs.PINNED_PAIR[x]) for x in "gkh")
    R = D.lib.rearrangement
    expect(R.conjugate_by(D.element(g_json), D.element(k_json)) == D.element(h_json),
           "pinned pair: h != k^-1 g k")
    op = _positive_pair(D, "large", "dendrite:3 (pinned)", g_json, h_json)
    op.pinned_fault = "NotAnIsomorphism"
    return op


# -- limit-space ------------------------------------------------------------------

# circle_T and basilica are left out: gluing_class raises NotInSymbolSpace on
# every point of a system that needs loop normalization.
GLUING_SYSTEMS = ("interval_F", "airplane", "dendrite:3", "vicsek:4", "bubble_bath")
# Full expansions of 0.2-0.75 s.
EXPANSIONS = (("airplane", 4), ("dendrite:4", 3), ("circle_T", 7), ("interval_F", 7),
              ("cantor_V", 7), ("dendrite:3", 4))
LIMIT_CONFIG = {"queries_per_system": 48, "non_members": 2}


def limit_space(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    cfg = LIMIT_CONFIG
    ops = []
    for name in GLUING_SYSTEMS:
        S = lib.catalog.catalog(name)
        S.validate()
        for i in range(cfg["queries_per_system"]):
            # every other point has period one, which often sits on a vertex
            # of some expansion and so has a larger gluing class
            s = inputs.random_point(S, rng, max_period=1 + 2 * (i % 2))
            others = [inputs.random_point(S, rng) for _ in range(cfg["non_members"])]
            ops.append(_gluing_op(lib, name, S, s, others))
    for name, depth in EXPANSIONS:
        S = lib.catalog.catalog(name)
        S.validate()
        ops.append(_expansion_op(lib, name, S, depth))
    rng.shuffle(ops)
    return Workload(ops, {**cfg, "expansions": EXPANSIONS})


def _gluing_query(gl, S, s, others):
    cls = gl.gluing_class(S, s)
    members = sorted(cls, key=str)
    return cls, [gl.glued(S, s, m) for m in members] + [gl.glued(S, s, t) for t in others]


def _gluing_op(lib, name, S, s, others) -> Op:
    gl = lib.gluing
    RS = lib.replacement.RationalSequence

    def fresh():
        return RS.make(*s), [RS.make(*t) for t in others]

    def check(result):
        cls, decisions = result
        point, rest = fresh()
        members = sorted(cls, key=str)
        expect(point in cls, f"{name}: {point} missing from its own gluing class")
        expect(decisions == [gl.glued_brute_force(S, point, t) for t in members + rest],
               f"{name}: glued disagrees with the level-adjacency oracle")
        expect(decisions[:len(members)] == [True] * len(members),
               f"{name}: a class member is not glued")
        for m in members:
            expect(gl.gluing_class(S, m) == cls, f"{name}: gluing class not closed at {m}")
        if name == "interval_F":
            x = ref.sequence_value(point.prefix, point.period)
            expect(decisions == [ref.sequence_value(t.prefix, t.period) == x
                                 for t in members + rest],
                   f"{name}: glued disagrees with equality of the numbers")

    return Op(
        "small", name,
        make=fresh,
        call=lambda point, rest: _gluing_query(gl, S, point, rest),
        check=check,
        fingerprint=lambda r: (frozenset(r[0]), tuple(r[1])),
    )


def _expansion_op(lib, name, S, depth) -> Op:
    RP = lib.replacement
    rules = {c: ([e.color for e in r.graph.edges], len(r.graph.vertices),
                 len(r.boundary_vertices())) for c, r in S.rules.items()}
    cells, vertices = ref.expansion_counts([e.color for e in S.base.edges], rules,
                                           len(S.base.vertices), depth)

    def check(exp):
        expect(len(exp.cells) == cells, f"{name} E_{depth}: {len(exp.cells)} cells, expected {cells}")
        expect(len(exp.leaf_graph.vertices) == vertices,
               f"{name} E_{depth}: {len(exp.leaf_graph.vertices)} vertices, expected {vertices}")
        expect(all(len(w) == depth + 1 for w in exp.cells), f"{name} E_{depth}: uneven depth")

    return Op(
        "large", f"{name} E{depth}",
        make=lambda: (),
        call=lambda: RP.full_expansion(S, depth),
        check=check,
        fingerprint=lambda exp: exp.cells,
    )


WORKLOADS = {"group-words": group_words, "conj-pairs": conj_pairs, "limit-space": limit_space}
