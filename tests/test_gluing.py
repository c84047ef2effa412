import random

import pytest

from conftest import random_rational

from rewrite_groups.catalog import catalog, dendrite_edge_base
from rewrite_groups.rearrangement import random_rearrangement
from rewrite_groups.replacement import RationalSequence as RS
from rewrite_groups import gluing as gl


def test_interval_automaton_exact():
    aut = gl.build(catalog("interval_F"))
    assert aut.state_count() == 4
    assert aut.transition_count() == 7
    states = {gl._state_str(q) for q in aut.states}
    assert states == {"q0(0)", "q0(1)", "q1(1 in; 1 out)", "q1(1 out; 1 in)"}
    expected = {
        (("q0", "0"), ("s", "s")): ("q0", "1"),
        (("q0", "1"), ("0", "0")): ("q0", "1"),
        (("q0", "1"), ("1", "1")): ("q0", "1"),
        (("q0", "1"), ("0", "1")): ("q1", "1", "in", "1", "out"),
        (("q0", "1"), ("1", "0")): ("q1", "1", "out", "1", "in"),
        (("q1", "1", "in", "1", "out"), ("1", "0")): ("q1", "1", "in", "1", "out"),
        (("q1", "1", "out", "1", "in"), ("0", "1")): ("q1", "1", "out", "1", "in"),
    }
    assert aut.transitions == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dendrite_automaton_exact(n):
    # the single-edge-base variant gives the cleanest automaton
    aut = gl.build(dendrite_edge_base(n))
    assert aut.state_count() == 4
    # (s,s); (i,i) x n; (i,j) x n(n-1); (1,1); (n,n)
    assert aut.transition_count() == 1 + n + n * (n - 1) + 2
    states = {gl._state_str(q) for q in aut.states}
    assert states == {"q0(0)", "q0(1)", "q1(1 out; 1 out)", "q1(1 in; 1 in)"}
    out_out = ("q1", "1", "out", "1", "out")
    in_in = ("q1", "1", "in", "1", "in")
    assert aut.step(out_out, ("1", "1")) == in_in
    assert aut.step(in_in, (str(n), str(n))) == in_in
    assert aut.step(in_in, ("1", "1")) is None
    # the star-base catalog system trims to the same four states
    aut2 = gl.build(catalog("dendrite", n))
    assert {gl._state_str(q) for q in aut2.states} == states


def basilica_expected_rows():
    """The basilica automaton's full transition table, row by row.

    Letters: base L, R; non-loop rule '1' has edges 0, 1, 2 (1 is the red
    loop); loop rule '1~', its copy with iota and tau identified, keeps the
    letters 0, 1, 2.  Colors: blue = 1, red = 1~.
    """
    B, R = "1", "1~"
    t = {}

    def q0(c):
        return ("q0", c)

    def q1(i, g, j, d):
        return ("q1", i, g, j, d)

    # types 0 and 1
    t[(q0("0"), ("L", "L"))] = q0(R)
    t[(q0("0"), ("R", "R"))] = q0(R)
    t[(q0("0"), ("L", "R"))] = q1(R, "lp", R, "lp")
    t[(q0("0"), ("R", "L"))] = q1(R, "lp", R, "lp")
    rows1 = {
        ("0", "0"): q0(B), ("0", "1"): q1(B, "in", R, "lp"),
        ("0", "2"): q1(B, "in", B, "out"), ("1", "0"): q1(R, "lp", B, "in"),
        ("1", "1"): q0(R), ("1", "2"): q1(R, "lp", B, "out"),
        ("2", "0"): q1(B, "out", B, "in"), ("2", "1"): q1(B, "out", R, "lp"),
        ("2", "2"): q0(B),
    }
    for pair, nxt in rows1.items():
        t[(q0(B), pair)] = nxt
    rows2 = {
        ("0", "0"): q0(B), ("0", "1"): q1(B, "in", R, "lp"),
        ("0", "2"): q1(B, "db+", B, "db-"),
        ("1", "0"): q1(R, "lp", B, "in"), ("1", "1"): q0(R),
        ("1", "2"): q1(R, "lp", B, "out"),
        ("2", "0"): q1(B, "db+", B, "db-"),
        ("2", "1"): q1(B, "out", R, "lp"), ("2", "2"): q0(B),
    }
    for pair, nxt in rows2.items():
        t[(q0(R), pair)] = nxt
    # type 2
    t[(q1(R, "lp", R, "lp"), ("0", "0"))] = q1(B, "out", B, "out")
    t[(q1(R, "lp", R, "lp"), ("0", "2"))] = q1(B, "out", B, "in")
    t[(q1(R, "lp", R, "lp"), ("2", "0"))] = q1(B, "in", B, "out")
    t[(q1(R, "lp", R, "lp"), ("2", "2"))] = q1(B, "in", B, "in")
    t[(q1(B, "in", R, "lp"), ("2", "0"))] = q1(B, "in", B, "out")
    t[(q1(B, "in", R, "lp"), ("2", "2"))] = q1(B, "in", B, "in")
    t[(q1(B, "in", B, "out"), ("2", "0"))] = q1(B, "in", B, "out")
    t[(q1(R, "lp", B, "in"), ("0", "2"))] = q1(B, "out", B, "in")
    t[(q1(R, "lp", B, "in"), ("2", "2"))] = q1(B, "in", B, "in")
    t[(q1(R, "lp", B, "out"), ("0", "0"))] = q1(B, "out", B, "out")
    t[(q1(R, "lp", B, "out"), ("2", "0"))] = q1(B, "in", B, "out")
    t[(q1(B, "out", B, "in"), ("0", "2"))] = q1(B, "out", B, "in")
    t[(q1(B, "out", R, "lp"), ("0", "0"))] = q1(B, "out", B, "out")
    t[(q1(B, "out", R, "lp"), ("0", "2"))] = q1(B, "out", B, "in")
    t[(q1(B, "out", B, "out"), ("0", "0"))] = q1(B, "out", B, "out")
    t[(q1(B, "in", B, "in"), ("2", "2"))] = q1(B, "in", B, "in")
    t[(q1(B, "db+", B, "db-"), ("0", "2"))] = q1(B, "out", B, "in")
    t[(q1(B, "db+", B, "db-"), ("2", "0"))] = q1(B, "in", B, "out")
    return t


def test_basilica_automaton_row_for_row():
    aut = gl.build(catalog("basilica"))
    expected = basilica_expected_rows()
    assert aut.transitions == expected
    assert aut.state_count() == 13


def test_gluing_examples_interval():
    I = catalog("interval_F")
    aut = gl.build(I)
    # w 1 0bar ~ w 0 1bar for w = 01
    assert gl.glued(aut, RS.make(("s", "0", "1", "1"), ("0",)),
                    RS.make(("s", "0", "1", "0"), ("1",)))
    assert not gl.glued(aut, RS.make(("s",), ("0",)), RS.make(("s",), ("1",)))


def test_gluing_examples_airplane():
    A = catalog("airplane")
    aut = gl.build(A)
    assert gl.glued(aut, RS.make(("s", "b2"), ("r2",)), RS.make(("s", "b3"), ("r1",)))
    assert not gl.glued(aut, RS.make(("s", "b2"), ("r1",)), RS.make(("s", "b3"), ("r1",)))


def test_glued_rejects_garbage():
    A = catalog("airplane")
    with pytest.raises(gl.NotInSymbolSpace):
        gl.glued(A, RS.make(("s", "b2"), ("b1",)), RS.make(("s",), ("b1",)))


def test_oracle_agreement(rng):
    for name in ["interval_F", "basilica", "airplane", "dendrite:3"]:
        S = catalog(name)
        aut = gl.build(S)
        for _ in range(40):
            a = random_rational(S, rng)
            b = random_rational(S, rng)
            assert gl.glued(aut, a, b) == gl.glued_brute_force(S, a, b), (name, str(a), str(b))


def test_gluing_is_reflexive_symmetric_transitive_sampled(rng):
    for name in ["interval_F", "dendrite:3"]:
        S = catalog(name)
        aut = gl.build(S)
        for _ in range(15):
            a = random_rational(S, rng)
            assert gl.glued(aut, a, a)
            cls = gl.gluing_class(S, a)
            for x in cls:
                for y in cls:
                    assert gl.glued(aut, x, y)


def test_rearrangements_preserve_gluing(rng):
    for name in ["airplane", "basilica"]:
        S = catalog(name)
        aut = gl.build(S)
        for _ in range(15):
            a = random_rational(S, rng)
            b = random_rational(S, rng)
            g = random_rearrangement(S, rng, 2, 1)
            if gl.glued(aut, a, b):
                assert gl.glued(aut, g.apply_rational(a), g.apply_rational(b))


def test_gluing_class_interval_midpoint():
    I = catalog("interval_F")
    cls = gl.gluing_class(I, RS.make(("s", "0"), ("1",)))
    assert {str(x) for x in cls} == {"s 0 (1)", "s 1 (0)"}


def test_gluing_class_endpoint_singleton():
    I = catalog("interval_F")
    cls = gl.gluing_class(I, RS.make(("s",), ("0",)))
    assert {str(x) for x in cls} == {"s (0)"}


def test_gluing_class_dendrite_branch_point():
    D = catalog("dendrite", 3)
    cls = gl.gluing_class(D, RS.make(("1", "1"), ("3",)))
    assert {str(x) for x in cls} == {"1 1 (3)", "2 1 (3)", "3 1 (3)"}


def test_gluing_class_requires_finite_branching():
    from rewrite_groups.graphs import ColoredGraph, Edge
    from rewrite_groups.replacement import ReplacementSystem, Rule

    # the irrational-vertices example: two parallel edges into the middle
    rule = ColoredGraph(["i", "c", "t"], [
        Edge("0", "1", "i", "c"), Edge("1", "1", "i", "c"), Edge("2", "1", "c", "t"),
    ])
    base = ColoredGraph(["x", "y"], [Edge("s", "1", "x", "y")])
    S = ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})
    assert not S.validate().finite_branching_sufficient
    with pytest.raises(gl.FiniteBranchingUnknown):
        gl.gluing_class(S, RS.make(("s",), ("2",)))


def test_automaton_emitters():
    aut = gl.build(catalog("interval_F"))
    dot = gl.automaton_to_dot(aut)
    assert dot.startswith("digraph") and "q0(0)" in dot
    data = gl.automaton_to_json(aut)
    assert len(data["transitions"]) == 7


@pytest.mark.parametrize("name, point, expected", [
    ("circle_T", (("s", "0"), ("1",)), {"s 0 (1)", "s 1 (0)"}),
    ("circle_T", (("s",), ("0",)), {"s (0)", "s (1)"}),
    ("basilica", (("R",), ("2",)), {"L (0)", "L (2)", "R (0)", "R (2)"}),
])
def test_gluing_class_of_loop_normalized_systems(name, point, expected):
    # these systems are loop-normalized first, which keeps every letter
    S = catalog(name)
    s = RS.make(*point)
    cls = gl.gluing_class(S, s)
    assert {str(m) for m in cls} == expected
    for m in cls:
        assert gl.glued_brute_force(S, s, m)
        assert gl.gluing_class(S, m) == cls


def _count_builds(monkeypatch):
    """The systems gl.build is called on, in order."""
    built = []
    build = gl.build

    def counting(system):
        built.append(system)
        return build(system)

    monkeypatch.setattr(gl, "build", counting)
    return built


def test_queries_on_one_system_compile_one_automaton(rng, monkeypatch):
    S = catalog("dendrite:3")
    points = [random_rational(S, rng) for _ in range(6)]
    fresh = gl.build(S)
    expected_classes = [gl.gluing_class(fresh.original, p) for p in points]
    expected_answers = [gl.glued(fresh, a, b) for a in points for b in points]
    S = catalog("dendrite:3")  # a second system, with no automaton yet
    built = _count_builds(monkeypatch)
    for _ in range(2):
        assert [gl.gluing_class(S, p) for p in points] == expected_classes
        assert [gl.glued(S, a, b) for a in points for b in points] == expected_answers
    assert built == [S]


def test_refused_automaton_is_not_kept(monkeypatch):
    from rewrite_groups.graphs import ColoredGraph, Edge
    from rewrite_groups.replacement import ReplacementSystem, Rule

    # one edge replaced by one edge: not expanding
    rule = ColoredGraph(["i", "t"], [Edge("0", "1", "i", "t")])
    base = ColoredGraph(["x", "y"], [Edge("s", "1", "x", "y")])
    S = ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})
    built = _count_builds(monkeypatch)
    s = RS.make(("s",), ("0",))
    for _ in range(2):
        with pytest.raises(gl.NotExpanding):
            gl.glued(S, s, s)
    assert built == [S, S]


# -- the indexed product, peeled liveness and one-path enumeration -----------------


def _seeded_period(seed, length):
    rng = random.Random(seed)
    return tuple(rng.choice("01") for _ in range(length))


@pytest.mark.parametrize("length", [1500, 3000])
def test_gluing_class_of_a_long_period(length):
    # a recursive partner enumeration exceeds the interpreter's recursion limit here
    s = RS.make(("s",), _seeded_period(length, length))
    assert gl.gluing_class(catalog("interval_F"), s) == {s}


def reference_run_lasso(aut, t1, t2):
    """The lasso run with tagged phases ("p", i) / ("c", k), one letter at a time."""
    state = aut.initial
    seen = set()
    i = 0

    def phase(t, i):
        if i < len(t.prefix):
            return ("p", i)
        return ("c", (i - len(t.prefix)) % len(t.period))

    while True:
        key = (state, phase(t1, i), phase(t2, i))
        if key in seen:
            return True
        seen.add(key)
        state = aut.step(state, (t1.letter(i), t2.letter(i)))
        if state is None:
            return False
        i += 1


def reference_gluing_class(system, s):
    """Scan every transition per product node, DFS liveness, recursive enumeration."""
    if not system.validate().finite_branching_sufficient:
        raise gl.FiniteBranchingUnknown("degree-one condition")
    aut = gl._automaton(system)
    L, P = len(s.prefix), len(s.period)

    def phase(i):
        return i if i < L else L + (i - L) % P

    succ, nodes = {}, set()
    frontier = [(aut.initial, 0)]
    while frontier:
        state, ph = frontier.pop()
        if (state, ph) in nodes:
            continue
        nodes.add((state, ph))
        for (st, pair), nxt in aut.transitions.items():
            if st != state or pair[0] != s.letter(ph):
                continue
            succ.setdefault((state, ph), []).append((pair[1], (nxt, phase(ph + 1))))
            frontier.append((nxt, phase(ph + 1)))
    live = set()
    for node in nodes:
        seen, stack, ok = set(), [node], False
        while stack and not ok:
            for _b, y in succ.get(stack.pop(), []):
                if y == node or y in live:
                    ok = True
                    break
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if ok:
            live.add(node)
    changed = True
    while changed:
        changed = False
        for node in nodes - live:
            if any(y in live for _b, y in succ.get(node, [])):
                live.add(node)
                changed = True
    out = set()

    def dfs(node, path_nodes, labels):
        for b, y in succ.get(node, []):
            if y not in live:
                continue
            if y in path_nodes:
                j = path_nodes.index(y)
                try:
                    out.add(RS.make(tuple(labels[:j]), tuple(labels[j:] + [b])))
                except ValueError:
                    pass
                continue
            dfs(y, path_nodes + [y], labels + [b])

    root = (aut.initial, 0)
    if root in live:
        dfs(root, [root], [])
    out = {c for c in out if reference_run_lasso(aut, s, c)}
    probe = L + (len(system.colors) + 1) * P
    if not system.language_contains(s.prefix_of_length(probe)):
        raise gl.NotInSymbolSpace(str(s))
    return out


REFERENCE_SYSTEMS = ["interval_F", "airplane", "dendrite:3", "vicsek:4", "bubble_bath",
                     "circle_T", "basilica"]


def constant_period_points(S, rng, count):
    """Seeded prefixes, each followed by every constant period the language allows.

    Such points often lie on a vertex of some expansion, so their classes are
    larger than one point.
    """
    letters = sorted({e.name for rule in S.rules.values() for e in rule.graph.edges})
    points = []
    for _ in range(count):
        prefix = random_rational(S, rng, 3, 1).prefix
        points += [RS.make(prefix, (x,)) for x in letters
                   if S.language_contains(prefix + (x,) * 4)]
    return points


@pytest.mark.parametrize("name", REFERENCE_SYSTEMS)
def test_gluing_class_and_lasso_match_the_references(name):
    S = catalog(name)
    aut = gl.build(S)
    rng = random.Random(name)
    points = [random_rational(S, rng, 4, 3) for _ in range(8)] + constant_period_points(S, rng, 3)
    members = []
    for s in points:
        cls = gl.gluing_class(S, s)
        assert cls == reference_gluing_class(S, s), (name, str(s))
        members += sorted(cls, key=str)
    for a in members:
        for b in rng.sample(members, 6):
            assert gl._run_lasso(aut, a, b) == reference_run_lasso(aut, a, b), (name, str(a), str(b))


def test_prefix_of_length_matches_letters(rng):
    for prefix_len in range(4):
        for period_len in range(1, 5):
            prefix = tuple(rng.choice("ab") for _ in range(prefix_len))
            period = tuple(rng.choice("abc") for _ in range(period_len))
            s = RS.make(prefix, period)
            L, P = len(s.prefix), len(s.period)
            for n in range(L + 3 * P + 1):
                assert s.prefix_of_length(n) == tuple(s.letter(i) for i in range(n))


# sha256 (first 16 hex digits) of json.dumps(automaton_to_json(build(system))),
# as written by the scan-per-state build that predates the transition index
# (the five loop-normalized systems with their letters kept)
AUTOMATON_JSON_DIGESTS = {
    "airplane": "78d9143a82609608",
    "basilica": "abde96b83972a904",
    "bubble_bath": "358b38ee958c2d67",
    "cantor_V": "193b2c600804e6ff",
    "circle_T": "411518b158c84e2a",
    "interval_F": "a9546a06486a1c0d",
    "trivial_N": "323256f0242ff011",
    "QF_expanding": "fc0563acc4ce868a",
    "QT_expanding": "34a8f51bdd3c074f",
    "QV_expanding": "e0504e19bf6a2303",
    "F:3,2": "f62fe86f19ca0dc7",
    "T:3,2": "c0c2882e81892c94",
    "V:2,2": "5fa0f50a0b30076b",
    "rabbit:2": "8f9baaa869d61903",
    "rabbit:3": "7771b447fa0b7565",
    "dendrite:3": "24db19f1529c1085",
    "dendrite:4": "28e5b6b92fdd8892",
    "dendrite_edge_base:3": "f6f0770b4500818c",
    "dendrite_generalized:3,4": "b44509905657baaf",
    "vicsek:4": "e798b755a4777861",
    "houghton_expanding:3": "eb2f9d12d727700b",
}


@pytest.mark.parametrize("name", sorted(AUTOMATON_JSON_DIGESTS))
def test_automaton_json_unchanged_and_index_regroups_transitions(name):
    import hashlib
    import json

    aut = gl.build(catalog(name))
    data = json.dumps(gl.automaton_to_json(aut))
    assert hashlib.sha256(data.encode()).hexdigest()[:16] == AUTOMATON_JSON_DIGESTS[name]
    rows = {}
    for (q, (a, b)), nxt in aut.transitions.items():
        rows.setdefault((q, a), []).append((b, nxt))
    assert aut.index == rows
    # every kept state is reachable by scanning the whole table
    reachable, frontier = {aut.initial}, [aut.initial]
    while frontier:
        q = frontier.pop()
        for (state, _pair), nxt in aut.transitions.items():
            if state == q and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    assert set(aut.states) == reachable
    assert "index" not in repr(aut)
    assert aut == gl.GluingAutomaton(aut.system, aut.original, aut.states, aut.transitions, {})




# -- sequences outside the symbol space ----------------------------------------------


def _three_context_system():
    """A toy system whose period (a) reads from contexts 1 and 2 but not 3.

    Color 1 labels a loop and non-loops, so the system is loop-normalized.
    """
    from rewrite_groups.graphs import ColoredGraph, Edge
    from rewrite_groups.replacement import ReplacementSystem, Rule

    def rule(*edges):
        return Rule(ColoredGraph(["i", "c", "t"], [Edge(*e) for e in edges]), ("pair", "i", "t"))

    return ReplacementSystem(["1", "2", "3"], ColoredGraph(["x", "y"], [Edge("s", "1", "x", "y")]), {
        "1": rule(("a", "2", "i", "c"), ("b", "1", "c", "c"), ("d", "1", "c", "t")),
        "2": rule(("a", "3", "i", "c"), ("d", "2", "c", "t")),
        "3": rule(("x", "3", "i", "c"), ("y", "3", "c", "t")),
    })


def _four_color_chain():
    """Base edges s and x of color 1; rule c has x of color c+1 then y of
    color c, rule 4 has z in place of x.  So s (x) leaves the language at its
    fourth x, and (x) at its fifth, one period past the colors' count."""
    from rewrite_groups.graphs import ColoredGraph, Edge
    from rewrite_groups.replacement import ReplacementSystem, Rule

    def rule(c):
        first = ("x", str(c + 1)) if c < 4 else ("z", "4")
        edges = [Edge(*first, "i", "m"), Edge("y", str(c), "m", "t")]
        return Rule(ColoredGraph(["i", "m", "t"], edges), ("pair", "i", "t"))

    base = ColoredGraph(["a", "b", "c"], [Edge("s", "1", "a", "b"), Edge("x", "1", "b", "c")])
    return ReplacementSystem(["1", "2", "3", "4"], base, {str(c): rule(c) for c in range(1, 5)})


def test_sequences_outside_the_language_raise():
    from rewrite_groups.replacement import normalize_loops

    toy = _three_context_system()
    assert normalize_loops(toy) is not toy
    cases = [
        (catalog("circle_T"), RS.make(("s", "0"), ("2",))),
        (catalog("circle_T"), RS.make(("s",), ("0", "1", "7"))),
        (toy, RS.make(("s",), ("a",))),                 # s a a reads, s a a a does not
        (catalog("airplane"), RS.make(("zz",), ("0",))),
        (_four_color_chain(), RS.make(("s",), ("x",))),  # past the first 2 periods
        (_four_color_chain(), RS.make((), ("x",))),
    ]
    for S, s in cases:
        assert not S.language_contains(s.prefix_of_length(len(s.prefix) + 6 * len(s.period)))
        with pytest.raises(gl.NotInSymbolSpace):
            gl.glued(S, s, s)
        with pytest.raises(gl.NotInSymbolSpace):
            gl.gluing_class(S, s)
        with pytest.raises(gl.NotInSymbolSpace):
            reference_gluing_class(S, s)


def test_glued_raises_when_one_sequence_lies_outside():
    S = _four_color_chain()
    inside, outside = RS.make(("s",), ("y",)), RS.make(("s",), ("x",))
    assert gl.glued(S, inside, inside)
    for a, b in ((inside, outside), (outside, inside)):
        with pytest.raises(gl.NotInSymbolSpace):
            gl.glued(S, a, b)


# -- normalization keeps letters ------------------------------------------------------

LOOP_NORMALIZED = ["circle_T", "basilica", "rabbit:2", "rabbit:3", "QT_expanding"]


@pytest.mark.parametrize("name, point", [
    ("basilica", (("L",), ("2",))),
    ("circle_T", (("s",), ("0",))),
])
def test_normalized_system_survives_a_json_round_trip(name, point):
    from rewrite_groups.replacement import normalize_loops, system_from_json, system_to_json

    S = catalog(name)
    reloaded = system_from_json(system_to_json(normalize_loops(S)))
    assert normalize_loops(reloaded) is reloaded
    assert len(gl.gluing_class(S, RS.make(*point))) > 1
    rng = random.Random(name)
    points = [random_rational(S, rng, 4, 3) for _ in range(12)] + constant_period_points(S, rng, 3)
    for s in points + [RS.make(*point)]:
        assert gl.gluing_class(reloaded, s) == gl.gluing_class(S, s), str(s)


# sha256 (first 16 hex digits) over seeded points of the five loop-normalized
# systems: each gluing class (members as sorted strings) or the name of the
# exception raised, and glued on sampled pairs; recorded while normalization
# still renamed the letters of a loop copy and gluing translated each query
GLUING_DIGEST = "ed67e701d1220f2d"


def test_gluing_outputs_of_loop_normalized_systems_are_pinned():
    import hashlib

    def outcome(f, *args):
        try:
            r = f(*args)
        except ValueError as e:
            return type(e).__name__
        return sorted(map(str, r)) if isinstance(r, set) else r

    h = hashlib.sha256()
    for name in LOOP_NORMALIZED:
        S = catalog(name)
        rng = random.Random(name)
        points = [random_rational(S, rng, 4, 3) for _ in range(12)] + constant_period_points(S, rng, 3)
        partners = []
        for s in points:
            cls = outcome(gl.gluing_class, S, s)
            h.update(repr((name, str(s), cls)).encode())
            if isinstance(cls, list):
                partners += sorted(gl.gluing_class(S, s), key=str)
        for s in points:
            for t in rng.sample(points, 4) + rng.sample(partners, min(4, len(partners))):
                h.update(repr((name, str(s), str(t), outcome(gl.glued, S, s, t))).encode())
    assert h.hexdigest()[:16] == GLUING_DIGEST
