"""Built-in catalog of named edge replacement systems.

Every system studied in the rearrangement-group literature that this library
covers is constructed here graph-for-graph from its defining picture:
the interval/circle/Cantor systems for Thompson's groups F, T and V and their
Higman-Thompson relatives, the airplane and basilica (and higher rabbits),
Wazewski dendrites (plain, oriented and generalized), the Vicsek and bubble
bath systems, QF/QT/QV, the Houghton systems, the infinite-cyclic system, the
rigid five-edge system with trivial group, and topological full groups of
arbitrary edge shifts.
"""

from __future__ import annotations

from .graphs import ColoredGraph, Edge
from .replacement import ReplacementSystem, Rule


class BadParams(ValueError):
    pass


def _path_graph(letters, color, vprefix="p"):
    n = len(letters)
    verts = [f"{vprefix}{i}" for i in range(n + 1)]
    edges = [Edge(x, color, verts[i], verts[i + 1]) for i, x in enumerate(letters)]
    return ColoredGraph(verts, edges), verts[0], verts[-1]


def interval() -> ReplacementSystem:
    base, _, _ = _path_graph(["s"], "1", "b")
    rule, i, t = _path_graph(["0", "1"], "1")
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", i, t))})


def circle() -> ReplacementSystem:
    base = ColoredGraph(["b0"], [Edge("s", "1", "b0", "b0")])
    rule, i, t = _path_graph(["0", "1"], "1")
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", i, t))})


def cantor() -> ReplacementSystem:
    base, _, _ = _path_graph(["s"], "1", "b")
    rule = ColoredGraph(
        ["i0", "i1", "t0", "t1"],
        [Edge("0", "1", "i0", "i1"), Edge("1", "1", "t0", "t1")],
    )
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i0", "t1"))})


def higman_thompson(kind: str, n: int, r: int) -> ReplacementSystem:
    if n < 2 or r < 1:
        raise BadParams("need n >= 2 and r >= 1")
    letters = [str(i) for i in range(n)]
    if kind == "F":
        base, _, _ = _path_graph([f"s{i}" for i in range(r)], "1", "b")
        rule, i, t = _path_graph(letters, "1")
    elif kind == "T":
        verts = [f"b{i}" for i in range(r)]
        edges = [Edge(f"s{i}", "1", verts[i], verts[(i + 1) % r]) for i in range(r)]
        base = ColoredGraph(verts, edges)
        rule, i, t = _path_graph(letters, "1")
    elif kind == "V":
        bverts = []
        bedges = []
        for k in range(r):
            bverts += [f"b{k}a", f"b{k}b"]
            bedges.append(Edge(f"s{k}", "1", f"b{k}a", f"b{k}b"))
        base = ColoredGraph(bverts, bedges)
        verts = []
        edges = []
        for k in range(n):
            verts += [f"u{k}", f"w{k}"]
            edges.append(Edge(str(k), "1", f"u{k}", f"w{k}"))
        rule = ColoredGraph(verts, edges)
        i, t = "u0", f"w{n - 1}"
    else:
        raise BadParams(f"unknown Higman-Thompson kind {kind!r}")
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", i, t))})


def airplane() -> ReplacementSystem:
    base = ColoredGraph(["l", "r"], [Edge("s", "b", "l", "r")])
    blue = ColoredGraph(
        ["bi", "x", "y", "bt"],
        [
            Edge("b1", "b", "x", "bi"),
            Edge("b2", "r", "y", "x"),
            Edge("b3", "r", "x", "y"),
            Edge("b4", "b", "y", "bt"),
        ],
    )
    red = ColoredGraph(
        ["ri", "c", "rt", "top"],
        [
            Edge("r1", "r", "ri", "c"),
            Edge("r2", "r", "c", "rt"),
            Edge("r3", "b", "c", "top"),
        ],
    )
    return ReplacementSystem(
        ["b", "r"],
        base,
        {"b": Rule(blue, ("pair", "bi", "bt")), "r": Rule(red, ("pair", "ri", "rt"))},
    )


def basilica() -> ReplacementSystem:
    base = ColoredGraph(["b0"], [Edge("L", "1", "b0", "b0"), Edge("R", "1", "b0", "b0")])
    rule = ColoredGraph(
        ["i", "c", "t"],
        [Edge("0", "1", "i", "c"), Edge("1", "1", "c", "c"), Edge("2", "1", "c", "t")],
    )
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})


def rabbit(loops: int = 2) -> ReplacementSystem:
    """Douady-rabbit style system: ``loops`` parallel loops at the middle vertex."""
    if loops < 1:
        raise BadParams("need at least one loop")
    base = ColoredGraph(
        ["b0"], [Edge(chr(ord("A") + k), "1", "b0", "b0") for k in range(loops + 1)]
    )
    edges = [Edge("0", "1", "i", "c")]
    for k in range(loops):
        edges.append(Edge(str(k + 1), "1", "c", "c"))
    edges.append(Edge(str(loops + 1), "1", "c", "t"))
    rule = ColoredGraph(["i", "c", "t"], edges)
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})


def _star_graph(n, vprefix=""):
    verts = [f"{vprefix}c"] + [f"{vprefix}l{i}" for i in range(1, n + 1)]
    edges = [Edge(str(i), "1", f"{vprefix}c", f"{vprefix}l{i}") for i in range(1, n + 1)]
    return ColoredGraph(verts, edges)


def dendrite(n: int) -> ReplacementSystem:
    """The Wazewski dendrite system: base and rule are the same n-star.

    The rule's initial and terminal vertices are the leaves of edges 1 and n.
    """
    if n < 3:
        raise BadParams("dendrite order must be at least 3")
    star = _star_graph(n)
    return ReplacementSystem(["1"], star, {"1": Rule(star, ("pair", "l1", f"l{n}"))})


def dendrite_edge_base(n: int) -> ReplacementSystem:
    """Variant of the dendrite system whose base is a single edge s."""
    if n < 3:
        raise BadParams("dendrite order must be at least 3")
    base, _, _ = _path_graph(["s"], "1", "b")
    star = _star_graph(n)
    return ReplacementSystem(["1"], base, {"1": Rule(star, ("pair", "l1", f"l{n}"))})


def dendrite_oriented(n: int) -> ReplacementSystem:
    """Orientation-preserving dendrite system: black n-fan around a red n-cycle."""
    if n < 3:
        raise BadParams("order must be at least 3")

    def fan(vp):
        verts = [f"{vp}c{i}" for i in range(n)] + [f"{vp}l{i}" for i in range(n)]
        edges = [Edge(str(i + 1), "k", f"{vp}c{i}", f"{vp}l{i}") for i in range(n)]
        edges += [Edge(f"r{i + 1}", "r", f"{vp}c{i}", f"{vp}c{(i + 1) % n}") for i in range(n)]
        return ColoredGraph(verts, edges)

    base = fan("b")
    black = fan("")
    redrule, i, t = _path_graph(["r"], "r", "q")
    return ReplacementSystem(
        ["k", "r"],
        base,
        {"k": Rule(black, ("pair", "l0", f"l{n - 1}")), "r": Rule(redrule, ("pair", i, t))},
    )


def dendrite_generalized(orders) -> ReplacementSystem:
    """Generalized Wazewski dendrite D_S for an ordered tuple of orders >= 3.

    Color i's rule is an s_i-star whose edges carry color i+1 (cyclically).
    """
    orders = tuple(orders)
    if len(orders) < 1 or any(s < 3 for s in orders):
        raise BadParams("orders must all be at least 3")
    k = len(orders)
    colors = [f"c{i + 1}" for i in range(k)]
    rules = {}
    for i, s in enumerate(orders):
        nxt = colors[(i + 1) % k]
        verts = ["c"] + [f"l{j}" for j in range(1, s + 1)]
        edges = [Edge(str(j), nxt, "c", f"l{j}") for j in range(1, s + 1)]
        rules[colors[i]] = Rule(ColoredGraph(verts, edges), ("pair", "l1", f"l{s}"))
    s0 = orders[0]
    base = ColoredGraph(
        ["bc"] + [f"bl{j}" for j in range(1, s0 + 1)],
        [Edge(f"b{j}", colors[1 % k], "bc", f"bl{j}") for j in range(1, s0 + 1)],
    )
    return ReplacementSystem(colors, base, rules)


def vicsek(n: int) -> ReplacementSystem:
    """Vicsek system: the n-star with one extra edge before the branch point."""
    if n < 3:
        raise BadParams("order must be at least 3")
    star = _star_graph(n)
    verts = list(star.vertices) + ["i0"]
    edges = [Edge("0", "1", "i0", "l1")] + list(star.edges)
    rule = ColoredGraph(verts, edges)
    return ReplacementSystem(["1"], star, {"1": Rule(rule, ("pair", "i0", f"l{n}"))})


def bubble_bath() -> ReplacementSystem:
    base = ColoredGraph(
        ["bt", "bb"],
        [Edge("l", "1", "bb", "bt"), Edge("c", "1", "bb", "bt"), Edge("r", "1", "bb", "bt")],
    )
    rule = ColoredGraph(
        ["i", "cl", "cr", "t"],
        [
            Edge("1", "1", "cl", "i"),
            Edge("2", "1", "cr", "cl"),
            Edge("3", "1", "cl", "cr"),
            Edge("4", "1", "cr", "t"),
        ],
    )
    return ReplacementSystem(["1"], base, {"1": Rule(rule, ("pair", "i", "t"))})


def q_family(kind: str) -> ReplacementSystem:
    """The QF/QT/QV systems: a Thompson-style blue part plus a detached red part."""
    if kind not in ("QF", "QT", "QV"):
        raise BadParams("kind must be QF, QT or QV")
    if kind == "QF":
        blue_part, bi, bt = _path_graph(["0", "1"], "b")
        bverts = ["v0", "v1"]
        bedges = [Edge("sb", "b", "v0", "v1")]
    elif kind == "QT":
        blue_part, bi, bt = _path_graph(["0", "1"], "b")
        bverts = ["v0"]
        bedges = [Edge("sb", "b", "v0", "v0")]
    else:
        blue_part = ColoredGraph(
            ["q0", "q1", "q2", "q3"],
            [Edge("0", "b", "q0", "q1"), Edge("1", "b", "q2", "q3")],
        )
        bi, bt = "q0", "q3"
        bverts = ["v0", "v1"]
        bedges = [Edge("sb", "b", "v0", "v1")]
    base = ColoredGraph(bverts + ["w0", "w1"], bedges + [Edge("sr", "r", "w0", "w1")])
    blue = ColoredGraph(
        list(blue_part.vertices) + ["u0", "u1"],
        list(blue_part.edges) + [Edge("2", "r", "u0", "u1")],
    )
    red, ri, rt = _path_graph(["t"], "r", "u")
    return ReplacementSystem(
        ["b", "r"],
        base,
        {"b": Rule(blue, ("pair", bi, bt)), "r": Rule(red, ("pair", ri, rt))},
    )


def houghton(n: int) -> ReplacementSystem:
    """System for the Houghton group H_n: n ray colors and a frozen black color."""
    if n < 1:
        raise BadParams("need n >= 1")
    colors = [f"ray{i}" for i in range(1, n + 1)] + ["k"]
    bverts = []
    bedges = []
    for i in range(1, n + 1):
        bverts += [f"a{i}", f"b{i}"]
        bedges.append(Edge(f"s{i}", f"ray{i}", f"a{i}", f"b{i}"))
    base = ColoredGraph(bverts, bedges)
    rules = {}
    for i in range(1, n + 1):
        g = ColoredGraph(
            ["i", "m", "p", "t"],
            [Edge("b", "k", "i", "m"), Edge(f"c{i}", f"ray{i}", "p", "t")],
        )
        rules[f"ray{i}"] = Rule(g, ("pair", "i", "t"))
    black, ki, kt = _path_graph(["t"], "k", "u")
    rules["k"] = Rule(black, ("pair", ki, kt))
    return ReplacementSystem(colors, base, rules)


def integers_Z() -> ReplacementSystem:
    base = ColoredGraph(
        ["tl", "tr", "bm"],
        [Edge("s", "r", "tl", "tr"), Edge("r", "b", "tr", "bm"), Edge("l", "b", "bm", "tl")],
    )
    red, ri, rt = _path_graph(["t"], "r", "u")
    blue = ColoredGraph(
        ["i", "m1", "m2", "t"],
        [Edge("0", "r", "i", "m1"), Edge("1", "b", "m1", "m2"), Edge("2", "r", "m2", "t")],
    )
    return ReplacementSystem(
        ["r", "b"],
        base,
        {"r": Rule(red, ("pair", ri, rt)), "b": Rule(blue, ("pair", "i", "t"))},
    )


def trivial_N() -> ReplacementSystem:
    from .replacement import _gadget_graph

    base, _, _ = _path_graph(["s"], "1", "b")
    return ReplacementSystem(["1"], base, {"1": Rule(_gadget_graph("1"), ("pair", "l", "r"))})


def tfg(graph: ColoredGraph, start: str) -> ReplacementSystem:
    """System whose rearrangement group is the topological full group of an edge shift.

    Colors are the vertices of ``graph``; the rule of color v is a disjoint
    union of edges, one per out-edge of v, colored by the target vertex.
    """
    if start not in graph.vertices:
        raise BadParams(f"unknown start vertex {start!r}")
    reachable = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for e in graph.edges:
            if e.src == v and e.dst not in reachable:
                reachable.add(e.dst)
                frontier.append(e.dst)
    rules = {}
    for v in sorted(reachable):
        out = [e for e in graph.edges if e.src == v]
        if not out:
            raise BadParams(f"vertex {v!r} is a reachable sink: no infinite walks")
        verts = []
        edges = []
        for k, e in enumerate(out):
            verts += [f"u{k}", f"w{k}"]
            edges.append(Edge(e.name, str(e.dst), f"u{k}", f"w{k}"))
        iota = "u0"
        tau = f"w{1 if len(out) > 1 else 0}"
        rules[str(v)] = Rule(ColoredGraph(verts, edges), ("pair", iota, tau))
    base = ColoredGraph(["b0", "b1"], [Edge("s", str(start), "b0", "b1")])
    return ReplacementSystem([str(v) for v in sorted(reachable)], base, rules)


_CATALOG = {
    "interval_F": lambda: interval(),
    "circle_T": lambda: circle(),
    "cantor_V": lambda: cantor(),
    "airplane": lambda: airplane(),
    "basilica": lambda: basilica(),
    "bubble_bath": lambda: bubble_bath(),
    "QF": lambda: q_family("QF"),
    "QT": lambda: q_family("QT"),
    "QV": lambda: q_family("QV"),
    "integers_Z": lambda: integers_Z(),
    "trivial_N": lambda: trivial_N(),
}


def catalog(name: str, *params) -> ReplacementSystem:
    """Look up a named system; parametric families take their parameters.

    Accepts either ``catalog("dendrite", 3)`` or the string form
    ``catalog("dendrite:3")`` used by the command line.
    """
    if ":" in name and not params:
        head, _, tail = name.partition(":")
        parts = [x for x in tail.split(",") if x]
        if not all(x.isdigit() for x in parts):
            raise BadParams(f"parameters of {name!r} are not comma-separated integers")
        params = tuple(int(x) for x in parts)
        name = head
    if name in _CATALOG and not params:
        return _CATALOG[name]()
    if name in ("F", "T", "V") and len(params) == 2:
        return higman_thompson(name, *params)
    if name == "F" and not params:
        return interval()
    if name == "T" and not params:
        return circle()
    if name == "V" and not params:
        return cantor()
    if name == "rabbit" and len(params) <= 1:
        return rabbit(*params)
    if name == "dendrite" and len(params) == 1:
        return dendrite(params[0])
    if name == "dendrite_edge_base" and len(params) == 1:
        return dendrite_edge_base(params[0])
    if name == "dendrite_oriented" and len(params) == 1:
        return dendrite_oriented(params[0])
    if name == "dendrite_generalized" and params:
        return dendrite_generalized(params)
    if name == "vicsek" and len(params) == 1:
        return vicsek(params[0])
    if name == "houghton" and len(params) == 1:
        return houghton(params[0])
    if name.endswith("_expanding"):
        from .replacement import make_expanding

        raw = catalog(name[: -len("_expanding")], *params)
        return make_expanding(raw)[0]
    raise BadParams(f"unknown catalog entry {name!r} with params {params!r}")


def catalog_names() -> list:
    fixed = sorted(_CATALOG)
    parametric = [
        "F(n,r)", "T(n,r)", "V(n,r)", "rabbit(loops)", "dendrite(n)",
        "dendrite_edge_base(n)", "dendrite_oriented(n)",
        "dendrite_generalized(s1,...,sk)", "vicsek(n)", "houghton(n)",
        "QF_expanding", "QT_expanding", "QV_expanding", "houghton_expanding(n)",
    ]
    return fixed + parametric
