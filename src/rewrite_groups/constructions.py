"""System-level constructions: sums, stabilizers, ungluing and the embedding into V.

Everything here builds new replacement systems out of old ones and transports
elements along the constructions: disjoint sums realize direct products,
marked recolorings realize stabilizers of vertices and of other rational
points, ungluing gives the ambient topological full group, and the binary
cascade plus a two-letter relabeling lands every rearrangement inside the
group of all prefix exchanges of the binary Cantor space.
"""

from __future__ import annotations

from .catalog import cantor, tfg
from .graphs import ColoredGraph, Edge
from .rearrangement import Rearrangement, from_cell_map
from .replacement import (
    GraphExpansion,
    RationalSequence,
    ReplacementSystem,
    Rule,
    expansion_containing,
)

Word = tuple


class NotAVertex(ValueError):
    pass


class IsAVertex(ValueError):
    pass


# -- sums -------------------------------------------------------------------------


def sum_systems(a: ReplacementSystem, b: ReplacementSystem,
                shared_colors: bool = False) -> ReplacementSystem:
    """Disjoint union of base graphs; rule sets merged.

    With distinct colors (the default; colors are renamed apart when they
    clash) the rearrangement group is the direct product.  With
    ``shared_colors`` the two systems must have identical rules, realizing
    wreath-type extensions by the symmetries that swap matching base parts.
    """
    if shared_colors:
        if list(a.colors) != list(b.colors) or any(
            a.rules[c].graph.encoding() != b.rules[c].graph.encoding() for c in a.colors
        ):
            raise ValueError("shared-color sums need identical rule sets")
        colors = list(a.colors)
        rules = dict(a.rules)
        rename_b = {c: c for c in b.colors}
    else:
        colors = list(a.colors)
        rules = dict(a.rules)
        rename_b = {}
        for c in b.colors:
            nc = c
            while nc in rules:
                nc = nc + "'"
            rename_b[c] = nc
            colors.append(nc)
        for c in b.colors:
            g = b.rules[c].graph
            edges = [Edge(e.name, rename_b[e.color], e.src, e.dst) for e in g.edges]
            rules[rename_b[c]] = Rule(ColoredGraph(g.vertices, edges), b.rules[c].boundary)
    averts = [f"a.{v}" for v in a.base.vertices]
    bverts = [f"b.{v}" for v in b.base.vertices]
    aedges = [Edge(f"a.{e.name}", e.color, f"a.{e.src}", f"a.{e.dst}") for e in a.base.edges]
    bedges = [
        Edge(f"b.{e.name}", rename_b[e.color], f"b.{e.src}", f"b.{e.dst}")
        for e in b.base.edges
    ]
    base = ColoredGraph(averts + bverts, aedges + bedges)
    return ReplacementSystem(colors, base, rules)


# -- stabilizers --------------------------------------------------------------------


def _mark(color: str, mark: str) -> str:
    return color if not mark else f"{color}{mark}"


def _marked_graph(g: ColoredGraph, touch, name_suffix: str = "") -> ColoredGraph:
    """Recolor edges around marked vertices: -, + or +- by incidence."""
    edges = []
    for e in g.edges:
        out_t = touch(e.src)
        in_t = touch(e.dst)
        if out_t and in_t:
            mark = "+-"
        elif out_t:
            mark = "-"
        elif in_t:
            mark = "+"
        else:
            mark = ""
        edges.append(Edge(e.name, _mark(e.color, mark), e.src, e.dst))
    return ColoredGraph(g.vertices, edges)


def stabilizer_vertex(system: ReplacementSystem, expansion: GraphExpansion,
                      vertex: str):
    """The marked system whose group is the stabilizer of the given vertex.

    Returns (marked system, letter map) where the letter map sends each
    marked color to the color it was derived from (marks are forgotten).
    """
    if vertex not in expansion.leaf_graph.vertices:
        raise NotAVertex(f"{vertex!r} is not a vertex of the expansion")
    colors = list(system.colors)
    new_colors = []
    for c in system.colors:
        for mark in ("-", "+", "+-"):
            new_colors.append(_mark(c, mark))
    base = _marked_graph(expansion.leaf_graph, lambda v: v == vertex)
    rules = dict(system.rules)
    for c in system.colors:
        rule = system.rules[c]
        g = rule.graph
        if rule.kind == "pair":
            iota, tau = rule.iota, rule.tau
            rules[_mark(c, "-")] = Rule(_marked_graph(g, lambda v: v == iota), rule.boundary)
            rules[_mark(c, "+")] = Rule(_marked_graph(g, lambda v: v == tau), rule.boundary)
            rules[_mark(c, "+-")] = Rule(
                _marked_graph(g, lambda v: v in (iota, tau)), rule.boundary)
        else:
            lam = rule.iota
            marked = _marked_graph(g, lambda v: v == lam)
            for mark in ("-", "+", "+-"):
                rules[_mark(c, mark)] = Rule(marked, rule.boundary)
    marked_system = ReplacementSystem(colors + new_colors, base, rules)
    color_map = {c: c for c in system.colors}
    for c in system.colors:
        for mark in ("-", "+", "+-"):
            color_map[_mark(c, mark)] = c
    return marked_system, color_map


def stabilizer_rational(system: ReplacementSystem, q: RationalSequence):
    """The gamma-marked system stabilizing a rational non-vertex point.

    The point must have a unique representative.  The cycle colors thread the
    periodic tail of its address: when the result of marking the word x itself
    is available (the color at the end of x matches the one closing the
    period) a compact form is built, marking x and
    cycling gamma_i through the period; otherwise the first periodic letter
    is marked inside the minimal expansion showing it.
    """
    from .gluing import gluing_class

    cls = gluing_class(system, q)
    if len(cls) != 1:
        raise IsAVertex("the point has several representatives; use stabilizer_vertex")
    x, y = q.prefix, q.period
    k = len(y)
    gammas = [f"g{i + 1}" for i in range(k)]
    taken = set(system.colors)
    gammas = [g if g not in taken else g + "*" for g in gammas]
    compact = bool(x) and system.word_color(x) == system.word_color(x + y)
    rules = dict(system.rules)

    def recolored_rule(color: str, letter: str, gamma: str) -> Rule:
        rule = system.rules[color]
        edges = [
            Edge(e.name, gamma if e.name == letter else e.color, e.src, e.dst)
            for e in rule.graph.edges
        ]
        return Rule(ColoredGraph(rule.graph.vertices, edges), rule.boundary)

    if compact:
        # base: the minimal expansion showing the edge x, recolored gamma_1;
        # gamma_i expands like the color before y_i, marking y_i as gamma_{i+1}
        exp = expansion_containing(system, [x])
        target = x
        marked_letter = [y[i] for i in range(k)]
        host_color = [system.word_color(x + y[:i]) for i in range(k)]
        phase_color = [system.word_color(x + y[: i + 1]) for i in range(k)]
        first_gamma = gammas[0]
        for i in range(k):
            rules[gammas[i]] = recolored_rule(host_color[i], marked_letter[i],
                                              gammas[(i + 1) % k])
        color_map = {c: c for c in system.colors}
        for i in range(k):
            color_map[gammas[i]] = host_color[i]
    else:
        exp = expansion_containing(system, [x + y[:1]])
        target = x + y[:1]
        for i in range(k):
            rules[gammas[i]] = recolored_rule(system.word_color(x + y[: i + 1]),
                                              y[(i + 1) % k], gammas[(i + 1) % k])
        first_gamma = gammas[0]
        color_map = {c: c for c in system.colors}
        for i in range(k):
            color_map[gammas[i]] = system.word_color(x + y[: i + 1])
    base_edges = []
    for e in exp.leaf_graph.edges:
        w = tuple(e.name.split(" "))
        color = first_gamma if w == target else e.color
        base_edges.append(Edge(e.name, color, e.src, e.dst))
    base = ColoredGraph(exp.leaf_graph.vertices, base_edges)
    marked = ReplacementSystem(list(system.colors) + gammas, base, rules)
    return marked, color_map


def transport_element(g: Rearrangement, target: ReplacementSystem,
                      color_map: dict) -> Rearrangement:
    """Push a marked-system element through the mark-forgetting letter map.

    Rule letters translate one-for-one (the marked constructions keep edge
    names); base letters of a marked system built over an expansion unfold
    into the words of the plain system they name.
    """

    def unfold(word: Word) -> Word:
        return tuple(word[0].split(" ")) + tuple(word[1:])

    pairs = [(unfold(w), unfold(g.phi[w])) for w in g.domain.cells]
    flips = [unfold(w) for w in g.flips]
    return from_cell_map(target, pairs, flips)


# -- ungluing, binaryfication and the embedding into V -------------------------------


def unglue(system: ReplacementSystem) -> ReplacementSystem:
    """Disconnect every edge of every graph; the gluing relation trivializes.

    The result realizes the topological full group of the system's edge shift;
    boundary vertices move to the matching ends of the first incident edges.
    """

    def split_graph(g: ColoredGraph):
        verts = []
        edges = []
        pos = {}
        for e in g.edges:
            s, t = f"{e.name}.s", f"{e.name}.t"
            verts += [s, t]
            edges.append(Edge(e.name, e.color, s, t))
            pos[e.name] = (s, t)
        return ColoredGraph(verts, edges), pos

    def boundary_image(g: ColoredGraph, pos, v):
        for e in g.edges:
            if e.src == v:
                return pos[e.name][0]
        for e in g.edges:
            if e.dst == v:
                return pos[e.name][1]
        raise ValueError(f"vertex {v!r} is isolated")

    base, _ = split_graph(system.base)
    rules = {}
    for c in system.colors:
        rule = system.rules[c]
        g, pos = split_graph(rule.graph)
        if rule.kind == "pair":
            iota = boundary_image(rule.graph, pos, rule.iota)
            tau = boundary_image(rule.graph, pos, rule.tau)
            if iota == tau:
                # keep the boundary on two distinct ends
                tau = pos[rule.graph.edges[-1].name][1]
            rules[c] = Rule(g, ("pair", iota, tau))
        else:
            rules[c] = Rule(g, ("pair", pos[rule.graph.edges[0].name][0],
                                pos[rule.graph.edges[-1].name][1]))
    return ReplacementSystem(system.colors, base, rules)


def contract_out_degree_one(graph: ColoredGraph, start: str):
    """Contract non-loop edges out of out-degree-1 vertices; word map drops them.

    Returns (graph, start, dropped letters).
    """
    g = graph
    dropped = []
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            out = [e for e in g.edges if e.src == v]
            if len(out) == 1 and not out[0].is_loop:
                e = out[0]
                target = e.dst
                edges = []
                for f in g.edges:
                    if f.name == e.name:
                        continue
                    src = target if f.src == v else f.src
                    dst = target if f.dst == v else f.dst
                    edges.append(Edge(f.name, f.color, src, dst))
                verts = [x for x in g.vertices if x != v]
                if target not in verts:
                    verts.append(target)
                keep = {x for f in edges for x in (f.src, f.dst)}
                verts = [x for x in verts if x in keep]
                g = ColoredGraph(verts, edges)
                dropped.append(e.name)
                if start == v:
                    start = target
                changed = True
                break
    return g, start, dropped


def binaryfy(graph: ColoredGraph, start: str):
    """Split every out-degree-d vertex of the shift graph into a binary cascade.

    Returns (tfg system of the binary graph, word map) where the word map
    rewrites each letter into its cascade path.
    """
    verts = list(graph.vertices)
    edges = []
    letter_map = {}
    for v in graph.vertices:
        out = [e for e in graph.edges if e.src == v]
        d = len(out)
        if d < 2:
            raise ValueError(f"vertex {v!r} has out-degree {d}; contract or repair first")
        if d == 2:
            for e in out:
                edges.append(e)
                letter_map[(str(v), e.name)] = [(str(v), e.name)]
            continue
        stars = [f"{v}*{i}" for i in range(1, d - 1)]
        verts += stars
        chain = [v] + stars
        for i, e in enumerate(out):
            # edge i lives at cascade level min(i, d-2)
            level = min(i, d - 2)
            src = chain[level]
            edges.append(Edge(e.name, e.color, src, e.dst))
            path = [(str(chain[j]), f"{v}>*{j + 1}") for j in range(level)]
            path.append((str(src), e.name))
            letter_map[(str(v), e.name)] = path
        for j in range(len(stars)):
            edges.append(Edge(f"{v}>*{j + 1}", stars[j], chain[j], chain[j + 1]))
    binary = ColoredGraph([v for v in verts], edges)
    return binary, letter_map


class EmbeddingIntoV:
    """The pipeline carrying a system's elements into Thompson's group V."""

    def __init__(self, system: ReplacementSystem):
        self.system = system
        color_graph = system.color_graph()
        start = "q(0)"
        self.contracted, self.start, self.dropped = contract_out_degree_one(
            color_graph, start)
        if any(len([e for e in self.contracted.edges if e.src == v]) < 2
               for v in self.contracted.vertices):
            raise ValueError("system has out-degree-one cycles; repair it first")
        self.binary, self.letter_map = binaryfy(self.contracted, self.start)
        # orderings phi_q: the two out-edges of each vertex map to 0 and 1
        self.bit = {}
        for v in self.binary.vertices:
            out = [e for e in self.binary.edges if e.src == v]
            if len(out) != 2:
                raise ValueError(f"binary cascade vertex {v!r} has out-degree {len(out)}")
            self.bit[out[0].name] = "0"
            self.bit[out[1].name] = "1"
        self.target = cantor()

    def word_to_bits(self, word: Word) -> Word:
        """Translate a system word into the V system's language (s + bits)."""
        # walk the color graph, skip contracted letters and follow the rest
        # on the contracted graph, each through its binary cascade
        bits = []
        ctx, state = None, self.start
        for e in self.system.walk(word):
            name = e.name if ctx is None else f"{ctx}:{e.name}"
            ctx = e.color
            if name in self.dropped:
                continue
            for _st, nm in self.letter_map[(str(state), name)]:
                bits.append(self.bit[nm])
            state = self.contracted.edge(name).dst
        return ("s",) + tuple(bits)

    def __call__(self, g: Rearrangement) -> Rearrangement:
        if g.system is not self.system:
            raise ValueError("element belongs to a different system")
        gf = g.flipless()
        pairs = []
        for w in gf.domain.cells:
            pairs.append((self.word_to_bits(w), self.word_to_bits(gf.phi[w])))
        return from_cell_map(self.target, pairs)


def embed_in_V(g: Rearrangement) -> Rearrangement:
    """One-shot embedding; build an EmbeddingIntoV for repeated use."""
    return EmbeddingIntoV(g.system)(g)


def binaryfy_system(graph: ColoredGraph, start: str):
    """The binary-cascade shift as a replacement system, with its word map.

    Every vertex of the given shift graph must have out-degree at least two;
    the result's rules all have exactly two disjoint edges.
    """
    from .catalog import tfg

    binary, letter_map = binaryfy(graph, start)
    return tfg(binary, str(start)), letter_map
