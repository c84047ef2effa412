"""Colored directed multigraphs, canonical labeling and isomorphism search.

Graphs here are tiny (base and replacement graphs of rewriting systems and
their expansions), so canonical forms are computed by color refinement plus
backtracking rather than by a nauty-class engine.  Vertex and edge names are
opaque; two graphs are "the same" when their canonical forms coincide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class UnionFind(dict):
    """Disjoint sets of hashable items, stored as item -> parent.

    ``union(a, b)`` makes the root of b's set the root of the merged set, so
    a caller that names each set after its root gets names fixed by the
    order of its unions.
    """

    def add(self, x):
        if x not in self:
            self[x] = x

    def find(self, x):
        while self[x] != x:
            self[x] = self[self[x]]
            x = self[x]
        return x

    def union(self, a, b):
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self[ra] = rb

    def classes(self) -> dict:
        """Root -> members of its set, members in the order they were added."""
        out: dict = {}
        for x in self:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass(frozen=True)
class Edge:
    name: str
    color: str
    src: str
    dst: str

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class Iso:
    """A color-preserving isomorphism, stored as paired edge/vertex bijections.

    ``flipped`` lists edges of the domain matched with reversed orientation;
    it is empty unless the search explicitly allowed flips for some colors.
    """

    edge_map: dict
    vertex_map: dict
    flipped: frozenset = frozenset()

    def __hash__(self):
        return hash((tuple(sorted(self.edge_map.items())), self.flipped))

    def key(self):
        return (tuple(sorted(self.edge_map.items())), tuple(sorted(self.flipped)))


class ColoredGraph:
    """A finite directed multigraph with edge colors and a total edge order.

    Vertices with no incident edge are rejected: every graph in this library
    describes rewriting data in which isolated vertices carry no information.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self._index = {e.name: i for i, e in enumerate(self.edges)}
        if len(self._index) != len(self.edges):
            raise ValueError("duplicate edge names")
        touched = set()
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise ValueError(f"edge {e.name} uses unknown vertex")
            touched.add(e.src)
            touched.add(e.dst)
        if touched != vset:
            raise ValueError(f"isolated vertices: {sorted(vset - touched)}")
        self._degrees: Optional[tuple] = None
        self._parallel: Optional[dict] = None

    # -- basic accessors ---------------------------------------------------

    def edge(self, name: str) -> Edge:
        return self.edges[self._index[name]]

    def edge_index(self, name: str) -> int:
        return self._index[name]

    def _degree_counts(self) -> tuple:
        """(out-degree, in-degree) per vertex, counted on first use; the graph never changes."""
        if self._degrees is None:
            self._degrees = (Counter(e.src for e in self.edges), Counter(e.dst for e in self.edges))
        return self._degrees

    def out_degree(self, v: str) -> int:
        """Edges leaving v: the directed half of ``degree``, as graph users read it."""
        return self._degree_counts()[0][v]

    def in_degree(self, v: str) -> int:
        """Edges entering v: the directed half of ``degree``, as graph users read it."""
        return self._degree_counts()[1][v]

    def degree(self, v: str) -> int:
        out, into = self._degree_counts()
        return out[v] + into[v]

    def incident(self, v: str) -> list[Edge]:
        return [e for e in self.edges if e.src == v or e.dst == v]

    def parallel_index(self, name: str) -> int:
        """1-based index among edges sharing (color, src, dst), in edge order.

        The index of every edge is counted in one pass on first use; the
        graph never changes.  KeyError for a name that is no edge's.
        """
        if self._parallel is None:
            seen: Counter = Counter()
            self._parallel = {}
            for e in self.edges:
                seen[e.color, e.src, e.dst] += 1
                self._parallel[e.name] = seen[e.color, e.src, e.dst]
        return self._parallel[name]

    def colors(self) -> set[str]:
        return {e.color for e in self.edges}

    # -- structural equality ----------------------------------------------

    def encoding(self) -> tuple:
        """Name-faithful encoding; equal encodings mean equal labeled graphs."""
        return (self.vertices, tuple((e.name, e.color, e.src, e.dst) for e in self.edges))

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, ColoredGraph) and self.encoding() == other.encoding()

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return f"ColoredGraph({len(self.vertices)}v, {len(self.edges)}e)"

    # -- canonical form ------------------------------------------------------

    def _refine(self, classes: dict) -> dict:
        """Iterated 1-dimensional refinement of a vertex partition."""
        while True:
            sig = {}
            for v in self.vertices:
                inc = []
                for e in self.edges:
                    if e.src == v and e.dst == v:
                        inc.append((e.color, "lp", classes[v]))
                    elif e.src == v:
                        inc.append((e.color, "o", classes[e.dst]))
                    elif e.dst == v:
                        inc.append((e.color, "i", classes[e.src]))
                sig[v] = (classes[v], tuple(sorted(inc)))
            order = sorted(set(sig.values()))
            new = {v: order.index(sig[v]) for v in self.vertices}
            if new == classes:
                return new
            classes = new

    def _component_vertex_sets(self) -> list[set]:
        uf = UnionFind((v, v) for v in self.vertices)
        for e in self.edges:
            uf.union(e.src, e.dst)
        return [set(vs) for vs in uf.classes().values()]

    def _encode_with_order(self, order: list) -> tuple:
        idx = {v: i for i, v in enumerate(order)}
        rows = sorted(
            (e.color, idx[e.src], idx[e.dst], i) for i, e in enumerate(self.edges) if e.src in idx
        )
        return tuple((c, s, d) for c, s, d, _ in rows)

    def _swap_is_automorphism(self, u: str, v: str, vs: set) -> bool:
        sw = lambda x: v if x == u else u if x == v else x
        rows = sorted((e.color, e.src, e.dst) for e in self.edges if e.src in vs)
        im = sorted((e.color, sw(e.src), sw(e.dst)) for e in self.edges if e.src in vs)
        return rows == im

    def _canon_component(self, vs: set) -> tuple:
        base = {v: 0 for v in self.vertices}
        # isolate the component: vertices outside get a throwaway class
        for v in self.vertices:
            if v not in vs:
                base[v] = -1
        best: Optional[tuple] = None

        def rec(classes, fixed):
            nonlocal best
            cells: dict = {}
            for v in sorted(vs):
                cells.setdefault(classes[v], []).append(v)
            split = None
            for c in sorted(cells):
                if c >= 0 and len(cells[c]) > 1:
                    split = cells[c]
                    break
            if split is None:
                order = sorted(vs, key=lambda v: classes[v])
                enc = self._encode_with_order(order)
                if best is None or enc < best:
                    best = enc
                return
            # prune symmetric candidates: branching on either member of an
            # automorphic pair yields the same minimum
            candidates = []
            for u in split:
                if any(self._swap_is_automorphism(u, w, vs) for w in candidates):
                    continue
                candidates.append(u)
            mark = max(classes.values()) + 1
            for u in candidates:
                nxt = dict(classes)
                nxt[u] = mark
                rec(self._refine(nxt), fixed + 1)

        rec(self._refine(base), 0)
        if best is None:
            raise RuntimeError("a component has no canonical vertex order")
        return best

    def canonical_form(self) -> "ColoredGraph":
        """Deterministic relabeling; isomorphic graphs map to equal objects."""
        comps = self._component_vertex_sets()
        encoded = sorted(self._canon_component(vs) for vs in comps)
        # rebuild a graph from the sorted component encodings
        vertices: list[str] = []
        edges: list[Edge] = []
        for enc in encoded:
            offset = len(vertices)
            local = max((max(s, d) for _, s, d in enc), default=-1) + 1
            for i in range(local):
                vertices.append(f"v{offset + i}")
            for c, s, d in enc:
                edges.append(Edge(f"e{len(edges)}", c, f"v{offset + s}", f"v{offset + d}"))
        return ColoredGraph(vertices, edges)

    def canonical_key(self) -> tuple:
        return self.canonical_form().encoding()


def isomorphisms(
    g1: ColoredGraph,
    g2: ColoredGraph,
    pinned: Optional[dict] = None,
    flip_colors: frozenset = frozenset(),
    limit: Optional[int] = None,
) -> list[Iso]:
    """All color-preserving isomorphisms g1 -> g2 extending a partial vertex map.

    Edges whose color lies in ``flip_colors`` may be matched with reversed
    orientation; such matches are reported in ``Iso.flipped``.  The result is
    deterministically ordered; an empty list signals "not isomorphic".
    """
    out = list(iter_isomorphisms(g1, g2, pinned, flip_colors, limit))
    out.sort(key=Iso.key)
    return out


def iter_isomorphisms(
    g1: ColoredGraph,
    g2: ColoredGraph,
    pinned: Optional[dict] = None,
    flip_colors: frozenset = frozenset(),
    limit: Optional[int] = None,
) -> Iterator[Iso]:
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return
    if Counter(e.color for e in g1.edges) != Counter(e.color for e in g2.edges):
        return
    vmap = dict(pinned) if pinned else {}
    if len(set(vmap.values())) != len(vmap):
        return
    for v in vmap:
        if v not in g1.vertices or vmap[v] not in g2.vertices:
            return
    used2: set = set(vmap.values())
    emap: dict = {}
    used_e2: set = set()
    flipped: set = set()
    # match high-degree edges first: fail fast
    order = sorted(g1.edges, key=lambda e: -(g1.degree(e.src) + g1.degree(e.dst)))
    count = 0

    def assign(pairs):
        added = []
        for a, b in pairs:
            if a in vmap:
                if vmap[a] != b:
                    unassign(added)
                    return None
            elif b in used2:
                unassign(added)
                return None
            else:
                vmap[a] = b
                used2.add(b)
                added.append(a)
        return added

    def unassign(added):
        for a in added:
            used2.discard(vmap[a])
            del vmap[a]

    def rec(i):
        nonlocal count
        if limit is not None and count >= limit:
            return
        if i == len(order):
            count += 1
            yield Iso(dict(emap), dict(vmap), frozenset(flipped))
            return
        e = order[i]
        for f in g2.edges:
            if f.color != e.color or f.name in used_e2:
                continue
            trials = [((e.src, f.src), (e.dst, f.dst), False)]
            if e.color in flip_colors and not e.is_loop:
                trials.append(((e.src, f.dst), (e.dst, f.src), True))
            for p1, p2, flip in trials:
                added = assign([p1, p2])
                if added is None:
                    continue
                emap[e.name] = f.name
                used_e2.add(f.name)
                if flip:
                    flipped.add(e.name)
                yield from rec(i + 1)
                if flip:
                    flipped.discard(e.name)
                del emap[e.name]
                used_e2.discard(f.name)
                unassign(added)

    yield from rec(0)


def automorphisms(g: ColoredGraph, pinned: Optional[dict] = None) -> list[Iso]:
    return isomorphisms(g, g, pinned)


def apply_iso(g: ColoredGraph, iso: Iso) -> ColoredGraph:
    """Relabel g through an isomorphism (edge names keep their images)."""
    verts = [iso.vertex_map[v] for v in g.vertices]
    edges = []
    for e in g.edges:
        s, d = iso.vertex_map[e.src], iso.vertex_map[e.dst]
        if e.name in iso.flipped:
            s, d = d, s
        edges.append(Edge(iso.edge_map[e.name], e.color, s, d))
    return ColoredGraph(verts, edges)


def graph_to_json(g: ColoredGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.name, "color": e.color, "src": e.src, "dst": e.dst, "z": g.parallel_index(e.name)}
            for e in g.edges
        ],
    }


def graph_from_json(data: dict) -> ColoredGraph:
    edges = [Edge(d["id"], d["color"], d["src"], d["dst"]) for d in data["edges"]]
    return ColoredGraph(data["vertices"], edges)


_DOT_PALETTE = [
    "black", "red", "blue", "forestgreen", "orange", "purple",
    "teal", "magenta", "brown", "gray40",
]


def dot_color_map(colors: Iterable[str]) -> dict:
    cm = {}
    for i, c in enumerate(sorted(set(colors))):
        cm[c] = _DOT_PALETTE[i % len(_DOT_PALETTE)]
    return cm


def graph_to_dot(g: ColoredGraph, name: str = "G") -> str:
    cm = dot_color_map(g.colors())
    lines = [f"digraph \"{name}\" {{"]
    for v in g.vertices:
        lines.append(f'  "{v}" [shape=point];')
    for e in g.edges:
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.name}", color={cm[e.color]}];')
    lines.append("}")
    return "\n".join(lines)
