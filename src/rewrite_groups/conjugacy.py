"""Closed strand diagrams and the conjugacy algorithm.

Closing an X-strand diagram glues each sink to the matching source; the glue
points are the base points and cutting at them recovers the open diagram.
Two closed diagrams are similar when they differ by shifts of the cut line
across single splits or merges (base-point order carries no information in
this representation, so permutations are implicit).  Under reduction-confluent
rules every element has a unique reduced similarity class, conjugacy is
similarity of those classes, and a conjugating element is assembled from the
groupoid elements attached to the transformations performed along the way.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .graphs import ColoredGraph, Edge, UnionFind
from .replacement import ReplacementSystem
# compose is re-exported: callers reach it as conjugacy.compose
from .rearrangement import (Rearrangement, compose, conjugate_by, from_cell_map,  # noqa: F401
                            invert, product, reduced_flipless)
from .strand import (
    Diagram,
    NotXDiagram,
    Strand,
    StrandDiagram,
    copy_defect,
    glue_forests,
    injective_except,
    is_bijection,
    to_rearrangement,
)

Word = tuple


class RulesNotConfluent(RuntimeError):
    pass


class NotAdjacent(ValueError):
    pass


class WitnessInvalid(ValueError):
    pass


class ConjugatorInvalid(RuntimeError):
    """A conjugator assembled from a found similarity failed verification."""


# -- virtual reductions (augmented rule sets) -----------------------------------------


@dataclass(frozen=True)
class VirtualReduction:
    """A graph reduction: the pattern ``lhs`` collapses to a single edge.

    ``lhs`` is replaced by a single ``rhs_color`` edge from ``rhs_src`` to
    ``rhs_dst``, each either ("vertex", name of an lhs vertex) or ("fresh",
    tag).  ``expansion_map`` exhibits the witness: expanding the rhs edge by
    its color's rule must reproduce the lhs, up to the expansion of at most
    one lhs edge; it maps each rule edge of rhs_color either to ("edge", lhs
    edge) or to ("child", lhs edge, rule edge of its color).  A rule is the
    reduction of its own replacement graph, each rule edge mapped to itself
    (``_rule_patterns``); an extra reduction added to a non-confluent rule
    set expands exactly one lhs edge (``_validate_virtual``).
    """

    lhs: ColoredGraph
    rhs_color: str
    rhs_src: tuple
    rhs_dst: tuple
    expansion_map: dict

    @property
    def interior(self) -> list:
        """The lhs vertices the reduction deletes: those that end no rhs edge."""
        kept = {end[1] for end in (self.rhs_src, self.rhs_dst) if end[0] == "vertex"}
        return [v for v in self.lhs.vertices if v not in kept]


@dataclass(frozen=True)
class AugmentedRules:
    system: ReplacementSystem
    virtual: tuple


def _validate_virtual(system: ReplacementSystem, vr: VirtualReduction):
    """Check the conjugator witness: rhs expansion == lhs with one edge expanded."""
    rule = system.rules[vr.rhs_color]
    targets = [t for t in vr.expansion_map.values() if t[0] == "child"]
    expanded = {t[1] for t in targets}
    if len(expanded) != 1:
        raise WitnessInvalid("exactly one lhs edge must be expanded by the witness")
    mid = expanded.pop()
    mid_color = vr.lhs.edge(mid).color
    mid_rule = system.rules[mid_color]
    if set(vr.expansion_map) != {e.name for e in rule.graph.edges}:
        raise WitnessInvalid("expansion map must cover the rhs rule's edges")
    used = []
    for t in vr.expansion_map.values():
        if t[0] == "edge":
            used.append(("e", t[1]))
        else:
            if t[1] != mid:
                raise WitnessInvalid("children of two different lhs edges used")
            used.append(("c", t[2]))
    lhs_rest = [("e", e.name) for e in vr.lhs.edges if e.name != mid]
    kids = [("c", e.name) for e in mid_rule.graph.edges]
    if sorted(used) != sorted(lhs_rest + kids):
        raise WitnessInvalid("witness does not reproduce the expanded lhs")
    # endpoint consistency: build both graphs and compare up to the mapping
    m = vr.lhs.edge(mid)
    sub = {}
    if mid_rule.kind == "loop":
        sub[mid_rule.iota] = m.src
    else:
        sub[mid_rule.iota], sub[mid_rule.tau] = m.src, m.dst
    host_end = {}
    for e in vr.lhs.edges:
        if e.name != mid:
            host_end[("e", e.name)] = (e.src, e.dst, e.color)
    for e in mid_rule.graph.edges:
        s = sub.setdefault(e.src, ("int", e.src))
        t = sub.setdefault(e.dst, ("int", e.dst))
        host_end[("c", e.name)] = (s, t, e.color)
    # rhs expansion endpoints
    def rhs_end(v):
        if v == rule.iota:
            return ("rhs", "src")
        if rule.kind == "pair" and v == rule.tau:
            return ("rhs", "dst")
        return ("rint", v)

    pairs = []
    for e in rule.graph.edges:
        tgt = vr.expansion_map[e.name]
        key = ("e", tgt[1]) if tgt[0] == "edge" else ("c", tgt[2])
        hs, ht, hc = host_end[key]
        if hc != e.color:
            raise WitnessInvalid(f"color mismatch on rhs rule edge {e.name}")
        pairs += [(rhs_end(e.src), hs), (rhs_end(e.dst), ht)]
    if not is_bijection(pairs):
        raise WitnessInvalid("witness endpoint correspondence is not a bijection")


def add_virtual_reduction(system: ReplacementSystem, vr: VirtualReduction,
                          base: Optional[AugmentedRules] = None) -> AugmentedRules:
    _validate_virtual(system, vr)
    prev = base.virtual if base is not None else ()
    return AugmentedRules(system, prev + (vr,))


def augment_airplane(system: Optional[ReplacementSystem] = None) -> AugmentedRules:
    """The one extra reduction that repairs the airplane's reduction system.

    A red loop at x carrying a blue edge from x to v (with nothing else at x)
    reduces to a single blue edge out of v; the witness is a red expansion of
    the loop followed by a blue reduction.
    """
    from .catalog import airplane

    system = system if system is not None else airplane()
    lhs = ColoredGraph(["x", "v"], [Edge("loop", "r", "x", "x"), Edge("out", "b", "x", "v")])
    vr = VirtualReduction(
        lhs=lhs,
        rhs_color="b",
        rhs_src=("vertex", "v"),
        rhs_dst=("fresh", "w"),
        expansion_map={
            "b1": ("edge", "out"),
            "b2": ("child", "loop", "r2"),
            "b3": ("child", "loop", "r1"),
            "b4": ("child", "loop", "r3"),
        },
    )
    return add_virtual_reduction(system, vr)


# -- closed diagrams --------------------------------------------------------------------


class ClosedDiagram(Diagram):
    """A strand diagram closed around the hole; base points are the cut marks.

    Nodes are ("split", c) / ("merge", c) / "bp".  Base points have exactly one
    incoming and one outgoing strand.  The base-point order along the cut line
    is immaterial here: permutations of the base line are similarities and our
    operations never depend on the order, so base points form a plain set.
    """

    END_PORTS = {"bp": (frozenset({0}), frozenset({0}))}

    def __init__(self, system: ReplacementSystem, nodes: dict, strands: dict,
                 counter: int = 0):
        self.system = system
        self.nodes = dict(nodes)
        self.strands = dict(strands)
        self.counter = counter
        self._traversal = None
        self._base = None
        self._uses = None  # symbol -> number of label ends naming it, counted on first use
        self._wire()

    def _edit(self, drop_nodes=(), add_nodes=None, drop=(), put=None) -> "ClosedDiagram":
        """``Diagram._edit``; added nodes are base points numbered from ``counter`` on.

        The successor also patches its parent's symbol counts.
        """
        add_nodes, put = add_nodes or {}, put or {}
        d = super()._edit(drop_nodes, add_nodes, drop, put)
        d.counter = self.counter + len(add_nodes)
        d._traversal = d._base = None
        if self._uses is not None:
            uses = d._uses = dict(self._uses)
            gone = [self.strands[sid] for sid in drop]
            for sid, s in put.items():
                old = self.strands.get(sid)
                if old is None or old.label != s.label:
                    for x in s.label[:2]:
                        uses[x] = uses.get(x, 0) + 1
                    if old is not None:
                        gone.append(old)
            for s in gone:
                uses[s.label[0]] -= 1
                uses[s.label[1]] -= 1
        return d

    def _relabelled(self, strands: dict) -> "ClosedDiagram":
        d = super()._relabelled(strands)
        d._traversal = d._base = d._uses = None  # these read labels; the chains do not
        return d

    def bps(self):
        return sorted(n for n, k in self.nodes.items() if k == "bp")

    def fresh_symbols(self, n):
        """The n least symbols z0, z1, ... that no strand label names."""
        if self._uses is None:
            self._uses = dict(Counter(x for s in self.strands.values() for x in s.label[:2]))
        out = []
        i = 0
        while len(out) < n:
            c = f"z{i}"
            if not self._uses.get(c):
                out.append(c)
            i += 1
        return out

    # -- base graph and opening ------------------------------------------------------

    def base_graph(self) -> ColoredGraph:
        """The graph spelled by the strands leaving the base points, built once."""
        if self._base is None:
            verts: dict = {}  # insertion-ordered set
            edges = []
            for b in self.bps():
                s = self.strands[self.out_strand(b)]
                v, w, _ = s.label
                for x in (f"v{v}", f"v{w}"):
                    verts[x] = None
                edges.append(Edge(str(b), s.color, f"v{v}", f"v{w}"))
            self._base = ColoredGraph(verts, edges)
        return self._base

    def open_diagram(self) -> StrandDiagram:
        nodes = {}
        strands = {}
        sources, sinks = [], []
        for nid, kind in self.nodes.items():
            if kind == "bp":
                nodes[("so", nid)] = "source"
                nodes[("si", nid)] = "sink"
            else:
                nodes[nid] = kind
        for b in self.bps():
            sources.append(("so", b))
            sinks.append(("si", b))
        for sid, s in self.strands.items():
            src = (("so", s.src[0]), 0) if self.nodes[s.src[0]] == "bp" else s.src
            dst = (("si", s.dst[0]), 0) if self.nodes[s.dst[0]] == "bp" else s.dst
            strands[sid] = Strand(s.color, s.label, src, dst)
        return StrandDiagram(self.system, nodes, strands, sources, sinks)

    def open_element(self) -> Rearrangement:
        """The element of the diagram cut at its base line, over its own base graph.

        The tests' reference for the element a closed diagram stands for.
        """
        b = self.base_graph()
        return to_rearrangement(self.open_diagram(), b, b)

    # -- canonical key -----------------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Key invariant under node/strand ids and symbol renaming.

        Components are traversed in the order of their componentwise-least row
        sequences with one shared symbol table, so sharing of symbols across
        components is part of the key; tied components are tried in every
        order and the least overall key wins.
        """
        key, _order = self._canonical_traversal()
        return key

    def _canonical_traversal(self):
        """(key, node order) of the least traversal; computed once per diagram.

        A diagram is never changed after construction, so the key, equality,
        hashing and node matching all share this one traversal.
        """
        if self._traversal is None:
            self._traversal = self._least_traversal()
        return self._traversal

    def _least_anchors(self, comp, ports: Optional[dict] = None) -> tuple:
        """The least row sequence of a component and every anchor reaching it.

        The first row of a traversal depends on its anchor strand alone
        (``_first_row``), so only the strands with the least first row are
        traversed.  Their rows are compared with the best so far one row at a
        time, and an anchor is dropped at its first larger row.  Every
        traversal of a component gives one row per strand, so all its row
        sequences have the same length.
        """
        if ports is None:
            ports = self._port_table()
        firsts = {a: self._first_row(a) for a in comp}
        least = min(firsts.values())
        best = None
        anchors = []
        for a in sorted((a for a in comp if firsts[a] == least), key=repr):
            rows = self._rows_from(a, ports=ports)
            if best is None:
                best, anchors = tuple(rows), [a]
                continue
            for i, row in enumerate(rows):
                if row != best[i]:
                    if row < best[i]:
                        best, anchors = best[:i] + (row,) + tuple(rows), [a]
                    break
            else:
                anchors.append(a)
        return best, anchors

    def _least_traversal(self):
        ports = self._port_table()
        locals_ = []
        for c in self.components(ports):
            best, anchors = self._least_anchors(c, ports)
            locals_.append((best, anchors, c))
        locals_.sort(key=lambda x: x[0])
        groups = []
        for lk, anchors, c in locals_:
            if groups and groups[-1][0] == lk:
                groups[-1][1].append((anchors, c))
            else:
                groups.append((lk, [(anchors, c)]))
        best_key = None
        best_order = None

        def emit(sequence):
            sym_ids: dict = {}
            rows_all = []
            node_order = []
            for anchor in sequence:
                rows_all.append(tuple(self._rows_from(anchor, sym_ids, node_order, ports)))
            return tuple(rows_all), node_order

        choices_per_group = []
        for _lk, members in groups:
            if len(members) == 1:
                choices_per_group.append([[a] for a in members[0][0]])
            else:
                perms = itertools.permutations(members) if len(members) <= 4 else [tuple(members)]
                opts = []
                for perm in perms:
                    anchor_lists = [m[0] for m in perm]
                    for combo in itertools.product(*anchor_lists):
                        opts.append(list(combo))
                choices_per_group.append(opts)
        for combo in itertools.product(*choices_per_group):
            seq = [a for part in combo for a in part]
            key, order = emit(seq)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
        return best_key if best_key is not None else (), best_order or []

    def _port_table(self) -> dict:
        """Each node's strands in the order a traversal queues them.

        A base point gives (out, in), a split (in, out 0..k-1) and a merge
        (out, in 0..k-1).  The table is built per key computation and not
        kept: a similarity search keeps every diagram it reaches.
        """
        outs, ins = self._out, self._in
        table = {}
        for n, kind in self.nodes.items():
            if kind == "bp":
                table[n] = (outs[n][0], ins[n][0])
                continue
            one, tree = (ins[n], outs[n]) if kind[0] == "split" else (outs[n], ins[n])
            table[n] = (one[0], *map(tree.__getitem__, range(len(tree))))
        return table

    def _first_row(self, sid) -> tuple:
        """The first row of ``_rows_from(sid)``, read off the strand alone."""
        s = self.strands[sid]
        ku, kd = self.nodes[s.src[0]], self.nodes[s.dst[0]]
        return (0, s.src[1], 0 if s.src[0] == s.dst[0] else 1, s.dst[1],
                "bp" if ku == "bp" else ku[0], "bp" if kd == "bp" else kd[0],
                s.color, 0, 0 if s.label[0] == s.label[1] else 1)

    def _rows_from(self, start_sid, sym_ids: Optional[dict] = None,
                   node_order: Optional[list] = None, ports: Optional[dict] = None):
        """The rows of a breadth-first traversal from one strand, one at a time.

        A node is numbered when first met, and its strands (``_port_table``
        order) are queued then; a symbol is numbered when first met.
        """
        if ports is None:
            ports = self._port_table()
        if sym_ids is None:
            sym_ids = {}
        nodes, strands = self.nodes, self.strands
        node_ids: dict = {}
        seen = set()
        queue = deque([start_sid])
        while queue:
            sid = queue.popleft()
            if sid in seen:
                continue
            seen.add(sid)
            s = strands[sid]
            u, v = s.src[0], s.dst[0]
            iu = node_ids.get(u)
            if iu is None:
                iu = node_ids[u] = len(node_ids)
                if node_order is not None:
                    node_order.append((u, nodes[u]))
                queue.extend(ports[u])
            iv = node_ids.get(v)
            if iv is None:
                iv = node_ids[v] = len(node_ids)
                if node_order is not None:
                    node_order.append((v, nodes[v]))
                queue.extend(ports[v])
            a, b, _z = s.label
            ia = sym_ids.get(a)
            if ia is None:
                ia = sym_ids[a] = len(sym_ids)
            ib = sym_ids.get(b)
            if ib is None:
                ib = sym_ids[b] = len(sym_ids)
            ku, kd = nodes[u], nodes[v]
            # the z index is determined by port structure where it matters
            # and is meaningless across expansions, so it is not part of keys
            yield (
                iu, s.src[1], iv, s.dst[1],
                "bp" if ku == "bp" else ku[0], "bp" if kd == "bp" else kd[0],
                s.color, ia, ib,
            )

    def components(self, ports: Optional[dict] = None) -> list:
        """Strand sets of the connected components, each first met in ``repr`` order.

        A node's strands (``_port_table``) are taken only the first time the
        node is met.
        """
        if ports is None:
            ports = self._port_table()
        strands = self.strands
        met = set()
        out = []
        for first in sorted(strands, key=repr):
            start = strands[first].src[0]
            if start in met:
                continue
            met.add(start)
            comp = set()
            stack = [start]
            while stack:
                for x in ports[stack.pop()]:
                    if x in comp:
                        continue
                    comp.add(x)
                    s = strands[x]
                    for m in (s.src[0], s.dst[0]):
                        if m not in met:
                            met.add(m)
                            stack.append(m)
            out.append(comp)
        return out

    def __eq__(self, other):
        return (isinstance(other, ClosedDiagram) and self.system is other.system
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"ClosedDiagram({len(self.bps())} base points, "
                f"{len(self.splits())} splits, {len(self.merges())} merges)")


def _check_closable(tops: list, bottoms: list):
    """Raise NotXDiagram unless gluing bottoms[i] to tops[i] closes a diagram.

    ``tops`` are the strands leaving the sources, ``bottoms`` those entering
    the sinks, in end order; the sinks must spell the graph of the sources.
    """
    if len(tops) != len(bottoms):
        raise NotXDiagram("source and sink counts differ")
    if [s.color for s in tops] != [s.color for s in bottoms]:
        raise NotXDiagram("source and sink colors differ")
    if not is_bijection(p for top, bottom in zip(tops, bottoms)
                        for p in zip(bottom.label[:2], top.label[:2])):
        raise NotXDiagram("sources and sinks spell different graphs")


def close(d: StrandDiagram) -> ClosedDiagram:
    """Attach each sink to the source in the same position."""
    _check_closable([d.strands[d.out_strand(n)] for n in d.sources],
                    [d.strands[d.in_strand(n)] for n in d.sinks])
    nodes = {}
    remap = {}
    counter = 0
    for i, (so, si) in enumerate(zip(d.sources, d.sinks)):
        nodes[counter] = "bp"
        remap[so] = counter
        remap[si] = counter
        counter += 1
    for nid, kind in d.nodes.items():
        if kind in ("source", "sink"):
            continue
        nodes[("n", counter)] = kind
        remap[nid] = ("n", counter)
        counter += 1
    strands = {}
    for sid, s in d.strands.items():
        strands[sid] = Strand(s.color, s.label,
                              (remap[s.src[0]], s.src[1]), (remap[s.dst[0]], s.dst[1]))
    return ClosedDiagram(d.system, nodes, strands, counter)


def close_element(g: Rearrangement) -> ClosedDiagram:
    """The closure of g's reduced flipless diagram, ``close(from_rearrangement(g))``.

    It is built straight from the forests of the reduced element
    (``glue_forests``), with no open diagram in between; node and strand
    ids, and the checks that the ends close up, are those of ``close``.
    """
    nodes, strands, tops, bottoms = glue_forests(reduced_flipless(g), closed=True)
    _check_closable([strands[sid] for sid in tops], [strands[sid] for sid in bottoms])
    return ClosedDiagram(g.system, nodes, strands, len(nodes))


# -- moves ----------------------------------------------------------------------------
#
# Every move returns a Move: the new diagram, plus a conjugator built on first
# access.  The conjugator is a generalized rearrangement E between expansions
# of the old and new base graphs with o(new) = E^-1 o(old) E (checked by the
# tests in both roles, see _expansion_element for the orientation actually
# constructed).  Searches probe and explore many moves but keep few, and
# ``conjugate`` reads the kept ones only once the search has met, so only
# the moves of a found chain pay for their conjugators.


def _instantiate(system, color, v, w, fresh_syms):
    """Labels of a replacement tree copy with branching endpoints (v, w)."""
    rule = system.rules[color]
    sub = {}
    if rule.kind == "loop":
        if v != w:
            raise ValueError(f"a loop of color {color!r} needs equal endpoints")
        sub[rule.iota] = v
    else:
        sub[rule.iota], sub[rule.tau] = v, w
    fresh = iter(fresh_syms)
    labels = []
    for e in rule.graph.edges:
        for x in (e.src, e.dst):
            if x not in sub:
                sub[x] = next(fresh)
        labels.append((sub[e.src], sub[e.dst], rule.graph.parallel_index(e.name)))
    return labels


def _expansion_element(system: ReplacementSystem, old_base: ColoredGraph,
                       new_base: ColoredGraph, letter: str, child_names: list,
                       inverse: bool = False) -> Rearrangement:
    """The groupoid element identifying Omega(new base) with Omega(old base).

    ``letter``'s cone in the old base is split; child ``child_names[i]`` of the
    new base corresponds to the word (letter, rule edge i) of the old base.
    With ``inverse`` the element's inverse is built instead, as ``invert``
    would give it: neither orientation has a pair to reduce.
    """
    rule = system.rules[old_base.edge(letter).color]
    phi = {(e.name,): (e.name,) for e in old_base.edges if e.name != letter}
    for name, e in zip(child_names, rule.graph.edges):
        phi[(name,)] = (letter, e.name)
    if inverse:
        return from_cell_map(system, ((v, w) for w, v in phi.items()),
                             dbase=old_base, rbase=new_base)
    return from_cell_map(system, phi.items(), dbase=new_base, rbase=old_base)


class Move:
    """A performed transformation: its kind, the new diagram and its conjugator.

    ``conj`` is the conjugator E of the move and ``inverse`` is E^-1; each is
    a validated, reduced Rearrangement, built on first access and kept.
    ``build`` makes E.  ``build_inverse`` makes E^-1 directly where a move
    can (the shifts); without it, E^-1 is ``invert(E)``.
    """

    def __init__(self, kind, diagram, build, build_inverse=None):
        self.kind = kind
        self.diagram = diagram
        self._build = build
        self._build_inverse = build_inverse

    @cached_property
    def conj(self) -> Rearrangement:
        return self._build()

    @cached_property
    def inverse(self) -> Rearrangement:
        if self._build_inverse is None:
            return invert(self.conj)
        return self._build_inverse()


def _shift_move(kind: str, d: ClosedDiagram, out_diag: ClosedDiagram, letter,
                children: list, reducing: bool) -> Move:
    """The Move of a shift from d to out_diag, conjugators in either orientation.

    An expanding shift splits base point ``letter`` of d into ``children``
    of out_diag; a ``reducing`` one merges ``children`` of d into ``letter``
    of out_diag, so its conjugator is the inverse of the expansion element.
    """
    old, new = (out_diag, d) if reducing else (d, out_diag)

    def element(inverse: bool) -> Rearrangement:
        return _expansion_element(d.system, old.base_graph(), new.base_graph(), str(letter),
                                  [str(b) for b in children], inverse)

    return Move(kind, out_diag, lambda: element(reducing), lambda: element(not reducing))


def _repair_cond2(labels: list, facing: list, fresh: list) -> list:
    """``labels`` with their fresh symbols renamed as merge-above-split adjacency forces.

    A shift gives the moved node's new strands (``labels``, in port order)
    fresh interior symbols.  If the node and one of its colour become a merge
    feeding a split, mirrored chains must agree, so each fresh symbol becomes
    the one it faces in ``facing``; fresh symbols name no other strand.
    """
    renaming: dict = {}
    for new, old in zip(labels, facing):
        for x, y in zip(new[:2], old[:2]):
            if x != y and x in fresh:
                renaming[x] = y
    return [(renaming.get(a, a), renaming.get(b, b), z) for a, b, z in labels]


def shift_down_split(d: ClosedDiagram, bp) -> Move:
    """Expanding shift: the split fed by this base point rises above the line."""
    out = d.strands[d.out_strand(bp)]
    snode = out.dst[0]
    kind = d.nodes[snode]
    if not (isinstance(kind, tuple) and kind[0] == "split" and out.dst[1] == 0):
        raise NotAdjacent("base point does not feed a split")
    color = kind[1]
    rule = d.system.rules[color]
    up_sid = d.in_strand(bp)
    up = d.strands[up_sid]
    fresh = d.fresh_symbols(len(rule.graph.vertices))
    labels = _instantiate(d.system, color, up.label[0], up.label[1], fresh)
    if d.nodes[up.src[0]] == ("merge", color):
        labels = _repair_cond2(labels, [d.strands[d.in_strand(up.src[0], p)].label
                                        for p in range(len(labels))], fresh)
    new_bps = range(d.counter, d.counter + len(labels))
    put = {up_sid: Strand(up.color, up.label, up.src, (snode, 0))}
    for p, (nb, label) in enumerate(zip(new_bps, labels)):
        child_sid = d.out_strand(snode, p)
        # the child may be the strand into bp, already rerouted
        child = put.get(child_sid) or d.strands[child_sid]
        put[("u", nb)] = Strand(child.color, label, (snode, p), (nb, 0))
        put[child_sid] = Strand(child.color, child.label, (nb, 0), child.dst)
    out_diag = d._edit((bp,), dict.fromkeys(new_bps, "bp"), (d.out_strand(bp),), put)
    return _shift_move("shift_down_split", d, out_diag, bp, list(new_bps), reducing=False)


def shift_up_split(d: ClosedDiagram, snode) -> Move:
    """Reducing shift: the split sinks below the line (inverse of the above)."""
    kind = d.nodes[snode]
    color = kind[1]
    rule = d.system.rules[color]
    arity = len(rule.graph.edges)
    bps = []
    lowers = []
    for p in range(arity):
        s = d.strands[d.out_strand(snode, p)]
        if d.nodes.get(s.dst[0]) != "bp":
            raise NotAdjacent("split children do not all end at base points")
        bps.append(s.dst[0])
        lowers.append(d.strands[d.out_strand(s.dst[0])])
    if len(set(bps)) != arity:
        raise NotAdjacent("children share base points")
    sub: dict = {}
    if copy_defect(rule, lowers, sub) is not None:
        raise NotAdjacent("labels below the line are not a faithful copy")
    nb = d.counter
    up_sid = d.in_strand(snode)
    up = d.strands[up_sid]
    put = {up_sid: Strand(up.color, up.label, up.src, (nb, 0)),
           ("d", nb): Strand(up.color, (sub[rule.iota], sub[rule.tau], up.label[2]),
                             (nb, 0), (snode, 0))}
    for p, bp in enumerate(bps):
        low_sid = d.out_strand(bp)
        # the strand below may be the split's in strand, already rerouted
        low = put.get(low_sid) or d.strands[low_sid]
        put[low_sid] = Strand(low.color, low.label, (snode, p), low.dst)
    drop = [d.out_strand(snode, p) for p in range(arity)]
    return _shift_move("shift_up_split", d, d._edit(bps, {nb: "bp"}, drop, put),
                       nb, bps, reducing=True)


def shift_up_merge(d: ClosedDiagram, bp) -> Move:
    """Expanding shift: the merge feeding this base point sinks below the line."""
    up = d.strands[d.in_strand(bp)]
    mnode = up.src[0]
    kind = d.nodes[mnode]
    if not (isinstance(kind, tuple) and kind[0] == "merge" and up.src[1] == 0):
        raise NotAdjacent("base point is not fed by a merge")
    color = kind[1]
    rule = d.system.rules[color]
    low_sid = d.out_strand(bp)
    low = d.strands[low_sid]
    fresh = d.fresh_symbols(len(rule.graph.vertices))
    labels = _instantiate(d.system, color, low.label[0], low.label[1], fresh)
    if d.nodes[low.dst[0]] == ("split", color):
        labels = _repair_cond2(labels, [d.strands[d.out_strand(low.dst[0], p)].label
                                        for p in range(len(labels))], fresh)
    new_bps = range(d.counter, d.counter + len(labels))
    put = {low_sid: Strand(low.color, low.label, (mnode, 0), low.dst)}
    for p, (nb, label) in enumerate(zip(new_bps, labels)):
        in_sid = d.in_strand(mnode, p)
        # the strand into the merge may be the strand out of bp, already rerouted
        top = put.get(in_sid) or d.strands[in_sid]
        put[in_sid] = Strand(top.color, top.label, top.src, (nb, 0))
        put[("d", nb)] = Strand(top.color, label, (nb, 0), (mnode, p))
    out_diag = d._edit((bp,), dict.fromkeys(new_bps, "bp"), (d.in_strand(bp),), put)
    return _shift_move("shift_up_merge", d, out_diag, bp, list(new_bps), reducing=False)


def shift_down_merge(d: ClosedDiagram, mnode) -> Move:
    """Reducing shift: the merge rises above the line (inverse of the above)."""
    kind = d.nodes[mnode]
    color = kind[1]
    rule = d.system.rules[color]
    arity = len(rule.graph.edges)
    bps = []
    uppers = []
    for p in range(arity):
        s = d.strands[d.in_strand(mnode, p)]
        if d.nodes.get(s.src[0]) != "bp":
            raise NotAdjacent("merge inputs do not all start at base points")
        bps.append(s.src[0])
        uppers.append(d.strands[d.in_strand(s.src[0])])
    if len(set(bps)) != arity:
        raise NotAdjacent("inputs share base points")
    sub: dict = {}
    if copy_defect(rule, uppers, sub) is not None:
        raise NotAdjacent("labels above the line are not a faithful copy")
    nb = d.counter
    out_sid = d.out_strand(mnode)
    out = d.strands[out_sid]
    put = {out_sid: Strand(out.color, out.label, (nb, 0), out.dst),
           ("u", nb): Strand(out.color, (sub[rule.iota], sub[rule.tau], out.label[2]),
                             (mnode, 0), (nb, 0))}
    for p, bp in enumerate(bps):
        up_sid = d.in_strand(bp)
        # the strand above may be the merge's out strand, already rerouted
        top = put.get(up_sid) or d.strands[up_sid]
        put[up_sid] = Strand(top.color, top.label, top.src, (mnode, p))
    drop = [d.in_strand(mnode, p) for p in range(arity)]
    return _shift_move("shift_down_merge", d, d._edit(bps, {nb: "bp"}, drop, put),
                       nb, bps, reducing=True)


def _flippable_loop_colors(system, d, sids) -> bool:
    """All strands of the loop have undirected colors with involutive psi."""
    for sid in sids:
        color = d.strands[sid].color
        psi = system.reversing_automorphism(color)
        if psi is None:
            return False
        em = psi.edge_map
        if any(em[em[e]] != e for e in em):
            return False
    return True


def flip_loop(d: ClosedDiagram, bps: tuple) -> Move:
    """Reverse the orientation of a whole pure loop of undirected cells.

    Conjugating by the product of the one-cell orientation reversals along the
    loop leaves a prefix-exchange cycle, so this is a similarity move for
    undirected colors; psi must be an involution for the flip to stay cellwise.
    """
    loops = {tuple(b): (b, ss) for b, ss in pure_loops(d)}
    key = tuple(bps)
    if key not in loops:
        raise NotAdjacent("not a pure loop")
    b_list, sids = loops[key]
    if not _flippable_loop_colors(d.system, d, sids):
        raise NotAdjacent("loop colors are not (involutively) undirected")
    strands = dict(d.strands)
    for sid in sids:
        st = strands[sid]
        strands[sid] = Strand(st.color, (st.label[1], st.label[0], st.label[2]), st.src, st.dst)
    out_diag = d._relabelled(strands)

    def conjugator():
        # each flipped letter's cone maps through psi one level down
        old_base, new_base = d.base_graph(), out_diag.base_graph()
        phi = {}
        system = d.system
        flipped = set(str(b) for b in b_list)
        for e in new_base.edges:
            if e.name not in flipped:
                phi[(e.name,)] = (e.name,)
        for b in b_list:
            letter = str(b)
            color = old_base.edge(letter).color
            psi = system.reversing_automorphism(color).edge_map
            for x in system.rules[color].graph.edges:
                phi[(letter, x.name)] = (letter, psi[x.name])
        return from_cell_map(system, phi.items(), dbase=new_base, rbase=old_base)

    return Move("flip_loop", out_diag, conjugator)


def all_flips(d: ClosedDiagram) -> list:
    out = []
    for b, ss in pure_loops(d):
        if _flippable_loop_colors(d.system, d, ss):
            out.append(("flip_loop", tuple(b)))
    return out


def all_shifts(d: ClosedDiagram) -> list:
    out = []
    for bp in d.bps():
        s = d.strands[d.out_strand(bp)]
        kind = d.nodes[s.dst[0]]
        if isinstance(kind, tuple) and kind[0] == "split" and s.dst[1] == 0:
            out.append(("shift_down_split", bp))
        u = d.strands[d.in_strand(bp)]
        kind = d.nodes[u.src[0]]
        if isinstance(kind, tuple) and kind[0] == "merge" and u.src[1] == 0:
            out.append(("shift_up_merge", bp))
    out += [("shift_up_split", n) for n in d.splits() if _attempt(shift_up_split, d, n)]
    out += [("shift_down_merge", n) for n in d.merges() if _attempt(shift_down_merge, d, n)]
    return out


def apply_shift(d: ClosedDiagram, move) -> Move:
    kind, target = move
    return globals()[kind](d, target)


def _attempt(move, *args) -> Optional[Move]:
    """``move(*args)``, or None where it raises NotAdjacent."""
    try:
        return move(*args)
    except NotAdjacent:
        return None


def all_similarity_moves(d: ClosedDiagram) -> list:
    return all_shifts(d) + all_flips(d)


# -- pure loops and type 3 ----------------------------------------------------------


def pure_loops(d: ClosedDiagram) -> list:
    """Cycles passing only through base points: [(bp list, strand list)].

    A base point has one strand in and one out, so the run of base points
    from one either comes back to it or ends at a split or merge.  Every
    base point of a run that ends is marked and never walked from again, so
    each base point is walked over once.
    """
    seen = set()
    out = []
    for b in d.bps():
        if b in seen:
            continue
        bps = [b]
        strands = []
        cur = b
        while True:
            sid = d.out_strand(cur)
            nxt = d.strands[sid].dst[0]
            if nxt == b:
                strands.append(sid)
                out.append((bps, strands))
                break
            if d.nodes[nxt] != "bp" or nxt in seen:
                break
            strands.append(sid)
            bps.append(nxt)
            cur = nxt
        seen.update(bps)
    return out


def _type3_matches(d: ClosedDiagram, pattern_edges, winding_loops):
    """Assign loop variants and rotations to pattern edges, block by block.

    ``winding_loops`` entries are (bps, strand ids, flipped); all have the same
    length w, and a loop serves one pattern edge at most, whichever way round.
    Yields (assignment, subs): assignment lists (loop entry, rotation) per
    pattern edge, subs are the per-block vertex substitutions.
    """
    k = len(pattern_edges)
    w = len(winding_loops[0][1])

    def rec(i, used, subs, assign):
        if i == k:
            yield assign, subs
            return
        e = pattern_edges[i]
        for loop in winding_loops:
            bps, sids, flipped = loop
            if tuple(bps) in used:
                continue
            for off in range(w):
                trial = [dict(x) for x in subs]
                for r in range(w):
                    s = d.strands[sids[(off + r) % w]]
                    a, b = (s.label[1], s.label[0]) if flipped else s.label[:2]
                    if (s.color != e.color or trial[r].setdefault(e.src, a) != a
                            or trial[r].setdefault(e.dst, b) != b):
                        break
                else:
                    yield from rec(i + 1, used | {tuple(bps)}, trial, assign + [(loop, off)])

    yield from rec(0, frozenset(), [dict() for _ in range(w)], [])


class Type3Match(NamedTuple):
    """A type 3 reduction found by ``find_type3``.

    ``loops`` holds, per lhs edge of ``reduction``, the (base points, strand
    ids) of its loop rotated so that block r sits at position r; ``subs``
    maps the lhs vertices to symbols, one dict per block; ``flips`` names
    the loops (as ``pure_loops`` lists their base points) to reverse before
    the match applies.
    """

    reduction: VirtualReduction
    loops: tuple
    subs: tuple
    flips: frozenset


def find_type3(d: ClosedDiagram, virtual: tuple = (), allow_flips: bool = False, rng=None):
    """First applicable type 3 reduction, trying base rules then virtual ones.

    Block r of a match, the r-th strand of every matched loop, must be an
    instance of the reduction's lhs in the diagram's strands: injective but
    for the glue pair, with no interior symbol on a strand outside the block.
    With ``allow_flips`` the search may reverse whole pure loops of undirected
    colors first; the returned match then carries the flips to perform.
    """
    loops = pure_loops(d)
    if not loops:
        return None
    by_len: dict = {}
    for bps, sids in loops:
        by_len.setdefault(len(sids), []).append((bps, sids, False))
        if allow_flips and _flippable_loop_colors(d.system, d, sids):
            by_len[len(sids)].append((bps, sids, True))
    patterns = _rule_patterns(d.system, virtual)
    if rng is not None:
        rng.shuffle(patterns)
    incident = _incidence((sid, *s.label[:2]) for sid, s in d.strands.items())
    for w, cand in sorted(by_len.items()):
        if rng is not None:
            cand = list(cand)
            rng.shuffle(cand)
        for vr, glue in patterns:
            if len({tuple(c[0]) for c in cand}) < len(vr.lhs.edges):
                continue
            interior = vr.interior
            for assign, subs in _type3_matches(d, vr.lhs.edges, cand):
                blocks = tuple((bps[off:] + bps[:off], sids[off:] + sids[:off])
                               for (bps, sids, _fl), off in assign)
                if all(injective_except(sub, glue)
                       and _dangling_free(incident, interior, sub, {sids[r] for _b, sids in blocks})
                       for r, sub in enumerate(subs)):
                    flips = frozenset(tuple(bps) for (bps, _s, flipped), _o in assign if flipped)
                    return Type3Match(vr, blocks, tuple(subs), flips)
    return None


def apply_type3(d: ClosedDiagram, match: Type3Match) -> Move:
    """Replace the matched loops by one loop of the reduction's rhs edges.

    The conjugator expands new letter r by the rule of the rhs color; the
    reduction's ``expansion_map`` sends each child to the letter of block r
    that it spells, or to a child of that letter.
    """
    vr, loops, subs, flips = match
    if flips:
        raise ValueError("apply the match's loop flips before the reduction")
    system = d.system
    nodes = dict(d.nodes)
    strands = dict(d.strands)
    for bps, sids in loops:
        for b in bps:
            del nodes[b]
        for sid in sids:
            del strands[sid]
    w = len(subs)
    new_bps = list(range(d.counter, d.counter + w))
    fresh_syms = iter(d.fresh_symbols(w))

    def end_sym(end, sub):
        return sub[end[1]] if end[0] == "vertex" else next(fresh_syms)

    for r, sub in enumerate(subs):
        nodes[new_bps[r]] = "bp"
        label = (end_sym(vr.rhs_src, sub), end_sym(vr.rhs_dst, sub), 1)
        strands[("t3", new_bps[r])] = Strand(
            vr.rhs_color, label, (new_bps[r], 0), (new_bps[(r + 1) % w], 0))
    out_diag = ClosedDiagram(system, nodes, strands, d.counter + w)

    def conjugator():
        # expansions of each new letter spell out the removed letters
        new_base = out_diag.base_graph()
        phi = {(e.name,): (e.name,) for e in new_base.edges if int(e.name) not in new_bps}
        lhs_index = {e.name: i for i, e in enumerate(vr.lhs.edges)}
        for r in range(w):
            for re in system.rules[vr.rhs_color].graph.edges:
                _kind, lhs_edge, *child = vr.expansion_map[re.name]
                letter = str(loops[lhs_index[lhs_edge]][0][r])
                phi[(str(new_bps[r]), re.name)] = (letter, *child)
        return from_cell_map(system, phi.items(), dbase=new_base, rbase=d.base_graph())

    return Move("type3", out_diag, conjugator)


# -- reduction of closed diagrams ------------------------------------------------------


def reduce_closed(d: ClosedDiagram, virtual: tuple = (), rng=None):
    """The reduced diagram of the similarity class, with the log of its moves.

    Returns (reduced diagram, log).  The log holds the Moves performed in
    order; a move's conjugator is built only when its ``conj`` or
    ``inverse`` is read.
    Raises if clearing shifts get stuck, which reduction-confluence rules out
    for the rule sets this library ships.

    Each round reads the chained pairs once (``Diagram._chained_pairs``, from
    the chain cache that every move's ``_edit`` keeps up to date, so only
    chains through the strands a move put are followed again) and makes the
    first move that applies: the cancellation that ``Diagram._cancellation``
    picks, as in ``StrandDiagram.reduce`` (a Type 1 pair, split-led at count
    0, before a Type 2 one, merge-led at count 0), a shift that
    brings a chained pair closer (all counts are then above 0), a Type 3
    reduction.  When none applies, the cut line is parked and the flips
    are oriented.  With ``rng`` each step picks its candidate at random.
    """
    log = []
    while True:
        chained = d._chained_pairs()
        pair = d._cancellation(chained, rng)
        if pair is not None:
            if d.nodes[pair[0]][0] == "split":
                d = d.cancel_type1(*pair)
            elif d._mirror_labels_equal(*pair):
                d = d.cancel_type2(*pair)
            else:
                raise NotAdjacent("type 2 with unequal labels")
            continue
        if rng is not None:
            rng.shuffle(chained)
        mv = _clearing_shift(d, chained)
        if mv is not None:
            d = mv.diagram
            log.append(mv)
            continue
        m = find_type3(d, virtual, rng=rng)
        if m is None:
            mflip = find_type3(d, virtual, allow_flips=True, rng=rng)
            if mflip is not None:
                for bps in sorted(mflip.flips):
                    mv = flip_loop(d, bps)
                    d = mv.diagram
                    log.append(mv)
                m = find_type3(d, virtual)
        if m is not None:
            mv = apply_type3(d, m)
            d = mv.diagram
            log.append(mv)
            continue
        d, log = _minimize_line(d, log)
        return _canonical_flip_orientation(d, log)


def _clearing_shift(d: ClosedDiagram, chained: list) -> Optional[Move]:
    """The first shift that brings a pair of ``chained`` closer, or None."""
    for a, b, _count in chained:
        if d.nodes[a][0] == "split":
            mv = _attempt(shift_up_split, d, a) or _attempt(shift_down_merge, d, b)
        else:
            mv = _attempt(lambda: shift_up_merge(d, _first_bp_below(d, a)))
        if mv is not None:
            return mv
    return None


def _minimize_line(d: ClosedDiagram, log: list):
    """Park the cut line at a reducing-shift fixpoint (fewest base points).

    Each round makes the first reducing shift, splits before merges, each
    kind in ``repr`` order of its nodes.
    """
    while True:
        shifts = [(shift_up_split, n) for n in sorted(d.splits(), key=repr)]
        shifts += [(shift_down_merge, n) for n in sorted(d.merges(), key=repr)]
        mv = next(filter(None, (_attempt(shift, d, n) for shift, n in shifts)), None)
        if mv is None:
            return d, log
        d = mv.diagram
        log.append(mv)


def similarity_canonical_key(d: ClosedDiagram) -> tuple:
    """Least canonical key over the similarity orbit that ``_similarity_walk`` reaches.

    Two reduced diagrams of the same similarity class get equal keys, so this
    is the schedule-independent canonical form of a reduced class.  The key
    is canonical only when the walk empties its frontier: a walk that
    ``SIMILARITY_BUDGET`` stops, or whose orbit needs more than
    ``SIMILARITY_SLACK`` base points beyond ``d``'s, takes the least key of
    the part it reached.
    """
    sides, _hit = _similarity_walk([("orbit", d)])
    return min(sides["orbit"])


def _canonical_flip_orientation(d: ClosedDiagram, log: list):
    """Orient flippable pure loops so the canonical key is least.

    Reduction schedules can leave undirected loops with either orientation
    (the hidden psi); normalizing makes the reduced form schedule-independent.
    """
    flippable = [tuple(b) for b, ss in pure_loops(d)
                 if _flippable_loop_colors(d.system, d, ss)]
    if not flippable:
        return d, log
    if len(flippable) <= 6:
        best = (d.canonical_key(), (), d)
        for mask in itertools.product([False, True], repeat=len(flippable)):
            if not any(mask):
                continue
            cur = d
            moves = []
            for bps, flip in zip(flippable, mask):
                if flip:
                    mv = flip_loop(cur, bps)
                    cur = mv.diagram
                    moves.append(mv)
            key = cur.canonical_key()
            if key < best[0]:
                best = (key, tuple(moves), cur)
        _key, moves, cur = best
        log.extend(moves)
        return cur, log
    # too many loops: greedy, loop by loop
    changed = True
    while changed:
        changed = False
        for bps in flippable:
            mv = _attempt(flip_loop, d, bps)
            if mv is not None and mv.diagram.canonical_key() < d.canonical_key():
                d = mv.diagram
                log.append(mv)
                changed = True
    return d, log


def _first_bp_below(d: ClosedDiagram, mnode):
    s = d.strands[d.out_strand(mnode)]
    if d.nodes[s.dst[0]] != "bp":
        raise NotAdjacent("no base point below the merge")
    return s.dst[0]


# -- similarity and the conjugacy algorithm -------------------------------------------


def initial_renaming(system: ReplacementSystem, eta: ClosedDiagram,
                     g: Rearrangement) -> Rearrangement:
    """The base identification between a closure's base graph and g's own base."""
    pairs = [((str(bp),), (e.name,)) for bp, e in zip(eta.bps(), g.domain.base.edges)]
    return from_cell_map(system, pairs, dbase=eta.base_graph(), rbase=g.domain.base)


def _bald_key(d: ClosedDiagram) -> tuple:
    """Shift-invariant skeleton: labels dropped, base points contracted.

    The skeleton is canonically labeled (minimum over BFS anchors), so equal
    keys mean the diagrams agree after forgetting the cut line entirely.
    Every real node leaves port 0, so an anchor's least row is its port-0
    edge, and that row depends only on the anchor's own sorted adjacency;
    only the anchors whose row is least are searched from.
    """
    rows_out = []
    loops = None
    for comp in d.components():
        nodes = set()
        for sid in comp:
            s_ = d.strands[sid]
            nodes.add(s_.src[0])
            nodes.add(s_.dst[0])
        real = [n for n in nodes if d.nodes[n] != "bp"]
        if not real:
            if loops is None:
                loops = pure_loops(d)
            for bps, sids in loops:
                if set(sids) <= comp:
                    colors = [d.strands[x].color for x in sids]
                    best = min(tuple(colors[i:] + colors[:i]) for i in range(len(colors)))
                    rows_out.append(("loop", best))
            continue
        edges = []
        for sid in comp:
            s_ = d.strands[sid]
            if d.nodes[s_.src[0]] == "bp":
                continue
            _count, end, port = d._strand_path_through_bps(sid)
            edges.append((s_.src[0], s_.src[1], end, port, s_.color))
        adj: dict = {}
        for a, pa, b, pb, c in edges:
            adj.setdefault(a, []).append(("o", pa, b, pb, c))
            adj.setdefault(b, []).append(("i", pb, a, pa, c))
        # a node's (role, port) pairs are distinct, so this order ignores ids
        for out in adj.values():
            out.sort(key=repr)

        def first_row(anchor):
            """The anchor's port-0 row, with the ids the search gives its neighbours."""
            ids = {anchor: 0}
            for role, pp, other, po, c in adj[anchor]:
                ids.setdefault(other, len(ids))
                if role == "o" and pp == 0:
                    return (0, 0, ids[other], po, c, d.nodes[anchor][0], d.nodes[other][0])

        firsts = {a: first_row(a) for a in real}
        least = min(firsts.values())
        best = None
        for anchor in real:
            if firsts[anchor] != least:
                continue
            ids = {anchor: 0}
            queue = deque([anchor])
            while queue:
                n = queue.popleft()
                for role, pp, other, po, c in adj.get(n, ()):
                    if other not in ids:
                        ids[other] = len(ids)
                        queue.append(other)
            if len(ids) != len(real):
                continue
            rows = tuple(sorted((ids[a], pa, ids[b], pb, c,
                                 d.nodes[a][0], d.nodes[b][0])
                                for a, pa, b, pb, c in edges))
            kinds = tuple(sorted((ids[n], d.nodes[n][0], d.nodes[n][1]) for n in real))
            key = ("comp", rows, kinds)
            if best is None or key < best:
                best = key
        rows_out.append(best)
    return tuple(sorted(rows_out, key=repr))


def _matching(d1: ClosedDiagram, d2: ClosedDiagram):
    """A node correspondence d1 -> d2 when the diagrams are equal up to renaming."""
    k1, order1 = d1._canonical_traversal()
    k2, order2 = d2._canonical_traversal()
    if k1 != k2 or len(order1) != len(order2):
        return None
    corr = {}
    for (n1, kind1), (n2, kind2) in zip(order1, order2):
        if kind1 != kind2:
            return None
        corr[n1] = n2
    return corr


def _correspondence_element(system, d_from: ClosedDiagram, d_to: ClosedDiagram, corr) -> Rearrangement:
    """P with o(d_from) = P^-1 o(d_to) P given bp correspondence d_from -> d_to."""
    pairs = [((str(bp),), (str(corr[bp]),)) for bp in d_from.bps()]
    return from_cell_map(system, pairs, dbase=d_from.base_graph(), rbase=d_to.base_graph())


SIMILARITY_BUDGET = 3000  # diagrams a similarity walk explores at most
SIMILARITY_SLACK = 10  # base points a walked diagram may have beyond its largest start


def _similarity_walk(starts: list) -> tuple:
    """Breadth-first walk over similarity moves from (side, diagram) starts.

    Returns (sides, hit): ``sides`` maps each side to {canonical key:
    (diagram, path)} for every diagram it reached, a path being the
    (diagram, Move) steps from its start; ``hit`` is the first key reached
    from two sides, or None.  The walk stops at a hit, after exploring
    ``SIMILARITY_BUDGET`` diagrams (the moves of each are listed once, by
    ``all_similarity_moves``), or when its frontier empties; it never
    enters a diagram with more than ``SIMILARITY_SLACK`` base points beyond
    the largest start's.
    """
    bound = max(len(d.bps()) for _side, d in starts) + SIMILARITY_SLACK
    sides: dict = {side: {} for side, _d in starts}
    reached = set()  # the keys of every side
    frontier = deque()

    def add(side, diag, path):
        key = diag.canonical_key()
        if key in sides[side]:
            return None
        sides[side][key] = (diag, path)
        if key in reached:
            return key
        reached.add(key)
        frontier.append((side, diag, path))
        return None

    hit = None
    for side, d in starts:
        hit = hit or add(side, d, ())
    explored = 0
    while frontier and explored < SIMILARITY_BUDGET and hit is None:
        side, diag, path = frontier.popleft()
        explored += 1
        for spec in all_similarity_moves(diag):
            mv = _attempt(apply_shift, diag, spec)
            if mv is None or len(mv.diagram.bps()) > bound:
                continue
            hit = add(side, mv.diagram, path + ((diag, mv),))
            if hit is not None:
                break
    return sides, hit


def similarity_search(eta: ClosedDiagram, zeta: ClosedDiagram):
    """Meet-in-the-middle walk over similarity moves; None or (dL, dM, corr, pathL, pathM).

    dL and dM are the diagrams where the walks from eta and from zeta meet,
    pathL and pathM the steps that reach them, and corr the node
    correspondence dM -> dL.  None: the bald keys differ (a proof), the
    meeting diagrams have no node correspondence, or ``_similarity_walk``
    ended without a meeting (no proof).
    """
    if _bald_key(eta) != _bald_key(zeta):
        return None
    sides, hit = _similarity_walk([("L", eta), ("M", zeta)])
    if hit is None:
        return None
    dL, pathL = sides["L"][hit]
    dM, pathM = sides["M"][hit]
    corr = _matching(dM, dL)
    if corr is None:
        return None
    return dL, dM, corr, pathL, pathM


def conjugate(g: Rearrangement, h: Rearrangement, *, rules=None,
              assume_confluent: bool = False) -> Optional[Rearrangement]:
    """Decide conjugacy; return a verified conjugator k with k^-1 g k = h.

    Requires reduction-confluent rules (checked unless ``assume_confluent`` or
    an AugmentedRules value is supplied); raises RulesNotConfluent otherwise.

    None is not always a proof.  It is returned where ``similarity_search``
    returns None for the reduced closures: their bald keys differ, which
    proves g and h not conjugate; the diagrams where the two walks meet have
    no node correspondence; or the walk ended without meeting, because
    ``SIMILARITY_BUDGET`` diagrams were explored or every diagram left would
    exceed the ``SIMILARITY_SLACK`` bound on base points.  The CLI prints
    "not conjugate" in all three cases.

    Which of k and k^-1 the chain gives.  Write ab for "b, then a" and o(d)
    for the element of a closed diagram d.  Every logged or path conjugator
    E of a move d -> d' satisfies o(d') = E^-1 o(d) E, and the initial
    renamings give o(eta0) = Kg0^-1 g Kg0 and o(zeta0) = Kh0^-1 h Kh0.  By
    induction over the logs e1..en of g and f1..fq of h, with
    Kg = Kg0 e1 .. en and Kh = Kh0 f1 .. fq, o(eta) = Kg^-1 g Kg and
    o(zeta) = Kh^-1 h Kh.  Likewise L = L1 .. Lm and M = M1 .. Mp along the
    two search paths give o(dL) = L^-1 o(eta) L and o(dM) = M^-1 o(zeta) M,
    and the correspondence gives o(dM) = P^-1 o(dL) P.  So
    M^-1 Kh^-1 h Kh M = P^-1 L^-1 Kg^-1 g Kg L P, that is h = k^-1 g k for
    k = Kg L P M^-1 Kh^-1, which is k itself and not k^-1.  k is built as
    one ``product`` (leftmost factor applied first) of
    Kh0^-1, f1^-1 .. fq^-1, M1^-1 .. Mp^-1, P, Lm .. L1, en .. e1, Kg0,
    reduced once.  The logs and paths hold Moves, and no conjugator is
    built until the search has met: then each factor E is read as the
    move's ``conj`` and each E^-1 as its ``inverse``, which the shifts build
    directly rather than by inverting E.  Every factor is a validated,
    reduced Rearrangement.  The final check ``conjugate_by(g, k) == h``
    stays and raises ConjugatorInvalid if it fails.
    """
    system = g.system
    if h.system is not system:
        raise ValueError("elements live over different systems")
    virtual: tuple = ()
    if isinstance(rules, AugmentedRules):
        virtual = rules.virtual
    elif not assume_confluent:
        verdict = check_reduction_confluence(system)
        if verdict.kind != "confluent":
            raise RulesNotConfluent(
                "rules are not known to be reduction-confluent; pass augmented "
                "rules or assume_confluent=True if confluence is known")
    eta0 = close_element(g)
    zeta0 = close_element(h)
    eta, logg = reduce_closed(eta0, virtual)
    zeta, logh = reduce_closed(zeta0, virtual)
    found = similarity_search(eta, zeta)
    if found is None:
        return None
    dL, dM, corr, pathL, pathM = found
    Kg0 = initial_renaming(system, eta0, g)
    Kh0 = initial_renaming(system, zeta0, h)
    P = _correspondence_element(system, dM, dL, corr)
    chain = [invert(Kh0), *(mv.inverse for mv in logh), *(mv.inverse for _d, mv in pathM), P,
             *(mv.conj for _d, mv in reversed(pathL)), *(mv.conj for mv in reversed(logg)), Kg0]
    k = product(chain)
    if conjugate_by(g, k) != h:
        raise ConjugatorInvalid("similarity found but conjugator verification failed")
    return k


# -- stable and vanishing symbols ---------------------------------------------------


def stable_vanishing(d: StrandDiagram):
    """Classify symbols of an X-strand diagram by their fate in infinite powers.

    Returns (stable, vanishing, configurations): configurations lists, per
    connected component of the closure, the finitely many relabelings of that
    component's stable symbols produced by cycling the base line once, twice,
    and so on until it returns.
    """
    nu: dict = {}
    for (v1, w1, _), (v2, w2, _) in zip(d.source_labels(), d.sink_labels()):
        nu[v1] = v2
        nu[w1] = w2
    symbols = d.symbols()
    stable = set()
    for x in symbols:
        seen = {x}
        y = x
        while y in nu:
            y = nu[y]
            if y == x:
                stable.add(x)
                break
            if y in seen:
                break
            seen.add(y)
    vanishing = symbols - stable
    closed = close(d)
    configs = []
    for comp in closed.components():
        comp_syms = set()
        for sid in comp:
            s = closed.strands[sid]
            comp_syms.add(s.label[0])
            comp_syms.add(s.label[1])
        comp_stable = sorted(comp_syms & stable)
        orbit = []
        assign = {x: x for x in comp_stable}
        while True:
            orbit.append(dict(assign))
            assign = {x: nu[assign[x]] for x in comp_stable}
            if all(assign[x] == x for x in comp_stable):
                break
            if len(orbit) > len(symbols) + 1:
                break
        configs.append(orbit)
    return stable, vanishing, configs


# -- reduction systems and confluence --------------------------------------------------


@dataclass(frozen=True)
class ConfluenceVerdict:
    kind: str  # "confluent" | "not_confluent" | "inconclusive"
    witness: Optional[ColoredGraph] = None
    witness_forms: tuple = ()
    joined_pairs: int = 0

    @property
    def is_confluent(self):
        return self.kind == "confluent"


def _rule_patterns(system: ReplacementSystem, virtual: tuple = ()) -> list:
    """Every reduction as (VirtualReduction, glue): rules in color order, then ``virtual``.

    A rule of two or more edges reduces its replacement graph to one edge of
    its color from iota to tau, each rule edge expanding to itself.  ``glue``
    is the rule's glue pair, the two lhs vertices an instance may identify;
    virtual reductions have none.
    """
    pats = []
    for color in system.colors:
        rule = system.rules[color]
        if len(rule.graph.edges) < 2:
            continue  # single-edge rules rewrite nothing
        vr = VirtualReduction(rule.graph, color, ("vertex", rule.iota), ("vertex", rule.tau),
                              {e.name: ("edge", e.name) for e in rule.graph.edges})
        pats.append((vr, rule.glue))
    return pats + [(vr, ()) for vr in virtual]


def _incidence(ends) -> dict:
    """Host vertex -> names of the host edges at it, from (name, src, dst) triples."""
    out: dict = {}
    for name, a, b in ends:
        out.setdefault(a, set()).add(name)
        out.setdefault(b, set()).add(name)
    return out


def _dangling_free(incident: dict, interior, vmap: dict, used: set) -> bool:
    """The dangling condition: no image of an interior vertex meets a host edge outside ``used``."""
    return all(incident[vmap[v]] <= used for v in interior)


def _pattern_matches(host: ColoredGraph, pattern) -> list:
    """Instances of a reduction's lhs in the host, as (edge map, vertex map).

    Edges map injectively and keep their colors, vertices map injectively
    except for the pattern's glue pair, and the dangling condition holds.
    """
    vr, glue = pattern
    lhs = vr.lhs
    interior = vr.interior
    incident = _incidence((e.name, e.src, e.dst) for e in host.edges)
    host_by_color: dict = {}
    for e in host.edges:
        host_by_color.setdefault(e.color, []).append(e)
    out = []

    def rec(i, emap, vmap):
        if i == len(lhs.edges):
            if _dangling_free(incident, interior, vmap, set(emap.values())):
                out.append((dict(emap), dict(vmap)))
            return
        e = lhs.edges[i]
        for he in host_by_color.get(e.color, []):
            if he.name in emap.values():
                continue
            trial = dict(vmap)
            if (trial.setdefault(e.src, he.src) != he.src
                    or trial.setdefault(e.dst, he.dst) != he.dst
                    or not injective_except(trial, glue)):
                continue
            emap[e.name] = he.name
            rec(i + 1, emap, trial)
            del emap[e.name]

    rec(0, {}, {})
    return out


_FRESH = itertools.count()


def _apply_pattern(host: ColoredGraph, pattern, match) -> ColoredGraph:
    vr = pattern[0]
    emap, vmap = match
    used = set(emap.values())
    keep_edges = [e for e in host.edges if e.name not in used]
    drop_verts = {vmap[v] for v in vr.interior}

    def end_vertex(end):
        return vmap[end[1]] if end[0] == "vertex" else f"fresh{next(_FRESH)}"

    src, dst = end_vertex(vr.rhs_src), end_vertex(vr.rhs_dst)
    new_edge = Edge(f"red{next(_FRESH)}", vr.rhs_color, src, dst)
    verts = [v for v in host.vertices if v not in drop_verts]
    for v in (src, dst):
        if v not in verts:
            verts.append(v)
    return ColoredGraph(verts, keep_edges + [new_edge])


def _all_reductions(host: ColoredGraph, patterns) -> list:
    out = []
    for pat in patterns:
        for match in _pattern_matches(host, pat):
            result = _apply_pattern(host, pat, match)
            out.append((pat, match, result))
    return out


def _iso_class_key(g: ColoredGraph, undirected: frozenset) -> tuple:
    edges = []
    for e in g.edges:
        s, d = e.src, e.dst
        if e.color in undirected and d < s:
            s, d = d, s
        edges.append(Edge(e.name, e.color, s, d))
    return ColoredGraph(g.vertices, edges).canonical_key()


def check_reduction_confluence(system: ReplacementSystem, depth: int = 4,
                               virtual: tuple = ()) -> ConfluenceVerdict:
    """Critical-pair analysis of the anti-expansion rewriting system.

    Overlapping rule instances are enumerated by gluing two patterns along
    shared edges; each critical host is rewritten both ways and the results
    searched for a strongly-joining common successor (host vertices pinned).
    A host whose exhaustive reduction yields two non-isomorphic reduced forms
    is a genuine non-confluence witness.
    """
    cached = getattr(system, "_confluence_cache", None)
    if cached is not None and cached[0] == (depth, virtual):
        return cached[1]
    undirected = system.validate().undirected_colors
    patterns = _rule_patterns(system, virtual)
    joined = 0
    hosts = _critical_hosts(patterns)
    for host, inst1, inst2 in hosts:
        # the rewriting system's objects are isomorphism classes of colored
        # graphs, with undirected colors compared up to their hidden reversal
        r1 = _apply_pattern(host, inst1[0], inst1[1])
        r2 = _apply_pattern(host, inst2[0], inst2[1])
        if _iso_class_key(r1, undirected) == _iso_class_key(r2, undirected):
            joined += 1
            continue
        k1 = {_iso_class_key(x, undirected) for x in _reachable(r1, patterns, depth)}
        k2 = {_iso_class_key(x, undirected) for x in _reachable(r2, patterns, depth)}
        if k1 & k2:
            joined += 1
            continue
        # distinct reduced forms reachable from the host itself?
        forms = {}
        for x in _reachable(host, patterns, depth + 2):
            if not _all_reductions(x, patterns):
                forms[_iso_class_key(x, undirected)] = x
        if len(forms) > 1:
            verdict = ConfluenceVerdict("not_confluent", witness=host,
                                        witness_forms=tuple(forms.values()),
                                        joined_pairs=joined)
            system._confluence_cache = ((depth, virtual), verdict)
            return verdict
        verdict = ConfluenceVerdict("inconclusive", witness=host, joined_pairs=joined)
        system._confluence_cache = ((depth, virtual), verdict)
        return verdict
    verdict = ConfluenceVerdict("confluent", joined_pairs=joined)
    system._confluence_cache = ((depth, virtual), verdict)
    return verdict


def _reachable(g: ColoredGraph, patterns, depth: int) -> list:
    seen = {g.canonical_key(): g}
    frontier = [(g, 0)]
    while frontier:
        x, d = frontier.pop()
        if d >= depth:
            continue
        for _pat, _match, y in _all_reductions(x, patterns):
            k = y.canonical_key()
            if k not in seen:
                seen[k] = y
                frontier.append((y, d + 1))
    return list(seen.values())


def _critical_hosts(patterns) -> list:
    """Hosts carrying two overlapping instances (sharing at least one edge)."""
    out = []
    seen_hosts = set()
    for i1, p1 in enumerate(patterns):
        for i2, p2 in enumerate(patterns):
            if i2 < i1:
                continue
            e1s, e2s = list(p1[0].lhs.edges), list(p2[0].lhs.edges)
            # partial injective color-preserving maps e1 -> e2
            def overlaps(k):
                for subset in itertools.combinations(range(len(e1s)), k):
                    cands = [
                        [f for f in e2s if f.color == e1s[i].color] for i in subset
                    ]
                    for choice in itertools.product(*cands):
                        if len({f.name for f in choice}) != k:
                            continue
                        yield list(zip(subset, choice))
            for k in range(1, min(len(e1s), len(e2s)) + 1):
                for matching in overlaps(k):
                    if i1 == i2 and all(e1s[a].name == b.name for a, b in matching) \
                            and len(matching) == len(e1s):
                        continue
                    host = _glue(p1, p2, matching)
                    if host is None:
                        continue
                    hostg, m1, m2 = host
                    if m1[0] == m2[0] and i1 == i2:
                        continue
                    hk = (i1, i2, hostg.canonical_key(),
                          tuple(sorted(m1[0].values())), tuple(sorted(m2[0].values())))
                    if hk in seen_hosts:
                        continue
                    seen_hosts.add(hk)
                    # both instances must satisfy dangling in the host
                    incident = _incidence((e.name, e.src, e.dst) for e in hostg.edges)
                    if not all(_dangling_free(incident, p[0].interior, vmap, set(emap.values()))
                               for p, (emap, vmap) in ((p1, m1), (p2, m2))):
                        continue
                    out.append((hostg, (p1, m1), (p2, m2)))
    return out


def _glue(p1, p2, matching):
    """Pushout of the two patterns along the matched edges.

    None when it identifies two vertices of one pattern other than its glue pair.
    """
    (vr1, glue1), (vr2, glue2) = p1, p2
    lhs1, lhs2 = vr1.lhs, vr2.lhs
    uf = UnionFind()
    for v in lhs1.vertices:
        uf.add(("1", v))
    for v in lhs2.vertices:
        uf.add(("2", v))
    for i, f in matching:
        e = lhs1.edges[i]
        uf.union(("1", e.src), ("2", f.src))
        uf.union(("1", e.dst), ("2", f.dst))
    vmap1 = {v: f"h{uf.find(('1', v))}" for v in lhs1.vertices}
    vmap2 = {v: f"h{uf.find(('2', v))}" for v in lhs2.vertices}
    if not injective_except(vmap1, glue1) or not injective_except(vmap2, glue2):
        return None
    edges = []
    emap1 = {}
    emap2 = {}
    for e in lhs1.edges:
        name = f"a_{e.name}"
        emap1[e.name] = name
        edges.append(Edge(name, e.color, vmap1[e.src], vmap1[e.dst]))
    match_of = {f.name: lhs1.edges[i].name for i, f in matching}
    for f in lhs2.edges:
        if f.name in match_of:
            emap2[f.name] = emap1[match_of[f.name]]
        else:
            name = f"b_{f.name}"
            emap2[f.name] = name
            edges.append(Edge(name, f.color, vmap2[f.src], vmap2[f.dst]))
    verts = []
    for e in edges:
        for v in (e.src, e.dst):
            if v not in verts:
                verts.append(v)
    return ColoredGraph(verts, edges), (emap1, vmap1), (emap2, vmap2)
