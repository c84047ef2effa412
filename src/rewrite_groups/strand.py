"""Strand diagrams: the replacement groupoid of a set of rewriting rules.

A strand diagram is a finite acyclic directed graph whose non-trivial nodes
are splits (copies of a rule's replacement tree, read downward) and merges
(the same, read upward); strands carry a color and a label (v, w, z) naming
the endpoints of the edge they represent.  z is the edge's index among the
parallel edges of the graph it was read from.  It is kept for output, but
ports, not z, tell parallel strands apart: neither the equality key nor the
faithful-copy test reads it.
Reduced diagrams cut uniquely into a pair of forest expansions and therefore
represent generalized rearrangements between possibly different base graphs.

Open diagrams (``StrandDiagram``, ended by sources and sinks) and closed ones
(``conjugacy.ClosedDiagram``, ended by base points) share one wiring and
reduction core, ``Diagram``: the port index and its check, one scan for
Type 1 and Type 2 pairs (``_chained_pairs``, across base points in a closed
diagram) with its chain cache, one rule that picks the pair to cancel, and
the splice that cancels it.  ``_wire`` indexes and checks a diagram built
from outside; a cancellation or closed-diagram move makes an ``_edit`` of its
parent, which patches the index where ports changed and keeps the chains
that no put strand reaches.  ``StrandDiagram.reduce`` only cancels;
``conjugacy.reduce_closed`` adds shifts and Type 3 moves.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Optional

from .graphs import ColoredGraph, UnionFind
from .replacement import ReplacementSystem, Rule
from .rearrangement import Rearrangement, from_cell_map, reduced_flipless

Word = tuple


class NotRBranching(ValueError):
    def __init__(self, condition: int, message: str):
        self.condition = condition
        super().__init__(f"condition ({condition}): {message}")


class Incompatible(ValueError):
    pass


class NotXDiagram(ValueError):
    pass


@dataclass(frozen=True)
class Strand:
    color: str
    label: tuple  # (src symbol, dst symbol, z)
    src: tuple    # (node id, out port)
    dst: tuple    # (node id, in port)


def injective_except(sub: dict, glue: tuple = ()) -> bool:
    """Whether ``sub`` is injective, except that the two vertices of ``glue`` may share an image.

    ``glue`` is empty or a pair (a rule's ``glue``); ``sub`` may be partial.
    """
    collisions = len(sub) - len(set(sub.values()))
    if collisions != 1 or not glue:
        return collisions == 0
    a, b = glue
    return a in sub and b in sub and sub[a] == sub[b]


def is_bijection(pairs) -> bool:
    """Whether the pairs (x, y) spell one map x -> y that is consistent and injective."""
    m: dict = {}
    for x, y in pairs:
        if m.setdefault(x, y) != y:
            return False
    return injective_except(m)


def copy_defect(rule: Rule, kids: list, sub: dict) -> Optional[str]:
    """Why the strands ``kids`` (in port order) are no faithful copy of a rule's tree.

    Returns None for a faithful copy.  ``sub`` maps rule vertices to symbols;
    it may hold the branching endpoints already and is completed in place.
    A faithful copy has the rule's colors and a consistent substitution that
    is injective except on the rule's glue pair.  The z indices are not read:
    the port order already matches parallel strands to the rule's edges.
    """
    for e, strand in zip(rule.graph.edges, kids):
        if strand.color != e.color:
            return f"port color {strand.color!r} should be {e.color!r}"
        a, b, _ = strand.label
        for rv, sym in ((e.src, a), (e.dst, b)):
            if sub.setdefault(rv, sym) != sym:
                return f"inconsistent substitution at {rv}"
    if not injective_except(sub, rule.glue):
        return "substitution not injective"
    return None


_NO_PORTS: dict = {}


class Diagram:
    """Nodes joined port to port by strands: the core of open and closed diagrams.

    Node kinds are ("split", c) and ("merge", c) plus the end kinds in
    ``END_PORTS``, which are strings.  A split has one in strand (port 0) and one out strand per
    edge of c's rule, in rule order; a merge is the mirror image; an end kind
    maps to its (in ports, out ports).  A diagram built from outside sets
    ``system``, ``nodes`` and ``strands`` and calls ``_wire``, which indexes
    and checks every node; a successor made by a move is an ``_edit`` of its
    parent, which patches the index and checks only the nodes it touches.
    A diagram is never changed after it is made.
    """

    END_PORTS: dict = {}

    def _wire(self):
        """Index strands by port; raise NotXDiagram unless the wiring is exact.

        Every node must have exactly the ports of its kind, and every strand
        must leave and enter a port of a node of the diagram that no other
        strand uses.  The chain cache starts empty.
        """
        outs: dict = {}
        ins: dict = {}
        for sid, s in self.strands.items():
            outs.setdefault(s.src[0], {})[s.src[1]] = sid
            ins.setdefault(s.dst[0], {})[s.dst[1]] = sid
        self._out, self._in = outs, ins
        self._chains: dict = {}  # split or merge -> (end, count) of its chain or ()
        if self._check_ports(self.nodes) != 2 * len(self.strands):
            raise NotXDiagram("a strand ends at no node, or two strands share a port")

    def _edit(self, drop_nodes=(), add_nodes=None, drop=(), put=None) -> "Diagram":
        """A successor: this diagram with nodes and strands dropped, added or replaced.

        ``add_nodes`` maps new node ids to kinds, ``put`` strand ids to their
        new strands (disjoint from ``drop``).  Existing ids keep their place,
        new ones are appended in order.  The port index is copied and patched,
        and each node whose ports changed gets ``_wire``'s check: NotXDiagram
        for a strand left at a dropped node, two strands on one port or a
        strand to an unknown node.  The successor keeps its parent's chains
        but those of dropped nodes and of every head whose chain reaches a put
        strand.
        """
        add_nodes, put = add_nodes or {}, put or {}
        d = self._clone()
        nodes, strands = d.nodes, d.strands = dict(self.nodes), dict(self.strands)
        for nid in drop_nodes:
            del nodes[nid]
        nodes.update(add_nodes)
        # per index, the ports strands leave and the (port, strand) pairs they
        # enter; a strand that keeps an end keeps its entry there
        out_gone, out_come, in_gone, in_come = [], [], [], []
        for sid in drop:
            s = strands.pop(sid)
            out_gone.append(s.src)
            in_gone.append(s.dst)
        for sid, s in put.items():
            old = strands.get(sid)
            strands[sid] = s
            if old is None or old.src != s.src:
                out_come.append((s.src, sid))
                if old is not None:
                    out_gone.append(old.src)
            if old is None or old.dst != s.dst:
                in_come.append((s.dst, sid))
                if old is not None:
                    in_gone.append(old.dst)
        touched = dict.fromkeys(add_nodes)
        d._out, d._in = dict(self._out), dict(self._in)
        for index, gone, come in ((d._out, out_gone, out_come), (d._in, in_gone, in_come)):
            copied: dict = {}  # node -> its port dict, copied from the parent's on first change
            for nid, port in gone:
                if nid not in copied:
                    copied[nid] = index[nid] = dict(index[nid])
                del copied[nid][port]
            for (nid, port), sid in come:
                if nid not in nodes:
                    raise NotXDiagram(f"strand {sid!r} ends at unknown node {nid!r}")
                if nid not in copied:
                    copied[nid] = index[nid] = dict(index.get(nid, _NO_PORTS))
                if copied[nid].setdefault(port, sid) != sid:
                    raise NotXDiagram(f"two strands share port {port} of node {nid!r}")
            touched.update(dict.fromkeys(copied))
        for nid in drop_nodes:
            if any((d._out.pop(nid, _NO_PORTS), d._in.pop(nid, _NO_PORTS))):
                raise NotXDiagram(f"a strand is left at dropped node {nid!r}")
            touched.pop(nid, None)
        d._check_ports(touched)
        chains = d._chains = dict(self._chains)
        for nid in drop_nodes:
            chains.pop(nid, None)
        ins = d._in
        for s in put.values() if chains else ():
            head = s  # walked back through base points to the strand out of the chain's head
            while nodes[head.src[0]] == "bp":
                head = strands[ins[head.src[0]][0]]
                if head is s:  # a pure loop of base points: no head
                    break
            chains.pop(head.src[0], None)
        return d

    def _check_ports(self, nids) -> int:
        """Raise NotXDiagram unless each node of nids has exactly its kind's ports; count them."""
        nodes, ins, outs = self.nodes, self._in, self._out
        ends, trees = self.END_PORTS, self.system._strand_ports
        used = 0
        for nid in nids:
            kind = nodes[nid]
            want = ends.get(kind) or trees.get(kind) or self._tree_ports(nid, kind)
            i, o = ins.get(nid, _NO_PORTS), outs.get(nid, _NO_PORTS)
            if i.keys() != want[0] or o.keys() != want[1]:
                raise NotXDiagram(f"{kind} node {nid!r} has in ports {sorted(i)} "
                                  f"and out ports {sorted(o)}")
            used += len(i) + len(o)
        return used

    def _tree_ports(self, nid, kind) -> tuple:
        """(in ports, out ports) of a split or merge kind, kept per system once found."""
        rules = self.system.rules
        if not (isinstance(kind, tuple) and len(kind) == 2
                and kind[0] in ("split", "merge") and kind[1] in rules):
            raise NotXDiagram(f"node {nid!r} has unknown kind {kind!r}")
        one, tree = frozenset({0}), frozenset(range(len(rules[kind[1]].graph.edges)))
        ports = (one, tree) if kind[0] == "split" else (tree, one)
        self.system._strand_ports[kind] = ports
        return ports

    # -- structure ------------------------------------------------------------

    def out_strand(self, nid, port=0) -> str:
        return self._out[nid][port]

    def in_strand(self, nid, port=0) -> str:
        return self._in[nid][port]

    def arity(self, nid) -> int:
        """Number of rule edges of a split or merge."""
        return len(self.system.rules[self.nodes[nid][1]].graph.edges)

    def splits(self):
        return [n for n, k in self.nodes.items() if isinstance(k, tuple) and k[0] == "split"]

    def merges(self):
        return [n for n, k in self.nodes.items() if isinstance(k, tuple) and k[0] == "merge"]

    def symbols(self) -> set:
        out = set()
        for s in self.strands.values():
            out.add(s.label[0])
            out.add(s.label[1])
        return out

    def tree_strands(self, nid) -> tuple:
        """(branch strand, rule-edge strands in port order) of a split or merge."""
        ports = range(self.arity(nid))
        if self.nodes[nid][0] == "split":
            return (self.strands[self.in_strand(nid)],
                    [self.strands[self.out_strand(nid, p)] for p in ports])
        return (self.strands[self.out_strand(nid)],
                [self.strands[self.in_strand(nid, p)] for p in ports])

    def mirrored(self, merge_nid, split_nid) -> list:
        """(strand into merge port p, strand out of split port p) for each port p."""
        return [(self.in_strand(merge_nid, p), self.out_strand(split_nid, p))
                for p in range(self.arity(merge_nid))]

    def rename(self, mapping: dict) -> "Diagram":
        """The same diagram with each symbol x in ``mapping`` replaced by mapping[x]."""
        strands = dict(self.strands)
        for sid, s in self.strands.items():
            a, b, z = s.label
            if a in mapping or b in mapping:
                strands[sid] = Strand(s.color, (mapping.get(a, a), mapping.get(b, b), z),
                                      s.src, s.dst)
        return self._relabelled(strands)

    def _relabelled(self, strands: dict) -> "Diagram":
        """This diagram with ``strands``: its own strand ids and ends, other labels.

        The nodes and the port index, which ``_wire`` checked for this
        diagram, are shared rather than rebuilt.
        """
        d = self._clone()
        d.strands = strands
        return d

    def _clone(self) -> "Diagram":
        """A shallow copy (``copy.copy`` without its protocol lookups)."""
        d = object.__new__(type(self))
        d.__dict__.update(self.__dict__)
        return d

    # -- type 1 and type 2 pairs ------------------------------------------------

    def _strand_path_through_bps(self, sid) -> tuple:
        """Follow a strand through base points; returns (#bps crossed, end node, port)."""
        nodes, strands, outs, count = self.nodes, self.strands, self._out, 0
        s = strands[sid]
        while nodes[s.dst[0]] == "bp":
            count += 1
            s = strands[outs[s.dst[0]][0]]
        return count, s.dst[0], s.dst[1]

    def _chained_pairs(self) -> list:
        """Every Type 1 and Type 2 pair, across base points, with its count.

        Lists (split, merge, c) for each split whose out port p reaches port p
        of one merge of its colour through c base points on every port, in
        split order; then (merge, split, c) for each merge whose out strand
        reaches a split of its colour through c base points, in merge order.
        An open diagram has no base points, so each c is 0.  Each node's
        chain is read from ``_chains`` and followed only where no entry is
        kept.
        """
        chains = self._chains
        splits, merges = [], []
        for nid, kind in self.nodes.items():
            if type(kind) is str:  # an end
                continue
            chain = chains.get(nid)
            if chain is None:
                chain = chains[nid] = self._chain(nid, kind)
            if chain:
                (splits if kind[0] == "split" else merges).append((nid, *chain))
        return splits + merges

    def _chain(self, nid, kind):
        """(end, count) of the chained pair that split or merge nid leads, or () if none."""
        outs = self._out[nid]
        c, end, port = self._strand_path_through_bps(outs[0])
        if kind[0] == "merge":
            return (end, c) if self.nodes[end] == ("split", kind[1]) else ()
        if port != 0 or self.nodes[end] != ("merge", kind[1]):
            return ()
        for p in range(1, len(outs)):
            if self._strand_path_through_bps(outs[p]) != (c, end, p):
                return ()
        return end, c

    def _cancellation(self, chained: list, rng=None) -> Optional[tuple]:
        """The pair of ``chained`` to cancel next, or None if none is at count 0.

        The first split-led (Type 1) pair at count 0, else the first
        merge-led (Type 2) one; with ``rng``, a random pair of that class.
        """
        adjacent = [(a, b) for a, b, c in chained if c == 0]
        pairs = [(a, b) for a, b in adjacent if self.nodes[a][0] == "split"] or adjacent
        if not pairs:
            return None
        return rng.choice(pairs) if rng is not None else pairs[0]

    def _mirror_labels_equal(self, merge_nid, split_nid) -> bool:
        """Whether each strand into a merge carries the label of its mirror out of the split."""
        return all(self.strands[a].label == self.strands[b].label
                   for a, b in self.mirrored(merge_nid, split_nid))

    def cancel_type1(self, split_nid, merge_nid) -> "Diagram":
        """Remove a type 1 pair; the split's in strand ends where the merge's out strand did."""
        drop = [self.out_strand(split_nid, p) for p in range(self.arity(split_nid))]
        drop.append(self.out_strand(merge_nid))
        top_sid = self.in_strand(split_nid)
        top, bottom = self.strands[top_sid], self.strands[drop[-1]]
        return self._edit((split_nid, merge_nid), None, drop,
                          {top_sid: Strand(top.color, top.label, top.src, bottom.dst)})

    def cancel_type2(self, merge_nid, split_nid) -> "Diagram":
        """Remove a type 2 pair; strand p into the merge ends where split port p's strand did."""
        put, drop = {}, [self.out_strand(merge_nid)]
        for a, b in self.mirrored(merge_nid, split_nid):
            s = self.strands[a]
            put[a] = Strand(s.color, s.label, s.src, self.strands[b].dst)
            drop.append(b)
        return self._edit((merge_nid, split_nid), None, drop, put)


class StrandDiagram(Diagram):
    """Nodes are "source"/"sink"/("split", color)/("merge", color).

    Sources have a single out strand, sinks a single in strand; a split has
    one in strand and one out strand per rule edge, in rule order; merges are
    the mirror image.  ``sources`` and ``sinks`` order the ends.
    """

    END_PORTS = {"source": (frozenset(), frozenset({0})),
                 "sink": (frozenset({0}), frozenset())}

    def __init__(self, system: ReplacementSystem, nodes: dict, strands: dict,
                 sources: list, sinks: list):
        self.system = system
        self.nodes = dict(nodes)
        self.strands = dict(strands)
        self.sources = list(sources)
        self.sinks = list(sinks)
        self._wire()

    # -- structure ------------------------------------------------------------

    def kind(self, nid):
        return self.nodes[nid]

    def source_labels(self) -> list:
        return [self.strands[self.out_strand(n)].label for n in self.sources]

    def sink_labels(self) -> list:
        return [self.strands[self.in_strand(n)].label for n in self.sinks]

    def source_colors(self) -> list:
        return [self.strands[self.out_strand(n)].color for n in self.sources]

    def sink_colors(self) -> list:
        return [self.strands[self.in_strand(n)].color for n in self.sinks]

    # -- R-branching validation -------------------------------------------------

    def _faithful(self, nid) -> Optional[str]:
        """Check one split/merge against its replacement tree; None if ok."""
        color = self.nodes[nid][1]
        rule = self.system.rules[color]
        branch, kids = self.tree_strands(nid)
        if branch.color != color:
            return f"{nid}: branch color {branch.color!r} should be {color!r}"
        v, w, _ = branch.label
        if rule.kind == "loop" and v != w:
            return f"loop-colored strand at {nid} with distinct endpoints"
        defect = copy_defect(rule, kids, {rule.iota: v, rule.tau: w})
        return None if defect is None else f"{nid}: {defect}"

    def validate_r_branching(self):
        """Raises NotRBranching with the violated condition index."""
        for nid in self.splits() + self.merges():
            msg = self._faithful(nid)
            if msg:
                raise NotRBranching(1, msg)
        # condition 2: mirrored merge-then-split chains carry identical labels;
        # by condition 1 a merge and the split it feeds have one colour
        for up, down, _ in self._chained_pairs():
            if self.nodes[up][0] == "merge" and not self._mirror_labels_equal(up, down):
                raise NotRBranching(2, f"merge {up} above split {down} differ in labels")
        # condition 3: splits (and merges) generate each symbol under one label
        generated: dict = {"split": {}, "merge": {}}
        for nid in self.splits() + self.merges():
            branch, kids = self.tree_strands(nid)
            gen = generated[self.nodes[nid][0]]
            for s in kids:
                for sym in s.label[:2]:
                    if sym not in branch.label[:2]:
                        gen.setdefault(sym, set()).add(branch.label)
        for sym, branches in itertools.chain(*(gen.items() for gen in generated.values())):
            if len({(v, w) for v, w, _ in branches}) > 1:
                raise NotRBranching(3, f"symbol {sym!r} generated under different labels")

    # -- reductions ---------------------------------------------------------------

    def reduce(self, rng=None) -> "StrandDiagram":
        """The unique reduced equivalent; with ``rng``, cancellations in random order.

        Each round reads the pairs of ``_chained_pairs``, whose chains each
        cancellation's ``_edit`` keeps unless it put a strand on them, and
        cancels the pair that ``_cancellation`` picks, as closed reduction
        does: the first Type 1 pair, else the first Type 2 pair, in node
        order; with ``rng``, a random pair of that type.

        A merge and a split brought face to face (across a composition
        interface, say) may carry copies named independently; the
        mirrored-chain condition forces the labels of their mirrored strands
        equal.  Each Type 2 cancellation records the symbols it so forces in
        one union-find, and at the end each symbol is renamed to the least
        (by repr) symbol of its class.  Pairs are chosen by node order, never
        by labels, so renaming once at the end gives what renaming at every
        pair gives.
        """
        d = self
        forced = UnionFind()
        while (pair := d._cancellation(d._chained_pairs(), rng)) is not None:
            if d.nodes[pair[0]][0] == "split":
                d = d.cancel_type1(*pair)
                continue
            for a, b in d.mirrored(*pair):
                for x, y in zip(d.strands[a].label[:2], d.strands[b].label[:2]):
                    if x != y:
                        forced.union(x, y)
            d = d.cancel_type2(*pair)
        mapping = {}
        for members in forced.classes().values():
            least = min(members, key=repr)
            mapping.update((x, least) for x in members)
        return d.rename(mapping)

    def is_reduced(self) -> bool:
        return not self._chained_pairs()

    # -- identity and renaming -----------------------------------------------------

    def canonical_key(self) -> tuple:
        """Equality key invariant under renaming symbols and node/strand ids.

        A breadth-first walk from the sources numbers nodes and symbols as it
        meets them.  Each strand gives one row: the node and port it leaves,
        its color, its two symbols, and the node and port it enters.  Ports,
        not the z index, tell parallel strands apart: z records how a
        diagram was built, and diagrams built two ways may differ in it.
        """
        number = {n: ("src", i) for i, n in enumerate(self.sources)}
        number.update((n, ("snk", i)) for i, n in enumerate(self.sinks))
        syms: dict = {}
        queue = collections.deque(self.out_strand(n) for n in self.sources)
        rows = []
        while queue:
            s = self.strands[queue.popleft()]
            nid = s.dst[0]
            if nid not in number:
                number[nid] = (len(number), self.nodes[nid])
                queue.extend(sid for _, sid in sorted(self._out[nid].items()))
            a, b, _ = s.label
            rows.append((number[s.src[0]], s.src[1], s.color, syms.setdefault(a, len(syms)),
                         syms.setdefault(b, len(syms)), number[nid], s.dst[1]))
        return tuple(rows)

    def __eq__(self, other):
        return (isinstance(other, StrandDiagram) and self.system is other.system
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"StrandDiagram({len(self.sources)} sources, {len(self.sinks)} sinks, "
                f"{len(self.splits())} splits, {len(self.merges())} merges)")


# -- construction from rearrangements ---------------------------------------------


def from_rearrangement(g: Rearrangement, reduce: bool = True) -> StrandDiagram:
    """Glue the domain forest above the upside-down range forest along phi.

    By default the unique reduced flip-free representative is used; pass
    ``reduce=False`` to build the diagram of the given representative as-is
    (flips are still expanded away).
    """
    g = reduced_flipless(g) if reduce else g.flipless()
    nodes, strands, _tops, _bottoms = glue_forests(g)
    return StrandDiagram(g.system, nodes, strands,
                         [("src", i) for i in range(len(g.domain.base.edges))],
                         [("snk", i) for i in range(len(g.range_.base.edges))])


def glue_forests(g: Rearrangement, closed: bool = False) -> tuple:
    """Nodes and strands of a flipless ``g``: the domain forest above the upside-down range forest.

    Returns (nodes, strands, tops, bottoms): ``tops[i]`` is the id of the
    strand leaving end i of the domain base, ``bottoms[i]`` of the one
    entering end i of the range base.  Each word's color and ends (the
    integers of its leaf-graph vertices) are read off what the expansions
    recorded (``_leaves``, ``_inner``).  Open, the ends are nodes ("src", i) and
    ("snk", i), the splits ("sp", w) and the merges ("mg", v).  ``closed``
    glues end i of both bases into base point i and numbers the splits, then
    the merges, ("n", j) from the number of base points on, as
    ``conjugacy.close`` numbers the nodes of the open diagram.  Splits and
    merges are listed in forest order, by the length of their word and then
    by the first cell below it, so the nodes do not depend on whether an
    expansion was walked, merged or split.
    """
    system = g.system
    dom, ran = g.domain, g.range_
    # (color, s, t) of every word of each forest
    dends, rends = {**dom._inner, **dom._leaves}, {**ran._inner, **ran._leaves}
    # a symbol is a vertex of the domain leaf graph glued along phi to one of
    # the range leaf graph
    uf = UnionFind()
    for w in dom.cells:
        (_, ds, dt), (_, rs, rt) = dends[w], rends[g.phi[w]]
        uf.union(("D", ds), ("R", rs))
        uf.union(("D", dt), ("R", rt))
    names: dict = {}

    def holder(ends: dict, base: ColoredGraph, w: Word) -> ColoredGraph:
        """The graph in which the last letter of w is an edge."""
        return base if len(w) == 1 else system.rules[ends[w[:-1]][0]].graph

    def label(side, ends, base, w: Word) -> tuple:
        syms = [names.setdefault(uf.find((side, x)), f"x{len(names)}")
                for x in ends[w][1:]]
        return (syms[0], syms[1], holder(ends, base, w).parallel_index(w[-1]))

    nodes: dict = {}
    if closed:
        sources, sinks = range(len(dom.base.edges)), range(len(ran.base.edges))
        nodes.update((i, "bp") for i in sources)
    else:
        sources = [("src", i) for i in range(len(dom.base.edges))]
        sinks = [("snk", i) for i in range(len(ran.base.edges))]
        nodes.update((n, "source") for n in sources)
        nodes.update((n, "sink") for n in sinks)
    split, merge = {}, {}
    # interior words in forest order: by length, then by the first cell below
    # them, however the expansion was built
    for nid_of, exp, ends, kind, tag in ((split, dom, dends, "split", "sp"),
                                         (merge, ran, rends, "merge", "mg")):
        first: dict = {}
        for i, c in enumerate(exp.cells):
            for k in range(len(c) - 1, 0, -1):
                if c[:k] in first:
                    break
                first[c[:k]] = i
        for w in sorted(first, key=lambda x: (len(x), first[x])):
            nid = nid_of[w] = ("n", len(nodes)) if closed else (tag, w)
            nodes[nid] = (kind, ends[w][0])
    tops: dict = {}
    bottoms: dict = {}

    def upper_end(w: Word, sid: str):
        i = holder(dends, dom.base, w).edge_index(w[-1])
        if len(w) > 1:
            return (split[w[:-1]], i)
        tops[i] = sid
        return (sources[i], 0)

    def lower_end(v: Word, sid: str):
        i = holder(rends, ran.base, v).edge_index(v[-1])
        if len(v) > 1:
            return (merge[v[:-1]], i)
        bottoms[i] = sid
        return (sinks[i], 0)

    strands: dict = {}
    for w in sorted(dends, key=lambda x: (len(x), x)):
        sid = f"s{len(strands)}"
        dst = (split[w], 0) if w in split else lower_end(g.phi[w], sid)
        strands[sid] = Strand(dends[w][0], label("D", dends, dom.base, w),
                              upper_end(w, sid), dst)
    for v in sorted(ran._inner, key=lambda x: (len(x), x)):
        sid = f"s{len(strands)}"
        strands[sid] = Strand(rends[v][0], label("R", rends, ran.base, v),
                              (merge[v], 0), lower_end(v, sid))
    return (nodes, strands, [tops[i] for i in range(len(tops))],
            [bottoms[i] for i in range(len(bottoms))])


# -- cutting back to rearrangements --------------------------------------------------


def cut(d: StrandDiagram):
    """Sever a reduced diagram into its upper and lower forest (word form).

    Returns (upper cells in source words, lower cells in sink words, phi) where
    words are taken over synthetic base letters "0", "1", ... by end order.
    """
    if not d.is_reduced():
        d = d.reduce()
    # the upper forest: the splits reached from the sources through splits
    word_of_upper: dict = {}
    for i, n in enumerate(d.sources):
        word_of_upper[d.out_strand(n)] = (str(i),)
    stack = [d.out_strand(n) for n in d.sources]
    cut_strands = {}
    while stack:
        sid = stack.pop()
        s = d.strands[sid]
        nid = s.dst[0]
        kind = d.nodes[nid]
        if isinstance(kind, tuple) and kind[0] == "split":
            color = kind[1]
            rule = d.system.rules[color]
            for p, e in enumerate(rule.graph.edges):
                cid = d.out_strand(nid, p)
                word_of_upper[cid] = word_of_upper[sid] + (e.name,)
                stack.append(cid)
        else:
            cut_strands[sid] = word_of_upper[sid]
    word_of_lower: dict = {}
    for i, n in enumerate(d.sinks):
        word_of_lower[d.in_strand(n)] = (str(i),)
    stack = [d.in_strand(n) for n in d.sinks]
    lowers = {}
    while stack:
        sid = stack.pop()
        s = d.strands[sid]
        nid = s.src[0]
        kind = d.nodes[nid]
        if isinstance(kind, tuple) and kind[0] == "merge":
            color = kind[1]
            rule = d.system.rules[color]
            for p, e in enumerate(rule.graph.edges):
                cid = d.in_strand(nid, p)
                word_of_lower[cid] = word_of_lower[sid] + (e.name,)
                stack.append(cid)
        else:
            lowers[sid] = word_of_lower[sid]
    if set(cut_strands) != set(lowers):
        raise NotXDiagram("cut does not separate splits from merges")
    phi = {cut_strands[sid]: lowers[sid] for sid in cut_strands}
    return cut_strands, lowers, phi


def to_rearrangement(d: StrandDiagram, base_in: Optional[ColoredGraph] = None,
                     base_out: Optional[ColoredGraph] = None) -> Rearrangement:
    """Interpret a (reduced) diagram whose ends spell the given base graphs."""
    system = d.system
    base_in = base_in if base_in is not None else system.base
    base_out = base_out if base_out is not None else system.base
    d = d.reduce()
    for base, labels, colors in (
        (base_in, d.source_labels(), d.source_colors()),
        (base_out, d.sink_labels(), d.sink_colors()),
    ):
        if len(base.edges) != len(labels):
            raise NotXDiagram("end count does not match the base graph")
        if colors != [e.color for e in base.edges]:
            raise NotXDiagram("end colors do not match the base graph")
        if not is_bijection(p for e, (v, w, _) in zip(base.edges, labels)
                            for p in ((v, e.src), (w, e.dst))):
            raise NotXDiagram("end labels do not spell the base graph")
    cut_up, cut_low, phi_idx = cut(d)
    in_names = [e.name for e in base_in.edges]
    out_names = [e.name for e in base_out.edges]

    def up_word(w):
        return (in_names[int(w[0])],) + w[1:]

    def low_word(w):
        return (out_names[int(w[0])],) + w[1:]

    phi = {up_word(u): low_word(v) for u, v in phi_idx.items()}
    return from_cell_map(system, phi.items(), dbase=base_in, rbase=base_out)


# -- groupoid operations -----------------------------------------------------------


def invert(d: StrandDiagram) -> StrandDiagram:
    nodes = {}
    for nid, kind in d.nodes.items():
        if kind == "source":
            nodes[nid] = "sink"
        elif kind == "sink":
            nodes[nid] = "source"
        else:
            nodes[nid] = ("merge" if kind[0] == "split" else "split", kind[1])
    strands = {sid: Strand(s.color, s.label, s.dst, s.src) for sid, s in d.strands.items()}
    return StrandDiagram(d.system, nodes, strands, d.sinks, d.sources)


def compose(f: StrandDiagram, g: StrandDiagram) -> StrandDiagram:
    """``f after g``: glue the sinks of g onto the sources of f and reduce.

    Gluing gives the inner symbols of f fresh names; reduction makes them
    equal to those of g wherever a Type 2 pair it cancels forces it.
    """
    return _glued_composite(f, g).reduce()


def _glued_composite(f: StrandDiagram, g: StrandDiagram) -> StrandDiagram:
    """``f after g`` glued, the sinks of g onto the sources of f, not reduced.

    The interface binds each source symbol of f to the sink symbol of g at
    its position (Incompatible unless the ends agree in number, color and a
    consistent binding); every other symbol of f becomes a fresh one, used
    neither by g nor by the binding.  Mirrored labels that gluing leaves
    unequal are made equal by ``StrandDiagram.reduce``.
    """
    if f.system is not g.system:
        raise Incompatible("different systems")
    if len(f.sources) != len(g.sinks):
        raise Incompatible("requirement A fails: end counts differ")
    ren: dict = {}

    def bind(a, b):
        if ren.setdefault(a, b) != b:
            raise Incompatible("requirement B fails: labels do not unify")

    for src_n, snk_n in zip(f.sources, g.sinks):
        sf = f.strands[f.out_strand(src_n)]
        sg = g.strands[g.in_strand(snk_n)]
        if sf.color != sg.color:
            raise Incompatible("requirement B fails: colors differ")
        bind(sf.label[0], sg.label[0])
        bind(sf.label[1], sg.label[1])
    taken = g.symbols() | set(ren.values())
    fresh = (f"y{i}" for i in itertools.count() if f"y{i}" not in taken)
    for s in f.strands.values():
        for a in s.label[:2]:
            if a not in ren:
                ren[a] = next(fresh)
    # assemble the glued diagram
    nodes: dict = {}
    strands: dict = {}
    for nid, kind in g.nodes.items():
        if kind != "sink" or nid not in g.sinks:
            nodes[("g", nid)] = kind
    for nid, kind in f.nodes.items():
        if kind != "source" or nid not in f.sources:
            nodes[("f", nid)] = kind

    sink_of_g = {nid: i for i, nid in enumerate(g.sinks)}
    src_of_f = {nid: i for i, nid in enumerate(f.sources)}
    joints: dict = {}
    for sid, s in g.strands.items():
        if s.dst[0] in sink_of_g:
            joints[sink_of_g[s.dst[0]]] = (("g", s.src[0]), s.src[1], s.color, s.label)
        else:
            strands[("g", sid)] = Strand(s.color, s.label, (("g", s.src[0]), s.src[1]),
                                         (("g", s.dst[0]), s.dst[1]))
    for sid, s in f.strands.items():
        lab = (ren[s.label[0]], ren[s.label[1]], s.label[2])
        if s.src[0] in src_of_f:
            upper, port, color, glabel = joints[src_of_f[s.src[0]]]
            strands[("j", sid)] = Strand(color, glabel, (upper, port), (("f", s.dst[0]), s.dst[1]))
        else:
            strands[("f", sid)] = Strand(s.color, lab, (("f", s.src[0]), s.src[1]),
                                         (("f", s.dst[0]), s.dst[1]))
    sources = [("g", n) for n in g.sources]
    sinks = [("f", n) for n in f.sinks]
    return StrandDiagram(f.system, nodes, strands, sources, sinks)


def decompose(d: StrandDiagram):
    """Unique factorization of a reduced diagram as merges . permutation . splits.

    Returns (merge_part, permutation, split_part): the split part is the list
    of upper-forest cells in source-word form, the permutation maps upper leaf
    positions to lower leaf positions, and the merge part lists lower cells.
    """
    d = d.reduce()
    up, low, phi = cut(d)
    ups = sorted(up.values())
    lows = sorted(low.values())
    perm = tuple(lows.index(phi[u]) for u in ups)
    splits = ups if any(len(u) > 1 for u in ups) else []
    merges = lows if any(len(v) > 1 for v in lows) else []
    return merges, perm, splits


# -- emitters -------------------------------------------------------------------------


def strand_to_dot(d: StrandDiagram, name: str = "S") -> str:
    from .graphs import dot_color_map

    cm = dot_color_map({s.color for s in d.strands.values()})
    lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
    for nid, kind in d.nodes.items():
        tag = str(nid).replace('"', "")
        if kind == "source":
            shape = "circle"
        elif kind == "sink":
            shape = "doublecircle"
        elif kind[0] == "split":
            shape = "invtriangle"
        else:
            shape = "triangle"
        lines.append(f'  "{tag}" [shape={shape}, label=""];')
    for sid, s in d.strands.items():
        v, w, z = s.label
        lines.append(
            f'  "{str(s.src[0])}" -> "{str(s.dst[0])}" '
            f'[label="({v},{w},{z})", color={cm[s.color]}];'
        )
    lines.append("}")
    return "\n".join(lines)


def strand_to_json(d: StrandDiagram) -> dict:
    return {
        "nodes": [
            {"id": repr(nid), "kind": kind if isinstance(kind, str) else list(kind)}
            for nid, kind in d.nodes.items()
        ],
        "strands": [
            {
                "id": repr(sid),
                "color": s.color,
                "label": list(s.label),
                "src": [repr(s.src[0]), s.src[1]],
                "dst": [repr(s.dst[0]), s.dst[1]],
            }
            for sid, s in d.strands.items()
        ],
        "sources": [repr(n) for n in d.sources],
        "sinks": [repr(n) for n in d.sinks],
    }


def strand_from_json(system, data: dict) -> StrandDiagram:
    """Inverse of strand_to_json (ids are read back from their repr strings)."""
    import ast

    def parse(r):
        try:
            return ast.literal_eval(r)
        except (ValueError, SyntaxError):
            return r

    nodes = {}
    for n in data["nodes"]:
        kind = n["kind"]
        nodes[parse(n["id"])] = kind if isinstance(kind, str) else tuple(kind)
    strands = {}
    for st in data["strands"]:
        strands[parse(st["id"])] = Strand(
            st["color"], tuple(st["label"]),
            (parse(st["src"][0]), st["src"][1]),
            (parse(st["dst"][0]), st["dst"][1]),
        )
    sources = [parse(r) for r in data["sources"]]
    sinks = [parse(r) for r in data["sinks"]]
    return StrandDiagram(system, nodes, strands, sources, sinks)
