"""Edge replacement systems, graph expansions, cells and cellular partitions.

A system is a colored base graph plus one replacement graph per color.
Rewriting replaces an edge by the replacement graph of its color, gluing the
boundary vertices onto the endpoints of the replaced edge.  Cells of the
limit space are handled symbolically as the words that address them: a word
is a walk on the color graph starting at the base state, and a graph
expansion is the antichain of words at the leaves of a complete subforest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .graphs import ColoredGraph, Edge

Word = tuple  # tuple[str, ...]; first letter from the base graph


class MalformedSystem(ValueError):
    pass


class NotACell(ValueError):
    pass


class NotReducible(ValueError):
    pass


class NotRepairable(ValueError):
    pass


@dataclass(frozen=True)
class Rule:
    """Replacement graph of one color with its boundary marking.

    ``boundary`` is ("pair", iota, tau) for ordinary colors or ("loop", lam)
    for loop-normalized colors.  A loop-kind color labels only loops
    (``ReplacementSystem`` checks it), so the ends of every edge it labels,
    in every expansion, are one vertex.
    """

    graph: ColoredGraph
    boundary: tuple

    @property
    def kind(self) -> str:
        return self.boundary[0]

    @property
    def iota(self) -> str:
        return self.boundary[1]

    @property
    def tau(self) -> str:
        """The terminal vertex; a loop rule's only boundary vertex is both."""
        return self.boundary[-1]

    def boundary_vertices(self) -> tuple:
        return (self.iota,) if self.kind == "loop" else (self.iota, self.tau)

    @property
    def glue(self) -> tuple:
        """The vertices a copy of the rule may identify: iota and tau of a pair rule."""
        return (self.iota, self.tau) if self.kind == "pair" else ()

    @cached_property
    def pattern(self) -> tuple:
        """(fresh, edges): the rule as ``walk_forest`` applies it.

        The vertices are numbered iota 0, tau 1 (a loop rule's lambda, both,
        gets 1) and the others from 2; ``fresh`` counts the others, and
        ``edges`` lists (letter, color, src, dst) by those numbers, last edge
        first.  The copy on an edge from s to t has vertices (s, t, *fresh).
        """
        bv = self.boundary_vertices()
        others = [v for v in self.graph.vertices if v not in bv]
        num = {self.iota: 0, self.tau: 1, **{v: i for i, v in enumerate(others, 2)}}
        edges = tuple((e.name, e.color, num[e.src], num[e.dst]) for e in reversed(self.graph.edges))
        return len(others), edges

    @cached_property
    def split_pattern(self) -> tuple:
        """``pattern`` as ``GraphExpansion._split`` applies it: the edges in
        edge order, each letter as the one-letter suffix it adds to a word."""
        fresh, edges = self.pattern
        return fresh, tuple(((name,), c, a, b) for name, c, a, b in reversed(edges))

    @cached_property
    def letters(self) -> frozenset:
        """The names of the rule edges: the last letters of a word's children."""
        return frozenset(e.name for e in self.graph.edges)

    @cached_property
    def end_degrees(self) -> dict:
        """Letter -> (s, t): the degree each end of that edge has in any copy
        of the rule with no outside edge at its interior; None at the boundary."""
        bv = self.boundary_vertices()
        need = {v: None if v in bv else self.graph.degree(v) for v in self.graph.vertices}
        return {e.name: (need[e.src], need[e.dst]) for e in self.graph.edges}


@dataclass(frozen=True)
class ValidationReport:
    expanding: bool
    loop_uniform: bool
    undirected_colors: frozenset
    null_expanding_isolated_colors: frozenset
    finite_branching_sufficient: bool


class ReplacementSystem:
    def __init__(self, colors: Sequence[str], base: ColoredGraph, rules: dict):
        self.colors = tuple(colors)
        self.base = base
        self.rules: dict[str, Rule] = dict(rules)
        used = set(base.colors())
        for c, rule in self.rules.items():
            used |= rule.graph.colors()
        if used - set(self.colors):
            raise MalformedSystem(f"colors without declaration: {sorted(used - set(self.colors))}")
        for c in self.colors:
            if c not in self.rules:
                raise MalformedSystem(f"color {c!r} has no replacement rule")
            rule = self.rules[c]
            for v in rule.boundary_vertices():
                if v not in rule.graph.vertices:
                    raise MalformedSystem(f"boundary vertex {v!r} missing in rule {c!r}")
            if rule.kind == "pair" and rule.iota == rule.tau:
                raise MalformedSystem(f"rule {c!r}: initial and terminal vertices coincide")
        self._loop_colors = frozenset(c for c in self.colors if self.rules[c].kind == "loop")
        for ctx in [None, *self.colors]:
            self._check_loops(self.graph_of(ctx))
        self._report: Optional[ValidationReport] = None
        self._psi: dict = {}
        self._gluing = None  # the gluing automaton, compiled on first use (gluing.py)
        self._strand_ports: dict = {}  # split/merge kind -> its port sets (strand.py)

    # -- graphs and letters --------------------------------------------------

    def graph_of(self, context: Optional[str]) -> ColoredGraph:
        """The graph whose edges may follow ``context`` (None = base graph)."""
        return self.base if context is None else self.rules[context].graph

    def _check_loops(self, g: ColoredGraph) -> None:
        """Raise MalformedSystem if a loop-kind color labels a non-loop edge of ``g``."""
        for e in g.edges:
            if e.color in self._loop_colors and not e.is_loop:
                raise MalformedSystem(f"loop-boundary color {e.color!r} colors the non-loop edge "
                                      f"{e.name!r}")

    def walk(self, word: Word, base: Optional[ColoredGraph] = None) -> list:
        """The edge each letter names, read as a walk on the color graph.

        The first letter is looked up in ``base`` (the system's base graph by
        default), every later one in the rule graph of the color before it.
        Raises KeyError for a word outside the language.
        """
        g = self.base if base is None else base
        out = []
        for letter in word:
            e = g.edge(letter)
            out.append(e)
            g = self.rules[e.color].graph
        return out

    def word_color(self, word: Word) -> str:
        return self.walk(word)[-1].color

    def language_contains(self, word: Iterable) -> bool:
        word = tuple(word)
        try:
            return bool(self.walk(word))
        except KeyError:
            return False

    def children(self, word: Word) -> list:
        c = self.word_color(word)
        return [word + (e.name,) for e in self.rules[c].graph.edges]

    def color_graph(self) -> ColoredGraph:
        """The automaton A_R: state q(c) per color plus the base state q(0)."""
        verts = ["q(0)"] + [f"q({c})" for c in self.colors]
        edges = []
        for ctx, tag in [(None, "q(0)")] + [(c, f"q({c})") for c in self.colors]:
            g = self.graph_of(ctx)
            for e in g.edges:
                name = e.name if ctx is None else f"{ctx}:{e.name}"
                edges.append(Edge(name, "walk", tag, f"q({e.color})"))
        keep = {v for v in verts if any(e.src == v or e.dst == v for e in edges)}
        return ColoredGraph([v for v in verts if v in keep], edges)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is None:
            self._report = self._validate()
        return self._report

    def _rule_expanding(self, rule: Rule) -> bool:
        g = rule.graph
        if rule.kind == "pair":
            if len(g.vertices) < 3 or len(g.edges) < 2:
                return False
            for e in g.edges:
                if {e.src, e.dst} == {rule.iota, rule.tau}:
                    return False
            return True
        # loop rules are images of pair rules with iota and tau identified
        if len(g.vertices) < 2 or len(g.edges) < 2:
            return False
        return not any(e.is_loop and e.src == rule.iota for e in g.edges)

    def _null_expanding(self, color: str) -> bool:
        """q(color) lies on an inescapable cycle of the color graph.

        Equivalently the walk from q(color) is forced (out-degree one all the
        way) and returns to q(color).
        """
        succ = {c: [e.color for e in self.rules[c].graph.edges] for c in self.colors}
        seen = set()
        c = color
        while True:
            if len(succ[c]) != 1:
                return False
            c = succ[c][0]
            if c == color:
                return True
            if c in seen:
                return False
            seen.add(c)

    def _isolated_colors(self) -> frozenset:
        """Largest color set whose edges stay vertex-disjoint in all expansions."""

        def locally_disjoint(c: str) -> bool:
            for ctx in [None] + list(self.colors):
                g = self.graph_of(ctx)
                for e in g.edges:
                    if e.color != c:
                        continue
                    for f in g.edges:
                        if f.name == e.name:
                            continue
                        if {e.src, e.dst} & {f.src, f.dst}:
                            return False
            return True

        iso = {c for c in self.colors if locally_disjoint(c)}
        changed = True
        while changed:
            changed = False
            for c in list(iso):
                ok = True
                for ctx in self.colors:
                    rule = self.rules[ctx]
                    for e in rule.graph.edges:
                        if e.color == c and ({e.src, e.dst} & set(rule.boundary_vertices())):
                            if ctx not in iso:
                                ok = False
                if not ok:
                    iso.discard(c)
                    changed = True
        return frozenset(iso)

    def undirected_colors(self) -> frozenset:
        from .graphs import isomorphisms

        out = set()
        for c, rule in self.rules.items():
            if rule.kind != "pair":
                continue
            pin = {rule.iota: rule.tau, rule.tau: rule.iota}
            if isomorphisms(rule.graph, rule.graph, pinned=pin, limit=1):
                out.add(c)
        return frozenset(out)

    def reversing_automorphism(self, color: str):
        """The fixed orientation-reversing automorphism psi of an undirected color.

        Deterministically the least one; None if the color is not undirected.
        Computed once per color and kept on the system.
        """
        if color in self._psi:
            return self._psi[color]
        from .graphs import isomorphisms

        rule = self.rules[color]
        psi = None
        if rule.kind == "pair":
            pin = {rule.iota: rule.tau, rule.tau: rule.iota}
            isos = isomorphisms(rule.graph, rule.graph, pinned=pin)
            psi = isos[0] if isos else None
        self._psi[color] = psi
        return psi

    def _loop_status(self) -> dict:
        """Color -> the set of ``is_loop`` over the base and rule edges it labels."""
        status: dict = {}
        for ctx in [None, *self.colors]:
            for e in self.graph_of(ctx).edges:
                status.setdefault(e.color, set()).add(e.is_loop)
        return status

    def _loop_uniform(self) -> bool:
        for c, kinds in self._loop_status().items():
            if len(kinds) > 1:
                return False
            looped = kinds == {True}
            if looped != (self.rules[c].kind == "loop"):
                return False
        return True

    def _finite_branching_sufficient(self) -> bool:
        for rule in self.rules.values():
            if rule.kind == "pair":
                if rule.graph.degree(rule.iota) > 1 or rule.graph.degree(rule.tau) > 1:
                    return False
            else:
                if rule.graph.degree(rule.iota) > 2:
                    return False
        return True

    def _validate(self) -> ValidationReport:
        isolated = self._isolated_colors()
        nei = frozenset(c for c in isolated if self._null_expanding(c))
        expanding = all(self._rule_expanding(r) for r in self.rules.values())
        return ValidationReport(
            expanding=expanding,
            loop_uniform=self._loop_uniform(),
            undirected_colors=self.undirected_colors(),
            null_expanding_isolated_colors=nei,
            finite_branching_sufficient=self._finite_branching_sufficient(),
        )

    def __repr__(self):
        return f"ReplacementSystem(colors={list(self.colors)})"


# -- loop normalization ------------------------------------------------------


def normalize_loops(system: ReplacementSystem) -> ReplacementSystem:
    """Split every color whose edges mix loops and non-loops.

    Loop edges of a split color c get a new color c~ whose rule is the old one
    with iota and tau identified to a single vertex.  Only colors change:
    every edge keeps its name, so a word of the system is the same word, naming
    the same cell, in the normalized system.
    """
    if system._loop_uniform():
        return system

    status = system._loop_status()
    loop_name = {}
    taken = set(system.colors)
    for c in system.colors:
        if status.get(c) == {True, False}:
            lc = f"{c}~"
            while lc in taken:
                lc += "~"
            taken.add(lc)
            loop_name[c] = lc
        else:
            loop_name[c] = c

    def recolor(g: ColoredGraph, vmap=None) -> ColoredGraph:
        vmap = vmap or {}
        edges = []
        for e in g.edges:
            s, d = vmap.get(e.src, e.src), vmap.get(e.dst, e.dst)
            edges.append(Edge(e.name, loop_name[e.color] if s == d else e.color, s, d))
        return ColoredGraph([v for v in g.vertices if v not in vmap], edges)

    def loop_rule(rule: Rule) -> Rule:
        return Rule(recolor(rule.graph, {rule.tau: rule.iota}), ("loop", rule.iota))

    new_colors: list = []
    new_rules: dict = {}
    for c in system.colors:
        rule = system.rules[c]
        new_colors.append(c)
        if status.get(c) == {True} and rule.kind == "pair":
            new_rules[c] = loop_rule(rule)
        else:
            new_rules[c] = Rule(recolor(rule.graph), rule.boundary)
        if loop_name[c] != c:
            new_colors.append(loop_name[c])
            new_rules[loop_name[c]] = loop_rule(rule)
    return ReplacementSystem(new_colors, recolor(system.base), new_rules)


def translate_word(normalized: ReplacementSystem, original: ReplacementSystem, word: Word) -> Word:
    """A word of ``original`` as a word of its loop-normalized system: itself.

    Normalization keeps every letter, so this only checks that the word reads
    in ``normalized`` (KeyError outside its language) and returns it.
    """
    word = tuple(word)
    normalized.walk(word)
    return word


# -- expanding repair ----------------------------------------------------------


def _gadget_graph(color: str) -> ColoredGraph:
    """The five-edge replacement graph with trivial rearrangement group."""
    verts = ["l", "t1", "t2", "b", "r"]
    edges = [
        Edge("n1", color, "l", "t1"),
        Edge("n2", color, "t1", "t2"),
        Edge("n3", color, "t2", "r"),
        Edge("n4", color, "l", "b"),
        Edge("n5", color, "b", "r"),
    ]
    return ColoredGraph(verts, edges)


def make_expanding(system: ReplacementSystem) -> tuple:
    """Replace null-expanding isolated colors by the rigid five-edge gadget.

    Returns the repaired system together with the map of rewired colors.
    """
    report = system.validate()
    bad = [c for c in system.colors if not system._rule_expanding(system.rules[c])]
    if not bad:
        return system, {}
    rewired = {}
    rules = dict(system.rules)
    for c in bad:
        if c not in report.null_expanding_isolated_colors:
            raise NotRepairable(f"color {c!r} is not a null-expanding isolated color")
        old = system.rules[c]
        # the rule of a null-expanding isolated color is a single edge; keep its color
        target = old.graph.edges[0].color
        g = _gadget_graph(target)
        rules[c] = Rule(g, ("pair", "l", "r"))
        rewired[c] = target
    out = ReplacementSystem(system.colors, system.base, rules)
    if not out.validate().expanding:
        raise NotRepairable("repair did not produce an expanding system")
    return out, rewired


# -- rational sequences --------------------------------------------------------


def _primitive(period: tuple) -> tuple:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


@dataclass(frozen=True)
class RationalSequence:
    """An eventually periodic sequence prefix . period^omega, normalized."""

    prefix: tuple
    period: tuple

    @staticmethod
    def make(prefix: Iterable, period: Iterable) -> "RationalSequence":
        prefix = tuple(prefix)
        period = _primitive(tuple(period))
        if not period:
            raise ValueError("empty period")
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = (period[-1],) + period[:-1]
        return RationalSequence(prefix, period)

    def letter(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def prefix_of_length(self, n: int) -> tuple:
        repeats = max(0, -(-(n - len(self.prefix)) // len(self.period)))
        return (self.prefix + self.period * repeats)[:n]

    def __str__(self):
        return " ".join(self.prefix) + (" " if self.prefix else "") + "(" + " ".join(self.period) + ")"


# -- graph expansions ----------------------------------------------------------


def walk_forest(system: ReplacementSystem, base: ColoredGraph, cells: Sequence[Word]) -> tuple:
    """One iterative depth-first walk of the forest whose leaves are ``cells``.

    Only expansions built from cells a caller supplies are walked
    (``GraphExpansion(...)``, ``base_expansion``); the others edit what an
    earlier walk recorded.  The forest is expanded top-down from the edges
    of ``base``, each node visited once, children in edge order.  Returns
    (leaves, inner, families, size): ``leaves`` maps each cell, in
    depth-first order, and ``inner`` each interior word (strict prefix of a
    cell), in depth-first preorder, to (color, s, t), where s and t are
    integers naming vertices of the leaf graph: two ends are one vertex
    exactly when their integers are equal.  Each rule copy keeps the ends of
    the edge it replaces and numbers its other vertices from the next free
    integer (``Rule.pattern``); a loop-kind color labels only loops, so no
    copy glues two ends.  ``families`` lists, in walk order, the interior
    words whose rule children are all cells, the only words a reduction can
    merge.  ``size`` is the next free integer.

    Raises MalformedSystem if a loop-kind color labels a non-loop edge of
    ``base``, KeyError for a word outside the language, and NotACell unless
    the cells, without duplicates, are the leaves of a complete subforest.
    """
    # the trie: an interior word is a [word, children] list, a cell its word;
    # ``trie`` maps each interior word to its children
    root: dict = {}
    trie = {(): root}
    for w in cells:
        i, step = len(w) - 1, 1
        kids = trie.get(w[:i])
        while kids is None:  # gallop back to a prefix in the trie ...
            i, step = max(i - step, 0), 2 * step
            kids = trie.get(w[:i])
        for i in range(i, len(w) - 1):  # ... then walk down, adding what is missing
            node = kids.get(w[i])
            if node is None:
                node = kids[w[i]] = [w[:i + 1], {}]
                trie[node[0]] = node[1]
            elif type(node) is not list:
                _reject(system, base, cells, f"{w} extends the cell {node}")
            kids = node[1]
        if not w:
            _reject(system, base, cells, "the empty word is not a cell")
        if w[-1] in kids:
            _reject(system, base, cells, f"{w} is a duplicate cell or extended by another cell")
        kids[w[-1]] = w
    if base is not system.base:
        system._check_loops(base)
    ids = {v: i for i, v in enumerate(base.vertices)}
    size = len(ids)
    leaves: dict = {}
    inner: dict = {}
    families: list = []
    stack: list = []

    def push(kids: dict, edges: tuple, sub: Sequence[int]) -> bool:
        """Stack the children of one node; True when they are all cells."""
        if len(kids) != len(edges):
            _reject(system, base, cells, "cells do not form a complete partition")
        all_cells = True
        for letter, color, a, b in edges:
            node = kids.get(letter)
            if node is None:
                _reject(system, base, cells, "cells do not form a complete partition")
            if type(node) is list:
                all_cells = False
            stack.append((node, color, sub[a], sub[b]))
        return all_cells

    push(root, tuple((e.name, e.color, ids[e.src], ids[e.dst]) for e in reversed(base.edges)),
         range(size))
    while stack:
        node, color, s, t = stack.pop()
        if type(node) is not list:
            leaves[node] = (color, s, t)
            continue
        word = node[0]
        inner[word] = (color, s, t)
        fresh, edges = system.rules[color].pattern
        if push(node[1], edges, (s, t, *range(size, size + fresh))):
            families.append(word)
        size += fresh
    return leaves, inner, families, size


def _reject(system: ReplacementSystem, base: ColoredGraph, cells, reason: str):
    """Raise NotACell(reason), or KeyError first if some cell is outside the language."""
    for w in cells:
        system.walk(w, base)
    raise NotACell(reason)


class GraphExpansion:
    """An antichain of words covering the whole symbol space, plus its leaf graph.

    ``base`` may differ from the system's base graph: generalized expansions
    over other base graphs are what the replacement groupoid acts on.

    An expansion is built by a walk, a merge or a split.  Built from cells,
    it is one depth-first walk of the forest (``walk_forest``) that visits
    each node once: it checks language, antichain and completeness and emits
    the cells already in depth-first order.  It keeps what the walk returns:
    the color and the vertices (integers) at both ends of every cell
    (``_leaves``) and interior word (``_inner``), the families (interior
    words whose rule children are all cells, ``_families``) and the next
    free vertex integer (``_next``).  A reduction makes its expansion by
    editing these (``_merged``), and a refinement (``expand``,
    ``full_expansion``, ``expansion_containing``) by splitting cells
    (``_split``), not by another walk: a loop-kind color labels only loops,
    so no rule copy identifies two ends and no edit changes an end.  The
    cells stay in depth-first order either way; ``_inner`` lists parents
    before children, in depth-first preorder only when walked, so what needs
    forest order reads ``cells``.
    Validation and reduction read the ends (``cell_ends``, ``root_degree``),
    and reduction reads the families; the named leaf graph is built on first
    access.
    """

    def __init__(self, system: ReplacementSystem, cells: Iterable[Word],
                 base: Optional[ColoredGraph] = None):
        self.system = system
        self.base = base if base is not None else system.base
        self._leaves, self._inner, self._families, self._next = walk_forest(
            system, self.base, [tuple(c) for c in cells])
        self.cells = tuple(self._leaves)

    def _edited(self, leaves: dict, inner: dict, families: list, size: int) -> "GraphExpansion":
        """An expansion over this one's system and base holding the given records."""
        out = object.__new__(GraphExpansion)
        out.system, out.base, out._next = self.system, self.base, size
        out._leaves, out._inner, out._families = leaves, inner, families
        out.cells = tuple(leaves)
        return out

    @cached_property
    def leaf_graph(self) -> ColoredGraph:
        # a vertex is named after its first endpoint in cell order, s before t
        names: dict = {}
        edges = []
        for w in self._leaves:
            color, s, t = self.cell_ends(w)
            label = " ".join(w)
            edges.append(Edge(label, color, names.setdefault(s, f"{label}/s"),
                              names.setdefault(t, f"{label}/t")))
        return ColoredGraph(names.values(), edges)

    # -- structure ---------------------------------------------------------

    def cell_color(self, word: Word) -> str:
        """The color of a word of the forest: a cell or an interior word."""
        return (self._leaves.get(word) or self._inner[word])[0]

    def cell_ends(self, word: Word) -> tuple:
        """(color, s, t) of a cell; s and t are vertices, equal integers one leaf-graph vertex."""
        return self._leaves[word]

    @cached_property
    def _root_degrees(self) -> Counter:
        deg = Counter(s for _, s, _ in self._leaves.values())
        deg.update(t for _, _, t in self._leaves.values())
        return deg

    def root_degree(self, root: int) -> int:
        """Degree of the leaf-graph vertex with this integer, counted on first use."""
        return self._root_degrees[root]

    def cell_edge(self, word: Word) -> Edge:
        """The cell's edge of the named leaf graph."""
        return self.leaf_graph.edge(" ".join(word))

    # -- rewriting -----------------------------------------------------------

    def expand(self, word: Word) -> "GraphExpansion":
        """This expansion with the cell ``word`` split into its rule children
        (``_split``); NotACell if ``word`` is not a cell."""
        return self._split([tuple(word)])

    def _split(self, cells: Iterable[Word]) -> "GraphExpansion":
        """This expansion with each given cell split into its rule children.

        The dual of ``_merged``, an edit of what the walk recorded: each cell
        gives way, at its own place in depth-first cell order, to its
        children, whose ends come from the rule (``Rule.split_pattern``), as
        in the walk; the new vertices get integers from ``_next`` on, in cell
        order.  Each split cell joins the interior words and the families,
        and its parent leaves the families.  Raises NotACell for a word that
        is not a cell.
        """
        leaves, split = self._leaves, set(cells)
        if not split <= leaves.keys():
            w = next(w for w in split if w not in leaves)
            raise NotACell(f"{w} is not a cell of this expansion")
        rules = self.system.rules
        out, inner, n, kids = {}, dict(self._inner), self._next, []
        # unless every cell splits, a cell of a length no split cell has is
        # kept without hashing it
        lengths = None if len(split) == len(leaves) else {len(w) for w in split}
        for w, ends in leaves.items():
            if lengths is not None and (len(w) not in lengths or w not in split):
                out[w] = ends
                continue
            color, s, t = ends
            fresh, edges = rules[color].split_pattern
            sub = (s, t, *range(n, n + fresh))
            n += fresh
            inner[w] = ends
            kids.append(w)
            for suffix, c, a, b in edges:
                out[w + suffix] = (c, sub[a], sub[b])
        parents = {w[:-1] for w in kids}
        families = [u for u in self._families if u not in parents] + kids
        return self._edited(out, inner, families, n)

    def reduce(self, family: Iterable[Word]) -> "GraphExpansion":
        return self._merged([self.check_reducible(family)])

    def _merged(self, parents: list) -> "GraphExpansion":
        """This expansion with the family of each parent merged into its parent.

        Each family must have passed ``check_reducible``, and the walk that
        built this expansion checked the rest, so the result is an edit of
        what the walk recorded: each family's cells give way to their parent
        at the first child's place (depth-first order is kept), the parent
        leaves the interior words, and its own parent becomes a family once
        all its children are cells.  The vertex integers keep their values:
        no rule copy glues two ends, so a merged parent's ends are as walked.
        """
        inner, rules = self._inner, self.system.rules
        edit = {}  # each merged cell -> its parent if it is the first child, else None
        for p in parents:
            kids = [p + (e.name,) for e in rules[inner[p][0]].graph.edges]
            edit.update(dict.fromkeys(kids))
            edit[kids[0]] = p
        leaves = {}
        for w, ends in self._leaves.items():
            p = edit.get(w, w)
            if p is w:
                leaves[w] = ends
            elif p is not None:
                leaves[p] = inner[p]
        inner = dict(inner)
        for p in parents:
            del inner[p]
        families = [u for u in self._families if u not in leaves]
        for u in dict.fromkeys(p[:-1] for p in parents):
            if u and all(u + (e,) in leaves for e in rules[inner[u][0]].letters):
                families.append(u)
        return self._edited(leaves, inner, families, self._next)

    def check_reducible(self, family: Iterable[Word]) -> Word:
        """The parent of ``family`` if ``reduce`` may merge it; raise NotReducible if not.

        Four checks: the members are siblings, all cells, the full set of
        their parent's rule children, and no interior vertex of the rule copy
        carries an edge from outside the family.  The last two read
        ``Rule.letters`` and ``Rule.end_degrees``, computed once per rule,
        and ``root_degree``.
        """
        family = {tuple(w) for w in family}
        if not family or any(len(w) < 2 for w in family):
            raise NotReducible("family must consist of words of length >= 2")
        parents = {w[:-1] for w in family}
        if len(parents) != 1:
            raise NotReducible("family members are not siblings")
        parent = parents.pop()
        leaves = self._leaves
        if not family <= leaves.keys():
            raise NotReducible("family members are not all cells")
        rule = self.system.rules[self._inner[parent][0]]
        if {w[-1] for w in family} != rule.letters:
            raise NotReducible("family is not the full set of children")
        need, degree = rule.end_degrees, self.root_degree
        for w in family:
            _, s, t = leaves[w]
            ds, dt = need[w[-1]]
            if ds is not None and degree(s) != ds:
                raise NotReducible(f"vertex {' '.join(w)}/s has outside incidences")
            if dt is not None and degree(t) != dt:
                raise NotReducible(f"vertex {' '.join(w)}/t has outside incidences")
        return parent

    def reducible_families(self) -> list:
        """The families ``reduce`` may merge, each sorted, in order of their parents."""
        out = []
        for p in sorted(self._families):
            kids = [p + (e,) for e in self.system.rules[self._inner[p][0]].letters]
            try:
                self.check_reducible(kids)
            except NotReducible:
                continue
            out.append(tuple(sorted(kids)))
        return out

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GraphExpansion)
            and self.system is other.system
            and self.base == other.base
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((id(self.system), self.base.encoding(), self.cells))

    def __repr__(self):
        return f"GraphExpansion({[' '.join(w) for w in self.cells]})"


def base_expansion(system: ReplacementSystem, base: Optional[ColoredGraph] = None) -> GraphExpansion:
    b = base if base is not None else system.base
    return GraphExpansion(system, [(e.name,) for e in b.edges], b)


def full_expansion(system: ReplacementSystem, depth: int) -> GraphExpansion:
    """E_depth: every edge expanded at every step; cells have length depth+1.

    The base expansion is split ``depth`` times, every cell at once
    (``GraphExpansion._split``): no word list and no walk beyond the base's.
    """
    exp = base_expansion(system)
    for _ in range(depth):
        exp = exp._split(exp.cells)
    return exp


def minimal_refinement(e1: GraphExpansion, e2: GraphExpansion) -> GraphExpansion:
    """The coarsest common refinement of two expansions over one system and base."""
    if e1.system is not e2.system or e1.base != e2.base:
        raise ValueError("expansions live over different systems or bases")
    return expansion_containing(e1.system, e1.cells + e2.cells, e1.base)


def expansion_containing(system: ReplacementSystem, words: Iterable[Word],
                         base: Optional[ColoredGraph] = None) -> GraphExpansion:
    """The coarsest expansion in which every given word is a union of cells.

    The strict prefixes of the words are its interior words.  They are split
    one level at a time, one ``GraphExpansion._split`` per level: the
    prefixes of length k are cells once those of length k - 1 are split.
    Raises KeyError for a word outside the language.
    """
    exp = base_expansion(system, base)
    words = {tuple(w) for w in words}
    for w in words:
        system.walk(w, exp.base)
    for k in range(1, max(map(len, words), default=0)):
        exp = exp._split({w[:k] for w in words if len(w) > k})
    return exp


def system_to_json(system: ReplacementSystem) -> dict:
    from .graphs import graph_to_json

    report = system.validate()
    rules = {}
    for c in system.colors:
        rule = system.rules[c]
        entry = graph_to_json(rule.graph)
        if rule.kind == "pair":
            entry["boundary"] = {"kind": "pair", "iota": rule.iota, "tau": rule.tau}
        else:
            entry["boundary"] = {"kind": "loop", "lambda": rule.iota}
        rules[c] = entry
    return {
        "colors": [
            {
                "name": c,
                "boundary": system.rules[c].kind,
                "undirected": c in report.undirected_colors,
            }
            for c in system.colors
        ],
        "base": graph_to_json(system.base),
        "rules": rules,
    }


def system_from_json(data: dict) -> ReplacementSystem:
    from .graphs import graph_from_json

    colors = [c["name"] for c in data["colors"]]
    base = graph_from_json(data["base"])
    rules = {}
    for c in colors:
        entry = data["rules"][c]
        g = graph_from_json(entry)
        b = entry["boundary"]
        if b["kind"] == "pair":
            rules[c] = Rule(g, ("pair", b["iota"], b["tau"]))
        else:
            rules[c] = Rule(g, ("loop", b["lambda"]))
    return ReplacementSystem(colors, base, rules)
