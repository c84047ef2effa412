"""Group elements as graph pair diagrams: reduction, composition, action.

A rearrangement is stored as a pair of graph expansions with a cell bijection
that is an isomorphism of the leaf graphs.  Orientation reversal of a cell of
an undirected color is recorded in a flip set; a flipped pair abbreviates its
one-level expansion through the fixed orientation-reversing automorphism psi
of that color.  Reduction to the unique reduced diagram gives the canonical
representative used for equality and hashing.

The same diagrams, taken over base graphs other than the system's own,
form the replacement groupoid; composition below is implemented at that
generality so the conjugacy machinery can reuse it.  Every composition
(``product``, and ``compose`` and ``conjugate_by`` through it) multiplies
the factors as prefix exchanges on words and builds, validates and reduces
one diagram at the end; ``power`` squares through ``product``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional

from .graphs import ColoredGraph
from .replacement import (
    GraphExpansion,
    NotReducible,
    RationalSequence,
    ReplacementSystem,
    base_expansion,
)

Word = tuple


class SystemMismatch(ValueError):
    pass


class NotAnIsomorphism(ValueError):
    pass


class TypeMismatch(ValueError):
    pass


class BadFlip(ValueError):
    pass


def _parse_cell(name: str) -> Word:
    return tuple(name.split(" "))


class Rearrangement:
    """A (generalized) rearrangement: reduced graph pair diagram.

    Construction validates the diagram and stores the reduced form.  Elements
    with ``domain.base == range_.base == system.base`` are group elements;
    others are groupoid elements used internally by the conjugacy machinery.
    """

    def __init__(self, domain: GraphExpansion, phi: dict, range_: GraphExpansion,
                 flips: Iterable[Word] = (), _reduced: bool = False):
        if domain.system is not range_.system:
            raise SystemMismatch("domain and range use different systems")
        self.system: ReplacementSystem = domain.system
        self.domain = domain
        self.range_ = range_
        self.phi = {tuple(k): tuple(v) for k, v in phi.items()}
        self.flips = frozenset(tuple(w) for w in flips)
        self._validate()
        if not _reduced:
            d = _reduce(self)
            self.domain, self.range_, self.phi, self.flips = d

    # -- validation ---------------------------------------------------------

    def _validate(self):
        dcells, rcells = set(self.domain.cells), set(self.range_.cells)
        if set(self.phi) != dcells or set(self.phi.values()) != rcells or len(self.phi) != len(dcells):
            raise NotAnIsomorphism("phi is not a bijection between the cell sets")
        undirected = self.system.validate().undirected_colors
        # vertices are the integers at the cells' ends (``cell_ends``)
        vmap: dict = {}

        def bind(a, b, w, end):
            if vmap.setdefault(a, b) != b:
                raise NotAnIsomorphism(f"inconsistent vertex image for vertex {' '.join(w)}/{end}")

        dom, ran = self.domain._leaves, self.range_._leaves
        for w, v in self.phi.items():
            color, s, t = dom[w]
            rcolor, rs, rt = ran[v]
            if color != rcolor or (s == t) != (rs == rt):
                raise TypeMismatch(f"cells {w} and {v} have different types")
            if w in self.flips:
                if color not in undirected:
                    raise BadFlip(f"flip on directed color {color!r}")
                rs, rt = rt, rs
            bind(s, rs, w, "s")
            bind(t, rt, w, "t")
        if len(set(vmap.values())) != len(vmap):
            raise NotAnIsomorphism("vertex map is not injective")

    # -- basic properties ---------------------------------------------------

    def encoding(self) -> tuple:
        return (
            self.domain.base.encoding(),
            self.range_.base.encoding(),
            tuple(sorted((w, self.phi[w], w in self.flips) for w in self.phi)),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Rearrangement)
            and self.system is other.system
            and self.encoding() == other.encoding()
        )

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        pairs = ", ".join(
            f"{' '.join(w)}->{' '.join(self.phi[w])}{'~' if w in self.flips else ''}"
            for w in self.domain.cells
        )
        return f"Rearrangement({pairs})"

    def is_identity(self) -> bool:
        return (
            self.domain.base == self.range_.base
            and all(self.phi[w] == w for w in self.phi)
            and not self.flips
        )

    # -- structural operations ------------------------------------------------

    def psi(self, color: str):
        iso = self.system.reversing_automorphism(color)
        if iso is None:
            raise BadFlip(f"no reversing automorphism for color {color!r}")
        return iso

    def expand_at(self, w: Word) -> "Rearrangement":
        """The one-level expansion of the diagram at a domain cell (``_refined``)."""
        return self._refined([tuple(w)])

    def flipless(self) -> "Rearrangement":
        """Equivalent diagram with every flip expanded away: every flipped
        pair is split one level through psi at once (``_refined``)."""
        return self._refined(self.flips)

    def _refined(self, cells: Iterable[Word]) -> "Rearrangement":
        """The diagram with the given domain cells and their images split one level.

        The cell map is ``_split_map``'s, and the domain and range are edits
        of this diagram's (``GraphExpansion._split``), not new walks.  The
        diagram itself is returned when no cell is given.
        """
        cells = set(cells)
        if not cells:
            return self
        return Rearrangement(self.domain._split(cells), _split_map(self, cells),
                             self.range_._split({self.phi[w] for w in cells}),
                             self.flips - cells, _reduced=True)

    def expand_domain_to(self, cells: Iterable[Word]) -> "Rearrangement":
        """The diagram with its domain split down to the given cells.

        A domain cell is split into its rule children when it is not itself a
        target cell but lies strictly above one; its children are split the
        same way.  A flipped cell is split through psi and its children are
        unflipped; below an unflipped pair (w, v) every leaf w+r pairs with
        v+r.  Each level of the splitting is one ``_refined`` edit.
        """
        return self._expand_to(cells, on_domain=True)

    def expand_range_to(self, cells: Iterable[Word]) -> "Rearrangement":
        """The diagram with its range split down to the given cells.

        The mirror image of ``expand_domain_to``, at the same cost.
        """
        return self._expand_to(cells, on_domain=False)

    def _expand_to(self, cells: Iterable[Word], on_domain: bool) -> "Rearrangement":
        target = {tuple(c) for c in cells}
        # strict prefixes of target cells; the set stays prefix-closed, so the
        # walk up from each target stops at the first prefix already in it
        above: set = set()
        for t in target:
            for k in range(len(t) - 1, 0, -1):
                if t[:k] in above:
                    break
                above.add(t[:k])
        above -= target
        out = self
        while True:
            split = [w for w, v in out.phi.items() if (w if on_domain else v) in above]
            if not split:
                return out
            out = out._refined(split)

    # -- action on words and sequences ---------------------------------------

    def domain_cell_covering(self, word: Word) -> Word:
        """The domain cell that is a prefix of ``word``; ValueError if there is none."""
        word = tuple(word)
        leaves, inner = self.domain._leaves, self.domain._inner
        for k in range(1, len(word) + 1):
            if word[:k] in leaves:
                return word[:k]
            if word[:k] not in inner:
                break
        raise ValueError(f"{word} does not extend a domain cell")

    def apply_word(self, word: Word) -> Word:
        word = tuple(word)
        w = self.domain_cell_covering(word)
        v = self.phi[w]
        rest = word[len(w):]
        if w in self.flips and rest:
            psi = self.psi(self.domain.cell_color(w)).edge_map
            rest = (psi[rest[0]],) + rest[1:]
        return v + rest

    def apply_rational(self, s: RationalSequence) -> RationalSequence:
        d = self.domain_cell_covering(s.prefix_of_length(max(map(len, self.domain.cells))))
        k = len(d)
        v = self.phi[d]
        head = list(v)
        if d in self.flips:
            psi = self.psi(self.domain.cell_color(d)).edge_map
            head.append(psi[s.letter(k)])
            k += 1
        # tail of s from position k onward
        if k < len(s.prefix):
            return RationalSequence.make(tuple(head) + s.prefix[k:], s.period)
        j = (k - len(s.prefix)) % len(s.period)
        period = s.period[j:] + s.period[:j]
        return RationalSequence.make(tuple(head), period)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": [list(w) for w in self.domain.cells],
            "range": [list(self.phi[w]) for w in self.domain.cells],
            "phi": [
                [list(w), list(self.phi[w])] + ([True] if w in self.flips else [])
                for w in self.domain.cells
            ],
        }


def _split_map(g: Rearrangement, cells) -> dict:
    """g's cell map with each pair w -> v, w in ``cells``, split one level.

    The children are w+e -> v+e, or v+psi(e) for a flipped pair, for e over
    the rule edges of w's color, in w's place, and they are unflipped.  The
    cell map itself is returned when no cell is given.
    """
    if not cells:
        return g.phi
    rules = g.system.rules
    phi = {}
    for w, v in g.phi.items():
        if w not in cells:
            phi[w] = v
            continue
        color = g.domain.cell_color(w)
        psi = g.psi(color).edge_map if w in g.flips else None
        for e in rules[color].graph.edges:
            phi[w + (e.name,)] = v + (e.name if psi is None else psi[e.name],)
    return phi


def _then(first: dict, second: dict) -> dict:
    """The prefix-replacement map "first, then second", on the common refinement.

    Both maps send cells (words) to cells, and first's range cells and
    second's domain cells are complete antichains over one base.  For each
    cell u -> a of first, one of two cases holds: a prefix d of a is a cell of
    second, and u -> second(d) + rest; or a splits into second's cells a+r
    below it, and u+r -> second(a+r).  In the sorted cells of second, the one
    that is a prefix of a is the last one not after a, and the ones below a
    follow it, so one bisection finds either.
    """
    keys = sorted(second)
    out = {}
    for u, a in first.items():
        i = bisect_right(keys, a)
        if i and a[:len(keys[i - 1])] == keys[i - 1]:
            d = keys[i - 1]
            out[u] = second[d] + a[len(d):]
            continue
        n = len(a)
        while i < len(keys) and keys[i][:n] == a:
            c = keys[i]
            out[u + c[n:]] = second[c]
            i += 1
    return out


def _product_map(factors: list) -> tuple:
    """(phi, domain base, range base) of the unreduced product of ``factors``.

    The leftmost factor is applied first.  Every junction is checked: the
    factors live over one system, and each factor's domain base is the range
    base of the one before it.
    """
    first = prev = factors[0]
    phi = _split_map(first, first.flips)
    for g in factors[1:]:
        if g.system is not prev.system:
            raise SystemMismatch("elements live over different systems")
        if g.domain.base != prev.range_.base:
            raise SystemMismatch("inner base graphs do not match")
        phi = _then(phi, _split_map(g, g.flips))
        prev = g
    return phi, first.domain.base, prev.range_.base


def rearrangement_from_json(system: ReplacementSystem, data: dict) -> Rearrangement:
    entries = data["phi"]
    return from_cell_map(system, (e[:2] for e in entries),
                         [e[0] for e in entries if len(e) > 2 and e[2]])


# -- reduction -----------------------------------------------------------------


def _reduce(g: Rearrangement, allow_flips: bool = True, rng=None) -> tuple:
    """Apply reductions until none is possible; returns the reduced pieces.

    Reduction runs in rounds: one scan collects every family that is
    reducible now, and all of them are merged at once, as edits of the
    domain and range (``GraphExpansion._merged``), not new walks.  The
    candidates are the domain's families (``GraphExpansion._families``), in
    sorted order; those with a flipped child are skipped.  The families of a
    round have distinct parents, and so do their images; an interior vertex
    that passes the degree check carries no edge of another family, so the
    round gives what merging its families one at a time in any order gives.
    Reduced diagrams are unique, so the result does not depend on the
    candidate order; ``rng`` shuffles it for the order-independence property
    tests.
    """
    domain, range_, phi, flips = g.domain, g.range_, dict(g.phi), set(g.flips)
    system = g.system
    while True:
        moves = []
        order = sorted(domain._families)
        if rng is not None:
            rng.shuffle(order)
        for u in order:
            rule_color = domain._inner[u][0]
            letters = system.rules[rule_color].letters
            kids = [u + (e,) for e in letters]
            if flips and not flips.isdisjoint(kids):
                continue
            images = [phi[w] for w in kids]
            vp = images[0][:-1]
            if not vp or any(v[:-1] != vp for v in images):
                continue
            flip = None
            if all(v[-1] == e for e, v in zip(letters, images)):
                flip = False
            elif allow_flips and rule_color in system.validate().undirected_colors:
                psi = system.reversing_automorphism(rule_color)
                if psi is not None and all(v[-1] == psi.edge_map[e] for e, v in zip(letters, images)):
                    flip = True
            if flip is None:
                continue
            try:
                domain.check_reducible(kids)
                range_.check_reducible(images)
            except NotReducible:
                continue
            moves.append((u, vp, kids, flip))
        if not moves:
            return domain, range_, phi, frozenset(flips)
        for u, vp, kids, flip in moves:
            for w in kids:
                del phi[w]
            phi[u] = vp
            if flip:
                flips.add(u)
        domain = domain._merged([m[0] for m in moves])
        range_ = range_._merged([m[1] for m in moves])


def reduced_flipless(g: Rearrangement) -> Rearrangement:
    h = g.flipless()
    domain, range_, phi, flips = _reduce(h, allow_flips=False)
    if flips:
        raise RuntimeError("a reduction without flips left a flip")
    return Rearrangement(domain, phi, range_, (), _reduced=True)


def reduce_with_order(g: Rearrangement, rng) -> Rearrangement:
    """Reduce with a randomized candidate order (for confluence testing).

    The order-independence tests reach ``_reduce(rng=)`` through it.
    """
    domain, range_, phi, flips = _reduce(g, rng=rng)
    return Rearrangement(domain, phi, range_, flips, _reduced=True)


# -- group and groupoid operations ----------------------------------------------


def identity(system: ReplacementSystem, base: Optional[ColoredGraph] = None) -> Rearrangement:
    exp = base_expansion(system, base)
    return Rearrangement(exp, {w: w for w in exp.cells}, exp)


def compose(g: Rearrangement, h: Rearrangement) -> Rearrangement:
    """The composite ``g after h`` (apply h first): ``product([h, g])``."""
    return product([h, g])


def invert(g: Rearrangement) -> Rearrangement:
    # flipped pairs invert through psi inverse; split those whose psi is not an involution
    def involution(w):
        em = g.psi(g.domain.cell_color(w)).edge_map
        return all(em[em[e]] == e for e in em)

    gf = g._refined([w for w in g.flips if not involution(w)])
    phi = {}
    flips = []
    for w, v in gf.phi.items():
        phi[v] = w
        if w in gf.flips:
            flips.append(v)
    return Rearrangement(gf.range_, phi, gf.domain, flips)


def power(g: Rearrangement, n: int) -> Rearrangement:
    """g^n (of g^-1 for negative n) by repeated squaring, each step a reduced ``product``."""
    if n < 0:
        return power(invert(g), -n)
    if n == 0:
        return identity(g.system, g.domain.base)
    if n == 1:
        return g
    half = power(g, n // 2)
    return product([half, half] + [g] * (n % 2))


def conjugate_by(g: Rearrangement, k: Rearrangement) -> Rearrangement:
    """k^-1 g k (apply k first): ``product([k, g, invert(k)])``."""
    return product([k, g, invert(k)])


def product(factors) -> Rearrangement:
    """Group word read left to right, leftmost factor applied first.

    The factors are multiplied as prefix exchanges on words: each is made
    flipless at word level (``_split_map``), the cell maps are folded
    into one map on their iterated common refinement (``_then``), the
    domain and range are built once from its cells, and ``Rearrangement``
    validates and reduces the result once.  No partial product is built,
    validated or reduced.

    Why one reduction is enough: reduced diagrams are unique, so reducing
    the unreduced diagram of the whole product gives the same reduced
    element as reducing after every binary step.

    Size bound: a common refinement of two complete antichains A and B has
    at most |A| + |B| leaves (each leaf is a cell of A or of B), so the
    unreduced map has at most the sum, over the factors, of the cells of
    their flipless cell maps.

    Groupoid elements multiply too; the factors must live over one system
    and each factor's domain base must be the previous factor's range base
    (``SystemMismatch`` otherwise).  A single factor is returned as it is.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    if len(factors) == 1:
        return factors[0]
    phi, dbase, rbase = _product_map(factors)
    return from_cell_map(factors[0].system, phi.items(), dbase=dbase, rbase=rbase)


def commutator(a: Rearrangement, b: Rearrangement) -> Rearrangement:
    """[a, b] = a^-1 b^-1 a b, read with the leftmost factor applied first."""
    return product([invert(a), invert(b), a, b])


def from_cell_map(system: ReplacementSystem, pairs, flips=(),
                  dbase: Optional[ColoredGraph] = None,
                  rbase: Optional[ColoredGraph] = None) -> Rearrangement:
    """Build an element from (domain word, range word) pairs.

    Domain words are read over ``dbase`` and range words over ``rbase``, each
    the system's base graph unless given; other bases give groupoid elements.
    """
    phi = {tuple(a): tuple(b) for a, b in pairs}
    return Rearrangement(GraphExpansion(system, phi, dbase), phi,
                         GraphExpansion(system, phi.values(), rbase), flips)


# -- random elements --------------------------------------------------------------


def random_rearrangement(system: ReplacementSystem, rng, expansions: int = 3,
                         factors: int = 2) -> Rearrangement:
    """Seeded random element: product of random elementary diagrams.

    An elementary diagram picks random domain and range expansions with
    matching color sequences and a random leaf-graph isomorphism between
    them (orientation flips allowed on undirected colors).
    """
    elementary = [_random_elementary(system, rng, expansions) for _ in range(factors)]
    # the last one drawn is applied first
    return product(elementary[::-1]) if elementary else identity(system)


def _random_elementary(system: ReplacementSystem, rng, expansions: int) -> Rearrangement:
    from .graphs import isomorphisms

    undirected = frozenset(system.validate().undirected_colors)
    for _attempt in range(12):
        k = rng.randint(0, expansions)
        dom = base_expansion(system)
        colors = []
        for _ in range(k):
            w = rng.choice(dom.cells)
            colors.append(dom.cell_color(w))
            dom = dom.expand(w)
        ran = base_expansion(system)
        ok = True
        for c in colors:
            options = [w for w in ran.cells if ran.cell_color(w) == c]
            if not options:
                ok = False
                break
            ran = ran.expand(rng.choice(options))
        if not ok:
            continue
        isos = isomorphisms(dom.leaf_graph, ran.leaf_graph, flip_colors=undirected, limit=24)
        if not isos:
            continue
        iso = rng.choice(isos)
        phi = {_parse_cell(a): _parse_cell(b) for a, b in iso.edge_map.items()}
        flips = [_parse_cell(a) for a in iso.flipped]
        try:
            return Rearrangement(dom, phi, ran, flips)
        except (NotAnIsomorphism, TypeMismatch, BadFlip):
            continue
    return identity(system)
