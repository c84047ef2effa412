"""Constructive dynamics of rearrangements and dendrite-group invariants.

The forest difference of a pair diagram (carets in the domain forest missing
from the range forest and vice versa) drives everything here: minimizing it
by iterated expansions decides torsion, and for non-torsion elements exhibits
a cell whose interior is disjoint from all its forward images.  The dendrite
systems additionally carry a parity map and an endpoint derivative whose
product is a homomorphism onto Z_2 + Z with the commutator subgroup as kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rearrangement import Rearrangement, from_cell_map, reduced_flipless
from .replacement import ReplacementSystem

Word = tuple


class IsTorsion(ValueError):
    pass


class NotDendriteSystem(ValueError):
    pass


class BadParams(ValueError):
    pass


# -- imbalance and components -------------------------------------------------------


@dataclass(frozen=True)
class ImbalanceProfile:
    domain: int
    range: int
    domain_components: tuple  # tuples of caret words, rooted
    range_components: tuple

    def as_tuple(self):
        """The measure ``minimize_representative`` decreases, lexicographically."""
        return (self.domain, len(self.domain_components), len(self.range_components))


def _components_of(carets: set) -> tuple:
    """Cluster a caret set into the maximal trees it forms.

    Carets are met in order of length, so a caret's parent is met first: the
    caret's root is its parent's root if the parent is a caret, else itself.
    """
    roots: dict = {}
    comps: dict = {}
    for w in sorted(carets, key=len):
        root = roots[w] = roots.get(w[:-1], w)
        comps.setdefault(root, []).append(w)
    return tuple(sorted(tuple(sorted(comp)) for comp in comps.values()))


def imbalance(g: Rearrangement, representative: Rearrangement = None) -> ImbalanceProfile:
    """Caret difference of the two forests of a (default: canonical) diagram."""
    d = representative if representative is not None else reduced_flipless(g)
    fd, fr = d.domain._inner.keys(), d.range_._inner.keys()
    dm = fd - fr
    rm = fr - fd
    return ImbalanceProfile(len(dm), len(rm), _components_of(dm), _components_of(rm))


# -- minimization -----------------------------------------------------------------


def _expandable_chains(d: Rearrangement):
    """Chains u1..un of domain cells with u_{i+1} = phi(u_i), all distinct.

    Yields (chain, n, phi(u_n)): the chains from one u1 share one list,
    which only grows, so ``chain[:n]`` is the chain yielded, then and later.
    """
    cells = set(d.domain.cells)
    for u in sorted(cells):
        chain = [u]
        seen = {u}
        while True:
            nxt = d.phi[chain[-1]]
            if nxt in seen:
                break
            yield chain, len(chain), nxt
            if nxt not in cells:
                break
            chain.append(nxt)
            seen.add(nxt)


def minimize_representative(g: Rearrangement) -> Rearrangement:
    """Drive the diagram to a fixed point of the three forbidden patterns.

    Each applied iterated expansion strictly decreases the lexicographic
    profile (domain imbalance, #components of F_D - F_R, #components of
    F_R - F_D), so this terminates; the result supports the wandering-cell
    construction for non-torsion elements.
    """
    d = reduced_flipless(g)
    while True:
        prof = imbalance(d, d)
        move = _find_move(d, prof)
        if move is None:
            return d
        d = move


def _caret_subtree(carets_all: set, root: Word) -> set:
    return {w for w in carets_all if w[: len(root)] == root}


def _find_move(d: Rearrangement, prof: ImbalanceProfile):
    fd, fr = d.domain._inner.keys(), d.range_._inner.keys()
    dm = fd - fr
    rm = fr - fd
    dcells = set(d.domain.cells)
    rcells = set(d.range_.cells)
    moves = []
    for chain, n, end in _expandable_chains(d):
        u1 = chain[0]
        # u1 is a domain cell by construction; end = phi(last)
        u1_interior_r = u1 in fr
        end_interior_d = end in fd
        if u1_interior_r and end_interior_d:
            sub = _caret_subtree(dm, end)
            if sub:
                moves.append((1, n, chain, end, sub, "d"))
                continue
        if (u1 not in fr and u1 not in rcells) and end_interior_d:
            comp_end = _component_containing(prof.domain_components, end)
            comp_u1 = _component_containing(prof.domain_components, u1)
            if comp_end is not None and comp_end != comp_u1:
                sub = _caret_subtree(dm, end)
                if sub:
                    moves.append((2, n, chain, end, sub, "d"))
                    continue
        if (end not in fd and end not in dcells) and u1_interior_r:
            comp_u1 = _component_containing(prof.range_components, u1)
            comp_end = _component_containing(prof.range_components, end)
            if comp_u1 is not None and comp_u1 != comp_end:
                sub = _caret_subtree(rm, u1)
                if sub:
                    moves.append((3, n, chain, u1, sub, "r"))
    if not moves:
        return None
    moves.sort(key=lambda m: (m[0], m[1]))
    # a kept chain is a prefix of a list that only grew after it was kept
    _kind, n, chain, root, sub, _side = moves[0]
    # copy the carets below root under each chain cell, one ``_refined`` per level
    out = d
    rel = {w[len(root):] for w in sub}
    for k in sorted({len(r) for r in rel}):
        out = out._refined([u + r for u in chain[:n] for r in rel if len(r) == k])
    return out


def _component_containing(components, word):
    for comp in components:
        for caret in comp:
            if word[: len(caret)] == caret or caret[: len(word)] == word:
                return comp
    return None


# -- torsion and wandering cells ---------------------------------------------------


def _permutation_order(perm: dict) -> int:
    import math

    seen = set()
    order = 1
    for start in perm:
        if start in seen:
            continue
        n = 0
        x = start
        while True:
            x = perm[x]
            n += 1
            seen.add(x)
            if x == start:
                break
        order = order * n // math.gcd(order, n)
    return order


def is_torsion(g: Rearrangement):
    """(True, order) for torsion elements, else (False, None).

    The minimized representative has equal forests exactly for torsion
    elements.  It is flipless (``reduced_flipless`` is, and a refinement
    keeps it so), so the order is then the order of its cell permutation.
    """
    d = minimize_representative(g)
    if set(d.domain.cells) == set(d.range_.cells):
        return True, _permutation_order(d.phi)
    return False, None


def wandering_cell(g: Rearrangement) -> Word:
    """A word whose cell interior is disjoint from its nontrivial power-images.

    Following the minimized diagram: some domain cell e is expanded in the
    range, its sigma-orbit returns inside e, and any other child of e in the
    range is then wandering.
    """
    d = minimize_representative(g)
    if set(d.domain.cells) == set(d.range_.cells):
        raise IsTorsion("torsion elements have no wandering cell")
    rcells = set(d.range_.cells)
    dcells = set(d.domain.cells)
    for e in sorted(dcells):
        if e not in d.range_._inner:
            continue
        # follow the orbit of e until it lands below e
        x = e
        for _ in range(len(dcells) + 1):
            x = d.phi[x] if x in d.phi else None
            if x is None:
                break
            if len(x) > len(e) and x[: len(e)] == e:
                e_star = x
                kids = sorted(w for w in rcells if len(w) > len(e) and w[: len(e)] == e
                              and w != e_star)
                if kids:
                    return kids[0]
                break
            if x not in dcells:
                break
    raise AssertionError("no wandering cell found on a non-torsion element")


def wandering_certificate(g: Rearrangement, word: Word, powers: int = 8) -> bool:
    """Symbolic check: no g^n-image of the word is prefix-comparable with it."""
    w = tuple(word)
    x = w
    for _n in range(1, powers + 1):
        x = g.apply_word(x)
        shorter = min(len(x), len(w))
        if x[:shorter] == w[:shorter]:
            return False
    return True


# -- dendrite invariants ------------------------------------------------------------


def _dendrite_order(system: ReplacementSystem) -> int:
    """The branching order n of a dendrite-style system, or raise."""
    if len(system.colors) != 1:
        raise NotDendriteSystem("dendrite systems are monochromatic")
    c = system.colors[0]
    rule = system.rules[c]
    g = rule.graph
    n = len(g.edges)
    if n < 3 or len(g.vertices) != n + 1:
        raise NotDendriteSystem("replacement graph is not a star")
    centers = [v for v in g.vertices if g.degree(v) == n]
    if len(centers) != 1 or any(e.src != centers[0] for e in g.edges):
        raise NotDendriteSystem("replacement graph is not an outward star")
    return n


def _branch_index(system, expansion, vertex) -> dict:
    """Map each incident cell of a degree-n vertex to its branch index."""
    inc = [e for e in expansion.leaf_graph.edges if vertex in (e.src, e.dst)]
    words = [tuple(e.name.split(" ")) for e in inc]
    # all incident words are x i 1^k for a common x, so x is their LCP
    prefix_len = 0
    while all(len(w) > prefix_len for w in words) and len(
        {w[prefix_len] for w in words}
    ) == 1:
        prefix_len += 1
    out = {}
    for w in words:
        if len(w) <= prefix_len:
            raise ValueError("incident word too short for a branch index")
        out[w] = int(w[prefix_len])
    return out


def _perm_sign(perm: dict) -> int:
    seen = set()
    sign = 0
    for s in perm:
        if s in seen:
            continue
        n = 0
        x = s
        while x not in seen:
            seen.add(x)
            x = perm[x]
            n += 1
        sign += n - 1
    return sign % 2


def dendrite_parity(g: Rearrangement) -> int:
    """Sum over branch points of the sign of the induced branch permutation."""
    n = _dendrite_order(g.system)
    d = reduced_flipless(g)
    total = 0
    LG_D = d.domain.leaf_graph
    vmap = {}
    for w, v in d.phi.items():
        ed, er = d.domain.cell_edge(w), d.range_.cell_edge(v)
        vmap[ed.src] = er.src
        vmap[ed.dst] = er.dst
    for vertex in LG_D.vertices:
        if LG_D.degree(vertex) != n:
            continue
        bi_d = _branch_index(g.system, d.domain, vertex)
        bi_r = _branch_index(g.system, d.range_, vmap[vertex])
        # the words of bi_d are the domain cells at the vertex
        total += _perm_sign({i: bi_r[d.phi[w]] for w, i in bi_d.items()})
    return total % 2


def _trailing_n(system, word: Word, n: int) -> int:
    """Count of n's at the end, ignoring the first letter of an all-n word."""
    body = word[1:] if all(x == str(n) for x in word) else word
    count = 0
    for x in reversed(body):
        if x == str(n):
            count += 1
        else:
            break
    return count


def dendrite_derivative(g: Rearrangement) -> int:
    """Sum over rational endpoints in the diagram of the local log-derivative."""
    n = _dendrite_order(g.system)
    d = reduced_flipless(g)
    total = 0
    for vertex in d.domain.leaf_graph.vertices:
        if d.domain.leaf_graph.degree(vertex) != 1:
            continue
        edge = next(e for e in d.domain.leaf_graph.edges if vertex in (e.src, e.dst))
        w = tuple(edge.name.split(" "))
        v = d.phi[w]
        total += _trailing_n(g.system, w, n) - _trailing_n(g.system, v, n)
    return total


def dendrite_phi(g: Rearrangement) -> tuple:
    """The abelianization map: (parity, endpoint derivative)."""
    return (dendrite_parity(g), dendrite_derivative(g))


# -- dendrite generators --------------------------------------------------------------


def dendrite_generators(n: int) -> dict:
    """The elements g0, g1 and the transpositions tau_2..tau_n of the order-n group."""
    from .catalog import dendrite

    if n < 3:
        raise BadParams("dendrite order must be at least 3")
    system = dendrite(n)
    N = str(n)
    mids = [str(i) for i in range(2, n)]

    def tilde(i: str) -> str:
        return str(n + 1 - int(i))

    g0_pairs = []
    g0_pairs.append((("1", N), ("1",)))
    for i in mids:
        g0_pairs.append((("1", i), (tilde(i),)))
    g0_pairs.append((("1", "1", "1"), (N, "1", N)))
    for i in mids:
        g0_pairs.append((("1", "1", i), (N, "1", tilde(i))))
    g0_pairs.append((("1", "1", N), (N, "1", "1")))
    for i in mids:
        g0_pairs.append(((i,), (N, i)))
    g0_pairs.append(((N,), (N, N)))
    g0 = from_cell_map(system, g0_pairs)

    g1_pairs = []
    g1_pairs.append((("1",), ("1",)))
    for i in mids:
        g1_pairs.append(((i,), (i,)))
    g1_pairs.append(((N, "1", N), (N, "1")))
    for i in mids:
        g1_pairs.append(((N, "1", i), (N, tilde(i))))
    g1_pairs.append(((N, "1", "1", "1"), (N, N, "1", N)))
    for i in mids:
        g1_pairs.append(((N, "1", "1", i), (N, N, "1", tilde(i))))
    g1_pairs.append(((N, "1", "1", N), (N, N, "1", "1")))
    for i in mids:
        g1_pairs.append(((N, i), (N, N, i)))
    g1_pairs.append(((N, N), (N, N, N)))
    g1 = from_cell_map(system, g1_pairs)

    out = {"g0": g0, "g1": g1}
    for i in range(2, n + 1):
        pairs = []
        for j in range(1, n + 1):
            if j == 1:
                pairs.append((("1",), (str(i),)))
            elif j == i:
                pairs.append(((str(i),), ("1",)))
            else:
                pairs.append(((str(j),), (str(j),)))
        out[f"tau{i}"] = from_cell_map(system, pairs)
    return out
