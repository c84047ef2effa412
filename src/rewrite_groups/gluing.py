"""The gluing automaton: a finite-state recognizer for the gluing relation.

Two address sequences are glued exactly when their equal-length prefixes
always share a vertex.  The automaton tracks how the two current edges touch:
states q0(i) mean "still equal, inside color i"; states q1(i g; j d) record
the colors of the diverged edges and the adjacency type on each side, one of
in / out / lp / db+ / db- (the shared vertex is the edge's head, its tail,
its loop base, or the edges share both endpoints, parallel or antiparallel).
Loop-uniformity is arranged first by splitting colors, so every boundary is a
single vertex for loop colors and an (iota, tau) pair otherwise.  Splitting
only recolors: every letter keeps its name, so the automaton reads the
sequences of the system it was built from as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .replacement import (
    RationalSequence,
    ReplacementSystem,
    Rule,
    base_expansion,
    normalize_loops,
)

Word = tuple

IN, OUT, LP, DBP, DBM = "in", "out", "lp", "db+", "db-"


class NotExpanding(ValueError):
    pass


class NotInSymbolSpace(ValueError):
    pass


class FiniteBranchingUnknown(ValueError):
    pass


@dataclass(frozen=True)
class GluingAutomaton:
    """A compiled gluing automaton.

    ``transitions`` maps (state, (a, b)) to the next state.  ``index`` maps
    (state, a) to the list of (b, next state) in transition order: the
    partner letters one letter of the first sequence allows.  ``build``
    derives it once; it is not part of equality, repr or the emitters.
    ``system`` is ``original`` loop-normalized: the same letters, with the
    loop edges of a split color recolored.
    """

    system: ReplacementSystem          # loop-normalized
    original: ReplacementSystem
    states: tuple
    transitions: dict                  # (state, (a, b)) -> state
    index: dict = field(compare=False, repr=False)  # (state, a) -> [(b, state)]

    @property
    def initial(self):
        return ("q0", "0")

    def step(self, state, pair):
        return self.transitions.get((state, pair))

    def state_count(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return len(self.transitions)


def _adjacency_type(edge, anchor) -> Optional[str]:
    """How an edge touches a single anchor vertex: out, in or lp."""
    at_src = edge.src == anchor
    at_dst = edge.dst == anchor
    if at_src and at_dst:
        return LP
    if at_src:
        return OUT
    if at_dst:
        return IN
    return None


def _type1_state(a, b) -> Optional[tuple]:
    """Adjacency classification of two distinct edges of one graph."""
    if a.is_loop and b.is_loop:
        return (LP, LP) if a.src == b.src else None
    if a.is_loop:
        t = _adjacency_type(b, a.src)
        return (LP, t) if t else None
    if b.is_loop:
        t = _adjacency_type(a, b.src)
        return (t, LP) if t else None
    shared = {a.src, a.dst} & {b.src, b.dst}
    if not shared:
        return None
    if len(shared) == 2:
        if a.src == b.src and a.dst == b.dst:
            return (DBP, DBP)
        return (DBP, DBM)
    v = shared.pop()
    return (_adjacency_type(a, v), _adjacency_type(b, v))


# The Type 2 table: given the tracked adjacency (gamma for the first edge,
# delta for the second), the anchors each side must touch, and the induced new
# adjacency per incidence.  For db+ the two anchors pair (tau,tau)/(iota,iota),
# for db- they pair crosswise.


def _anchor(rule: Rule, gamma: str):
    if gamma == IN:
        return rule.tau
    if gamma == OUT:
        return rule.iota
    if gamma == LP:
        return rule.iota  # loop rules carry a single boundary vertex
    raise ValueError(gamma)


def _type2_single(rule: Rule, gamma: str, edge) -> Optional[str]:
    return _adjacency_type(edge, _anchor(rule, gamma))


def build(system: ReplacementSystem) -> GluingAutomaton:
    """Compile the gluing automaton of an expanding system.

    Loops are normalized away first; unreachable states are trimmed, and the
    transition index is derived from what is kept.  Every call compiles anew;
    ``glued`` and ``gluing_class`` keep one automaton per system instead.
    """
    norm = normalize_loops(system)
    if not norm.validate().expanding:
        raise NotExpanding("the gluing automaton needs an expanding system")
    contexts = [("0", None)] + [(c, c) for c in norm.colors]
    transitions = {}
    # Type 0: both sequences still read the same edge
    for tag, ctx in contexts:
        g = norm.graph_of(ctx)
        for e in g.edges:
            transitions[(("q0", tag), (e.name, e.name))] = ("q0", e.color)
    # Type 1: first divergence inside one graph
    for tag, ctx in contexts:
        g = norm.graph_of(ctx)
        for a in g.edges:
            for b in g.edges:
                if a.name == b.name:
                    continue
                t = _type1_state(a, b)
                if t is None:
                    continue
                transitions[(("q0", tag), (a.name, b.name))] = (
                    "q1", a.color, t[0], b.color, t[1])
    # Type 2: track adjacency through simultaneous expansions
    single = (IN, OUT, LP)
    q1_states = set()
    for i in norm.colors:
        for j in norm.colors:
            for gamma in single:
                for delta in single:
                    q1_states.add(("q1", i, gamma, j, delta))
            q1_states.add(("q1", i, DBP, j, DBP))
            q1_states.add(("q1", i, DBP, j, DBM))
    for state in sorted(q1_states):
        _, i, gamma, j, delta = state
        rule_i, rule_j = norm.rules[i], norm.rules[j]
        for a in rule_i.graph.edges:
            for b in rule_j.graph.edges:
                if gamma in single and delta in single:
                    alpha = _type2_single(rule_i, gamma, a)
                    beta = _type2_single(rule_j, delta, b)
                    if alpha and beta:
                        transitions[(state, (a.name, b.name))] = (
                            "q1", a.color, alpha, b.color, beta)
                elif gamma == DBP:
                    # double adjacency needs two distinct boundary vertices on
                    # both sides, so loop-kind colors never reach these states
                    if rule_i.kind == "loop" or rule_j.kind == "loop":
                        continue
                    if delta == DBP:
                        pairs = [(rule_i.tau, rule_j.tau), (rule_i.iota, rule_j.iota)]
                    else:
                        pairs = [(rule_i.tau, rule_j.iota), (rule_i.iota, rule_j.tau)]
                    hits = set()
                    for anchor_a, anchor_b in pairs:
                        alpha = _adjacency_type(a, anchor_a)
                        beta = _adjacency_type(b, anchor_b)
                        if alpha and beta:
                            hits.add((alpha, beta))
                    if len(hits) > 1:
                        raise NotExpanding(
                            "ambiguous double adjacency; system is not expanding")
                    if hits:
                        alpha, beta = hits.pop()
                        transitions[(state, (a.name, b.name))] = (
                            "q1", a.color, alpha, b.color, beta)
    # trim unreachable states, walking each state's successors once
    successors: dict = {}
    for (state, _pair), nxt in transitions.items():
        successors.setdefault(state, []).append(nxt)
    reachable = {("q0", "0")}
    frontier = [("q0", "0")]
    while frontier:
        for nxt in successors.get(frontier.pop(), ()):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    transitions = {
        (state, pair): nxt
        for (state, pair), nxt in transitions.items()
        if state in reachable
    }
    index: dict = {}
    for (state, (a, b)), nxt in transitions.items():
        index.setdefault((state, a), []).append((b, nxt))
    states = tuple(sorted(reachable))
    return GluingAutomaton(norm, system, states, transitions, index)


# -- running on rational sequences -------------------------------------------------


def _automaton(system_or_aut) -> GluingAutomaton:
    """The automaton passed, or the system's own, compiled once and kept on it.

    A system that ``build`` refuses keeps nothing, so each query raises anew.
    """
    if isinstance(system_or_aut, GluingAutomaton):
        return system_or_aut
    if system_or_aut._gluing is None:
        system_or_aut._gluing = build(system_or_aut)
    return system_or_aut._gluing


def glued(system_or_aut, s1: RationalSequence, s2: RationalSequence) -> bool:
    """Decide the gluing relation on two rational sequences.

    The synchronized pair is run on the automaton until the lasso state
    (automaton state, phase of each input) repeats, which decides acceptance.
    Given a system, the automaton is compiled on the first query and kept on
    the system, so later queries on it reuse it.

    A run that never stops reads only edges of the current context graphs, so
    both sequences lie in the symbol space; only a rejected pair is checked.
    The color at a period start repeats within ``len(colors) + 1`` periods,
    so a sequence that leaves the language does so by then.
    """
    aut = _automaton(system_or_aut)
    if _run_lasso(aut, s1, s2):
        return True
    for s in (s1, s2):
        probe = len(s.prefix) + (len(aut.original.colors) + 1) * len(s.period)
        if not aut.original.language_contains(s.prefix_of_length(probe)):
            raise NotInSymbolSpace(f"{s} is not in the symbol space")
    return False


def _run_lasso(aut: GluingAutomaton, t1: RationalSequence, t2: RationalSequence) -> bool:
    """Run two sequences on the automaton.

    A phase indexes ``prefix + period``: it steps by one and wraps from the
    end back to the start of the period, so the run stops when a triple
    (state, phase, phase) repeats.
    """
    w1, w2 = t1.prefix + t1.period, t2.prefix + t2.period
    n1, n2 = len(w1), len(w2)
    back1, back2 = len(t1.prefix), len(t2.prefix)
    transitions = aut.transitions
    state = aut.initial
    seen = set()
    i1 = i2 = 0
    while True:
        key = (state, i1, i2)
        if key in seen:
            return True
        seen.add(key)
        state = transitions.get((state, (w1[i1], w2[i2])))
        if state is None:
            return False
        i1 = i1 + 1 if i1 + 1 < n1 else back1
        i2 = i2 + 1 if i2 + 1 < n2 else back2


def glued_brute_force(system: ReplacementSystem, s1: RationalSequence,
                      s2: RationalSequence, depth: Optional[int] = None,
                      state_bound: Optional[int] = None) -> bool:
    """Independent oracle: level-by-level shared-vertex check on expansions.

    Adjacency of the two prefixes is eventually periodic: past both preperiods
    the pair of addresses cycles with period lcm(|p1|, |p2|), and endpoint
    identifications stabilize after one extra sweep, so checking to the
    default depth (preperiods plus four joint periods plus slack) decides the
    relation; an explicit depth overrides the bound.
    """
    if depth is None:
        import math

        joint = (len(s1.period) * len(s2.period)
                 // math.gcd(len(s1.period), len(s2.period)))
        depth = max(len(s1.prefix), len(s2.prefix)) + 4 * joint + 8
    exp = base_expansion(system)
    for n in range(1, depth + 1):
        w1, w2 = s1.prefix_of_length(n), s2.prefix_of_length(n)
        exp = _expand_along(system, exp, w1)
        exp = _expand_along(system, exp, w2)
        e1 = exp.cell_edge(w1)
        e2 = exp.cell_edge(w2)
        if not ({e1.src, e1.dst} & {e2.src, e2.dst}):
            return False
    return True


def _expand_along(system, exp, word):
    cells = set(exp.cells)
    for k in range(1, len(word)):
        if word[:k] in cells:
            exp = exp.expand(word[:k])
            cells = set(exp.cells)
    return exp


def gluing_class(system: ReplacementSystem, s: RationalSequence) -> set:
    """All rational sequences glued to s (finite for finite-branching systems).

    Partners are read off the product of the automaton with s's lasso: the
    product is deterministic in the partner letter, so its live infinite paths
    biject with the class; finite branching keeps the path set finite.  The
    automaton is the system's own, compiled on the first query and kept on
    the system, as ``glued`` keeps it.

    Each product node (state, phase) looks its successors up in the
    automaton's index under s's letter at that phase.  The live nodes, those
    that can reach a cycle, are what is left after repeatedly peeling off
    nodes with no successor left.  Partners are enumerated depth-first along
    one path, with a stack of successor iterators and the path's nodes with
    their positions, so no recursion limit applies.  The path's nodes are
    distinct, so it never holds more than len(succ) - 1 labels and needs no
    cap.  Building, peeling and each enumerated path take time linear in the
    product.  Every partner found is re-checked by a run of the automaton.
    The Type 0 transitions walk the language, so s is its own partner exactly
    when it lies in the symbol space.
    """
    if not system.validate().finite_branching_sufficient:
        raise FiniteBranchingUnknown(
            "gluing classes are only enumerated under the degree-one condition")
    aut = _automaton(system)
    word = s.prefix + s.period
    end, period_start = len(word), len(s.prefix)
    index = aut.index

    # product nodes (state, phase), phase indexing ``word``; partner-labeled edges
    root = (aut.initial, 0)
    succ: dict = {}
    preds: dict = {}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        if node in succ:
            continue
        state, ph = node
        ph2 = ph + 1 if ph + 1 < end else period_start
        edges = succ[node] = []
        for b, nxt in index.get((state, word[ph]), ()):
            y = (nxt, ph2)
            edges.append((b, y))
            preds.setdefault(y, []).append(node)
            frontier.append(y)
    # live nodes: peel off nodes whose successors are all gone
    degree = {node: len(edges) for node, edges in succ.items()}
    dead = [node for node, d in degree.items() if d == 0]
    while dead:
        for x in preds.get(dead.pop(), ()):
            degree[x] -= 1
            if degree[x] == 0:
                dead.append(x)
    live = {node for node, d in degree.items() if d}
    # live infinite paths from the root, one path at a time
    out = set()
    if root in live:
        labels, position = [], {root: 0}    # the path: its nodes in order, with positions
        stack = [iter(succ[root])]
        while stack:
            for b, y in stack[-1]:
                if y not in live:
                    continue
                j = position.get(y)
                if j is not None:
                    try:
                        out.add(RationalSequence.make(labels[:j], labels[j:] + [b]))
                    except ValueError:
                        pass
                    continue
                labels.append(b)
                position[y] = len(position)
                stack.append(iter(succ[y]))
                break
            else:
                stack.pop()
                position.popitem()
                if labels:
                    labels.pop()
    out = {c for c in out if _run_lasso(aut, s, c)}
    if RationalSequence.make(s.prefix, s.period) not in out:
        raise NotInSymbolSpace(f"{s} is not in the symbol space")
    return out


# -- emitters ------------------------------------------------------------------------


def _state_str(state) -> str:
    if state[0] == "q0":
        return f"q0({state[1]})"
    _, i, g, j, d = state
    return f"q1({i} {g}; {j} {d})"


def automaton_to_dot(aut: GluingAutomaton, name: str = "Gl") -> str:
    lines = [f'digraph "{name}" {{', "  rankdir=LR;",
             '  start [shape=point];']
    for q in aut.states:
        lines.append(f'  "{_state_str(q)}" [shape=ellipse];')
    lines.append(f'  start -> "{_state_str(aut.initial)}";')
    grouped: dict = {}
    for (state, pair), nxt in sorted(aut.transitions.items()):
        grouped.setdefault((state, nxt), []).append(pair)
    for (state, nxt), pairs in grouped.items():
        label = ", ".join(f"({a},{b})" for a, b in pairs)
        lines.append(f'  "{_state_str(state)}" -> "{_state_str(nxt)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def automaton_to_json(aut: GluingAutomaton) -> dict:
    return {
        "states": [_state_str(q) for q in aut.states],
        "initial": _state_str(aut.initial),
        "transitions": [
            {"from": _state_str(state), "pair": list(pair), "to": _state_str(nxt)}
            for (state, pair), nxt in sorted(aut.transitions.items())
        ],
    }
