"""Outside-in tracing: spans recorded around calls into the library's layers.

The library itself is not touched.  ``Tracer.install`` replaces the public
entry points of each layer (module functions and class methods) by wrappers
that record a span per call: name, layer, start, end, parent span, the
exception raised (if any) and a number read off the result where one is
needed.  Names that another module bound with ``from .x import f`` are
replaced too, so calls made through them are seen.

Spans are recorded only inside an operation opened with ``Tracer.op``; the
benchmark opens one around each timed call, so input building and output
checks leave no spans.  The op span belongs to the layer ``outside``: its self
time is the part of the operation spent outside every traced call, and the
self times of all layers add up to the operation time by construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "rewrite_groups"
OUTSIDE = "outside"

# Entry points per layer (module of the package): attribute paths, bottom to top.
LAYER_CALLS = {
    "graphs": (
        "ColoredGraph.__init__", "ColoredGraph.canonical_form", "ColoredGraph.canonical_key",
        "isomorphisms", "iter_isomorphisms", "automorphisms", "apply_iso",
    ),
    "replacement": (
        "GraphExpansion.__init__", "GraphExpansion.expand", "GraphExpansion.reduce",
        "GraphExpansion.reducible_families", "ReplacementSystem.validate",
        "ReplacementSystem.reversing_automorphism", "ReplacementSystem.undirected_colors",
        "base_expansion", "full_expansion", "minimal_refinement", "expansion_containing",
        "normalize_loops", "translate_word",
    ),
    "rearrangement": (
        "Rearrangement.__init__", "Rearrangement.expand_at", "Rearrangement.flipless",
        "Rearrangement.expand_domain_to", "Rearrangement.expand_range_to",
        "Rearrangement.apply_word", "Rearrangement.apply_rational",
        "_reduce", "reduced_flipless", "identity", "compose", "invert", "power",
        "conjugate_by", "product",
    ),
    "strand": (
        "StrandDiagram.__init__", "StrandDiagram.reduce", "StrandDiagram.canonical_key",
        "from_rearrangement", "to_rearrangement", "cut", "compose", "invert",
    ),
    "conjugacy": (
        "ClosedDiagram.canonical_key", "close", "close_element", "initial_renaming",
        "reduce_closed", "similarity_search", "similarity_canonical_key",
        "all_similarity_moves", "apply_shift", "shift_down_split", "shift_up_split",
        "shift_up_merge", "shift_down_merge", "flip_loop", "find_type3", "apply_type3",
        "conjugate", "check_reduction_confluence", "augment_airplane",
    ),
    "gluing": ("build", "glued", "gluing_class", "glued_brute_force"),
}

ISO_CALLS = frozenset({"graphs.isomorphisms", "graphs.iter_isomorphisms"})
MOVE_CALLS = frozenset(f"conjugacy.{n}" for n in (
    "apply_shift", "flip_loop", "apply_type3", "shift_down_split", "shift_up_split",
    "shift_up_merge", "shift_down_merge"))


def _moves_used(name, result):
    """Moves a search kept: the reduce_closed log, the similarity_search paths."""
    if name == "conjugacy.reduce_closed":
        return len(result[1])
    if name == "conjugacy.similarity_search" and result is not None:
        return len(result[3]) + len(result[4])
    return None


class Tracer:
    """Records spans as lists [name, layer, start, end, parent, error, extra]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name, layer):
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, self._stack[-1], None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, label: str):
        """Root span of one timed operation; nested ops are not allowed."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        idx = len(self.spans)
        self.spans.append([f"op.{label}", OUTSIDE, time.perf_counter(), None, -1, None, None])
        self._stack.append(idx)
        try:
            yield
        except BaseException as e:
            self.spans[idx][5] = type(e).__name__
            raise
        finally:
            self._close(idx)

    def _wrap(self, fn, name, layer):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own work between two
            # items is never charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                label = name
                while True:
                    if not tracer._stack:
                        item = next(it, _END)
                    else:
                        idx = tracer._open(label, layer)
                        try:
                            item = next(it, _END)
                        finally:
                            tracer._close(idx)
                    if item is _END:
                        return
                    label = name + ".next"
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.spans[idx][5] = type(e).__name__
                raise
            finally:
                tracer._close(idx)
            tracer.spans[idx][6] = _moves_used(name, result)
            return result
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every entry point of LAYER_CALLS; undone by ``uninstall``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYER_CALLS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, calls in LAYER_CALLS.items():
            module = layers[layer]
            for path in calls:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapped = self._wrap(original, f"{layer}.{path}", layer)
                self._patch(owner, attr, original, wrapped)
                if owner_name:
                    continue
                for other in modules:
                    if other is not module and other.__dict__.get(attr) is original:
                        self._patch(other, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


_END = object()


def self_times(spans, by_op: bool = False) -> dict:
    """Self time per layer: each span's duration minus its children's durations.

    ``spans`` holds records [name, layer, start, end, parent, ...] whose
    parent is the index of an earlier record (or -1 for an operation).  The
    values add up to the summed duration of the operations.  With ``by_op``
    the keys are (operation name, layer).
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    out = defaultdict(float)
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[4] < 0 else root[s[4]])
        key = (spans[root[i]][0], s[1]) if by_op else s[1]
        out[key] += (s[3] - s[2]) - child[i]
    return dict(out)


def layer_counts(spans) -> Counter:
    """The per-layer counts named in the benchmark, read off the spans."""
    names = Counter()
    refused = Counter()
    extra = Counter()
    top_iso = top_moves = moves_refused = 0
    for s in spans:
        name, parent, error = s[0], s[4], s[5]
        names[name] += 1
        if error:
            refused[(name, error)] += 1
        if s[6] is not None:
            extra[name] += s[6]
        pname = spans[parent][0] if parent >= 0 else ""
        if name in ISO_CALLS and pname not in ISO_CALLS:
            top_iso += 1
        if name in MOVE_CALLS and pname not in MOVE_CALLS:
            top_moves += 1
            moves_refused += error == "NotAdjacent"
    used = extra["conjugacy.reduce_closed"] + extra["conjugacy.similarity_search"]
    return Counter({
        "graphs.graphs_built": names["graphs.ColoredGraph.__init__"],
        "graphs.iso_searches": top_iso,
        "replacement.expansions_built": names["replacement.GraphExpansion.__init__"],
        "replacement.expand_calls": names["replacement.GraphExpansion.expand"],
        "replacement.reduce_calls": names["replacement.GraphExpansion.reduce"],
        "replacement.reduce_refused": refused[("replacement.GraphExpansion.reduce", "NotReducible")],
        "replacement.psi_calls": names["replacement.ReplacementSystem.reversing_automorphism"],
        "rearrangement.elements_built": names["rearrangement.Rearrangement.__init__"],
        "rearrangement.compose_calls": names["rearrangement.compose"],
        "rearrangement.expand_at_calls": names["rearrangement.Rearrangement.expand_at"],
        "strand.diagrams_built": names["strand.StrandDiagram.__init__"],
        "strand.reduce_calls": names["strand.StrandDiagram.reduce"],
        "conjugacy.closed_keys": names["conjugacy.ClosedDiagram.canonical_key"],
        "conjugacy.search_states": names["conjugacy.all_similarity_moves"],
        "conjugacy.moves_built": top_moves,
        "conjugacy.moves_refused": moves_refused,
        "conjugacy.moves_used": used,
        "conjugacy.confluence_checks": names["conjugacy.check_reduction_confluence"],
        "gluing.automata_built": names["gluing.build"],
        "gluing.decisions": names["gluing.glued"],
        "gluing.class_queries": names["gluing.gluing_class"],
    })
