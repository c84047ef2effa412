"""The library names that the benchmark's tracer (``bench/spans.py``) wraps.

The tracer looks each name of its ``LAYER_CALLS`` up in the ``__dict__`` of
the module or class that defines it, so moving or deleting one of them breaks
traced benchmark runs.  These tests catch that in the ordinary suite.
"""

import importlib
import importlib.util
from pathlib import Path

from rewrite_groups import rearrangement, replacement

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    compose = rearrangement.compose
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rearrangement.compose is not compose
    finally:
        tracer.uninstall()
    assert rearrangement.compose is compose


def test_composition_names_stay_in_their_own_bodies():
    R = rearrangement.Rearrangement
    assert "minimal_refinement" in vars(replacement)
    for name in ("expand_at", "flipless", "expand_domain_to", "expand_range_to"):
        assert name in vars(R), name
    for name in ("compose", "product", "power", "conjugate_by"):
        assert name in vars(rearrangement), name


def test_replacement_names_stay_in_their_own_bodies():
    wrapped = _load_spans().LAYER_CALLS["replacement"]
    for path in ("GraphExpansion.__init__", "GraphExpansion.expand", "GraphExpansion.reduce",
                 "GraphExpansion.reducible_families", "base_expansion", "full_expansion",
                 "minimal_refinement", "expansion_containing"):
        assert path in wrapped, path
    for path in wrapped:
        *owner, name = path.split(".")
        body = vars(getattr(replacement, owner[0])) if owner else vars(replacement)
        assert name in body, path


def test_every_layer_call_stays_in_its_own_body():
    for layer, calls in _load_spans().LAYER_CALLS.items():
        module = importlib.import_module(f"rewrite_groups.{layer}")
        for path in calls:
            owner_name, _, name = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert name in vars(owner), f"{layer}.{path}"
