"""Tests of the benchmark's own pieces: span arithmetic, references, tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import spans as sp  # noqa: E402


def span(name, layer, start, end, parent, error=None, extra=None):
    return [name, layer, start, end, parent, error, extra]


NESTED = [
    span("op.large", "outside", 0.0, 10.0, -1),
    span("rearrangement.compose", "rearrangement", 1.0, 6.0, 0),
    span("replacement.GraphExpansion.__init__", "replacement", 2.0, 4.0, 1),
    span("graphs.ColoredGraph.__init__", "graphs", 2.5, 3.0, 2),
    span("graphs.isomorphisms", "graphs", 7.0, 9.0, 0),
    span("graphs.iter_isomorphisms", "graphs", 7.5, 8.5, 4),
    span("op.small", "outside", 20.0, 21.0, -1),
    span("rearrangement.compose", "rearrangement", 20.25, 20.75, 6),
]


def test_self_times_subtract_children():
    t = sp.self_times(NESTED)
    assert t == {"outside": 3.0 + 0.5, "rearrangement": 3.0 + 0.5, "replacement": 1.5,
                 "graphs": 0.5 + 1.0 + 1.0}
    assert sum(t.values()) == 11.0


def test_self_times_by_op_add_up_to_each_op():
    t = sp.self_times(NESTED, by_op=True)
    assert sum(v for (op, _), v in t.items() if op == "op.large") == 10.0
    assert sum(v for (op, _), v in t.items() if op == "op.small") == 1.0
    assert t[("op.large", "graphs")] == 2.5


def test_layer_counts_count_nested_searches_once():
    counts = sp.layer_counts(NESTED + [
        span("replacement.GraphExpansion.reduce", "replacement", 11, 12, 6, "NotReducible"),
        span("conjugacy.apply_shift", "conjugacy", 12, 13, 6, "NotAdjacent"),
        span("conjugacy.flip_loop", "conjugacy", 12, 12.5, 9, "NotAdjacent"),
        span("conjugacy.reduce_closed", "conjugacy", 13, 14, 6, None, 4),
    ])
    assert counts["graphs.iso_searches"] == 1
    assert counts["graphs.graphs_built"] == 1
    assert counts["rearrangement.compose_calls"] == 2
    assert counts["replacement.reduce_calls"] == counts["replacement.reduce_refused"] == 1
    assert counts["conjugacy.moves_built"] == counts["conjugacy.moves_refused"] == 1
    assert counts["conjugacy.moves_used"] == 4


def test_tracer_wraps_and_restores_the_library():
    from rewrite_groups import conjugacy, rearrangement as R
    from rewrite_groups.catalog import catalog

    F = catalog("interval_F")
    x0 = R.from_cell_map(F, [(tuple(a), tuple(b)) for a, b in inputs.X0])
    x1 = R.from_cell_map(F, [(tuple(a), tuple(b)) for a, b in inputs.X1])
    original = R.compose
    tracer = sp.Tracer()
    tracer.install()
    try:
        assert R.compose is not original and conjugacy.compose is R.compose
        R.compose(x0, x1)  # outside an op: not recorded
        assert tracer.spans == []
        with tracer.op("large"):
            R.compose(x1, x0)
    finally:
        tracer.uninstall()
    assert R.compose is original and conjugacy.compose is original
    counts = sp.layer_counts(tracer.spans)
    assert counts["rearrangement.compose_calls"] == 1
    assert counts["replacement.expansions_built"] > 0
    op_s = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(sp.self_times(tracer.spans).values()) == pytest.approx(op_s, abs=1e-9)


# -- references --------------------------------------------------------------------

X0 = ref.PLMap.from_cell_map(inputs.X0)
X1 = ref.PLMap.from_cell_map(inputs.X1)


def test_generators_of_f_by_hand():
    assert [X0(x) for x in (Fr(0), Fr(1, 8), Fr(1, 4), Fr(3, 8), Fr(3, 4), Fr(1))] == [
        0, Fr(1, 4), Fr(1, 2), Fr(5, 8), Fr(7, 8), 1]
    assert [X1(x) for x in (Fr(1, 4), Fr(9, 16), Fr(11, 16), Fr(7, 8))] == [
        Fr(1, 4), Fr(5, 8), Fr(13, 16), Fr(15, 16)]
    assert X0.end_slopes() == (2, Fr(1, 2))
    assert X1.end_slopes() == (1, Fr(1, 2))


def test_pl_composition_and_inverse():
    identity = ref.PLMap([(Fr(0), Fr(1), Fr(0), Fr(1))])
    assert X0.after(X0.inverse()) == identity
    assert ref.product_map([X1, ref.PLMap.from_cell_map(inputs.inverse_map(inputs.X1))]) == identity
    for n in range(1, 6):
        assert ref.PLMap.from_cell_map(inputs.x0_power(n)) == ref.product_map([X0] * n)
    # x0 o x1 and x1 o x0 differ: F is not abelian
    assert X0.after(X1) != X1.after(X0)
    assert X0.after(X1)(Fr(9, 16)) == X0(Fr(5, 8))


def test_sequence_values():
    assert ref.sequence_value(("s", "0"), ("1",)) == Fr(1, 2)
    assert ref.sequence_value(("s",), ("0", "1")) == Fr(1, 3)
    assert ref.sequence_value(("s", "1", "1"), ("0",)) == Fr(3, 4)


def test_expansion_counts_from_the_substitution_matrix():
    # order-3 dendrite: a star of three edges replaced by stars (4 vertices, 2 boundary)
    star = {"1": (["1", "1", "1"], 4, 2)}
    assert ref.expansion_counts(["1"] * 3, star, 4, 4) == (243, 244)
    # interval: a path of two edges; E_7 is a path of 128 edges
    assert ref.expansion_counts(["1"], {"1": (["1", "1"], 3, 2)}, 2, 7) == (128, 129)
    # airplane: blue -> 2 blue + 2 red on 4 vertices, red -> 2 red + 1 blue on 4 vertices
    airplane = {"b": (["b", "r", "r", "b"], 4, 2), "r": (["r", "r", "b"], 4, 2)}
    assert ref.expansion_counts(["b"], airplane, 2, 1) == (4, 4)
    assert ref.expansion_counts(["b"], airplane, 2, 2) == (14, 12)


def test_dendrite_phi_of_words():
    assert ref.word_phi(["g1", "g1^-1"]) == (0, 0)
    assert ref.word_phi(["tau2", "tau3"]) == (0, 0)
    assert ref.word_phi(["g1", "tau2", "g0^-1", "g1"]) == (1, -2)


def test_metric_names_match_benchmark_json():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    tracer = sp.Tracer()
    tracer.spans = [span("op.small", "outside", 0.0, 1.0, -1)]
    metrics = run.per_layer(tracer, 1, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, m["unit"]) for name, m in metrics.items()]


def test_class_latency_is_the_geometric_mean_of_op_medians():
    from types import SimpleNamespace

    import run

    from hostspeed import NOMINAL_S, HostSpeed

    speed = HostSpeed()
    speed.starts, speed.durations = [0.0, 10.0], [NOMINAL_S, 2 * NOMINAL_S]
    runner = run.Runner(SimpleNamespace(ops=[]), speed)
    small, large = SimpleNamespace(cls="small", label="a"), SimpleNamespace(cls="large", label="b")
    runner.ops = [(small, None), (small, None), (large, None), (large, run.Runner.FAILS)]
    # all near the first reference sample, which ran at the nominal speed
    runner.samples[0] = [(0.1, 0.001), (0.2, 0.003), (0.3, 0.002)]     # median 2 ms
    runner.samples[1] = [(0.4, 0.008), (0.5, 0.008)]                   # median 8 ms
    runner.samples[2] = [(0.6, 0.5), (0.7, 0.1), (0.8, 0.3), (0.9, 0.2)]   # median 250 ms
    metrics = run.end_to_end(runner, 1.5)
    assert metrics["small_op_ms"]["value"] == pytest.approx(4.0)
    assert metrics["large_op_ms"]["value"] == pytest.approx(250.0)
    assert metrics["setup_s"] == {"value": 1.5, "unit": "s"}
    # near the second sample the host ran at half the nominal speed
    runner.samples[2] = [(9.0, 0.5), (9.5, 0.1), (10.5, 0.3), (11.0, 0.2)]
    assert run.end_to_end(runner, 1.5)["large_op_ms"]["value"] == pytest.approx(125.0)
    assert run.end_to_end(runner, 1.5, scaled=False)["large_op_ms"]["value"] == pytest.approx(250.0)


def test_host_speed_scale_takes_the_median_of_nearby_samples():
    from hostspeed import HALF_WINDOW_S, NOMINAL_S, scale_at

    starts = [0.0, 1.0, 2.0, 10.0]
    durations = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S, NOMINAL_S / 4]
    # [1, 1.5] sees the samples at 0, 1 and 2: median 2 * NOMINAL_S
    assert scale_at(starts, durations, 1.0, 1.5) == pytest.approx(0.5)
    # only the sample at 10 lies within the window of [10, 10.2]
    assert scale_at(starts, durations, 10.0, 10.2) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        scale_at(starts, durations, 5.0 + HALF_WINDOW_S, 5.1 + HALF_WINDOW_S)
