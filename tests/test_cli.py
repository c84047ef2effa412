import json
import os
import subprocess
import sys

import pytest

from conftest import f_generators

from rewrite_groups.cli import main


def run(args, **kw):
    """Invoke the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def x0_file(tmp_path):
    F, x0, _ = f_generators()
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(x0.to_json()))
    return str(path)


@pytest.fixture
def x1_file(tmp_path):
    F, _, x1 = f_generators()
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(x1.to_json()))
    return str(path)


def test_catalog_list():
    code, out, _ = run(["catalog", "list"])
    assert code == 0 and "airplane" in out and "dendrite(n)" in out


def test_validate():
    code, out, _ = run(["validate", "--system", "airplane", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["expanding"] and data["undirected_colors"] == ["b"]


def test_expand():
    code, out, _ = run(["expand", "--system", "interval_F", "--depth", "2"])
    assert code == 0
    assert out.split("\n")[:4] == ["s 0 0", "s 0 1", "s 1 0", "s 1 1"]


def test_eq_of_f_relator(tmp_path, x0_file, x1_file):
    from rewrite_groups.rearrangement import compose, invert, product

    F, x0, x1 = f_generators()
    lhs = product([x0, x1])
    rhs = product([x1, x0])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(lhs.to_json()))
    b.write_text(json.dumps(rhs.to_json()))
    code, out, _ = run(["eq", "--system", "interval_F", str(a), str(b)])
    assert code == 1 and "different" in out
    code, out, _ = run(["eq", "--system", "interval_F", str(a), str(a)])
    assert code == 0


def test_compose_invert_apply(tmp_path, x0_file):
    code, out, _ = run(["invert", "--system", "interval_F", x0_file])
    assert code == 0
    inv = tmp_path / "inv.json"
    inv.write_text(out)
    code, out, _ = run(["compose", "--system", "interval_F", x0_file, str(inv)])
    assert code == 0
    data = json.loads(out)
    assert all(a == b for a, b in zip(data["domain"], data["range"]))
    code, out, _ = run(["apply", "--system", "interval_F", x0_file, "s 0 0"])
    assert code == 0 and out.strip() == "s 0"
    code, out, _ = run(["apply", "--system", "interval_F", x0_file, "s 0 (1)"])
    assert code == 0 and out.strip() == "s 1 0 (1)"


def test_glued_examples():
    code, out, _ = run(["glued", "--system", "airplane", "s b2 (r2)", "s b3 (r1)"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(["glued", "--system", "airplane", "s b2 (r1)", "s b3 (r1)"])
    assert code == 1 and out.strip() == "false"


def test_glue_automaton_dot(tmp_path):
    dot = tmp_path / "gl.dot"
    code, out, _ = run(["glue-automaton", "--system", "interval_F", "--dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("->") >= 7


def test_class():
    code, out, _ = run(["class", "--system", "interval_F", "s 0 (1)"])
    assert code == 0
    assert set(out.strip().split("\n")) == {"s 0 (1)", "s 1 (0)"}


def test_class_of_a_long_period():
    import random

    rng = random.Random(1500)
    point = "s (" + " ".join(rng.choice("01") for _ in range(1500)) + ")"
    code, out, _ = run(["class", "--system", "interval_F", point])
    assert code == 0
    assert out.strip() == point


def test_class_outside_the_symbol_space_is_a_computation_error():
    code, out, err = run(["class", "--system", "airplane", "zz (0)"])
    assert code == 3 and out == "" and "NotInSymbolSpace" in err


def test_confluence_exit_codes():
    code, out, _ = run(["confluence", "--system", "interval_F"])
    assert code == 0 and out.strip() == "confluent"
    code, out, _ = run(["confluence", "--system", "airplane"])
    assert code == 1 and out.strip() == "not_confluent"
    code, out, _ = run(["confluence", "--system", "airplane", "--augment", "airplane"])
    assert code == 0


def test_conj_without_augment_fails_cleanly(tmp_path):
    from rewrite_groups.catalog import catalog
    from rewrite_groups.rearrangement import identity

    A = catalog("airplane")
    g = tmp_path / "id.json"
    g.write_text(json.dumps(identity(A).to_json()))
    code, out, err = run(["conj", "--system", "airplane", str(g), str(g)])
    assert code == 3 and "RulesNotConfluent" in err
    code, out, err = run(["conj", "--system", "airplane", str(g), str(g),
                          "--augment", "airplane"])
    assert code == 0


def test_conj_negative_exit(tmp_path, x0_file, x1_file):
    code, out, _ = run(["conj", "--system", "interval_F", x0_file, x1_file])
    assert code == 1 and "not conjugate" in out


def test_torsion_and_phi(tmp_path, x0_file):
    code, out, _ = run(["torsion", "--system", "interval_F", x0_file])
    assert code == 0 and "infinite order" in out
    from rewrite_groups.analysis import dendrite_generators

    g0 = dendrite_generators(3)["g0"]
    p = tmp_path / "g0.json"
    p.write_text(json.dumps(g0.to_json()))
    code, out, _ = run(["phi", "--system", "dendrite:3", str(p), "--json"])
    assert code == 0
    assert json.loads(out) == {"parity": 0, "derivative": 0}


def test_torsion_reports_whether_the_certificate_held(x0_file, monkeypatch):
    from rewrite_groups import analysis as an

    code, out, _ = run(["torsion", "--system", "interval_F", x0_file, "--json"])
    assert code == 0 and json.loads(out)["certificate_holds"] is True
    monkeypatch.setattr(an, "wandering_certificate", lambda g, w, powers: False)
    code, out, _ = run(["torsion", "--system", "interval_F", x0_file, "--json"])
    assert code == 3 and json.loads(out)["certificate_holds"] is False
    code, out, _ = run(["torsion", "--system", "interval_F", x0_file])
    assert code == 3 and "(verified False)" in out


def test_usage_errors():
    code, _, err = run(["glued", "--system", "airplane", "s b2", "s b3 (r1)"])
    assert code == 2
    code, _, err = run(["validate", "--system", "no_such_system"])
    assert code == 2


@pytest.fixture(params=["truncated", "top_level_list"])
def bad_json(request, tmp_path):
    """A file that is no JSON object: cut off mid-way, or a list at top level."""
    _, x0, _ = f_generators()
    text = json.dumps(x0.to_json())
    path = tmp_path / "bad.json"
    path.write_text(text[:len(text) // 2] if request.param == "truncated" else f"[{text}]")
    return str(path)


def _is_usage_error(code, out, err, path):
    return code == 2 and out == "" and path in err and "Error:" not in err


def test_malformed_element_is_usage_error(bad_json, x0_file):
    assert _is_usage_error(*run(["invert", "--system", "interval_F", bad_json]), bad_json)
    assert _is_usage_error(*run(["conj", "--system", "interval_F", x0_file, bad_json]),
                           bad_json)
    code, _, err = run(["invert", "--system", "interval_F", bad_json, "--json"])
    assert code == 2 and json.loads(err)["code"] == 2


def test_malformed_system_is_usage_error(bad_json):
    assert _is_usage_error(*run(["validate", "--system", bad_json]), bad_json)


def test_embed_v(tmp_path, x0_file):
    code, out, _ = run(["embed-v", "--system", "interval_F", x0_file])
    assert code == 0
    data = json.loads(out)
    assert data["domain"]


def test_deterministic_output_with_seed(tmp_path, x0_file):
    a = run(["catalog", "dump", "--system", "airplane"])
    b = run(["catalog", "dump", "--system", "airplane"])
    assert a == b
    c1, o1, _ = run(["dot", "--system", "interval_F", "--g", x0_file])
    c2, o2, _ = run(["dot", "--system", "interval_F", "--g", x0_file])
    assert c1 == c2 == 0 and o1 == o2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "rewrite_groups.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def test_confluence_strict_flag():
    # bubble bath is confluent; strict changes nothing for definite verdicts
    code, out, _ = run(["confluence", "--system", "bubble_bath", "--strict"])
    assert code == 0


def test_system_from_json_file(tmp_path):
    from rewrite_groups.catalog import catalog
    from rewrite_groups.replacement import system_to_json

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(catalog("airplane"))))
    code, out, _ = run(["validate", "--system", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["undirected_colors"] == ["b"]


def test_loop_color_on_a_non_loop_is_a_computation_error(tmp_path):
    from rewrite_groups.catalog import catalog
    from rewrite_groups.replacement import normalize_loops, system_to_json

    # basilica~ with its base loop R of the loop-kind color 1~ given two ends
    data = system_to_json(normalize_loops(catalog("basilica")))
    data["base"]["vertices"].append("b1")
    data["base"]["edges"][1]["dst"] = "b1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for command in (["validate"], ["expand", "--depth", "2"]):
        code, out, err = run(command + ["--system", str(path)])
        assert code == 3 and out == "" and "MalformedSystem" in err, command


def test_expand_dendrite_depth_five():
    code, out, _ = run(["expand", "--system", "dendrite:3", "--depth", "5"])
    assert code == 0
    cells = out.strip().split("\n")
    assert len(cells) == 729 and len(set(cells)) == 729


def test_conj_under_python_optimize(tmp_path, x0_file, x1_file):
    """With asserts stripped (-O), conj still prints only a verified conjugator."""
    from pathlib import Path

    from rewrite_groups.rearrangement import conjugate_by, rearrangement_from_json

    F, x0, x1 = f_generators()
    h = conjugate_by(x0, x1)
    h_file = tmp_path / "h.json"
    h_file.write_text(json.dumps(h.to_json()))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def conj(g_path, h_path):
        return subprocess.run(
            [sys.executable, "-O", "-m", "rewrite_groups.cli", "conj", "--system",
             "interval_F", g_path, h_path, "--json"],
            capture_output=True, text=True, env=env,
        )

    proc = conj(x0_file, str(h_file))
    assert proc.returncode == 0, proc.stderr
    k = rearrangement_from_json(F, json.loads(proc.stdout)["conjugator"])
    assert conjugate_by(x0, k) == h
    proc = conj(x0_file, x1_file)
    assert proc.returncode == 1 and json.loads(proc.stdout) == {"conjugate": False}


def test_bugs_are_not_computation_errors(monkeypatch):
    from rewrite_groups import cli

    def broken(args):
        raise TypeError("a bug, not a verdict")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    with pytest.raises(TypeError, match="a bug"):
        run(["validate", "--system", "airplane"])


def test_word_outside_the_language_is_a_computation_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"phi": [[["s", "0"], ["s", "0"]], [["s", "2"], ["s", "1"]]]}))
    code, _, err = run(["invert", "--system", "interval_F", str(p)])
    assert code == 3 and "KeyError" in err


def test_stabilizer_cells_outside_the_language_are_a_computation_error():
    code, out, _ = run(["stabilizer", "--system", "interval_F", "--vertex", "s 0/t",
                        "--cells", "s 0"])
    assert code == 0 and json.loads(out)["base"]
    code, _, err = run(["stabilizer", "--system", "interval_F", "--vertex", "s 0/t",
                        "--cells", "s x"])
    assert code == 3 and "KeyError" in err


@pytest.mark.parametrize("data", [
    {"phi": 5}, {}, {"phi": [[["s", "0"]]]}, {"phi": [[[0], [1]]]}, {"phi": [{"s": "0"}]},
], ids=["phi_not_a_list", "no_phi", "entry_without_image", "letters_not_strings",
        "entry_not_a_list"])
def test_element_of_the_wrong_shape_is_usage_error(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert _is_usage_error(*run(["invert", "--system", "interval_F", str(path)]), str(path))


def _wrong_shapes():
    from rewrite_groups.catalog import catalog
    from rewrite_groups.replacement import system_to_json

    good = system_to_json(catalog("interval_F"))
    color = good["colors"][0]["name"]

    def edited(edit):
        data = json.loads(json.dumps(good))
        edit(data)
        return data

    return {
        "colors_not_a_list": dict(good, colors=5),
        "base_not_a_graph": dict(good, base=[]),
        "rules_not_a_dict": dict(good, rules=[]),
        "edge_end_not_a_string": edited(lambda d: d["rules"][color]["edges"][0].update(src=3)),
        "no_boundary": edited(lambda d: d["rules"][color].pop("boundary")),
        "unknown_boundary_kind": edited(
            lambda d: d["rules"][color].update(boundary={"kind": "star"})),
    }


@pytest.mark.parametrize("shape", sorted(_wrong_shapes()))
def test_system_of_the_wrong_shape_is_usage_error(tmp_path, shape):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_wrong_shapes()[shape]))
    assert _is_usage_error(*run(["validate", "--system", str(path)]), str(path))


def test_unwritable_output_is_usage_error(tmp_path, x0_file):
    out = str(tmp_path)  # a directory
    assert _is_usage_error(*run(["dot", "--system", "interval_F", "--out", out]), out)
    assert _is_usage_error(*run(["dot", "--system", "interval_F", "--g", x0_file, "--out", out]),
                           out)
    assert _is_usage_error(*run(["expand", "--system", "interval_F", "--depth", "2",
                                 "--dot", out]), out)


@pytest.mark.parametrize("spec", ["dendrite_generalized:3:4", "dendrite:-1", "rabbit:1,2"])
def test_bad_catalog_parameters_are_usage_errors(spec):
    code, out, err = run(["validate", "--system", spec])
    assert code == 2 and out == "" and "Error:" not in err


def test_catalog_dump_without_a_system_is_usage_error():
    code, out, err = run(["catalog", "dump"])
    assert code == 2 and "--system" in err
