"""Checks that must hold under ``python -O`` as well: no ``assert`` in the library."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import f_generators

from rewrite_groups import strand as sd

SRC = Path(__file__).resolve().parent.parent / "src"


def _split_missing_an_out_port() -> dict:
    """JSON of x0's strand diagram with one strand leaving a split removed."""
    _F, x0, _ = f_generators()
    data = sd.strand_to_json(sd.from_rearrangement(x0))
    splits = {n["id"] for n in data["nodes"] if n["kind"][0] == "split"}
    cut = next(s for s in data["strands"] if s["src"][0] in splits)
    data["strands"].remove(cut)
    return data


def test_strand_json_with_missing_port_is_rejected():
    F, _, _ = f_generators()
    with pytest.raises(sd.NotXDiagram):
        sd.strand_from_json(F, _split_missing_an_out_port())


def test_strand_json_with_missing_port_is_rejected_under_optimize():
    script = (
        "import json, sys\n"
        "from rewrite_groups.catalog import catalog\n"
        "from rewrite_groups.strand import NotXDiagram, strand_from_json\n"
        "try:\n"
        "    strand_from_json(catalog('interval_F'), json.load(sys.stdin))\n"
        "except NotXDiagram:\n"
        "    print('rejected')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=json.dumps(
        _split_missing_an_out_port()), capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_library_has_no_assert_statements():
    """``python -O`` strips asserts, so the library checks with exceptions only."""
    found = []
    for path in sorted((SRC / "rewrite_groups").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
