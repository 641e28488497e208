"""Repository hygiene: no assert-based verification in the library, and
every demo runs to completion."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "quasilee").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_sources_found():
    assert SOURCES and len(DEMOS) == 4


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    # python -O strips assert statements, so no check may rest on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
