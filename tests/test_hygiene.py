"""Repository hygiene: no assert-based verification in the library, every
demo runs to completion, and every library name the benchmark reaches
exists."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quasilee

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


def _perfbench_layers():
    """perfbench/layers.py as a module, compiled from its text so that
    nothing is written under perfbench/."""
    path = ROOT / "perfbench" / "layers.py"
    mod = types.ModuleType("perfbench_layers")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod, ast.parse(path.read_text())


def test_benchmark_names_resolve():
    layers, tree = _perfbench_layers()
    for modname, names in layers.TRACED.items():
        home = importlib.import_module(f"quasilee.{modname}")
        for name in names:
            assert callable(getattr(home, name, None)), f"quasilee.{modname}.{name}"
    for name in ("pair_add", "kloosterman", "sumset", "syndrome", "decode"):
        assert callable(getattr(quasilee, name, None)), name
    assert callable(quasilee.QuadExt.mul)
    # every quasilee.<name> that the module reaches, through the alias q in
    # _micro, _stage_calls and _probe or by its full name
    reached = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("q", "quasilee")}
    assert {"sumset", "code_parameters", "round_trip_check"} <= reached
    missing = sorted(name for name in reached if not hasattr(quasilee, name))
    assert missing == []
