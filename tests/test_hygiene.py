"""Repository hygiene: no assert-based verification in the library, one
size gate, every demo runs to completion with its pinned stdout, every
library name the benchmark reaches exists, and no library function or
class is there for the tests alone."""

import ast
import hashlib
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quasilee

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "quasilee").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def test_sources_found():
    assert SOURCES and len(DEMOS) == 4


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    # python -O strips assert statements, so no check may rest on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _raises_size_cap(node) -> bool:
    """Is ``node`` a ``raise SizeCapError(...)``, by bare or dotted name?"""
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "SizeCapError"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_check_ambient_raises_size_cap_error(path):
    # every stage refuses a size through fields.check_ambient, so that one
    # gate and one message serve the library and the CLI alike
    tree = ast.parse(path.read_text(), filename=str(path))
    gate = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "check_ambient"
            for node in ast.walk(fn)}
    lines = [node.lineno for node in ast.walk(tree)
             if _raises_size_cap(node) and id(node) not in gate]
    assert lines == [], f"{path.name} raises SizeCapError at lines {lines}"


def test_only_from_representatives_constructs_a_generator_set():
    # one constructor builds reps and -reps and refuses zero or a collision,
    # so every GeneratorSet's members are distinct, as curve_classes assumes
    lines = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        home = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "from_representatives"
                for node in ast.walk(fn)}
        lines += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in home
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "GeneratorSet"]
    assert lines == [], f"GeneratorSet(...) called outside from_representatives: {lines}"


def test_two_size_caps():
    # every stage's memory is bounded by the chunk budget, so a cap bounds
    # only work: the ambient one and the cap of the q^2-array routes
    caps = {target.id for path in SOURCES
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)
            and re.fullmatch(r"\w*_CAP|MAX_\w*_VERTICES", target.id)}
    assert caps == {"AMBIENT_CAP", "VERTEX_CAP"}


# sha256 of each demo's stdout; the demos are deterministic, and 01 and 03
# print Gauss and Kloosterman values
DEMO_STDOUT_SHA256 = {
    "01_field_tour.py":
        "0fa5d7f9a067abe1d358a403f3062f9ddaaeb8807e7da91d6f7373e54c4b8b93",
    "02_curve_families.py":
        "25fa8802a4e3aca4d8d75893aed7d007682a707e42341cc20f346fe32dc2c7d7",
    "03_ramanujan_spectra.py":
        "6ece75498fab6884f8dbdaa94dbe5b9293913c2eb503868b49d7a58900c57807",
    "04_decode_walkthrough.py":
        "80021230f55a3c3d9cb20045c5a77dbe16602dd6b672ed1070eee795435cea38",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(path):
    """Each demo exits 0 and prints exactly its pinned stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                         capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == DEMO_STDOUT_SHA256[path.name]


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


def _names_used_outside_tests() -> set:
    """Every name that the library, the demos and perfbench reach: names,
    attributes, imported names and identifier strings such as the entries
    of ``TRACED``.  The export lists of ``quasilee/__init__.py`` do not
    count.  Files are parsed from their text, so nothing is written."""
    used = set()
    for path in SOURCES + DEMOS + BENCH:
        exports = path == ROOT / "src" / "quasilee" / "__init__.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not exports:
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[\w.]+", node.value)):
                used.add(node.value.rsplit(".", 1)[-1])
    return used


def test_no_library_name_serves_only_the_tests():
    assert BENCH
    used = _names_used_outside_tests()
    unused = [f"{path.stem}.{node.name}" for path in SOURCES
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == [], "used only by tests (move them to tests/oracles.py)"
