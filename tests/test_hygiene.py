"""Repository hygiene: no assert-based verification in the library, one
size gate, every demo runs to completion with its pinned stdout, README's
quickstart runs as written, every library name the benchmark reaches
exists, every call of the benchmark's plan exits 0 and passes its checks,
and no library callable or dataclass field is there for the tests
alone."""

import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import mutants
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
    # so every GeneratorSet's members are distinct, as GeneratorSet.classes assumes
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


def _is_set_field(node) -> bool:
    """Is ``node`` a ``.members`` or ``.reps`` attribute?"""
    return isinstance(node, ast.Attribute) and node.attr in ("members", "reps")


def test_generator_set_fields_are_not_converted():
    # a GeneratorSet's reps and members are read-only int64 arrays already,
    # so np.array, np.asarray or .tolist() on one, or a second copy named
    # member_array, is a round trip
    lines = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            named = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            func = getattr(node, "func", None)
            called = getattr(func, "id", getattr(func, "attr", None))
            if (named == "member_array"
                    or called in ("array", "asarray") and any(map(_is_set_field, node.args))
                    or called == "tolist" and _is_set_field(getattr(func, "value", None))):
                lines.append(f"{path.name}:{node.lineno}")
    assert lines == [], f"GeneratorSet fields converted or copied at {lines}"


def test_each_mutant_snippet_occurs_once():
    # tests/mutants.py applies each snippet's replacement in a copy of src/;
    # a snippet a refactor removed, or one that occurs twice, mutates nothing
    # or the wrong place, and a named test that is gone catches nothing
    for name, mutant in mutants.MUTANTS.items():
        source = mutants.module_path(ROOT, mutant).read_text()
        assert source.count(mutant.snippet) == 1, name
        assert mutant.replacement != mutant.snippet and mutant.tests, name
        for test in mutant.tests:
            path, func = test.split("::")
            assert f"\ndef {func}(" in (ROOT / path).read_text(), (name, test)


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


def test_two_tolerances():
    # every float comparison of a character sum or an eigenvalue is within
    # SUM_TOL, the FFT check too; the sumset layers round within their own
    tols = {target.id for path in SOURCES
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name) and target.id.endswith("_TOL")}
    assert tols == {"SUM_TOL", "INTEGRALITY_TOL"}


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


def test_readme_quickstart_runs_as_written():
    # each statement of README's Library quickstart runs in order; one
    # followed by a comment on its line is an expression whose value, an
    # array read with tolist(), must equal the comment
    text = (ROOT / "README.md").read_text().split("## Library quickstart\n", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines, scope, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        rest = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and rest.startswith("#"):
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            got = got.tolist() if hasattr(got, "tolist") else got
            assert got == ast.literal_eval(rest[1:].strip()), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    assert checked == 4


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


# Runs every workload of perfbench/workloads.py once, as its child process
# does: prepare the inputs, call quasilee.cli.main for each warm-up and
# round op with --out, then check the outputs with perfbench's own oracles
BENCH_PLAN = """
import json, sys
from pathlib import Path
root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import oracles, workloads
from quasilee import cli
report = {"oracles": oracles.__file__, "exits": [], "faults": {}}
for name, make in workloads.WORKLOADS.items():
    wl, home = make(), work / name
    home.mkdir()
    plan = wl.prepare(1, home)
    for op in plan["warmup"] + plan["round"]:
        saved = sys.stdin
        sys.stdin = open(op["stdin"]) if op["stdin"] else saved
        try:
            rc = cli.main(op["argv"] + ["--out", op["out"]])
        finally:
            if sys.stdin is not saved:
                sys.stdin.close()
            sys.stdin = saved
        report["exits"].append([op["argv"], rc])
    report["faults"][name] = wl.check(plan, home)
print(json.dumps(report))
"""


def _tree_state(top: Path) -> dict:
    return {str(path): (path.stat().st_size, path.stat().st_mtime_ns)
            for path in sorted(top.rglob("*"))}


def test_benchmark_plan_runs_clean(tmp_path):
    # each warm-up and round op of every workload exits 0 and passes the
    # workload's checks; the benchmark refuses a run whose op exits 1
    before = _tree_state(ROOT / "perfbench")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="")
    res = subprocess.run([sys.executable, "-c", BENCH_PLAN, str(ROOT), str(tmp_path)],
                         env=env, cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])
    assert Path(report["oracles"]).parent == ROOT / "perfbench"
    assert len(report["exits"]) > 10
    assert [argv for argv, rc in report["exits"] if rc != 0] == []
    assert report["faults"] == {name: [] for name in ("verify", "decode", "cayley", "lemmas")}
    assert _tree_state(ROOT / "perfbench") == before


def _uses(path) -> dict:
    """What the file at ``path`` refers to, by the kind of reference:
    ``names`` holds names, attributes, imported names and identifier
    strings such as the entries of ``TRACED``; ``members`` only the
    attributes and the strings, the ways to reach a method or a property;
    ``read`` the attributes loaded and the keyword names.  A use inside the
    definition of the same name does not count, nor do the export lists of
    ``quasilee/__init__.py``.  Parsed from the text, so nothing is written."""
    uses = {"names": set(), "members": set(), "read": set()}
    exports = path == ROOT / "src" / "quasilee" / "__init__.py"

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        kinds, found = (), []
        if isinstance(node, ast.Name):
            kinds, found = ("names",), [node.id]
        elif isinstance(node, ast.Attribute):
            kinds, found = ("names", "members"), [node.attr]
            if isinstance(node.ctx, ast.Load):
                kinds += ("read",)
        elif isinstance(node, ast.keyword) and node.arg:
            kinds, found = ("read",), [node.arg]
        elif isinstance(node, ast.ImportFrom) and not exports:
            kinds, found = ("names",), [alias.name for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            kinds, found = ("names", "members"), [node.value.rsplit(".", 1)[-1]]
        for kind in kinds:
            uses[kind].update(name for name in found if name not in defining)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text()), frozenset())
    return uses


def _own_names(path) -> set:
    """The names the file at ``path`` defines for itself: its functions,
    classes and parameters, the attributes it assigns, the dests of its
    argparse options, and the string keys of its dicts, written as dict
    literals, as subscripts or as keywords of ``dict`` and ``update``."""
    own = set()
    for node in ast.walk(ast.parse(path.read_text())):
        keys = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.arg):
            own.add(node.arg)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
        elif isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        elif isinstance(node, ast.Call):
            func = getattr(node.func, "attr", getattr(node.func, "id", None))
            if func in ("dict", "update"):
                own.update(kw.arg for kw in node.keywords if kw.arg)
            elif func == "add_argument":
                keys = [ast.Constant(a.value.lstrip("-").replace("-", "_"))
                        for a in node.args if isinstance(a, ast.Constant)]
                keys += [kw.value for kw in node.keywords if kw.arg == "dest"]
        own.update(k.value for k in keys
                   if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return own


def _library_definitions() -> list:
    """(key, name, kind of use that counts) for every module function and
    class of the library ("names"), every method and property of its
    classes other than dunders ("members"), and every field of its
    dataclasses ("read")."""
    defs = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((f"{path.stem}.{node.name}", node.name, "names"))
            if not isinstance(node, ast.ClassDef):
                continue
            data = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body:
                key = f"{path.stem}.{node.name}."
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    defs.append((key + item.name, item.name, "members"))
                elif data and isinstance(item, ast.AnnAssign):
                    defs.append((key + item.target.id, item.target.id, "read"))
    return defs


def test_no_library_name_serves_only_the_tests():
    # a callable is there for the library or the benchmark: the demos call
    # the library, they do not keep a name in it; a dataclass field is there
    # for a reader outside the tests, and the demos count as readers.  A
    # name the benchmark defines for itself (an option, a plan key, a
    # parameter) is its own, so its uses there reach nothing in the library
    assert BENCH
    own = set().union(*map(_own_names, BENCH))
    used = {"names": set(), "members": set(), "read": set()}
    for path in SOURCES + BENCH + DEMOS:
        for kind, found in _uses(path).items():
            if kind == "read" or path not in DEMOS:
                used[kind] |= found - own if path in BENCH else found
    unused = [key for key, name, kind in _library_definitions()
              if name not in used[kind]]
    assert unused == [], ("used only by tests or demos (move them to "
                          "tests/oracles.py), or fields only tests read")
