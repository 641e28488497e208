"""Named mutants of the library, each of which some test must catch.

A mutant names the module of ``src/quasilee`` it edits, an exact snippet
of that module, the snippet's replacement, and the tests expected to fail
once the replacement is made.  ``tests/test_hygiene.py`` checks that each
snippet occurs exactly once in its module and that each named test
exists, so a refactor that removes a snippet must update or retire its
mutant.

Run as a script, this applies each mutant in turn to a temporary copy of
``src/`` (with ``tests/`` and ``pyproject.toml`` beside it), runs the
mutant's tests there with ``-x``, and reports the mutants whose tests all
passed, the survivors.  It first runs every named test on an unmutated
copy, which must pass.  It is not part of the tier-1 suite:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [NAME]  # the named ones

It exits 0 when every mutant is caught, 1 when one survives, and 2 when
the unmutated copy fails or a run ends in a pytest error.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).parents[1]


@dataclass(frozen=True)
class Mutant:
    module: str  # a module of src/quasilee, without .py
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = {
    # the generator's orbit accepted when it merely holds 1, as every orbit
    # does: the first candidate g = p is taken whatever its order
    "orbit-merely-holds-1": Mutant(
        "fields", "return exp if np.count_nonzero(exp == 1) == 1 else None",
        "return exp if (exp == 1).any() else None",
        ("tests/test_fields.py::test_extension_fields_frozen",)),
    # every read of a set's classes builds them again
    "classes-rebuilt-per-read": Mutant(
        "curves", "    @cached_property\n    def classes(self):",
        "    @property\n    def classes(self):",
        ("tests/test_curves.py::test_classes_are_built_once_and_read_only",
         "tests/test_cli.py::test_each_generator_set_builds_its_classes_once")),
    # the class sizes, shared by every stage, left writable
    "class-sizes-writable": Mutant(
        "curves", "CurveClasses(ctx, _frozen(reps), _frozen(sizes), keys)",
        "CurveClasses(ctx, _frozen(reps), sizes, keys)",
        ("tests/test_curves.py::test_classes_are_built_once_and_read_only",)),
    # p = 3 reaches the field before classify refuses it
    "p3-after-the-field": Mutant(
        "cli", "if classified and args.p == 3:", "if False:",
        ("tests/test_cli.py::test_p3_is_refused_before_the_field_is_built",)),
    # out of memory escapes main as a traceback
    "out-of-memory-uncaught": Mutant(
        "cli", "except MemoryError as exc:", "except ZeroDivisionError as exc:",
        ("tests/test_cli.py::test_out_of_memory_is_a_precondition_error",)),
    # the half transform sums the members of digit 1 = p // 2 + 1 as well
    "digit-1-bound": Mutant(
        "curves", "members[members // p % p < half]", "members[members // p % p <= half]",
        ("tests/test_curves.py::test_real_indicator_fft_matches_the_complex_route",)),
    # a set with H != -H transformed as if it were closed under negation
    "no-negation-check": Mutant(
        "curves", "if not np.array_equal(np.sort(pair_neg(self.base, members)), members):",
        "if False:",
        ("tests/test_curves.py::"
         "test_indicator_fft_refuses_a_set_not_closed_under_negation",)),
    # the members' x and y swapped in the class step
    "class-step-hx-hy-swapped": Mutant(
        "sumsets", "hx, hy = wide[members % q], wide[members // q]",
        "hy, hx = wide[members % q], wide[members // q]",
        ("tests/test_sumsets.py::test_class_layers_match_the_rfftn_of_the_indicator",)),
    # the BFS's y sum read from _low, not q * _low
    "bfs-low-for-low-q": Mutant(
        "codes", "out = low_q.take(wide.take(y)[:, None] + wide_y)",
        "out = low.take(wide.take(y)[:, None] + wide_y)",
        ("tests/test_codes.py::test_bfs_tree_is_pinned",)),
    # the pairing's y term read with the x logs
    "class-counts-bx-for-by": Mutant(
        "spectra", "sums += wide_exp[logs[:, 1:] + by]", "sums += wide_exp[logs[:, 1:] + bx]",
        ("tests/test_spectra.py::test_class_counts_match_the_member_route",)),
    # from_representatives aliases (and freezes) the caller's array
    "representatives-aliased": Mutant(
        "curves", "reps = _frozen(np.array(reps, dtype=np.int64))",
        "reps = _frozen(np.asarray(reps, dtype=np.int64))",
        ("tests/test_curves.py::test_every_route_makes_read_only_int64_arrays",)),
    # the members left writable
    "members-writable": Mutant(
        "curves", "_frozen(np.sort(np.concatenate((reps, neg))))",
        "np.sort(np.concatenate((reps, neg)))",
        ("tests/test_curves.py::test_every_route_makes_read_only_int64_arrays",)),
    # the dump's zip takes an eigenvalue before it finds a chunk's counts
    # spent, so each later chunk's rows shift by one eigenvalue
    "dump-eigenvalue-first": Mutant(
        "cli", "for r, eig in zip(counts.tolist(), eigs)",
        "for eig, r in zip(eigs, counts.tolist())",
        ("tests/test_cli.py::test_spectrum_dump_csv_pinned",)),
    # the dump numbers each block of y from alpha = 0 again
    "dump-alpha-restarted": Mutant(
        "cli", "enumerate(keys, ys.start * gen.q)", "enumerate(keys)",
        ("tests/test_cli.py::test_spectrum_dump_csv_pinned",)),
    # a round trip through a copy of a set's members, and of its reps
    "members-converted": Mutant(
        "sumsets", "gen.q, gen.base._wide, gen.members, gen.classes",
        "gen.q, gen.base._wide, np.asarray(gen.members), gen.classes",
        ("tests/test_hygiene.py::test_generator_set_fields_are_not_converted",)),
    "reps-converted": Mutant(
        "codes", "beta = matrix.generator.reps",
        "beta = np.array(matrix.generator.reps.tolist())",
        ("tests/test_hygiene.py::test_generator_set_fields_are_not_converted",)),
}


def module_path(root: Path, mutant: Mutant) -> Path:
    return root / "src" / "quasilee" / f"{mutant.module}.py"


def _copy(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _pytest(root: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp) / "clean")
        tests = sorted({t for name in names for t in MUTANTS[name].tests})
        if _pytest(clean, tests) != 0:
            print("error: the unmutated copy fails the mutants' tests", file=sys.stderr)
            return 2
        survivors, errors = [], []
        for name in names:
            mutant = MUTANTS[name]
            root = _copy(Path(tmp) / name)
            path = module_path(root, mutant)
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
            # pytest exits 1 when a test failed, 0 when all passed
            code = _pytest(root, mutant.tests)
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"pytest exit {code}")
            if code == 0:
                survivors.append(name)
            elif code != 1:
                errors.append(name)
            print(f"{verdict:>14}  {name}", flush=True)
    print(f"{len(names) - len(survivors) - len(errors)}/{len(names)} caught, "
          f"{len(survivors)} survived, {len(errors)} errors "
          f"in {time.perf_counter() - start:.1f} s")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    unknown = [n for n in sys.argv[1:] if n not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {unknown}; known: {sorted(MUTANTS)}")
    sys.exit(main(sys.argv[1:] or list(MUTANTS)))
