"""End-to-end command-line checks, run in process via main()."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import oracles
import pytest

from quasilee import cli, codes, curves, fields
from quasilee.cli import main
from quasilee.codes import coset_leader_table, parity_check_matrix
from quasilee.curves import generator_set
from quasilee.fields import (VERTEX_CAP, SizeCapError, index_digits, is_prime,
                             make_field, pair_neg)
from quasilee.lemmas import lemma_battery


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit code contract ----------------------------------------------------------

def test_admissible_text(capsys):
    code, out, err = run(capsys, "admissible", "--p", "5", "--family", "minus")
    assert code == 0 and err == ""
    assert "admissible=no" in out
    assert "q = 5 <= 12" in out


def test_admissible_json(capsys):
    code, out, _ = run(capsys, "admissible", "--p", "13", "--family", "plus",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["admissible"] is True


def test_nonprime_p_is_precondition_error(capsys):
    code, out, err = run(capsys, "subset", "--p", "9", "--family", "plus")
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "subset", "--family", "plus")
    assert code == 1
    assert "--p is required" in err


def test_usage_errors_map_to_exit_1(capsys):
    assert run(capsys, "subset", "--p", "13", "--family", "wrong")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def _numpy_out_of_memory():
    # 4 EiB: past every address space, so the allocation fails at once
    np.empty(1 << 62, dtype=np.uint8)


def _plain_out_of_memory():
    raise MemoryError


@pytest.mark.parametrize("raiser", [_plain_out_of_memory, _numpy_out_of_memory])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_out_of_memory_is_a_precondition_error(capsys, monkeypatch, command, raiser):
    # each handler swapped for one that runs out of memory: one error line,
    # exit 1, nothing on stdout, no traceback
    monkeypatch.setitem(cli._COMMANDS, command,
                        (lambda args: raiser(), cli._COMMANDS[command][1]))
    code, out, err = run(capsys, command)
    assert (code, out) == (1, "")
    assert err.startswith("error: precondition: out of memory")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["subset", "code-gen", "code-verify"])
def test_p3_is_refused_before_the_field_is_built(capsys, monkeypatch, command):
    # the commands that classify refuse p = 3 with classify's message and
    # build no field (3^8 takes a quarter second); --cap is checked before,
    # and p = 2 or a non-prime p get the field's own error, as before
    built = []
    init = fields.FieldCtx.__init__

    def counted(self, p, k):
        built.append((p, k))
        init(self, p, k)
    monkeypatch.setattr(fields.FieldCtx, "__init__", counted)
    argv = [command, "--family", "plus", "--k"]
    assert run(capsys, *argv, "8", "--p", "3") == \
        (1, "", "error: precondition: classification requires p >= 5\n")
    assert built == []
    assert run(capsys, *argv, "8", "--p", "3", "--cap", "1000")[2] == \
        "error: precondition: q^2 exceeds cap 1000: p^7 already does\n"
    assert run(capsys, *argv, "1", "--p", "2")[2] == \
        "error: precondition: p must be an odd prime\n"
    assert run(capsys, *argv, "1", "--p", "9")[2] == \
        "error: precondition: p = 9 is not prime\n"
    assert built == [(2, 1), (9, 1)]


@pytest.fixture
def p13_matrix_file(tmp_path):
    mat = tmp_path / "m.txt"
    assert main(["code-gen", "--p", "13", "--family", "plus",
                 "--out", str(mat)]) == 0
    return str(mat)


@pytest.mark.parametrize("argv", [
    ["admissible", "--p", "13", "--family", "plus"],
    ["subset", "--p", "13", "--family", "plus"],
    ["spectrum", "--p", "13", "--family", "plus"],
    ["code-gen", "--p", "13", "--family", "plus"],
    ["code-verify", "--p", "13", "--family", "plus"],
    ["code-verify", "--matrix", None],
    ["decode", "--p", "13", "--family", "plus"],
    ["decode", "--matrix", None],
    ["lemma-suite", "--p", "13"],
], ids=["admissible", "subset", "spectrum", "code-gen", "code-verify",
        "code-verify-matrix", "decode", "decode-matrix", "lemma-suite"])
def test_ambient_cap_applies_to_every_subcommand(capsys, monkeypatch,
                                                 p13_matrix_file, argv):
    # q^2 = 169 exceeds --cap 100 whether q comes from flags or a matrix file
    argv = [p13_matrix_file if a is None else a for a in argv]
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0 0 0 0 0\n"))
    code, out, err = run(capsys, *argv, "--cap", "100")
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert "exceeds cap 100" in err


@pytest.mark.parametrize("command", ["code-verify", "decode"])
@pytest.mark.parametrize("text", [
    "# comment\n\n13 1 2 plus\n1 12\n0 0\n",
    '{"p": 13, "k": 1, "n": 2, "family": "plus", "rows": [[1, 12], [0, 0]]}',
], ids=["text", "json"])
def test_matrix_meets_the_cap_before_the_parse(capsys, monkeypatch, tmp_path,
                                               command, text):
    # representatives that collide under negation, at q^2 = 169 > --cap 100:
    # the cap is the refusal named, before any field is built
    def no_field(*args):
        raise AssertionError("a field was built before the cap")

    monkeypatch.setattr(codes, "make_field", no_field)
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, err = run(capsys, command, "--matrix", str(path), "--cap", "100")
    assert (code, out) == (1, "")
    assert err.startswith("error: precondition:") and "exceeds cap 100" in err


SUBCOMMANDS = ["admissible", "subset", "spectrum", "code-gen", "code-verify",
               "decode", "lemma-suite"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("gate_args", [
    ["--p", "8209", "--cap", "1000000000"],      # --cap may not raise 2^26
    ["--p", "8209", "--k", "2", "--cap", str(10 ** 12)],  # nor name a higher cap
    ["--p", "1000000000000000003"],              # no trial division first
    ["--p", "13", "--k", "3000"],                # q^2 has 6 684 digits
    ["--p", "13", "--k", "30000000"],            # p^(2k) is never computed
], ids=["cap-above-default", "cap-above-default-k2", "huge-p", "k-3000", "k-30000000"])
def test_ambient_gate_refuses_at_once(capsys, monkeypatch, command, gate_args):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    start = time.perf_counter()
    code, out, err = run(capsys, command, *gate_args, "--family", "plus")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    # every subcommand applies the ambient cap first; the routes with a
    # lower cap are not reached
    assert f"exceeds cap {1 << 26}" in err
    assert len(err) < 200


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("p", ["0", "1", "-1"])
def test_ambient_gate_passes_small_p_to_primality_at_once(capsys, monkeypatch,
                                                          command, p):
    # |p|^(2k) never passes the cap, so the gate must not multiply k times
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--p", p, "--k", "30000000",
                         "--family", "plus")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert "is not prime" in err


@pytest.mark.parametrize("command", ["code-verify", "decode", "spectrum"])
def test_stage_gate_refuses_before_building(capsys, monkeypatch, tmp_path, command):
    # q^2 = 4093^2 passes the ambient gate but not the 2^20 limit of the
    # coset table's BFS or of the spectrum's q^2-line dump, which refuse
    # before any q^2-sized array is built
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    dump = tmp_path / "spectrum.csv"
    extra = ["--dump-csv", str(dump)] if command == "spectrum" else []
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--p", "4093", "--family", "plus", *extra)
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert f"exceeds cap {1 << 20}" in err
    assert not dump.exists()


def _first_refused_prime(cap):
    return min(p for p in range(3, 10 ** 4) if is_prime(p) and p * p > cap)


# the first prime whose q^2 the lemma battery's stage limit refuses
FIRST_REFUSED_LEMMA_PRIME = _first_refused_prime(VERTEX_CAP)


@pytest.mark.parametrize("p", [FIRST_REFUSED_LEMMA_PRIME, 8191])
def test_lemma_suite_stage_gate_refuses_before_allocating(capsys, p):
    # both pass the ambient gate; VERTEX_CAP bounds the battery's q^3 work
    start = time.perf_counter()
    code, out, err = run(capsys, "lemma-suite", "--p", str(p))
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert f"exceeds cap {VERTEX_CAP}" in err


def _coset_table(p):
    return coset_leader_table(parity_check_matrix(generator_set(make_field(p), "plus")))


# each subcommand's library stage, called at p, and the cap it applies
LIBRARY_STAGES = {
    "code-verify": (_coset_table, VERTEX_CAP),
    "decode": (_coset_table, VERTEX_CAP),
    "lemma-suite": (lambda p: lemma_battery(p, 1), 1 << 20),
}


@pytest.mark.parametrize("command", sorted(LIBRARY_STAGES))
def test_stage_refusal_reads_as_the_library_one(capsys, monkeypatch, command):
    # the CLI refuses through the same gate as the library stage it runs, so
    # at the first refused prime the two refusals say the same thing
    stage, cap = LIBRARY_STAGES[command]
    p = _first_refused_prime(cap)
    with pytest.raises(SizeCapError) as refused:
        stage(p)
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    code, out, err = run(capsys, command, "--p", str(p), "--family", "plus")
    assert code == 1 and out == ""
    assert err == f"error: precondition: {refused.value}\n"


def test_uncoverable_decode_is_verification_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    code, _, err = run(capsys, "decode", "--p", "3", "--family", "minus")
    assert code == 2
    assert err.startswith("error: verification:")
    assert "unassigned" in err


def test_decode_past_the_level_cap_is_verification_error(capsys, monkeypatch, tmp_path):
    # one representative (1, 0) over F_19: its 19 multiples are 9 steps
    # deep, so the BFS passes MAX_LAYERS with 361 - 17 syndromes unassigned
    path = tmp_path / "line.txt"
    path.write_text("19 1 1 plus\n1\n0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    code, out, err = run(capsys, "decode", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: verification: coset table exceeded 8 levels "
                   "with 344 syndromes unassigned\n")


# -- subset / spectrum -------------------------------------------------------------

def test_subset_text_p13(capsys):
    code, out, _ = run(capsys, "subset", "--p", "13", "--family", "plus")
    assert code == 0
    assert "layers: 1 15 113 169" in out
    assert "critical_index=2 limit_index=3 covered=yes" in out
    assert "verdict=QuasiPerfect2" in out


def test_subset_json_q9_minus(capsys):
    code, out, _ = run(capsys, "subset", "--p", "3", "--k", "2",
                       "--family", "minus", "--format", "json")
    assert code == 1  # classification needs p >= 5


def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "23", "--family", "minus")
    assert code == 0
    assert "classification=Ramanujan connected=yes" in out
    assert "7.96068718656697" in out


def test_spectrum_deterministic(capsys):
    a = run(capsys, "spectrum", "--p", "13", "--family", "plus",
            "--format", "json")
    b = run(capsys, "spectrum", "--p", "13", "--family", "plus",
            "--format", "json")
    assert a == b
    assert a[0] == 0


def test_spectrum_dump_csv(capsys, tmp_path):
    csv = tmp_path / "spectrum.csv"
    code, _, _ = run(capsys, "spectrum", "--p", "5", "--family", "plus",
                     "--dump-csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "alpha,eigenvalue,count_0,count_1,count_2,count_3,count_4"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 6.0
    assert sum(int(c) for c in first[2:]) == 6


# sha256 of the CSV written by the per-vertex count matrix that the class
# counts replaced
CSV_SHA256 = {
    ("13", "1", "plus"): "f11411a3cb806aec47170bd1ec9642756c52c31f632b6e415fa2acea9a16ef8f",
    ("5", "2", "minus"): "62d3c74c56e73c56c24e2a7f24e5769b4b84fee332ded53bdee734b5871929dc",
}


@pytest.mark.parametrize("p,k,family", sorted(CSV_SHA256))
def test_spectrum_dump_csv_pinned(capsys, monkeypatch, tmp_path, p, k, family):
    # CHUNK_ENTRIES = 1: one class a chunk of counts, one y a block of keys
    csv = tmp_path / "spectrum.csv"
    for entries in (fields.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        code, _, _ = run(capsys, "spectrum", "--p", p, "--k", k, "--family", family,
                         "--dump-csv", str(csv))
        assert code == 0
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        assert digest == CSV_SHA256[(p, k, family)]


# each command's generator sets: every stage reads its set's one CurveClasses
CLASS_BUILDS = {
    "subset": (["--p", "13", "--family", "plus"], 1),
    "spectrum": (["--p", "5", "--k", "2", "--family", "minus", "--dump-csv", "CSV"], 1),
    "code-gen": (["--p", "13", "--family", "minus"], 1),
    "code-verify": (["--p", "13", "--family", "plus"], 1),
    "decode": (["--p", "13", "--family", "plus"], 1),
    "lemma-suite": (["--p", "13"], 2),  # the circle and the hyperbola
}


@pytest.mark.parametrize("command", sorted(CLASS_BUILDS))
def test_each_generator_set_builds_its_classes_once(capsys, monkeypatch, tmp_path,
                                                    command):
    built = []
    real = curves.CurveClasses

    def counted(*args):
        built.append(args)
        return real(*args)
    monkeypatch.setattr(curves, "CurveClasses", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4 5 6 7\n"))
    argv, builds = CLASS_BUILDS[command]
    argv = [str(tmp_path / "dump.csv") if a == "CSV" else a for a in argv]
    code, _, err = run(capsys, command, *argv)
    assert (code, err) == (0, "")
    assert len(built) == builds


# p = 13, plus, with the last column moved off the circle to (8, 6): a
# symmetric generator set that is not its curve, so its layers take the FFT
OFF_CURVE_MATRIX = "13 1 7 plus\n1 4 9 3 10 5 8\n0 1 1 2 2 5 6\n"

# Each snippet breaks one computation so that its cross-check must fire:
# (snippet, command line, words of the error message).  MATRIX stands for a
# file holding OFF_CURVE_MATRIX.
INJECTED = {
    # the class of each character taken from its neighbour's: the trivial
    # eigenvalue and the FFT check catch it
    "spectrum": ("import quasilee.curves as c\n"
                 "of = c.CurveClasses.of\n"
                 "c.CurveClasses.of = lambda self, x, y: np.roll(of(self, x, y), 1)\n",
                 ["spectrum", "--p", "13", "--family", "plus"], "eigenvalue"),
    # one class size one too large at q^2 > 2^20, where only the two
    # identities check the classes: the exact count identity fails (the
    # sizes are read-only, so the grown ones are a copy)
    "spectrum-1031": ("import dataclasses\n"
                      "import quasilee.curves as c\n"
                      "classes = c.GeneratorSet.classes.func\n"
                      "def grown(gen):\n"
                      "    cls = classes(gen)\n"
                      "    sizes = cls.sizes.copy()\n"
                      "    sizes[1] += 1\n"
                      "    return dataclasses.replace(cls, sizes=sizes)\n"
                      "c.GeneratorSet.classes = property(grown)\n",
                      ["spectrum", "--p", "1031", "--family", "minus"],
                      "sum_c #c * counts[c, j]"),
    # the fold of the exact counts skewed off the trivial character: the
    # identity tr A^2 = q^2 * |H| fails
    "spectrum-1031-fold": ("import quasilee.spectra as s\n"
                           "unity = s.unity_cos_sin\n"
                           "def skewed(p):\n"
                           "    cos, sin = unity(p)\n"
                           "    return np.append(cos[:1], cos[1:] * 1.01), sin\n"
                           "s.unity_cos_sin = skewed\n",
                           ["spectrum", "--p", "1031", "--family", "plus"], "tr A^2"),
    # every class key one higher: the layers' double-counting identity fails
    "subset": ("import quasilee.curves as c\n"
               "of = c.CurveClasses.of\n"
               "c.CurveClasses.of = lambda self, x, y: (of(self, x, y) + 1) % len(self.sizes)\n",
               ["subset", "--p", "13", "--family", "plus"], "double-counting identity"),
    # one entry of the composed class table that the class steps read moved
    # to the next square: the layers' double-counting identity fails
    "subset-sum-keys": ("import quasilee.curves as c\n"
                        "sum_keys = c.CurveClasses.sum_keys.func\n"
                        "def shifted(self):\n"
                        "    x_sums, y_sums, classes = sum_keys(self)\n"
                        "    x_sums = x_sums.copy()\n"
                        "    x_sums[1] += 1\n"
                        "    return x_sums, y_sums, classes\n"
                        "c.CurveClasses.sum_keys = property(shifted)\n",
                        ["subset", "--p", "13", "--family", "plus"],
                        "double-counting identity"),
    # every convolution value moved 0.4 off its integer, on the FFT route
    "code-verify-matrix": ("inv = np.fft.irfftn\n"
                           "np.fft.irfftn = lambda a, **kw: inv(a, **kw) + 0.4\n",
                           ["code-verify", "--matrix", "MATRIX"], "from an integer"),
}


@pytest.mark.parametrize("command", sorted(INJECTED))
def test_injected_mismatch_exits_2_under_optimize(command, tmp_path):
    snippet, argv, message = INJECTED[command]
    matrix = tmp_path / "off_curve.txt"
    matrix.write_text(OFF_CURVE_MATRIX)
    argv = [str(matrix) if a == "MATRIX" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for fault, code in (("", 0), (snippet, 2)):
        script = ("import sys\nimport numpy as np\n" + fault
                  + "from quasilee.cli import main\n"
                  + f"sys.exit(main({argv!r}))\n")
        res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == code, res.stderr
    assert res.stderr.startswith("error: verification:")
    assert message in res.stderr
    assert res.stdout == ""


# -- code generation and verification ------------------------------------------------

def test_code_gen_text(capsys):
    code, out, _ = run(capsys, "code-gen", "--p", "13", "--family", "plus")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "13 1 7 plus"
    assert lines[1] == "1 4 9 3 10 5 8"
    assert lines[2] == "0 1 1 2 2 5 5"
    assert "# n=7 dimension=5 codewords=371293" in out
    assert "verdict=QuasiPerfect2" in out


def test_code_gen_json(capsys):
    code, out, _ = run(capsys, "code-gen", "--p", "23", "--family", "minus",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["dimension"] == 9
    assert d["codeword_count"] == 23 ** 9
    assert d["matrix"]["family"] == "minus"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_code_gen_prints_a_count_past_the_str_digit_limit(capsys, fmt):
    # 2609^1303 has 4 452 digits, past str()'s default limit of 4 300, which
    # the CLI lifts while it formats and then restores
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "code-gen", "--p", "2609", "--family", "plus",
                         "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            d = json.loads(out)
            assert d["codeword_count"] == 2609 ** d["dimension"] == 2609 ** 1303
        else:
            assert f"dimension=1303 codewords={2609 ** 1303} " in out
    finally:
        sys.set_int_max_str_digits(limit)


def test_code_verify_json_prints_a_count_past_the_str_digit_limit(capsys, tmp_path):
    # an off-curve matrix over F_125 with 1 000 random columns: 5^994 has
    # 695 digits, past str()'s limit lowered to 640, the least it takes
    ctx = make_field(5, 3)
    half = [z for z in range(1, ctx.q ** 2) if z < pair_neg(ctx, z)]
    reps = random.Random(0).sample(half, 1000)
    path = tmp_path / "m.txt"
    path.write_text("5 3 1000 plus\n" + "".join(
        " ".join(map(str, row.tolist())) + "\n"
        for row in index_digits(np.array(reps), 5, 6)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "code-verify", "--matrix", str(path),
                             "--format", "json")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)
        d = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert d["dimension"] == 994
    assert d["codeword_count"] == 5 ** d["dimension"]


def test_code_verify_direct(capsys):
    code, out, _ = run(capsys, "code-verify", "--p", "13", "--family", "plus")
    assert code == 0
    assert "quasi_perfect=yes" in out
    assert "round_trip: 200/200 seed=0" in out


@pytest.mark.parametrize("p,n", [(13, 7), (97, 49)])
def test_code_verify_unranks_each_rank_once(capsys, monkeypatch, p, n):
    # only the round trip unranks its ball, one rank per trial: the
    # verification takes t from the census and enumerates no ball
    balls, ranks = [], []

    def counted(*args):
        rows, support = real(*args)
        balls.append((args, rows))
        ranks.append([])

        def unrank(r):
            ranks[-1].extend(np.asarray(r).tolist())
            return support(r)
        return rows, unrank

    real = codes._unrank_ball
    monkeypatch.setattr(codes, "_unrank_ball", counted)
    code, out, _ = run(capsys, "code-verify", "--p", str(p), "--family", "plus")
    assert code == 0 and "round_trip: 200/200 seed=0" in out
    b2 = 2 * n * n + 2 * n + 1
    assert balls == [((n, p, 2), b2)]
    assert len(ranks[0]) == 200 and all(0 <= r < b2 for r in ranks[0])


# sha256 of code-verify's stdout before the Lee ball was enumerated by
# rank, when it was built whole: the ranked walk and the round trip's
# unranked picks must print the same bytes
CODE_VERIFY_ARGS = {
    "p13_plus": ["--p", "13", "--family", "plus"],
    "p13_plus_t20": ["--p", "13", "--family", "plus", "--trials", "20"],
    "p97_plus_s12345": ["--p", "97", "--family", "plus", "--seed", "12345"],
    "p5k3_minus_s12345": ["--p", "5", "--k", "3", "--family", "minus",
                          "--seed", "12345"],
    "p23_minus_t500_s7": ["--p", "23", "--family", "minus", "--trials", "500",
                          "--seed", "7"],
    "p7_minus": ["--p", "7", "--family", "minus"],  # R = 4, t = 1
    "p11_minus": ["--p", "11", "--family", "minus"],
    "matrix_p23_minus": ["--matrix", "{matrix}"],  # code-gen's text file
}
CODE_VERIFY_SHA256 = {
    ("p13_plus", "text"): "06dfcbad7bbdad2df03c1bd894fad6ce3f9c838b46bea5d57a3b91933e423e00",
    ("p13_plus", "json"): "d4f0f5c0bc2364514a1ec0b74a0662fce8d8ebd4ce693a58b1bd5be8b8022156",
    ("p13_plus_t20", "text"): "25b1388a406812805db6a980b87fc433b22a2f5ca595a5ecdd34baf65a65d896",
    ("p13_plus_t20", "json"): "e87132bace9d64d802858b26ad226a36fffe2046e941f32e6977691efb2f4779",
    ("p97_plus_s12345", "text"): "d6c3f15e317e94fb5844b6df1e518553351e63c8a02ea589e75393335abf739a",
    ("p97_plus_s12345", "json"): "f7d12bf8195e07f0db36990a7a478461354060dc77499593b5b6d809133ec6ed",
    ("p5k3_minus_s12345", "text"): "82c3ef0ac6c377aad766a27b826cb3130a0f6dec167e2de5a7dfd6bab4b3368b",
    ("p5k3_minus_s12345", "json"): "61da5636a30235f706822336482dd602ee5e8061ec6df8eb90dadbbeb220d451",
    ("p23_minus_t500_s7", "text"): "beb0938f7fcb6ff8b064c46c16102e276b774916c14756ff052922fa58852059",
    ("p23_minus_t500_s7", "json"): "7a57250dfc3cf22b95ee350c475d848ab7efd3c5639b8d2f636cfe7da7084a87",
    ("p7_minus", "text"): "d176013e1e75e0ddb11bbb7e029b1d51de24e27e5130fe1cb66d5cdd9a0655c8",
    ("p7_minus", "json"): "975b3bf23d10d83c9455d3e9236a52a7c81bf39f99b8d2a5ce6a86a9c79de9bb",
    ("p11_minus", "text"): "94e9c5a21ab8732e76554e29ddbcebc08ee783e714f91ac64aa4deca1db53d77",
    ("p11_minus", "json"): "02cb3c66cbb97541bbb80f46151e6859071799c2142e0f106716cefcbf8e5420",
    ("matrix_p23_minus", "text"): "d832b6365620acc21561d7c5455ab264e48a35b0de7772663830612b2c224d1b",
    ("matrix_p23_minus", "json"): "5e08f9977cd2391006a4f7264af112dc9f192dbbdbcafd57ac905fbd31b78b9e",
}


@pytest.mark.parametrize("name,fmt", sorted(CODE_VERIFY_SHA256))
def test_code_verify_pinned(capsys, tmp_path, name, fmt):
    matrix = tmp_path / "m.txt"
    assert run(capsys, "code-gen", "--p", "23", "--family", "minus",
               "--out", str(matrix))[0] == 0
    argv = [a.format(matrix=matrix) for a in CODE_VERIFY_ARGS[name]]
    code, out, err = run(capsys, "code-verify", *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CODE_VERIFY_SHA256[(name, fmt)]


@pytest.mark.parametrize("name", sorted(CODE_VERIFY_ARGS))
def test_code_verify_error_correction_is_the_largest_injective_ball(
        capsys, tmp_path, name):
    # the largest w <= min(3, R) with p >= 2w + 1 whose Lee ball the
    # syndrome map takes injectively, by the whole-ball oracle
    matrix = tmp_path / "m.txt"
    assert run(capsys, "code-gen", "--p", "23", "--family", "minus",
               "--out", str(matrix))[0] == 0
    argv = ["code-verify"] + [a.format(matrix=matrix) for a in CODE_VERIFY_ARGS[name]]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    d = json.loads(out)
    mat = cli._matrix(cli.build_parser().parse_args(argv))
    assert d["error_correction"] == d["table_error_correction"] == max(
        w for w in range(min(3, d["table_covering_radius"]) + 1)
        if mat.p >= 2 * w + 1 and oracles.ball_injective(mat, w))


def test_code_verify_roundtrip_through_text_file(capsys, tmp_path):
    mat = tmp_path / "m.txt"
    assert run(capsys, "code-gen", "--p", "13", "--family", "plus",
               "--out", str(mat))[0] == 0
    code, out, _ = run(capsys, "code-verify", "--matrix", str(mat),
                       "--trials", "50", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["quasi_perfect"] is True
    assert d["round_trip"] == {"ok": 50, "trials": 50, "seed": 0}


def test_code_verify_roundtrip_through_json_file(capsys, tmp_path):
    mat = tmp_path / "m.json"
    assert run(capsys, "code-gen", "--p", "23", "--family", "minus",
               "--format", "json", "--out", str(mat))[0] == 0
    # code-gen json wraps the matrix under "matrix"
    body = json.loads(mat.read_text())["matrix"]
    mat.write_text(json.dumps(body))
    code, out, _ = run(capsys, "code-verify", "--matrix", str(mat),
                       "--trials", "25")
    assert code == 0
    assert "quasi_perfect=yes" in out


def test_code_verify_missing_matrix_file(capsys, tmp_path):
    code, _, err = run(capsys, "code-verify", "--matrix",
                       str(tmp_path / "absent.txt"))
    assert code == 1
    assert err.startswith("error: precondition:")


def test_code_verify_negative_trials_is_precondition_error(capsys):
    code, out, err = run(capsys, "code-verify", "--p", "13", "--family", "plus",
                         "--trials", "-5")
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert "nonnegative" in err
    code, out, _ = run(capsys, "code-verify", "--p", "13", "--family", "plus",
                       "--trials", "0")
    assert code == 0
    assert "round_trip: 0/0 seed=0" in out


@pytest.mark.parametrize("command", ["decode", "code-verify"])
@pytest.mark.parametrize("body,field", [
    ({"p": 13, "k": 1, "n": 7}, "'family'"),
    ({"p": 13, "k": 1, "n": 7, "family": "plus", "rows": 5}, "'rows'"),
])
def test_malformed_json_matrix_is_precondition_error(capsys, monkeypatch,
                                                     tmp_path, command, body,
                                                     field):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(body))
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0 0 0 0 0\n"))
    code, out, err = run(capsys, command, "--matrix", str(mat))
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert field in err


@pytest.mark.parametrize("command", ["decode", "code-verify"])
@pytest.mark.parametrize("name,body", [
    ("m.json", json.dumps({"p": 5, "k": 1, "n": 0, "family": "plus",
                           "rows": [[], []]})),
    ("m.txt", "5 1 0 plus\n\n\n"),
])
def test_matrix_without_columns_is_precondition_error(capsys, monkeypatch,
                                                      tmp_path, command, name,
                                                      body):
    # both formats refuse n = 0 with one message, before any table is built
    mat = tmp_path / name
    mat.write_text(body)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run(capsys, command, "--matrix", str(mat))
    assert code == 1 and out == ""
    assert err == "error: precondition: matrix needs n >= 1 columns, got n = 0\n"
    assert "division" not in err


def test_code_verify_not_quasi_perfect_still_exits_zero(capsys):
    # verification = all routes agree; the verdict itself may be negative
    code, out, _ = run(capsys, "code-verify", "--p", "5", "--family", "minus")
    assert code == 0
    assert "quasi_perfect=no" in out


# -- decoding through stdin -----------------------------------------------------------

def test_decode_stdin_text(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "# planted weight-2 error on the zero codeword\n"
        "0 0 0 0 0 1 12\n"
        "\n"
        "1 0 0 0 0 0 0\n"))
    code, out, err = run(capsys, "decode", "--p", "13", "--family", "plus")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "0 0 0 0 0 0 0 | 0 0 0 0 0 1 12 | 2"
    assert lines[1] == "0 0 0 0 0 0 0 | 1 0 0 0 0 0 0 | 1"


def test_decode_stdin_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0 0 0 0 0\n"))
    code, out, _ = run(capsys, "decode", "--p", "13", "--family", "plus",
                       "--format", "json")
    assert code == 0
    d = json.loads(out.splitlines()[0])
    assert d == {"codeword": [0] * 7, "error": [0] * 7, "weight": 0}


def test_decode_reports_bad_line_number(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0 0 0 0 0\nnot numbers\n"))
    code, _, err = run(capsys, "decode", "--p", "13", "--family", "plus")
    assert code == 1
    assert "line 2:" in err


def test_decode_rejects_wrong_length(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    code, _, err = run(capsys, "decode", "--p", "13", "--family", "plus")
    assert code == 1
    assert "expected 7, got 3" in err


def test_decode_with_matrix_file(capsys, monkeypatch, tmp_path):
    mat = tmp_path / "m.txt"
    assert run(capsys, "code-gen", "--p", "23", "--family", "minus",
               "--out", str(mat))[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0 0 0 0 0 0 0 0 1\n"))
    code, out, _ = run(capsys, "decode", "--matrix", str(mat))
    assert code == 0
    assert out.endswith("| 0 0 0 0 0 0 0 0 0 0 1 | 1\n")


def test_decode_reduces_huge_and_negative_tokens(capsys, monkeypatch):
    # entries are reduced mod p as Python ints: no int64 overflow
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "1000000000000000000000000000001 0 0 0 0 0 -1\n"
        "-1000000000000000000000000000001 0 0 0 0 0 14\n"))
    code, out, err = run(capsys, "decode", "--p", "13", "--family", "plus")
    assert code == 0 and err == ""
    assert out == ("3 0 0 0 0 1 12 | 12 0 0 0 0 12 0 | 2\n"
                   "10 0 0 0 0 12 1 | 1 0 0 0 0 1 0 | 2\n")
    # single-spaced lines that reach the array parse: entries at or beyond
    # 10^18 (past the 18 digits the plain parse reads) and spellings only int
    # reads must decode as the words of their residues, alone in a batch or not
    tokens = ["999999999999999999", str(10 ** 18), "9223372036854775807",
              "9223372036854775808", "18446744073709551617", "007",
              "+5", "1_0", "\u0663"]
    lines = [" ".join(["1"] * (i % 7) + [t] + ["2"] * (6 - i % 7))
             for i, t in enumerate(tokens)]
    reduced = [" ".join(str(int(t) % 13) for t in line.split(" ")) for line in lines]
    for block in (None, 1):
        if block is not None:
            monkeypatch.setattr(fields, "CHUNK_ENTRIES", block * 7)  # n = 7
        outs = []
        for text in (lines, reduced):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(text) + "\n"))
            outs.append(run(capsys, "decode", "--p", "13", "--family", "plus"))
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert len(outs[0][1].splitlines()) == len(tokens)


@pytest.mark.parametrize("block", [None, 1, 2])
@pytest.mark.parametrize("lines,message", [
    (["0 0 0 0 0 0 0", "1 2 3", "0 0 0 0 0 0 x"],
     "line 2: length mismatch: expected 7, got 3"),
    (["0 0 0 0 0 0 0", "0 x", "1 2 3"],
     "line 2: invalid literal for int() with base 10: 'x'"),
    # 6 + 8 tokens: the batch still holds 7 per line on average
    (["0 0 0 0 0 0 0", "1 2 3 4 5 6", "1 2 3 4 5 6 7 8"],
     "line 2: length mismatch: expected 7, got 6"),
    # short lines whose ends fall where lines of 7 tokens would end: 3 + 1 + 3
    # + 1 = 8 tokens with their line-end markers, 16 with a line of 7 after
    (["0 0 0", "0 0 0"], "line 1: length mismatch: expected 7, got 3"),
    (["0 0 0", "0 0 0", "0 0 0 0 0 0 0"], "line 1: length mismatch: expected 7, got 3"),
    # the same after a comment, which sends the batch to the stripped lines
    (["# c", "0 0 0", "0 0 0"], "line 2: length mismatch: expected 7, got 3"),
], ids=["short-then-unparsable", "unparsable-then-short", "short-then-long",
        "short-lines-aligned", "short-lines-aligned-then-full", "comment-then-short-lines"])
def test_decode_reports_first_bad_line(capsys, monkeypatch, block, lines, message):
    # lines 2 and 3 share a batch by default; budgets of 1 or 2 lines of 7
    # entries batch them otherwise
    if block is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", block * 7)  # n = 7
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "decode", "--p", "13", "--family", "plus",
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: precondition: {message}\n"
        sys.stdin.seek(0)


# -- decode: pinned streams ----------------------------------------------------------

# (p, k, family) -> n
DECODE_CONFIGS = {(13, 1, "plus"): 7, (23, 1, "minus"): 11,
                  (5, 2, "plus"): 13, (7, 2, "minus"): 24}

# sha256 of the stdout on each stream of ``STREAMS``: on the mixed stream
# that of the one-word-at-a-time decoder that the block decoder replaced,
# on the plain and alternating streams that of the per-token ``int`` parse
# and per-line formatting that the array parse and formatter replaced
DECODE_SHA256 = {
    ("mixed", 13, 1, "plus", "text"): "6c8c884144846ce998a6aa3dd74ea57a5a5d669d37cd5cbbc43553b00f247fbf",
    ("mixed", 13, 1, "plus", "json"): "05cbb53a9a176aa454760f1f5c0d44cb042c7051edfa12ee6975f263e5c7d987",
    ("mixed", 23, 1, "minus", "text"): "07d224a18e37e8ceb78b2fe2f9b758917456a29884cba2dc8bc379217ff59f6d",
    ("mixed", 23, 1, "minus", "json"): "3d65c4f34539c9bc1bd7f0660d02c68b4a9edbd770768a22e2df9578fe541057",
    ("mixed", 5, 2, "plus", "text"): "4fdb262dac00798d5c2f36b29a430c24d4747c575bededbfd6e5c7331ea719b5",
    ("mixed", 5, 2, "plus", "json"): "1c3d4599ed5ad4aefb701c3ca4869c637d247ae96fcbc8253867622b068864e4",
    ("mixed", 7, 2, "minus", "text"): "3846bdd3e82fc59825f10c5ea491186d0e96dd92512ee9abe353dd78379b337e",
    ("mixed", 7, 2, "minus", "json"): "0be22c920eec3dba08ebefe479f0a2c9aed60ecbfe80adeb05542405b9b04e68",
    ("alternating", 5, 2, "plus", "json"): "ed3a082abcc6068ddf817c6f7a1d3e4959ac013a7988eb7edb1b2e39c34b8d74",
    ("alternating", 5, 2, "plus", "text"): "86fc254436956887ee15fadd6560a8a2b265275801bfc900c069f6dfe566ce06",
    ("alternating", 7, 2, "minus", "json"): "996e72ae8b45e685cf4bde1897b48be339ede4f6132b5b7957928efca98a733e",
    ("alternating", 7, 2, "minus", "text"): "f341371757b44bb2cc98ac1855a34abb4b654285a230b57d746221445925a977",
    ("alternating", 13, 1, "plus", "json"): "4b9661597050b15f009203cf9ee30f800a98f91e25b95735aff56d84b91854e4",
    ("alternating", 13, 1, "plus", "text"): "cfacd414340ecb55e0e6ef026a05298d43e315534dd38a653c1f82b3bf468580",
    ("alternating", 23, 1, "minus", "json"): "f34102c71f83aaacc5bdc3f238a0c5ffb0fdfaa043ca867b8fae1e38990f70df",
    ("alternating", 23, 1, "minus", "text"): "3c4aea48860fe9eb22cee63837a4bd295e8b6745bb85c19a4e85734c4e15ca5c",
    ("plain", 5, 2, "plus", "json"): "060b3c9301f26732c71d801bbcb7f64519a5b5e270261e3d21ef1add34525a2f",
    ("plain", 5, 2, "plus", "text"): "11ce43ae6a0e92e2a127194bf71582a162b4dbad7d7fc0cf513c65c443285765",
    ("plain", 7, 2, "minus", "json"): "f9aac1940b630d5afdd8e1def19b03e5da66b03a00df67df2fa861c668ee2775",
    ("plain", 7, 2, "minus", "text"): "69ff8da174d63a6fe4ee7e5943e5be235eda7eb841d3a4ee4d865098a4fa64b6",
    ("plain", 13, 1, "plus", "json"): "d8f9b0eab05c94f67601759a872b44fe289570b89d0b99837c055b9589c7120e",
    ("plain", 13, 1, "plus", "text"): "7ac692bd4500791c5389d228275854c03390f586979b2defe8e9899de542c85f",
    ("plain", 23, 1, "minus", "json"): "74f6d9d0a3153f65d083f09126858add6083b786e7b8453d373b2cedf1f78863",
    ("plain", 23, 1, "minus", "text"): "c9f91ae674aa843a1e86c0410ec152033a56361d6e902f358ae71e916f2b9236",
}


def decode_stream(p, n, words=2000, seed=7):
    """A seeded stdin for ``decode``: words with negative entries, entries
    >= p and a few huge ones, mixed with comments, blank lines and uneven
    whitespace."""
    rng = random.Random(seed * 1009 + p * n)
    lines = []
    for i in range(words):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["# comment", "   # indented comment", ""]))
        elif roll < 0.08:
            lines.append(rng.choice([" ", "\t", "  \t "]))
        lo, hi = (-3 * p, 3 * p) if i % 3 else (0, p - 1)
        row = [rng.randint(lo, hi) for _ in range(n)]
        if i % 97 == 0:
            row[rng.randrange(n)] = rng.choice([1, -1]) * (10 ** 30 + rng.randrange(p))
        sep = rng.choice([" ", " ", "  ", "\t"])
        lines.append(sep.join(map(str, row)) + rng.choice(["", "", " ", "\t"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def plain_stream(p, n, words=2000, seed=7):
    """A seeded stdin of plain words: entries in [0, p) separated by single
    spaces, one word per line, no comments."""
    rng = random.Random(seed * 1013 + p * n)
    return "".join(" ".join(str(rng.randrange(p)) for _ in range(n)) + "\n"
                   for _ in range(words))


# spellings of an entry v that only ``int`` reads
INT_ONLY = [lambda v: f"-{v}", lambda v: f"+{v}", lambda v: f"{v}_0",
            lambda v: "".join(chr(0x660 + int(d)) for d in str(v)),
            lambda v: str(10 ** 18 + v), lambda v: str(10 ** 30 + v)]


def alternating_stream(p, n, words=2000, seed=7):
    """A seeded stdin whose words, counted in threes, alternate between
    plain groups and groups holding one word that only ``int`` reads (a
    signed, underscored, non-ASCII or 19-digit entry, a tab or a double
    space), with comments, blank lines and outer whitespace in between."""
    rng = random.Random(seed * 1019 + p * n)
    lines, bad = [], -1
    for i in range(words):
        if rng.random() < 0.05:
            lines.append(rng.choice(["# comment", "", "  "]))
        if i % 6 == 3:
            bad = i + rng.randrange(3)
        row = [str(rng.randrange(p)) for _ in range(n)]
        sep = " "
        if i == bad:
            form = rng.randrange(len(INT_ONLY) + 2)
            if form < len(INT_ONLY):
                j = rng.randrange(n)
                row[j] = INT_ONLY[form](int(row[j]))
            else:
                sep = ["\t", "  "][form - len(INT_ONLY)]
        elif rng.random() < 0.1:
            j = rng.randrange(n)
            row[j] = "00" + row[j]
        lines.append(rng.choice(["", " ", "\t"]) + sep.join(row)
                     + rng.choice(["", " "]))
    return "\n".join(lines) + "\n"


STREAMS = {"mixed": decode_stream, "plain": plain_stream,
           "alternating": alternating_stream}


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize(
    "stream,p,k,family,fmt", sorted(DECODE_SHA256),
    # the mixed stream keeps the ids it had before the other streams came
    ids=["-".join(map(str, key[1:] if key[0] == "mixed" else key))
         for key in sorted(DECODE_SHA256)])
def test_decode_stream_pinned(capsys, monkeypatch, tmp_path, stream, p, k,
                              family, fmt, block):
    if block is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES",
                            block * DECODE_CONFIGS[(p, k, family)])
    mat = tmp_path / "m.txt"
    assert main(["code-gen", "--p", str(p), "--k", str(k), "--family", family,
                 "--out", str(mat)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(
        STREAMS[stream](p, DECODE_CONFIGS[(p, k, family)])))
    code, out, err = run(capsys, "decode", "--matrix", str(mat), "--format", fmt)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2000
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DECODE_SHA256[(stream, p, k, family, fmt)]


@pytest.mark.parametrize(
    "stream,p,k,family,fmt", sorted(DECODE_SHA256),
    ids=["-".join(map(str, key)) for key in sorted(DECODE_SHA256)])
def test_decode_stream_pinned_in_one_entry_pieces(capsys, monkeypatch, tmp_path,
                                                  stream, p, k, family, fmt):
    # CHUNK_ENTRIES = 1: a budget of 2 characters, so every batch holds one word
    monkeypatch.setattr(fields, "CHUNK_ENTRIES", 1)
    test_decode_stream_pinned(capsys, monkeypatch, tmp_path, stream, p, k,
                              family, fmt, None)


def test_decode_plain_blocks_skip_int(capsys, monkeypatch, tmp_path):
    # plain batches take the array parse and every other batch the int loop,
    # so the alternating stream falls back in exactly its 333 odd groups, and
    # neither the benchmark's two-digit words at p = 97 nor tokens padded
    # with zeros past 18 digits fall back at all
    calls = []
    int_words = cli._int_words
    monkeypatch.setattr(cli, "_int_words",
                        lambda block, n: calls.append(block) or int_words(block, n))
    table = coset_leader_table(parity_check_matrix(generator_set(make_field(97), "plus")))
    stdin = STREAMS["plain"](97, table.matrix.n, words=300)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, "decode", "--p", "97", "--family", "plus")
    assert code == 0 and err == "" and calls == []
    assert out.splitlines() == oracles.decoded_lines(table, stdin, "text")
    rng = random.Random(11)
    padded = "".join(" ".join(t.zfill(rng.randint(19, 40)) for t in line.split(" "))
                     + "\n" for line in STREAMS["plain"](13, 7).splitlines())
    monkeypatch.setattr(fields, "CHUNK_ENTRIES", 3 * 7)  # about 3 lines, n = 7
    for stream, stdin, fallbacks in (("plain", None, 0), ("alternating", None, 333),
                                     ("plain", padded, 0)):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or STREAMS[stream](13, 7)))
        code, out, err = run(capsys, "decode", "--p", "13", "--family", "plus")
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == DECODE_SHA256[(stream, 13, 1, "plus", "text")]
        assert len(calls) == fallbacks
        calls.clear()


# -- decode: the plain parse against the int route --------------------------------------

def assert_plain_words_match_int(text, n):
    """``_plain_words(text, n)`` is the rows of ``_int_words`` as int64 when
    every value of ``text`` (plain lines of n tokens) is below 10^18, else
    None."""
    rows = cli._int_words(list(enumerate(text[:-1].split("\n"), start=1)), n)
    got = cli._plain_words(text, n)
    if max(map(max, rows)) >= 10 ** 18:
        assert got is None, text
    else:
        assert got.dtype == np.int64 and got.shape == (len(rows), n), text
        assert got.tolist() == rows, text


EDGE_VALUES = [10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63]


def plain_token(rng):
    """A seeded plain token: 1 to 18 digits, or a value (one of EDGE_VALUES
    now and then) zero-padded to 19 to 40 digits, or an edge value."""
    roll = rng.random()
    if roll < 0.02:
        return str(rng.choice(EDGE_VALUES))
    digits = "".join(rng.choices("0123456789", k=rng.randint(1, 18)))
    if roll < 0.12:
        value = rng.choice(EDGE_VALUES) if roll < 0.03 else int(digits)
        return str(value).zfill(rng.randint(19, 40))
    return digits


def plain_batch(rng, n, lines):
    """``lines`` seeded lines of n plain tokens, as lists of tokens."""
    return [[plain_token(rng) for _ in range(n)] for _ in range(lines)]


def batch_text(lines):
    return "".join(" ".join(line) + "\n" for line in lines)


def test_plain_words_match_int_words_on_seeded_batches():
    rng = random.Random(2024)
    refused = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        text = batch_text(plain_batch(rng, n, rng.randint(1, 5)))
        assert_plain_words_match_int(text, n)
        refused += cli._plain_words(text, n) is None
    assert 200 < refused < 1800  # both outcomes well represented


def _shift_token(rng, lines):
    # one line loses its last token to another: n - 1 and n + 1 tokens, the
    # batch total still m * n
    i, j = rng.sample(range(len(lines)), 2)
    lines[j].append(lines[i].pop())


def _split_line(rng, lines):
    # a line cut in two where a space was: lines of fewer than n tokens whose
    # ends still fall at every n-th token end, the total still m * n
    i = rng.randrange(len(lines))
    cut = rng.randint(1, max(len(lines[i]) - 1, 1))
    lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]


def _replace_separator(rng, text, by):
    at = rng.choice([i for i, c in enumerate(text) if c in " \n"])
    return text[:at] + by(text[at]) + text[at + 1:]


def _sign_token(rng, lines):
    line = rng.choice(lines)
    j = rng.randrange(len(line))
    line[j] = rng.choice("+-") + line[j]


def _non_ascii_digit(rng, text):
    at = rng.choice([i for i, c in enumerate(text) if c.isdigit()])
    return text[:at] + chr(rng.choice([0x660, 0xFF10]) + int(text[at])) + text[at + 1:]


# each takes (rng, lines of tokens) and changes the lines, or takes (rng, text)
# and returns the changed text
PLAIN_REFUSALS = {
    "short-line": (lambda rng, lines: rng.choice(lines).pop(), None),
    "long-line": (lambda rng, lines: rng.choice(lines).append(plain_token(rng)), None),
    "short-and-long-lines": (_shift_token, None),
    "split-line": (_split_line, None),
    "leading-separator": (None, lambda rng, text: " " + text),
    "separator-after-newline": (None, lambda rng, text: text.replace(
        "\n", "\n ", 1) if text.count("\n") > 1 else " " + text),
    "doubled-separator": (None, lambda rng, text: _replace_separator(
        rng, text, lambda c: 2 * c)),
    "tab": (None, lambda rng, text: _replace_separator(rng, text, lambda c: "\t")),
    "sign": (_sign_token, None),
    "non-ascii-digit": (None, _non_ascii_digit),
}


@pytest.mark.parametrize("change_lines,change_text", PLAIN_REFUSALS.values(),
                         ids=PLAIN_REFUSALS.keys())
def test_plain_words_refuse_what_is_not_plain(change_lines, change_text):
    rng = random.Random(len(PLAIN_REFUSALS) * 31)
    for _ in range(300):
        n = rng.randint(1, 7)
        lines = plain_batch(rng, n, rng.randint(2, 5))
        if change_lines is not None:
            change_lines(rng, lines)
        text = batch_text(lines)
        if change_text is not None:
            text = change_text(rng, text)
        assert cli._plain_words(text, n) is None, text


@pytest.mark.parametrize("n,lines", [
    # a long token first in the batch, with no separator before it, and last,
    # ending at the final newline
    (3, ["0" * 30 + "7 1 2", "3 4 " + "0" * 22 + "9" * 18]),
    (3, ["1" + "0" * 18 + " 1 2", "3 4 5"]),
    (3, ["1 2 3", "4 5 " + "0" * 21 + "1" + "0" * 18]),
    # one line
    (3, ["0" * 40 + "5 6 " + "0" * 19 + "1"]),
    (2, ["0" * 19 + "9" * 18 + " " + "0" * 20 + "1" + "9" * 18]),
    # n = 1: every token ends a line
    (1, ["0" * 25 + "3", "4", "0" * 19 + "9" * 18]),
    (1, ["5", "0" * 30 + "2" + "0" * 17]),
    (1, ["0" * 50 + "1"]),
    (1, ["9" * 19]),
], ids=["first-and-last", "first-too-large", "last-too-large", "one-line",
        "one-line-too-large", "n1", "n1-last-long", "n1-one-line",
        "n1-one-line-too-large"])
def test_plain_words_long_tokens_at_the_batch_edges(n, lines):
    assert_plain_words_match_int("\n".join(lines) + "\n", n)


# the digit table holds 8-byte words once sep + str(p - 1) passes 4 bytes:
# ", 100" in JSON at p = 101, " 1008" in text at p = 1009
@pytest.mark.parametrize("stream", ["plain", "mixed"])
@pytest.mark.parametrize("p,family,fmt", [(101, "minus", "json"),
                                          (1009, "plus", "text")])
def test_decode_wide_entries_match_scalar_lines(capsys, monkeypatch, stream, p,
                                                family, fmt):
    table = coset_leader_table(parity_check_matrix(
        generator_set(make_field(p), family)))
    stdin = STREAMS[stream](p, table.matrix.n, words=150)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, "decode", "--p", str(p), "--family", family,
                         "--format", fmt)
    assert code == 0 and err == ""
    assert out.splitlines() == oracles.decoded_lines(table, stdin, fmt)
    assert out.endswith("\n") and len(out.splitlines()) == 150


# -- decode: lines and batches of stdin -------------------------------------------------

def decode_13(capsys, monkeypatch, stdin, *argv):
    """``decode --p 13 --family plus`` of ``stdin``: a str read through a
    StringIO, or bytes through a TextIOWrapper, which translates \\r\\n and
    \\r to \\n as the real stdin does."""
    stream = (io.TextIOWrapper(io.BytesIO(stdin)) if isinstance(stdin, bytes)
              else io.StringIO(stdin))
    monkeypatch.setattr("sys.stdin", stream)
    return run(capsys, "decode", "--p", "13", "--family", "plus", *argv)


ZERO_LINE = "0 0 0 0 0 0 0 | 0 0 0 0 0 0 0 | 0\n"
ONE_LINE = "0 0 0 0 0 0 0 | 1 0 0 0 0 0 0 | 1\n"
TWO_LINE = "0 0 0 0 0 0 0 | 0 0 0 0 0 0 2 | 2\n"
X_LITERAL = "invalid literal for int() with base 10: 'x'"

# stdin is split into lines on \n only, as line iteration splits it, never
# at the other characters str.splitlines splits at (\x0b, \x0c, \x1c-\x1e,
# \x85, \u2028, \u2029); those strip as whitespace at the ends of a line
# and separate tokens inside it.  Each (stdin, exit code, stdout, message)
# is what the line-by-line reader printed.
LINE_SPLITS = {
    "form-feed": ("0 0 0 0 0 0 0\x0c\n1 2\n", 1, "",
                  "line 2: length mismatch: expected 7, got 2"),
    "long-line": ("0 0 0 0 0 0 0 1\nx\n", 1, "",
                  "line 1: length mismatch: expected 7, got 8"),
    "group-separator-inside": ("0 0 0 0 0 0 0\x1c1 2\n", 1, "",
                               "line 1: length mismatch: expected 7, got 9"),
    "line-separator": ("0 0 0\u2028 0 0 0 1\nx\n", 1, "", f"line 2: {X_LITERAL}"),
    "next-line": ("1 0 0 0 0 0 0\u2028\n\x85\n0 0 0 0 0 0 2\n", 0,
                  ONE_LINE + TWO_LINE, ""),
    "vertical-tab-and-separators": ("0 0 0 0 0 0 0\x0b\n\x1d1 0 0 0 0 0 0\x1e\n", 0,
                                    ZERO_LINE + ONE_LINE, ""),
    "cr": (b"0 0 0 0 0 0 0\r1 0 0 0 0 0 0\rx\r", 1, "", f"line 3: {X_LITERAL}"),
    "crlf": (b"0 0 0 0 0 0 0\r\n1 0 0 0 0 0 0\r\n0 0 0 0 0 0 2\r\n", 0,
             ZERO_LINE + ONE_LINE + TWO_LINE, ""),
    "crlf-blank-and-comment": (b"0 0 0 0 0 0 1\r\n\r\n# c\r\nx 1\r\n", 1, "",
                               f"line 4: {X_LITERAL}"),
    "cr-no-final-newline": (b"1 0 0 0 0 0 0\r0 0 0 0 0 0 2", 0,
                            ONE_LINE + TWO_LINE, ""),
    "no-final-newline": ("# c\n1 0 0 0 0 0 0\n0 0 0 0 0 0 2", 0,
                         ONE_LINE + TWO_LINE, ""),
    "comments-only": ("# only a comment\n   # another\n", 0, "", ""),
    "blanks-only": ("   \n\t\n\n", 0, "", ""),
    "empty": ("", 0, "", ""),
}


@pytest.mark.parametrize("entries", [None, 1])
@pytest.mark.parametrize("stdin,code,out,message", LINE_SPLITS.values(),
                         ids=LINE_SPLITS.keys())
def test_decode_splits_lines_as_line_iteration(capsys, monkeypatch, stdin, code,
                                               out, message, entries):
    if entries is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
    err = f"error: precondition: {message}\n" if message else ""
    assert decode_13(capsys, monkeypatch, stdin) == (code, out, err)


@pytest.mark.parametrize("entries", [None, 1])
@pytest.mark.parametrize("bad,message", [
    ("0 x 0 0 0 0 0", X_LITERAL),
    ("0 0 0 0 0 0", "length mismatch: expected 7, got 6"),
    ("0 0 0 0 0 0 0 0", "length mismatch: expected 7, got 8"),
], ids=["unparsable", "short", "long"])
def test_decode_names_first_bad_line_of_a_late_piece(capsys, monkeypatch, entries,
                                                     bad, message):
    # 4000 plain lines of about 16 characters span four batches of the default
    # 2 * CHUNK_ENTRIES characters; the bad lines sit in the last
    lines = plain_stream(13, 7, words=4000).splitlines()
    lines[3499], lines[3700] = bad, "x"
    if entries is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
    for fmt in ("text", "json"):
        got = decode_13(capsys, monkeypatch, "\n".join(lines) + "\n", "--format", fmt)
        assert got == (1, "", f"error: precondition: line 3500: {message}\n")


@pytest.mark.parametrize("entries", [None, 1])
def test_decode_line_longer_than_many_pieces(capsys, monkeypatch, entries):
    # tokens with 30 000 leading zeros, which int refuses (4300 digits at
    # most) and the plain parse reads, on a line of 210 000 characters
    words = ["1 0 0 0 0 0 0", "0 12 0 3 0 0 5", "0 0 0 0 0 1 12"]
    padded = " ".join("0" * 30000 + t for t in words[1].split())
    if entries is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
    want = decode_13(capsys, monkeypatch, "\n".join(words) + "\n")
    assert want[0] == 0 and len(want[1].splitlines()) == 3
    for stdin in ([words[0], padded, words[2]], ["# c", words[0], padded, words[2]]):
        assert decode_13(capsys, monkeypatch, "\n".join(stdin) + "\n") == want


@pytest.mark.parametrize("entries", [64, 1])
def test_decode_reads_stdin_in_batches_of_whole_lines(capsys, monkeypatch, entries):
    # the memory bound of the reader: each text the plain parse gets (a
    # batch, or its stripped lines) is whole lines, those before its last
    # at most 2 * CHUNK_ENTRIES characters.  At CHUNK_ENTRIES = 1 that
    # leaves one word a batch: readlines counts the one or two characters
    # of a blank line against its budget, so only blank lines precede it
    texts = []
    plain_words = cli._plain_words
    monkeypatch.setattr(cli, "_plain_words",
                        lambda text, n: texts.append(text) or plain_words(text, n))
    monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
    stdin = decode_stream(13, 7)
    lines = set(stdin.splitlines())
    code, out, err = decode_13(capsys, monkeypatch, stdin)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        DECODE_SHA256[("mixed", 13, 1, "plus", "text")]
    batches = [text[:-1].split("\n") for text in texts]
    assert all(text.endswith("\n") for text in texts)
    assert all(set(batch) <= lines | {line.strip() for line in lines}
               for batch in batches)
    assert all(sum(len(line) + 1 for line in batch[:-1]) <= 2 * entries
               for batch in batches)
    if entries == 1:
        assert all(not line.strip() for batch in batches for line in batch[:-1])
        assert len(texts) >= 2000
    else:
        assert max(map(len, batches)) > 1


# -- one chunk budget ------------------------------------------------------------------

# a call of each chunked loop: the class route (subset), the BFS and the
# round trip (code-verify), the stdin batches (decode of the mixed stream),
# the class counts and the FFT check (spectrum) and the battery's shifts
# (lemma-suite)
BUDGET_CALLS = {
    "subset-13-plus": ["subset", "--p", "13", "--family", "plus"],
    "subset-5k2-minus": ["subset", "--p", "5", "--k", "2", "--family", "minus"],
    "code-verify-13-plus": ["code-verify", "--p", "13", "--family", "plus"],
    "code-verify-5k3-minus": ["code-verify", "--p", "5", "--k", "3",
                              "--family", "minus"],
    "decode-13-plus": ["decode", "--p", "13", "--family", "plus"],
    "spectrum-13-plus": ["spectrum", "--p", "13", "--family", "plus",
                         "--format", "json"],
    "spectrum-7k2-minus": ["spectrum", "--p", "7", "--k", "2", "--family", "minus",
                           "--format", "json"],
    "lemma-suite-23": ["lemma-suite", "--p", "23"],
    "lemma-suite-5k2": ["lemma-suite", "--p", "5", "--k", "2"],
}


@pytest.mark.parametrize("argv", BUDGET_CALLS.values(), ids=BUDGET_CALLS.keys())
def test_one_row_chunks_print_the_same(capsys, monkeypatch, argv):
    # CHUNK_ENTRIES = 1 makes every chunk of every loop one row
    outs = []
    for entries in (None, 1):
        if entries is not None:
            monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        monkeypatch.setattr("sys.stdin", io.StringIO(decode_stream(13, 7)))
        outs.append(run(capsys, *argv))
    assert outs[0] == outs[1]
    assert outs[0][1] and not outs[0][2]


# -- lemma suite -----------------------------------------------------------------------

def test_lemma_suite_text(capsys):
    code, out, _ = run(capsys, "lemma-suite", "--p", "13")
    assert code == 0
    assert "16/16 checks passed" in out
    assert "FAIL" not in out


def test_lemma_suite_json_p3(capsys):
    code, out, _ = run(capsys, "lemma-suite", "--p", "3", "--k", "2",
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] == d["total"] == 14
    assert all(c["passed"] for c in d["checks"])


# sha256 of the stdout of the scalar battery that the array enumerations
# replaced; the printed floats must stay bit-identical
LEMMA_SHA256 = {
    (13, 1, "text"): "0be006ba7a07c52f951290347470d0672c6bfca45945a6bd6ae71ca8f2c27e51",
    (13, 1, "json"): "de2345278f16368aa91e7c08e6eef31c54f1e143bbd0053ad646537980fc3403",
    (23, 1, "text"): "d3cc0640397e892bae88640692ef5412807043531211cd8545c98dda608aa7fe",
    (23, 1, "json"): "d409a8d63cc09dc7856cda0001c71855c821a1c5b7020a433f80aa32d838bd79",
    (5, 2, "text"): "f2535b95d6ef32f69ddc27080560fcc75595f728f9a1fa03482fdc71698031a6",
    (5, 2, "json"): "3480094f8a53345fb1c4bf21d7a97d6f298a1ea7efd5c13ecf4a878f668c1db1",
    (3, 2, "text"): "c76ecc718eee09f17e2a0d4b867cf8313eaf0bda29c82c793310712de4f1400d",
    (3, 2, "json"): "a2dc4a7b04dac2cd16055b0990df374baf19fa44d29c0572951e48ae43893cc6",
    (3, 3, "text"): "f0e62a5c87a666c207acfc3069e69c7b4eb74ec5c625feffa3e58b44299ca09e",
    (3, 3, "json"): "144d4a18ea81c5b39b9e127a0a61c2b3b6383ead41d839344e6655d2ea6fef16",
}


@pytest.mark.parametrize("p,k,fmt", sorted(LEMMA_SHA256))
def test_lemma_suite_pinned(capsys, p, k, fmt):
    code, out, _ = run(capsys, "lemma-suite", "--p", str(p), "--k", str(k),
                       "--format", fmt)
    assert code == 0
    if (p, fmt) == (23, "text"):
        assert "max |K| = 7.960687 <= 2*sqrt(q) = 9.591663" in out
        assert "worst deviation 1.78e-15" in out
    assert hashlib.sha256(out.encode()).hexdigest() == LEMMA_SHA256[(p, k, fmt)]


def test_injected_lemma_fault_exits_2_under_optimize():
    # one abscissa dropped from the c = 1 circle: only that check may fail
    script = ("import sys\n"
              "import quasilee.lemmas as lemmas\n"
              "grid = lemmas.abscissa_grid\n"
              "def dropped(ctx):\n"
              "    g = grid(ctx)\n"
              "    g[1, g[1].argmax()] = False\n"
              "    return g\n"
              "lemmas.abscissa_grid = dropped\n"
              "from quasilee.cli import main\n"
              "sys.exit(main(['lemma-suite', '--p', '13']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: verification:")
    assert "FAIL circle_abscissas: VerificationError" in res.stdout
    assert res.stdout.endswith("15/16 checks passed\n")


# Each snippet breaks one input of a q^2-scale check of the battery at
# p = 13: (snippet, the checks that must fail, the start of the first's
# detail).  Every check reports by raising, never by ``assert``.
BATTERY_FAULTS = {
    # the closed form turned by one root of unity at (c, a) = (2, 5) only
    "gauss": ("import numpy as np\n"
              "closed = lemmas.gauss_closed_form\n"
              "def turned(ctx, c, a):\n"
              "    c, a = np.broadcast_arrays(c, a)\n"
              "    at = (c == 2) & (a == 5)\n"
              "    return closed(ctx, c, a) * np.where(at, np.exp(2j * np.pi / 13), 1)\n"
              "lemmas.gauss_closed_form = turned\n",
              ["gauss_closed_form"], "Gauss sum at (c, a) = (2, 5) disagrees"),
    # one count too many in the row of K(1, 3): K(1, 3) grows by one, so
    # the transform rows disagree with it, and the eigenvalue identity too
    "kloosterman": ("counts = lemmas.kloosterman_counts\n"
                    "def grown(ctx, a, b):\n"
                    "    table = counts(ctx, a, b)\n"
                    "    table[2, 0] += 1\n"
                    "    return table\n"
                    "lemmas.kloosterman_counts = grown\n",
                    ["kloosterman_bound", "circle_eigenvalue_identity"],
                    "K(3, 1) differs from K(1, 3) by 1"),
    # the norm-2 fiber in place of H: symmetric, q + 1 points, not closed;
    # the circle's spectrum refuses it as well
    "unclosed": ("import dataclasses\n"
                 "import numpy as np\n"
                 "circle = lemmas.norm_circle\n"
                 "def fiber(ext):\n"
                 "    two = np.flatnonzero(ext.norm(np.arange(ext.size)) == 2)\n"
                 "    return dataclasses.replace(circle(ext), members=two)\n"
                 "lemmas.norm_circle = fiber\n",
                 ["shifted_double_sums", "circle_eigenvalue_identity",
                  "spectral_bounds"],
                 "H is not the norm-one fiber, closed under products\n"),
}


@pytest.mark.parametrize("fault", sorted(BATTERY_FAULTS))
def test_injected_battery_fault_exits_2_under_optimize(fault):
    snippet, failing, detail = BATTERY_FAULTS[fault]
    script = ("import sys\n"
              "import quasilee.lemmas as lemmas\n" + snippet
              + "from quasilee.cli import main\n"
              "sys.exit(main(['lemma-suite', '--p', '13']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: verification:")
    fails = [line.split()[1].rstrip(":") for line in res.stdout.splitlines()
             if line.startswith("FAIL ")]
    assert fails == failing
    assert f"FAIL {failing[0]}: VerificationError: {detail}" in res.stdout
    assert res.stdout.endswith(f"{16 - len(failing)}/16 checks passed\n")


# one run of each subcommand that succeeds when its output can be written
SUCCEEDING = {
    "admissible": ["--p", "13", "--family", "plus"],
    "subset": ["--p", "13", "--family", "plus"],
    "spectrum": ["--p", "13", "--family", "plus"],
    "code-gen": ["--p", "13", "--family", "plus"],
    "code-verify": ["--p", "13", "--family", "plus"],
    "decode": ["--p", "13", "--family", "plus"],
    "lemma-suite": ["--p", "5"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_unopenable_out_is_precondition_error(capsys, monkeypatch, tmp_path, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0 0 0 0 0\n"))
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, command, *SUCCEEDING[command], "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: precondition:")
    assert "No such file or directory" in err
    assert not target.parent.exists()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parser_reuse_matches_fresh_parsers(capsys):
    # a run on the shared parser prints what it prints on a parser of its own
    argvs = [["subset", "--p", "13", "--family", "plus"],
             ["spectrum", "--p", "13", "--family", "plus", "--format", "json"],
             ["code-verify", "--p", "13", "--family", "plus"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    shared = [run(capsys, *argv) for argv in argvs]
    assert shared == fresh
    assert all(code == 0 and out and err == "" for code, out, err in shared)


def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "admissible", "--p", "13", "--family", "plus",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["admissible"] is True


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("stdin", ["mixed", "empty"])
def test_decode_out_writes_the_bytes_of_stdout(capsys, monkeypatch, tmp_path,
                                               fmt, stdin):
    text = decode_stream(13, 7, words=300) if stdin == "mixed" else ""
    argv = ["decode", "--p", "13", "--family", "plus", "--format", fmt]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, shown, err = run(capsys, *argv)
    assert code == 0 and err == "" and bool(shown) == bool(text)
    target = tmp_path / "decoded.txt"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == shown.encode()
    # an --out that cannot be opened is still a precondition error
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "no" / "x.txt"))
    assert (code, out) == (1, "") and err.startswith("error: precondition:")
