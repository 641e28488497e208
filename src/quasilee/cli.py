"""Command-line interface.

Subcommands
-----------
admissible   decide whether (p, k, family) admits the construction
subset       cumulative sumset layers, indices and verdict
spectrum     full Cayley spectrum with bound classification
code-gen     emit the parity-check matrix and code parameters
code-verify  cross-check decoder table against sumset layers
decode       decode words read from stdin, one per line
lemma-suite  run the brute-force verification battery

Exit codes: 0 success, 1 precondition violation, 2 verification mismatch.
Identical configurations produce byte-identical output.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .codes import (VerificationError, code_parameters, coset_leader_table,
                    decode_words, matrix_from_json_dict, matrix_from_text,
                    parity_check_matrix, round_trip_check, verify_quasi_perfect)
from .curves import admissibility, generator_set
from .fields import (AMBIENT_CAP, VERTEX_CAP, check_ambient, chunk_rows,
                     make_field)
from .lemmas import lemma_battery
from .spectra import full_spectrum
from .sumsets import classify

_YESNO = {True: "yes", False: "no"}


def _add_common(sub):
    sub.add_argument("--p", type=int, help="odd prime characteristic")
    sub.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sub.add_argument("--family", choices=("plus", "minus"),
                     help="generator family")
    sub.add_argument("--format", choices=("json", "text"), default="text",
                     dest="fmt", help="output format (default text)")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--cap", type=int, default=AMBIENT_CAP,
                     help="ambient size cap on q^2")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no
    state between calls, and ``main`` may run many times in one process."""
    ap = argparse.ArgumentParser(prog="quasilee", description=__doc__.split("\n")[0])
    sp = ap.add_subparsers(dest="command", required=True)

    for name, (_, helptext, _) in _COMMANDS.items():
        sub = sp.add_parser(name, help=helptext)
        _add_common(sub)
        if name == "spectrum":
            sub.add_argument("--dump-csv", help="also write eigenvalues "
                             "and exact counts to this CSV file")
        if name in ("code-verify", "decode"):
            sub.add_argument("--matrix", help="read the parity-check matrix "
                             "from this file instead of --p/--k/--family")
        if name == "code-verify":
            sub.add_argument("--seed", type=int, default=0,
                             help="seed for the decode round trip (default 0)")
            sub.add_argument("--trials", type=int, default=200,
                             help="round-trip trial count (default 200)")
    return ap


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for this command")


def _check_cap(args, p, k):
    """Refuse q^2 = p^(2k) above --cap or the subcommand's cap in _COMMANDS
    (AMBIENT_CAP or its stage's lower one), before anything of size q^2 is
    built.  Every subcommand and the --matrix path go through here."""
    check_ambient(p, k, min(args.cap, _COMMANDS[args.command][2]))


def _generator(args):
    _require(args, "p", "family")
    _check_cap(args, args.p, args.k)
    return generator_set(make_field(args.p, args.k), args.family)


def _load_matrix(args):
    if getattr(args, "matrix", None):
        with open(args.matrix) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            mat = matrix_from_json_dict(json.loads(text))
        else:
            mat = matrix_from_text(text)
        _check_cap(args, mat.p, mat.generator.k)
        return mat
    return None


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------

def cmd_admissible(args) -> str:
    _require(args, "p", "family")
    _check_cap(args, args.p, args.k)
    rep = admissibility(args.p, args.k, args.family)
    if args.fmt == "json":
        return _json(rep.to_json_dict())
    return (f"family={rep.family} p={rep.p} k={rep.k} q={rep.q} "
            f"minus3={rep.minus3_class} admissible={_YESNO[rep.admissible]}\n"
            f"reason: {rep.reason}\n")


def cmd_subset(args) -> str:
    cls = classify(_generator(args))
    if args.fmt == "json":
        return _json(cls.to_json_dict())
    lay = cls.layers
    limit = "none" if lay.limit_index is None else lay.limit_index
    return (f"family={lay.generator.family} p={lay.generator.p} "
            f"k={lay.generator.k} n={lay.n}\n"
            f"layers: {' '.join(str(s) for s in lay.sizes)}\n"
            f"critical_index={lay.critical_index} limit_index={limit} "
            f"covered={_YESNO[lay.covered]}\n"
            f"verdict={cls.verdict}\n")


def cmd_spectrum(args) -> str:
    gen = _generator(args)
    rep = full_spectrum(gen)
    if args.dump_csv:
        with open(args.dump_csv, "w") as fh:
            heads = ",".join(f"count_{j}" for j in range(gen.p))
            fh.write(f"alpha,eigenvalue,{heads}\n")
            rows = [",".join(map(str, r)) for r in rep.class_counts.tolist()]
            for alpha, (eig, cls) in enumerate(zip(rep.eigenvalues.tolist(),
                                                   rep.class_index.tolist())):
                fh.write(f"{alpha},{eig!r},{rows[cls]}\n")
    if args.fmt == "json":
        return _json(rep.to_json_dict())
    return (f"family={gen.family} p={gen.p} k={gen.k} "
            f"degree={rep.degree} vertices={gen.ambient_size}\n"
            f"max_nontrivial_abs={rep.max_nontrivial_abs!r}\n"
            f"ramanujan_bound={rep.ramanujan_bound!r}\n"
            f"almost_ramanujan_bound={rep.almost_bound!r}\n"
            f"classification={rep.classification} "
            f"connected={_YESNO[rep.connected]}\n")


def cmd_code_gen(args) -> str:
    code = code_parameters(_generator(args))
    # p^dimension passes str()'s 4300-digit limit from p = 2531 (plus); it is
    # printed exactly, with the limit lifted only while the output is built
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.fmt == "json":
            return _json(code.to_json_dict())
        radius = "none" if code.covering_radius is None else code.covering_radius
        return (code.matrix.to_text()
                + f"# n={code.n} dimension={code.dimension} "
                  f"codewords={code.codeword_count} density={code.density!r}\n"
                + f"# error_correction={code.error_correction} "
                  f"covering_radius={radius} verdict={code.verdict}\n")
    finally:
        sys.set_int_max_str_digits(limit)


def _code_and_table(args):
    mat = _load_matrix(args)
    if mat is None:
        code = code_parameters(_generator(args))
    else:
        code = code_parameters(mat.generator)
    table = coset_leader_table(code.matrix)
    return code, table


def cmd_code_verify(args) -> str:
    code, table = _code_and_table(args)
    rep = verify_quasi_perfect(code, table)
    ok, total = round_trip_check(table, args.trials, args.seed,
                                 max_weight=min(2, rep.error_correction))
    if ok != total:
        raise VerificationError(f"decode round trip failed: {ok}/{total}")
    if args.fmt == "json":
        d = rep.to_json_dict()
        d["round_trip"] = {"ok": ok, "trials": total, "seed": args.seed}
        return _json(d)
    g = code.generator
    hist = " ".join(f"{w}:{c}" for w, c in sorted(table.histogram().items()))
    return (f"family={g.family} p={g.p} k={g.k} n={code.n} "
            f"dimension={code.dimension}\n"
            f"verdict={code.verdict} quasi_perfect={_YESNO[rep.quasi_perfect]}\n"
            f"error_correction={rep.error_correction} "
            f"covering_radius={rep.covering_radius} (table and layers agree)\n"
            f"leader_weights: {hist}\n"
            f"round_trip: {ok}/{total} seed={args.seed}\n")


def _blocks(stream, size):
    """The (line number, stripped line) pairs of the non-comment lines of
    ``stream``, in lists of ``size``."""
    block = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            block.append((lineno, line))
            if len(block) == size:
                yield block
                block = []
    if block:
        yield block


def _plain_words(lines, n):
    """The lines as an m x n int64 array when each is n ASCII digit strings
    joined by single spaces, every one below 10^18; otherwise None."""
    m, text = len(lines), " ".join(lines)
    if not text.isascii():
        return None
    raw = text.encode()
    if raw.translate(None, b"0123456789 ") or b"  " in raw:
        return None
    # a -1 after each line: no plain token is negative, so the markers fill
    # column n of an m x (n + 1) reshape exactly when each line holds n tokens
    words = np.fromstring(" -1 ".join(lines) + " -1", dtype=np.int64, sep=" ")
    if words.size != m * (n + 1):
        return None
    words = words.reshape(m, n + 1)
    # numpy clamps a value beyond int64 to 2^63 - 1 without a warning
    if (words[:, n] != -1).any() or (words[:, :n] >= 10 ** 18).any():
        return None
    return words[:, :n]


def _int_words(block, n) -> list:
    """The block's lines parsed token by token with ``int``: the reference
    route for every input, and the one that names the first bad line."""
    rows = []
    for lineno, line in block:
        try:
            row = list(map(int, line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if len(row) != n:
            raise ValueError(f"line {lineno}: length mismatch: "
                             f"expected {n}, got {len(row)}")
        rows.append(row)
    return rows


# the literal pieces of one output line: the separator of two entries, then
# the text before the codeword, before the error, before the weight and after it
_LINE_PIECES = {"text": (" ", "", " | ", " | ", "\n"),
                "json": (", ", '{"codeword": [', '], "error": [', '], "weight": ',
                         "}\n")}


def _byte_table(strings) -> np.ndarray:
    """One uint8 row per ASCII string, padded with NUL bytes to one width."""
    width = max(map(len, strings))
    return np.frombuffer(b"".join(s.encode().ljust(width, b"\0") for s in strings),
                         dtype=np.uint8).reshape(len(strings), width)


def _format_lines(cws, errs, weights, digits, wdigits, pieces) -> bytes:
    """The output lines of a decoded block, built as one byte array.
    ``digits[v]`` holds the separator and ``str(v)``, ``wdigits[w]`` holds
    ``str(w)``, both NUL-padded; the NULs and the separator before the first
    entry of each word are dropped."""
    m, cut = len(weights), len(pieces[0])
    head, mid, tail, end = (np.broadcast_to(np.frombuffer(s.encode(), dtype=np.uint8),
                                            (m, len(s))) for s in pieces[1:])
    cols = [head, digits[cws].reshape(m, -1)[:, cut:], mid,
            digits[errs].reshape(m, -1)[:, cut:], tail, wdigits[weights], end]
    return np.concatenate(cols, axis=1).tobytes().translate(None, b"\0")


def cmd_decode(args) -> str:
    """Decode stdin in blocks of ``chunk_rows(n)`` non-comment lines, each
    parsed, decoded and formatted as arrays: blocks, not all of stdin, so
    the parsed words do not grow with the input (the output is held to the
    end, so that a bad line leaves it empty).  A block whose lines are all
    plain (n ASCII digit strings joined by single spaces, each below 10^18)
    goes through numpy's text parser; any other block goes token by token
    through ``int``, so every token is read or refused as ``int`` does, and
    the first bad line of stdin is the one named, since earlier blocks
    parsed cleanly."""
    mat = _load_matrix(args)
    if mat is None:
        mat = parity_check_matrix(_generator(args))
    table = coset_leader_table(mat)
    n, pieces = mat.n, _LINE_PIECES[args.fmt]
    digits = _byte_table([pieces[0] + str(v) for v in range(mat.p)])
    wdigits = _byte_table([str(w) for w in range(table.max_weight + 1)])
    # one growing buffer rather than a list of blocks joined at the end,
    # so the output is held once, not twice
    out = bytearray()
    for block in _blocks(sys.stdin, chunk_rows(n)):
        words = _plain_words([line for _, line in block], n)
        if words is None:
            words = _int_words(block, n)
        cws, errs, weights, _ = decode_words(table, words)
        out += _format_lines(cws, errs, weights, digits, wdigits, pieces)
    return out.decode()


def cmd_lemma_suite(args) -> str:
    _require(args, "p")
    _check_cap(args, args.p, args.k)
    checks = lemma_battery(args.p, args.k)
    passed = sum(c.passed for c in checks)
    if args.fmt == "json":
        body = _json({"p": args.p, "k": args.k,
                      "checks": [c.to_json_dict() for c in checks],
                      "passed": passed, "total": len(checks)})
    else:
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                 for c in checks]
        lines.append(f"{passed}/{len(checks)} checks passed")
        body = "\n".join(lines) + "\n"
    if passed != len(checks):
        raise _LemmaFailure(body)
    return body


class _LemmaFailure(Exception):
    """Carries the battery report for a failing suite."""


# each subcommand: its handler, its help line and its cap on q^2
_COMMANDS = {
    "admissible": (cmd_admissible, "check whether the family applies at (p, k)",
                   AMBIENT_CAP),
    "subset": (cmd_subset, "cumulative sumset layers and verdict", AMBIENT_CAP),
    "spectrum": (cmd_spectrum, "Cayley graph spectrum and bounds", VERTEX_CAP),
    "code-gen": (cmd_code_gen, "parity-check matrix and code parameters",
                 AMBIENT_CAP),
    "code-verify": (cmd_code_verify, "verify decoder table against sumset layers",
                    VERTEX_CAP),
    "decode": (cmd_decode, "decode words from stdin", VERTEX_CAP),
    "lemma-suite": (cmd_lemma_suite, "run the brute-force lemma battery", VERTEX_CAP),
}


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; here 2 is reserved for
        # verification mismatches, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    status = 0
    try:
        try:
            text = _COMMANDS[args.command][0](args)
        except _LemmaFailure as exc:
            text, status = str(exc), 2
        # inside the try, so that an --out that cannot be opened is a
        # precondition error like any other OSError
        _emit(text, args.out)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, AssertionError) as exc:
        print(f"error: verification: {exc}", file=sys.stderr)
        return 2
    if status:
        print("error: verification: lemma battery has failing checks",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
