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

Exit codes: 0 success, 1 precondition violation (out of memory among
them), 2 verification mismatch.  Identical configurations produce
byte-identical output on one BLAS kernel family (see README).
"""

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import fields
from .codes import (VerificationError, code_parameters, coset_leader_table,
                    decode_words, matrix_from_json_dict, matrix_from_text,
                    parity_check_matrix, round_trip_check, verify_quasi_perfect)
from .curves import admissibility, generator_set
from .fields import AMBIENT_CAP, VERTEX_CAP, check_ambient, chunks, make_field
from .lemmas import lemma_battery
from .spectra import class_counts, full_spectrum
from .sumsets import check_classifiable, classify

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

    for name, (_, helptext) in _COMMANDS.items():
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
    """Refuse q^2 = p^(2k) above --cap or AMBIENT_CAP before anything is
    built, in every subcommand and for --matrix; lower caps are the routes'."""
    check_ambient(p, k, min(args.cap, AMBIENT_CAP))


def _generator(args, classified=False):
    """The generator set of --p/--k/--family.  ``classified`` refuses p = 3,
    the one odd prime ``classify`` refuses, after the cap, before the field."""
    _require(args, "p", "family")
    _check_cap(args, args.p, args.k)
    if classified and args.p == 3:
        check_classifiable(args.p)
    return generator_set(make_field(args.p, args.k), args.family)


def _matrix(args, classified=False):
    """The parity-check matrix of the --matrix file, else of --p/--k/--family.
    The cap applies to the p and k of the file's JSON fields or header line
    before the parse builds anything; a malformed header is the parser's."""
    if not args.matrix:
        return parity_check_matrix(_generator(args, classified))
    with open(args.matrix) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        d = json.loads(text)
        if type(d.get("p")) is int and type(d.get("k")) is int:
            _check_cap(args, d["p"], d["k"])
        return matrix_from_json_dict(d)
    head = next((ln.split() for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")), [])
    if len(head) == 4:
        _check_cap(args, int(head[0]), int(head[1]))
    return matrix_from_text(text)


def _json(obj) -> str:
    with _exact_ints():
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _exact_ints():
    """No str() digit limit while output is formatted: p^dimension passes
    4300 digits from p = 2531 (plus).  Input keeps the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
    cls = classify(_generator(args, classified=True))
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
    if args.dump_csv:
        check_ambient(gen.p, gen.k, VERTEX_CAP)  # the dump has q^2 lines
    rep = full_spectrum(gen)
    if args.dump_csv:
        with open(args.dump_csv, "w") as fh:
            heads = ",".join(f"count_{j}" for j in range(gen.p))
            fh.write(f"alpha,eigenvalue,{heads}\n")
            # in bounded memory: one chunk of counts, one block of y's keys
            eigs, rows, x = iter(rep.class_eigenvalues.tolist()), [], np.arange(gen.q)
            for counts in class_counts(gen):
                rows += [f"{eig!r}," + ",".join(map(str, r))
                         for r, eig in zip(counts.tolist(), eigs)]
            for ys in chunks(range(gen.q), gen.q):
                keys = gen.classes.of(x, np.array(ys)[:, None]).ravel().tolist()
                for alpha, c in enumerate(keys, ys.start * gen.q):
                    fh.write(f"{alpha},{rows[c]}\n")
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
    code = code_parameters(_generator(args, classified=True))
    if args.fmt == "json":
        return _json(code.to_json_dict())
    radius = "none" if code.covering_radius is None else code.covering_radius
    with _exact_ints():
        return (code.matrix.to_text()
                + f"# n={code.n} dimension={code.dimension} "
                  f"codewords={code.codeword_count} density={code.density!r}\n"
                + f"# error_correction={code.error_correction} "
                  f"covering_radius={radius} verdict={code.verdict}\n")


def cmd_code_verify(args) -> str:
    mat = _matrix(args, classified=True)
    check_classifiable(mat.p)  # a --matrix file's p, before the BFS
    table = coset_leader_table(mat)  # before any layer: its BFS refuses q^2 > 2^20
    code = code_parameters(mat.generator)
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
    hist = " ".join(f"{w}:{c}" for w, c in enumerate(table.levels))
    return (f"family={g.family} p={g.p} k={g.k} n={code.n} "
            f"dimension={code.dimension}\n"
            f"verdict={code.verdict} quasi_perfect={_YESNO[rep.quasi_perfect]}\n"
            f"error_correction={rep.error_correction} "
            f"covering_radius={rep.covering_radius} (table and layers agree)\n"
            f"leader_weights: {hist}\n"
            f"round_trip: {ok}/{total} seed={args.seed}\n")


def _plain_words(text, n):
    """The lines of ``text`` (a batch of stdin, or its stripped lines), one
    or more, each ended by a newline, as an m x n int64 array when each is
    n ASCII digit strings joined by single spaces, every one below 10^18;
    otherwise None.  It is read from the text's bytes: the separators give
    the token ends, and the values come from a Horner pass over the last
    digits of every token at once, one array operation a digit column."""
    if not text.isascii():
        return None
    raw = text.encode()
    if raw.translate(None, b"0123456789 \n") or not raw.endswith(b"\n"):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    # a digit string begins the text and follows every separator, so each
    # separator ends one token, and the text ends with one
    sep = data <= 32
    if sep[0] or (sep[1:] & sep[:-1]).any():
        return None
    ends = np.flatnonzero(sep)
    # each line holds n tokens when the token count is m * n and the m
    # newlines end tokens n, 2n, ..., mn
    m, rest = divmod(ends.size, n)
    if (rest or np.count_nonzero(data == 10) != m
            or (data.take(ends[n - 1::n]) != 10).any()):
        return None
    # the separator before each token: the text's last byte, a newline, for
    # the first, as index -1 reads it
    before = np.empty_like(ends)
    before[0] = -1
    before[1:] = ends[:-1]
    width = int((ends - before).max()) - 1
    if width > 18:
        # a token is below 10^18 when no digit before its last 18 is nonzero
        long = np.flatnonzero(ends - before > 19)
        nonzero = np.zeros(data.size + 1, dtype=np.int64)  # in data[:i]
        np.cumsum(data > 48, out=nonzero[1:])
        if (nonzero[ends[long] - 18] != nonzero[before[long] + 1]).any():
            return None
        width = 18
    # Horner over the last `width` bytes of every token, the bytes before
    # it read as its separator, which the maximum turns into "0"; the sum
    # then holds 48 * 11...1 (`width` ones) too much, and stays below
    # 58 * 11...1 < 2^63
    words = np.zeros(ends.size, dtype=np.int64)
    for back in range(width, 0, -1):
        words *= 10
        words += np.maximum(data.take(np.maximum(ends - back, before)), 48)
    words -= 48 * (10 ** width - 1) // 9
    return words.reshape(m, n)


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


def _stdin_words(stream, n):
    """The words of the non-comment lines of ``stream``, in order, as
    arrays or lists of rows.  Stdin is read by ``readlines`` in batches of
    whole lines: about 2 * CHUNK_ENTRIES characters, plus at most one line.
    A plain entry takes at least two (a digit and a separator), so a plain
    batch holds at most CHUNK_ENTRIES entries and one line, and is parsed
    whole, with no Python loop over its lines.  The lines of any other
    batch are stripped, blanks and ``#`` comments dropped, and the rest
    parsed by the same plain parse, else by ``int``, each line numbered by
    its place in stdin.  A last line without a newline gets one."""
    lineno = 0
    while lines := stream.readlines(2 * fields.CHUNK_ENTRIES):
        if not lines[-1].endswith("\n"):
            lines[-1] += "\n"
        words = _plain_words("".join(lines), n)
        if words is None:
            block = [(i, line) for i, line in enumerate(
                         (line.strip() for line in lines), start=lineno + 1)
                     if line and not line.startswith("#")]
            if block:
                words = _plain_words("".join(line + "\n" for _, line in block), n)
                words = _int_words(block, n) if words is None else words
            del block
        lineno += len(lines)
        del lines  # its words are all that is kept (cmd_decode)
        if words is not None:
            yield words


# the literal pieces of one output line: the separator of two entries, then
# the text before the codeword, before the error, before the weight and after it
_LINE_PIECES = {"text": (" ", "", " | ", " | ", "\n"),
                "json": (", ", '{"codeword": [', '], "error": [', '], "weight": ',
                         "}\n")}


def _word_table(strings) -> np.ndarray:
    """One machine word per ASCII string, NUL-padded: uint32 when every
    string fits 4 bytes, else uint64, so that a gather of table entries is
    a take of words, not of byte rows.  Entries are below p <= 8191 under
    AMBIENT_CAP, so 8 bytes always suffice (", 8190" is 6)."""
    size = 4 if max(map(len, strings)) <= 4 else 8
    return np.frombuffer(b"".join(s.encode().ljust(size, b"\0") for s in strings),
                         dtype=np.uint32 if size == 4 else np.uint64)


def _line_formatter(p, max_weight, fmt):
    """The formatter of decoded words in ``fmt``: a function of the arrays
    (codewords, errors, weights) that returns their output lines, built as
    one byte array.  Its tables are built once: ``digits[v]`` holds the
    separator and ``str(v)``, ``wdigits[w]`` holds ``str(w)``, both
    NUL-padded words, and the literal pieces of a line are byte arrays.
    Each column of the lines is written into one preallocated m-row
    buffer, then the NULs and the separator before the first entry of
    each word are dropped."""
    sep, *texts = _LINE_PIECES[fmt]
    digits = _word_table([sep + str(v) for v in range(p)])
    wdigits = _word_table([str(w) for w in range(max_weight + 1)])
    head, mid, tail, end = (np.frombuffer(s.encode(), dtype=np.uint8) for s in texts)
    cut = len(sep)

    def format_lines(cws, errs, weights) -> bytes:
        m = len(weights)
        cols = [head, digits[cws].view(np.uint8).reshape(m, -1)[:, cut:], mid,
                digits[errs].view(np.uint8).reshape(m, -1)[:, cut:], tail,
                wdigits[weights].view(np.uint8).reshape(m, -1), end]
        buf = np.empty((m, sum(c.shape[-1] for c in cols)), dtype=np.uint8)
        at = 0
        for col in cols:
            buf[:, at:at + col.shape[-1]] = col
            at += col.shape[-1]
        return buf.tobytes().translate(None, b"\0")
    return format_lines


def cmd_decode(args) -> bytearray:
    """Decode the words of stdin (``_stdin_words``) a batch of lines at a
    time, each parsed, decoded and formatted as arrays: batches, not all
    of stdin, so the parsed words do not grow with the input.  The output
    is held to the end, so that a bad line leaves it empty, and held once:
    as the returned bytearray, which ``_emit`` writes as it is.  A plain
    batch is read from its bytes by array operations over all its tokens
    at once (``_plain_words``); any other batch goes token by token
    through ``int``, so every token is read or refused as ``int`` does,
    and the first bad line of stdin is the one named, since the earlier
    lines parsed cleanly."""
    mat = _matrix(args)
    table = coset_leader_table(mat)
    format_lines = _line_formatter(mat.p, table.max_weight, args.fmt)
    # one growing buffer rather than a list of outputs joined at the end,
    # so the output is held once, not twice.  It grows in the heap, so a
    # batch's text, words and decoded arrays are each dropped once the next
    # stage has what it needs: with them alive longer, repeated decodes in
    # one process fragment the heap and peak up to 4 MiB higher
    out = bytearray()
    for words in _stdin_words(sys.stdin, mat.n):
        out += format_lines(*decode_words(table, words)[:3])
        del words
    return out


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


# each subcommand: its handler and its help line
_COMMANDS = {
    "admissible": (cmd_admissible, "check whether the family applies at (p, k)"),
    "subset": (cmd_subset, "cumulative sumset layers and verdict"),
    "spectrum": (cmd_spectrum, "Cayley graph spectrum and bounds"),
    "code-gen": (cmd_code_gen, "parity-check matrix and code parameters"),
    "code-verify": (cmd_code_verify, "verify decoder table against sumset layers"),
    "decode": (cmd_decode, "decode words from stdin"),
    "lemma-suite": (cmd_lemma_suite, "run the brute-force lemma battery"),
}


def _emit(text, out_path) -> None:
    """Write a command's output to the ``out_path`` file, else to stdout.
    A bytearray (``decode``'s output) goes to the file as it is, in binary
    mode, and is decoded to text only for stdout; a str is written as text."""
    binary = isinstance(text, bytearray)
    if out_path:
        with open(out_path, "wb" if binary else "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text.decode() if binary else text)


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
    except MemoryError as exc:  # numpy's _ArrayMemoryError among them
        print("error: precondition: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
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
