"""Lee-metric linear codes from generator sets, with a syndrome decoder.

A generator set H with representatives beta_1 .. beta_n defines the code

    C = {c in F_p^n : sum_j c_j * beta_j = 0 in F_q x F_q}

whose parity-check matrix M stacks the 2k coefficient vectors of each
representative.  A pair index is the base-p number whose 2k digits are the
coefficient vectors of (x, y), so the syndrome of an error e is the digit
encoding of M e mod p, and ``syndromes`` computes it for a whole batch of
words with one matrix product.

Error correction and covering radius in the Lee metric are read off a
coset-leader table: for every syndrome, a minimal-Lee-weight error
producing it.  The syndrome of a weight-w error is a sum of w steps
+-beta_j, so that weight is a distance in the Cayley graph of F_q x F_q
with these steps, and the table is a breadth-first search on that graph,
stored as the last step of each syndrome's path from 0 and the size of
each level, the number of cosets of each leader weight.  The search adds
its fixed shifts to a chunk of syndromes coordinate by coordinate with
the field's one addition, the base-(2p - 1) table pair (``_low_q`` for y),
where digit sums carry nothing; it builds no table of its own.  Lee
balls are never held: the round trip plants errors of Lee weight <= 2,
the weight the codes correct, and ``_unrank_ball`` turns the ranks it
picks into those errors' (position, value) pairs in closed form.

The table construction and the sumset layer growth are independent
computations of the same quantities (reachable syndromes per weight), so
``verify_quasi_perfect`` cross-checks one against the other and raises
``VerificationError`` on any disagreement; the error correction then
follows from the census, with no Lee ball enumerated.
"""

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import GeneratorSet, from_representatives, generator_set
from .fields import (VERTEX_CAP, VerificationError, check_ambient, chunk_rows,
                     chunks, index_pack, make_field, pair_neg)
from .sumsets import MAX_LAYERS, Classification, CoverageError, classify


def _unrank_ball(n: int, p: int, radius: int) -> tuple:
    """The words of Z_p^n with Lee weight <= radius <= 2, by rank: the word
    count ``rows`` and a function ``support`` from an array of ranks in
    [0, rows) to int64 arrays ``pos`` and ``val`` of shape 2 x len(ranks).
    The word of rank ranks[i] has entry val[t, i] at position pos[t, i],
    and a (0, 0) pair adds nothing; a rank outside [0, rows) raises
    ValueError.  Exact for any odd p, p = 3 included.

    Ranks go depth-first: rank 0 is the zero word; then position j owns,
    at radius 2, two blocks of 1 + 2(n - 1 - j) ranks, the word with value
    1, then p - 1, at j, each followed by its extensions by +-1 at a
    position past j, in that order; then the words 2 and p - 2 at j, when
    p >= 5.  At radius 1 position j owns its two words, at radius 0 none.
    So a rank's position j is one ``searchsorted`` over the n ends."""
    block = 1 + 2 * (radius == 2) * np.arange(n - 1, -1, -1)
    own = (2 * block + 2 * (radius == 2 and p >= 5)) * (radius > 0)
    ends = np.cumsum(own)
    rows = 1 + int(ends[-1])

    def support(ranks) -> tuple:
        key = np.asarray(ranks, dtype=np.int64) - 1
        if key.size and not -1 <= key.min() <= key.max() < rows - 1:
            raise ValueError(f"ranks must lie in [0, {rows})")
        j = np.searchsorted(ends, key, side="right")
        off, b = key - ends[j] + own[j], block[j]  # off: among j's ranks
        first = np.where(off < 2 * b, np.where(off < b, 1, p - 1),
                         np.where(off == 2 * b, 2, p - 2))
        s = np.where(off < 2 * b, off % b, 0)  # s > 0: a +-1 past j follows
        pos = np.stack([j, np.where(s > 0, j + (s + 1) // 2, 0)])
        val = np.stack([first, np.where(s > 0, np.where(s % 2, 1, p - 1), 0)])
        live = key >= 0  # rank 0, the zero word
        return pos * live, val * live

    return rows, support


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityCheckMatrix:
    """2k x n integer matrix over F_p; column j encodes representative j."""
    generator: GeneratorSet
    entries: np.ndarray

    @property
    def p(self) -> int:
        return self.generator.p

    @property
    def n(self) -> int:
        return self.generator.n

    def to_text(self) -> str:
        """Wire format: header 'p k n family', then 2k rows of n entries.
        Lines starting with '#' after the matrix are ignored by parsers."""
        g = self.generator
        lines = [f"{g.p} {g.k} {g.n} {g.family}"]
        for row in self.entries:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        g = self.generator
        return {
            "p": g.p, "k": g.k, "n": g.n, "family": g.family,
            "rows": self.entries.tolist(),
        }


def parity_check_matrix(gen: GeneratorSet) -> ParityCheckMatrix:
    return ParityCheckMatrix(gen, gen.coordinate_matrix())


def matrix_from_text(text: str) -> ParityCheckMatrix:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("matrix header must be 'p k n family'")
    p, k, n = int(head[0]), int(head[1]), int(head[2])
    family = head[3]
    rows = [[int(v) for v in ln.split()] for ln in lines[1:]]
    return _matrix_from_parts(p, k, n, family, rows)


def matrix_from_json_dict(d: dict) -> ParityCheckMatrix:
    """Parse ``to_json_dict`` output; ValueError names a bad field.  Types
    match exactly: JSON true/false are bool, an int subclass, not ints."""
    for key, kind in (("p", int), ("k", int), ("n", int), ("family", str),
                      ("rows", list)):
        if type(d.get(key)) is not kind:
            raise ValueError(f"matrix JSON field {key!r} is missing or "
                             f"not of type {kind.__name__}")
    if not all(type(r) is list and all(type(v) is int for v in r)
               for r in d["rows"]):
        raise ValueError("matrix JSON field 'rows' must hold lists of integers")
    return _matrix_from_parts(d["p"], d["k"], d["n"], d["family"], d["rows"])


def _matrix_from_parts(p, k, n, family, rows) -> ParityCheckMatrix:
    if n < 1:
        raise ValueError(f"matrix needs n >= 1 columns, got n = {n}")
    if len(rows) != 2 * k or any(len(r) != n for r in rows):
        raise ValueError(f"matrix body must be {2 * k} rows of {n} entries")
    ctx = make_field(p, k)
    # row i holds digit i of every representative's pair index; entries are
    # reduced as Python ints, so that any integer is accepted
    reps = index_pack(np.array([[v % p for v in r] for r in rows], dtype=np.int64), p)
    gen = from_representatives(ctx, family, reps.tolist())
    return parity_check_matrix(gen)


def rank_mod_p(entries: np.ndarray, p: int) -> int:
    """Rank over F_p by Gaussian elimination on a copy."""
    m = np.array(entries, dtype=np.int64) % p
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r, c] % p), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, c]), -1, p)) % p
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] = (m[r] - m[r, c] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def syndromes(matrix: ParityCheckMatrix, words) -> np.ndarray:
    """Pair index of sum_j e_j * beta_j for every row e of an m x n array.

    Entries may be any integers; they are reduced mod p first.
    """
    digits = _syndrome_digits(matrix, _residues(words, matrix.p))
    return index_pack(digits.T, matrix.p)


def _syndrome_digits(matrix: ParityCheckMatrix, arr: np.ndarray) -> np.ndarray:
    """Syndrome digits, a row of 2k per word, of ``_residues`` output."""
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array of words, got shape {arr.shape}")
    if arr.shape[1] != matrix.n:
        raise ValueError(f"length mismatch: expected {matrix.n}, got {arr.shape[1]}")
    return arr @ matrix.entries.T % matrix.p


def syndrome(matrix: ParityCheckMatrix, word) -> int:
    """Pair index of sum_j word_j * beta_j; words must have length n."""
    return int(syndromes(matrix, [word])[0])


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetLeaderTable:
    """Minimal-weight error representative for every syndrome, as a BFS tree.

    Each syndrome s != 0 stores the ``step[s]`` = 2*j + b that reached it,
    +1 (b = 0) or -1 (b = 1) at position j, so its parent is s minus the
    shift +-beta_j; the root's step 2n shifts by 0.  A leader is the sum of
    the steps on the path to the root, so leaders are not stored:
    ``_leaders`` rebuilds a batch of them in ``max_weight`` hops.

    Built contiguously by weight, so the depth of s in the tree, the hops
    of its path, is the minimal Lee weight of its coset, and ``levels[w]``
    counts the syndromes at depth w: the leader-weight histogram.  Ties
    resolve deterministically: parents expand in first-recorded order,
    positions ascend, and at each position the +1 step precedes the -1
    step.
    """
    matrix: ParityCheckMatrix
    step: np.ndarray     # int32; step[0] == 2n
    levels: tuple        # syndromes per depth; levels[0] == 1

    @property
    def max_weight(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def _walk(self) -> tuple:
        """By step 2j + b: position j, sign +-1 and the 2k digits of the
        shift to the parent; the root's step 2n adds 0 and stays at the
        root.  Then the weights p**i that pack digits into a syndrome."""
        p, n = self.matrix.p, self.matrix.n
        steps = np.arange(2 * n + 1)
        pos, sign = steps >> 1, 1 - 2 * (steps & 1)
        pos[-1] = sign[-1] = 0
        back = -sign[:, None] * self.matrix.entries.T[pos] % p
        return pos, sign, back, p ** np.arange(back.shape[1])

    def _leaders(self, digits) -> tuple:
        """Leaders of a batch of syndromes given as an m x 2k array of
        digits, one row each, entries in [0, p); the flat indices of the
        entries the steps touched; and each row's hop count, its leader's
        Lee weight.  Every row takes ``max_weight`` hops, each to its
        parent's digits, so none is dropped on the way; the steps are added
        in after the walk, and only the touched entries reduced mod p."""
        pos, sign, back, powers = self._walk
        p, n = self.matrix.p, self.matrix.n
        cur = np.array(digits, dtype=np.int64)  # a copy: the walk moves it
        steps = np.empty((self.max_weight, len(cur)), dtype=np.intp)
        for st in steps:
            st[:] = self.step[cur @ powers]
            cur += back.take(st, axis=0)  # faster than back[st]
            cur %= p
        out = np.zeros((len(cur), n), dtype=np.int64)
        touched = (np.arange(0, out.size, n) + pos[steps]).ravel()
        np.add.at(out.reshape(-1), touched, sign[steps].ravel())
        out.reshape(-1)[touched] %= p
        return out, touched, (steps < 2 * n).sum(axis=0)


def _first_hits(hits, scratch) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct value
    in ``hits``, without a sort: a scatter-min of the positions into the
    int32 array ``scratch``, whose entries at ``hits`` it overwrites (the
    BFS's ``step``, which assigns them next).  Its own function so that the
    positions array is freed before the BFS expands the next chunk."""
    order = np.arange(hits.size, dtype=np.int32)
    scratch[hits] = hits.size
    np.minimum.at(scratch, hits, order)
    return np.flatnonzero(scratch[hits] == order)


def _shift_adder(ctx, shifts):
    """A function from an array of pair indices ``rows`` to the intp array
    of pair sums ``rows[:, None] + shifts`` in F_q x F_q: the field's one
    addition on each coordinate, the shifts' widened once: y's sum read
    from ``_low_q``, already times q, then x's from ``_low``."""
    q, wide, low, low_q = ctx.q, ctx._wide, ctx._low, ctx._low_q
    wide_x, wide_y = wide[shifts % q], wide[shifts // q]

    def add(rows):
        y, x = np.divmod(rows, q)
        out = low_q.take(wide.take(y)[:, None] + wide_y)
        out += low.take(wide.take(x)[:, None] + wide_x)
        return out

    return add


def coset_leader_table(matrix: ParityCheckMatrix) -> CosetLeaderTable:
    """Breadth-first search on the Cayley graph of F_q x F_q with the steps
    +-beta_j.

    An error of Lee weight w has as syndrome a sum of w steps, so the
    minimal weight of a coset is the distance of its syndrome from 0, and
    the path that first reaches the syndrome spells a leader.  Level w + 1
    is every unfilled syndrome one step from level w; a syndrome keeps the
    first step that reaches it, with candidates ordered by (parent,
    position, +1 before -1): the least candidate order within the chunk,
    no sort.  Syndromes are queued in one int32 array as they are filled,
    so a level is a slice of it, expanded as array operations over chunks
    x n x {+1, -1} up to the chunk that fills the last syndrome.  A chunk's
    candidates are ``_shift_adder`` lookups, np.intp so that every later
    index into ``step`` goes without a cast.  Refuses q^2 above VERTEX_CAP
    (SizeCapError) before allocating; raises CoverageError if the search
    stalls or exceeds MAX_LAYERS levels before assigning every syndrome.
    """
    ctx, size = matrix.generator.base, matrix.generator.ambient_size
    check_ambient(ctx.p, ctx.k, VERTEX_CAP)
    # the syndrome shift of step 2*j + b: +beta_j, then -beta_j
    beta = np.array(matrix.generator.reps, dtype=np.int64)
    shifts = np.stack([beta, pair_neg(ctx, beta)], axis=1).ravel()
    shifted = _shift_adder(ctx, shifts)

    step = np.full(size, -1, dtype=np.int32)  # unfilled while < 0
    step[0] = shifts.size
    queue = np.zeros(size, dtype=np.int32)
    start, filled, levels = 0, 1, [1]
    while filled < size and levels[-1] and len(levels) <= MAX_LAYERS:
        for rows in chunks(queue[start:filled], shifts.size):
            if filled == size:
                break  # a later chunk could only reach filled syndromes
            # a step that does not raise the weight of a level-w leader lands
            # at distance <= w, all filled before level w is expanded: so the
            # unfilled test alone keeps exactly the weight-raising steps
            cand = shifted(rows)
            pos = np.flatnonzero(step[cand] < 0)
            hits = cand.ravel()[pos]
            # step is free as scratch at the hits: _first_hits writes only
            # there, and every distinct hit is assigned its step below
            first = _first_hits(hits, step)
            new = hits[first]
            step[new] = pos[first] % shifts.size
            queue[filled:filled + new.size] = new
            filled += new.size
        start += levels[-1]
        levels.append(filled - start)
    if filled < size:
        reason = "stalled" if not levels[-1] else f"exceeded {MAX_LAYERS} levels"
        raise CoverageError(
            f"coset table {reason} with {size - filled} syndromes unassigned")
    return CosetLeaderTable(matrix, step, tuple(levels))


@dataclass(frozen=True)
class DecodeResult:
    codeword: tuple
    error: tuple
    weight: int
    syndrome: int


def _residues(words, p: int) -> np.ndarray:
    """Words as an int64 array with entries in [0, p).  Entries beyond the
    int64 range are reduced as Python ints first; an array reduced only
    when one of its entries lies outside [0, p), so an int64 array already
    in range comes back as itself, not as a copy."""
    try:
        arr = np.asarray(words, dtype=np.int64)
    except OverflowError:
        arr = np.asarray(np.asarray(words, dtype=object) % p, dtype=np.int64)
    # one pass: a negative entry read as uint64 is beyond any p
    if arr.size and arr.view(np.uint64).max() >= p:
        arr = arr % p
    return arr


def decode_words(table: CosetLeaderTable, words) -> tuple:
    """Decode a batch of words: subtract from each the coset leader of its
    syndrome.

    ``words`` is an m x n array (or list of rows) of any integers.  Returns
    the arrays (codewords, errors, weights, syndromes): m x n codewords and
    errors with entries in [0, p), and m leader weights and syndromes.
    """
    p = table.matrix.p
    arr = _residues(words, p)
    digits = _syndrome_digits(table.matrix, arr)
    errors, touched, weights = table._leaders(digits)
    syns = index_pack(digits.T, p)
    # the difference leaves [0, p) only where a step touched the error; it
    # goes to a C-ordered array, so that its flat view writes through
    cws = np.subtract(arr, errors, out=np.empty_like(errors))
    cws.reshape(-1)[touched] %= p
    return cws, errors, weights, syns


def decode(table: CosetLeaderTable, word) -> DecodeResult:
    """Decode one word: ``decode_words`` on a single row, as Python ints."""
    cws, errs, weights, syns = decode_words(table, [word])
    return DecodeResult(tuple(cws[0].tolist()), tuple(errs[0].tolist()),
                        int(weights[0]), int(syns[0]))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeeCode:
    """Parameters of the code cut out by a generator set."""
    generator: GeneratorSet
    matrix: ParityCheckMatrix
    n: int
    dimension: int
    codeword_count: int
    density: float
    error_correction: int
    covering_radius: int  # None when the sumsets never cover
    verdict: str
    classification: Classification

    def to_json_dict(self) -> dict:
        g = self.generator
        return {
            "family": g.family,
            "context": g.context_json,
            "n": self.n,
            "dimension": self.dimension,
            "codeword_count": self.codeword_count,
            "density": self.density,
            "error_correction": self.error_correction,
            "covering_radius": self.covering_radius,
            "verdict": self.verdict,
            "matrix": self.matrix.to_json_dict(),
        }


def code_parameters(gen: GeneratorSet) -> LeeCode:
    """Code parameters with t and R taken from the sumset layer indices."""
    cls = classify(gen)
    mat = parity_check_matrix(gen)
    rank = rank_mod_p(mat.entries, gen.p)
    dim = gen.n - rank
    count = gen.p ** dim
    return LeeCode(
        generator=gen, matrix=mat, n=gen.n, dimension=dim,
        codeword_count=count, density=count / gen.p ** gen.n,
        error_correction=cls.layers.critical_index,
        covering_radius=cls.layers.limit_index,
        verdict=cls.verdict, classification=cls)


def build_code(p: int, k: int, family: str) -> LeeCode:
    """Convenience: field -> generator set -> code parameters."""
    return code_parameters(generator_set(make_field(p, k), family))


@dataclass(frozen=True)
class QuasiPerfectReport:
    code: LeeCode
    table: CosetLeaderTable
    error_correction: int       # from the census, as the layers' critical index
    covering_radius: int        # from the decoder table
    unique_minimal: bool   # weight <= 2 errors have pairwise distinct syndromes
    quasi_perfect: bool

    def to_json_dict(self) -> dict:
        d = self.code.to_json_dict()
        d.pop("matrix")
        d.update({
            "table_error_correction": self.error_correction,
            "table_covering_radius": self.covering_radius,
            "leader_weight_histogram":
                {str(w): c for w, c in enumerate(self.table.levels)},
            "census_consistent": True,  # verify_quasi_perfect raises otherwise
            "unique_minimal": self.unique_minimal,
            "quasi_perfect": self.quasi_perfect,
        })
        return d


def verify_quasi_perfect(code: LeeCode,
                         table: CosetLeaderTable) -> QuasiPerfectReport:
    """Cross-check decoder-table parameters against the sumset layers.

    Two routes must agree: the layer census (by orbit classes, or by the
    FFT off the curves) and the leader-weight histogram (coset BFS), in
    the covering radius and in the syndromes within each weight.  Raises
    VerificationError on any mismatch.  Then t needs no route of its own:
    the syndromes within weight w are the image of the Lee ball B_w, so
    the syndrome map is injective on B_w exactly when the census at w is
    ``lee_ball_size(n, w)``, and the largest such w <= min(3, R) is the
    layers' critical index, which is defined by the same comparison.  At
    p = 5 and w = 3 the formula overcounts the wrapped ball, so the
    equality cannot hold where the ball wraps around.
    """
    layers = code.classification.layers

    r_table = table.max_weight
    if r_table != layers.limit_index:
        raise VerificationError(
            f"covering radius mismatch: table {r_table}, layers {layers.limit_index}")

    # syndromes within weight w, w <= r_table, by the two routes
    census = np.cumsum(table.levels).tolist()
    if census != list(layers.sizes[:len(census)]):
        raise VerificationError("leader census disagrees with layer sizes")

    t = code.error_correction
    return QuasiPerfectReport(
        code=code, table=table,
        error_correction=t, covering_radius=r_table,
        unique_minimal=t >= 2,
        quasi_perfect=(t == 2 and r_table == 3))


def _trial_draws(rng, trials: int, n: int, p: int, size: int):
    """The random draws of ``trials`` round trips, in chunks of trials:
    arrays (words, picks) holding what ``[rng.randrange(p) for _ in
    range(n)]`` and then ``rng.randrange(size)`` would return per trial.

    For 0 < m < 2^32, ``randrange(m)`` takes the top m.bit_length() bits
    of the next 32-bit Mersenne Twister output, drawing again while they
    are >= m, and ``getrandbits(32 * N)`` returns the next N outputs, the
    first least significant.  So the outputs are drawn in bulk, those
    accepted under each bound are found at once, and each trial takes the
    next n accepted under p and then the next accepted under ``size``.
    Outputs left over carry into the next chunk.  Exact only for bounds
    below 2^32, where ``shift_p`` and ``shift_s`` are nonnegative: here
    p <= 1021 (the coset table's gate) and ``size`` <= ``VERTEX_CAP``."""
    shift_p, shift_s = 32 - p.bit_length(), 32 - size.bit_length()
    # mean outputs per trial, from each bound's acceptance rate
    per_trial = n * (1 << p.bit_length()) / p + (1 << size.bit_length()) / size
    buf = np.empty(0, dtype=np.uint32)
    done = 0
    while done < trials:
        rows = min(chunk_rows(n), trials - done)
        more = int(rows * per_trial * 1.02) + 64
        buf = np.concatenate([buf, np.frombuffer(
            rng.getrandbits(32 * more).to_bytes(4 * more, "little"), dtype="<u4")])
        ok_p, ok_s = buf >> shift_p < p, buf >> shift_s < size
        at_p, at_s = np.flatnonzero(ok_p), np.flatnonzero(ok_s)
        # a trial whose words start at at_p[i] picks at_s[pick[i]], and the
        # next trial starts at at_p[after[i]]; only i < whole fit in buf.
        # pick and after count the accepted outputs up to and including one
        pick = np.cumsum(ok_s)[at_p[n - 1:]]
        whole = np.searchsorted(pick, at_s.size)
        after = np.cumsum(ok_p)[at_s[pick[:whole]]]
        starts, i = [], 0
        while len(starts) < rows and i < whole:
            starts.append(i)
            i = int(after[i])
        if starts:  # else the buffer was short: the next pass draws more
            words = buf[at_p[np.add.outer(starts, np.arange(n))]] >> shift_p
            picked = at_s[pick[starts]]
            yield words.astype(np.int64), (buf[picked] >> shift_s).astype(np.int64)
            buf = buf[picked[-1] + 1:]
            done += len(starts)


def round_trip_check(table: CosetLeaderTable, trials: int, seed: int,
                     max_weight: int = 2) -> tuple:
    """Seeded random decode round trips: (successes, trials).

    A codeword is sampled by decoding a uniform random word (uniform over
    the code), a random error of Lee weight <= max_weight <= 2 is added,
    and the decoder must return exactly the original pair.  Per trial the
    draws are those of ``random.Random(seed)``'s ``randrange(p)`` for each
    of the n entries and then ``randrange`` over the Lee ball, in that
    order, but taken from the generator in bulk a chunk of trials at a
    time (``_trial_draws``); each chunk unranks only its picked errors
    (``_unrank_ball``) and is decoded as n-entry rows, so memory grows
    neither with ``trials`` nor with the ball.  ValueError, before any
    draw, if ``trials`` < 0, if ``max_weight`` is not in [0, 2], or for a
    Lee ball of more than ``VERTEX_CAP`` words: the ball is not held, but
    the bulk draws are exact only for a ball below 2^32 words.
    """
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    if not 0 <= max_weight <= 2:
        raise ValueError(f"round trip errors have Lee weight at most 2, "
                         f"got max_weight = {max_weight}")
    p, n = table.matrix.p, table.matrix.n
    rows, support = _unrank_ball(n, p, max_weight)
    if rows > VERTEX_CAP:
        raise ValueError(f"the radius-{max_weight} Lee ball at n = {n} holds "
                         f"{rows} words, more than {VERTEX_CAP}")
    ok = 0
    for words, picked in _trial_draws(random.Random(seed), trials, n, p, rows):
        # dense rows for the picked errors only; a padding pair adds 0
        pos, val = support(picked)
        err = np.zeros((len(picked), n), dtype=np.int64)
        np.add.at(err, (np.arange(len(picked)), pos), val)
        cw = decode_words(table, words)[0]
        got = decode_words(table, cw + err)[1]
        # the decoded codeword is cw exactly when the returned error is err
        ok += int((got == err).all(axis=1).sum())
    return ok, trials
