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
stored as the BFS tree (a parent syndrome and a step per syndrome).  Lee
balls are held as the supports of their words, (position, value) pairs,
to which the parity-check map is applied.

The table construction and the sumset layer growth are independent
computations of the same quantities (reachable syndromes per weight), so
``verify_quasi_perfect`` cross-checks one against the other and raises
``VerificationError`` on any disagreement.
"""

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .curves import GeneratorSet, from_representatives, generator_set
from .fields import (VERTEX_CAP, VerificationError, check_ambient, chunks,
                     index_mask, index_pack, make_field, pair_add, pair_neg)
from .sumsets import (MAX_LAYERS, Classification, CoverageError, classify,
                      lee_ball_size)


def lee_weight(word, p: int) -> int:
    """Sum of min(c, p - c) over the entries, entries taken mod p."""
    return sum(min(c % p, p - c % p) for c in word)


def lee_ball_support(n: int, p: int, radius: int) -> tuple:
    """All words of Z_p^n with Lee weight <= radius, as their supports.

    Returns int64 arrays ``pos`` and ``val`` of shape rows x min(radius, n):
    row i is the word with entry val[i, t] at position pos[i, t], and the
    pairs past its support are (0, 0).  Exact for any p; the row count
    agrees with ``lee_ball_size`` whenever the radius is at most (p-1)/2.
    Rows come in depth-first order: a word is followed by its extensions at
    later positions, and siblings go by position, then weight w, then value
    w before p - w.  That is the order of the key (j_1, r_1, j_2, r_2, ...)
    over the nonzero positions j_i, with r = 2(w - 1) for the value w and
    r = 2(w - 1) + 1 for p - w, padded with -1 so that a key sorts before
    its extensions.
    """
    half, width = (p - 1) // 2, min(radius, n)
    keys = [np.full((1, 2 * width), -1, dtype=np.int64)]  # the zero word
    for m in range(1, width + 1):
        pos = np.array(list(itertools.combinations(range(n), m)),
                       dtype=np.int64).reshape(-1, m)
        for ws in itertools.product(range(1, min(half, radius) + 1), repeat=m):
            if sum(ws) > radius:
                continue
            for signs in itertools.product((0, 1), repeat=m):
                key = np.full((len(pos), 2 * width), -1, dtype=np.int64)
                key[:, 0:2 * m:2] = pos
                key[:, 1:2 * m:2] = [2 * (w - 1) + s for w, s in zip(ws, signs)]
                keys.append(key)
    keys = np.concatenate(keys)
    keys = keys[np.lexsort(keys.T[::-1])] if width else keys
    pos, rank = keys[:, 0::2], keys[:, 1::2]
    w = (rank >> 1) + 1
    # the padding rank -1 gives w = 0 and the value p - 0 = 0 mod p
    return np.maximum(pos, 0), np.where(rank & 1, p - w, w) % p


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
    arr = _residues(words, matrix.p)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array of words, got shape {arr.shape}")
    if arr.shape[1] != matrix.n:
        raise ValueError(f"length mismatch: expected {matrix.n}, got {arr.shape[1]}")
    return index_pack(matrix.entries @ arr.T % matrix.p, matrix.p)


def syndrome(matrix: ParityCheckMatrix, word) -> int:
    """Pair index of sum_j word_j * beta_j; words must have length n."""
    return int(syndromes(matrix, [word])[0])


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetLeaderTable:
    """Minimal-weight error representative for every syndrome, as a BFS tree.

    Each syndrome s != 0 stores the syndrome ``parent[s]`` it was reached
    from and the ``step[s]`` = 2*j + b taken there: +1 (b = 0) or -1
    (b = 1) at position j.  Its leader is the sum of the steps on the path
    to the root 0, so leaders are not stored: ``leader_words`` rebuilds a
    batch of them in at most ``max_weight`` parent hops.

    Built contiguously by weight, so the leader of s attains the true
    minimal Lee weight ``weights[s]`` of the coset.  Ties resolve
    deterministically: parents expand in first-recorded order, positions
    ascend, and at each position the +1 step precedes the -1 step.
    """
    matrix: ParityCheckMatrix
    parent: np.ndarray   # int32; parent[0] == 0
    step: np.ndarray     # int32; step[0] == -1
    weights: np.ndarray  # int32
    max_weight: int

    def leader_words(self, syns) -> np.ndarray:
        """Leaders of a batch of syndromes, one row each, entries in [0, p):
        the steps summed over at most ``max_weight`` hops to the root.

        A leader has at most ``max_weight`` nonzero entries, so the steps
        are added at flat indices ``row * n + j``, one per row and hop
        (distinct, so a plain ``+=`` is exact), and only the entries they
        touched are reduced mod p."""
        n = self.matrix.n
        cur = np.asarray(syns, dtype=np.int64).ravel()
        out = np.zeros((cur.size, n), dtype=np.int64)
        flat, touched = out.reshape(-1), []
        rows = np.flatnonzero(cur)
        cur = cur[rows]  # the syndrome each row in ``rows`` is at
        for _ in range(self.max_weight):
            if not rows.size:
                break
            st = self.step[cur]
            at = rows * n + (st >> 1)
            flat[at] += 1 - 2 * (st & 1)
            touched.append(at)
            cur = self.parent[cur]
            keep = cur != 0
            rows, cur = rows[keep], cur[keep]
        if touched:
            at = np.concatenate(touched)
            flat[at] %= self.matrix.p
        return out

    def histogram(self) -> dict:
        cnts = np.bincount(self.weights)
        return {int(v): int(cnts[v]) for v in np.flatnonzero(cnts)}

    def census(self, w: int) -> int:
        """Number of syndromes whose coset leader weight is <= w."""
        return int((self.weights <= w).sum())


def _first_hits(hits, scratch) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct value
    in ``hits``, without a sort: a scatter-min of the positions into the
    int32 array ``scratch``, whose entries at ``hits`` it overwrites.  Its
    own function so that the positions array is freed before the BFS
    expands the next chunk."""
    order = np.arange(hits.size, dtype=np.int32)
    scratch[hits] = hits.size
    np.minimum.at(scratch, hits, order)
    return np.flatnonzero(scratch[hits] == order)


def coset_leader_table(matrix: ParityCheckMatrix) -> CosetLeaderTable:
    """Breadth-first search on the Cayley graph of F_q x F_q with the steps
    +-beta_j.

    An error of Lee weight w has as syndrome a sum of w steps, so the
    minimal weight of a coset is the distance of its syndrome from 0, and
    the path that first reaches the syndrome spells a leader.  Level w + 1
    is every unfilled syndrome one step from level w; a syndrome keeps the
    first step that reaches it, with candidates ordered by (parent,
    position, +1 before -1): the least candidate order within the chunk,
    no sort.  Each level is expanded as array operations
    over frontier chunks x n x {+1, -1}, up to the chunk that fills the
    last syndrome.  Refuses q^2 above VERTEX_CAP (SizeCapError) before
    allocating; raises CoverageError if the search stalls or exceeds
    MAX_LAYERS levels before assigning every syndrome.
    """
    ctx, size = matrix.generator.base, matrix.generator.ambient_size
    check_ambient(ctx.p, ctx.k, VERTEX_CAP)
    # the syndrome shift of step 2*j + b: +beta_j, then -beta_j
    beta = np.array(matrix.generator.reps, dtype=np.int64)
    shifts = np.stack([beta, pair_neg(ctx, beta)], axis=1).ravel()

    parent = np.full(size, -1, dtype=np.int32)
    step = np.full(size, -1, dtype=np.int32)
    weights = np.full(size, -1, dtype=np.int32)
    parent[0] = weights[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    filled = 1
    w = 0
    while filled < size and frontier.size and w < MAX_LAYERS:
        found = []
        for rows in chunks(frontier, shifts.size):
            if filled == size:
                break  # a later chunk could only reach filled syndromes
            # a step that does not raise the weight of a level-w leader lands
            # at distance <= w, all filled before level w is expanded: so the
            # unfilled test alone keeps exactly the weight-raising steps
            cand = pair_add(ctx, rows[:, None], shifts)
            pos = np.flatnonzero(weights[cand] < 0)
            hits = cand.ravel()[pos]
            # step is free as scratch: every distinct hit is assigned below
            first = _first_hits(hits, step)
            new, pos = hits[first], pos[first]
            parent[new] = rows[pos // shifts.size]
            step[new] = pos % shifts.size
            weights[new] = w + 1
            filled += new.size
            found.append(new)
        frontier = np.concatenate(found)
        w += 1
    if filled < size:
        reason = "stalled" if not frontier.size else f"exceeded {MAX_LAYERS} levels"
        raise CoverageError(
            f"coset table {reason} with {size - filled} syndromes unassigned")
    return CosetLeaderTable(matrix, parent, step, weights, int(weights.max()))


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
    if arr.size and (arr.min() < 0 or arr.max() >= p):
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
    syns = syndromes(table.matrix, arr)
    errors = table.leader_words(syns)
    # both in [0, p), so the difference needs p added where negative only
    cws = arr - errors
    np.add(cws, p, out=cws, where=cws < 0)
    return cws, errors, table.weights[syns], syns


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
    error_correction: int       # from the decoder table
    covering_radius: int        # from the decoder table
    census_consistent: bool
    unique_minimal: bool   # weight <= 2 errors have pairwise distinct syndromes
    quasi_perfect: bool

    def to_json_dict(self) -> dict:
        d = self.code.to_json_dict()
        d.pop("matrix")
        d.update({
            "table_error_correction": self.error_correction,
            "table_covering_radius": self.covering_radius,
            "leader_weight_histogram":
                {str(k_): v for k_, v in sorted(self.table.histogram().items())},
            "census_consistent": self.census_consistent,
            "unique_minimal": self.unique_minimal,
            "quasi_perfect": self.quasi_perfect,
        })
        return d


def verify_quasi_perfect(code: LeeCode,
                         table: CosetLeaderTable = None) -> QuasiPerfectReport:
    """Cross-check decoder-table parameters against the sumset layers.

    Three routes must agree: the layer census (by orbit classes, or by the
    FFT off the curves), the leader-weight histogram (coset BFS), and the
    injectivity of the syndrome map on Lee balls.  Injectivity is checked
    on the syndromes of the ball's supports, unless #B_w > q^2, where the
    pigeonhole principle already rules it out.  Raises VerificationError on
    any mismatch.
    """
    gen = code.generator
    if table is None:
        table = coset_leader_table(code.matrix)
    layers = code.classification.layers

    r_table = table.max_weight
    if r_table != layers.limit_index:
        raise VerificationError(
            f"covering radius mismatch: table {r_table}, layers {layers.limit_index}")

    census_ok = all(
        table.census(w) == layers.sizes[w]
        for w in range(min(r_table, len(layers.sizes) - 1) + 1))
    if not census_ok:
        raise VerificationError("leader census disagrees with layer sizes")

    # injectivity of the syndrome map on Lee balls
    t_table = 0
    for w in range(1, min(3, r_table) + 1):
        ball_size = lee_ball_size(gen.n, w)
        if ball_size > gen.ambient_size:
            break  # more light errors than syndromes: cannot be injective
        pos, val = lee_ball_support(gen.n, gen.p, w)
        if len(pos) != ball_size:
            break  # wraparound regime (p < 2w + 1): formula no longer counts
        # the parity-check map on the supports: M[:, pos] . val mod p
        syns = index_pack((code.matrix.entries[:, pos] * val).sum(axis=2) % gen.p,
                          gen.p)
        if np.count_nonzero(index_mask(gen.ambient_size, syns)) == ball_size:
            t_table = w
        else:
            break
    if t_table != code.error_correction:
        raise VerificationError(
            f"error correction mismatch: enumeration {t_table}, "
            f"layers {code.error_correction}")

    return QuasiPerfectReport(
        code=code, table=table,
        error_correction=t_table, covering_radius=r_table,
        census_consistent=census_ok, unique_minimal=t_table >= 2,
        quasi_perfect=(t_table == 2 and r_table == 3))


def round_trip_check(table: CosetLeaderTable, trials: int, seed: int,
                     max_weight: int = 2) -> tuple:
    """Seeded random decode round trips: (successes, trials).

    A codeword is sampled by decoding a uniform random word (uniform over
    the code), a random error of Lee weight <= max_weight is added, and
    the decoder must return exactly the original pair.  Trials are drawn
    one after another and decoded in ``chunks`` of n-entry rows, so
    memory does not grow with ``trials``.  ValueError if ``trials`` < 0, or
    before enumerating a Lee ball of more than ``VERTEX_CAP`` words.
    """
    if trials < 0:
        raise ValueError(f"trial count must be nonnegative, got {trials}")
    p, n = table.matrix.p, table.matrix.n
    ball = lee_ball_size(n, max_weight)
    if ball > VERTEX_CAP:
        raise ValueError(f"the radius-{max_weight} Lee ball at n = {n} holds "
                         f"{ball} words, more than {VERTEX_CAP}")
    rng = random.Random(seed)
    pos, val = lee_ball_support(n, p, max_weight)
    ok = 0
    for block in chunks(range(trials), n):
        words, picked = [], []
        for _ in block:
            words.append([rng.randrange(p) for _ in range(n)])
            picked.append(rng.randrange(len(pos)))
        # dense rows for the picked errors only
        err = np.zeros((len(picked), n), dtype=np.int64)
        np.add.at(err, (np.arange(len(picked))[:, None], pos[picked]), val[picked])
        cw = decode_words(table, words)[0]
        got = decode_words(table, cw + err)[1]
        # the decoded codeword is cw exactly when the returned error is err
        ok += int((got == err).all(axis=1).sum())
    return ok, trials
