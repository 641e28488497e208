"""Independent routes that the tests check the program against.

Each oracle does one element at a time what the program does over whole
arrays.  Addition in the packed-index groups takes each index apart one
base-p digit at a time, adds or negates the digits mod p and puts the
result together again.  ``field_mul`` multiplies the lists of digits as
polynomials mod the field's modulus, ``field_trace`` sums the Frobenius
conjugates, each a power by ``field_mul``, and ``smallest_primitive_root``
finds a prime field's generator by ``pow`` over the prime factors of
p - 1.  None of this shares code with the base-(2p - 1) tables of
``FieldCtx.add``, with ``quasilee.fields.index_neg`` or with the log
tables of ``FieldCtx.mul``, so a test that compares the two does not
check a kernel against itself.  ``index_add`` is the digit loop that
the table pair replaced: a carry test per digit over whole arrays.

The character sums, the point counts, the shifted double sums and the
spectrum oracles below add only with ``field_add``/``pair_add``, one term
at a time; they multiply with the scalar ``FieldCtx.mul`` and read traces
from ``FieldCtx.trace_table``, which ``tests/test_fields.py`` checks
against ``field_mul`` and ``field_trace``.  The decoder-stack oracles at
the end walk F_q x F_q the same way: the Lee weight and the syndrome of
one word, the Lee ball by recursion, a breadth-first search over error
vectors that keeps only the steps raising the Lee weight, the parent of
every syndrome in the coset table's tree, and a decoder that follows the
tree from a syndrome to the root one syndrome at a time.

Some oracles work on arrays.  ``cubic_counts_by_t`` is the q^3
enumeration that ``quasilee.lemmas.cubic_counts`` replaced.  It tests the
cubic's equation at every (t, x, y), where the program solves it for t,
so it checks the program at fields too large for
``projective_cubic_count``.  ``gathered_lee_ball`` builds the whole Lee
ball from tails of the smaller balls, as the program did before it
unranked the ball, so it checks the round trip's closed-form unranker at
balls too large for ``scalar_lee_ball``; ``ball_injective`` applies the parity-check
map to that whole ball, the walk that ``verify_quasi_perfect`` replaced
by the census.  ``gauss_count_table``,
``kloosterman_count_table`` and ``shifted_sum_masks`` are the lemma
battery's exact q^3 routes: the exponent counts of every Gauss sum
G(c, a) and Kloosterman sum K(a, b), and every sum z1 + z2*w of every
shifted double sum.  The battery now reads the sums off one transform a
row and counts the double sums by norm orbits; these check both at small
q, and the count tables against the per-x oracles above.
``norm_by_mul`` and ``minus_class_by_mul``
are the class maps by field products that the lookup tables of
``QuadExt.norm`` and ``CurveClasses.of`` replaced,
``fourier_distance`` is the spectrum's FFT check on the full fftn, which
``quasilee.spectra`` reads from half the transform, and
``indicator_rfftn`` is the rfftn of the q^2 float indicator, the route
that ``GeneratorSet.indicator_fft`` replaced by a sum over the members.
``indicator_fft_complex`` is that sum over every member, finished by the
complex FFT, which ``indicator_fft`` replaced by half the members and the
real inverse transform, and ``class_counts_by_mul`` counts the class
pairings by ``FieldCtx.mul``, ``FieldCtx.add`` and ``trace_counts``, the
member route that ``quasilee.spectra.class_counts`` replaced by composed
tables.  The tests compare each kernel with its route at ``KERNEL_FIELDS``.
"""

import functools

import numpy as np

from quasilee import fields
from quasilee.codes import DecodeResult
from quasilee.fields import chunks, trace_counts, unity_cos_sin
from quasilee.spectra import _pairing_coefficients
from quasilee.sumsets import MAX_LAYERS


def _digit_list(a: int, p: int, m: int) -> list:
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _packed(digits, p: int) -> int:
    a = 0
    for c in reversed(digits):
        a = a * p + c
    return a


def field_add(ctx, a: int, b: int) -> int:
    """a + b in F_q, q = p**k, one coefficient at a time."""
    p, out, unit = ctx.p, 0, 1
    for _ in range(ctx.k):
        out += (a % p + b % p) % p * unit
        a, b, unit = a // p, b // p, unit * p
    return out


def field_neg(ctx, a: int) -> int:
    """-a in F_q, one coefficient at a time."""
    p, out, unit = ctx.p, 0, 1
    for _ in range(ctx.k):
        out += -(a % p) % p * unit
        a, unit = a // p, unit * p
    return out


def field_mul(ctx, a: int, b: int) -> int:
    """a * b in F_q: the coefficient lists multiplied as polynomials, then
    x**d for d >= k replaced by x**(d-k) times -(modulus - x**k)."""
    p, k, mod = ctx.p, ctx.k, ctx.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digit_list(a, p, k)):
        for j, y in enumerate(_digit_list(b, p, k)):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        c = prod.pop()
        for i in range(k):
            prod[d - k + i] -= c * mod[i]
    return _packed([c % p for c in prod], p)


def field_trace(ctx, a: int) -> int:
    """a + a**p + ... + a**(p**(k-1)): each Frobenius conjugate the p-th
    power of the one before by ``field_mul``, summed by ``field_add``."""
    total = 0
    for _ in range(ctx.k):
        total = field_add(ctx, total, a)
        power = 1
        for _ in range(ctx.p):
            power = field_mul(ctx, power, a)
        a = power
    return total


def smallest_primitive_root(p: int) -> int:
    """The smallest g >= 2 with g**((p - 1) / r) != 1 mod p for every prime
    factor r of p - 1, the factors found by trial division."""
    factors, n, d = set(), p - 1, 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in factors))


def index_add(a, b, p: int, m: int):
    """Digitwise sum mod p of packed m-digit indices, ints or broadcast
    int64 arrays.  a + b is the sum of d_i * p**i over the digit sums d_i;
    p**(i+1) comes off for each d_i >= p, read from the high parts a // p**i.
    """
    s = t = a + b
    for i in range(1, m):
        a, b = a // p, b // p
        u = a + b
        s = s - (t - u * p >= p) * p ** i
        t = u
    return s - (s >= p ** m) * p ** m


def pair_add(ctx, z1: int, z2: int) -> int:
    """z1 + z2 in F_q x F_q, the pair (x, y) stored as x + q*y: the x and
    the y parts added apart by ``field_add``."""
    q = ctx.q
    return field_add(ctx, z1 % q, z2 % q) + q * field_add(ctx, z1 // q, z2 // q)


def pair_neg(ctx, z: int) -> int:
    """-z in F_q x F_q, both parts negated by ``field_neg``."""
    q = ctx.q
    return field_neg(ctx, z % q) + q * field_neg(ctx, z // q)


def pair_scale(ctx, z: int, c: int) -> int:
    """c * z in F_q x F_q for an integer c, read in the prime subfield."""
    q, e = ctx.q, c % ctx.p
    return ctx.mul(z % q, e) + q * ctx.mul(z // q, e)


# -- the quadratic extension F_q[sqrt(delta)] ------------------------------------

def ext_mul(ext, z1: int, z2: int) -> int:
    """(x1 + sqrt(delta)*y1) * (x2 + sqrt(delta)*y2)
    = (x1*x2 + delta*y1*y2) + sqrt(delta)*(x1*y2 + y1*x2)."""
    b, q = ext.base, ext.q
    x1, y1, x2, y2 = z1 % q, z1 // q, z2 % q, z2 // q
    x = field_add(b, b.mul(x1, x2), b.mul(ext.delta, b.mul(y1, y2)))
    y = field_add(b, b.mul(x1, y2), b.mul(y1, x2))
    return x + q * y


def ext_norm(ext, z: int) -> int:
    """x**2 - delta*y**2."""
    b, q = ext.base, ext.q
    x, y = z % q, z // q
    return field_add(b, b.mul(x, x), field_neg(b, b.mul(ext.delta, b.mul(y, y))))


def circle(ext) -> tuple:
    """The norm-one circle H, ascending."""
    return tuple(z for z in range(ext.q ** 2) if ext_norm(ext, z) == 1)


def hyperbola(ctx) -> tuple:
    """The unit hyperbola {(x, 1/x)}, index x + q*y, ascending."""
    q = ctx.q
    return tuple(z for z in range(q * q) if field_mul(ctx, z % q, z // q) == 1)


# -- character sums ----------------------------------------------------------------

def kloosterman_counts(ctx, a: int, b: int) -> list:
    """counts[j] = #{x != 0 : trace(a*x + b/x) = j}, one x at a time."""
    counts = [0] * ctx.p
    for x in range(1, ctx.q):
        arg = field_add(ctx, ctx.mul(a, x), ctx.mul(b, ctx.inv(x)))
        counts[ctx.trace_table[arg]] += 1
    return counts


def gauss_counts(ctx, c: int, a: int) -> list:
    """counts[j] = #{x in F_q : trace(c*x**2 + a*x) = j}, one x at a time."""
    counts = [0] * ctx.p
    for x in range(ctx.q):
        arg = field_add(ctx, ctx.mul(c, ctx.mul(x, x)), ctx.mul(a, x))
        counts[ctx.trace_table[arg]] += 1
    return counts


def gauss_count_table(ctx, c, a) -> np.ndarray:
    """Counts of the x in F_q with trace(c*x**2 + a*x) = j; ints or
    broadcast arrays, shape broadcast(c, a).shape + (p,).  The Gauss
    table the battery counted before it read each row c off one
    transform."""
    x = np.arange(ctx.q)
    c, a = np.asarray(c)[..., None], np.asarray(a)[..., None]
    return trace_counts(ctx, ctx.add(ctx.mul(c, ctx.mul(x, x)), ctx.mul(a, x)))


def kloosterman_count_table(ctx) -> np.ndarray:
    """Entry [a - 1, b - 1] holds the exponent counts of K(a, b), for all
    a, b != 0: the Kloosterman table the battery counted before it read
    each row b off one transform."""
    units = np.arange(1, ctx.q)
    return fields.kloosterman_counts(ctx, units[:, None], units)


# -- point counts behind the lemma battery ---------------------------------------

def circle_abscissas(ctx, c: int) -> frozenset:
    """x-coordinates of points on the circle x**2 - delta*y**2 = c, c != 0.

    Equals {x : x**2 = c, or x**2 - c is a nonsquare}; independent of the
    choice of nonsquare delta.  Size (q+3)/2 when c is a square, (q+1)/2
    otherwise.
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    out = set()
    for x in range(ctx.q):
        d = field_add(ctx, ctx.mul(x, x), field_neg(ctx, c))
        if d == 0 or ctx.quad_character(d) == -1:
            out.add(x)
    return frozenset(out)


@functools.lru_cache(maxsize=1)
def shifted_circle_sum(ext, members: tuple, w: int) -> frozenset:
    """The translated double sum H + H*w, H given by its ``members``;
    H*w is scaled once.  The last sum is kept, so that
    ``shifted_norm_image`` of the same shift does not add it up again."""
    scaled = [ext_mul(ext, z, w) for z in members]
    return frozenset(pair_add(ext.base, z1, z2) for z1 in members for z2 in scaled)


def shifted_norm_image(ext, members, w: int) -> frozenset:
    """Norms of H + H*w, w != 0.

    Size (q+3)/2 when norm(w) is a square, (q+1)/2 otherwise; always a
    subset of the abscissa set of the corresponding circle.
    """
    if w == 0:
        raise ValueError("w must be nonzero")
    return frozenset(ext_norm(ext, z) for z in shifted_circle_sum(ext, members, w))


def shifted_sum_masks(ext, members, ws, norms):
    """The shifted double sums H + H*w and their norm images, every sum
    z1 + z2*w over H x H enumerated: the route of the battery before it
    counted norm orbits.

    ``members`` is H as an index array, ``ws`` the shifts and ``norms``
    the norm of every index of F_{q^2}.  Returns boolean masks of shape
    (len(ws), q^2), row i marking every z1 + z2*ws[i] over (z1, z2) in
    H x H, and (len(ws), q), row i marking their norms.
    """
    ws = np.asarray(ws)
    rows = np.arange(len(ws))[:, None, None]
    scaled = ext.mul(ws[:, None], members[None, :])
    sums = fields.pair_add(ext.base, members[None, :, None], scaled[:, None, :])
    seen = np.zeros((len(ws), ext.size), dtype=bool)
    seen[rows, sums] = True
    image = np.zeros((len(ws), ext.q), dtype=bool)
    image[rows, norms[sums]] = True
    return seen, image


def projective_cubic_count(ctx, t: int) -> int:
    """Points on the plane projective cubic
    (X + Y + t*Z) * (X*Y - Z*X - Y*Z) + X*Y*Z = 0 over F_q, t != -1.

    Counted as the affine points (Z = 1) plus the three fixed points at
    infinity (1:0:0), (0:1:0), (1:-1:0).  For t != -1 the curve is
    absolutely irreducible so the count obeys |count - (q+1)| <= 2*sqrt(q).
    """
    if t == field_neg(ctx, 1):
        raise ValueError("t = -1 gives a reducible curve")
    count = 3
    for x in range(ctx.q):
        for y in range(ctx.q):
            s, xy = field_add(ctx, x, y), ctx.mul(x, y)
            val = ctx.mul(field_add(ctx, s, t), field_add(ctx, xy, field_neg(ctx, s)))
            if field_add(ctx, val, xy) == 0:
                count += 1
    return count


def cubic_counts_by_t(ctx) -> np.ndarray:
    """``cubic_counts`` by the q^3 enumeration it replaced: for each t, the
    three points at infinity plus the (x, y) of the q x q grid on the
    affine curve, tested as the curve's equation over the whole (t, x, y)
    grid, a chunk of (t, x) rows at a time."""
    q, y = ctx.q, np.arange(ctx.q)
    counts = np.full(q, 3)
    for rows in chunks(np.arange(q * q), q):
        t, x = rows // q, rows[:, None] % q
        xy = ctx.mul(x, y)
        s = ctx.add(x, y)
        val = ctx.add(ctx.mul(ctx.add(s, t[:, None]), ctx.add(xy, ctx.neg(s))), xy)
        counts += np.bincount(t[np.nonzero(val == 0)[0]], minlength=q)
    return counts


# -- Cayley spectra ----------------------------------------------------------------

def pairing_exponent(gen, alpha: int, beta: int) -> int:
    """<alpha, beta>: trace(2 * xpart(alpha * beta)) for plus, trace(a*x +
    b*y) for minus, with alpha = (a, b) and beta = (x, y)."""
    ctx, q = gen.base, gen.q
    a, b, x, y = alpha % q, alpha // q, beta % q, beta // q
    if gen.family == "plus":
        xp = ext_mul(gen.ext, alpha, beta) % q
        return int(ctx.trace_table[field_add(ctx, xp, xp)])
    return int(ctx.trace_table[field_add(ctx, ctx.mul(a, x), ctx.mul(b, y))])


def character_counts(gen, alpha: int) -> np.ndarray:
    """counts[j] = #{beta in H : <alpha, beta> = j}, one member at a time."""
    counts = np.zeros(gen.p, dtype=np.int64)
    for beta in gen.members:
        counts[pairing_exponent(gen, alpha, beta)] += 1
    return counts


def eigenvalue(gen, alpha: int) -> float:
    """The Cayley eigenvalue at character alpha, from ``character_counts``;
    it must be real, because H = -H."""
    ang = 2 * np.pi * np.arange(gen.p) / gen.p
    counts = character_counts(gen, alpha)
    assert abs(counts @ np.sin(ang)) <= 1e-9, f"eigenvalue not real at {alpha}"
    return float(counts @ np.cos(ang))


def norm_by_mul(ext, z):
    """x**2 - delta*y**2 by field products, ints or int64 arrays: the
    formula ``QuadExt.norm`` reads from tables."""
    b, q = ext.base, ext.q
    x, y = z % q, z // q
    return b.add(b.mul(x, x), b.mul(b.mul(y, y), b.neg(ext.delta)))


def minus_class_by_mul(ctx, z):
    """The minus class of (a, b) by a field product: a*b off the axes, q on
    b = 0, q + 1 on a = 0, 0 at the origin; ints or int64 arrays."""
    q = ctx.q
    keys = ctx.mul(z % q, z // q)  # 0 on both axes
    return keys + (keys == 0) * ((z % q != 0) * q + (z >= q) * (q + 1))


def fourier_distance(gen, eigs) -> float:
    """The largest distance of a class eigenvalue from the full fftn(1_H)
    over Z_p^{2k} at every character alpha = (ax, ay), read at the index
    dx[ax] + q*dy[ay] with digit i of dx[a] = trace(cx*a*p**i): the
    reference for ``spectra._fourier_distance``, which reads half of it."""
    ctx = gen.base
    q, p, k = ctx.q, ctx.p, ctx.k
    ind = np.zeros(q * q)
    ind[list(gen.members)] = 1.0
    fourier = np.fft.fftn(ind.reshape((p,) * (2 * k))).ravel()
    elems = np.arange(q)
    dx, dy = (sum(ctx.trace_table[ctx.mul(elems, ctx.mul(c, p ** i))] * p ** i
                  for i in range(k))
              for c in _pairing_coefficients(gen))
    alpha = np.arange(q * q)
    got = fourier[dx[alpha % q] + q * dy[alpha // q]]
    return float(np.abs(got - eigs[gen.classes.of(alpha % q, alpha // q)]).max())


def indicator_rfftn(gen) -> np.ndarray:
    """rfftn of the float indicator 1_H over the q^2 indices, reshaped to
    (p,) * 2k: the reference for ``GeneratorSet.indicator_fft``."""
    ind = np.zeros(gen.ambient_size)
    ind[list(gen.members)] = 1.0
    return np.fft.rfftn(ind.reshape((gen.p,) * (2 * gen.k)))


def indicator_fft_complex(gen, cols=slice(None)) -> np.ndarray:
    """The half transform of ``GeneratorSet.indicator_fft`` as complex
    values: every member summed along digit 0 with zeta_p**(-j*d), then
    numpy's complex FFT over the other 2k - 1 digits."""
    p, (cos, sin) = gen.p, unity_cos_sin(gen.p)
    roots, j = cos - 1j * sin, np.arange(p // 2 + 1)[cols]
    rows = np.zeros((gen.ambient_size // p, len(j)), dtype=complex)
    for chunk in chunks(gen.members, len(j)):
        r, d = np.divmod(chunk, p)
        first = np.flatnonzero(np.diff(r, prepend=-1))
        rows[r[first]] += np.add.reduceat(roots[d[:, None] * j % p], first)
    return np.fft.fftn(rows.reshape((p,) * (2 * gen.k - 1) + (len(j),)),
                       axes=range(2 * gen.k - 1))


def class_counts_by_mul(gen) -> np.ndarray:
    """The exponent counts of every class, (classes, p): each pairing
    trace(cx*rx*bx + cy*ry*by) by field products and additions."""
    ctx, q, beta = gen.base, gen.q, gen.members
    cx, cy = _pairing_coefficients(gen)
    bx, by = ctx.mul(cx, beta % q), ctx.mul(cy, beta // q)
    reps = gen.classes.reps[:, None]
    return trace_counts(ctx, ctx.add(ctx.mul(reps % q, bx), ctx.mul(reps // q, by)))


# the fields of every kernel-against-oracle test: p = 3 (digit 0 holds only
# {0, 1}), towers up to k = 4, and the benchmark's cayley rungs
KERNEL_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (13, 1), (31, 1),
                 (5, 2), (7, 2), (13, 2), (5, 3), (307, 1), (311, 1)]


def adjacency_matrix(gen) -> np.ndarray:
    """Dense 0/1 adjacency matrix of the Cayley graph: v ~ v + h."""
    size = gen.ambient_size
    mat = np.zeros((size, size), dtype=np.int8)
    for v in range(size):
        for h in gen.members:
            mat[v, pair_add(gen.base, v, h)] = 1
    return mat


# -- the decoder stack -------------------------------------------------------------

def lee_weight(word, p: int) -> int:
    """Sum of min(c, p - c) over the entries, entries taken mod p."""
    return sum(min(c % p, p - c % p) for c in word)


def scalar_syndrome(mat, word) -> int:
    """sum_j word_j * beta_j by scalar pair arithmetic."""
    ctx = mat.generator.base
    syn = 0
    for c, rep in zip(word, mat.generator.reps):
        syn = pair_add(ctx, syn, pair_scale(ctx, rep, c))
    return syn


def scalar_lee_ball(n, p, radius) -> list:
    """Lee ball words by depth-first recursion: for each position j, weight
    w and value w then p - w, the word, then its extensions past j."""
    half = (p - 1) // 2
    out = [tuple([0] * n)]
    vec = [0] * n

    def extend(start, budget):
        for j in range(start, n):
            for w in range(1, min(budget, half) + 1):
                for val in (w, p - w):
                    vec[j] = val
                    out.append(tuple(vec))
                    extend(j + 1, budget - w)
                vec[j] = 0

    extend(0, radius)
    return out


def gathered_lee_ball(n, p, radius) -> tuple:
    """The Lee ball's supports as whole arrays ``pos`` and ``val`` of shape
    rows x min(radius, n), in ``scalar_lee_ball``'s row order, built one
    radius at a time by gathering tails of the smaller balls: the builder
    that the ranked ball replaced, kept as the reference that the round
    trip's unranked rows (``quasilee.codes._unrank_ball``) must match.

    The ball of radius b is the zero word and then, for each position j,
    weight w and value w, then p - w, a block: the word with that value at
    j, followed by its extensions past j.  Those are the rows of the
    radius-(b - w) ball whose support starts after j, a tail of that ball,
    and its zero word first.  Every block is gathered from the smaller
    balls through one index array."""
    half, width = (p - 1) // 2, min(radius, n)
    if not width or not half:
        return tuple(np.zeros((2, 1, width), dtype=np.int64))  # the zero word alone
    balls = [np.zeros((2, 1, 1), dtype=np.int64)]  # radius 0, as one (0, 0) pair
    for b in range(1, radius + 1):
        width = min(b, n)
        ws = range(1, min(b, half) + 1)
        # the radius-(b - w) balls stacked, cut or padded to the width - 1
        # columns that an extension fills
        subs = [balls[b - w] for w in ws]
        base = np.cumsum([0] + [s.shape[1] for s in subs])
        tab = np.zeros((2, base[-1], width - 1), dtype=np.int64)
        for s, lo, hi in zip(subs, base, base[1:]):
            cols = min(width - 1, s.shape[2])
            tab[:, lo:hi, :cols] = s[:, :, :cols]
        # tail[j, w - 1]: the first row of the radius-(b - w) ball whose
        # support starts after j
        tail = np.stack([1 + np.searchsorted(s[0, 1:, 0], np.arange(1, n + 1))
                         for s in subs], axis=1)
        # the blocks in (j, w, value) order, each holding the zero word and a tail
        lens = np.repeat(np.diff(base) + 1 - tail, 2, axis=1).ravel()
        starts = np.cumsum(lens) - lens
        src = np.repeat(np.repeat(base[:-1] + tail - 1, 2, axis=1).ravel() - starts,
                        lens)
        src += np.arange(src.size)
        src[starts] = np.repeat(np.tile(base[:-1], n), 2)
        ball = np.empty((2, src.size + 1, width), dtype=np.int64)
        ball[:, 0] = 0
        ball[0, 1:, 0] = np.repeat(np.arange(n), lens.reshape(n, -1).sum(axis=1))
        values = [v for w in ws for v in (w, p - w)]
        ball[1, 1:, 0] = np.repeat(np.tile(values, n), lens)
        ball[:, 1:, 1:] = tab[:, src]
        balls.append(ball)
    return tuple(balls[radius])


def ball_injective(matrix, w) -> bool:
    """Whether distinct words of the radius-w Lee ball have distinct
    syndromes: the parity-check map on the whole ball, M[:, pos] . val
    mod p summed over each word's support, and a count of the distinct
    syndrome columns."""
    pos, val = gathered_lee_ball(matrix.n, matrix.p, w)
    syn = (matrix.entries[:, pos] * val).sum(axis=-1) % matrix.p
    return np.unique(syn, axis=1).shape[1] == len(pos)


def scalar_trial_draws(rng, trials, n, p, size) -> tuple:
    """The round trip's draws one ``randrange`` call at a time: per trial,
    a word of n entries below p, then an index below ``size``."""
    words, picks = [], []
    for _ in range(trials):
        words.append([rng.randrange(p) for _ in range(n)])
        picks.append(rng.randrange(size))
    return words, picks


def scalar_bfs_leaders(mat) -> tuple:
    """Coset leaders and their weights by a scalar breadth-first search
    over error vectors.

    Level w + 1 extends each level-w leader, in first-recorded order, by
    the steps +1 then -1 at positions 0 .. n-1 that raise its Lee weight
    by exactly one; a syndrome keeps the first leader that reaches it.
    """
    gen = mat.generator
    ctx, p, n = gen.base, gen.p, gen.n
    shifts = [(rep, pair_neg(ctx, rep)) for rep in gen.reps]
    leaders = [None] * gen.ambient_size
    weights = [-1] * gen.ambient_size
    leaders[0], weights[0] = tuple([0] * n), 0
    frontier = [0]
    w = 0
    while frontier and w < MAX_LAYERS:
        nxt = []
        for syn in frontier:
            err = leaders[syn]
            for j in range(n):
                v = err[j]
                for dv, shift in zip((1, -1), shifts[j]):
                    nv = (v + dv) % p
                    if min(nv, p - nv) != min(v, p - v) + 1:
                        continue
                    s2 = pair_add(ctx, syn, shift)
                    if leaders[s2] is None:
                        leaders[s2] = err[:j] + (nv,) + err[j + 1:]
                        weights[s2] = w + 1
                        nxt.append(s2)
        frontier = nxt
        w += 1
    return tuple(leaders), weights


def scalar_decode(table, word) -> DecodeResult:
    """The one-word-at-a-time decoder that ``decode_words`` replaced: reduce
    the word as Python ints, take its ``scalar_syndrome``, then subtract
    the leader that the table's tree spells, walked by ``tree_parent``
    from the syndrome to the root, each step 2j + b adding +1 (b = 0) or
    -1 at position j.  The weight is the number of hops."""
    p = table.matrix.p
    word = [int(c) % p for c in word]
    syn = node = scalar_syndrome(table.matrix, word)
    err = [0] * len(word)
    hops = 0
    while node:
        st = int(table.step[node])
        err[st // 2] += 1 - 2 * (st % 2)
        node = tree_parent(table, node)
        hops += 1
    err = tuple(e % p for e in err)
    cw = tuple((c - e) % p for c, e in zip(word, err))
    return DecodeResult(cw, err, hops, syn)


def tree_parent(table, syn: int) -> int:
    """The parent of a syndrome in the table's BFS tree: the syndrome
    minus the shift of its step 2j + b, +beta_j (b = 0) or -beta_j, by
    scalar pair arithmetic.  The root's step 2n shifts by 0."""
    gen = table.matrix.generator
    st = int(table.step[syn])
    if st == 2 * gen.n:
        return syn
    rep = gen.reps[st // 2]
    back = rep if st % 2 else pair_neg(gen.base, rep)  # minus the shift
    return pair_add(gen.base, syn, back)


def tree_parents(table) -> np.ndarray:
    """``tree_parent`` of every syndrome, index = syndrome."""
    return np.array([tree_parent(table, s) for s in range(len(table.step))],
                    dtype=np.int64)


def tree_depths(table) -> np.ndarray:
    """The depth of every syndrome in the table's BFS tree, the hops of
    its walk along ``tree_parents`` to the root 0, one hop for all
    syndromes at once.  A walk that has not reached the root after as many
    hops as there are syndromes is a cycle, and fails the call."""
    parents = tree_parents(table)
    depth = np.zeros(len(parents), dtype=np.int64)
    node = np.arange(len(parents))
    for _ in range(len(parents)):
        live = node != 0
        if not live.any():
            return depth
        depth += live
        node = parents[node]
    raise AssertionError("the tree's parents have a cycle")


def decoded_lines(table, stdin: str, fmt: str) -> list:
    """The lines ``decode`` prints for ``stdin``, one word at a time: each
    non-comment line parsed with ``int``, decoded by ``scalar_decode`` and
    written out with ``str``.  Lines end at \n only, as line iteration
    ends them, not at the other line boundaries of ``str.splitlines``."""
    lines = []
    for line in stdin.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        res = scalar_decode(table, [int(t) for t in line.split()])
        sep = ", " if fmt == "json" else " "
        cw, err = sep.join(map(str, res.codeword)), sep.join(map(str, res.error))
        if fmt == "json":
            lines.append(f'{{"codeword": [{cw}], "error": [{err}], '
                         f'"weight": {res.weight}}}')
        else:
            lines.append(f"{cw} | {err} | {res.weight}")
    return lines
