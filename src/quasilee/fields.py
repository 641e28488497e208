"""Exact arithmetic in small finite fields and their character sums.

The ground field F_q with q = p**k (p an odd prime) is materialized as a
pair of discrete-log tables, so every element is just an integer index in
[0, q): the element with coefficient vector (a_0, ..., a_{k-1}) over F_p,
written in the power basis of a fixed monic irreducible modulus, has index
sum(a_i * p**i).  Index 0 is zero and indices below p form the prime
subfield.  The modulus is the lexicographically smallest monic irreducible
of degree k (coefficient tuples compared constant-term first), so contexts
are reproducible across runs.

The tables are built from whole index arrays, with no polynomial
arithmetic on single elements.  The modulus comes from a sieve: every
monic product g*h with 1 <= deg g <= k/2 is formed at once by
broadcasting and marked at the rank of its coefficients, and the first
unmarked rank wins (for k = 1 nothing is marked and the modulus is x).
Multiplication by x on all q indices shifts the digits up and adds the
top digit times -modulus, and multiplication by g sums the maps of x**j
weighted by g's digits.  The generator is found by its definition: for
k >= 2 the first g >= p whose orbit of 1, grown by doubling, holds all
q - 1 units; that orbit is the exp table.  A prime field's one candidate
is the first g >= 2 of order p - 1 by ``pow``, its orbit checked alike.

Each additive group here is Z_p^m held as packed base-p indices: F_q
(m = k) and the pair group F_q x F_q (m = 2k, (x, y) packed as x + q*y).
The one addition of F_q is a table pair on ``FieldCtx``: ``_wide``
rewrites an index's base-p digits as a base-(2p - 1) number, where two
reduced digit vectors add without a carry (a digit sum is at most
2p - 2), and ``_low`` takes the sum, one of (2p - 1)^k numbers, back to
the base-p index of its digits mod p.
``FieldCtx.add``, ``pair_add`` (each coordinate apart), the trace table
and the coset-table BFS read it.  Composed tables, read-only and not
built by ``make_field``, send a sum of two widened indices (or logs)
straight on: ``_trace_low``, ``_low_q``, ``_wide_exp``,
``QuadExt.norm_terms`` and ``CurveClasses.sum_keys``.
``index_neg`` is the one negation.  ``index_digits``/``index_pack`` are
the one digit conversion, and ``index_mask`` the one indicator of a set
of indices.  Every field operation (``add``, ``neg``, ``mul``, ``inv``,
``quad_character``, and ``QuadExt.mul``/``norm``) is one kernel that
takes Python ints or broadcast int64 arrays; an int in gives an int out.
The independent routes they are checked with, the per-digit addition
loop that the table pair replaced among them, live in
``tests/oracles.py``.

``AMBIENT_CAP`` bounds q^2, ``VERTEX_CAP`` the q^2 of the coset BFS, the
FFT layers, ``--dump-csv`` and the lemma battery; above it the spectrum
skips its FFT check, and the round trip refuses a Lee ball of more than
``VERTEX_CAP`` words.  ``check_ambient`` is the one size gate of every
stage: it applies a cap before any trial division, multiplying by p only
until the product passes it, so a huge p or k is refused at once (and
|p| < 2 goes on to the primality test at once).

On top of the ground field sit:

* ``QuadExt`` -- the quadratic extension F_q[sqrt(delta)] for the
  canonical (smallest-index) nonsquare delta.  Elements are pairs
  (x, y) = x + sqrt(delta)*y packed into the single index x + q*y.
* the classical closed form of quadratic Gauss sums
  (``gauss_closed_form``) and the exponent counts of Kloosterman sums
  (``kloosterman_counts``, and ``kloosterman`` with the Hasse-Weil bound),
  every character sum counted by the one kernel ``trace_counts``;
* ``fold_counts``, the one fold of exponent counts into a complex value,
  and ``trace_roots``, the one map x -> zeta_p**trace(x);
* ``trace_dual``, the one map from the trace pairing to the digits of
  Z_p^k: trace(c*a*x) is the digit dot product of x with trace_dual(c)[a],
  so a transform over the digits reads every character sum over F_q;
* quadratic-residue predicates for -1, 3 and -3 modulo a prime,
  evaluated both by congruence rule and by direct character computation.

All arithmetic is exact.  Floating point enters only when a character sum
is folded through cos/sin, and each sum is folded from its exact integer
exponent counts, so the rounding error is bounded by the number of
distinct exponents rather than the number of terms.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Ambient size cap q**2 <= 2**26; construction refuses anything larger.
AMBIENT_CAP = 1 << 26
VERTEX_CAP = 1 << 20  # the cap of q**2-array routes and the battery's q**3 work
# int64 entries per array operation of every loop over ``chunks``: 2n steps
# a BFS frontier row, |H| sums a class, q+1 points a battery shift, q terms
# a battery transform row, n entries a round-trip trial, q a row of
# characters of the FFT check.  CPU on a 2-core VM, old chunk -> 2^13:
# BFS p=1021 0.8 -> 0.6 s; class route p=8191 plus 2.9 s (2^20: 5 s).
# At 2^14 (128 KiB arrays, glibc's trim threshold) some heap layouts returned
# and refaulted the heap top every chunk (lemma-suite 5^2: 24 -> 34 ms).
CHUNK_ENTRIES = 1 << 13

SUM_TOL = 1e-9


def chunk_rows(width: int) -> int:
    """Rows of ``width`` entries in one chunk, at least one."""
    return max(1, CHUNK_ENTRIES // width)


def chunks(items, width: int):
    """Consecutive slices of ``chunk_rows(width)`` rows of ``items``, an
    array or a range: a range yields ranges and allocates nothing."""
    step = chunk_rows(width)
    return (items[lo:lo + step] for lo in range(0, len(items), step))


class SizeCapError(ValueError):
    """Requested field exceeds the configured desk-scale cap."""


def check_ambient(p: int, k: int, cap: int = AMBIENT_CAP) -> None:
    """SizeCapError unless q^2 = p**(2k) <= cap.  The product stops growing
    once it passes the cap, so neither a huge p nor a huge k costs time,
    and the message names q^2 only when it is at most cap * |p| <= cap**2.
    For |p| < 2 it never grows, so such a p is let through at once."""
    if abs(p) < 2:
        return
    size = 1
    for step in range(1, 2 * k + 1):
        size *= abs(p)
        if size > cap:
            if step < 2 * k:
                raise SizeCapError(f"q^2 exceeds cap {cap}: p^{step} already does")
            raise SizeCapError(f"q^2 = {size} exceeds cap {cap}")


class VerificationError(RuntimeError):
    """Independently computed quantities disagree."""


def is_prime(n: int) -> bool:
    """Deterministic trial division; ample for desk-scale parameters."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# packed base-p indices: the additive group Z_p^m

def index_digits(a, p: int, m: int) -> list:
    """The m base-p digits of packed indices, least significant first."""
    return [a // p ** i % p for i in range(m)]


def index_pack(digits, p: int):
    """sum(digits[i] * p**i), over a sequence or an array's first axis."""
    a = 0
    for d in reversed(digits):
        a = a * p + d
    return a


def _digit_map(values: np.ndarray, weight: int, k: int) -> np.ndarray:
    """The table over the k-digit numbers in base len(values), in order, of
    sum(values[d_i] * weight**i) over their digits d_i: one broadcast sum
    per digit, the new digit the most significant."""
    table = values
    for i in range(1, k):
        table = (values[:, None] * weight ** i + table).ravel()
    return table


def index_neg(a, p: int, m: int):
    """Digitwise negation mod p: -a plus p**(i+1) per nonzero digit i."""
    s = -a
    for i in range(1, m):
        high = a // p
        s = s + (a != high * p) * p ** i
        a = high
    return s + (s < 0) * p ** m


def index_mask(size: int, idx) -> np.ndarray:
    """Boolean mask of length ``size``, True at the indices ``idx``."""
    mask = np.zeros(size, dtype=bool)
    mask[idx] = True
    return mask


def _smallest_irreducible(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over F_p:
    the first rank (k low coefficients, constant term most significant)
    that no product g*h with 1 <= deg g <= k/2 marks; x for k = 1."""
    def monic(d):  # the monic polynomials of degree d: p**d + [0, p**d)
        return np.array(index_digits(p ** d + np.arange(p ** d), p, d + 1))

    marked = np.zeros(p ** k, dtype=bool)
    for d in range(1, k // 2 + 1):
        g, h = monic(d), monic(k - d)
        gh = np.zeros((k + 1, p ** d, p ** (k - d)), dtype=np.int64)
        for i in range(d + 1):
            gh[i:i + k - d + 1] += g[i, :, None] * h[:, None, :]
        marked[index_pack(gh[k - 1::-1] % p, p)] = True
    return tuple(index_digits(int(np.argmin(marked)), p, k)[::-1]) + (1,)


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] if n > 1 else factors


def _primitive_root(p: int) -> int:
    """The first g >= 2 of multiplicative order p - 1 in F_p: the first none
    of whose powers g**((p - 1)/r), r a prime factor of p - 1, is 1."""
    exps = [(p - 1) // r for r in _prime_factors(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, e, p) != 1 for e in exps))


def _unit_orbit(times: np.ndarray, q: int):
    """The orbit 1, g, ..., g**(q - 2) of 1 under ``times``, multiplication
    by g on every index, grown by doubling (the next n entries are g**n
    times the first n); None unless it holds all q - 1 units, that is
    unless 1 occurs in it once."""
    exp = np.ones(1, dtype=np.int64)
    while len(exp) < q - 1:
        exp, times = np.concatenate([exp, times[exp]]), times[times]
    exp = exp[:q - 1]
    return exp if np.count_nonzero(exp == 1) == 1 else None


# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable context for F_{p**k} with index-encoded elements: each table
    is built once (composed ones on first use) and read-only, and every
    operation is a pure function of its inputs."""

    def __init__(self, p: int, k: int):
        # the cap comes first: trial division of a huge p would not end
        check_ambient(p, k)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("p must be an odd prime")
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _smallest_irreducible(p, k)
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        # shifted[i] holds the digits of x**i * a for every index a: x * a
        # is a's digits shifted up, plus its top digit times -modulus
        shifted = [np.array(index_digits(np.arange(q), p, k))]
        for _ in range(k - 1):
            a = shifted[-1]
            up = np.concatenate([np.zeros_like(a[:1]), a[:-1]])
            shifted.append((up - a[-1] * np.array(self.modulus[:k])[:, None]) % p)
        # the one addition: digits in base 2p - 1 add without a carry, and
        # _low reduces each digit sum mod p (see the module docstring)
        self._wide = _digit_map(np.arange(p), 2 * p - 1, k)
        self._low = _digit_map(np.arange(2 * p - 1) % p, p, k)
        # the generator: the first candidate whose orbit of 1 is all units;
        # for k >= 2 the units below p have order dividing p - 1 < q - 1
        for gen in [_primitive_root(p)] if k == 1 else range(p, q):
            times = np.tensordot(index_digits(gen, p, k), shifted, 1) % p
            exp = _unit_orbit(index_pack(times, p), q)
            if exp is not None:
                break
        else:
            raise VerificationError(
                f"no candidate generator's orbit holds all {q - 1} units")
        # log[0] = 2(q-1) lies past every sum of two logs of units, and exp
        # is zero from 2(q-1) on, so a product is exp[log[a] + log[b]]: no
        # reduction mod q-1 and no test for zero
        self.generator = gen
        self._exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        self._log = np.full(q, 2 * (q - 1), dtype=np.int64)
        self._log[exp] = np.arange(q - 1)
        self._chi = 1 - 2 * (self._log % 2)
        self._chi[0] = 0

        # trace(a) = sum of the conjugates a**(p**i), one array pass each
        tr = np.zeros(q, dtype=np.int64)
        for i in range(k):
            conj = self._exp[self._log * p ** i % (q - 1)]
            conj[0] = 0
            tr = self.add(tr, conj)
        escaped = np.flatnonzero(tr >= p)
        if escaped.size:
            raise VerificationError(
                f"trace of {escaped[0]} escaped the prime subfield")
        self.trace_table = tr
        for table in (self._wide, self._low, self._exp, self._log, self._chi, tr):
            _frozen(table)

    # -- operations: ints, or int64 arrays broadcast against each other -----

    def add(self, a, b):
        """Index addition: the base-(2p - 1) sum of the two indices, reduced."""
        return _gathered(self._low[self._wide[a] + self._wide[b]])

    @functools.cached_property
    def _wide_exp(self) -> np.ndarray:
        """_wide[_exp]: a product exp[log a + log b] in wide form."""
        return _frozen(self._wide[self._exp])

    @functools.cached_property
    def _trace_low(self) -> np.ndarray:
        """trace_table[_low]: the trace of a sum of two wide indices."""
        return _frozen(self.trace_table[self._low])

    @functools.cached_property
    def _low_q(self) -> np.ndarray:
        """q * _low: a sum of two wide indices as the y part of a pair."""
        return _frozen(self._low * self.q)

    def neg(self, a):
        """Index negation."""
        return index_neg(a, self.p, self.k)

    def mul(self, a, b):
        """Index multiplication: one lookup, zero factors included."""
        return _gathered(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        """ZeroDivisionError if a is, or holds, zero."""
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        return _gathered(self._exp[self.q - 1 - self._log[a]])

    def quad_character(self, a):
        """0 for zero, +1 for nonzero squares, -1 for nonsquares."""
        return _gathered(self._chi[a])

    @functools.cached_property
    def nonsquare(self) -> int:
        """The canonical nonsquare: smallest index with character -1."""
        return int(np.flatnonzero(self._chi == -1)[0])

    def embed(self, c: int) -> int:
        """Embed an integer into the prime subfield (index c mod p)."""
        return c % self.p

    # -----------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k})"


def make_field(p: int, k: int = 1) -> FieldCtx:
    """Construct F_{p**k} with the canonical modulus; see FieldCtx."""
    return FieldCtx(p, k)


def _gathered(v):
    """A table lookup's result: a Python int for a scalar index, else the
    array."""
    return v if isinstance(v, np.ndarray) else int(v)


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only: a cached table is shared by every caller."""
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# the additive group F_q x F_q, shared by both generator-set families

def pair_index(ctx: FieldCtx, x, y):
    return x + ctx.q * y

def pair_add(ctx: FieldCtx, z1, z2):
    """Addition in F_q x F_q: ``FieldCtx.add`` on x, then on y."""
    q = ctx.q
    return ctx.add(z1 % q, z2 % q) + q * ctx.add(z1 // q, z2 // q)

def pair_neg(ctx: FieldCtx, z):
    return index_neg(z, ctx.p, 2 * ctx.k)


class QuadExt:
    """F_{q^2} = F_q[sqrt(delta)] over a base context, delta the canonical
    nonsquare.  Element (x, y) means x + sqrt(delta)*y, index x + q*y."""

    def __init__(self, base: FieldCtx):
        self.base = base
        self.delta = base.nonsquare
        self.size = base.q ** 2
        # the norm's two terms x**2 and -delta*y**2 for every x, y, widened
        elems = np.arange(base.q)
        squares = base.mul(elems, elems)
        self.norm_terms = tuple(_frozen(base._wide[t]) for t in
                                (squares, base.mul(squares, base.neg(self.delta))))

    @property
    def q(self) -> int:
        return self.base.q

    def mul(self, z1, z2):
        """(x1 + sqrt(delta)*y1) * (x2 + sqrt(delta)*y2); ints or broadcast
        int64 arrays."""
        b, q = self.base, self.base.q
        x1, y1 = z1 % q, z1 // q
        x2, y2 = z2 % q, z2 // q
        x = b.add(b.mul(x1, x2), b.mul(b.mul(y1, y2), self.delta))
        y = b.add(b.mul(x1, y2), b.mul(y1, x2))
        return x + q * y

    def norm(self, z):
        """x**2 - delta*y**2, the multiplicative norm down to F_q: ``_low`` of
        the sum of its two widened terms; an int or an int64 array."""
        q, (x_terms, y_terms) = self.base.q, self.norm_terms
        return _gathered(self.base._low[x_terms[z % q] + y_terms[z // q]])

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["delta"] = self.delta
        return d

    def __repr__(self):
        return f"QuadExt(q={self.base.q}, delta={self.delta})"


# ---------------------------------------------------------------------------
# character sums

@functools.lru_cache(maxsize=None)
def unity_cos_sin(p: int):
    """cos/sin of the p-th roots of unity, index j -> exp(2*pi*i*j/p)."""
    ang = 2.0 * np.pi * np.arange(p) / p
    return np.cos(ang), np.sin(ang)


def fold_counts(p: int, counts) -> complex:
    """The root-of-unity sum of exact exponent counts: with counts[j] the
    number of summation terms whose exponent is j mod p, the sum of
    counts[j] * exp(2*pi*i*j/p) up to float rounding."""
    cos, sin = unity_cos_sin(p)
    vec = np.array(counts, dtype=np.float64)
    return complex(vec @ cos, vec @ sin)


def trace_roots(ctx: FieldCtx, args):
    """zeta_p**trace(args), complex; ints or broadcast arrays."""
    cos, sin = unity_cos_sin(ctx.p)
    t = ctx.trace_table[args]
    return cos[t] + 1j * sin[t]


def trace_counts(ctx: FieldCtx, args: np.ndarray) -> np.ndarray:
    """``exponent_counts`` of the traces of ``args``."""
    return exponent_counts(ctx.p, ctx.trace_table[args])


def exponent_counts(p: int, exps: np.ndarray) -> np.ndarray:
    """How many entries along the last axis of ``exps`` (in [0, p)) equal j,
    shape exps.shape[:-1] + (p,): one bincount over row * p + exponent."""
    lead = exps.shape[:-1]
    rows = math.prod(lead)
    keys = np.arange(rows).reshape(lead + (1,)) * p + exps
    return np.bincount(keys.ravel(), minlength=rows * p).reshape(lead + (p,))


def kloosterman_counts(ctx: FieldCtx, a, b) -> np.ndarray:
    """Counts of the x != 0 with trace(a*x + b/x) = j; ints or broadcast
    arrays, shape broadcast(a, b).shape + (p,)."""
    x = np.arange(1, ctx.q)
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return trace_counts(ctx, ctx.add(ctx.mul(a, x), ctx.mul(b, ctx.inv(x))))


def trace_dual(ctx: FieldCtx, c) -> np.ndarray:
    """D(c*a) for every a in F_q: the index whose digit i is
    trace(c*a*p**i), p**i being the power basis element x**i.  x has
    digits x_i with x = sum(x_i * p**i), so trace(c*a*x) is the sum of
    x_i * trace(c*a*p**i): the digit dot product of x with D(c*a), mod p."""
    elems = np.arange(ctx.q)
    return index_pack([ctx.trace_table[ctx.mul(elems, ctx.mul(c, ctx.p ** i))]
                       for i in range(ctx.k)], ctx.p)


def gauss_closed_form(ctx: FieldCtx, c, a):
    """(-1)**(k-1) * eta(c) * sqrt(p*)**k * zeta_p**trace(-a**2/(4c)), the
    classical value of the quadratic Gauss sum at (c, a), c nonzero, with
    p* = (-1)**((p-1)/2) * p.  Complex; ints or broadcast arrays."""
    p, k = ctx.p, ctx.k
    shift = ctx.neg(ctx.mul(ctx.mul(a, a), ctx.inv(ctx.mul(c, ctx.embed(4)))))
    sqrt_pstar = math.sqrt(p) * (1 if p % 4 == 1 else 1j)
    return ((-1) ** (k - 1) * sqrt_pstar ** k * ctx.quad_character(c)
            * trace_roots(ctx, shift))


def kloosterman(ctx: FieldCtx, a: int, b: int) -> float:
    """K(a, b) = sum over x != 0 of zeta_p**trace(a*x + b/x); real-valued.

    Requires b nonzero.  The computed value is checked to be real and
    within the Hasse-Weil bound |K| <= 2*sqrt(q); VerificationError if not.
    """
    if b == 0:
        raise ValueError("kloosterman requires a nonzero second argument")
    v = fold_counts(ctx.p, kloosterman_counts(ctx, a, b))
    if not abs(v.imag) <= SUM_TOL:
        raise VerificationError(f"Kloosterman sum not real: im={v.imag}")
    if not abs(v.real) <= 2.0 * math.sqrt(ctx.q) + SUM_TOL:
        raise VerificationError(
            f"Hasse-Weil bound violated: |{v.real}| > 2*sqrt({ctx.q})")
    return v.real


# ---------------------------------------------------------------------------
# quadratic reciprocity at small arguments

@dataclass(frozen=True)
class ResidueClassReport:
    p: int
    p_mod_12: int
    minus1_square: bool
    three_square: bool
    minus3_square: bool


def residue_class_mod12(p: int) -> ResidueClassReport:
    """Is -1 / 3 / -3 a square mod p?  Congruence rule cross-checked
    against direct character evaluation; p must be a prime > 3."""
    if not is_prime(p) or p <= 3:
        raise ValueError(f"p = {p} must be a prime greater than 3")
    euler = lambda a: pow(a % p, (p - 1) // 2, p) == 1
    by_rule = {
        "minus1": p % 4 == 1,
        "three": p % 12 in (1, 11),
        "minus3": p % 12 in (1, 7),
    }
    by_char = {
        "minus1": euler(-1),
        "three": euler(3),
        "minus3": euler(-3),
    }
    if by_rule != by_char:
        raise VerificationError(
            f"reciprocity rule disagrees with characters at p={p}")
    return ResidueClassReport(p, p % 12, by_rule["minus1"], by_rule["three"],
                              by_rule["minus3"])


def minus3_character(ctx: FieldCtx) -> int:
    """Quadratic character of -3 in F_q (0 exactly when p == 3)."""
    return ctx.quad_character(ctx.neg(ctx.embed(3)))
