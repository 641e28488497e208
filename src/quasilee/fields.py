"""Exact arithmetic in small finite fields and their character sums.

The ground field F_q with q = p**k (p an odd prime) is materialized as a
pair of discrete-log tables, so every element is just an integer index in
[0, q): the element with coefficient vector (a_0, ..., a_{k-1}) over F_p,
written in the power basis of a fixed monic irreducible modulus, has index
sum(a_i * p**i).  Index 0 is zero and indices below p form the prime
subfield.  The modulus is the lexicographically smallest monic irreducible
of degree k (coefficient tuples compared constant-term first), so contexts
are reproducible across runs.

Each additive group here is Z_p^m held as packed base-p indices: F_q
(m = k) and the pair group F_q x F_q (m = 2k, (x, y) packed as x + q*y).
``index_add``/``index_neg`` are its one addition and negation, for ints
and int64 arrays alike, and ``index_digits``/``index_pack`` its one digit
conversion; ``tests/oracles.py`` holds the oracles they are checked with.

On top of the ground field sit:

* ``QuadExt`` -- the quadratic extension F_q[sqrt(delta)] for the
  canonical (smallest-index) nonsquare delta.  Elements are pairs
  (x, y) = x + sqrt(delta)*y packed into the single index x + q*y.
* quadratic Gauss sums, checked on the fly against their classical
  closed form, and Kloosterman sums with the Hasse-Weil bound;
* quadratic-residue predicates for -1, 3 and -3 modulo a prime,
  evaluated both by congruence rule and by direct character computation.

All arithmetic is exact.  Floating point enters only when a character sum
is folded through cos/sin, and each sum keeps its exact integer exponent
counts next to the float value, so the rounding error is bounded by the
number of distinct exponents rather than the number of terms.
"""

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# Ambient size cap q**2 <= 2**26; construction refuses anything larger.
DEFAULT_AMBIENT_CAP = 1 << 26

SUM_TOL = 1e-9


class SizeCapError(ValueError):
    """Requested field exceeds the configured desk-scale cap."""


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


def index_neg(a, p: int, m: int):
    """Digitwise negation mod p: -a plus p**(i+1) per nonzero digit i."""
    s = -a
    for i in range(1, m):
        high = a // p
        s = s + (a != high * p) * p ** i
        a = high
    return s + (s < 0) * p ** m


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, constant term first)

def _poly_mul_mod(a, b, modulus, p):
    k = len(modulus) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for d in range(len(res) - 1, k - 1, -1):
        c = res[d]
        if c:
            res[d] = 0
            for i in range(k):
                res[d - k + i] = (res[d - k + i] - c * modulus[i]) % p
    res = res[:k]
    return res + [0] * (k - len(res))

def _poly_divides(d, f, p):
    f = list(f)
    deg_d = len(d) - 1
    while True:
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < deg_d or not f:
            break
        c = f[-1]
        shift = len(f) - 1 - deg_d
        for i, di in enumerate(d):
            f[shift + i] = (f[shift + i] - c * di) % p
    return not any(f)

def _smallest_irreducible(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)  # placeholder x - 0; arithmetic is plain mod p
    for coeffs in product(range(p), repeat=k):
        f = list(coeffs) + [1]
        reducible = False
        for d in range(1, k // 2 + 1):
            for dc in product(range(p), repeat=d):
                if _poly_divides(list(dc) + [1], f, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")  # impossible


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable context for F_{p**k} with index-encoded elements.

    Safe to share across workers: all tables are built once in the
    constructor and every operation is a pure function of its inputs.
    """

    def __init__(self, p: int, k: int = 1, cap: int = DEFAULT_AMBIENT_CAP):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("p must be an odd prime")
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        q = p ** k
        if q * q > cap:
            raise SizeCapError(f"q^2 = {q * q} exceeds cap {cap}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _smallest_irreducible(p, k)
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        if k == 1:
            raw_mul = lambda a, b: (a * b) % p
        else:
            mod = list(self.modulus)
            def raw_mul(a, b):
                return self.from_coeffs(
                    _poly_mul_mod(self.coeffs(a), self.coeffs(b), mod, p))

        def raw_pow(a, e):
            r = 1
            while e:
                if e & 1:
                    r = raw_mul(r, a)
                a = raw_mul(a, a)
                e >>= 1
            return r

        factors = _prime_factors(q - 1)
        gen = next(g for g in range(2, q)
                   if all(raw_pow(g, (q - 1) // r) != 1 for r in factors))
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = raw_mul(exp[i - 1], gen)
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        self.generator = gen
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.array(log, dtype=np.int64)

        # trace(a) = sum of the conjugates a**(p**i), one array pass each
        tr = np.zeros(q, dtype=np.int64)
        for i in range(k):
            conj = self._exp[self._log * p ** i % (q - 1)]
            conj[0] = 0
            tr = index_add(tr, conj, p, k)
        escaped = np.flatnonzero(tr >= p)
        if escaped.size:
            raise VerificationError(
                f"trace of {escaped[0]} escaped the prime subfield")
        self.trace_table = tr

    # -- scalar operations --------------------------------------------------

    def add(self, a, b):
        """Index addition; a and b are ints or int64 arrays (broadcast)."""
        return index_add(a, b, self.p, self.k)

    def neg(self, a):
        """Index negation; a is an int or an int64 array."""
        return index_neg(a, self.p, self.k)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._exp[-self._log[a] % (self.q - 1)])

    def trace(self, a: int) -> int:
        """Absolute trace to F_p: sum of the k Frobenius conjugates."""
        return int(self.trace_table[a])

    def quad_character(self, a: int) -> int:
        """0 for zero, +1 for nonzero squares, -1 for nonsquares."""
        if a == 0:
            return 0
        return 1 if self._log[a] % 2 == 0 else -1

    def sqrt(self, a: int) -> int:
        """One square root of a square element (the other is its negative)."""
        if a == 0:
            return 0
        l = int(self._log[a])
        if l % 2:
            raise ValueError(f"element {a} is not a square")
        return int(self._exp[l // 2])

    @functools.cached_property
    def nonsquare(self) -> int:
        """The canonical nonsquare: smallest index with character -1."""
        return next(a for a in range(1, self.q) if self.quad_character(a) == -1)

    def embed(self, c: int) -> int:
        """Embed an integer into the prime subfield (index c mod p)."""
        return c % self.p

    def coeffs(self, a: int) -> list:
        """Coefficient vector (a_0, ..., a_{k-1}) of the element with index a."""
        return index_digits(a, self.p, self.k)

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return index_pack(coeffs, self.p)

    def elements(self) -> range:
        return range(self.q)

    # -- vectorized counterparts (numpy index arrays) -----------------------

    add_array = add
    neg_array = neg

    def mul_array(self, a, b):
        """Index multiplication, elementwise and broadcast; a and b are
        index arrays, or one of them a scalar."""
        a, b = np.asarray(a), np.asarray(b)
        prod = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        prod[(a == 0) | (b == 0)] = 0
        return prod

    def quad_character_array(self, a):
        """``quad_character`` elementwise over an index array."""
        a = np.asarray(a)
        return np.where(a == 0, 0, 1 - 2 * (self._log[a] % 2))

    # -----------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k})"


def make_field(p: int, k: int = 1, cap: int = DEFAULT_AMBIENT_CAP) -> FieldCtx:
    """Construct F_{p**k} with the canonical modulus; see FieldCtx."""
    return FieldCtx(p, k, cap)


# ---------------------------------------------------------------------------
# the additive group F_q x F_q, shared by both generator-set families

def pair_index(ctx: FieldCtx, x: int, y: int) -> int:
    return x + ctx.q * y

def pair_split(ctx: FieldCtx, z: int) -> tuple:
    return z % ctx.q, z // ctx.q

def pair_add(ctx: FieldCtx, z1, z2):
    """Addition in F_q x F_q: ``index_add`` over the 2k digits of (x, y)."""
    return index_add(z1, z2, ctx.p, 2 * ctx.k)

def pair_neg(ctx: FieldCtx, z):
    return index_neg(z, ctx.p, 2 * ctx.k)

def pair_scale(ctx: FieldCtx, z: int, c: int) -> int:
    """Scale by a prime-subfield scalar c in [0, p)."""
    x, y = pair_split(ctx, z)
    e = ctx.embed(c)
    return pair_index(ctx, ctx.mul(x, e), ctx.mul(y, e))


class QuadExt:
    """F_{q^2} = F_q[sqrt(delta)] over a base context, delta the canonical
    nonsquare.  Element (x, y) means x + sqrt(delta)*y, index x + q*y."""

    def __init__(self, base: FieldCtx):
        self.base = base
        self.delta = base.nonsquare
        self.size = base.q ** 2

    @property
    def q(self) -> int:
        return self.base.q

    def mul(self, z1: int, z2: int) -> int:
        b = self.base
        x1, y1 = pair_split(b, z1)
        x2, y2 = pair_split(b, z2)
        x = b.add(b.mul(x1, x2), b.mul(self.delta, b.mul(y1, y2)))
        y = b.add(b.mul(x1, y2), b.mul(y1, x2))
        return pair_index(b, x, y)

    def mul_array(self, z1, z2):
        """``mul`` elementwise and broadcast over index arrays."""
        b = self.base
        z1, z2 = np.asarray(z1), np.asarray(z2)
        x1, y1 = z1 % b.q, z1 // b.q
        x2, y2 = z2 % b.q, z2 // b.q
        x = b.add_array(b.mul_array(x1, x2),
                        b.mul_array(b.mul_array(y1, y2), self.delta))
        y = b.add_array(b.mul_array(x1, y2), b.mul_array(y1, x2))
        return x + b.q * y

    def norm(self, z: int) -> int:
        """x**2 - delta*y**2, the multiplicative norm down to F_q."""
        b = self.base
        x, y = pair_split(b, z)
        return b.sub(b.mul(x, x), b.mul(self.delta, b.mul(y, y)))

    def norm_array(self, z):
        """``norm`` elementwise over an index array."""
        b = self.base
        z = np.asarray(z)
        x, y = z % b.q, z // b.q
        return b.add_array(b.mul_array(x, x),
                           b.mul_array(b.mul_array(y, y), b.neg(self.delta)))

    def rel_trace(self, z: int) -> int:
        """Trace down to F_q: z + conj(z) = 2x."""
        x, _ = pair_split(self.base, z)
        return self.base.add(x, x)

    def elements(self) -> range:
        return range(self.size)

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


@dataclass(frozen=True)
class CharacterSumValue:
    """A root-of-unity sum kept with its exact exponent counts.

    counts[j] is the number of summation terms whose exponent is j mod p;
    re + i*im is sum(counts[j] * exp(2*pi*i*j/p)) up to float rounding.
    """
    p: int
    counts: tuple
    re: float
    im: float

    @classmethod
    def from_counts(cls, p: int, counts) -> "CharacterSumValue":
        counts = tuple(int(c) for c in counts)
        cos, sin = unity_cos_sin(p)
        vec = np.array(counts, dtype=np.float64)
        return cls(p, counts, float(vec @ cos), float(vec @ sin))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def term_count(self) -> int:
        return sum(self.counts)


def kloosterman(ctx: FieldCtx, a: int, b: int) -> float:
    """K(a, b) = sum over x != 0 of zeta_p**trace(a*x + b/x); real-valued.

    Requires b nonzero.  The computed value is checked to be real and
    within the Hasse-Weil bound |K| <= 2*sqrt(q); VerificationError if not.
    """
    if b == 0:
        raise ValueError("kloosterman requires a nonzero second argument")
    counts = [0] * ctx.p
    for x in range(1, ctx.q):
        e = ctx.trace(ctx.add(ctx.mul(a, x), ctx.mul(b, ctx.inv(x))))
        counts[e] += 1
    v = CharacterSumValue.from_counts(ctx.p, counts)
    if not abs(v.im) <= SUM_TOL:
        raise VerificationError(f"Kloosterman sum not real: im={v.im}")
    if not abs(v.re) <= 2.0 * math.sqrt(ctx.q) + SUM_TOL:
        raise VerificationError(
            f"Hasse-Weil bound violated: |{v.re}| > 2*sqrt({ctx.q})")
    return v.re


def gauss_quadratic_sum(ctx: FieldCtx, c: int, a: int) -> CharacterSumValue:
    """sum over x in F_q of zeta_p**trace(c*x**2 + a*x), c nonzero.

    The result is checked against the classical closed form
    (-1)**(k-1) * eta(c) * sqrt(p*)**k * zeta_p**trace(-a**2/(4c))
    with p* = (-1)**((p-1)/2) * p, to 1e-9 per component; VerificationError
    if they differ.
    """
    if c == 0:
        raise ValueError("quadratic coefficient must be nonzero")
    counts = [0] * ctx.p
    for x in range(ctx.q):
        e = ctx.trace(ctx.add(ctx.mul(c, ctx.mul(x, x)), ctx.mul(a, x)))
        counts[e] += 1
    v = CharacterSumValue.from_counts(ctx.p, counts)

    p, k = ctx.p, ctx.k
    sqrt_pstar = math.sqrt(p) * (1 if p % 4 == 1 else 1j)
    shift = ctx.trace(ctx.neg(ctx.mul(ctx.mul(a, a), ctx.inv(ctx.mul(ctx.embed(4), c)))))
    closed = ((-1) ** (k - 1) * ctx.quad_character(c) * sqrt_pstar ** k
              * complex(math.cos(2 * math.pi * shift / p),
                        math.sin(2 * math.pi * shift / p)))
    if not (abs(v.re - closed.real) <= SUM_TOL and abs(v.im - closed.imag) <= SUM_TOL):
        raise VerificationError(
            f"Gauss sum disagrees with closed form: {v.value} vs {closed}")
    return v


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
