"""Generator sets cut out by quadratic curves, and their admissibility.

Two symmetric subsets of the additive group F_q x F_q are built here:

* the *plus* family: the norm-one circle {z in F_{q^2} : norm(z) = 1},
  of size q + 1, living in the quadratic extension F_q[sqrt(delta)];
* the *minus* family: the unit hyperbola {(x, 1/x) : x in F_q^*},
  of size q - 1, living in the split algebra F_q x F_q.

Both are closed under negation and exclude zero, so each yields a
2n-regular Cayley graph on q^2 vertices (n = half the set size) and a
parity-check matrix with n columns over F_p.  Each set is built by O(q)
array operations over its field, the circle by its Cayley
parametrization.  ``GeneratorSet.classes`` holds the orbits of the
curve's symmetry group on F_q x F_q, on which the sumset layers and the
eigenvalues are constant: built on first read, once per set, and shared
by every stage that reads them (None unless the set is exactly its
curve).  The class of a point (x, y) is one gather from the sum
of its coordinates' keys: the norm x^2 - delta*y^2 (plus), x*y or an axis
class (minus); ``CurveClasses.sum_keys`` takes unreduced sums instead.
A ``GeneratorSet`` holds its representatives and members as read-only
int64 arrays, made once by ``from_representatives``, and compares by
identity.  ``GeneratorSet.indicator_fft`` is computed from the members:
their sum along digit 0, then numpy's real inverse FFT over the other
digits, as H = -H makes each digit-0 column Hermitian: half of it holds it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (FieldCtx, QuadExt, VerificationError, _frozen, _gathered,
                     chunks, index_digits, make_field, minus3_character,
                     pair_index, pair_neg, residue_class_mod12, unity_cos_sin)

PLUS = "plus"
MINUS = "minus"
FAMILIES = (PLUS, MINUS)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """A symmetric, zero-free subset of F_q x F_q given by representatives.

    ``reps`` holds one index per {h, -h} pair, ascending on the curves;
    ``members`` is the full set, ascending.  Both are read-only int64
    arrays, so two sets compare by identity.  ``ext`` carries the quadratic
    extension for the plus family (None for minus).
    """
    family: str
    base: FieldCtx
    reps: np.ndarray
    members: np.ndarray
    ext: QuadExt = field(default=None, repr=False)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def n(self) -> int:
        """Number of representatives = code length."""
        return len(self.reps)

    @property
    def degree(self) -> int:
        return len(self.members)

    @property
    def ambient_size(self) -> int:
        return self.base.q ** 2

    def indicator_fft(self, cols=slice(None)) -> np.ndarray:
        """rfftn of the indicator 1_H over F_q x F_q read as Z_p^{2k}, float64:
        H = -H makes it real (ValueError for a set that is not closed).

        An index is the base-p number whose 2k digits are the coefficient
        vectors of (x, y), so a flat array over the q^2 indices, reshaped
        to (p,) * 2k, has one axis per digit, the last one digit 0 (of x).
        The result holds the transform at digit 0 in ``cols`` (a range or
        slice, default all of 0 .. p // 2), along the last axis: the value
        at a Fourier index f equals the value at -f, taken digitwise.

        No q^2 indicator is formed.  The value (its own conjugate) at digit
        0 j and other digits f is sum_r g_j(r) * zeta_p**<f, r>, g_j(r) the
        sum of zeta_p**(j*d) over the members of digit 0 d and other digits r.
        Members h and -h make g_j(-r) = conj(g_j(r)), so half of g_j, digit
        1 <= p // 2, holds it: only the members there are summed, a chunk at
        a time (they ascend, so a row's members are consecutive), and
        numpy's real inverse FFT, unscaled, finishes each column on its own.
        """
        p, k, (cos, sin), half = self.p, self.k, unity_cos_sin(self.p), self.p // 2 + 1
        members, j, roots = self.members, np.arange(half)[cols], cos + 1j * sin
        if not np.array_equal(np.sort(pair_neg(self.base, members)), members):
            raise ValueError("the transform of 1_H is real only for H = -H")
        rows = np.zeros((self.ambient_size // p ** 2 * half, len(j)), dtype=complex)
        for chunk in chunks(members[members // p % p < half], len(j)):
            r, d = np.divmod(chunk, p)
            r -= r // p * (p - half)  # the row of digits r, digit 1 below half
            first = np.flatnonzero(np.diff(r, prepend=-1))
            rows[r[first]] += np.add.reduceat(roots[d[:, None] * j % p], first)
        return np.fft.irfftn(rows.reshape((p,) * (2 * k - 2) + (half, len(j))),
                             s=(p,) * (2 * k - 1), axes=range(2 * k - 1),
                             norm="forward")

    def coordinate_matrix(self) -> np.ndarray:
        """2k x n matrix over F_p whose j-th column stacks the coefficient
        vectors of (x_j, y_j): the 2k digits of the j-th representative."""
        return np.array(index_digits(self.reps, self.p, 2 * self.k), dtype=np.int64)

    @cached_property
    def classes(self):
        """The classes of the set's curve (``CurveClasses``), built on first
        read and shared by every stage, or None unless the set is exactly
        that curve: only then does the group permute H."""
        ctx, ext, q, x = self.base, self.ext, self.q, np.arange(self.q)
        if self.family == PLUS:
            on_curve = ext.norm(self.members) == 1
            # nonsquare c = norm(root(c / norm(z0)) * z0) for the first z0 =
            # u + sqrt(delta) of nonsquare norm: u^2 - delta takes (q + 1)/2 values
            root = np.zeros(q, dtype=np.int64)
            root[ctx.mul(x, x)] = x
            z0 = next(z for z in x + q if ctx.quad_character(ext.norm(z)) == -1)
            reps = np.where(ctx.quad_character(x) == -1,
                            ext.mul(root[ctx.mul(x, ctx.inv(ext.norm(z0)))], z0), root)
        else:
            on_curve = ctx.mul(self.members % q, self.members // q) == 1
            reps = np.concatenate(([0], x[1:] + q, [1, q]))  # (c, 1), (1, 0), (0, 1)
        if self.degree != q + (1 if self.family == PLUS else -1) or not on_curve.all():
            return None
        sizes = np.where(reps == 0, 1, self.degree)  # the origin's class is itself
        keys = ext.norm_terms + (ctx._low,) if self.family == PLUS else _minus_keys(ctx)
        return CurveClasses(ctx, _frozen(reps), _frozen(sizes), keys)

    @property
    def context_json(self) -> dict:
        """The field context as JSON: the extension's for plus, else the
        ground field's."""
        return (self.ext or self.base).to_json_dict()

    def __repr__(self):
        return (f"GeneratorSet(family={self.family!r}, p={self.p}, k={self.k}, "
                f"n={self.n})")


def _curve_set(family, base, points) -> GeneratorSet:
    """The generator set of a curve's ``points``: ``from_representatives``
    of the smaller index of each {z, -z}.  VerificationError unless the set
    built is exactly the points made, none twice, and has the classes of
    the whole curve."""
    points = np.sort(points)
    reps = points[points < pair_neg(base, points)]
    # a repeated point is passed once, and the set built comes out short
    gen = from_representatives(base, family, reps[np.diff(reps, prepend=0) > 0])
    if not np.array_equal(gen.members, points) or gen.classes is None:
        curve = "norm-one circle" if family == PLUS else "unit hyperbola"
        raise VerificationError(
            f"the {len(points)} points made are not exactly the {curve}")
    return gen


def norm_circle(ext: QuadExt) -> GeneratorSet:
    """The plus-family generator set: all z in F_{q^2} with norm(z) = 1.

    Has exactly q + 1 elements (the norm map is a surjective homomorphism
    onto F_q^* with kernel of that size); closed under negation because
    norm(-z) = norm(z), and zero-free since norm(0) = 0.  Built in O(q)
    by the Cayley parametrization t -> ((t^2 + delta)/(t^2 - delta),
    2t/(t^2 - delta)) of the conic x^2 - delta*y^2 = 1, plus (1, 0); the
    denominator never vanishes, delta being a nonsquare.
    """
    b, t = ext.base, np.arange(ext.q)
    t2 = b.mul(t, t)
    den = b.inv(b.add(t2, b.neg(ext.delta)))
    x = b.mul(b.add(t2, ext.delta), den)
    return _curve_set(PLUS, b, np.append(pair_index(b, x, b.mul(b.add(t, t), den)), 1))


def unit_hyperbola(ctx: FieldCtx) -> GeneratorSet:
    """The minus-family generator set: all (x, 1/x) for x in F_q^*.

    Has q - 1 elements; -(x, 1/x) = (-x, 1/(-x)) keeps it symmetric.
    """
    x = np.arange(1, ctx.q)
    return _curve_set(MINUS, ctx, pair_index(ctx, x, ctx.inv(x)))


def generator_set(base: FieldCtx, family: str) -> GeneratorSet:
    """Build either family over the given ground field."""
    if family == PLUS:
        return norm_circle(QuadExt(base))
    if family == MINUS:
        return unit_hyperbola(base)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def from_representatives(base: FieldCtx, family: str, reps) -> GeneratorSet:
    """Rebuild a generator set from representative pair indices (e.g. parsed
    from a parity-check matrix), the one constructor of ``GeneratorSet``.
    Validates symmetry-freeness only, naming the first representative that
    is zero or meets an earlier one's {z, -z}; the curve membership of
    arbitrary input is not assumed."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    reps = _frozen(np.array(reps, dtype=np.int64))
    neg = pair_neg(base, reps)
    # {z, -z} is keyed by its smaller index, 0 only for z = 0; a stable sort
    # puts the first representative of each key first
    keys = np.minimum(reps, neg)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    bad = np.concatenate((np.flatnonzero(keys == 0), repeats)).min(initial=len(reps))
    if bad < len(reps):
        raise ValueError("generator set must not contain zero" if keys[bad] == 0
                         else "representatives collide under negation")
    ext = QuadExt(base) if family == PLUS else None
    # keep the representative order as given: it fixes the column order of
    # a parity-check matrix parsed from a file
    return GeneratorSet(family, base, reps,
                        _frozen(np.sort(np.concatenate((reps, neg)))), ext)


@dataclass(frozen=True, eq=False)
class CurveClasses:
    """The orbits on F_q x F_q of the curve's symmetry group, which acts by
    additive automorphisms and permutes H: the circle by multiplication
    (plus), (a, b) -> (a*t, b/t) (minus).  So the layers C_t and the
    eigenvalues are constant on each orbit.  Class 0 is the origin alone,
    every other class has |H| points; ``reps`` holds one index per class.
    ``keys`` holds the class tables (x_keys, y_keys, classes) of ``of``.
    Every array is read-only, since every stage shares them; ``base`` is the
    ground field, not the set, which holds its classes."""
    base: FieldCtx
    reps: np.ndarray
    sizes: np.ndarray
    keys: tuple

    def of(self, x, y):
        """Class of each point (x, y), ints or broadcast int64 arrays of
        coordinates: the norm x^2 - delta*y^2 for plus (q classes); for
        minus x*y off the axes, q on y = 0, q + 1 on x = 0.  Either is one
        gather from the sum of the two coordinates' keys."""
        x_keys, y_keys, classes = self.keys
        return _gathered(classes[x_keys[x] + y_keys[y]])

    @cached_property
    def sum_keys(self) -> tuple:
        """``keys`` with ``_low`` folded in, read-only: the class of (x, y)
        from sums of two widened indices that reduce to x and to y."""
        (x_keys, y_keys, classes), low = self.keys, self.base._low
        return _frozen(x_keys[low]), _frozen(y_keys[low]), classes


def _minus_keys(ctx: FieldCtx) -> tuple:
    """(x_keys, y_keys, classes) with classes[x_keys[a] + y_keys[b]] the
    minus class of (a, b).  The keys are discrete logs, whose sums below
    2(q - 1) index the products; log 0 is 2(q - 1) as x and 3(q - 1) as y,
    past them, so a zero coordinate lands in its axis's range (q + 1 for
    a = 0, then q for b = 0) and the origin at 5(q - 1)."""
    q1 = ctx.q - 1
    y_keys = ctx._log.copy()
    y_keys[0] = 3 * q1
    classes = np.concatenate((ctx._exp[:2 * q1],
                              np.repeat([ctx.q + 1, ctx.q, 0], q1), [0]))
    return ctx._log, _frozen(y_keys), _frozen(classes)


# ---------------------------------------------------------------------------
# admissibility

@dataclass(frozen=True)
class AdmissibilityReport:
    family: str
    p: int
    k: int
    q: int
    minus3_class: str  # 'square' | 'nonsquare' | 'zero'
    admissible: bool
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "family": self.family, "p": self.p, "k": self.k, "q": self.q,
            "minus3_class": self.minus3_class,
            "admissible": self.admissible, "reason": self.reason,
        }


def admissibility(p: int, k: int, family: str) -> AdmissibilityReport:
    """Decide whether (p, k, family) meets the paper's sufficient condition
    for a 2-quasi-perfect construction.

    Plus family: -3 must be a square in F_q and p >= 5.  Minus family:
    -3 must be a nonsquare in F_q and q > 12.  Whether -3 is a square in
    F_{p^k} depends only on p mod 12 and the parity of k.  The condition
    is sufficient, not necessary: the minus family at q = 11 is refused
    here, yet its code is 2-quasi-perfect, the only such case with
    5 <= p and q < 400.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if p == 3:
        raise ValueError("p must be at least 5 for admissibility analysis")
    ctx = make_field(p, k)
    eta = minus3_character(ctx)
    cls = {1: "square", -1: "nonsquare"}[eta]

    if (residue_class_mod12(p).minus3_square or k % 2 == 0) != (eta == 1):
        raise VerificationError("mod-12 rule disagrees with character")

    q = ctx.q
    admissible, reason = {
        (PLUS, 1): (True, f"-3 is a square in F_{q}"),
        (PLUS, -1): (False, f"-3 is a nonsquare in F_{q}"),
        (MINUS, 1): (False, f"-3 is a square in F_{q}"),
        (MINUS, -1): (q > 12, f"-3 is a nonsquare in F_{q} and q > 12"
                      if q > 12 else f"q = {q} <= 12"),
    }[family, eta]
    return AdmissibilityReport(family, p, k, q, cls, admissible, reason)
