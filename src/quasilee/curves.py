"""Generator sets cut out by quadratic curves, and their admissibility.

Two symmetric subsets of the additive group F_q x F_q are built here:

* the *plus* family: the norm-one circle {z in F_{q^2} : norm(z) = 1},
  of size q + 1, living in the quadratic extension F_q[sqrt(delta)];
* the *minus* family: the unit hyperbola {(x, 1/x) : x in F_q^*},
  of size q - 1, living in the split algebra F_q x F_q.

Both are closed under negation and exclude zero, so each yields a
2n-regular Cayley graph on q^2 vertices (n = half the set size) and a
parity-check matrix with n columns over F_p.

The module also provides the point counts that drive the sumset lemmas:
abscissa sets of norm fibers, norm images of shifted double sums, and a
plane projective cubic whose point count certifies coverage for the minus
family at q >= 13.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import (FieldCtx, QuadExt, VerificationError, index_digits,
                     make_field, minus3_character, pair_add, pair_index,
                     pair_neg)

PLUS = "plus"
MINUS = "minus"
FAMILIES = (PLUS, MINUS)


@dataclass(frozen=True)
class GeneratorSet:
    """A symmetric, zero-free subset of F_q x F_q given by representatives.

    ``reps`` holds one index per {h, -h} pair, in ascending index order;
    ``members`` is the full set, ascending.  ``ext`` carries the quadratic
    extension for the plus family (None for minus).
    """
    family: str
    base: FieldCtx
    reps: tuple
    members: tuple
    ext: QuadExt = field(default=None, compare=False, repr=False)

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

    def indicator_fft(self) -> np.ndarray:
        """fftn of the indicator 1_H over F_q x F_q read as Z_p^{2k}.

        An index is the base-p number whose 2k digits are the coefficient
        vectors of (x, y), so a flat array over the q^2 indices, reshaped
        to (p,) * 2k, has one axis per digit; the result has that shape.
        It is real, because H = -H.
        """
        ind = np.zeros(self.ambient_size)
        ind[list(self.members)] = 1.0
        return np.fft.fftn(ind.reshape((self.p,) * (2 * self.k)))

    def coordinate_matrix(self) -> np.ndarray:
        """2k x n matrix over F_p whose j-th column stacks the coefficient
        vectors of (x_j, y_j): the 2k digits of the j-th representative."""
        reps = np.array(self.reps, dtype=np.int64)
        return np.array(index_digits(reps, self.p, 2 * self.k), dtype=np.int64)

    def to_json_dict(self) -> dict:
        ctx_json = (self.ext.to_json_dict() if self.ext is not None
                    else self.base.to_json_dict())
        return {
            "family": self.family,
            "context": ctx_json,
            "n": self.n,
            "degree": self.degree,
            "representatives": self.coordinate_matrix().T.tolist(),
        }

    def __repr__(self):
        return (f"GeneratorSet(family={self.family!r}, p={self.p}, k={self.k}, "
                f"n={self.n})")


def _finish(family, base, members, ext=None) -> GeneratorSet:
    # the representative of each {z, -z} is the smaller index
    members = np.sort(np.asarray(members, dtype=np.int64))
    reps = members[members < pair_neg(base, members)]
    return GeneratorSet(family, base, tuple(reps.tolist()),
                        tuple(members.tolist()), ext)


def norm_circle(ext: QuadExt) -> GeneratorSet:
    """The plus-family generator set: all z in F_{q^2} with norm(z) = 1.

    Has exactly q + 1 elements (the norm map is a surjective homomorphism
    onto F_q^* with kernel of that size); closed under negation because
    norm(-z) = norm(z), and zero-free since norm(0) = 0.  Read off one
    ``norm_array`` over all q^2 indices.
    """
    members = np.flatnonzero(ext.norm_array(np.arange(ext.size)) == 1)
    gen = _finish(PLUS, ext.base, members, ext)
    if gen.degree != ext.q + 1:
        raise VerificationError(
            f"norm-one circle has {gen.degree} points, expected {ext.q + 1}")
    return gen


def unit_hyperbola(ctx: FieldCtx) -> GeneratorSet:
    """The minus-family generator set: all (x, 1/x) for x in F_q^*.

    Has q - 1 elements; -(x, 1/x) = (-x, 1/(-x)) keeps it symmetric.
    """
    members = [pair_index(ctx, x, ctx.inv(x)) for x in range(1, ctx.q)]
    gen = _finish(MINUS, ctx, members)
    if gen.degree != ctx.q - 1:
        raise VerificationError(
            f"unit hyperbola has {gen.degree} points, expected {ctx.q - 1}")
    return gen


def generator_set(base: FieldCtx, family: str) -> GeneratorSet:
    """Build either family over the given ground field."""
    if family == PLUS:
        return norm_circle(QuadExt(base))
    if family == MINUS:
        return unit_hyperbola(base)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def from_representatives(base: FieldCtx, family: str, reps) -> GeneratorSet:
    """Rebuild a generator set from representative pair indices (e.g. parsed
    from a parity-check matrix).  Validates symmetry-freeness only; the
    curve membership of arbitrary input is not assumed."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    reps = [int(z) for z in reps]
    members = set()
    for z in reps:
        if z == 0:
            raise ValueError("generator set must not contain zero")
        m = pair_neg(base, z)
        if z in members or m in members:
            raise ValueError("representatives collide under negation")
        members.add(z)
        members.add(m)
    ext = QuadExt(base) if family == PLUS else None
    # keep the representative order as given: it fixes the column order of
    # a parity-check matrix parsed from a file
    return GeneratorSet(family, base, tuple(reps), tuple(sorted(members)), ext)


# ---------------------------------------------------------------------------
# supporting point counts

def circle_abscissas(ctx: FieldCtx, c: int) -> frozenset:
    """x-coordinates of points on the circle x**2 - delta*y**2 = c, c != 0.

    Equals {x : x**2 = c, or x**2 - c is a nonsquare}; independent of the
    choice of nonsquare delta.  Size (q+3)/2 when c is a square, (q+1)/2
    otherwise.
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    out = set()
    for x in ctx.elements():
        d = ctx.sub(ctx.mul(x, x), c)
        if d == 0 or ctx.quad_character(d) == -1:
            out.add(x)
    return frozenset(out)


def shifted_circle_sum(ext: QuadExt, w: int) -> frozenset:
    """The translated double sum H + H*w of the norm-one circle H."""
    circle = [z for z in ext.elements() if ext.norm(z) == 1]
    out = set()
    for z1 in circle:
        for z2 in circle:
            out.add(pair_add(ext.base, z1, ext.mul(z2, w)))
    return frozenset(out)


def shifted_norm_image(ext: QuadExt, w: int) -> frozenset:
    """Norms of the translated double sum H + H*w, w != 0.

    Size (q+3)/2 when norm(w) is a square, (q+1)/2 otherwise; always a
    subset of the abscissa set of the corresponding circle.
    """
    if w == 0:
        raise ValueError("w must be nonzero")
    return frozenset(ext.norm(z) for z in shifted_circle_sum(ext, w))


def projective_cubic_count(ctx: FieldCtx, t: int) -> int:
    """Points on the plane projective cubic
    (X + Y + t*Z) * (X*Y - Z*X - Y*Z) + X*Y*Z = 0 over F_q, t != -1.

    Counted as the affine points (Z = 1) plus the three fixed points at
    infinity (1:0:0), (0:1:0), (1:-1:0).  For t != -1 the curve is
    absolutely irreducible so the count obeys |count - (q+1)| <= 2*sqrt(q).
    """
    if t == ctx.neg(1):
        raise ValueError("t = -1 gives a reducible curve")
    count = 3
    for x in ctx.elements():
        for y in ctx.elements():
            s = ctx.mul(ctx.add(ctx.add(x, y), t),
                        ctx.sub(ctx.mul(x, y), ctx.add(x, y)))
            if ctx.add(s, ctx.mul(x, y)) == 0:
                count += 1
    return count


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
    """Decide whether (p, k, family) yields a 2-quasi-perfect construction.

    Plus family: -3 must be a square in F_q and p >= 5.  Minus family:
    -3 must be a nonsquare in F_q and q > 12.  Whether -3 is a square in
    F_{p^k} depends only on p mod 12 and the parity of k.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if p == 3:
        raise ValueError("p must be at least 5 for admissibility analysis")
    ctx = make_field(p, k)
    eta = minus3_character(ctx)
    cls = {1: "square", -1: "nonsquare"}[eta]

    rule = residue_rule_minus3(p, k)
    if (rule == 1) != (eta == 1):
        raise VerificationError("mod-12 rule disagrees with character")

    if family == PLUS:
        if eta == 1:
            return AdmissibilityReport(family, p, k, ctx.q, cls, True,
                                       f"-3 is a square in F_{ctx.q}")
        return AdmissibilityReport(family, p, k, ctx.q, cls, False,
                                   f"-3 is a nonsquare in F_{ctx.q}")
    # minus family
    if eta == 1:
        return AdmissibilityReport(family, p, k, ctx.q, cls, False,
                                   f"-3 is a square in F_{ctx.q}")
    if ctx.q <= 12:
        return AdmissibilityReport(family, p, k, ctx.q, cls, False,
                                   f"q = {ctx.q} <= 12")
    return AdmissibilityReport(family, p, k, ctx.q, cls, True,
                               f"-3 is a nonsquare in F_{ctx.q} and q > 12")


def residue_rule_minus3(p: int, k: int) -> int:
    """Character of -3 in F_{p^k} by congruence rule alone: +1 iff
    p mod 12 in {1, 7} or k is even (p > 3)."""
    if p % 12 in (1, 7) or k % 2 == 0:
        return 1
    return -1
