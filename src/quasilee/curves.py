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
parametrization.  ``curve_classes`` gives the orbits of each curve's
symmetry group on F_q x F_q: the sumset layers and the eigenvalues are
constant on them.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import (FieldCtx, QuadExt, VerificationError, index_digits,
                     make_field, minus3_character, pair_index, pair_neg)

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
    norm(-z) = norm(z), and zero-free since norm(0) = 0.  Built in O(q)
    by the Cayley parametrization t -> ((t^2 + delta)/(t^2 - delta),
    2t/(t^2 - delta)) of the conic x^2 - delta*y^2 = 1, plus (1, 0); the
    denominator never vanishes, delta being a nonsquare.
    """
    b, t = ext.base, np.arange(ext.q)
    t2 = b.mul(t, t)
    den = b.inv(b.add(t2, b.neg(ext.delta)))
    x = b.mul(b.add(t2, ext.delta), den)
    members = np.append(pair_index(b, x, b.mul(b.add(t, t), den)), 1)
    gen = _finish(PLUS, b, members, ext)
    if curve_classes(gen) is None:
        raise VerificationError(
            f"the {ext.q + 1} points made are not all of the norm-one circle")
    return gen


def unit_hyperbola(ctx: FieldCtx) -> GeneratorSet:
    """The minus-family generator set: all (x, 1/x) for x in F_q^*.

    Has q - 1 elements; -(x, 1/x) = (-x, 1/(-x)) keeps it symmetric.
    """
    x = np.arange(1, ctx.q)
    members = pair_index(ctx, x, ctx.inv(x))
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


@dataclass(frozen=True, eq=False)
class CurveClasses:
    """The orbits on F_q x F_q of the curve's symmetry group, which acts by
    additive automorphisms and permutes H: the circle by multiplication
    (plus), (a, b) -> (a*t, b/t) (minus).  So the layers C_t and the
    eigenvalues are constant on each orbit.  Class 0 is the origin alone,
    every other class has |H| points; ``reps`` holds one index per class."""
    gen: GeneratorSet
    reps: np.ndarray
    sizes: np.ndarray

    def of(self, z):
        """Class of each index of an int64 array: the norm for plus (q
        classes); for minus a*b off the axes, q on b = 0, q + 1 on a = 0."""
        q = self.gen.q
        if self.gen.family == PLUS:
            return self.gen.ext.norm(z)
        keys = self.gen.base.mul(z % q, z // q)  # 0 on both axes
        return keys + (keys == 0) * ((z % q != 0) * q + (z >= q) * (q + 1))


def curve_classes(gen: GeneratorSet):
    """The classes of ``gen``'s curve, or None unless ``gen`` is exactly
    that curve: only then does the group permute H."""
    ctx, ext, q, x = gen.base, gen.ext, gen.q, np.arange(gen.q)
    members = np.asarray(gen.members, dtype=np.int64)
    if gen.family == PLUS:
        on_curve = ext.norm(members) == 1
        # nonsquare c = norm(root(c / norm(z0)) * z0) for the first z0 =
        # u + sqrt(delta) of nonsquare norm: u^2 - delta takes (q + 1)/2 values
        root = np.zeros(q, dtype=np.int64)
        root[ctx.mul(x, x)] = x
        z0 = next(z for z in x + q if ctx.quad_character(ext.norm(z)) == -1)
        reps = np.where(ctx.quad_character(x) == -1,
                        ext.mul(root[ctx.mul(x, ctx.inv(ext.norm(z0)))], z0), root)
    else:
        on_curve = ctx.mul(members % q, members // q) == 1
        reps = np.concatenate(([0], x[1:] + q, [1, q]))  # (c, 1), (1, 0), (0, 1)
    if len(set(gen.members)) != q + (1 if gen.family == PLUS else -1) \
            or not on_curve.all():
        return None
    sizes = np.full(len(reps), gen.degree)
    sizes[0] = 1
    return CurveClasses(gen, reps, sizes)


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
