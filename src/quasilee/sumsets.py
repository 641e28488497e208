"""Iterated sumset growth of a generator set and its code-theoretic verdict.

For a symmetric zero-free H inside G = F_q x F_q, the cumulative sets

    C_0 = {0},   C_t = C_{t-1} union (C_{t-1} + H)

are exactly the syndromes reachable by error vectors of Lee weight <= t.
Two indices summarize the growth: the *critical index*, the greatest t
with #C_t equal to the full Lee ball size #B_t (so distinct light errors
have distinct syndromes up to weight t), and the *limit index*, the least
r with C_r = G (so every syndrome is reachable by weight <= r).  H gives
a 2-quasi-perfect code exactly when the pair is (2, 3).

When H is exactly its curve, every C_t is a union of the curve's classes
(``GeneratorSet.classes``) and is held as a boolean array over them: the
class c' is in C + H when class(rep_c + h) = c' for some class c of C and
h in H, so the growth looks up (classes x |H|) classes, no q^2 array.
Each rep_c + h stays two unreduced sums wide[rep] + wide[h], whose class
is three gathers in ``CurveClasses.sum_keys``; an exact int64 identity
checks the counts.  Any other H (a parity-check
matrix read from a file) takes the FFT: G is Z_p^{2k} (see
``GeneratorSet.indicator_fft``), and C + H is the support of
irfftn(rfftn(1_C) * rfftn(1_H)), whose values count the ways to write a
point as c + h; one more than 0.25 from an integer raises
VerificationError.  Both indicators are real, so the half transforms over
the last axis determine the convolution.  The FFT route refuses q^2 above
``VERTEX_CAP``.
"""

from dataclasses import dataclass

import numpy as np

from .curves import GeneratorSet
from .fields import (VERTEX_CAP, FieldCtx, VerificationError, check_ambient,
                     chunks, pair_add)

# Lee ball size evaluation is supported for r <= 3 only.
MAX_BALL_RADIUS = 3
# most layers grown, and most BFS levels searched, before giving up
MAX_LAYERS = 8
# largest allowed distance of a convolution value from an integer
INTEGRALITY_TOL = 0.25

QUASI_PERFECT_2 = "QuasiPerfect2"
PERFECT_2 = "Perfect2"
NEITHER = "Neither"


class CoverageError(VerificationError):
    """The coset table's search stopped (stalled or at MAX_LAYERS) short of q^2."""


def sumset(a, b, ctx: FieldCtx) -> set:
    """Pointwise sum {x + y} of two index sets in F_q x F_q.

    Scalar oracle; tests grow layers with it to check
    ``cumulative_layers``.
    """
    return {pair_add(ctx, x, y) for x in a for y in b}


def lee_ball_size(n: int, r: int) -> int:
    """Number of words in Z^n at Lee distance <= r from a point, r <= 3.

    Matches the Z_p^n count whenever p >= 2r + 1.  The r = 3 value
    (1+2n)(3+2n+2n^2)/3 is an integer for every n.
    """
    if r < 0 or n < 0:
        raise ValueError("n and r must be nonnegative")
    if r == 0:
        return 1
    if r == 1:
        return 2 * n + 1
    if r == 2:
        return 2 * n * n + 2 * n + 1
    if r == 3:
        return (1 + 2 * n) * (3 + 2 * n + 2 * n * n) // 3
    raise ValueError(f"Lee ball size only supported up to radius {MAX_BALL_RADIUS}")


@dataclass(frozen=True)
class SumsetLayers:
    """Sizes of the cumulative layers C_0 .. C_T with their growth summary.

    ``covered`` is True when the last layer is all of F_q x F_q;
    ``limit_index`` is then its index t (None otherwise).  The critical
    index compares layer sizes against Z^n Lee ball sizes, so it is
    meaningful for p >= 2t + 1.
    """
    generator: GeneratorSet
    sizes: tuple
    critical_index: int
    limit_index: int
    covered: bool

    @property
    def n(self) -> int:
        return self.generator.n

    def to_json_dict(self) -> dict:
        return {
            "family": self.generator.family,
            "context": self.generator.context_json,
            "n": self.n,
            "layer_sizes": list(self.sizes),
            "critical_index": self.critical_index,
            "limit_index": self.limit_index,
            "covered": self.covered,
        }


def _grow(start, step, size_of, total) -> tuple:
    """The layers C_0 = start, C_{t+1} = C_t | step(C_t & ~C_{t-1}) and
    their sizes, to t = MAX_BALL_RADIUS at least and then until all
    ``total`` points are covered, growth stops, or t = MAX_LAYERS.
    C_{t-1} + H lies in C_t, so ``step`` gets only what C_t adds."""
    sets, sizes, new = [start], [size_of(start)], start
    while len(sets) <= MAX_LAYERS:
        sets.append(sets[-1] | step(new))
        new = sets[-1] & ~sets[-2]
        sizes.append(size_of(sets[-1]))
        if sizes[-1] in (total, sizes[-2]) and len(sets) > MAX_BALL_RADIUS:
            break
    return sets, sizes


def _sumset_support(mask: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """The mask of C + H, from the mask of C and h_hat = rfftn(1_H), whose
    last axis holds (p + 1) // 2 of the p entries."""
    shape = h_hat.shape[:-1] + (2 * h_hat.shape[-1] - 1,)
    conv = np.fft.irfftn(np.fft.rfftn(mask.reshape(shape)) * h_hat,
                         s=shape, axes=range(len(shape))).ravel()
    counts = np.rint(conv)
    worst = float(np.abs(conv - counts).max())
    if worst > INTEGRALITY_TOL:
        raise VerificationError(
            f"a sumset convolution value lies {worst:.3g} from an integer")
    return counts > 0


def _class_layers(gen: GeneratorSet) -> tuple:
    """``_grow`` over the curve's classes, each expanded once: the steps
    expand what is new, and the classes outside C_{T-1} are expanded after
    them.  Raises VerificationError unless sum_c #c * T[c, c'] = |H| * #c'
    for every class c', with T[c, c'] = #{h : class(rep_c + h) = c'} (both
    count the (r, h) with r + h in c'), and every representative lies in
    its class.  The left side is |H| * hits - (|H| - 1) * T[0, c'] (#0 = 1),
    hits the steps' column sums of T; ``of`` gives T[0, c'] off H itself."""
    q, wide, members, classes = gen.q, gen.base._wide, gen.members, gen.classes
    reps, sizes, n_h = classes.reps, classes.sizes, len(members)
    x_sums, y_sums, table = classes.sum_keys
    hx, hy = wide[members % q], wide[members // q]
    rx, ry = wide[reps % q, None], wide[reps // q, None]
    hits = np.zeros(len(reps), dtype=np.int64)

    def step(new):
        counts = np.zeros(len(reps), dtype=np.int64)
        for cs in chunks(np.flatnonzero(new), len(members)):
            keys = table.take(x_sums.take(rx[cs] + hx) + y_sums.take(ry[cs] + hy))
            counts += np.bincount(keys.ravel(), minlength=len(reps))
        hits[:] += counts
        return counts > 0

    start = np.arange(len(reps)) == 0
    grown = _grow(start, step, lambda c: int(sizes[c].sum()), gen.ambient_size)
    step(~grown[0][-2])  # the steps expanded exactly C_{T-1}
    origin = np.bincount(classes.of(members % q, members // q), minlength=len(reps))
    bad = np.flatnonzero(n_h * hits - (n_h - 1) * origin != n_h * sizes)
    if bad.size:
        raise VerificationError(f"the class map fails the double-counting "
                                f"identity at classes {bad[:3].tolist()}")
    if (classes.of(reps % q, reps // q) != np.arange(len(reps))).any():
        raise VerificationError("the class map misplaces a representative")
    return grown


def cumulative_layers(gen: GeneratorSet) -> SumsetLayers:
    """Grow C_0 .. C_t until the group is covered, growth stops, or
    t = MAX_LAYERS, always to t = 3 at least; by classes when H is
    exactly its curve, else by the FFT."""
    size = gen.ambient_size
    if gen.classes is None:
        check_ambient(gen.p, gen.k, VERTEX_CAP)  # the FFT holds q^2 complex
        h_hat = gen.indicator_fft()
        sizes = _grow(np.arange(size) == 0,
                      lambda new: _sumset_support(new, h_hat),
                      lambda mask: int(np.count_nonzero(mask)), size)[1]
    else:
        sizes = _class_layers(gen)[1]

    covered = sizes[-1] == size
    limit = None
    if covered:
        limit = next(i for i, s in enumerate(sizes) if s == size)
    critical = max(t for t in range(min(len(sizes) - 1, MAX_BALL_RADIUS) + 1)
                   if sizes[t] == lee_ball_size(gen.n, t))
    return SumsetLayers(gen, tuple(sizes), critical, limit, covered)


@dataclass(frozen=True)
class Classification:
    verdict: str
    layers: SumsetLayers
    detail: str

    def to_json_dict(self) -> dict:
        d = self.layers.to_json_dict()
        d["verdict"] = self.verdict
        d["detail"] = self.detail
        return d


def check_classifiable(p: int) -> None:
    """ValueError unless p >= 5, where the radius-2 ball formula counts Z_p^n words."""
    if p < 5:
        raise ValueError("classification requires p >= 5")


def classify(gen: GeneratorSet) -> Classification:
    """Decide Perfect2 / QuasiPerfect2 / Neither from the layer growth.

    Perfect2:      #C_2 = #B_2 = q^2 (radius-2 spheres tile the group).
    QuasiPerfect2: #B_2 < q^2 < #B_3, #C_2 = #B_2, and C_3 = G.
    Requires p >= 5 (``check_classifiable``).
    """
    check_classifiable(gen.p)
    layers = cumulative_layers(gen)
    n, size = gen.n, gen.ambient_size
    b2, b3 = lee_ball_size(n, 2), lee_ball_size(n, 3)
    sizes = layers.sizes

    if sizes[2] == b2 == size:
        return Classification(PERFECT_2, layers,
                              f"#C_2 = #B_2 = {size}; radius-2 tiling")
    if b2 < size < b3 and sizes[2] == b2 and layers.limit_index == 3:
        return Classification(
            QUASI_PERFECT_2, layers,
            f"#C_2 = #B_2 = {b2}, C_3 covers all {size} points")
    return Classification(
        NEITHER, layers,
        f"layer sizes {list(sizes)} vs balls [1, {lee_ball_size(n, 1)}, {b2}, {b3}]")
