"""Iterated sumset growth of a generator set and its code-theoretic verdict.

For a symmetric zero-free H inside G = F_q x F_q, the cumulative sets

    C_0 = {0},   C_t = C_{t-1} union (C_{t-1} + H)

are exactly the syndromes reachable by error vectors of Lee weight <= t.
Two indices summarize the growth: the *critical index*, the greatest t
with #C_t equal to the full Lee ball size #B_t (so distinct light errors
have distinct syndromes up to weight t), and the *limit index*, the least
r with C_r = G (so every syndrome is reachable by weight <= r).  H gives
a 2-quasi-perfect code exactly when the pair is (2, 3).

Sets are dense numpy boolean masks over the q^2 indices.  The additive
group is Z_p^{2k} (see ``GeneratorSet.indicator_fft``), so one layer step
is the support of the convolution 1_C * 1_H, computed as
ifftn(fftn(1_C) * fftn(1_H)) over the mask reshaped to (p,)*2k.  Its
values count the ways to write a point as c + h, so they are integers in
[0, #H]; each step rounds them and raises VerificationError if any value
lies more than 0.25 from an integer.
"""

from dataclasses import dataclass

import numpy as np

from .curves import GeneratorSet
from .fields import FieldCtx, VerificationError, pair_add

# Lee ball size evaluation is supported for r <= 3 only.
MAX_BALL_RADIUS = 3
# most layers grown, and most BFS levels searched, before giving up
MAX_LAYERS = 8
# largest allowed distance of a convolution value from an integer
INTEGRALITY_TOL = 0.25

QUASI_PERFECT_2 = "QuasiPerfect2"
PERFECT_2 = "Perfect2"
NEITHER = "Neither"


class CoverageError(RuntimeError):
    """Sumset layers stabilized (or hit MAX_LAYERS) without covering the group."""


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
        num = (1 + 2 * n) * (3 + 2 * n + 2 * n * n)
        if num % 3:
            raise VerificationError(f"#B_3 numerator {num} is not divisible by 3")
        return num // 3
    raise ValueError(f"Lee ball size only supported up to radius {MAX_BALL_RADIUS}")


@dataclass(frozen=True)
class SumsetLayers:
    """Cumulative layer masks C_0 .. C_T with their growth summary.

    ``covered`` is True when the last layer is all of F_q x F_q;
    ``limit_index`` is then its index t (None otherwise).  The critical
    index compares layer sizes against Z^n Lee ball sizes, so it is
    meaningful for p >= 2t + 1.
    """
    generator: GeneratorSet
    masks: tuple  # tuple of np.bool_ arrays, index = layer
    sizes: tuple
    critical_index: int
    limit_index: int
    covered: bool
    stabilized: bool

    @property
    def n(self) -> int:
        return self.generator.n

    def to_json_dict(self) -> dict:
        return {
            "family": self.generator.family,
            "context": (self.generator.ext or self.generator.base).to_json_dict(),
            "n": self.n,
            "layer_sizes": list(self.sizes),
            "critical_index": self.critical_index,
            "limit_index": self.limit_index,
            "covered": self.covered,
        }


def _sumset_support(mask: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """The mask of C + H, from the mask of C and h_hat = fftn(1_H)."""
    conv = np.fft.ifftn(np.fft.fftn(mask.reshape(h_hat.shape)) * h_hat).real.ravel()
    counts = np.rint(conv)
    worst = float(np.abs(conv - counts).max())
    if worst > INTEGRALITY_TOL:
        raise VerificationError(
            f"a sumset convolution value lies {worst:.3g} from an integer")
    return counts > 0


def cumulative_layers(gen: GeneratorSet) -> SumsetLayers:
    """Grow C_0 .. C_t until the group is covered, growth stops, or
    t = MAX_LAYERS.

    Always computes at least 3 layers so the critical index can be
    evaluated even when coverage happens early.
    """
    size = gen.ambient_size
    h_hat = gen.indicator_fft()

    mask = np.zeros(size, dtype=bool)
    mask[0] = True
    masks = [mask]
    sizes = [1]
    stabilized = False
    t = 0
    while t < MAX_LAYERS:
        prev = masks[-1]
        nxt = prev | _sumset_support(prev, h_hat)
        t += 1
        masks.append(nxt)
        sizes.append(int(nxt.sum()))
        if sizes[-1] == sizes[-2]:
            stabilized = True
        done = sizes[-1] == size or stabilized
        if done and t >= MAX_BALL_RADIUS:
            break

    covered = sizes[-1] == size
    limit = None
    if covered:
        limit = next(i for i, s in enumerate(sizes) if s == size)
    critical = max(t for t in range(min(len(sizes) - 1, MAX_BALL_RADIUS) + 1)
                   if sizes[t] == lee_ball_size(gen.n, t))
    return SumsetLayers(gen, tuple(masks), tuple(sizes), critical, limit,
                        covered, stabilized)


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


def classify(gen: GeneratorSet) -> Classification:
    """Decide Perfect2 / QuasiPerfect2 / Neither from the layer growth.

    Perfect2:      #C_2 = #B_2 = q^2 (radius-2 spheres tile the group).
    QuasiPerfect2: #B_2 < q^2 < #B_3, #C_2 = #B_2, and C_3 = G.
    Requires p >= 5 so the radius-2 ball formula counts Z_p^n words.
    """
    if gen.p < 5:
        raise ValueError("classification requires p >= 5")
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
