"""Exact eigenvalues of the Cayley graphs built on the generator sets.

The graphs are abelian Cayley graphs on G = F_q x F_q, so the characters
of G diagonalize the adjacency operator: for a character indexed by
alpha, the eigenvalue is a sum of 2n p-th roots of unity whose exponents
are integer pairings <alpha, beta> over the members beta of H.  The
pairing depends on the family:

* plus:  <alpha, beta> = trace_to_prime(2 * xpart(alpha * beta)) in the
  quadratic extension (the additive character composed with the trace
  z + conj(z) = 2 * xpart(z) down to F_q);
* minus: <(a, b), (x, y)> = trace(a*x + b*y) componentwise.

``full_spectrum`` computes the spectrum by two routes and checks one
against the other.  The tests also check it against a pairing summed one
member at a time and a dense eigensolver, both in ``tests/oracles.py``.

* Exact counts by classes.  The exponent counts of alpha depend only on
  its class under ``curves.curve_classes``, giving the eigenvalues
  -K(1, norm(alpha)) for plus and K(1, a*b) off the axes for minus.  They
  are counted once per class representative by ``fields.trace_counts``,
  the kernel that counts every character sum, and the float eigenvalue is
  their fold through cos(2*pi*j/p), so the real-ness and bound checks run
  on exactly counted data.  Only a generator set that is exactly its
  curve has these classes; any other is refused.
* The Fourier transform.  G is Z_p^{2k} and both pairings are linear in
  the digits of beta, so the eigenvalue at alpha is fftn(1_H) read at a
  linearly reindexed character: its digits are trace(c * e_i) over the
  power basis e_i, with c = 2*a_x and 2*delta*a_y for plus and c = a, b
  for minus.  ``_pairing_coefficients`` gives the factors 2 and 2*delta
  (1 and 1 for minus) to both routes.

For the plus family every nontrivial eigenvalue obeys the Ramanujan bound
2*sqrt(q) = 2*sqrt(degree - 1); the minus family obeys the slightly
weaker bound 2*sqrt(q) = 2*sqrt(degree + 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import PLUS, GeneratorSet, curve_classes
from .fields import (SUM_TOL, VERTEX_CAP, VerificationError, check_ambient,
                     index_pack, trace_counts, unity_cos_sin)

# largest allowed distance between a class eigenvalue and the FFT of 1_H
FFT_TOL = 1e-6
# count rows are folded through cos in blocks of this many rows (see _fold)
_FOLD_ROWS = 16

RAMANUJAN = "Ramanujan"
ALMOST_RAMANUJAN = "AlmostRamanujan"
NEITHER_BOUND = "Neither"


@dataclass(frozen=True)
class SpectrumReport:
    generator: GeneratorSet
    eigenvalues: np.ndarray   # float64, index = character alpha
    class_counts: np.ndarray  # int64, shape (classes, p): exact counts per class
    class_index: np.ndarray   # int32, index = character alpha: its class
    max_nontrivial_abs: float
    ramanujan_bound: float
    almost_bound: float
    classification: str
    connected: bool

    @property
    def degree(self) -> int:
        return self.generator.degree

    def histogram(self) -> dict:
        """Multiplicities of the eigenvalues rounded to nearest 1e-6."""
        vals, cnts = np.unique(np.round(self.eigenvalues, 6), return_counts=True)
        return {float(v): int(c) for v, c in zip(vals, cnts)}

    def to_json_dict(self) -> dict:
        return {
            "family": self.generator.family,
            "context": (self.generator.ext or self.generator.base).to_json_dict(),
            "degree": self.degree,
            "vertices": self.generator.ambient_size,
            "max_nontrivial_abs": self.max_nontrivial_abs,
            "ramanujan_bound": self.ramanujan_bound,
            "almost_ramanujan_bound": self.almost_bound,
            "classification": self.classification,
            "connected": self.connected,
            "histogram": {f"{v:.6f}": c for v, c in sorted(self.histogram().items())},
        }


def _pairing_coefficients(gen: GeneratorSet) -> tuple:
    """(cx, cy) with <alpha, beta> = trace(cx*ax*bx + cy*ay*by): (2, 2*delta)
    for plus, (1, 1) for minus."""
    if gen.family == PLUS:
        return 2, gen.base.mul(2, gen.ext.delta)
    return 1, 1


def _pairing_arguments(gen: GeneratorSet, alphas: np.ndarray) -> np.ndarray:
    """arg[i, j] in F_q with trace(arg[i, j]) = <alphas[i], members[j]>, as
    one (len(alphas), |H|) array."""
    ctx, q = gen.base, gen.q
    cx, cy = _pairing_coefficients(gen)
    beta = np.asarray(gen.members, dtype=np.int64)
    ax, ay = (alphas % q)[:, None], (alphas // q)[:, None]
    return ctx.add(ctx.mul(ax, ctx.mul(cx, beta % q)),
                   ctx.mul(ay, ctx.mul(cy, beta // q)))


def _character_index(gen: GeneratorSet) -> np.ndarray:
    """For every alpha, the flat index into ``gen.indicator_fft()`` of the
    character alpha pairs by: digit i of a coordinate a is trace(c*a*e_i),
    e_i = p**i the power basis, c the coordinate's coefficient in the
    pairing."""
    ctx = gen.base
    q, p, k = ctx.q, ctx.p, ctx.k
    cx, cy = _pairing_coefficients(gen)
    elems = np.arange(q)

    def digits(c):
        return index_pack([ctx.trace_table[ctx.mul(elems, ctx.mul(c, p ** i))]
                           for i in range(k)], p)

    alpha = np.arange(q * q)
    return digits(cx)[alpha % q] + q * digits(cy)[alpha // q]


def _fold(counts: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """counts @ cos, with zero rows padded on to a multiple of _FOLD_ROWS.

    The BLAS matrix-vector kernel works on blocks of rows and sums a
    leftover partial block in another order, which moves a few
    eigenvalues by some ulp.  With the padding every class row is summed
    the way the rows of the full (q^2, p) count matrix are, so each
    eigenvalue has the same bits as ``counts @ cos`` over all characters.
    """
    rows = -(-len(counts) // _FOLD_ROWS) * _FOLD_ROWS
    padded = np.zeros((rows, counts.shape[1]), dtype=counts.dtype)
    padded[:len(counts)] = counts
    return (padded @ cos)[:len(counts)]


def full_spectrum(gen: GeneratorSet) -> SpectrumReport:
    """All q^2 eigenvalues with exact counts, plus bound classification.

    Counts exponents once per class representative, in one (classes x |H|)
    array operation, then checks every eigenvalue against the FFT of 1_H
    and raises VerificationError on a mismatch.  Refuses q^2 above
    VERTEX_CAP (SizeCapError) and generator sets that are not their
    family's curve (ValueError), before allocating.
    """
    check_ambient(gen.p, gen.k, VERTEX_CAP)
    classes = curve_classes(gen)
    if classes is None:
        raise ValueError(f"the generator set is not the {gen.family} curve over "
                         f"F_{gen.q}; the class spectrum is exact only there")

    class_index = classes.of(np.arange(gen.ambient_size)).astype(np.int32)
    class_counts = trace_counts(gen.base, _pairing_arguments(gen, classes.reps))

    cos, sin = unity_cos_sin(gen.p)
    if np.abs(class_counts @ sin).max() > SUM_TOL:
        raise VerificationError("spectrum not real")
    eigs = _fold(class_counts, cos)[class_index]
    if abs(eigs[0] - gen.degree) > SUM_TOL:
        raise VerificationError("trivial eigenvalue wrong")
    fourier = gen.indicator_fft().ravel()[_character_index(gen)]
    worst = float(np.abs(fourier - eigs).max())
    if worst > FFT_TOL:
        raise VerificationError(
            f"class eigenvalues differ from the FFT of 1_H by up to {worst:.3g}")

    max_nt = float(np.abs(eigs[1:]).max())
    ram = 2.0 * math.sqrt(gen.degree - 1)
    almost = 2.0 * math.sqrt(gen.degree + 1)
    if max_nt <= ram + SUM_TOL:
        cls = RAMANUJAN
    elif max_nt <= almost + SUM_TOL:
        cls = ALMOST_RAMANUJAN
    else:
        cls = NEITHER_BOUND
    connected = not np.any(np.abs(eigs[1:] - gen.degree) <= SUM_TOL)
    return SpectrumReport(gen, eigs, class_counts, class_index, max_nt, ram,
                          almost, cls, connected)

