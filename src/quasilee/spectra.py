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

The exponent counts of alpha depend only on its class in
``GeneratorSet.classes``, so the spectrum is one eigenvalue per class
(q classes for plus, q + 2 for minus): -K(1, norm(alpha)) for plus and
K(1, a*b) off the axes for minus.  ``class_counts`` counts them a chunk
of class representatives at a time, each pairing a sum of logs, a gather,
an add and a gather of its trace, and the float eigenvalue is their fold
through cos(2*pi*j/p), so the real-ness and bound checks run on exactly
counted data.  Only a generator set that is exactly its curve has these
classes; any other is refused.

``full_spectrum`` checks the classes by two identities over all q^2
characters, summed over the classes weighted by their sizes #c: exactly,
sum_c #c * counts[c, j] = |H| * q^2 / p for every j (a nonzero beta pairs
to j with q^2 / p characters), and sum_c #c * lambda_c^2 = q^2 * |H|, the
trace of A^2.  Where q^2 <= VERTEX_CAP it also reads each eigenvalue off
the Fourier transform: G is Z_p^{2k} and both pairings are linear in the
digits of beta, so the eigenvalue at alpha is fftn(1_H) at a linearly
reindexed character, whose digits are trace(c * e_i) over the power basis
e_i, with c = 2*a_x and 2*delta*a_y for plus and c = a, b for minus.  1_H
is real and H = -H, so the transform is real and even: half of it, digit
0 <= p // 2, holds it, and each of its digit-0 columns stands alone.  The
check builds them a block of about max(CHUNK_ENTRIES, q^2 / p) real
entries at a time (``indicator_fft``) and compares each with the class of
its character and with that of the digitwise negated one.  So no q^2
array is held, and all q^2 characters are compared within ``SUM_TOL``,
the one tolerance of every eigenvalue check.  The tests check it against
the full fftn, a pairing summed per member and a dense eigensolver
(``tests/oracles.py``).

For the plus family every nontrivial eigenvalue obeys the Ramanujan bound
2*sqrt(q) = 2*sqrt(degree - 1); the minus family obeys the slightly
weaker bound 2*sqrt(q) = 2*sqrt(degree + 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import PLUS, GeneratorSet
from .fields import (SUM_TOL, VERTEX_CAP, VerificationError, chunks,
                     exponent_counts, index_neg, trace_dual, unity_cos_sin)

# count rows per fold through cos (see full_spectrum)
_FOLD_ROWS = 16

RAMANUJAN = "Ramanujan"
ALMOST_RAMANUJAN = "AlmostRamanujan"
NEITHER_BOUND = "Neither"


@dataclass(frozen=True)
class SpectrumReport:
    generator: GeneratorSet
    class_eigenvalues: np.ndarray  # float64, index = class of generator.classes
    max_nontrivial_abs: float
    ramanujan_bound: float
    almost_bound: float
    classification: str
    connected: bool

    @property
    def degree(self) -> int:
        return self.generator.degree

    def histogram(self) -> dict:
        """Multiplicities of the eigenvalues rounded to nearest 1e-6: the
        class sizes summed per rounded value."""
        vals, where = np.unique(np.round(self.class_eigenvalues, 6),
                                return_inverse=True)
        cnts = np.bincount(where, self.generator.classes.sizes)
        return {float(v): int(c) for v, c in zip(vals, cnts)}

    def to_json_dict(self) -> dict:
        return {
            "family": self.generator.family,
            "context": self.generator.context_json,
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


def class_counts(gen: GeneratorSet):
    """The exponent counts of the classes, one (rows, p) array per chunk of
    classes: entry [c, j] counts the members beta with <rep_c, beta> = j,
    the trace (``_trace_low``) of two widened products (``_wide_exp``)."""
    ctx, q, beta = gen.base, gen.q, gen.members
    cx, cy = _pairing_coefficients(gen)
    log, wide_exp, reps = ctx._log, ctx._wide_exp, gen.classes.reps
    bx, by = log[ctx.mul(cx, beta % q)], log[ctx.mul(cy, beta // q)]
    for logs in chunks(log[np.stack((reps % q, reps // q), 1)], len(beta)):
        sums = wide_exp[logs[:, :1] + bx]
        sums += wide_exp[logs[:, 1:] + by]
        yield exponent_counts(gen.p, ctx._trace_low[sums])


def _fourier_distance(gen: GeneratorSet, eigs: np.ndarray) -> float:
    """The largest distance of a class eigenvalue from the transform of 1_H
    at its characters.  Character (ax, ay) has Fourier index dx[ax] +
    q*dy[ay], dx = ``trace_dual`` of cx and dy that of cy.  A block of
    digit-0 columns of ``indicator_fft``, reshaped to (q, len(fx)), holds
    at row fy, column fx the character (ix[fx], iy[fy]), ix and iy the
    inverses of dx and dy, fx the x-indices whose digit 0 is in the block.
    The transform is real and even, so each value also belongs to the
    digitwise negated index, and those cover every index not held."""
    ctx, q, p, k, classes = gen.base, gen.q, gen.p, gen.k, gen.classes
    ix, iy = (np.argsort(trace_dual(ctx, c)) for c in _pairing_coefficients(gen))
    ys = (iy[:, None], iy[index_neg(np.arange(q), p, k), None])
    worst = 0.0
    for cols in chunks(range((p + 1) // 2), q * q // p):
        fx = (np.arange(q // p)[:, None] * p + np.arange(p)[cols]).ravel()
        got = gen.indicator_fft(cols).reshape(q, len(fx))
        for x, y in zip((ix[fx], ix[index_neg(fx, p, k)]), ys):
            worst = max(worst, float(np.abs(got - eigs[classes.of(x, y)]).max()))
    return worst


def full_spectrum(gen: GeneratorSet) -> SpectrumReport:
    """The eigenvalue of every class, from exact counts, with its bound
    classification.  Raises VerificationError when a check fails, the FFT
    check within ``SUM_TOL``; refuses a generator set that is not its
    family's curve (ValueError), and no size.  No array of q^2 entries is
    held; VERTEX_CAP bounds only the FFT check's O(q^2 log q) work."""
    if gen.classes is None:
        raise ValueError(f"the generator set is not the {gen.family} curve over "
                         f"F_{gen.q}; the class spectrum is exact only there")

    # count rows are folded through cos in whole blocks of _FOLD_ROWS, the
    # last one padded with zero rows: the BLAS matrix-vector kernel sums a
    # leftover partial block in another order, which would move a few
    # eigenvalues by some ulp.  So each row is summed as in the full (q^2, p)
    # count matrix, and every eigenvalue keeps its bits.
    cos, sin = unity_cos_sin(gen.p)
    sizes, weighted = gen.classes.sizes, np.zeros(gen.p, dtype=np.int64)
    folded, held, done = [], [], 0
    for counts in class_counts(gen):
        if np.abs(counts @ sin).max() > SUM_TOL:
            raise VerificationError("spectrum not real")
        weighted += sizes[done:done + len(counts)] @ counts
        done += len(counts)
        held.append(counts)
        if done - len(folded) >= _FOLD_ROWS:
            block = np.concatenate(held)
            whole = len(block) - len(block) % _FOLD_ROWS
            folded.extend(block[:whole] @ cos)
            held = [block[whole:]]
    last = np.concatenate(held + [np.zeros((_FOLD_ROWS, gen.p), dtype=np.int64)])
    eigs = np.array(folded + list(last[:_FOLD_ROWS] @ cos))[:done]

    total = gen.degree * gen.ambient_size
    if (weighted != total // gen.p).any():
        raise VerificationError("class counts fail the identity "
                                "sum_c #c * counts[c, j] = |H| * q^2 / p")
    if abs(eigs[0] - gen.degree) > SUM_TOL:
        raise VerificationError("trivial eigenvalue wrong")
    square_sum = float(sizes @ eigs ** 2)
    if abs(square_sum - total) > SUM_TOL * total:
        raise VerificationError(f"class eigenvalues fail the identity "
                                f"tr A^2 = q^2 * |H| = {total}: {square_sum!r}")
    if gen.ambient_size <= VERTEX_CAP:
        worst = _fourier_distance(gen, eigs)
        if worst > SUM_TOL:
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
    return SpectrumReport(gen, eigs, max_nt, ram, almost, cls, connected)
