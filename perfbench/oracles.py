"""Computations made apart from the program, that its outputs are checked against.

Nothing here imports ``quasilee``.  Vectors of the additive group
F_q x F_q are handled as coefficient vectors in Z_p^{2k}: the first k
entries are the coordinates of x over F_p, the last k those of y.  For a
prime field (k = 1) this is just the pair (x, y).
"""

import numpy as np


def lee_ball_sizes(n: int) -> list:
    """#B_0, #B_1, #B_2 of Z^n in the Lee metric: 1, 2n+1, 2n^2+2n+1."""
    return [1, 2 * n + 1, 2 * n * n + 2 * n + 1]


def smallest_nonresidue(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def prime_circle(p: int) -> np.ndarray:
    """All (x, y) in F_p^2 with x^2 - delta*y^2 = 1, delta a nonresidue."""
    delta = smallest_nonresidue(p)
    x, y = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    on = (x * x - delta * y * y - 1) % p == 0
    return np.stack([x[on], y[on]], axis=1)


def prime_hyperbola(p: int) -> np.ndarray:
    """All (x, 1/x) for x in F_p^*."""
    x = np.arange(1, p)
    inv = np.array([pow(int(v), p - 2, p) for v in x])
    return np.stack([x, inv], axis=1)


def prime_generators(p: int, family: str) -> np.ndarray:
    return prime_circle(p) if family == "plus" else prime_hyperbola(p)


def symmetric_closure(reps: np.ndarray, p: int) -> np.ndarray:
    """H = reps union -reps, as rows of Z_p^{2k}."""
    return np.concatenate([reps % p, (-reps) % p])


def generator_faults(h: np.ndarray, p: int, size: int) -> list:
    """Why h is not a symmetric, zero-free set of ``size`` distinct vectors."""
    faults = []
    keys = _index(h, p)
    if len(h) != size:
        faults.append(f"|H| = {len(h)}, expected {size}")
    if len(np.unique(keys)) != len(keys):
        faults.append("H has repeated elements")
    if (keys == 0).any():
        faults.append("H contains zero")
    if not np.array_equal(np.sort(keys), np.sort(_index((-h) % p, p))):
        faults.append("H is not closed under negation")
    return faults


def representatives(h: np.ndarray, p: int) -> np.ndarray:
    """One element of each {v, -v} pair of h (the one of smaller index),
    in ascending index order."""
    keys = _index(h, p)
    keep = keys < _index((-h) % p, p)
    order = np.argsort(keys[keep])
    return h[keep][order]


def _index(v: np.ndarray, p: int) -> np.ndarray:
    return (v % p) @ (p ** np.arange(v.shape[1], dtype=np.int64))


def _row_echelon(m: np.ndarray, p: int):
    """Reduced row echelon form over F_p and its pivot columns."""
    m = np.array(m, dtype=np.int64) % p
    pivots = []
    row = 0
    for col in range(m.shape[1]):
        if row == m.shape[0]:
            break
        nz = np.flatnonzero(m[row:, col])
        if not len(nz):
            continue
        r = row + nz[0]
        m[[row, r]] = m[[r, row]]
        m[row] = m[row] * pow(int(m[row, col]), p - 2, p) % p
        others = np.arange(m.shape[0]) != row
        m[others] = (m[others] - np.outer(m[others, col], m[row])) % p
        pivots.append(col)
        row += 1
    return m[:row], pivots


def rank_mod_p(m: np.ndarray, p: int) -> int:
    return len(_row_echelon(m, p)[1])


def null_space_mod_p(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of {c : m c = 0 mod p}, one basis vector per row."""
    rref, pivots = _row_echelon(m, p)
    n = m.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = -rref[r, f] % p
    return basis


def syndromes(m: np.ndarray, words: np.ndarray, p: int) -> np.ndarray:
    """M c mod p for every row c of ``words``."""
    return (words @ m.T) % p


def lee_weights(words: np.ndarray, p: int) -> np.ndarray:
    w = words % p
    return np.minimum(w, p - w).sum(axis=-1)


def sample_ball2(rng: np.random.Generator, count: int, n: int, p: int) -> np.ndarray:
    """``count`` errors drawn uniformly from the Lee ball of radius 2 in Z_p^n
    (p >= 5), entries in [0, p)."""
    sizes = lee_ball_sizes(n)
    r = rng.integers(0, sizes[2], size=count)
    err = np.zeros((count, n), dtype=np.int64)
    rows = np.arange(count)
    single = (r >= 1) & (r < 1 + 4 * n)        # one entry of +-1 or +-2
    s = r[single] - 1
    err[rows[single], s % n] = np.array([1, -1, 2, -2])[s // n]
    double = r >= 1 + 4 * n                     # two entries of +-1 each
    d = r[double] - 1 - 4 * n                   # in [0, 4 * C(n, 2))
    signs, pair = d % 4, d // 4
    i, j = _pair_from_rank(pair, n)
    err[rows[double], i] = np.where(signs % 2, -1, 1)
    err[rows[double], j] = np.where(signs // 2, -1, 1)
    return err % p


def _pair_from_rank(rank: np.ndarray, n: int):
    """The rank-th pair i < j of range(n), pairs in row-major order."""
    starts = np.cumsum([0] + [n - 1 - i for i in range(n - 1)])
    i = np.searchsorted(starts, rank, side="right") - 1
    j = i + 1 + (rank - starts[i])
    return i, j


def cayley_eigenvalues(h: np.ndarray, p: int) -> np.ndarray:
    """All eigenvalues of Cay(Z_p^{2k}, H): the Fourier transform of the
    indicator of H over Z_p^{2k}.  Real because H = -H."""
    dims = h.shape[1]
    ind = np.zeros((p,) * dims)
    ind[tuple((h % p).T)] = 1.0
    f = np.fft.fftn(ind).ravel()
    if np.abs(f.imag).max() > 1e-6:
        raise ArithmeticError("Fourier transform of a symmetric set is not real")
    return f.real
