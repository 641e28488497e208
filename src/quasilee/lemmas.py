"""Brute-force verification battery for the counting facts behind the codes.

Every closed-form count, membership predicate, bound and identity that the
construction relies on is checked here by direct enumeration over a chosen
ground field: norm fiber sizes, abscissa sets of norm fibers, norm images
of shifted double sums, double- and triple-sum sizes and coverage for both
families, the membership predicates for hyperbola double and triple sums,
point counts of the certifying projective cubic, the quadratic Gauss sum
closed form, Kloosterman bounds, the eigenvalue-Kloosterman identity for
the norm-one circle, mod-12 residue rules, and the spectral bounds.

Each enumeration is a numpy computation over index arrays that still
visits every term: the (q+1)^2 sums z1 + z2*w for every shift w != 0
(SHIFT_CHUNK shifts at a time), all q^3 terms of the Gauss and
Kloosterman sums, and the q x q grid for the abscissa and hyperbola
predicates and the cubic counts.  The double and triple sums are
broadcast additions, not the FFT layers of ``sumsets``, so the battery
stays independent of the code it certifies.  The Gauss and Kloosterman
tables come from ``fields.gauss_counts``/``kloosterman_counts``.  The
tests compare these enumerations with the scalar oracles of the same
names and ``shifted_circle_sum``, ``shifted_norm_image``,
``circle_abscissas`` and ``projective_cubic_count`` of ``tests/oracles.py``.

``lemma_battery(p, k)`` returns one ``LemmaCheck`` per fact; a check never
raises, it reports failure with the offending detail instead.  Inside a
check a failing fact raises VerificationError, so no check depends on
``assert``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import norm_circle, unit_hyperbola
from .fields import (CharacterSumValue, QuadExt, VerificationError,
                     check_ambient, gauss_closed_form, gauss_counts,
                     index_mask, kloosterman_counts, make_field,
                     minus3_character, pair_add, residue_class_mod12,
                     unity_cos_sin)
from .spectra import BOUND_TOL, full_spectrum

IDENTITY_TOL = 1e-9
# lemma-suite's stage limit on q^2.  The battery's largest arrays hold about
# q^3 int64 entries: the arguments of kloosterman_counts, (q - 1)^3, and the
# triple sums C_2 + H of _sum_mask, (q + 1)^3 / 2, with their temporaries.
# Its traced peak is 5.0 to 5.4 such arrays (p = 23 to 131), so 48 q^3 bytes
# bounds it; q^2 is admitted while that stays within 2 GiB (q <= 355).
MAX_LEMMA_VERTICES = int((2 ** 31 / 48) ** (2 / 3))
# shifts per shifted_sum_masks call; larger chunks raise peak memory
SHIFT_CHUNK = 16


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _run(results, name, fn):
    try:
        detail = fn()
        results.append(LemmaCheck(name, True, detail))
    except Exception as exc:  # noqa: BLE001 - battery must report, not crash
        results.append(LemmaCheck(name, False, f"{type(exc).__name__}: {exc}"))


def _first(bad):
    """Index tuple of the first True entry of a boolean array, or None."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


def _sum_mask(ext: QuadExt, a, b):
    """Mask over the q^2 indices of the sumset a + b of two index arrays.

    The addition is that of F_q x F_q, which is also the addition of
    F_{q^2}, so it serves both families.
    """
    return index_mask(ext.size, pair_add(ext.base, a[:, None], b[None, :]))


def shifted_sum_masks(ext: QuadExt, members, ws, norms):
    """The shifted double sums H + H*w and their norm images.

    ``members`` is H as an index array, ``ws`` the shifts and ``norms``
    the norm of every index of F_{q^2}.  Returns boolean masks of shape
    (len(ws), q^2), row i marking every z1 + z2*ws[i] over (z1, z2) in
    H x H, and (len(ws), q), row i marking their norms.
    """
    ws = np.asarray(ws)
    rows = np.arange(len(ws))[:, None]
    scaled = ext.mul(ws[:, None], members[None, :])
    sums = pair_add(ext.base, members[None, :, None], scaled[:, None, :])
    sums = sums.reshape(len(ws), -1)
    seen = np.zeros((len(ws), ext.size), dtype=bool)
    seen[rows, sums] = True
    image = np.zeros((len(ws), ext.q), dtype=bool)
    image[rows, norms[sums]] = True
    return seen, image


def abscissa_grid(ctx):
    """The abscissa predicate of every circle over the q x q grid.

    Entry [c, x] is True when x**2 = c or x**2 - c is a nonsquare; for
    c != 0 row c is the set ``circle_abscissas(ctx, c)``.
    """
    x = np.arange(ctx.q)
    d = ctx.add(ctx.mul(x, x), ctx.neg(x)[:, None])
    return (d == 0) | (ctx.quad_character(d) == -1)


def cubic_counts(ctx):
    """Point counts of the certifying projective cubic for every t.

    Entry t is ``projective_cubic_count(ctx, t)`` for t != -1: the three
    points at infinity plus the (x, y) of the q x q grid with
    (x + y + t) * (x*y - x - y) + x*y = 0.
    """
    x = np.arange(ctx.q)
    xy = ctx.mul(x[:, None], x)
    s = ctx.add(x[:, None], x)
    rest = ctx.add(xy, ctx.neg(s))
    val = ctx.add(ctx.mul(ctx.add(s, x[:, None, None]), rest), xy)
    return 3 + (val == 0).sum(axis=(1, 2))


def lemma_battery(p: int, k: int = 1) -> list:
    """Run every check over F_{p^k}; returns a list of LemmaCheck.  Refuses
    q^2 above MAX_LEMMA_VERTICES (SizeCapError) before building anything."""
    check_ambient(p, k, MAX_LEMMA_VERTICES)
    ctx = make_field(p, k)
    q = ctx.q
    ext = QuadExt(ctx)
    circle = norm_circle(ext)
    hyper = unit_hyperbola(ctx)
    eta_m3 = minus3_character(ctx)
    x = np.arange(q)

    norms = ext.norm(np.arange(q * q))
    ones = np.array(circle.members)
    units = np.array(hyper.members)
    on_circle, on_hyper = index_mask(q * q, ones), index_mask(q * q, units)
    c2 = _sum_mask(ext, ones, ones)
    c3 = _sum_mask(ext, np.flatnonzero(c2), ones)
    h2 = _sum_mask(ext, units, units)
    h3 = _sum_mask(ext, np.flatnonzero(h2), units)
    # entry [a-1, b-1] counts K(a, b); K(1, c) is folded one row at a time
    # exactly as ``kloosterman`` does
    k_counts = kloosterman_counts(ctx, x[1:, None], x[1:])
    k1 = [CharacterSumValue.from_counts(p, row) for row in k_counts[0]]

    # built once, at its first use; a raise fails each check that uses it
    circle_spectrum = functools.cache(lambda: full_spectrum(circle))

    results = []

    if p > 3:
        def reciprocity():
            r = residue_class_mod12(p)
            return (f"p={p} (mod 12: {r.p_mod_12}): -1 square={r.minus1_square}, "
                    f"3 square={r.three_square}, -3 square={r.minus3_square}")
        _run(results, "reciprocity_mod12", reciprocity)

    def gauss():
        cos, sin = unity_cos_sin(p)
        # entry [c-1, a] is the sum at (c, a)
        counts = gauss_counts(ctx, x[1:, None], x)
        re, im = counts @ cos, counts @ sin
        closed = gauss_closed_form(ctx, x[1:, None], x)
        bad = _first(~((np.abs(re - closed.real) <= IDENTITY_TOL)
                       & (np.abs(im - closed.imag) <= IDENTITY_TOL)))
        if bad is not None:
            raise VerificationError(
                f"Gauss sum at (c, a) = ({bad[0] + 1}, {bad[1]}) disagrees with "
                f"the closed form: {complex(re[bad], im[bad])} vs {closed[bad]}")
        return f"{(q - 1) * q} sums match the closed form within {IDENTITY_TOL}"
    _run(results, "gauss_closed_form", gauss)

    def kloost():
        bound = 2.0 * math.sqrt(q)
        for b, v in enumerate(k1, start=1):
            if not abs(v.im) <= IDENTITY_TOL:
                raise VerificationError(f"K(1, {b}) is not real: im={v.im}")
            if not abs(v.re) <= bound + IDENTITY_TOL:
                raise VerificationError(f"|K(1, {b})| = {abs(v.re)} > 2*sqrt(q)")
        # substitution x -> x/a shows the sum depends only on a*b: the
        # exponent counts of K(a, b) are those of K(1, ab)
        ab = ctx.mul(x[1:, None], x[1:])
        bad = _first((k_counts != k_counts[0][ab - 1]).any(axis=2))
        if bad is not None:
            a, b = bad[0] + 1, bad[1] + 1
            raise VerificationError(f"K({a}, {b}) counts differ from K(1, {ab[bad]})")
        worst = max(abs(v.re) for v in k1)
        return f"max |K| = {worst:.6f} <= 2*sqrt(q) = {bound:.6f}"
    _run(results, "kloosterman_bound", kloost)

    def fibers():
        sizes = np.bincount(norms, minlength=q)
        bad = _first(sizes[1:] != q + 1)
        if bad is not None:
            c = bad[0] + 1
            raise VerificationError(f"fiber over {c} has {sizes[c]} points")
        return f"all {q - 1} nonzero norm fibers have exactly q+1 = {q + 1} points"
    _run(results, "norm_fiber_count", fibers)

    def abscissas():
        got = abscissa_grid(ctx)
        proj = np.zeros((q, q), dtype=bool)
        proj[norms, np.arange(q * q) % q] = True
        differs = (got != proj).any(axis=1)
        sizes = got.sum(axis=1)
        want = np.where(ctx.quad_character(np.arange(q)) == 1,
                        (q + 3) // 2, (q + 1) // 2)
        bad = _first((differs | (sizes != want))[1:])
        if bad is not None:
            c = bad[0] + 1
            if differs[c]:
                raise VerificationError(
                    f"abscissa predicate differs from projection at c={c}")
            raise VerificationError(f"c={c}: {sizes[c]} abscissas, expected {want[c]}")
        return "abscissa sets equal fiber projections with the two predicted sizes"
    _run(results, "circle_abscissas", abscissas)

    def shifted_sums():
        # one pass over all w != 0 serves both the norm-image counts and,
        # for w outside the circle, the double-sum sizes
        for start in range(1, q * q, SHIFT_CHUNK):
            ws = np.arange(start, min(start + SHIFT_CHUNK, q * q))
            seen, image = shifted_sum_masks(ext, ones, ws, norms)
            n_sums, n_norms = seen.sum(axis=1), image.sum(axis=1)
            square = ctx.quad_character(norms[ws]) == 1
            bad_norms = n_norms != np.where(square, (q + 3) // 2, (q + 1) // 2)
            want = np.where(square, (q + 1) * (q + 3) // 2, (q + 1) ** 2 // 2)
            bad_sums = ~on_circle[ws] & (n_sums != want)
            for i in np.flatnonzero(bad_norms | bad_sums | (ws == 1)):
                w = int(ws[i])
                if bad_norms[i]:
                    raise VerificationError(f"w={w}: {n_norms[i]} norms")
                if w == 1:
                    has_one = bool(image[i, 1])
                    expect = eta_m3 == -1 or p == 3
                    if has_one != expect:
                        raise VerificationError(
                            f"1 in I_1 is {has_one}, expected {expect}")
                if bad_sums[i]:
                    raise VerificationError(f"w={w}: double sum size {n_sums[i]}")
        return "norm-image and double-sum cardinalities match for every shift"
    _run(results, "shifted_double_sums", shifted_sums)

    def circle_square():
        size = int(c2.sum())
        if size != 1 + (q + 1) ** 2 // 2:
            raise VerificationError(f"#(H+H) = {size}")
        off = c2 & ~on_circle
        off[0] = False
        rest = int(off.sum())
        if eta_m3 == 1:
            want = (q + 1) ** 2 // 2
        else:  # -3 a nonsquare, or p = 3
            want = (q - 1) * (q + 1) // 2
        if rest != want:
            raise VerificationError(f"double sum minus generators: {rest} vs {want}")
        return (f"#(H+H) = {size}, off-generator part {rest} "
                f"(-3 character {eta_m3})")
    _run(results, "circle_double_sum_size", circle_square)

    def circle_triple():
        if not c3[1:].all():
            raise VerificationError("triple sum plus zero must cover the plane")
        return f"H+H+H together with 0 covers all {q * q} points"
    _run(results, "circle_triple_covers", circle_triple)

    def hyper_pair():
        a, b = np.arange(q)[:, None], np.arange(q)
        member = h2[a + q * b]
        t = ctx.mul(a, b)
        minus1 = ctx.neg(1)
        s = ctx.add(ctx.mul(t, ctx.inv(ctx.embed(2))), minus1)
        disc = ctx.add(ctx.mul(s, s), minus1)
        differs = member != ((t != 0) & (ctx.quad_character(disc) >= 0))
        differs[0, 0] = False
        bad = _first(differs)
        if bad is not None:
            raise VerificationError(f"(a,b)=({bad[0]},{bad[1]}): membership {member[bad]}")
        return "membership in H+H matches the discriminant predicate everywhere"
    _run(results, "hyperbola_pair_predicate", hyper_pair)

    if p > 3:
        def hyper_products():
            z = np.flatnonzero(h2)
            z = z[z != 0]
            found = int(np.count_nonzero(np.bincount(ctx.mul(z % q, z // q))))
            if found != (q - 1) // 2:
                raise VerificationError(f"{found} products")
            return f"#{{ab}} over the double sum = {(q - 1) // 2}"
        _run(results, "hyperbola_product_count", hyper_products)

    def hyper_square():
        size = int(h2.sum())
        if size != 1 + (q - 1) ** 2 // 2:
            raise VerificationError(f"#(H+H) = {size}")
        if not h2[0]:
            raise VerificationError("0 = (1,1) + (-1,-1) must lie in the double sum")
        overlap = h2[units]
        if eta_m3 == -1:
            if overlap.any():
                raise VerificationError("generators must avoid their double sum")
            rest_want = (q - 1) ** 2 // 2
        else:  # -3 a square, or p = 3
            if not overlap.all():
                raise VerificationError("double sum must absorb generators")
            rest_want = (q - 1) ** 2 // 2 - (q - 1)
        off = h2 & ~on_hyper
        off[0] = False
        rest = int(off.sum())
        if rest != rest_want:
            raise VerificationError(f"off-generator part {rest} vs {rest_want}")
        return f"#(H+H) = {size}, generator overlap {'full' if overlap.any() else 'empty'}"
    _run(results, "hyperbola_double_sum_size", hyper_square)

    def hyper_triple():
        covered = int(h3[1:].sum()) + 1
        if q >= 13:
            if covered != q * q:
                raise VerificationError("triple sum plus zero must cover for q >= 13")
            return f"H+H+H with 0 covers all {q * q} points (q = {q} >= 13)"
        if covered == q * q:
            raise VerificationError("triple sum plus zero must be proper for q <= 11")
        return (f"H+H+H with 0 misses {q * q - covered} points "
                f"(q = {q} <= 11)")
    _run(results, "hyperbola_triple_coverage", hyper_triple)

    def hyper_scaling():
        # membership reduction (a,b) -> (ab, 1) for b != 0
        a, b = np.arange(q)[:, None], np.arange(1, q)
        bad = _first(h3[a + q * b] != h3[ctx.mul(a, b) + q])
        if bad is not None:
            raise VerificationError(
                f"scaling reduction fails at ({bad[0]},{bad[1] + 1})")
        return "triple-sum membership is invariant under (a,b) -> (ab,1)"
    _run(results, "hyperbola_scaling_reduction", hyper_scaling)

    def cubic():
        bound = 2.0 * math.sqrt(q)
        counts = cubic_counts(ctx).tolist()
        minus1 = ctx.neg(1)
        for t in range(q):
            if t == minus1:
                continue
            cnt = counts[t]
            if abs(cnt - (q + 1)) > bound:
                raise VerificationError(f"t={t}: count {cnt} off bound")
            if q >= 13 and cnt - 6 <= 0:
                raise VerificationError(f"t={t}: count {cnt} not above 6")
            # off-degenerate affine points certify (-t, 1) in the triple sum
            degenerate = {(0, 0), (0, ctx.neg(t)), (ctx.neg(t), 0)}
            affine = cnt - 3 - len(degenerate)
            if (affine > 0) != h3[ctx.neg(t) + q]:
                raise VerificationError(f"t={t}: certificate mismatch")
        return f"all {q - 1} counts within the Hasse-Weil window around q+1 = {q + 1}"
    _run(results, "cubic_point_bounds", cubic)

    def eig_identity():
        rep = circle_spectrum()
        kl = np.array([0.0] + [v.re for v in k1])
        worst = float(np.max(np.abs(rep.eigenvalues[1:] + kl[norms[1:]])))
        if not worst <= IDENTITY_TOL:
            raise VerificationError(f"worst deviation {worst}")
        return f"eigenvalue(alpha) = -K(1, norm(alpha)); worst deviation {worst:.2e}"
    _run(results, "circle_eigenvalue_identity", eig_identity)

    def spectral():
        plus = circle_spectrum()
        minus = full_spectrum(hyper)
        if not plus.max_nontrivial_abs <= 2 * math.sqrt(q) + BOUND_TOL:
            raise VerificationError("norm-one circle graph must meet the Ramanujan bound")
        if not plus.connected:
            raise VerificationError("norm-one circle graph must be connected")
        if not minus.max_nontrivial_abs <= 2 * math.sqrt(q) + BOUND_TOL:
            raise VerificationError("hyperbola graph must stay within 2*sqrt(q)")
        if minus.connected != (q > 3):
            raise VerificationError("hyperbola connectivity by field size")
        return (f"plus max |lambda| {plus.max_nontrivial_abs:.6f} "
                f"({plus.classification}), minus {minus.max_nontrivial_abs:.6f} "
                f"({minus.classification}); bound 2*sqrt(q) = {2 * math.sqrt(q):.6f}")
    _run(results, "spectral_bounds", spectral)

    return results
