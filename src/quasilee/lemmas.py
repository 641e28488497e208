"""Brute-force verification battery for the counting facts behind the codes.

Every closed-form count, membership predicate, bound and identity that the
construction relies on is checked here by direct enumeration over a chosen
ground field: norm fiber sizes, abscissa sets of norm fibers, norm images
of shifted double sums, double- and triple-sum sizes and coverage for both
families, the membership predicates for hyperbola double and triple sums,
point counts of the certifying projective cubic, the quadratic Gauss sum
closed form, Kloosterman bounds, the eigenvalue-Kloosterman identity for
the norm-one circle, mod-12 residue rules, and the spectral bounds.

Each enumeration is a numpy computation that still visits every term, in
``fields.chunks`` of rows of about q entries, so no q^3 array is held:
the Gauss table by (c, a), the Kloosterman table by (a, b) and the
triple sums C_2 + H by member of C_2.  The cubic counts solve the cubic
for t at each point (x, y), so they take q^2 work, a chunk of points at
a time.  The shifted double sums H + H*w are taken once per norm
class: once H is certified, by brute force, as the whole norm-one fiber
(q + 1 points) closed under its (q + 1)^2 products, H*(u*w) = H*w for u
in H, so the least w of each norm stands for its fiber w*H.  The sums
are broadcast additions, not the FFT layers of ``sumsets``, so the
battery stays independent of the code it certifies.  The tests compare each enumeration
with the scalar oracles of ``tests/oracles.py``, and every shift with the
least shift of its norm.

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
from .fields import (SUM_TOL, VERTEX_CAP, CharacterSumValue, QuadExt,
                     VerificationError, check_ambient, chunks,
                     gauss_closed_form, gauss_counts, index_mask,
                     kloosterman_counts, make_field, minus3_character,
                     pair_add, residue_class_mod12, unity_cos_sin)
from .spectra import full_spectrum


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
    """Mask over the q^2 indices of the sumset a + b of two index arrays, a
    chunk of ``a`` at a time.  The addition is that of F_q x F_q, which is
    also the addition of F_{q^2}, so it serves both families."""
    mask = np.zeros(ext.size, dtype=bool)
    for rows in chunks(a, len(b)):
        mask[pair_add(ext.base, rows[:, None], b)] = True
    return mask


def shifted_sum_masks(ext: QuadExt, members, ws, norms):
    """The shifted double sums H + H*w and their norm images.

    ``members`` is H as an index array, ``ws`` the shifts and ``norms``
    the norm of every index of F_{q^2}.  Returns boolean masks of shape
    (len(ws), q^2), row i marking every z1 + z2*ws[i] over (z1, z2) in
    H x H, and (len(ws), q), row i marking their norms.
    """
    ws = np.asarray(ws)
    rows = np.arange(len(ws))[:, None, None]
    scaled = ext.mul(ws[:, None], members[None, :])
    sums = pair_add(ext.base, members[None, :, None], scaled[:, None, :])
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
    (x + y + t) * (x*y - x - y) + x*y = 0.  t enters linearly, so a point
    with D = x*y - x - y != 0 lies on the one curve t = -(x + y) - x*y/D;
    a point with D = 0 lies on a curve only if x*y = 0 too, that is at
    (0, 0), which lies on all of them.  So the counts are 4 plus one
    bincount of that t over the points, a chunk of points at a time.
    """
    q = ctx.q
    counts = np.full(q, 4)
    for pts in chunks(np.arange(q * q), 1):
        x, y = pts // q, pts % q
        xy, s = ctx.mul(x, y), ctx.add(x, y)
        d = ctx.add(xy, ctx.neg(s))
        on = d != 0
        t = ctx.neg(ctx.add(s[on], ctx.mul(xy[on], ctx.inv(d[on]))))
        counts += np.bincount(t, minlength=q)
    return counts


def lemma_battery(p: int, k: int) -> list:
    """Run every check over F_{p^k}; returns a list of LemmaCheck.  Refuses
    q^2 above VERTEX_CAP (SizeCapError), a cap on its q^3 work, before
    building anything."""
    check_ambient(p, k, VERTEX_CAP)
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
    # row b-1 counts K(1, b), folded exactly as ``kloosterman`` does
    k1_counts = kloosterman_counts(ctx, 1, x[1:])
    k1 = [CharacterSumValue.from_counts(p, row) for row in k1_counts]

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
        for rows in chunks(np.arange(q, q * q), q):
            c, a = rows // q, rows % q
            counts = gauss_counts(ctx, c, a)
            re, im = counts @ cos, counts @ sin
            closed = gauss_closed_form(ctx, c, a)
            bad = _first(~((np.abs(re - closed.real) <= SUM_TOL)
                           & (np.abs(im - closed.imag) <= SUM_TOL)))
            if bad is not None:
                raise VerificationError(
                    f"Gauss sum at (c, a) = ({c[bad]}, {a[bad]}) disagrees with "
                    f"the closed form: {complex(re[bad], im[bad])} vs {closed[bad]}")
        return f"{(q - 1) * q} sums match the closed form within {SUM_TOL}"
    _run(results, "gauss_closed_form", gauss)

    def kloost():
        bound = 2.0 * math.sqrt(q)
        for b, v in enumerate(k1, start=1):
            if not abs(v.im) <= SUM_TOL:
                raise VerificationError(f"K(1, {b}) is not real: im={v.im}")
            if not abs(v.re) <= bound + SUM_TOL:
                raise VerificationError(f"|K(1, {b})| = {abs(v.re)} > 2*sqrt(q)")
        # substitution x -> x/a shows the sum depends only on a*b: the
        # exponent counts of K(a, b) are those of K(1, ab)
        for rows in chunks(np.arange((q - 1) ** 2), q - 1):
            a, b = 1 + rows // (q - 1), 1 + rows % (q - 1)
            ab = ctx.mul(a, b)
            bad = _first((kloosterman_counts(ctx, a, b) != k1_counts[ab - 1]).any(1))
            if bad is not None:
                raise VerificationError(
                    f"K({a[bad]}, {b[bad]}) counts differ from K(1, {ab[bad]})")
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
        want = np.where(ctx.quad_character(x) == 1, (q + 3) // 2, (q + 1) // 2)
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
        # the least w of each norm stands for its fiber w*H once H is
        # certified; off the circle its double-sum size is checked too
        if not (np.array_equal(on_circle, norms == 1) and on_circle.sum() == q + 1
                and on_circle[ext.mul(ones[:, None], ones)].all()):
            raise VerificationError("H is not the norm-one fiber, closed under products")
        for ws in chunks(1 + np.unique(norms[1:], return_index=True)[1],
                         (q + 1) ** 2):
            seen, image = shifted_sum_masks(ext, ones, ws, norms)
            n_sums, n_norms = seen.sum(axis=1), image.sum(axis=1)
            square = ctx.quad_character(norms[ws]) == 1
            want = np.where(square, (q + 1) * (q + 3) // 2, (q + 1) ** 2 // 2)
            bad = _first((n_norms != np.where(square, (q + 3) // 2, (q + 1) // 2))
                         | (~on_circle[ws] & (n_sums != want)))
            if bad is not None:
                raise VerificationError(f"w={ws[bad]}: {n_norms[bad]} norms, "
                                        f"double sum size {n_sums[bad]}")
            expect = eta_m3 == -1 or p == 3
            if ws[0] == 1 and image[0, 1] != expect:
                raise VerificationError(f"1 in I_1 is {image[0, 1]}, expected {expect}")
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
        return f"#(H+H) = {size}, off-generator part {rest} (-3 character {eta_m3})"
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
            z = np.flatnonzero(h2[1:]) + 1
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
        return f"H+H+H with 0 misses {q * q - covered} points (q = {q} <= 11)"
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
        # the class of a character is its norm
        worst = float(np.max(np.abs(rep.class_eigenvalues[1:] + [v.re for v in k1])))
        if not worst <= SUM_TOL:
            raise VerificationError(f"worst deviation {worst}")
        return f"eigenvalue(alpha) = -K(1, norm(alpha)); worst deviation {worst:.2e}"
    _run(results, "circle_eigenvalue_identity", eig_identity)

    def spectral():
        plus = circle_spectrum()
        minus = full_spectrum(hyper)
        if not plus.max_nontrivial_abs <= 2 * math.sqrt(q) + SUM_TOL:
            raise VerificationError("norm-one circle graph must meet the Ramanujan bound")
        if not plus.connected:
            raise VerificationError("norm-one circle graph must be connected")
        if not minus.max_nontrivial_abs <= 2 * math.sqrt(q) + SUM_TOL:
            raise VerificationError("hyperbola graph must stay within 2*sqrt(q)")
        if minus.connected != (q > 3):
            raise VerificationError("hyperbola connectivity by field size")
        return (f"plus max |lambda| {plus.max_nontrivial_abs:.6f} "
                f"({plus.classification}), minus {minus.max_nontrivial_abs:.6f} "
                f"({minus.classification}); bound 2*sqrt(q) = {2 * math.sqrt(q):.6f}")
    _run(results, "spectral_bounds", spectral)

    return results
