"""Brute-force verification battery for the counting facts behind the codes.

Every closed-form count, membership predicate, bound and identity that the
construction relies on is checked here over a chosen ground field, by
enumeration or by one transform a row: norm fiber sizes, abscissa sets of
norm fibers, norm images of shifted double sums, double- and triple-sum
sizes and coverage for both families, the membership predicates for
hyperbola double and triple sums, point counts of the certifying
projective cubic, the quadratic Gauss sum closed form, Kloosterman bounds,
the eigenvalue-Kloosterman identity for the norm-one circle, mod-12
residue rules, and the spectral bounds.

The set-up enumerates the double and triple sums of both families in
``fields.chunks`` of rows of about q entries, so no q^3 array is held;
the triple sums C_2 + H and H_2 + H are still q^3 work, and the battery's
work cap, ``VERTEX_CAP`` on q^2, is for them.  The checks take q^2 work:

* ``gauss_closed_form`` reads each row c of the Gauss sums G(c, a) off
  one inverse transform of x -> zeta_p**trace(c*x**2) over the digits of
  Z_p^k (``gauss_rows``), and ``kloosterman_bound`` each row b of the
  Kloosterman sums K(a, b) off one transform of x -> zeta_p**trace(b/x)
  (``kloosterman_rows``); ``fields.trace_roots`` gives the roots and
  ``fields.trace_dual`` turns trace(a*x) into a digit dot product.  They
  compare float values within ``SUM_TOL`` with the closed form and with
  K(1, ab), where the q^3 tables they replaced compared exact exponent
  counts.  K(1, b) itself is still folded from exact counts, by
  ``fields.fold_counts``, into one complex array.
* ``shifted_double_sums`` first certifies, by brute force, that H is the
  whole norm-one fiber (q + 1 points), closed under its (q + 1)^2
  products; then it counts each H + H*w = H*(1 + H*w) by the norm orbits
  of the q + 1 points of 1 + H*w (``shifted_sum_counts``), once per norm
  of w.
* the cubic counts solve the cubic for t at each point (x, y), a chunk
  of points at a time.

The sums are broadcast additions and the transforms numpy's FFT of one
row, not the FFT layers of ``sumsets``, so the battery stays independent
of the code it certifies.  The exact q^3 routes are oracles in
``tests/oracles.py`` (``gauss_count_table``, ``kloosterman_count_table``,
``shifted_sum_masks``); the tests compare each route of the battery with
its oracle, and with the scalar oracles there.

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
from .fields import (SUM_TOL, VERTEX_CAP, QuadExt, VerificationError,
                     check_ambient, chunks, fold_counts, gauss_closed_form,
                     index_mask, kloosterman_counts, make_field,
                     minus3_character, pair_add, residue_class_mod12,
                     trace_dual, trace_roots)
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


def _dual_transform(ctx, values):
    """Entry [r, a] is the sum over x in F_q of values[r, x] *
    zeta_p**trace(a*x), for every a: the unscaled inverse transform of
    each row over the digits of Z_p^k, read at ``trace_dual(ctx, 1)``,
    where trace(a*x) is a digit dot product."""
    p, k, q = ctx.p, ctx.k, ctx.q
    spectrum = np.fft.ifftn(values.reshape((len(values),) + (p,) * k),
                            axes=range(1, k + 1), norm="forward")
    return spectrum.reshape(len(values), q)[:, trace_dual(ctx, 1)]


def gauss_rows(ctx, c):
    """The quadratic Gauss sums G(c, a) = sum over x of
    zeta_p**trace(c*x**2 + a*x): row r holds them for c[r] at every a,
    by one transform of x -> zeta_p**trace(c[r]*x**2) (``trace_roots``)."""
    x = np.arange(ctx.q)
    return _dual_transform(ctx, trace_roots(ctx, ctx.mul(np.asarray(c)[:, None],
                                                         ctx.mul(x, x))))


def kloosterman_rows(ctx, b):
    """The Kloosterman sums K(a, b) = sum over x != 0 of
    zeta_p**trace(a*x + b/x): row r holds them for b[r] at every a
    (K(0, b) = -1 for b != 0), by one transform of x -> zeta_p**trace(b[r]/x),
    taken as 0 at x = 0 (``trace_roots``)."""
    values = np.zeros((len(b), ctx.q), dtype=complex)
    values[:, 1:] = trace_roots(ctx, ctx.mul(np.asarray(b)[:, None],
                                             ctx.inv(np.arange(1, ctx.q))))
    return _dual_transform(ctx, values)


def shifted_sum_counts(ext: QuadExt, members, ws, norms):
    """Sizes and norm images of the shifted double sums H + H*w.

    ``members`` is H, which must be the norm-one fiber and closed under
    products, ``ws`` the shifts and ``norms`` the norm of every index of
    F_{q^2}.  Then H + H*w = H*S_w with S_w = 1 + H*w, q + 1 points, and
    H*s is the whole norm fiber of each s != 0: #(H + H*w) is q + 1 times
    the number of nonzero norms on S_w, plus one if 0 is in S_w, and the
    norm image is the set of norms on S_w.  Returns the sizes, one per
    shift, and a boolean mask (len(ws), q), row i marking the norm image
    of ws[i].
    """
    ws = np.asarray(ws)
    shifted = pair_add(ext.base, 1, ext.mul(ws[:, None], members))
    image = np.zeros((len(ws), ext.q), dtype=bool)
    image[np.arange(len(ws))[:, None], norms[shifted]] = True
    return (ext.q + 1) * image[:, 1:].sum(axis=1) + image[:, 0], image


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
    ones, units = circle.members, hyper.members
    on_circle, on_hyper = index_mask(q * q, ones), index_mask(q * q, units)
    c2 = _sum_mask(ext, ones, ones)
    c3 = _sum_mask(ext, np.flatnonzero(c2), ones)
    h2 = _sum_mask(ext, units, units)
    h3 = _sum_mask(ext, np.flatnonzero(h2), units)
    # K(1, b) at index b-1, folded exactly as ``kloosterman`` does
    k1 = np.array([fold_counts(p, row)
                   for row in kloosterman_counts(ctx, 1, x[1:])])

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
        for c in chunks(x[1:], q):
            got = gauss_rows(ctx, c)
            closed = gauss_closed_form(ctx, c[:, None], x)
            bad = _first(~((np.abs(got.real - closed.real) <= SUM_TOL)
                           & (np.abs(got.imag - closed.imag) <= SUM_TOL)))
            if bad is not None:
                raise VerificationError(
                    f"Gauss sum at (c, a) = ({c[bad[0]]}, {bad[1]}) disagrees with "
                    f"the closed form: {got[bad]} vs {closed[bad]}")
        return f"{(q - 1) * q} sums match the closed form within {SUM_TOL}"
    _run(results, "gauss_closed_form", gauss)

    def kloost():
        bound = 2.0 * math.sqrt(q)
        for b, v in enumerate(k1.tolist(), start=1):
            if not abs(v.imag) <= SUM_TOL:
                raise VerificationError(f"K(1, {b}) is not real: im={v.imag}")
            if not abs(v.real) <= bound + SUM_TOL:
                raise VerificationError(f"|K(1, {b})| = {abs(v.real)} > 2*sqrt(q)")
        # substitution x -> x/a shows the sum depends only on a*b: every
        # K(a, b) must be K(1, ab)
        for b in chunks(x[1:], q):
            ab = ctx.mul(b[:, None], x[1:])
            off = np.abs(kloosterman_rows(ctx, b)[:, 1:] - k1.real[ab - 1])
            bad = _first(~(off <= SUM_TOL))
            if bad is not None:
                raise VerificationError(
                    f"K({bad[1] + 1}, {b[bad[0]]}) differs from K(1, {ab[bad]}) "
                    f"by {off[bad]:.3g}")
        worst = float(np.abs(k1.real).max())
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
        # once H is certified, H*w and so H + H*w depend only on the norm
        # of w: the least w of each norm stands for its fiber.  Off the
        # circle its double-sum size is checked too
        if not (np.array_equal(on_circle, norms == 1) and on_circle.sum() == q + 1
                and on_circle[ext.mul(ones[:, None], ones)].all()):
            raise VerificationError("H is not the norm-one fiber, closed under products")
        for ws in chunks(1 + np.unique(norms[1:], return_index=True)[1], q + 1):
            n_sums, image = shifted_sum_counts(ext, ones, ws, norms)
            n_norms = image.sum(axis=1)
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
        worst = float(np.max(np.abs(rep.class_eigenvalues[1:] + k1.real)))
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
