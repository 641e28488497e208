"""The battery's array enumerations and the character-sum count tables
against the scalar oracles."""

import time
import tracemalloc

import dataclasses

import numpy as np
import oracles
import pytest

from quasilee import curves, fields, lemmas
from quasilee.fields import (SUM_TOL, VERTEX_CAP, QuadExt, SizeCapError,
                             VerificationError, chunk_rows, fold_counts,
                             gauss_closed_form, kloosterman,
                             kloosterman_counts, make_field, unity_cos_sin)
from quasilee.lemmas import (abscissa_grid, cubic_counts, gauss_rows,
                             kloosterman_rows, lemma_battery,
                             shifted_sum_counts)

# the fields of the route-against-oracle tests: primes and extensions
ROUTE_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3)]
# the battery's transforms sum q terms in float64; against the exact
# counts, folded, they may differ by rounding only
TRANSFORM_TOL = 1e-12


def _folded(p, counts):
    """The complex character sums of an array of exponent counts."""
    cos, sin = unity_cos_sin(p)
    return counts @ cos + 1j * (counts @ sin)


# every shift w is compared; the oracle circle is found once
@pytest.mark.parametrize("p,k,stride", [(5, 1, 1), (7, 1, 1), (13, 1, 1),
                                        (3, 2, 1), (5, 2, 1)])
def test_shifted_sum_masks_match_scalar(p, k, stride):
    ext = QuadExt(make_field(p, k))
    circle = oracles.circle(ext)
    members = np.array(circle)
    norms = ext.norm(np.arange(ext.size))
    shifts = list(range(1, ext.size, stride))
    chunk = chunk_rows((ext.q + 1) ** 2)
    for start in range(0, len(shifts), chunk):
        ws = shifts[start:start + chunk]
        seen, image = oracles.shifted_sum_masks(ext, members, ws, norms)
        for i, w in enumerate(ws):
            assert np.flatnonzero(seen[i]).tolist() == \
                sorted(oracles.shifted_circle_sum(ext, circle, w))
            assert np.flatnonzero(image[i]).tolist() == \
                sorted(oracles.shifted_norm_image(ext, circle, w))


# the reference route of shifted_double_sums: every shift w != 0, not one
# per norm class, and each must give what the least shift of its norm gives
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_every_shift_matches_the_least_shift_of_its_norm(p, k):
    ext = QuadExt(make_field(p, k))
    members = np.array(curves.norm_circle(ext).members)
    norms = ext.norm(np.arange(ext.size))
    ws = np.arange(1, ext.size)
    seen, image = oracles.shifted_sum_masks(ext, members, ws, norms)
    values, first = np.unique(norms[1:], return_index=True)
    assert values.tolist() == list(range(1, ext.q)) and first[0] == 0  # w = 1
    least = first[norms[ws] - 1]
    for got in (seen.sum(axis=1), image.sum(axis=1), image[:, 1]):
        assert np.array_equal(got, got[least])


def test_unclosed_circle_fails_the_class_route(monkeypatch):
    # the norm-2 fiber has q + 1 points and is symmetric, but its products
    # have norm 4, so one shift per norm class may not stand for the rest
    def fiber(ext):
        gen = curves.norm_circle(ext)
        two = np.flatnonzero(ext.norm(np.arange(ext.size)) == 2)
        return dataclasses.replace(gen, members=two)
    monkeypatch.setattr(lemmas, "norm_circle", fiber)
    checks = {c.name: c for c in lemma_battery(13, 1)}
    assert not checks["shifted_double_sums"].passed
    assert checks["shifted_double_sums"].detail == (
        "VerificationError: H is not the norm-one fiber, closed under products")


# the norm-orbit count of every shift w != 0, not only the least of its
# norm, against the sums enumerated over H x H
@pytest.mark.parametrize("p,k", ROUTE_FIELDS)
def test_shifted_sum_counts_match_the_masks(p, k):
    ext = QuadExt(make_field(p, k))
    members = np.array(curves.norm_circle(ext).members)
    norms = ext.norm(np.arange(ext.size))
    ws = np.arange(1, ext.size)
    seen, image = oracles.shifted_sum_masks(ext, members, ws, norms)
    sizes, got = shifted_sum_counts(ext, members, ws, norms)
    assert np.array_equal(sizes, seen.sum(axis=1))
    assert np.array_equal(got, image)


# every row of the two transforms against the exact count tables, folded
@pytest.mark.parametrize("p,k", ROUTE_FIELDS)
def test_gauss_rows_match_the_count_table(p, k):
    ctx = make_field(p, k)
    x = np.arange(ctx.q)
    want = _folded(p, oracles.gauss_count_table(ctx, x[1:, None], x))
    assert np.abs(gauss_rows(ctx, x[1:]) - want).max() <= TRANSFORM_TOL


@pytest.mark.parametrize("p,k", ROUTE_FIELDS)
def test_kloosterman_rows_match_the_count_table(p, k):
    ctx = make_field(p, k)
    rows = kloosterman_rows(ctx, np.arange(1, ctx.q))
    want = _folded(p, oracles.kloosterman_count_table(ctx))
    assert np.abs(rows[:, 1:] - want.T).max() <= TRANSFORM_TOL
    # K(0, b) sums every nontrivial character once
    assert np.abs(rows[:, 0] + 1).max() <= TRANSFORM_TOL


# the q^3 count tables are checked against the per-x oracles and, folded,
# with the closed form or the scalar sum
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (3, 3)])
def test_gauss_count_rows_match_scalar(p, k):
    ctx = make_field(p, k)
    x = np.arange(ctx.q)
    rows = oracles.gauss_count_table(ctx, x[1:, None], x)
    assert rows.shape == (ctx.q - 1, ctx.q, p)
    for c in range(1, ctx.q):
        for a in range(ctx.q):
            assert rows[c - 1, a].tolist() == oracles.gauss_counts(ctx, c, a)
            v = fold_counts(p, rows[c - 1, a])
            closed = gauss_closed_form(ctx, c, a)
            assert abs(v.real - closed.real) <= SUM_TOL
            assert abs(v.imag - closed.imag) <= SUM_TOL
    assert oracles.gauss_count_table(ctx, 1, 0).shape == (p,)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (3, 3)])
def test_kloosterman_count_rows_match_scalar(p, k):
    ctx = make_field(p, k)
    units = np.arange(1, ctx.q)
    rows = kloosterman_counts(ctx, units[:, None], units)
    assert rows.shape == (ctx.q - 1, ctx.q - 1, p)
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            assert rows[a - 1, b - 1].tolist() == oracles.kloosterman_counts(ctx, a, b)
            # the same fold as the scalar sum, so the floats agree exactly
            assert fold_counts(p, rows[a - 1, b - 1]).real == \
                kloosterman(ctx, a, b)
    assert kloosterman_counts(ctx, 1, 1).shape == (p,)


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2), (5, 2)])
def test_abscissa_grid_matches_scalar(p, k):
    ctx = make_field(p, k)
    grid = abscissa_grid(ctx)
    for c in range(1, ctx.q):
        assert set(np.flatnonzero(grid[c]).tolist()) == oracles.circle_abscissas(ctx, c)


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2)])
def test_cubic_counts_match_scalar(p, k):
    ctx = make_field(p, k)
    counts = cubic_counts(ctx)
    for t in range(ctx.q):
        if t != ctx.neg(1):
            assert counts[t] == oracles.projective_cubic_count(ctx, t)


@pytest.mark.parametrize("p,k", [(13, 1), (23, 1), (5, 2), (3, 3), (7, 2), (101, 1)])
def test_cubic_counts_match_the_cubic_enumeration(p, k):
    # solved for t per point against the equation tested at every (t, x, y)
    ctx = make_field(p, k)
    assert np.array_equal(cubic_counts(ctx), oracles.cubic_counts_by_t(ctx))


def test_failing_fact_is_reported_not_raised(monkeypatch):
    # a wrong cubic count fails its own check and leaves the rest passing
    monkeypatch.setattr("quasilee.lemmas.cubic_counts",
                        lambda ctx: np.full(ctx.q, ctx.q + 1 + 2 * ctx.q))
    checks = {c.name: c for c in lemma_battery(13, 1)}
    assert [n for n, c in checks.items() if not c.passed] == ["cubic_point_bounds"]
    assert checks["cubic_point_bounds"].detail.startswith("VerificationError: t=0:")


def test_failing_spectrum_fails_both_spectral_checks(monkeypatch):
    # the circle's spectrum is shared by two checks and built inside them,
    # so a raise fails each of them and leaves the rest passing
    def broken(gen):
        raise VerificationError("spectrum not real")
    monkeypatch.setattr("quasilee.lemmas.full_spectrum", broken)
    checks = {c.name: c for c in lemma_battery(13, 1)}
    failed = [n for n, c in checks.items() if not c.passed]
    assert failed == ["circle_eigenvalue_identity", "spectral_bounds"]
    for name in failed:
        assert checks[name].detail == "VerificationError: spectrum not real"


@pytest.mark.parametrize("p", [1031, 8191])
def test_battery_gates_itself_before_allocating(p):
    # both pass the ambient gate; VERTEX_CAP bounds the battery's q^3 work.
    # The library refuses with the message the CLI prints.
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError,
                           match=rf"^q\^2 = {p * p} exceeds cap {VERTEX_CAP}$"):
            lemma_battery(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 1 << 20


def test_battery_memory_is_bounded_by_the_chunks():
    # every q^3 enumeration is chunked, so at p = 97 (q^3 = 912 673) the
    # battery holds q^2-sized arrays and chunks, never a q^3 one
    tracemalloc.start()
    try:
        checks = lemma_battery(97, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 8 << 20


def _counted(monkeypatch, name, rows_of, seen):
    """Wrap lemmas.<name> so that every call adds the rows it sees to
    ``seen[name]``, as a list of tuples."""
    kernel = getattr(lemmas, name)

    def counting(*args):
        rows = rows_of(*args)
        if rows is not None:
            seen.setdefault(name, []).extend(map(tuple, rows.tolist()))
        return kernel(*args)
    monkeypatch.setattr(lemmas, name, counting)


@pytest.mark.parametrize("entries", [None, 1])
def test_battery_chunks_see_every_row_once(monkeypatch, entries):
    # the battery prints only failures, so a skipped or repeated row could
    # leave stdout alone; count the rows that each chunked loop's kernel
    # sees, and the rows of every chunk loop, at one row a chunk and at the
    # default budget
    if entries is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
    p = q = 13
    ext = QuadExt(make_field(p))
    norms = ext.norm(np.arange(ext.size))
    circle = np.array(curves.norm_circle(ext).members)
    hyper = np.array(curves.unit_hyperbola(ext.base).members)
    c2, h2 = lemmas._sum_mask(ext, circle, circle), lemmas._sum_mask(ext, hyper, hyper)
    seen = {}

    def column(rows):
        return np.asarray(rows)[:, None]
    _counted(monkeypatch, "gauss_rows", lambda ctx, c: column(c), seen)
    _counted(monkeypatch, "kloosterman_rows", lambda ctx, b: column(b), seen)
    _counted(monkeypatch, "kloosterman_counts", lambda ctx, a, b: column(b), seen)
    _counted(monkeypatch, "shifted_sum_counts",
             lambda ext, members, ws, norms: column(ws), seen)
    # _sum_mask adds a chunk of its left operand as a column
    _counted(monkeypatch, "pair_add",
             lambda ctx, a, b: a if np.ndim(a) == 2 and a.shape[1] == 1 else None,
             seen)
    loops = []
    chunks = fields.chunks

    def recording(items, width):
        got = []
        loops.append((np.array(items), got))
        for rows in chunks(items, width):
            assert len(rows) <= fields.chunk_rows(width)
            got.append(np.array(rows))
            yield rows
        got.append(None)  # the loop ran to its end
    monkeypatch.setattr(lemmas, "chunks", recording)

    checks = lemma_battery(p, 1)
    assert all(c.passed for c in checks)
    for items, got in loops:
        assert got[-1] is None
        assert np.array_equal(np.concatenate(got[:-1]), items)
    # one transform per Gauss row c and per Kloosterman row b, the K(1, b)
    # counts once; one shift per nonzero norm
    units = [(u,) for u in range(1, q)]
    for name in ("gauss_rows", "kloosterman_rows", "kloosterman_counts"):
        assert sorted(seen[name]) == units
    assert sorted(norms[[w for (w,) in seen["shifted_sum_counts"]]].tolist()) == \
        list(range(1, q))
    # the sum masks: H + H and C_2 + H of both families, each member of
    # the left operand once
    sums = sorted(w for (w,) in seen["pair_add"])
    assert sums == sorted(circle.tolist() + np.flatnonzero(c2).tolist()
                          + hyper.tolist() + np.flatnonzero(h2).tolist())
    # and every chunk loop: the seven above and the cubic's points
    assert sorted(len(items) for items, _ in loops) == sorted(
        [len(circle), int(c2.sum()), len(hyper), int(h2.sum()), q - 1,
         q - 1, q - 1, q * q])


def test_table_checks_enumerate_at_most_4_q_squared(monkeypatch):
    # the Gauss, Kloosterman and shifted-sum checks each walk one chunk loop
    # of q - 1 rows of about q entries: 3 q^2 at most, where their tables
    # enumerated q^3.  Each loop's rows x width is charged to the check
    # that runs it
    p = q = 97
    running, work = [None], {}
    run, chunks = lemmas._run, lemmas.chunks

    def tracking(results, name, fn):
        running[0] = name
        try:
            run(results, name, fn)
        finally:
            running[0] = None

    def charged(items, width):
        work[running[0]] = work.get(running[0], 0) + len(items) * width
        return chunks(items, width)
    monkeypatch.setattr(lemmas, "_run", tracking)
    monkeypatch.setattr(lemmas, "chunks", charged)
    assert all(c.passed for c in lemma_battery(p, 1))
    three = [work.get(name, 0) for name in
             ("gauss_closed_form", "kloosterman_bound", "shifted_double_sums")]
    assert all(three)
    assert sum(three) <= 4 * q * q
