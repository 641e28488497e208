"""The battery's array enumerations and the character-sum count tables
against the scalar oracles."""

import time
import tracemalloc

import numpy as np
import oracles
import pytest

from quasilee.fields import (CharacterSumValue, QuadExt, SizeCapError,
                             VerificationError, chunk_rows, gauss_counts,
                             gauss_quadratic_sum, kloosterman,
                             kloosterman_counts, make_field)
from quasilee.lemmas import (MAX_LEMMA_VERTICES, abscissa_grid, cubic_counts,
                             lemma_battery, shifted_sum_masks)


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
        seen, image = shifted_sum_masks(ext, members, ws, norms)
        for i, w in enumerate(ws):
            assert np.flatnonzero(seen[i]).tolist() == \
                sorted(oracles.shifted_circle_sum(ext, circle, w))
            assert np.flatnonzero(image[i]).tolist() == \
                sorted(oracles.shifted_norm_image(ext, circle, w))


# the broadcast tables are the battery's calls; each row is compared with
# the per-x oracle and, folded, with the scalar sum it is one row of
@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (3, 3)])
def test_gauss_count_rows_match_scalar(p, k):
    ctx = make_field(p, k)
    x = np.arange(ctx.q)
    rows = gauss_counts(ctx, x[1:, None], x)
    assert rows.shape == (ctx.q - 1, ctx.q, p)
    for c in range(1, ctx.q):
        for a in range(ctx.q):
            assert rows[c - 1, a].tolist() == oracles.gauss_counts(ctx, c, a)
            assert CharacterSumValue.from_counts(p, rows[c - 1, a]) == \
                gauss_quadratic_sum(ctx, c, a)
    assert gauss_counts(ctx, 1, 0).shape == (p,)


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
            assert CharacterSumValue.from_counts(p, rows[a - 1, b - 1]).re == \
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


def test_failing_fact_is_reported_not_raised(monkeypatch):
    # a wrong cubic count fails its own check and leaves the rest passing
    monkeypatch.setattr("quasilee.lemmas.cubic_counts",
                        lambda ctx: np.full(ctx.q, ctx.q + 1 + 2 * ctx.q))
    checks = {c.name: c for c in lemma_battery(13)}
    assert [n for n, c in checks.items() if not c.passed] == ["cubic_point_bounds"]
    assert checks["cubic_point_bounds"].detail.startswith("VerificationError: t=0:")


def test_failing_spectrum_fails_both_spectral_checks(monkeypatch):
    # the circle's spectrum is shared by two checks and built inside them,
    # so a raise fails each of them and leaves the rest passing
    def broken(gen):
        raise VerificationError("spectrum not real")
    monkeypatch.setattr("quasilee.lemmas.full_spectrum", broken)
    checks = {c.name: c for c in lemma_battery(13)}
    failed = [n for n, c in checks.items() if not c.passed]
    assert failed == ["circle_eigenvalue_identity", "spectral_bounds"]
    for name in failed:
        assert checks[name].detail == "VerificationError: spectrum not real"


@pytest.mark.parametrize("p", [359, 1021])
def test_battery_gates_itself_before_allocating(p):
    # both pass the ambient gate; the battery's q^3 arrays would not fit.
    # The library refuses with the message the CLI prints.
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError,
                           match=rf"^q\^2 = {p * p} exceeds cap {MAX_LEMMA_VERTICES}$"):
            lemma_battery(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 1 << 20
