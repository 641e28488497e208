"""The battery's array enumerations against the scalar oracles."""

import numpy as np
import pytest

from quasilee.curves import (circle_abscissas, norm_circle,
                             projective_cubic_count, shifted_circle_sum,
                             shifted_norm_image)
from quasilee.fields import (CharacterSumValue, QuadExt, gauss_quadratic_sum,
                             kloosterman, make_field)
from quasilee.lemmas import (SHIFT_CHUNK, abscissa_grid, cubic_counts,
                             gauss_count_rows, kloosterman_count_rows,
                             lemma_battery, shifted_sum_masks)


# every shift is compared, except at 5^2, where the scalar oracle needs
# about 20 s for all 624 shifts; there every 12th shift is
@pytest.mark.parametrize("p,k,stride", [(5, 1, 1), (7, 1, 1), (13, 1, 1),
                                        (3, 2, 1), (5, 2, 12)])
def test_shifted_sum_masks_match_scalar(p, k, stride):
    ext = QuadExt(make_field(p, k))
    members = np.array(norm_circle(ext).members)
    norms = ext.norm_array(np.arange(ext.size))
    shifts = list(range(1, ext.size, stride))
    for start in range(0, len(shifts), SHIFT_CHUNK):
        ws = shifts[start:start + SHIFT_CHUNK]
        seen, image = shifted_sum_masks(ext, members, ws, norms)
        for i, w in enumerate(ws):
            assert np.flatnonzero(seen[i]).tolist() == \
                sorted(shifted_circle_sum(ext, w))
            assert np.flatnonzero(image[i]).tolist() == \
                sorted(shifted_norm_image(ext, w))


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (3, 3)])
def test_gauss_count_rows_match_scalar(p, k):
    ctx = make_field(p, k)
    rows = gauss_count_rows(ctx)
    assert rows.shape == (ctx.q - 1, ctx.q, p)
    for c in range(1, ctx.q):
        for a in range(ctx.q):
            assert tuple(rows[c - 1, a].tolist()) == \
                gauss_quadratic_sum(ctx, c, a).counts


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (3, 3)])
def test_kloosterman_count_rows_match_scalar(p, k):
    ctx = make_field(p, k)
    rows = kloosterman_count_rows(ctx)
    assert rows.shape == (ctx.q - 1, ctx.q - 1, p)
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            # the same fold as the scalar sum, so the floats agree exactly
            assert CharacterSumValue.from_counts(p, rows[a - 1, b - 1]).re == \
                kloosterman(ctx, a, b)


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2), (5, 2)])
def test_abscissa_grid_matches_scalar(p, k):
    ctx = make_field(p, k)
    grid = abscissa_grid(ctx)
    for c in range(1, ctx.q):
        assert set(np.flatnonzero(grid[c]).tolist()) == circle_abscissas(ctx, c)


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2)])
def test_cubic_counts_match_scalar(p, k):
    ctx = make_field(p, k)
    counts = cubic_counts(ctx)
    for t in range(ctx.q):
        if t != ctx.neg(1):
            assert counts[t] == projective_cubic_count(ctx, t)


def test_failing_fact_is_reported_not_raised(monkeypatch):
    # a wrong cubic count fails its own check and leaves the rest passing
    monkeypatch.setattr("quasilee.lemmas.cubic_counts",
                        lambda ctx: np.full(ctx.q, ctx.q + 1 + 2 * ctx.q))
    checks = {c.name: c for c in lemma_battery(13)}
    assert [n for n, c in checks.items() if not c.passed] == ["cubic_point_bounds"]
    assert checks["cubic_point_bounds"].detail.startswith("VerificationError: t=0:")
