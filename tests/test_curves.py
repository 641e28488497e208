"""Generator families, point counts and admissibility."""

import pytest

from quasilee.codes import rank_mod_p
from quasilee.curves import (GeneratorSet, admissibility, circle_abscissas,
                             from_representatives, generator_set, norm_circle,
                             projective_cubic_count, shifted_circle_sum,
                             shifted_norm_image, unit_hyperbola)
from quasilee.fields import QuadExt, make_field, pair_index, pair_neg, pair_split


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (3, 2), (11, 1)])
def test_norm_circle_structure(p, k):
    ctx = make_field(p, k)
    ext = QuadExt(ctx)
    gen = norm_circle(ext)
    assert gen.degree == ctx.q + 1
    assert gen.n == (ctx.q + 1) // 2
    assert all(ext.norm(z) == 1 for z in gen.members)
    assert 0 not in gen.members
    assert {pair_neg(ctx, z) for z in gen.members} == set(gen.members)
    # reps pick exactly one of each +-pair, in ascending index order
    assert list(gen.reps) == sorted(gen.reps)
    covered = set(gen.reps) | {pair_neg(ctx, z) for z in gen.reps}
    assert covered == set(gen.members)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (3, 2), (23, 1)])
def test_unit_hyperbola_structure(p, k):
    ctx = make_field(p, k)
    gen = unit_hyperbola(ctx)
    assert gen.degree == ctx.q - 1
    assert gen.n == (ctx.q - 1) // 2
    for z in gen.members:
        x, y = pair_split(ctx, z)
        assert x != 0 and ctx.mul(x, y) == 1
    assert {pair_neg(ctx, z) for z in gen.members} == set(gen.members)


def test_frozen_p13_plus_representatives():
    gen = generator_set(make_field(13), "plus")
    assert [pair_split(gen.base, z) for z in gen.reps] == \
        [(1, 0), (4, 1), (9, 1), (3, 2), (10, 2), (5, 5), (8, 5)]
    assert gen.ext.delta == 2


def test_frozen_p23_minus_representatives():
    gen = generator_set(make_field(23), "minus")
    assert {pair_split(gen.base, z) for z in gen.members} == \
        {(x, pow(x, -1, 23)) for x in range(1, 23)}


def test_generator_set_rank_spans_ambient():
    for p, k, family in ((13, 1, "plus"), (23, 1, "minus"), (3, 2, "plus"),
                         (5, 1, "plus"), (7, 1, "minus")):
        gen = generator_set(make_field(p, k), family)
        mat = gen.coordinate_matrix()
        assert mat.shape == (2 * k, gen.n)
        assert rank_mod_p(mat, p) == 2 * k
    # the q = 3 hyperbola is the lone degenerate case: it spans a line
    gen3 = generator_set(make_field(3), "minus")
    assert rank_mod_p(gen3.coordinate_matrix(), 3) == 1


def test_generator_set_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generator_set(make_field(5), "circle")


def test_from_representatives_preserves_order():
    ctx = make_field(13)
    original = generator_set(ctx, "plus")
    shuffled = list(original.reps)[::-1]
    rebuilt = from_representatives(ctx, "plus", shuffled)
    assert list(rebuilt.reps) == shuffled
    assert set(rebuilt.members) == set(original.members)


def test_from_representatives_validation():
    ctx = make_field(13)
    with pytest.raises(ValueError, match="zero"):
        from_representatives(ctx, "plus", [0, 5])
    with pytest.raises(ValueError, match="collide"):
        from_representatives(ctx, "minus",
                             [pair_index(ctx, 2, 3), pair_index(ctx, 11, 10)])


# -- point counts -----------------------------------------------------------

@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2)])
def test_circle_abscissa_sizes(p, k):
    ctx = make_field(p, k)
    q = ctx.q
    for c in range(1, q):
        want = (q + 3) // 2 if ctx.quad_character(c) == 1 else (q + 1) // 2
        assert len(circle_abscissas(ctx, c)) == want
    with pytest.raises(ValueError):
        circle_abscissas(ctx, 0)


def test_shifted_norm_image_frozen():
    ext5 = QuadExt(make_field(5))
    i1 = shifted_norm_image(ext5, 1)
    assert len(i1) == 4 and 1 in i1          # -3 is a nonsquare in F_5
    ext13 = QuadExt(make_field(13))
    j1 = shifted_norm_image(ext13, 1)
    assert len(j1) == 8 and 1 not in j1      # -3 is a square in F_13
    with pytest.raises(ValueError):
        shifted_norm_image(ext5, 0)


def test_shifted_circle_sum_sizes():
    ext = QuadExt(make_field(7))
    q = 7
    circle = set(norm_circle(ext).members)
    for w in range(1, q * q):
        if w in circle:
            continue
        got = len(shifted_circle_sum(ext, w))
        if ext.base.quad_character(ext.norm(w)) == 1:
            assert got == (q + 1) * (q + 3) // 2
        else:
            assert got == (q + 1) ** 2 // 2


def test_projective_cubic_counts_frozen_q13():
    ctx = make_field(13)
    counts = [projective_cubic_count(ctx, t) for t in range(12)]
    assert counts == [13, 12, 18, 12, 13, 18, 12, 18, 12, 12, 12, 18]
    with pytest.raises(ValueError, match="reducible"):
        projective_cubic_count(ctx, 12)     # t = -1


def test_projective_cubic_count_infinity_points():
    # the three points at infinity are always present: count >= 3
    ctx = make_field(5)
    for t in range(5):
        if t == 4:
            continue
        assert projective_cubic_count(ctx, t) >= 3


# -- admissibility ----------------------------------------------------------

def test_admissibility_decisions():
    cases = [
        (13, 1, "plus", True),    # -3 square (13 = 1 mod 12)
        (7, 1, "plus", True),     # -3 square (7 mod 12)
        (5, 1, "plus", False),    # -3 nonsquare
        (5, 2, "plus", True),     # k even forces -3 square
        (23, 1, "minus", True),   # -3 nonsquare, q > 12
        (5, 1, "minus", False),   # q = 5 <= 12
        (11, 1, "minus", False),  # q = 11 <= 12
        (13, 1, "minus", False),  # -3 square
        (17, 1, "minus", True),   # 17 = 5 mod 12, q > 12
        (7, 2, "minus", False),   # k even: -3 square
    ]
    for p, k, family, want in cases:
        rep = admissibility(p, k, family)
        assert rep.admissible is want, (p, k, family)
        assert rep.q == p ** k


def test_admissibility_reasons():
    assert "q = 5 <= 12" in admissibility(5, 1, "minus").reason
    assert "nonsquare" in admissibility(5, 1, "plus").reason
    with pytest.raises(ValueError, match="p must be at least 5"):
        admissibility(3, 1, "plus")
    with pytest.raises(ValueError, match="unknown family"):
        admissibility(13, 1, "both")


def test_admissibility_json_shape():
    d = admissibility(13, 1, "plus").to_json_dict()
    assert d["admissible"] is True
    assert set(d) == {"family", "p", "k", "q", "minus3_class",
                      "admissible", "reason"}
