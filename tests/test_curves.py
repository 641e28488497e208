"""Generator families, point counts and admissibility."""

import dataclasses

import numpy as np
import oracles
import pytest

from quasilee import curves, fields
from quasilee.codes import matrix_from_text, parity_check_matrix, rank_mod_p
from quasilee.curves import (GeneratorSet, admissibility, from_representatives,
                             generator_set, norm_circle, unit_hyperbola)
from quasilee.fields import (QuadExt, VerificationError, make_field, pair_index,
                             pair_neg)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (3, 2), (11, 1),
                                 (5, 2), (3, 3)])
def test_norm_circle_structure(p, k):
    ctx = make_field(p, k)
    ext = QuadExt(ctx)
    gen = norm_circle(ext)
    # the Cayley parametrization gives the norm scan's members exactly
    assert gen.members.tolist() == list(oracles.circle(ext))
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
        y, x = divmod(z, ctx.q)
        assert x != 0 and ctx.mul(x, y) == 1
    assert {pair_neg(ctx, z) for z in gen.members} == set(gen.members)


def oracle_class(gen, z):
    """The orbit label of z: the norm for plus; for minus a*b off the axes,
    q on the axis b = 0, q + 1 on the axis a = 0."""
    q = gen.q
    if gen.family == "plus":
        return oracles.ext_norm(gen.ext, z)
    a, b = z % q, z // q
    if a == 0 or b == 0:
        return 0 if a == b else (q if b == 0 else q + 1)
    return oracles.field_mul(gen.base, a, b)


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2),
                                 (5, 2), (3, 3)])
def test_curve_classes_are_the_orbits(p, k, family):
    gen = generator_set(make_field(p, k), family)
    classes = gen.classes
    z = np.arange(gen.ambient_size)
    keys = classes.of(z % gen.q, z // gen.q)
    assert keys.tolist() == [oracle_class(gen, int(a)) for a in z]
    reps = classes.reps
    assert classes.of(reps % gen.q, reps // gen.q).tolist() == list(range(len(reps)))
    assert np.bincount(keys).tolist() == classes.sizes.tolist()
    assert classes.sizes.tolist() == [1] + [gen.degree] * (len(classes.sizes) - 1)
    # the symmetry group permutes H and maps every class onto itself
    if family == "plus":
        moved = gen.ext.mul(np.array(gen.members)[:, None], z)
    else:
        t = np.array(gen.members) % gen.q
        moved = (gen.base.mul(t[:, None], z % gen.q)
                 + gen.q * gen.base.mul(gen.base.inv(t)[:, None], z // gen.q))
    assert (classes.of(moved % gen.q, moved // gen.q) == keys).all()


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2),
                                 (5, 2), (3, 3)])
def test_class_maps_by_lookup_match_the_product_formulas(p, k, family):
    # the norm by two looked-up terms and the minus class by one gather
    # equal the formulas by field products at every index, ints and arrays
    gen = generator_set(make_field(p, k), family)
    classes = gen.classes
    z = np.arange(gen.ambient_size)
    if family == "plus":
        want = oracles.norm_by_mul(gen.ext, z)
        assert np.array_equal(gen.ext.norm(z), want)
        ints = [gen.ext.norm(int(a)) for a in z]
        assert ints == want.tolist() and {type(v) for v in ints} == {int}
    else:
        want = oracles.minus_class_by_mul(gen.base, z)
    assert np.array_equal(classes.of(z % gen.q, z // gen.q), want)
    ints = [classes.of(int(a) % gen.q, int(a) // gen.q) for a in z]
    assert ints == want.tolist() and {type(v) for v in ints} == {int}


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (31, 1), (3, 2), (5, 2), (7, 2),
                                 (5, 3), (3, 4)])
def test_indicator_fft_matches_rfftn_of_the_indicator(monkeypatch, p, k, family):
    # the digit-0 axis summed over the members equals numpy's rfftn of the
    # q^2 float indicator, also in chunks of one and of three members, so
    # that the members of one row straddle chunks; and a range of digit-0
    # columns (the first, a middle range, the last) is the oracle's slice
    gen = generator_set(make_field(p, k), family)
    want, half = oracles.indicator_rfftn(gen), p // 2 + 1
    for entries in (fields.CHUNK_ENTRIES, 1, 3 * half):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        for cols in (slice(None), range(1), range(half // 3, half - half // 3),
                     range(half - 1, half)):
            got = gen.indicator_fft(cols)
            assert got.shape == want[..., cols].shape
            assert np.abs(got - want[..., cols]).max() <= 1e-12


def test_indicator_fft_of_a_set_off_the_curve(monkeypatch):
    # p = 13 plus with its last representative moved off the circle to (8, 6)
    gen = from_representatives(make_field(13), "plus",
                               [1, 4 + 13, 9 + 13, 3 + 26, 10 + 26, 5 + 65, 8 + 78])
    assert gen.classes is None
    want = oracles.indicator_rfftn(gen)
    for entries in (fields.CHUNK_ENTRIES, 1, 21):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        assert np.abs(gen.indicator_fft() - want).max() <= 1e-12


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("p,k", oracles.KERNEL_FIELDS)
def test_real_indicator_fft_matches_the_complex_route(monkeypatch, p, k, family):
    # half the members and the real inverse transform give float64 values
    # within 1e-12 of every member summed and the complex FFT, also in
    # chunks of one member, and at one digit-0 column
    gen = generator_set(make_field(p, k), family)
    want = oracles.indicator_fft_complex(gen)
    for entries in (fields.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        for cols in (slice(None), range(p // 2, p // 2 + 1)):
            got = gen.indicator_fft(cols)
            assert got.dtype == np.float64 and got.shape == want[..., cols].shape
            assert np.abs(got - want[..., cols]).max() <= 1e-12


def test_indicator_fft_refuses_a_set_not_closed_under_negation():
    # the real transform is that of the symmetrised set, so a set with
    # H != -H is refused: one member dropped, or one moved off its pair
    gen = generator_set(make_field(13), "plus")
    off = next(z for z in range(1, gen.ambient_size)
               if z not in gen.members and pair_neg(gen.base, z) not in gen.members)
    for members in (gen.members[1:], np.sort(np.append(gen.members[1:], off))):
        with pytest.raises(ValueError, match="H = -H"):
            dataclasses.replace(gen, members=members).indicator_fft()


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_composed_tables_are_built_on_first_use_and_read_only(family):
    ctx = make_field(5, 2)
    names = ("_wide_exp", "_trace_low", "_low_q")
    assert not vars(ctx).keys() & set(names)  # make_field builds none
    gen = generator_set(ctx, family)
    tables = [getattr(ctx, name) for name in names] + list(gen.classes.sum_keys[:2])
    if family == "plus":
        tables += gen.ext.norm_terms
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_curve_classes_only_on_the_curve(family):
    base = make_field(13)
    gen = generator_set(base, family)
    assert from_representatives(base, family, gen.reps).classes is not None
    off = next(z for z in range(1, gen.ambient_size)
               if z not in gen.members and pair_neg(base, z) not in gen.members)
    for reps in ([1, 2, 3], list(gen.reps[:-1]) + [off]):
        assert from_representatives(base, family, reps).classes is None


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_classes_are_built_once_and_read_only(family):
    # the stages share one CurveClasses per set, so none may write to it;
    # an off-curve set's None is kept too, not rebuilt on the next read
    base = make_field(13)
    gen = generator_set(base, family)
    classes = gen.classes
    assert vars(gen)["classes"] is classes and gen.classes is classes
    assert vars(classes)["base"] is base  # the field, not the set
    for table in (classes.reps, classes.sizes, *classes.keys, *classes.sum_keys):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
    off = next(z for z in range(1, gen.ambient_size)
               if z not in gen.members and pair_neg(base, z) not in gen.members)
    odd = from_representatives(base, family, list(gen.reps[:-1]) + [off])
    assert "classes" not in vars(odd)
    assert odd.classes is None and vars(odd)["classes"] is None


def test_frozen_p13_plus_representatives():
    gen = generator_set(make_field(13), "plus")
    assert [divmod(z, gen.q) for z in gen.reps] == \
        [(0, 1), (1, 4), (1, 9), (2, 3), (2, 10), (5, 5), (5, 8)]
    assert gen.ext.delta == 2


def test_frozen_p23_minus_representatives():
    gen = generator_set(make_field(23), "minus")
    assert {divmod(z, gen.q) for z in gen.members} == \
        {(pow(x, -1, 23), x) for x in range(1, 23)}


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


@pytest.mark.parametrize("p,k", [(13, 1), (3, 2)])
@pytest.mark.parametrize("family", ["plus", "minus"])
def test_every_route_makes_read_only_int64_arrays(p, k, family):
    ctx = make_field(p, k)
    gen = generator_set(ctx, family)
    given = gen.reps.copy()
    made = [gen, from_representatives(ctx, family, gen.reps.tolist()),
            from_representatives(ctx, family, given),
            matrix_from_text(parity_check_matrix(gen).to_text()).generator]
    given[::-1] = given.copy()  # the caller's array, changed after the set
    # the oracle's points ascend
    want = oracles.circle(QuadExt(ctx)) if family == "plus" else oracles.hyperbola(ctx)
    for got in made:
        for array in (got.reps, got.members):
            assert isinstance(array, np.ndarray) and array.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        assert got.reps.tolist() == gen.reps.tolist()
        assert got.members.tolist() == list(want)
    # array fields leave equality to identity
    assert made[0] == gen and made[1] != gen


def test_from_representatives_validation():
    ctx = make_field(13)
    with pytest.raises(ValueError, match="zero"):
        from_representatives(ctx, "plus", [0, 5])
    with pytest.raises(ValueError, match="collide"):
        from_representatives(ctx, "minus",
                             [pair_index(ctx, 2, 3), pair_index(ctx, 11, 10)])


def test_from_representatives_names_the_earliest_fault():
    # an input with both faults: the first faulty representative decides
    ctx = make_field(13)
    z = pair_index(ctx, 2, 3)
    with pytest.raises(ValueError, match="zero"):
        from_representatives(ctx, "plus", [z, 0, pair_neg(ctx, z)])
    with pytest.raises(ValueError, match="collide"):
        from_representatives(ctx, "plus", [z, pair_neg(ctx, z), 0])
    with pytest.raises(ValueError, match="collide"):
        from_representatives(ctx, "minus", [z, 7, z, 0])


def test_hyperbola_with_a_corrupted_inverse_is_refused(monkeypatch):
    # 1/4 = 10 mod 13, read as 8 = 1/5: the twelve points stay distinct,
    # but (4, 8) is off the curve and its negation (9, 5) is missing
    ctx = make_field(13)
    real = ctx.inv
    monkeypatch.setattr(ctx, "inv", lambda a: np.where(a == 4, 8, real(a)))
    with pytest.raises(VerificationError, match="unit hyperbola"):
        unit_hyperbola(ctx)


def _made_points(monkeypatch, edit):
    """Let the builders' points pass through ``edit(ctx, points)``."""
    real = curves.pair_index
    monkeypatch.setattr(curves, "pair_index",
                        lambda ctx, x, y: edit(ctx, real(ctx, x, y).copy()))


def _move_pair(ctx, points):
    # {z, -z} moved to an off-curve {w, -w}: the set stays symmetric, of
    # the right size, so only the curve check can see it
    z = points[1]
    w = next(w for w in range(1, ctx.q ** 2) if w not in points
             and pair_neg(ctx, w) not in points)
    points[points == pair_neg(ctx, z)] = pair_neg(ctx, w)
    points[1] = w
    return points


@pytest.mark.parametrize("edit", [
    lambda ctx, points: np.where(points == points[1], 2, points),  # one point
    _move_pair,
], ids=["point", "pair"])
def test_circle_with_a_moved_point_is_refused(monkeypatch, edit):
    _made_points(monkeypatch, edit)
    with pytest.raises(VerificationError, match="norm-one circle"):
        norm_circle(QuadExt(make_field(13)))


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_built_set_with_a_duplicate_point_is_refused(monkeypatch, family):
    # a fault of the builder, not of its input: VerificationError, and not
    # the ValueError of from_representatives
    def duplicate(ctx, points):
        points[1] = points[0]
        return points
    _made_points(monkeypatch, duplicate)
    with pytest.raises(VerificationError, match="points made"):
        generator_set(make_field(13), family)


# -- point counts: the scalar oracles of the lemma battery --------------------

@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2)])
def test_circle_abscissa_sizes(p, k):
    ctx = make_field(p, k)
    q = ctx.q
    for c in range(1, q):
        want = (q + 3) // 2 if ctx.quad_character(c) == 1 else (q + 1) // 2
        assert len(oracles.circle_abscissas(ctx, c)) == want
    with pytest.raises(ValueError):
        oracles.circle_abscissas(ctx, 0)


def test_shifted_norm_image_frozen():
    ext5 = QuadExt(make_field(5))
    i1 = oracles.shifted_norm_image(ext5, oracles.circle(ext5), 1)
    assert len(i1) == 4 and 1 in i1          # -3 is a nonsquare in F_5
    ext13 = QuadExt(make_field(13))
    j1 = oracles.shifted_norm_image(ext13, oracles.circle(ext13), 1)
    assert len(j1) == 8 and 1 not in j1      # -3 is a square in F_13
    with pytest.raises(ValueError):
        oracles.shifted_norm_image(ext5, oracles.circle(ext5), 0)


def test_shifted_circle_sum_sizes():
    ext = QuadExt(make_field(7))
    q = 7
    circle = oracles.circle(ext)
    assert list(circle) == norm_circle(ext).members.tolist()
    for w in range(1, q * q):
        if w in circle:
            continue
        got = len(oracles.shifted_circle_sum(ext, circle, w))
        if ext.base.quad_character(ext.norm(w)) == 1:
            assert got == (q + 1) * (q + 3) // 2
        else:
            assert got == (q + 1) ** 2 // 2


def test_projective_cubic_counts_frozen_q13():
    ctx = make_field(13)
    counts = [oracles.projective_cubic_count(ctx, t) for t in range(12)]
    assert counts == [13, 12, 18, 12, 13, 18, 12, 18, 12, 12, 12, 18]
    with pytest.raises(ValueError, match="reducible"):
        oracles.projective_cubic_count(ctx, 12)     # t = -1


def test_projective_cubic_count_infinity_points():
    # the three points at infinity are always present: count >= 3
    ctx = make_field(5)
    for t in range(5):
        if t == 4:
            continue
        assert oracles.projective_cubic_count(ctx, t) >= 3


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
