"""Field contexts, quadratic extensions and character sums."""

import hashlib
import math
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilee import fields
from quasilee.fields import (AMBIENT_CAP, QuadExt, SizeCapError,
                             VerificationError, check_ambient, fold_counts,
                             index_digits, index_neg, index_pack, is_prime,
                             kloosterman, make_field, minus3_character,
                             pair_add, pair_index, pair_neg,
                             residue_class_mod12, trace_dual, unity_cos_sin)

F5 = make_field(5)
F7 = make_field(7)
F13 = make_field(13)
F9 = make_field(3, 2)
F25 = make_field(5, 2)
F27 = make_field(3, 3)
F125 = make_field(5, 3)
ALL = [F5, F7, F13, F9, F25]


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError, match="not prime"):
        make_field(9)
    with pytest.raises(ValueError, match="not prime"):
        make_field(1)
    with pytest.raises(ValueError, match="odd"):
        make_field(2)
    with pytest.raises(ValueError, match="k ="):
        make_field(5, 0)
    with pytest.raises(SizeCapError):
        make_field(257, 2)


@pytest.mark.parametrize("p,k", [(10 ** 18 + 3, 1), (13, 3000), (13, 30_000_000),
                                 (8209, 1), (-(10 ** 18), 1)])
def test_ambient_cap_is_checked_first_and_fast(p, k):
    # before any trial division, and without computing p**(2k)
    with pytest.raises(SizeCapError, match=f"exceeds cap {AMBIENT_CAP}"):
        make_field(p, k)


def test_check_ambient_messages():
    check_ambient(13, 1, 169)
    with pytest.raises(SizeCapError, match=r"^q\^2 = 169 exceeds cap 100$"):
        check_ambient(13, 1, 100)
    # neither a huge k nor a p of thousands of digits reaches the message
    with pytest.raises(SizeCapError, match=r"^q\^2 exceeds cap 100: p\^2 already does$"):
        check_ambient(13, 10 ** 4000, 100)
    for p in (10 ** 4000 + 1, -(10 ** 4000)):
        with pytest.raises(SizeCapError, match=r"^q\^2 exceeds cap 100: p\^1 already does$"):
            check_ambient(p, 1, 100)
    assert make_field(8191).q ** 2 <= AMBIENT_CAP


def test_canonical_moduli():
    assert F5.modulus == (0, 1)
    assert F9.modulus == (1, 0, 1)          # x^2 + 1 over F_3
    assert F25.modulus == (1, 1, 1)         # x^2 + x + 1 over F_5
    assert make_field(3, 3).modulus == (1, 0, 2, 1)


# (modulus, generator) of all 38 extension fields the ambient gate admits,
# computed apart from the sieve, by polynomial trial division and by the
# order test over the prime factors of q - 1
FROZEN_EXTENSIONS = {
    (3, 2): ((1, 0, 1), 4),
    (5, 2): ((1, 1, 1), 7),
    (7, 2): ((1, 0, 1), 9),
    (11, 2): ((1, 0, 1), 15),
    (13, 2): ((1, 3, 1), 18),
    (17, 2): ((1, 1, 1), 20),
    (19, 2): ((1, 0, 1), 22),
    (23, 2): ((1, 0, 1), 25),
    (29, 2): ((1, 1, 1), 35),
    (31, 2): ((1, 0, 1), 35),
    (37, 2): ((1, 3, 1), 41),
    (41, 2): ((1, 1, 1), 44),
    (43, 2): ((1, 0, 1), 45),
    (47, 2): ((1, 0, 1), 49),
    (53, 2): ((1, 1, 1), 58),
    (59, 2): ((1, 0, 1), 62),
    (61, 2): ((1, 5, 1), 67),
    (67, 2): ((1, 0, 1), 74),
    (71, 2): ((1, 0, 1), 79),
    (73, 2): ((1, 3, 1), 77),
    (79, 2): ((1, 0, 1), 85),
    (83, 2): ((1, 0, 1), 93),
    (89, 2): ((1, 1, 1), 92),
    (3, 3): ((1, 0, 2, 1), 3),
    (5, 3): ((1, 0, 1, 1), 7),
    (7, 3): ((1, 0, 1, 1), 9),
    (11, 3): ((1, 0, 4, 1), 12),
    (13, 3): ((1, 0, 4, 1), 18),
    (17, 3): ((1, 0, 3, 1), 18),
    (19, 3): ((1, 0, 1, 1), 21),
    (3, 4): ((1, 0, 1, 1, 1), 10),
    (5, 4): ((1, 0, 1, 1, 1), 30),
    (7, 4): ((1, 0, 0, 1, 1), 13),
    (3, 5): ((1, 0, 0, 0, 2, 1), 3),
    (5, 5): ((1, 0, 0, 0, 4, 1), 7),
    (3, 6): ((1, 0, 0, 0, 1, 1, 1), 4),
    (3, 7): ((1, 0, 0, 0, 0, 1, 2, 1), 3),
    (3, 8): ((1, 0, 0, 0, 0, 1, 1, 0, 1), 4),
}


def test_extension_fields_frozen():
    admitted = {(p, k) for k in range(2, 14) for p in range(3, 100)
                if is_prime(p) and p ** (2 * k) <= AMBIENT_CAP}
    assert admitted == FROZEN_EXTENSIONS.keys()
    for (p, k), (modulus, gen) in FROZEN_EXTENSIONS.items():
        ctx = make_field(p, k)
        assert (ctx.modulus, ctx.generator) == (modulus, gen)
        if ctx.q <= 125:
            # the exp table is the powers of the generator, multiplied as
            # polynomials mod the modulus
            power = 1
            for e in ctx._exp[:ctx.q - 1]:
                assert e == power
                power = oracles.field_mul(ctx, power, gen)
            assert power == 1


def test_prime_field_generators_are_smallest_primitive_roots():
    for p in range(3, 2000):
        if is_prime(p):
            assert make_field(p).generator == oracles.smallest_primitive_root(p)


# sha256 of the little-endian int64 bytes of _exp, _log and trace_table,
# as built when each candidate generator's whole orbit was grown
FROZEN_TABLES = {
    (3, 8): "e972e50b151fbf922130ff0f101162d4982de142d5d0abd281b1440824a25943",
    (5, 5): "39d14b201c58bc1f73fa52f498944f62b58e669ec3166527bfa11a62b3f1a473",
    (7, 4): "984536cd27e47ad23b9c5b6ba47f48bfd96ea2d390f78f0eabbe84145b39a526",
    (13, 2): "31ec2749c93911c1d62cbc9502245ef287887ae6166b371e408d6d46ade8645b",
    (31, 2): "a5a1c0ecf88b34a421f4551f222d6b61e5fe803c4f9b6e6409bdd4acef9a9209",
    (89, 2): "e00d82b11d394234398de6a0b82f8d8a2cf59c39290c6c293713f2a3c4db53b7",
    (307, 1): "72d571b399f383c1134f476ef2148799dbc0c1a0de5307587ccd412abe756b4a",
    (311, 1): "7f2ab4e0ea9831fcd9d44c3d76af3da54a48dc9bf29f2d8e07701e9250e4c781",
    (8191, 1): "fac337ba392252ca1a6ca44ea51d6c6ec9e62dcbc1f2c08ab87529e6917fccce",
}


@pytest.mark.parametrize("p,k", sorted(FROZEN_TABLES))
def test_field_tables_frozen(p, k):
    ctx = make_field(p, k)
    digest = hashlib.sha256()
    for table in (ctx._exp, ctx._log, ctx.trace_table):
        digest.update(np.ascontiguousarray(table, dtype="<i8").tobytes())
    assert digest.hexdigest() == FROZEN_TABLES[(p, k)]


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2)])
def test_generator_without_full_orbit_is_refused(monkeypatch, p, k):
    # the order test picks the generator; its orbit, grown apart, must
    # still hold every unit: -1 has order 2
    monkeypatch.setattr(fields, "_first_primitive", lambda *args: p - 1)
    with pytest.raises(VerificationError, match=f"generator {p - 1} is not all units"):
        make_field(p, k)


def test_frozen_trace_and_character_values():
    # F_9 = F_3[x]/(x^2+1): trace(x) = x + x^3 = x - x = 0, trace(1) = 2
    assert F9.trace_table[3] == 0
    assert F9.trace_table[1] == 2
    assert F13.trace_table[11] == 11
    assert F5.nonsquare == 2
    assert F7.nonsquare == 3
    assert F13.nonsquare == 2
    assert F9.nonsquare == 4                # the element x + 1


def test_f9_multiplication():
    # (x+1)^2 = x^2 + 2x + 1 = 2x in F_3[x]/(x^2+1)
    assert F9.mul(4, 4) == 6
    assert F9.mul(3, 3) == 2                # x^2 = -1 = 2


@pytest.mark.parametrize("ctx", ALL, ids=lambda c: f"q{c.q}")
def test_exp_log_tables_consistent(ctx):
    seen, g = set(), 1
    for _ in range(ctx.q - 1):
        seen.add(g)
        g = ctx.mul(g, ctx.generator)
    assert seen == set(range(1, ctx.q))
    for a in range(1, ctx.q):
        assert ctx.mul(a, ctx.inv(a)) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_field_axioms(data):
    ctx = data.draw(st.sampled_from(ALL))
    a = data.draw(st.integers(0, ctx.q - 1))
    b = data.draw(st.integers(0, ctx.q - 1))
    c = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.neg(a)) == 0
    # trace is F_p-linear
    tr = ctx.trace_table
    assert tr[ctx.add(a, b)] == (tr[a] + tr[b]) % ctx.p
    # quadratic character is multiplicative
    assert ctx.quad_character(ctx.mul(a, b)) == \
        ctx.quad_character(a) * ctx.quad_character(b)


@pytest.mark.parametrize("ctx", ALL, ids=lambda c: f"q{c.q}")
def test_square_roots(ctx):
    roots = {}
    for a in range(ctx.q):
        roots.setdefault(ctx.mul(a, a), []).append(a)
    assert len(roots) == (ctx.q + 1) // 2
    # a nonzero square has two roots, r and -r
    for s, rs in roots.items():
        assert len(rs) == (1 if s == 0 else 2)
        assert ctx.quad_character(s) == (0 if s == 0 else 1)
        assert {ctx.neg(r) for r in rs} == set(rs)
    assert ctx.nonsquare not in roots


def test_zero_division_paths():
    with pytest.raises(ZeroDivisionError):
        F13.inv(0)


def test_coeffs_roundtrip():
    # the coefficient vector of an element is its list of base-p digits
    for ctx in (F9, F25):
        for a in range(ctx.q):
            coeffs = index_digits(a, ctx.p, ctx.k)
            assert all(type(c) is int for c in coeffs)
            assert index_pack(coeffs, ctx.p) == a


@pytest.mark.parametrize("ctx", [F13, F9, F25, F27, F125], ids=lambda c: f"q{c.q}")
def test_vectorized_ops_match_scalar(ctx):
    # the broadcast form of every operation against the oracles, element
    # by element, and against its own int form
    arr = np.arange(ctx.q)
    c = ctx.q - 2
    ops = {
        "add": (ctx.add(arr, c), [oracles.field_add(ctx, a, c) for a in arr.tolist()]),
        "neg": (ctx.neg(arr), [oracles.field_neg(ctx, a) for a in arr.tolist()]),
        "mul": (ctx.mul(arr, c), [oracles.field_mul(ctx, a, c) for a in arr.tolist()]),
        "mul_rev": (ctx.mul(arr, arr[::-1]),
                    [oracles.field_mul(ctx, a, ctx.q - 1 - a) for a in arr.tolist()]),
    }
    for name, (got, want) in ops.items():
        assert got.tolist() == want, name
    assert [ctx.mul(a, c) for a in range(ctx.q)] == ops["mul"][1]
    assert ctx.quad_character(arr).tolist() == \
        [ctx.quad_character(a) for a in range(ctx.q)]
    assert ctx.trace_table.tolist() == \
        [oracles.field_trace(ctx, a) for a in range(ctx.q)]


def _oracle_power(ctx, a, e):
    r = 1
    for _ in range(e):
        r = oracles.field_mul(ctx, r, a)
    return r


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (5, 3)])
def test_mul_inv_character_match_polynomial_oracle(p, k):
    ctx = make_field(p, k)
    q = ctx.q
    z = np.arange(q)
    want = [[oracles.field_mul(ctx, a, b) for b in range(q)] for a in range(q)]
    assert ctx.mul(z[:, None], z).tolist() == want
    assert [[ctx.mul(a, b) for b in range(q)] for a in range(q)] == want
    # inverses: the oracle product with the inverse is 1, in both forms
    units = z[1:]
    inv = ctx.inv(units)
    assert [ctx.inv(a) for a in range(1, q)] == inv.tolist()
    assert all(oracles.field_mul(ctx, a, b) == 1 for a, b in zip(range(1, q), inv.tolist()))
    for zero in (0, z, np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(zero)
    # Euler's criterion: a**((q-1)/2) is 1 for squares and -1 for nonsquares
    minus_one = oracles.field_neg(ctx, 1)
    euler = [0] + [{1: 1, minus_one: -1}[_oracle_power(ctx, a, (q - 1) // 2)]
                   for a in range(1, q)]
    assert ctx.quad_character(z).tolist() == euler
    assert [ctx.quad_character(a) for a in range(q)] == euler
    for value in (ctx.mul(2, q - 1), ctx.inv(q - 1), ctx.quad_character(q - 1)):
        assert type(value) is int


# -- the packed-index kernel against the digit-list oracles ----------------------

@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (5, 3)])
def test_index_kernel_matches_digit_oracle(p, k):
    # the table addition and the digit-loop negation against the scalar
    # oracles, and the array digit loop of tests/oracles.py with them
    ctx = make_field(p, k)
    elems = range(ctx.q)
    add = [[oracles.field_add(ctx, a, b) for b in elems] for a in elems]
    neg = [oracles.field_neg(ctx, a) for a in elems]
    z = np.arange(ctx.q)
    assert ctx.add(z[:, None], z).tolist() == add
    assert oracles.index_add(z[:, None], z, p, k).tolist() == add
    assert index_neg(z, p, k).tolist() == neg
    assert [[ctx.add(a, b) for b in elems] for a in elems] == add
    assert [index_neg(a, p, k) for a in elems] == neg
    assert type(ctx.add(1, ctx.q - 1)) is int
    assert type(index_neg(1, p, k)) is int


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3)])
def test_pair_kernel_matches_digit_oracle(p, k):
    ctx = make_field(p, k)
    q, size = ctx.q, ctx.q ** 2
    # the full oracle table, gathered from the field oracle's q x q table
    field = np.array([[oracles.field_add(ctx, a, b) for b in range(q)]
                      for a in range(q)])
    z = np.arange(size)
    x, y = z % q, z // q
    want = field[x[:, None], x] + q * field[y[:, None], y]
    assert np.array_equal(pair_add(ctx, z[:, None], z), want)
    assert np.array_equal(oracles.index_add(z[:, None], z, p, 2 * k), want)
    neg = [oracles.pair_neg(ctx, v) for v in range(size)]
    assert pair_neg(ctx, z).tolist() == neg
    assert [pair_neg(ctx, v) for v in range(size)] == neg
    # the scalar kernel against the scalar oracle: every row, strided columns
    cols = range(0, size, 1 + size // 64)
    for z1 in range(size):
        got = [pair_add(ctx, z1, z2) for z2 in cols]
        assert got == [oracles.pair_add(ctx, z1, z2) for z2 in cols]
        assert got == want[z1, cols].tolist()


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (3, 2), (3, 3), (5, 2), (7, 2),
                                 (5, 3)])
def test_table_addition_matches_digit_loop(p, k):
    # FieldCtx.add on every pair of F_q and pair_add on every pair of
    # F_q x F_q (at 5^3, every 31st column) against the digit loop; an int
    # in gives an int out
    ctx = make_field(p, k)
    q, size = ctx.q, ctx.q ** 2
    z = np.arange(q)
    assert np.array_equal(ctx.add(z[:, None], z), oracles.index_add(z[:, None], z, p, k))
    cols = np.arange(0, size, 1 if size <= 2401 else 31)
    for rows in np.array_split(np.arange(size), max(1, size // 128)):
        assert np.array_equal(pair_add(ctx, rows[:, None], cols),
                              oracles.index_add(rows[:, None], cols, p, 2 * k))
    for a, b in ((0, 0), (1, q - 1), (q - 1, q - 1)):
        assert type(ctx.add(a, b)) is int
        assert ctx.add(a, b) == oracles.index_add(a, b, p, k)
    for a, b in ((0, 0), (1, size - 1), (size - 1, size - 1)):
        assert type(pair_add(ctx, a, b)) is int
        assert pair_add(ctx, a, b) == oracles.index_add(a, b, p, 2 * k)


def test_addition_tables_take_base_2p_minus_1():
    # two reduced digits sum to at most 2p - 2, so the tables are built in
    # base 2p - 1: at 3^8 _low holds 5^8 entries, 3.0 MiB, and make_field
    # peaks at 10.2 MiB of tracemalloc (base 2p: 6^8 entries, 20.1 MiB)
    make_field(3, 2)  # imports and first-call caches outside the trace
    tracemalloc.start()
    try:
        ctx = make_field(3, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx._low.size == 5 ** 8
    assert peak < 14 << 20


@pytest.mark.parametrize("p,m", [(5, 1), (3, 4), (7, 3)])
def test_index_digits_and_pack_are_inverse(p, m):
    z = np.arange(p ** m)
    digits = index_digits(z, p, m)
    assert len(digits) == m
    assert all(((d >= 0) & (d < p)).all() for d in digits)
    assert np.array_equal(index_pack(digits, p), z)
    assert np.array_equal(index_pack(np.array(digits), p), z)
    assert index_digits(p ** m - 1, p, m) == [p - 1] * m
    assert index_pack([1, 2, 0], p) == 1 + 2 * p


# -- quadratic extension ----------------------------------------------------

@pytest.mark.parametrize("base", [F5, F7, F13, F9], ids=lambda c: f"q{c.q}")
def test_quad_ext_is_a_field(base):
    ext = QuadExt(base)
    assert ext.size == base.q ** 2
    # norm is multiplicative and vanishes only at zero
    for z1 in (1, base.q, ext.size - 1, base.q + 2):
        for z2 in (2, base.q + 1, ext.size - 3):
            assert ext.norm(ext.mul(z1, z2)) == \
                base.mul(ext.norm(z1), ext.norm(z2))
    assert all(ext.norm(z) != 0 for z in range(1, ext.size))
    assert ext.norm(np.arange(ext.size)).tolist() == \
        [ext.norm(z) for z in range(ext.size)]


@pytest.mark.parametrize("base", [F5, F7, F9, F27], ids=lambda c: f"q{c.q}")
def test_quad_ext_array_ops_match_scalar(base):
    ext = QuadExt(base)
    q, z = base.q, np.arange(ext.size)
    # the oracle formulas over full pair tables, gathered from q x q tables
    # of the field oracles
    elems = range(q)
    add = np.array([[oracles.field_add(base, a, b) for b in elems] for a in elems])
    mul = np.array([[oracles.field_mul(base, a, b) for b in elems] for a in elems])
    neg_delta = oracles.field_neg(base, ext.delta)
    x, y = z % q, z // q
    x1, y1 = x[:, None], y[:, None]
    want = (add[mul[x1, x], mul[ext.delta, mul[y1, y]]]
            + q * add[mul[x1, y], mul[y1, x]])
    got = ext.mul(z[:, None], z)
    assert np.array_equal(got, want)
    norm = add[mul[x, x], mul[neg_delta, mul[y, y]]]
    assert np.array_equal(ext.norm(z), norm)
    # the int forms against the scalar oracles: every row, strided columns
    cols = range(0, ext.size, 1 + ext.size // 64)
    for z1 in range(ext.size):
        row = [ext.mul(z1, z2) for z2 in cols]
        assert row == [oracles.ext_mul(ext, z1, z2) for z2 in cols]
        assert row == want[z1, cols].tolist()
        assert ext.norm(z1) == oracles.ext_norm(ext, z1) == norm[z1]
    assert type(ext.mul(2, ext.size - 1)) is int and type(ext.norm(ext.size - 1)) is int
    # every nonzero element has exactly one inverse
    assert ((got[1:, 1:] == 1).sum(axis=1) == 1).all()


def test_pair_helpers():
    assert pair_index(F13, 3, 4) == 3 + 13 * 4
    assert divmod(55, F13.q) == (4, 3)
    z = pair_index(F13, 5, 12)
    assert pair_add(F13, z, pair_neg(F13, z)) == 0
    assert oracles.pair_scale(F13, pair_index(F13, 2, 3), 4) == pair_index(F13, 8, 12)


# -- character sums ---------------------------------------------------------

def test_kloosterman_frozen_values():
    # K_5(1,1) = 2*cos(2*pi*2/5) + 2*cos(2*pi*3/5) + ... enumerated exactly
    assert kloosterman(F5, 1, 1) == pytest.approx(0.3819660112501051, abs=1e-12)
    # depends only on the product of the arguments: 2*3 = 6 = 1 in F_5
    assert kloosterman(F5, 2, 3) == pytest.approx(kloosterman(F5, 1, 1), abs=1e-12)
    with pytest.raises(ValueError, match="nonzero second"):
        kloosterman(F5, 1, 0)


@pytest.mark.parametrize("ctx", [F5, F7, F13, F9], ids=lambda c: f"q{c.q}")
def test_kloosterman_bound_everywhere(ctx):
    bound = 2 * math.sqrt(ctx.q) + 1e-9
    for b in range(1, ctx.q):
        assert abs(kloosterman(ctx, 1, b)) <= bound


@pytest.mark.parametrize("ctx", [F5, F7, F13, F9, F25], ids=lambda c: f"q{c.q}")
def test_gauss_sum_magnitude(ctx):
    # |sum| = sqrt(q) for every nonzero quadratic coefficient
    for c in (1, ctx.nonsquare):
        for a in (0, 1, ctx.q - 1):
            counts = oracles.gauss_count_table(ctx, c, a)
            assert counts.sum() == ctx.q
            v = fold_counts(ctx.p, counts)
            assert abs(v) == pytest.approx(math.sqrt(ctx.q), abs=1e-9)


def test_gauss_frozen_value():
    v = fold_counts(5, oracles.gauss_count_table(F5, 1, 0))
    assert v.real == pytest.approx(math.sqrt(5), abs=1e-12)
    assert v.imag == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("ctx", [F7, F9, F25, F27], ids=lambda c: f"q{c.q}")
def test_trace_dual_turns_the_trace_pairing_into_digit_dot_products(ctx):
    # trace(c*a*x) = <digits(x), digits(D(c*a))> mod p for every (a, x)
    p, k, q = ctx.p, ctx.k, ctx.q
    x = np.arange(q)
    digits = np.array(index_digits(x, p, k))
    for c in (1, ctx.nonsquare):
        dual = trace_dual(ctx, c)
        dots = np.array(index_digits(dual, p, k)).T @ digits % p
        assert np.array_equal(dots, ctx.trace_table[ctx.mul(ctx.mul(c, x)[:, None], x)])


def test_character_sum_counts_fold():
    v = fold_counts(5, [5, 0, 0, 0, 0])
    assert v == pytest.approx(5.0)
    w = fold_counts(5, [0, 1, 1, 1, 1])
    assert w.real == pytest.approx(-1.0, abs=1e-12)  # all nontrivial roots sum to -1


def test_unity_cos_sin_roots_sum_to_zero():
    for p in (3, 5, 7, 13):
        cos, sin = unity_cos_sin(p)
        assert abs(cos.sum()) < 1e-12
        assert abs(sin.sum()) < 1e-12


# -- residue classes --------------------------------------------------------

def test_residue_rules_small_primes():
    r13 = residue_class_mod12(13)
    assert (r13.minus1_square, r13.three_square, r13.minus3_square) == \
        (True, True, True)
    r5 = residue_class_mod12(5)
    assert (r5.minus1_square, r5.three_square, r5.minus3_square) == \
        (True, False, False)
    r23 = residue_class_mod12(23)
    assert (r23.minus1_square, r23.three_square, r23.minus3_square) == \
        (False, True, False)
    with pytest.raises(ValueError):
        residue_class_mod12(3)
    with pytest.raises(ValueError):
        residue_class_mod12(15)


def test_residue_rules_all_primes_to_200():
    primes = [p for p in range(5, 201) if is_prime(p)]
    assert len(primes) == 44
    for p in primes:
        residue_class_mod12(p)  # raises if the rule disagrees with the character


def test_minus3_character_matches_rule():
    # -3 square in F_q iff p = 1,7 mod 12, or k even (p > 3)
    for p, k in ((5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (23, 1), (7, 2)):
        ctx = make_field(p, k)
        expect = 1 if (p % 12 in (1, 7) or k % 2 == 0) else -1
        assert minus3_character(ctx) == expect
    assert minus3_character(F9) == 0  # -3 = 0 in characteristic 3
