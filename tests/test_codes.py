"""Parity-check matrices, coset-leader decoding and the cross-checked verdict."""

import functools

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilee import codes
from quasilee.codes import (CosetLeaderTable, DecodeResult, VerificationError,
                            build_code, code_parameters, coset_leader_table,
                            decode, decode_words, lee_ball_array,
                            lee_ball_vectors, lee_distance, lee_weight,
                            matrix_from_json_dict, matrix_from_text,
                            parity_check_matrix, rank_mod_p, round_trip_check,
                            syndrome, syndromes, verify_quasi_perfect)
from quasilee.curves import from_representatives, generator_set
from quasilee.fields import make_field, pair_index, pair_scale
from quasilee.sumsets import (MAX_LAYERS, CoverageError, cumulative_layers,
                              lee_ball_size)


def gen_for(p, k, family):
    return generator_set(make_field(p, k), family)


def table_for(p, k, family) -> CosetLeaderTable:
    return coset_leader_table(parity_check_matrix(gen_for(p, k, family)))


@functools.lru_cache(maxsize=None)
def matrix_for(p, k, family):
    return parity_check_matrix(gen_for(p, k, family))


# -- scalar oracles ----------------------------------------------------------------
# Independent of the array code in quasilee.codes and of the index kernel in
# quasilee.fields: they walk the group F_q x F_q one oracles.pair_add at a
# time.

def scalar_syndrome(mat, word) -> int:
    """sum_j word_j * beta_j by scalar pair arithmetic."""
    ctx = mat.generator.base
    syn = 0
    for c, rep in zip(word, mat.generator.reps):
        syn = oracles.pair_add(ctx, syn, pair_scale(ctx, rep, c % mat.p))
    return syn


def scalar_lee_ball(n, p, radius) -> list:
    """Lee ball words by depth-first recursion: for each position j, weight
    w and value w then p - w, the word, then its extensions past j."""
    half = (p - 1) // 2
    out = [tuple([0] * n)]
    vec = [0] * n

    def extend(start, budget):
        for j in range(start, n):
            for w in range(1, min(budget, half) + 1):
                for val in (w, p - w):
                    vec[j] = val
                    out.append(tuple(vec))
                    extend(j + 1, budget - w)
                vec[j] = 0

    extend(0, radius)
    return out


def scalar_bfs_leaders(mat) -> tuple:
    """Coset leaders and their weights by a scalar breadth-first search.

    Level w + 1 extends each level-w leader, in first-recorded order, by
    the steps +1 then -1 at positions 0 .. n-1 that raise its Lee weight
    by exactly one; a syndrome keeps the first leader that reaches it.
    """
    gen = mat.generator
    ctx, p, n = gen.base, gen.p, gen.n
    shifts = [(rep, oracles.pair_neg(ctx, rep)) for rep in gen.reps]
    leaders = [None] * gen.ambient_size
    weights = [-1] * gen.ambient_size
    leaders[0], weights[0] = tuple([0] * n), 0
    frontier = [0]
    w = 0
    while frontier and w < MAX_LAYERS:
        nxt = []
        for syn in frontier:
            err = leaders[syn]
            for j in range(n):
                v = err[j]
                for dv, shift in zip((1, -1), shifts[j]):
                    nv = (v + dv) % p
                    if min(nv, p - nv) != min(v, p - v) + 1:
                        continue
                    s2 = oracles.pair_add(ctx, syn, shift)
                    if leaders[s2] is None:
                        leaders[s2] = err[:j] + (nv,) + err[j + 1:]
                        weights[s2] = w + 1
                        nxt.append(s2)
        frontier = nxt
        w += 1
    return tuple(leaders), weights


def scalar_decode(table, word) -> DecodeResult:
    """The one-word-at-a-time decoder that ``decode_words`` replaced: reduce
    the word as Python ints, then subtract the leader of its syndrome."""
    p = table.matrix.p
    word = [int(c) % p for c in word]
    syn = syndrome(table.matrix, word)
    err = tuple(table.leader_words([syn])[0].tolist())
    cw = tuple((c - e) % p for c, e in zip(word, err))
    return DecodeResult(cw, err, int(table.weights[syn]), syn)


# -- Lee metric ----------------------------------------------------------------

def test_lee_weight_frozen():
    assert lee_weight([0, 1, 6, 7], 13) == 0 + 1 + 6 + 6
    assert lee_weight([0, 0, 0], 5) == 0
    assert lee_weight([4], 7) == 3
    assert lee_weight([-1], 7) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2).map([5, 7, 13].__getitem__),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_lee_distance_is_a_metric(p, a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    assert lee_distance(a, b, p) == lee_distance(b, a, p)
    assert (lee_distance(a, b, p) == 0) == all((x - y) % p == 0
                                               for x, y in zip(a, b))
    zero = [0] * m
    assert lee_distance(a, zero, p) == lee_weight(a, p)
    assert lee_distance(a, b, p) <= lee_weight(a, p) + lee_weight(b, p)
    assert lee_weight(a, p) <= m * (p - 1) // 2


def test_lee_distance_length_check():
    with pytest.raises(ValueError, match="length mismatch"):
        lee_distance([1, 2], [1], 5)


@pytest.mark.parametrize("n,p,radius", [
    (0, 5, 2), (1, 3, 1), (2, 3, 2), (3, 7, 2), (5, 5, 3), (7, 13, 4),
    (12, 3, 3), (20, 7, 3), (62, 5, 2)])
def test_ball_array_matches_scalar_oracle(n, p, radius):
    ball = codes.lee_ball_array(n, p, radius)
    assert ball.dtype == np.int64 and ball.shape[1] == n
    assert [tuple(w) for w in ball.tolist()] == scalar_lee_ball(n, p, radius)


def test_ball_vectors_are_distinct_and_light():
    ball = lee_ball_vectors(3, 7, 2)
    assert len(ball) == len(set(ball)) == 25
    assert all(lee_weight(v, 7) <= 2 for v in ball)
    assert all(0 <= c < 7 for v in ball for c in v)
    # wraparound regime: radius 2 over Z_3 in two coordinates gives all words
    assert len(lee_ball_vectors(2, 3, 2)) == 9


# -- matrices and syndromes ------------------------------------------------------

def test_frozen_p13_matrix():
    mat = parity_check_matrix(gen_for(13, 1, "plus"))
    assert mat.entries.tolist() == [[1, 4, 9, 3, 10, 5, 8],
                                    [0, 1, 1, 2, 2, 5, 5]]
    assert (mat.p, mat.n) == (13, 7)


def test_syndrome_is_additive():
    mat = parity_check_matrix(gen_for(13, 1, "plus"))
    ctx = mat.generator.base
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.integers(0, 13, size=7)
        b = rng.integers(0, 13, size=7)
        lhs = syndrome(mat, (a + b) % 13)
        assert lhs == oracles.pair_add(ctx, syndrome(mat, a), syndrome(mat, b))
    assert syndrome(mat, [0] * 7) == 0


def test_syndrome_rejects_wrong_length():
    mat = parity_check_matrix(gen_for(13, 1, "plus"))
    with pytest.raises(ValueError, match="expected 7, got 3"):
        syndrome(mat, [1, 2, 3])
    with pytest.raises(ValueError, match="expected 7, got 3"):
        syndromes(mat, [[1, 2, 3]])
    with pytest.raises(ValueError, match="2-D"):
        syndromes(mat, [1, 2, 3, 4, 5, 6, 7])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(13, 1, "plus"), (5, 2, "plus"), (5, 3, "minus")]),
       st.data())
def test_batched_syndromes_match_scalar_oracle(config, data):
    mat = matrix_for(*config)
    p = mat.p
    words = data.draw(st.lists(
        st.lists(st.integers(-3 * p, 3 * p), min_size=mat.n, max_size=mat.n),
        min_size=1, max_size=5))
    got = syndromes(mat, words)
    assert got.tolist() == [scalar_syndrome(mat, w) for w in words]
    assert syndrome(mat, words[0]) == got[0]


def test_syndrome_reduces_huge_entries():
    mat = matrix_for(13, 1, "plus")
    word = [10 ** 30, -(10 ** 25), 3, 0, 0, 0, 1]
    assert syndrome(mat, word) == scalar_syndrome(mat, word)


def test_rank_mod_p():
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), 5) == 1
    assert rank_mod_p(np.array([[1, 2], [2, 4]]), 7) == 1
    assert rank_mod_p(np.array([[1, 0], [0, 1]]), 5) == 2
    assert rank_mod_p(np.zeros((2, 3), dtype=int), 5) == 0
    # full rank over Q but rank 1 mod 3
    assert rank_mod_p(np.array([[1, 4], [4, 16]]), 3) == 1


def test_matrix_text_roundtrip():
    mat = parity_check_matrix(gen_for(23, 1, "minus"))
    back = matrix_from_text(mat.to_text())
    assert back.entries.tolist() == mat.entries.tolist()
    assert back.generator.reps == mat.generator.reps
    # comments and blank lines are ignored
    noisy = mat.to_text() + "\n# trailing comment\n\n"
    assert matrix_from_text(noisy).entries.tolist() == mat.entries.tolist()


def test_matrix_json_roundtrip():
    mat = parity_check_matrix(gen_for(3, 2, "plus"))
    back = matrix_from_json_dict(mat.to_json_dict())
    assert back.entries.tolist() == mat.entries.tolist()
    assert back.generator.k == 2


@pytest.mark.parametrize("change,msg", [
    ({"family": None}, "'family' is missing"),
    ({"rows": None}, "'rows' is missing"),
    ({"p": None}, "'p' is missing"),
    ({"rows": 5}, "'rows' is missing or not of type list"),
    ({"rows": [5, 6]}, "'rows' must hold lists of integers"),
    ({"rows": [[1, None], [0, 1]]}, "'rows' must hold lists of integers"),
    ({"rows": [[1.0] * 7, [0] * 7]}, "'rows' must hold lists of integers"),
    ({"n": "seven"}, "'n' is missing or not of type int"),
    ({"k": [1]}, "'k' is missing or not of type int"),
    ({"family": 1}, "'family' is missing or not of type str"),
])
def test_matrix_json_rejects_missing_or_ill_typed_fields(change, msg):
    d = parity_check_matrix(gen_for(13, 1, "plus")).to_json_dict()
    for key, value in change.items():
        if value is None:
            del d[key]
        else:
            d[key] = value
    with pytest.raises(ValueError, match=msg):
        matrix_from_json_dict(d)


def test_matrix_entries_beyond_int64_are_reduced_mod_p():
    huge = 13 * 10 ** 30
    mat = matrix_from_text(f"13 1 2 plus\n{huge + 4} {huge + 1}\n1 {-huge}\n")
    assert mat.entries.tolist() == [[4, 1], [1, 0]]
    d = {"p": 13, "k": 1, "n": 2, "family": "plus",
         "rows": [[huge + 4, 1], [1 - huge, 0]]}
    assert matrix_from_json_dict(d).entries.tolist() == [[4, 1], [1, 0]]


def test_matrix_text_preserves_column_order():
    text = "13 1 2 plus\n4 1\n1 0\n"
    mat = matrix_from_text(text)
    assert mat.entries.tolist() == [[4, 1], [1, 0]]


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("13 1 7\n1 2\n", "header"),
    ("13 1 7 plus\n1 2 3\n", "rows"),
    ("13 1 2 plus\n0 1\n0 1\n", "zero"),
    ("13 1 2 plus\n1 12\n0 0\n", "collide"),
])
def test_matrix_text_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        matrix_from_text(text)


# -- coset leader table -----------------------------------------------------------

def test_table_weights_and_syndromes_agree():
    table = table_for(13, 1, "plus")
    mat = table.matrix
    for syn, err in enumerate(table.leaders):
        assert syndrome(mat, err) == syn
        assert lee_weight(err, 13) == table.weights[syn]
    assert table.max_weight == 3
    assert table.histogram() == {0: 1, 1: 14, 2: 98, 3: 56}


def test_table_census_equals_layer_sizes():
    for p, k, family in [(13, 1, "plus"), (23, 1, "minus"), (5, 1, "minus")]:
        table = table_for(p, k, family)
        layers = cumulative_layers(gen_for(p, k, family))
        for w, s in enumerate(layers.sizes):
            assert table.census(w) == s


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (7, 1, "minus"), (13, 1, "plus"), (11, 1, "minus"),
])
def test_leaders_attain_minimal_weight(p, k, family):
    """Exhaustive oracle: brute-force minimum Lee weight per syndrome."""
    table = table_for(p, k, family)
    mat = table.matrix
    n = mat.n
    best = {}
    for v in lee_ball_vectors(n, p, table.max_weight):
        s = syndrome(mat, v)
        w = lee_weight(v, p)
        best[s] = min(best.get(s, n * p), w)
    assert len(best) == table.size
    for s, w in best.items():
        assert table.weights[s] == w


@pytest.mark.parametrize("p,k,family", [
    (13, 1, "plus"), (5, 1, "minus"), (7, 1, "minus"), (23, 1, "minus"),
    (5, 2, "plus"), (7, 2, "minus"),
])
def test_table_matches_scalar_bfs_oracle(p, k, family):
    mat = matrix_for(p, k, family)
    table = coset_leader_table(mat)
    leaders, weights = scalar_bfs_leaders(mat)
    assert table.leaders == leaders
    assert table.weights.tolist() == weights
    syns = np.arange(table.size)
    assert table.leader_words(syns).tolist() == [list(v) for v in leaders]


def test_table_is_a_bfs_tree():
    table = table_for(5, 1, "minus")  # radius 4
    assert table.max_weight == 4
    assert (table.parent[0], table.step[0], table.weights[0]) == (0, -1, 0)
    rest = np.arange(1, table.size)
    # every edge goes one level down and is a +-1 step at a valid position
    assert (table.weights[table.parent[rest]] == table.weights[rest] - 1).all()
    assert ((table.step[rest] >= 0) & (table.step[rest] < 2 * table.matrix.n)).all()
    assert table.parent.dtype == table.step.dtype == np.int32


def test_table_is_deterministic():
    t1 = table_for(13, 1, "plus")
    t2 = table_for(13, 1, "plus")
    assert t1.leaders == t2.leaders


def test_uncoverable_generator_raises():
    gen = gen_for(3, 1, "minus")
    with pytest.raises(CoverageError, match="stalled"):
        coset_leader_table(parity_check_matrix(gen))


def test_cap_too_small_raises():
    # +-(1, 0), +-(0, 1) over F_23: the Lee metric of Z_23^2, radius 22
    base = make_field(23)
    gen = from_representatives(base, "minus",
                               [pair_index(base, 1, 0), pair_index(base, 0, 1)])
    with pytest.raises(CoverageError, match=f"exceeded {MAX_LAYERS} levels"):
        coset_leader_table(parity_check_matrix(gen))


# -- decoding ---------------------------------------------------------------------

def test_decode_identifies_planted_errors():
    table = table_for(13, 1, "plus")
    cw = tuple([0] * 7)
    for err in lee_ball_vectors(7, 13, 2):
        got = decode(table, err)
        assert got.codeword == cw
        assert got.error == err
        assert got.weight == lee_weight(err, 13)


def test_decode_result_holds_python_ints():
    table = table_for(13, 1, "plus")
    res = decode(table, [25, -1, 0, 3, 0, 0, 40])
    assert all(type(v) is int for v in res.codeword + res.error)
    assert type(res.weight) is int and type(res.syndrome) is int
    assert res.error == table.leaders[res.syndrome]


def test_decode_is_translation_invariant():
    table = table_for(13, 1, "plus")
    rng = np.random.default_rng(3)
    base = decode(table, rng.integers(0, 13, size=7)).codeword
    for _ in range(20):
        w = rng.integers(0, 13, size=7)
        plain = decode(table, w)
        shifted = decode(table, (w + np.array(base)) % 13)
        assert shifted.error == plain.error
        assert shifted.codeword == tuple((c + b) % 13
                                         for c, b in zip(plain.codeword, base))


@pytest.mark.parametrize("p,k,family", [(13, 1, "plus"), (23, 1, "minus"),
                                          (5, 2, "plus"), (7, 2, "minus")])
def test_decode_words_match_scalar_decode(p, k, family):
    # random words with entries outside [0, p), then the whole radius-2 ball
    table = table_for(p, k, family)
    n = table.matrix.n
    rng = np.random.default_rng(p * k)
    words = np.concatenate([rng.integers(-3 * p, 3 * p, size=(300, n)),
                            lee_ball_array(n, p, 2)])
    cws, errs, weights, syns = decode_words(table, words)
    assert cws.shape == errs.shape == words.shape
    for i, word in enumerate(words.tolist()):
        want = scalar_decode(table, word)
        got = DecodeResult(tuple(cws[i].tolist()), tuple(errs[i].tolist()),
                           int(weights[i]), int(syns[i]))
        assert got == want == decode(table, word)


def test_decode_reduces_huge_and_negative_entries():
    table = table_for(13, 1, "plus")
    word = [10 ** 30 + 1, -(10 ** 30 + 1), -1, 14, 0, 0, -27]
    reduced = [c % 13 for c in word]
    want = scalar_decode(table, word)
    assert decode(table, word) == decode(table, reduced) == want
    cws, errs, _, _ = decode_words(table, [word, reduced])
    assert tuple(cws[0].tolist()) == tuple(cws[1].tolist()) == want.codeword
    assert tuple(errs[0].tolist()) == want.error


def test_decode_words_rejects_wrong_length():
    table = table_for(13, 1, "plus")
    with pytest.raises(ValueError, match="expected 7, got 3"):
        decode_words(table, [[1, 2, 3]])
    with pytest.raises(ValueError, match="expected 7, got 3"):
        decode(table, [1, 2, 3])


def test_round_trips_both_example_codes():
    for p, family in [(13, "plus"), (23, "minus")]:
        table = table_for(p, 1, family)
        ok, trials = round_trip_check(table, trials=1000, seed=0)
        assert (ok, trials) == (1000, 1000)


@pytest.mark.parametrize("block", [codes._ROUND_TRIP_BLOCK, 7])
def test_round_trip_rng_stream_is_pinned(monkeypatch, block):
    # the value of the one-word-at-a-time decoder, which drew a random word
    # and then an error index per trial; batches of any size, the last one
    # short, keep that order
    monkeypatch.setattr(codes, "_ROUND_TRIP_BLOCK", block)
    table = table_for(13, 1, "plus")
    assert round_trip_check(table, trials=300, seed=1, max_weight=3) == (99, 300)
    assert round_trip_check(table, trials=0, seed=1) == (0, 0)


def test_round_trip_rejects_negative_trials():
    table = table_for(13, 1, "plus")
    with pytest.raises(ValueError, match="nonnegative"):
        round_trip_check(table, trials=-5, seed=0)


def test_round_trip_at_weight_three_can_fail():
    # beyond the guarantee: radius-3 errors are corrected only when the
    # planted error happens to be its coset's chosen leader
    table = table_for(13, 1, "plus")
    ok, trials = round_trip_check(table, trials=300, seed=1, max_weight=3)
    assert ok < trials


# -- code parameters and verification ----------------------------------------------

def test_code_parameters_p13():
    code = build_code(13, 1, "plus")
    assert (code.n, code.dimension, code.codeword_count) == (7, 5, 371293)
    assert code.density == pytest.approx(1 / 169)
    assert (code.error_correction, code.covering_radius) == (2, 3)
    assert code.verdict == "QuasiPerfect2"


def test_code_parameters_p23():
    code = build_code(23, 1, "minus")
    assert (code.n, code.dimension) == (11, 9)
    assert code.codeword_count == 23 ** 9
    assert (code.error_correction, code.covering_radius) == (2, 3)
    assert code.verdict == "QuasiPerfect2"


def test_verify_quasi_perfect_p13():
    rep = verify_quasi_perfect(build_code(13, 1, "plus"))
    assert rep.quasi_perfect
    assert rep.census_consistent and rep.unique_minimal
    assert (rep.error_correction, rep.covering_radius) == (2, 3)
    d = rep.to_json_dict()
    assert d["quasi_perfect"] is True
    assert d["leader_weight_histogram"] == {"0": 1, "1": 14, "2": 98, "3": 56}


def test_verify_skips_radius_three_ball_by_pigeonhole(monkeypatch):
    code = build_code(97, 1, "plus")
    assert lee_ball_size(code.n, 3) > 97 ** 2
    real = codes.lee_ball_array

    def no_radius_three(n, p, radius):
        if radius >= 3:
            raise AssertionError("radius-3 ball must not be enumerated")
        return real(n, p, radius)

    monkeypatch.setattr(codes, "lee_ball_array", no_radius_three)
    rep = verify_quasi_perfect(code)
    assert (rep.error_correction, rep.covering_radius) == (2, 3)
    assert rep.quasi_perfect


def test_verify_rejects_mismatched_table():
    code = build_code(13, 1, "plus")
    other = table_for(5, 1, "minus")
    with pytest.raises(VerificationError):
        verify_quasi_perfect(code, other)


def test_verify_q5_minus_not_quasi_perfect():
    code = build_code(5, 1, "minus")
    assert (code.dimension, code.codeword_count) == (0, 1)
    rep = verify_quasi_perfect(code)
    assert not rep.quasi_perfect
    assert (rep.error_correction, rep.covering_radius) == (2, 4)
    assert rep.census_consistent


def test_verify_q7_minus_low_correction():
    rep = verify_quasi_perfect(build_code(7, 1, "minus"))
    assert (rep.error_correction, rep.covering_radius) == (1, 4)
    assert not rep.unique_minimal
    assert not rep.quasi_perfect


def test_verify_q11_minus_is_quasi_perfect():
    assert verify_quasi_perfect(build_code(11, 1, "minus")).quasi_perfect
