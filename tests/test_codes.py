"""Parity-check matrices, coset-leader decoding and the cross-checked verdict."""

import collections
import functools
import hashlib
import random
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilee import codes, fields
from quasilee.codes import (CosetLeaderTable, DecodeResult, VerificationError,
                            build_code, code_parameters, coset_leader_table,
                            decode, decode_words, matrix_from_json_dict,
                            matrix_from_text, parity_check_matrix, rank_mod_p,
                            round_trip_check, syndrome, syndromes,
                            verify_quasi_perfect)
from quasilee.curves import from_representatives, generator_set
from quasilee.fields import make_field, pair_add, pair_index
from quasilee.sumsets import CoverageError, cumulative_layers, lee_ball_size


def gen_for(p, k, family):
    return generator_set(make_field(p, k), family)


def table_for(p, k, family) -> CosetLeaderTable:
    return coset_leader_table(parity_check_matrix(gen_for(p, k, family)))


@functools.lru_cache(maxsize=None)
def matrix_for(p, k, family):
    return parity_check_matrix(gen_for(p, k, family))


def verified(code):
    return verify_quasi_perfect(code, coset_leader_table(code.matrix))


def leaders_of(table, syns) -> np.ndarray:
    """The leaders of packed syndromes, each taken apart into the 2k
    digits that ``_leaders`` walks."""
    mat = table.matrix
    digits = fields.index_digits(np.asarray(syns), mat.p, len(mat.entries))
    return table._leaders(np.array(digits).T)[0]


def all_leaders(table) -> list:
    """Every leader as a list, index = syndrome."""
    return leaders_of(table, np.arange(len(table.step))).tolist()


def ball_words(n, p, radius) -> list:
    """The words of ``_unrank_ball``, every rank in order.  Each word's
    support must list its pairs first, positions ascending and values
    nonzero, and then only (0, 0) pairs."""
    rows, support = codes._unrank_ball(n, p, radius)
    pos, val = support(np.arange(rows))
    assert pos.dtype == val.dtype == np.int64
    assert pos.shape == val.shape == (2, rows)
    return [dense_word(n, ps, vs, p) for ps, vs in zip(pos.T.tolist(), val.T.tolist())]


def dense_word(n, ps, vs, p) -> tuple:
    """The word whose support is the pairs (ps[t], vs[t]): the nonzero
    pairs first, positions strictly ascending, then (0, 0) pairs only."""
    m = sum(v != 0 for v in vs)
    assert all(0 < v < p for v in vs[:m]) and ps[:m] == sorted(set(ps[:m]))
    assert list(ps[m:]) == list(vs[m:]) == [0] * (len(vs) - m)
    word = [0] * n
    for j, v in zip(ps[:m], vs[:m]):
        word[j] = v
    return tuple(word)


# -- Lee metric ----------------------------------------------------------------

def test_lee_weight_frozen():
    assert oracles.lee_weight([0, 1, 6, 7], 13) == 0 + 1 + 6 + 6
    assert oracles.lee_weight([0, 0, 0], 5) == 0
    assert oracles.lee_weight([4], 7) == 3
    assert oracles.lee_weight([-1], 7) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2).map([5, 7, 13].__getitem__),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_lee_distance_is_a_metric(p, a, b):
    # the Lee distance of a and b is the Lee weight of a - b
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]

    def dist(u, v):
        return oracles.lee_weight([x - y for x, y in zip(u, v)], p)

    assert dist(a, b) == dist(b, a)
    assert (dist(a, b) == 0) == all((x - y) % p == 0 for x, y in zip(a, b))
    assert dist(a, [0] * m) == oracles.lee_weight(a, p)
    assert dist(a, b) <= oracles.lee_weight(a, p) + oracles.lee_weight(b, p)
    assert oracles.lee_weight(a, p) <= m * (p - 1) // 2


# n = 0, radius 0, the wraparound regime p < 2 * radius + 1 at p = 3 and 5
BALL_SWEEP = [(0, 5, 2), (1, 3, 1), (2, 3, 2), (3, 7, 2), (5, 5, 3), (7, 13, 4),
              (12, 3, 3), (20, 7, 3), (62, 5, 2), (4, 7, 0)]


@pytest.mark.parametrize("n,p,radius", BALL_SWEEP)
def test_ball_array_matches_scalar_oracle(n, p, radius):
    # the whole-ball reference of the unranker and, up to radius 3, of
    # ball_injective
    pos, val = oracles.gathered_lee_ball(n, p, radius)
    assert [dense_word(n, ps, vs, p) for ps, vs in zip(pos.tolist(), val.tolist())] \
        == oracles.scalar_lee_ball(n, p, radius)


# the round trip's radii 0, 1 and 2; n = 1; the wraparound regime at p = 3;
# and the code-verify rungs p = 97 plus and p = 5, k = 3 minus
UNRANK_SWEEP = [(1, 3, 1), (2, 3, 2), (3, 7, 2), (62, 5, 2), (4, 7, 0), (1, 5, 2),
                (2, 5, 2), (7, 13, 2), (12, 23, 2), (1, 3, 2), (4, 3, 2), (5, 3, 2),
                (49, 97, 2), (7, 13, 1), (3, 3, 1), (62, 5, 1), (1, 5, 0)]


@pytest.mark.parametrize("n,p,radius", UNRANK_SWEEP)
def test_any_ranks_unrank_to_the_gathered_rows(n, p, radius):
    # ranks shuffled, repeated, the first and the last, and none at all;
    # past the gathered ball's min(radius, n) columns only (0, 0) pairs
    ref_pos, ref_val = oracles.gathered_lee_ball(n, p, radius)
    width = ref_pos.shape[1]
    rows, support = codes._unrank_ball(n, p, radius)
    assert rows == len(ref_pos)
    rng = np.random.default_rng(rows)
    ranks = np.concatenate([[rows - 1, 0], rng.permutation(rows),
                            rng.integers(0, rows, 40), [0, rows - 1, rows - 1]])
    for r in (ranks, ranks[:0]):
        pos, val = support(r)
        assert pos.shape == val.shape == (2, len(r))
        assert (pos[:width].T == ref_pos[r]).all() and (val[:width].T == ref_val[r]).all()
        assert not pos[width:].any() and not val[width:].any()


def test_ball_vectors_are_distinct_and_light():
    ball = ball_words(3, 7, 2)
    assert ball == oracles.scalar_lee_ball(3, 7, 2)
    assert len(ball) == len(set(ball)) == 25
    assert all(oracles.lee_weight(v, 7) <= 2 for v in ball)
    assert all(0 <= c < 7 for v in ball for c in v)
    # wraparound regime: radius 2 over Z_3 in two coordinates gives all words
    assert len(ball_words(2, 3, 2)) == 9


def test_verify_and_round_trip_hold_no_ball():
    # p = 1021 plus: the radius-2 ball has 523 265 words, whose supports
    # alone take 16.7 MB; held whole, they took a 25 MiB peak in each call
    code = build_code(1021, 1, "plus")
    table = coset_leader_table(code.matrix)
    for call in (lambda: verify_quasi_perfect(code, table).quasi_perfect,
                 lambda: round_trip_check(table, trials=200, seed=0) == (200, 200)):
        tracemalloc.start()
        try:
            assert call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_ball_arrays_are_read_only():
    # to its callers: no ball is shared, each call returns arrays of its
    # own, and writing into them changes neither the ranks nor later rows
    ref_pos, ref_val = oracles.gathered_lee_ball(7, 13, 2)
    rows, support = codes._unrank_ball(7, 13, 2)
    ranks = np.arange(rows)
    pos, val = support(ranks)
    pos[...] = val[...] = -1
    for again in (support, codes._unrank_ball(7, 13, 2)[1]):
        pos, val = again(ranks)
        assert (pos.T == ref_pos).all() and (val.T == ref_val).all()
    assert (ranks == np.arange(rows)).all()


@pytest.mark.parametrize("bad", [[-1], [0, 25], [25]])
def test_ranks_outside_the_ball_are_refused(bad):
    rows, support = codes._unrank_ball(3, 7, 2)
    assert rows == 25
    with pytest.raises(ValueError, match=r"\[0, 25\)"):
        support(np.array(bad))


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
    assert got.tolist() == [oracles.scalar_syndrome(mat, w) for w in words]
    assert syndrome(mat, words[0]) == got[0]


def test_syndrome_reduces_huge_entries():
    mat = matrix_for(13, 1, "plus")
    word = [10 ** 30, -(10 ** 25), 3, 0, 0, 0, 1]
    assert syndrome(mat, word) == oracles.scalar_syndrome(mat, word)


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
    # JSON true/false are bool, a subclass of int, but not integers
    ({"k": True}, "'k' is missing or not of type int"),
    ({"rows": [[True] * 7, [0] * 7]}, "'rows' must hold lists of integers"),
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
    depths = oracles.tree_depths(table)
    for syn, err in enumerate(all_leaders(table)):
        assert syndrome(mat, err) == syn
        assert oracles.lee_weight(err, 13) == depths[syn]
    assert table.max_weight == 3
    assert table.levels == (1, 14, 98, 56)


def test_table_census_equals_layer_sizes():
    for p, k, family in [(13, 1, "plus"), (23, 1, "minus"), (5, 1, "minus")]:
        table = table_for(p, k, family)
        layers = cumulative_layers(gen_for(p, k, family))
        census = np.cumsum(table.levels)
        for w, s in enumerate(layers.sizes):
            assert census[min(w, table.max_weight)] == s


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (7, 1, "minus"), (13, 1, "plus"), (11, 1, "minus"),
])
def test_leaders_attain_minimal_weight(p, k, family):
    """Exhaustive oracle: brute-force minimum Lee weight per syndrome."""
    table = table_for(p, k, family)
    mat = table.matrix
    n = mat.n
    best = {}
    for v in oracles.scalar_lee_ball(n, p, table.max_weight):
        s = syndrome(mat, v)
        w = oracles.lee_weight(v, p)
        best[s] = min(best.get(s, n * p), w)
    depths = oracles.tree_depths(table)
    assert len(best) == len(depths)
    for s, w in best.items():
        assert depths[s] == w


@pytest.mark.parametrize("p,k,family", [
    (13, 1, "plus"), (5, 1, "minus"), (7, 1, "minus"), (23, 1, "minus"),
    (5, 2, "plus"), (7, 2, "minus"),
])
def test_table_matches_scalar_bfs_oracle(p, k, family):
    mat = matrix_for(p, k, family)
    table = coset_leader_table(mat)
    leaders, weights = oracles.scalar_bfs_leaders(mat)
    assert all_leaders(table) == [list(v) for v in leaders]
    assert oracles.tree_depths(table).tolist() == weights


def test_table_does_not_depend_on_chunk_size(monkeypatch):
    default = {c: coset_leader_table(matrix_for(*c))
               for c in [(97, 1, "plus"), (5, 3, "minus")]}
    monkeypatch.setattr(fields, "CHUNK_ENTRIES", 1)  # one frontier row a chunk
    for config, want in default.items():
        got = coset_leader_table(matrix_for(*config))
        for name in ("step", "levels"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    for config in [(13, 1, "plus"), (23, 1, "minus"), (5, 2, "plus")]:
        mat = matrix_for(*config)
        leaders, weights = oracles.scalar_bfs_leaders(mat)
        table = coset_leader_table(mat)
        assert all_leaders(table) == [list(v) for v in leaders]
        assert oracles.tree_depths(table).tolist() == weights


def test_bfs_stops_at_the_chunk_that_fills_the_table(monkeypatch):
    # p = 307 plus: 94 249 syndromes, 49 frontier chunks of 1024 rows (2n =
    # 308 entries each) up to level 3, of which the sixth fills the table;
    # every chunk makes one _first_hits call
    monkeypatch.setattr(fields, "CHUNK_ENTRIES", 1024 * 308)
    mat = matrix_for(307, 1, "plus")
    calls, first_hits = [], codes._first_hits
    monkeypatch.setattr(codes, "_first_hits",
                        lambda *args: calls.append(1) or first_hits(*args))
    table = coset_leader_table(mat)
    assert len(calls) == 6
    assert table.levels == (1, 308, 47432, 46508)


def bfs_shifts(gen) -> np.ndarray:
    """The BFS's shift array: +beta_j, then -beta_j, for each j."""
    beta = np.array(gen.reps, dtype=np.int64)
    return np.stack([beta, fields.pair_neg(gen.base, beta)], axis=1).ravel()


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (97, 1), (3, 2), (3, 3),
                                 (5, 2), (5, 3), (7, 2)])
@pytest.mark.parametrize("family", ["plus", "minus"])
def test_shift_adder_matches_pair_add(p, k, family):
    gen = gen_for(p, k, family)
    ctx, shifts = gen.base, bfs_shifts(gen)
    add = codes._shift_adder(ctx, shifts)
    # int32 rows, as the BFS queue hands them over; pair_add reads the same
    # tables, the digit loop of tests/oracles.py none
    every = np.arange(gen.ambient_size, dtype=np.int32)
    for rows in fields.chunks(every, shifts.size):
        got = add(rows)
        assert got.dtype == np.intp
        assert np.array_equal(got, pair_add(ctx, rows[:, None], shifts))
        assert np.array_equal(got, oracles.index_add(rows[:, None].astype(np.int64),
                                                     shifts, p, 2 * k))


@pytest.mark.parametrize("config", [(307, 1, "plus"), (5, 3, "minus")])
def test_bfs_adds_without_index_add(monkeypatch, config):
    # the per-chunk addition is lookups in the field's tables: no addition
    # call (FieldCtx.add, pair_add, the digit loop of tests/oracles.py) and
    # no table build, whatever the chunk count, and the tree is the one
    # found with the digit loop as the BFS's adder
    mat = matrix_for(*config)
    want = coset_leader_table(mat)
    calls = []
    for home, name in ((fields.FieldCtx, "add"), (fields, "pair_add"),
                       (fields, "_digit_map"), (oracles, "index_add")):
        monkeypatch.setattr(home, name, lambda *args, fn=getattr(home, name):
                            calls.append(1) or fn(*args))
    counts = []
    for entries in (fields.CHUNK_ENTRIES, 64 * mat.n):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        before = len(calls)
        table = coset_leader_table(mat)
        counts.append(len(calls) - before)
        assert np.array_equal(table.step, want.step) and table.levels == want.levels
    assert counts == [0, 0]
    p, k = mat.p, mat.generator.k
    monkeypatch.setattr(codes, "_shift_adder", lambda ctx, shifts: (
        lambda rows: oracles.index_add(rows[:, None].astype(np.int64), shifts,
                                       p, 2 * k)))
    table = coset_leader_table(mat)
    assert np.array_equal(table.step, want.step) and table.levels == want.levels


def test_table_is_a_bfs_tree():
    table = table_for(5, 1, "minus")  # radius 4
    assert table.max_weight == 4
    assert table.step[0] == 2 * table.matrix.n  # the root's zero shift
    depths = oracles.tree_depths(table)
    parents = oracles.tree_parents(table)
    rest = np.arange(1, len(depths))
    # every edge goes one step closer to the root, is a +-1 step at a valid
    # position, and the levels count the syndromes at each depth
    assert (depths[rest] - depths[parents[rest]] == 1).all()
    assert ((table.step[rest] >= 0) & (table.step[rest] < 2 * table.matrix.n)).all()
    assert table.step.dtype == np.int32
    assert tuple(np.bincount(depths).tolist()) == table.levels


def test_table_is_deterministic():
    t1 = table_for(13, 1, "plus")
    t2 = table_for(13, 1, "plus")
    assert all_leaders(t1) == all_leaders(t2)


# sha256 of parent.tobytes() + step.tobytes() + depths.tobytes(), the depths
# as int32, taken from the sort-based BFS that kept each syndrome's first
# hit by np.unique and stored the depths as its weights array; that BFS
# stored the parents and the root's step -1, which the test rebuilds
TREE_SHA256 = {
    (97, 1, "plus"): "f18027b33d0e5e3791dec82c7639cc7fa4a18794e3c952a0093b4d3af5e4f5f8",
    (5, 3, "minus"): "f6de1c36b1308a477daa8e3d8277b186bba1132afc6132b0318e5a1472d3b2df",
    (7, 2, "minus"): "b91d3ad913c4436084ce88e18c1e40bb7041fc88798fa0d3dd5c9ce6b95415b7",
    (13, 2, "plus"): "d68ed9b8ecc6cf143194c8bd52cf52b2df03fb173352a30b6078882997289e38",
    (307, 1, "plus"): "10f2d8cd3ccd6a7614e7931407627e4e94de5a0d15bbd1c5c95257865187d9af",
}


@pytest.mark.parametrize("config", sorted(TREE_SHA256))
def test_bfs_tree_is_pinned(config):
    table = coset_leader_table(matrix_for(*config))
    parents = oracles.tree_parents(table).astype(np.int32)
    step = table.step.copy()
    step[0] = -1
    depths = oracles.tree_depths(table).astype(np.int32)
    raw = parents.tobytes() + step.tobytes() + depths.tobytes()
    assert hashlib.sha256(raw).hexdigest() == TREE_SHA256[config]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=200))
def test_first_hits_match_sorted_unique(values):
    hits = np.array(values, dtype=np.int64)
    scratch = np.full(41, -1, dtype=np.int32)
    want = np.sort(np.unique(hits, return_index=True)[1])
    assert codes._first_hits(hits, scratch).tolist() == want.tolist()


def test_histogram_counts_every_weight():
    code = build_code(5, 1, "minus")  # radius 4
    table = coset_leader_table(code.matrix)
    want = collections.Counter(oracles.tree_depths(table).tolist())
    hist = verify_quasi_perfect(code, table).to_json_dict()["leader_weight_histogram"]
    assert hist == {str(w): c for w, c in sorted(want.items())}
    assert list(hist) == [str(w) for w in sorted(want)]


def test_uncoverable_generator_raises():
    gen = gen_for(3, 1, "minus")
    with pytest.raises(CoverageError) as exc:
        coset_leader_table(parity_check_matrix(gen))
    assert str(exc.value) == "coset table stalled with 6 syndromes unassigned"


def test_cap_too_small_raises():
    # +-(1, 0), +-(0, 1) over F_23: the Lee metric of Z_23^2, radius 22
    base = make_field(23)
    gen = from_representatives(base, "minus",
                               [pair_index(base, 1, 0), pair_index(base, 0, 1)])
    with pytest.raises(CoverageError) as exc:
        coset_leader_table(parity_check_matrix(gen))
    assert str(exc.value) == "coset table exceeded 8 levels with 384 syndromes unassigned"


def test_table_build_peaks_below_two_int32_tables():
    # p = 1021 plus: q^2 = 1 042 441 syndromes, so one int32 table is
    # 4 MiB; step and the BFS queue are two, a chunk the rest
    mat = matrix_for(1021, 1, "plus")
    tracemalloc.start()
    try:
        table = coset_leader_table(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.max_weight == 3
    assert peak < 10 << 20


# -- decoding ---------------------------------------------------------------------

def test_decode_identifies_planted_errors():
    table = table_for(13, 1, "plus")
    cw = tuple([0] * 7)
    for err in oracles.scalar_lee_ball(7, 13, 2):
        got = decode(table, err)
        assert got.codeword == cw
        assert got.error == tuple(err)
        assert got.weight == oracles.lee_weight(err, 13)


def test_decode_result_holds_python_ints():
    table = table_for(13, 1, "plus")
    res = decode(table, [25, -1, 0, 3, 0, 0, 40])
    assert all(type(v) is int for v in res.codeword + res.error)
    assert type(res.weight) is int and type(res.syndrome) is int
    assert list(res.error) == leaders_of(table, [res.syndrome])[0].tolist()


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
                                          (5, 1, "minus"), (5, 2, "plus"),
                                          (7, 2, "minus")])
def test_decode_words_match_scalar_decode(p, k, family):
    # random words with entries outside [0, p), then the whole radius-2 ball;
    # at p = 5 minus (radius 4) most rows reach the root before the last hop
    table = table_for(p, k, family)
    n = table.matrix.n
    rng = np.random.default_rng(p * k)
    words = np.concatenate([rng.integers(-3 * p, 3 * p, size=(300, n)),
                            oracles.scalar_lee_ball(n, p, 2)])
    cws, errs, weights, syns = decode_words(table, words)
    assert cws.shape == errs.shape == words.shape
    for i, word in enumerate(words.tolist()):
        want = oracles.scalar_decode(table, word)
        got = DecodeResult(tuple(cws[i].tolist()), tuple(errs[i].tolist()),
                           int(weights[i]), int(syns[i]))
        assert got == want == decode(table, word)


def test_decode_reduces_huge_and_negative_entries():
    table = table_for(13, 1, "plus")
    word = [10 ** 30 + 1, -(10 ** 30 + 1), -1, 14, 0, 0, -27]
    reduced = [c % 13 for c in word]
    want = oracles.scalar_decode(table, word)
    assert decode(table, word) == decode(table, reduced) == want
    cws, errs, _, _ = decode_words(table, [word, reduced])
    assert tuple(cws[0].tolist()) == tuple(cws[1].tolist()) == want.codeword
    assert tuple(errs[0].tolist()) == want.error


def test_decode_words_leave_in_range_input_alone_and_reduce_any_entry():
    # an int64 array already in [0, p) is used as it is, never written to
    table = table_for(13, 1, "plus")
    p, n = 13, table.matrix.n
    rng = np.random.default_rng(5)
    words = rng.integers(0, p, size=(40, n))
    kept = words.copy()
    assert codes._residues(words, p) is words
    syns = syndromes(table.matrix, words)
    cws, errs, _, got_syns = decode_words(table, words)
    assert (words == kept).all()
    assert (got_syns == syns).all() and ((cws + errs) % p == words).all()
    # each entry decodes as its residue, alone and beside a huge Python int
    values = [p - 1, p, -1, 2 ** 63 - 1, 10 ** 30]
    rows = [[int(c) for c in rng.integers(0, p, size=n)] for _ in values]
    for row, v in zip(rows, values):
        row[v % n] = v
    reduced = [[c % p for c in row] for row in rows]
    want = decode_words(table, reduced)
    for batch in (rows, rows[:-1]):
        got = decode_words(table, batch)
        assert all((g == w[:len(batch)]).all() for g, w in zip(got, want))
    for row, res in zip(rows, reduced):
        assert decode(table, row) == decode(table, res) == oracles.scalar_decode(table, row)


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


@pytest.mark.parametrize("block", [None, 7])
def test_round_trip_rng_stream_is_pinned(monkeypatch, block):
    # each trial decodes a random word, then that codeword plus the error
    # of a random rank: the words and the planted errors are those of the
    # per-trial randrange loop, the error the scalar ball's row at the
    # picked rank, in batches of any size (the default budget's or 7
    # trials, the last one short)
    if block is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", block * 7)  # n = 7
    table = table_for(13, 1, "plus")
    calls = []

    def recorded(tab, words):
        out = decode_words(tab, words)
        calls.append((np.array(words), out[0]))
        return out

    monkeypatch.setattr(codes, "decode_words", recorded)
    assert round_trip_check(table, trials=300, seed=1) == (300, 300)
    words = np.concatenate([w for w, _ in calls[::2]])
    planted = np.concatenate([w - cw for (w, cw), _ in
                              zip(calls[1::2], calls[::2])])
    ball = oracles.scalar_lee_ball(7, 13, 2)
    want_words, picks = oracles.scalar_trial_draws(
        random.Random(1), 300, 7, 13, len(ball))
    assert words.tolist() == want_words
    assert [tuple(e) for e in planted.tolist()] == [ball[i] for i in picks]
    assert block is None or max(len(w) for w, _ in calls) == block
    assert round_trip_check(table, trials=0, seed=1) == (0, 0)


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("n,p,size", [
    (49, 97, 4901),   # p = 97 plus, the radius-2 ball
    (62, 5, 7813),    # p = 5, k = 3 minus, the radius-2 ball
    (64, 127, 129),   # p = 127 plus, the radius-1 ball: 2^7 + 1 words
    (7, 13, 1),       # the radius-0 ball: randrange(1) still draws
], ids=["97plus", "5k3minus", "127plus-r1", "13plus-r0"])
def test_bulk_draws_match_the_randrange_stream(monkeypatch, n, p, size, block):
    if block is not None:
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", block * n)
    for seed in (0, 1, 2 ** 31 - 1):
        chunks = list(codes._trial_draws(random.Random(seed), 300, n, p, size))
        words = np.concatenate([w for w, _ in chunks]).tolist()
        picks = np.concatenate([k for _, k in chunks]).tolist()
        assert (words, picks) == oracles.scalar_trial_draws(
            random.Random(seed), 300, n, p, size)
        assert block is None or max(len(k) for _, k in chunks) == block


def test_round_trip_rejects_negative_trials():
    table = table_for(13, 1, "plus")
    with pytest.raises(ValueError, match="nonnegative"):
        round_trip_check(table, trials=-5, seed=0)


def test_round_trip_refuses_a_ball_above_the_cap_before_enumerating(monkeypatch):
    # 724 representatives over p = 41: q^2 = 1 681 is far below the BFS's
    # gate, yet #B_2 = 1 049 801 words exceeds VERTEX_CAP = 2^20.  The ball
    # is not held, but the cap keeps the picks' bulk 32-bit draws exact.
    # A weight above 2, the codes' guarantee, is refused by name
    assert fields.VERTEX_CAP < 2 ** 32
    ctx = make_field(41)
    idx = np.arange(1, ctx.q ** 2)
    reps = idx[idx < fields.pair_neg(ctx, idx)][:724]
    table = coset_leader_table(parity_check_matrix(
        from_representatives(ctx, "plus", reps)))

    def refuse(*args):
        raise AssertionError("the round trip drew or unranked")

    def unranked(*args):
        rows, _ = real(*args)
        return rows, refuse
    real = codes._unrank_ball
    monkeypatch.setattr(codes, "_unrank_ball", unranked)
    monkeypatch.setattr(codes, "_trial_draws", refuse)
    with pytest.raises(ValueError, match="1049801 words, more than 1048576"):
        round_trip_check(table, trials=10, seed=0, max_weight=2)
    for bad in (3, -1):
        with pytest.raises(ValueError, match=f"at most 2, got max_weight = {bad}"):
            round_trip_check(table, trials=10, seed=0, max_weight=bad)


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
    rep = verified(build_code(13, 1, "plus"))
    assert rep.quasi_perfect
    assert rep.unique_minimal
    assert (rep.error_correction, rep.covering_radius) == (2, 3)
    d = rep.to_json_dict()
    assert d["quasi_perfect"] is True and d["census_consistent"] is True
    assert d["leader_weight_histogram"] == {"0": 1, "1": 14, "2": 98, "3": 56}


def test_verify_enumerates_no_lee_ball(monkeypatch):
    # t comes from the census: no Lee ball is enumerated at any radius
    def refuse(*args):
        raise AssertionError("verify_quasi_perfect enumerated a Lee ball")

    for p in (13, 97):
        code = build_code(p, 1, "plus")
        table = coset_leader_table(code.matrix)
        monkeypatch.setattr(codes, "_unrank_ball", refuse)
        rep = verify_quasi_perfect(code, table)
        monkeypatch.undo()
        assert (rep.error_correction, rep.covering_radius) == (2, 3)
        assert rep.quasi_perfect


# every prime 5 <= p <= 101, and the extension fields; p = 5 is the edge
# where the radius-3 ball wraps around
VERIFY_FIELDS = [(p, 1) for p in range(5, 102)
                 if fields.is_prime(p)] + [(5, 2), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,k", VERIFY_FIELDS)
def test_verify_error_correction_is_the_largest_injective_ball(p, k):
    # the largest w <= min(3, R) with p >= 2w + 1 whose Lee ball the
    # syndrome map takes injectively, by the whole-ball oracle
    for family in ("plus", "minus"):
        code = build_code(p, k, family)
        rep = verified(code)
        assert rep.error_correction == max(
            w for w in range(min(3, rep.covering_radius) + 1)
            if p >= 2 * w + 1 and oracles.ball_injective(code.matrix, w))


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
def test_census_meets_the_ball_exactly_where_the_map_is_injective(p, k):
    # census[w] = #B_w decides injectivity on B_w while p >= 2w + 1; past
    # that the formula overcounts the wrapped ball, which the census, the
    # size of its image, then never reaches, injective or not (3^2 plus:
    # census[2] = 51, the wrapped ball's size, and the formula says 61)
    for family in ("plus", "minus"):
        table = table_for(p, k, family)
        n, census = table.matrix.n, np.cumsum(table.levels)
        for w in range(1, min(3, table.max_weight) + 1):
            at_ball = census[w] == lee_ball_size(n, w)
            if p >= 2 * w + 1:
                assert at_ball == oracles.ball_injective(table.matrix, w)
            else:
                assert not at_ball


def test_verify_and_round_trip_build_no_dense_ball():
    # p = 307 plus: the radius-2 ball has 47 741 words of length 154, which
    # as dense int64 rows alone take 56 MiB
    code = build_code(307, 1, "plus")
    table = coset_leader_table(code.matrix)
    tracemalloc.start()
    try:
        rep = verify_quasi_perfect(code, table)
        assert round_trip_check(table, trials=200, seed=0) == (200, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.quasi_perfect
    assert peak < 16 << 20


def test_verify_rejects_mismatched_table():
    code = build_code(13, 1, "plus")
    other = table_for(5, 1, "minus")
    with pytest.raises(VerificationError):
        verify_quasi_perfect(code, other)


def test_verify_rejects_a_table_whose_census_disagrees():
    # both radii are 3, so the covering radii agree and the census fires
    code = build_code(13, 1, "plus")
    other = table_for(23, 1, "minus")
    assert other.max_weight == code.covering_radius == 3
    with pytest.raises(VerificationError,
                       match="^leader census disagrees with layer sizes$"):
        verify_quasi_perfect(code, other)


def test_verify_q5_minus_not_quasi_perfect():
    code = build_code(5, 1, "minus")
    assert (code.dimension, code.codeword_count) == (0, 1)
    rep = verified(code)
    assert not rep.quasi_perfect
    assert (rep.error_correction, rep.covering_radius) == (2, 4)


def test_verify_q7_minus_low_correction():
    rep = verified(build_code(7, 1, "minus"))
    assert (rep.error_correction, rep.covering_radius) == (1, 4)
    assert not rep.unique_minimal
    assert not rep.quasi_perfect


def test_verify_q11_minus_is_quasi_perfect():
    assert verified(build_code(11, 1, "minus")).quasi_perfect
