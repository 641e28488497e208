"""Layer growth, Lee ball sizes and the code-theoretic verdict."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilee.curves import generator_set
from quasilee.fields import make_field
from quasilee.sumsets import (NEITHER, QUASI_PERFECT_2, classify,
                              cumulative_layers, lee_ball_size, sumset)


def layers(p, k, family):
    return cumulative_layers(generator_set(make_field(p, k), family))


FROZEN_PLUS = {
    (5, 1): (1, 7, 19, 25),
    (7, 1): (1, 9, 41, 49),
    (3, 2): (1, 11, 51, 81),
    (11, 1): (1, 13, 73, 121),
    (13, 1): (1, 15, 113, 169),
}

FROZEN_MINUS = {
    (3, 1): (1, 3, 3, 3),
    (5, 1): (1, 5, 13, 21, 25),
    (7, 1): (1, 7, 19, 37, 49),
    (3, 2): (1, 9, 33, 65, 81),
    (11, 1): (1, 11, 61, 121),
    (13, 1): (1, 13, 73, 169),
    (23, 1): (1, 23, 265, 529),
}


@pytest.mark.parametrize("p,k", sorted(FROZEN_PLUS), ids=lambda t: str(t))
def test_frozen_plus_layer_sizes(p, k):
    assert layers(p, k, "plus").sizes == FROZEN_PLUS[(p, k)]


@pytest.mark.parametrize("p,k", sorted(FROZEN_MINUS), ids=lambda t: str(t))
def test_frozen_minus_layer_sizes(p, k):
    assert layers(p, k, "minus").sizes == FROZEN_MINUS[(p, k)]


def test_layer_indices():
    lay = layers(13, 1, "plus")
    assert (lay.critical_index, lay.limit_index, lay.covered) == (2, 3, True)
    lay = layers(23, 1, "minus")
    assert (lay.critical_index, lay.limit_index) == (2, 3)
    lay = layers(5, 1, "minus")
    assert (lay.critical_index, lay.limit_index) == (2, 4)
    lay = layers(7, 1, "minus")
    assert (lay.critical_index, lay.limit_index) == (1, 4)
    # q = 11 covers at three steps even though the bare triple sum does not
    lay = layers(11, 1, "minus")
    assert (lay.critical_index, lay.limit_index) == (2, 3)


def test_hyperbola_q3_stalls():
    lay = layers(3, 1, "minus")
    assert lay.stabilized and not lay.covered
    assert lay.limit_index is None


def test_layers_are_nested_and_start_correctly():
    gen = generator_set(make_field(7), "plus")
    lay = cumulative_layers(gen)
    assert np.flatnonzero(lay.masks[0]).tolist() == [0]
    assert np.flatnonzero(lay.masks[1]).tolist() == [0, *gen.members]
    for t in range(len(lay.masks) - 1):
        assert not np.any(lay.masks[t] & ~lay.masks[t + 1])
    assert [int(m.sum()) for m in lay.masks] == list(lay.sizes)


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (5, 1, "minus"), (7, 1, "plus"), (7, 1, "minus"),
    (13, 1, "plus"), (13, 1, "minus"), (3, 2, "plus"), (5, 2, "minus"),
    (3, 3, "minus")])
def test_layers_match_scalar_sumset_oracle(p, k, family):
    gen = generator_set(make_field(p, k), family)
    lay = cumulative_layers(gen)
    grown = {0}
    for t in range(len(lay.masks)):
        assert set(np.flatnonzero(lay.masks[t]).tolist()) == grown, f"layer {t}"
        grown = grown | sumset(grown, gen.members, gen.base)


# -- ball sizes ---------------------------------------------------------------

def test_lee_ball_size_formulas():
    assert [lee_ball_size(7, r) for r in range(4)] == [1, 15, 113, 575]
    assert [lee_ball_size(11, r) for r in range(4)] == [1, 23, 265, 2047]
    with pytest.raises(ValueError):
        lee_ball_size(5, 4)
    with pytest.raises(ValueError):
        lee_ball_size(-1, 2)


def test_lee_ball_size_radius3_always_integer():
    for n in range(1, 60):
        assert (1 + 2 * n) * (3 + 2 * n + 2 * n * n) % 3 == 0
        lee_ball_size(n, 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), r=st.integers(0, 3), p=st.sampled_from([7, 11, 13]))
def test_ball_size_matches_enumeration(n, r, p):
    # formula counts Z_p^n words whenever p >= 2r + 1
    assert lee_ball_size(n, r) == len(oracles.scalar_lee_ball(n, p, r))


# -- raw sumsets ---------------------------------------------------------------

def test_sumset_against_brute_force():
    ctx = make_field(5)
    a = {0, 3, 7, 24}
    b = {1, 5, 19}
    got = sumset(a, b, ctx)
    want = set()
    for x in a:
        for y in b:
            want.add(oracles.pair_add(ctx, x, y))
    assert got == want
    assert sumset(a, {0}, ctx) == a


# -- classification -------------------------------------------------------------

def test_classify_verdicts():
    assert classify(generator_set(make_field(13), "plus")).verdict == QUASI_PERFECT_2
    assert classify(generator_set(make_field(23), "minus")).verdict == QUASI_PERFECT_2
    # inadmissible plus family: second layer stops at 2n^2 + 1 = 19
    cls5 = classify(generator_set(make_field(5), "plus"))
    assert cls5.verdict == NEITHER
    assert cls5.layers.sizes[2] == 19
    assert cls5.layers.critical_index == 1
    # covering exists but at radius 4
    assert classify(generator_set(make_field(5), "minus")).verdict == NEITHER
    # -3 square breaks the minus family at the double-sum stage
    assert classify(generator_set(make_field(13), "minus")).verdict == NEITHER


def test_classify_q11_minus_is_quasi_perfect():
    # below the q > 12 threshold, yet the sandwich test itself passes
    cls = classify(generator_set(make_field(11), "minus"))
    assert cls.verdict == QUASI_PERFECT_2


def test_classify_requires_p_at_least_5():
    with pytest.raises(ValueError, match="p >= 5"):
        classify(generator_set(make_field(3), "minus"))
    with pytest.raises(ValueError, match="p >= 5"):
        classify(generator_set(make_field(3, 2), "plus"))


def test_layers_json_shape():
    d = classify(generator_set(make_field(13), "plus")).to_json_dict()
    assert d["verdict"] == QUASI_PERFECT_2
    assert d["layer_sizes"] == [1, 15, 113, 169]
    assert d["context"]["delta"] == 2
