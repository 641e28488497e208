"""Cayley-graph spectra: character sums against a dense eigensolver oracle."""

import tracemalloc

import numpy as np
import oracles
import pytest

from quasilee.codes import coset_leader_table, parity_check_matrix
from quasilee.curves import from_representatives, generator_set
from quasilee.fields import (QuadExt, SizeCapError, kloosterman, make_field,
                             pair_neg, unity_cos_sin)
from quasilee.spectra import RAMANUJAN, SpectrumReport, full_spectrum


def spectrum(p, k, family) -> SpectrumReport:
    return full_spectrum(generator_set(make_field(p, k), family))


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (7, 1, "plus"), (3, 2, "plus"),
    (5, 1, "minus"), (7, 1, "minus"), (3, 1, "minus"),
])
def test_matches_dense_eigensolver(p, k, family):
    gen = generator_set(make_field(p, k), family)
    rep = full_spectrum(gen)
    dense = np.linalg.eigvalsh(oracles.adjacency_matrix(gen))
    assert np.allclose(np.sort(rep.eigenvalues), dense, atol=1e-6)


FROZEN_MAX = {
    (5, 1, "plus"): 3.2360679774997894,
    (7, 1, "plus"): 4.493959207434934,
    (3, 2, "plus"): 5.0,
    (11, 1, "plus"): 5.7169527154417,
    (13, 1, "plus"): 6.2962298105587555,
    (13, 1, "minus"): 6.2962298105587555,
    (23, 1, "minus"): 7.96068718656697,
}


@pytest.mark.parametrize("key", sorted(FROZEN_MAX), ids=lambda t: str(t))
def test_frozen_extremes(key):
    rep = spectrum(*key)
    assert rep.max_nontrivial_abs == pytest.approx(FROZEN_MAX[key], abs=1e-6)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_norm_circle_graphs_are_ramanujan(p, k):
    rep = spectrum(p, k, "plus")
    assert rep.classification == RAMANUJAN
    assert rep.max_nontrivial_abs <= rep.ramanujan_bound + 1e-9
    assert rep.connected


def test_hyperbola_bound_and_connectivity():
    for p in (13, 23):
        rep = spectrum(p, 1, "minus")
        q = p
        # Hasse-Weil style bound, independent of the Ramanujan label
        assert rep.max_nontrivial_abs <= 2 * np.sqrt(q) + 1e-9
        assert rep.connected
    # the degree-2 graph on 9 vertices splits into circulant cycles
    assert not spectrum(3, 1, "minus").connected


def test_trivial_eigenvalue_is_degree():
    rep = spectrum(7, 1, "plus")
    assert rep.eigenvalues[0] == pytest.approx(rep.generator.degree, abs=1e-9)
    assert np.sum(np.isclose(rep.eigenvalues, rep.generator.degree, atol=1e-9)) == 1


def test_counts_rows_sum_to_degree():
    gen = generator_set(make_field(11), "minus")
    rep = full_spectrum(gen)
    counts = rep.class_counts[rep.class_index]
    assert counts.shape == (gen.ambient_size, gen.p)
    assert np.all(counts.sum(axis=1) == gen.degree)
    # row 0 pairs every member with exponent zero
    assert counts[0, 0] == gen.degree


def test_scalar_eigenvalue_agrees_with_table():
    gen = generator_set(make_field(13), "plus")
    rep = full_spectrum(gen)
    for alpha in (0, 1, 17, 100):
        assert oracles.eigenvalue(gen, alpha) == \
            pytest.approx(rep.eigenvalues[alpha], abs=1e-9)
    counts = oracles.character_counts(gen, 17)
    assert sum(counts) == gen.degree
    assert list(rep.class_counts[rep.class_index[17]]) == list(counts)


def test_norm_circle_eigenvalues_are_kloosterman_values():
    base = make_field(13)
    ext = QuadExt(base)
    gen = generator_set(base, "plus")
    for alpha in (1, 2, 30, 77, 168):
        nrm = ext.norm(alpha)
        assert nrm != 0
        want = -kloosterman(base, 1, nrm)
        assert oracles.eigenvalue(gen, alpha) == pytest.approx(want, abs=1e-9)


ORACLE_CONFIGS = [(5, 1, "plus"), (5, 1, "minus"), (7, 1, "plus"),
                  (7, 1, "minus"), (13, 1, "plus"), (13, 1, "minus"),
                  (3, 2, "plus"), (5, 2, "minus"), (3, 3, "minus")]


@pytest.mark.parametrize("p,k,family", ORACLE_CONFIGS)
def test_class_counts_match_scalar_oracle(p, k, family):
    gen = generator_set(make_field(p, k), family)
    rep = full_spectrum(gen)
    want = np.array([oracles.character_counts(gen, a) for a in range(gen.ambient_size)])
    assert np.array_equal(rep.class_counts[rep.class_index], want)
    assert len(rep.class_counts) == gen.q + (0 if family == "plus" else 2)
    assert rep.class_index.dtype == np.int32


@pytest.mark.parametrize("p,k,family", [(11, 1, "plus"), (17, 1, "minus"),
                                        (11, 2, "minus")])
def test_class_fold_is_bitwise_the_per_vertex_fold(p, k, family):
    # class counts alone, folded without padding, round some of these
    # eigenvalues differently in the last bits
    rep = spectrum(p, k, family)
    cos, _ = unity_cos_sin(p)
    assert np.array_equal(rep.eigenvalues, rep.class_counts[rep.class_index] @ cos)


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_refuses_generator_set_off_the_curve(family):
    base = make_field(13)
    gen = generator_set(base, family)
    # the curve itself, rebuilt from its representatives, is accepted
    same = from_representatives(base, family, gen.reps)
    assert full_spectrum(same).max_nontrivial_abs == \
        full_spectrum(gen).max_nontrivial_abs
    # right size, one point off the curve
    off = next(z for z in range(1, gen.ambient_size)
               if z not in gen.members and pair_neg(base, z) not in gen.members)
    for reps in ([1, 2, 3], list(gen.reps[:-1]) + [off]):
        with pytest.raises(ValueError, match="not the .* curve"):
            full_spectrum(from_representatives(base, family, reps))


def test_histogram_accounts_for_every_vertex():
    rep = spectrum(7, 1, "minus")
    hist = rep.histogram()
    assert sum(hist.values()) == rep.generator.ambient_size
    assert hist[float(rep.generator.degree)] == 1


def test_budget_cap():
    # q^2 = 1 062 961 > 2^20: the spectrum and the coset table refuse before
    # any q^2-sized array exists, with the message of the CLI's gate
    gen = generator_set(make_field(1031), "minus")
    mat = parity_check_matrix(gen)
    for stage, arg in ((full_spectrum, gen), (coset_leader_table, mat)):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError,
                               match=r"^q\^2 = 1062961 exceeds cap 1048576$"):
                stage(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, stage.__name__


def test_report_json_shape():
    d = spectrum(5, 1, "plus").to_json_dict()
    assert d["classification"] == RAMANUJAN
    assert d["degree"] == 6
    assert d["connected"] is True
    assert len(d["histogram"]) >= 2
