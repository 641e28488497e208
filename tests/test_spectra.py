"""Cayley-graph spectra: character sums against a dense eigensolver oracle."""

import tracemalloc

import numpy as np
import oracles
import pytest

from quasilee import fields
from quasilee.codes import coset_leader_table, parity_check_matrix
from quasilee.curves import (CurveClasses, curve_classes, from_representatives,
                             generator_set)
from quasilee.fields import (QuadExt, SizeCapError, VerificationError,
                             kloosterman, make_field, pair_neg, unity_cos_sin)
from quasilee.spectra import (_FOLD_ROWS, RAMANUJAN, SpectrumReport,
                              _fourier_distance, _pairing_coefficients,
                              class_counts, full_spectrum)


def spectrum(p, k, family) -> SpectrumReport:
    return full_spectrum(generator_set(make_field(p, k), family))


def vertex_classes(rep) -> np.ndarray:
    """The class of every character alpha."""
    q = rep.generator.q
    alpha = np.arange(q * q)
    return rep.classes.of(alpha % q, alpha // q)


def vertex_eigenvalues(rep) -> np.ndarray:
    """The eigenvalue of every character alpha, read off its class."""
    return rep.class_eigenvalues[vertex_classes(rep)]


def vertex_counts(rep) -> np.ndarray:
    """The exponent counts of every character alpha, read off its class."""
    counts = np.concatenate(list(class_counts(rep.generator, rep.classes)))
    return counts[vertex_classes(rep)]


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (7, 1, "plus"), (3, 2, "plus"),
    (5, 1, "minus"), (7, 1, "minus"), (3, 1, "minus"),
])
def test_matches_dense_eigensolver(p, k, family):
    gen = generator_set(make_field(p, k), family)
    rep = full_spectrum(gen)
    dense = np.linalg.eigvalsh(oracles.adjacency_matrix(gen))
    assert np.allclose(np.sort(vertex_eigenvalues(rep)), dense, atol=1e-6)


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
    eigs = vertex_eigenvalues(rep)
    assert eigs[0] == pytest.approx(rep.generator.degree, abs=1e-9)
    assert np.sum(np.isclose(eigs, rep.generator.degree, atol=1e-9)) == 1


def test_counts_rows_sum_to_degree():
    gen = generator_set(make_field(11), "minus")
    rep = full_spectrum(gen)
    counts = vertex_counts(rep)
    assert counts.shape == (gen.ambient_size, gen.p)
    assert np.all(counts.sum(axis=1) == gen.degree)
    # row 0 pairs every member with exponent zero
    assert counts[0, 0] == gen.degree


def test_scalar_eigenvalue_agrees_with_table():
    gen = generator_set(make_field(13), "plus")
    rep = full_spectrum(gen)
    for alpha in (0, 1, 17, 100):
        assert oracles.eigenvalue(gen, alpha) == \
            pytest.approx(vertex_eigenvalues(rep)[alpha], abs=1e-9)
    counts = oracles.character_counts(gen, 17)
    assert sum(counts) == gen.degree
    assert list(vertex_counts(rep)[17]) == list(counts)


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
    assert np.array_equal(vertex_counts(rep), want)
    assert len(rep.class_eigenvalues) == gen.q + (0 if family == "plus" else 2)
    assert rep.class_eigenvalues.shape == rep.classes.sizes.shape


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("p,k", oracles.KERNEL_FIELDS)
def test_class_counts_match_the_member_route(monkeypatch, p, k, family):
    # the counts read off the composed tables equal the field products and
    # additions bit for bit, also with one class per chunk
    gen = generator_set(make_field(p, k), family)
    classes = curve_classes(gen)
    want = oracles.class_counts_by_mul(gen, classes)
    for entries in (fields.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        assert np.array_equal(np.concatenate(list(class_counts(gen, classes))), want)


@pytest.mark.parametrize("p,k,family", [(11, 1, "plus"), (17, 1, "minus"),
                                        (11, 2, "minus")])
def test_class_fold_is_bitwise_the_per_vertex_fold(p, k, family):
    # class counts alone, folded without padding, round some of these
    # eigenvalues differently in the last bits
    rep = spectrum(p, k, family)
    cos, _ = unity_cos_sin(p)
    assert np.array_equal(vertex_eigenvalues(rep), vertex_counts(rep) @ cos)


@pytest.mark.parametrize("p,k,family", [
    (307, 1, "plus"), (311, 1, "minus"), (13, 2, "plus"),
    (23, 1, "plus"), (23, 1, "minus"), (5, 2, "plus"), (5, 2, "minus"),
])
def test_each_chunk_folded_alone_keeps_the_bits(p, k, family):
    # the fold's bits do not depend on a row's place in its _FOLD_ROWS
    # block: each class_counts chunk folded alone, zero-padded to whole
    # blocks, gives full_spectrum's eigenvalues bit for bit (the spectra of
    # the benchmark's cayley and lemmas inputs)
    gen = generator_set(make_field(p, k), family)
    rep = full_spectrum(gen)
    cos, _ = unity_cos_sin(p)
    alone = []
    for counts in class_counts(gen, rep.classes):
        pad = np.zeros((-len(counts) % _FOLD_ROWS, p), dtype=np.int64)
        alone.extend((np.concatenate((counts, pad)) @ cos)[:len(counts)])
    assert np.array_equal(alone, rep.class_eigenvalues)


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


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (5, 1, "minus"), (7, 1, "plus"), (7, 1, "minus"),
    (13, 1, "plus"), (13, 1, "minus"), (3, 2, "plus"), (5, 2, "plus"),
    (7, 2, "minus"), (5, 3, "minus"),
    # p = 3: digit 0 holds only {0, 1}, and the negation of 1 wraps to 2
    (3, 1, "minus"), (3, 3, "minus"),
])
def test_half_transform_check_matches_the_full_fftn(monkeypatch, p, k, family):
    # also with blocks of one digit-0 column each
    rep = spectrum(p, k, family)
    args = rep.generator, rep.classes, rep.class_eigenvalues
    want = oracles.fourier_distance(*args)
    for entries in (fields.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        assert abs(_fourier_distance(*args) - want) <= 1e-12


@pytest.mark.parametrize("half", ["mirrored", "held"])
@pytest.mark.parametrize("p,k,family", [(13, 1, "plus"), (13, 1, "minus"),
                                        (5, 2, "plus"), (7, 2, "minus")])
def test_fft_check_compares_each_half(monkeypatch, p, k, family, half):
    # the class shifted on the characters whose Fourier index has digit 0,
    # trace(cx * ax), above p // 2 (read off the mirror) or not (held): the
    # two count identities never read the class map, so only the FFT check
    # can see it, also with blocks of one digit-0 column each
    gen = generator_set(make_field(p, k), family)
    ctx, cx = gen.base, _pairing_coefficients(gen)[0]
    of = CurveClasses.of

    def shifted(self, x, y):
        keys = of(self, x, y)
        mirrored = ctx.trace_table[ctx.mul(cx, x)] > p // 2
        return np.where(mirrored == (half == "mirrored"),
                        (keys + 1) % len(self.sizes), keys)
    monkeypatch.setattr(CurveClasses, "of", shifted)
    for entries in (fields.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        with pytest.raises(VerificationError, match="differ from the FFT"):
            full_spectrum(gen)


@pytest.mark.parametrize("p,k,family", [(1021, 1, "plus"), (1021, 1, "minus"),
                                        (31, 2, "minus")])
def test_spectrum_at_the_vertex_cap_holds_no_q2_sized_array(p, k, family):
    # q^2 = 1 042 441 and 923 521 <= 2^20, so the FFT check runs, one block
    # of digit-0 columns at a time: about max(CHUNK_ENTRIES, q^2 / p)
    # complex entries, one column of q^2 / p = 29 791 at 31^2.  Holding the
    # whole half transform (16 B per character) takes 16.5 and 22.0 MiB
    gen = generator_set(make_field(p, k), family)
    tracemalloc.start()
    try:
        rep = full_spectrum(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert rep.classification == RAMANUJAN and rep.connected


def test_histogram_accounts_for_every_vertex():
    rep = spectrum(7, 1, "minus")
    hist = rep.histogram()
    assert sum(hist.values()) == rep.generator.ambient_size
    assert hist[float(rep.generator.degree)] == 1


def test_budget_cap():
    # q^2 = 1 062 961 > 2^20: the coset table refuses before any q^2-sized
    # array exists, with the message of the CLI's gate
    mat = parity_check_matrix(generator_set(make_field(1031), "minus"))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError,
                           match=r"^q\^2 = 1062961 exceeds cap 1048576$"):
            coset_leader_table(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("family", ["plus", "minus"])
def test_spectrum_above_the_vertex_cap_holds_no_q2_array(family):
    # q^2 = 1 062 961 > 2^20: no FFT check, only the two identities; the
    # classes are counted in chunks, so the peak stays far below one
    # float64 per character (8.1 MiB)
    gen = generator_set(make_field(1031), family)
    tracemalloc.start()
    try:
        rep = full_spectrum(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert rep.classification == RAMANUJAN and rep.connected
    assert rep.max_nontrivial_abs <= 2 * np.sqrt(1031)
    assert sum(rep.histogram().values()) == gen.ambient_size


def test_report_json_shape():
    d = spectrum(5, 1, "plus").to_json_dict()
    assert d["classification"] == RAMANUJAN
    assert d["degree"] == 6
    assert d["connected"] is True
    assert len(d["histogram"]) >= 2
