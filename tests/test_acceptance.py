"""Acceptance suite: ten end-to-end checks with pinned values, tolerances
and runtime budgets.  Each check prints one PASS/FAIL line (visible under
``pytest -s``).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import oracles

from quasilee.cli import main
from quasilee.codes import (build_code, coset_leader_table,
                            parity_check_matrix, round_trip_check,
                            verify_quasi_perfect)
from quasilee.curves import generator_set
from quasilee.fields import QuadExt, is_prime, kloosterman, make_field
from quasilee.fields import minus3_character, residue_class_mod12
from quasilee.lemmas import lemma_battery
from quasilee.spectra import RAMANUJAN, full_spectrum
from quasilee.sumsets import CoverageError, cumulative_layers, sumset

PLUS_FIELDS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]   # q = 5,7,9,11,13


@contextmanager
def criterion(num: int, detail: str, budget: float = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:g}s budget")
    except BaseException:
        print(f"[acceptance {num}] FAIL: {detail}")
        raise
    stamp = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget else "")
    print(f"[acceptance {num}] PASS ({stamp}): {detail}")


def sign_classes(cols, p):
    """Canonical form of a column multiset, identifying v with -v."""
    return sorted(min(((a) % p, (b) % p), ((-a) % p, (-b) % p))
                  for a, b in cols)


def cli_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    rc = main([*argv, "--format", "json", "--out", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


# -- 1, 2: the two reference codes --------------------------------------------------

def test_c01_reference_code_p13_plus(tmp_path):
    with criterion(1, "p=13 plus: pinned matrix, dimension 5, 371293 codewords",
                   budget=1.0):
        d = cli_json(tmp_path, "code-gen", "--p", "13", "--k", "1",
                     "--family", "plus")
        assert d["context"]["delta"] == 2
        rows = d["matrix"]["rows"]
        cols = list(zip(rows[0], rows[1]))
        pinned = [(1, 0), (9, 1), (5, 5), (3, 11), (10, 11), (8, 5), (4, 1)]
        assert sign_classes(cols, 13) == sign_classes(pinned, 13)
        assert d["dimension"] == 5
        assert d["codeword_count"] == 371293


def test_c02_reference_code_p23_minus(tmp_path):
    with criterion(2, "p=23 minus: columns (j, 1/j), dimension 9, 23^9 codewords",
                   budget=1.0):
        d = cli_json(tmp_path, "code-gen", "--p", "23", "--k", "1",
                     "--family", "minus")
        rows = d["matrix"]["rows"]
        cols = list(zip(rows[0], rows[1]))
        pinned = [(j, pow(j, -1, 23)) for j in range(1, 12)]
        assert sign_classes(cols, 23) == sign_classes(pinned, 23)
        assert d["dimension"] == 9
        assert d["codeword_count"] == 23 ** 9


# -- 3: double sumset sizes ----------------------------------------------------------

def test_c03_double_sumset_sizes():
    with criterion(3, "double sumset sizes, both families, exact", budget=10.0):
        for p, k in PLUS_FIELDS:
            ctx = make_field(p, k)
            q = ctx.q
            gen = generator_set(ctx, "plus")
            h = set(gen.members)
            h2 = sumset(h, h, ctx)
            assert len(h2) == 1 + (q + 1) ** 2 // 2
            # the part of the double sum outside H and 0 splits on eta(-3)
            strip = len(h2 - h - {0})
            if minus3_character(ctx) == 1:
                assert strip == (q + 1) ** 2 // 2
            else:            # -3 nonsquare, or p = 3 where -3 = 0
                assert strip == (q - 1) * (q + 1) // 2
            assert cumulative_layers(gen).sizes[2] == 1 + (q + 1) + strip
        for p in (23, 47):
            ctx = make_field(p)
            h = set(generator_set(ctx, "minus").members)
            assert len(sumset(h, h, ctx)) == 1 + (p - 1) ** 2 // 2


# -- 4: classification ---------------------------------------------------------------

def test_c04_quasi_perfect_classification():
    with criterion(4, "layer indices and verdicts across both families",
                   budget=5.0):
        for p, family in [(13, "plus"), (23, "minus")]:
            code = build_code(p, 1, family)
            assert (code.error_correction, code.covering_radius) == (2, 3)
            assert code.verdict == "QuasiPerfect2"

        lay = cumulative_layers(generator_set(make_field(5), "plus"))
        assert lay.sizes[2] == 2 * 3 ** 2 + 1 == 19
        assert lay.critical_index == 1

        for p, k in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)]:
            ctx = make_field(p, k)
            q = ctx.q
            gen = generator_set(ctx, "minus")
            h = set(gen.members)
            h3 = sumset(sumset(h, h, ctx), h, ctx)
            # the bare triple sum plus zero never reaches the whole group
            assert len(h3 | {0}) < q * q
            limit = cumulative_layers(gen).limit_index
            if q <= 9:
                assert limit is None or limit > 3
            else:
                # q = 11: cumulative layers do cover at three steps, since
                # C_3 also includes H^(2) and H; only the bare H^(3) falls
                # short, so the covering radius is an honest 3 here
                assert limit == 3


# -- 5: spectral bounds ---------------------------------------------------------------

def test_c05_spectral_bounds():
    with criterion(5, "nontrivial eigenvalues within 2*sqrt(q) + 1e-9",
                   budget=30.0):
        for p, k in PLUS_FIELDS:
            rep = full_spectrum(generator_set(make_field(p, k), "plus"))
            q = p ** k
            assert rep.max_nontrivial_abs <= 2 * np.sqrt(q) + 1e-9
            assert rep.classification == RAMANUJAN
        for p in (13, 23):
            rep = full_spectrum(generator_set(make_field(p), "minus"))
            assert rep.max_nontrivial_abs <= 2 * np.sqrt(p) + 1e-9


# -- 6: eigenvalues through exponential sums -------------------------------------------

def test_c06_eigenvalues_are_kloosterman_values():
    with criterion(6, "circle eigenvalues equal -K(1, norm) and are "
                      "constant on norm classes", budget=10.0):
        for p, k in [(5, 1), (7, 1), (3, 2), (13, 1)]:
            base = make_field(p, k)
            ext = QuadExt(base)
            gen = generator_set(base, "plus")
            rep = full_spectrum(gen)
            z = np.arange(gen.ambient_size)
            eigs = rep.class_eigenvalues[rep.classes.of(z % base.q, z // base.q)]
            by_norm = {}
            for alpha in range(1, gen.ambient_size):
                by_norm.setdefault(ext.norm(alpha), []).append(float(eigs[alpha]))
            assert set(by_norm) == set(range(1, base.q))
            for nrm, vals in by_norm.items():
                assert max(vals) - min(vals) <= 1e-9
                assert abs(vals[0] - (-kloosterman(base, 1, nrm))) <= 1e-9


# -- 7: the brute-force battery ---------------------------------------------------------

def test_c07_lemma_battery():
    with criterion(7, "all battery checks pass for q in {5,7,9,11,13,27,29}; "
                      "mod-12 rule for primes up to 200", budget=20.0):
        for p, k in PLUS_FIELDS + [(3, 3), (29, 1)]:
            checks = lemma_battery(p, k)
            failed = [c.name for c in checks if not c.passed]
            assert not failed, f"q={p ** k}: {failed}"
        for p in range(5, 201):
            if is_prime(p):
                rep = residue_class_mod12(p)   # cross-checks rule vs character
                assert rep.minus3_square == (p % 12 in (1, 7))
                assert rep.minus1_square == (p % 12 in (1, 5))
                assert rep.three_square == (p % 12 in (1, 11))


# -- 8: cubic point counts ----------------------------------------------------------------

def test_c08_cubic_point_counts():
    with criterion(8, "projective cubic counts at q=13: near q+1, above 6",
                   budget=5.0):
        ctx = make_field(13)
        for t in range(13):
            if t == 12:                 # t = -1: the curve degenerates
                continue
            count = oracles.projective_cubic_count(ctx, t)
            assert abs(count - 14) <= 2 * np.sqrt(13)
            assert count - 6 > 0


# -- 9: decoder round trips ------------------------------------------------------------------

def test_c09_decoder_round_trip():
    with criterion(9, "1000 seeded round trips per code; census matches "
                      "layer sizes; max leader weight 3", budget=10.0):
        for p, family in [(13, "plus"), (23, "minus")]:
            gen = generator_set(make_field(p), family)
            table = coset_leader_table(parity_check_matrix(gen))
            assert round_trip_check(table, trials=1000, seed=0) == (1000, 1000)
            layers = cumulative_layers(gen)
            census = np.cumsum(table.levels)
            for w, s in enumerate(layers.sizes):
                assert census[min(w, table.max_weight)] == s
            assert table.max_weight == 3


# -- 10: three routes to (t, R) ----------------------------------------------------------------

def test_c10_cross_route_equivalence():
    with criterion(10, "sumset indices equal decoder-table (t, R) on every "
                       "configuration above"):
        for p, family in [(13, "plus"), (23, "minus"), (5, "plus"),
                          (5, "minus"), (7, "minus"), (11, "minus")]:
            code = build_code(p, 1, family)
            # raises on any route mismatch
            rep = verify_quasi_perfect(code, coset_leader_table(code.matrix))
            lay = code.classification.layers
            assert rep.error_correction == lay.critical_index
            assert rep.covering_radius == lay.limit_index

        # p = 3 sits below the classification threshold: compare the
        # table route against the layer route directly
        gen = generator_set(make_field(3, 2), "minus")
        table = coset_leader_table(parity_check_matrix(gen))
        lay = cumulative_layers(gen)
        assert table.max_weight == lay.limit_index == 4
        census = np.cumsum(table.levels)
        for w, s in enumerate(lay.sizes):
            assert census[min(w, table.max_weight)] == s

        # q = 3: both routes agree that no covering radius exists
        gen = generator_set(make_field(3), "minus")
        assert not cumulative_layers(gen).covered
        try:
            coset_leader_table(parity_check_matrix(gen))
        except CoverageError:
            pass
        else:
            raise AssertionError("table route covered an uncoverable group")
